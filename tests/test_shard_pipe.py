"""The worker pipe's protocol, checked by enumeration.

:class:`~repro.shard.pipe.PipeState` is the whole protocol of a worker
pipe's parent end; ``ShardServer`` only does its I/O.  This file models
that I/O — the send lock, the send, the socket, ``FrameReader``'s
buffer, the receiver's wake-up and hang-up poll, the worker answering
in order and dying — around the real transitions, and walks every
interleaving of up to three callers, the receiver, the supervisor, one
publish and one worker death, depth first over hashed states.  One
caller may be a bounded send that runs out of time while the worker is
alive and stopped: it kills the worker and ends its send as failed.

It checks, in every state reached:

1. at most one reader holds the read role;
2. no sink is completed twice (and, once nothing can move, every sink
   is completed);
3. nothing closes a pipe that a sender, a reader or the receiver is
   inside (and nothing reads, sends or rouses on a closed one);
4. once nothing can move, no reply is owed without a reader or a
   pending rouse (no lost wake-up);
5. a crash is counted at most once (and once nothing can move after
   the worker died, exactly once), and a pipe whose hang-up was seen
   never reads running;
6. no frame follows a half frame on the pipe.

A violation is reported with the invariant and the trace of steps that
reached it.  ``TestMustFail`` swaps in faulty transitions and checks
that each is caught.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.shard.pipe import (
    CALLER,
    CLOSE,
    LEAVE,
    READ,
    ROUSE,
    SEND,
    PipeState,
)

#: Steps after which a path is cut.  Every run of the checked walks
#: ends within it, so no interleaving is cut short.
DEPTH = 60


class Violation(AssertionError):
    """An invariant broken, with the steps that broke it."""

    def __init__(self, invariant: str, trace=()):
        self.invariant = invariant
        self.trace = list(trace)
        steps = "\n".join(f"  {n:>3}. {step}"
                          for n, step in enumerate(self.trace, 1))
        super().__init__(f"{invariant}\n{steps}")


class World:
    """Everything one interleaving has reached: the pipe's state and
    what the model knows besides.

    ``inbox``: frames sent, not yet read by the worker.  ``sock``:
    answer frames the worker wrote, not yet received.  ``buf``: frames
    received into ``FrameReader``'s buffer, not yet handed out.
    ``sender``, ``readers`` and ``receiver`` are who is inside, as the
    transitions' answers say; the sender holds the send lock (a refused
    send takes and drops it in one step).
    ``wake``: a wake-up byte is pending; ``watch``: the receiver's poll
    still watches the hang-up; ``seen``: the state was told of the
    hang-up (by that poll or a failed send); ``killed``: a sender that
    ran out of time killed the worker, which dies at a later step.
    ``done`` counts each caller's sink completions."""

    def __init__(self, state, actors, n_callers: int):
        self.state = state
        self.inbox = self.sock = self.buf = ()
        self.alive = self.watch = self.receiver = True
        self.wake = self.closed = self.seen = self.died = False
        self.killed = False
        self.sender = None
        self.readers = ()
        self.actors = tuple(actors)
        self.done = (0,) * n_callers
        self.crashes = 0

    def clone(self) -> "World":
        copy = object.__new__(World)
        copy.__dict__.update(self.__dict__)
        state = copy.state = object.__new__(type(self.state))
        state.__dict__.update(self.state.__dict__)
        state.pending = dict(state.pending)
        return copy

    def key(self) -> tuple:
        state = dict(self.state.__dict__, pending=None)
        return (tuple(state.values()),
                tuple(sorted(self.state.pending.items())),
                tuple(dict(self.__dict__, state=None).values()))

    def act(self, i: int, *actor) -> None:
        self.actors = self.actors[:i] + (actor,) + self.actors[i + 1:]


# -- what the I/O layer does around a transition ----------------------------


def apply(w: World, flags: int, who: str) -> None:
    """Perform a transition's ROUSE and CLOSE, checking invariant 3."""
    if flags & ROUSE:
        if w.closed:
            raise Violation(f"{who} rouses the closed pipe")
        w.wake = True
    if flags & CLOSE:
        inside = [name for name, there in (
            ("a sender", w.sender is not None),
            ("a reader", bool(w.readers)),
            ("the receiver", w.receiver)) if there]
        if inside:
            raise Violation(f"{who} closes the pipe with "
                            f"{' and '.join(inside)} inside")
        w.closed = True


def complete(w: World, sink: int) -> None:
    done = list(w.done)
    done[sink] += 1
    w.done = tuple(done)
    if done[sink] > 1:
        raise Violation(f"sink {sink} is completed twice")


def bury(w: World, flags: int, sinks, crashed: bool, who: str) -> None:
    apply(w, flags, who)
    for sink in sinks:
        complete(w, sink)
    w.crashes += crashed
    if w.crashes > 1:
        raise Violation("the crash is counted twice")


def readable(w: World) -> bool:
    """``_ProcHandle.readable``: a whole frame in the buffer, or a poll
    that returns (a frame on the socket, or its EOF)."""
    return bool(w.buf or w.sock or not w.alive)


def read_one(w: World, who: str) -> bool:
    """``ShardServer._read_one``: one frame off the buffer, receiving
    everything the socket holds when the buffer is empty.  False at
    EOF."""
    if w.closed:
        raise Violation(f"{who} reads the closed pipe")
    if not w.buf:
        w.buf, w.sock = w.sock, ()
    if not w.buf:
        flags, sinks, crashed = w.state.read_eof()
        bury(w, flags, sinks, crashed, who)
        return False
    (kind, rid), w.buf = w.buf[0], w.buf[1:]
    if kind == "ctl":
        w.state.control_paid()
    else:
        sink = w.state.answer(rid)
        if sink is not None:
            complete(w, sink)
    return True


def enter(w: World, reader: int) -> None:
    w.readers += (reader,)
    if len(w.readers) > 1:
        raise Violation("two readers hold the read role")


def give_back(w: World, reader: int, who: str) -> None:
    w.readers = tuple(r for r in w.readers if r != reader)
    apply(w, w.state.give_back(), who)


# -- the actors ---------------------------------------------------------------
#
# An actor is a tuple: its kind, its program counter, and for the
# receiver whether its poll just saw the hang-up, for the supervisor
# whether it runs the idle scan and the sinks it has to fail.  Each
# ``*_moves`` returns ``(label, world)`` for each step the actor can
# take now; none when it is blocked or done.


def begin_send(w: World, i: int, rid, who: str, kind: str = "req") -> str:
    """Take the (free) send lock, ``send_begin`` and send: the sender's
    pc after it, ``refused``, ``sent`` or ``failed``.  A ``half`` frame
    is one the worker stopped reading halfway."""
    if not w.state.send_begin(rid, rid, 1) & SEND:
        return "refused"
    if w.closed:
        raise Violation(f"{who} sends on the closed pipe")
    w.sender = i
    if not w.alive:
        return "failed"  # EPIPE
    w.inbox += ((kind if rid is not None else "ctl", rid),)
    return "sent"


def end_send(w: World, pc: str, who: str) -> None:
    """``send_end``, then the send lock is released."""
    w.sender = None
    w.seen |= pc == "failed"
    apply(w, w.state.send_end(pc == "sent"), who)


SENT = {"refused": "is refused", "sent": "sends",
        "failed": "fails its send (EPIPE)"}


def caller_moves(w: World, i: int):
    """A ``submit`` on the direct path, then ``result()``: a ``lead``
    caller reads its own answer when the role is free, a ``wait`` one
    (a done callback, ``concurrent.futures.wait``, a ``map_query``
    chunk) never leads, and a ``forget`` one never looks at its
    future."""
    kind, pc = w.actors[i]
    who = f"caller {i}"
    if pc in ("waits", "lead") and not w.done[i] and (
            pc == "waits" or not readable(w)):
        return []  # on its future's condition / in poll
    n = w.clone()
    if pc == "start":
        if w.sender is not None:
            # The send lock stays busy past DIRECT_SEND_WAIT_S: the
            # pool answers the read from the parent's snapshot.
            complete(n, i)
            n.act(i, kind, "end")
            return [(f"{who} is answered locally", n)]
        pc = begin_send(n, i, i, who)
        label = f"{who} {SENT[pc]}"
        if pc == "refused":
            complete(n, i)  # with WorkerCrashedError, by the caller
            pc = "end"
        n.act(i, kind, pc)
        return [(label, n)]
    if pc in ("sent", "failed"):
        end_send(n, pc, who)
        n.act(i, kind, "end" if kind == "forget" else "after")
        return [(f"{who} ends its send", n)]
    if pc == "after":
        if n.done[i]:
            n.act(i, kind, "end")
            return [(f"{who} finds its future done", n)]
        if kind == "lead" and n.state.take(CALLER) & READ:
            enter(n, i)
            n.act(i, kind, "lead")
            return [(f"{who} takes the read role", n)]
        # Building the future's Condition rouses the receiver.
        apply(n, n.state.rouse(), who)
        n.act(i, kind, "waits")
        return [(f"{who} builds its condition and rouses", n)]
    if pc == "lead":
        if not n.done[i] and read_one(n, who):
            return [(f"{who} reads a frame", n)]
        give_back(n, i, who)
        n.act(i, kind, "end")
        return [(f"{who} " + ("finds its future done" if w.done[i]
                              else "reads EOF")
                 + " and gives the role back", n)]
    n.act(i, kind, "end")  # waits, and its future is done
    return [(f"{who} is woken", n)]


def stall_moves(w: World, i: int):
    """A bounded send (``_ProcHandle._send_by``: a ``map_query`` chunk)
    to a worker that stops reading halfway through its frame.  It runs
    out of time, reclaims its sink (its caller counts a timeout), kills
    the worker and ends its send as failed; or the worker dies first and
    the send fails (EPIPE)."""
    pc = w.actors[i][1]
    who = f"caller {i}"
    if pc == "start" and w.sender is not None:
        return []  # waits for the send lock, until its holder's deadline
    n = w.clone()
    if pc == "start":
        pc = begin_send(n, i, i, who, "half")
        label = {"refused": "is refused", "failed": SENT["failed"],
                 "sent": "sends half its frame; the worker stops"}[pc]
        if pc == "refused":
            complete(n, i)  # with WorkerCrashedError, by the caller
        n.act(i, "stall", {"refused": "end", "sent": "half"}.get(pc, pc))
        return [(f"{who} {label}", n)]
    if pc == "half":
        for sink in n.state.reclaim((i,)):
            complete(n, sink)  # counted a timeout
        n.killed = not n.died
        n.act(i, "stall", "killed")
        moves = [(f"{who} runs out of time, reclaims its sink and kills "
                  "the worker", n)]
        if not w.alive:
            n = w.clone()
            n.act(i, "stall", "failed")
            moves.append((f"{who} fails its send (EPIPE)", n))
        return moves
    end_send(n, pc, who)
    n.act(i, "stall", "end")
    return [(f"{who} ends its send as failed", n)]


def publish_moves(w: World, i: int):
    """``_ProcHandle.send(("publish", …))``: a control message owed a
    reply, then a rouse for the receiver to read it."""
    pc = w.actors[i][1]
    who = "the publish"
    if pc == "start" and w.sender is not None:
        return []  # waits for the send lock
    n = w.clone()
    if pc == "start":
        pc = begin_send(n, i, None, who)
        label = f"{who} {SENT[pc]}"
        if pc == "refused":
            apply(n, n.state.rouse(), who)
            pc = "end"
        n.act(i, "publish", pc)
        return [(label, n)]
    end_send(n, pc, who)
    apply(n, n.state.rouse(), who)
    n.act(i, "publish", "end")
    return [(f"{who} ends its send and rouses the receiver", n)]


def park(n: World, i: int, hung: bool, label: str):
    """The receiver's ``park`` transition and where it leads."""
    who = "the receiver"
    n.seen |= hung
    flags = n.state.park(hung)
    if flags & LEAVE:
        n.receiver = False
        apply(n, flags, who)
        n.act(i, "receiver", "end", False)
        return [(f"{who} {label} and leaves", n)]
    if flags & READ:
        enter(n, i)
        n.act(i, "receiver", "reads", False)
        return [(f"{who} {label} and takes the read role", n)]
    n.act(i, "receiver", "sleep", False)
    return [(f"{who} {label} and sleeps", n)]


def receiver_moves(w: World, i: int):
    """``ShardServer._receiver_loop``."""
    _kind, pc, hung = w.actors[i]
    if pc == "park":
        return park(w.clone(), i, hung, "parks")
    if pc == "sleep":
        hup = w.watch and not w.alive
        if not w.wake and not hup:
            return []
        if w.closed:
            raise Violation("the receiver polls the closed pipe")
        n = w.clone()
        n.wake = False
        n.watch &= not hup
        return park(n, i, hup, "wakes on the hang-up" if hup
                    else "is roused")
    owed = w.state.owes()
    if owed and not readable(w):
        return []
    n = w.clone()
    if owed:
        if read_one(n, "the receiver"):
            return [("the receiver reads a frame", n)]
        label = "reads EOF, gives the role back"
    else:
        label = "finds nothing owed, gives the role back"
    give_back(n, i, "the receiver")
    return park(n, i, False, label)


def supervisor_moves(w: World, i: int):
    """``ShardServer._supervise_extra``: with ``scans``, the idle scan,
    taken whenever it would change the state (the real one runs
    forever); a worker found not running is retired once its receiver
    has ended (or the join timed out), its sinks are failed, and the
    slot is respawned."""
    _kind, pc, scans, sinks = w.actors[i]
    who = "the supervisor"
    state = w.state
    if pc == "scan" and state.running and w.alive:
        if not scans or not (state.idle or (
                state.reader is None and state.owes())):
            return []
        n = w.clone()
        apply(n, n.state.scan(), who)
        return [(f"{who} scans", n)]
    n = w.clone()
    if pc == "scan":
        ended = all(a[1] == "end" for a in w.actors if a[0] == "receiver")
        flags, buried, crashed = n.state.retire()
        apply(n, flags, who)
        n.crashes += crashed
        if n.crashes > 1:
            raise Violation("the crash is counted twice")
        n.act(i, "supervisor", "fail", scans, tuple(buried))
        return [(f"{who} finds the worker down, "
                 + ("joins its receiver" if ended
                    else "times out joining its receiver")
                 + " and retires the pipe", n)]
    # The slot's fresh pipe starts as this one did: its interleavings
    # are this walk's from the start.  Until the router drops the
    # retired one, a send to it is refused.
    for sink in sinks:
        complete(n, sink)
    n.act(i, "supervisor", "end", scans, ())
    return [(f"{who} fails {len(sinks)} sinks and respawns", n)]


def worker_moves(w: World, dies: bool):
    """The live worker answers its oldest message, or dies (once): its
    socket keeps what it wrote, then EOF."""
    moves = []
    if w.alive and w.inbox and w.inbox[0][0] != "half":
        n = w.clone()
        (kind, rid), n.inbox = n.inbox[0], n.inbox[1:]
        n.sock += (("ans" if kind == "req" else "ctl", rid),)
        moves.append(("the worker answers "
                      + (f"request {rid}" if kind == "req"
                         else "the publish"), n))
    if (dies or w.killed) and not w.died:
        n = w.clone()
        n.alive, n.inbox, n.died = False, (), True
        moves.append(("the worker dies", n))
    return moves


MOVES = {"lead": caller_moves, "wait": caller_moves, "forget": caller_moves,
         "stall": stall_moves, "publish": publish_moves,
         "receiver": receiver_moves,
         "supervisor": supervisor_moves}


def successors(w: World, dies: bool) -> list:
    moves = []
    for i, actor in enumerate(w.actors):
        if actor[1] != "end":
            moves += MOVES[actor[0]](w, i)
    return moves + worker_moves(w, dies)


def check_always(w: World) -> None:
    if w.seen and w.state.running:
        raise Violation("the pipe hung up and still reads running")
    if any(kind == "half" for kind, _rid in w.inbox[:-1]):
        raise Violation("a frame follows a half frame on the pipe")


def check_quiescent(w: World) -> None:
    if w.state.owes() and not w.readers and not w.wake:
        raise Violation("the pipe owes a reply with no reader and no "
                        "pending rouse: a lost wake-up")
    for i, done in enumerate(w.done):
        if done != 1:
            raise Violation(f"caller {i} is stuck: its sink is completed "
                            f"{done} times")
    if w.died and w.crashes != 1:
        raise Violation(f"the worker died and {w.crashes} crashes count")


class Stats:
    def __init__(self):
        self.states = self.transitions = self.ends = self.cut = 0
        self.deepest = 0


def explore(callers=("lead", "lead", "wait"), publish=True,
            supervisor=True, scans=False, dies=True, state_class=PipeState,
            depth=DEPTH) -> Stats:
    """Walk every interleaving from the start; raise :class:`Violation`
    with its trace on the first broken invariant."""
    state = state_class()
    state.start()
    actors = [(kind, "start") for kind in callers]
    if publish:
        actors.append(("publish", "start"))
    actors.append(("receiver", "park", False))
    if supervisor:
        actors.append(("supervisor", "scan", scans, ()))
    start = World(state, actors, len(callers))
    stats = Stats()
    seen = {start.key()}
    stack = [(start, 0, None)]
    while stack:
        world, level, trace = stack.pop()
        stats.deepest = max(stats.deepest, level)
        try:
            moves = successors(world, dies)
            if not moves:
                stats.ends += 1
                check_quiescent(world)
        except Violation as broken:
            raise Violation(broken.invariant, unwind(trace)) from None
        if level >= depth:
            stats.cut += bool(moves)
            continue
        for label, nxt in moves:
            stats.transitions += 1
            try:
                check_always(nxt)
            except Violation as broken:
                raise Violation(broken.invariant,
                                unwind((label, trace))) from None
            key = nxt.key()
            if key not in seen:
                seen.add(key)
                stack.append((nxt, level + 1, (label, trace)))
    stats.states = len(seen)
    return stats


def unwind(trace) -> list:
    steps = []
    while trace is not None:
        label, trace = trace
        steps.append(label)
    return steps[::-1]


#: The walks tier-1 runs, each to its end: the read role among three
#: callers; a publish's control reply; the supervisor's idle scan; a
#: send that runs out of time.  ``REPRO_PIPE_FULL=1`` (CI's "Pipe and
#: fleet protocols, enumerated" step) walks the first three at once,
#: and then again with one caller's send running out of time.
WALKS = {
    "three callers, a death": dict(callers=("lead", "lead", "wait"),
                                   publish=False),
    "two callers, a publish, a death": dict(callers=("lead", "wait")),
    "a forward nobody waits on": dict(callers=("lead", "wait", "forget"),
                                      publish=False, scans=True,
                                      dies=False),
    "a send that runs out of time, a publish": dict(
        callers=("lead", "stall"), dies=False),
}
WALKS_WITH_A_PUBLISH = WALKS["two callers, a publish, a death"]
WALKS_WITH_A_STALL = WALKS["a send that runs out of time, a publish"]
if os.environ.get("REPRO_PIPE_FULL"):
    WALKS = {"three callers, a publish, a death": dict(),
             "three callers, one send out of time, a publish, a death":
                 dict(callers=("lead", "wait", "stall"))}


@pytest.mark.parametrize("walk", list(WALKS))
def test_every_interleaving_keeps_the_invariants(walk):
    """Every interleaving of the walk keeps every invariant, and none is
    cut by the depth bound."""
    began = time.monotonic()
    stats = explore(**WALKS[walk])
    print(f"\npipe protocol, {walk}: {stats.states} states, "
          f"{stats.transitions} transitions, {stats.ends} ends, deepest "
          f"path {stats.deepest} of a bound of {DEPTH} steps, "
          f"{time.monotonic() - began:.1f} s")
    assert stats.cut == 0
    assert stats.ends > 0


def test_only_the_scan_reads_a_forward_nobody_waits_on():
    """Without the supervisor's idle scan, nothing rouses the receiver
    for a forward whose caller never looks at its future."""
    with pytest.raises(Violation, match="lost wake-up"):
        explore(callers=("forget",), publish=False, supervisor=False,
                dies=False)


# -- faulty transitions the explorer must catch ---------------------------


class StillRunningWhenHungUp(PipeState):
    """A hang-up seen by the receiver's poll or a failed send leaves the
    pipe running until its EOF is read: what ``shard_health()`` and the
    router read of a killed worker while a caller holds the read role."""

    def _hung(self) -> None:
        self.hung_up = not (self.ended or self.retiring)


class ClosesUnderASender(PipeState):
    """Retiring closes the pipe once no reader and no receiver is
    inside, while a send may still be: its descriptor number can go to
    the next worker's pipe mid-send."""

    def _out(self) -> int:
        if (self.retiring and not self.closed and self.reader is None
                and not self.receiver):
            self.closed = True
            return CLOSE
        return 0


class PaysControlsNoLongerOwed(PipeState):
    """A ``pub_ok`` read after the worker was buried still pays off a
    control message: the count goes below zero, and the pipe owes a
    reply forever."""

    def control_paid(self) -> int:
        self.idle = False
        self.controls_owed -= 1
        return 0


class HangsUpWhenRetired(PipeState):
    """A hang-up seen after retirement arms ``hung_up`` again: a retired
    pipe owes its EOF, and nobody will read it."""

    def _hung(self) -> None:
        self.running = False
        self.hung_up = not self.ended


class EndsATimedOutSendAsSent(PipeState):
    """A send that ran out of time (its sender reclaimed its own sink
    mid-send) is ended as sent: the pipe serves on, and the next frame
    follows the half frame the worker stopped in."""

    timed_out = False

    def reclaim(self, rids) -> list:
        self.timed_out = self.sending
        return super().reclaim(rids)

    def send_end(self, sent: bool) -> int:
        sent, self.timed_out = sent or self.timed_out, False
        return super().send_end(sent)


class TestMustFail:
    @pytest.mark.parametrize("fault, invariant", [
        (StillRunningWhenHungUp, "hung up and still reads running"),
        (ClosesUnderASender, "with a sender inside"),
        (PaysControlsNoLongerOwed, "lost wake-up"),
        (HangsUpWhenRetired, "lost wake-up"),
    ])
    def test_a_faulty_transition_is_reported_with_its_trace(
            self, fault, invariant):
        with pytest.raises(Violation) as caught:
            explore(**WALKS_WITH_A_PUBLISH, state_class=fault)
        broken = caught.value
        print(f"\n{fault.__name__}: {broken}")
        assert invariant in broken.invariant
        assert "the worker dies" in broken.trace

    def test_a_timed_out_send_ended_as_sent_is_reported(self):
        with pytest.raises(Violation) as caught:
            explore(**WALKS_WITH_A_STALL,
                    state_class=EndsATimedOutSendAsSent)
        broken = caught.value
        print(f"\nEndsATimedOutSendAsSent: {broken}")
        assert "follows a half frame" in broken.invariant
        assert any("runs out of time" in step for step in broken.trace)
