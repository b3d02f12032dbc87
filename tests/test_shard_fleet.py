"""The fleet's lifecycle, checked by enumeration.

:class:`~repro.shard.fleet.FleetState` is the whole protocol of the
worker fleet — which slot serves on which pipe, what each is announced,
which segments stay linked — and :class:`~repro.shard.pipe.PipeState`
that of each pipe; ``ShardServer`` only does their I/O.  This file
models that I/O around both sets of real transitions: the publisher
announcing an epoch and waiting for its replies, the supervisor's scan
(retire the dead pipe, fork a worker, re-announce to one that lags),
each pipe's receiver, callers reading their own answers, the deadline
scan taking a forward back, ``close()`` stopping the fleet, and each
worker attaching what it is announced, answering in order and dying.
It walks every interleaving, depth first over hashed states.

It checks, in every state reached:

1. no segment is unlinked while a slot is attached to it, owes its
   announce or is being spawned on it;
2. no sink is completed twice (and, once nothing can move, every sink
   is completed);
3. at most one live pipe per slot: only a slot's latest pipe is routed
   or announced to, and only its worker lives;
4. at most one announce owed per slot: one ``publish`` frame in flight
   to a worker, or its reply;
5. after ``stop`` nothing is spawned; once nothing can move after it,
   every segment is unlinked and no worker, receiver or pipe is left.

Once nothing can move without a ``close()``, the fleet has converged:
every slot serves the current epoch, owes nothing, and only the current
epoch's segment is linked; and the publish is not left waiting for a
reply.  A violation is reported with the invariant and the trace of
steps that reached it.  ``TestMustFail`` swaps in faulty transitions and
checks that each invariant catches one.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

import pytest

from repro.shard.fleet import (
    ANNOUNCE,
    LIVE,
    RETIRE,
    SPAWN,
    SPAWNING,
    UNLINK,
    WAKE,
    FleetState,
    Slot,
)
from repro.shard.pipe import CALLER, CLOSE, LEAVE, READ, ROUSE, SEND, PipeState

#: Steps after which a path is cut.  Every run of the checked walks
#: ends within it, so no interleaving is cut short.
DEPTH = 120


class Violation(AssertionError):
    """An invariant broken, with the steps that broke it."""

    def __init__(self, invariant: str, trace=()):
        self.invariant = invariant
        self.trace = list(trace)
        steps = "\n".join(f"  {n:>3}. {step}"
                          for n, step in enumerate(self.trace, 1))
        super().__init__(f"{invariant}\n{steps}")


class Pipe:
    """One pipe of a slot and its worker process.  ``inbox``: frames
    sent, not yet read by the worker; ``sock``: frames the worker wrote,
    not yet read.  ``epoch`` is the one the worker serves; ``eof``: the
    parent shut down its write side.  ``receiver``, ``readers`` and
    ``sender`` are who is inside; ``wake`` a pending wake-up byte,
    ``watch`` whether the receiver's poll still watches the hang-up."""

    def __init__(self, slot: int, gen: int, epoch: int, state_class):
        self.key = (slot, gen)
        self.state = state_class()
        self.state.start()
        self.inbox = self.sock = self.readers = ()
        self.alive = self.receiver = self.watch = True
        self.eof = self.closed = self.wake = False
        self.epoch = epoch
        self.sender = self.hashed = None

    def clone(self) -> "Pipe":
        copy = object.__new__(Pipe)
        copy.__dict__.update(self.__dict__)
        state = copy.state = object.__new__(type(self.state))
        state.__dict__.update(self.state.__dict__)
        state.pending = dict(state.pending)
        copy.hashed = None
        return copy

    def key_of(self) -> tuple:
        """Its part of the world's key, kept: a pipe a world shares with
        the one it was cloned from is never written again."""
        if self.hashed is None:
            state = dict(self.state.__dict__, pending=None)
            self.hashed = (tuple(state.values()),
                           tuple(sorted(self.state.pending.items())),
                           tuple(dict(self.__dict__, state=None,
                                      hashed=None).values()))
        return self.hashed

    def owes_reply(self) -> int:
        """Announces in flight to this worker, or their replies."""
        return sum(frame[0] in ("pub", "ok", "err")
                   for frame in self.inbox + self.sock)


def clone_fleet(fleet: FleetState) -> FleetState:
    copy = object.__new__(type(fleet))
    copy.__dict__.update(fleet.__dict__)
    copy.segments = dict(fleet.segments)
    copy.awaited = set(fleet.awaited)
    slots = copy.slots = []
    for seat in fleet.slots:
        twin = object.__new__(Slot)
        twin.__dict__.update(seat.__dict__)
        slots.append(twin)
    return copy


def fleet_key(fleet: FleetState) -> tuple:
    return (fleet.epoch, tuple(sorted(fleet.segments.items())),
            fleet.stopping, frozenset(fleet.awaited), fleet.waker,
            tuple((s.gen, s.pipe, s.status, s.attached, s.owed)
                  for s in fleet.slots))


class World:
    """Everything one interleaving has reached.  ``linked``: the
    segments (by epoch) not yet unlinked.  ``routable``: the tuple
    reads route to (``ShardServer._routable``).  ``woken``: the last
    publish woken.  ``done`` counts each caller's sink completions."""

    def __init__(self, fleet, pipes, actors, n_callers: int, pipe_class):
        self.fleet = fleet
        self.pipe_class = pipe_class
        self.pipes = {pipe.key: pipe for pipe in pipes}
        self.actors = tuple(actors)
        self.linked = frozenset(fleet.segments)
        self.routable = ()
        self.woken = 0
        self.done = (0,) * n_callers
        self.mine = set()

    def clone(self) -> "World":
        """A copy whose fleet and pipes are shared until written
        (:meth:`mut`, :meth:`step`)."""
        copy = object.__new__(World)
        copy.__dict__.update(self.__dict__)
        copy.pipes = dict(self.pipes)
        copy.mine = set()
        return copy

    def mut(self, key) -> Pipe:
        """Pipe ``key``, this world's own to write."""
        if key not in self.mine:
            self.pipes[key] = self.pipes[key].clone()
            self.mine.add(key)
        return self.pipes[key]

    def key(self) -> tuple:
        return (fleet_key(self.fleet),
                tuple(pipe.key_of() for _k, pipe in sorted(self.pipes.items())),
                self.actors, self.linked, self.routable, self.woken,
                self.done)

    def act(self, i: int, *actor) -> None:
        self.actors = self.actors[:i] + (actor,) + self.actors[i + 1:]

    def step(self, transition: str, *args) -> list:
        """One fleet transition under the shard lock; its actions."""
        if "fleet" not in self.mine:
            self.fleet = clone_fleet(self.fleet)
            self.mine.add("fleet")
        actions, self.routable = getattr(self.fleet, transition)(*args)
        if self.fleet.stopping and any(a[0] == SPAWN for a in actions):
            raise Violation("a worker is spawned after stop")
        return list(actions)


# -- what the I/O layer does around a transition ----------------------------


def apply(pipe: Pipe, flags: int, who: str) -> None:
    """Perform a pipe transition's ROUSE and CLOSE."""
    if flags & ROUSE:
        if pipe.closed:
            raise Violation(f"{who} rouses the closed pipe {pipe.key}")
        pipe.wake = True
    if flags & CLOSE:
        if pipe.sender is not None or pipe.readers or pipe.receiver:
            raise Violation(f"{who} closes pipe {pipe.key} with a thread "
                            "inside")
        pipe.closed = True


def complete(w: World, sink: int) -> None:
    done = list(w.done)
    done[sink] += 1
    w.done = tuple(done)
    if done[sink] > 1:
        raise Violation(f"sink {sink} is completed twice")


def unlink(w: World, epoch: int, who: str) -> None:
    """``unlink_segment``, checking invariant 1."""
    if epoch not in w.linked:
        raise Violation(f"{who} unlinks the segment of epoch {epoch} twice")
    if not w.fleet.stopping:
        for pipe in w.pipes.values():
            if pipe.alive and (pipe.epoch == epoch
                               or ("pub", epoch) in pipe.inbox):
                raise Violation(
                    f"{who} unlinks the segment of epoch {epoch} while slot "
                    f"{pipe.key[0]} is attached to it or owes its announce")
        for actor in w.actors:
            if actor[0] == "supervisor" and actor[1] == "fork" \
                    and actor[2][0][3] == epoch:
                raise Violation(f"{who} unlinks the segment of epoch "
                                f"{epoch} a slot is being spawned on")
    w.linked -= {epoch}


def perform(w: World, actions, who: str) -> None:
    """The actions of a transition a reader runs (a reply, a burial):
    never a send, a fork or a stop."""
    for action in actions:
        if action[0] == UNLINK:
            unlink(w, action[1], who)
        elif action[0] == WAKE:
            w.woken = action[1]
        else:
            raise Violation(f"{who} is handed {action[0]}")


def bury(w: World, pipe: Pipe, sinks, who: str) -> None:
    """``ShardServer._bury``: fail the sinks, tell the fleet."""
    for sink in sinks:
        complete(w, sink)
    perform(w, w.step("died", *pipe.key), who)


def readable(pipe: Pipe) -> bool:
    return bool(pipe.sock) or not pipe.alive


def read_one(w: World, pipe: Pipe, who: str) -> bool:
    """``ShardServer._read_one``.  False at EOF."""
    if pipe.closed:
        raise Violation(f"{who} reads the closed pipe {pipe.key}")
    if not pipe.sock:
        flags, sinks, _crashed = pipe.state.read_eof()
        apply(pipe, flags, who)
        bury(w, pipe, sinks, who)
        return False
    (kind, value), pipe.sock = pipe.sock[0], pipe.sock[1:]
    if kind == "ans":
        sink = pipe.state.answer(value)
        if sink is not None:
            complete(w, sink)
        return True
    pipe.state.control_paid()
    if kind == "ok":
        perform(w, w.step("ack", *pipe.key, value), who)
    else:
        perform(w, w.step("nack", *pipe.key), who)
    return True


def give_back(pipe: Pipe, reader, who: str) -> None:
    pipe.readers = tuple(r for r in pipe.readers if r != reader)
    apply(pipe, pipe.state.give_back(), who)


def send_begin(pipe: Pipe, who, frame) -> str:
    """Take the free send lock, ``send_begin`` and ``sendall``: the
    sender's next pc, ``refused``, ``sent`` or ``failed``."""
    rid = frame[1] if frame[0] == "req" else None
    if not pipe.state.send_begin(rid, rid, 1) & SEND:
        return "refused"
    if pipe.closed:
        raise Violation(f"{who} sends on the closed pipe {pipe.key}")
    pipe.sender = who
    if not pipe.alive or pipe.eof:
        return "failed"  # EPIPE
    pipe.inbox += (frame,)
    return "sent"


def send_end(pipe: Pipe, pc: str, who: str) -> None:
    pipe.sender = None
    apply(pipe, pipe.state.send_end(pc == "sent"), who)


# -- the actors ---------------------------------------------------------------
#
# An actor is a tuple: its kind, its program counter, then its own
# data.  Each ``*_moves`` returns ``(label, world)`` for each step the
# actor can take now; none when it is blocked or done.


def announce_moves(w: World, i: int, who: str, actor, queue, after):
    """Perform the head of ``queue`` (``ShardServer._act``) for the
    publisher or the supervisor, whose actor continues as ``after``
    when the queue is empty.  An announce is ``_ProcHandle.send``: the
    send, then its end and a rouse for the receiver."""
    kind, pc = actor[0], actor[1]
    n = w.clone()
    if pc == "sending":
        _, key, epoch = queue[0][:3]
        pipe = n.mut(key)
        send_end(pipe, actor[3], who)
        apply(pipe, pipe.state.rouse(), who)
        n.act(i, kind, "act", queue[1:], None, *actor[4:])
        return [(f"{who} ends its announce of epoch {epoch} to slot "
                 f"{key[0]} and rouses", n)]
    if not queue:
        n.act(i, kind, after, (), None, *actor[4:])
        return [(f"{who} is done acting", n)]
    action = queue[0]
    if action[0] == ANNOUNCE:
        _, key, epoch = action[:3]
        pipe = n.mut(key)
        if pipe.sender is not None:
            return []  # waits for the send lock
        sent = send_begin(pipe, who, ("pub", epoch))
        if sent == "refused":
            apply(pipe, pipe.state.rouse(), who)
            n.act(i, kind, "act", queue[1:], None, *actor[4:])
        else:
            n.act(i, kind, "sending", queue, sent, *actor[4:])
        return [(f"{who} announces epoch {epoch} to slot {key[0]}: {sent}",
                 n)]
    if action[0] == UNLINK:
        unlink(n, action[1], who)
        label = f"{who} unlinks the segment of epoch {action[1]}"
    elif action[0] == WAKE:
        n.woken = action[1]
        label = f"{who} wakes publish {action[1]}"
    elif action[0] == SPAWN:
        n.act(i, kind, "fork", queue, None, *actor[4:])
        return spawn_moves(n, i, who)
    else:  # RETIRE
        n.act(i, kind, "retire", queue, None, *actor[4:])
        return stop_moves(n, i, who)
    n.act(i, kind, "act", queue[1:], None, *actor[4:])
    return [(label, n)]


def spawn_moves(n: World, i: int, who: str):
    """``ShardServer._respawn``, first step: retire the slot's old pipe
    (its receiver may still be inside: the join can time out) and reap
    its worker."""
    actor = n.actors[i]
    _, slot, gen, epoch, _segment = actor[2][0]
    old = n.mut(n.fleet.slots[slot].pipe)
    flags, sinks, _crashed = old.state.retire()
    apply(old, flags, who)
    bury(n, old, sinks, who)
    old.alive, old.inbox = False, ()
    return [(f"{who} retires slot {slot}'s pipe {old.key} and forks "
             f"pipe {gen} on epoch {epoch}", n)]


def fork_moves(w: World, i: int, who: str):
    """``_respawn``'s fork: the worker attaches the segment it is
    spawned on (a segment gone fails the spawn), then ``respawned``."""
    n = w.clone()
    actor = n.actors[i]
    queue = actor[2]
    _, slot, gen, epoch, _segment = queue[0]
    pipe = None
    if epoch in n.linked:
        pipe = Pipe(slot, gen, epoch, n.pipe_class)
        n.pipes[pipe.key] = pipe
        n.mine.add(pipe.key)
        n.actors += (("receiver", pipe.key, "park", False),)
    actions = n.step("respawned", slot, gen,
                     None if pipe is None else pipe.key)
    n.act(i, actor[0], "act", tuple(actions) + queue[1:], None, *actor[4:])
    return [(f"{who} " + ("finds the segment gone" if pipe is None
                          else f"brings up slot {slot}'s pipe {gen}"), n)]


def stop_moves(w: World, i: int, who: str):
    """``ShardServer._stop_workers`` for one RETIRE: EOF to the worker,
    retire the pipe, reap the worker (a kill at worst), join the
    receiver."""
    actor = w.actors[i]
    key = actor[2][0][1]
    pipe = w.pipes[key]
    n = w.clone()
    p = n.mut(key)
    pc = actor[1]
    if pc == "retire":
        if not p.closed:
            p.eof = True
        flags, sinks, _crashed = p.state.retire()
        apply(p, flags, who)
        bury(n, p, sinks, who)
        p.alive, p.inbox = False, ()
        n.act(i, actor[0], "join", actor[2], None, *actor[4:])
        return [(f"{who} tells pipe {key} EOF, retires it and reaps its "
                 "worker", n)]
    if pipe.receiver:  # "join": the receiver leaves once roused
        return []
    n.act(i, actor[0], "act", actor[2][1:], None, *actor[4:])
    return [(f"{who} joins pipe {key}'s receiver", n)]


def publisher_moves(w: World, i: int):
    """``ShardServer._publish``: a new segment, the publish transition
    under the lock, its announces, then the wait for its replies."""
    actor = w.actors[i]
    pc, left, mine = actor[1], actor[4], actor[5]
    who = "the publish"
    if pc == "start":
        if not left:
            return []
        n = w.clone()
        epoch = n.fleet.epoch + 1
        n.linked |= {epoch}
        # The segment and the waker are the epoch's number.
        actions = n.step("publish", epoch, epoch)
        n.act(i, "publisher", "act", tuple(actions), None, left, epoch)
        return [(f"{who} packs epoch {epoch} and announces it", n)]
    if pc == "wait":
        # Woken, or past PUBLISH_ACK_TIMEOUT_S while a worker has not
        # read its announce yet (a lagging worker; with every announce
        # read, only a lost wake-up leaves it waiting).
        lagging = any(("pub", mine) in pipe.inbox
                      for pipe in w.pipes.values())
        if w.woken != mine and not lagging:
            return []
        n = w.clone()
        n.act(i, "publisher", "start", (), None, left - 1, mine)
        return [(f"{who} " + ("is woken" if w.woken == mine else
                              "times out waiting for a lagging worker"), n)]
    return announce_moves(w, i, who, actor, actor[2], "wait")


def supervisor_moves(w: World, i: int):
    """``ShardServer._supervise_extra``: the fleet's scan, taken
    whenever it would do something, then its actions."""
    actor = w.actors[i]
    pc = actor[1]
    who = "the supervisor"
    if pc == "idle":
        if actor[4]:
            return []  # halted
        moves = []
        if clone_fleet(w.fleet).scan()[0]:
            n = w.clone()
            actions = n.step("scan")
            n.act(i, "supervisor", "act", tuple(actions), None, False,
                  actor[5])
            moves.append((f"{who} scans", n))
        for seat in w.fleet.slots if actor[5] else ():
            # The idle scan of each slot's pipe, taken whenever it
            # would change the pipe's state: a reply owed with nobody
            # reading across two scans rouses the receiver.
            state = w.pipes[seat.pipe].state
            if state.idle or (state.reader is None and state.owes()):
                n = w.clone()
                pipe = n.mut(seat.pipe)
                apply(pipe, pipe.state.scan(), who)
                moves.append((f"{who} scans pipe {seat.pipe}", n))
        return moves
    if pc == "fork":
        return fork_moves(w, i, who)
    if pc in ("retire", "join"):
        return stop_moves(w, i, who)
    return announce_moves(w, i, who, actor, actor[2], "idle")


def closer_moves(w: World, i: int):
    """``ShardServer.close``: the stop transition and its actions, then
    the supervisor halts (its scan in progress is waited out)."""
    actor = w.actors[i]
    pc = actor[1]
    who = "close()"
    n = w.clone()
    if pc == "start":
        actions = n.step("stop")
        # _act: the RETIREs first.
        n.act(i, "closer", "act", tuple(sorted(
            actions, key=lambda action: action[0] != RETIRE)), None)
        return [(f"{who} stops the fleet", n)]
    if pc in ("retire", "join"):
        return stop_moves(w, i, who)
    if pc == "halt":
        for j, other in enumerate(w.actors):
            if other[0] == "supervisor":
                if other[1] != "idle":
                    return []  # waits out the scan in progress
                n.act(j, *other[:4], True, other[5])
        n.act(i, "closer", "end")
        return [(f"{who} halts the supervisor", n)]
    return announce_moves(w, i, who, actor, actor[2], "halt")


def caller_moves(w: World, i: int):
    """``submit`` on the direct path, then ``result()``: a ``lead``
    caller reads its own answer when the role is free, a ``wait`` one
    never leads.  With nothing routable, the pool answers."""
    actor = w.actors[i]
    _kind, pc, style, key = actor
    who = f"caller {i}"
    if pc == "start":
        if not w.routable:
            n = w.clone()
            complete(n, i)
            n.act(i, "caller", "end", style, None)
            return [(f"{who} is answered locally", n)]
        moves = []
        for key in w.routable:
            n = w.clone()
            pipe = n.mut(key)
            if pipe.sender is not None:
                complete(n, i)  # the send lock stays busy: the pool
                n.act(i, "caller", "end", style, key)
                moves.append((f"{who} is answered locally", n))
                continue
            sent = send_begin(pipe, i, ("req", i))
            if sent == "refused":
                complete(n, i)  # WorkerCrashedError
                n.act(i, "caller", "end", style, key)
            else:
                n.act(i, "caller", sent, style, key)
            moves.append((f"{who} sends to slot {key[0]}: {sent}", n))
        return moves
    pipe = w.pipes[key]
    if pc in ("sent", "failed"):
        n = w.clone()
        send_end(n.mut(key), pc, who)
        n.act(i, "caller", "after", style, key)
        return [(f"{who} ends its send", n)]
    if pc == "after":
        n = w.clone()
        p = n.mut(key)
        if n.done[i]:
            n.act(i, "caller", "end", style, key)
            return [(f"{who} finds its future done", n)]
        if style == "lead" and p.state.take(CALLER) & READ:
            p.readers += (i,)
            if len(p.readers) > 1:
                raise Violation("two readers hold the read role")
            n.act(i, "caller", "lead", style, key)
            return [(f"{who} takes the read role", n)]
        apply(p, p.state.rouse(), who)
        n.act(i, "caller", "waits", style, key)
        return [(f"{who} builds its condition and rouses", n)]
    if pc == "lead":
        if not w.done[i] and not readable(pipe):
            return []
        n = w.clone()
        p = n.mut(key)
        if not n.done[i] and read_one(n, p, who):
            return [(f"{who} reads a frame", n)]
        give_back(p, i, who)
        n.act(i, "caller", "end", style, key)
        return [(f"{who} gives the role back", n)]
    if not w.done[i]:  # waits
        return []
    n = w.clone()
    n.act(i, "caller", "end", style, key)
    return [(f"{who} is woken", n)]


def deadline_moves(w: World, i: int):
    """``_fail_overdue``: the supervisor takes caller ``target``'s
    forward back (once), racing its answer."""
    target = w.actors[i][2]
    caller = w.actors[target]
    key = caller[3]
    if key is None or w.done[target] or caller[1] in ("start", "end"):
        return []
    n = w.clone()
    for sink in n.mut(key).state.reclaim([target]):
        complete(n, sink)
    n.act(i, "deadline", "end", target)
    return [(f"the deadline scan reclaims caller {target}'s forward", n)]


def park(n: World, i: int, key, hung: bool, label: str):
    who = f"slot {key[0]}'s receiver {key[1]}"
    pipe = n.mut(key)
    flags = pipe.state.park(hung)
    if flags & LEAVE:
        pipe.receiver = False
        apply(pipe, flags, who)
        n.act(i, "receiver", key, "end", False)
        return [(f"{who} {label} and leaves", n)]
    if flags & READ:
        pipe.readers += ("rx",)
        if len(pipe.readers) > 1:
            raise Violation("two readers hold the read role")
        n.act(i, "receiver", key, "reads", False)
        return [(f"{who} {label} and takes the read role", n)]
    n.act(i, "receiver", key, "sleep", False)
    return [(f"{who} {label} and sleeps", n)]


def receiver_moves(w: World, i: int):
    """``ShardServer._receiver_loop``."""
    _kind, key, pc, hung = w.actors[i]
    pipe = w.pipes[key]
    who = f"slot {key[0]}'s receiver {key[1]}"
    if pc == "park":
        return park(w.clone(), i, key, hung, "parks")
    if pc == "sleep":
        hup = pipe.watch and not pipe.alive
        if not pipe.wake and not hup:
            return []
        if pipe.closed:
            raise Violation(f"{who} polls the closed pipe")
        n = w.clone()
        p = n.mut(key)
        p.wake = False
        p.watch &= not hup
        return park(n, i, key, hup, "wakes on the hang-up" if hup
                    else "is roused")
    owed = pipe.state.owes()
    if owed and not readable(pipe):
        return []
    n = w.clone()
    p = n.mut(key)
    if owed:
        if read_one(n, p, who):
            return [(f"{who} reads a frame", n)]
        label = "reads EOF, gives the role back"
    else:
        label = "finds nothing owed, gives the role back"
    give_back(p, "rx", who)
    return park(n, i, key, False, label)


def worker_moves(w: World, killer):
    """Each live worker reads its oldest frame: a request is answered,
    a publish attached (``pub_err`` when its segment is gone); with its
    inbox empty after EOF it exits.  ``killer`` names the slot whose
    worker may die (once)."""
    moves = []
    for key, pipe in sorted(w.pipes.items()):
        if not pipe.alive:
            continue
        if pipe.inbox:
            n = w.clone()
            p = n.mut(key)
            (kind, value), p.inbox = p.inbox[0], p.inbox[1:]
            if kind == "req":
                p.sock += (("ans", value),)
                label = f"answers caller {value}"
            elif value in n.linked:
                p.epoch = value
                p.sock += (("ok", value),)
                label = f"attaches epoch {value}"
            else:
                p.sock += (("err", value),)
                label = f"fails to attach epoch {value}"
            moves.append((f"slot {key[0]}'s worker {key[1]} {label}", n))
        elif pipe.eof:
            n = w.clone()
            n.mut(key).alive = False
            moves.append((f"slot {key[0]}'s worker {key[1]} exits at EOF",
                          n))
        if killer is not None and killer[1] == key[0] and killer[2]:
            n = w.clone()
            p = n.mut(key)
            p.alive, p.inbox = False, ()
            for j, actor in enumerate(n.actors):
                if actor[0] == "killer":
                    n.act(j, "killer", actor[1], False)
            moves.append((f"slot {key[0]}'s worker {key[1]} dies", n))
    return moves


MOVES = {"publisher": publisher_moves, "supervisor": supervisor_moves,
         "closer": closer_moves, "caller": caller_moves,
         "deadline": deadline_moves, "receiver": receiver_moves}


def successors(w: World) -> list:
    moves = []
    killer = None
    for i, actor in enumerate(w.actors):
        if actor[0] == "killer":
            killer = actor
        elif actor[1] != "end" and (actor[0] != "receiver"
                                    or actor[2] != "end"):
            moves += MOVES[actor[0]](w, i)
    return moves + worker_moves(w, killer)


def check_always(w: World) -> None:
    slots = w.fleet.slots
    live = set()
    for key, pipe in w.pipes.items():
        if not pipe.alive:
            continue
        slot = key[0]
        if slot in live or (key != slots[slot].pipe
                            and slots[slot].status is not SPAWNING):
            raise Violation(f"slot {slot} has a live worker on a pipe "
                            "besides its latest")
        live.add(slot)
        if pipe.owes_reply() > 1:
            raise Violation(f"slot {slot} owes {pipe.owes_reply()} "
                            "announces")
    for key in w.routable:
        if slots[key[0]].pipe != key:
            raise Violation(f"reads route to {key}, not its slot's latest "
                            "pipe")


def check_quiescent(w: World, stopped: bool, supervised: bool) -> None:
    for i, done in enumerate(w.done):
        if done != 1:
            raise Violation(f"caller {i}'s sink is completed {done} times")
    for key, pipe in w.pipes.items():
        if (pipe.receiver and pipe.state.owes() and not pipe.readers
                and not pipe.wake):
            raise Violation(f"pipe {key} owes a reply with no reader and "
                            "no pending rouse: a lost wake-up")
    fleet = w.fleet
    for actor in w.actors:
        if actor[0] == "publisher" and actor[1] == "wait":
            raise Violation("the publish waits for a reply nobody owes it")
    if stopped:
        if w.linked:
            raise Violation(f"segments {sorted(w.linked)} outlive close()")
        left = [key for key, pipe in w.pipes.items()
                if pipe.alive or not pipe.closed or pipe.receiver]
        if left:
            raise Violation(f"pipes {left} outlive close()")
        return
    if not supervised:
        return
    for slot, seat in enumerate(fleet.slots):
        pipe = w.pipes.get(seat.pipe)
        if not (seat.status is LIVE and seat.attached == fleet.epoch
                and not seat.owed and pipe.alive
                and pipe.epoch == fleet.epoch):
            raise Violation(f"slot {slot} never converges on epoch "
                            f"{fleet.epoch}")
    if w.linked != {fleet.epoch}:
        raise Violation(f"segments {sorted(w.linked)} stay linked at "
                        f"epoch {fleet.epoch}")


class Stats:
    def __init__(self):
        self.states = self.transitions = self.ends = self.cut = 0
        self.deepest = 0


def explore(slots=2, publishes=1, kill=None, callers=(), deadline=None,
            close=False, supervisor=True, scans=False,
            fleet_class=FleetState, pipe_class=PipeState,
            depth=DEPTH) -> Stats:
    """Walk every interleaving from a fleet of ``slots`` workers up on
    epoch 1; raise :class:`Violation` with its trace on the first
    broken invariant.  ``kill`` names the slot whose worker dies once;
    ``callers`` the styles of forwarded reads; ``deadline`` the caller
    the deadline scan may take back; ``scans`` lets the supervisor run
    each pipe's idle scan."""
    fleet = fleet_class(slots, 1)
    pipes = []
    actors = []
    for spawn in fleet.scan()[0]:
        _kind, slot, gen, epoch, _segment = spawn
        pipes.append(Pipe(slot, gen, epoch, pipe_class))
        _actions, routable = fleet.respawned(slot, gen, pipes[-1].key)
        actors.append(("receiver", pipes[-1].key, "park", False))
    for style in callers:
        actors.insert(len([a for a in actors if a[0] == "caller"]),
                      ("caller", "start", style, None))
    if publishes:
        actors.append(("publisher", "start", (), None, publishes, 0))
    if supervisor:
        actors.append(("supervisor", "idle", (), None, False, scans))
    if close:
        actors.append(("closer", "start", (), None))
    if deadline is not None:
        actors.append(("deadline", "start", deadline))
    if kill is not None:
        actors.append(("killer", kill, True))
    start = World(fleet, pipes, actors, len(callers), pipe_class)
    start.routable = routable
    stats = Stats()
    seen = {start.key()}
    stack = [(start, 0, None)]
    while stack:
        world, level, trace = stack.pop()
        stats.deepest = max(stats.deepest, level)
        try:
            moves = successors(world)
            if not moves:
                stats.ends += 1
                check_quiescent(world, close, supervisor)
        except Violation as broken:
            raise Violation(broken.invariant, unwind(trace)) from None
        if level >= depth:
            stats.cut += bool(moves)
            continue
        for label, nxt in moves:
            stats.transitions += 1
            key = nxt.key()
            if key not in seen:
                seen.add(key)
                try:
                    check_always(nxt)
                except Violation as broken:
                    raise Violation(broken.invariant,
                                    unwind((label, trace))) from None
                stack.append((nxt, level + 1, (label, trace)))
    stats.states = len(seen)
    return stats


def unwind(trace) -> list:
    steps = []
    while trace is not None:
        label, trace = trace
        steps.append(label)
    return steps[::-1]


#: The walks tier-1 runs, each to its end (≈ 1 s in all).
#: ``REPRO_PIPE_FULL=1`` (CI's "Pipe and fleet protocols, enumerated"
#: step) walks larger ones instead.
WALKS = {
    "a death and respawn racing a publish": dict(slots=2, kill=0),
    "a late EOF of a retired pipe": dict(slots=1, publishes=0, kill=0,
                                         callers=("lead",), close=True),
    "a re-announce to a lagging worker": dict(slots=2, publishes=2),
    "reclaim racing an arriving answer": dict(
        slots=1, publishes=0, callers=("lead", "wait"), deadline=0,
        scans=True),
    "close() with a reader and a sender inside": dict(
        slots=1, publishes=0, callers=("lead", "wait"), close=True),
}
TIER1_WALKS = dict(WALKS)  # what TestMustFail walks
FULL_WALKS = {
    "two slots, a death, two publishes": dict(slots=2, publishes=2,
                                              kill=0),
    "a death, a publish, a reader and close()": dict(
        slots=1, kill=0, callers=("lead",), close=True),
    "close() with a reader, a sender and a publish": dict(
        slots=1, callers=("lead", "wait"), close=True),
    "reclaim, the idle scan and a death": dict(
        slots=1, publishes=0, kill=0, callers=("lead", "wait"),
        deadline=0, scans=True),
}
if os.environ.get("REPRO_PIPE_FULL"):
    WALKS = FULL_WALKS


@pytest.mark.parametrize("walk", list(WALKS))
def test_every_interleaving_keeps_the_invariants(walk):
    """Every interleaving of the walk keeps every invariant, and none is
    cut by the depth bound."""
    began = time.monotonic()
    stats = explore(**WALKS[walk])
    print(f"\nfleet protocol, {walk}: {stats.states} states, "
          f"{stats.transitions} transitions, {stats.ends} ends, deepest "
          f"path {stats.deepest} of a bound of {DEPTH} steps, "
          f"{time.monotonic() - began:.1f} s")
    assert stats.cut == 0
    assert stats.ends > 0


def test_every_transition_is_tabled_in_design():
    """DESIGN §10 "The fleet" names every public transition of
    ``FleetState`` in its transition table."""
    design = Path(__file__).resolve().parents[1] / "DESIGN.md"
    section = design.read_text().split("### The fleet\n", 1)[1]
    section = section.split("\n### ", 1)[0]
    tabled = set()
    for row in re.findall(r"^\| (`.+?) \|", section, re.M):
        tabled.update(re.findall(r"`(\w+)`", row))
    public = {name for name, value in vars(FleetState).items()
              if callable(value) and not name.startswith("_")}
    assert public and public <= tabled, public - tabled


# -- faulty transitions the explorer must catch ---------------------------


class ForgetsOwedSegments(FleetState):
    """Segment GC pins what each slot has attached and not what it is
    announced: a segment goes while its announce is on the way."""

    def _done(self, actions):
        owed = [seat.owed for seat in self.slots]
        for seat in self.slots:
            seat.owed = 0
        done = super()._done(actions)
        for seat, epoch in zip(self.slots, owed):
            seat.owed = epoch
        return done


class ReclaimKeepsTheSink(PipeState):
    """``reclaim`` hands the sink to the deadline scan and leaves it on
    the books, so an arriving answer completes it as well."""

    def reclaim(self, rids) -> list:
        return [self.pending[rid][0] for rid in rids
                if rid in self.pending and self.pending[rid][0] is not None]


class ForgetsTheFreshPipe(FleetState):
    """``respawned`` leaves the slot on its dead pipe: the fresh worker
    lives beside a pipe the fleet still routes to."""

    def respawned(self, slot, gen, pipe):
        old = self.slots[slot].pipe
        actions, _routable = super().respawned(slot, gen, pipe)
        self.slots[slot].pipe = old
        return actions, self._done([])[1]


class AnnouncesToASlotThatOwes(FleetState):
    """A publish announces to every live slot, owed a reply or not — the
    policy that filled a stopped worker's pipe."""

    def publish(self, segment, waker):
        for seat in self.slots:
            seat.owed = 0
        return super().publish(segment, waker)


class RetiresOnlyLivePipes(FleetState):
    """``stop`` retires the live slots' pipes only: a dead worker's pipe,
    not yet retired by its respawn, is never closed.  The explorer found
    this in a draft of ``stop``."""

    def stop(self):
        live = [seat.pipe for seat in self.slots if seat.status is LIVE]
        actions, routable = super().stop()
        return [a for a in actions
                if a[0] != RETIRE or a[1] in live], routable


class RespawnsIntoAStoppedFleet(FleetState):
    """A respawn that ends after ``stop`` installs its worker as live
    instead of retiring it."""

    def respawned(self, slot, gen, pipe):
        stopping, self.stopping = self.stopping, False
        try:
            return super().respawned(slot, gen, pipe)
        finally:
            self.stopping = stopping


class TestMustFail:
    @pytest.mark.parametrize("fault, walk, invariant", [
        (ForgetsOwedSegments, "a re-announce to a lagging worker",
         "owes its announce"),
        (ReclaimKeepsTheSink, "reclaim racing an arriving answer",
         "completed twice"),
        (ForgetsTheFreshPipe, "a death and respawn racing a publish",
         "besides its latest"),
        (AnnouncesToASlotThatOwes, "a re-announce to a lagging worker",
         "owes 2 announces"),
        (RetiresOnlyLivePipes, "a late EOF of a retired pipe",
         "outlive close()"),
        (RespawnsIntoAStoppedFleet, "a late EOF of a retired pipe",
         "outlive close()"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_a_faulty_transition_is_reported_with_its_trace(
            self, fault, walk, invariant):
        kind = "pipe_class" if issubclass(fault, PipeState) else "fleet_class"
        with pytest.raises(Violation) as caught:
            explore(**TIER1_WALKS[walk], **{kind: fault})
        broken = caught.value
        print(f"\n{fault.__name__}: {broken}")
        assert invariant in broken.invariant
        assert broken.trace
