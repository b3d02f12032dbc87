"""The lifecycle of the shard worker fleet, as one state.

:class:`FleetState` holds, per slot, the generation of its pipe, the
epoch its worker confirmed attaching and the one announce it owes a
reply to; for the fleet, the current epoch, the segment of each epoch
still registered and whether the fleet is stopping.  It does no I/O
and imports nothing.  Only its transitions change it, each run under
``ShardServer._shard_lock``, and each returns ``(actions, routable)``:
what the server performs outside the lock, in order, and the pipes a
read may route to now.  DESIGN §10 "The fleet" tables the transitions;
``tests/test_shard_fleet.py`` walks their interleavings with the pipes'.
"""

#: The actions, each a tuple led by its kind.
SPAWN = "spawn"  #: (SPAWN, slot, gen, epoch, segment): fork, attached
ANNOUNCE = "announce"  #: (ANNOUNCE, pipe, epoch, segment, again)
RETIRE = "retire"  #: (RETIRE, pipe): stop the worker, retire its pipe
UNLINK = "unlink"  #: (UNLINK, segment)
WAKE = "wake"  #: (WAKE, waker): every reply the publish waits for is in

LIVE = "live"  #: the slot's pipe serves
DOWN = "down"  #: its worker is gone, or stopped, and not replaced yet
SPAWNING = "spawning"  #: a SPAWN of it is under way


class Slot:
    """One worker's seat.  ``gen`` counts the pipes it has had;
    ``owed`` is the epoch of the announce it owes a reply to, 0 for
    none."""

    gen = attached = owed = 0
    pipe, status = None, DOWN


class FleetState:
    """The fleet's slots, epochs and segments.  A segment, a pipe and a
    waker are the server's tokens: held and handed back, never used.

    A slot owes at most one announce.  A publish or a re-announce goes
    only to a slot that owes none, and a reply to an older epoch leaves
    the latest to the supervisor's next :meth:`scan`.  So a worker
    stopped behind an epoch is owed one frame, not a pipe full, and the
    segments registered are the current epoch's and those each slot in
    the fleet has attached or is announced."""

    def __init__(self, processes: int, segment):
        self.epoch, self.segments = 1, {1: segment}
        self.stopping = False
        self.slots = [Slot() for _ in range(processes)]
        # The slots the last publish waits for, and what wakes it.
        self.awaited, self.waker = set(), None

    def publish(self, segment, waker):
        """A new epoch on ``segment``, announced to each live slot that
        owes no reply; ``waker`` is woken once each of those replied or
        died."""
        self.epoch += 1
        self.segments[self.epoch] = segment
        self.waker = waker
        self.awaited = {i for i, seat in enumerate(self.slots)
                        if seat.status is LIVE and not seat.owed}
        return self._done([self._announce(self.slots[i], False)
                           for i in sorted(self.awaited)])

    def ack(self, slot: int, gen: int, epoch: int):
        """Pipe ``gen`` of ``slot`` replies that it attached ``epoch``
        (0 for :meth:`nack`)."""
        seat = self.slots[slot]
        if seat.gen == gen and seat.status is LIVE:
            seat.owed = 0
            seat.attached = epoch or seat.attached
            self.awaited.discard(slot)
        return self._done([])

    def nack(self, slot: int, gen: int):
        """It replies that it failed to attach what it was announced and
        keeps its last-good epoch."""
        return self.ack(slot, gen, 0)

    def died(self, slot: int, gen: int):
        """The worker behind pipe ``gen`` of ``slot`` is gone.  A pipe
        the slot no longer holds (a late EOF) changes nothing."""
        seat = self.slots[slot]
        if seat.gen == gen and seat.status is LIVE:
            seat.status = DOWN
            self.awaited.discard(slot)
        return self._done([])

    def respawned(self, slot: int, gen: int, pipe):
        """The SPAWN of pipe ``gen`` ended: ``pipe`` serves (a publish
        meanwhile is re-announced by the next scan), or is None when the
        fork failed (the next scan retries).  Once stopping, the fresh
        worker is retired at once."""
        seat = self.slots[slot]
        retire = pipe is not None and self.stopping
        if pipe is not None:
            seat.pipe = pipe
        seat.status = DOWN if pipe is None or retire else LIVE
        return self._done([(RETIRE, pipe)] if retire else [])

    def scan(self):
        """The supervisor's pass: SPAWN each slot that is down, attached
        to the current epoch, and re-announce that epoch to each live
        slot behind it that owes no reply."""
        actions = []
        for i, seat in enumerate(() if self.stopping else self.slots):
            if seat.status is DOWN:
                seat.gen += 1
                seat.status, seat.attached, seat.owed = SPAWNING, self.epoch, 0
                actions.append((SPAWN, i, seat.gen, self.epoch,
                                self.segments[self.epoch]))
            elif (seat.status is LIVE and not seat.owed
                    and seat.attached != self.epoch):
                actions.append(self._announce(seat, True))
        return self._done(actions)

    def stop(self):
        """Shutdown: RETIRE every slot's pipe — a dead worker's too, which
        its respawn would have retired — wake the publish and UNLINK
        every segment; from here on nothing is spawned or announced."""
        self.stopping = True
        self.awaited.clear()
        for seat in self.slots:
            if seat.status is LIVE:
                seat.status = DOWN
        return self._done([(RETIRE, seat.pipe) for seat in self.slots
                           if seat.pipe is not None])

    def _announce(self, seat: Slot, again: bool) -> tuple:
        seat.owed = epoch = self.epoch
        return ANNOUNCE, seat.pipe, epoch, self.segments[epoch], again

    def _done(self, actions: list):
        """Add the WAKE of a publish no longer waiting and the UNLINK of
        each segment nothing pins; return them with the routable pipes:
        the live ones on the current epoch."""
        if self.waker is not None and not self.awaited:
            actions.append((WAKE, self.waker))
            self.waker = None
        pinned = set() if self.stopping else {self.epoch}.union(*(
            (seat.attached, seat.owed) for seat in self.slots
            if seat.status is not DOWN))
        for epoch in [e for e in self.segments if e not in pinned]:
            actions.append((UNLINK, self.segments.pop(epoch)))
        return actions, tuple(seat.pipe for seat in self.slots
                              if seat.status is LIVE
                              and seat.attached == self.epoch)
