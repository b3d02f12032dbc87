"""The protocol of one worker pipe's parent end, as one state.

:class:`PipeState` holds who is inside the pipe (the reader, a sender,
the receiver), what is owed on it and whether it still serves; it does
no I/O.  Only its transitions change it, each run under the pipe's one
lock (``_ProcHandle.do``), and each returns what the calling thread must
do: :data:`READ`, :data:`SEND`, :data:`ROUSE`, :data:`CLOSE`,
:data:`LEAVE` (bit flags, 0 for nothing), and — for ``read_eof`` and
``retire``, which bury the worker once between them — the sinks to fail
and whether to count the crash.  DESIGN §10 "The pipe" tables the
transitions; ``tests/test_shard_pipe.py`` walks every interleaving of
them and checks the invariants they keep.
"""

from __future__ import annotations

READ = 1  #: you hold the read role: read the pipe
SEND = 2  #: send the frame
ROUSE = 4  #: write one wake-up byte for the receiver, still under the lock
CLOSE = 8  #: close the pipe and the wake-up: nobody is inside any more
LEAVE = 16  #: (the receiver) end

RECEIVER = "receiver"
CALLER = "caller"


class PipeState:
    """Who is inside one worker pipe, what is owed on it, and whether it
    serves.  ``pending`` maps a request message's rid to ``(sink,
    charge)``: its sink (None once reclaimed — the answer still comes
    and is dropped) and what it charges the pipe's socket buffer, whose
    sum is ``charged``."""

    def __init__(self):
        self.reader = None  # RECEIVER, CALLER or None
        self.sending = self.receiver = self.roused = False
        self.running = True
        self.hung_up = self.ended = self.buried = False  # ended: EOF read
        self.retiring = self.closed = False
        self.pending: dict = {}
        self.charged = self.controls_owed = 0
        self.idle = False  # owed with nobody reading at the last scan

    def owes(self) -> bool:
        """Whether a reader has something to read: a reply owed, or the
        EOF of a hung-up pipe."""
        return not self.ended and bool(
            self.pending or self.controls_owed or self.hung_up)

    def sinks(self) -> dict:
        """The sinks not yet answered, by rid."""
        return {rid: sink for rid, (sink, _charge) in self.pending.items()
                if sink is not None}

    def take(self, who) -> int:
        if self.reader is None and not self.retiring:
            self.reader = who
            return READ
        return 0

    def give_back(self) -> int:
        self.reader = None
        if self.retiring:
            return self._out()
        # owes(), inline: every forward read by its caller comes here.
        if not self.ended and (
                self.pending or self.controls_owed or self.hung_up):
            return self.rouse()
        return 0

    def rouse(self) -> int:
        if self.receiver and not self.roused:
            self.roused = True
            return ROUSE
        return 0

    def park(self, hung_up: bool) -> int:
        """The receiver is awake: roused, told of a hang-up by its poll,
        or done reading."""
        self.roused = False
        if hung_up:
            self._hung()
        if self.ended or self.retiring:
            self.receiver = False
            return LEAVE | self._out()
        return self.take(RECEIVER) if self.owes() else 0

    def send_begin(self, rid=None, sink=None, charge: int = 0) -> int:
        """A request message (``rid``, ``sink``) or, without a rid, a
        control message owed a reply; 0 refuses it — the worker is gone,
        and a refused sink is not the pipe's to fail."""
        if not self.running or self.retiring:
            return 0
        self.sending = True
        if rid is None:
            self.controls_owed += 1
        else:
            self.pending[rid] = (sink, charge)
            self.charged += charge
        return SEND

    def send_end(self, sent: bool) -> int:
        self.sending = False
        flags = 0 if sent else self.hang_up()
        return flags | self._out() if self.retiring else flags

    def answer(self, rid):
        """The sink an answer completes, or None when it was reclaimed."""
        self.idle = False
        entry = self.pending.pop(rid, None)
        if entry is None:
            return None
        self.charged -= entry[1]
        return entry[0]

    def control_paid(self) -> int:
        self.idle = False
        if self.controls_owed:  # else owed no more: the worker is buried
            self.controls_owed -= 1
        return 0

    def hang_up(self) -> int:
        self._hung()
        return self.rouse() if self.reader is None else 0

    def read_eof(self):
        """``(flags, sinks to fail, whether to count the crash)``."""
        self.ended = True
        self.running = False
        sinks, crashed = self._bury()
        return self.rouse(), sinks, crashed  # the receiver leaves

    def reclaim(self, rids) -> list:
        """Take back the sinks of ``rids`` still pending: the caller
        fails them.  Their answers still come, and are dropped."""
        taken = []
        for rid in rids:
            entry = self.pending.get(rid)
            if entry is not None and entry[0] is not None:
                taken.append(entry[0])
                self.pending[rid] = (None, entry[1])
        return taken

    def scan(self) -> int:
        idle = self.reader is None and self.owes()
        flags = self.rouse() if idle and self.idle else 0
        self.idle = idle
        return flags

    def retire(self):
        """``(flags, sinks to fail, whether to count the crash)``."""
        self.retiring = True
        self.running = self.hung_up = False  # nothing more to read
        sinks, crashed = self._bury()
        return self.rouse() | self._out(), sinks, crashed

    def start(self) -> int:
        self.receiver = True
        return 0

    def _hung(self) -> None:
        self.running = False
        self.hung_up = not (self.ended or self.retiring)

    def _bury(self):
        if self.buried:
            return [], False
        self.buried = True
        sinks = list(self.sinks().values())
        self.pending = {}
        self.charged = self.controls_owed = 0
        return sinks, True

    def _out(self) -> int:
        """CLOSE once the pipe is retiring and nobody is inside it."""
        if (self.retiring and not self.closed and self.reader is None
                and not self.sending and not self.receiver):
            self.closed = True
            return CLOSE
        return 0
