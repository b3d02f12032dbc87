"""Timing primitives: the canary clock, unit replay, quantiles, spans.

The machine this runs on is shared: a neighbour slows everything on it
by about half, in bursts of 0.1 s to minutes, and never speeds it up.
So every timing is (1) taken from many repetitions of one identical
*unit* of work, (2) scaled by how much CPU time a fixed reference
kernel — the canary — needed right beside it, and (3) read at the
median of the repetitions (see README.md, "Noise").
"""

import contextlib
import gc
import json
import time

pns = time.perf_counter_ns


# -- quantiles ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    lo = int(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, refused unless at least ten samples lie
    beyond it — a tail read off fewer samples is one slow request."""
    beyond = len(values) * (1.0 - p / 100.0)
    if beyond < 10:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond:.1f} samples "
            f"beyond it; at least ten are needed"
        )
    return quantile(values, p / 100.0)


def tail(values) -> dict:
    """The highest supported percentile of ``values``, with the count."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return {"n": len(values), "p": p, "value": percentile(values, p)}
    return {"n": len(values), "p": None, "value": None}


def median(values) -> float:
    """What every gated timing is read at: the median of its repetitions.

    The quiet decile would hide a stall the program causes itself in
    every few units (``ShardServer.map_query`` has one), and after the
    canary scaling it is no steadier (README.md, "Calibration").
    """
    return quantile(values, 0.5)


# -- replaying a unit ----------------------------------------------------------


def replay(calls) -> list:
    """Run every ``(fn, arg)`` of a unit once; one timestamp per request.

    Returns ``len(calls) + 1`` ``perf_counter_ns`` stamps: request ``i``
    ran between stamp ``i`` and ``i + 1``.  One clock read and one append
    per request is all the harness adds inside the timed region.
    """
    stamps = [pns()]
    push = stamps.append
    for fn, arg in calls:
        fn(arg)
        push(pns())
    return stamps


def replay_plain(fn, args) -> int:
    """Run ``fn`` over ``args`` with no per-request clock; wall time, ns."""
    t0 = pns()
    for arg in args:
        fn(arg)
    return pns() - t0


def latencies(stamps) -> list:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def tile(items, at_least: int) -> list:
    """``items`` repeated until the list holds ``at_least`` entries, so a
    short unit still lasts long enough for the clock."""
    items = list(items)
    return items * max(1, -(-at_least // len(items)))


def quiet_us_per_call(clock, fn, args, reps: int, recorder, name) -> float:
    """Quiet-decile canary-scaled time per call of ``fn`` over ``reps``
    plain replays.

    Each replay is a span, and one extra replay records a span per
    request (its plan index as ``request``), so the spans of one request
    can be lined up across stops.
    """
    gc.collect()
    walls = []
    for _ in range(reps):
        with recorder.span(name):
            _, _raw, scaled = clock.timed(lambda: replay_plain(fn, args))
        walls.append(scaled)
    with recorder.span(name + ":traced") as parent:
        stamps = replay([(fn, arg) for arg in args])
    for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
        recorder.add(name, a, b, parent=parent, request=i)
    return quantile(walls, 0.10) / len(args) / 1e3


# -- the canary -----------------------------------------------------------------


def canary() -> tuple:
    """A fixed pure-Python dict/list kernel (~10 ms): ``(wall ns, CPU ns
    of this thread)``.

    It touches nothing of the program.  Its *CPU time* is what the clock
    scales by: a busy neighbour on the host makes the canary need more
    CPU time (measured: CPU time equals wall time on an idle guest,
    10 ms quiet and 15-16 ms contended), while anything the *program*
    keeps runnable on this CPU or holding the GIL — a worker still
    attaching a snapshot, a compactor thread — only makes the canary
    wait, which costs wall time and no CPU time (measured: a spinning
    thread or process beside it, wall 17.7 ms, CPU 9.9 ms).  So load the
    program causes is never divided out of a timing; it shows as
    ``machine.canary_wait_share``.
    """
    t0 = pns()
    c0 = time.thread_time_ns()
    table = {}
    for i in range(80000):
        table[i % 997] = table.get(i % 997, 0) + i
    acc = [v for v in table.values() if v % 3]
    acc.sort()
    total = 0
    for v in acc:
        total += v & 0xFF
    return pns() - t0, time.thread_time_ns() - c0


class CanaryClock:
    """Wall time scaled to a quiet machine.

    ``timed(fn)`` runs the canary right before and right after ``fn``
    and scales the measured time by ``ref / mean(CPU time of those
    canaries)``: what ``fn`` would have taken had the canary run at its
    frozen quiet speed ``ref_ns`` (``calibration.json``).  On a quiet
    machine the factor is 1; while a neighbour is busy both the canary
    and the program slow down by the same ~1.5x, and the factor takes it
    out.  Long calls get several canaries a side, because the neighbour
    comes and goes faster than the call.  The unscaled time is returned
    beside the scaled one and kept with it.
    """

    #: A canary older than this is run again rather than reused.
    FRESH_NS = 2_000_000
    #: Canaries on each side of a call that lasts 0.3 s or more.
    LONG = 3

    def __init__(self, ref_ns: float):
        self.ref_ns = ref_ns
        self.cpu_ns = []  # every canary of the run: its CPU time ...
        self.wall_ns = []  # ... and its wall time
        self._last_end = 0

    def mark(self) -> int:
        wall, cpu = canary()
        self._last_end = pns()
        self.wall_ns.append(wall)
        self.cpu_ns.append(cpu)
        return cpu

    def timed(self, fn, canaries: int = 1) -> tuple:
        """``(fn(), raw_ns, scaled_ns)``."""
        around = []
        if self.cpu_ns and pns() - self._last_end < self.FRESH_NS:
            around.append(self.cpu_ns[-1])
        while len(around) < canaries:
            around.append(self.mark())
        t0 = pns()
        out = fn()
        raw = pns() - t0
        around.extend(self.mark() for _ in range(canaries))
        return out, raw, raw * self.ref_ns * len(around) / sum(around)

    def wait_share(self) -> float:
        """Share of the canaries' wall time they spent waiting for the
        CPU or the GIL: near 0 unless the program (or anything else in
        this guest) ran beside them."""
        return 1.0 - sum(self.cpu_ns) / sum(self.wall_ns)


# -- spans ----------------------------------------------------------------------


class Recorder:
    """Spans kept in memory and written out when the run ends.

    A span is ``(name, start_ns, end_ns, parent, request)``; its id is its
    position in ``rows``.  ``span()`` nests: the innermost open span is
    the parent of whatever is recorded inside it.
    """

    def __init__(self):
        self.rows = []
        self._open = []

    def add(self, name, start_ns, end_ns, parent=None, request=None) -> int:
        if parent is None and self._open:
            parent = self._open[-1]
        self.rows.append([name, start_ns, end_ns, parent, request])
        return len(self.rows) - 1

    @contextlib.contextmanager
    def span(self, name, request=None):
        ident = self.add(name, pns(), None, request=request)
        self._open.append(ident)
        try:
            yield ident
        finally:
            self._open.pop()
            self.rows[ident][2] = pns()

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for ident, (name, start, end, parent, request) in enumerate(
                    self.rows):
                fp.write(json.dumps({
                    "id": ident, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "request": request,
                }) + "\n")


@contextlib.contextmanager
def span(recorder, name, request=None):
    """``recorder.span(...)``, or nothing at all when tracing is off."""
    if recorder is None:
        yield None
    else:
        with recorder.span(name, request=request) as ident:
            yield ident
