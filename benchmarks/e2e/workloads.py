"""The four workloads and the one driver loop that measures them.

An *engine* wraps one serving configuration of the program behind the
same few methods; its constructor is the cold start, made of named
stages (``setup_s`` is their sum, up to the first correct answer).
``run`` drives any engine through the same fixed order — check, reads,
write laps with a read unit after every write, reads, check — on ONE
thread: nothing concurrent feeds a gated metric, and the only background
work is what the driver itself invokes (``housekeeping``).
"""

import gc
import os
import resource
import shutil

import measure
import plans
import surface
from measure import pns, span
from oracle import Oracle, check_iceberg

#: (write laps, read units of the two read blocks) per second of
#: ``--seconds``.  How much a run measures is a function of ``--seconds``
#: alone, never of how fast the machine happens to be: the same seed
#: replays the same units in the same states, so the state a run ends in
#: — and every exact metric — repeats, and a slow spell cannot change the
#: mix of units a median is taken over.  On a quiet machine the timed
#: part then lasts about ``--seconds``.
PACING = {
    "olap_inproc": (1 / 3, 10),
    "door_tcp": (2 / 3, 9),
    "shard_bulk": (1 / 4, 3),
    "ingest_seg": (0.4, 6),
}
#: Every position of a write lap is sampled at least this often.
MIN_LAPS = 4
#: Read units a block replays at least, however short the run.
MIN_BLOCK_UNITS = 10
#: Cold starts timed in a run.
SETUPS = 3


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path) for name in names
    )


def saved_bytes(warehouse, scratch) -> int:
    warehouse.save(os.path.join(scratch, "tree.qct"),
                   os.path.join(scratch, "table.csv"))
    return _dir_bytes(scratch)


class Engine:
    """What the driver needs of a serving configuration.

    A subclass's constructor takes ``(plan, table, stage)``, makes each
    step of its cold start through ``stage(name, fn)`` — the name is the
    per-layer metric the step's time is reported as — and sets ``calls``
    (the read unit as ``(fn, arg)`` pairs).  It implements ``ask``,
    ``write`` and ``store_bytes``.
    """

    write_canaries = measure.CanaryClock.LONG
    bulk = None  # a second read unit timed as a whole (``map_query``)
    errors = 0  # ``error:`` lines and refused writes seen so far

    def housekeeping(self) -> int:
        """Driver-invoked background work; how many pieces were done."""
        return 0

    def cache_stats(self) -> dict:
        """``stats()`` of the first cache on the read path."""
        return {}

    def describe(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _frozen_warehouse(table, stage):
    wh = stage("construct.build_s", lambda: surface.QCWarehouse(
        table, plans.AGGREGATE, cache_size=1024))
    stage("frozen.freeze_s", lambda: wh.serving_tree)
    return wh


class OlapInproc(Engine):
    """``QCWarehouse`` called directly: the kernel and ``core.maintenance``
    do nearly all the work; serving, shard and segments do none."""

    def __init__(self, plan, table, stage):
        self.wh = _frozen_warehouse(table, stage)
        fns = {"point": self.wh.point, "range": self.wh.range}
        self.calls = [(fns[family], arg) for family, arg in plan.unit]

    def ask(self, family, arg):
        return getattr(self.wh, family)(arg)

    def write(self, inserts, deletes):
        self.wh.maintain(inserts=inserts, deletes=deletes)

    def cache_stats(self):
        return surface.lookup(self.wh.stats(), "query_cache", default={})

    def store_bytes(self, scratch) -> int:
        return saved_bytes(self.wh, scratch)


def _line(command, fields) -> str:
    return command + " " + ",".join(
        "|".join(f) if isinstance(f, (list, tuple)) else str(f)
        for f in fields
    )


def _parse_cells(text) -> list:
    """``cell<TAB>value`` lines of a range/iceberg response (the trailer
    line starts with ``#``)."""
    out = []
    for row in text.split("\n"):
        if row.startswith("#"):
            continue
        cell, _, value = row.partition("\t")
        out.append((tuple(cell.split(",")), float(value)))
    return out


class DoorTcp(Engine):
    """The asyncio TCP door over a thread-pool ``QCServer``: protocol,
    event loop, admission and the worker hand-off dominate; the keys come
    from a hot set that fits the server's cache, so the kernel does
    little."""

    def __init__(self, plan, table, stage):
        self.wh = _frozen_warehouse(table, stage)
        self.server = self.door = self.client = None
        try:
            stage("door.listen_s", self._listen)
        except BaseException:
            self.close()
            raise
        self.calls = [(self._call, _line(f, a)) for f, a in plan.unit]

    def _listen(self):
        self.server = surface.QCServer(self.wh, workers=2, cache_size=4096)
        self.door = surface.AsyncServerThread(self.server)
        self.client = surface.LineClient(self.door.host, self.door.port)

    def _call(self, line):
        response = self.client.call(line)
        if response.startswith("error:"):
            self.errors += 1
        return response

    def ask(self, family, arg):
        if family == "iceberg":
            return _parse_cells(self._call(f"iceberg {arg} >="))
        response = self._call(_line(family, arg))
        if family == "range":
            return dict(_parse_cells(response))
        return None if response == "NULL" else float(response)

    def write(self, inserts, deletes):
        for command, records in (("delete", deletes), ("insert", inserts)):
            for record in records:
                if self._call(_line(command, record)) != "OK":
                    self.errors += 1

    def cache_stats(self):
        return surface.lookup(self.server.stats(), "cache", default={})

    def store_bytes(self, scratch) -> int:
        return saved_bytes(self.wh, scratch)

    def close(self):
        if self.client is not None:
            self.client.close()
        if self.door is not None:
            self.door.close()
        if self.server is not None:
            self.server.close()


class ShardBulk(Engine):
    """One forked worker over a packed shared-memory snapshot, no cache:
    ``shard.pack``, ``PackedQCTree``, pickling and the pipe do the work,
    and every write packs and publishes the whole snapshot."""

    def __init__(self, plan, table, stage):
        self.wh = _frozen_warehouse(table, stage)
        self.server = stage("shard.start_s", lambda: surface.ShardServer(
            self.wh, processes=1, workers=1, cache_size=0))
        self.calls = [(self._submit, arg) for _family, arg in plan.unit]
        self._bulk_calls = [(cell,) for cell in plan.bulk]
        self.bulk = self._map_query

    def _submit(self, cell):
        return self.server.submit("point", cell).result()

    def _map_query(self) -> int:
        return len(self.server.map_query("point", self._bulk_calls))

    def ask(self, family, arg):
        return self.server.submit(family, arg).result()

    def write(self, inserts, deletes):
        self.server.write(inserts=inserts, deletes=deletes)

    def packed(self) -> bytes:
        snapshot = self.server.snapshot
        return surface.pack_snapshot_bytes(
            snapshot.tree, snapshot.table, stamp=snapshot.stamp)

    def store_bytes(self, scratch) -> int:
        return len(self.packed())

    def close(self):
        self.server.close()


class IngestSeg(Engine):
    """A segmented warehouse, write-heavy: the same batched maintenance
    engine on a small head, scatter-gather reads over the segments, and
    seals and compactions the driver invokes itself (no compactor
    thread, no timer)."""

    write_canaries = 1

    def __init__(self, plan, table, stage):
        self.seg = stage(
            "construct.build_s", lambda: surface.SegmentedWarehouse(
                table, plans.AGGREGATE, cache_size=1024,
                seal_rows=plans.SEAL_ROWS, compact_min_segments=3,
            ))
        stage("frozen.freeze_s", lambda: self.seg.view)
        self.calls = [(self.seg.point, arg) for _family, arg in plan.unit]

    def ask(self, family, arg):
        return getattr(self.seg, family)(arg)

    def write(self, inserts, deletes):
        self.seg.maintain(inserts=inserts, deletes=deletes)

    def housekeeping(self) -> int:
        done = 0
        while self.seg.compaction_backlog > 0 and self.seg.compact_once():
            done += 1
        return done

    def cache_stats(self):
        return surface.lookup(self.seg.stats(), "query_cache", default={})

    def describe(self) -> dict:
        stats = self.seg.stats()
        return {key: surface.lookup(stats, key)
                for key in ("seals", "compactions", "segments_live")}

    def store_bytes(self, scratch) -> int:
        self.seg.checkpoint(scratch)
        return _dir_bytes(scratch)

    def close(self):
        self.seg.close()


ENGINES = {
    "olap_inproc": OlapInproc,
    "door_tcp": DoorTcp,
    "shard_bulk": ShardBulk,
    "ingest_seg": IngestSeg,
}


def cold_start(engine_cls, plan, table, clock, recorder=None) -> tuple:
    """``(engine, first answer, {stage: (raw ns, scaled ns)})``.

    Every stage gets its own canaries, so a cold start of two seconds is
    scaled piece by piece and not by what the machine did at its two
    ends; ``first_answer`` is the last stage.
    """
    stages = {}

    def stage(name, fn):
        with span(recorder, name):
            out, raw, scaled = clock.timed(fn, clock.LONG)
        stages[name] = (raw, scaled)
        return out

    engine = engine_cls(plan, table, stage)
    try:
        answer = stage("first_answer",
                       lambda: engine.ask("point", plan.points[0]))
    except BaseException:
        engine.close()
        raise
    return engine, answer, stages


def write_laps(plan, laps: int):
    """The fixed write sequence: ``(lap, position, inserts, deletes,
    probe)``.  Lap 0 of ``ingest_seg`` primes the segments and is not
    timed; everywhere else a lap inserts a batch and deletes it again,
    so every lap starts from the same state."""
    if plan.workload != "ingest_seg":
        batch, probe = plan.batches[0], plan.probes[0]
        for lap in range(1, laps + 1):
            yield lap, 0, batch, [], probe
            yield lap, 1, [], batch, probe
        return
    for lap in range(laps + 1):
        for position, batch in enumerate(plan.batches):
            mixed = lap > 0 and position == plans.INGEST_MIXED_AT
            yield (lap, position, batch, plan.deletes if mixed else [],
                   plan.probes[position])


class Tally:
    """Operations attempted and failed; a failed or refused request also
    misses any latency limit, so it is never dropped from the count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []  # what the first few failures were

    def expect(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, what)

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if count and len(self.notes) < 10:
            self.notes.append(what)


def _same_cells(got, want) -> bool:
    return set(got) == set(want) and all(
        surface.values_close(got[cell], want[cell]) for cell in want
    )


def check_answers(engine, plan, oracle, tally) -> None:
    """All three query families through the engine, recomputed by the
    oracle over the live rows.  Outside every timed window."""
    sample = plan.unit[:450] + [("range", spec) for spec in plan.ranges]
    for family, arg in sample:
        try:
            got = engine.ask(family, arg)
        except Exception as exc:
            tally.expect(False, f"{family} {arg}: {exc!r}")
            continue
        want = getattr(oracle, family)(arg)
        if family == "range":
            got = {tuple(cell): value for cell, value in got.items()}
            ok = _same_cells(got, want)
        else:
            ok = surface.values_close(got, want)
        tally.expect(ok, f"{family} {arg}: got {got}, oracle {want}")
    try:
        answer = engine.ask("iceberg", plan.iceberg_threshold)
    except Exception as exc:
        tally.expect(False, f"iceberg: {exc!r}")
        return
    checked, wrong = check_iceberg(
        oracle, answer, plan.iceberg_threshold, plan.points,
        surface.values_close,
    )
    tally.attempted += checked
    tally.fail(len(wrong), f"iceberg {plan.iceberg_threshold}: {wrong[:3]}")


class ReadUnits:
    """Per-repetition records of the read unit (and the bulk unit), in
    canary-scaled ns (``raw_wall_ns`` keeps the unscaled unit times)."""

    def __init__(self, engine, clock, recorder):
        self.engine = engine
        self.clock = clock
        self.recorder = recorder
        self.wall_ns = []  # one per replay of the latency unit
        self.raw_wall_ns = []
        self.p50_ns = []
        self.pooled = []  # every per-request latency, unscaled
        self.bulk_ns = []
        self.raw_bulk_ns = []
        self.bulk_ops = 0
        self.traced_wall_ns = []
        self._kept_traces = 0

    def one(self, tally) -> None:
        engine, clock = self.engine, self.clock
        if engine.bulk is not None:
            try:
                self.bulk_ops, raw, scaled = clock.timed(engine.bulk)
                self.bulk_ns.append(scaled)
                self.raw_bulk_ns.append(raw)
                tally.attempted += self.bulk_ops
            except Exception as exc:
                tally.expect(False, f"bulk unit: {exc!r}")
        before = engine.errors
        try:
            stamps, raw, scaled = clock.timed(
                lambda: measure.replay(engine.calls))
        except Exception as exc:
            tally.attempted += len(engine.calls)
            tally.fail(len(engine.calls), f"read unit: {exc!r}")
            return
        tally.attempted += len(engine.calls)
        tally.fail(engine.errors - before, "error: line in a read unit")
        lat = measure.latencies(stamps)
        self.wall_ns.append(scaled)
        self.raw_wall_ns.append(raw)
        self.p50_ns.append(measure.quantile(lat, 0.5) * scaled / raw)
        self.pooled.extend(lat)
        if self.recorder is not None:
            self._traced()

    def _traced(self) -> None:
        """The same unit with a span recorded per request: what tracing
        costs, measured beside the untraced replay it is compared with."""
        rows = []

        def traced():
            add = rows.append
            for i, (fn, arg) in enumerate(self.engine.calls):
                a = pns()
                fn(arg)
                add(("request", a, pns(), i))

        t0 = pns()
        _, raw, scaled = self.clock.timed(traced)
        self.traced_wall_ns.append(scaled)
        if self._kept_traces < 3:
            self._kept_traces += 1
            parent = self.recorder.add("read_unit:traced", t0, t0 + raw)
            for name, a, b, i in rows:
                self.recorder.add(name, a, b, parent=parent, request=i)

    def block(self, units: int, tally) -> None:
        gc.collect()
        for _ in range(units):
            self.one(tally)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(plan, seconds: float, calibration: dict, scratch: str,
        setups: int = SETUPS, laps: int = None, recorder=None,
        inspect=None) -> dict:
    """Measure one workload; returns the end-to-end metrics, the
    diagnostics printed beside them, and every unit time.  ``inspect``,
    if given, is called with the still-running engine when everything
    else is done (the traced run times the layers under it there)."""
    clock = measure.CanaryClock(calibration["canary_ref_ms"] * 1e6)
    table = plans.make_table(plan.records)
    oracle = Oracle(plan.records, plans.N_DIMS)
    tally = Tally()
    engine_cls = ENGINES[plan.workload]
    laps_per_s, units_per_s = PACING[plan.workload]
    if laps is None:
        laps = max(MIN_LAPS, round(seconds * laps_per_s))
    block_units = max(MIN_BLOCK_UNITS, round(seconds * units_per_s / 2))
    first_cell = plan.points[0]

    # -- cold starts: constructor to first correct answer -------------------
    starts, engine = [], None  # one {stage: (raw ns, scaled ns)} a start
    for _ in range(setups):
        if engine is not None:
            engine.close()
            engine = None
        gc.collect()
        with span(recorder, "setup"):
            engine, answer, stages = cold_start(
                engine_cls, plan, table, clock, recorder)
        starts.append(stages)
        tally.expect(surface.values_close(answer, oracle.point(first_cell)),
                     f"first answer {answer}")

    reads = ReadUnits(engine, clock, recorder)
    visible_ns, raw_visible_ns = {}, []  # position -> [ns per lap]
    lap_ns, lap_rows, compactions = {}, {}, 0
    try:
        with span(recorder, "check:before"):
            check_answers(engine, plan, oracle, tally)
        cache0 = engine.cache_stats()
        with span(recorder, "reads:a"):
            reads.block(block_units, tally)

        with span(recorder, "writes"):
            for lap, position, inserts, deletes, probe in write_laps(
                    plan, laps):
                if position == 0:
                    gc.collect()  # every lap starts from a collected heap

                def write_and_read():
                    engine.write(inserts, deletes)
                    return engine.ask("point", probe)

                with span(recorder, "write", request=position):
                    try:
                        got, raw, visible = clock.timed(
                            write_and_read, engine.write_canaries)
                        done, _, upkeep = clock.timed(engine.housekeeping)
                    except Exception as exc:
                        tally.expect(False, f"write {lap}/{position}: {exc!r}")
                        continue
                compactions += done
                oracle.delete(deletes)
                oracle.insert(inserts)
                want = oracle.point(probe)
                tally.expect(surface.values_close(got, want),
                             f"probe {lap}/{position}: got {got}, "
                             f"oracle {want}")
                if lap > 0:
                    visible_ns.setdefault(position, []).append(visible)
                    raw_visible_ns.append(raw)
                    lap_ns[lap] = lap_ns.get(lap, 0) + visible + upkeep
                    lap_rows[lap] = (lap_rows.get(lap, 0)
                                     + len(inserts) + len(deletes))
                    reads.one(tally)

        with span(recorder, "reads:b"):
            reads.block(block_units, tally)
        cache1 = engine.cache_stats()
        with span(recorder, "check:after"):
            check_answers(engine, plan, oracle, tally)
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        store_bytes = engine.store_bytes(scratch)
        extra_stats = engine.describe()
        if inspect is not None:
            inspect(engine)
    finally:
        engine.close()
        shutil.rmtree(scratch, ignore_errors=True)

    # -- the gated values: medians of identical repetitions -------------------
    median = measure.median
    qps_ops = reads.bulk_ops if reads.bulk_ns else len(engine.calls)
    qps_ns = reads.bulk_ns or reads.wall_ns
    rows_per_lap = next(iter(lap_rows.values()))
    laps_ns = [lap_ns[k] for k in sorted(lap_ns)]
    setup_ns = [sum(scaled for _raw, scaled in stages.values())
                for stages in starts]
    metrics = {
        "setup_s": (median(setup_ns) / 1e9, "s"),
        "read_qps": (qps_ops / (median(qps_ns) / 1e9), "1/s"),
        "read_p50_us": (median(reads.p50_ns) / 1e3, "us"),
        # Per position of the lap, then over the positions.
        "write_visible_p50_ms": (median(
            [median(samples) for samples in visible_ns.values()]) / 1e6,
            "ms"),
        "write_rows_per_s": (rows_per_lap / (median(laps_ns) / 1e9), "1/s"),
        "store_bytes_per_row": (store_bytes / len(oracle), "B/row"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }

    def cache_delta(key):
        return cache1.get(key, 0) - cache0.get(key, 0)

    lookups = cache_delta("hits") + cache_delta("misses")
    raw_qps_ns = reads.raw_bulk_ns or reads.raw_wall_ns
    mean_ns = sum(qps_ns) / len(qps_ns)
    read_tail = measure.tail(reads.pooled)
    detail = {
        "laps": laps,
        "read_units": len(reads.wall_ns),
        "read_qps_mean": qps_ops / (mean_ns / 1e9),
        "read_qps_raw": qps_ops / (median(raw_qps_ns) / 1e9),
        "slow_share": 1.0 - median(qps_ns) / mean_ns,
        "read_p99_us": measure.percentile(reads.pooled, 99.0) / 1e3,
        "read_tail_us": dict(read_tail, value=read_tail["value"] / 1e3),
        "write_visible_max_ms": max(raw_visible_ns) / 1e6,
        "writes": len(raw_visible_ns),
        "canary_ms": median(clock.cpu_ns) / 1e6,
        "canary_quiet_ms": measure.quantile(clock.cpu_ns, 0.1) / 1e6,
        "canary_wait_share": clock.wait_share(),
        "canaries": len(clock.cpu_ns),
        "cache_hit_rate": cache_delta("hits") / lookups if lookups else 0.0,
        "cache_evictions_per_kreq": (
            1000.0 * cache_delta("evictions") / lookups if lookups else 0.0),
        # Pair by pair: each traced replay ran right after the untraced
        # replay of the same unit in the same state.
        "trace_overhead_pct": (
            100.0 * (median([traced / plain for traced, plain in zip(
                reads.traced_wall_ns, reads.wall_ns)]) - 1.0)
            if reads.traced_wall_ns else None),
        "setup_all_s": [ns / 1e9 for ns in setup_ns],
        "setup_raw_s": [sum(raw for raw, _ in stages.values()) / 1e9
                        for stages in starts],
        "live_rows": len(oracle),
        "store_bytes": store_bytes,
        "driver_compactions": compactions,
        **extra_stats,
    }
    units = {
        "read_wall_ns": reads.wall_ns, "read_p50_ns": reads.p50_ns,
        "bulk_wall_ns": reads.bulk_ns,
        "canary_cpu_ns": clock.cpu_ns, "canary_wall_ns": clock.wall_ns,
        "raw_read_wall_ns": reads.raw_wall_ns,
        "raw_bulk_wall_ns": reads.raw_bulk_ns,
        "visible_ns": {str(k): v for k, v in sorted(visible_ns.items())},
        "lap_ns": laps_ns,
        "setup_stages_ns": starts,
    }
    return {
        "metrics": metrics, "detail": detail, "units": units,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.notes, "unit_ops": len(engine.calls),
    }
