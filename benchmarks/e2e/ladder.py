"""The traced run: the layers on a workload's own path, timed from outside.

The workload runs first, short and with tracing on (``workloads.run``);
before its engine is closed, ``Ladder.inspect`` walks the *stops* on that
workload's path, on that engine and its inputs.  A stop is a public
function one layer further up, replayed ``reps`` times on one thread and
read at the quiet decile; a layer's self time is its stop minus the stop
below.  Write phases are further write laps on the same engine: timed
public calls where the caller makes them itself (``maintain`` -> first
``serving_tree`` access), and the server's own phase histograms, read as
``count x mean``, where a server makes them.

A layer that is not on a workload's path reads 0 there — it spends no
time on that workload's requests — so every run still prints every
per-layer metric of ``BENCHMARK.json``.

                 stops (reads)                        write phases
olap_inproc      kernel point/range/iceberg,          maintain, refreeze
                 QCWarehouse.point (miss, hit)
door_tcp         kernel, cache hit, QCServer.submit,  server histograms
                 codec, LineClient.call, open loop
shard_bulk       kernel, packed kernel, attach,       server + shard
                 ShardServer.submit, map_query        histograms (pack, publish)
ingest_seg       kernel (monolithic twin),            head maintain, seal,
                 SegmentedWarehouse.point             compact_once; the WAL loop
"""

import cProfile
import functools
import gc
import os
import shutil

import measure
import plans
import surface
import workloads
from measure import quantile

REPS = 20
UNIT_CALLS = 2000  # short request lists are tiled up to this many calls
SLOW_UNIT_CALLS = 300  # ... for stops that cost >100 us a call
WRITE_LAPS = 4  # every write phase is sampled at least this often
INGEST_LAPS = 3


def _ms(ns) -> float:
    return ns / 1e6


def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs (exact: the
    same inputs make the same calls)."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def nodes_per_point(tree, table, cells) -> float:
    """Tree nodes a point query occupies, averaged over ``cells`` — the
    paper's own Figure-13 cost; exact."""
    counter = [0]
    for cell in cells:
        surface.locate(tree, table.encode_cell(cell), counter=counter)
    return counter[0] / len(cells)


def pycalls_per_point(tree, table, cells) -> float:
    point = functools.partial(surface.point_query_raw, tree, table)
    return _python_calls(lambda: [point(c) for c in cells]) / len(cells)


def pycalls_per_row(warehouse, batch) -> float:
    """Python calls per row of one batched insert (the batch is deleted
    again, unprofiled, so the warehouse ends where it began)."""
    calls = _python_calls(lambda: warehouse.maintain(inserts=batch))
    warehouse.maintain(deletes=batch)
    return calls / len(batch)


def _folded_rows(before, after) -> int:
    """Rows one compaction re-inserted, from ``segment_rows`` before and
    after it: the newer segment of the pair that became one."""
    for i, rows in enumerate(after):
        if before[i] != rows:
            return before[i + 1]
    return 0


def _insert_delete(batch):
    """The two positions of a write lap: insert the batch, delete it."""
    return (("insert", batch, []), ("delete", [], batch))


def _phase_total_us(stats, group, name) -> tuple:
    """``(count, count x mean)`` of one phase histogram (never its
    bucketed percentiles); zeros while the server has not seen it."""
    entry = surface.lookup(stats, group, name, default={})
    count = entry.get("count", 0)
    return count, count * entry.get("mean_us", 0.0)


class Ladder:
    """One traced run's stops and write phases; ``m`` collects the
    per-layer metrics as ``{name: (value, unit)}``."""

    def __init__(self, plan, seconds, calibration, recorder, scratch):
        self.plan = plan
        self.calibration = calibration
        self.rec = recorder
        self.scratch = scratch
        self.clock = measure.CanaryClock(calibration["canary_ref_ms"] * 1e6)
        self.reps = max(10, round(REPS * seconds / 12))
        self.m = {}  # metric name -> (value, unit)
        self.attempted = self.failed = 0
        # The workload's key stream: shard_bulk's is its cold bulk unit.
        self.stream = plan.bulk or plan.points
        self.cells = measure.tile(self.stream, UNIT_CALLS)
        self.slow_cells = self.cells[:SLOW_UNIT_CALLS]
        self.batch = plan.batches[0]
        self.probe = plan.probes[0]
        # Kernel time of one point / one range of the read unit, as this
        # workload's path reaches the kernel (``path.kernel_share``).
        self.path_point_us = self.path_range_us = 0.0
        self.off_path = []  # promised metrics of layers not on this path

    def put(self, name, value, unit) -> None:
        self.m[name] = (value, unit)

    def timed(self, name, fn, long: bool = False) -> tuple:
        """``(fn(), canary-scaled ns)`` for one public call, recorded as
        a span.  ``long`` marks a call of 0.3 s or more: it gets more
        canaries and a collected heap to start from.  ``self.factor`` is
        scaled over raw for this call: what the times the program took
        of itself inside it are multiplied by."""
        if long:
            gc.collect()
        with self.rec.span(name):
            out, raw, scaled = self.clock.timed(
                fn, self.clock.LONG if long else 1)
        self.factor = scaled / raw
        return out, scaled

    def stop(self, name, fn, args) -> float:
        with self.rec.span("stop:" + name):
            us = measure.quiet_us_per_call(self.clock, fn, args, self.reps,
                                           self.rec, name)
        self.attempted += len(args) * (self.reps + 1)
        return us

    def inspect(self, engine) -> None:
        """Walk the stops of the plan's workload on its running engine."""
        errors = engine.errors
        with self.rec.span("ladder"):
            getattr(self, self.plan.workload)(engine)
        self.failed += engine.errors - errors

    # -- stops shared by several paths ----------------------------------------

    def kernel(self, wh) -> float:
        """The query kernel on a warehouse's frozen tree, and the tree's
        size: where every workload's reads end."""
        tree = wh.serving_tree
        stats = wh.stats()
        self.put("store.nodes", surface.lookup(stats, "nodes", default=0),
                 "count")
        self.put("store.classes",
                 surface.lookup(stats, "classes", default=0), "count")
        point = functools.partial(surface.point_query_raw, tree, wh.table)
        kernel_us = self.stop("kernel.point", point, self.cells)
        self.put("kernel.point_us", kernel_us, "us")
        distinct = sorted(set(self.stream))
        self.put("kernel.nodes_per_point",
                 nodes_per_point(tree, wh.table, distinct), "count")
        self.put("kernel.pycalls_per_point",
                 pycalls_per_point(tree, wh.table, distinct), "count")
        self.path_point_us = kernel_us
        return kernel_us

    def cache_hit(self, wh) -> float:
        """A hit in the warehouse's query cache: hot keys that fit it."""
        hot = sorted(set(self.stream))[:512]
        for cell in hot:
            wh.point(cell)
        hit_us = self.stop("cache.hit", wh.point,
                           measure.tile(hot, UNIT_CALLS))
        self.put("cache.hit_us", hit_us, "us")
        return hit_us

    def server_writes(self, engine) -> dict:
        """Write laps through the engine's own front (TCP lines or
        ``ShardServer.write``); per-write phase times in ms from the
        server's histograms, ``count x mean`` after minus before."""
        server = engine.server
        before = server.stats()
        raw_ns = scaled_ns = 0
        for _lap in range(WRITE_LAPS):
            for position, inserts, deletes in _insert_delete(self.batch):

                def write_and_read():
                    engine.write(inserts, deletes)
                    engine.ask("point", self.probe)

                _, scaled = self.timed("write:" + position, write_and_read,
                                       long=True)
                scaled_ns += scaled
                raw_ns += scaled / self.factor
                self.attempted += 1
        after = server.stats()
        factor = scaled_ns / raw_ns  # the server timed itself, unscaled

        def phase_ms(group, name) -> float:
            n1, total1 = _phase_total_us(after, group, name)
            n0, total0 = _phase_total_us(before, group, name)
            if n1 <= n0:
                return 0.0
            return (total1 - total0) / (n1 - n0) / 1e3 * factor

        ms = {name: phase_ms("write_phases", name) for name in (
            "maintain", "maintain_partition", "maintain_merge",
            "maintain_index", "refreeze", "publish", "warm")}
        ms["pack"] = phase_ms("shard_phases", "pack")
        self.put("maintenance.maintain_ms", ms["maintain"], "ms")
        self.put("maintenance.partition_ms", ms["maintain_partition"], "ms")
        self.put("maintenance.merge_ms", ms["maintain_merge"], "ms")
        self.put("maintenance.index_ms", ms["maintain_index"], "ms")
        self.put("frozen.refreeze_ms", ms["refreeze"], "ms")

        def counted(name) -> int:
            return (surface.lookup(after, "counters", name, default=0)
                    - surface.lookup(before, "counters", name, default=0))

        refreezes = counted("refreeze_patched") + counted("refreeze_full")
        self.put("frozen.patched_share",
                 counted("refreeze_patched") / max(1, refreezes), "ratio")
        # Last, and past the server: cProfile sees only this thread.
        self.put("maintenance.pycalls_per_row",
                 pycalls_per_row(engine.wh, self.batch), "count")
        return ms

    # -- olap_inproc ------------------------------------------------------------

    def olap_inproc(self, engine) -> None:
        plan, wh = self.plan, engine.wh
        kernel_us = self.kernel(wh)
        ranged = functools.partial(
            surface.range_query_raw, wh.serving_tree, wh.table)
        self.path_range_us = self.stop(
            "kernel.range", ranged, measure.tile(plan.unit_ranges, 300))
        self.put("kernel.range_us", self.path_range_us, "us")
        iceberg_ns = []
        for _ in range(3):
            view = wh.snapshot_view()  # a fresh view: no cached answer
            _answer, ns = self.timed(
                "kernel.iceberg",
                lambda: view.iceberg(plan.iceberg_threshold))
            iceberg_ns.append(ns)
        self.put("kernel.iceberg_ms", _ms(quantile(iceberg_ns, 0.1)), "ms")
        # The unit's own cells: more of them than the cache holds, so
        # every one of these calls is a miss.
        warehouse_us = self.stop("warehouse.point", wh.point, self.cells)
        self.put("warehouse.overhead_us", warehouse_us - kernel_us, "us")
        self.cache_hit(wh)

        phases = {}  # phase -> position -> [ms per lap]
        modes = []
        for _lap in range(WRITE_LAPS):
            for position, inserts, deletes in _insert_delete(self.batch):
                with self.rec.span("write:" + position):
                    _, maintain_ns = self.timed(
                        "maintenance.maintain", lambda: wh.maintain(
                            inserts=inserts, deletes=deletes), long=True)
                    factor = self.factor
                    _, refreeze_ns = self.timed(
                        "frozen.refreeze", lambda: wh.serving_tree)
                    wh.point(self.probe)
                done = wh.last_maintenance or {}
                took = {"maintain": _ms(maintain_ns),
                        "refreeze": _ms(refreeze_ns)}
                for phase in ("partition", "merge", "index"):
                    if phase + "_s" in done:
                        took[phase] = done[phase + "_s"] * 1e3 * factor
                for phase, ms in took.items():
                    phases.setdefault(phase, {}).setdefault(
                        position, []).append(ms)
                modes.append(surface.lookup(wh.last_refreeze, "mode"))
                self.attempted += 1
        for phase, name in (("maintain", "maintenance.maintain_ms"),
                            ("partition", "maintenance.partition_ms"),
                            ("merge", "maintenance.merge_ms"),
                            ("index", "maintenance.index_ms"),
                            ("refreeze", "frozen.refreeze_ms")):
            # Quiet lap of each position, then the mean of the positions;
            # a sub-phase the program stops reporting reads 0.
            per = [quantile(laps, 0.1)
                   for laps in phases.get(phase, {}).values()]
            self.put(name, sum(per) / len(per) if per else 0.0, "ms")
        self.put("frozen.patched_share",
                 modes.count("patched") / len(modes), "ratio")
        self.put("maintenance.pycalls_per_row",
                 pycalls_per_row(wh, self.batch), "count")

    # -- door_tcp -----------------------------------------------------------------

    def door_tcp(self, engine) -> None:
        self.kernel(engine.wh)
        hit_us = self.cache_hit(engine.wh)
        lines = ["point " + ",".join(cell) for cell in self.slow_cells]
        server, door = engine.server, engine.door
        # The hot set sits in the server's cache: under ``submit`` is a
        # cache hit, not the kernel.
        submit_us = self.stop(
            "serving.submit",
            lambda cell: server.submit("point", cell).result(),
            self.slow_cells)
        self.put("serving.dispatch_us", submit_us - hit_us, "us")
        call_us = self.stop("door.call", engine.client.call, lines)

        def codec(line):
            surface.format_response(surface.parse_line(line), 1234.5678)

        codec_us = self.stop("protocol.codec", codec, lines)
        self.put("protocol.codec_us", codec_us, "us")
        self.put("door.transport_us", call_us - submit_us - codec_us, "us")

        # Open loop: Poisson arrivals at a frozen rate, latency from the
        # scheduled send instant; the same schedule every window.
        rate = self.calibration["door_rate_rps"]
        open_plan = [("point", line)
                     for line in measure.tile(lines, int(rate * 0.5))]
        p50, p99, lag, achieved, bad = [], [], [], [], 0
        for _ in range(3):
            with self.rec.span("door.open_window"):
                report = surface.run_open_loop_tcp(
                    door.host, door.port, open_plan,
                    surface.ArrivalSchedule(
                        rate, len(open_plan), seed=self.plan.seed),
                    connections=2, warmup=4)
            p50.append(surface.lookup(report, "latency", "p50_us"))
            p99.append(surface.lookup(report, "latency", "p99_us"))
            lag.append(surface.lookup(report, "send_lag", "p99_us"))
            achieved.append(report["throughput_rps"])
            bad += len(open_plan) - report["ok"]
            self.attempted += len(open_plan)
        self.failed += bad
        self.put("door.open_p50_us", quantile(p50, 0.5), "us")
        self.put("door.read_p99_us", quantile(p99, 0.5), "us")
        self.put("door.send_lag_p99_us", quantile(lag, 0.5), "us")
        self.put("door.open_qps_achieved", quantile(achieved, 0.5), "1/s")
        counters = surface.lookup(server.stats(), "counters", default={})
        self.put("serving.shed", counters.get("shed", 0), "count")
        self.put("serving.timeouts", counters.get("timeouts", 0), "count")
        self.server_writes(engine)

    # -- shard_bulk ---------------------------------------------------------------

    def shard_bulk(self, engine) -> None:
        self.kernel(engine.wh)
        server = engine.server
        blob = engine.packed()
        self.put("store.packed_bytes", len(blob), "B")
        attach_ns = []
        for _ in range(5):
            attached, ns = self.timed(
                "pack.attach", lambda: surface.attach_packed(blob))
            attach_ns.append(ns)
            attached.release()
        self.put("pack.attach_ms", _ms(quantile(attach_ns, 0.1)), "ms")
        attached = surface.attach_packed(blob)
        try:
            packed_us = self.stop("packed.point", functools.partial(
                surface.point_query_raw, attached.tree, attached.table,
            ), self.cells)
        finally:
            attached.release()
        self.put("packed.point_us", packed_us, "us")
        self.path_point_us = packed_us  # the worker's kernel is this one

        submit_us = self.stop(
            "shard.submit",
            lambda cell: server.submit("point", cell).result(),
            self.slow_cells)
        self.put("shard.pipe_us", submit_us - packed_us, "us")
        bulk = [(cell,) for cell in measure.tile(self.stream, 4000)]
        gc.collect()
        walls = []
        for _ in range(self.reps):
            _, ns = self.timed(
                "shard.map_query", lambda: server.map_query("point", bulk))
            walls.append(ns)
        self.attempted += len(bulk) * self.reps
        self.put("shard.bulk_us_per_call",
                 quantile(walls, 0.1) / len(bulk) / 1e3, "us")

        # All of a write's phases from the same writes and the same
        # (the server's) clock, so a share of them can never be negative.
        ms = self.server_writes(engine)
        total = ms["maintain"] + ms["refreeze"] + ms["publish"] + ms["warm"]
        self.put("pack.pack_ms", ms["pack"], "ms")
        self.put("shard.publish_ms", ms["publish"] - ms["pack"], "ms")
        self.put("shard.write_ms", total, "ms")
        self.put("path.pack_publish_share",
                 ms["publish"] / total if total else 0.0, "ratio")
        self.put("shard.local_fallbacks", surface.lookup(
            server.stats(), "shard", "local_fallbacks", default=0), "count")

    # -- ingest_seg -----------------------------------------------------------------

    def ingest_seg(self, engine) -> None:
        plan, seg = self.plan, engine.seg
        # A monolithic twin of the base table: what the same point query
        # costs without the scatter-gather.
        twin = surface.QCWarehouse(
            plans.make_table(plan.records), plans.AGGREGATE, cache_size=0)
        kernel_us = self.kernel(twin)
        del twin
        scatter_us = self.stop("segments.point", seg.point, self.cells)
        self.put("segments.scatter_us", scatter_us - kernel_us, "us")

        head_ms, seal_ms, compact_ms = [], [], []
        parts = {"partition": [], "merge": [], "index": []}
        ingested = remaintained = 0
        laps = [w for w in workloads.write_laps(plan, INGEST_LAPS) if w[0]]
        for _lap, _position, inserts, deletes, probe in laps:
            seals = surface.lookup(seg.stats(), "seals", default=0)
            _, ns = self.timed("segments.head_maintain", lambda: seg.maintain(
                inserts=inserts, deletes=deletes))
            factor = self.factor
            seg.point(probe)
            head_ms.append(_ms(ns))
            ingested += len(inserts) + len(deletes)
            self.attempted += 1
            stats = seg.stats()
            done = surface.lookup(stats, "maintenance", default={})
            for phase, values in parts.items():
                if phase + "_s" in done:
                    values.append(done[phase + "_s"] * 1e3 * factor)
            if surface.lookup(stats, "seals", default=0) > seals:
                # The batch filled the head: the program's own timing of
                # the seal it made inside ``maintain``.
                seal_ms.append(surface.lookup(
                    stats, "last_seal", "seconds", default=0.0)
                    * 1e3 * factor)
            while seg.compaction_backlog > 0:
                rows = surface.lookup(seg.stats(), "segment_rows", default=[])
                merged, ns = self.timed("segments.compact", seg.compact_once)
                if not merged:
                    break
                compact_ms.append(_ms(ns))
                remaintained += _folded_rows(rows, surface.lookup(
                    seg.stats(), "segment_rows", default=[]))

        def mean(values) -> float:
            return sum(values) / len(values) if values else 0.0

        self.put("maintenance.maintain_ms", mean(head_ms), "ms")
        self.put("maintenance.partition_ms", mean(parts["partition"]), "ms")
        self.put("maintenance.merge_ms", mean(parts["merge"]), "ms")
        self.put("maintenance.index_ms", mean(parts["index"]), "ms")
        self.put("segments.seal_ms", mean(seal_ms), "ms")
        self.put("segments.compact_ms", mean(compact_ms), "ms")
        self.put("segments.compactions", len(compact_ms), "count")
        self.put("segments.write_amp", remaintained / ingested, "ratio")
        self.put("segments.live", surface.lookup(
            seg.stats(), "segments_live", default=0), "count")
        self.put("maintenance.pycalls_per_row", _python_calls(
            lambda: seg.maintain(inserts=plan.spare)) / len(plan.spare),
            "count")
        self.wal()

    def wal(self) -> None:
        """No workload attaches a WAL (fsync on this disk is device
        noise); this is the one place its cost is measured."""
        small = plans.make_table(self.plan.records[:512])
        batch = self.plan.spare
        plain = surface.QCWarehouse(small, plans.AGGREGATE)
        logged = surface.QCWarehouse(small, plans.AGGREGATE)
        extra_ns = []  # the same batch on twin warehouses, pair by pair
        os.makedirs(self.scratch, exist_ok=True)
        try:
            logged.attach_wal(os.path.join(self.scratch, "bench.wal"))
            for _ in range(6):
                pair = []
                for name, wh in (("wal.plain", plain),
                                 ("wal.logged", logged)):
                    _, ns = self.timed(
                        name, lambda: wh.maintain(inserts=batch))
                    wh.maintain(deletes=batch)
                    pair.append(ns)
                extra_ns.append(pair[1] - pair[0])
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        self.put("wal.append_ms", _ms(quantile(extra_ns, 0.5)), "ms")

    # -- what the workload's own traced run measured ----------------------------------

    def finish(self, result, promised) -> dict:
        """The per-layer metrics of the run: the ladder's, the traced
        workload's own, and 0 for every promised ``(name, unit)`` whose
        layer is not on this workload's path."""
        m, detail, plan = self.m, result["detail"], self.plan
        quiet = {}  # stage -> its quietest cold start
        for stages in result["units"]["setup_stages_ns"]:
            for name, (_raw, scaled) in stages.items():
                quiet[name] = min(scaled, quiet.get(name, scaled))
        for name, ns in quiet.items():
            if name != "first_answer":
                m[name] = (ns / 1e9, "s")
        m["cache.hit_rate"] = (detail["cache_hit_rate"], "ratio")
        m["cache.evictions"] = (detail["cache_evictions_per_kreq"], "1/kreq")
        m["bench.read_qps_mean"] = (detail["read_qps_mean"], "1/s")
        m["bench.slow_share"] = (detail["slow_share"], "ratio")
        m["bench.read_p99_us"] = (detail["read_p99_us"], "us")
        m["bench.write_visible_max_ms"] = (
            detail["write_visible_max_ms"], "ms")
        m["bench.trace_overhead_pct"] = (detail["trace_overhead_pct"], "%")
        m["bench.failed_share"] = (
            (result["failed"] + self.failed)
            / (result["attempted"] + self.attempted), "ratio")
        m["machine.canary_ms"] = (detail["canary_ms"], "ms")
        m["machine.canary_wait_share"] = (
            detail["canary_wait_share"], "ratio")
        # Share of the workload's own read time spent in the kernel: the
        # unit's kernel calls that miss the path's cache, over the unit.
        families = [family for family, _ in plan.unit]
        kernel_unit_us = (
            families.count("point") * self.path_point_us
            + families.count("range") * self.path_range_us
        ) * (1.0 - detail["cache_hit_rate"])
        unit_us = quantile(result["units"]["read_wall_ns"], 0.1) / 1e3
        m["path.kernel_share"] = (kernel_unit_us / unit_us, "ratio")
        self.off_path = sorted(
            name for name, _unit in promised if name not in m)
        for name, unit in promised:
            m.setdefault(name, (0.0, unit))
        return m
