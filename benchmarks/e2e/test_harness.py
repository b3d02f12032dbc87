"""Self-test of the benchmark harness (not of the program).

    python -m pytest benchmarks/e2e

Not collected by the repo's tier-1 run, whose ``testpaths`` is ``tests``.
Takes about a minute: it builds the Figure-14-scale table several times.
"""

import glob
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import plans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_plan_other_seed_other_plan():
    for workload in plans.WORKLOADS:
        assert (plans.build(workload, 5).digest()
                == plans.build(workload, 5).digest())
        assert (plans.build(workload, 5).digest()
                != plans.build(workload, 6).digest())


EXACT = """
import json, os, sys, tempfile
sys.path.insert(0, {here!r})
import ladder, plans, surface, workloads
plan = plans.build("olap_inproc", 5)
wh = surface.QCWarehouse(plans.make_table(plan.records), plans.AGGREGATE)
tree, cells = wh.serving_tree, sorted(set(plan.points))
with tempfile.TemporaryDirectory(dir={out!r}) as scratch:
    stored = workloads.saved_bytes(wh, scratch) / len(plan.records)
print(json.dumps({{
    "digest": plan.digest(),
    "kernel.nodes_per_point": ladder.nodes_per_point(tree, wh.table, cells),
    "kernel.pycalls_per_point":
        ladder.pycalls_per_point(tree, wh.table, cells),
    "maintenance.pycalls_per_row":
        ladder.pycalls_per_row(wh, plan.batches[0]),
    "store_bytes_per_row": stored,
}}))
"""


def test_exact_counts_repeat_across_processes(tmp_path):
    """One seed is one execution: the exact metrics are equal in two
    fresh interpreters (string hashing pinned, as ``run.py`` pins it)."""
    code = EXACT.format(here=HERE, out=str(tmp_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    first, second = (
        json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout)
        for _ in range(2)
    )
    assert first == second
    assert first["kernel.nodes_per_point"] > 1
    assert first["maintenance.pycalls_per_row"] > 1


def test_percentile_needs_ten_samples_beyond_it():
    sample = list(range(1000))
    assert measure.percentile(sample, 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="at least ten"):
        measure.percentile(sample, 99.9)
    with pytest.raises(ValueError):
        measure.percentile(list(range(99)), 90.0)
    assert measure.tail(sample) == {
        "n": 1000, "p": 99.0, "value": pytest.approx(989.01)}
    assert measure.tail([1.0] * 5) == {"n": 5, "p": None, "value": None}
    assert measure.quantile([10, 20], 0.1) == pytest.approx(11.0)


def test_canary_is_not_slowed_by_load_inside_the_process():
    """A thread spinning beside the canary makes it wait — wall time —
    but costs it no CPU time, and CPU time is what timings are scaled
    by: load the program causes is never divided out of a timing."""
    quiet = measure.CanaryClock(1.0)
    for _ in range(5):
        quiet.mark()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        loaded = measure.CanaryClock(1.0)
        for _ in range(5):
            loaded.mark()
    finally:
        stop.set()
        spinner.join(timeout=10)
    assert not spinner.is_alive()
    assert quiet.wait_share() < 0.1
    assert loaded.wait_share() > 0.25


def _leftovers():
    return (
        [t.name for t in threading.enumerate()
         if t is not threading.main_thread()],
        multiprocessing.active_children(),
        glob.glob("/dev/shm/qctree-*"),
    )


@pytest.mark.parametrize("workload", ["door_tcp", "shard_bulk"])
def test_nothing_survives_a_workload(workload, tmp_path):
    """No thread, process or shared-memory segment outlives a run, and
    the run's answers agree with the oracle."""
    with open(os.path.join(HERE, "calibration.json")) as fp:
        calibration = json.load(fp)
    result = workloads.run(
        plans.build(workload, 5), 1.0, calibration,
        str(tmp_path / "scratch"), setups=1, laps=1,
    )
    assert result["failed"] == 0 and result["attempted"] > 500
    assert _leftovers() == ([], [], [])


def _pids() -> set:
    """Processes of this process group (the command's descendants stay
    in it, whoever their parent has become), zombies included."""
    mine, found = str(os.getpgrp()), set()
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as fp:
                    fields = fp.read().rpartition(") ")[2].split()
            except OSError:
                continue
            if fields[2] == mine:
                found.add(int(name))
    return found


def test_no_process_outlives_the_command():
    """The moment the command returns, nothing it started is left — not
    even as a zombie: neither a shard worker nor the ``multiprocessing``
    resource tracker, which ``active_children()`` above does not list and
    which outlives its parent unless ``run.supervise`` waits for it."""
    before = _pids()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "shard_bulk", "--seed", "5", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    left = _pids() - before
    assert done.returncode == 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    assert left == set()
    assert glob.glob("/dev/shm/qctree-*") == []


def test_ingest_plan_reaches_five_seals_and_two_compactions():
    """At the benchmark's own ``run_seconds`` the ingest laps seal at
    least five times and compact at least twice inside the timed window
    (the priming lap and the bootstrap seal are not counted)."""
    with open(os.path.join(HERE, os.pardir, os.pardir,
                           "BENCHMARK.json")) as fp:
        seconds = json.load(fp)["run_seconds"]
    laps = max(workloads.MIN_LAPS,
               round(seconds * workloads.PACING["ingest_seg"][0]))
    plan = plans.build("ingest_seg", 5)
    engine = workloads.IngestSeg(plan, plans.make_table(plan.records),
                                 lambda _name, fn: fn())
    try:
        primed = None
        for lap, _position, inserts, deletes, _probe in (
                workloads.write_laps(plan, laps)):
            if lap == 1 and primed is None:
                primed = engine.seg.stats()
            engine.write(inserts, deletes)
            engine.housekeeping()
        stats = engine.seg.stats()
    finally:
        engine.close()
    assert stats["seals"] - primed["seals"] >= 5
    assert stats["compactions"] - primed["compactions"] >= 2
    assert _leftovers() == ([], [], [])
