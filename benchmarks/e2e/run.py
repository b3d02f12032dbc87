"""One command: measure a workload, check its answers, print every metric.

    python3 benchmarks/e2e/run.py --workload olap_inproc --seed 1 \\
        --seconds 12 --trace 0

prints the workload's metrics by name with their units and, as the last
line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` every
workload runs in its own fresh subprocess.  ``--calibrate N`` runs N
sets and prints how far they spread (see README.md).

The exit code is non-zero when any operation failed or any answer
disagreed with the oracle.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CALIBRATION = os.path.join(HERE, "calibration.json")
BENCHMARK_JSON = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")


def _interrupted(signum, _frame):
    """SIGTERM unwinds like an exception, so engines close, shared memory
    is unlinked and child processes are waited for on that path too."""
    raise SystemExit(128 + signum)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.perf_counter()
    signal.signal(signal.SIGTERM, _interrupted)
    import ladder
    import measure
    import plans
    import workloads

    # One CPU for the driver thread and everything the program starts
    # (README.md, "Noise"): with one driver and depth 1 nothing runs in
    # parallel anyway, and while the host is busy a wake-up that crosses
    # virtual CPUs costs ~3x more, which no reference kernel tracks.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(CALIBRATION) as fp:
        calibration = json.load(fp)
    plan = plans.build(workload, seed)
    plan_s = time.perf_counter() - t0
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    scratch = os.path.join(OUT, f"scratch-{tag}-{os.getpid()}")

    with open(BENCHMARK_JSON) as fp:
        contract = json.load(fp)["per_layer" if trace else "end_to_end"]
    promised = {(m["name"], m["unit"]) for m in contract}

    if trace:
        recorder = measure.Recorder()
        # The workload itself, short and with tracing on; before it
        # closes its engine, the layers on its path are timed from
        # outside on that engine (``ladder.Ladder.inspect``).
        walk = ladder.Ladder(plan, seconds, calibration, recorder, scratch)
        result = workloads.run(plan, seconds / 4, calibration, scratch,
                               setups=2, laps=1, recorder=recorder,
                               inspect=walk.inspect)
        walk.put("bench.plan_s", plan_s, "s")
        metrics = walk.finish(result, promised)
        recorder.write(os.path.join(OUT, f"trace-{workload}.jsonl"))
        attempted = result["attempted"] + walk.attempted
        failed = result["failed"] + walk.failed
    else:
        result = workloads.run(plan, seconds, calibration, scratch)
        metrics = result["metrics"]
        attempted, failed = result["attempted"], result["failed"]

    measured = {(name, unit) for name, (_value, unit) in metrics.items()}
    if promised != measured:
        raise SystemExit(
            f"BENCHMARK.json promises {sorted(promised - measured)} and "
            f"does not know {sorted(measured - promised)}")
    metrics = {m["name"]: metrics[m["name"]] for m in contract}
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    if trace:
        print("  not on this workload's path (read 0):",
              ", ".join(walk.off_path))
    else:
        for name, value in result["detail"].items():
            print(f"  {name:30s} {value}")
    for note in result["failures"]:
        print("FAILED", note)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fp:
        json.dump({
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "plan_digest": plan.digest(),
            "plan_s": plan_s, "calibration": calibration,
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": result["detail"], "units": result["units"],
            "unit_ops": result["unit_ops"],
        }, fp)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def _children() -> list:
    """Live and zombie processes whose parent is this process."""
    me, found = str(os.getpid()), []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as fp:
                    fields = fp.read().rpartition(") ")[2].split()
            except OSError:
                continue  # ended between the listing and the read
            if fields[1] == me:
                found.append(int(name))
    return found


def _reap(grace: float) -> None:
    """Wait until every descendant has ended; kill what has not ended by
    itself after ``grace`` seconds.  This process is the sub-reaper, so
    a process orphaned below it becomes its child and can be waited for."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, alive or zombie
        if pid == 0:
            if time.monotonic() > deadline:
                for straggler in _children():
                    os.kill(straggler, signal.SIGKILL)
            time.sleep(0.01)


def supervise(workload, seed, seconds, trace) -> int:
    """One workload in its own fresh interpreter (string hashing pinned),
    with nothing left behind on any path out: the exit code is returned
    only when the interpreter and everything started under it — forked
    shard workers, and the ``multiprocessing`` resource tracker that
    creating a shared-memory segment starts and that outlives its parent
    by design — have ended and been waited for."""
    PR_SET_CHILD_SUBREAPER = 36
    if ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise SystemExit("cannot become the sub-reaper of the workload's "
                         f"processes (errno {ctypes.get_errno()})")

    signal.signal(signal.SIGTERM, _interrupted)
    child = None
    try:
        # String hashes order the program's sets; pin them so that one
        # seed gives one execution, down to the exact call counts.
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--supervised"],
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        return child.wait()
    finally:
        if child is not None and child.poll() is None:
            child.terminate()  # it closes its engine and unlinks shm
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        _reap(grace=10.0)


def run_child(workload, seed, seconds, trace) -> dict:
    """One workload in a fresh interpreter; its last stdout line."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def run_all(seed, seconds, trace) -> int:
    import plans

    for workload in plans.WORKLOADS:
        result = run_child(workload, seed, seconds, trace)
        print(f"== {workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, entry in result["metrics"].items():
            print(f"{name:32s} {entry['value']:16.6g} {entry['unit']}")
    return 0


def main() -> int:
    with open(BENCHMARK_JSON) as fp:
        default_seconds = json.load(fp)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", type=int, metavar="N")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    if args.calibrate is not None:
        import calibrate

        return calibrate.run(args.calibrate, args.seed, args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not args.supervised:
        return supervise(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
