"""``--calibrate N``: how far N sets of runs of the same code spread.

A *set* is one run of every workload.  Set ``i`` uses seed ``seed + i``,
and the spread of a metric is the distance between the first and third
quartile of its N values over their median — exactly what the driver
computes when it decides whether the benchmark is steady.  Every gated
(metric, workload) pair is listed; one whose spread exceeds half its
bound is a failure, ``setup_s`` included, printed with the unit times
it was read from, and the exit code is non-zero.

The table goes into README.md, and ``door_rate_rps`` — the open-loop
rate of the traced ``door_tcp`` run — is frozen in ``calibration.json``.
``canary_ref_ms`` is NOT rewritten: every gated timing is proportional
to it, so re-freezing it would move every baseline.  The quiet canary
these sets measured is printed beside the frozen one instead.
"""

import json
import os
import statistics

import plans
import run as runner

#: Gated metric -> the repetitions it is the median of (for the
#: histogram of a failing pair).
UNIT_TIMES = {
    "read_qps": lambda u: u["bulk_wall_ns"] or u["read_wall_ns"],
    "read_p50_us": lambda u: u["read_p50_ns"],
    "write_visible_p50_ms": lambda u: [
        ns for laps in u["visible_ns"].values() for ns in laps],
    "write_rows_per_s": lambda u: u["lap_ns"],
    "setup_s": lambda u: [
        sum(scaled for _raw, scaled in stages.values())
        for stages in u["setup_stages_ns"]],
}
BEGIN = "<!-- calibration:begin -->"
END = "<!-- calibration:end -->"


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def histogram(ns, bins: int = 10) -> str:
    lo, hi = min(ns), max(ns)
    width = (hi - lo) / bins or 1
    counts = [0] * bins
    for value in ns:
        counts[min(bins - 1, int((value - lo) / width))] += 1
    return (f"{lo / 1e6:.2f}..{hi / 1e6:.2f} ms in {bins} bins: "
            + " ".join(map(str, counts)))


def run(n_sets: int, seed: int, seconds: float) -> int:
    if n_sets < 6:
        raise SystemExit("--calibrate needs at least 6 sets")
    with open(runner.BENCHMARK_JSON) as fp:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(fp)["end_to_end"]}
    with open(runner.CALIBRATION) as fp:
        calibration = json.load(fp)
    saved = {w: [] for w in plans.WORKLOADS}
    for i in range(n_sets):
        for workload in plans.WORKLOADS:  # sets alternate the workloads
            runner.run_child(workload, seed + i, seconds, trace=False)
            path = os.path.join(
                runner.OUT, f"{workload}-seed{seed + i}-trace0.json")
            with open(path) as fp:
                saved[workload].append(json.load(fp))
            print(f"set {i + 1}/{n_sets}: {workload} done", flush=True)

    rows, failures = [], []
    for workload, runs in saved.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric][0] for r in runs]
            value = spread(values)
            ok = value <= bound / 2
            rows.append((metric, workload, statistics.median(values), value,
                         bound, ok))
            if not ok:
                units = UNIT_TIMES.get(metric)
                failures.append((metric, workload, histogram(
                    units(runs[0]["units"])) if units else "not a timing"))

    door_qps = statistics.median(
        r["metrics"]["read_qps"][0] for r in saved["door_tcp"])
    # A quarter of the closed-loop rate, rounded down to 500: the
    # open-loop generator shares the interpreter with the server.
    calibration["door_rate_rps"] = max(500, int(door_qps / 4 // 500) * 500)
    with open(runner.CALIBRATION, "w") as fp:
        json.dump(calibration, fp, indent=2, sort_keys=True)
        fp.write("\n")
    quiet_canary_ms = statistics.median(
        r["detail"]["canary_quiet_ms"]
        for runs in saved.values() for r in runs)

    lines = [
        f"{n_sets} sets, seeds {seed}..{seed + n_sets - 1}, "
        f"`--seconds {seconds:g}`; spread = (Q3 - Q1) / median over the sets.",
        "",
        "| metric | workload | median | spread | bound | within bound/2 |",
        "|---|---|---|---|---|---|",
    ]
    for metric, workload, median, value, bound, ok in rows:
        lines.append(
            f"| `{metric}` | `{workload}` | {median:.6g} | {value:.4f} | "
            f"{bound:g} | {'yes' if ok else '**NO**'} |")
    lines += ["", f"`door_rate_rps` frozen at "
              f"{calibration['door_rate_rps']} (closed loop "
              f"{door_qps:.0f} 1/s).  Quiet canary of these sets "
              f"{quiet_canary_ms:.2f} ms of CPU time; `canary_ref_ms` "
              f"stays frozen at {calibration['canary_ref_ms']}."]
    for metric, workload, note in failures:
        lines.append(f"- FAILED `{metric}` on `{workload}`: {note}")
    table = "\n".join(lines)
    print(table)
    readme = os.path.join(runner.HERE, "README.md")
    if os.path.exists(readme):
        with open(readme) as fp:
            text = fp.read()
        if BEGIN in text and END in text:
            head, rest = text.split(BEGIN, 1)
            text = head + BEGIN + "\n" + table + "\n" + END + rest.split(
                END, 1)[1]
            with open(readme, "w") as fp:
                fp.write(text)
    return 1 if failures else 0
