"""Shared plumbing for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure from the paper's
§5.  Conventions:

* pytest-benchmark drives the timed kernels (``pytest benchmarks/
  --benchmark-only``); heavyweight builds run with ``pedantic`` (few
  rounds) so a full sweep stays minutes, not hours;
* each module also produces the figure's rows/series through
  :func:`print_series` / :func:`print_table`, which print them and, in a
  ``--benchmark-only`` sweep, write ``benchmarks/results/<figure>.txt``
  so the reproduced shapes survive output capturing and feed
  EXPERIMENTS.md (a run without that flag — a smoke — only prints, and
  leaves the committed tables as they are);
* datasets are scaled-down versions of the paper's (substitutions are
  documented in DESIGN.md §5) with fixed seeds, so runs are reproducible;
* ``main()`` in each module regenerates its figure standalone:
  ``python benchmarks/bench_fig12a_ratio_vs_tuples.py``.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

from repro.data.synthetic import zipf_table
from repro.data.weather import weather_table

#: Default synthetic configuration, mirroring the paper's Zipf-factor-2
#: setup at laptop scale.
SYNTH_DIMS = 5
SYNTH_CARD = 20
SYNTH_ROWS = 4000
ZIPF = 2.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: Whether :func:`print_table` writes under :data:`RESULTS_DIR`; set by
#: ``conftest.py`` for a ``--benchmark-only`` sweep.
WRITE_RESULTS = False


@lru_cache(maxsize=64)
def synth(n_rows=SYNTH_ROWS, n_dims=SYNTH_DIMS, card=SYNTH_CARD, seed=0):
    """Memoized synthetic table (sweeps reuse shared configurations)."""
    return zipf_table(n_rows, n_dims, card, zipf=ZIPF, seed=seed)


@lru_cache(maxsize=16)
def weather(n_rows=3000, n_dims=9, seed=0, scale=0.01):
    """Memoized weather-like table."""
    return weather_table(n_rows, scale=scale, seed=seed, n_dims=n_dims)


def timed(fn, *args, **kwargs):
    """Run ``fn`` once; return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def render_table(title, headers, rows) -> str:
    """Render an aligned text table (one per reproduced figure)."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(title, headers, rows, result_file=None):
    """Print a figure's table and, in a ``--benchmark-only`` sweep,
    persist it under benchmarks/results/."""
    text = render_table(title, headers, rows)
    print("\n" + text + "\n")
    if result_file is not None and WRITE_RESULTS:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, result_file), "w") as fp:
            fp.write(text + "\n")


def print_series(title, x_name, x_values, series, result_file=None):
    """Print one figure's line series: ``series = {label: [y, ...]}``."""
    headers = [x_name] + list(series)
    rows = [
        [x] + [series[label][i] for label in series]
        for i, x in enumerate(x_values)
    ]
    print_table(title, headers, rows, result_file=result_file)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
