"""Figure 12(d) — construction time vs base-table size.

Paper claim: all methods scale with the tuple count, and "QC-table and
QC-tree are consistently better than Dwarf" because the quotient cube is
much smaller than the full cube and the depth-first class computation is
efficient.  (In this pure-Python setting Dwarf's builder is also a single
recursion, so the gap narrows; the shape to check is linear-ish scaling
for every method and QC-tree construction staying in the same league.)
The QC-tree series times ``build_frozen``: Algorithm 1 to the frozen
columns, the tree every store is born with.
"""

from functools import lru_cache

import pytest

from common import print_series, synth, timed
from repro.core.construct import build_frozen
from repro.cube.quotient import QCTable
from repro.dwarf.build import build_dwarf

TUPLE_SWEEP = [1000, 2000, 4000, 8000, 16000]

BUILDERS = {
    "qctree": lambda table: build_frozen(table, "count"),
    "qc_table": lambda table: QCTable.from_table(table, "count"),
    "dwarf": lambda table: build_dwarf(table, "count"),
}


@pytest.mark.parametrize("n_rows", TUPLE_SWEEP)
@pytest.mark.parametrize("structure", sorted(BUILDERS))
def test_fig12d_construction(benchmark, structure, n_rows):
    """One timed build per (structure, size) — this *is* the figure."""
    table = synth(n_rows=n_rows)
    benchmark.pedantic(
        BUILDERS[structure], args=(table,), rounds=2, iterations=1
    )


@lru_cache(maxsize=None)
def _build_seconds(structure, n_rows):
    _, seconds = timed(BUILDERS[structure], synth(n_rows=n_rows))
    return seconds


def test_fig12d_report(benchmark):
    def make():
        series = {
            name: [_build_seconds(name, n) for n in TUPLE_SWEEP]
            for name in sorted(BUILDERS)
        }
        print_series(
            "Figure 12(d): construction time (s) vs #tuples",
            "n_tuples",
            TUPLE_SWEEP,
            series,
            result_file="fig12d.txt",
        )
        return series

    series = benchmark.pedantic(make, rounds=1, iterations=1)
    # Scalability shape: an 16x bigger table must not cost 100x the time.
    for name, values in series.items():
        assert values[-1] < values[0] * 100, name
