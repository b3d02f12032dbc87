"""Shared fixtures and helpers for the QC-tree reproduction test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import random
import zlib
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import settings

from repro.core import frozen
from repro.core.cells import ALL
from repro.core.qctree import QCTree
from repro.core.warehouse import QCWarehouse
from repro.cube.aggregates import Sum
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.serving.scatter import PieceView
from repro.serving.snapshot import ServingSnapshot

# Hypothesis profiles: "ci" is fully seeded (derandomized) so every CI
# run across every Python version explores the same example corpus —
# a red oracle on one matrix leg reproduces on all of them and locally
# via HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", derandomize=True, max_examples=60,
                          deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def sales_schema():
    """The paper's running example schema (Figure 1)."""
    return Schema(dimensions=("Store", "Product", "Season"), measures=("Sale",))


@pytest.fixture
def sales_table(sales_schema):
    """The paper's base table (Figure 1)."""
    return BaseTable.from_records(
        [
            ("S1", "P1", "s", 6.0),
            ("S1", "P2", "s", 12.0),
            ("S2", "P1", "f", 9.0),
        ],
        sales_schema,
    )


@pytest.fixture
def extended_sales_table(sales_schema):
    """The five-tuple table of the paper's deletion example (Example 4)."""
    return BaseTable.from_records(
        [
            ("S1", "P1", "s", 6.0),
            ("S1", "P2", "s", 12.0),
            ("S2", "P1", "f", 9.0),
            ("S2", "P2", "f", 4.0),
            ("S2", "P3", "f", 1.0),
        ],
        sales_schema,
    )


def write_csv(table, path) -> str:
    """Write ``table`` as the CSV of decoded records under a header row —
    a ``build`` input, and the table file a checkpoint held before the
    piece file — and return its CRC32 as 8 hex digits."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(table.schema.dimension_names + table.schema.measure_names)
    writer.writerows(table.iter_records())
    data = text.getvalue().encode("utf-8")
    with open(path, "wb") as fp:
        fp.write(data)
    return f"{zlib.crc32(data):08x}"


def dict_view(warehouse):
    """The reference frozen parity is checked against: a snapshot
    straight over the warehouse's mutable dict tree, as it is now."""
    return ServingSnapshot([PieceView(warehouse.tree, warehouse.table)],
                           warehouse.aggregate)


@pytest.fixture
def thaws(monkeypatch):
    """The frozen trees :meth:`QCTree.from_frozen` thaws while the test
    runs, in order."""
    seen = []
    thaw = QCTree.from_frozen.__func__
    monkeypatch.setattr(QCTree, "from_frozen", classmethod(
        lambda cls, frozen: seen.append(frozen) or thaw(cls, frozen)))
    return seen


#: The sections of a tree's canonical form (``repro.shard.pack.
#: Signature``) that hold its drill-down links.
LINKS = ("link_start", "link_key", "link_target")


def plus(x: float):
    """A ``bump`` for :func:`corrupt_served_state`: a SUM state with
    ``x`` more in it."""
    m, d = x.as_integer_ratio()
    return lambda state: Sum(0).merge(state, (1 - d.bit_length(), m))


def corrupt_served_state(piece, bump):
    """Make a piece that holds no dict tree serve one class state passed
    through ``bump``, as a view compiled from a damaged tree would."""
    tree = QCTree.from_frozen(piece.frozen_view())
    node = next(tree.iter_class_nodes())
    tree.set_state(node, bump(tree.state[node]))
    piece._frozen = tree.freeze()


@contextmanager
def refreeze_ratios(full=None, compact=None):
    """Force ``FrozenQCTree.patch``'s mode for the block: the two
    thresholds are module constants of ``repro.core.frozen`` (0 always
    recompiles / repacks, a large value never does).  A context manager,
    not ``monkeypatch``, so hypothesis-driven tests can use it per
    example."""
    saved = frozen.FULL_REFREEZE_RATIO, frozen.COMPACT_RATIO
    if full is not None:
        frozen.FULL_REFREEZE_RATIO = full
    if compact is not None:
        frozen.COMPACT_RATIO = compact
    try:
        yield
    finally:
        frozen.FULL_REFREEZE_RATIO, frozen.COMPACT_RATIO = saved


#: ``QCWarehouse.REBUILD_RATIO`` of each head path: 0 rebuilds every
#: head batch from the post-batch table, ``inf`` maintains every one
#: (Algorithms 5–7).
PATHS = {"maintained": math.inf, "rebuilt": 0.0}


@contextmanager
def rebuild_ratio(ratio):
    """Pin the head's crossover rule, ``QCWarehouse.REBUILD_RATIO`` (a
    class attribute every store inherits), for the block.  A context
    manager, not ``monkeypatch``, so the state machine can set it per
    write."""
    saved = QCWarehouse.REBUILD_RATIO
    QCWarehouse.REBUILD_RATIO = ratio
    try:
        yield
    finally:
        QCWarehouse.REBUILD_RATIO = saved


@pytest.fixture
def maintained():
    """Every head batch is maintained while the test runs: for tests of
    what Algorithms 5–7 leave on a head (its dict tree, cover index and
    pending delta), whose stores are small enough that the rule would
    rebuild them."""
    with rebuild_ratio(PATHS["maintained"]):
        yield


@pytest.fixture(params=sorted(PATHS))
def head_path(request):
    """The test once per head path: ``maintained`` and ``rebuilt``."""
    with rebuild_ratio(PATHS[request.param]):
        yield request.param


def patch_with(frozen_tree, delta, full=None, compact=None):
    """``frozen_tree.patch(delta)`` under :func:`refreeze_ratios`."""
    with refreeze_ratios(full=full, compact=compact):
        return frozen_tree.patch(delta)


def make_random_table(seed, n_dims=None, cardinality=None, n_rows=None):
    """A small random encoded table for oracle-based comparisons."""
    rng = random.Random(seed)
    n_dims = n_dims if n_dims is not None else rng.randint(1, 4)
    cardinality = cardinality if cardinality is not None else rng.randint(1, 4)
    n_rows = n_rows if n_rows is not None else rng.randint(1, 12)
    schema = Schema(
        dimensions=[f"D{j}" for j in range(n_dims)], measures=("m",)
    )
    rows = [
        tuple(rng.randrange(cardinality) for _ in range(n_dims))
        for _ in range(n_rows)
    ]
    measures = [[float(rng.randint(0, 20))] for _ in range(n_rows)]
    return BaseTable.from_encoded(
        rows, measures, schema, cardinalities=[cardinality] * n_dims
    )


def all_cells(table):
    """Every cell of the cube lattice over the table's domains (small only)."""
    domains = [
        [ALL] + list(range(table.cardinality(j))) for j in range(table.n_dims)
    ]
    return product(*domains)

