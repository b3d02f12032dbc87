"""Seeded inputs: the one table and each workload's fixed request plan.

Every workload runs on the same table — ``zipf_table(20000, 6, 30,
zipf=2.0, seed)``, the repo's Figure-14 scale — so a difference between
workloads is the path a request takes, not the data.  The codes are
re-labelled as strings (``"v7"``) because the TCP line protocol carries
labels as text; all four workloads use the labelled table.

A plan is a pure function of ``(workload, seed)``: the program only ever
sees generated inputs, and the same seed gives byte-identical plans
(``Plan.digest``).
"""

import hashlib
import json
import random
from dataclasses import dataclass

import surface

WORKLOADS = ("olap_inproc", "door_tcp", "shard_bulk", "ingest_seg")

N_ROWS, N_DIMS, CARDINALITY, ZIPF = 20000, 6, 30, 2.0
SCHEMA_DIMS = tuple(f"D{j}" for j in range(N_DIMS))
AGGREGATE = ("sum", "M0")
BATCH_ROWS = 32

#: ingest_seg: rows the head holds before it seals.  The issue asked for
#: 1024; a lap of 32 batches then costs ~4.8 s, and five laps do not fit
#: the 14 s a run may measure.  256 keeps the same shape (a head much
#: smaller than the cube, one seal per lap) at ~0.9 s a lap.
SEAL_ROWS = 256
INGEST_BATCHES = SEAL_ROWS // BATCH_ROWS
INGEST_MIXED_AT = 3  # the batch of a lap that also deletes
INGEST_DELETES = 8


@dataclass
class Plan:
    workload: str
    seed: int
    records: list  # base rows: six labels then the measure
    unit: list  # the read unit, [("point", cell) | ("range", spec)]
    bulk: list  # shard_bulk: cells of one map_query unit
    ranges: list  # range specs for the answer check and the ladder
    batches: list  # write batches, each a list of records
    deletes: list  # ingest_seg: rows the mixed batch deletes
    probes: list  # per batch, the cell read to see the write
    iceberg_threshold: float
    spare: list  # a 32-row batch no workload writes (the WAL loop's)

    @property
    def points(self):
        return [arg for family, arg in self.unit if family == "point"]

    @property
    def unit_ranges(self):
        """The unit's own range specs (the check specs when it has none)."""
        own = [arg for family, arg in self.unit if family == "range"]
        return own or self.ranges

    def digest(self) -> str:
        payload = json.dumps(
            [self.workload, self.seed, self.records, self.unit, self.bulk,
             self.ranges, self.batches, self.deletes, self.probes,
             self.iceberg_threshold, self.spare],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def schema():
    return surface.Schema(dimensions=SCHEMA_DIMS, measures=("M0",))


def _records(n_rows: int, seed: int) -> list:
    table = surface.zipf_table(n_rows, N_DIMS, CARDINALITY, zipf=ZIPF,
                               seed=seed)
    return [
        tuple(f"v{code}" for code in row) + (float(measure[0]),)
        for row, measure in zip(table.rows, table.measures)
    ]


def make_table(records):
    """The labelled base table (its generation is outside ``setup_s``)."""
    return surface.BaseTable.from_records(records, schema())


def _point_cells(table, n: int, seed: int) -> list:
    return [
        table.decode_cell(cell)
        for cell in surface.point_query_workload(table, n, seed=seed)
    ]


def _range_specs(table, n: int, seed: int) -> list:
    specs = []
    for spec in surface.range_query_workload(table, n, seed=seed):
        raw = []
        for dim, entry in enumerate(spec):
            if isinstance(entry, (list, tuple)):
                raw.append([table.decode_value(dim, code) for code in entry])
            elif isinstance(entry, int):
                raw.append(table.decode_value(dim, entry))
            else:
                raw.append("*")
        specs.append(tuple(raw))
    return specs


def _probe(record) -> tuple:
    """A cell that covers ``record``: its first three labels, then ``*``."""
    return tuple(record[:3]) + ("*",) * (N_DIMS - 3)


def build(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    records = _records(N_ROWS, seed)
    table = make_table(records)
    rng = random.Random(f"{workload}:{seed}")
    # Rows to write: one per distinct label tuple.  The program orders
    # same-label rows of one maintenance batch by their measure, so after
    # a compaction "the earliest matching row" of a delete can differ
    # from arrival order (README.md, "What the oracle found"); with
    # distinct tuples every delete has exactly one possible target among
    # the written rows.
    first = {}
    for record in _records(60 * BATCH_ROWS, seed + 7919):
        first.setdefault(record[:N_DIMS], record)
    fresh = list(first.values())
    ranges = _range_specs(table, 300, seed + 2)
    bulk, deletes = [], []

    if workload == "olap_inproc":
        # 90% point / 10% range; 2700 *distinct* cells replayed through a
        # 1024-entry LRU cache never hit it: this workload is the miss
        # path, door_tcp's hot set is the hit path.
        cells = list(dict.fromkeys(_point_cells(table, 9000, seed + 1)))
        cells = cells[:2700]
        unit, spec = [], iter(ranges)
        for i, cell in enumerate(cells):
            if i % 9 == 0:
                unit.append(("range", next(spec)))
            unit.append(("point", cell))
        batches = [fresh[:BATCH_ROWS]]
    elif workload == "door_tcp":
        # A 256-key hot set: it fits the server's 4096-entry cache.
        hot = []
        for cell in _point_cells(table, 4000, seed + 1):
            if cell not in hot:
                hot.append(cell)
            if len(hot) == 256:
                break
        unit = [("point", rng.choice(hot)) for _ in range(300)]
        batches = [fresh[:1]]
    elif workload == "shard_bulk":
        bulk = _point_cells(table, 4000, seed + 1)
        unit = [("point", cell) for cell in bulk[:400]]
        batches = [fresh[:BATCH_ROWS]]
    else:  # ingest_seg
        # 2000 draws, ~1400 distinct: larger than the 1024-entry cache.
        unit = [("point", c) for c in _point_cells(table, 2000, seed + 1)]
        # The mixed batch deletes rows the previous lap sealed.  Deletes
        # match the earliest row with the same labels, so the targets
        # must not occur in the base table, or the 20000-row base
        # segment would be rewritten instead of the small one.
        base = {record[:N_DIMS] for record in records}
        novel, rest = [], []
        for record in fresh:
            dims = record[:N_DIMS]
            if dims not in base and len(novel) < INGEST_DELETES:
                novel.append(record)
            else:
                rest.append(record)
        if len(novel) < INGEST_DELETES:
            raise ValueError("seed gives too few rows absent from the table")
        rows = novel + rest[:INGEST_BATCHES * BATCH_ROWS - len(novel)]
        batches = [
            rows[i:i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)
        ]
        deletes = novel

    total = sum(record[-1] for record in records)
    return Plan(
        workload=workload, seed=seed, records=records, unit=unit,
        bulk=bulk, ranges=ranges[-30:], batches=batches, deletes=deletes,
        probes=[_probe(batch[0]) for batch in batches],
        # ~0.2% of the grand total: a few thousand classes clear it.
        iceberg_threshold=round(total * 0.002, 3),
        spare=fresh[-BATCH_ROWS:],
    )
