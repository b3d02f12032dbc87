"""Query-workload generators for the experiments (§5.3).

The paper's query experiments run 1,000 random point queries and 100
random range queries per configuration.  These generators reproduce those
workloads deterministically:

* point queries are derived from sampled base rows (so most hit the cube)
  with dimensions generalized to ``*`` at a configurable rate and a slice
  of misses mixed in;
* range queries pick 1–3 *range dimensions* carrying a set of candidate
  values — either a fixed count (the synthetic setup: 3 values each) or
  the dimension's full domain (the weather setup).
"""

from __future__ import annotations

import random

from repro.core.cells import ALL
from repro.cube.table import BaseTable
from repro.errors import QueryError


def point_query_workload(
    table: BaseTable,
    n_queries: int = 1000,
    seed: int = 0,
    star_probability: float = 0.4,
    miss_probability: float = 0.1,
) -> list:
    """Random point-query cells (encoded) over ``table``'s cube.

    Each query starts from a random base row, stars each dimension with
    ``star_probability``, and — with ``miss_probability`` — perturbs one
    dimension to a random domain value, which usually produces an
    empty-cover query (exercising the NULL path).
    """
    if table.n_rows == 0:
        raise QueryError("cannot derive a workload from an empty table")
    rng = random.Random(seed)
    cards = table.cardinalities()
    queries = []
    for _ in range(n_queries):
        row = table.codes[rng.randrange(table.n_rows)].tolist()
        cell = [
            ALL if rng.random() < star_probability else v for v in row
        ]
        if rng.random() < miss_probability:
            dim = rng.randrange(table.n_dims)
            cell[dim] = rng.randrange(cards[dim])
        queries.append(tuple(cell))
    return queries


def range_query_workload(
    table: BaseTable,
    n_queries: int = 100,
    seed: int = 0,
    min_range_dims: int = 1,
    max_range_dims: int = 3,
    values_per_range=3,
    star_probability: float = 0.4,
) -> list:
    """Random range-query specs (encoded) over ``table``'s cube.

    Each query picks 1–3 range dimensions; each carries
    ``values_per_range`` random candidate values — pass the string
    ``"full"`` to use the dimension's whole domain, as the paper does on
    the weather dataset.  Non-range dimensions take the anchor row's value
    or ``*``.
    """
    if table.n_rows == 0:
        raise QueryError("cannot derive a workload from an empty table")
    if not 1 <= min_range_dims <= max_range_dims <= table.n_dims:
        raise QueryError(
            f"invalid range-dimension bounds {min_range_dims}..{max_range_dims} "
            f"for {table.n_dims} dimensions"
        )
    rng = random.Random(seed)
    cards = table.cardinalities()
    queries = []
    for _ in range(n_queries):
        row = table.codes[rng.randrange(table.n_rows)].tolist()
        k = rng.randint(min_range_dims, max_range_dims)
        range_dims = set(rng.sample(range(table.n_dims), k))
        spec = []
        for j in range(table.n_dims):
            if j in range_dims:
                if values_per_range == "full":
                    spec.append(list(range(cards[j])))
                else:
                    size = min(int(values_per_range), cards[j])
                    spec.append(sorted(rng.sample(range(cards[j]), size)))
            elif rng.random() < star_probability:
                spec.append(ALL)
            else:
                spec.append(row[j])
        queries.append(tuple(spec))
    return queries


def iceberg_thresholds(values, quantiles=(0.5, 0.9, 0.99)) -> list:
    """Thresholds at given quantiles of a value population.

    Helps benchmarks pick iceberg thresholds with known selectivity.
    """
    ordered = sorted(values)
    if not ordered:
        raise QueryError("cannot derive thresholds from no values")
    out = []
    for q in quantiles:
        idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        out.append(ordered[idx])
    return out
