"""Synthetic Zipf-distributed datasets (§5.1).

The paper's synthetic experiments use Zipf-distributed data with factor 2:
within each dimension, value ranks follow ``P(rank r) ∝ r^(-zipf)``.  The
generator is seeded and fully deterministic; dimension values are emitted
pre-encoded (dense ints), with value 0 the most frequent.
"""

from __future__ import annotations

import numpy as np

from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import SchemaError


def zipf_probabilities(cardinality: int, zipf: float) -> np.ndarray:
    """Normalized Zipf probabilities over ``cardinality`` ranks."""
    if cardinality < 1:
        raise SchemaError(f"cardinality must be >= 1, got {cardinality}")
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks ** (-float(zipf))
    return weights / weights.sum()


def zipf_table(
    n_rows: int,
    n_dims: int,
    cardinality,
    zipf: float = 2.0,
    seed: int = 0,
    n_measures: int = 1,
    measure_high: float = 100.0,
) -> BaseTable:
    """Generate a Zipf-distributed base table.

    ``cardinality`` is an int (shared by every dimension) or a sequence of
    per-dimension domain sizes.  Measures are uniform in
    ``[0, measure_high)``.  The same arguments always produce the same
    table.
    """
    if n_rows < 0:
        raise SchemaError(f"n_rows must be >= 0, got {n_rows}")
    cards = (
        list(cardinality)
        if isinstance(cardinality, (list, tuple))
        else [int(cardinality)] * n_dims
    )
    if len(cards) != n_dims:
        raise SchemaError(
            f"{len(cards)} cardinalities given for {n_dims} dimensions"
        )
    rng = np.random.default_rng(seed)
    codes = np.array([
        rng.choice(card, size=n_rows, p=zipf_probabilities(card, zipf))
        for card in cards
    ]).T
    measures = rng.uniform(0.0, measure_high, size=(n_rows, n_measures))
    schema = Schema(
        dimensions=[f"D{j}" for j in range(n_dims)],
        measures=[f"M{k}" for k in range(n_measures)],
    )
    return BaseTable.from_encoded(codes, measures, schema, cardinalities=cards)
