"""The benchmark's own reference: a NumPy scan over the live rows.

Shares no code with the program.  It keeps the live rows in arrival
order, because a delete removes the *earliest* row whose labels match
(the measure in a delete record is ignored, as in the program), and
answers the three CUBE query families for ``sum`` by masking rows.
"""

import itertools

import numpy as np


class Oracle:
    def __init__(self, records, n_dims: int):
        self.n_dims = n_dims
        self._codes = [dict() for _ in range(n_dims)]
        self._labels = [[] for _ in range(n_dims)]
        self.rows = np.empty((0, n_dims), dtype=np.int64)
        self.measures = np.empty(0, dtype=np.float64)
        self.insert(records)

    def __len__(self) -> int:
        return len(self.measures)

    def _encode(self, dim: int, label, mint: bool = False):
        codes = self._codes[dim]
        if label not in codes:
            if not mint:
                return None
            codes[label] = len(codes)
            self._labels[dim].append(label)
        return codes[label]

    def insert(self, records) -> None:
        if not records:
            return
        rows = [
            [self._encode(d, r[d], mint=True) for d in range(self.n_dims)]
            for r in records
        ]
        self.rows = np.concatenate(
            [self.rows, np.asarray(rows, dtype=np.int64)]
        )
        self.measures = np.concatenate(
            [self.measures, [float(r[self.n_dims]) for r in records]]
        )

    def delete(self, records) -> None:
        for record in records:
            hits = np.flatnonzero(self._mask(record[:self.n_dims]))
            if not len(hits):
                raise KeyError(f"no live row matches {record!r}")
            self.rows = np.delete(self.rows, hits[0], axis=0)
            self.measures = np.delete(self.measures, hits[0])

    def _mask(self, cell):
        mask = np.ones(len(self.measures), dtype=bool)
        for dim, label in enumerate(cell):
            if label == "*":
                continue
            code = self._encode(dim, label)
            if code is None:
                return np.zeros(len(self.measures), dtype=bool)
            mask &= self.rows[:, dim] == code
        return mask

    def point(self, cell):
        """``sum`` over the rows ``cell`` covers, None when it covers none."""
        mask = self._mask(cell)
        return float(self.measures[mask].sum()) if mask.any() else None

    def range(self, spec) -> dict:
        """``{cell: sum}`` for every point of the range with a cover."""
        choices = [
            list(entry) if isinstance(entry, (list, tuple)) else [entry]
            for entry in spec
        ]
        out = {}
        for cell in itertools.product(*choices):
            value = self.point(cell)
            if value is not None:
                out[cell] = value
        return out

    def closure(self, cell):
        """The class upper bound of ``cell``: every dimension on which all
        covered rows agree takes that value.  None for an empty cover."""
        covered = self.rows[self._mask(cell)]
        if not len(covered):
            return None
        return tuple(
            self._labels[d][covered[0, d]]
            if (covered[:, d] == covered[0, d]).all() else "*"
            for d in range(self.n_dims)
        )


def check_iceberg(oracle, answer, threshold, sample_cells, close,
                  limit: int = 200) -> tuple:
    """``(checked, [what was wrong])`` for a pure iceberg answer (``>=``).

    Soundness on up to ``limit`` returned classes (each is a class upper
    bound, carries the oracle's value, and clears the threshold) and
    completeness on the sampled cells (a sampled cell whose value clears
    the threshold has its class in the answer).
    """
    by_bound = {tuple(bound): value for bound, value in answer}
    checked, wrong = 0, []
    if len(by_bound) != len(answer):
        wrong.append("a class is listed twice")
    step = max(1, len(answer) // limit)
    for bound, value in list(by_bound.items())[::step]:
        checked += 1
        if (oracle.closure(bound) != bound
                or not close(oracle.point(bound), value)
                or value < threshold):
            wrong.append(f"unsound {bound}={value}, oracle "
                         f"{oracle.closure(bound)}={oracle.point(bound)}")
    for cell in sample_cells[:limit]:
        checked += 1
        value = oracle.point(cell)
        if value is not None and value >= threshold:
            if not close(by_bound.get(oracle.closure(cell)), value):
                wrong.append(f"missing {oracle.closure(cell)}={value}")
    return checked, wrong
