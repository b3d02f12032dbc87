"""Schema objects describing a base table: dimensions and measures.

Example
-------
The paper's running example (Figure 1)::

    schema = Schema(
        dimensions=("Store", "Product", "Season"),
        measures=("Sale",),
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError


@dataclass(frozen=True)
class Dimension:
    """A single group-by attribute of the cube."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("dimension name must be non-empty")


@dataclass(frozen=True)
class Measure:
    """A numeric attribute aggregated by the cube."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("measure name must be non-empty")


@dataclass(frozen=True)
class Schema:
    """Ordered dimensions plus measures of a base table.

    ``dimensions`` and ``measures`` accept plain strings for convenience and
    are normalized to :class:`Dimension` / :class:`Measure` instances.
    """

    dimensions: tuple = field(default=())
    measures: tuple = field(default=())
    #: Dimension names in schema order.
    dimension_names: tuple = field(init=False, repr=False, compare=False)
    #: Measure names in schema order.
    measure_names: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(
            d if isinstance(d, Dimension) else Dimension(str(d))
            for d in self.dimensions
        )
        meas = tuple(
            m if isinstance(m, Measure) else Measure(str(m))
            for m in self.measures
        )
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "measures", meas)
        # Derived once: aggregates read ``measure_names`` per state call.
        object.__setattr__(self, "dimension_names",
                           tuple(d.name for d in dims))
        object.__setattr__(self, "measure_names", tuple(m.name for m in meas))
        if not dims:
            raise SchemaError("a schema needs at least one dimension")
        names = [d.name for d in dims] + [m.name for m in meas]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    @property
    def n_measures(self) -> int:
        """Number of measures."""
        return len(self.measures)

    def dim_index(self, name: str) -> int:
        """Return the position of dimension ``name``.

        Raises :class:`SchemaError` if the dimension does not exist.
        """
        try:
            return self.dimension_names.index(name)
        except ValueError:
            raise SchemaError(
                f"unknown dimension {name!r}; have {self.dimension_names}"
            ) from None

    def measure_index(self, name: str) -> int:
        """Return the position of measure ``name``.

        Raises :class:`SchemaError` if the measure does not exist.
        """
        try:
            return self.measure_names.index(name)
        except ValueError:
            raise SchemaError(
                f"unknown measure {name!r}; have {self.measure_names}"
            ) from None

    def reordered(self, dim_order) -> "Schema":
        """Return a schema with dimensions permuted into ``dim_order``.

        ``dim_order`` is a sequence of dimension indices or names covering
        every dimension exactly once.  Measures are unchanged.
        """
        indices = [
            d if isinstance(d, int) else self.dim_index(d) for d in dim_order
        ]
        if sorted(indices) != list(range(self.n_dims)):
            raise SchemaError(
                f"dim_order {dim_order!r} is not a permutation of "
                f"{self.n_dims} dimensions"
            )
        return Schema(
            dimensions=tuple(self.dimensions[i] for i in indices),
            measures=self.measures,
        )

    def projected(self, dims) -> "Schema":
        """Return a schema keeping only the listed dimensions (in order)."""
        indices = [d if isinstance(d, int) else self.dim_index(d) for d in dims]
        if len(set(indices)) != len(indices) or not indices:
            raise SchemaError(f"invalid projection {dims!r}")
        return Schema(
            dimensions=tuple(self.dimensions[i] for i in indices),
            measures=self.measures,
        )
