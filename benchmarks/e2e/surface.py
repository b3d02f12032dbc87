"""The only module of the benchmark that imports ``repro``.

Everything the harness needs from the program is re-exported here, by
its public name, so a later refactor can read this file to know exactly
which names the frozen benchmark depends on (the same list is in
README.md).  The checkout's own ``src/`` is put first on ``sys.path``:
the benchmark measures the source it sits next to, never an installed
copy, and fails with ``ImportError`` where there is no source.
"""

import os
import sys

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import (  # noqa: E402
    BaseTable,
    QCWarehouse,
    Schema,
    locate,
    point_query_raw,
    range_query_raw,
)
from repro.cube.aggregates import values_close  # noqa: E402
from repro.data.synthetic import zipf_table  # noqa: E402
from repro.data.workloads import (  # noqa: E402
    point_query_workload,
    range_query_workload,
)
from repro.segments import SegmentedWarehouse  # noqa: E402
from repro.serving import (  # noqa: E402
    ArrivalSchedule,
    AsyncServerThread,
    LineClient,
    QCServer,
    parse_line,
    run_open_loop_tcp,
)
from repro.serving.protocol import format_response  # noqa: E402
from repro.shard import (  # noqa: E402
    ShardServer,
    attach_packed,
    pack_snapshot_bytes,
)

__all__ = [
    "ArrivalSchedule", "AsyncServerThread", "BaseTable", "LineClient",
    "QCServer", "QCWarehouse", "Schema", "SegmentedWarehouse",
    "ShardServer", "attach_packed", "format_response", "locate",
    "pack_snapshot_bytes", "parse_line", "point_query_raw",
    "point_query_workload", "range_query_raw", "range_query_workload",
    "run_open_loop_tcp", "values_close", "zipf_table",
]


def lookup(mapping, *keys, default=None):
    """Tolerant nested lookup into a ``stats()`` dict: a missing key at
    any depth gives ``default`` instead of failing the run."""
    for key in keys:
        if not isinstance(mapping, dict) or key not in mapping:
            return default
        mapping = mapping[key]
    return mapping
