"""``repro.shard`` — multi-process serving over shared-memory snapshots.

The GIL caps the thread-based :class:`~repro.serving.server.QCServer`
at one core for pure-CPU traffic.  This package breaks that cap:

* :mod:`~repro.shard.pack` — the ``QCTREE/3`` codec: a byte-layout-
  stable packing of a frozen serving snapshot (tree CSR arrays,
  aggregate state vectors, base table) into typed little-endian
  buffers, attachable zero-copy from shared memory (or any buffer)
  and traversed in place as a
  :class:`~repro.core.frozen.FrozenQCTree`, the sections every frozen
  tree is made of;
* :mod:`~repro.shard.segment` — ``/dev/shm`` segment lifecycle with
  strict hygiene (no leaked ``qctree-*`` segments after close, crash,
  or SIGTERM);
* :mod:`~repro.shard.worker` — the forked worker-process loop;
* :mod:`~repro.shard.server` — :class:`~repro.shard.server.ShardServer`
  (a :class:`~repro.serving.server.QCServer` whose reads run in N
  worker processes over one shared packed snapshot).

See DESIGN §10 for the layout, lifecycle, and failure-mode table.
"""

from repro.shard.pack import (
    AttachedSnapshot,
    Signature,
    attach_packed,
    canonical_bytes,
    pack_snapshot_bytes,
)
from repro.shard.segment import (
    active_segments,
    cleanup_created_segments,
    created_segments,
    install_signal_cleanup,
)
from repro.shard.server import ShardServer

__all__ = [
    "AttachedSnapshot",
    "ShardServer",
    "Signature",
    "active_segments",
    "attach_packed",
    "canonical_bytes",
    "cleanup_created_segments",
    "created_segments",
    "install_signal_cleanup",
    "pack_snapshot_bytes",
]
