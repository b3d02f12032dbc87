"""``SegmentedWarehouse`` — realtime ingest over immutable QC-tree segments.

The monolithic :class:`~repro.core.warehouse.QCWarehouse` maintains one
live tree, so a write batch's maintenance cost grows with cube size.
This warehouse bounds it by *head* size instead:

* writes land in a small mutable head (dict tree + table), maintained by
  the existing Algorithms 5–7 batched engine with its own persistent
  cover index;
* when the head crosses ``seal_rows``/``seal_batches`` it **seals**: the
  head *is* a :class:`~repro.core.piece.Piece`, so sealing is O(1) —
  give it a segment id, append it to the sealed list (tree, table,
  frozen view and pending refreeze delta ride along) and start a fresh
  empty head; the sealed piece finalizes its frozen view lazily, off the
  write path;
* queries **scatter-gather** across the sealed segments plus the head
  (:mod:`repro.serving.scatter`), merging per-cell aggregate states;
* a background **compactor** unions adjacent segments (always folding
  the *newer* segment's rows into a copy of the *older* one, preserving
  global row arrival order — what delete matching keys on) and swaps the
  segment list atomically, so readers never block.

Deletes are routed the way the monolithic engine matches them: earliest
surviving row first, dimensions only.  Rows owned by sealed segments are
removed copy-on-write (:meth:`Piece.derive
<repro.core.piece.Piece.derive>`); the whole mixed
batch still behaves transactionally — the segment list and head are only
swapped after every piece of the batch has succeeded.

The server-facing surface (query families, exploration, ``maintain`` and
its WAL logging, serving stamp/view) is the shared
:class:`~repro.core.warehouse.BaseWarehouse`, so
:class:`~repro.serving.server.QCServer` runs on either warehouse without
changes; this class supplies the segment-aware hooks behind it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Optional

from repro.core.piece import Piece
from repro.core.serialize import _spec_to_json
from repro.core.warehouse import BaseWarehouse
from repro.cube.aggregates import aggregate_spec, make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError, QueryError, SchemaError
from repro.segments.manifest import find_orphans, load_manifest, save_manifest

_ids = itertools.count(1)


def next_segment_id() -> int:
    """Process-wide unique segment ids (uniqueness within a warehouse is
    what matters; the manifest renumbers nothing)."""
    return next(_ids)


def bump_segment_ids(floor: int) -> None:
    """Ensure freshly minted ids exceed ``floor`` (called after loading a
    manifest so new segments never collide with persisted ones)."""
    global _ids
    current = next(_ids)
    _ids = itertools.count(max(current, floor + 1))


class SegmentedWarehouse(BaseWarehouse):
    """A queryable, maintainable OLAP warehouse over QC-tree segments.

    Drop-in for :class:`~repro.core.warehouse.QCWarehouse` under the
    serving layer — both inherit the mutation entry points, the query
    surface and the stamped query cache from
    :class:`~repro.core.warehouse.BaseWarehouse` (here with the
    segment-set *generation* folded into every cache key, so seals and
    compactions re-key even though they preserve answers) and offer the
    same WAL/checkpoint/recover durability contract — but write latency
    is bounded by head size, not cube size.
    """

    def __init__(self, table: BaseTable, aggregate="count",
                 index_key=None, wal=None, cache_size: int = 1024,
                 seal_rows: int = 2048, seal_batches: int = 256,
                 compact_min_segments: int = 4,
                 compact_interval: float = 0.05):
        super().__init__(aggregate, index_key, wal, cache_size)
        self.schema = table.schema
        self.seal_rows = seal_rows
        self.seal_batches = seal_batches
        self.compact_min_segments = compact_min_segments
        self.compact_interval = compact_interval

        #: Sealed pieces, oldest first; swapped (never edited) under the
        #: warehouse lock.
        self._segments: list = []
        self._head_batches = 0

        self._seals = 0
        self._compactions = 0
        self._segment_rewrites = 0
        self._checkpoint_seq = 0
        self.last_seal: Optional[dict] = None
        self.last_compaction: Optional[dict] = None
        self.last_compaction_error: Optional[str] = None
        self._phase_observer = None
        self._compactor = None
        self._compactor_stop = None

        self._live = Piece.build(table, self.aggregate)
        # A big bootstrap table seals immediately: the head stays small
        # from the first write on.
        self._maybe_seal()

    # -- serving view --------------------------------------------------------

    def pieces(self) -> list:
        """The sealed pieces, oldest first, then the head (the live
        piece; its ``tree``/``table``/``serving_tree`` are the
        warehouse's — see :meth:`stats` for global row counts)."""
        with self._lock:
            return self._segments + [self._live]

    def _segments_swapped(self) -> None:
        self._generation += 1
        self._mutated()

    def _observe(self, name: str, seconds: float) -> None:
        observer = self._phase_observer
        if observer is not None:
            try:
                observer(name, seconds)
            except Exception:
                pass

    def set_phase_observer(self, observer) -> None:
        """Register ``observer(phase_name, seconds)`` for background
        phases the serving layer cannot time itself (``seal``,
        ``compact``); :class:`~repro.serving.server.QCServer` wires this
        into its ``write_phase:*`` histograms."""
        self._phase_observer = observer

    # -- maintenance ---------------------------------------------------------

    def _apply(self, inserts, deletes) -> None:
        """The WAL-free batch body (also the recovery replay path).

        Write cost is bounded by the head: inserts always go to the
        head; deletes are routed to whichever piece owns the matching
        row (earliest surviving match first, exactly the monolithic
        matching order), with sealed pieces replaced copy-on-write.
        """
        with self._lock:
            plan = self._route_deletes(deletes)
            head_deletes = plan.pop(len(self._segments), [])
            new_segments = None
            if plan:
                new_segments = list(self._segments)
                for idx, records in sorted(plan.items()):
                    new_segments[idx] = self._segments[idx].derive(
                        deletes=records, segment_id=next_segment_id()
                    )
                # A fully emptied segment leaves the set entirely.
                new_segments = [s for s in new_segments if s.n_rows]
            # If the head batch fails, the head rolled back and the
            # segment list was never swapped: the whole batch is a no-op.
            result = self._live.apply(inserts, head_deletes)
            if new_segments is not None:
                self._segments = new_segments
                self._segment_rewrites += len(plan)
                self._generation += 1
            self._head_batches += 1
            self._record_batch(inserts, deletes, result,
                               segment_rewrites=len(plan))
            self._mutated()
            self._maybe_seal()

    def _route_deletes(self, deletes) -> dict:
        """Assign each delete record to the piece owning its match:
        ``{index into pieces(): [records]}``.

        Validates the *whole* batch before anything mutates, exactly
        like :func:`~repro.core.maintenance.delete.resolve_deletions`:
        matching is by dimension labels only, earliest surviving row
        first — which in segment terms means oldest segment first, then
        the head.  Raises :class:`MaintenanceError` listing every
        unmatched record.
        """
        plan: dict = {}
        if not deletes:
            return plan
        pieces = self.pieces()
        n_dims = self._live.table.n_dims
        consumed = [{} for _ in pieces]
        unmatched = []
        for record in deletes:
            dims = tuple(record[:n_dims])
            for idx, piece in enumerate(pieces):
                try:
                    cell = piece.table.encode_cell(dims)
                except (SchemaError, QueryError):
                    continue
                used = consumed[idx].get(cell, 0)
                if piece.row_counts()[cell] - used > 0:
                    consumed[idx][cell] = used + 1
                    plan.setdefault(idx, []).append(record)
                    break
            else:
                unmatched.append(record)
        if unmatched:
            raise MaintenanceError(
                f"cannot delete: no matching rows left for "
                f"{unmatched!r}"
            )
        return plan

    # -- sealing -------------------------------------------------------------

    def _maybe_seal(self) -> None:
        if (self._live.n_rows >= self.seal_rows
                or self._head_batches >= self.seal_batches):
            self._seal_locked()

    def seal(self):
        """Seal the head into an immutable segment now (no-op when the
        head is empty); returns the sealed :class:`Piece` or None."""
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self):
        sealed = self._live
        if sealed.n_rows == 0:
            return None
        t0 = time.perf_counter()
        # O(1): the head is handed over wholesale — its frozen view is
        # finalized lazily by Piece.frozen_view(), off the write path
        # (typically by the compactor thread or the first read).
        sealed.seal(next_segment_id())
        self._segments.append(sealed)
        self._live = Piece.build(
            BaseTable.from_records([], self.schema), self.aggregate)
        self._head_batches = 0
        self._seals += 1
        seconds = time.perf_counter() - t0
        self.last_seal = {
            "segment_id": sealed.segment_id,
            "rows": sealed.n_rows,
            "seconds": seconds,
        }
        self._segments_swapped()
        self._observe("seal", seconds)
        return sealed

    # -- compaction ----------------------------------------------------------

    @property
    def compaction_backlog(self) -> int:
        """Sealed segments beyond the configured floor — how many
        compactions the background thread still owes."""
        return max(0, len(self._segments) - self.compact_min_segments)

    def compact_once(self) -> bool:
        """Union one adjacent segment pair; True when a pair was merged.

        The expensive merge runs outside the warehouse lock against
        immutable inputs; the result is only installed if both originals
        still sit adjacent in the list (a concurrent delete rewrite or
        rebuild abandons the merge — it simply retries on the next
        tick).
        """
        with self._lock:
            if len(self._segments) <= self.compact_min_segments:
                return False
            # Cheapest adjacent pair first: keeps segment sizes balanced
            # and the merge cost minimal.
            best = min(
                range(len(self._segments) - 1),
                key=lambda i: (self._segments[i].n_rows
                               + self._segments[i + 1].n_rows),
            )
            base, newer = self._segments[best], self._segments[best + 1]
            base_tree, newer_tree = base.tree, newer.tree
        t0 = time.perf_counter()
        # The OLDER piece is always the merge base, so the newer piece's
        # rows are appended after it and global arrival order survives
        # (see Piece.derive).
        merged = base.derive(inserts=list(newer.table.iter_records()),
                             segment_id=next_segment_id())
        seconds = time.perf_counter() - t0
        with self._lock:
            try:
                at = self._segments.index(base)
            except ValueError:
                return False
            if (at + 1 >= len(self._segments)
                    or self._segments[at + 1] is not newer
                    # a rebuild() replaced a tree under the merge
                    or base.tree is not base_tree
                    or newer.tree is not newer_tree):
                return False
            self._segments[at:at + 2] = [merged]
            self._compactions += 1
            self.last_compaction = {
                "merged": (base.segment_id, newer.segment_id),
                "segment_id": merged.segment_id,
                "rows": merged.n_rows,
                "seconds": seconds,
            }
            self._segments_swapped()
        self._observe("compact", seconds)
        return True

    def compact_now(self) -> int:
        """Drain the compaction backlog synchronously; returns the
        number of merges performed."""
        done = 0
        while self.compact_once():
            done += 1
        return done

    def start_compactor(self) -> None:
        """Start the background compactor thread (idempotent).

        Each tick it finalizes any segment frozen views still pending
        from a seal, then performs at most one compaction.  The thread
        is non-daemon; call :meth:`close` (or :meth:`stop_compactor`)
        to join it.
        """
        with self._lock:
            if self._compactor is not None:
                return
            self._compactor_stop = threading.Event()
            self._compactor = threading.Thread(
                target=self._compactor_loop, name="qcseg-compactor"
            )
        self._compactor.start()

    def _compactor_loop(self) -> None:
        stop = self._compactor_stop
        while not stop.wait(self.compact_interval):
            try:
                with self._lock:
                    segments = list(self._segments)
                for segment in segments:
                    if stop.is_set():
                        return
                    segment.frozen_view()
                if self.compaction_backlog:
                    self.compact_once()
            except Exception as exc:
                # Compaction is an optimization: a failed merge must
                # never take the warehouse down.
                self.last_compaction_error = repr(exc)

    def stop_compactor(self) -> None:
        with self._lock:
            thread, self._compactor = self._compactor, None
            stop = self._compactor_stop
        if thread is not None:
            stop.set()
            thread.join()

    def close(self) -> None:
        """Stop background work; the warehouse stays queryable."""
        self.stop_compactor()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- durability ----------------------------------------------------------

    def checkpoint(self, directory) -> None:
        """Snapshot the whole segment set into ``directory``, then
        truncate the WAL.

        Sealed pieces are immutable, so one this warehouse already wrote
        into (or recovered from) ``directory`` is skipped; a
        ``segment-XXXXXXXX`` file that merely has the right name — left
        by another run — is overwritten (:meth:`Piece.save
        <repro.core.piece.Piece.save>`).  The head snapshot gets
        a fresh sequence-numbered name each time, the manifest is
        written last and atomically, and only after the manifest is
        durable are files no manifest references garbage-collected.  A
        crash at any point leaves either the old or the new manifest
        with all of its files intact.
        """
        with self._lock:
            os.makedirs(directory, exist_ok=True)
            lsn = self.wal.last_lsn if self.wal is not None else 0
            self._checkpoint_seq += 1
            seq = self._checkpoint_seq

            def write(piece, stem, meta, **entry) -> dict:
                tree_name, table_name = f"{stem}.qct", f"{stem}.csv"
                piece.save(os.path.join(directory, tree_name),
                           os.path.join(directory, table_name), meta=meta)
                return dict(entry, rows=piece.n_rows, tree=tree_name,
                            table=table_name)

            entries = [
                write(piece, f"segment-{piece.segment_id:08d}",
                      {"segment_id": piece.segment_id,
                       "rows": piece.n_rows, "wal_lsn": lsn},
                      id=piece.segment_id)
                for piece in self._segments
            ]
            head = write(self._live, f"head-{seq:08d}",
                         {"wal_lsn": lsn, "checkpoint_seq": seq}, seq=seq)
            top = max(
                (s.segment_id for s in self._segments), default=0
            )
            payload = {"segments": entries, "head": head}
            save_manifest(
                directory,
                lsn=lsn,
                generation=self._generation,
                aggregate_spec=_spec_to_json(aggregate_spec(self.aggregate)),
                segments=entries,
                head=head,
                next_segment_id=top + 1,
            )
            for orphan in find_orphans(directory, payload):
                try:
                    os.remove(os.path.join(directory, orphan))
                except OSError:
                    pass
            if self.wal is not None:
                self.wal.truncate()

    @classmethod
    def recover(cls, directory, wal_path, schema: Schema,
                index_key=None, **options) -> "SegmentedWarehouse":
        """Rebuild a segmented warehouse after a crash.

        Loads the manifest (the single atomic commit point), restores
        every referenced piece — sealed segments and the head alike —
        through the one pair loader (:meth:`Piece.load
        <repro.core.piece.Piece.load>`: a tree that fails its checksum,
        is missing, or does not pair with its CSV is rebuilt from the
        CSV and reported), then replays every committed WAL batch past
        the manifest's LSN through the normal (WAL-free) batch path, so
        replay reproduces seals and delete routing exactly.  Orphan
        files from an interrupted checkpoint are ignored and reported
        in ``last_recovery``.
        """
        payload = load_manifest(directory)
        wh = cls(BaseTable.from_records([], schema),
                 make_aggregate(payload["aggregate"]),
                 index_key=index_key, **options)

        def load(entry) -> tuple:
            piece, _, rebuilt = Piece.load(
                os.path.join(directory, entry["tree"]),
                os.path.join(directory, entry["table"]),
                schema, wh.aggregate,
            )
            return piece, rebuilt

        rebuilt_segments = []
        for entry in payload["segments"]:
            piece, rebuilt = load(entry)
            piece.seal(int(entry["id"]))
            wh._segments.append(piece)
            if rebuilt:
                rebuilt_segments.append(piece.segment_id)
        bump_segment_ids(max(
            [int(payload.get("next_segment_id", 0))]
            + [s.segment_id for s in wh._segments]
        ))
        wh._live, head_rebuilt = load(payload["head"])
        wh._generation = int(payload.get("generation", 0))
        wh._checkpoint_seq = int(payload["head"].get("seq", 0))
        wh._replay(
            wal_path, int(payload["lsn"]),
            # Any piece's tree rebuilt from its CSV / which sealed ones.
            rebuilt=head_rebuilt or bool(rebuilt_segments),
            rebuilt_segments=rebuilt_segments,
            orphans=find_orphans(directory, payload),
            segments=len(payload["segments"]),
        )
        return wh

    def rebuild(self) -> None:
        """Rebuild every piece's tree from its table (recovers from
        degraded mode when the tables are trustworthy)."""
        with self._lock:
            super().rebuild()
            self._generation += 1

    # -- reporting -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return sum(piece.n_rows for piece in self.pieces())

    def segment_health(self) -> dict:
        """The cheap lifecycle readout the serving layer folds into its
        ``health`` op and ``stats()`` (see the README metrics glossary)."""
        with self._lock:
            return {
                "segments_live": len(self._segments),
                "head_rows": self.table.n_rows,
                "seals": self._seals,
                "compactions": self._compactions,
                "compaction_backlog": self.compaction_backlog,
                "compactor_running": self._compactor is not None,
                "generation": self._generation,
            }

    def stats(self) -> dict:
        """Operational counters: segment lifecycle state on top of the
        usual warehouse stats (see the README metrics glossary)."""
        with self._lock:
            out = self.segment_health()
            out.update(
                segment_rows=[s.n_rows for s in self._segments],
                head_batches=self._head_batches,
                head_classes=self.tree.n_classes,
                segment_rewrites=self._segment_rewrites,
            )
            self._common_stats(out, "segmented",
                               generation=self._generation)
        if self.last_seal is not None:
            out["last_seal"] = dict(self.last_seal)
        if self.last_compaction is not None:
            out["last_compaction"] = dict(self.last_compaction)
        if self.last_compaction_error is not None:
            out["last_compaction_error"] = self.last_compaction_error
        return out

    def __repr__(self):
        with self._lock:
            flags = ", degraded" if self._degraded else ""
            return (
                f"SegmentedWarehouse(segments={len(self._segments)}, "
                f"head_rows={self.table.n_rows}, "
                f"rows={self.n_rows}, "
                f"aggregate={self.aggregate.name}{flags})"
            )
