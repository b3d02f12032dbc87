"""``SegmentedWarehouse`` — realtime ingest over immutable QC-tree segments.

The monolithic :class:`~repro.core.warehouse.QCWarehouse` maintains one
live tree, so a write batch's maintenance cost grows with cube size.
This warehouse bounds it by *head* size instead:

* writes land in a small mutable head (dict tree + table), maintained by
  the existing Algorithms 5–7 batched engine with its own persistent
  cover index;
* when the head crosses ``seal_rows``/``seal_batches`` it **seals**: the
  head's tree, table, frozen view, and pending refreeze delta are handed
  to an immutable :class:`~repro.segments.segment.Segment` in O(1) and a
  fresh empty head starts — the segment finalizes its frozen view lazily,
  off the write path;
* queries **scatter-gather** across the sealed segments plus the head
  (:mod:`repro.segments.scatter`), merging per-cell aggregate states;
* a background **compactor** unions adjacent segments (always folding
  the *newer* segment's rows into a copy of the *older* one, preserving
  global row arrival order — what delete matching keys on) and swaps the
  segment list atomically, so readers never block.

Deletes are routed the way the monolithic engine matches them: earliest
surviving row first, dimensions only.  Rows owned by sealed segments are
removed copy-on-write (:meth:`Segment.rewrite_without
<repro.segments.segment.Segment.rewrite_without>`); the whole mixed
batch still behaves transactionally — the segment list and head are only
swapped after every piece of the batch has succeeded.

The server-facing surface (query families, exploration, ``maintain`` and
its WAL logging, serving stamp/view) is the shared
:class:`~repro.core.warehouse.BaseWarehouse`, so
:class:`~repro.serving.server.QCServer` runs on either warehouse without
changes; this class supplies the segment-aware hooks behind it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from typing import Optional

from repro.core.construct import build_qctree
from repro.core.maintenance.batch import maintain_batch
from repro.core.serialize import (
    _spec_to_json,
    load_qctree_from,
    save_qctree,
)
from repro.core.warehouse import (
    BaseWarehouse,
    _csv_stamped_lsn,
    _stamped_lsn,
    wal_batch,
)
from repro.cube.aggregates import aggregate_spec, make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import (
    MaintenanceError,
    QueryError,
    SchemaError,
    SerializationError,
)
from repro.reliability.fsck import FsckReport, fsck_tree
from repro.reliability.wal import WriteAheadLog
from repro.segments.manifest import find_orphans, load_manifest, save_manifest
from repro.segments.scatter import Piece
from repro.segments.segment import Segment, bump_segment_ids, next_segment_id
from repro.segments.snapshot import SegmentedSnapshot


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
                 full_refreeze_ratio: float = 0.25,
                 seal_rows: int = 2048, seal_batches: int = 256,
                 compact_min_segments: int = 4,
                 compact_interval: float = 0.05):
        super().__init__(aggregate, index_key, wal, cache_size,
                         full_refreeze_ratio)
        self.schema = table.schema
        self.seal_rows = seal_rows
        self.seal_batches = seal_batches
        self.compact_min_segments = compact_min_segments
        self.compact_interval = compact_interval

        # One re-entrant lock covers segment-list swaps and head
        # mutation; heavy work (compaction merges, frozen-view compiles)
        # happens outside it, so readers and writers only ever wait on
        # pointer swaps.
        self._lock = threading.RLock()
        self._segments: list = []
        self._head_tree = None
        self._head_table = None
        self._head_index = None
        self._head_frozen = None
        self._head_pending_delta = None
        self._head_batches = 0

        #: Bumped on every segment-set change (seal, compaction, delete
        #: rewrite, recovery); prepended to every query-cache key.
        self._generation = 0
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

        self._head_tree = build_qctree(table, self.aggregate)
        self._head_table = table
        # A big bootstrap table seals immediately: the head stays small
        # from the first write on.
        self._maybe_seal()

    # -- serving view --------------------------------------------------------

    @property
    def tree(self):
        """The mutable head tree (the segment trees are immutable)."""
        return self._head_tree

    @property
    def table(self) -> BaseTable:
        """The head's base table; see :meth:`stats` for global row counts."""
        return self._head_table

    @property
    def serving_tree(self):
        """The head's frozen view, brought current lazily.

        Mirrors ``QCWarehouse.serving_tree``: compiled on first use,
        incrementally patched from accumulated maintenance deltas
        afterwards.  Sealed segments maintain their own frozen views
        (finalized off the write path, see :meth:`Segment.view
        <repro.segments.segment.Segment.view>`).
        """
        with self._lock:
            if self._head_frozen is None:
                self._head_frozen = self._head_tree.freeze()
                self.last_refreeze = dict(self._head_frozen.patch_stats)
            elif self._head_pending_delta is not None:
                self._head_frozen = self._head_frozen.patch(
                    self._head_pending_delta,
                    full_refreeze_ratio=self.full_refreeze_ratio,
                )
                self.last_refreeze = dict(self._head_frozen.patch_stats)
            self._head_pending_delta = None
            return self._head_frozen

    def snapshot_view(self) -> SegmentedSnapshot:
        """A fresh immutable snapshot: one piece per sealed segment
        (oldest first) plus the head's frozen view, last."""
        with self._lock:
            pieces = [segment.piece() for segment in self._segments]
            pieces.append(Piece(self.serving_tree, self._head_table))
            return SegmentedSnapshot(
                pieces, self.aggregate, stamp=self.serving_stamp(),
                generation=self._generation, index_key=self._index_key,
            )

    def invalidate_serving_view(self) -> None:
        """Drop every derived serving structure and start clean (the
        serving layer's recovery fallback, as on ``QCWarehouse``)."""
        with self._lock:
            self._mutated()

    def _mutated(self, delta=None, segments_changed: bool = False) -> None:
        if delta is not None and self._head_frozen is not None:
            pending = self._head_pending_delta
            self._head_pending_delta = (
                delta if pending is None else pending.merge(delta)
            )
        else:
            self._head_frozen = None
            self._head_pending_delta = None
        self._view = None
        self._epoch += 1
        if segments_changed:
            self._generation += 1

    def _segments_swapped(self) -> None:
        self._generation += 1
        self._epoch += 1
        self._view = None

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

    # -- queries -------------------------------------------------------------

    @property
    def _cache_prefix(self) -> tuple:
        # Re-keys every entry when the segment set changes (seal /
        # compaction / rewrite), independent of the stamp check.
        return (self._generation,)

    def _scan_point(self, raw_cell):
        if len(raw_cell) != self._head_table.n_dims:
            raise QueryError(
                f"query cell {raw_cell!r} has {len(raw_cell)} positions, "
                f"table has {self._head_table.n_dims} dimensions"
            )
        with self._lock:
            tables = [s.table for s in self._segments] + [self._head_table]
        state = None
        for table in tables:
            try:
                cell = table.encode_cell(raw_cell)
            except SchemaError:
                continue
            rows = table.select(cell)
            if not rows:
                continue
            part = self.aggregate.state(table, rows)
            state = part if state is None else self.aggregate.merge(
                state, part
            )
        return None if state is None else self.aggregate.value(state)

    # -- maintenance ---------------------------------------------------------

    def _head_cover_index(self):
        if self._head_index is None:
            from repro.cube.cover_index import CoverIndex

            self._head_index = CoverIndex(self._head_table)
        return self._head_index

    def _apply(self, inserts, deletes) -> None:
        """The WAL-free batch body (also the recovery replay path).

        Write cost is bounded by the head: inserts always go to the
        head; deletes are routed to whichever piece owns the matching
        row (earliest surviving match first, exactly the monolithic
        matching order), with sealed segments rewritten copy-on-write.
        """
        with self._lock:
            segment_plan, head_deletes = self._route_deletes(deletes)
            new_segments = None
            rewrites = 0
            if segment_plan:
                new_segments = list(self._segments)
                for idx, records in sorted(segment_plan.items()):
                    new_segments[idx] = (
                        self._segments[idx].rewrite_without(records)
                    )
                    rewrites += 1
                # A fully emptied segment leaves the set entirely.
                new_segments = [s for s in new_segments if s.n_rows]
            try:
                result = maintain_batch(
                    self._head_tree, self._head_table,
                    inserts=inserts, deletes=head_deletes,
                    cover_index=self._head_cover_index(),
                )
            except BaseException:
                # The head tree rolled back; its cover index may be
                # ahead — drop it.  The segment list was never swapped,
                # so the whole batch is a no-op.
                self._head_index = None
                raise
            if new_segments is not None:
                self._segments = new_segments
                self._segment_rewrites += rewrites
            self._head_table = result.table
            self._head_batches += 1
            self._record_batch(inserts, deletes, result,
                               segment_rewrites=rewrites)
            self._mutated(result.delta, segments_changed=rewrites > 0)
            self._maybe_seal()

    def _route_deletes(self, deletes):
        """Assign each delete record to the piece owning its match.

        Validates the *whole* batch before anything mutates, exactly
        like :func:`~repro.core.maintenance.delete.resolve_deletions`:
        matching is by dimension labels only, earliest surviving row
        first — which in segment terms means oldest segment first, then
        the head.  Raises :class:`MaintenanceError` listing every
        unmatched record.
        """
        if not deletes:
            return {}, []
        n_dims = self._head_table.n_dims
        consumed = [Counter() for _ in self._segments]
        head_counts = Counter(self._head_table.rows)
        head_used = Counter()
        plan: dict = {}
        head_plan: list = []
        unmatched = []
        for record in deletes:
            dims = tuple(record[:n_dims])
            placed = False
            for idx, segment in enumerate(self._segments):
                try:
                    cell = segment.table.encode_cell(dims)
                except (SchemaError, QueryError):
                    continue
                if segment.row_counts()[cell] - consumed[idx][cell] > 0:
                    consumed[idx][cell] += 1
                    plan.setdefault(idx, []).append(record)
                    placed = True
                    break
            if not placed:
                try:
                    cell = self._head_table.encode_cell(dims)
                except (SchemaError, QueryError):
                    cell = None
                if (cell is not None
                        and head_counts[cell] - head_used[cell] > 0):
                    head_used[cell] += 1
                    head_plan.append(record)
                    placed = True
            if not placed:
                unmatched.append(record)
        if unmatched:
            raise MaintenanceError(
                f"cannot delete: no matching rows left for "
                f"{unmatched!r}"
            )
        return plan, head_plan

    # -- sealing -------------------------------------------------------------

    def _maybe_seal(self) -> None:
        if (self._head_table.n_rows >= self.seal_rows
                or self._head_batches >= self.seal_batches):
            self._seal_locked()

    def seal(self):
        """Seal the head into an immutable segment now (no-op when the
        head is empty); returns the new :class:`Segment` or None."""
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self):
        if self._head_table.n_rows == 0:
            return None
        t0 = time.perf_counter()
        # O(1): the head's structures are handed over wholesale — the
        # frozen view is finalized lazily by Segment.view(), off the
        # write path (typically by the compactor thread or first read).
        segment = Segment(
            next_segment_id(), self._head_tree, self._head_table,
            frozen=self._head_frozen,
            pending_delta=self._head_pending_delta,
        )
        self._segments.append(segment)
        empty = BaseTable.from_records([], self.schema)
        self._head_tree = build_qctree(empty, self.aggregate)
        self._head_table = empty
        self._head_index = None
        self._head_frozen = None
        self._head_pending_delta = None
        self._head_batches = 0
        self._seals += 1
        seconds = time.perf_counter() - t0
        self.last_seal = {
            "segment_id": segment.segment_id,
            "rows": segment.n_rows,
            "seconds": seconds,
        }
        self._segments_swapped()
        self._observe("seal", seconds)
        return segment

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
        still sit adjacent in the list (a concurrent delete rewrite
        abandons the merge — it simply retries on the next tick).
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
        t0 = time.perf_counter()
        merged = self._merge_segments(base, newer)
        seconds = time.perf_counter() - t0
        with self._lock:
            try:
                at = self._segments.index(base)
            except ValueError:
                return False
            if (at + 1 >= len(self._segments)
                    or self._segments[at + 1] is not newer):
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

    def _merge_segments(self, base: Segment, newer: Segment) -> Segment:
        # The OLDER segment is always the merge base, and maintain_batch
        # sorts the newer segment's records on their dimension labels
        # only (a stable sort), so rows with the same dimension tuple
        # keep their global arrival order — what earliest-first delete
        # matching depends on.
        tree = base.tree.copy()
        records = list(newer.table.iter_records())
        result = maintain_batch(tree, base.table, inserts=records)
        frozen = base.view().patch(result.delta)
        return Segment(next_segment_id(), tree, result.table, frozen=frozen)

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
                    if not segment.frozen_ready:
                        segment.view()
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

        Segment files (``segment-XXXXXXXX.qct``/``.csv``) are immutable
        — a segment already on disk is skipped.  The head snapshot gets
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
            entries = []
            for segment in self._segments:
                tree_name, table_name = segment.save(directory, lsn=lsn)
                entries.append({
                    "id": segment.segment_id,
                    "rows": segment.n_rows,
                    "tree": tree_name,
                    "table": table_name,
                })
            head_tree_name = f"head-{seq:08d}.qct"
            head_table_name = f"head-{seq:08d}.csv"
            self._head_table.to_csv(
                os.path.join(directory, head_table_name),
                comment=f"wal_lsn={lsn}",
            )
            save_qctree(
                self._head_tree,
                os.path.join(directory, head_tree_name),
                meta={"wal_lsn": lsn, "checkpoint_seq": seq},
                labels=self._head_table._decoders,
            )
            head = {
                "rows": self._head_table.n_rows,
                "tree": head_tree_name,
                "table": head_table_name,
                "seq": seq,
            }
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
        every referenced segment — a segment tree that fails its
        checksum is rebuilt from its CSV — reconstructs the head the
        same way, then replays every committed WAL batch past the
        manifest's LSN through the normal (WAL-free) batch path, so
        replay reproduces seals and delete routing exactly.  Orphan
        files from an interrupted checkpoint are ignored and reported
        in ``last_recovery``.
        """
        payload = load_manifest(directory)
        aggregate = make_aggregate(payload["aggregate"])
        segments = [
            Segment.load(directory, entry, schema, aggregate)
            for entry in payload["segments"]
        ]
        floor = max(
            [int(payload.get("next_segment_id", 0))]
            + [s.segment_id for s in segments]
        )
        bump_segment_ids(floor)
        head_entry = payload["head"]
        head_table_path = os.path.join(directory, head_entry["table"])
        head_table = BaseTable.from_csv(head_table_path, schema)
        head_tree = None
        rebuilt = False
        try:
            head_tree = load_qctree_from(
                os.path.join(directory, head_entry["tree"])
            )
        except (SerializationError, FileNotFoundError, OSError):
            head_tree = None
        if head_tree is not None:
            tree_lsn = _stamped_lsn(getattr(head_tree, "snapshot_meta", {}))
            if _csv_stamped_lsn(head_table_path) > tree_lsn:
                head_tree = None
        if head_tree is not None:
            labels = getattr(head_tree, "snapshot_labels", None)
            if labels is None:
                head_tree = None
            else:
                try:
                    head_table = head_table.with_label_dictionaries(labels)
                except SchemaError:
                    head_tree = None
        if head_tree is None:
            head_tree = build_qctree(head_table, aggregate)
            rebuilt = True

        wh = cls(BaseTable.from_records([], schema), aggregate,
                 index_key=index_key, **options)
        wh._segments = segments
        wh._head_tree = head_tree
        wh._head_table = head_table
        wh._head_index = None
        wh._generation = int(payload.get("generation", 0))
        wh._checkpoint_seq = int(head_entry.get("seq", 0))
        orphans = find_orphans(directory, payload)

        checkpoint_lsn = int(payload["lsn"])
        wal = WriteAheadLog(wal_path)
        replayed, skipped = 0, []
        for record in wal.records():
            if record.lsn <= checkpoint_lsn:
                continue
            inserts, deletes = wal_batch(record)
            try:
                # Replay runs the normal batch path minus the WAL
                # append — including seal thresholds, so recovery
                # reproduces the segment lifecycle instead of growing
                # one giant head.
                wh._apply(list(inserts), list(deletes))
                replayed += 1
            except MaintenanceError as exc:
                skipped.append((record.lsn, str(exc)))
        wh._mutated()
        wh.wal = wal
        wh.last_recovery = {
            "replayed": replayed,
            "skipped": skipped,
            "torn_tail": wal.tail_was_torn,
            "checkpoint_lsn": checkpoint_lsn,
            "rebuilt": rebuilt,
            "orphans": orphans,
            "segments": len(segments),
        }
        return wh

    # -- verification --------------------------------------------------------

    def verify(self, deep: bool = True, samples: Optional[int] = 64,
               seed: int = 0) -> FsckReport:
        """Fsck every piece (each sealed segment and the head) and merge
        the reports; a failing report flips degraded mode exactly like
        the monolithic warehouse."""
        with self._lock:
            pieces = [
                (f"segment[{s.segment_id}]", s.tree, s.table)
                for s in self._segments
            ]
            pieces.append(("head", self._head_tree, self._head_table))
        report = FsckReport()
        for name, tree, table in pieces:
            sub = fsck_tree(tree, table=table if deep else None,
                            samples=samples, seed=seed)
            for issue in sub.issues:
                report.add(issue.code, f"{name}: {issue.message}",
                           issue.node)
            for what, count in sub.checked.items():
                report.checked[what] = report.checked.get(what, 0) + count
        return self._adopt_fsck(report)

    def rebuild(self) -> None:
        """Rebuild every piece's tree from its table (recovers from
        degraded mode when the tables are trustworthy)."""
        with self._lock:
            self._segments = [
                Segment(next_segment_id(),
                        build_qctree(s.table, self.aggregate), s.table)
                for s in self._segments
            ]
            self._head_tree = build_qctree(self._head_table, self.aggregate)
            self._head_index = None
            self._segments_swapped()
            self._mutated()
            self._degraded = False
            self._fsck_report = None

    # -- reporting -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        with self._lock:
            return (sum(s.n_rows for s in self._segments)
                    + self._head_table.n_rows)

    def segment_health(self) -> dict:
        """The cheap lifecycle readout the serving layer folds into its
        ``health`` op and ``stats()`` (see the README metrics glossary)."""
        with self._lock:
            return {
                "segments_live": len(self._segments),
                "head_rows": self._head_table.n_rows,
                "seals": self._seals,
                "compactions": self._compactions,
                "compaction_backlog": max(
                    0, len(self._segments) - self.compact_min_segments
                ),
                "compactor_running": self._compactor is not None,
                "generation": self._generation,
            }

    def stats(self) -> dict:
        """Operational counters: segment lifecycle state on top of the
        usual warehouse stats (see the README metrics glossary)."""
        with self._lock:
            segments = list(self._segments)
            lsn, epoch = self.serving_stamp()
            out = {
                "n_rows": (sum(s.n_rows for s in segments)
                           + self._head_table.n_rows),
                "n_dims": self._head_table.n_dims,
                "aggregate": self.aggregate.name,
                "degraded": self._degraded,
                "serving": "segmented",
                "serving_stamp": {
                    "lsn": lsn,
                    "epoch": epoch,
                    "generation": self._generation,
                    "frozen": True,
                },
                "segments_live": len(segments),
                "segment_rows": [s.n_rows for s in segments],
                "head_rows": self._head_table.n_rows,
                "head_batches": self._head_batches,
                "head_classes": self._head_tree.n_classes,
                "seals": self._seals,
                "compactions": self._compactions,
                "compaction_backlog": max(
                    0, len(segments) - self.compact_min_segments
                ),
                "segment_rewrites": self._segment_rewrites,
                "compactor_running": self._compactor is not None,
                "maintain_batched": self._maintain_batched,
                "maintain_sequential": self._maintain_sequential,
            }
        self._common_stats(out)
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
                f"head_rows={self._head_table.n_rows}, "
                f"rows={self.n_rows}, "
                f"aggregate={self.aggregate.name}{flags})"
            )
