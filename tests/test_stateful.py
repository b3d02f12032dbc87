"""The one model, checked against every engine configuration.

One hypothesis state machine writes one random program into up to four
warehouses, under one of ``model.AGGREGATES`` (every aggregate and a
multi-aggregate; MIN and MAX deletes take the recompute path), its
``model.INT_DIM`` labelled with ints in a typed program, and,
after every rule, checks six configurations against the brute-force
lattice of ``tests/model.py`` with ``==`` (the configuration × rule ×
invariant table is in README § Correctness):

* ``frozen`` — a ``QCWarehouse`` (its heap-frozen view, its cache);
  ``dict`` — its dict tree; ``attached`` — its snapshot packed to
  ``QCTREE/3`` and attached, asked call by call and then every point
  at once through the batch kernel a shard worker answers
  ``map_query`` with;
* ``segmented`` — a ``SegmentedWarehouse`` sealing at 6 rows or 3
  batches (``SEAL_BATCHES``, patched while the machine runs) and
  compacting down to 2 segments;
* ``server`` / ``server-segmented`` — ``QCServer(workers=1,
  cache_size=64)`` over one warehouse of each kind.

Every store is small enough that the head's crossover rule
(``QCWarehouse.REBUILD_RATIO``) would rebuild each batch, so each batch
draws its path instead — maintained by Algorithms 5–7 or rebuilt from
the post-batch table — and runs it in every store: both paths, and
either following the other, in the monolithic and the segmented stores
alike.  Recovery replays under the store's own rule.

:func:`replay` runs the machine on one seeded program, hypothesis aside,
over the configurations it is given — ``replay(seed, ("write",),
configs=("attached",))`` checks (and builds) one; the pinned corpora of
the other suites are replays.  :func:`test_every_aggregate_replays`
runs one replay per aggregate, so each is checked whatever hypothesis
draws.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.construct import build_qctree
from repro.core.warehouse import QCWarehouse
from repro.errors import MaintenanceError, WriteQuarantinedError
from repro.segments import SegmentedWarehouse
from repro.serving import QCServer
from repro.serving.server import SNAPSHOT_OPS
from repro.shard.pack import attach_packed, pack_snapshot_bytes
from tests import model
from tests.conftest import PATHS, dict_view, rebuild_ratio, refreeze_ratios
from tests.faults import InjectedCrash

#: The store each configuration reads.
STORE_OF = {"frozen": "qc", "dict": "qc", "attached": "qc", "segmented": "seg",
            "server": "qc-served", "server-segmented": "seg-served"}
CONFIGS = tuple(STORE_OF)
assert set(model.CELL_OPS) | {"range", "iceberg", "iceberg_in_range"} == \
    set(SNAPSHOT_OPS)

SEG_OPTIONS = dict(seal_rows=6, compact_min_segments=2)
#: ``SegmentedWarehouse.SEAL_BATCHES`` while the machine runs.
SEAL_BATCHES = 3
SERVER_OPTIONS = dict(workers=1, cache_size=64)
#: ``refreeze_ratios`` that force ``FrozenQCTree.patch`` to recompile,
#: or to patch and never compact (a small tree would compact at once,
#: and a compacted view has no overlay or appended slot left).
FULL = dict(full=0.0)
PATCHED = dict(full=1.0, compact=float("inf"))

class Store:
    """One warehouse the program writes into — directly, or through a
    server — with its WAL and checkpoint directory."""

    def __init__(self, name, records, directory, aggregate):
        self.name = name
        self.segmented = name.startswith("seg")
        self.served = name.endswith("served")
        self.kind, self.options = (
            (SegmentedWarehouse, SEG_OPTIONS) if self.segmented
            else (QCWarehouse, {}))
        self.wal = os.path.join(directory, f"{name}.wal")
        self.checkpoint_dir = os.path.join(directory, f"{name}.ckpt")
        #: WAL positions of batches that failed (a batch is logged
        #: before it is applied, so replay meets them again).
        self.failed_lsns = set()
        warehouse = self.kind(model.table_of(records), aggregate,
                              **self.options)
        warehouse.attach_wal(self.wal)
        self._adopt(warehouse)

    def _adopt(self, warehouse):
        self.warehouse = warehouse
        self.server = (QCServer(warehouse, **SERVER_OPTIONS)
                       if self.served else None)

    def write(self, inserts, deletes):
        if self.served:
            self.server.write(inserts=inserts, deletes=deletes)
        else:
            self.warehouse.maintain(inserts=inserts, deletes=deletes)

    def checkpoint(self):
        self.warehouse.checkpoint(self.checkpoint_dir)

    def recover(self):
        self.close()
        warehouse = self.kind.recover(self.checkpoint_dir, self.wal,
                                      model.SCHEMA, **self.options)
        # Replay skips only the batches that failed live.
        report = warehouse.last_recovery
        assert {lsn for lsn, _ in report["skipped"]} <= self.failed_lsns, \
            report
        self._adopt(warehouse)

    def close(self):
        if self.server is not None:
            self.server.close()
        self.warehouse.close()


class ModelMachine(RuleBasedStateMachine):
    """Every configuration answers what the lattice of the live rows
    answers (see the module docstring)."""

    #: The configurations checked (and so the stores built).
    configs = CONFIGS

    @initialize(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 8),
                aggregate=st.sampled_from(sorted(model.AGGREGATES)),
                typed=st.booleans())
    def setup(self, seed, rows, aggregate="sum", typed=False):
        # Hypothesis picks the rules; what a rule writes comes from here.
        self.rng = rng = random.Random(seed)
        self.aggregate = model.AGGREGATES[aggregate]
        #: Whether the program labels ``model.INT_DIM`` with ints.
        self.typed = typed
        if typed:
            self._event("typed program")
        self.seal_batches = mock.patch.object(
            SegmentedWarehouse, "SEAL_BATCHES", SEAL_BATCHES)
        self.seal_batches.start()
        #: Draws each batch's head path, apart from ``rng`` so that a
        #: seed writes the same program whichever paths it takes.
        self.paths = random.Random(f"head paths {seed}")
        self.live = [model.gen_record(rng, typed=typed) for _ in range(rows)]
        self.directory = tempfile.mkdtemp(prefix="qc-model-")
        self.stores = {
            name: Store(name, self.live, self.directory, self.aggregate)
            for name in sorted({STORE_OF[c] for c in self.configs})
        }
        for store in self.stores.values():
            store.checkpoint()  # so there is always one to recover from
        self.rule = "setup"
        self.checks = 0
        self._mutated()

    def teardown(self):
        for store in getattr(self, "stores", {}).values():
            store.close()
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)
        if hasattr(self, "seal_batches"):
            self.seal_batches.stop()

    def _mutated(self):
        self.expected = None
        self.attached = None
        self.touched = set(self.stores)

    def _head_path(self):
        """Pins the next batch's head path (``PATHS``) in every store."""
        path = self.paths.choice(sorted(PATHS))
        self._event(f"head {path}")
        return rebuild_ratio(PATHS[path])

    def _write(self, inserts, deletes):
        with self._head_path():
            for store in self.stores.values():
                store.write(inserts, deletes)
        model.remove_rows(self.live, deletes)
        self.live.extend(inserts)
        self._mutated()

    def _batch(self) -> tuple:
        return model.next_batch(self.rng, self.live, typed=self.typed)

    def _bring_views_current(self, ratios):
        with refreeze_ratios(**ratios):
            for store in self.stores.values():
                if not store.served:
                    store.warehouse.snapshot_view()

    # -- rules -------------------------------------------------------------------

    @rule()
    def write(self):
        self.rule = "write"
        self._write(*self._batch())

    @rule()
    def write_one(self):
        self.rule = "write_one"
        if self.live and self.rng.random() < 0.5:
            self._write([], [self.rng.choice(self.live)])
        else:
            self._write([model.gen_record(self.rng, fresh=True,
                                          typed=self.typed)], [])

    @rule()
    def burst(self):
        """2–3 batches back to back: nothing reads between them, so each
        piece's pending deltas merge, and the merged delta is patched in
        (not recompiled) when the views are brought current."""
        self.rule = "burst"
        for _ in range(self.rng.randint(2, 3)):
            self._write(*self._batch())
        self._bring_views_current(PATCHED)

    @rule()
    def failed_delete(self):
        """A batch whose delete matches nothing — an unknown key, or one
        copy more than there are — fails whole, everywhere, and changes
        nothing."""
        self.rule = "failed_delete"
        rng = self.rng
        if self.live and rng.random() < 0.5:
            row = rng.choice(self.live)
            copies = sum(r[:model.N_DIMS] == row[:model.N_DIMS]
                         for r in self.live)
            deletes = [row] * (copies + 1)
        else:
            deletes = [model.unseen_key(self.typed) + (1.0,)]
        inserts = [model.gen_record(rng, fresh=True, typed=self.typed)]
        with self._head_path():
            for store in self.stores.values():
                # (A server refuses a batch that already failed three
                # times before logging it.)
                with pytest.raises((MaintenanceError,
                                    WriteQuarantinedError)) as info:
                    store.write(inserts, deletes)
                if info.type is MaintenanceError:
                    store.failed_lsns.add(store.warehouse.wal.last_lsn)
        self.touched = set(self.stores)

    @rule()
    def seal(self):
        self.rule = "seal"
        for store in self.stores.values():
            if store.segmented:
                store.warehouse.seal()
                self.touched.add(store.name)

    @rule()
    def compact(self):
        self.rule = "compact"
        for store in self.stores.values():
            if store.segmented:
                store.warehouse.compact_once()
                self.touched.add(store.name)

    @rule()
    def checkpoint(self):
        self.rule = "checkpoint"
        for store in self.stores.values():
            store.checkpoint()
        self.touched = set(self.stores)

    @rule()
    def recover(self):
        """Crash every store and recover it from its last checkpoint plus
        the WAL.  For about half of them the crash lands inside a
        checkpoint, after the snapshot is durable and before the WAL is
        truncated, so the log keeps records the snapshot already holds
        and recovery must skip them."""
        self.rule = "recover"
        for store in self.stores.values():
            if self.rng.random() < 0.5:
                with mock.patch.object(store.warehouse.wal, "truncate",
                                       side_effect=InjectedCrash):
                    with pytest.raises(InjectedCrash):
                        store.checkpoint()
            store.recover()
        self._mutated()

    @rule()
    def refreeze(self):
        """A write whose refreeze is forced to recompile, or to patch, on
        the servers' write path and the direct stores' views alike."""
        full = self.rng.random() < 0.5
        self.rule = "refreeze_full" if full else "refreeze_patched"
        ratios = FULL if full else PATCHED
        with refreeze_ratios(**ratios):
            self._write(*self._batch())
        self._bring_views_current(ratios)

    @rule()
    def rebuild(self):
        self.rule = "rebuild"
        for store in self.stores.values():
            store.warehouse.rebuild()
        self.touched = set(self.stores)

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def holds_after_every_rule(self):
        """The three invariants, over the stores the last rule touched
        (one it left alone held them after an earlier rule)."""
        touched = [self.stores[name] for name in sorted(self.touched)]
        self.every_op_answers_like_the_lattice()
        self.every_tree_is_a_fresh_build(touched)
        self.every_view_is_its_tree(touched)
        self.touched = set()

    def _ask(self, config):
        if config.startswith("server"):
            return self.stores[STORE_OF[config]].server.query
        warehouse = self.stores[STORE_OF[config]].warehouse
        if config == "dict":
            return model.asker(dict_view(warehouse))
        if config == "attached":
            if self.attached is None:
                snap = warehouse.snapshot_view()
                self.attached = attach_packed(pack_snapshot_bytes(
                    snap.tree, snap.table, stamp=snap.stamp))
            return model.asker(self.attached.serving_snapshot())
        return model.asker(warehouse)

    def every_op_answers_like_the_lattice(self):
        if self.expected is None:
            self.expected = model.expectations(self.live, self.aggregate)
        self.checks += 1
        # Alternate the order, so a stamped cache smaller than one pass
        # still holds answers the next pass asks for.
        expected = self.expected[::1 if self.checks % 2 else -1]
        for config in self.configs:
            if STORE_OF[config] in self.touched:
                model.assert_answers(self._ask(config), expected,
                                     where=f"{config} after {self.rule}, ")
                if config == "attached":
                    self.batched_points_answer_alike(expected)
                self._event(f"checked {config} after {self.rule}")
        for op in SNAPSHOT_OPS:
            if any(o == op and not isinstance(w, model.Refused)
                   for o, _, w in self.expected):
                self._event(f"answered {op}")

    def batched_points_answer_alike(self, expected):
        """Every expected point through one batch-kernel call."""
        points = [(args, want) for op, args, want in expected
                  if op == "point"]
        values = self.attached.tree._point_query_batch(
            self.attached.table, [args[0] for args, _ in points])
        for (args, want), got in zip(points, values):
            model.assert_same("point", got, want,
                              where=f"attached batch {args!r}: ")

    @staticmethod
    def _event(name):
        if currently_in_test_context():  # not in a replay
            event(name)

    def every_tree_is_a_fresh_build(self, stores):
        for store in stores:
            for piece in store.warehouse.pieces():
                want = build_qctree(piece.table, self.aggregate)
                assert piece.tree.signature() == want.signature(), \
                    (store.name, piece)

    def every_view_is_its_tree(self, stores):
        for store in stores:
            for piece in store.warehouse.pieces():
                assert piece.frozen_view().signature() == \
                    piece.tree.signature(), (store.name, piece)
        if self.attached is not None:
            assert self.attached.tree.signature() == \
                self.stores["qc"].warehouse.tree.signature()


ModelMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None
)

TestWarehouseStateful = ModelMachine.TestCase


def replay(seed, rules=("write",), steps=4, configs=CONFIGS, rows=None,
           aggregate="sum", typed=False):
    """The machine on one seeded program, hypothesis aside: ``setup``
    (``rows`` base rows, else 0–8, under ``model.AGGREGATES[aggregate]``,
    ``model.INT_DIM`` labelled with ints when ``typed``), then ``steps``
    rules drawn from ``rules``, the invariants after each, over
    ``configs``."""
    rng = random.Random(seed)
    machine = ModelMachine()
    machine.configs = configs
    try:
        machine.setup(seed=seed, rows=rng.randint(0, 8) if rows is None
                      else rows, aggregate=aggregate, typed=typed)
        machine.holds_after_every_rule()
        for _ in range(steps):
            getattr(machine, rng.choice(rules))()
            machine.holds_after_every_rule()
    finally:
        machine.teardown()


#: Every rule of the machine.
RULES = ("write", "write_one", "burst", "failed_delete", "seal", "compact",
         "checkpoint", "recover", "refreeze", "rebuild")


@pytest.mark.parametrize("aggregate", sorted(model.AGGREGATES))
def test_every_aggregate_replays(aggregate):
    """One seeded program per aggregate, every rule in reach, every
    configuration answering ``==`` to the exact reference."""
    replay(11, rules=RULES, steps=6, rows=6, aggregate=aggregate)


@pytest.mark.parametrize("seed", [3, 11])
def test_integer_labels_replay_through_checkpoint_and_recover(seed):
    """A typed program — ``model.INT_DIM`` labelled with ints — through
    every rule, checkpoints and recoveries among them: each recovered
    store reads its labels back as ints, so every configuration still
    answers ``==`` to the reference asked with int labels."""
    replay(seed, rules=RULES + ("checkpoint", "recover"), steps=8, rows=6,
           typed=True)
