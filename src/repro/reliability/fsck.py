"""Structural and semantic verification for QC-trees (a tree *fsck*).

A compressed summary that silently drifts from its base table is worse
than no summary: queries return plausible wrong numbers.  This module
re-derives the QC-tree's invariants (Definition 1 of the paper) and —
given the base table — re-checks sampled aggregates against the cover
sets they summarize, reporting every violation instead of asserting on
the first one.

Checks, in order:

``structure``
    Node bookkeeping: parents alive and mutually consistent with child
    maps, labels matching edge keys, dimensions strictly increasing
    along every root path, no cycles, no freed slot reachable or still
    holding children, links or a state, no allocated node orphaned.  Any
    structural finding short-circuits the
    class and aggregate passes — those walk parent chains and child maps
    and could fail to terminate over the very corruption just found.

``links``
    Every drill-down link targets a live node labeled with the link's
    own ``(dim, value)`` (Definition 1's prefix-node rule), never
    duplicates a tree edge, and points strictly forward in dimension
    order.

``classes``
    Every class upper bound answers its own point query: the Algorithm 3
    walk from the root must reach the class node (this exercises the
    link/forced-descent routing the paper's queries rely on).

``aggregates`` (only with a base table)
    For a sample of classes: the upper bound is *closed* (it equals the
    meet of the rows it covers), covers at least one row, and its stored
    value matches the aggregate recomputed from the cover set.  With
    ``samples=None`` every class is checked.

The result is a :class:`FsckReport`; nothing raises on corruption, so a
caller can render all findings (the CLI ``python -m repro fsck`` does).
:meth:`QCWarehouse.verify <repro.core.warehouse.QCWarehouse.verify>`
rebuilds every piece whose report fails from its base table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.cells import format_cell
from repro.core.point_query import locate
from repro.core.qctree import QCTree
from repro.cube.cover_index import CoverIndex


@dataclass(frozen=True)
class FsckIssue:
    """One verified violation: a stable machine-readable code, the node
    it anchors to (when there is one), and a human-readable message."""

    code: str
    message: str
    node: Optional[int] = None

    def __str__(self):
        where = f" [node {self.node}]" if self.node is not None else ""
        return f"{self.code}{where}: {self.message}"


@dataclass
class FsckReport:
    """The outcome of a verification run."""

    issues: List[FsckIssue] = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str, node: Optional[int] = None) -> None:
        self.issues.append(FsckIssue(code, message, node))

    def summary(self) -> str:
        counts = ", ".join(
            f"{count} {what}" for what, count in self.checked.items()
        )
        if self.ok:
            return f"clean ({counts})"
        return f"{len(self.issues)} issue(s) found ({counts})"

    def __str__(self):
        lines = [str(issue) for issue in self.issues]
        lines.append(self.summary())
        return "\n".join(lines)


def _check_structure(tree: QCTree, report: FsckReport) -> set:
    """Walk the child maps; returns the set of reachable live nodes."""
    free = tree._free_ids
    n_slots = len(tree.node_dim)
    live: set = {tree.root}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node in free:
            report.add("structure-freed-reachable",
                       "freed slot still reachable from the root", node)
        if node != tree.root:
            parent = tree.parent[node]
            dim, value = tree.node_dim[node], tree.node_value[node]
            if not (0 <= parent < n_slots):
                report.add("structure-bad-parent",
                           f"parent id {parent} out of range", node)
            elif tree.child(parent, dim, value) != node:
                report.add("structure-parent-mismatch",
                           f"parent {parent} does not list this node under "
                           f"label ({dim}, {value!r})", node)
            if not (0 <= dim < tree.n_dims):
                report.add("structure-bad-dim",
                           f"label dimension {dim} outside "
                           f"0..{tree.n_dims - 1}", node)
        for dim, by_value in tree.children[node].items():
            if node != tree.root and dim <= tree.node_dim[node]:
                report.add("structure-dim-order",
                           f"child dimension {dim} does not increase past "
                           f"the node's own dimension "
                           f"{tree.node_dim[node]}", node)
            for value, child in by_value.items():
                if not (0 <= child < n_slots):
                    report.add("structure-bad-child",
                               f"child id {child} out of range under label "
                               f"({dim}, {value!r})", node)
                    continue
                if (tree.node_dim[child] != dim
                        or tree.node_value[child] != value):
                    report.add("structure-label-mismatch",
                               f"child {child} is labeled "
                               f"({tree.node_dim[child]}, "
                               f"{tree.node_value[child]!r}) but stored "
                               f"under ({dim}, {value!r})", node)
                if child in live:
                    # Every non-root node has exactly one tree parent; a
                    # second incoming edge means the child maps form a
                    # cycle or a DAG.
                    report.add("structure-cycle",
                               f"node {child} is reachable by two paths "
                               f"(second edge ({dim}, {value!r}))", node)
                    continue
                live.add(child)
                stack.append(child)
    for slot in free:
        if (tree.children[slot] or tree.links[slot]
                or tree.state[slot] is not None):
            report.add("structure-freed-not-empty",
                       "freed slot still holds children, links or a state",
                       slot)
    allocated = n_slots - len(free)
    if len(live) < allocated:
        report.add("structure-orphaned",
                   f"{allocated - len(live)} allocated node(s) are "
                   f"unreachable from the root")
    report.checked["nodes"] = len(live)
    return live


def _check_links(tree: QCTree, live: set, report: FsckReport) -> None:
    n_links = 0
    for src in live:
        for dim, by_value in tree.links[src].items():
            for value, target in by_value.items():
                n_links += 1
                if target not in live:
                    report.add("link-dead-target",
                               f"link ({dim}, {value!r}) targets dead or "
                               f"unreachable node {target}", src)
                    continue
                if (tree.node_dim[target] != dim
                        or tree.node_value[target] != value):
                    report.add("link-label-mismatch",
                               f"link ({dim}, {value!r}) targets node "
                               f"{target} labeled "
                               f"({tree.node_dim[target]}, "
                               f"{tree.node_value[target]!r})", src)
                if tree.child(src, dim, value) == target:
                    report.add("link-duplicates-edge",
                               f"link ({dim}, {value!r}) duplicates a tree "
                               f"edge (Definition 1 forbids both)", src)
                if src != tree.root and dim <= tree.node_dim[src]:
                    report.add("link-dim-order",
                               f"link dimension {dim} does not point past "
                               f"the source's dimension "
                               f"{tree.node_dim[src]}", src)
    report.checked["links"] = n_links


def _check_classes(tree: QCTree, live: set, report: FsckReport) -> list:
    """Every class bound must be reachable by its own point query."""
    class_nodes = [n for n in live if tree.state[n] is not None]
    for node in class_nodes:
        ub = tree.upper_bound_of(node)
        try:
            found = locate(tree, ub)
        except Exception as exc:
            report.add("class-routing-error",
                       f"point query for own bound {format_cell(ub)} "
                       f"raised {exc!r}", node)
            continue
        if found is None:
            report.add("class-unreachable",
                       f"upper bound {format_cell(ub)} is not reachable "
                       f"by its own point query", node)
        elif found != node:
            report.add("class-misrouted",
                       f"point query for {format_cell(ub)} lands on node "
                       f"{found} ({format_cell(tree.upper_bound_of(found))})"
                       f" instead", node)
    report.checked["classes"] = len(class_nodes)
    return class_nodes


def _check_aggregates(tree: QCTree, table, class_nodes: list,
                      samples: Optional[int], seed: int,
                      report: FsckReport, cover_index=None) -> None:
    if samples is not None and samples < len(class_nodes):
        rng = random.Random(seed)
        class_nodes = rng.sample(sorted(class_nodes), samples)
    if cover_index is not None and cover_index.n_rows == table.n_rows:
        # Reuse the caller's long-lived index (the warehouse keeps one
        # per live table) rather than re-deriving all posting lists; a
        # row-count mismatch means it is stale, so fall back to a fresh
        # build — a verifier must not trust a suspect structure.
        index = cover_index
    else:
        index = CoverIndex(table)
    agg = tree.aggregate
    checked = 0
    for node in class_nodes:
        ub = tree.upper_bound_of(node)
        checked += 1
        rows = index.positions(ub)
        if not rows:
            report.add("aggregate-empty-cover",
                       f"class bound {format_cell(ub)} covers no base "
                       f"row", node)
            continue
        closure = index.closure(ub)
        if closure != ub:
            report.add("aggregate-not-closed",
                       f"bound {format_cell(ub)} is not closed: the rows "
                       f"it covers meet at {format_cell(closure)}", node)
        try:
            want = agg.value(agg.state(table, sorted(rows)))
        except Exception as exc:
            report.add("aggregate-recompute-error",
                       f"recomputing {format_cell(ub)} raised {exc!r}",
                       node)
            continue
        got = tree.value_at(node)
        # repr: a NaN (MIN/MAX over a NaN measure) equals itself.
        if got != want and repr(got) != repr(want):
            report.add("aggregate-mismatch",
                       f"class {format_cell(ub)} stores {got!r} but its "
                       f"cover set aggregates to {want!r}", node)
    report.checked["aggregates"] = checked


def fsck_tree(tree, table=None, samples: Optional[int] = 64,
              seed: int = 0, cover_index=None) -> FsckReport:
    """Verify ``tree`` — a dict tree, or a frozen one through its thaw
    (:meth:`QCTree.from_frozen`); returns a :class:`FsckReport` (never
    raises on corruption).

    ``table`` enables the aggregate re-derivation pass; ``samples``
    bounds how many classes that pass recomputes (None = all).
    ``cover_index``, when given and in sync with ``table`` (same row
    count), is reused for that pass instead of building the posting
    lists from scratch.
    """
    report = FsckReport()
    try:
        if not isinstance(tree, QCTree):
            tree = QCTree.from_frozen(tree)
        live = _check_structure(tree, report)
        _check_links(tree, live, report)
        if any(i.code.startswith("structure-") for i in report.issues):
            # The class and aggregate passes walk parent chains and
            # child maps and assume the invariants the structure pass
            # just found broken — descending further risks nontermination
            # (cycles, self-parents) for no gain: the structural finding
            # already condemns the tree.
            return report
        class_nodes = _check_classes(tree, live, report)
        if table is not None:
            if table.n_dims != tree.n_dims:
                report.add("table-dim-mismatch",
                           f"base table has {table.n_dims} dimensions, "
                           f"tree has {tree.n_dims}")
            else:
                _check_aggregates(tree, table, class_nodes, samples, seed,
                                  report, cover_index=cover_index)
    except Exception as exc:
        # A verifier must survive arbitrary corruption; anything the
        # targeted checks did not anticipate becomes a finding.
        report.add("fsck-crashed", f"verification aborted: {exc!r}")
    return report
