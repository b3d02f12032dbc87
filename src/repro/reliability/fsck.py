"""Verification of QC-trees against their base table (a tree *fsck*).

A compressed summary that silently drifts from its base table is worse
than no summary: queries return plausible wrong numbers.  Theorems 1
and 2 make a table's QC-tree unique, so checking a tree is an equality:
rebuild it from the table (:func:`~repro.core.construct.build_frozen`)
and compare the two canonical forms (:func:`~repro.shard.pack.
canonical_bytes`) byte for byte — every class, link and value.  Checks,
in order:

``structure`` (dict trees)
    Parents alive and consistent with child maps, labels matching edge
    keys, dimensions strictly increasing along every root path, no
    cycles, no freed slot reachable or still holding children, links or
    a state, no allocated node orphaned.  A finding ends the run: the
    comparison compiles the tree, which corrupt child maps could hang.

``links`` (dict trees)
    Every drill-down link targets a live node labeled with the link's
    own ``(dim, value)`` (Definition 1), never duplicates a tree edge,
    and points strictly forward in dimension order.

``rebuild`` (with a base table)
    The canonical form equals the rebuild's; ``rebuild-mismatch`` names
    the first differing section and row as a cell.  A frozen view is
    compared as it is.

Nothing raises on corruption: the :class:`FsckReport` lists every
finding (the CLI ``python -m repro fsck`` prints them), and
:meth:`QCWarehouse.verify <repro.core.warehouse.QCWarehouse.verify>`
rebuilds every piece whose report fails from its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.construct import build_frozen
from repro.core.qctree import QCTree
from repro.errors import SerializationError


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
        verdict = "clean" if self.ok else f"{len(self.issues)} issue(s) found"
        return f"{verdict} ({counts})" if counts else verdict

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


def fsck_tree(*trees, table=None) -> FsckReport:
    """Verify ``trees`` — dict trees and frozen views of one table;
    returns a :class:`FsckReport` (never raises on corruption).

    A dict tree gets the structure and link passes; a structural finding
    ends the run, since a compile of corrupt child maps need not
    terminate.  With ``table``, each tree's canonical form is then
    compared with a rebuild's (:func:`~repro.core.construct.build_frozen`
    of ``table``): every class, link and value.
    """
    report = FsckReport()
    try:
        want = None
        for tree in trees:
            if isinstance(tree, QCTree):
                live = _check_structure(tree, report)
                _check_links(tree, live, report)
                if any(i.code.startswith("structure-")
                       for i in report.issues):
                    return report
            if table is None:
                continue
            if want is None:
                want = build_frozen(table, tree.aggregate).signature()
                report.checked.update(
                    (what, want["meta"]["counts"][what])
                    for what in ("nodes", "links", "classes"))
            try:
                difference = tree.signature().diff(want, table.decode_value)
            except SerializationError as exc:
                difference = f"it has no canonical form ({exc})"
            if difference is not None:
                kind = "dict" if isinstance(tree, QCTree) else "frozen"
                report.add("rebuild-mismatch", f"the {kind} tree differs "
                           f"from a rebuild of its table: {difference}")
    except Exception as exc:
        # A verifier must survive arbitrary corruption; anything the
        # targeted checks did not anticipate becomes a finding.
        report.add("fsck-crashed", f"verification aborted: {exc!r}")
    return report
