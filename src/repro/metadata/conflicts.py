"""Distributed conflict detection (paper Section 5.4, Figure 8).

Two conflict types:

* ``"same-name"`` — two clients create files with the same filename but
  different contents: two first-level nodes (prevID = 0) share a name.
* ``"divergence"`` — concurrent edits of one version: a node with
  multiple children.

Clients never lock; they upload freely and run this detection when new
metadata arrives (Algorithm 3 line 6).  Resolution keeps the most
recent sibling as the winner and re-labels the losers as conflicted
copies, preserving their data — the same policy Dropbox applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metadata.node import ROOT_ID, MetadataNode
from repro.metadata.tree import MetadataTree


@dataclass(frozen=True)
class Conflict:
    """One detected conflict.

    Attributes:
        kind: ``"same-name"`` or ``"divergence"``.
        name: The contested filename.
        node_ids: The conflicting sibling nodes (2+).
        parent_id: Common parent (ROOT_ID for same-name conflicts).
    """

    kind: str
    name: str
    node_ids: tuple[str, ...]
    parent_id: str


def _branch_leads_to_name(tree: MetadataTree, node: MetadataNode,
                          name: str) -> bool:
    """Whether ``node``'s subtree contains a leaf still named ``name``.

    This is what makes a conflict *resolved*: renaming the losing branch
    to a conflicted-copy name moves its head off the contested filename,
    so the branch stops competing even though the fork stays in history.
    """
    kids = tree.children(node.node_id)
    if not kids:
        return node.name == name
    return any(_branch_leads_to_name(tree, kid, name) for kid in kids)


def _live_branches(
    tree: MetadataTree, siblings: list[MetadataNode], name: str
) -> list[MetadataNode]:
    return [s for s in siblings if _branch_leads_to_name(tree, s, name)]


def detect_conflicts(tree: MetadataTree) -> list[Conflict]:
    """Scan the whole tree for both conflict types.

    A fork only counts as a conflict while two or more of its branches
    still lead to a head under the contested filename; resolved losers
    (renamed to conflicted copies) no longer compete.
    """
    conflicts: list[Conflict] = []
    # type 1: same filename created independently at the first level
    first_level: dict[str, list[MetadataNode]] = {}
    for node in tree.children(ROOT_ID):
        first_level.setdefault(node.name, []).append(node)
    for name, nodes in sorted(first_level.items()):
        live = _live_branches(tree, nodes, name)
        if len(live) > 1:
            conflicts.append(
                Conflict(
                    kind="same-name",
                    name=name,
                    node_ids=tuple(sorted(n.node_id for n in live)),
                    parent_id=ROOT_ID,
                )
            )
    # type 2: any node with multiple children (concurrent edits)
    for node in tree:
        kids = tree.children(node.node_id)
        if len(kids) > 1:
            live = _live_branches(tree, kids, node.name)
            if len(live) > 1:
                conflicts.append(
                    Conflict(
                        kind="divergence",
                        name=node.name,
                        node_ids=tuple(sorted(k.node_id for k in live)),
                        parent_id=node.node_id,
                    )
                )
    return conflicts


def conflicts_for_node(tree: MetadataTree, node: MetadataNode) -> list[Conflict]:
    """The paper's incremental check when one new node arrives.

    "When new metadata is downloaded from the cloud, we check for
    conflicts by first checking if it has a parent.  If so [new file],
    we check for the first type ... The second type of conflict arises
    if the new node has a parent.  We traverse the tree upwards from
    this node, and detect a conflict if we find a node with multiple
    children."
    """
    conflicts: list[Conflict] = []
    if node.is_new_file:
        same = [
            n
            for n in tree.children(ROOT_ID, name=node.name)
            if n.node_id != node.node_id
        ]
        if same:
            live = _live_branches(tree, same + [node], node.name)
            if len(live) > 1:
                conflicts.append(
                    Conflict(
                        kind="same-name", name=node.name,
                        node_ids=tuple(sorted(n.node_id for n in live)),
                        parent_id=ROOT_ID,
                    )
                )
        return conflicts
    cursor = node
    while not cursor.is_new_file:
        if cursor.prev_id not in tree:
            break  # ancestor not (yet) synced; next sync will re-check
        parent = tree.get(cursor.prev_id)
        # a chain step is O(1): only a fork sorts its siblings
        if tree.child_count(cursor.prev_id) > 1:
            siblings = tree.children(cursor.prev_id)
            live = _live_branches(tree, siblings, parent.name)
            if len(live) > 1:
                conflicts.append(
                    Conflict(
                        kind="divergence",
                        name=parent.name,
                        node_ids=tuple(sorted(s.node_id for s in live)),
                        parent_id=cursor.prev_id,
                    )
                )
        cursor = parent
    return conflicts


def resolution_winner(tree: MetadataTree, conflict: Conflict) -> str:
    """Deterministic winner: latest modified, ties by node id.

    Every client computes the same winner from the same tree, so no
    coordination is needed to agree.
    """
    nodes = [tree.get(i) for i in conflict.node_ids]
    return max(nodes, key=lambda n: (n.modified, n.node_id)).node_id


def conflicted_copy_name(name: str, client_id: str) -> str:
    """Label for the losing version, preserving the original extension."""
    if "." in name:
        stem, _, ext = name.rpartition(".")
        return f"{stem} (conflicted copy {client_id}).{ext}"
    return f"{name} (conflicted copy {client_id})"
