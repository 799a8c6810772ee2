"""Code trees: the tree view of a map's plan, and the tree oracles.

Each value gets a leaf of a full binary tree; more probable values sit
nearer the root so their keys touch fewer bits.  A map plans its rows
straight from the leaf depths (plan.py) and never builds a tree; a
CodeTree is the same shape as linked nodes, for reading (BloomMap.tree,
built on first use) and for building a plan by hand.  The tree builders,
the per-node count and certification steps over a CodeTree, quadratic
Garsia-Wachs and the structural inequality checks stay here as the
oracles the tests hold the plan rows to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .plan import (
    CertificationReport,
    _certify_rows,
    _check_epsilon,
    _node_counts,
    _postorder,
    huffman_depths,
    plan_bounds,
    row_depths,
    size_bit_array,
)

__all__ = [
    "CodeTree",
    "TreeNode",
    "Geometry",
    "TreePropertyReport",
    "build_alphabetic_tree",
    "tree_from_rows",
    "tree_from_depths",
    "assign_offsets",
    "assign_hash_counts",
    "certify_error_bounds",
    "compute_geometry",
    "refresh_base_starts",
    "tree_property_report",
]


@dataclass
class TreeNode:
    index: int
    parent: int | None = None
    left: int | None = None
    right: int | None = None
    depth: int = 0
    offset: int = -1       # level-order position, root = 0
    k: int = 0             # hash functions probed at this node
    base_start: int = -1   # base indices used here: base_start+1 .. base_start+k
    value_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class CodeTree:
    """A full binary tree over value indices 0..b-1 (leaves, left to right).

    Built by tree_from_depths, or from a map's plan rows by
    tree_from_rows, and numbered as tree_from_depths numbers it: each node
    after the subtrees of its two children (postorder).  Queries never
    read it.
    """

    def __init__(self):
        self.nodes: list[TreeNode] = []
        self.root: int | None = None
        self.leaves: tuple[int, ...] = ()
        self.certification: CertificationReport | None = None

    # -- lookups ------------------------------------------------------

    @property
    def b(self) -> int:
        return len(self.leaves)

    def leaf_depths(self) -> tuple[int, ...]:
        return tuple(self.nodes[i].depth for i in self.leaves)

    def path_ids(self, value_index: int) -> tuple[int, ...]:
        """Node indices from the root down to the leaf of this value."""
        path = []
        cur: int | None = self.leaves[value_index]
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return tuple(reversed(path))

    def path_weight(self, value_index: int) -> int:
        """Total hash count t_i along the path of value i."""
        return sum(self.nodes[w].k for w in self.path_ids(value_index))

    def preorder(self):
        """Yield nodes root-first, each internal followed by left then right."""
        stack = [self.root]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)


# -- optimal alphabetic construction ----------------------------------


def _garsia_wachs_depths(weights) -> list[int]:
    """Leaf depths of an optimal alphabetic binary tree.

    Classic two-phase Garsia-Wachs: repeatedly combine the leftmost
    adjacent pair whose left member does not exceed the weight two to its
    right, then migrate the combined node left past lighter weights.  The
    depths of the original leaves in the resulting (non-alphabetic)
    combination tree are the optimal alphabetic depths.  It takes
    quadratic time; maps plan with plan.huffman_depths, and this stays as
    the oracle for unsorted weights, where the alphabetic order binds.
    """
    n = len(weights)
    if n == 1:
        return [0]
    INF = math.inf
    # items: [weight, payload]; payload is a leaf index or a (left, right) pair
    seq: list[list] = [[INF, None]]
    seq.extend([w, i] for i, w in enumerate(weights))
    seq.append([INF, None])
    j = 2
    while len(seq) > 3:
        while seq[j - 1][0] > seq[j + 1][0]:
            j += 1
        s = seq[j - 1][0] + seq[j][0]
        merged = [s, (seq[j - 1][1], seq[j][1])]
        del seq[j - 1 : j + 1]
        i = j - 2
        while seq[i][0] < s:
            i -= 1
        seq.insert(i + 1, merged)
        # items up to i did not move, so no pair left of i can combine yet
        j = max(2, i)
    depths = [0] * n
    stack = [(seq[1][1], 0)]
    while stack:
        payload, depth = stack.pop()
        if isinstance(payload, tuple):
            stack.append((payload[0], depth + 1))
            stack.append((payload[1], depth + 1))
        else:
            depths[payload] = depth
    return depths


def tree_from_depths(depths) -> CodeTree:
    """Build the unique full binary tree whose leaves, left to right, sit at
    the given depths, setting each node's depth and numbering the leaves
    as it makes them.  Raises ValueError if no such tree exists."""
    tree = CodeTree()
    nodes, leaves = tree.nodes, []
    stack: list[TreeNode] = []  # the subtrees built so far, left to right
    for depth in depths:
        if depth < 0:
            raise ValueError(f"negative leaf depth {depth}")
        node = TreeNode(len(nodes), depth=depth, value_index=len(leaves))
        leaves.append(node.index)
        nodes.append(node)
        while stack and stack[-1].depth == node.depth > 0:
            left, right = stack.pop(), node
            node = TreeNode(len(nodes), left=left.index, right=right.index, depth=right.depth - 1)
            left.parent = right.parent = node.index
            nodes.append(node)
        stack.append(node)
    if len(stack) != 1 or stack[0].depth != 0:
        raise ValueError(f"depth sequence {tuple(depths)} does not describe a full binary tree")
    tree.root, tree.leaves = stack[0].index, tuple(leaves)
    return tree


def build_alphabetic_tree(dist) -> CodeTree:
    """Optimal alphabetic binary tree for a ValueDistribution: leaf i (left
    to right) is value i of the sorted distribution, at its Huffman depth,
    so the most probable values end up shallowest.  The structural
    guarantees checked by tree_property_report assume this sorted-depth
    shape."""
    return tree_from_depths(huffman_depths(dist.probs))


def tree_from_rows(rows) -> CodeTree:
    """The code tree that a tree map's plan rows describe, numbered as
    tree_from_depths numbers it: the nodes, depths, offsets, counts and
    base index slices of the plan, for reading."""
    depth = row_depths(rows)
    tree = tree_from_depths([depth[r] for r, row in enumerate(rows) if row[4] < 0])
    for index, (first, last, offset, *_) in zip(_postorder(rows), rows):
        node = tree.nodes[index]
        node.offset, node.k, node.base_start = offset, last - first + 1, first - 1
    return tree


# -- offsets and base indices -----------------------------------------


def assign_offsets(tree: CodeTree) -> CodeTree:
    """Number nodes in level order: root 0, then each level left to right."""
    queue = [tree.root]
    counter = 0
    while queue:
        nxt = []
        for idx in queue:
            node = tree.nodes[idx]
            node.offset = counter
            counter += 1
            if not node.is_leaf:
                nxt.append(node.left)
                nxt.append(node.right)
        queue = nxt
    return tree


def refresh_base_starts(tree: CodeTree) -> None:
    """Recompute every node's base index slice from the current hash counts."""
    # base index slices are consecutive down every root-to-leaf path
    order = [tree.root]
    tree.nodes[tree.root].base_start = 0
    while order:
        node = tree.nodes[order.pop()]
        if not node.is_leaf:
            for child in (node.left, node.right):
                tree.nodes[child].base_start = node.base_start + node.k
                order.append(child)


# -- hash count schemes -----------------------------------------------


def assign_hash_counts(tree: CodeTree, epsilon: float, scheme: str = "standard",
                       custom=None) -> CodeTree:
    """Assign per-node hash counts and certify them against epsilon.

    scheme is "standard" (1 probe per internal node), "fast" (2 probes,
    cheaper traversal for more space), or "custom" (explicit counts, e.g.
    to boost the root).  Leaf counts are bumped as needed until the
    analytic false-positive and misassignment bounds fit the budget; the
    certification report lands on tree.certification.
    """
    _check_epsilon(epsilon)
    count = _node_counts(tree.b, epsilon, scheme, custom)
    for node in tree.nodes:
        node.k = count(node.index, node.is_leaf)
    tree.certification = certify_error_bounds(tree, epsilon)
    return tree


# -- error bound certification ----------------------------------------


def analytic_error_bounds(tree: CodeTree) -> tuple[float, tuple[float, ...]]:
    """(false positive bound, per-value misassignment bounds) for the
    tree's current hash counts: plan.plan_bounds over its rows."""
    return plan_bounds(_tree_rows(tree))[:2]


def _tree_rows(tree: CodeTree) -> list[list[int]]:
    """The plan rows of a code tree, one per node in preorder."""
    rows: list[list[int]] = []
    low = 0  # a node's smallest value is the next leaf in preorder
    stack = [(tree.root, -1, -1)]  # (node, parent row, on_fail)
    while stack:
        idx, up, fail = stack.pop()
        node = tree.nodes[idx]
        if fail > up:  # only a right child fails to a row after its parent's
            rows[up][4] = len(rows)
        rows.append([node.base_start + 1, node.base_start + node.k, node.offset,
                     low, -1, fail, up])
        if node.is_leaf:
            low += 1
        else:
            # a left child fails where its parent does; a right child fails
            # to its left sibling, which directly follows the parent
            stack.append((node.right, len(rows) - 1, len(rows)))
            stack.append((node.left, len(rows) - 1, fail))
    return rows


def certify_error_bounds(tree: CodeTree, epsilon: float) -> CertificationReport:
    """Check the analytic error bounds against epsilon, raising leaf hash
    counts until both hold: the plan rows' certification, its counts
    written back to the tree's leaves.  The returned report always
    satisfies report.certified."""
    _check_epsilon(epsilon)
    refresh_base_starts(tree)
    rows = _tree_rows(tree)
    report = _certify_rows(rows, epsilon)
    for w, row in zip(tree.leaves, (row for row in rows if row[4] < 0)):
        tree.nodes[w].k = row[1] - row[0] + 1
    return report


# -- geometry ---------------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    """Bit array sizing for a tree with counts: m bits and per-value path
    weights t."""

    m: int
    t: tuple[int, ...]


def compute_geometry(tree: CodeTree, counts, epsilon: float) -> Geometry:
    """m for a tree and key counts, with its path weights t: the
    plan.size_bit_array rule that BloomMap._size_for applies to a map's plan."""
    _check_epsilon(epsilon)
    t = plan_bounds(_tree_rows(tree))[2]
    return Geometry(m=size_bit_array(counts, t), t=t)


# -- structural inequalities ------------------------------------------


@dataclass(frozen=True)
class TreePropertyReport:
    """Results of the structural inequality checks on a full binary tree.

    path_difference_ok: for i < j, the part of value j's path outside
        value i's path has at least log2(sum_{r=i..j} 2**(l_j - l_r))
        nodes.  Only meaningful when leaf depths are non-decreasing left
        to right; otherwise it is skipped and reported as None.
    level_sum_ok: sum over depths d of |nodes at depth d| / 2**d is at
        most 1 + sum_i l_i / 2**l_i.
    left_branch_ok: the path to leaf i (1-based) takes at most
        log2(b - i + 1) left turns.
    """

    path_difference_ok: bool | None
    level_sum_ok: bool
    left_branch_ok: bool

    @property
    def path_difference_skipped(self) -> bool:
        return self.path_difference_ok is None

    @property
    def all_ok(self) -> bool:
        return (
            self.path_difference_ok is not False
            and self.level_sum_ok
            and self.left_branch_ok
        )


def tree_property_report(tree: CodeTree) -> TreePropertyReport:
    """Run the three structural checks in exact arithmetic."""
    depths = tree.leaf_depths()
    b = tree.b

    sorted_depths = all(a <= c for a, c in zip(depths, depths[1:]))
    path_diff: bool | None
    if not sorted_depths:
        path_diff = None
    else:
        path_diff = True
        paths = [tree.path_ids(i) for i in range(b)]
        for i, pi in enumerate(paths):
            for j in range(i + 1, b):
                pj = paths[j]
                shared = 0
                for a, c in zip(pi, pj):
                    if a != c:
                        break
                    shared += 1
                outside = len(pj) - shared
                total = sum(1 << (depths[j] - depths[r]) for r in range(i, j + 1))
                if (1 << outside) < total:
                    path_diff = False

    by_depth: dict[int, int] = {}
    for node in tree.nodes:
        by_depth[node.depth] = by_depth.get(node.depth, 0) + 1
    lhs = sum(Fraction(cnt, 1 << d) for d, cnt in by_depth.items())
    rhs = 1 + sum(Fraction(l, 1 << l) for l in depths)
    level_sum = lhs <= rhs

    def left_turns(i: int) -> int:
        path = tree.path_ids(i)
        return sum(tree.nodes[above].left == below for above, below in zip(path, path[1:]))

    left_branch = all((1 << left_turns(i)) <= b - i for i in range(b))

    return TreePropertyReport(
        path_difference_ok=path_diff,
        level_sum_ok=level_sum,
        left_branch_ok=left_branch,
    )
