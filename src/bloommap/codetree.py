"""Code trees: the shape behind the tree-structured map variant.

Each value gets a leaf of a full binary tree; more probable values sit
nearer the root so their keys touch fewer bits.  The tree is the optimal
alphabetic binary tree for the sorted probability vector (leaves stay in
probability order), built with the Garsia-Wachs algorithm.  Every node
then receives a level-order offset, a hash count k, and a consecutive
slice of base hash indices, and the whole shape is certified against the
requested error budget before any key is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import LOG2E, _check_epsilon
from .errors import InvalidScheme

__all__ = [
    "CodeTree",
    "TreeNode",
    "Geometry",
    "CertificationReport",
    "TreePropertyReport",
    "build_alphabetic_tree",
    "plan_tree",
    "tree_from_depths",
    "assign_offsets",
    "assign_hash_counts",
    "certify_error_bounds",
    "compute_geometry",
    "size_bit_array",
    "refresh_base_starts",
    "left_branch_count",
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

    Built once per map, by tree_from_depths, then treated as immutable;
    queries only read it.
    """

    def __init__(self):
        self.nodes: list[TreeNode] = []
        self.root: int | None = None
        self.leaves: tuple[int, ...] = ()
        self.certification: CertificationReport | None = None
        self.rows: list[list[int]] | None = None  # plan rows of the certified counts

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
    combination tree are the optimal alphabetic depths.
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
    """Optimal alphabetic binary tree for a ValueDistribution.

    Leaf i (left to right) corresponds to value i of the sorted
    distribution, so the most probable values end up shallowest.  Ties in
    the probabilities can leave the raw depth sequence unsorted; since the
    probabilities are non-increasing, rearranging the same depth multiset
    into non-decreasing order costs no more (and a full tree realizing it
    always exists), so we canonicalize.  The structural guarantees checked
    by tree_property_report assume this shape.
    """
    depths = sorted(_garsia_wachs_depths(dist.probs))
    return tree_from_depths(depths)


def plan_tree(dist, epsilon: float, scheme: str = "standard", custom=None) -> CodeTree:
    """The certified code tree of a tree map: the alphabetic shape for dist,
    level-order offsets, and scheme's hash counts for epsilon.

    Building a map and loading one both plan through here, so a map file
    stores the distribution and never the plan.  Custom counts are taken
    as stated: counts that miss the budget raise InvalidScheme unbumped, so
    a file's counts never reach the bump loop.
    """
    tree = build_alphabetic_tree(dist)
    assign_offsets(tree)
    if scheme != "custom":
        return assign_hash_counts(tree, epsilon, scheme)
    _check_epsilon(epsilon)
    _scheme_counts(tree, epsilon, scheme, custom)
    if not CertificationReport(epsilon, *analytic_error_bounds(tree)).certified:
        raise InvalidScheme(f"counts do not certify for epsilon={epsilon!r}")
    tree.certification = certify_error_bounds(tree, epsilon)
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


def _leaf_floor(epsilon: float) -> int:
    return max(math.ceil(math.log2(1.0 / epsilon)), 1)


def _scheme_counts(tree: CodeTree, epsilon: float, scheme: str, custom) -> None:
    b = tree.b
    if scheme == "standard":
        # internal nodes get a single probe; leaves absorb the error budget
        # plus a harmonic-number term that pays for the deep right spine
        if b == 1:
            leaf_k = _leaf_floor(epsilon)
        else:
            harmonic = math.fsum(1.0 / r for r in range(1, b + 1))
            leaf_k = math.ceil(math.log2(1.0 / epsilon) + math.log2(harmonic - 1.0) + 1.0)
        internal_k = 1
    elif scheme == "fast":
        # two probes per internal node halve expected traversal work
        leaf_k = math.ceil(math.log2(1.0 / epsilon)) + 2
        internal_k = 2
    elif scheme == "custom":
        if custom is None:
            raise InvalidScheme("custom scheme needs a per-node hash count mapping")
        floor = _leaf_floor(epsilon)
        # a count of floor + 64 already leaves every error term it enters
        # below 2^-64 * epsilon, so a larger one only adds probes; the cap
        # keeps the hash family, and so a query's work, linear in b
        cap = floor + 64
        for node in tree.nodes:
            try:
                k = int(custom[node.index])
            except (KeyError, IndexError):
                raise InvalidScheme(f"custom counts missing node {node.index}") from None
            if not 1 <= k <= cap:
                raise InvalidScheme(f"node {node.index}: hash count {k} outside 1..{cap}")
            if node.is_leaf and k < floor:
                raise InvalidScheme(
                    f"leaf {node.index}: hash count {k} below floor {floor}"
                )
            node.k = k
        return
    else:
        raise InvalidScheme(f"unknown scheme {scheme!r}")
    floor = _leaf_floor(epsilon)
    leaf_k = max(leaf_k, floor)
    for node in tree.nodes:
        node.k = leaf_k if node.is_leaf else internal_k


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
    _scheme_counts(tree, epsilon, scheme, custom)
    tree.certification = certify_error_bounds(tree, epsilon)
    return tree


# -- error bound certification ----------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Analytic error bounds for a tree with assigned hash counts.

    false_positive_bound is the sum over values of 2**-t_i.  Entry i of
    misassignment_bounds sums 2**-(path weight outside value i's path)
    over the values that could shadow i.  bumped lists the leaf value
    indices whose counts were raised, in order.
    """

    epsilon: float
    false_positive_bound: float
    misassignment_bounds: tuple[float, ...]
    bumped: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.false_positive_bound <= self.epsilon and all(
            x <= self.epsilon for x in self.misassignment_bounds
        )


def analytic_error_bounds(tree: CodeTree) -> tuple[float, tuple[float, ...]]:
    """(false positive bound, per-value misassignment bounds) for the
    tree's current hash counts: plan_bounds over its rows."""
    return plan_bounds(_tree_rows(tree))[:2]


def plan_bounds(rows) -> tuple[float, tuple[float, ...], tuple[int, ...]]:
    """(false positive bound, per-value misassignment bounds, path weights
    t) of a map's plan rows (first, last, offset, low, on_pass, on_fail, up).

    The bounds assume at least half the bit array stays zero.  The rows
    are a preorder forest, one tree on the tree layout and b one-row trees
    on the flat one: a row's left child is the next row and on_pass its
    right child (-1 at a leaf).  Value j > i shadows i with 2**-(the
    counts on j's path below their lowest common ancestor, or all of them
    from a tree right of i's), so per-subtree sums make this linear.
    """
    below = [0.0] * len(rows)   # sum over leaves j under r of 2**-(counts from r to j)
    shadow = [0.0] * len(rows)  # terms of the values right of r's path
    fp = 0.0                    # below summed over the roots right of r
    for r in reversed(range(len(rows))):
        first, last, _, _, right, _, up = rows[r]
        inner = 1.0 if right < 0 else below[r + 1] + below[right]
        below[r] = math.ldexp(inner, first - last - 1)
        if up < 0:
            shadow[r], fp = fp, fp + below[r]
    t = [0] * len(rows)         # counts from r's root down to r
    for r, (first, last, _, _, right, _, up) in enumerate(rows):
        t[r] = (t[up] if up >= 0 else 0) + last - first + 1
        if right >= 0:
            shadow[r + 1] = shadow[r] + below[right]
            shadow[right] = shadow[r]
    leaves = [r for r, row in enumerate(rows) if row[4] < 0]
    return fp, tuple(shadow[r] for r in leaves), tuple(t[r] for r in leaves)


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
    counts until both hold.

    Each round finds the most violated constraint and bumps the leaf
    contributing its largest term, so the loop converges quickly (every
    bump at least halves that term).  The returned report always
    satisfies report.certified, and tree.rows holds the plan rows of the
    certified counts, which a map then reads as its plan.
    """
    _check_epsilon(epsilon)
    refresh_base_starts(tree)  # once: a leaf bump moves no node's slice
    leaves = [tree.nodes[w] for w in tree.leaves]
    bumped: list[int] = []
    while True:
        rows = _tree_rows(tree)
        fp, mis, t = plan_bounds(rows)
        worst_gap = fp - epsilon
        worst_constraint = -1  # -1 means the false positive bound
        for i, bound in enumerate(mis):
            if bound - epsilon > worst_gap:
                worst_gap = bound - epsilon
                worst_constraint = i
        if worst_gap <= 0.0:
            break
        if worst_constraint < 0:
            target = min(range(tree.b), key=lambda i: t[i])
        else:
            i = worst_constraint
            shared = set(tree.path_ids(i))
            target = min(  # the largest term: least weight below the common ancestor
                range(i + 1, tree.b),
                key=lambda j: t[j] - sum(tree.nodes[w].k for w in tree.path_ids(j) if w in shared),
            )
        leaves[target].k += 1
        bumped.append(target)
    tree.rows = rows
    return CertificationReport(
        epsilon=epsilon,
        false_positive_bound=fp,
        misassignment_bounds=mis,
        bumped=tuple(bumped),
    )


# -- geometry ---------------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    """Bit array sizing for a tree with counts: m bits and per-value path
    weights t."""

    m: int
    t: tuple[int, ...]


def compute_geometry(tree: CodeTree, counts, epsilon: float) -> Geometry:
    """m for a tree and key counts, with its path weights t: the
    size_bit_array rule that BloomMap._size_for applies to a map's plan."""
    _check_epsilon(epsilon)
    t = plan_bounds(_tree_rows(tree))[2]
    return Geometry(m=size_bit_array(counts, t), t=t)


def size_bit_array(counts, t) -> int:
    """m = ceil(log2(e) * sum_i count_i * t_i), the one sizing rule of both
    layouts: count_i keys of value i each set t_i bits, and this m leaves
    about half the array zero, as every certified bound assumes."""
    if len(counts) != len(t):
        raise ValueError(f"{len(counts)} counts for {len(t)} values")
    if any(c < 0 for c in counts):
        raise ValueError("negative key count")
    if sum(counts) == 0:
        raise ValueError("refusing to size an empty map (all counts zero)")
    return math.ceil(LOG2E * sum(c * ti for c, ti in zip(counts, t)))


# -- paths ------------------------------------------------------------


def left_branch_count(tree: CodeTree, value_index: int) -> int:
    """Number of left turns on the path to value_index's leaf."""
    path = tree.path_ids(value_index)
    return sum(tree.nodes[above].left == below for above, below in zip(path, path[1:]))


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

    left_branch = all(
        (1 << left_branch_count(tree, i)) <= b - i for i in range(b)
    )

    return TreePropertyReport(
        path_difference_ok=path_diff,
        level_sum_ok=level_sum,
        left_branch_ok=left_branch,
    )
