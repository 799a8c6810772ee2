"""Code trees: the shape behind the tree-structured map variant.

Each value gets a leaf of a full binary tree; more probable values sit
nearer the root so their keys touch fewer bits.  The tree is an optimal
alphabetic binary tree for the sorted probability vector (leaves stay in
probability order): since the vector is sorted, the sorted code lengths
of a Huffman code, built by the two-queue method in O(b), give one.
Every node then receives a level-order offset, a hash count k, and a
consecutive slice of base hash indices.  A map's plan rows come straight
from the leaf depths, and the whole plan is certified against the
requested error budget before any key is stored; a CodeTree is the same
shape as linked nodes, for reading and for building a plan by hand.
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
    "huffman_depths",
    "plan_rows",
    "row_depths",
    "tree_from_rows",
    "tree_from_depths",
    "assign_offsets",
    "assign_hash_counts",
    "certify_error_bounds",
    "compute_geometry",
    "size_bit_array",
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
    quadratic time; maps plan with huffman_depths, and this stays as the
    oracle for unsorted weights, where the alphabetic order binds.
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


def huffman_depths(probs) -> list[int]:
    """Leaf depths, non-decreasing, of a Huffman code for the non-increasing
    weights probs: the two-queue method (van Leeuwen, ICALP 1976), O(b).

    Leaves wait in one queue lightest first and merged nodes in another in
    the order they are made, so both stay sorted, and each step merges the
    two lightest fronts.  On equal weight the leaf goes first, so the
    depths follow from probs alone, as a load that plans again needs.
    Sorted Huffman lengths for sorted weights are an optimal alphabetic
    tree: the cost Garsia-Wachs reaches, and its depths wherever no two
    weights tie along the way.
    """
    b = len(probs)
    weight = list(reversed(probs))  # leaves 0..b-1, lightest first; then merged nodes
    parent = [0] * (2 * b - 1)
    leaf, merged = 0, b  # the front of each queue; merged == node: that queue is empty
    for node in range(b, 2 * b - 1):
        if leaf < b and (merged == node or weight[leaf] <= weight[merged]):
            x, leaf = leaf, leaf + 1
        else:
            x, merged = merged, merged + 1
        if leaf < b and (merged == node or weight[leaf] <= weight[merged]):
            y, leaf = leaf, leaf + 1
        else:
            y, merged = merged, merged + 1
        parent[x] = parent[y] = node
        weight.append(weight[x] + weight[y])
    depth = [0] * (2 * b - 1)
    for node in range(2 * b - 3, -1, -1):  # a parent is made after its children
        depth[node] = depth[parent[node]] + 1
    return sorted(depth[:b])


def build_alphabetic_tree(dist) -> CodeTree:
    """Optimal alphabetic binary tree for a ValueDistribution: leaf i (left
    to right) is value i of the sorted distribution, at its Huffman depth,
    so the most probable values end up shallowest.  The structural
    guarantees checked by tree_property_report assume this sorted-depth
    shape."""
    return tree_from_depths(huffman_depths(dist.probs))


def plan_rows(dist, epsilon: float, scheme: str = "standard",
              custom=None) -> tuple[list[list[int]], CertificationReport]:
    """The certified plan rows of a tree map, with their report: the
    Huffman shape for dist, level-order offsets and scheme's hash counts
    for epsilon, built straight from the leaf depths in O(b) with no tree.

    Building a map and loading one both plan through here, so a map file
    stores the distribution and never the plan.  Custom counts are keyed
    by tree_from_depths' node numbering and taken as stated: counts that
    miss the budget raise InvalidScheme unbumped, so a file's counts never
    reach the bump loop.
    """
    _check_epsilon(epsilon)
    count = _node_counts(dist.b, epsilon, scheme, custom)
    rows = _shape_rows(huffman_depths(dist.probs))
    index = _postorder(rows) if scheme == "custom" else range(len(rows))
    for r, row in enumerate(rows):  # slices are consecutive down every path
        up = row[6]
        row[0] = first = rows[up][1] + 1 if up >= 0 else 1
        row[1] = first + count(index[r], row[4] < 0) - 1
    return rows, _certify_rows(rows, epsilon, bump=scheme != "custom")


def _shape_rows(depths) -> list[list[int]]:
    """The plan rows of the full binary tree whose leaves, left to right,
    sit at the non-decreasing depths, with first = last = 0 for the counts:
    one stack pass in preorder.  A node's level-order offset is the count
    of nodes at shallower depths plus its place within its own depth."""
    leaves_at = [0] * (depths[-1] + 1)
    for depth in depths:
        leaves_at[depth] += 1
    place, nodes, width = [], 0, 1  # width: the node count at a depth
    for leaves in leaves_at:
        place.append(nodes)
        nodes += width
        width = 2 * (width - leaves)
    rows: list[list[int]] = []
    stack = []  # (row, depth) of the nodes whose right child comes next
    up, fail, depth = -1, -1, 0
    for value, leaf_depth in enumerate(depths):
        while True:  # down the left spine to value's leaf
            rows.append([0, 0, place[depth], value, -1, fail, up])
            place[depth] += 1
            if depth >= leaf_depth:
                break
            up = len(rows) - 1  # a left child fails where its parent does
            stack.append((up, depth))
            depth += 1
        if stack:  # a right child fails to its left sibling, right after the parent
            up, depth = stack.pop()
            fail, rows[up][4], depth = up + 1, len(rows), depth + 1
    return rows


def row_depths(rows) -> list[int]:
    """Each plan row's depth: its number of ancestors."""
    depth: list[int] = []
    for row in rows:
        up = row[6]
        depth.append(depth[up] + 1 if up >= 0 else 0)
    return depth


def _postorder(rows) -> list[int]:
    """Each tree row's node index as tree_from_depths numbers it, in
    postorder: the rows before r that are not its ancestors, then the
    2 leaves - 2 nodes of its subtree below it."""
    leaves = [1] * len(rows)
    for r in reversed(range(len(rows))):
        right = rows[r][4]
        if right >= 0:
            leaves[r] = leaves[r + 1] + leaves[right]
    return [r - d + 2 * n - 2 for r, (d, n) in enumerate(zip(row_depths(rows), leaves))]


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


def _leaf_floor(epsilon: float) -> int:
    return max(math.ceil(math.log2(1.0 / epsilon)), 1)


def _node_counts(b: int, epsilon: float, scheme: str, custom):
    """count(index, is_leaf): scheme's hash count for node index of a tree
    over b values, numbered as tree_from_depths numbers it.  Raises
    InvalidScheme for an unknown scheme, and count does for a custom count
    that is missing, outside 1..floor + 64, or below the floor at a leaf."""
    floor = _leaf_floor(epsilon)
    if scheme == "custom":
        if custom is None:
            raise InvalidScheme("custom scheme needs a per-node hash count mapping")
        # a count of floor + 64 already leaves every error term it enters
        # below 2^-64 * epsilon, so a larger one only adds probes; the cap
        # keeps the hash family, and so a query's work, linear in b
        cap = floor + 64

        def count(index: int, is_leaf: bool) -> int:
            try:
                k = int(custom[index])
            except (KeyError, IndexError):
                raise InvalidScheme(f"custom counts missing node {index}") from None
            if not 1 <= k <= cap:
                raise InvalidScheme(f"node {index}: hash count {k} outside 1..{cap}")
            if is_leaf and k < floor:
                raise InvalidScheme(f"leaf {index}: hash count {k} below floor {floor}")
            return k

        return count
    if scheme == "standard":
        # internal nodes get a single probe; leaves absorb the error budget
        # plus a harmonic-number term that pays for the deep right spine
        if b == 1:
            leaf_k = floor
        else:
            harmonic = math.fsum(1.0 / r for r in range(1, b + 1))
            leaf_k = math.ceil(math.log2(1.0 / epsilon) + math.log2(harmonic - 1.0) + 1.0)
        internal_k = 1
    elif scheme == "fast":
        # two probes per internal node halve expected traversal work
        leaf_k = math.ceil(math.log2(1.0 / epsilon)) + 2
        internal_k = 2
    else:
        raise InvalidScheme(f"unknown scheme {scheme!r}")
    leaf_k = max(leaf_k, floor)
    return lambda index, is_leaf: leaf_k if is_leaf else internal_k


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


def _certify_rows(rows, epsilon: float, bump: bool = True) -> CertificationReport:
    """Check the analytic error bounds of tree plan rows against epsilon,
    raising leaf hash counts (a leaf row's last) until both hold, or
    raising InvalidScheme at once if bump is false.

    Each round finds the most violated constraint and bumps the leaf
    contributing its largest term, so the loop converges quickly (every
    bump at least halves that term).  A leaf's slice ends its path, so a
    bump moves no other row's.
    """
    leaves = [r for r, row in enumerate(rows) if row[4] < 0]
    bumped: list[int] = []
    while True:
        fp, mis, t = plan_bounds(rows)
        worst_gap = fp - epsilon
        worst_constraint = -1  # -1 means the false positive bound
        for i, bound in enumerate(mis):
            if bound - epsilon > worst_gap:
                worst_gap = bound - epsilon
                worst_constraint = i
        if worst_gap <= 0.0:
            break
        if not bump:
            raise InvalidScheme(f"counts do not certify for epsilon={epsilon!r}")
        if worst_constraint < 0:
            target = min(range(len(leaves)), key=t.__getitem__)
        else:
            i = worst_constraint
            shared, r = set(), leaves[i]
            while r >= 0:
                shared.add(r)
                r = rows[r][6]

            def below_common(j: int) -> int:
                # j's counts below its lowest common ancestor with i, the
                # row on both paths whose last counts every one above it
                r = leaves[j]
                while r not in shared:
                    r = rows[r][6]
                return t[j] - rows[r][1]

            target = min(range(i + 1, len(leaves)), key=below_common)  # the largest term
        rows[leaves[target]][1] += 1
        bumped.append(target)
    return CertificationReport(epsilon, fp, mis, tuple(bumped))


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
