"""Plans: the rows that say which bits each value's keys touch.

Both layouts are planned here, as preorder forests of rows: b one-row
trees on the flat layout, and on the tree layout one tree whose shape
comes from Huffman code lengths.  The value distribution is sorted, so
the sorted lengths, built by the two-queue method in O(b), give an
optimal alphabetic tree.  Every row receives an offset, a hash count and
a slice of base hash indices, and a tree plan is certified against the
error budget before any key is stored.  plan_bounds reads the bounds
and path weights off the rows, and size_bit_array sizes the bit array
from them.  Loading a map plans through here too, so the read path
needs no CodeTree (codetree.py).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidEpsilon, InvalidScheme

__all__ = [
    "CertificationReport",
    "huffman_depths",
    "plan_bounds",
    "plan_rows",
    "row_depths",
    "size_bit_array",
]

LOG2E = math.log2(math.e)


def _check_epsilon(epsilon: float) -> None:
    # planners take log2(1 / epsilon), which overflows below a normal float
    if not (sys.float_info.min <= epsilon < 1.0):
        raise InvalidEpsilon(f"error budget must lie in (0, 1) and be normal, got {epsilon!r}")


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


def plan_rows(dist, epsilon: float, scheme: str = "standard",
              custom=None) -> tuple[list[list[int]], CertificationReport | None]:
    """The plan rows of any variant, with their report, in O(b): the flat
    layout for "simple", else a tree from its Huffman depths.  Builds and
    loads plan through here.  Flat counts meet the budget by construction,
    2^-k_i <= epsilon * p_i, so their report is None; tree plans are
    certified.  Custom counts are keyed by codetree.tree_from_depths'
    node numbering and taken as stated: counts that miss the budget raise
    InvalidScheme unbumped, so a file's counts never reach the bump loop.
    """
    _check_epsilon(epsilon)
    if scheme == "simple":  # b one-row trees; k_i = ceil(log2(1/eps) + log2(1/p_i))
        base = math.log2(1.0 / epsilon)
        counts = [math.ceil(base + math.log2(1.0 / p)) for p in dist.probs]
        return _slice_rows(_shape_rows([0] * dist.b), counts), None
    count = _node_counts(dist.b, epsilon, scheme, custom)
    rows = _shape_rows(huffman_depths(dist.probs))
    index = _postorder(rows) if scheme == "custom" else range(len(rows))
    _slice_rows(rows, [count(i, row[4] < 0) for i, row in zip(index, rows)])
    return rows, _certify_rows(rows, epsilon, bump=scheme != "custom")


def _shape_rows(depths) -> list[list[int]]:
    """The plan rows of the full binary tree whose leaves, left to right,
    sit at the non-decreasing depths, with first = last = 0 for the counts:
    one stack pass in preorder.  A node's level-order offset is the count
    of nodes at shallower depths plus its place within its own depth.
    Depths of all zeros give the flat layout's forest of b roots."""
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
        else:  # depths all 0, b roots: each sits at offset 0, failing to the last
            fail, place[0] = len(rows) - 1, 0
    return rows


def _slice_rows(rows, counts) -> list[list[int]]:
    """Give row r a slice of counts[r] base hash indices, consecutive down
    every path; a root's starts after the row before it, the first at 1."""
    for r, row in enumerate(rows):
        above = row[6] if row[6] >= 0 else r - 1
        row[0] = first = rows[above][1] + 1 if above >= 0 else 1
        row[1] = first + counts[r] - 1
    return rows


def row_depths(rows) -> list[int]:
    """Each plan row's depth: its number of ancestors."""
    depth: list[int] = []
    for row in rows:
        up = row[6]
        depth.append(depth[up] + 1 if up >= 0 else 0)
    return depth


def _postorder(rows) -> list[int]:
    """Each tree row's node index as codetree.tree_from_depths numbers it,
    in postorder: the rows before r that are not its ancestors, then the
    2 leaves - 2 nodes of its subtree below it."""
    leaves = [1] * len(rows)
    for r in reversed(range(len(rows))):
        right = rows[r][4]
        if right >= 0:
            leaves[r] = leaves[r + 1] + leaves[right]
    return [r - d + 2 * n - 2 for r, (d, n) in enumerate(zip(row_depths(rows), leaves))]


# -- hash count schemes -----------------------------------------------


def _leaf_floor(epsilon: float) -> int:
    return max(math.ceil(math.log2(1.0 / epsilon)), 1)


def _node_counts(b: int, epsilon: float, scheme: str, custom):
    """count(index, is_leaf): scheme's hash count for node index of a tree
    over b values, numbered as codetree.tree_from_depths numbers it.
    Raises InvalidScheme for an unknown scheme, and count does for a
    custom count that is missing, outside 1..floor + 64, or below the
    floor at a leaf."""
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


def _certify_rows(rows, epsilon: float, bump: bool = True) -> CertificationReport:
    """Check the analytic error bounds of tree plan rows against epsilon,
    raising leaf hash counts (a leaf row's last) until both hold, or
    raising InvalidScheme at once if bump is false.  Only tree rows: a
    bump climbs to a common ancestor, which a forest's roots lack.

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


# -- sizing -----------------------------------------------------------


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
