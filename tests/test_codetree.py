"""Tree construction, hash count schemes, certification, and geometry.

The optimality checks compare against an exhaustive oracle: interval
dynamic programming over every full binary tree that keeps the leaf
order, which is the same minimum a brute-force enumeration would find.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloommap import (
    InvalidEpsilon,
    build_alphabetic_tree,
    new_distribution,
    plan_tree_map,
    uniform_distribution,
)
from bloommap.codetree import (
    _garsia_wachs_depths,
    _tree_rows,
    analytic_error_bounds,
    assign_hash_counts,
    assign_offsets,
    certify_error_bounds,
    compute_geometry,
    tree_from_depths,
    tree_from_rows,
    tree_property_report,
)
from bloommap.errors import InvalidScheme
from bloommap.plan import huffman_depths, plan_bounds, plan_rows

LOG2E = math.log2(math.e)


def optimal_cost(weights):
    """Minimum of sum(w_i * depth_i) over all full binary trees whose
    leaves keep the given left-to-right order."""
    n = len(weights)
    if n == 1:
        return 0
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    cost = [[0] * n for _ in range(n)]
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span - 1
            best = min(cost[i][s] + cost[s + 1][j] for s in range(i, j))
            cost[i][j] = best + prefix[j + 1] - prefix[i]
    return cost[0][n - 1]


def compositions(total, parts):
    """All ways to write total as an ordered sum of `parts` positive ints."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# -- shapes -----------------------------------------------------------


def test_basic_shapes():
    assert build_alphabetic_tree(uniform_distribution(4)).leaf_depths() == (2, 2, 2, 2)
    d = new_distribution([2, 1, 1], "abc")
    assert build_alphabetic_tree(d).leaf_depths() == (1, 2, 2)
    assert build_alphabetic_tree(new_distribution([1], "a")).leaf_depths() == (0,)


def test_depths_are_non_decreasing():
    # ties in the probabilities must not produce a shape where a more
    # probable value sits deeper than a less probable one
    rnd = random.Random(12)
    for _ in range(200):
        b = rnd.randint(1, 10)
        weights = [rnd.randint(1, 6) for _ in range(b)]
        d = new_distribution(weights, [f"v{i}" for i in range(b)])
        depths = build_alphabetic_tree(d).leaf_depths()
        assert all(x <= y for x, y in zip(depths, depths[1:]))


def test_optimality_against_exhaustive_oracle():
    # every ordered weight vector over b <= 5 with 1/16 granularity
    for b in range(1, 6):
        for parts in compositions(16, b):
            depths = _garsia_wachs_depths(parts)
            got = sum(w * l for w, l in zip(parts, depths))
            assert got == optimal_cost(parts), parts
            tree_from_depths(depths)  # must describe a real tree


def test_sorted_inputs_still_optimal_after_canonicalization():
    rnd = random.Random(13)
    for _ in range(300):
        b = rnd.randint(1, 9)
        weights = sorted((rnd.randint(1, 40) for _ in range(b)), reverse=True)
        d = new_distribution(weights, [f"v{i}" for i in range(b)])
        tree = build_alphabetic_tree(d)
        got = sum(w * l for w, l in zip(weights, tree.leaf_depths()))
        assert got == optimal_cost(weights)


@settings(max_examples=300, deadline=None)
@given(weights=st.one_of(
    st.lists(st.integers(1, 16), min_size=1, max_size=64),  # sixteenths: ties everywhere
    st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=64),
))
def test_huffman_cost_equals_garsia_wachs_on_sorted_weights(weights):
    # on sorted weights an optimal alphabetic tree costs what Huffman's
    # does; exact integer weights make the costs comparable with ==
    weights = sorted(weights, reverse=True)
    depths = huffman_depths(weights)
    assert depths == sorted(depths)
    assert sum(w * d for w, d in zip(weights, depths)) == \
        sum(w * d for w, d in zip(weights, _garsia_wachs_depths(weights)))
    tree_from_depths(depths)  # must describe a real tree


def test_huffman_tie_rule_is_pinned():
    # 1 + 1 ties leaf 2: taking the leaf first gives the balanced tree, the
    # merged node first (1, 2, 3, 3) at the same cost; a load plans again,
    # so a file's plan depends on which one the planner takes
    assert huffman_depths([2, 1, 1, 1]) == [2, 2, 2, 2]
    assert huffman_depths([2, 2, 1, 1]) == [2, 2, 2, 2]
    assert build_alphabetic_tree(new_distribution([2, 1, 1, 1], "abcd")).leaf_depths() == \
        (2, 2, 2, 2)


def test_huffman_depths_equal_garsia_wachs_without_ties():
    # the pinned plans and the workloads' distributions come out the same,
    # so their plan rows and bits did not move with the planner
    b = 10 ** 4
    for weights in ([0.5, 0.25, 0.125, 0.125], [1 / 64] * 64,
                    [0.9 ** i for i in range(40)], [0.95 ** i + 1e-9 for i in range(b)]):
        d = new_distribution(weights, [f"v{i}" for i in range(len(weights))])
        assert huffman_depths(d.probs) == sorted(_garsia_wachs_depths(d.probs))


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(["simple", "standard", "fast", "custom"]),
    weights=st.lists(st.integers(1, 16), min_size=1, max_size=40),
    eps_bits=st.integers(2, 16),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_plan_rows_match_the_tree_path(scheme, weights, eps_bits, seed):
    # the rows built straight from the depths against the tree oracle:
    # tree_from_depths, level-order offsets, the scheme's counts and
    # _tree_rows' preorder walk; the flat rows against blocks built by
    # hand from k_i = ceil(log2(1/eps) + log2(1/p_i))
    dist = new_distribution(weights, [f"v{i}" for i in range(len(weights))])
    eps = 2.0 ** -eps_bits
    custom = None
    tree = tree_from_depths(huffman_depths(dist.probs))
    assign_offsets(tree)
    if scheme == "custom":
        rnd = random.Random(seed)
        assign_hash_counts(tree, eps, "fast")
        custom = {n.index: n.k + rnd.randint(0, 2) for n in tree.nodes}
    bmap = plan_tree_map(dist, eps, 0, scheme, n=len(weights), custom=custom)
    if scheme == "simple":
        start, expect = 0, []
        for i, p in enumerate(dist.probs):
            k = eps_bits + math.ceil(math.log2(1.0 / p))
            expect.append([start + 1, start + k, 0, i, -1, i - 1, -1])
            start += k
        assert bmap._plan == expect == plan_rows(dist, eps, "simple")[0]
        return
    assign_hash_counts(tree, eps, scheme, custom=custom)
    assert bmap._plan == _tree_rows(tree) == plan_rows(dist, eps, scheme, custom)[0]
    view = bmap.tree
    assert [(n.index, n.parent, n.left, n.right, n.depth, n.offset, n.k, n.base_start,
             n.value_index) for n in view.nodes] == \
        [(n.index, n.parent, n.left, n.right, n.depth, n.offset, n.k, n.base_start,
          n.value_index) for n in tree.nodes]
    assert (view.root, view.leaves) == (tree.root, tree.leaves)


def test_tree_from_depths_rejects_bad_sequences():
    with pytest.raises(ValueError):
        tree_from_depths((1, 1, 1))  # over-full
    with pytest.raises(ValueError):
        tree_from_depths((2, 2))  # under-full
    with pytest.raises(ValueError):
        tree_from_depths((1, -1))


def test_leaves_numbered_left_to_right():
    tree = build_alphabetic_tree(new_distribution([4, 2, 1, 1], "abcd"))
    assert [tree.nodes[i].value_index for i in tree.leaves] == [0, 1, 2, 3]
    order = [n.index for n in tree.preorder()]
    assert len(order) == 2 * tree.b - 1
    assert order[0] == tree.root


# -- offsets ----------------------------------------------------------


def test_offsets_three_nodes():
    tree = build_alphabetic_tree(uniform_distribution(2))
    assign_offsets(tree)
    root = tree.nodes[tree.root]
    assert root.offset == 0
    assert tree.nodes[root.left].offset == 1
    assert tree.nodes[root.right].offset == 2


def test_offsets_level_order():
    d = new_distribution([2, 1, 1], "abc")
    tree = build_alphabetic_tree(d)
    assign_offsets(tree)
    root = tree.nodes[tree.root]
    v1 = tree.nodes[tree.leaves[0]]
    inner = tree.nodes[root.right]
    v2, v3 = tree.nodes[tree.leaves[1]], tree.nodes[tree.leaves[2]]
    assert (root.offset, v1.offset, inner.offset, v2.offset, v3.offset) == (0, 1, 2, 3, 4)


def test_offsets_are_a_bijection():
    rnd = random.Random(21)
    for _ in range(50):
        b = rnd.randint(1, 12)
        d = new_distribution([rnd.randint(1, 9) for _ in range(b)], [f"v{i}" for i in range(b)])
        tree = build_alphabetic_tree(d)
        assign_offsets(tree)
        offsets = sorted(n.offset for n in tree.nodes)
        assert offsets == list(range(len(tree.nodes)))
        # within a level, offsets grow left to right and shallower levels
        # come first
        by_offset = sorted(tree.nodes, key=lambda n: n.offset)
        assert all(a.depth <= b_.depth for a, b_ in zip(by_offset, by_offset[1:]))


def test_single_node_tree():
    tree = build_alphabetic_tree(new_distribution([1], "a"))
    assign_offsets(tree)
    assert tree.nodes[tree.root].offset == 0
    assert tree.leaf_depths() == (0,)
    assert tree.path_ids(0) == (tree.root,)
    assert tree_property_report(tree).left_branch_ok


# -- hash count schemes -----------------------------------------------


def _built(probs, epsilon, scheme, custom=None):
    d = new_distribution(probs, [f"v{i}" for i in range(len(probs))])
    tree = build_alphabetic_tree(d)
    assign_offsets(tree)
    assign_hash_counts(tree, epsilon, scheme, custom=custom)
    return tree


def test_standard_counts():
    tree = _built([1, 1], 2 ** -5, "standard")
    for node in tree.nodes:
        assert node.k == (5 if node.is_leaf else 1)

    tree = _built([1, 1, 1, 1], 2 ** -7, "standard")
    for node in tree.nodes:
        assert node.k == (9 if node.is_leaf else 1)


def test_fast_counts():
    tree = _built([1, 1, 1], 2 ** -7, "fast")
    for node in tree.nodes:
        assert node.k == (9 if node.is_leaf else 2)


def test_single_value_counts():
    tree = _built([1], 2 ** -4, "fast")
    assert tree.nodes[tree.root].k == 6
    # the standard formula degenerates at b = 1; it falls back to the
    # plain error budget
    tree = _built([1], 2 ** -4, "standard")
    assert tree.nodes[tree.root].k == 4


def test_epsilon_validation():
    for eps in (0.0, 1.0, -0.5, 2.0, 1e-310):
        with pytest.raises(InvalidEpsilon):
            _built([1, 1], eps, "standard")


def test_custom_counts_validated():
    d = new_distribution([1, 1], "ab")
    tree = build_alphabetic_tree(d)
    assign_offsets(tree)
    floor = math.ceil(math.log2(1 / 2 ** -5))
    good = {n.index: (floor if n.is_leaf else 3) for n in tree.nodes}
    assign_hash_counts(tree, 2 ** -5, "custom", custom=good)
    assert tree.certification.certified

    bad_floor = dict(good)
    bad_floor[tree.leaves[0]] = floor - 1
    with pytest.raises(InvalidScheme):
        assign_hash_counts(tree, 2 ** -5, "custom", custom=bad_floor)

    # counts past floor + 64 only add probes, so they are refused
    at_cap = {i: floor + 64 for i in good}
    assign_hash_counts(tree, 2 ** -5, "custom", custom=at_cap)
    assert tree.certification.bumped == ()
    over_cap = dict(good)
    over_cap[tree.root] = floor + 65
    with pytest.raises(InvalidScheme, match="outside"):
        assign_hash_counts(tree, 2 ** -5, "custom", custom=over_cap)

    with pytest.raises(InvalidScheme):
        assign_hash_counts(tree, 2 ** -5, "custom", custom=None)
    with pytest.raises(InvalidScheme):
        assign_hash_counts(tree, 2 ** -5, "custom", custom={tree.root: 2})
    with pytest.raises(InvalidScheme):
        assign_hash_counts(tree, 2 ** -5, "unknown")


def test_root_boost_via_custom():
    # adding extra probes at the root is a legal custom configuration
    tree = _built([1, 1, 1, 1], 2 ** -6, "fast")
    boosted = {n.index: n.k for n in tree.nodes}
    boosted[tree.root] += 2
    tree2 = _built([1, 1, 1, 1], 2 ** -6, "custom", custom=boosted)
    assert tree2.nodes[tree2.root].k == tree.nodes[tree.root].k + 2
    assert tree2.certification.certified


# -- certification ----------------------------------------------------


def test_certify_single_value():
    tree = _built([1], 2 ** -6, "standard")
    cert = tree.certification
    assert cert.false_positive_bound == 2.0 ** -6
    assert cert.misassignment_bounds == (0.0,)
    assert cert.bumped == ()
    assert cert.certified


def test_certify_two_values_fast():
    eps = 2 ** -7
    tree = _built([1, 1], eps, "fast")
    # both paths carry 2 + 9 hashes; the shadow of value 0 is value 1's
    # leaf alone
    fp, mis = analytic_error_bounds(tree)
    assert fp == 2 * 2.0 ** -11
    assert mis == (2.0 ** -9, 0.0)
    assert tree.certification.bumped == ()
    assert fp <= eps and max(mis) <= eps


def test_named_schemes_never_need_bumps():
    rnd = random.Random(31)
    for scheme in ("standard", "fast"):
        for _ in range(40):
            b = rnd.randint(1, 8)
            d = [rnd.randint(1, 16) for _ in range(b)]
            eps = 2.0 ** -rnd.randint(3, 9)
            tree = _built(d, eps, scheme)
            assert tree.certification.bumped == ()
            assert tree.certification.certified


def test_certify_bumps_a_lean_custom_tree():
    # a uniform 4-leaf tree with single-probe internals and leaves at the
    # bare floor is fine on false positives but over budget on value 0's
    # misassignment; certification must raise leaf counts until it fits
    eps = 2 ** -4
    d = uniform_distribution(4)
    tree = build_alphabetic_tree(d)
    assign_offsets(tree)
    lean = {n.index: (4 if n.is_leaf else 1) for n in tree.nodes}
    assign_hash_counts(tree, eps, "custom", custom=lean)
    cert = tree.certification
    assert cert.certified
    assert len(cert.bumped) > 0
    fp, mis = analytic_error_bounds(tree)
    assert fp <= eps
    assert all(x <= eps for x in mis)
    # base index slices must be consistent with the raised counts
    for i in range(tree.b):
        expect = 0
        for w in tree.path_ids(i):
            assert tree.nodes[w].base_start == expect
            expect += tree.nodes[w].k


def test_certify_is_idempotent_once_certified():
    tree = _built([3, 2, 1], 2 ** -5, "standard")
    before = [n.k for n in tree.nodes]
    cert = certify_error_bounds(tree, 2 ** -5)
    assert cert.bumped == ()
    assert [n.k for n in tree.nodes] == before


def _pairwise_shadow_sums(tree):
    """Each value's misassignment bound term by term: value j > i shadows
    i with 2**-(the counts on j's path below their lowest common ancestor)."""
    t = [tree.path_weight(i) for i in range(tree.b)]
    expect = []
    for i in range(tree.b):
        terms = []
        for j in range(i + 1, tree.b):
            shared = set(tree.path_ids(i)) & set(tree.path_ids(j))
            terms.append(2.0 ** -(t[j] - sum(tree.nodes[w].k for w in shared)))
        expect.append(math.fsum(terms))
    return expect


def test_analytic_bounds_match_the_pairwise_sums():
    # the per-subtree passes must give the pairwise sums
    rnd = random.Random(17)
    for trial in range(200):
        b = rnd.randint(1, 24)
        weights = ([2.0 ** -i for i in range(b)] if trial % 4 == 0
                   else [rnd.randint(1, 30) for _ in range(b)])
        tree = build_alphabetic_tree(new_distribution(weights, [f"v{i}" for i in range(b)]))
        for node in tree.nodes:
            node.k = rnd.randint(1, 12)
        t = [tree.path_weight(i) for i in range(b)]
        fp, mis = analytic_error_bounds(tree)
        assert fp == pytest.approx(math.fsum(2.0 ** -ti for ti in t), rel=1e-12)
        assert mis == pytest.approx(_pairwise_shadow_sums(tree), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(["simple", "standard", "fast", "custom"]),
    weights=st.lists(st.integers(1, 50), min_size=1, max_size=40),
    eps_bits=st.integers(2, 16),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_plan_bounds_match_independent_sums(scheme, weights, eps_bits, seed):
    # the row pass against the pairwise shadow sums on trees, and against
    # sum_i 2**-k_i with its suffix sums on the flat layout
    b, eps = len(weights), 2.0 ** -eps_bits
    dist = new_distribution(weights, [f"v{i}" for i in range(b)])
    custom = None
    if scheme == "custom":
        rnd = random.Random(seed)
        tree = build_alphabetic_tree(dist)
        assign_offsets(tree)
        lean = {n.index: rnd.randint(eps_bits, eps_bits + 6) if n.is_leaf else rnd.randint(1, 6)
                for n in tree.nodes}
        assign_hash_counts(tree, eps, "custom", custom=lean)
        custom = {n.index: n.k for n in tree.nodes}
    bmap = plan_tree_map(dist, eps, 0, scheme, n=b, custom=custom)
    if bmap.tree is None:
        t = bmap.simple_ks
        expect = [math.fsum(2.0 ** -k for k in t[i + 1:]) for i in range(b)]
    else:
        t = tuple(bmap.tree.path_weight(i) for i in range(b))
        expect = _pairwise_shadow_sums(bmap.tree)
    fp, mis, path_weights = plan_bounds(bmap._plan)
    assert path_weights == t
    assert fp == pytest.approx(math.fsum(2.0 ** -ti for ti in t), rel=1e-12)
    assert mis == pytest.approx(expect, rel=1e-12)


def test_plan_rows_take_custom_counts_as_stated():
    # assign_hash_counts bumps the lean counts above until they certify;
    # plan_rows, which builds and loads maps, rejects them instead
    eps = 2 ** -4
    d = uniform_distribution(4)
    fast, report = plan_rows(d, eps, "fast")
    assert report.bumped == () and report.certified
    nodes = tree_from_rows(fast).nodes
    lean = {n.index: (4 if n.is_leaf else 1) for n in nodes}
    with pytest.raises(InvalidScheme, match="do not certify"):
        plan_rows(d, eps, "custom", custom=lean)
    rows, report = plan_rows(d, eps, "custom", custom={n.index: n.k for n in nodes})
    assert report.bumped == ()
    assert rows == fast


def _flat_weights(kind, b, rnd):
    if kind == "dyadic":  # halve a random value until there are b
        weights = [1.0]
        while len(weights) < b:
            w = weights.pop(rnd.randrange(len(weights)))
            weights += [w / 2, w / 2]
        return weights
    if kind == "ties":
        return [rnd.choice((1, 2, 3)) for _ in range(b)]
    if kind == "skewed":
        return [1.0] + [rnd.choice((1e-300, 1e-30, 1e-9)) for _ in range(b - 1)]
    return [rnd.random() + 1e-12 for _ in range(b)]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["dyadic", "random", "ties", "skewed"]),
    b=st.integers(1, 1000),
    eps=st.one_of(st.integers(1, 40).map(lambda e: 2.0 ** -e), st.floats(2.0 ** -40, 0.5)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_flat_plans_meet_their_bounds_unbumped(kind, b, eps, seed):
    # plan_rows certifies no flat plan and a load trusts its counts, so
    # 2^-k_i <= eps * p_i alone must hold both bounds within eps
    weights = _flat_weights(kind, b, random.Random(seed))
    dist = new_distribution(weights, [f"v{i}" for i in range(b)])
    rows, report = plan_rows(dist, eps, "simple")
    fp, mis, _ = plan_bounds(rows)
    assert report is None
    assert fp <= eps
    assert max(mis) <= eps


# -- geometry ---------------------------------------------------------


def test_geometry_single_path():
    tree = build_alphabetic_tree(new_distribution([1], "a"))
    assign_offsets(tree)
    tree.nodes[tree.root].k = 8
    geom = compute_geometry(tree, (1000,), 2 ** -7)
    assert geom.m == 11542
    assert geom.t == (8,)


def test_geometry_two_values_fast():
    tree = _built([1, 1], 2 ** -7, "fast")
    geom = compute_geometry(tree, (50, 50), 2 ** -7)
    assert geom.t == (11, 11)
    assert geom.m == 1587


def test_geometry_rejects_empty_and_bad_counts():
    tree = _built([1, 1], 2 ** -5, "fast")
    with pytest.raises(ValueError):
        compute_geometry(tree, (0, 0), 2 ** -5)
    with pytest.raises(ValueError):
        compute_geometry(tree, (5,), 2 ** -5)
    with pytest.raises(ValueError):
        compute_geometry(tree, (5, -1), 2 ** -5)


# -- paths and structural checks --------------------------------------


def test_path_queries():
    tree = build_alphabetic_tree(new_distribution([2, 1, 1], "abc"))
    assert len(tree.path_ids(2)) == 3
    root = tree.nodes[tree.root]
    assert tree.path_ids(2) == (tree.root, root.right, tree.leaves[2])  # no left turns
    assert tree.path_ids(0) == (tree.root, root.left)  # one, at most log2(b)
    assert tree_property_report(tree).left_branch_ok


def test_structure_perfect_tree():
    tree = build_alphabetic_tree(uniform_distribution(4))
    report = tree_property_report(tree)
    assert report.path_difference_ok and report.level_sum_ok and report.left_branch_ok
    assert report.all_ok and not report.path_difference_skipped


def test_structure_example_pair():
    # depths (1, 2, 2): the path to value 2 has two nodes outside value
    # 0's path, and 2**2 exactly matches the weighted depth sum
    tree = build_alphabetic_tree(new_distribution([2, 1, 1], "abc"))
    depths = tree.leaf_depths()
    shared = len(set(tree.path_ids(0)) & set(tree.path_ids(2)))
    outside = len(tree.path_ids(2)) - shared
    total = sum(2 ** (depths[2] - depths[r]) for r in range(0, 3))
    assert outside == 2
    assert 2 ** outside == total == 4
    assert tree_property_report(tree).all_ok


def test_structure_skips_unsorted_depth_check():
    # hand-build a shape whose depths are not sorted; the path difference
    # clause is then not applicable and reports None
    tree = tree_from_depths((2, 2, 1))
    report = tree_property_report(tree)
    assert report.path_difference_ok is None
    assert report.path_difference_skipped
    assert report.level_sum_ok


def test_structure_constructed_and_random_canonical_trees():
    rnd = random.Random(77)
    for _ in range(100):
        b = rnd.randint(1, 16)
        d = new_distribution([rnd.randint(1, 50) for _ in range(b)],
                             [f"v{i}" for i in range(b)])
        report = tree_property_report(build_alphabetic_tree(d))
        assert report.all_ok and not report.path_difference_skipped

    # random full trees brought into canonical (sorted-depth) form, whose
    # depths and leaf numbers tree_from_depths sets as it builds
    for _ in range(100):
        b = rnd.randint(2, 16)
        depths = sorted(_random_full_tree_depths(rnd, b))
        tree = tree_from_depths(depths)
        report = tree_property_report(tree)
        assert report.all_ok and not report.path_difference_skipped
        assert tree.nodes[tree.root].depth == 0 and tree.nodes[tree.root].parent is None
        for node in tree.nodes:
            if node.index != tree.root:
                assert node.depth == tree.nodes[node.parent].depth + 1
        assert [tree.nodes[w].value_index for w in tree.leaves] == list(range(b))
        assert tree.leaf_depths() == tuple(depths)


def _random_full_tree_depths(rnd, b, depth=0):
    if b == 1:
        return [depth]
    split = rnd.randint(1, b - 1)
    return (_random_full_tree_depths(rnd, split, depth + 1)
            + _random_full_tree_depths(rnd, b - split, depth + 1))


def test_level_sum_is_an_identity():
    # the level weighted node count equals 1 plus the depth weighted leaf
    # sum for every full binary tree, so the inequality is tight
    from fractions import Fraction

    rnd = random.Random(55)
    for _ in range(50):
        b = rnd.randint(1, 14)
        depths = _random_full_tree_depths(rnd, b)
        tree = tree_from_depths(depths)
        lhs = sum(Fraction(1, 2 ** n.depth) for n in tree.nodes)
        rhs = 1 + sum(Fraction(l, 2 ** l) for l in tree.leaf_depths())
        assert lhs == rhs
