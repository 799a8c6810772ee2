"""Space floors, probe limits, and the comparison report."""

import math
from dataclasses import asdict

import pytest

from bloommap import (
    InvalidEpsilon,
    build_simple,
    build_tree,
    new_distribution,
    space_report,
)
from bloommap.bounds import (
    fast_negative_probe_limit,
    fast_positive_probe_limit,
    lb_false_positive_only,
    lb_general,
    lb_symmetric,
    standard_negative_probe_limit,
)
from bloommap.cli import render
from bloommap.harness import PMapSpec, generate_pmap

GRID_EPS = [2.0 ** -t for t in range(3, 11)]
GRID_H = [0.0, 0.5, 1.0, 2.0, 4.0]
LOG2E = math.log2(math.e)


def test_fp_only_floor_values():
    assert lb_false_positive_only(0.01, 0.0) == pytest.approx(6.643856189774724, abs=1e-12)
    assert lb_false_positive_only(2 ** -8, 0.0) == 8.0
    assert lb_false_positive_only(2 ** -8, 1.75) == 9.75
    # a full error budget leaves only the entropy to pay for
    assert lb_false_positive_only(1.0, 3.0) == 3.0


def test_general_floor_value():
    got = lb_general(2 ** -7, 1 / 16, 1 / 16, 1.0)
    assert got == pytest.approx(6.768935556800404, abs=1e-12)


def test_general_floor_reduces_to_fp_only():
    for eps in GRID_EPS:
        for h in GRID_H:
            a = lb_general(eps, 0.0, 0.0, h)
            b = lb_false_positive_only(eps, h)
            assert abs(a - b) <= 1e-12


def test_symmetric_floor_values():
    # (1 - eps) (log2(1/eps) + H - log2(e) (eps + eps^2)), by hand:
    #   eps = 0.01, H = 0: 0.99 (log2 100 - log2(e) 0.0101) = 6.562992120163128
    #   eps = 0.5,  H = 1: 0.5 (1 + 1 - log2(e) 0.75) = 1 - 0.375 log2(e)
    #                      = 0.4589893596666388
    assert lb_symmetric(0.01, 0.0) == pytest.approx(6.562992120163128, abs=1e-12)
    assert lb_symmetric(0.5, 1.0) == pytest.approx(0.4589893596666388, abs=1e-12)


def test_symmetric_floor_sits_above_the_exact_form():
    # the relaxed two-term floor sits slightly below the exact closed
    # form it simplifies: it swaps log2(1-eps) = log2(e) ln(1-eps) for
    # -log2(e) (eps + eps^2), and ln(1-x) >= -(x + x^2) for x up to about
    # 0.684, so it stays a lower bound.  The gap has a clean expression
    # and shrinks as eps drops.
    for eps in GRID_EPS:
        for h in GRID_H:
            gap = lb_symmetric(eps, h) - lb_general(eps, eps, 0.0, h)
            want = (1.0 - eps) * (-LOG2E * (eps + eps * eps) - math.log2(1.0 - eps))
            assert gap == pytest.approx(want, abs=1e-12)
            assert gap < 0.0
    worst = (1.0 - 0.125) * (-LOG2E * (0.125 + 0.125 ** 2) - math.log2(1.0 - 0.125))
    assert worst == pytest.approx(-0.008954673159787777, abs=1e-12)


def test_floor_domain_errors():
    with pytest.raises(InvalidEpsilon):
        lb_false_positive_only(0.0, 1.0)
    with pytest.raises(InvalidEpsilon):
        lb_false_positive_only(1.5, 1.0)
    with pytest.raises(ValueError):
        lb_false_positive_only(0.5, -1.0)
    with pytest.raises(InvalidEpsilon):
        lb_general(0.01, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidEpsilon):
        lb_general(0.01, -0.1, 0.0, 1.0)
    with pytest.raises(InvalidEpsilon):
        lb_general(0.01, 0.6, 0.5, 1.0)  # rates sum past one
    for bad in (0.0, 1.0, -2.0):
        with pytest.raises(InvalidEpsilon):
            lb_symmetric(bad, 1.0)


def test_large_rates_warn():
    with pytest.warns(UserWarning):
        lb_general(0.2, 0.0, 0.0, 1.0)
    with pytest.warns(UserWarning):
        lb_general(0.01, 0.0, 0.2, 1.0)
    # 1/8 exactly is still inside the trusted range
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lb_general(0.125, 0.125, 0.0, 1.0)


def test_probe_limits():
    assert standard_negative_probe_limit(1.75) == 3.75
    assert fast_negative_probe_limit() == 3.0
    assert fast_positive_probe_limit(4, 0, 0.5, 2 ** -7) == 17.0
    # the last value pays no detour term
    assert fast_positive_probe_limit(4, 3, 0.125, 2 ** -7) == 15.0


def _skew():
    return new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])


def test_space_report_fields():
    d = _skew()
    pairs = generate_pmap(PMapSpec(d, 400, seed=6))
    report = space_report(build_simple(pairs, d, 2 ** -7, seed=1))
    assert report.variant == "simple"
    assert report.n == 400
    assert report.b == 4
    assert report.entropy_bits == pytest.approx(1.75)
    assert report.achieved_bpk == pytest.approx(report.m / 400)
    assert report.fp_only_lower_bpk == pytest.approx(8.75)
    assert report.symmetric_lower_bpk == pytest.approx(
        lb_symmetric(2 ** -7, 1.75), abs=1e-12
    )
    assert report.ratio == pytest.approx(report.achieved_bpk / report.symmetric_lower_bpk)
    assert report.asymptotic_terms_omitted

    kv = render(asdict(report)).splitlines()
    assert "variant=simple" in kv
    assert "asymptotic_terms_omitted=true" in kv
    assert f"n={report.n}" in kv
    assert f"achieved_bpk={report.achieved_bpk:.6g}" in kv
    assert f"symmetric_lower_bpk={report.symmetric_lower_bpk:.6g}" in kv


def test_variant_bpk_reads_the_plan():
    # tallies that follow the distribution exactly make m the ceiling of
    # n * variant_bpk, so the two differ by less than one bit over n keys
    d = _skew()
    n = 800
    pairs = generate_pmap(PMapSpec(d, n, seed=6))
    fast = build_tree(pairs, d, 2 ** -7, seed=1, scheme="fast")
    custom = {node.index: node.k + (not node.is_leaf) for node in fast.tree.nodes}
    maps = [
        build_simple(pairs, d, 2 ** -7, seed=1),
        build_tree(pairs, d, 2 ** -7, seed=1, scheme="standard"),
        fast,
        build_tree(pairs, d, 2 ** -7, seed=1, scheme="custom", custom=custom),
    ]
    bpk = []
    for bmap in maps:
        t = bmap.simple_ks or tuple(bmap.tree.path_weight(i) for i in range(d.b))
        assert bmap.describe()["path_weights"] == t
        report = space_report(bmap)
        assert 0.0 <= report.achieved_bpk - report.variant_bpk < 1 / n
        bpk.append(round(report.variant_bpk, 5))
    assert bpk[:3] == [12.62358, 15.50897, 18.03369]  # simple, standard, fast


def test_space_report_custom_has_no_variant_form():
    d = new_distribution([1, 1], "xy")
    pairs = [(f"k{i}".encode(), b"x" if i % 2 else b"y") for i in range(64)]
    tree_probe = build_tree(pairs, d, 2 ** -5, seed=2, scheme="fast")
    custom = {n.index: n.k for n in tree_probe.tree.nodes}
    bmap = build_tree(pairs, d, 2 ** -5, seed=2, scheme="custom", custom=custom)
    # variant_bpk reads the map's own path weights, so a custom map that
    # copies the fast counts reports the fast map's value
    report = space_report(bmap)
    assert report.variant_bpk == space_report(tree_probe).variant_bpk
    assert f"variant_bpk={report.variant_bpk:.6g}" in render(asdict(report)).splitlines()
    assert report.m == tree_probe.m  # same counts, same geometry
