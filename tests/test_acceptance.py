"""Acceptance suite: one test per numbered criterion of the package's
guarantees, each printing a PASS/FAIL line with the measured numbers.

The heavyweight workload (n = 10^5 keys over a 4-value distribution at
epsilon = 2^-7) is built once per module and shared by criteria 2-5.
"""

import io
import itertools
import math
import random
import time

import pytest

from bloommap import (
    FormatError,
    build_simple,
    build_tree,
    lb_false_positive_only,
    lb_general,
    lb_symmetric,
    load,
    new_distribution,
    save,
    space_report,
    uniform_distribution,
    zero_fraction,
)
from bloommap.bounds import fast_positive_probe_limit
from bloommap.codetree import (
    _garsia_wachs_depths,
    assign_hash_counts,
    assign_offsets,
    build_alphabetic_tree,
    tree_from_depths,
    tree_property_report,
)
from bloommap.harness import VARIANTS, PMapSpec, build_variant, generate_pmap

LOG2E = math.log2(math.e)

ACC_DIST = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
EPS = 2.0 ** -7
N = 100_000
NEG = 100_000


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


# -- shared workload --------------------------------------------------


@pytest.fixture(scope="module")
def acc_pairs():
    return generate_pmap(PMapSpec(ACC_DIST, N, seed=424242))


@pytest.fixture(scope="module")
def acc_maps(acc_pairs):
    return {
        "simple": build_simple(acc_pairs, ACC_DIST, EPS, seed=101),
        "standard": build_tree(acc_pairs, ACC_DIST, EPS, seed=102, scheme="standard"),
        "fast": build_tree(acc_pairs, ACC_DIST, EPS, seed=103, scheme="fast"),
    }


@pytest.fixture(scope="module")
def positive_stats(acc_maps, acc_pairs):
    """Query every stored pair once per variant: per-value counts, wrong
    answers, understatements, absences, and probe totals."""
    index = {label: i for i, label in enumerate(ACC_DIST.labels)}
    stats = {}
    for name, bmap in acc_maps.items():
        b = ACC_DIST.b
        counts = [0] * b
        wrong = [0] * b
        probe_sum = [0] * b
        bottoms = 0
        understated = 0
        for key, label in acc_pairs:
            i = index[label]
            out = bmap.query(key)
            counts[i] += 1
            probe_sum[i] += out.probes
            if out.is_bottom:
                bottoms += 1
            elif out.value_index != i:
                wrong[i] += 1
                if out.value_index < i:
                    understated += 1
        stats[name] = {
            "counts": tuple(counts),
            "mis_rates": tuple(wrong[i] / counts[i] for i in range(b)),
            "probe_means": tuple(probe_sum[i] / counts[i] for i in range(b)),
            "bottoms": bottoms,
            "understated": understated,
        }
    return stats


@pytest.fixture(scope="module")
def negative_stats(acc_maps, acc_pairs):
    """Query NEG fresh keys per variant: (false positive rate, mean probes)."""
    stored = {key for key, _ in acc_pairs}
    stats = {}
    for name, bmap in acc_maps.items():
        rnd = random.Random(868686)
        hits = 0
        probes = 0
        done = 0
        while done < NEG:
            key = rnd.randbytes(16)
            if key in stored:
                continue
            out = bmap.query(key)
            done += 1
            probes += out.probes
            if not out.is_bottom:
                hits += 1
        stats[name] = (hits / NEG, probes / NEG)
    return stats


# -- criteria ---------------------------------------------------------


def test_criterion_01_no_false_negatives(capsys):
    t0 = time.perf_counter()
    misses = 0
    total = 0
    for s in range(100):
        variant = VARIANTS[s % 3]
        b = (1, 2, 4, 8)[(s // 3) % 4]
        dist = uniform_distribution(b)
        pairs = generate_pmap(PMapSpec(dist, 10_000, seed=5000 + s))
        bmap = build_variant(pairs, dist, 2 ** -7, seed=s, variant=variant)
        for key, _ in pairs:
            total += 1
            if bmap.query(key).is_bottom:
                misses += 1
    elapsed = time.perf_counter() - t0
    ok = misses == 0 and elapsed < 120.0
    announce(capsys, 1, ok,
             f"{misses} absences over {total} stored lookups in 100 builds, "
             f"{elapsed:.1f}s (limit 120s)")
    assert ok


def test_criterion_02_false_positive_rate(negative_stats, capsys):
    limit = EPS + 3.0 * math.sqrt(EPS / NEG)
    rates = {name: negative_stats[name][0] for name in ("simple", "fast")}
    ok = all(rate <= limit for rate in rates.values())
    announce(capsys, 2, ok,
             f"f+ simple={rates['simple']:.6f} fast={rates['fast']:.6f} "
             f"(limit {limit:.6f})")
    assert ok


def test_criterion_03_misassignment_rate(positive_stats, capsys):
    worst = -1.0
    worst_desc = "no value reached the sample-size floor"
    ok = True
    for name in ("simple", "fast"):
        stats = positive_stats[name]
        for i, count in enumerate(stats["counts"]):
            if count < 10_000:
                continue
            limit = EPS + 3.0 * math.sqrt(EPS / count)
            slack = stats["mis_rates"][i] - limit
            if slack > worst:
                worst = slack
                worst_desc = (f"{name} value {i}: f*={stats['mis_rates'][i]:.6f} "
                              f"vs limit {limit:.6f}")
            ok = ok and slack <= 0.0
    monotone = all(
        stats["understated"] == 0 and stats["bottoms"] == 0
        for stats in positive_stats.values()
    )
    ok = ok and monotone
    announce(capsys, 3, ok,
             f"worst case {worst_desc}; all wrong answers overstated: {monotone}")
    assert ok


def test_criterion_04_space_vs_floors(acc_maps, capsys):
    bmap = acc_maps["simple"]
    closed_form = LOG2E * (math.log2(1.0 / EPS) + 1.75)
    achieved = bmap.bits_per_key()
    report = space_report(bmap)
    over = achieved - closed_form
    ok = 0.0 <= over <= 0.15 and report.ratio <= 1.50
    announce(capsys, 4, ok,
             f"achieved {achieved:.5f} bits/key = closed form {closed_form:.5f} "
             f"+ {over:.5f} (limit +0.15); ratio to relaxed floor "
             f"{report.ratio:.5f} (limit 1.50)")
    assert ok


def test_criterion_05_probe_costs(negative_stats, positive_stats, capsys):
    fast_neg = negative_stats["fast"][1]
    std_neg = negative_stats["standard"][1]
    ok = fast_neg <= 3.05 and std_neg <= 1.75 + 2.0 + 0.05
    pos_desc = []
    for i, p in enumerate(ACC_DIST.probs):
        mean = positive_stats["fast"]["probe_means"][i]
        limit = fast_positive_probe_limit(ACC_DIST.b, i, p, EPS) + 0.5
        ok = ok and mean <= limit
        pos_desc.append(f"v{i}={mean:.2f}/{limit:.2f}")
    announce(capsys, 5, ok,
             f"neg probes fast={fast_neg:.3f} (limit 3.05) "
             f"standard={std_neg:.3f} (limit 3.80); fast pos {' '.join(pos_desc)}")
    assert ok


def test_criterion_06_zero_bit_concentration(capsys):
    inside = 0
    lo, hi = 1.0, 0.0
    for s in range(100):
        variant = VARIANTS[s % 3]
        pairs = generate_pmap(PMapSpec(ACC_DIST, 10_000, seed=9000 + s))
        bmap = build_variant(pairs, ACC_DIST, 2 ** -7, seed=200 + s, variant=variant)
        rho = zero_fraction(bmap)
        lo, hi = min(lo, rho), max(hi, rho)
        if 0.48 <= rho <= 0.52:
            inside += 1
    ok = inside >= 99
    announce(capsys, 6, ok,
             f"{inside}/100 builds inside [0.48, 0.52]; observed range "
             f"[{lo:.4f}, {hi:.4f}]")
    assert ok


def _optimal_cost(weights):
    # exhaustive-equivalent interval DP over ordered leaf ranges
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
            cost[i][j] = (
                min(cost[i][s] + cost[s + 1][j] for s in range(i, j))
                + prefix[j + 1] - prefix[i]
            )
    return cost[0][n - 1]


def test_criterion_07_tree_cost_is_optimal(capsys):
    cases = 0
    mismatches = 0
    for b in range(1, 9):
        for cuts in itertools.combinations(range(1, 16), b - 1):
            bounds = (0, *cuts, 16)
            parts = tuple(y - x for x, y in zip(bounds, bounds[1:]))
            depths = _garsia_wachs_depths(parts)
            got = sum(w * l for w, l in zip(parts, depths))
            cases += 1
            if got != _optimal_cost(parts):
                mismatches += 1
    ok = mismatches == 0 and cases == 16384
    announce(capsys, 7, ok,
             f"{cases} weight vectors (all b <= 8 in sixteenths), "
             f"{mismatches} cost mismatches")
    assert ok


def _random_full_depths(rnd, b, depth=0):
    if b == 1:
        return [depth]
    split = rnd.randint(1, b - 1)
    return (_random_full_depths(rnd, split, depth + 1)
            + _random_full_depths(rnd, b - split, depth + 1))


def test_criterion_08_structural_clauses(acc_maps, capsys):
    rnd = random.Random(8181)
    trees = [acc_maps["standard"].tree, acc_maps["fast"].tree]
    for _ in range(60):
        b = rnd.randint(1, 16)
        d = new_distribution([rnd.randint(1, 64) for _ in range(b)],
                             [f"v{i}" for i in range(b)])
        trees.append(build_alphabetic_tree(d))
    for _ in range(100):
        b = rnd.randint(2, 16)
        trees.append(tree_from_depths(sorted(_random_full_depths(rnd, b))))
    failures = 0
    skipped = 0
    for tree in trees:
        report = tree_property_report(tree)
        if not report.all_ok:
            failures += 1
        if report.path_difference_skipped:
            skipped += 1
    ok = failures == 0 and skipped == 0
    announce(capsys, 8, ok,
             f"{len(trees)} trees (constructed + random canonical shapes), "
             f"{failures} clause failures, {skipped} skipped checks")
    assert ok


GRID = [(eps, h) for eps in (2.0 ** -t for t in range(3, 11))
        for h in (0.0, 0.5, 1.0, 2.0, 4.0)]


def test_criterion_09_floor_reduction_identity(capsys):
    worst = max(
        abs(lb_general(eps, 0.0, 0.0, h) - lb_false_positive_only(eps, h))
        for eps, h in GRID
    )
    ok = worst <= 1e-12
    announce(capsys, 9, ok,
             f"reduction identity on {len(GRID)} grid points, "
             f"max deviation {worst:.3g} (limit 1e-12)")
    assert ok


def test_criterion_09_relaxed_floor_direction(capsys):
    # stated expectation: the relaxed floor never exceeds the exact form
    # with equal false positive and misassignment budgets
    worst = max(
        lb_symmetric(eps, h) - lb_general(eps, eps, 0.0, h) for eps, h in GRID
    )
    ok = worst <= 0.0
    announce(capsys, 9, ok,
             f"max(relaxed - exact) = {worst:.3g} bits over {len(GRID)} grid "
             f"points (gap (1-e)(-log2(e)(e+e^2) - log2(1-e)), limit 0)")
    assert ok


def test_criterion_10_traversal_matches_brute_force(capsys):
    rnd = random.Random(1010)
    mismatches = 0
    queries = 0
    for instance in range(1000):
        b = rnd.randint(1, 4)
        d = new_distribution([rnd.randint(1, 8) for _ in range(b)],
                             [f"v{i}" for i in range(b)])
        n = rnd.randint(1, 32)
        eps = 2.0 ** -rnd.randint(3, 8)
        scheme = ("standard", "fast", "custom")[instance % 3]
        custom = None
        if scheme == "custom":
            probe = build_alphabetic_tree(d)
            assign_offsets(probe)
            assign_hash_counts(probe, eps, "fast")
            custom = {node.index: node.k + rnd.randint(0, 2) for node in probe.nodes}
        pairs = [
            (f"i{instance}-k{t}".encode(), rnd.choice(d.labels)) for t in range(n)
        ]
        bmap = build_tree(pairs, d, eps, seed=instance, scheme=scheme, custom=custom)

        def fully_set(key, i):
            fam = bmap.family
            for w in bmap.tree.path_ids(i):
                node = bmap.tree.nodes[w]
                for j in range(1, node.k + 1):
                    pos = (fam.base_hash(node.base_start + j, key) + node.offset) % bmap.m
                    if not bmap.bits.get_bit(pos):
                        return False
            return True

        probe_keys = [key for key, _ in pairs]
        probe_keys += [f"i{instance}-fresh{t}".encode() for t in range(8)]
        for key in probe_keys:
            hits = [i for i in range(b) if fully_set(key, i)]
            want = max(hits) if hits else None
            queries += 1
            if bmap.query(key).value_index != want:
                mismatches += 1
    ok = mismatches == 0
    announce(capsys, 10, ok,
             f"1000 instances, {queries} lookups compared against the "
             f"all-paths evaluation, {mismatches} mismatches")
    assert ok


def test_criterion_11_persistence(tmp_path, capsys):
    pairs = generate_pmap(PMapSpec(ACC_DIST, 10_000, seed=111))
    bmap = build_tree(pairs, ACC_DIST, EPS, seed=11, scheme="standard")
    path = tmp_path / "acc.bmap"
    save(bmap, path)
    back = load(path)
    keys = [key for key, _ in pairs[:5000]]
    keys += [f"fresh-{t}".encode() for t in range(5000)]
    outcome_mismatches = sum(
        1 for key in keys if back.query(key) != bmap.query(key)
    )

    data = path.read_bytes()
    rnd = random.Random(1111)
    rejected = 0
    trials = 0
    for _ in range(30):
        broken = bytearray(data)
        broken[rnd.randrange(len(data))] ^= rnd.randint(1, 255)
        trials += 1
        try:
            load(io.BytesIO(bytes(broken)))
        except FormatError:
            rejected += 1
    for cut in (0, 10, 44, len(data) // 2, len(data) - 1):
        trials += 1
        try:
            load(io.BytesIO(data[:cut]))
        except FormatError:
            rejected += 1
    ok = outcome_mismatches == 0 and rejected == trials
    announce(capsys, 11, ok,
             f"{len(keys)} round-trip outcomes, {outcome_mismatches} mismatches; "
             f"{rejected}/{trials} corrupted or truncated files rejected")
    assert ok
