"""Workload generation, discard builds, and measurement."""

import math
import random

import pytest

from bloommap import UnknownValue, build_tree, new_distribution, uniform_distribution
from bloommap.distribution import integer_counts
from bloommap.harness import (
    KEY_BYTES,
    ErrorReport,
    PMapSpec,
    build_with_discard,
    generate_pmap,
    measure,
)

TERN = new_distribution([0.5, 0.3, 0.2], ["a", "b", "c"])


# -- workload generation ----------------------------------------------


def test_generate_counts_follow_apportionment():
    pairs = generate_pmap(PMapSpec(TERN, 10, seed=0))
    assert len(pairs) == 10
    tally = {label: 0 for label in TERN.labels}
    for key, label in pairs:
        assert len(key) == KEY_BYTES
        tally[label] += 1
    assert tuple(tally[l] for l in TERN.labels) == (5, 3, 2)
    assert integer_counts(TERN, 10) == (5, 3, 2)


def test_generate_is_deterministic():
    a = generate_pmap(PMapSpec(TERN, 50, seed=7))
    b = generate_pmap(PMapSpec(TERN, 50, seed=7))
    c = generate_pmap(PMapSpec(TERN, 50, seed=8))
    assert a == b
    assert a != c


def test_generate_keys_are_distinct():
    pairs = generate_pmap(PMapSpec(uniform_distribution(4), 100_000, seed=3))
    assert len({key for key, _ in pairs}) == 100_000


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate_pmap(PMapSpec(TERN, 0, seed=1))


# -- variant dispatch -------------------------------------------------


def test_build_tree_dispatch():
    pairs = generate_pmap(PMapSpec(TERN, 200, seed=4))
    for variant in ("simple", "standard", "fast"):
        bmap = build_tree(pairs, TERN, 2 ** -5, seed=2, scheme=variant)
        assert bmap.variant == variant
        assert bmap.frozen
        assert (bmap.tree is None) == (variant == "simple")
    with pytest.raises(ValueError):
        build_tree(pairs, TERN, 2 ** -5, seed=2, scheme="turbo")


# -- discard builds ---------------------------------------------------


def test_discard_zero_changes_nothing():
    pairs = generate_pmap(PMapSpec(TERN, 300, seed=5))
    plain = build_tree(pairs, TERN, 2 ** -5, seed=9, scheme="simple")
    nodrop = build_with_discard(pairs, TERN, 2 ** -5, seed=9,
                                variant="simple", discard_fraction=0.0)
    assert nodrop.n == plain.n == 300
    assert nodrop.bits.to_bytes() == plain.bits.to_bytes()


def test_discard_drops_the_floor_per_value():
    one = new_distribution([1], ["only"])
    pairs = generate_pmap(PMapSpec(one, 160, seed=6))
    bmap = build_with_discard(pairs, one, 2 ** -4, seed=6, variant="simple")
    assert bmap.n == 150  # floor(160 / 16) keys dropped

    counts = integer_counts(TERN, 400)
    pairs = generate_pmap(PMapSpec(TERN, 400, seed=6))
    bmap = build_with_discard(pairs, TERN, 2 ** -4, seed=6, variant="fast")
    expect = sum(c - math.floor(c / 16) for c in counts)
    assert bmap.n == expect


def test_discard_induces_bounded_false_negatives():
    pairs = generate_pmap(PMapSpec(TERN, 800, seed=7))
    counts = integer_counts(TERN, 800)
    frac = 0.05
    bmap = build_with_discard(pairs, TERN, 2 ** -5, seed=7,
                              variant="standard", discard_fraction=frac)
    report = measure(bmap, pairs, neg_samples=1000, seed=8)
    dropped_total = 0
    for i, count in enumerate(counts):
        allowed = math.floor(frac * count)
        bottoms = report.false_negative_rates[i] * count
        assert round(bottoms) <= allowed
        dropped_total += allowed
    # with this many dropped keys at least one must actually read absent
    assert sum(
        r * c for r, c in zip(report.false_negative_rates, counts)
    ) >= 1


def test_discard_groups_mixed_labels_by_value():
    # a value labelled by str on some pairs and by bytes on others is one
    # group, so the build drops the keys that the all-bytes build drops
    pairs = generate_pmap(PMapSpec(TERN, 400, seed=4))
    mixed = [(key, label.decode() if t % 2 else label) for t, (key, label) in enumerate(pairs)]
    want = build_with_discard(pairs, TERN, 2 ** -4, seed=4, variant="fast", discard_fraction=0.1)
    got = build_with_discard(mixed, TERN, 2 ** -4, seed=4, variant="fast", discard_fraction=0.1)
    assert got.n == want.n == 400 - sum(math.floor(0.1 * c) for c in integer_counts(TERN, 400))
    assert got.bits.to_bytes() == want.bits.to_bytes()


def test_discard_reads_any_iterable_once():
    pairs = generate_pmap(PMapSpec(TERN, 100, seed=8))
    want = build_with_discard(pairs, TERN, 2 ** -5, seed=8, variant="fast")
    got = build_with_discard(iter(pairs), TERN, 2 ** -5, seed=8, variant="fast")
    assert got.n == want.n
    assert got.bits.to_bytes() == want.bits.to_bytes()


def test_discard_fraction_validation():
    pairs = generate_pmap(PMapSpec(TERN, 50, seed=1))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            build_with_discard(pairs, TERN, 2 ** -4, seed=1,
                               variant="simple", discard_fraction=bad)


def test_discard_is_deterministic():
    pairs = generate_pmap(PMapSpec(TERN, 300, seed=2))
    a = build_with_discard(pairs, TERN, 2 ** -5, seed=3, variant="fast")
    b = build_with_discard(pairs, TERN, 2 ** -5, seed=3, variant="fast")
    assert a.bits.to_bytes() == b.bits.to_bytes()
    assert a.n == b.n


# -- measurement ------------------------------------------------------


def test_measure_counts_and_rates():
    pairs = generate_pmap(PMapSpec(TERN, 400, seed=9))
    bmap = build_tree(pairs, TERN, 2 ** -5, seed=4, scheme="fast")
    report = measure(bmap, pairs, neg_samples=2000, seed=10)
    assert isinstance(report, ErrorReport)
    assert report.pos_counts == integer_counts(TERN, 400)
    assert report.false_negative_rates == (0.0, 0.0, 0.0)
    assert 0.0 <= report.false_positive_rate <= 1.0
    assert report.neg_samples == 2000
    assert report.zero_fraction == bmap.bits.zero_fraction()
    assert report.neg_probe_mean > 0.0

    # per-value probe means recomputed straight from queries
    sums = [0] * TERN.b
    for key, label in pairs:
        i = TERN.index_of(label)
        sums[i] += bmap.query(key).probes
    for i, count in enumerate(report.pos_counts):
        assert report.pos_probe_means[i] == pytest.approx(sums[i] / count)


def _scalar_measure(bmap, pairs, neg_samples, seed):
    """measure() as one scalar query per key: the report it must equal."""
    b = bmap.b
    counts, wrong, bottoms, probe_sums = [0] * b, [0] * b, [0] * b, [0] * b
    for key, label in pairs:
        i = bmap.dist.index_of(label)
        out = bmap.query(key)
        counts[i] += 1
        probe_sums[i] += out.probes
        bottoms[i] += out.is_bottom
        wrong[i] += not out.is_bottom and out.value_index != i
    stored = {key for key, _ in pairs}
    rnd = random.Random(seed)
    hits = neg_probes = done = 0
    while done < neg_samples:
        key = rnd.randbytes(KEY_BYTES)
        if key in stored:
            continue
        out = bmap.query(key)
        done += 1
        neg_probes += out.probes
        hits += not out.is_bottom

    def rates(tally):
        return tuple(t / c if c else 0.0 for t, c in zip(tally, counts))

    return ErrorReport(
        false_positive_rate=hits / neg_samples,
        misassignment_rates=rates(wrong),
        false_negative_rates=rates(bottoms),
        zero_fraction=bmap.bits.zero_fraction(),
        neg_probe_mean=neg_probes / neg_samples,
        pos_probe_means=rates(probe_sums),
        pos_counts=tuple(counts),
        neg_samples=neg_samples,
    )


@pytest.mark.parametrize("variant", ["simple", "standard", "fast"])
def test_measure_matches_a_scalar_tally(variant):
    # loose epsilon and a discard build make misassignments and false
    # negatives common, so every tally is exercised
    dist = new_distribution([5, 3, 2, 1, 1], "abcde")
    pairs = generate_pmap(PMapSpec(dist, 600, seed=3))
    for bmap in (build_tree(pairs, dist, 2 ** -2, 4, variant),
                 build_with_discard(pairs, dist, 2 ** -3, 4, variant, 0.2)):
        report = measure(bmap, pairs, 1200, seed=5)
        assert report == _scalar_measure(bmap, pairs, 1200, seed=5)
        assert max(report.misassignment_rates) > 0.0
    assert max(report.false_negative_rates) > 0.0
    assert measure(bmap, [], 1000, seed=6) == _scalar_measure(bmap, [], 1000, seed=6)


def test_measure_draws_the_absent_keys_one_draw_per_key_gives():
    # measure draws its absent keys a round at a time; they must be the
    # keys that one draw per key gives, also where a draw is a stored key
    # and one more is drawn in its place
    seed, neg = 21, 1000
    rnd = random.Random(seed)
    draws = [rnd.randbytes(KEY_BYTES) for _ in range(neg + 2)]
    taken = {draws[3], draws[700]}
    pairs = generate_pmap(PMapSpec(TERN, 300, seed=9)) + [(draws[3], b"a"), (draws[700], b"c")]
    bmap = build_tree(pairs, TERN, 2 ** -4, seed=4, scheme="standard")
    batches = []
    query_many = bmap.query_many
    bmap.query_many = lambda keys: batches.append(list(keys)) or query_many(keys)
    report = measure(bmap, pairs, neg, seed=seed)
    # one batch walk answers both: the stored keys first, then the draws
    [batch] = batches
    assert batch[: len(pairs)] == [key for key, _ in pairs]
    assert batch[len(pairs) :] == [key for key in draws if key not in taken]
    del bmap.query_many
    assert report == _scalar_measure(bmap, pairs, neg, seed=seed)


def test_measure_is_deterministic():
    pairs = generate_pmap(PMapSpec(TERN, 200, seed=11))
    bmap = build_tree(pairs, TERN, 2 ** -5, seed=5, scheme="simple")
    assert measure(bmap, pairs, 1500, seed=12) == measure(bmap, pairs, 1500, seed=12)
    assert measure(bmap, pairs, 1500, seed=12) != measure(bmap, pairs, 1500, seed=13)


def test_measure_requires_enough_negatives():
    pairs = generate_pmap(PMapSpec(TERN, 50, seed=1))
    bmap = build_tree(pairs, TERN, 2 ** -4, seed=1, scheme="simple")
    with pytest.raises(ValueError):
        measure(bmap, pairs, neg_samples=999, seed=2)


def test_measure_labels_resolve_like_the_builders():
    pairs = generate_pmap(PMapSpec(TERN, 50, seed=1))
    bmap = build_tree(pairs, TERN, 2 ** -4, seed=1, scheme="simple")
    text_pairs = [(key, label.decode()) for key, label in pairs]
    assert measure(bmap, text_pairs, 1000, seed=2) == measure(bmap, pairs, 1000, seed=2)
    with pytest.raises(UnknownValue, match="zzz"):
        measure(bmap, pairs + [(b"stray-key", b"zzz")], neg_samples=1000, seed=2)
