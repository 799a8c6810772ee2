"""Bit array, builders, and query behaviour of BloomMap.

The load-bearing invariants here: a stored key is never reported absent,
a wrong answer for a stored key can only name a less probable value, and
the vectorized write path produces bit-for-bit the same array as the
scalar one.
"""

import copy
import dataclasses
import io
import itertools
import math
import pickle
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloommap import (
    BloomMap,
    DuplicateKey,
    FrozenError,
    InvalidEpsilon,
    InvalidScheme,
    QueryOutcome,
    UnknownValue,
    build_simple,
    build_tree,
    integer_counts,
    load,
    new_distribution,
    plan_tree_map,
    save,
    uniform_distribution,
    zero_fraction,
)
from bloommap.codetree import (
    analytic_error_bounds,
    assign_hash_counts,
    assign_offsets,
    build_alphabetic_tree,
    size_bit_array,
)
from bloommap.core import (
    CHUNK,
    BitArray,
    _compile,
    _tally,
    simple_analytic_bounds,
    simple_hash_counts,
)
from bloommap.harness import PMapSpec, build_variant, generate_pmap
from bloommap.hashing import HashFamily

LOG2E = math.log2(math.e)

SKEW = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
ONE = new_distribution([3], ["only"])


# -- bit array --------------------------------------------------------


def test_bit_layout():
    bits = BitArray(16)
    bits.set_bit(0)
    assert bits.to_bytes() == b"\x01\x00"
    bits.set_bit(9)
    assert bits.to_bytes() == b"\x01\x02"
    assert bits.get_bit(0) == 1
    assert bits.get_bit(9) == 1
    assert bits.get_bit(8) == 0
    assert bits.ones() == 2
    assert bits.zero_fraction() == 14 / 16


def test_bit_array_ctor_validation():
    with pytest.raises(ValueError):
        BitArray(0)
    with pytest.raises(ValueError):
        BitArray(9, data=b"\x00")  # needs two bytes
    bits = BitArray(9, data=b"\x01\x01")
    assert bits.get_bit(0) == 1 and bits.get_bit(8) == 1


def test_set_many_matches_scalar_sets():
    # as a list, a uint64 array or an int64 array; 5,000 positions into a
    # few bytes collide in every byte, so the write loop runs many rounds
    rnd = random.Random(3)
    for m, count in ((1, 1), (7, 7), (64, 64), (1000, 200), (1, 5000), (9, 5000), (64, 5000)):
        positions = [rnd.randrange(m) for _ in range(count)]
        a = BitArray(m)
        for p in positions:
            a.set_bit(p)
        for batch in (positions, np.array(positions, dtype=np.uint64),
                      np.array(positions, dtype=np.int64)):
            b = BitArray(m)
            b.set_many(batch)
            assert a.to_bytes() == b.to_bytes()
    empty = BitArray(10)
    for batch in ([], np.array([], dtype=np.uint64), np.array([], dtype=np.int64)):
        empty.set_many(batch)
    assert empty.ones() == 0


def test_set_many_refuses_positions_outside_the_array():
    bits = BitArray(9)
    for batch in ([9], np.array([3, 9], dtype=np.uint64), np.array([3, -1], dtype=np.int64)):
        with pytest.raises(IndexError):
            bits.set_many(batch)
    assert bits.ones() == 0  # every position is checked before one is set


def test_frozen_bit_array_keeps_its_count():
    bits = BitArray(1000)
    bits.set_many(np.arange(0, 1000, 3, dtype=np.uint64))
    assert bits.ones() == 334
    bits.set_bit(1)  # an unfrozen array counts afresh on every call
    before = bits.zero_fraction()
    assert before == 665 / 1000
    bits.freeze()
    assert bits.zero_fraction() == bits.zero_fraction() == before
    assert bits.ones() == 335
    # a map copy given a new array reports that array's count, not the old one's
    bmap = build_simple(generate_pmap(PMapSpec(SKEW, 300, seed=4)), SKEW, 2 ** -5, seed=4)
    kept = zero_fraction(bmap)
    cleared = copy.copy(bmap)
    cleared.bits = BitArray(bmap.m)
    cleared.bits.freeze()
    assert zero_fraction(cleared) == 1.0
    assert zero_fraction(bmap) == kept < 1.0


def test_frozen_bit_array_rejects_writes():
    bits = BitArray(8)
    bits.set_bit(3)
    bits.freeze()
    assert bits.frozen
    with pytest.raises(FrozenError):
        bits.set_bit(4)
    for batch in ([1], [], np.array([1], dtype=np.int64)):
        with pytest.raises(FrozenError):
            bits.set_many(batch)
    assert bits.get_bit(3) == 1  # reads still fine


# -- outcome type -----------------------------------------------------


def test_outcome_is_immutable():
    # a frozen record whose own __init__ fills its dict: it constructs,
    # compares, hashes, prints, copies and refuses changes as the generated
    # frozen dataclass does
    out = QueryOutcome(value_index=None, value=None, probes=3, hash_evals=3)
    assert out.is_bottom
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.probes = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del out.probes
    hit = QueryOutcome(value_index=1, value=b"b", probes=9, hash_evals=7)
    assert not hit.is_bottom
    assert hit == QueryOutcome(1, b"b", 9, 7)
    assert hash(hit) == hash(QueryOutcome(1, b"b", 9, 7)) == hash((1, b"b", 9, 7))
    assert hit != (1, b"b", 9, 7)
    assert hit != out
    assert repr(hit) == "QueryOutcome(value_index=1, value=b'b', probes=9, hash_evals=7)"
    fields = {"value_index": 1, "value": b"b", "probes": 9, "hash_evals": 7}
    assert dataclasses.asdict(hit) == fields
    assert vars(hit) == fields
    assert dataclasses.replace(hit, probes=10) == QueryOutcome(1, b"b", 10, 7)
    assert [f.name for f in dataclasses.fields(QueryOutcome)] == list(fields)
    for twin in (pickle.loads(pickle.dumps(hit)), copy.copy(hit), copy.deepcopy(hit)):
        assert twin == hit and type(twin) is QueryOutcome
        assert vars(twin) == fields
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.value = b"c"
    with pytest.raises(TypeError):
        QueryOutcome(1, b"b", 9)


# -- flat hash counts and sizing --------------------------------------


def test_simple_hash_counts():
    assert simple_hash_counts(SKEW, 2 ** -7) == (8, 9, 10, 10)
    half = new_distribution([1, 1], "xy")
    assert simple_hash_counts(half, 2 ** -4) == (5, 5)
    one = new_distribution([3], ["only"])
    assert simple_hash_counts(one, 2 ** -4) == (4,)
    with pytest.raises(InvalidEpsilon):
        simple_hash_counts(SKEW, 0.0)


def test_simple_analytic_bounds():
    fp, mis = simple_analytic_bounds((8, 9, 10, 10))
    assert fp == 2.0 ** -7
    assert mis == (2.0 ** -8, 2.0 ** -9, 2.0 ** -10, 0.0)


def test_simple_sizing():
    pairs = generate_pmap(PMapSpec(SKEW, 40, seed=11))
    bmap = build_simple(pairs, SKEW, 2 ** -7, seed=1)
    assert bmap.m == 505
    assert bmap.n == 40
    assert bmap.simple_ks == (8, 9, 10, 10)
    assert bmap.family.k == 37
    assert bmap.bits_per_key() == 505 / 40
    # same formula at larger n, checked as arithmetic
    assert math.ceil(100_000 * LOG2E * (7 + 1.75)) == 1_262_359


def test_simple_bits_match_direct_hashing():
    # an independent writer: hash every pair by hand and compare arrays
    pairs = generate_pmap(PMapSpec(SKEW, 120, seed=5))
    bmap = build_simple(pairs, SKEW, 2 ** -6, seed=17)
    ref = BitArray(bmap.m)
    starts = [0]
    for k in bmap.simple_ks:
        starts.append(starts[-1] + k)
    for key, label in pairs:
        i = SKEW.index_of(label)
        for j in range(1, bmap.simple_ks[i] + 1):
            ref.set_bit(bmap.family.base_hash(starts[i] + j, key))
    assert ref.to_bytes() == bmap.bits.to_bytes()


def test_flat_sizing_follows_the_tallies():
    # m = ceil(log2(e) * sum_i c_i k_i) from the real tallies keeps half the
    # array zero where the ceilings of k_i add up (1/i over 100 values) and
    # where the tallies differ from the stated distribution (.9/.1 stated,
    # keys split .5/.5)
    n = 20_000
    harmonic = new_distribution([1 / i for i in range(1, 101)], [f"v{i}" for i in range(100)])
    labels = [label for label, c in zip(harmonic.labels, integer_counts(harmonic, n))
              for _ in range(c)]
    stated = new_distribution([0.9, 0.1], "ab")
    for dist, labels in ((harmonic, labels), (stated, [b"a", b"b"] * (n // 2))):
        pairs = [(f"key-{t}".encode(), label) for t, label in enumerate(labels)]
        bmap = build_simple(pairs, dist, 2 ** -7, seed=3)
        ks = simple_hash_counts(dist, 2 ** -7)
        tallies = [labels.count(label) for label in dist.labels]
        assert bmap.m == math.ceil(LOG2E * sum(c * k for c, k in zip(tallies, ks)))
        assert abs(zero_fraction(bmap) - 0.5) <= 0.01


def test_zero_fraction_near_half():
    pairs = generate_pmap(PMapSpec(SKEW, 40, seed=11))
    bmap = build_simple(pairs, SKEW, 2 ** -7, seed=1)
    rho = zero_fraction(bmap)
    assert rho == bmap.bits.zero_fraction()
    assert 0.35 < rho < 0.65


# -- lifecycle errors -------------------------------------------------


def test_store_and_freeze_lifecycle():
    d = new_distribution([1, 1], "xy")
    bmap = plan_tree_map(d, 2 ** -4, seed=2, scheme="fast", counts=(3, 3))
    bmap.store(b"k1", 0)
    bmap.store(b"k1", 0)  # idempotent repeat is a no-op
    with pytest.raises(DuplicateKey):
        bmap.store(b"k1", 1)
    with pytest.raises(ValueError):
        bmap.store(b"k2", 2)  # index out of range
    with pytest.raises(ValueError):
        bmap.query(b"k1")  # not frozen yet
    bmap.freeze()
    assert bmap.n == 1
    with pytest.raises(FrozenError):
        bmap.store(b"k3", 0)
    assert not bmap.query(b"k1").is_bottom


def test_store_refuses_a_float_value_index():
    # freeze() would truncate a float index: 3.99 used to store value 3,
    # and a refused 1.5 must not block storing the key again; integer
    # types operator.index takes are stored as their int
    d = uniform_distribution(4)
    bmap = plan_tree_map(d, 2 ** -7, seed=5, scheme="standard", counts=(1, 1, 1, 1))
    for value in (3.99, 1.5, 2.0, "1", None):
        with pytest.raises(TypeError):
            bmap.store(b"k2", value)
    bmap.store(b"k2", 1)
    bmap.store(b"k2", np.int64(1))  # the same pair again
    bmap.store(b"k3", True)
    bmap.store(b"k4", np.uint8(3))
    with pytest.raises(DuplicateKey, match="value index 1, not 2"):
        bmap.store(b"k2", np.int16(2))
    with pytest.raises(ValueError, match="value index 4 outside 0..3"):
        bmap.store(b"k5", np.int64(4))
    bmap.freeze()
    assert bmap.n == 3
    assert bmap.query(b"k2").value_index >= 1
    assert bmap.query(b"k3").value_index >= 1
    assert bmap.query(b"k4").value_index == 3


def test_plan_requires_exactly_one_size():
    d = uniform_distribution(2)
    with pytest.raises(ValueError):
        plan_tree_map(d, 2 ** -4, seed=0, scheme="fast")
    with pytest.raises(ValueError):
        plan_tree_map(d, 2 ** -4, seed=0, scheme="fast", n=10, counts=(5, 5))


def test_builder_input_validation():
    with pytest.raises(ValueError):
        build_simple([], SKEW, 2 ** -5, seed=0)
    with pytest.raises(ValueError):
        build_tree([], SKEW, 2 ** -5, seed=0, scheme="fast")
    with pytest.raises(UnknownValue):
        build_simple([(b"k", b"nope")], SKEW, 2 ** -5, seed=0)
    with pytest.raises(DuplicateKey):
        build_tree([(b"k", b"a"), (b"k", b"b")], SKEW, 2 ** -5, seed=0)
    d = new_distribution([1, 1], "xy")
    bmap = build_simple([(b"k", b"x")], d, 2 ** -5, seed=0)
    planned = plan_tree_map(d, 2 ** -5, seed=0, scheme="simple", counts=(1, 0))
    planned.store(b"k", 0)
    planned.freeze()
    assert planned.m == bmap.m and planned.bits.to_bytes() == bmap.bits.to_bytes()
    for frozen in (bmap, planned):
        with pytest.raises(FrozenError):
            frozen.store(b"z", 0)
    with pytest.raises(TypeError):
        bmap.query(123)


def test_builders_fail_before_reading_a_pair():
    # a builder plans its map first, so a bad variant, epsilon or custom
    # mapping raises before the pairs are read, the one error naming the
    # variants for a typo whichever way it is passed in
    read = []

    def pairs():
        for i in range(100):
            read.append(i)
            yield f"k{i}".encode(), b"a"

    custom = dict.fromkeys(range(2 * SKEW.b - 1), 9)
    for build, error, match in (
        (lambda: build_tree(pairs(), SKEW, 2 ** -5, 0, "standrad"), InvalidScheme,
         "'simple', 'standard', 'fast', 'custom'"),
        (lambda: build_variant(pairs(), SKEW, 2 ** -5, 0, "standrad"), InvalidScheme,
         "'simple', 'standard', 'fast', 'custom'"),
        (lambda: build_tree(pairs(), SKEW, 0, 0, "fast"), InvalidEpsilon, "error budget"),
        (lambda: build_tree(pairs(), SKEW, 2 ** -5, 0, "standard", custom=custom),
         InvalidScheme, "custom hash counts"),
        (lambda: build_simple(pairs(), SKEW, 0, 0), InvalidEpsilon, "error budget"),
    ):
        with pytest.raises(error, match=match):
            build()
        assert read == []
    assert issubclass(InvalidScheme, ValueError)


def test_custom_counts_need_the_custom_variant():
    # no variant but custom reads the counts, so it refuses them rather than
    # build a map that silently ignores them
    custom = dict.fromkeys(range(2 * SKEW.b - 1), 9)
    pairs = generate_pmap(PMapSpec(SKEW, 50, seed=2))
    with pytest.raises(InvalidScheme, match="custom hash counts given to variant 'standard'"):
        build_tree(pairs, SKEW, 2 ** -7, 1, "standard", custom=custom)
    for scheme in ("simple", "fast"):
        with pytest.raises(InvalidScheme, match=f"given to variant '{scheme}'"):
            plan_tree_map(SKEW, 2 ** -7, 1, scheme, n=50, custom=custom)
    bmap = build_tree(pairs, SKEW, 2 ** -7, 1, "custom", custom=custom)
    assert bmap.describe()["leaf_hash_counts"] == (9, 9, 9, 9)


def test_duplicate_pairs_dedupe_cleanly():
    base = [(f"k{i}".encode(), b"a" if i % 2 else b"b") for i in range(20)]
    doubled = base + base[:7]
    for build in (build_simple, build_tree):
        one = build(base, new_distribution([1, 1], "ab"), 2 ** -5, seed=3)
        two = build(doubled, new_distribution([1, 1], "ab"), 2 ** -5, seed=3)
        assert one.n == two.n == 20
        assert one.bits.to_bytes() == two.bits.to_bytes()


def test_str_keys_are_utf8():
    # a str key is hashed as its UTF-8 bytes, whose length, not the str's,
    # picks the digest's first round
    d = new_distribution([1, 1], "xy")
    bmap = plan_tree_map(d, 2 ** -4, seed=7, scheme="standard", counts=(1, 1))
    bmap.store("alpha", 1)
    keys = ["", "h\u00e9llo", "\u65e5\u672c\u8a9e", "\U0001f600" * 3, "x" * 40]
    for key in keys:
        bmap.store(key, 0)
    bmap.freeze()
    assert bmap.query("alpha") == bmap.query(b"alpha")
    assert bmap.query("alpha").value == b"y"
    for key in keys + [key + "?" for key in keys]:
        assert bmap.query(key) == bmap.query(key.encode("utf-8"))
    assert all(bmap.query(key.encode("utf-8")).value_index is not None for key in keys)


def test_value_with_no_keys_is_allowed():
    pairs = [(f"k{i}".encode(), b"a" if i % 3 else b"b") for i in range(30)]
    bmap = build_tree(pairs, SKEW, 2 ** -5, seed=4, scheme="standard")
    bmap2 = build_simple(pairs, SKEW, 2 ** -5, seed=4)
    for key, label in pairs:
        for m in (bmap, bmap2):
            out = m.query(key)
            assert out.value_index is not None
            assert out.value_index >= SKEW.index_of(label)


# -- describe ---------------------------------------------------------


def test_describe_records_certified_bounds():
    pairs = generate_pmap(PMapSpec(SKEW, 300, seed=5))
    fast = build_tree(pairs, SKEW, 2 ** -6, seed=3, scheme="fast")
    custom = {n.index: n.k + (0 if n.is_leaf else 1) for n in fast.tree.nodes}
    maps = [
        build_simple(pairs, SKEW, 2 ** -6, seed=3),
        build_tree(pairs, SKEW, 2 ** -6, seed=3, scheme="standard"),
        fast,
        build_tree(pairs, SKEW, 2 ** -6, seed=3, scheme="custom", custom=custom),
    ]
    for bmap in maps:
        rec = bmap.describe()
        if bmap.tree is None:
            fp, mis = simple_analytic_bounds(bmap.simple_ks)
            assert rec["hash_counts"] == bmap.simple_ks
            assert "leaf_depths" not in rec
        else:
            fp, mis = analytic_error_bounds(bmap.tree)
            assert rec["leaf_depths"] == bmap.tree.leaf_depths()
            assert rec["leaf_hash_counts"] == tuple(
                bmap.tree.nodes[i].k for i in bmap.tree.leaves
            )
            assert "hash_counts" not in rec
        assert rec["false_positive_bound"] == fp
        assert rec["max_misassignment_bound"] == max(mis)
        assert rec["hash_functions"] == bmap.family.k
        assert (rec["variant"], rec["n"], rec["b"], rec["m"]) == (bmap.variant, 300, 4, bmap.m)
        assert rec["epsilon"] == 2 ** -6 and rec["master_seed"] == 3
        assert rec["zero_fraction"] == bmap.bits.zero_fraction()
        assert rec["bits_per_key"] == bmap.bits_per_key()
        assert rec["values"] == SKEW.labels


def test_empty_tree_map_describes_itself():
    bmap = plan_tree_map(SKEW, 2 ** -5, seed=1, scheme="standard", n=10)
    bmap.freeze()
    rec = bmap.describe()
    assert rec["n"] == 0
    assert rec["bits_per_key"] is None
    assert rec["zero_fraction"] == 1.0
    assert rec["false_positive_bound"] == analytic_error_bounds(bmap.tree)[0]


# -- determinism ------------------------------------------------------


def test_builds_are_deterministic_and_seed_sensitive():
    pairs = generate_pmap(PMapSpec(SKEW, 200, seed=9))
    a = build_tree(pairs, SKEW, 2 ** -6, seed=42, scheme="fast")
    b = build_tree(pairs, SKEW, 2 ** -6, seed=42, scheme="fast")
    c = build_tree(pairs, SKEW, 2 ** -6, seed=43, scheme="fast")
    assert a.bits.to_bytes() == b.bits.to_bytes()
    assert a.m == c.m
    assert a.bits.to_bytes() != c.bits.to_bytes()


def _reference_bits(bmap, pairs) -> bytes:
    """An independent writer: hash every (key, value index) pair by hand,
    segment by segment along the value's path, and set each bit alone."""
    ref = BitArray(bmap.m)
    starts = [0]
    for k in bmap.simple_ks or ():
        starts.append(starts[-1] + k)
    for key, i in pairs:
        if bmap.tree is None:
            segments = [(starts[i], bmap.simple_ks[i], 0)]
        else:
            nodes = [bmap.tree.nodes[w] for w in bmap.tree.path_ids(i)]
            segments = [(node.base_start, node.k, node.offset) for node in nodes]
        for base_start, k, offset in segments:
            for j in range(1, k + 1):
                ref.set_bit((bmap.family.base_hash(base_start + j, key) + offset) % bmap.m)
    return ref.to_bytes()


def test_batch_store_matches_scalar_store():
    # both builders and plan + store + freeze against the independent
    # writer; the pairs span two chunks with keys of 8-40 bytes, and 40
    # values reach depth 9, so each key climbs a long path
    deep = new_distribution([0.9 ** i for i in range(40)], [f"v{i}" for i in range(40)])
    rnd = random.Random(8)
    keys = list(dict.fromkeys(rnd.randbytes(rnd.randint(8, 40)) for _ in range(CHUNK + 900)))
    assert len(keys) > CHUNK
    for dist, variant in itertools.product((SKEW, deep), ("simple", "standard", "fast", "custom")):
        labels = rnd.choices(dist.labels, weights=dist.probs, k=len(keys))
        pairs = list(zip(keys, labels))
        custom = _custom_counts(dist, 2 ** -6, random.Random(8)) if variant == "custom" else None
        if variant == "simple":
            built = build_simple(pairs, dist, 2 ** -6, seed=5)
        else:
            built = build_tree(pairs, dist, 2 ** -6, seed=5, scheme=variant, custom=custom)
        counts = tuple(labels.count(label) for label in dist.labels)
        stored = plan_tree_map(dist, 2 ** -6, seed=5, scheme=variant, counts=counts, custom=custom)
        for key, label in pairs:
            stored.store(key, dist.index_of(label))
        stored.freeze()
        want = _reference_bits(built, [(key, dist.index_of(label)) for key, label in pairs])
        assert stored.m == built.m
        assert built.bits.to_bytes() == stored.bits.to_bytes() == want


@pytest.mark.parametrize("scheme", ["simple", "standard", "fast", "custom"])
def test_incremental_map_is_sized_from_what_it_stores(scheme):
    # planned for a/b/c/d but stored 1/4 a and 3/4 d: sized from the stated
    # distribution, the array would fill past half and break epsilon.  On
    # it and on one value, the batch build, plan + store + freeze and a
    # load of either save the same file.
    rnd = random.Random(21)
    keys = list(dict.fromkeys(rnd.randbytes(16) for _ in range(40_000)))
    for dist, labels in ((SKEW, ["a", "d", "d", "d"]), (ONE, ["only"])):
        pairs = [(key, labels[i % len(labels)]) for i, key in enumerate(keys)]
        custom = _custom_counts(dist, 2 ** -7, random.Random(4)) if scheme == "custom" else None
        stored = plan_tree_map(dist, 2 ** -7, seed=5, scheme=scheme, n=len(pairs), custom=custom)
        for key, label in pairs:
            stored.store(key, dist.index_of(label))
        stored.freeze()
        built = build_tree(pairs, dist, 2 ** -7, seed=5, scheme=scheme, custom=custom)
        files = [_saved(stored), _saved(built)]
        files.append(_saved(load(io.BytesIO(files[0]))))
        assert files[0] == files[1] == files[2]
        assert (stored.m, stored.n) == (built.m, built.n)
        assert abs(stored.bits.zero_fraction() - 0.5) < 0.005


@pytest.mark.parametrize("scheme", ["simple", "standard", "fast", "custom"])
def test_planned_maps_are_sized_by_their_path_weights(scheme):
    deep = new_distribution([0.9 ** i for i in range(40)], [f"v{i}" for i in range(40)])
    for dist, counts in ((SKEW, (5, 0, 0, 70)), (deep, tuple(range(40))), (ONE, (9,))):
        custom = _custom_counts(dist, 2 ** -7, random.Random(2)) if scheme == "custom" else None
        bmap = plan_tree_map(dist, 2 ** -7, seed=1, scheme=scheme, counts=counts, custom=custom)
        assert bmap.m == size_bit_array(counts, bmap.describe()["path_weights"])


def _saved(bmap) -> bytes:
    sink = io.BytesIO()
    save(bmap, sink)
    return sink.getvalue()


@settings(max_examples=80, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 3), st.booleans(), st.booleans()),
        min_size=1, max_size=40,
    ),
    as_generator=st.booleans(),
)
@example(picks=[(1, 0, False, False), (1, 0, True, True), (2, 3, False, True)], as_generator=True)
@example(picks=[(4, 2, True, False), (0, 1, False, False), (4, 3, False, False)], as_generator=False)
def test_batch_dedupe_matches_a_dict_tally(picks, as_generator):
    # keys drawn from a pool of ten repeat with the same value and with
    # another, as bytes or as the same text in str; labels are bytes or str
    pairs = []
    for key_id, value, str_key, str_label in picks:
        key = "k" * key_id + "-" + str(key_id)
        label = SKEW.labels[value].decode()
        pairs.append((key if str_key else key.encode(), label if str_label else label.encode()))
    tally, conflict = {}, False
    for key, label in pairs:
        key = key.encode() if isinstance(key, str) else key
        conflict |= tally.setdefault(key, SKEW.index_of(label)) != SKEW.index_of(label)
    counts = tuple(list(tally.values()).count(i) for i in range(SKEW.b))
    for build, scheme in ((build_simple, "simple"), (build_tree, "standard")):
        source = iter(pairs) if as_generator else pairs
        if conflict:
            with pytest.raises(DuplicateKey):
                build(source, SKEW, 2 ** -5, seed=3)
            continue
        bmap = build(source, SKEW, 2 ** -5, seed=3)
        assert bmap.n == len(tally)
        assert _tally(pairs, SKEW, 3)[2] == counts
        assert bmap.m == plan_tree_map(SKEW, 2 ** -5, seed=3, scheme=scheme, counts=counts).m
        assert bmap.bits.to_bytes() == _reference_bits(bmap, list(tally.items()))


def test_keys_sharing_a_digest_are_both_kept(monkeypatch):
    # force b to digest exactly as a: the two are still distinct keys, so
    # neither is dropped as a repeat nor refused as a conflict
    a, b = b"shared-digest-a", b"shared-digest-b, a longer key"
    h1_batch = HashFamily._h1_batch  # the tally's digest, and digest_batch's

    def forced(self, keys):
        h1 = h1_batch(self, keys)
        twin = [pos for pos, key in enumerate(keys) if key == b]
        h1[twin] = h1_batch(self, [a] * len(twin))
        return h1

    monkeypatch.setattr(HashFamily, "_h1_batch", forced)
    others = [(f"k{t}".encode(), SKEW.labels[t % 4]) for t in range(3 * CHUNK // 2)]
    for label in (b"a", b"c"):
        pairs = [(a, b"a")] + others + [(b, label), (a, b"a")]
        # b hashes as a here, so the reference writes a's bits for b's value
        want = [(a, 0)] + [(key, SKEW.index_of(v)) for key, v in others]
        want.append((a, SKEW.index_of(label)))
        for build in (build_simple, build_tree):
            bmap = build(pairs, SKEW, 2 ** -5, seed=3)
            assert bmap.n == len(others) + 2
            assert bmap.bits.to_bytes() == _reference_bits(bmap, want)


@pytest.mark.parametrize("b, value_type", [(1, np.uint8), (300, np.uint16)])
def test_narrow_value_columns_write_the_reference_bits(b, value_type):
    # the tally holds value indices in the narrowest dtype that fits
    # 0..b - 1; over two chunks, from a list or a generator, both layouts
    # still write the reference bits
    dist = uniform_distribution(b)
    rnd = random.Random(b)
    keys = list(dict.fromkeys(rnd.randbytes(rnd.randint(8, 24)) for _ in range(CHUNK + 300)))
    picks = [rnd.randrange(b) for _ in keys]
    pairs = [(key, dist.labels[i]) for key, i in zip(keys, picks)]
    _, values, counts = _tally(pairs, dist, 5)
    assert values.dtype == value_type and sum(counts) == len(keys)
    for variant in ("simple", "standard"):
        want = None
        for source in (pairs, iter(pairs)):
            bmap = build_tree(source, dist, 2 ** -6, seed=5, scheme=variant)
            want = want or _reference_bits(bmap, list(zip(keys, picks)))
            assert bmap.n == len(keys)
            assert bmap.bits.to_bytes() == want


def test_duplicate_key_raises_at_the_first_conflict_in_input_order():
    # x conflicts before y in input order, though y was stored first; the
    # error names x and its indices, read back from a uint16 value column
    dist = uniform_distribution(300)
    x, y = b"key-x", b"key-y"
    filler = [(f"f{t}".encode(), dist.labels[t % 300]) for t in range(CHUNK)]
    pairs = [(y, b"v7"), (x, b"v299")] + filler + [(x, b"v1"), (y, b"v8")]
    for build in (build_simple, build_tree):
        for source in (pairs, iter(pairs)):
            with pytest.raises(DuplicateKey, match=r"b'key-x' already stored with value index 299, not 1"):
                build(source, dist, 2 ** -5, seed=3)


def test_batch_build_peak_memory_per_key():
    # a build from a list holds the key list, the uint64 h1 digests and a
    # one-byte value column: about 27.5 B/key under tracemalloc, bit array
    # included, where an int64 value column read 34.5
    rnd = random.Random(34)
    n = 30_000
    keys = [rnd.randbytes(16) for _ in range(n)]
    pairs = list(zip(keys, rnd.choices(SKEW.labels, weights=SKEW.probs, k=n)))
    build_tree(pairs[:100], SKEW, 2 ** -7, seed=1)  # numpy and the planner load before tracing
    tracemalloc.start()
    try:
        build_tree(pairs, SKEW, 2 ** -7, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * n


# -- query semantics --------------------------------------------------


class RecordingBits:
    """Wraps a BitArray and logs every probed position in order."""

    def __init__(self, inner):
        self._inner = inner
        self.log = []

    def get_bit(self, i):
        self.log.append(i)
        return self._inner.get_bit(i)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _node_positions(bmap, node, key):
    fam = bmap.family
    return [
        (fam.base_hash(node.base_start + j, key) + node.offset) % bmap.m
        for j in range(1, node.k + 1)
    ]


def test_saturated_tree_probes_deeper_values_first():
    # with every bit set, the walk must go root, then the deeper-value
    # side, straight down to the last value, and stop there
    d = new_distribution([2, 1, 1], "abc")
    bmap = plan_tree_map(d, 2 ** -4, seed=3, scheme="fast", counts=(4, 2, 2))
    bmap.bits.set_many(np.arange(bmap.m, dtype=np.uint64))
    bmap.freeze()
    rec = RecordingBits(bmap.bits)
    bmap.bits = rec

    tree = bmap.tree
    root = tree.nodes[tree.root]
    inner = tree.nodes[root.right]
    leaf2 = tree.nodes[inner.right]
    key = b"whatever"
    out = bmap.query(key)
    assert out.value_index == 2
    expected = (
        _node_positions(bmap, root, key)
        + _node_positions(bmap, inner, key)
        + _node_positions(bmap, leaf2, key)
    )
    assert rec.log == expected
    assert out.probes == root.k + inner.k + leaf2.k
    assert out.hash_evals == out.probes  # no shared base indices on this walk


def test_saturated_flat_map_stops_at_the_last_value():
    pairs = generate_pmap(PMapSpec(SKEW, 50, seed=2))
    bmap = build_simple(pairs, SKEW, 2 ** -5, seed=6)
    full = BitArray(bmap.m, data=b"\xff" * len(bmap.bits.to_bytes()))
    full.freeze()
    bmap.bits = full
    out = bmap.query(b"anything")
    assert out.value_index == SKEW.b - 1  # the scan starts at the last block
    assert out.probes == bmap.simple_ks[-1]


def test_empty_map_rejects_on_first_probe():
    d = new_distribution([1, 1], "xy")
    bmap = plan_tree_map(d, 2 ** -4, seed=1, scheme="standard", counts=(5, 5))
    bmap.freeze()
    out = bmap.query(b"ghost")
    assert out.is_bottom
    assert out.value is None
    assert out.probes == 1
    assert out.hash_evals == 1


def test_hash_reuse_between_sibling_leaves():
    # craft bits so the deeper sibling fails on its third probe and the
    # query falls back to the other leaf, whose base hashes are already
    # cached; probe and evaluation counts are then forced exactly
    d = new_distribution([2, 1, 1], "abc")
    bmap = plan_tree_map(d, 2 ** -3, seed=9, scheme="fast", counts=(2, 1, 1))
    tree = bmap.tree
    root = tree.nodes[tree.root]
    inner = tree.nodes[root.right]
    leaf1 = tree.nodes[inner.left]
    leaf2 = tree.nodes[inner.right]
    assert (root.k, inner.k, leaf1.k, leaf2.k) == (2, 2, 5, 5)
    assert leaf1.base_start == leaf2.base_start

    chosen = None
    for t in range(500):
        key = f"probe-order-{t}".encode()
        to_set = (
            _node_positions(bmap, root, key)
            + _node_positions(bmap, inner, key)
            + _node_positions(bmap, leaf1, key)
            + _node_positions(bmap, leaf2, key)[:2]
        )
        blocker = _node_positions(bmap, leaf2, key)[2]
        if blocker not in to_set and len(set(to_set)) == len(to_set):
            chosen = (key, to_set)
            break
    assert chosen is not None
    key, to_set = chosen
    for p in to_set:
        bmap.bits.set_bit(p)
    bmap.freeze()

    out = bmap.query(key)
    assert out.value_index == 1
    assert out.probes == 2 + 2 + 3 + 5
    # leaf 2 consumed base hashes 1..3 of the shared slice, leaf 1 reuses
    # them and evaluates only its last two
    assert out.hash_evals == 2 + 2 + 3 + 2


def _simple_reference(bmap, key):
    """Bit-level reimplementation of the flat scan for cross-checking:
    blocks from the last value down, stopping at the first fully set one."""
    probes = 0
    starts = [0]
    for k in bmap.simple_ks:
        starts.append(starts[-1] + k)
    for i in reversed(range(len(bmap.simple_ks))):
        for j in range(starts[i] + 1, starts[i + 1] + 1):
            probes += 1
            if not bmap.bits.get_bit(bmap.family.base_hash(j, key)):
                break
        else:
            return i, probes
    return None, probes


def test_flat_query_matches_reference_scan():
    rnd = random.Random(14)
    pairs = generate_pmap(PMapSpec(SKEW, 500, seed=14))
    bmap = build_simple(pairs, SKEW, 2 ** -4, seed=21)
    probes_for = [key for key, _ in pairs[:100]]
    probes_for += [f"missing-{rnd.random()}".encode() for _ in range(200)]
    for key in probes_for:
        out = bmap.query(key)
        want_index, want_probes = _simple_reference(bmap, key)
        assert out.value_index == want_index
        assert out.probes == want_probes
        assert out.hash_evals == want_probes


def _tree_reference(bmap, key):
    """The recursive right-first walk over tree.nodes, caching base hashes
    per query: (value_index, probes, hash_evals) that query must match."""
    nodes = bmap.tree.nodes
    cache = {}
    probes = 0

    def visit(idx):
        nonlocal probes
        node = nodes[idx]
        for j in range(node.base_start + 1, node.base_start + node.k + 1):
            probes += 1
            if j not in cache:
                cache[j] = bmap.family.base_hash(j, key)
            if not bmap.bits.get_bit((cache[j] + node.offset) % bmap.m):
                return None
        if node.is_leaf:
            return node.value_index
        found = visit(node.right)
        return found if found is not None else visit(node.left)

    found = visit(bmap.tree.root)
    return found, probes, len(cache)


def _custom_counts(dist, epsilon, rnd):
    probe = build_alphabetic_tree(dist)
    assign_offsets(probe)
    assign_hash_counts(probe, epsilon, "fast")
    return {node.index: node.k + rnd.randint(0, 2) for node in probe.nodes}


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(["standard", "fast", "custom"]),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=64),
    eps_bits=st.integers(2, 8),
    seed=st.integers(0, 2 ** 32 - 1),
    fill=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0]),
)
def test_tree_query_matches_right_first_walk(scheme, weights, eps_bits, seed, fill):
    # random fill makes deep detours and sibling hash reuse common
    rnd = random.Random(seed)
    b = len(weights)
    d = new_distribution(weights, [f"v{i}" for i in range(b)])
    eps = 2.0 ** -eps_bits
    custom = _custom_counts(d, eps, rnd) if scheme == "custom" else None
    n = rnd.randint(1, 3 * b)
    bmap = plan_tree_map(d, eps, seed, scheme, n=n, custom=custom)
    stored = [f"k{t}".encode() for t in range(n)]
    for key in stored:
        bmap.store(key, rnd.randrange(b))
    noise = np.random.default_rng(seed).random(bmap.m) < fill
    bmap.bits.set_many(np.flatnonzero(noise).astype(np.uint64))
    bmap.freeze()
    for key in stored + [f"absent-{t}".encode() for t in range(20)]:
        out = bmap.query(key)
        assert (out.value_index, out.probes, out.hash_evals) == _tree_reference(bmap, key)


def _with_noise(bmap, fill, seed):
    """Swap in a frozen copy of the map's bits OR-ed with random noise."""
    noise = np.random.default_rng(seed).random(bmap.m) < fill
    data = np.frombuffer(bmap.bits.to_bytes(), dtype=np.uint8)
    data = data | np.packbits(noise, bitorder="little")
    bmap.bits = BitArray(bmap.m, data.tobytes())
    bmap.bits.freeze()


def _assert_batch_matches_scalar(bmap, keys):
    found, probes = bmap.query_many(keys)
    assert found.dtype == probes.dtype == np.int64
    scalar = [bmap.query(key) for key in keys]
    assert found.tolist() == [-1 if o.is_bottom else o.value_index for o in scalar]
    assert probes.tolist() == [o.probes for o in scalar]


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(["simple", "standard", "fast", "custom"]),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=64),
    eps_bits=st.integers(2, 8),
    seed=st.integers(0, 2 ** 32 - 1),
    fill=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0]),
    lengths=st.lists(st.integers(0, 200), max_size=40),
)
@example(variant="standard", weights=[1], eps_bits=5, seed=0, fill=0.0, lengths=[0, 200])
@example(variant="simple", weights=[1] * 64, eps_bits=5, seed=1, fill=1.0, lengths=[8, 64])
def test_query_many_matches_query(variant, weights, eps_bits, seed, fill, lengths):
    # batches mix key lengths from 0 to 200 bytes and repeat keys; the
    # empty batch, single-key batches and a batch whose keys all end at
    # their first probe answer alike
    rnd = random.Random(seed)
    b = len(weights)
    d = new_distribution(weights, [f"v{i}" for i in range(b)])
    eps = 2.0 ** -eps_bits
    stored = [f"k{t}".encode() for t in range(rnd.randint(1, 3 * b))]
    stored = list(dict.fromkeys(stored + [rnd.randbytes(n) for n in lengths]))
    pairs = [(key, d.labels[rnd.randrange(b)]) for key in stored]
    if variant == "simple":
        bmap = build_simple(pairs, d, eps, seed)
    else:
        custom = _custom_counts(d, eps, rnd) if variant == "custom" else None
        bmap = build_tree(pairs, d, eps, seed, variant, custom=custom)
    _with_noise(bmap, fill, seed)
    keys = stored + [f"absent-{t}".encode() for t in range(20)]
    keys += [rnd.randbytes(rnd.randint(0, 200)) for _ in range(20)]
    keys += rnd.choices(keys, k=10)
    _assert_batch_matches_scalar(bmap, keys)
    _assert_batch_matches_scalar(bmap, [])
    for key in keys[:5]:
        _assert_batch_matches_scalar(bmap, [key])
    _assert_batch_matches_scalar(bmap, [key for key in keys if bmap.query(key).probes == 1])


def test_query_many_ends_at_the_first_probe_on_an_empty_tree_map():
    # no key is stored, so every walk ends at the root's first zero bit
    for scheme in ("standard", "fast"):
        bmap = plan_tree_map(SKEW, 2 ** -7, seed=4, scheme=scheme, n=100)
        bmap.freeze()
        keys = [bytes([t % 256]) * (t % 90) for t in range(300)]
        found, probes = bmap.query_many(keys)
        assert found.tolist() == [-1] * 300 and probes.tolist() == [1] * 300
        _assert_batch_matches_scalar(bmap, keys)


def test_query_many_edge_keys():
    pairs = [(b"", "a"), (b"x" * 65, "b"), ("caf\u00e9", "c"), (b"k" * 8, "d")]
    pairs += generate_pmap(PMapSpec(SKEW, 200, seed=5))
    for bmap in (build_simple(pairs, SKEW, 2 ** -4, seed=6),
                 build_tree(pairs, SKEW, 2 ** -4, seed=6, scheme="standard")):
        found, probes = bmap.query_many([])
        assert found.dtype == probes.dtype == np.int64
        assert found.shape == probes.shape == (0,)
        keys = [b"", b"", b"x" * 65, b"y" * 200, "caf\u00e9", "caf\u00e9".encode(), b"k" * 8]
        keys += [bytes(range(n)) for n in range(0, 70, 3)]
        keys += [key for key, _ in pairs[4:60]]
        _assert_batch_matches_scalar(bmap, keys)
        found, _ = bmap.query_many([b"", b"x" * 65, "caf\u00e9", b"k" * 8])
        assert all(got >= want for got, want in zip(found.tolist(), range(4)))


def test_query_many_needs_a_frozen_map():
    bmap = plan_tree_map(SKEW, 2 ** -4, seed=1, n=10)
    bmap.store(b"k", 0)
    with pytest.raises(ValueError, match="freeze"):
        bmap.query_many([b"k"])
    with pytest.raises(ValueError, match="freeze"):
        bmap.query_many([])
    with pytest.raises(TypeError):
        build_simple([(b"k", "a")], SKEW, 2 ** -4, seed=1).query_many([1])


def test_query_many_reads_the_bits_the_map_holds_now(tmp_path):
    # a shallow copy given damaged bits must answer from them, though it
    # shares the original's plan
    pairs = generate_pmap(PMapSpec(SKEW, 2000, seed=8))
    bmap = build_tree(pairs, SKEW, 2 ** -7, seed=9, scheme="standard")
    keys = [key for key, _ in pairs[:300]] + [f"absent-{t}".encode() for t in range(300)]
    found, probes = bmap.query_many(keys)
    broken = copy.copy(bmap)
    data = bytearray(bmap.bits.to_bytes())
    data[::2] = bytes(len(data[::2]))
    broken.bits = BitArray(bmap.m, bytes(data))
    broken.bits.freeze()
    _assert_batch_matches_scalar(broken, keys)
    lost, _ = broken.query_many(keys[:300])
    truth = [SKEW.index_of(label) for _, label in pairs[:300]]
    assert any(got < want for got, want in zip(lost.tolist(), truth))
    assert (bmap.query_many(keys)[0] == found).all()

    path = tmp_path / "m.bmap"
    save(bmap, path)
    loaded = load(path)
    again_found, again_probes = loaded.query_many(keys)
    assert (again_found == found).all() and (again_probes == probes).all()


def test_fresh_map_answers_alike_from_many_threads(tmp_path):
    # more threads than cores race to fill a loaded map's hash memo and
    # its per-length table, one first round and word unpacker per key
    # length, on keys of 0-80 bytes whose lengths the map has not hashed
    # yet; each answers as one thread alone does
    pairs = generate_pmap(PMapSpec(SKEW, 2000, seed=12))
    path = tmp_path / "m.bmap"
    save(build_tree(pairs, SKEW, 2 ** -7, seed=13, scheme="standard"), path)
    rnd = random.Random(14)
    keys = [rnd.randbytes(n) for n in range(81) for _ in range(3)]
    keys += [key for key, _ in pairs[:200]]
    want = [load(path).query(key) for key in keys]
    bmap = load(path)
    workers = 4
    start = threading.Barrier(workers)
    answers = [None] * workers

    def lookups(slot):
        start.wait(timeout=60)
        answers[slot] = [bmap.query(key) for key in keys]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert [thread.is_alive() for thread in threads] == [False] * workers
    assert answers == [want] * workers


@pytest.mark.parametrize("variant", ["simple", "standard", "fast"])
def test_walk_tables_hold_one_row_per_segment(variant):
    weights = [0.9 ** i for i in range(40)]
    d = new_distribution(weights, [f"v{i}" for i in range(40)])
    pairs = [(f"k{t}".encode(), d.labels[t % 40]) for t in range(400)]
    bmap = build_variant(pairs, d, 2 ** -5, 3, variant)
    rows = len(bmap._plan)
    assert rows == (d.b if variant == "simple" else len(bmap.tree.nodes)) <= 2 * d.b - 1
    # the probe table holds one entry per probe of every row, and the
    # batch walk's columns b + 1 sinks past them
    table = bmap._table()
    entries = sum(last - first + 1 for first, last, *_ in bmap._plan)
    assert table.sink == len(table.up) == entries
    assert len(table.j) == len(table.offset) == entries + d.b + 1
    assert len(table.nxt) == 2 * (entries + d.b + 1) and len(table.leaf) == d.b
    # query_many hashes table.j unchecked, so every index must lie in 1..k
    assert 1 <= int(table.j.min()) and int(table.j.max()) <= bmap.family.k

    def probes(segments):
        return [(j, offset % bmap.m) for first, last, offset in segments
                for j in range(first, last + 1)]

    # climbing from value i's leaf entry by the upward links lists the
    # probes of its whole path, leaf row first, as the plan rows hold it
    leaf_rows = [r for r, row in enumerate(bmap._plan) if row[4] < 0]
    for i, (row, entry) in enumerate(zip(leaf_rows, table.leaf.tolist())):
        climbed = []
        while entry >= 0:
            climbed.append((int(table.j[entry]), int(table.offset[entry])))
            entry = int(table.up[entry])
        segments = []
        while row >= 0:
            first, last, offset, low, _, _, row = bmap._plan[row]
            assert low <= i
            segments.append((first, last, offset))
        assert climbed == probes(segments)
        if variant == "simple":
            start = sum(bmap.simple_ks[:i])
            assert segments == [(start + 1, start + bmap.simple_ks[i], 0)]
        else:
            nodes = [bmap.tree.nodes[w] for w in reversed(bmap.tree.path_ids(i))]
            assert segments == [(n.base_start + 1, n.base_start + n.k, n.offset) for n in nodes]


def _entry_columns(rows, m):
    """The probe table built one entry at a time: (j, offset, nxt, up,
    leaf, top), a walk's end in nxt written as -2 - answer (-1: absent)."""
    starts = [0]
    for first, last, *_ in rows:
        starts.append(starts[-1] + last - first + 1)
    js, offsets, nxt, ups, leaves = [], [], [], [], []
    top = None
    for r, (first, last, offset, low, on_pass, on_fail, up) in enumerate(rows):
        for j in range(first, last + 1):
            end = j == last
            js.append(j)
            offsets.append(offset % m)
            nxt.append(starts[on_fail] if on_fail >= 0 else -1)
            if not end:
                nxt.append(len(js))
            else:
                nxt.append(starts[on_pass] if on_pass >= 0 else -2 - low)
            ups.append(len(js) if not end else starts[up] if up >= 0 else -1)
        if on_pass < 0:
            leaves.append(starts[r])
        if up < 0:
            top = starts[r]
    return js, offsets, nxt, ups, leaves, top


@pytest.mark.parametrize("variant", ["simple", "standard", "fast", "custom"])
def test_batch_columns_equal_the_entry_lists(variant):
    # the numpy columns, made from the rows at once, hold the table built
    # entry by entry and then b + 1 sinks: sink + 1 + i answers value i,
    # sink itself absent, and both links of a sink lead back to it
    for weights in ([1], [0.5, 0.25, 0.125, 0.125], [0.9 ** i for i in range(40)], [1] * 64):
        b = len(weights)
        d = new_distribution(weights, [f"v{i}" for i in range(b)])
        custom = _custom_counts(d, 2 ** -7, random.Random(b)) if variant == "custom" else None
        bmap = BloomMap(variant=variant, dist=d, epsilon=2 ** -7, seed=1,
                        bits=BitArray(1), custom=custom)
        for m in (1, 7, 100, 2 ** 40 + 3):
            table = _compile(bmap._plan, m)
            js, offsets, nxt, ups, leaves, top = _entry_columns(bmap._plan, m)
            sink = len(js)
            assert table.sink == sink and table.top == top
            assert table.j.dtype == table.offset.dtype == np.uint64
            assert table.nxt.dtype == table.up.dtype == table.leaf.dtype == np.int64
            assert table.j.tolist() == js + [1] * (b + 1)
            assert table.offset.tolist() == offsets + [0] * (b + 1)
            links = [t if t >= 0 else sink - 1 - t for t in nxt]
            sinks = [s for s in range(sink, sink + b + 1) for _ in "01"]
            assert table.nxt.tolist() == links + sinks
            assert table.up.tolist() == ups and table.leaf.tolist() == leaves


def test_probe_table_follows_the_m_freeze_sizes():
    # two keys shrink a map planned for 10**4 below its largest offset,
    # 126, so a table compiled for the planned m would read and write
    # other bits than the map's final m gives
    u = uniform_distribution(64)
    bmap = plan_tree_map(u, 2 ** -7, seed=5, scheme="fast", n=10 ** 4)
    pairs = [(b"first", u.labels[3]), (b"second", u.labels[60])]
    for key, label in pairs:
        bmap.store(key, u.index_of(label))
    bmap.freeze()
    assert bmap.m < max(row[2] for row in bmap._plan) == 126
    assert bmap.bits.to_bytes() == build_tree(pairs, u, 2 ** -7, 5, "fast").bits.to_bytes()
    keys = [key for key, _ in pairs] + [f"absent-{t}".encode() for t in range(200)]
    reference = [_tree_reference(bmap, key) for key in keys]
    assert [(o.value_index, o.probes, o.hash_evals) for o in map(bmap.query, keys)] == reference
    found, probes = bmap.query_many(keys)
    assert found.tolist() == [-1 if i is None else i for i, _, _ in reference]
    assert probes.tolist() == [p for _, p, _ in reference]
    assert found[:2].tolist() == [3, 60]


def test_call_counts_equal_reported_counts(monkeypatch, tmp_path):
    # each probe reads one bit and each evaluation hashes once, which is
    # what lets a tracer count probes by wrapping the two primitives; on
    # built and loaded maps, for keys of every length from 0 to 80 bytes
    pairs = generate_pmap(PMapSpec(SKEW, 300, seed=12))
    eps = 2 ** -6
    maps = [build_simple(pairs, SKEW, eps, seed=1)]
    maps += [build_tree(pairs, SKEW, eps, seed=2, scheme=s) for s in ("standard", "fast")]
    custom = _custom_counts(SKEW, eps, random.Random(3))
    maps.append(build_tree(pairs, SKEW, eps, seed=3, scheme="custom", custom=custom))
    rnd = random.Random(4)
    sized = [(rnd.randbytes(n), SKEW.labels[n % SKEW.b]) for n in range(81)]
    built = (build_simple(pairs + sized, SKEW, eps, seed=4),
             build_tree(pairs + sized, SKEW, eps, seed=5, scheme="standard"))
    for i, bmap in enumerate(built):
        save(bmap, tmp_path / f"{i}.bmap")
        maps.append(load(tmp_path / f"{i}.bmap"))
    calls = {"get_bit": 0, "base_hash": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(BitArray, "get_bit", counting("get_bit", BitArray.get_bit))
    monkeypatch.setattr(HashFamily, "base_hash", counting("base_hash", HashFamily.base_hash))
    stored = [key for key, _ in pairs[:100]] + [key for key, _ in sized]
    absent = [f"absent-{t}".encode() for t in range(100)] + [rnd.randbytes(n) for n in range(81)]
    for bmap in maps:
        for keys in (stored, absent):
            calls.update(get_bit=0, base_hash=0)
            outs = [bmap.query(key) for key in keys]
            assert calls["get_bit"] == sum(o.probes for o in outs)
            assert calls["base_hash"] == sum(o.hash_evals for o in outs)


# -- answer invariants across many random maps ------------------------


@pytest.mark.parametrize("variant", ["simple", "standard", "fast"])
def test_no_false_negatives_and_monotone_errors(variant):
    rnd = random.Random(hash(variant) & 0xFFFF)
    for trial in range(12):
        b = rnd.randint(1, 6)
        d = new_distribution(
            [rnd.randint(1, 9) for _ in range(b)], [f"v{i}" for i in range(b)]
        )
        n = rnd.randint(30, 200)
        eps = 2.0 ** -rnd.randint(3, 7)
        pairs = generate_pmap(PMapSpec(d, n, seed=1000 + trial))
        if variant == "simple":
            bmap = build_simple(pairs, d, eps, seed=trial)
        else:
            bmap = build_tree(pairs, d, eps, seed=trial, scheme=variant)
        assert bmap.n == n
        for key, label in pairs:
            out = bmap.query(key)
            assert not out.is_bottom, "stored key reported absent"
            assert out.value_index >= d.index_of(label), "error understated the value"
        for t in range(50):
            out = bmap.query(f"fresh-{trial}-{t}".encode())
            if not out.is_bottom:
                assert 0 <= out.value_index < b
