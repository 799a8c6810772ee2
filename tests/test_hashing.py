"""Hash family behaviour: determinism, range reduction, batch equivalence,
and the offset composition used at tree nodes."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloommap.hashing import HashFamily, keyed_hash64
from bloommap import build_alphabetic_tree, new_distribution
from bloommap.codetree import assign_hash_counts, assign_offsets, refresh_base_starts


def test_deterministic():
    fam = HashFamily(1234, 10_000, 4)
    again = HashFamily(1234, 10_000, 4)
    for j in range(1, 5):
        for key in (b"", b"a", b"hello world", bytes(range(40))):
            assert fam.base_hash(j, key) == again.base_hash(j, key)


def test_range():
    fam = HashFamily(5, 1, 3)
    assert all(fam.base_hash(j, b"x") == 0 for j in range(1, 4))
    fam = HashFamily(5, 97, 3)
    rnd = random.Random(0)
    for _ in range(500):
        key = rnd.randbytes(rnd.randint(0, 24))
        assert 0 <= fam.base_hash(1, key) < 97


def test_index_bounds():
    fam = HashFamily(0, 100, 2)
    digest = fam.digest_batch([b"k"])
    for j in (0, 3, -1):
        with pytest.raises(IndexError):
            fam.base_hash(j, b"k")
        with pytest.raises(IndexError):
            fam.base_hash_batch(j, *digest)
        with pytest.raises(IndexError):
            fam.base_hash_batch(np.array([j]), *digest)
    # one index outside 1..k refuses the batch, whatever the dtype
    for js in (np.array([1, 0], dtype=np.uint64), np.array([2, 1 << 63], dtype=np.uint64),
               np.array([1, -5], dtype=np.int64), np.array([1, 3], dtype=np.int32)):
        with pytest.raises(IndexError):
            fam.base_hash_batch(js, *fam.digest_batch([b"k", b"l"]))
    wide = HashFamily(0, 100, 300)  # j - 1 must not wrap in j's own dtype, below k
    with pytest.raises(IndexError):
        wide.base_hash_batch(np.array([0], dtype=np.uint8), *digest)
    for dtype in (np.uint16, np.int32, np.int64, np.uint64):
        js = np.arange(1, 301, dtype=np.int64).astype(dtype)
        want = [wide.base_hash(int(j), b"k") for j in js.tolist()]
        assert wide.base_hash_batch(js, *digest).tolist() == want
    assert fam.base_hash_batch(np.array([2]), *digest).tolist() == [fam.base_hash(2, b"k")]
    empty = fam.digest_batch([])
    assert fam.base_hash_batch(np.array([], dtype=np.int64), *empty).shape == (0,)


def test_memo_serves_only_the_key_it_holds():
    # interleaved keys and equal-but-distinct objects answer as a fresh
    # family does; so do short-lived copies, each freed before the next is
    # made, which may reuse its memory and id
    fam = HashFamily(31, 1_000_003, 40)
    rnd = random.Random(7)
    a, b = b"0123456789abcdef", b"fedcba9876543210"
    twin = bytes(bytearray(a))
    assert twin == a and twin is not a
    calls = [(j, key) for j in (1, 2, 40) for key in (a, b, a, twin, b"", twin, b)]
    calls += [(rnd.randint(1, 40), rnd.randbytes(16)) for _ in range(300)]
    want = [HashFamily(31, 1_000_003, 40).base_hash(j, key) for j, key in calls]
    assert [fam.base_hash(j, key) for j, key in calls] == want
    assert [fam.base_hash(j, bytes(bytearray(key))) for j, key in calls] == want


def test_keyed_hash_sensitivity():
    # single byte flips move the output; trailing zero bytes are not free
    h0 = keyed_hash64(7, b"abcdefgh")
    assert keyed_hash64(7, b"abcdefgi") != h0
    assert keyed_hash64(7, b"abcdefgh\x00") != h0
    assert keyed_hash64(7, b"") != keyed_hash64(7, b"\x00")


_MASK64 = (1 << 64) - 1


def _fmix64(z):
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _chained_keyed_hash64(seed, key):
    # the reference digest: one finalizer call per round, the key sliced
    # once per 8-byte word, the last word zero padded
    h = _fmix64(seed ^ ((len(key) * 0x9E3779B97F4A7C15) & _MASK64))
    full = len(key) & ~7
    for i in range(0, full, 8):
        h = _fmix64(h ^ int.from_bytes(key[i : i + 8], "little"))
    if full != len(key):
        h = _fmix64(h ^ int.from_bytes(key[full:], "little"))
    return h


def _reference_position(seed, m, j, key):
    h1 = _chained_keyed_hash64(seed, key)
    return ((h1 + j * (_fmix64(h1) | 1)) & _MASK64) * m >> 64


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(st.integers(0, _MASK64), min_size=2, max_size=2),
       keys=st.lists(st.binary(max_size=80), min_size=1, max_size=12),
       m=st.integers(1, _MASK64))
@example(seeds=[0, _MASK64], keys=[bytes(n) for n in range(81)], m=97)
def test_digests_equal_the_chained_reference(seeds, keys, m):
    # keyed_hash64, base_hash (each family starting from its own table of
    # first rounds, one per key length) and digest_batch all equal the
    # reference; two families of other seeds, fed keys of the same lengths
    # in turn, each keep their own answers
    families = [HashFamily(seed, m, 3) for seed in seeds]
    for key in keys + [bytes(reversed(key)) for key in keys]:
        for seed, fam in zip(seeds, families):
            assert keyed_hash64(seed, key) == _chained_keyed_hash64(seed, key)
            for j in (1, 3):
                assert fam.base_hash(j, key) == _reference_position(seed, m, j, key)
    for seed, fam in zip(seeds, families):
        h1, h2 = fam.digest_batch(keys)
        want = [_chained_keyed_hash64(seed, key) for key in keys]
        assert h1.tolist() == want
        assert h2.tolist() == [_fmix64(h) | 1 for h in want]


def test_long_key_digest_takes_linear_time():
    # a 1 MiB key, its last word padded, digests in about 60 ms; reading
    # its words by shifting one int of the whole key took time quadratic
    # in its length, about 1 s already at 256 KiB
    key = random.Random(8).randbytes((1 << 20) - 3)
    want = _chained_keyed_hash64(11, key)
    start = time.perf_counter()
    got = keyed_hash64(11, key)
    position = HashFamily(11, 1_000_003, 2).base_hash(2, key)
    took = time.perf_counter() - start
    assert got == want
    assert position == _reference_position(11, 1_000_003, 2, key)
    assert took < 1.0


def test_batch_matches_scalar():
    # one batch mixes keys of 0-80 bytes, every word count from 0 to 10,
    # with keys that differ only in trailing zero bytes
    rnd = random.Random(3)
    keys = [rnd.randbytes(rnd.randint(0, 80)) for _ in range(300)]
    keys += [bytes(n) for n in (0, 7, 8, 9, 64)] + [b"\xff" * n for n in (0, 7, 8, 9, 64)]
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        h1, h2 = HashFamily(seed, 97, 1).digest_batch(keys)
        assert h1.tolist() == [keyed_hash64(seed, key) for key in keys]
        assert (h2 & 1).all()
    for length in (0, 7, 8, 9, 64):
        same = [rnd.randbytes(length) for _ in range(16)]
        assert HashFamily(5, 97, 1).digest_batch(same)[0].tolist() == [
            keyed_hash64(5, key) for key in same
        ]


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.binary(max_size=300), max_size=40),
       repeats=st.lists(st.integers(0, 39), max_size=10),
       seed=st.integers(0, _MASK64))
@example(keys=[bytes(n) for n in (0, 8, 9, 16, 64, 65, 200, 300)] * 3, repeats=[0, 5], seed=1)
@example(keys=[b"x" * 8] * 30 + [b"y" * 300], repeats=[30], seed=2)
def test_digest_batch_equals_keyed_hash_on_mixed_lengths(keys, repeats, seed):
    # one batch mixes 0-300 byte keys, so word counts far apart fall in
    # separate groups and near ones share a matrix, with repeated keys
    keys = keys + [keys[i] for i in repeats if i < len(keys)]
    h1, h2 = HashFamily(seed, 97, 1).digest_batch(keys)
    want = [keyed_hash64(seed, key) for key in keys]
    assert h1.tolist() == want
    assert h2.tolist() == [_fmix64(h) | 1 for h in want]


def test_digest_batch_memory_stays_near_the_keys_words():
    # a matrix holds at most twice its keys' words, so one 16 KiB key
    # does not pad 1,023 eight-byte keys to its length (16 MiB)
    keys = [i.to_bytes(8, "little") for i in range(1023)] + [bytes(range(256)) * 64]
    fam = HashFamily(9, 1000, 3)
    want = [keyed_hash64(9, key) for key in keys]
    fam.digest_batch(keys[:2])  # numpy and the operands are loaded before tracing
    tracemalloc.start()
    try:
        h1, _ = fam.digest_batch(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h1.tolist() == want
    assert peak < 2 ** 18


def test_batch_positions_match_scalar():
    rnd = random.Random(4)
    for m in (2, 97, 1024, 1_262_359):
        fam = HashFamily(77, m, 40)
        keys = [rnd.randbytes(16) for _ in range(128)]
        h1, h2 = fam.digest_batch(keys)
        for j in (1, 2, 40):
            batch = fam.base_hash_batch(j, h1, h2)
            scalar = [fam.base_hash(j, k) for k in keys]
            assert batch.tolist() == scalar


_MIXED_KEYS = st.lists(st.binary(max_size=80), min_size=1, max_size=8)
_EDGE_KEYS = [bytes(range(n)) for n in (0, 7, 8, 9, 64)]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, (1 << 64) - 1),
    keys=_MIXED_KEYS,
    seed=st.integers(0, (1 << 64) - 1),
    k=st.integers(2, 2000),
    picks=st.lists(st.integers(0, (1 << 16) - 1), min_size=8, max_size=8),
)
@example(m=(1 << 32) - 1, keys=[b"0123456789abcdef"], seed=0, k=2, picks=[1] * 8)
@example(m=1 << 32, keys=[b"0123456789abcdef"], seed=0, k=2, picks=[1] * 8)
@example(m=(1 << 64) - 1, keys=[b"0123456789abcdef"], seed=0, k=2, picks=[1] * 8)
@example(m=1_262_359, keys=_EDGE_KEYS, seed=(1 << 64) - 1, k=40, picks=list(range(8)))
def test_batch_matches_scalar_for_every_range(m, keys, seed, k, picks):
    # the batch digest of keys of mixed lengths and the reduction are
    # exact for every m, including m >= 2**32, and j * h2 wraps mod 2**64
    # alike on both paths, whether j is one index for the batch or an
    # array with one per key
    fam = HashFamily(seed, m, k)
    digest = fam.digest_batch(keys)
    for j in (1, 2, k):
        scalar = [fam.base_hash(j, key) for key in keys]
        assert fam.base_hash_batch(j, *digest).tolist() == scalar
        assert all(0 <= pos < m for pos in scalar)
    js = [pick % k + 1 for pick in picks[: len(keys)]]
    scalar = [fam.base_hash(j, key) for j, key in zip(js, keys)]
    assert fam.base_hash_batch(np.array(js), *digest).tolist() == scalar


def test_bucket_uniformity():
    # one million keys into 1024 buckets: every bucket within five standard
    # deviations of the mean (binomial sigma, about 31.2 here), for the
    # first functions and one far along the h1 + j * h2 sequence
    n, m = 1_000_000, 1024
    fam = HashFamily(20240817, m, 37)
    rnd = np.random.default_rng(5)
    raw = rnd.integers(0, 256, size=n * 16, dtype=np.uint8).tobytes()
    digest = fam.digest_batch([raw[i : i + 16] for i in range(0, n * 16, 16)])
    mean = n / m
    sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
    for j in (1, 2, 37):
        positions = fam.base_hash_batch(j, *digest)
        counts = np.bincount(positions.astype(np.int64), minlength=m)
        worst = np.abs(counts - mean).max()
        assert worst <= 5 * sigma, f"j={j}: worst bucket off by {worst:.1f} (5 sigma = {5*sigma:.1f})"


def _fast_tree(probs):
    dist = new_distribution(probs, [f"v{i}" for i in range(len(probs))])
    tree = build_alphabetic_tree(dist)
    assign_offsets(tree)
    assign_hash_counts(tree, 2 ** -7, "fast")
    refresh_base_starts(tree)
    return tree


def test_node_hash_offsets_never_collide():
    # two nodes reusing a base index but carrying different offsets can
    # never land on the same bit for the same key
    tree = _fast_tree([2, 1, 1])
    fam = HashFamily(8, 991, 32)
    nodes = tree.nodes
    internal = nodes[tree.root].right
    left_leaf = nodes[nodes[internal].left]
    right_leaf = nodes[nodes[internal].right]
    assert left_leaf.base_start == right_leaf.base_start
    assert left_leaf.offset != right_leaf.offset
    rnd = random.Random(6)
    for _ in range(300):
        key = rnd.randbytes(12)
        # the store formula: (base_hash(base_start + j) + offset) % m
        a = (fam.base_hash(left_leaf.base_start + 1, key) + left_leaf.offset) % fam.m
        b = (fam.base_hash(right_leaf.base_start + 1, key) + right_leaf.offset) % fam.m
        assert a != b


def test_path_base_indices_are_consecutive():
    # along any root-to-leaf path the base indices form 1..t_i exactly
    tree = _fast_tree([2, 1, 1])
    for i in range(tree.b):
        used = []
        for w in tree.path_ids(i):
            node = tree.nodes[w]
            used.extend(range(node.base_start + 1, node.base_start + node.k + 1))
        assert used == list(range(1, tree.path_weight(i) + 1))
