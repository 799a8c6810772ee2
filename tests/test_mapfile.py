"""Serialization: byte layout stability, round trips, and corruption.

Every mutation of a saved file must be rejected; the checksum guarantees
that, so the targeted field tests below recompute it to reach the
field-specific validation underneath.
"""

import io
import struct
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloommap import (
    FormatError,
    IoError,
    load,
    new_distribution,
    save,
    uniform_distribution,
)
from bloommap.codetree import tree_from_rows
from bloommap.core import VARIANTS, build_simple, build_tree, plan_tree_map
from bloommap.harness import PMapSpec, generate_pmap
from bloommap.mapfile import _FIXED, _VARIANT_CODES
from bloommap.plan import _leaf_floor, plan_rows

SKEW = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])


def _saved(bmap) -> bytes:
    sink = io.BytesIO()
    save(bmap, sink)
    return sink.getvalue()


def _sealed(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def _patched(data: bytes, offset: int, new_bytes: bytes) -> bytes:
    """Overwrite bytes inside the payload and fix the checksum up."""
    payload = bytearray(data[:-4])
    payload[offset : offset + len(new_bytes)] = new_bytes
    return _sealed(bytes(payload))


def _counts_offset(bmap) -> int:
    """Where a custom file's node hash counts start: after the header and
    the distribution block of (len u16 + label + prob f64) per value."""
    return _FIXED.size + sum(2 + len(l) + 8 for l in bmap.dist.labels)


def _maps():
    pairs = generate_pmap(PMapSpec(SKEW, 400, seed=31))
    out = {
        "simple": build_simple(pairs, SKEW, 2 ** -6, seed=7),
        "standard": build_tree(pairs, SKEW, 2 ** -6, seed=7, scheme="standard"),
        "fast": build_tree(pairs, SKEW, 2 ** -6, seed=7, scheme="fast"),
    }
    custom = {n.index: n.k + (0 if n.is_leaf else 1)
              for n in out["fast"].tree.nodes}
    out["custom"] = build_tree(pairs, SKEW, 2 ** -6, seed=7,
                               scheme="custom", custom=custom)
    return pairs, out


def test_round_trip_every_variant(tmp_path):
    pairs, maps = _maps()
    fresh = [f"fresh-{t}".encode() for t in range(300)]
    for name, bmap in maps.items():
        path = tmp_path / f"{name}.bmap"
        save(bmap, path)
        back = load(path)
        assert back.variant == bmap.variant == name
        assert back.m == bmap.m
        assert back.n == bmap.n == 400
        assert back.epsilon == bmap.epsilon
        assert back.dist == bmap.dist
        assert back.family.k == bmap.family.k
        assert back.describe() == bmap.describe()
        assert back.bits.to_bytes() == bmap.bits.to_bytes()
        assert back.frozen
        for key in [k for k, _ in pairs] + fresh:
            assert back.query(key) == bmap.query(key)
        assert _saved(back) == path.read_bytes()


def test_file_codes_cover_the_variants():
    # the codes are the format: a variant without one could not be saved,
    # and a renumbered one would misread every older file
    assert _VARIANT_CODES == {"simple": 0, "standard": 1, "fast": 2, "custom": 3}
    assert tuple(_VARIANT_CODES) == VARIANTS


def test_round_trip_through_streams():
    _, maps = _maps()
    bmap = maps["standard"]
    back = load(io.BytesIO(_saved(bmap)))
    assert back.query(b"zzz") == bmap.query(b"zzz")
    assert [n.k for n in back.tree.preorder()] == [n.k for n in bmap.tree.preorder()]
    assert back.tree.leaf_depths() == bmap.tree.leaf_depths()
    assert [back.tree.nodes[i].offset for i in range(len(back.tree.nodes))] == \
        [bmap.tree.nodes[i].offset for i in range(len(bmap.tree.nodes))]


def test_save_is_deterministic():
    _, maps = _maps()
    for bmap in maps.values():
        assert _saved(bmap) == _saved(bmap)


def test_save_requires_frozen():
    bmap = plan_tree_map(uniform_distribution(2), 2 ** -4, seed=1,
                         scheme="fast", counts=(4, 4))
    with pytest.raises(ValueError):
        save(bmap, io.BytesIO())


def test_unsavable_map_leaves_the_file_as_it_was(tmp_path):
    # a label too long for its u16 length field fails the save before
    # the path is opened, so the map saved there earlier still loads
    path = tmp_path / "m.bmap"
    _, maps = _maps()
    save(maps["fast"], path)
    before = path.read_bytes()
    long = new_distribution([1, 1], [b"x" * 0x10000, b"y"])
    bmap = build_tree([(b"k", b"y")], long, 2 ** -4, seed=1, scheme="fast")
    with pytest.raises(ValueError, match="does not fit the format"):
        save(bmap, path)
    assert path.read_bytes() == before
    assert _saved(load(path)) == before


def test_path_errors(tmp_path):
    _, maps = _maps()
    with pytest.raises(IoError):
        save(maps["simple"], tmp_path / "no" / "such" / "dir" / "x.bmap")
    with pytest.raises(IoError):
        load(tmp_path / "missing.bmap")


def test_truncations_rejected():
    _, maps = _maps()
    data = _saved(maps["standard"])
    for cut in (0, 3, _FIXED.size - 1, _FIXED.size, 60, len(data) // 2, len(data) - 1):
        with pytest.raises(FormatError):
            load(io.BytesIO(data[:cut]))


def test_targeted_field_corruptions():
    _, maps = _maps()
    data = _saved(maps["standard"])

    with pytest.raises(FormatError, match="magic"):
        load(io.BytesIO(_patched(data, 0, b"XMAP")))
    for version in (1, 255):
        with pytest.raises(FormatError, match="version"):
            load(io.BytesIO(_patched(data, 4, bytes([version]))))
    with pytest.raises(FormatError, match="variant"):
        load(io.BytesIO(_patched(data, 5, bytes([9]))))
    for code in (0, 2):
        with pytest.raises(FormatError, match="hash_algo"):
            load(io.BytesIO(_patched(data, 6, bytes([code]))))
    with pytest.raises(FormatError, match="m:"):
        load(io.BytesIO(_patched(data, 8, struct.pack("<Q", 0))))
    # planning takes log2(1 / x) of epsilon and of every probability, which
    # overflows for a subnormal x, so those are format errors too
    for eps in (2.0, 0.0, 1e-310):
        with pytest.raises(FormatError, match="epsilon"):
            load(io.BytesIO(_patched(data, 28, struct.pack("<d", eps))))
    simple = _saved(maps["simple"])
    probs = _FIXED.size + 2 + 1  # labels are one byte: records of 2 + 1 + 8
    for at, prob in ((0, 1.0), (1, 1e-310), (2, 1e-310), (3, 1e-310)):
        simple = _patched(simple, probs + at * 11, struct.pack("<d", prob))
    with pytest.raises(FormatError, match="distribution: probability 1e-310"):
        load(io.BytesIO(simple))
    # flipping any raw byte without fixing the checksum trips the checksum
    with pytest.raises(FormatError, match="checksum"):
        broken = bytearray(data)
        broken[-1] ^= 0xFF
        load(io.BytesIO(bytes(broken)))


def test_version_2_files_are_rejected():
    # version 2 planned by Garsia-Wachs and digested the plan's repr, and
    # no planner for it is kept: its files fail on the version, by name
    _, maps = _maps()
    for bmap in maps.values():
        data = _saved(bmap)
        assert data[4] == 3
        with pytest.raises(FormatError, match=r"version: 2 not supported \(expected 3\)"):
            load(io.BytesIO(_patched(data, 4, bytes([2]))))


def test_plan_fingerprint_checked():
    # the header's last field is the digest of the plan the map was saved
    # with; a file whose recomputed plan differs must not load
    _, maps = _maps()
    for bmap in maps.values():
        data = _saved(bmap)
        (plan,) = struct.unpack_from("<I", data, _FIXED.size - 4)
        evil = _patched(data, _FIXED.size - 4, struct.pack("<I", plan ^ 1))
        with pytest.raises(FormatError, match="plan"):
            load(io.BytesIO(evil))


_PINNED_DISTS = {
    "abcd": SKEW,
    "uniform64": uniform_distribution(64),
    "geometric40": new_distribution([0.9 ** i for i in range(40)],
                                    [f"v{i}" for i in range(40)]),
}

# plan digests of these maps in version 2 files as first released: a
# CRC-32 of the repr of the segments each value adds to its predecessor's
# path, which _v2_digest takes over today's rows.  Matching them shows the
# Huffman planner left every one of these plans where Garsia-Wachs put it
_V2_PLANS = {
    ("abcd", "simple"): 0xFBD70CDD,
    ("abcd", "standard"): 0x5C00BFB2,
    ("abcd", "fast"): 0xF015DE7E,
    ("abcd", "custom"): 0x49F180D2,
    ("uniform64", "simple"): 0x9574C7BC,
    ("uniform64", "standard"): 0x93ECFA46,
    ("uniform64", "fast"): 0xE95A64CB,
    ("uniform64", "custom"): 0x55703A6D,
    ("geometric40", "simple"): 0xD73608FB,
    ("geometric40", "standard"): 0x0EF69B8B,
    ("geometric40", "fast"): 0xE94E0F9B,
    ("geometric40", "custom"): 0x36C20D58,
}

# the plan field of the same maps in version 3 files; a planner change
# that moves any of them would stop those files loading
_PINNED_PLANS = {
    ("abcd", "simple"): 0x71F0DBD1,
    ("abcd", "standard"): 0xC9F2834D,
    ("abcd", "fast"): 0xB918E08F,
    ("abcd", "custom"): 0x1FB4A7AE,
    ("uniform64", "simple"): 0x8FD49CBD,
    ("uniform64", "standard"): 0xAB567808,
    ("uniform64", "fast"): 0xBB91272C,
    ("uniform64", "custom"): 0xBC0D86FE,
    ("geometric40", "simple"): 0x2227F653,
    ("geometric40", "standard"): 0x03D140A9,
    ("geometric40", "fast"): 0x33C9A5D1,
    ("geometric40", "custom"): 0x01403B0A,
}


def _v2_digest(rows) -> int:
    """Version 2's plan digest: per value, the rows with low == i, top-down,
    as (base_start, k, offset, i, keep), keep the depth of the first."""
    depth, added = [], []
    for first, last, offset, low, _, _, up in rows:
        depth.append(depth[up] + 1 if up >= 0 else 0)
        if low == len(added):
            added.append([])
            keep = depth[-1]
        added[low].append((first - 1, last - first + 1, offset, low, keep))
    return zlib.crc32(repr([tuple(segments) for segments in added]).encode())


def _pinned_map(dist_name, variant):
    d = _PINNED_DISTS[dist_name]
    pairs = [(f"pin-{t}".encode(), d.labels[t % d.b]) for t in range(4 * d.b)]
    if variant == "simple":
        return build_simple(pairs, d, 2 ** -7, seed=11)
    custom = None
    if variant == "custom":
        fast = build_tree(pairs, d, 2 ** -7, seed=11, scheme="fast")
        custom = {n.index: n.k + (0 if n.is_leaf else 1) for n in fast.tree.nodes}
    return build_tree(pairs, d, 2 ** -7, seed=11, scheme=variant, custom=custom)


@pytest.mark.parametrize("dist_name, variant", sorted(_PINNED_PLANS))
def test_plan_digest_is_pinned(dist_name, variant):
    bmap = _pinned_map(dist_name, variant)
    assert _v2_digest(bmap._plan) == _V2_PLANS[dist_name, variant]
    data = _saved(bmap)
    (plan,) = struct.unpack_from("<I", data, _FIXED.size - 4)
    assert plan == _PINNED_PLANS[dist_name, variant]
    back = load(io.BytesIO(data))
    keys = [f"pin-{t}".encode() for t in range(4 * bmap.b)]
    keys += [f"absent-{t}".encode() for t in range(200)]
    assert [back.query(key) for key in keys] == [bmap.query(key) for key in keys]
    for got, want in zip(back.query_many(keys), bmap.query_many(keys)):
        assert (got == want).all()


# (bytes, checksum field) of the pinned custom maps' files, whose node
# counts save reads off the plan rows rather than a CodeTree
_PINNED_CUSTOM_FILES = {
    "abcd": (170, 0x14962384),
    "uniform64": (2629, 0xFD004D89),
    "geometric40": (1690, 0x99CC36EF),
}


@pytest.mark.parametrize("dist_name", sorted(_PINNED_CUSTOM_FILES))
def test_custom_files_are_pinned(dist_name):
    bmap = _pinned_map(dist_name, "custom")
    data = _saved(bmap)
    assert (len(data), struct.unpack_from("<I", data, len(data) - 4)[0]) == (
        _PINNED_CUSTOM_FILES[dist_name])
    nodes = 2 * bmap.b - 1
    counts = struct.unpack_from(f"<{nodes}I", data, _counts_offset(bmap))
    assert list(counts) == [node.k for node in bmap.tree.nodes]


def test_custom_counts_certified_on_load():
    _, maps = _maps()
    bmap = maps["custom"]
    data = _saved(bmap)
    root_at = _counts_offset(bmap) + 4 * bmap.tree.root
    cap = _leaf_floor(bmap.epsilon) + 64
    for k in (0, cap + 1, 3 * 10 ** 5, 0xFFFFFFFF):
        with pytest.raises(FormatError, match="custom hash counts"):
            load(io.BytesIO(_patched(data, root_at, struct.pack("<I", k))))
    # the cap itself is a legal count: the file loads up to its plan digest
    with pytest.raises(FormatError, match="plan"):
        load(io.BytesIO(_patched(data, root_at, struct.pack("<I", cap))))


def test_lean_custom_counts_do_not_certify():
    # the lean counts of test_certify_bumps_a_lean_custom_tree need a bump
    # at epsilon 2^-4, so a file that states them is rejected, not repaired
    d = uniform_distribution(4)
    eps = 2 ** -4
    fast = tree_from_rows(plan_rows(d, eps, "fast")[0])
    bmap = build_tree([(f"k{i}", f"v{i % 4}") for i in range(40)], d, eps, seed=3,
                      scheme="custom", custom={n.index: n.k for n in fast.nodes})
    data = _saved(bmap)
    assert load(io.BytesIO(data)).describe() == bmap.describe()
    lean = [4 if n.is_leaf else 1 for n in bmap.tree.nodes]
    evil = _patched(data, _counts_offset(bmap), struct.pack("<7I", *lean))
    with pytest.raises(FormatError, match="do not certify"):
        load(io.BytesIO(evil))


def test_large_files_are_judged_in_planner_time():
    # a file states b and the distribution, so load's cost must stay near
    # the cost of planning: bounds that summed every pair of values, and a
    # bump loop run before rejecting, took seconds to minutes at these b
    eps = 2 ** -7
    b = 1024
    fast = tree_from_rows(plan_rows(uniform_distribution(b), eps, "fast")[0])
    bmap = plan_tree_map(uniform_distribution(b), eps, seed=1, scheme="custom", n=b,
                         custom={n.index: n.k for n in fast.nodes})
    bmap.freeze()
    lean = [7 if n.is_leaf else 1 for n in bmap.tree.nodes]
    evil = _patched(_saved(bmap), _counts_offset(bmap),
                    struct.pack(f"<{len(lean)}I", *lean))
    start = time.perf_counter()
    with pytest.raises(FormatError, match="do not certify"):
        load(io.BytesIO(evil))
    assert time.perf_counter() - start < 1.0

    b = 2048
    skewed = new_distribution([0.9 ** i for i in range(b)], [f"v{i}" for i in range(b)])
    bmap = plan_tree_map(skewed, eps, seed=1, scheme="standard", n=b)
    bmap.freeze()
    data = _saved(bmap)
    start = time.perf_counter()
    back = load(io.BytesIO(data))
    assert time.perf_counter() - start < 2.0
    assert back.describe() == bmap.describe()


def test_b_100k_loads_in_linear_time():
    # a standard file of 10^5 values whose weights end in a uniform tail:
    # on a 2-core x86-64 machine, quadratic Garsia-Wachs planning through a
    # tree of nodes loaded it in 4-8 s, and the Huffman depths with the
    # rows built straight from them in 0.5-0.7 s
    b = 10 ** 5
    weights = [0.9 ** i for i in range(64)] + [0.9 ** 64] * (b - 64)
    dist = new_distribution(weights, [f"v{i}" for i in range(b)])
    bmap = plan_tree_map(dist, 2 ** -7, seed=1, scheme="standard", n=b)
    bmap.freeze()
    data = _saved(bmap)
    start = time.perf_counter()
    back = load(io.BytesIO(data))
    assert time.perf_counter() - start < 2.0
    assert back._plan == bmap._plan
    assert len(back._plan) == 2 * b - 1


def test_large_b_loads_in_linear_memory():
    # the plan holds one row per tree node, so a load stays linear in b;
    # every value's whole path would be 3.6 million segments at this b
    b = 10 ** 4
    skewed = new_distribution([0.95 ** i for i in range(b)], [f"v{i}" for i in range(b)])
    bmap = plan_tree_map(skewed, 2 ** -7, seed=1, scheme="standard", n=10 ** 5)
    bmap.freeze()
    data = _saved(bmap)
    start = time.perf_counter()
    back = load(io.BytesIO(data))
    assert time.perf_counter() - start < 1.0
    assert len(back._plan) == 2 * b - 1
    tracemalloc.start()
    try:
        load(io.BytesIO(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_large_b_first_queries_compile_the_probe_table_in_bounds():
    # a load and the first scalar lookup compile no probe table; the first
    # batch lookup compiles its 129,999 entries, within the time and the
    # memory a load of this b is allowed
    b = 10 ** 4
    skewed = new_distribution([0.95 ** i for i in range(b)], [f"v{i}" for i in range(b)])
    bmap = plan_tree_map(skewed, 2 ** -7, seed=1, scheme="standard", n=10 ** 5)
    bmap.freeze()
    data = _saved(bmap)
    keys = [f"k{t}".encode() for t in range(1000)]
    back = load(io.BytesIO(data))
    for lookup in (lambda: back.query(keys[0]), lambda: back.query_many(keys)):
        assert back._probes is None
        start = time.perf_counter()
        lookup()
        assert time.perf_counter() - start < 1.0
    assert back._table().sink == 129_999 and len(back._table().j) == 129_999 + b + 1
    tracemalloc.start()
    try:
        back = load(io.BytesIO(data))
        loaded = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back.query_many(keys)
        back.query(keys[0])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two first calls' peak counts from after the load; what the map
    # holds after them, its table included, counts the load too
    assert peak - loaded < 32e6
    assert held < 32e6


def test_scalar_lookups_compile_no_probe_table():
    # query walks the plan rows and describe() reads them, so a loaded map
    # answers both with no probe table compiled
    pairs, maps = _maps()
    keys = [key for key, _ in pairs[:50]] + [f"absent{t}".encode() for t in range(50)]
    for bmap in maps.values():
        back = load(io.BytesIO(_saved(bmap)))
        assert [back.query(key) for key in keys] == [bmap.query(key) for key in keys]
        assert back.describe() == bmap.describe()
        assert back._probes is None


def test_hostile_flat_file_first_query_in_bounded_memory():
    # a 13,944-byte flat file whose 999 rare values each need about 1,004
    # probes: one entry per probe of every row came to about 10^6 entries,
    # and compiling them for the first query held 129 MB; the walk over
    # the plan rows holds one base hash slot per hash function, about 8 MB
    b = 1000
    dist = new_distribution([1.0] + [1e-300] * (b - 1), [f"v{i}" for i in range(b)])
    data = _saved(build_simple([(b"only", "v0")], dist, 2 ** -7, seed=1))
    assert len(data) == 13_944
    tracemalloc.start()
    try:
        back = load(io.BytesIO(data))
        out = back.query(b"only")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.value == b"v0"
    assert peak < 32e6


def test_trailing_bytes_rejected():
    _, maps = _maps()
    data = _saved(maps["fast"])
    evil = _sealed(data[:-4] + b"\x00\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load(io.BytesIO(evil))


def test_padding_bits_rejected():
    # the bit array ends right before the checksum; its last byte holds
    # m % 8 real bits, and ones() would count any padding bit set above them
    _, maps = _maps()
    for bmap in maps.values():
        data = _saved(bmap)
        last = len(data) - 5
        for bit in (bmap.m % 8, 7):
            evil = _patched(data, last, bytes([data[last] | 1 << bit]))
            with pytest.raises(FormatError, match="bit array"):
                load(io.BytesIO(evil))
    # with m a multiple of 8 the last byte has no padding to check
    pairs = generate_pmap(PMapSpec(SKEW, 40, seed=31))
    bmap = build_simple(pairs, SKEW, 2 ** -6, seed=7)
    assert bmap.m % 8 == 0
    data = _saved(bmap)
    back = load(io.BytesIO(_patched(data, len(data) - 5, b"\xff")))
    assert back.bits.get_bit(bmap.m - 1) == 1


def test_every_single_byte_flip_is_caught():
    import random

    _, maps = _maps()
    data = _saved(maps["fast"])
    rnd = random.Random(99)
    for _ in range(60):
        pos = rnd.randrange(len(data))
        flip = rnd.randint(1, 255)
        broken = bytearray(data)
        broken[pos] ^= flip
        with pytest.raises(FormatError):
            load(io.BytesIO(bytes(broken)))


@pytest.fixture(scope="module")
def fuzz_files():
    """Saved files, each with the offset of its bit array."""
    _, maps = _maps()
    out = {}
    for name in ("simple", "standard", "custom"):
        data = _saved(maps[name])
        out[name] = (data, len(data) - 4 - len(maps[name].bits.to_bytes()))
    return out


@settings(max_examples=150)
@given(name=st.sampled_from(["simple", "standard", "custom"]), data=st.data())
def test_load_fuzz_rejects_or_answers(fuzz_files, name, data):
    # overwrite 1-8 bytes anywhere before the bit array and fix the
    # checksum: load either raises FormatError or gives a working map
    raw, bits_at = fuzz_files[name]
    payload = bytearray(raw[:-4])
    for _ in range(data.draw(st.integers(1, 8))):
        payload[data.draw(st.integers(0, bits_at - 1))] = data.draw(st.integers(0, 255))
    try:
        back = load(io.BytesIO(_sealed(bytes(payload))))
    except FormatError:
        return
    assert back.frozen
    for key in (b"", b"a", b"fresh-1", b"x" * 100):
        out = back.query(key)
        assert out.value_index is None or 0 <= out.value_index < back.b
