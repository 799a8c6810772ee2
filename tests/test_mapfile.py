"""Serialization: byte layout stability, round trips, and corruption.

Every mutation of a saved file must be rejected; the checksum guarantees
that, so the targeted field tests below recompute it to reach the
field-specific validation underneath.
"""

import io
import struct

import pytest

from bloommap import (
    FormatError,
    IoError,
    load,
    new_distribution,
    read_header,
    save,
    uniform_distribution,
)
from bloommap.core import build_simple, build_tree, plan_tree_map
from bloommap.harness import PMapSpec, generate_pmap
from bloommap.mapfile import _FIXED, _fnv1a64

SKEW = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])


def _saved(bmap) -> bytes:
    sink = io.BytesIO()
    save(bmap, sink)
    return sink.getvalue()


def _patched(data: bytes, offset: int, new_bytes: bytes) -> bytes:
    """Overwrite bytes inside the payload and fix the checksum up."""
    payload = bytearray(data[:-8])
    payload[offset : offset + len(new_bytes)] = new_bytes
    payload = bytes(payload)
    return payload + struct.pack("<Q", _fnv1a64(payload))


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


def test_fnv_vectors():
    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C


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


def test_path_errors(tmp_path):
    _, maps = _maps()
    with pytest.raises(IoError):
        save(maps["simple"], tmp_path / "no" / "such" / "dir" / "x.bmap")
    with pytest.raises(IoError):
        load(tmp_path / "missing.bmap")
    with pytest.raises(IoError):
        read_header(tmp_path / "missing.bmap")


def test_read_header(tmp_path):
    _, maps = _maps()
    bmap = maps["fast"]
    path = tmp_path / "h.bmap"
    save(bmap, path)
    for header in (read_header(path), read_header(io.BytesIO(_saved(bmap)))):
        assert header.version == 1
        assert header.hash_algo == 1
        assert header.variant == "fast"
        assert header.m == bmap.m
        assert header.n == 400
        assert header.b == 4
        assert header.epsilon == 2 ** -6
        assert header.master_seed == 7


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
    with pytest.raises(FormatError, match="version"):
        load(io.BytesIO(_patched(data, 4, bytes([255]))))
    with pytest.raises(FormatError, match="variant"):
        load(io.BytesIO(_patched(data, 5, bytes([9]))))
    for code in (0, 2):
        with pytest.raises(FormatError, match="hash_algo"):
            load(io.BytesIO(_patched(data, 6, bytes([code]))))
    with pytest.raises(FormatError, match="m:"):
        load(io.BytesIO(_patched(data, 8, struct.pack("<Q", 0))))
    with pytest.raises(FormatError, match="epsilon"):
        load(io.BytesIO(_patched(data, 28, struct.pack("<d", 2.0))))
    # flipping any raw byte without fixing the checksum trips the checksum
    with pytest.raises(FormatError, match="checksum"):
        broken = bytearray(data)
        broken[-1] ^= 0xFF
        load(io.BytesIO(bytes(broken)))


def test_tree_record_corruptions():
    _, maps = _maps()
    bmap = maps["standard"]
    data = _saved(bmap)
    # distribution block: (len u16 + label + prob f64) per value
    tree_off = _FIXED.size + sum(2 + len(l) + 8 for l in bmap.dist.labels)
    with pytest.raises(FormatError, match="leaf flag"):
        load(io.BytesIO(_patched(data, tree_off, bytes([7]))))
    with pytest.raises(FormatError, match="hash count"):
        load(io.BytesIO(_patched(data, tree_off + 1, struct.pack("<I", 0))))
    with pytest.raises(FormatError, match="value index"):
        # the first record is the internal root; give it a value
        load(io.BytesIO(_patched(data, tree_off + 5, struct.pack("<I", 2))))


def test_flat_record_corruption():
    _, maps = _maps()
    bmap = maps["simple"]
    data = _saved(bmap)
    ks_off = _FIXED.size + sum(2 + len(l) + 8 for l in bmap.dist.labels)
    with pytest.raises(FormatError, match="hash counts"):
        load(io.BytesIO(_patched(data, ks_off, struct.pack("<I", 0))))


def test_trailing_bytes_rejected():
    _, maps = _maps()
    data = _saved(maps["fast"])
    payload = data[:-8] + b"\x00\x00\x00"
    evil = payload + struct.pack("<Q", _fnv1a64(payload))
    with pytest.raises(FormatError, match="trailing"):
        load(io.BytesIO(evil))


def test_padding_bits_rejected():
    # the bit array ends right before the checksum; its last byte holds
    # m % 8 real bits, and ones() would count any padding bit set above them
    _, maps = _maps()
    for bmap in maps.values():
        data = _saved(bmap)
        last = len(data) - 9
        for bit in (bmap.m % 8, 7):
            evil = _patched(data, last, bytes([data[last] | 1 << bit]))
            with pytest.raises(FormatError, match="bit array"):
                load(io.BytesIO(evil))
    # with m a multiple of 8 the last byte has no padding to check
    pairs = generate_pmap(PMapSpec(SKEW, 40, seed=31))
    bmap = build_simple(pairs, SKEW, 2 ** -6, seed=7)
    assert bmap.m % 8 == 0
    data = _saved(bmap)
    back = load(io.BytesIO(_patched(data, len(data) - 9, b"\xff")))
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
