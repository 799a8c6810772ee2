"""Binary persistence for frozen maps.

Layout (all integers little-endian):

    magic "BMAP" | version u8 | variant u8 | hash_algo u8 | reserved u8
    m u64 | n u64 | b u32 | epsilon f64 | master_seed u64
    distribution: b x (label_len u16, label bytes, probability f64)
    tree variants: preorder records (is_leaf u8, k u32, value_index u32)
    flat variant:  b x (k u32)
    bit array: ceil(m / 8) bytes, bit j at byte j >> 3, weight 1 << (j & 7);
               the padding bits m .. 8 ceil(m / 8) - 1 are zero
    checksum u64: FNV-1a 64 over every preceding byte

Internal tree records carry 0xFFFFFFFF in the value_index slot.  A load
re-derives offsets, base index slices, and the hash family from what is
stored, so a round-tripped map answers every query bit-identically.

hash_algo 1, double hashing from one 64-bit digest per key (hashing.py),
is the only code written or read.  Files with code 0 set their bits by
per-function seeded hashes, so load rejects them rather than misread them.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path

from . import codetree
from .core import BitArray, BloomMap
from .distribution import ValueDistribution
from .errors import FormatError, InvalidDistribution, IoError

__all__ = ["MapFileHeader", "save", "load", "read_header", "MAGIC", "VERSION"]

MAGIC = b"BMAP"
VERSION = 1
HASH_ALGO = 1
NO_VALUE = 0xFFFFFFFF

_VARIANT_CODES = {"simple": 0, "standard": 1, "fast": 2, "custom": 3}
_VARIANT_NAMES = {code: name for name, code in _VARIANT_CODES.items()}

_FIXED = struct.Struct("<4sBBBBQQIdQ")


@dataclass(frozen=True)
class MapFileHeader:
    version: int
    variant: str
    hash_algo: int
    m: int
    n: int
    b: int
    epsilon: float
    master_seed: int


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# -- writing ----------------------------------------------------------


def save(bmap: BloomMap, sink) -> None:
    """Serialize a frozen map to a path or binary stream."""
    if not bmap.frozen:
        raise ValueError("freeze the map before saving")
    if isinstance(sink, (str, Path)):
        try:
            with open(sink, "wb") as fh:
                save(bmap, fh)
        except OSError as exc:
            raise IoError(f"cannot write {sink}: {exc}") from exc
        return
    buf = io.BytesIO()
    buf.write(_FIXED.pack(
        MAGIC, VERSION, _VARIANT_CODES[bmap.variant], HASH_ALGO, 0,
        bmap.m, bmap.n, bmap.b, bmap.epsilon, bmap.family.master_seed,
    ))
    for label, prob in zip(bmap.dist.labels, bmap.dist.probs):
        if len(label) > 0xFFFF:
            raise ValueError(f"label of {len(label)} bytes does not fit the format")
        buf.write(struct.pack("<H", len(label)))
        buf.write(label)
        buf.write(struct.pack("<d", prob))
    if bmap.tree is not None:
        for node in bmap.tree.preorder():
            value = NO_VALUE if node.value_index is None else node.value_index
            buf.write(struct.pack("<BII", int(node.is_leaf), node.k, value))
    else:
        for k in bmap.simple_ks:
            buf.write(struct.pack("<I", k))
    buf.write(bmap.bits.to_bytes())
    payload = buf.getvalue()
    out = payload + struct.pack("<Q", _fnv1a64(payload))
    try:
        sink.write(out)
    except OSError as exc:
        raise IoError(f"write failed: {exc}") from exc


# -- reading ----------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise FormatError(f"{what}: file truncated at byte {self.pos}")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str, what: str):
        s = struct.Struct(fmt)
        return s.unpack(self.take(s.size, what))


def _parse_header(reader: _Reader) -> MapFileHeader:
    magic, version, variant_code, hash_algo, _reserved, m, n, b, epsilon, seed = (
        reader.unpack("<4sBBBBQQIdQ", "header")
    )
    if magic != MAGIC:
        raise FormatError(f"magic: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise FormatError(f"version: {version} not supported (expected {VERSION})")
    if variant_code not in _VARIANT_NAMES:
        raise FormatError(f"variant: unknown code {variant_code}")
    if hash_algo != HASH_ALGO:
        raise FormatError(f"hash_algo: code {hash_algo} not supported (expected {HASH_ALGO})")
    if m < 1:
        raise FormatError(f"m: bit count {m} must be positive")
    if b < 1:
        raise FormatError(f"b: value count {b} must be positive")
    if not (0.0 < epsilon < 1.0):
        raise FormatError(f"epsilon: {epsilon!r} outside (0, 1)")
    return MapFileHeader(
        version=version, variant=_VARIANT_NAMES[variant_code], hash_algo=hash_algo,
        m=m, n=n, b=b, epsilon=epsilon, master_seed=seed,
    )


def read_header(source) -> MapFileHeader:
    """Parse just the fixed header of a map file."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as fh:
                data = fh.read(_FIXED.size)
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc
    else:
        data = source.read(_FIXED.size)
    return _parse_header(_Reader(data))


def _parse_distribution(reader: _Reader, b: int) -> ValueDistribution:
    labels = []
    probs = []
    for i in range(b):
        (length,) = reader.unpack("<H", f"distribution[{i}] label length")
        labels.append(reader.take(length, f"distribution[{i}] label"))
        (prob,) = reader.unpack("<d", f"distribution[{i}] probability")
        probs.append(prob)
    try:
        return ValueDistribution(probs=tuple(probs), labels=tuple(labels))
    except InvalidDistribution as exc:
        raise FormatError(f"distribution: {exc}") from exc


def _parse_tree(reader: _Reader, b: int) -> codetree.CodeTree:
    # Preorder records self-delimit: keep a stack of internal nodes still
    # waiting for children and stop once the root's subtree completes.
    tree = codetree.CodeTree()
    stored_values: list[int] = []
    pending: list[list] = []  # [k of the internal node, left child or None]
    root = None
    for _ in range(2 * b - 1):
        is_leaf, k, value = reader.unpack("<BII", "tree node")
        if is_leaf not in (0, 1):
            raise FormatError(f"tree: bad leaf flag {is_leaf}")
        if k < 1:
            raise FormatError(f"tree: hash count {k} must be positive")
        if not is_leaf:
            if value != NO_VALUE:
                raise FormatError(f"tree: internal node carries value index {value}")
            pending.append([k, None])
            continue
        if value == NO_VALUE:
            raise FormatError("tree: leaf without a value index")
        stored_values.append(value)
        done = tree.new_leaf()
        tree.nodes[done].k = k
        while pending:
            top = pending[-1]
            if top[1] is None:
                top[1] = done
                done = None
                break
            internal_k, left = pending.pop()
            done = tree.new_internal(left, done)
            tree.nodes[done].k = internal_k
        if done is not None:
            root = done
            break
    if root is None:
        raise FormatError(f"tree: records ended before {b} leaves were linked")
    tree.seal(root)
    if tree.b != b:
        raise FormatError(f"tree: {tree.b} leaves for b={b} values")
    expect = [tree.nodes[i].value_index for i in tree.leaves]
    if stored_values != expect:
        raise FormatError(f"tree: leaf value order {stored_values} is not left-to-right")
    codetree.assign_offsets(tree)
    codetree.refresh_base_starts(tree)
    return tree


def load(source) -> BloomMap:
    """Read a map back from a path or binary stream.

    Raises FormatError (naming the offending field) for anything that
    does not parse or fails the checksum, and IoError when the source
    itself cannot be read.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as fh:
                return load(fh)
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc
    try:
        data = source.read()
    except OSError as exc:
        raise IoError(f"read failed: {exc}") from exc
    if len(data) < 8:
        raise FormatError("checksum: file shorter than its own checksum")
    payload, tail = data[:-8], data[-8:]
    (stated,) = struct.unpack("<Q", tail)
    actual = _fnv1a64(payload)
    if stated != actual:
        raise FormatError(
            f"checksum: stored {stated:#018x} but payload hashes to {actual:#018x}"
        )
    reader = _Reader(payload)
    header = _parse_header(reader)
    dist = _parse_distribution(reader, header.b)
    tree = None
    simple_ks = None
    if header.variant == "simple":
        ks = []
        for i in range(header.b):
            (k,) = reader.unpack("<I", f"hash counts[{i}]")
            if k < 1:
                raise FormatError(f"hash counts[{i}]: {k} must be positive")
            ks.append(k)
        simple_ks = tuple(ks)
    else:
        tree = _parse_tree(reader, header.b)
    nbytes = (header.m + 7) // 8
    bit_data = reader.take(nbytes, "bit array")
    # bits m .. 8 nbytes - 1 pad the last byte above its low m % 8 bits
    if bit_data[-1] >> (header.m % 8 or 8):
        raise FormatError(f"bit array: bits set at positions >= m={header.m}")
    if reader.pos != len(payload):
        raise FormatError(f"trailing data: {len(payload) - reader.pos} unexpected bytes")
    bits = BitArray(header.m, data=bit_data)
    bits.freeze()
    return BloomMap(
        variant=header.variant,
        dist=dist,
        epsilon=header.epsilon,
        seed=header.master_seed,
        bits=bits,
        tree=tree,
        simple_ks=simple_ks,
        n=header.n,
    )
