"""Binary persistence for frozen maps.

A map is fixed by its value distribution, its error budget epsilon and
its bit array; the code tree and every hash count follow from the first
two.  A file stores only those, and load recomputes the plan with the
builders' own code, so no stored shape or count is ever trusted.

Layout, version 3 (all integers little-endian):

    magic "BMAP" | version u8 | variant u8 | hash_algo u8 | reserved u8
    m u64 | n u64 | b u32 | epsilon f64 | master_seed u64 | plan u32
    distribution: b x (label_len u16, label bytes, probability f64)
    custom variant only: 2b - 1 node hash counts u32, in node-index order
    bit array: ceil(m / 8) bytes, bit j at byte j >> 3, weight 1 << (j & 7);
               the padding bits m .. 8 ceil(m / 8) - 1 are zero
    checksum u32: CRC-32 (zlib.crc32) over every preceding byte

Simple, standard and fast files state no hash count: the loaded map
plans itself from (distribution, epsilon, variant), as a built one
does.  Custom counts, in tree_from_depths' node numbering, are certified
again for the file's epsilon and must need no bump.  plan is a CRC-32 of
the plan rows (BloomMap._plan) the map was saved with, packed row after
row as their seven fields (first, last, offset, low, on_pass, on_fail,
up), each a little-endian i64; load rejects a file whose recomputed plan
differs, so a later change to the planner cannot silently misread an
older file.  Version 3 plans tree maps from Huffman depths and packs the
digest; version 2 planned by Garsia-Wachs and took a CRC of the plan's
repr, version 1 stored the plan itself, and neither loads.

hash_algo 1, double hashing from one 64-bit digest per key (hashing.py),
is the only code written or read.  Files with code 0 set their bits by
per-function seeded hashes, so load rejects them rather than misread them.
"""

from __future__ import annotations

import io
import struct
import sys
import zlib
from pathlib import Path

from .core import BitArray, BloomMap
from .distribution import ValueDistribution
from .errors import FormatError, InvalidDistribution, InvalidScheme, IoError

__all__ = ["save", "load", "MAGIC", "VERSION"]

MAGIC = b"BMAP"
VERSION = 3
HASH_ALGO = 1

_VARIANT_CODES = {"simple": 0, "standard": 1, "fast": 2, "custom": 3}
_VARIANT_NAMES = {code: name for name, code in _VARIANT_CODES.items()}

_FIXED = struct.Struct("<4sBBBBQQIdQI")
_LABEL_LEN = struct.Struct("<H")
_PROB = struct.Struct("<d")
_CRC = struct.Struct("<I")


def _plan_digest(bmap: BloomMap) -> int:
    words = [field for row in bmap._plan for field in row]
    return zlib.crc32(struct.pack(f"<{len(words)}q", *words))


# -- writing ----------------------------------------------------------


def save(bmap: BloomMap, sink) -> None:
    """Serialize a frozen map to a path or binary stream.  A map the
    format cannot hold raises before anything is opened or written."""
    if not bmap.frozen:
        raise ValueError("freeze the map before saving")
    head = _head(bmap)
    if isinstance(sink, (str, Path)):
        try:
            with open(sink, "wb") as fh:
                _write(fh, head, bmap)
        except OSError as exc:
            raise IoError(f"cannot write {sink}: {exc}") from exc
        return
    _write(sink, head, bmap)


def _head(bmap: BloomMap) -> bytes:
    """Everything a file holds before the bit array."""
    buf = io.BytesIO()
    buf.write(_FIXED.pack(
        MAGIC, VERSION, _VARIANT_CODES[bmap.variant], HASH_ALGO, 0,
        bmap.m, bmap.n, bmap.b, bmap.epsilon, bmap.family.master_seed,
        _plan_digest(bmap),
    ))
    for label, prob in zip(bmap.dist.labels, bmap.dist.probs):
        if len(label) > 0xFFFF:
            raise ValueError(f"label of {len(label)} bytes does not fit the format")
        buf.write(_LABEL_LEN.pack(len(label)))
        buf.write(label)
        buf.write(_PROB.pack(prob))
    if bmap.variant == "custom":
        ks = [node.k for node in bmap.tree.nodes]
        buf.write(struct.pack(f"<{len(ks)}I", *ks))
    return buf.getvalue()


def _write(sink, head: bytes, bmap: BloomMap) -> None:
    try:
        with memoryview(bmap.bits._buf) as bits:  # written and checksummed in place
            sink.write(head)
            sink.write(bits)
            sink.write(_CRC.pack(zlib.crc32(bits, zlib.crc32(head))))
    except OSError as exc:
        raise IoError(f"write failed: {exc}") from exc


# -- reading ----------------------------------------------------------


def _read_all(source) -> bytearray:
    """The rest of a binary stream as one bytearray.  A stream that can
    tell its length is read into place, so its bytes are copied once; the
    length comes from the stream, never from a header field."""
    data = bytearray()
    if source.seekable():
        here = source.tell()
        data = bytearray(source.seek(0, io.SEEK_END) - here)
        source.seek(here)
        got = 0
        with memoryview(data) as view:
            while got < len(data) and (count := source.readinto(view[got:])):
                got += count
        del data[got:]
    data += source.read()  # all of a stream of unknown length, else what it grew by
    return data


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def skip(self, n: int, what: str) -> int:
        """Step over the next n bytes; returns where they start."""
        start = self.pos
        if start + n > len(self.data):
            raise FormatError(f"{what}: file truncated at byte {start}")
        self.pos = start + n
        return start

    def take(self, n: int, what: str):
        return self.data[self.skip(n, what) : self.pos]


def _parse_distribution(reader: _Reader, b: int) -> ValueDistribution:
    data, skip = reader.data, reader.skip
    labels = []
    probs = []
    try:  # a field is named by its value's index only when it is cut short
        for i in range(b):
            (length,) = _LABEL_LEN.unpack_from(data, skip(2, "label length"))
            labels.append(bytes(reader.take(length, "label")))
            probs.append(_PROB.unpack_from(data, skip(8, "probability"))[0])
    except FormatError as exc:
        raise FormatError(f"distribution[{i}] {exc}") from None
    try:
        return ValueDistribution(probs=tuple(probs), labels=tuple(labels))
    except InvalidDistribution as exc:
        raise FormatError(f"distribution: {exc}") from exc


def load(source) -> BloomMap:
    """Read a map back from a path or binary stream.

    Raises FormatError (naming the offending field) for anything that
    does not parse, fails the checksum, or whose recomputed plan does not
    match the one it was saved with, and IoError when the source itself
    cannot be read.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as fh:
                return load(fh)
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc
    try:
        data = _read_all(source)
    except OSError as exc:
        raise IoError(f"read failed: {exc}") from exc
    if len(data) < _CRC.size:
        raise FormatError("checksum: file shorter than its own checksum")
    (stated,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    del data[-_CRC.size :]  # data is now the payload
    actual = zlib.crc32(data)
    if stated != actual:
        raise FormatError(
            f"checksum: stored {stated:#010x} but payload hashes to {actual:#010x}"
        )
    reader = _Reader(data)
    magic, version, variant_code, hash_algo, _reserved, m, n, b, epsilon, seed, plan = (
        _FIXED.unpack_from(data, reader.skip(_FIXED.size, "header"))
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
    if not (sys.float_info.min <= epsilon < 1.0):
        raise FormatError(f"epsilon: {epsilon!r} outside [{sys.float_info.min!r}, 1)")
    variant = _VARIANT_NAMES[variant_code]
    dist = _parse_distribution(reader, b)
    custom = None
    if variant == "custom":
        nodes = 2 * b - 1
        custom = struct.unpack(f"<{nodes}I", reader.take(4 * nodes, "custom hash counts"))
    nbytes = (m + 7) // 8
    start = reader.skip(nbytes, "bit array")
    # bits m .. 8 nbytes - 1 pad the last byte above its low m % 8 bits
    if data[reader.pos - 1] >> (m % 8 or 8):
        raise FormatError(f"bit array: bits set at positions >= m={m}")
    if reader.pos != len(data):
        raise FormatError(f"trailing data: {len(data) - reader.pos} unexpected bytes")
    del data[:start]  # cuts the front off in place: data is now the bit array
    try:
        bmap = BloomMap(variant=variant, dist=dist, epsilon=epsilon, seed=seed,
                        bits=BitArray._frozen_over(m, data), n=n, custom=custom)
    except InvalidScheme as exc:
        raise FormatError(f"custom hash counts: {exc}") from exc
    recomputed = _plan_digest(bmap)
    if recomputed != plan:
        raise FormatError(
            f"plan: stored digest {plan:#010x} but the recomputed plan "
            f"hashes to {recomputed:#010x}"
        )
    return bmap
