"""Seeded non-cryptographic hashing by double hashing.

A key is hashed once: a splitmix-style finalizer round (two
multiply-xor-shift steps) mixes the 64-bit master seed with the key's
length, and one absorb loop then folds in the key's 8-byte little-endian
words, one finalizer round each, read by one struct unpack of the key
zero-padded to a whole word, so a digest takes time linear in the key's
length; that gives h1, and one more finalizer round gives the odd step
h2 = fmix64(h1) | 1.  Function j is then g_j = (h1 + j * h2) mod 2**64,
reduced to a bit position by multiply-shift rather than modulo.  Kirsch
and Mitzenmacher ("Less Hashing, Same Performance", ESA 2006) show that
these g_j keep the false positive rate of k independent functions, so a
map probing t positions per key pays for one key hash, not t.  The first
round reads only the seed and the length, and the unpacker only the
length, so a HashFamily keeps both per key length and a lookup runs the
unpack and the absorb loop alone.

A numpy batch path digests a list of keys of any lengths at once and
agrees bit for bit with the scalar path for every range size m,
including m >= 2**32.  It absorbs keys of adjacent 8-byte word counts
together, one zero-padded word matrix a group, a column at a time, and
keys whose words have run out keep their value through a mask.  A group
takes in the next word count only while its matrix stays within twice
the words of its keys, so its memory is at most twice the keys' own and
one long key cannot pad the short ones to its length: 8-64 byte keys
form one group of 8 columns, not 8 groups, and 16-byte keys one group of
2.  Only that path imports numpy, on its first call, so a one-shot
scalar lookup never loads it.
"""

from __future__ import annotations

import struct
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

__all__ = ["HashFamily", "keyed_hash64", "step_of"]

MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _fmix64(z):
    """Finalizing mixer: two multiply-xor-shift rounds plus a closing shift."""
    z ^= z >> 30
    z = (z * _MULT1) & MASK64
    z ^= z >> 27
    z = (z * _MULT2) & MASK64
    return z ^ (z >> 31)


def _per_length(seed: int, length: int) -> tuple[int, Callable, bytes]:
    """The parts of a digest that read only the seed and the key's length:
    the first round, the unpacker of the key's 8-byte little-endian words
    and the zero bytes that pad the key to a whole word."""
    unpack = struct.Struct(f"<{(length + 7) >> 3}Q").unpack
    return _fmix64(seed ^ ((length * _GOLD) & MASK64)), unpack, bytes(-length & 7)


def _absorb(entry: tuple[int, Callable, bytes], key: bytes) -> int:
    """The h1 digest of key, from its length's _per_length entry: fold
    the key's words, the last one zero padded, into the first round with
    one _fmix64 round each, written out inline.  One unpack reads every
    word, so the time is linear in the key's length, where shifting each
    word out of one int of the whole key would be quadratic in it."""
    z, unpack, pad = entry
    for word in unpack(key + pad):
        z ^= word
        z ^= z >> 30
        z = (z * _MULT1) & MASK64
        z ^= z >> 27
        z = (z * _MULT2) & MASK64
        z ^= z >> 31
    return z


def keyed_hash64(seed: int, key: bytes) -> int:
    """64-bit hash of a byte string under the given seed."""
    return _absorb(_per_length(seed, len(key)), key)


@cache
def _u64() -> SimpleNamespace:
    """The batch path's operands as numpy uint64 scalars, made on its
    first call.  Every operand stays uint64, so multiplication wraps mod
    2**64 exactly like the masked scalar code; numpy also applies a
    Python int operand more slowly, by about 0.2 us an operation."""
    import numpy as np

    u64 = np.uint64
    return SimpleNamespace(u64=u64, gold=u64(_GOLD), mult1=u64(_MULT1), mult2=u64(_MULT2),
                           s27=u64(27), s30=u64(30), s31=u64(31), s32=u64(32),
                           lo32=u64(0xFFFFFFFF), one=u64(1))


def _fmix64_np(z):
    c = _u64()
    z = z ^ (z >> c.s30)
    z = z * c.mult1
    z = z ^ (z >> c.s27)
    z = z * c.mult2
    return z ^ (z >> c.s31)


def step_of(h1: np.ndarray) -> np.ndarray:
    """The odd step h2 = fmix64(h1) | 1 of every digest h1."""
    return _fmix64_np(h1) | _u64().one


def _reduce_np(h: np.ndarray, m: int) -> np.ndarray:
    # (h * m) >> 64 exactly.  Below m = 2**32 it is (h_hi * m + (h_lo * m >> 32))
    # >> 32, where both products stay below 2**64 - 2**32, so no sum wraps.
    # Above, it is summed from the four 32 x 32 -> 64 bit partial products of
    # h and m, no sum exceeding 2**64 - 1, with in-place updates that keep
    # the many small batches of a build cheap.
    c = _u64()
    s32, lo32 = c.s32, c.lo32
    if m < 1 << 32:
        m = c.u64(m)
        return ((h >> s32) * m + ((h & lo32) * m >> s32)) >> s32
    m_hi, m_lo = c.u64(m >> 32), c.u64(m & 0xFFFFFFFF)
    h_hi, h_lo = h >> s32, h & lo32
    cross = h_hi * m_lo
    mid = h_lo * m_lo
    mid >>= s32
    mid += cross & lo32
    h_lo *= m_hi
    mid += h_lo
    mid >>= s32
    cross >>= s32
    cross += mid
    h_hi *= m_hi
    h_hi += cross
    return h_hi


class HashFamily:
    """k double-hashed functions with a common range [0, m).

    Function j (1-based) maps a key to reduce((h1 + j * h2) mod 2**64, m),
    where (h1, h2) is the key's digest.  base_hash keeps the last key it
    digested in a one-slot memo, so the t calls a lookup or store makes
    for one key object hash that key once, and it starts each digest from
    the family's per-length table, one (first round, unpacker, padding)
    entry per key length seen, so a digest runs only the unpack and the
    absorb loop.  The memo and that table are the only state that changes:
    the memo is one (key, h1, h2) tuple, replaced whole and read once per
    call, and a table entry depends only on the seed and the length, so a
    family is safe to share across threads; a race only costs a second
    digest or a second computation of the same entry.
    """

    __slots__ = ("master_seed", "m", "k", "_memo", "_per_length")

    def __init__(self, master_seed: int, m: int, k: int):
        if m < 1:
            raise ValueError(f"range size m must be positive, got {m}")
        if k < 0:
            raise ValueError(f"negative function count {k}")
        self.master_seed = master_seed & MASK64
        self.m = m
        self.k = k
        self._memo = (None, 0, 0)
        self._per_length: dict[int, tuple] = {}  # key length -> _per_length(master_seed, length)

    def base_hash(self, j: int, key: bytes) -> int:
        """Position of key under function j (1-based), in [0, m)."""
        if not 1 <= j <= self.k:
            raise IndexError(f"hash index {j} outside 1..{self.k}")
        memo = self._memo
        if memo[0] is not key:
            n = len(key)
            entry = self._per_length.get(n)
            if entry is None:
                entry = self._per_length[n] = _per_length(self.master_seed, n)
            h1 = z = _absorb(entry, key)
            # h2 = _fmix64(h1) | 1, inline
            z ^= z >> 30
            z = (z * _MULT1) & MASK64
            z ^= z >> 27
            z = (z * _MULT2) & MASK64
            memo = self._memo = (key, h1, (z ^ (z >> 31)) | 1)
        # (g_j * m) >> 64, the scalar form of _reduce_np
        return ((memo[1] + j * memo[2]) & MASK64) * self.m >> 64

    def digest_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) for every byte string in a list of keys of any lengths,
        as two uint64 arrays."""
        h1 = self._h1_batch(keys)
        return h1, step_of(h1)

    def _h1_batch(self, keys) -> np.ndarray:
        """The h1 digest of every key in a list, as one uint64 array.

        Keys are absorbed in groups of adjacent 8-byte word counts, each
        packed into one zero-padded little-endian word matrix through a
        numpy bytes array and absorbed a column at a time; a key whose
        words have run out keeps its value through a mask.  A group grows
        while its matrix holds at most twice the words of its keys, so no
        long key pads many short ones.  Every key's chain starts from its
        own length, as in keyed_hash64.
        """
        import numpy as np

        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        h1 = _fmix64_np(lengths.view(np.uint64) * _u64().gold ^ np.uint64(self.master_seed))
        words = (lengths + 7) >> 3
        sizes = np.bincount(words, minlength=1)
        sizes[0] = 0  # an empty key absorbs no word
        counts = np.flatnonzero(sizes)
        groups: list[list[int]] = []  # fewest and most words, keys, words held
        for count, size in zip(counts.tolist(), sizes[counts].tolist()):
            if groups and (groups[-1][2] + size) * count <= 2 * (groups[-1][3] + size * count):
                groups[-1][1:] = count, groups[-1][2] + size, groups[-1][3] + size * count
            else:
                groups.append([count, count, size, size * count])
        for fewest, most, size, _ in groups:
            if size == len(keys):
                rows, group, have = slice(None), keys, words
            else:
                rows = np.flatnonzero((words >= fewest) & (words <= most))
                group = [keys[i] for i in rows.tolist()]
                have = words[rows]
            packed = np.array(group, dtype=f"S{8 * most}").view("<u8").reshape(-1, most)
            h = h1[rows]
            for col in range(most):
                mixed = _fmix64_np(h ^ packed[:, col])
                h = mixed if col < fewest else np.where(have > col, mixed, h)
            h1[rows] = h
        return h1

    def base_hash_batch(self, j, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Vectorized base_hash over digest_batch output; identical outputs.

        j is one index for every key, or an integer array holding each
        key's own index.
        """
        import numpy as np

        if isinstance(j, np.ndarray):
            js = j.astype(np.uint64, copy=False)
            # one pass: as uint64, j - 1 wraps j = 0 and negative j above k
            if js.size and int((js - 1).max()) >= self.k:
                raise IndexError(f"hash indices {j.min()}..{j.max()} outside 1..{self.k}")
            return self._hash_at(js, h1, h2)
        if not 1 <= j <= self.k:
            raise IndexError(f"hash index {j} outside 1..{self.k}")
        return self._hash_at(np.uint64(j), h1, h2)

    def _hash_at(self, j: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """base_hash_batch without its range check or conversion, for a
        uint64 array j known to lie in 1..k."""
        return _reduce_np(h1 + j * h2, self.m)
