"""Seeded non-cryptographic hashing.

One 64-bit master seed fans out into as many independent-looking hash
functions as a map needs.  Seed j is derived by folding j into the master
seed and running a splitmix-style finalizer (two multiply-xor-shift
rounds), so distinct j always give distinct seeds.  Keys are hashed 8
bytes at a time through the same finalizer, and the 64-bit result is
reduced to a bit position by multiply-shift rather than modulo.

A numpy batch path hashes many equal-length keys at once and agrees bit
for bit with the scalar path for every range size m, including m >= 2**32.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashFamily", "derive_seed", "keyed_hash64", "pack_keys"]

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


def derive_seed(master_seed: int, j: int) -> int:
    """Seed for hash function j (1-based).  Injective in j for fixed master."""
    return _fmix64((master_seed ^ ((j * _GOLD) & MASK64)) & MASK64)


def keyed_hash64(seed: int, key: bytes) -> int:
    """64-bit hash of a byte string under the given seed."""
    h = _fmix64(seed ^ ((len(key) * _GOLD) & MASK64))
    full = len(key) & ~7
    for i in range(0, full, 8):
        h = _fmix64(h ^ int.from_bytes(key[i : i + 8], "little"))
    if full != len(key):
        h = _fmix64(h ^ int.from_bytes(key[full:], "little"))
    return h


# numpy mirrors of the scalar pipeline; all operands stay uint64 so
# multiplication wraps mod 2**64 exactly like the masked scalar code
_NP_MULT1 = np.uint64(_MULT1)
_NP_MULT2 = np.uint64(_MULT2)
_S30, _S27, _S31, _S32 = (np.uint64(s) for s in (30, 27, 31, 32))
_LO32 = np.uint64(0xFFFFFFFF)


def _fmix64_np(z):
    z = z ^ (z >> _S30)
    z = z * _NP_MULT1
    z = z ^ (z >> _S27)
    z = z * _NP_MULT2
    return z ^ (z >> _S31)


def pack_keys(keys) -> tuple[np.ndarray, int]:
    """Pack equal-length byte keys into a (len(keys), words) uint64 matrix.

    Words are little-endian with a zero-padded tail, matching what the
    scalar hash reads.  Returns the matrix and the common key length.
    """
    length = len(keys[0])
    stride = max((length + 7) // 8, 1)
    buf = bytearray(len(keys) * stride * 8)
    for i, key in enumerate(keys):
        if len(key) != length:
            raise ValueError("pack_keys needs equal-length keys")
        start = i * stride * 8
        buf[start : start + length] = key
    words = np.frombuffer(bytes(buf), dtype="<u8").reshape(len(keys), stride)
    return words, length


def hash_words(seed: int, words: np.ndarray, length: int) -> np.ndarray:
    """Batch form of keyed_hash64 over packed key words."""
    h = np.uint64(_fmix64(seed ^ ((length * _GOLD) & MASK64)))
    n_absorb = (length + 7) // 8 if length else 0
    out = None
    for col in range(n_absorb):
        cur = h if out is None else out
        out = _fmix64_np(cur ^ words[:, col])
    if out is None:
        out = np.full(words.shape[0], h, dtype=np.uint64)
    return out


def _reduce(h: int, m: int) -> int:
    return (h * m) >> 64


def _reduce_np(h: np.ndarray, m: int) -> np.ndarray:
    # (h * m) >> 64 exactly, summed from the four 32 x 32 -> 64 bit partial
    # products of h and m; no sum below exceeds 2**64 - 1.  In-place updates
    # keep the many small batches of a build cheap.
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    h_hi, h_lo = h >> _S32, h & _LO32
    cross = h_hi * m_lo
    mid = h_lo * m_lo
    mid >>= _S32
    mid += cross & _LO32
    h_lo *= m_hi
    mid += h_lo
    mid >>= _S32
    cross >>= _S32
    cross += mid
    h_hi *= m_hi
    h_hi += cross
    return h_hi


class HashFamily:
    """k seeded hash functions with a common range [0, m).

    Seeds for j = 1..k are derived once up front.  Instances are immutable
    and safe to share across threads.
    """

    __slots__ = ("master_seed", "m", "k", "_seeds")

    def __init__(self, master_seed: int, m: int, k: int):
        if m < 1:
            raise ValueError(f"range size m must be positive, got {m}")
        if k < 0:
            raise ValueError(f"negative function count {k}")
        self.master_seed = master_seed & MASK64
        self.m = m
        self.k = k
        self._seeds = tuple(derive_seed(self.master_seed, j) for j in range(1, k + 1))

    def _seed(self, j: int) -> int:
        if not 1 <= j <= self.k:
            raise IndexError(f"hash index {j} outside 1..{self.k}")
        return self._seeds[j - 1]

    def base_hash(self, j: int, key: bytes) -> int:
        """Position of key under function j (1-based), in [0, m)."""
        return _reduce(keyed_hash64(self._seed(j), key), self.m)

    def base_hash_batch(self, j: int, words: np.ndarray, length: int) -> np.ndarray:
        """Vectorized base_hash over packed keys; identical outputs."""
        return _reduce_np(hash_words(self._seed(j), words, length), self.m)
