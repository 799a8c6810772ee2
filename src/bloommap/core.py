"""Bit array and the two map variants.

A map is a single bit array shared by all values.  The flat variant gives
value i its own block of k_i = ceil(log2(1/eps) + log2(1/p_i)) hash
functions; the tree variant hashes each key along its value's
root-to-leaf path in the code tree, so likely values touch few bits.
One walk serves both: it returns the largest value index whose whole
path is set, trying values from the last down and skipping every value
whose path holds a segment that showed a zero bit.  On a tree that is the
right-first walk abandoning any subtree whose node fails; on the flat
layout it stops at the first fully set block from the top.  Neither variant can
return "not present" for a stored key.  The walk has a scalar form,
BloomMap.query, for one key, and a batch form, BloomMap.query_many, that
moves a whole batch of keys through it one probe at a time and returns
the same answers and probe counts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import codetree
from .bounds import LOG2E, _check_epsilon
from .distribution import ValueDistribution, entropy
from .errors import DuplicateKey, FrozenError
from .hashing import HashFamily, pack_keys

__all__ = [
    "BitArray",
    "BloomMap",
    "QueryOutcome",
    "build_simple",
    "build_tree",
    "plan_tree_map",
    "simple_hash_counts",
    "simple_analytic_bounds",
    "zero_fraction",
]


class BitArray:
    """m bits packed 8 per byte, bit j at byte j >> 3, weight 1 << (j & 7).

    Bits only ever flip 0 to 1, and only before freeze().  After freeze
    the array is read-only and safe to share between query threads.
    """

    __slots__ = ("m", "_buf", "_frozen")

    def __init__(self, m: int, data: bytes | None = None):
        if m < 1:
            raise ValueError(f"bit array needs at least one bit, got m={m}")
        nbytes = (m + 7) // 8
        if data is None:
            self._buf = bytearray(nbytes)
        else:
            if len(data) != nbytes:
                raise ValueError(f"expected {nbytes} bytes for m={m}, got {len(data)}")
            self._buf = bytearray(data)
        self.m = m
        self._frozen = False

    def get_bit(self, i: int) -> int:
        return (self._buf[i >> 3] >> (i & 7)) & 1

    def set_bit(self, i: int) -> None:
        if self._frozen:
            raise FrozenError("bit array is frozen")
        self._buf[i >> 3] |= 1 << (i & 7)

    def set_many(self, positions) -> None:
        """Set a batch of positions (any iterable or uint64 array)."""
        if self._frozen:
            raise FrozenError("bit array is frozen")
        pos = np.asarray(positions, dtype=np.uint64)
        if pos.size == 0:
            return
        scratch = np.zeros(self.m, dtype=bool)
        scratch[pos] = True
        packed = np.packbits(scratch, bitorder="little")
        view = np.frombuffer(self._buf, dtype=np.uint8)
        view |= packed

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def ones(self) -> int:
        return int.from_bytes(bytes(self._buf), "little").bit_count()

    def zero_fraction(self) -> float:
        """Fraction of the m bits still zero."""
        return (self.m - self.ones()) / self.m

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one lookup.

    value / value_index are None when the key is reported absent.  probes
    counts individual bit reads; hash_evals counts base hash evaluations,
    which can be lower because a query reuses base hashes across subtrees
    that share base indices.
    """

    value_index: int | None
    value: bytes | None
    probes: int
    hash_evals: int

    @property
    def is_bottom(self) -> bool:
        return self.value_index is None


def simple_hash_counts(dist: ValueDistribution, epsilon: float) -> tuple[int, ...]:
    """Per-value hash counts for the flat variant:
    k_i = ceil(log2(1/eps) + log2(1/p_i))."""
    _check_epsilon(epsilon)
    base = math.log2(1.0 / epsilon)
    return tuple(math.ceil(base + math.log2(1.0 / p)) for p in dist.probs)


def simple_analytic_bounds(ks) -> tuple[float, tuple[float, ...]]:
    """(false positive bound, per-value misassignment bounds) for flat
    hash counts, assuming at least half the array stays zero."""
    fp = math.fsum(2.0 ** -k for k in ks)
    mis = tuple(
        math.fsum(2.0 ** -kj for kj in ks[i + 1 :]) for i in range(len(ks))
    )
    return fp, mis


def _as_key(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise TypeError(f"key must be bytes or str, got {type(key).__name__}")


class BloomMap:
    """One bit array plus the recipe for reading and writing it.

    variant is "simple" for the flat layout or the tree scheme name
    ("standard", "fast", "custom").  Tree maps are created empty, filled
    with store(), and frozen; the flat variant is built in one shot by
    build_simple.  Frozen maps never mutate and may be queried from any
    number of threads.

    _paths is the single description of the bits a value's key touches:
    entry i lists value i's (base_start, k, offset, low, keep) segments,
    one per node on its root-to-leaf path, or the one segment
    (start_i, k_i, 0, i, 0) of its flat block.  The key then touches bit
    (base_hash(base_start + j, key) + offset) % m for j = 1..k of every
    segment; the level-order offset keeps sibling subtrees that reuse base
    indices decorrelated.  Every base_hash(j, key) is the j-th double hash
    of one digest of the key (see hashing.py), so storing or looking up a
    key hashes its bytes once however many bits it touches.  low is the
    smallest value whose path holds the segment, so a query that finds a
    zero bit there moves on to value low - 1, whose first keep segments
    are shared with the path just probed and already known set.  Storing,
    both query forms and the size of the hash family all read it.
    """

    def __init__(self, *, variant: str, dist: ValueDistribution, epsilon: float,
                 seed: int, bits: BitArray, tree=None,
                 simple_ks: tuple[int, ...] | None = None, n: int = 0):
        self.variant = variant
        self.dist = dist
        self.epsilon = epsilon
        self.bits = bits
        self.tree = tree
        self.simple_ks = simple_ks
        self.n = n
        if tree is not None:
            segments = [(node.base_start, node.k, node.offset) for node in tree.nodes]
            paths = [[segments[w] for w in tree.path_ids(i)] for i in range(tree.b)]
        else:
            starts = accumulate(simple_ks, initial=0)
            paths = [[(start, k, 0)] for start, k in zip(starts, simple_ks)]
        # value i shares its first keep segments with value i - 1 (distinct
        # paths part before either ends); the rest are first held by i
        extended, prior, size = [], (), 0
        for i, path in enumerate(paths):
            keep = 0
            while keep < len(prior) and prior[keep][:3] == path[keep]:
                keep += 1
            size = max(size, max((start + k for start, k, _ in path[keep:]), default=0))
            prior = prior[:keep] + tuple((*seg, i, keep) for seg in path[keep:])
            extended.append(prior)
        self._paths = tuple(extended)
        self.family = HashFamily(seed, bits.m, size)
        self._pending: dict[bytes, int] | None = None if bits.frozen else {}
        # query_many's tables, built on its first call; a race builds them twice
        self._walk = None

    # -- shared geometry ----------------------------------------------

    @property
    def m(self) -> int:
        return self.bits.m

    @property
    def b(self) -> int:
        return self.dist.b

    @property
    def frozen(self) -> bool:
        return self.bits.frozen

    def bits_per_key(self) -> float:
        if self.n == 0:
            raise ValueError("no keys stored")
        return self.m / self.n

    def describe(self) -> dict:
        """The map as one plain record: geometry, hash counts, zero
        fraction and certified error bounds.  bits_per_key is None while
        no key is stored."""
        if self.tree is not None:
            fp, mis = codetree.analytic_error_bounds(self.tree)
            counts = {
                "leaf_depths": self.tree.leaf_depths(),
                "leaf_hash_counts": tuple(self.tree.nodes[i].k for i in self.tree.leaves),
            }
        else:
            fp, mis = simple_analytic_bounds(self.simple_ks)
            counts = {"hash_counts": self.simple_ks}
        return {
            "variant": self.variant,
            "n": self.n,
            "b": self.b,
            "m": self.m,
            "epsilon": self.epsilon,
            "master_seed": self.family.master_seed,
            "hash_functions": self.family.k,
            "zero_fraction": self.bits.zero_fraction(),
            "bits_per_key": self.bits_per_key() if self.n else None,
            "values": self.dist.labels,
            **counts,
            "false_positive_bound": fp,
            "max_misassignment_bound": max(mis, default=0.0),
        }

    # -- writing ------------------------------------------------------

    def _note_pair(self, key: bytes, value_index: int) -> bool:
        """Record the pair, returning False for an idempotent repeat."""
        if self._pending is None:
            raise FrozenError("map is frozen")
        if not 0 <= value_index < self.b:
            raise ValueError(f"value index {value_index} outside 0..{self.b - 1}")
        prior = self._pending.get(key)
        if prior is None:
            self._pending[key] = value_index
            return True
        if prior != value_index:
            raise DuplicateKey(
                f"key {key!r} already stored with value index {prior}, not {value_index}"
            )
        return False

    def store(self, key, value_index: int) -> None:
        """Set the bits for one (key, value) pair along the value's path."""
        if self.tree is None:
            raise ValueError("store() applies to tree maps; use build_simple for the flat variant")
        key = _as_key(key)
        if not self._note_pair(key, value_index):
            return
        m = self.m
        for start, k, offset, _, _ in self._paths[value_index]:
            for j in range(start + 1, start + k + 1):
                self.bits.set_bit((self.family.base_hash(j, key) + offset) % m)

    def _store_batch(self, pairs_by_value: dict[int, list[bytes]]) -> None:
        """Vectorized bulk store; bit-identical to repeated store() calls."""
        chunks: list[np.ndarray] = []
        m = np.uint64(self.m)
        for value_index, keys in pairs_by_value.items():
            by_len: dict[int, list[bytes]] = defaultdict(list)
            for key in keys:
                if self._note_pair(key, value_index):
                    by_len[len(key)].append(key)
            for bucket in by_len.values():
                h1, h2 = self.family.digest_batch(*pack_keys(bucket))
                for start, k, offset, _, _ in self._paths[value_index]:
                    for j in range(start + 1, start + k + 1):
                        pos = self.family.base_hash_batch(j, h1, h2)
                        chunks.append((pos + np.uint64(offset)) % m if offset else pos)
        if chunks:
            self.bits.set_many(np.concatenate(chunks))

    def freeze(self) -> None:
        """Stop accepting writes; records the stored key count."""
        if self._pending is not None:
            self.n = len(self._pending)
            self._pending = None
        self.bits.freeze()

    # -- reading ------------------------------------------------------

    def query(self, key) -> QueryOutcome:
        """Look up a key.  Never reports absence for a stored key.

        Walks _paths from value b - 1 down to the first whole path that is
        set, caching base hashes by index so subtrees sharing them reuse them.
        """
        if not self.bits.frozen:
            raise ValueError("freeze the map before querying")
        key = _as_key(key)
        get_bit = self.bits.get_bit
        base_hash = self.family.base_hash
        m = self.m
        paths = self._paths
        cache = [None] * (self.family.k + 1)
        probes = 0
        value, skip = len(paths) - 1, 0
        while value >= 0:
            for start, k, offset, low, keep in paths[value][skip:]:
                for j in range(start + 1, start + k + 1):
                    h = cache[j]
                    if h is None:
                        h = cache[j] = base_hash(j, key)
                    if not get_bit((h + offset) % m):
                        break
                else:
                    probes += k
                    continue
                probes += j - start  # the zero bit was probe j - start
                value, skip = low - 1, keep
                break
            else:
                break  # the whole path is set
        # each evaluated index fills one cache slot; slot 0 is never used
        evals = len(cache) - cache.count(None)
        found = value if value >= 0 else None
        label = None if found is None else self.dist.labels[found]
        return QueryOutcome(value_index=found, value=label, probes=probes, hash_evals=evals)

    def query_many(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Look up a batch of keys: (value_index, probes) as two int64
        arrays, -1 marking a key reported absent.

        Runs query's walk for every key at once, one probe per key a step.
        A key's value is always the largest one under its current segment,
        so a set segment hands on to the next segment of that value's path
        and a zero bit to the first unprobed segment of value low - 1; a
        key leaves the batch on a set leaf or when no value is left.
        Answers and probe counts equal query's; base hash evaluations are
        not counted.
        """
        if not self.bits.frozen:
            raise ValueError("freeze the map before querying")
        keys = [_as_key(key) for key in keys]
        found = np.full(len(keys), -1, dtype=np.int64)
        probes = np.zeros(len(keys), dtype=np.int64)
        if not keys:
            return found, probes
        if self._walk is None:
            self._walk = _walk_tables(self._paths)
        first, last, offset, low, on_pass, on_fail, root = self._walk
        by_len: dict[int, list[int]] = defaultdict(list)
        for i, key in enumerate(keys):
            by_len[len(key)].append(i)
        h1 = np.empty(len(keys), dtype=np.uint64)
        h2 = np.empty(len(keys), dtype=np.uint64)
        for idx in by_len.values():
            h1[idx], h2[idx] = self.family.digest_batch(*pack_keys([keys[i] for i in idx]))
        # read whatever bit array the map holds now; keep no view of it
        bits = np.frombuffer(self.bits._buf, dtype=np.uint8)
        m = np.uint64(self.m)
        live = np.arange(len(keys))
        row = np.full(len(keys), root)
        j = first[row]
        step = 0
        while live.size:
            step += 1
            pos = self.family.base_hash_batch(j, h1, h2)
            pos += offset[row]
            pos %= m
            miss = ((bits[pos >> 3] >> (pos & 7)) & 1) == 0
            leave = miss | (j == last[row])
            nxt = np.where(leave, np.where(miss, on_fail[row], on_pass[row]), row)
            done = nxt < 0
            if done.any():
                # a set leaf answers its value, a zero bit at value 0 answers -1
                found[live[done]] = low[row[done]] - miss[done]
                probes[live[done]] = step
                kept = ~done
                live, h1, h2 = live[kept], h1[kept], h2[kept]
                j, leave, nxt = j[kept], leave[kept], nxt[kept]
            row = nxt
            j = np.where(leave, first[row], j + 1)
        return found, probes


def _walk_tables(paths) -> tuple:
    """query_many's plan, one row per distinct segment of paths: at most
    2b - 1 rows on a tree and b on the flat layout.

    Row r holds the segment's first and last base index, its offset and
    low; on_pass, the next segment on the path of the largest value that
    holds it (-1 at a leaf, whose value is low); and on_fail, index keep
    of value low - 1's path (-1 when low is 0).  Also returns the row of
    value b - 1's first segment, where every walk starts.
    """
    rows: list[list[int]] = []
    on_path: list[int] = []  # rows along the previous value's path
    for i, path in enumerate(paths):
        keep = path[-1][4]  # every segment value i adds shares its keep
        fail = on_path[keep] if i else -1
        del on_path[keep:]
        for start, k, offset, _, _ in path[keep:]:
            if on_path:  # a later child holds larger values
                rows[on_path[-1]][4] = len(rows)
            on_path.append(len(rows))
            rows.append([start + 1, start + k, offset, i, -1, fail])
    first, last, offset, low, on_pass, on_fail = np.array(rows, dtype=np.int64).T.copy()
    return first, last, offset.astype(np.uint64), low, on_pass, on_fail, on_path[0]


# -- builders ---------------------------------------------------------


def _index_pairs(pairs, dist: ValueDistribution) -> dict[int, list[bytes]]:
    if not pairs:
        raise ValueError("no pairs to store")
    grouped: dict[int, list[bytes]] = defaultdict(list)
    for key, label in pairs:
        grouped[dist.index_of(label)].append(_as_key(key))
    return grouped


def build_simple(pairs, dist: ValueDistribution, epsilon: float, seed: int) -> BloomMap:
    """Build a flat-variant map in one shot from (key, value label) pairs.

    Sizing follows m = ceil(n * log2(e) * (log2(1/eps) + H)) with H the
    distribution entropy, which keeps roughly half the array zero.
    """
    _check_epsilon(epsilon)
    grouped = _index_pairs(pairs, dist)
    n = len({k for keys in grouped.values() for k in keys})
    ks = simple_hash_counts(dist, epsilon)
    m = math.ceil(n * LOG2E * (math.log2(1.0 / epsilon) + entropy(dist)))
    bmap = BloomMap(
        variant="simple", dist=dist, epsilon=epsilon, seed=seed,
        bits=BitArray(m), simple_ks=ks,
    )
    bmap._store_batch(grouped)
    bmap.freeze()
    return bmap


def plan_tree_map(dist: ValueDistribution, epsilon: float, seed: int,
                  scheme: str = "standard", *, n: int | None = None,
                  counts=None, custom=None) -> BloomMap:
    """Create an empty, unfrozen tree map sized for the given key counts.

    Pass either n (apportioned across values by the distribution) or an
    explicit per-value counts tuple.  The code tree comes from
    codetree.plan_tree, as it does on load; the caller then store()s pairs
    and freeze()s the map.
    """
    from .distribution import integer_counts

    _check_epsilon(epsilon)
    if (n is None) == (counts is None):
        raise ValueError("pass exactly one of n or counts")
    if counts is None:
        counts = integer_counts(dist, n)
    tree = codetree.plan_tree(dist, epsilon, scheme, custom=custom)
    geom = codetree.compute_geometry(tree, counts, epsilon)
    return BloomMap(
        variant=scheme, dist=dist, epsilon=epsilon, seed=seed,
        bits=BitArray(geom.m), tree=tree,
    )


def build_tree(pairs, dist: ValueDistribution, epsilon: float, seed: int,
               scheme: str = "standard", *, custom=None) -> BloomMap:
    """Build and freeze a tree map from (key, value label) pairs, sized by
    the actual per-value key tallies."""
    grouped = _index_pairs(pairs, dist)
    counts = tuple(len(set(grouped.get(i, ()))) for i in range(dist.b))
    bmap = plan_tree_map(dist, epsilon, seed, scheme, counts=counts, custom=custom)
    bmap._store_batch(grouped)
    bmap.freeze()
    return bmap


def zero_fraction(bmap: BloomMap) -> float:
    """Fraction of the map's bits still zero.  A well-sized map sits near
    one half; drifting low means the array is overloaded."""
    return bmap.bits.zero_fraction()
