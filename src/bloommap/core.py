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
BloomMap.query, for one key, which steps through the plan rows
themselves, and a batch form, BloomMap.query_many, one probe per key a
step, with the same answers and probe counts; the batch form and the
writer step through one probe table compiled from the plan for m.  In
the batch form a walk's end leads to one of b + 1 sink entries, absent
or one per answer, whose links both lead back to the sink, so a
finished key steps in place and adds no probe; the batch arrays shed
their finished keys only once at most half of them still walk.  A step
then costs 26 numpy calls, not the 37 of a step that drops keys at once,
and most steps drop none: perfbench's batch_lookups_per_s rose 19%, 19%
and 35% on its skewed-1m, uniform64 and varkeys workloads (medians of
10 seed pairs on a 2-core VM).

A map's bits depend only on the pairs it holds, so one writer sets them,
fed (h1, h2, value index) arrays a chunk of keys at a time.  store()
records pairs in a dict and freeze() digests them a chunk at a time; the
batch builders hold no per-key dict: they read the pairs CHUNK at a time,
digest each chunk once, to h1 alone, and dedupe by sorting the 64-bit h1
digests, comparing key bytes only where digests are equal.  A map plans
itself through plan.plan_rows, whether built (before a pair is read),
planned by plan_tree_map or loaded, and one step, BloomMap._size_for, sizes both
layouts by one rule, m = ceil(log2(e) * sum_i count_i * t_i), from the
counts plan_tree_map is given, a builder's tallies or, at freeze(), those
of the pairs written.

Only the batch code imports numpy, on its first call, and only
BloomMap.tree imports codetree: loading a map, a scalar query and
describe() run on plan.py and the standard library alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import plan
from .distribution import ValueDistribution, integer_counts
from .errors import DuplicateKey, FrozenError, InvalidScheme
from .hashing import HashFamily, step_of

if TYPE_CHECKING:
    import numpy as np

    from .codetree import CodeTree

__all__ = [
    "BitArray",
    "BloomMap",
    "QueryOutcome",
    "build_simple",
    "build_tree",
    "plan_tree_map",
    "simple_analytic_bounds",
    "zero_fraction",
]

CHUNK = 4096  # pairs read, digested and written per step of a build
VARIANTS = ("simple", "standard", "fast", "custom")  # the flat layout, then the tree schemes


class BitArray:
    """m bits packed 8 per byte, bit j at byte j >> 3, weight 1 << (j & 7).

    Bits only ever flip 0 to 1, and only before freeze().  After freeze
    the array is read-only and safe to share between query threads.
    """

    __slots__ = ("m", "_buf", "_frozen", "_ones")

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
        self._ones: int | None = None  # counted once the array is frozen

    @classmethod
    def _frozen_over(cls, m: int, buf: bytearray) -> BitArray:
        """A frozen array stored in buf itself, uncopied: buf holds exactly
        its (m + 7) // 8 bytes and its owner hands it over.  load builds
        its bit array so, copying the file's bytes only once."""
        bits = cls.__new__(cls)
        bits.m, bits._buf, bits._frozen, bits._ones = m, buf, True, None
        return bits

    def get_bit(self, i: int) -> int:
        return (self._buf[i >> 3] >> (i & 7)) & 1

    def set_bit(self, i: int) -> None:
        if self._frozen:
            raise FrozenError("bit array is frozen")
        self._buf[i >> 3] |= 1 << (i & 7)

    def set_many(self, positions) -> None:
        """Set a batch of positions (any iterable or uint64 array).

        A fancy-index OR keeps only one of the writes to a byte that
        several positions share, so the positions whose bit did not land
        are OR-ed again until none is left; each round lands at least one
        per byte.  Once checked, every position is below m < 2^63, so the
        loop indexes through an int64 view of them: numpy converts a
        uint64 index on every gather and scatter, so 4,096 positions into
        15.5 Mbit took 70 us by uint64 index and 44 us by int64.
        np.bitwise_or.at took 81-84 us by either (numpy 2.4.6, best of
        7 x 200 calls).
        """
        if self._frozen:
            raise FrozenError("bit array is frozen")
        import numpy as np

        pos = np.asarray(positions, dtype=np.uint64)
        if pos.size and int(pos.max()) >= self.m:
            raise IndexError(f"bit position {int(pos.max())} outside 0..{self.m - 1}")
        pos = pos.view(np.int64)
        view = np.frombuffer(self._buf, dtype=np.uint8)
        byte, bit = pos >> 3, np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))
        while byte.size:
            view[byte] |= bit
            lost = (view[byte] & bit) == 0
            byte, bit = byte[lost], bit[lost]

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def ones(self) -> int:
        count = self._ones
        if count is None:
            count = int.from_bytes(self._buf, "little").bit_count()
            self._ones = count if self._frozen else None
        return count

    def zero_fraction(self) -> float:
        """Fraction of the m bits still zero."""
        return (self.m - self.ones()) / self.m

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


@dataclass(frozen=True, init=False)
class QueryOutcome:
    """Result of one lookup.

    value / value_index are None when the key is reported absent.  probes
    counts individual bit reads; hash_evals counts base hash evaluations,
    which can be lower because a query reuses base hashes across subtrees
    that share base indices.

    Every scalar query makes one, so __init__ writes the four fields into
    the instance dict directly: the generated frozen __init__ makes four
    object.__setattr__ calls, which double the cost of a record.
    Equality, hash, repr and the frozen error are the dataclass's own.
    """

    value_index: int | None
    value: bytes | None
    probes: int
    hash_evals: int

    def __init__(self, value_index: int | None, value: bytes | None, probes: int,
                 hash_evals: int):
        fields = self.__dict__
        fields["value_index"] = value_index
        fields["value"] = value
        fields["probes"] = probes
        fields["hash_evals"] = hash_evals

    @property
    def is_bottom(self) -> bool:
        return self.value_index is None


def simple_analytic_bounds(ks) -> tuple[float, tuple[float, ...]]:
    """(false positive bound, per-value misassignment bounds) of flat hash counts."""
    return plan.plan_bounds(plan._slice_rows(plan._shape_rows([0] * len(ks)), ks))[:2]


def _as_key(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise TypeError(f"key must be bytes or str, got {type(key).__name__}")


def _as_keys(keys):
    """A sequence of keys as bytes: itself when every key already is."""
    if set(map(type, keys)) <= {bytes}:
        return keys
    return [_as_key(key) for key in keys]


class BloomMap:
    """One bit array plus the recipe for reading and writing it.

    variant is one of VARIANTS: "simple" for the flat layout or a tree
    scheme, of which only "custom" takes per-node counts, as custom.  The
    map plans itself from it, its distribution and epsilon, raising
    InvalidScheme for an unknown variant, misplaced custom counts or
    counts that do not certify.  plan_tree_map creates an empty map of
    either layout; store() records pairs and freeze() writes them all and
    stops accepting writes.  Frozen maps never mutate and may be queried
    from any number of threads.

    _plan, O(b) rows (first, last, offset, low, on_pass, on_fail, up),
    one per tree node in preorder or per flat block, is the single
    description of the bits a key touches.  A key whose value's path holds
    a row touches bit (base_hash(j, key) + offset) % m for j = first..last;
    the level-order offset decorrelates sibling subtrees that reuse base
    indices, and every base_hash is a double hash of one digest of the key
    (hashing.py).  low is the smallest value under the row and up its
    parent (-1 at the top), so value i's path climbs from its leaf row.  A
    walk that finds the row set moves to on_pass, the right child (-1 at a
    leaf, which answers low); a zero bit moves it to on_fail, where value
    low - 1's path leaves the rows known set (-1 when low is 0).  Sizing,
    the bounds, the file digest and query read it; writing and query_many
    step through its probe table, compiled by _compile for the map's m on
    first use.
    plan.plan_rows plans both layouts; simple_ks reads a flat map's
    counts off the rows, and tree is a CodeTree view of a tree map's,
    built on first use (each is None on the other layout).
    """

    def __init__(self, *, variant: str, dist: ValueDistribution, epsilon: float,
                 seed: int, bits: BitArray, n: int = 0, custom=None):
        if variant not in VARIANTS:
            raise InvalidScheme(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if custom is not None and variant != "custom":
            raise InvalidScheme(f"custom hash counts given to variant {variant!r}")
        self.variant = variant
        self.dist = dist
        self.epsilon = epsilon
        self.bits = bits
        self.n = n
        self._plan = rows = plan.plan_rows(dist, epsilon, variant, custom)[0]
        self._top = max(r for r, row in enumerate(rows) if row[6] < 0)  # query's first row
        self._probes: SimpleNamespace | None = None  # compiled from _plan for m on first use
        self.family = HashFamily(seed, bits.m, max(row[1] for row in rows))
        self._pending: dict[bytes, int] | None = None if bits.frozen else {}

    @property
    def simple_ks(self) -> tuple[int, ...] | None:
        """A flat map's hash counts, read off its rows; None on a tree."""
        if self.variant != "simple":
            return None
        return tuple(last - first + 1 for first, last, *_ in self._plan)

    @cached_property
    def tree(self) -> CodeTree | None:
        """The code tree of a tree map's plan, built on first use; None on
        the flat layout.  Nothing else in a map reads it, so codetree is
        imported only here."""
        if self.variant == "simple":
            return None
        from .codetree import tree_from_rows

        return tree_from_rows(self._plan)

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
        """The map as one plain record: geometry, hash counts, each value's
        path weight, zero fraction and certified error bounds.
        bits_per_key is None while no key is stored."""
        rows = self._plan
        fp, mis, t = plan.plan_bounds(rows)
        if self.variant != "simple":
            depth = plan.row_depths(rows)
            leaves = [r for r, row in enumerate(rows) if row[4] < 0]
            counts = {
                "leaf_depths": tuple(depth[r] for r in leaves),
                "leaf_hash_counts": tuple(rows[r][1] - rows[r][0] + 1 for r in leaves),
            }
        else:
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
            "path_weights": t,
            "false_positive_bound": fp,
            "max_misassignment_bound": max(mis, default=0.0),
        }

    # -- writing ------------------------------------------------------

    def store(self, key, value_index: int) -> None:
        """Record one (key, value) pair; freeze() sets its bits.

        value_index is an int or any integer type operator.index takes,
        such as a numpy int or a bool; a float raises TypeError.  Storing a
        pair again is a no-op; storing its key with another value raises
        DuplicateKey.
        """
        if type(key) is not bytes:
            key = _as_key(key)
        pending = self._pending
        if pending is None:
            raise FrozenError("map is frozen")
        value_index = operator.index(value_index)  # a float is refused, not truncated
        b = len(self.dist.probs)
        if not 0 <= value_index < b:
            raise ValueError(f"value index {value_index} outside 0..{b - 1}")
        prior = pending.setdefault(key, value_index)
        if prior != value_index:
            raise _conflict(key, prior, value_index)

    def freeze(self) -> None:
        """Write every recorded pair and stop accepting writes; records the
        stored key count.  A map with pairs recorded is sized again from
        their tallies, as the batch builders size theirs; one with none
        keeps the m it was planned with."""
        pending = self._pending
        if pending:
            import numpy as np

            tallies = np.zeros(self.b, dtype=np.int64)
            values = iter(pending.values())
            for _ in range(0, len(pending), CHUNK):
                tallies += np.bincount(np.fromiter(islice(values, CHUNK), np.int64), minlength=self.b)
            self._size_for(tallies.tolist())
            keys, values = iter(pending), iter(pending.values())
            while part := list(islice(keys, CHUNK)):
                self._write(*self.family.digest_batch(part),
                            np.fromiter(islice(values, len(part)), np.int64, len(part)))
            self.n = len(pending)
        self._pending = None
        self.bits.freeze()

    def _size_for(self, tallies) -> None:
        """Give the map an empty bit array, and its hash family the same m,
        sized by plan.size_bit_array for per-value key tallies and the
        plan's path weights: the one sizing step of every build path."""
        m = plan.size_bit_array(tallies, plan.plan_bounds(self._plan)[2])
        self.bits = BitArray(m)
        self.family = HashFamily(self.family.master_seed, m, self.family.k)
        self._probes = None  # its offsets were reduced mod the old m

    def _table(self) -> SimpleNamespace:
        """The probe table for the map's m, compiled on first use, as a load
        and query need none; racing threads compile it twice."""
        table = self._probes
        if table is None:
            table = self._probes = _compile(self._plan, self.m)
        return table

    def _write(self, h1: np.ndarray, h2: np.ndarray, values: np.ndarray) -> None:
        """Set the bits of one chunk of keys, given their digests and value
        indices (int64 from freeze(), the tally's narrow unsigned column
        from the builders): each key climbs the probe table from its
        value's leaf entry, one probe a step, as query_many walks down; a
        step's positions are OR-ed into the array and dropped, so no more
        than one chunk's are ever held.
        A step calls base_hash_batch and set_many, checks and all: a write
        that inlined them gained only 4-6%, and it would hide the hashing
        and setting-bits stages from perfbench's per-layer trace.
        """
        import numpy as np

        table = self._table()
        m = np.uint64(self.m)
        d = table.leaf[values]
        while d.size:
            pos = self.family.base_hash_batch(table.j[d], h1, h2)
            pos += table.offset[d]
            self.bits.set_many(np.minimum(pos, pos - m))  # (h + offset) % m, both below m
            d = table.up[d]
            kept = d >= 0  # a key past the top of its path is dropped
            if not kept.all():
                d, h1, h2 = d[kept], h1[kept], h2[kept]

    # -- reading ------------------------------------------------------

    def query(self, key) -> QueryOutcome:
        """Look up a key.  Never reports absence for a stored key.

        Walks the plan rows from the last root, one bit read a probe,
        caching base hashes by index so subtrees sharing them reuse them.
        A row reads bit (h + offset) % m for h = base_hash(j, key), j from
        first to last; a zero bit moves to on_fail (-1: absent), a passed
        row to on_pass, and a passed leaf answers low.
        """
        bits = self.bits
        if not bits._frozen:
            raise ValueError("freeze the map before querying")
        if type(key) is not bytes:
            key = _as_key(key)
        get_bit, base_hash, m, rows = bits.get_bit, self.family.base_hash, bits.m, self._plan
        cache = [None] * (self.family.k + 1)
        probes = evals = 0
        r, found = self._top, None
        while r >= 0:
            j, last, offset, low, r, on_fail, _ = rows[r]  # r: on_pass unless a bit is zero
            while j <= last:
                h = cache[j]
                if h is None:
                    h = cache[j] = base_hash(j, key)
                    evals += 1
                probes += 1
                if not get_bit((h + offset) % m):
                    r = on_fail
                    break
                j += 1
            else:
                if r < 0:  # a leaf passed
                    found = low
        label = None if found is None else self.dist.labels[found]
        return QueryOutcome(found, label, probes, evals)

    def query_many(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Look up a batch of keys: (value_index, probes) as two int64
        arrays, -1 marking a key reported absent.

        Runs query's walk for every key at once, one probe per key a step:
        each step gathers the keys' table entries, reads their bits and
        takes the next entries with one gather from nxt.  A key that
        reaches a terminal moves to its sink, where it steps in place and
        stops counting probes, so no step need drop it; the arrays shed
        their finished keys only once at most half of them still walk.
        Answers and probe counts equal query's; base hash evaluations are
        not counted.
        """
        if not self.bits.frozen:
            raise ValueError("freeze the map before querying")
        import numpy as np

        keys = _as_keys(list(keys))
        found = np.empty(len(keys), dtype=np.int64)
        probes = np.empty(len(keys), dtype=np.int64)
        table = self._table()
        j, offset, nxt, sink = table.j, table.offset, table.nxt, table.sink
        h1, h2 = self.family.digest_batch(keys)
        # read whatever bit array the map holds now; keep no view of it
        bits = np.frombuffer(self.bits._buf, dtype=np.uint8)
        weight = np.array([1 << s for s in range(8)], dtype=np.uint8)  # of bit p: weight[p & 7]
        m = np.uint64(self.m)
        hash_at = self.family._hash_at  # the table's j lie in 1..k by construction
        live = np.arange(len(keys))  # the batch position of each key still held
        d = np.full(len(keys), table.top)
        p = np.zeros(len(keys), dtype=np.int64)
        while True:
            walking = d < sink
            count = np.count_nonzero(walking)
            if 2 * count <= d.size:
                # record every held key, a walking one to be written again
                # when it finishes, and keep the walking ones
                found[live] = d - (sink + 1)
                probes[live] = p
                if not count:
                    return found, probes
                kept = np.flatnonzero(walking)
                live, h1, h2, d, p = live[kept], h1[kept], h2[kept], d[kept], p[kept]
                p += 1
            else:
                p += walking
            pos = hash_at(j[d], h1, h2)
            pos += offset[d]
            # (h + offset) % m, both below m; numpy gathers by int64 faster
            pos = np.minimum(pos, pos - m).view(np.int64)
            d = nxt[2 * d + ((bits[pos >> 3] & weight[pos & 7]) != 0)]


def _compile(rows, m: int) -> SimpleNamespace:
    """The probe table of a plan for one m, one entry per probe (row, hash
    index j) in plan order, as numpy columns made from the rows with
    np.repeat.  Entry d reads bit (base_hash(j[d], key) + offset[d]) % m,
    offset[d] being its row's offset % m; a walk reads nxt[2 d + bit] next,
    and a write up[d].  Within a row both are d + 1; at a row's end, the
    first entry of on_pass, on_fail or up (-1 above a root).  Walks start
    at top, the plan's last root, and value i's writes at leaf[i].  Past
    the entries j, offset and nxt hold b + 1 sinks, entry sink + 1 + i
    answering value i and entry sink itself absent: a walk's end links to
    its sink, and both links of a sink lead back to it, so a finished key
    can step on in place.
    """
    import numpy as np

    fields = chain.from_iterable(rows)
    rows = np.fromiter(fields, dtype=np.int64, count=7 * len(rows)).reshape(-1, 7)
    first, last, offset, low, on_pass, on_fail, up = rows.T
    k = last - first + 1
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(k, out=starts[1:])
    sink, ends, leaf = int(starts[-1]), starts[1:] - 1, starts[:-1][on_pass < 0]

    def link(targets, none):  # the first entry of each target row, or none at -1
        return np.where(targets >= 0, starts[targets], none)

    size = sink + len(leaf) + 1
    js = np.ones(size, dtype=np.uint64)  # a sink reads j = 1
    js[:sink] = np.repeat(first - starts[:-1], k) + np.arange(sink)
    offsets = np.zeros(size, dtype=np.uint64)
    offsets[:sink] = np.repeat(offset % m, k)
    on_set = np.arange(1, sink + 1)
    on_set[ends] = link(on_pass, sink + 1 + low)
    nxt = np.repeat(np.arange(size), 2)  # each sink links to itself
    nxt[0 : 2 * sink : 2] = np.repeat(link(on_fail, sink), k)
    nxt[1 : 2 * sink : 2] = on_set
    ups = np.arange(1, sink + 1)
    ups[ends] = link(up, -1)
    return SimpleNamespace(j=js, offset=offsets, nxt=nxt, up=ups, leaf=leaf,
                           top=int(starts[:-1][up < 0][-1]), sink=sink)


# -- builders ---------------------------------------------------------


def _conflict(key: bytes, prior: int, value_index: int) -> DuplicateKey:
    return DuplicateKey(f"key {key!r} already stored with value index {prior}, not {value_index}")


def _tally(pairs, dist: ValueDistribution, seed: int):
    """Read (key, value label) pairs CHUNK at a time and return the h1
    digest and value index of each distinct pair, as two arrays, with
    each value's count of keys.

    Value indices are held in the narrowest unsigned dtype that fits
    0..b - 1, one byte a key for b <= 256 rather than eight: a build
    from a list of 10^5 or 10^6 pairs peaks near 26 B/key under
    tracemalloc, not 33, mostly the key list, the uint64 digests and
    _repeats' sorted copy of them.  Repeats are found by
    sorting the digests, and key bytes are compared only among keys
    whose h1 another key shares: a repeated pair is dropped, a key
    repeated with another value raises DuplicateKey, and distinct keys
    with equal digests are both kept.
    """
    import numpy as np

    digest = HashFamily(seed, 1, 0)._h1_batch  # a digest reads only the seed
    value_type = np.min_scalar_type(dist.b - 1)
    pairs = iter(pairs)
    keys: list[bytes] = []
    h1s, indices = [], []
    while chunk := list(islice(pairs, CHUNK)):
        chunk_keys = _as_keys([key for key, _ in chunk])
        indices.append(dist.indices_of([label for _, label in chunk]).astype(value_type))
        h1s.append(digest(chunk_keys))
        keys += chunk_keys
    if not keys:
        raise ValueError("no pairs to store")
    # join the chunks one array at a time, each chunk list freed at once
    h1 = np.concatenate(h1s)
    del h1s
    values = np.concatenate(indices)
    del indices
    repeats = _repeats(keys, h1, values)
    if repeats:
        kept = np.ones(len(keys), dtype=bool)
        kept[repeats] = False
        h1, values = h1[kept], values[kept]
    return h1, values, tuple(np.bincount(values, minlength=dist.b).tolist())


def _repeats(keys, h1: np.ndarray, values: np.ndarray) -> list[int]:
    """Positions of the pairs that repeat an earlier pair; raises
    DuplicateKey, in input order, at a key repeated with another value."""
    import numpy as np

    ordered = np.sort(h1)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return []
    at = np.searchsorted(shared, h1)
    np.minimum(at, shared.size - 1, out=at)  # a digest above all shared ones
    seen: dict[bytes, int] = {}
    repeats = []
    for pos in np.flatnonzero(shared[at] == h1).tolist():
        key, i = keys[pos], int(values[pos])
        prior = seen.get(key)
        if prior is None:
            seen[key] = i
        elif prior != i:
            raise _conflict(key, prior, i)
        else:
            repeats.append(pos)
    return repeats


def build_simple(pairs, dist: ValueDistribution, epsilon: float, seed: int) -> BloomMap:
    """Build and freeze a flat-layout map from (key, value label) pairs,
    sized by the actual per-value key tallies."""
    return build_tree(pairs, dist, epsilon, seed, "simple")


def plan_tree_map(dist: ValueDistribution, epsilon: float, seed: int,
                  scheme: str = "standard", *, n: int | None = None,
                  counts=None, custom=None) -> BloomMap:
    """Create an empty, unfrozen map sized for the given key counts.

    scheme is "simple" for the flat layout or a tree scheme name.  Pass
    either n (apportioned across values by the distribution) or an
    explicit per-value counts tuple.  The map plans itself, as it does on
    load, and is sized by BloomMap._size_for.  The caller then store()s
    pairs and freeze()s the map, which sizes it again from the tallies of
    the pairs stored.
    """
    if (n is None) == (counts is None):
        raise ValueError("pass exactly one of n or counts")
    bmap = BloomMap(variant=scheme, dist=dist, epsilon=epsilon, seed=seed,
                    bits=BitArray(1), custom=custom)  # sized for the counts below
    bmap._size_for(integer_counts(dist, n) if counts is None else counts)
    return bmap


def build_tree(pairs, dist: ValueDistribution, epsilon: float, seed: int,
               scheme: str = "standard", *, custom=None) -> BloomMap:
    """Build and freeze a map from (key, value label) pairs: plan it, so a
    bad scheme, epsilon or custom raises before a pair is read, then tally
    and dedupe the pairs, size the map by the tallies and write them a
    chunk at a time.  scheme is a tree scheme, or "simple" (build_simple)."""
    bmap = BloomMap(variant=scheme, dist=dist, epsilon=epsilon, seed=seed,
                    bits=BitArray(1), custom=custom)  # sized for the tallies below
    h1, values, counts = _tally(pairs, dist, seed)
    bmap._size_for(counts)
    bmap._pending = None  # the pairs are written here, not recorded
    for lo in range(0, len(h1), CHUNK):
        part = h1[lo : lo + CHUNK]
        bmap._write(part, step_of(part), values[lo : lo + CHUNK])
    bmap.n = len(h1)
    bmap.freeze()
    return bmap


def zero_fraction(bmap: BloomMap) -> float:
    """Fraction of the map's bits still zero.  A well-sized map sits near
    one half; drifting low means the array is overloaded."""
    return bmap.bits.zero_fraction()
