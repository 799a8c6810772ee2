"""The benchmark's workloads: inputs made from a seed, and each build path.

Every input is generated here from the seed alone: keys, the apportionment
of value labels, the stored and absent lookup samples and the key-length
draw.  Nothing is taken from the library's own workload generator, so a
change to the library cannot change what a workload feeds it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

EPSILON = 2.0 ** -7
SAMPLE = 2000          # stored keys and absent keys in the lookup samples
_PRINTABLE = (33, 127)  # key bytes are printable ASCII, so any key fits a CLI argument

SKEWED = ((b"a", 0.5), (b"b", 0.25), (b"c", 0.125), (b"d", 0.125))
UNIFORM64 = tuple((b"v%02d" % i, 1.0 / 64) for i in range(64))


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    values: tuple[tuple[bytes, float], ...]
    key_lengths: tuple[int, int]  # inclusive range, drawn uniformly
    build: str                    # "standard", "fast-incremental" or "simple"
    build_reps: int               # timed builds per run; the median is reported
    why: str

    @property
    def build_kernel(self) -> str:
        """The pace kernel that gauges this build path (see pace.py)."""
        return "lookup" if self.build == "fast-incremental" else "stream"


SPECS = {
    spec.name: spec
    for spec in (
        Spec("skewed-1m-standard", 1_000_000, SKEWED, (16, 16), "standard", 2,
             "large batch build and a 1.9 MB file: dedup, set_many scratch and "
             "checksum dominate; shallow lookups on a bit array the size of L2"),
        Spec("uniform64-100k-fast-incremental", 100_000, UNIFORM64, (16, 16),
             "fast-incremental", 1,
             "per-key store() and deep 6-level lookups with b = 64: scalar hashing, "
             "traversal and index_of dominate; the batch write path is unused"),
        Spec("skewed-100k-simple-varkeys", 100_000, SKEWED, (8, 64), "simple", 9,
             "the flat layout with 8-64 byte keys: many small per-length batches, "
             "long-key hashing, and the _query_simple lookup path"),
    )
}


@dataclass
class Inputs:
    spec: Spec
    dist: object                      # bloommap ValueDistribution
    pairs: list[tuple[bytes, bytes]]  # (key, value label), keys distinct
    counts: tuple[int, ...]           # stored keys per value index
    pos_keys: list[bytes]             # stored lookup sample
    pos_truth: list[int]              # true value index of each stored sample key
    neg_keys: list[bytes]             # never-stored lookup sample
    stored: dict                      # every stored key; held so a build cannot reuse its memory

    @property
    def n(self) -> int:
        return len(self.pairs)


def apportion(weights, n: int) -> list[int]:
    """Largest-remainder apportionment of n keys; ties go to the earlier value."""
    total = sum(weights)
    shares = [w * n / total for w in weights]
    counts = [int(s) for s in shares]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - shares[i], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _random_keys(rng, count: int, lengths: tuple[int, int]) -> list[bytes]:
    lo, hi = lengths
    sizes = rng.integers(lo, hi + 1, size=count)
    buf = rng.integers(*_PRINTABLE, size=int(sizes.sum()), dtype=np.uint8).tobytes()
    ends = np.cumsum(sizes).tolist()
    return [buf[end - size : end] for end, size in zip(ends, sizes.tolist())]


def _distinct_keys(rng, count: int, lengths, exclude) -> list[bytes]:
    """count keys, distinct from each other and from every key in exclude."""
    found: dict[bytes, None] = {}
    while len(found) < count:
        for key in _random_keys(rng, count - len(found), lengths):
            if key not in exclude:
                found[key] = None
    return list(found)


def make_inputs(spec: Spec, seed: int, new_distribution) -> Inputs:
    """Generate a workload's inputs; the same seed always gives the same inputs."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    labels = [label for label, _ in spec.values]
    dist = new_distribution([w for _, w in spec.values], labels)
    index = {label: i for i, label in enumerate(dist.labels)}
    per_value = apportion([w for _, w in spec.values], spec.n)
    value_ids = np.repeat([index[label] for label in labels], per_value)
    rng.shuffle(value_ids)
    keys = _distinct_keys(rng, spec.n, spec.key_lengths, ())
    pairs = [(key, dist.labels[v]) for key, v in zip(keys, value_ids.tolist())]
    counts = [0] * dist.b
    for v, c in zip((index[label] for label in labels), per_value):
        counts[v] = c
    pick = rng.choice(spec.n, size=SAMPLE, replace=False).tolist()
    stored = dict.fromkeys(keys)
    return Inputs(
        spec=spec,
        dist=dist,
        pairs=pairs,
        counts=tuple(counts),
        pos_keys=[keys[i] for i in pick],
        pos_truth=[int(value_ids[i]) for i in pick],
        neg_keys=_distinct_keys(rng, SAMPLE, spec.key_lengths, stored),
        stored=stored,
    )


def build(lib, inputs: Inputs, seed: int):
    """Build and freeze the workload's map through its own build path.

    Every library call goes through a module attribute, looked up at call
    time, so the traced run's wrappers see it.
    """
    core = lib.core
    spec = inputs.spec
    if spec.build == "standard":
        return core.build_tree(inputs.pairs, inputs.dist, EPSILON, seed, scheme="standard")
    if spec.build == "simple":
        return core.build_simple(inputs.pairs, inputs.dist, EPSILON, seed)
    if spec.build == "fast-incremental":
        bmap = core.plan_tree_map(inputs.dist, EPSILON, seed, "fast", n=inputs.n)
        store = bmap.store
        index_of = inputs.dist.index_of
        for key, label in inputs.pairs:
            store(key, index_of(label))
        bmap.freeze()
        return bmap
    raise ValueError(f"unknown build path {spec.build!r}")
