"""Synthetic workloads and empirical error measurement.

Everything here is deterministic given its seed: key generation, value
assignment, discard selection, and negative sampling.  Keys are 16-byte
random strings; negatives are drawn from the same universe and resampled
on the (vanishingly rare) collision with a stored key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import core
from .core import BloomMap, build_tree
from .distribution import ValueDistribution, integer_counts

__all__ = [
    "PMapSpec",
    "ErrorReport",
    "generate_pmap",
    "measure",
    "build_with_discard",
    "build_variant",
]

KEY_BYTES = 16
VARIANTS = tuple(v for v in core.VARIANTS if v != "custom")  # those built without custom counts


@dataclass(frozen=True)
class PMapSpec:
    """Recipe for a synthetic key-value workload: n keys distributed over
    the values of dist by largest-remainder apportionment."""

    dist: ValueDistribution
    n: int
    seed: int


def generate_pmap(spec: PMapSpec) -> list[tuple[bytes, bytes]]:
    """Materialize the workload: n distinct 16-byte keys, each labelled so
    that value i receives exactly its apportioned count."""
    if spec.n < 1:
        raise ValueError(f"workload needs at least one key, got n={spec.n}")
    counts = integer_counts(spec.dist, spec.n)
    rnd = random.Random(spec.seed)
    seen: set[bytes] = set()
    keys: list[bytes] = []
    while len(keys) < spec.n:
        key = rnd.randbytes(KEY_BYTES)
        if key in seen:
            continue
        seen.add(key)
        keys.append(key)
    labels = [label for label, count in zip(spec.dist.labels, counts) for _ in range(count)]
    rnd.shuffle(labels)
    return list(zip(keys, labels))


def build_variant(pairs, dist: ValueDistribution, epsilon: float, seed: int,
                  variant: str) -> BloomMap:
    """build_tree under the name the acceptance suite imports."""
    return build_tree(pairs, dist, epsilon, seed, variant)


def build_with_discard(pairs, dist: ValueDistribution, epsilon: float, seed: int,
                       variant: str = "simple",
                       discard_fraction: float | None = None) -> BloomMap:
    """Build a map from pairs, any iterable, held as a list, dropping
    floor(f * count_i) keys of each value before storing: a bounded false
    negative rate for a proportionally smaller bit array.

    The discard fraction f defaults to the map's epsilon.  Dropped keys
    are chosen by the seed, so the build is reproducible; measure() the
    result against the original pairs to see the induced false negatives.
    Labels may be bytes or str: keys are grouped by value index and the
    groups visited in the order of their label bytes.
    """
    pairs = list(pairs)
    if discard_fraction is None:
        discard_fraction = epsilon
    if not (0.0 <= discard_fraction < 1.0):
        raise ValueError(f"discard fraction must lie in [0, 1), got {discard_fraction!r}")
    per_value: dict[int, list[int]] = {}
    for pos, (_, label) in enumerate(pairs):
        per_value.setdefault(dist.index_of(label), []).append(pos)
    rnd = random.Random(seed)
    dropped: set[int] = set()
    for i in sorted(per_value, key=lambda i: dist.labels[i]):
        positions = per_value[i]
        drop = math.floor(discard_fraction * len(positions))
        if drop:
            dropped.update(rnd.sample(positions, drop))
    kept = [pair for pos, pair in enumerate(pairs) if pos not in dropped]
    return build_tree(kept, dist, epsilon, seed, variant)


@dataclass(frozen=True)
class ErrorReport:
    """Measured behaviour of one map against one workload.

    Positive-side rates are per value (misassignment: the map answered,
    but with a different value; false negative: the map answered absent,
    only possible after a discard build).  The negative side aggregates
    fresh never-stored keys.
    """

    false_positive_rate: float
    misassignment_rates: tuple[float, ...]
    false_negative_rates: tuple[float, ...]
    zero_fraction: float
    neg_probe_mean: float
    pos_probe_means: tuple[float, ...]
    pos_counts: tuple[int, ...]
    neg_samples: int


def measure(bmap: BloomMap, pairs, neg_samples: int, seed: int) -> ErrorReport:
    """Query every stored pair plus neg_samples fresh keys and tally rates.

    neg_samples must be at least 1000; below that the rates are mostly
    noise.  Labels may be bytes or str; one that the map's distribution
    lacks raises UnknownValue.  The stored keys and the fresh ones go
    through one BloomMap.query_many batch, stored keys first, which answers
    exactly as query does.
    """
    if neg_samples < 1000:
        raise ValueError(f"need at least 1000 negative samples, got {neg_samples}")
    import numpy as np

    b = bmap.b
    keys = [key for key, _ in pairs]
    truth = bmap.dist.indices_of([label for _, label in pairs])
    stored = set(keys)
    rnd = random.Random(seed)
    absent = []
    while need := neg_samples - len(absent):
        # randbytes fills 32-bit words in order: one draw of need keys gives need draws of one
        block = rnd.randbytes(KEY_BYTES * need)
        draws = (block[i : i + KEY_BYTES] for i in range(0, len(block), KEY_BYTES))
        absent += [key for key in draws if key not in stored]
    (found, neg_found), (probes, neg_probes) = (
        np.split(column, [len(keys)]) for column in bmap.query_many(keys + absent))
    counts = np.bincount(truth, minlength=b).tolist()
    wrong = np.bincount(truth[(found >= 0) & (found != truth)], minlength=b).tolist()
    bottoms = np.bincount(truth[found < 0], minlength=b).tolist()
    # float sums of integer probe counts stay exact below 2**53
    probe_sums = np.bincount(truth, weights=probes, minlength=b).astype(np.int64).tolist()
    return ErrorReport(
        false_positive_rate=int(np.count_nonzero(neg_found >= 0)) / neg_samples,
        misassignment_rates=tuple(
            wrong[i] / counts[i] if counts[i] else 0.0 for i in range(b)
        ),
        false_negative_rates=tuple(
            bottoms[i] / counts[i] if counts[i] else 0.0 for i in range(b)
        ),
        zero_fraction=bmap.bits.zero_fraction(),
        neg_probe_mean=int(neg_probes.sum()) / neg_samples,
        pos_probe_means=tuple(
            probe_sums[i] / counts[i] if counts[i] else 0.0 for i in range(b)
        ),
        pos_counts=tuple(counts),
        neg_samples=neg_samples,
    )
