"""Value distributions.

A map stores pairs (key, value) where the value is drawn from a small
alphabet with known (or estimated) probabilities.  Everything downstream,
bit array sizing, per-value hash counts, tree shape, keys off the sorted
probability vector held by :class:`ValueDistribution`.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import InvalidDistribution, UnknownValue

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ValueDistribution",
    "new_distribution",
    "uniform_distribution",
    "load_distribution",
    "entropy",
    "integer_counts",
]

SUM_TOLERANCE = 1e-9


def _as_label(obj) -> bytes:
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, str):
        return obj.encode("utf-8")
    raise InvalidDistribution(f"label must be bytes or str, got {type(obj).__name__}")


@dataclass(frozen=True)
class ValueDistribution:
    """A sorted probability vector over value labels.

    probs is non-increasing, normal floats above zero (planners take
    log2(1/p), which overflows below them), and sums to 1 within
    SUM_TOLERANCE.  labels are opaque byte strings, unique, co-sorted with
    probs.  Instances are immutable and safe to share between threads.
    """

    probs: tuple[float, ...]
    labels: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise InvalidDistribution("distribution needs at least one value")
        if len(self.probs) != len(self.labels):
            raise InvalidDistribution(
                f"{len(self.probs)} probabilities but {len(self.labels)} labels"
            )
        for p in self.probs:
            if not (p >= sys.float_info.min):
                raise InvalidDistribution(f"probability {p!r} is not a positive normal float")
        for a, b in zip(self.probs, self.probs[1:]):
            if a < b:
                raise InvalidDistribution("probabilities must be non-increasing")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidDistribution("value labels must be unique")

    @property
    def b(self) -> int:
        """Number of distinct values."""
        return len(self.probs)

    def index_of(self, label) -> int:
        """Map a value label to its index in sorted order."""
        if type(label) is bytes:
            i = self._index.get(label)
            if i is not None:
                return i
        want = _as_label(label)
        i = self._index.get(want)
        if i is None:
            raise UnknownValue(f"unknown value label {want!r}")
        return i

    def indices_of(self, labels) -> np.ndarray:
        """index_of over a sequence of labels, as an int64 array.

        Byte labels resolve through one dict lookup each; only the rest
        (str labels, and labels outside the distribution, which raise
        UnknownValue) go through index_of.
        """
        import numpy as np

        out = np.fromiter(map(self._index.get, labels, repeat(-1)), dtype=np.int64,
                          count=len(labels))
        for pos in np.flatnonzero(out < 0).tolist():
            out[pos] = self.index_of(labels[pos])
        return out

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {label: i for i, label in enumerate(self.labels)}


def new_distribution(weights: Sequence[float], labels: Sequence) -> ValueDistribution:
    """Build a distribution from raw nonnegative weights.

    Weights are normalized and co-sorted with their labels into
    non-increasing order; equal weights keep their original relative order.
    Zero-weight entries are dropped (a value that can never occur has no
    place in the map).
    """
    if len(weights) != len(labels):
        raise InvalidDistribution(
            f"{len(weights)} weights but {len(labels)} labels"
        )
    if len(weights) == 0:
        raise InvalidDistribution("need at least one weight")
    blabels = [_as_label(x) for x in labels]
    for w in weights:
        if not math.isfinite(w) or w < 0:
            raise InvalidDistribution(f"weight {w!r} is not a finite nonnegative number")
    total = math.fsum(weights)
    if total <= 0:
        raise InvalidDistribution("at least one weight must be positive")
    kept = [(w / total, i) for i, w in enumerate(weights) if w > 0]
    kept.sort(key=lambda t: -t[0])  # stable: ties keep original position order
    return ValueDistribution(
        probs=tuple(p for p, _ in kept),
        labels=tuple(blabels[i] for _, i in kept),
    )


def uniform_distribution(b: int, prefix: str = "v") -> ValueDistribution:
    """Equal-probability distribution over b values labelled v0..v{b-1}."""
    if b < 1:
        raise InvalidDistribution("need at least one value")
    return new_distribution([1.0] * b, [f"{prefix}{i}" for i in range(b)])


def load_distribution(source) -> ValueDistribution:
    """Parse a distribution from tab-separated "label<TAB>weight" lines.

    source may be a path or an open text stream.  Blank lines are skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_distribution(fh)
    if not isinstance(source, io.TextIOBase) and not hasattr(source, "readlines"):
        raise InvalidDistribution(f"cannot read distribution from {type(source).__name__}")
    weights: list[float] = []
    labels: list[str] = []
    for lineno, raw in enumerate(source, start=1):
        if not isinstance(raw, str):
            raise InvalidDistribution(f"cannot read distribution from binary stream "
                                      f"{type(source).__name__}; open it in text mode")
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InvalidDistribution(
                f"line {lineno}: expected 'label<TAB>weight', got {line!r}"
            )
        label, weight_text = parts
        try:
            weight = float(weight_text)
        except ValueError:
            raise InvalidDistribution(
                f"line {lineno}: bad weight {weight_text!r}"
            ) from None
        labels.append(label)
        weights.append(weight)
    if not labels:
        raise InvalidDistribution("distribution file has no entries")
    return new_distribution(weights, labels)


def entropy(d: ValueDistribution) -> float:
    """Shannon entropy of the distribution in bits."""
    return -math.fsum(p * math.log2(p) for p in d.probs)


def integer_counts(d: ValueDistribution, n: int) -> tuple[int, ...]:
    """Apportion n keys across values by largest remainder.

    Returns counts summing exactly to n.  Each value with p_i * n >= 1 is
    guaranteed a count of at least 1; values with expectation below one key
    may receive zero.  Remainder ties go to the earlier (more probable) index.
    """
    if n < 0:
        raise ValueError(f"cannot apportion a negative key count {n}")
    shares = [p * n for p in d.probs]
    counts = [math.floor(s) for s in shares]
    leftover = n - sum(counts)
    if leftover > 0:
        # hand out the leftover units to the largest fractional parts
        order = sorted(range(d.b), key=lambda i: (counts[i] - shares[i], i))
        for i in order[:leftover]:
            counts[i] += 1
    return tuple(counts)
