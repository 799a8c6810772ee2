"""The correctness gate: every checked operation is counted, and failures
are counted against the operations attempted.

A stored key reported absent, or answered with a smaller value index than
its true one, breaks the map's one-sided guarantee and is a failed
operation.  Answers for absent keys may be false positives; those are
checked in aggregate against the certified analytic bound instead.
"""

from __future__ import annotations

import copy
import math

# A measured error rate fails when, if the true rate were the certified
# bound, a count at least this high would occur with probability below
# TAIL_PROBABILITY (Chernoff bound on the binomial upper tail).
TAIL_PROBABILITY = 1e-6


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.record(1, 0 if ok else 1, what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def stored_failures(outcomes, truth) -> int:
    """Stored-key answers that are absent or understate the value index."""
    return sum(
        1 for out, want in zip(outcomes, truth)
        if out.value_index is None or out.value_index < want
    )


def absent_failures(outcomes, b: int) -> int:
    """Absent-key answers that name no valid value (a false positive is allowed)."""
    return sum(
        1 for out in outcomes
        if out.value_index is not None and not 0 <= out.value_index < b
    )


def tail_bound(hits: int, trials: int, p: float) -> float:
    """Chernoff upper bound on P[Binomial(trials, p) >= hits]."""
    if trials == 0 or hits <= trials * p:
        return 1.0
    a = hits / trials
    if a >= 1.0:
        return p ** trials
    kl = a * math.log(a / p) + (1 - a) * math.log((1 - a) / (1 - p))
    return math.exp(-trials * kl)


def certified_bounds(lib, bmap) -> tuple[float, tuple[float, ...]]:
    """(false positive bound, per-value misassignment bounds) of a map."""
    if bmap.tree is not None:
        return lib.codetree.analytic_error_bounds(bmap.tree)
    return lib.core.simple_analytic_bounds(bmap.simple_ks)


def check_rates(gate: Gate, fp_bound, mis_bounds, fp_hits, neg_total, wrong, counts):
    """Check measured false positive and per-value misassignment counts
    against the certified bounds; returns printable lines."""
    lines = []
    tail = tail_bound(fp_hits, neg_total, fp_bound)
    gate.check(tail >= TAIL_PROBABILITY, "false positive rate above its certified bound")
    lines.append(
        f"false positives {fp_hits}/{neg_total} = {fp_hits / neg_total:.5f} "
        f"vs bound {fp_bound:.5f} (tail {tail:.2g})"
    )
    worst = 0.0
    for i, (w, c, bound) in enumerate(zip(wrong, counts, mis_bounds)):
        if c == 0:
            continue
        tail = tail_bound(w, c, bound)
        gate.check(tail >= TAIL_PROBABILITY, f"misassignment rate of value {i} above its bound")
        worst = max(worst, w / c - bound)
    lines.append(
        f"misassignment: worst measured rate minus bound {worst:+.5f} over {len(counts)} values"
    )
    return lines


def corrupted_copy(lib, bmap):
    """A copy of a frozen map with every other byte of its bit array cleared."""
    data = bytearray(bmap.bits.to_bytes())
    data[::2] = bytes(len(data[::2]))
    broken = copy.copy(bmap)
    broken.bits = lib.core.BitArray(bmap.m, bytes(data))
    broken.bits.freeze()
    return broken


def self_test_checker(gate: Gate, lib, bmap, keys, truth) -> str:
    """The stored-key check must catch a map that lost set bits."""
    broken = corrupted_copy(lib, bmap)
    caught = stored_failures([broken.query(k) for k in keys], truth)
    gate.check(caught > 0, "checker self-test: a corrupted map passed the stored-key check")
    return f"checker self-test: corrupted copy fails {caught}/{len(keys)} stored lookups"
