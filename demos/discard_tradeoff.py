"""
Trading false negatives for space
=================================

The default builds never lose a stored key.  If the application can
tolerate a small false negative rate, dropping an epsilon fraction of
the keys per value before building shrinks the array proportionally;
nothing else about the structure changes.

This script builds the same workload at several discard fractions and
prints the space saved next to the false negative rate actually induced.
The rate tracks the fraction closely (a dropped key can still answer by
accident, so it lands slightly under).
"""

from bloommap import build_tree, new_distribution
from bloommap.harness import (
    PMapSpec,
    build_with_discard,
    generate_pmap,
    measure,
)

dist = new_distribution([0.6, 0.3, 0.1], ["hot", "warm", "cold"])
pairs = generate_pmap(PMapSpec(dist, 40_000, seed=21))

baseline = build_tree(pairs, dist, 2 ** -6, seed=2, scheme="simple")
print(f"baseline: {baseline.m} bits, no false negatives\n")

header = f"{'discard':>8} {'bits':>8} {'saved':>6} {'f- measured':>12}"
print(header)
print("-" * len(header))
for frac in (0.01, 0.02, 0.05, 0.10):
    bmap = build_with_discard(pairs, dist, 2 ** -6, seed=2,
                              variant="simple", discard_fraction=frac)
    report = measure(bmap, pairs, neg_samples=10_000, seed=3)
    worst_fn = max(report.false_negative_rates)
    saved = 1.0 - bmap.m / baseline.m
    print(f"{frac:>8.2f} {bmap.m:>8} {saved:>6.1%} {worst_fn:>12.4f}")

print("\nstored keys that survive the discard still always answer;")
print("the loss is confined to the dropped fraction")
