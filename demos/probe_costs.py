"""
Counting bit probes
===================

Space is one cost; the other is how many bits a lookup touches.  The
fast scheme buys cheap negative queries (a constant expected number of
probes) by spending two extra hashes per internal node; the standard
scheme probes a bit more but stores a bit less.

The fast-scheme limits charge worst-case detours, so measured means land
clearly under them.  The standard scheme's absent-key limit is tight: it
holds in expectation (given half the array zero), and a finite sample
wobbles around it by a few hundredths in either direction.
"""

from bloommap import build_tree, entropy, new_distribution
from bloommap.bounds import (
    fast_negative_probe_limit,
    fast_positive_probe_limit,
    standard_negative_probe_limit,
)
from bloommap.harness import PMapSpec, generate_pmap, measure

dist = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
eps = 2 ** -7
pairs = generate_pmap(PMapSpec(dist, 30_000, seed=12))

for variant in ("standard", "fast"):
    bmap = build_tree(pairs, dist, eps, seed=3, scheme=variant)
    report = measure(bmap, pairs, neg_samples=20_000, seed=4)
    if variant == "fast":
        neg_limit = fast_negative_probe_limit()
        note = "worst-case limit"
    else:
        neg_limit = standard_negative_probe_limit(entropy(dist))
        note = "expected-value limit, tight"
    print(f"{variant}: absent-key probes mean {report.neg_probe_mean:.3f} "
          f"({note} {neg_limit:.2f})")
    if variant == "fast":
        for i, p in enumerate(dist.probs):
            limit = fast_positive_probe_limit(dist.b, i, p, eps)
            print(f"  value {i} (p={p:.3f}): stored-key probes mean "
                  f"{report.pos_probe_means[i]:.2f} (limit {limit:.2f})")
    print()

# The flat variant has no tree to short-circuit through; negative keys
# still exit quickly because each per-value block fails fast.
bmap = build_tree(pairs, dist, eps, seed=3, scheme="simple")
report = measure(bmap, pairs, neg_samples=20_000, seed=4)
print(f"simple: absent-key probes mean {report.neg_probe_mean:.3f} "
      f"(scans {dist.b} blocks, ~2 probes each)")
