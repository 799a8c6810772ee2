"""
How close to the floor?
=======================

Every structure answering approximate key-value queries pays a minimum
number of bits per key that depends on the error budget and on the
entropy of the value distribution.  This script builds flat maps at a
range of budgets and prints the achieved space next to the floors.

The achieved/floor ratio stays in a narrow band around 1.44; the log2(e)
factor is the price of realizing the structure with hash functions, and
integer ceilings on the hash counts add a little more.
"""

from dataclasses import asdict

from bloommap import build_simple, entropy, new_distribution, space_report
from bloommap.cli import render
from bloommap.harness import PMapSpec, generate_pmap

dist = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
pairs = generate_pmap(PMapSpec(dist, 20_000, seed=5))
print(f"value entropy H = {entropy(dist):.4f} bits, n = 20000 keys\n")

header = f"{'epsilon':>10} {'bits/key':>9} {'floor':>8} {'ratio':>6}"
print(header)
print("-" * len(header))
for t in range(4, 11):
    eps = 2.0 ** -t
    bmap = build_simple(pairs, dist, eps, seed=t)
    report = space_report(bmap)
    print(f"{f'2^-{t}':>10} {report.achieved_bpk:>9.3f} "
          f"{report.symmetric_lower_bpk:>8.3f} {report.ratio:>6.3f}")

print()
print("the full comparison for one build:")
print()
print(render(asdict(space_report(build_simple(pairs, dist, 2 ** -7, seed=99)))))
