"""
Inside the code tree
====================

The tree variants route every key along a root-to-leaf path in an
optimal alphabetic binary tree over the values: frequent values sit near
the root, so their keys touch fewer nodes.  Each node owns a few hash
functions; storing a pair sets the bits of every node on the value's
path, and a query walks the tree, descending only through nodes whose
bits are all set.

This script dissects that machinery for one skewed distribution: the
tree shape, the per-node hash counts under each scheme, and the
certified error bounds.
"""

from bloommap import new_distribution
from bloommap.codetree import (
    analytic_error_bounds,
    assign_hash_counts,
    assign_offsets,
    build_alphabetic_tree,
    compute_geometry,
    tree_property_report,
)

dist = new_distribution(
    [8, 4, 2, 1, 1], ["noun", "verb", "adj", "adv", "other"]
)
eps = 2 ** -7

tree = build_alphabetic_tree(dist)
print("leaf depths (sorted by probability, most probable first):")
for i, label in enumerate(dist.labels):
    print(f"  {label.decode():<6} p={dist.probs[i]:.4f}  depth={tree.leaf_depths()[i]}")

assign_offsets(tree)
print("\nnode offsets are level-order indices; siblings never collide even")
print("when they reuse the same base hash values:")
for node in tree.preorder():
    kind = f"leaf[{node.value_index}]" if node.is_leaf else "internal"
    print(f"  depth={node.depth} offset={node.offset:<2} {kind}")

for scheme in ("standard", "fast"):
    assign_hash_counts(tree, eps, scheme)
    fp, mis = analytic_error_bounds(tree)
    ks = [tree.nodes[i].k for i in tree.leaves]
    inner = sorted({n.k for n in tree.nodes if not n.is_leaf})
    geom = compute_geometry(tree, (800, 400, 200, 100, 100), eps)
    print(f"\n{scheme} scheme: internal k={inner}, leaf k={ks}")
    print(f"  certified false positive bound {fp:.3g} (budget {eps:.3g})")
    print(f"  worst misassignment bound      {max(mis):.3g}")
    print(f"  geometry for 1600 keys: m={geom.m} bits, "
          f"deepest path carries {max(geom.t)} hashes")

report = tree_property_report(tree)
print(f"\nstructural invariants hold: {report.all_ok}")
print("(path-difference, level-sum, and left-branch bounds; these are")
print("what make the traversal short-circuit safely)")
