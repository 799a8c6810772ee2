"""The benchmark's traced entry points stay where it looks for them.

perfbench/spans.py wraps every (module, attribute path) in its TARGETS on
the bloommap modules, and perfbench/run.py reads each value's path weight
from tree.path_weight or simple_ks.  A renamed or deleted target leaves
the traced run's per-layer metrics without a value, so each name is
checked here the way the tracer resolves it.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from bloommap import build_simple, build_tree, new_distribution
from bloommap.core import simple_hash_counts

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LOG2E = math.log2(math.e)
SKEW = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module.TARGETS


def test_every_traced_target_is_callable_under_its_name():
    for module, path, _ in _targets():
        owner = importlib.import_module(f"bloommap.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{module}.{path} is not callable"


def test_path_weights_are_readable_on_both_layouts():
    # the weights perfbench reads are the ones each map was sized by
    pairs = [(f"k{t}".encode(), SKEW.labels[t % 4]) for t in range(40)]
    tree_map = build_tree(pairs, SKEW, 2 ** -7, seed=1, scheme="standard")
    flat = build_simple(pairs, SKEW, 2 ** -7, seed=1)
    assert flat.simple_ks == simple_hash_counts(SKEW, 2 ** -7)
    for bmap, t in ((tree_map, [tree_map.tree.path_weight(i) for i in range(SKEW.b)]),
                    (flat, flat.simple_ks)):
        assert bmap.m == math.ceil(LOG2E * sum(10 * ti for ti in t))
