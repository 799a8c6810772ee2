"""The read path imports only what it runs.  Loading a map, a scalar
query, describe(), save and the CLI's query and inspect import neither
numpy nor the bounds, codetree and harness modules; the CLI's bounds runs
on the standard library alone; the first batch call imports numpy safely
from any thread; and the package resolves the names of those three
modules on first access.

Each check runs in a fresh interpreter, so that nothing the test process
has already imported hides an import."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bloommap
from bloommap import build_tree, new_distribution, save

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("simple", "standard", "fast", "custom")
DIST = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
PAIRS = [(f"key-{t}", DIST.labels[t % 7 % 4].decode()) for t in range(600)]
KEYS = [key for key, _ in PAIRS[:200]] + [f"absent-{t}" for t in range(200)]
# custom node counts, in tree_from_depths' numbering: the four leaves, then
# the three internal nodes, each one more than the fast scheme gives them
CUSTOM = [9, 9, 9, 9, 3, 3, 3]
# the modules a one-shot query or inspect never needs
HEAVY = ("bloommap.bounds", "bloommap.codetree", "bloommap.harness", "fractions", "numpy")


def _run(script: str, *args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _built(pairs, variant):
    custom = CUSTOM if variant == "custom" else None
    return build_tree(pairs, DIST, 2 ** -7, 11, variant, custom=custom)


def _saved_maps(tmp_path) -> dict:
    paths = {}
    for variant in VARIANTS:
        paths[variant] = str(tmp_path / f"{variant}.bmap")
        save(_built(PAIRS, variant), paths[variant])
    return paths


_READ_PATH = """
    import contextlib, io, json, sys
    import bloommap
    from bloommap.cli import cli_main

    paths, keys, pairs, custom, heavy = json.loads(open(sys.argv[1]).read())
    out = {"query": {}, "saved": {}, "cli": {}, "query_many": {}, "built": {}}

    def cli(variant, argv):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli_main(argv)
        out["cli"][f"{variant} {argv[0]}"] = [code, text.getvalue()]

    for variant, path in paths.items():
        bmap = bloommap.load(path)
        out["query"][variant] = [
            [o.value_index, o.probes, o.hash_evals] for o in map(bmap.query, keys)]
        bmap.describe()
        sink = io.BytesIO()
        bloommap.save(bmap, sink)
        out["saved"][variant] = sink.getvalue().hex()
        cli(variant, ["query", path, "--key", keys[0], "--probes"])
        cli(variant, ["inspect", path])
    out["read_path_modules"] = [name for name in heavy if name in sys.modules]
    for variant in paths:
        cli(variant, ["bounds", "--epsilon-plus", "0.01", "--entropy", "1.75"])
    out["numpy_before_batch"] = "numpy" in sys.modules
    dist = bloommap.new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
    for variant, path in paths.items():
        found, probes = bloommap.load(path).query_many(keys)
        out["query_many"][variant] = [found.tolist(), probes.tolist()]
        built = bloommap.build_tree([tuple(p) for p in pairs], dist, 2 ** -7, 11, variant,
                                    custom=custom if variant == "custom" else None)
        out["built"][variant] = built.bits.to_bytes().hex()
    print(json.dumps(out))
"""


def test_read_path_imports_no_numpy(tmp_path, capsys):
    from bloommap import load
    from bloommap.cli import cli_main

    paths = _saved_maps(tmp_path)
    job = tmp_path / "job.json"
    job.write_text(json.dumps([paths, KEYS, PAIRS, CUSTOM, HEAVY]))
    out = _run(_READ_PATH, job)
    assert out["read_path_modules"] == []
    assert out["numpy_before_batch"] is False
    for variant, path in paths.items():
        bmap = load(path)
        want = [[o.value_index, o.probes, o.hash_evals] for o in map(bmap.query, KEYS)]
        assert out["query"][variant] == want
        assert out["saved"][variant] == Path(path).read_bytes().hex()
        found, probes = bmap.query_many(KEYS)
        assert out["query_many"][variant] == [found.tolist(), probes.tolist()]
        built = _built(PAIRS, variant)
        assert out["built"][variant] == built.bits.to_bytes().hex()
        for argv in (["query", path, "--key", KEYS[0], "--probes"], ["inspect", path],
                     ["bounds", "--epsilon-plus", "0.01", "--entropy", "1.75"]):
            capsys.readouterr()
            code = cli_main(argv)
            assert out["cli"][f"{variant} {argv[0]}"] == [code, capsys.readouterr().out]
            assert code == 0


_TWO_THREADS = """
    import json, sys, threading
    import bloommap

    path, keys = sys.argv[1], json.loads(sys.argv[2])
    bmap = bloommap.load(path)
    assert "numpy" not in sys.modules
    start = threading.Barrier(2)
    answers = [None, None]

    def first_batch(slot):
        start.wait(timeout=60)
        found, probes = bmap.query_many(keys)
        answers[slot] = [found.tolist(), probes.tolist()]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_batch, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    alive = [thread.is_alive() for thread in threads]
    outcomes = [bmap.query(key) for key in keys]
    want = [[-1 if o.value_index is None else o.value_index for o in outcomes],
            [o.probes for o in outcomes]]
    print(json.dumps({"alive": alive, "answers": answers, "want": want}))
"""


def test_first_batch_calls_from_two_threads(tmp_path):
    path = _saved_maps(tmp_path)["standard"]
    out = _run(_TWO_THREADS, path, json.dumps(KEYS))
    assert out["alive"] == [False, False]
    assert out["answers"] == [out["want"], out["want"]]


_PACKAGE = """
    import json, sys
    import bloommap

    before = [name for name in sys.argv[1:] if name in sys.modules]
    listed = sorted(set(bloommap.__all__) - set(dir(bloommap)))
    star = {}
    exec("from bloommap import *", star)
    alike = []
    for name in bloommap.__all__:
        value = star[name]
        home = sys.modules[value.__module__]
        alike.append([name, value is getattr(bloommap, name) is getattr(home, name),
                      value.__module__])
    from bloommap import bounds
    print(json.dumps({"before": before, "not_listed": listed, "alike": alike,
                      "submodule": bounds is sys.modules["bloommap.bounds"]}))
"""


def test_package_names_resolve_on_first_access():
    out = _run(_PACKAGE, *HEAVY)
    assert out["before"] == []
    assert out["not_listed"] == []
    assert [name for name, _, _ in out["alike"]] == bloommap.__all__
    for name, same, home in out["alike"]:
        assert same, name
        assert home.startswith("bloommap."), name
    assert out["submodule"] is True
    for name in bloommap.__all__:
        value = getattr(bloommap, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bloommap.no_such_name


_TREE_VIEW = """
    import json, sys
    import bloommap

    bmap = bloommap.load(sys.argv[1])
    weights = list(bmap.describe()["path_weights"])
    before = "bloommap.codetree" in sys.modules
    tree = bmap.tree
    view = None if tree is None else [tree.path_weight(i) for i in range(bmap.b)]
    print(json.dumps([before, "bloommap.codetree" in sys.modules, weights, view]))
"""


def test_tree_view_imports_codetree_on_first_access(tmp_path):
    for variant, path in _saved_maps(tmp_path).items():
        before, after, weights, view = _run(_TREE_VIEW, path)
        assert before is False
        if variant == "simple":
            assert (after, view) == (False, None)
        else:
            assert after is True
            assert view == weights
