"""Only batch code imports numpy: loading a map, a scalar query, describe()
and the CLI's query, inspect and bounds run on the standard library alone,
and the first batch call imports numpy safely from any thread.

Each check runs in a fresh interpreter, so that nothing the test process
has already imported hides an import."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from bloommap import build_tree, new_distribution, save

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("simple", "standard", "fast")
DIST = new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
PAIRS = [(f"key-{t}", DIST.labels[t % 7 % 4].decode()) for t in range(600)]
KEYS = [key for key, _ in PAIRS[:200]] + [f"absent-{t}" for t in range(200)]


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


def _saved_maps(tmp_path) -> dict:
    paths = {}
    for variant in VARIANTS:
        paths[variant] = str(tmp_path / f"{variant}.bmap")
        save(build_tree(PAIRS, DIST, 2 ** -7, 11, variant), paths[variant])
    return paths


_READ_PATH = """
    import contextlib, io, json, sys
    import bloommap
    from bloommap.cli import cli_main

    paths, keys, pairs = json.loads(open(sys.argv[1]).read())
    out = {"query": {}, "cli": {}, "query_many": {}, "built": {}}
    for variant, path in paths.items():
        bmap = bloommap.load(path)
        out["query"][variant] = [
            [o.value_index, o.probes, o.hash_evals] for o in map(bmap.query, keys)]
        bmap.describe()
        for argv in (["query", path, "--key", keys[0], "--probes"], ["inspect", path],
                     ["bounds", "--epsilon-plus", "0.01", "--entropy", "1.75"]):
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = cli_main(argv)
            out["cli"][f"{variant} {argv[0]}"] = [code, text.getvalue()]
    out["numpy_before_batch"] = "numpy" in sys.modules
    dist = bloommap.new_distribution([0.5, 0.25, 0.125, 0.125], ["a", "b", "c", "d"])
    for variant, path in paths.items():
        found, probes = bloommap.load(path).query_many(keys)
        out["query_many"][variant] = [found.tolist(), probes.tolist()]
        built = bloommap.build_tree([tuple(p) for p in pairs], dist, 2 ** -7, 11, variant)
        out["built"][variant] = built.bits.to_bytes().hex()
    print(json.dumps(out))
"""


def test_read_path_imports_no_numpy(tmp_path, capsys):
    from bloommap import load
    from bloommap.cli import cli_main

    paths = _saved_maps(tmp_path)
    job = tmp_path / "job.json"
    job.write_text(json.dumps([paths, KEYS, PAIRS]))
    out = _run(_READ_PATH, job)
    assert out["numpy_before_batch"] is False
    for variant, path in paths.items():
        bmap = load(path)
        want = [[o.value_index, o.probes, o.hash_evals] for o in map(bmap.query, KEYS)]
        assert out["query"][variant] == want
        found, probes = bmap.query_many(KEYS)
        assert out["query_many"][variant] == [found.tolist(), probes.tolist()]
        built = build_tree(PAIRS, DIST, 2 ** -7, 11, variant)
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
