"""End-to-end command line coverage, driven through cli_main()."""

import argparse
import re

import pytest

from bloommap import build_tree, load, new_distribution, save
from bloommap.cli import _build_parser, cli_main
from bloommap.harness import VARIANTS


@pytest.fixture
def pairs_tsv(tmp_path):
    lines = []
    for i in range(16):
        label = "a" if i < 8 else "b" if i < 12 else "c" if i < 14 else "d"
        lines.append(f"key-{i:02d}\t{label}")
    path = tmp_path / "pairs.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def dist_tsv(tmp_path):
    path = tmp_path / "dist.tsv"
    path.write_text("a\t0.5\nb\t0.3\nc\t0.2\n", encoding="utf-8")
    return str(path)


def _record(text: str) -> dict:
    """Parse a report, checking that every line is name=value and that no
    name repeats."""
    lines = text.splitlines()
    assert lines and all(re.fullmatch(r"[a-z_]+=.*", line) for line in lines), text
    record = dict(line.split("=", 1) for line in lines)
    assert len(record) == len(lines), text
    return record


def _build(pairs_tsv, out, seed="3", variant="fast"):
    return cli_main([
        "build", "--input", pairs_tsv, "--epsilon", "0.03125",
        "--variant", variant, "--seed", seed, "--out", out,
    ])


def test_build_query_inspect_flow(pairs_tsv, tmp_path, capsys):
    out = str(tmp_path / "demo.bmap")
    assert _build(pairs_tsv, out) == 0
    text = capsys.readouterr().out
    assert "built fast map: n=16 b=4" in text
    assert text.strip().endswith(out)

    assert cli_main(["query", out, "--key", "key-03"]) == 0
    assert capsys.readouterr().out.strip() == "a"
    assert cli_main(["query", out, "--key", "key-13", "--probes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c"
    assert lines[1].startswith("probes=") and "hash_evals=" in lines[1]
    assert cli_main(["query", out, "--key", "never stored"]) == 0
    assert capsys.readouterr().out.strip() == "BOTTOM"

    assert cli_main(["inspect", out]) == 0
    text = capsys.readouterr().out
    for needle in ("variant", "fast", "n", "16", "leaf_depths",
                   "leaf_hash_counts", "false_positive_bound",
                   "max_misassignment_bound", "values"):
        assert needle in text
    assert "a, b, c, d" in text
    record = _record(text)
    assert list(record) == list(load(out).describe())
    assert record["variant"] == "fast" and record["n"] == "16"
    assert record["values"] == "a, b, c, d"


def test_query_takes_repeated_keys(pairs_tsv, tmp_path, capsys):
    out = str(tmp_path / "demo.bmap")
    assert _build(pairs_tsv, out) == 0
    capsys.readouterr()
    keys = ["key-03", "key-13", "never stored"]
    argv = ["query", out] + [f"--key={key}" for key in keys]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["a", "c", "BOTTOM"]
    assert cli_main(argv + ["--probes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    bmap = load(out)
    want = []
    for key in keys:
        outcome = bmap.query(key.encode())
        want.append("BOTTOM" if outcome.is_bottom else outcome.value.decode())
        want.append(f"probes={outcome.probes} hash_evals={outcome.hash_evals}")
    assert lines == want
    # one --key prints exactly what it printed before the flag repeated
    assert cli_main(["query", out, "--key", "key-13", "--probes"]) == 0
    assert capsys.readouterr().out.splitlines() == want[2:4]


def test_inspect_flat_map(pairs_tsv, tmp_path, capsys):
    out = str(tmp_path / "flat.bmap")
    assert _build(pairs_tsv, out, variant="simple") == 0
    capsys.readouterr()
    assert cli_main(["inspect", out]) == 0
    text = capsys.readouterr().out
    assert "hash_counts" in text
    assert "leaf_depths" not in text
    assert list(_record(text)) == list(load(out).describe())


def test_inspect_escapes_labels(tmp_path, capsys):
    # a label may hold anything a library caller put there; none of it may
    # forge a report line or a ", " separator
    labels = [b"x\nfp_only_lower_bpk=1", b"back\\slash, comma\r",
              "line\u2028break".encode(), b"\xff"]
    pairs = [(f"k{i}".encode(), labels[i % 4]) for i in range(16)]
    out = tmp_path / "labels.bmap"
    save(build_tree(pairs, new_distribution([1] * 4, labels), 2 ** -5, 1), out)
    assert cli_main(["inspect", str(out)]) == 0
    record = _record(capsys.readouterr().out)
    assert list(record) == list(load(out).describe())
    assert record["values"].split(", ") == [
        "x\\nfp_only_lower_bpk=1", "back\\\\slash\\x2c comma\\r",
        "line\\u2028break", "\\xff"]


def test_build_is_deterministic(pairs_tsv, tmp_path, capsys):
    a = tmp_path / "a.bmap"
    b = tmp_path / "b.bmap"
    c = tmp_path / "c.bmap"
    assert _build(pairs_tsv, str(a)) == 0
    assert _build(pairs_tsv, str(b)) == 0
    assert _build(pairs_tsv, str(c), seed="4") == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_bounds_output(capsys):
    assert cli_main(["bounds", "--epsilon-plus", "0.01"]) == 0
    text = capsys.readouterr().out
    assert list(_record(text)) == [
        "fp_only_lower_bpk", "general_lower_bpk", "symmetric_lower_bpk"]
    lines = text.splitlines()
    assert lines[0] == "fp_only_lower_bpk=6.64386"
    assert lines[1] == "general_lower_bpk=6.64386"
    assert lines[2] == "symmetric_lower_bpk=6.56299"

    # at a full false positive budget the relaxed floor has no meaning;
    # the closed form still prints, with its out-of-range caution
    with pytest.warns(UserWarning):
        assert cli_main(["bounds", "--epsilon-plus", "1.0", "--entropy", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fp_only_lower_bpk=2"
    assert len(lines) == 2


def test_bench_run(dist_tsv, capsys):
    code = cli_main([
        "bench", "--dist", dist_tsv, "--n", "2000", "--epsilon", "0.03125",
        "--variant", "fast", "--neg-samples", "1000", "--seed", "5",
    ])
    assert code == 0
    text = capsys.readouterr().out
    for needle in ("false_positive_rate", "zero_fraction", "neg_probe_mean",
                   "achieved_bpk", "symmetric_lower_bpk", "ratio"):
        assert needle in text
    record = _record(text)
    for name in ("pos_counts", "misassignment_rates", "false_negative_rates"):
        assert len(record[name].split(", ")) == 3


def test_bench_discard(dist_tsv, capsys):
    code = cli_main([
        "bench", "--dist", dist_tsv, "--n", "2000", "--epsilon", "0.0625",
        "--variant", "simple", "--neg-samples", "1000", "--seed", "6",
        "--discard",
    ])
    assert code == 0
    rates = _record(capsys.readouterr().out)["false_negative_rates"].split(", ")
    assert len(rates) == 3
    assert max(float(rate) for rate in rates) > 0.0


def test_usage_errors_exit_1(capsys):
    assert cli_main([]) == 1
    assert cli_main(["build", "--nope"]) == 1
    assert cli_main(["bench", "--dist", "x.tsv"]) == 1  # --n and --epsilon missing
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


def test_variant_choices_are_the_harness_variants(capsys):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("build", "bench"):
        flag = next(a for a in sub.choices[command]._actions if "--variant" in a.option_strings)
        assert tuple(flag.choices) == VARIANTS
    assert cli_main(["build", "--input", "x.tsv", "--epsilon", "0.01", "--out", "x.bmap",
                     "--variant", "custom"]) == 1  # custom counts have no flag
    capsys.readouterr()


def test_data_errors_exit_2(pairs_tsv, tmp_path, capsys):
    out = str(tmp_path / "x.bmap")
    assert cli_main(["build", "--input", str(tmp_path / "nope.tsv"),
                     "--epsilon", "0.01", "--out", out]) == 2
    assert "bloommap:" in capsys.readouterr().err

    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n", encoding="utf-8")
    assert cli_main(["build", "--input", str(bad),
                     "--epsilon", "0.01", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad.tsv:1" in err

    assert cli_main(["build", "--input", pairs_tsv,
                     "--epsilon", "1.5", "--out", out]) == 2
    capsys.readouterr()

    assert cli_main(["query", str(tmp_path / "missing.bmap"),
                     "--key", "k"]) == 2
    capsys.readouterr()

    junk = tmp_path / "junk.bmap"
    junk.write_bytes(b"this is not a map file, not even close")
    assert cli_main(["inspect", str(junk)]) == 2
    assert "bloommap:" in capsys.readouterr().err


def test_empty_pairs_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n\n", encoding="utf-8")
    assert cli_main(["build", "--input", str(empty), "--epsilon", "0.01",
                     "--out", str(tmp_path / "x.bmap")]) == 2
    assert "no pairs found" in capsys.readouterr().err
