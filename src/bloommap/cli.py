"""Command line front end.

Subcommands: build (TSV pairs to map file), query, bench (synthetic
workload measurement), bounds (space floor calculator), inspect.  The
three reports (inspect, bench, bounds) print one record each through
render(), as name=value lines.  Exit codes: 0 success, 1 usage problems,
2 data or format problems.  All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict

from . import bounds as bounds_mod
from . import harness, mapfile
from .core import build_tree
from .distribution import load_distribution, new_distribution
from .errors import BloomMapError

__all__ = ["cli_main", "main", "render"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for data
    # problems and reports usage problems with 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_pairs_tsv(path: str) -> list[tuple[bytes, bytes]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key<TAB>value-label', got {line!r}"
                )
            key, label = parts
            pairs.append((key.encode("utf-8"), label.encode("utf-8")))
    if not pairs:
        raise ValueError(f"{path}: no pairs found")
    return pairs


def _label(raw: bytes) -> str:
    # one line that ", " still splits: backslashes doubled first, so the
    # \xNN of an undecodable byte stays unambiguous, then line breaks and
    # other unprintable characters escaped and ", " written as "\x2c "
    text = raw.replace(b"\\", b"\\\\").decode("utf-8", errors="backslashreplace")
    text = "".join(
        c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in text
    )
    return text.replace(", ", "\\x2c ")


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "none"
    if isinstance(value, bytes):
        return _label(value)
    if isinstance(value, tuple):
        return ", ".join(_text(item) for item in value)
    return str(value)


def render(record: dict) -> str:
    """A record as name=value lines: floats at %.6g, None as none, bools
    as true/false, labels decoded and escaped to one line, tuples joined
    with ", "."""
    return "\n".join(f"{name}={_text(value)}" for name, value in record.items())


def _cmd_build(args) -> int:
    pairs = _read_pairs_tsv(args.input)
    tally = Counter(label for _, label in pairs)  # labels in first-seen order
    dist = new_distribution(list(tally.values()), list(tally))
    bmap = build_tree(pairs, dist, args.epsilon, args.seed, args.variant)
    mapfile.save(bmap, args.out)
    print(
        f"built {bmap.variant} map: n={bmap.n} b={bmap.b} m={bmap.m} "
        f"({bmap.bits_per_key():.2f} bits/key) -> {args.out}"
    )
    return 0


def _cmd_query(args) -> int:
    bmap = mapfile.load(args.mapfile)
    for key in args.key:
        outcome = bmap.query(key.encode("utf-8"))
        if outcome.is_bottom:
            print("BOTTOM")
        else:
            print(_text(outcome.value))
        if args.probes:
            print(f"probes={outcome.probes} hash_evals={outcome.hash_evals}")
    return 0


def _cmd_bench(args) -> int:
    dist = load_distribution(args.dist)
    spec = harness.PMapSpec(dist=dist, n=args.n, seed=args.seed)
    pairs = harness.generate_pmap(spec)
    build = harness.build_with_discard if args.discard else build_tree
    bmap = build(pairs, dist, args.epsilon, args.seed, args.variant)
    report = harness.measure(bmap, pairs, args.neg_samples, seed=args.seed + 1)
    print(render(asdict(report) | asdict(bounds_mod.space_report(bmap))))
    return 0


def _cmd_bounds(args) -> int:
    floors = {
        "fp_only_lower_bpk":
            bounds_mod.lb_false_positive_only(args.epsilon_plus, args.entropy),
        "general_lower_bpk":
            bounds_mod.lb_general(args.epsilon_plus, args.epsilon_star,
                                  args.epsilon_minus, args.entropy),
    }
    if 0.0 < args.epsilon_plus < 1.0:
        floors["symmetric_lower_bpk"] = bounds_mod.lb_symmetric(
            args.epsilon_plus, args.entropy)
    print(render(floors))
    return 0


def _cmd_inspect(args) -> int:
    print(render(mapfile.load(args.mapfile).describe()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bloommap",
        description="Succinct approximate key-value maps over a small value alphabet.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="build a map from key<TAB>label lines")
    p.add_argument("--input", required=True, help="TSV file of key<TAB>value-label")
    p.add_argument("--epsilon", type=float, required=True, help="error budget in (0,1)")
    p.add_argument("--variant", choices=harness.VARIANTS, default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output map file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="look up keys in a map file, one answer per line")
    p.add_argument("mapfile")
    p.add_argument("--key", action="append", required=True, help="a key to look up; repeatable")
    p.add_argument("--probes", action="store_true",
                   help="also print each key's probe counts after its answer")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="measure error rates on a synthetic workload")
    p.add_argument("--dist", required=True, help="TSV file of label<TAB>weight")
    p.add_argument("--n", type=int, required=True, help="number of keys to store")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--variant", choices=harness.VARIANTS, default="standard")
    p.add_argument("--neg-samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--discard", action="store_true",
                   help="drop an epsilon fraction of keys per value before building")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bounds", help="print space floors in bits per key")
    p.add_argument("--epsilon-plus", type=float, required=True,
                   help="false positive budget")
    p.add_argument("--epsilon-star", type=float, default=0.0,
                   help="misassignment budget")
    p.add_argument("--epsilon-minus", type=float, default=0.0,
                   help="false negative budget")
    p.add_argument("--entropy", type=float, default=0.0,
                   help="value distribution entropy in bits")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("inspect", help="describe a map file")
    p.add_argument("mapfile")
    p.set_defaults(func=_cmd_inspect)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (BloomMapError, ValueError, OSError) as exc:
        print(f"bloommap: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
