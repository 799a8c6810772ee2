"""
The command line in one sitting
===============================

Everything the library does is reachable from the `bloommap` command:
build a map file from TSV pairs, query it, benchmark a synthetic
workload, print space floors, and inspect a map file's innards.  This
script drives all five subcommands through a temp directory and echoes
what each prints.
"""

import pathlib
import subprocess
import sys
import tempfile


def run(*args):
    print(f"$ bloommap {' '.join(args)}")
    proc = subprocess.run(
        [sys.executable, "-m", "bloommap.cli", *args],
        capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr)
        raise SystemExit(f"exit code {proc.returncode}")
    print()


with tempfile.TemporaryDirectory(prefix="bloommap-demo-") as tmp:
    workdir = pathlib.Path(tmp)

    # 1. build: the input is plain key<TAB>label lines; the value
    #    distribution is tallied from the file itself
    pairs = workdir / "routes.tsv"
    lines = []
    for i in range(300):
        tier = ("web", "web", "api", "batch")[i % 4]
        lines.append(f"host-{i:03d}\t{tier}")
    pairs.write_text("\n".join(lines) + "\n")
    mapfile = workdir / "routes.bmap"
    run("build", "--input", str(pairs), "--epsilon", "0.0078125",
        "--variant", "fast", "--seed", "1", "--out", str(mapfile))

    # 2. query: --key may repeat, one answer per key; --probes shows the work done
    run("query", str(mapfile), "--key", "host-042", "--probes")
    run("query", str(mapfile), "--key", "host-777")

    # 3. inspect: geometry, hash counts, and certified error bounds
    run("inspect", str(mapfile))

    # 4. bounds: the floor calculator needs no map at all
    run("bounds", "--epsilon-plus", "0.0078125", "--entropy", "1.75")

    # 5. bench: generate, build, and measure a synthetic workload
    dist = workdir / "dist.tsv"
    dist.write_text("web\t0.5\napi\t0.25\nbatch\t0.25\n")
    run("bench", "--dist", str(dist), "--n", "5000", "--epsilon", "0.0078125",
        "--variant", "standard", "--neg-samples", "2000", "--seed", "3")
