"""Benchmark for the bloommap library: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ./src.
With --trace 0 it times the workload end to end with no instrumentation
and prints the end-to-end metrics.  With --trace 1 it wraps the library's
public entry points (see spans.py), prints the per-layer metrics and the
tracing overhead, and writes the spans to perfbench/results/.  Every run
checks every answer it times (checks.py); the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics,
and the exit code is non-zero when the correctness gate fails.

The load is one closed-loop caller in one process: each call is issued
after the previous one returns.  At most one child process runs at a
time: the cold-start CLI runs and the reference children that gauge them,
the import-time runs, and one fresh process that builds the map once to
measure its peak memory.  Timings are reported at a nominal machine speed
(pace.py); the unscaled numbers are printed as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CHUNK = 500          # lookups per throughput sample
BATCH = 1000         # stored keys (and as many absent keys) per harness.measure call
SHARE = {"pos": 0.35, "neg": 0.3, "batch": 0.35}  # split of --seconds between lookup phases
FILE_REPS = 7        # at least this many saves and loads per run ...
FILE_SECONDS = 1.5   # ... and as many more as fit in this time; medians are reported
COLD_REPS = 5        # cold starts per run; the median is reported
IMPORT_REPS = 3
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {
    "build_pairs_per_s": "pairs/s",
    "build_peak_bytes_per_key": "B/key",
    "bits_per_key": "bits/key",
    "lookup_pos_per_s": "lookups/s",
    "lookup_neg_per_s": "lookups/s",
    "lookup_pos_us_p99": "us",
    "batch_lookups_per_s": "lookups/s",
    "save_s": "s",
    "load_s": "s",
    "setup_s": "s",
}

BH = "hashing.HashFamily.base_hash"
BHB = "hashing.HashFamily.base_hash_batch"
GET = "core.BitArray.get_bit"
SET = "core.BitArray.set_bit"
SET_MANY = "core.BitArray.set_many"
INDEX_OF = "distribution.ValueDistribution.index_of"
STORE = "core.BloomMap.store"
QUERY = "core.BloomMap.query"
MEASURE = "harness.measure"
LOOKUPS = ("lookup_pos", "lookup_neg")

clock = time.perf_counter_ns


class GateFailure(Exception):
    """A failure that leaves nothing further to measure."""


# -- set-up -------------------------------------------------------------


def load_library() -> SimpleNamespace:
    """Import bloommap from this checkout's src/, never from elsewhere."""
    package = SRC / "bloommap"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a bloommap checkout")
    sys.path.insert(0, str(SRC))
    import bloommap
    from bloommap import bounds, codetree, core, distribution, harness, hashing, mapfile

    if Path(bloommap.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported bloommap from {bloommap.__file__}, not {package}")
    return SimpleNamespace(bounds=bounds, codetree=codetree, core=core,
                           distribution=distribution, harness=harness,
                           hashing=hashing, mapfile=mapfile)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cache_sizes() -> dict:
    """L2 and L3 sizes in bytes, read from sysfs (None when unreadable)."""
    sizes = {"l2_bytes": None, "l3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        if level in ("2", "3"):
            sizes[f"l{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return sizes


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "bloommap").glob("*.py"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **cache_sizes(),
        "src_lines": src_lines(),
    }


# -- measuring pieces -----------------------------------------------------


def timed_builds(lib, inputs, seed, reps, gate):
    """Build reps times; returns the last map and each build's (start, end)."""
    times = []
    bmap = None
    for _ in range(reps):
        bmap = None
        gc.collect()
        start = clock()
        try:
            bmap = workloads.build(lib, inputs, seed)
        except Exception as exc:  # any raise is a failed build, reported below
            gate.check(False, f"build raised {exc!r}")
            raise GateFailure("build failed") from exc
        times.append((start, clock()))
        gate.check(True, "build")
    return bmap, times


def proc_status() -> tuple[int, int]:
    """(current RSS, peak RSS) of this process in bytes."""
    fields = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        if key in ("VmRSS", "VmHWM"):
            fields[key] = int(rest.split()[0]) * 1024
    return fields["VmRSS"], fields["VmHWM"]


def memory_pass(lib, inputs, seed) -> dict:
    """Run inside a fresh process: one build, peak resident growth during it.

    The inputs stay referenced, so the build cannot reuse their memory.
    """
    gc.collect()
    rss0, hwm0 = proc_status()
    workloads.build(lib, inputs, seed)
    _, hwm1 = proc_status()
    return {"peak_growth_bytes": hwm1 - rss0, "raised_peak": hwm1 > hwm0}


def run_child(cmd, what: str, env=None) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env or child_env(), timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise GateFailure(f"{what} timed out") from exc
    if proc.returncode != 0:
        raise GateFailure(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def build_peak_bytes(workload: str, seed: int, gate) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--memory-pass",
           "--workload", workload, "--seed", str(seed)]
    # A fixed mmap threshold keeps glibc from serving the build out of heap
    # holes that input generation left, which made the growth seed-dependent.
    env = {**child_env(), "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
    try:
        result = json.loads(run_child(cmd, "memory pass", env).stdout.splitlines()[-1])
    except GateFailure:
        gate.check(False, "memory-pass build")
        raise
    gate.check(True, "memory-pass build")
    if not result["raised_peak"]:
        print("note: the memory-pass build did not raise the process's peak RSS",
              file=sys.stderr)
    return result["peak_growth_bytes"]


def time_lookups(bmap, keys, budget_s, per_call: bool):
    """Query keys in passes (at least one) until budget_s has passed.

    Returns the first pass's outcomes, every outcome, (start, end, count)
    of each CHUNK of lookups, and (start, end) of every call when per_call.
    """
    query = bmap.query
    outcomes, chunks, calls = [], [], []
    deadline = clock() + int(budget_s * 1e9)
    while True:
        for lo in range(0, len(keys), CHUNK):
            part = keys[lo : lo + CHUNK]
            start = clock()
            if per_call:
                for key in part:
                    t0 = clock()
                    out = query(key)
                    calls.append((t0, clock()))
                    outcomes.append(out)
            else:
                outcomes.extend([query(key) for key in part])
            chunks.append((start, clock(), len(part)))
        if clock() >= deadline:
            break
    return outcomes[: len(keys)], outcomes, chunks, calls


def check_lookups(gate, inputs, b, pos_all, neg_all):
    reps = len(pos_all) // len(inputs.pos_keys)
    truth = inputs.pos_truth * reps
    gate.record(len(pos_all), checks.stored_failures(pos_all, truth), "stored-key lookups")
    gate.record(len(neg_all), checks.absent_failures(neg_all, b), "absent-key lookups")


def batch_calls(lib, bmap, inputs, seed, budget_s, gate):
    """harness.measure over BATCH stored sample pairs plus BATCH absent keys,
    repeated until budget_s has passed.  Returns (start, end, lookups) per call.

    The measured error rates are checked against the certified bounds,
    counting each stored sample key once (repeats are not independent
    trials); every call draws fresh absent keys."""
    labels = inputs.dist.labels
    pairs = [(k, labels[v]) for k, v in zip(inputs.pos_keys, inputs.pos_truth)]
    b = bmap.b
    fp_hits = neg_total = 0
    wrong = [0] * b
    counts = [0] * b
    intervals = []
    deadline = clock() + int(budget_s * 1e9)
    call = 0
    while call == 0 or clock() < deadline:
        lo = (call * BATCH) % len(pairs)
        chunk = pairs[lo : lo + BATCH]
        start = clock()
        report = lib.harness.measure(bmap, chunk, BATCH, seed=seed * 100_003 + call)
        intervals.append((start, clock(), len(chunk) + BATCH))
        first_pass = (call + 1) * BATCH <= len(pairs)
        call += 1
        fp_hits += round(report.false_positive_rate * BATCH)
        neg_total += BATCH
        absent = 0
        for i, c in enumerate(report.pos_counts):
            absent += round(report.false_negative_rates[i] * c)
            if first_pass:
                wrong[i] += round(report.misassignment_rates[i] * c)
                counts[i] += c
        gate.record(len(chunk) + BATCH, absent, "harness.measure: stored keys reported absent")
    fp_bound, mis_bounds = checks.certified_bounds(lib, bmap)
    lines = checks.check_rates(gate, fp_bound, mis_bounds, fp_hits, neg_total, wrong, counts)
    return intervals, lines


def same_answers(a, b) -> bool:
    return all(
        (x.value_index, x.probes, x.hash_evals) == (y.value_index, y.probes, y.hash_evals)
        for x, y in zip(a, b)
    ) and len(a) == len(b)


def file_round_trip(lib, bmap, path, pos_first, neg_first, inputs, gate):
    """Time saves and loads, returning their (start, end) and the file size.
    The loaded map must answer the lookup samples exactly as the original did."""
    save_s, load_s = [], []
    gc.collect()
    while len(save_s) < FILE_REPS or clock() - save_s[0][0] < FILE_SECONDS * 1e9:
        start = clock()
        lib.mapfile.save(bmap, path)
        save_s.append((start, clock()))
    gate.check(True, "save")
    loaded = None
    gc.collect()
    while len(load_s) < FILE_REPS or clock() - load_s[0][0] < FILE_SECONDS * 1e9:
        loaded = None
        start = clock()
        try:
            loaded = lib.mapfile.load(path)
        except Exception as exc:  # a load that raises is a failed operation
            gate.check(False, f"load raised {exc!r}")
            raise GateFailure("load failed") from exc
        load_s.append((start, clock()))
    pos = [loaded.query(k) for k in inputs.pos_keys]
    neg = [loaded.query(k) for k in inputs.neg_keys]
    gate.check(same_answers(pos, pos_first) and same_answers(neg, neg_first),
               "load(save(m)) answers or probe counts differ from the original")
    return save_s, load_s, path.stat().st_size


def cold_starts(path, inputs, gate) -> tuple[list[int], list[int]]:
    """Wall ns from spawning `python -m bloommap.cli query` until it prints
    the stored key's correct label, and of the reference child run before
    the first and after each cold start (see pace.py)."""
    key = inputs.pos_keys[0]
    want = inputs.dist.labels[inputs.pos_truth[0]].decode()
    cmd = [sys.executable, "-m", "bloommap.cli", "query", str(path), f"--key={key.decode()}"]
    env = child_env()
    times = []
    refs = [pace.reference_child_ns(cwd=ROOT, env=env, timeout=CHILD_TIMEOUT)]
    for _ in range(COLD_REPS):
        start = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT, env=env) as proc:
            first = proc.stdout.readline()
            times.append(clock() - start)
            try:
                proc.communicate(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        ok = first.strip() == want and proc.returncode == 0
        gate.check(ok, f"CLI cold start printed {first.strip()!r}, expected {want!r}")
        refs.append(pace.reference_child_ns(cwd=ROOT, env=env, timeout=CHILD_TIMEOUT))
    return times, refs


def import_times() -> list[float]:
    code = ("import time; t = time.perf_counter(); import bloommap.cli; "
            "print(time.perf_counter() - t)")
    return [float(run_child([sys.executable, "-c", code], "import timing").stdout)
            for _ in range(IMPORT_REPS)]


def mean_path_weight(bmap, counts) -> float:
    if bmap.tree is not None:
        t = [bmap.tree.path_weight(i) for i in range(bmap.b)]
    else:
        t = list(bmap.simple_ks)
    return sum(c * ti for c, ti in zip(counts, t)) / sum(counts)


def ratio(a, b) -> float:
    return a / b if b else 0.0


# -- the two kinds of run -------------------------------------------------


def end_to_end_run(lib, inputs, args, gate, info, path):
    spec = inputs.spec
    with pace.Pace() as speed:
        bmap, builds = timed_builds(lib, inputs, args.seed, spec.build_reps, gate)
        with speed.paused():
            peak = build_peak_bytes(spec.name, args.seed, gate)
        info["bit_array_bytes"] = (bmap.m + 7) // 8
        notes = [checks.self_test_checker(gate, lib, bmap, inputs.pos_keys[:200],
                                          inputs.pos_truth[:200])]

        gc.collect()
        pos_first, pos_all, pos_chunks, pos_calls = time_lookups(
            bmap, inputs.pos_keys, args.seconds * SHARE["pos"], per_call=True)
        neg_first, neg_all, neg_chunks, _ = time_lookups(
            bmap, inputs.neg_keys, args.seconds * SHARE["neg"], per_call=False)
        check_lookups(gate, inputs, bmap.b, pos_all, neg_all)
        del pos_all, neg_all
        batches, rate_lines = batch_calls(
            lib, bmap, inputs, args.seed, args.seconds * SHARE["batch"], gate)
        notes += rate_lines

        saves, loads, info["file_bytes"] = file_round_trip(
            lib, bmap, path, pos_first, neg_first, inputs, gate)
        with speed.paused():
            colds, cold_refs = cold_starts(path, inputs, gate)

    n = inputs.n
    keys = len(inputs.pos_keys)

    def summarise(scale: bool) -> dict:
        """The metrics at nominal machine speed, or unscaled."""
        def rate(intervals, kernel="lookup"):
            kernel = kernel if scale else None
            return statistics.median(
                c * 1e9 / speed.scaled_ns(t0, t1, kernel) for t0, t1, c in intervals)

        def seconds(intervals, kernel):
            kernel = kernel if scale else None
            return statistics.median(speed.scaled_ns(t0, t1, kernel) for t0, t1 in intervals) / 1e9

        def cold_ns(i):
            ref = (cold_refs[i] + cold_refs[i + 1]) / 2
            return colds[i] * (pace.CHILD_NOMINAL_NS / ref if scale else 1.0)

        # p99 over the sample keys of each key's median latency across the
        # passes; a call the sampler interrupted carries its time and is skipped
        per_key = [[] for _ in range(keys)]
        for i, (t0, t1) in enumerate(pos_calls):
            if not speed.sampled_within(t0, t1):
                per_key[i % keys].append(speed.scaled_ns(t0, t1, "lookup" if scale else None))
        p99_ns = statistics.quantiles([statistics.median(v) for v in per_key if v], n=100)[98]

        return {
            "build_pairs_per_s": n / seconds(builds, spec.build_kernel),
            "build_peak_bytes_per_key": peak / n,
            "bits_per_key": bmap.m / n,
            "lookup_pos_per_s": rate(pos_chunks),
            "lookup_neg_per_s": rate(neg_chunks),
            "lookup_pos_us_p99": p99_ns / 1e3,
            "batch_lookups_per_s": rate(batches),
            "save_s": seconds(saves, "stream"),
            "load_s": seconds(loads, "stream"),
            "setup_s": statistics.median(map(cold_ns, range(len(colds)))) / 1e9,
        }

    values = summarise(scale=True)
    info["machine_speed"] = speed.speed()
    info["unscaled"] = {k: float(f"{v:.6g}") for k, v in summarise(scale=False).items()}
    info["samples"] = {
        "builds": len(builds), "lookup_pos_keys": keys,
        "lookup_pos_passes": len(pos_calls) // keys,
        "lookup_pos_keys_beyond_p99": keys - math.ceil(0.99 * keys),
        "lookup_pos_chunks": len(pos_chunks), "lookup_neg_chunks": len(neg_chunks),
        "batch_calls": len(batches), "saves": len(saves), "loads": len(loads),
        "cold_starts": len(colds), "speed_samples": len(speed.starts),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def traced_run(lib, inputs, args, gate, info, path):
    """Per-layer metrics from one traced pass of each phase, next to an
    untraced pass of the same work for the tracing overhead.

    The pace sampler would land inside spans, so this run times the
    reference kernel between phases instead and scales every per-layer
    time by the median machine speed it saw."""
    untraced = {}
    tracer = spans.Tracer(lib)
    tracer.calibrate()
    info["trace_child_cost_ns"] = round(tracer.child_cost_ns, 1)
    refs = [pace.speed_now()]

    bmap, builds = timed_builds(lib, inputs, args.seed, 1, gate)
    untraced["build"] = (builds[0][1] - builds[0][0]) / 1e9
    refs.append(pace.speed_now())
    bmap = None
    gc.collect()
    with tracer.installed(), tracer.phase("build"):
        bmap = workloads.build(lib, inputs, args.seed)
    info["bit_array_bytes"] = (bmap.m + 7) // 8

    outcomes = {}
    for phase, keys in (("lookup_pos", inputs.pos_keys), ("lookup_neg", inputs.neg_keys)):
        gc.collect()
        start = clock()
        outcomes[phase] = [bmap.query(k) for k in keys]
        untraced[phase] = (clock() - start) / 1e9
        with tracer.installed(), tracer.phase(phase):
            query = bmap.query
            traced = [query(k) for k in keys]
        gate.check(same_answers(traced, outcomes[phase]), f"{phase}: traced answers differ")
        refs.append(pace.speed_now())
    check_lookups(gate, inputs, bmap.b, outcomes["lookup_pos"], outcomes["lookup_neg"])

    # the per-lookup counts must equal the untraced QueryOutcome means exactly
    notes = []
    for phase, outs in outcomes.items():
        for span, field in ((BH, "hash_evals"), (GET, "probes")):
            if not tracer.measured(span, QUERY):
                notes.append(f"{phase}: {span} unmeasured, count check skipped")
                continue
            want = sum(getattr(o, field) for o in outs)
            got = tracer.calls(phase, span)
            gate.check(got == want, f"{phase}: {span} calls {got} != sum of {field} {want}")
            notes.append(f"{phase}: {span} calls {got} == sum of QueryOutcome.{field}")

    labels = inputs.dist.labels
    pairs = [(k, labels[v]) for k, v in zip(inputs.pos_keys[:BATCH], inputs.pos_truth)]
    gc.collect()
    start = clock()
    lib.harness.measure(bmap, pairs, BATCH, seed=args.seed)
    untraced["batch"] = (clock() - start) / 1e9
    with tracer.installed(), tracer.phase("batch"):
        lib.harness.measure(bmap, pairs, BATCH, seed=args.seed)
    refs.append(pace.speed_now())

    start = clock()
    lib.mapfile.save(bmap, path)
    untraced["save"] = (clock() - start) / 1e9
    with tracer.installed(), tracer.phase("save"):
        lib.mapfile.save(bmap, path)
    start = clock()
    lib.mapfile.load(path)
    untraced["load"] = (clock() - start) / 1e9
    with tracer.installed(), tracer.phase("load"):
        loaded = lib.mapfile.load(path)
    gate.check(same_answers([loaded.query(k) for k in inputs.pos_keys[:BATCH]],
                            outcomes["lookup_pos"][:BATCH]),
               "load(save(m)) answers or probe counts differ from the original")
    info["file_bytes"] = path.stat().st_size
    refs.append(pace.speed_now())
    speed = {name: statistics.median(r[name] for r in refs) for name in refs[0]}
    info["machine_speed"] = speed

    notes.append(self_test_missing_target(lib, gate))
    spans_path = RESULTS / f"{inputs.spec.name}-seed{args.seed}-spans.json"
    tracer.dump(spans_path)
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    metrics = layer_metrics(lib, tracer, bmap, inputs, info, untraced)
    return {name: (scaled(name, value, unit, speed), unit)
            for name, (value, unit) in metrics.items()}, notes


TIME_UNITS = {"ns", "us", "ms", "s"}


def scaled(name: str, value, unit: str, speed: dict):
    """A per-layer value at nominal machine speed (see pace.py)."""
    factor = speed["stream" if name.startswith("mapfile.") else "lookup"]
    if value is None:
        return None
    if unit in TIME_UNITS:
        return value * factor
    if unit == "MB/s":
        return value / factor
    return value


def self_test_missing_target(lib, gate) -> str:
    """A wrapper whose target is gone must leave its metrics unmeasured."""
    name = "hashing.HashFamily.no_such_entry_point"
    probe = spans.Tracer(lib, targets=(("hashing", "HashFamily.no_such_entry_point", None),))
    with probe.installed():
        pass
    ok = name in probe.missing and not probe.measured(name)
    gate.check(ok, "tracer self-test: a missing target was not marked unmeasured")
    return "tracer self-test: a missing wrapper target reads as unmeasured"


def layer_metrics(lib, t, bmap, inputs, info, untraced) -> dict:
    n = inputs.n
    ns = t.total_ns
    calls = t.calls
    file_mb = info["file_bytes"] / 1e6

    def per_query(phase, span):
        return ratio(calls(phase, span), calls(phase, QUERY))

    table = [
        ("hashing.base_hash_ns", "ns", (BH,), lambda: ratio(ns(LOOKUPS, BH), calls(LOOKUPS, BH))),
        ("hashing.base_hash_per_pos_lookup", "count", (BH, QUERY),
         lambda: per_query("lookup_pos", BH)),
        ("hashing.base_hash_per_neg_lookup", "count", (BH, QUERY),
         lambda: per_query("lookup_neg", BH)),
        ("hashing.base_hash_per_store", "count", (BH,), lambda: calls("build", BH) / n),
        ("hashing.batch_ns_per_key_fn", "ns", (BHB,),
         lambda: ratio(ns("build", BHB), t.units("build", BHB))),
        ("hashing.batch_calls", "count", (BHB,), lambda: calls("build", BHB)),
        ("hashing.share_of_lookup", "ratio", (BH, QUERY),
         lambda: ratio(ns(LOOKUPS, BH), ns(LOOKUPS, QUERY))),
        ("core.get_bit_per_pos_lookup", "probes", (GET, QUERY),
         lambda: per_query("lookup_pos", GET)),
        ("core.get_bit_per_neg_lookup", "probes", (GET, QUERY),
         lambda: per_query("lookup_neg", GET)),
        ("core.lookup_self_us_pos", "us", (QUERY, BH, GET),
         lambda: ratio(t.self_ns("lookup_pos", QUERY), calls("lookup_pos", QUERY)) / 1e3),
        ("core.lookup_self_us_neg", "us", (QUERY, BH, GET),
         lambda: ratio(t.self_ns("lookup_neg", QUERY), calls("lookup_neg", QUERY)) / 1e3),
        ("core.build_self_s", "s", (BH, BHB, SET, SET_MANY, INDEX_OF),
         lambda: t.layer_self_ns("build", "core", exclude={SET, SET_MANY}) / 1e9),
        ("core.set_many_s", "s", (SET_MANY,), lambda: ns("build", SET_MANY) / 1e9),
        ("core.set_many_positions", "count", (SET_MANY,), lambda: t.units("build", SET_MANY)),
        ("core.store_self_us", "us", (STORE, BH, SET),
         lambda: ratio(t.self_ns("build", STORE), calls("build", STORE)) / 1e3),
        ("core.set_bit_per_store", "count", (STORE, SET),
         lambda: ratio(calls("build", SET), calls("build", STORE))),
        ("core.zero_fraction", "ratio", (), lambda: bmap.bits.zero_fraction()),
        ("distribution.index_of_ns", "ns", (INDEX_OF,),
         lambda: ratio(ns("build", INDEX_OF), calls("build", INDEX_OF))),
        ("distribution.index_of_calls", "count", (INDEX_OF,), lambda: calls("build", INDEX_OF)),
        ("codetree.plan_ms", "ms", (), lambda: t.layer_self_ns("build", "codetree") / 1e6),
        ("codetree.mean_path_weight", "hashes/key", (),
         lambda: mean_path_weight(bmap, inputs.counts)),
        ("mapfile.save_MBps", "MB/s", (), lambda: file_mb / (t.phase_ns["save"] / 1e9)),
        ("mapfile.load_MBps", "MB/s", (), lambda: file_mb / (t.phase_ns["load"] / 1e9)),
        ("mapfile.file_bytes_per_key", "B/key", (), lambda: info["file_bytes"] / n),
        ("bounds.bpk_over_lower_bound", "ratio", (),
         lambda: lib.bounds.space_report(bmap).ratio),
        ("cli.import_s", "s", (), lambda: statistics.median(import_times())),
        ("harness.measure_self_share", "ratio", (MEASURE, QUERY),
         lambda: 1 - ratio(ns("batch", QUERY), ns("batch", MEASURE))),
    ]
    table += [
        (f"trace.overhead_{phase}", "ratio", (),
         lambda phase=phase: t.phase_ns[phase] / 1e9 / untraced[phase] - 1)
        for phase in ("build", "lookup_pos", "lookup_neg", "batch", "save", "load")
    ]
    table.append(("src.lines", "count", (), lambda: info["src_lines"]))
    return {name: (fn() if t.measured(*needs) else None, unit)
            for name, unit, needs, fn in table}


# -- entry point ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="time spent measuring lookups, split between the lookup phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    spec = workloads.SPECS[args.workload]
    inputs = workloads.make_inputs(spec, args.seed, lib.distribution.new_distribution)
    # collections the library triggers need not scan the benchmark's own inputs
    gc.collect()
    gc.freeze()
    if args.memory_pass:
        print(json.dumps(memory_pass(lib, inputs, args.seed)))
        return 0

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{spec.name}-seed{args.seed}.bmap"
    gate = checks.Gate()
    info = {"workload": spec.name, "seed": args.seed, "trace": args.trace, "n": inputs.n,
            **environment()}
    run = traced_run if args.trace else end_to_end_run
    metrics, notes = {}, []
    try:
        metrics, notes = run(lib, inputs, args, gate, info, path)
    except GateFailure as exc:
        notes.append(f"run stopped: {exc}")
    finally:
        path.unlink(missing_ok=True)

    biggest = info.get("bit_array_bytes", 0)
    notes.append(
        f"no cache: the library keeps no cache of its own; the bit array "
        f"({biggest} B) is below L3 ({info['l3_bytes']} B)"
    )
    notes.append("load: one closed-loop caller in one process, one call at a time")
    for key, value in info.items():
        print(f"info {key} = {value}")
    for line in notes:
        print(f"note {line}")
    for line in gate.problems:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "notes": notes, "problems": gate.problems},
                   indent=1))
    print(json.dumps(result))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
