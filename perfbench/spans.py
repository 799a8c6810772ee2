"""Runtime tracing of the library's public entry points.

Only the traced run installs this.  Each wrapper records a span (id,
parent id, name, phase, start, end) and adds its duration to its parent's
child time, so a span's self time is its duration minus what its direct
children cover.  The cost a wrapper adds around each child call would
otherwise land in the parent's time; calibrate() measures it.  Self
times subtract it once per direct child, totals once per descendant.  Spans stay in memory:
totals per (phase, name) are exact, and the first KEEP span records of
each (phase, name) are kept verbatim for the spans file written at the
end of the run.  A target that no
longer exists is listed as missing; metrics that need it read as
unmeasured (None) instead of failing.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager

KEEP = 1000

# (module, attribute path, work units per call or None)
TARGETS = (
    ("hashing", "HashFamily.base_hash", None),
    ("hashing", "HashFamily.base_hash_batch", lambda args: args[2].shape[0]),
    ("core", "BitArray.get_bit", None),
    ("core", "BitArray.set_bit", None),
    ("core", "BitArray.set_many", lambda args: len(args[1])),
    ("distribution", "ValueDistribution.index_of", None),
    ("codetree", "build_alphabetic_tree", None),
    ("codetree", "assign_offsets", None),
    ("codetree", "assign_hash_counts", None),
    ("codetree", "certify_error_bounds", None),
    ("codetree", "refresh_base_starts", None),
    ("codetree", "compute_geometry", None),
    ("core", "BloomMap.store", None),
    ("core", "BloomMap.query", None),
    ("core", "BloomMap.freeze", None),
    ("core", "build_tree", None),
    ("core", "build_simple", None),
    ("core", "plan_tree_map", None),
    ("mapfile", "save", None),
    ("mapfile", "load", None),
    ("harness", "measure", None),
)


class Tracer:
    """Installs span-recording wrappers on the library's entry points."""

    def __init__(self, lib, targets=TARGETS):
        self._lib = lib
        self._targets = targets
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._stack = [[0, 0, 0, 0]]  # [child_ns, span_id, children, descendants]
        self._phase = "-"
        # calls, total, self, units, children, descendants per (phase, name)
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.child_cost_ns = 0.0
        self.records: list[tuple] = []
        self.phase_ns: dict[str, int] = {}
        self.missing: set[str] = set()

    # -- installing wrappers --------------------------------------------

    def install(self) -> None:
        for module, path, units in self._targets:
            name = f"{module}.{path}"
            owner = getattr(self._lib, module, None)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, units))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _wrap(self, name, fn, units):
        stack, stats, records, ids = self._stack, self.stats, self.records, self._ids
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame = [0, next(ids), 0, 0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                parent[2] += 1
                parent[3] += 1 + frame[3]
                key = (tracer._phase, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0, 0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                st[4] += frame[2]
                st[5] += frame[3]
                if units is not None:
                    st[3] += units(args)
                if st[0] <= KEEP:
                    records.append((frame[1], parent[1], name, tracer._phase, start, end))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def phase(self, name: str):
        """A root span for one benchmark phase; library spans nest under it."""
        self._phase = name
        frame = [0, next(self._ids), 0, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._phase = "-"
            self.phase_ns[name] = self.phase_ns.get(name, 0) + end - start
            self.records.append((frame[1], 0, f"phase.{name}", name, start, end))

    def calibrate(self, reps: int = 20_000) -> None:
        """Measure the wrapper cost charged to a parent per child call."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop, None)
        self._stack.append([0, 0, 0, 0])
        start = time.perf_counter_ns()
        for _ in range(reps):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(reps):
            wrapped()
        traced = time.perf_counter_ns() - start
        self._stack.pop()
        inner = self.stats.pop(("-", "calibration"))[1]
        self.records = [r for r in self.records if r[2] != "calibration"]
        self.child_cost_ns = max(0.0, (traced - bare - inner) / reps)

    # -- reading totals ---------------------------------------------------

    def measured(self, *names: str) -> bool:
        return not any(n in self.missing for n in names)

    def _stats(self, phases):
        if isinstance(phases, str):
            phases = (phases,)
        return [(name, st) for (p, name), st in self.stats.items() if p in phases]

    def _get(self, phases, name, slot) -> int:
        return sum(st[slot] for n, st in self._stats(phases) if n == name)

    def calls(self, phases, name) -> int:
        return self._get(phases, name, 0)

    def total_ns(self, phases, name) -> float:
        return sum(st[1] - self.child_cost_ns * st[5] for n, st in self._stats(phases) if n == name)

    def _self(self, st) -> float:
        return st[2] - self.child_cost_ns * st[4]

    def self_ns(self, phases, name) -> float:
        return sum(self._self(st) for n, st in self._stats(phases) if n == name)

    def units(self, phases, name) -> int:
        return self._get(phases, name, 3)

    def layer_self_ns(self, phases, layer: str, exclude=()) -> float:
        """Self time of every span of one layer (module), minus excluded names."""
        return sum(
            self._self(st) for name, st in self._stats(phases)
            if name.split(".")[0] == layer and name not in exclude
        )

    def dump(self, path) -> None:
        path.write_text(json.dumps({
            "span_fields": ["id", "parent", "name", "phase", "start_ns", "end_ns"],
            "kept_per_phase_and_name": KEEP,
            "child_cost_ns": self.child_cost_ns,
            "missing_targets": sorted(self.missing),
            "totals": [
                {"phase": p, "name": n, "calls": s[0], "total_ns": s[1],
                 "self_ns": self._self(s), "units": s[3], "children": s[4],
                 "descendants": s[5]}
                for (p, n), s in sorted(self.stats.items())
            ],
            "phase_ns": self.phase_ns,
            "spans": self.records,
        }))
