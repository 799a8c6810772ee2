"""Machine-speed normalisation for wall-clock timings.

On a shared virtual machine the same Python code can run 1.4-2x slower for
seconds at a time, as neighbours load the host.  Raw wall times then vary
far more between runs than any useful regression bound.  This module times
fixed reference kernels at regular intervals while the benchmark runs, and
scales each measured interval by a kernel's nominal time over its measured
time around that interval: the result is the time the interval would have
taken with the machine running at nominal speed.

Different code slows down by different amounts, so there are two kernels,
each shaped like the work it gauges:

- "lookup": 64-bit multiply-xor-shift mixing of 16-byte keys, probes into a
  2 MiB bytearray, a dict and a small frozen dataclass per key, like a
  scalar query.  It gauges lookups and the per-key incremental build.
- "stream": a byte-at-a-time 64-bit multiply-xor loop over 16 KiB, a tight
  loop over a small working set like a file checksum.  It gauges save,
  load and the batch builds.  Timed against 30 or more 10^6-pair builds,
  it left their spread at 0.08-0.10 where the lookup kernel left 0.11-0.16.

The kernels are the benchmark's own code and never call the library, so a
library change cannot move them.  A child process (the CLI cold start) is
gauged by a reference child that imports the same kind of modules and
nothing from the library: the cold start is scaled by CHILD_NOMINAL_NS over
the mean time of the reference children run just before and after it.

Raw wall times are kept next to the scaled ones, and the run prints both.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

INTERVAL_S = 0.1         # sampling period while a Pace is active
PAD_NS = 200_000_000     # samples this close to an interval also gauge it

REFERENCE_CHILD = [sys.executable, "-c",
                   "import argparse, dataclasses, fractions, struct, numpy"]
# typical times on a 2-core Xeon VM at 2.0 GHz; they only set the scale
CHILD_NOMINAL_NS = 220_000_000

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_BITS = bytearray(random.Random(2).randbytes(1 << 21))
_NBITS = len(_BITS) * 8
_KEYS = [random.Random(3).randbytes(16) for _ in range(64)]
_STREAM = bytes(range(256)) * 64

clock = time.perf_counter_ns


@dataclass(frozen=True)
class _Answer:
    hits: int
    evals: int


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def lookup_kernel_ns() -> int:
    start = clock()
    hits = 0
    for _ in range(2):
        for key in _KEYS:
            seen = {}
            for j in range(1, 7):
                h = _mix(((j * _GOLD) & _MASK) ^ len(key))
                for i in range(0, 16, 8):
                    h = _mix(h ^ int.from_bytes(key[i : i + 8], "little"))
                seen[j] = h
                pos = (h * _NBITS) >> 64
                hits += (_BITS[pos >> 3] >> (pos & 7)) & 1
            _Answer(hits, len(seen))
    return clock() - start


def stream_kernel_ns() -> int:
    start = clock()
    h = 0xCBF29CE484222325
    for byte in _STREAM:
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return clock() - start


KERNELS = {  # name: (kernel, nominal ns)
    "lookup": (lookup_kernel_ns, 4_000_000),
    "stream": (stream_kernel_ns, 3_000_000),
}


def reference_child_ns(**run_args) -> int:
    """Run the reference child once; returns its wall time in ns."""
    start = clock()
    subprocess.run(REFERENCE_CHILD, check=True, capture_output=True, **run_args)
    return clock() - start


def speed_now() -> dict[str, float]:
    """One sample of each kernel's speed factor (1.0 = nominal)."""
    return {name: nominal / kernel() for name, (kernel, nominal) in KERNELS.items()}


class Pace:
    """Samples the kernels every INTERVAL_S (on SIGALRM) while active.

    Use as a context manager around the timed work.  Time spent inside the
    sampler is subtracted from every interval it falls in.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.factors: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = clock()
        now = speed_now()
        self.starts.append(start)
        self.ends.append(clock())
        for name, factor in now.items():
            self.factors[name].append(factor)

    def _arm(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        self._arm(self.interval_s)
        return self

    def __exit__(self, *exc):
        self._arm(0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    @contextmanager
    def paused(self):
        """Stop sampling for a block that runs child processes, which the
        sampler would compete with."""
        self._arm(0)
        try:
            yield
        finally:
            self._arm(self.interval_s)

    def _window(self, t0: int, t1: int) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def factor(self, t0: int, t1: int, kernel: str) -> float:
        """Mean speed factor of the samples within PAD_NS of [t0, t1], or
        of the nearest one on each side when none is that close."""
        i, j = self._window(t0 - PAD_NS, t1 + PAD_NS)
        if i == j:
            i, j = max(i - 1, 0), j + 1
        return statistics.fmean(self.factors[kernel][i:j])

    def sampled_within(self, t0: int, t1: int) -> bool:
        i, j = self._window(t0, t1)
        return j > i

    def scaled_ns(self, t0: int, t1: int, kernel: str | None) -> float:
        """The interval's wall time minus sampler time, scaled to nominal
        speed by the named kernel, or left unscaled when kernel is None."""
        i, j = self._window(t0, t1)
        busy = sum(self.ends[k] - self.starts[k] for k in range(i, j))
        return (t1 - t0 - busy) * (self.factor(t0, t1, kernel) if kernel else 1.0)

    def speed(self) -> dict[str, float]:
        """Median speed factor of each kernel over the run so far."""
        return {name: round(statistics.median(f), 4) for name, f in self.factors.items()}
