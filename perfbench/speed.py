"""Host speed sampled by a separate process while timed work runs.

On a shared host the same work can run up to twice as slow for seconds at a
time while other tenants load the machine; CPU time stretches with wall time,
so it does not help. A ``Speedometer`` starts a probe process on the same CPU
as the benchmark. Every PERIOD_S it wakes, runs a fixed loop of interpreter
work twice and records the time of the second, warm pass. The probe has its
own interpreter, heap and garbage collector, and its loop fits in the
innermost cache, so what the program allocates or touches does not change it;
``python3 perfbench/speed.py --check`` shows that (see README.md).

``measure`` turns an interval measured in the benchmark into reference-speed
seconds: the interval minus the time the probe took the CPU away, scaled by
PROBE_REF_S over the mean probe time inside the interval. The probe never
changes with poolsim, so a faster program still reads faster.

Run as a script, this file is the probe process: it prints ``ready`` after its
first sample, samples until its standard input closes, then prints one
``start end probe`` line per sample.
"""

from __future__ import annotations

import gc
import select
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.02
# Wall seconds of one probe pass on a quiet host (2-core Intel Xeon VM,
# Python 3.11.7). Times are reported at this speed.
PROBE_REF_S = 60e-6


def probe(buf: list, table: dict) -> float:
    """Wall seconds of one pass of float arithmetic and list and dict stores,
    on buffers allocated once."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        j = i & 63
        acc += buf[j] * 0.5 + i
        buf[j] = acc * 1e-9
        table[i & 31] = acc
    return time.perf_counter() - t0


def sample_until_eof(period: float) -> list[tuple[float, float, float]]:
    gc.disable()
    buf, table = [0.0] * 64, {k: 0.0 for k in range(32)}
    samples = []
    while not select.select([sys.stdin], [], [], period)[0]:
        start = time.perf_counter()
        probe(buf, table)  # the first pass after a wake-up runs on cold caches
        dur = probe(buf, table)
        samples.append((start, time.perf_counter(), dur))
        if len(samples) == 1:
            print("ready", flush=True)
    return samples


class Speedometer:
    """Context manager that runs the probe process. ``mark``/``measure``
    bracket an interval; the probe's samples are read when it stops, so
    ``measure`` may be called only after the ``with`` block."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list[tuple[float, float, float]] = []
        self._proc = None

    def __enter__(self) -> "Speedometer":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.period)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # Wait for the first sample: the probe's start-up then competes with
        # no timed interval, and every interval is covered.
        ready, _, _ = select.select([self._proc.stdout], [], [], 60)
        if not ready or self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with {proc.returncode}")
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        if not self.samples:
            raise RuntimeError("speed probe took no samples")

    @staticmethod
    def mark() -> float:
        return time.perf_counter()

    def measure(self, mark: float, wall: float, cpu: float) -> tuple[float, float, float]:
        """(wall, cpu, factor) at reference speed for an interval that began
        at ``mark`` and measured ``wall`` and ``cpu`` seconds. The probe's
        CPU time is its own, so only ``wall`` loses the time it took."""
        end = mark + wall
        inside = [s for s in self.samples if mark <= s[0] < end]
        wall -= sum(min(e, end) - s for s, e, _ in inside)
        if not inside:  # an interval shorter than PERIOD_S
            inside = [min(self.samples, key=lambda s: abs(s[0] - mark))]
        factor = PROBE_REF_S * len(inside) / sum(s[2] for s in inside)
        return wall * factor, cpu * factor, factor


def check(seconds: float = 6.0) -> None:
    """Probe time while this process spins on the clock, then while it
    churns objects through a large heap, alternating second by second on one
    CPU; prints the median of each."""
    import os
    import statistics

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    junk: list = []
    phases = {"spin": [], "churn": []}
    with Speedometer() as speed:
        spans = []
        for k in range(int(seconds)):
            t0 = time.perf_counter()
            name = "churn" if k % 2 else "spin"
            while time.perf_counter() - t0 < 1.0:
                if name == "churn":
                    junk.append({i: [float(i)] for i in range(200)})
                    if len(junk) > 2000:
                        junk = junk[1000:]
            spans.append((name, t0, time.perf_counter()))
    for name, t0, t1 in spans:
        phases[name] += [s[2] for s in speed.samples if t0 <= s[0] < t1]
    for name, values in phases.items():
        print(f"{name:6s} probe median {statistics.median(values) * 1e6:7.2f} us "
              f"over {len(values)} samples")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check()
    else:
        for s in sample_until_eof(float(sys.argv[1])):
            print(f"{s[0]!r} {s[1]!r} {s[2]!r}")
