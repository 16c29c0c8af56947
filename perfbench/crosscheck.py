"""Raw, untraced figures in the shape of ROADMAP's "Measured state" table.

    python3 perfbench/crosscheck.py

Run from the root of a poolsim checkout. It prints, as measured and next to
the host speed factor of speed.py over the same interval: fluid µs per step
from the empty start at T = 2 (numerics' horizon) and T = 20 (ROADMAP's), with
dt = 1e-3; µs per ``upper_bound`` call; and ``simulate`` kev/s at rho = 9.75
from the optimal start for jlmu, slta and random at n = 200 and n = 1600.
Each figure is one timing, so it carries the host's noise.
"""

from __future__ import annotations

import os
import sys
import time

import run


def main() -> int:
    run.load_program()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from poolsim.assign import upper_bound
    from poolsim.cli import table1_system
    from poolsim.fluid import IntegratorConfig, integrate_fluid
    from poolsim.sim import RunConfig, simulate
    from speed import Speedometer

    rows = []

    def timed(name, unit, fn, per):
        mark = speed.mark()
        t0 = time.perf_counter()
        count = fn()
        wall = time.perf_counter() - t0
        rows.append((name, unit, mark, wall, per(count, wall)))

    with Speedometer() as speed:
        system = table1_system(8, 9.75)
        for horizon in (2.0, 20.0):
            cfg = IntegratorConfig.for_system(system, horizon=horizon, dt=1e-3, record_every=1)
            timed(f"fluid T={horizon:g} levels={cfg.levels}", "us/step",
                  lambda: (integrate_fluid(system, None, cfg), round(horizon / 1e-3))[1],
                  lambda steps, wall: wall / steps * 1e6)
        for rho in (9.75, 10.0):
            timed(f"upper_bound rho={rho}", "us",
                  lambda: [upper_bound(system.family, system.alpha, rho) for _ in range(200)],
                  lambda calls, wall: wall / len(calls) * 1e6)
        for n, horizon in ((200, 40.0), (1600, 5.0)):
            big = table1_system(n, 9.75)
            for policy in ("jlmu", "slta", "random"):
                timed(f"simulate {policy} n={n}", "kev/s",
                      lambda: simulate(big, policy, RunConfig(horizon=horizon, seed=1,
                                                              init="optimal")).events,
                      lambda events, wall: events / wall / 1e3)
    for name, unit, mark, wall, value in rows:
        factor = speed.measure(mark, wall, 0.0)[2]
        print(f"{name:28s} {value:9.2f} {unit:8s} (wall {wall:.3f} s, speed factor {factor:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
