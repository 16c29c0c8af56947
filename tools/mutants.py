"""Mutation check of the unit suite.

Each mutant below changes one line of ``src/poolsim``. The runner copies
``src/``, ``tests/`` and ``README.md`` to one temporary tree per worker,
checks that every mutant's text occurs exactly once there, and runs the unit
suite (all of ``tests/`` but the acceptance battery) once unmutated and then
once per mutant, with ``-x`` and a time limit. A mutant the suite fails on is
killed; one it passes survived. An equivalent mutant, which no input can tell
from the original, carries its argument and is expected to survive::

    python tools/mutants.py

The mutants run on ``os.cpu_count()`` workers, each applying its mutant to a
tree of its own; the results are printed in list order. Exits 1 when a
mutant is not killed, or an equivalent one not survived.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Seconds allowed for one suite run; the slowest mutants to die, horizon-snapshot
# and ceiling-check, take 30 to 40 s, about as long as an equivalent one, which
# runs the whole suite.
TIMEOUT = 300.0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in ``path``
    new: str
    equivalent: str = ""  # why no input can kill it


CLI, CONFIG, MODEL = "src/poolsim/cli.py", "src/poolsim/config.py", "src/poolsim/model.py"
ASSIGN, FLUID = "src/poolsim/assign.py", "src/poolsim/fluid.py"
POLICIES, SIM = "src/poolsim/policies.py", "src/poolsim/sim.py"

MUTANTS = [
    # model and assign
    Mutant("ranking-tie", MODEL, "if d > best_d:", "if d >= best_d:"),
    Mutant("fluid-system-rho-zero", MODEL, "and self.rho >= 0)", "and self.rho > 0)"),
    Mutant("qvector-writeable", MODEL,
           "        self.alpha.flags.writeable = self.tail.flags.writeable = False\n", ""),
    Mutant("fill-searchsorted-side", ASSIGN, 'searchsorted(rho, side="right")',
           'searchsorted(rho, side="left")'),
    Mutant("mass-cache-key", MODEL, "if cached_alpha != alpha:",
           "if len(cached_alpha) != len(alpha):"),
    # the cached running mass served when it does not pass the load, or when
    # its last entry only equals it
    Mutant("mass-cache-short", MODEL, "elif mass.item(-1) > rho or", "elif len(mass) or"),
    Mutant("mass-cache-edge", MODEL, "elif mass.item(-1) > rho or",
           "elif mass.item(-1) >= rho or"),
    # the fill records kept across fractions, and the boundary class's row
    # term written over its base term
    Mutant("fill-cache-key", MODEL, "mass, records = mass[:0], {}", "mass = mass[:0]"),
    Mutant("fill-term-index", ASSIGN, "terms[2 * ci + 1] = float(", "terms[2 * ci] = float("),
    # config
    Mutant("config-beta-one", CONFIG, "if not 0 < beta <= 1:", "if not 0 < beta < 1:"),
    Mutant("json-bool-refusal", CONFIG,
           "    if isinstance(value, bool) or not isinstance(value, (int, float)):",
           "    if not isinstance(value, (int, float)):"),
    # policies
    Mutant("jlmu-tie", POLICIES, "if d > best_d:", "if d >= best_d:"),
    Mutant("slta-beta-one", POLICIES, "if not 0 < beta <= 1:", "if not 0 < beta < 1:"),
    Mutant("slta-push-threshold", POLICIES, "if prev_occ + 1 == self._thr[ci]:",
           "if prev_occ == self._thr[ci]:"),
    Mutant("slta-quota", POLICIES, "total_green >= self._quota", "total_green > self._quota"),
    Mutant("slta-class-skip", POLICIES, "if k < green:", "if k <= green:"),
    Mutant("uniform-class-check", POLICIES, "if self.cls is not None and self.cls > m:",
           "if self.cls is not None and self.cls >= m:"),
    # SLTA's default start at rank 1; the starting rank read off the filled
    # slot below the open one, or off a table too shallow for the deepest class
    Mutant("slta-default-rank", POLICIES,
           "_first_open_rank(self._family, state) if initial_rank is None",
           "1 if initial_rank is None"),
    Mutant("open-rank-filled-slot", POLICIES, "int(table[ci, v])", "int(table[ci, v - 1])"),
    Mutant("open-rank-depth", POLICIES, "rank_table(max(low) + 1)", "rank_table(max(low))"),
    Mutant("slta-fallback-pool", POLICIES, "                pool = prev_green\n",
           "                pool = total_green\n",
           equivalent="the branch runs when total_green - prev_green == 0, so the two "
                      "are equal there"),
    # sim
    Mutant("warmup-zero", SIM, "not 0 <= self.warmup < self.horizon",
           "not 0 < self.warmup < self.horizon"),
    Mutant("sample-times-horizon", SIM, "if not all(0 <= t <= self.horizon for t in times):",
           "if not all(0 <= t for t in times):"),
    Mutant("max-events-estimate", SIM, "expected = horizon * n * (lam + mu * config.rho)",
           "expected = horizon * n * lam"),
    Mutant("arrival-draw", SIM, "if kind * (arr_rate + mu * s_tot) < arr_rate",
           "if kind * (arr_rate + mu * s_tot) <= arr_rate",
           equivalent="the two differ only when the uniform draw times the total rate "
                      "equals the arrival rate exactly, an event of probability zero"),
    # the pointer keeps the level it had: an arrival drops the raise, a
    # departure the lowering
    Mutant("arrival-pointer-raise", SIM, "low[ci] = v + 1", "low[ci] = v"),
    Mutant("departure-pointer-lower", SIM, "if v - 1 < low[ci]:", "if v < low[ci]:"),
    Mutant("departure-weight", SIM, "v += 1\n                    k -= v * row[v]",
           "v += 1\n                    k -= row[v]"),
    Mutant("horizon-snapshot", SIM, "while next_sample <= horizon:",
           "while next_sample < horizon:"),
    # the event clock and the per-policy walk
    Mutant("clock-weight-test", SIM, "keep = np.flatnonzero(w > 0)",
           "keep = np.flatnonzero(w != 0)"),
    # each block's times restart at 0, so a run longer than a block never
    # reaches its horizon and the clock's cap refuses it
    Mutant("clock-time-carry", SIM, "steps[0] += t_last", "steps[0] += 0.0"),
    Mutant("clock-rate-after", SIM, "rates = arr_rate + mu * totals[:-1]",
           "rates = arr_rate + mu * totals[1:]"),
    Mutant("walk-warmup-weights", SIM, "        weights[weights <= 0] = 0.0\n", ""),
    Mutant("walk-final-segment", SIM, "final = _clock.final", "final = 0.0"),
    Mutant("walk-block-start", SIM, "t_last = float(times[-1])", "t_last = float(times[0])"),
    # r_final read off the first rank; a run that lands above its ceiling
    # passes the check
    Mutant("r-final-first", SIM, "self.rank_history[-1][1]", "self.rank_history[0][1]"),
    Mutant("ceiling-check", SIM, "metrics.bound_gap >= -BOUND_TOL",
           "metrics.bound_gap >= -math.inf"),
    Mutant("init-remainder-tie", SIM, "key=lambda ci: (-rem[ci], ci)",
           "key=lambda ci: (-rem[ci], -ci)",
           equivalent="n * alpha is within 1e-9 of a whole number and the fill walks at most "
                      "10^6 slots, so every class but the boundary one has a remainder within "
                      "1e-3 of 0 or 1; the shortfall rounds their sum, so the classes that get "
                      "a task and those that do not are at least 0.49 apart, and a tie never "
                      "straddles the cut"),
    # fluid
    Mutant("sigma-tol", FLUID, "SIGMA_TOL = 1e-9", "SIGMA_TOL = 1e-7"),
    Mutant("truncation-warning", FLUID, "if max_tail > TRUNCATION_WARN:",
           "if max_tail > TRUNCATION_WARN * 10:"),
    Mutant("pour-order", FLUID, "in pour_order if step > 0 else reversed(pour_order):",
           "in reversed(pour_order) if step > 0 else pour_order:"),
    Mutant("move-cap", FLUID, "move_cap, half = 10.0 * dt", "move_cap, half = 100.0 * dt"),
    # each slot read off the gap of the level above it
    Mutant("rank-gap-shift", FLUID, "np.hstack([family.rank_table(levels), np.full((family.m, 2)",
           "np.hstack([np.full((family.m, 1), NO_SLOT), family.rank_table(levels), "
           "np.full((family.m, 1)"),
    # the flat gap row: the junction sentinel at 0.0 (only the gap row's own
    # test can tell, since any finite gap >= 0 there steps the same), or,
    # where the stepper writes it after a step, at inf, whose drain 0 * inf
    # is NaN; the sentinel written over the first gap of the next class
    # instead of the junction; the drain read one slot off
    Mutant("junction-zero", FLUID, "gaps[state.shape[-1] - 1 :: state.shape[-1]] = 1e300",
           "gaps[state.shape[-1] - 1 :: state.shape[-1]] = 0.0"),
    Mutant("junction-inf", FLUID, "raw_tail, out=head)\n            junctions.fill(1e300)",
           "raw_tail, out=head)\n            junctions.fill(np.inf)"),
    Mutant("junction-slot", FLUID, "gaps[state.shape[-1] - 1 :: state.shape[-1]] = 1e300",
           "gaps[state.shape[-1] :: state.shape[-1]] = 1e300"),
    Mutant("drain-offset", FLUID, "np.empty(cells, dtype=bool), gaps[1:-1]",
           "np.empty(cells, dtype=bool), gaps[2:]"),
    # a projected stage or step left out of the buffer the next drift reads
    Mutant("projection-write", FLUID, "    raw[...] = proj\n", ""),
    # the sum over a rank's spans skips one-slot spans, not only empty ones
    Mutant("empty-span-filter", FLUID, "if span.stop > span.start]",
           "if span.stop > span.start + 1]"),
    # the cached rank row left writeable
    Mutant("rank-row-writeable", FLUID, "    row.flags.writeable = False\n", ""),
    Mutant("cell-cap", FLUID, "if steps * cells > MAX_CELLS or", "if steps > MAX_CELLS or"),
    Mutant("record-index", FLUID, "states[r] = q", "states[r - 1] = q"),
    # the truncation monitor reads its sum only when the watched level is
    # empty, or skips it while its maximum is still the start's negative sum
    Mutant("monitor-gate-inverted", FLUID, "or any(map(q.item, watch)):",
           "or not any(map(q.item, watch)):"),
    Mutant("monitor-negative-clause", FLUID, "if max_tail < 0.0 or any(", "if any("),
    # the reflection check: a rank block skipped, the gate's half step when
    # no fill rate times the fill, and the gate fractions and inflow carried
    # from slot to slot
    Mutant("rank-block-stride", FLUID, "range(0, records, RANK_BLOCK)",
           "range(0, records, RANK_BLOCK + 1)"),
    Mutant("theta-fallback", FLUID, "if rate > 0 else 0.5", "if rate > 0 else 0.0"),
    Mutant("closing-gate-half", FLUID, "np.where(g_r, 1.0 - theta, 0.5)",
           "np.where(g_r, 1.0 - theta, 0.0)"),
    Mutant("into-carry", FLUID, "rate = into[s] - d[s]", "rate = f[s] - d[s]"),
    # cli
    Mutant("count-flag-floor", CLI, "    if value < 1:", "    if value < 0:"),
    Mutant("suboptimal-reps", CLI, "if args.reps < 2:", "if args.reps < 1:"),
    Mutant("run-order", CLI, "for system in systems for seed in seeds for rep in range(reps)",
           "for system in systems for rep in range(reps) for seed in seeds"),
    # modules a command may never use, loaded again at import
    Mutant("eager-pool-import", CLI, "from dataclasses import replace\n",
           "from concurrent.futures import ProcessPoolExecutor\nfrom dataclasses import replace\n"),
    Mutant("eager-fluid-import", CLI, "from .config import ConfigError, load_config\n",
           "from .config import ConfigError, load_config\nfrom .fluid import IntegratorConfig,"
           " equilibrium_profile, integrate_fluid, verify_reflection_system\n"),
]


def run_suite(tree: Path) -> tuple[str, float]:
    """Run the unit suite in ``tree``: passed, failed or timed out, and seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--basetemp={tree / 'pytest-tmp'}", "tests", "--ignore=tests/test_acceptance.py"]
    started = time.perf_counter()
    # A session of its own, so that a timeout also ends the suite's workers.
    with subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out", time.perf_counter() - started
    return ("passed" if code == 0 else "failed"), time.perf_counter() - started


def copy_tree(tree: Path) -> Path:
    """Copy what the unit suite reads to ``tree``."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
    shutil.copy2(ROOT / "README.md", tree / "README.md")
    return tree


def main() -> int:
    workers = os.cpu_count() or 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="poolsim-mutants-") as tmp:
        trees = [copy_tree(Path(tmp) / str(k)) for k in range(workers)]
        for m in MUTANTS:
            count = (trees[0] / m.path).read_text().count(m.old)
            if count != 1:
                print(f"{m.name}: its text occurs {count} times in {m.path}, not once",
                      file=sys.stderr)
                return 2

        outcome, seconds = run_suite(trees[0])
        print(f"{'unmutated':<24} {outcome:<10} {seconds:6.1f} s", flush=True)
        if outcome != "passed":
            print("the unmutated suite must pass", file=sys.stderr)
            return 2
        free: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for tree in trees:
            free.put(tree)

        def attempt(m: Mutant) -> tuple[str, float]:
            # Take a tree no other run is using, and hand it back restored.
            tree = free.get()
            target = tree / m.path
            original = target.read_text()
            try:
                target.write_text(original.replace(m.old, m.new))
                return run_suite(tree)
            finally:
                target.write_text(original)
                free.put(tree)

        wrong = 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map yields in list order, each result as soon as it and those before it are in.
            for m, (result, seconds) in zip(MUTANTS, pool.map(attempt, MUTANTS)):
                outcome = {"passed": "survived", "failed": "killed"}.get(result, result)
                note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
                print(f"{m.name:<24} {outcome:<10} {seconds:6.1f} s{note}", flush=True)
                wrong += outcome != ("survived" if m.equivalent else "killed")
    print(f"{time.perf_counter() - started:.0f} s on {workers} workers")
    print(f"{len(MUTANTS)} mutants, {wrong} not as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
