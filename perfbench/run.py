"""poolsim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk|scale|numerics --seed N \
        --seconds S --trace 0|1

Run from the root of a poolsim checkout; the program is imported from its
``src/`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics, taken from a traced replay of
the units of an untraced pass. Lines before it print every metric with its
unit, the failed checks and a provenance block. The full result, and the
trace's spans, are written to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_UNITS = 2
MAX_UNITS = 1000


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import poolsim from it."""
    pkg = ROOT / "src" / "poolsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no poolsim package at {pkg}; run from a poolsim checkout")
    sys.path.insert(0, str(pkg.parent))
    import poolsim

    if Path(poolsim.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported poolsim from {poolsim.__file__}, not {pkg}")


@dataclass
class Pass:
    """Timings and check outcomes of one pass over the units of a workload.

    ``walls`` and ``cpus`` are at the reference speed (see speed.py),
    ``raw_walls`` as measured, ``speed`` the factor between them."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    work: list[int] = field(default_factory=list)
    runs: list = field(default_factory=list)
    data: list = field(default_factory=list)


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(workload, inputs, ledger, seconds: float, tracer=None, units: int | None = None) -> Pass:
    """Run units until ``seconds`` have passed (at least MIN_UNITS), or exactly
    ``units`` of them. Only ``run_unit`` is timed; checks run after it."""
    from hooks import SimHooks
    from speed import Speedometer

    p = Pass()
    timed = []
    with SimHooks(tracer) as hooks, Speedometer() as speed:
        start = time.perf_counter()
        unit = 0
        while unit < MAX_UNITS:
            if units is None:
                if unit >= MIN_UNITS and time.perf_counter() - start >= seconds:
                    break
            elif unit >= units:
                break
            if tracer is not None:
                tracer.unit = unit
            mark = speed.mark()
            c0 = _cpu()
            try:
                outputs = workload.run_unit(inputs, unit, tracer, hooks)
            except Exception as exc:
                ledger.op(f"unit {unit}", [f"{type(exc).__name__}: {exc}"])
                break
            timed.append((mark, time.perf_counter() - mark, _cpu() - c0))
            p.runs += outputs.get("runs", [])
            p.work.append(workload.check_unit(inputs, outputs, ledger, p.data))
            unit += 1
    for mark, wall, cpu in timed:
        p.raw_walls.append(wall)
        wall, cpu, factor = speed.measure(mark, wall, cpu)
        p.walls.append(wall)
        p.cpus.append(cpu)
        p.speed.append(factor)
    workload.finish(inputs, ledger, p.data)
    return p


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter to the end of set-up
    (imports and input generation), SETUP_PROBES times, at reference speed."""
    from speed import Speedometer

    launches = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    with Speedometer() as speed:
        for _ in range(SETUP_PROBES):
            mark = speed.mark()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
                ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
                line = proc.stdout.readline() if ready else b""
                launches.append((mark, time.perf_counter() - mark))
                if not ready:
                    proc.kill()
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            if line.strip() != b"ready" or proc.returncode != 0:
                sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return [speed.measure(mark, elapsed, 0.0)[0] for mark, elapsed in launches]


def provenance(args) -> dict:
    import numpy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git_state(),
        "src_sha256": digest.hexdigest(),
    }


def _git_state() -> dict:
    """Commit and dirtiness, when the checkout is itself a git work tree."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("checkout is not the top of a git work tree")
        return {
            "git_commit": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def end_to_end(p: Pass, setup: list[float]) -> dict:
    rates = [w / t / 1e3 for w, t in zip(p.work, p.walls)]
    return {
        "wall_s": (statistics.median(p.walls), "s"),
        "cpu_s": (statistics.median(p.cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "kops_per_s": (statistics.median(rates), "kop/s"),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    load_program()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0
    prov = provenance(args)
    if hasattr(os, "sched_setaffinity"):
        # Speed probes, units and set-up launches all run on one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from layers import PER_LAYER_UNITS, layer_metrics
    from spans import Tracer
    from workloads import Ledger

    setup = measure_setup(args.workload, args.seed)
    inputs = workload.setup(args.seed)
    ledger = Ledger()
    tracer = None
    if args.trace:
        base = run_pass(workload, inputs, ledger, args.seconds / 2)
        tracer = Tracer()
        traced = run_pass(workload, inputs, ledger, 0.0, tracer, units=len(base.walls))
        p = traced
    else:
        p = run_pass(workload, inputs, ledger, args.seconds)
    if not p.walls:
        print("\n".join(ledger.failures), file=sys.stderr)
        sys.exit("perfbench: no unit completed")

    failed = len(ledger.failures)
    if args.trace:
        values = layer_metrics(workload, tracer, traced, base)
        values["ops_failed_frac"] = failed / ledger.attempted
        metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = end_to_end(p, setup)

    print(f"poolsim benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} units={len(p.walls)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        alias = "kev_per_s" if workload.work_unit == "events" else "fluid_steps_per_s"
        scale = 1.0 if alias == "kev_per_s" else 1e3
        print(f"  {alias:36s} {metrics['kops_per_s'][0] * scale:14.6g} "
              f"{'kev/s' if scale == 1.0 else '1/s'}")
        print(f"  {'raw_wall_s':36s} {statistics.median(p.raw_walls):14.6g} s "
              f"(as measured; host speed factor median {statistics.median(p.speed):.4g})")
        print(f"  {'ops_failed_frac':36s} {failed / ledger.attempted:14.6g} "
              f"({failed} failed of {ledger.attempted} attempted)")
    for message in ledger.failures[:20]:
        print(f"  FAILED {message}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        **result, "provenance": prov, "failures": ledger.failures,
        "unit_wall_s": p.walls, "unit_cpu_s": p.cpus, "unit_work": p.work,
        "unit_raw_wall_s": p.raw_walls, "unit_speed_factor": p.speed,
        "setup_probe_s": setup,
    }, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
