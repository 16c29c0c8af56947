"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk --seeds 1 2 3 4 5 [--trace 0]
    python3 perfbench/spread.py --compare first.json second.json

For every metric it prints the median of the per-seed values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json. The
summary is written to ``perfbench/out/spread-<workload>-trace<t>-<label>.json``.
``--compare`` checks that the second summary's medians are not worse than the
first's by more than each bound. Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_seeds(workload: str, seeds: list[int], trace: int) -> dict:
    bench = spec()
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)
    summary = {"workload": workload, "trace": trace, "seeds": seeds, "failed": failed, "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary["metrics"][name] = {
            "median": statistics.median(vals),
            "spread": (q3 - q1) / statistics.median(vals) if statistics.median(vals) else 0.0,
            "values": vals,
        }
    return summary


def report(summary: dict) -> None:
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    print(f"{summary['workload']} trace={summary['trace']} seeds={summary['seeds']} "
          f"failed={summary['failed']}")
    for name, m in summary["metrics"].items():
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if m["spread"] < bound / 3 else ("WITHIN BOUND" if m["spread"] <= bound else "TOO WIDE")
        print(f"  {name:36s} median {m['median']:12.6g}  spread {m['spread']:7.4f}"
              f"  bound {bound if bound is not None else '-'}  {flag}")


def compare(first: dict, second: dict) -> bool:
    ok = True
    for m in spec()["end_to_end"]:
        a = first["metrics"][m["name"]]["median"]
        b = second["metrics"][m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        ok &= verdict == "ok"
        print(f"  {m['name']:20s} {a:12.6g} -> {b:12.6g}  worse by {worse:+.4f} "
              f"(bound {m['bound']})  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        print(f"{first['workload']}: seeds {first['seeds']} -> {second['seeds']}")
        return 0 if compare(first, second) else 1
    if not args.workload or not args.seeds:
        parser.error("--workload and --seeds are required")
    summary = run_seeds(args.workload, args.seeds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spread-{args.workload}-trace{args.trace}-{args.label}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
