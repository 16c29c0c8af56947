"""Command line driver.

Subcommands::

    poolsim bound --config cfg.json [--rho R]        greedy ceiling summary
    poolsim assign --config cfg.json [--rho R]       full target profile
    poolsim rank --config cfg.json [--count K]       best-first slot listing
    poolsim simulate --config cfg.json --policy slta --n 200 [--seed S]
                     [--threads W] [--T 180] [--reps 20]
    poolsim fluid --config cfg.json --init empty --T 20 --dt 1e-3
    poolsim table1 [--seed S] [--threads W] --scale 50 100 200 --reps 20
    poolsim suboptimal [--seed S] --a 1 --eps 0.05 --rho 1

A config file describes the system only; every run setting is a flag. Every
subcommand takes ``--out``, and a path that is a directory or sits in a
missing one exits with 2 before any work starts; ``table1`` alone reads a
directory as ``<dir>/table1.csv``. Each command takes only the shared flags
it reads: ``table1`` runs its built-in two-class benchmark and
``suboptimal`` its two-pool counterexample, so neither takes ``--config``,
and only the commands that simulate take ``--seed``. A flag a command does
not read exits with 2.

Exit codes: 0 on success, 2 for configuration or parameter problems, 3 when a
runtime invariant breaks (a run landing above its utility ceiling, or the
fluid integrator rejecting a step).

CSV output uses '.' decimals and 9 significant digits; JSON output is sorted
and indented. Fixed seeds give identical bytes for everything except the
wall-clock column of per-run metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .assign import optimal_assignment
from .config import ConfigError, load_config
from .fluid import IntegratorConfig, equilibrium_profile, integrate_fluid, verify_reflection_system
from .model import FluidSystem, LogQuality, QVector, SystemConfig, UtilityFamily
from .policies import UniformDispatch, parse_policy
from .sim import Metrics, RunConfig, batch_means, coupled_simulate

__all__ = ["main"]

METRIC_COLUMNS = (
    "policy", "n", "rho", "seed", "rep", "avg_u", "avg_s",
    "empirical_bound", "bound_rho", "r_final", "switches", "events", "wall_ms",
)

TABLE1_RHOS = (9.75, 10.0)
TABLE1_HORIZON = 180.0
TABLE1_SCALE = (50, 100, 200)


def _fmt(value: Any) -> str:
    """CSV cell formatting: 9 significant digits for floats, '' for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_text(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or each of its chunks as it is formed, to stdout or ``out``."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out}: {exc.strerror or exc}") from None


def _check_out(out: str | None) -> None:
    """Refuse an output path that is a directory or sits in a missing one,
    before any work starts."""
    if out is None:
        return
    if Path(out).is_dir():
        raise ConfigError("out", f"cannot write {out}: is a directory")
    if not Path(out).parent.is_dir():
        raise ConfigError("out", f"cannot write {out}: no such directory")


def _csv(rows: Iterable[Sequence[Any]], header: Sequence[str]) -> Iterator[str]:
    """The CSV lines of ``header`` and ``rows``, each formed as it is read."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


def _json_text(obj: Any) -> str:
    """Strict JSON: a NaN or infinite value raises ``ValueError`` (exit 2)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load(args: argparse.Namespace) -> tuple[FluidSystem, float | None]:
    """The config's system and SLTA's ``beta``."""
    if not args.config:
        raise ConfigError("", "this command needs --config")
    return load_config(args.config)


def _load_at_rho(args: argparse.Namespace) -> FluidSystem:
    """The config's system, at the load of a single ``--rho`` flag when given."""
    system, _ = _load(args)
    return system if args.rho is None else replace(system, rho=args.rho)


# ---------------------------------------------------------------------------
# assignment commands


def _assignment(args: argparse.Namespace) -> tuple[dict, QVector]:
    """The greedy fill at the command's load: its summary keys and its profile."""
    system = _load_at_rho(args)
    assign = optimal_assignment(system.family, system.alpha, system.rho)
    summary = {
        "rho": system.rho,
        "sigma_star": [assign.sigma_star.cls, assign.sigma_star.level],
        "rank": assign.sigma_index,
        "residual": assign.residual,
        "bound": assign.bound,
    }
    return summary, assign.q_star


def cmd_bound(args: argparse.Namespace) -> int:
    summary, _ = _assignment(args)
    _write_text(_json_text(summary), args.out)
    return 0


def cmd_assign(args: argparse.Namespace) -> int:
    payload, q_star = _assignment(args)
    payload["q_star"] = [[c, l, v] for c, l, v in q_star.to_pairs()]
    payload["mass"] = q_star.mass()
    payload["class_mass"] = q_star.class_mass().tolist()
    _write_text(_json_text(payload), args.out)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    system, _ = _load(args)
    family = system.family
    slots = family.enumerate_ranked(args.count)
    payload = [
        {"rank": k + 1, "cls": c.cls, "level": c.level,
         "marginal": family.marginal(c.cls, c.level - 1)}
        for k, c in enumerate(slots)
    ]
    _write_text(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulation commands


def _metric_row(m: Metrics) -> list:
    # The ``rep`` column is the ``replication`` attribute; the rest share their names.
    return [getattr(m, "replication" if col == "rep" else col) for col in METRIC_COLUMNS]


#: One run cell: a system, a run, the policy names to couple, and SLTA's beta.
Cell = tuple[SystemConfig, RunConfig, Sequence[str], float | None]


def _run_cell(cell: Cell) -> list[Metrics]:
    """Worker: one (system, seed, replication) cell, all policies coupled."""
    system, run, names, beta = cell
    return coupled_simulate(system, [parse_policy(name, beta=beta) for name in names], run)


def _fan_out(cells: list[Cell], threads: int) -> list[list[Metrics]]:
    """Run cells in order; with threads > 1 fan out but keep input order.

    The worker count is capped at the cpu count.
    """
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, cells))


def _runs(systems: Iterable[SystemConfig], seeds: Sequence[int], reps: int,
          names: Sequence[str], beta: float | None, threads: int,
          **run: Any) -> list[list[Metrics]]:
    """The coupled runs of ``names`` for each system, seed and replication, in
    that order; ``run`` holds the other :class:`RunConfig` fields."""
    cells = [(system, RunConfig(seed=seed, replication=rep, **run), names, beta)
             for system in systems for seed in seeds for rep in range(reps)]
    return _fan_out(cells, threads)


def cmd_simulate(args: argparse.Namespace) -> int:
    config, beta = _load(args)
    for name in args.policy:
        try:
            policy = parse_policy(name)
            if isinstance(policy, UniformDispatch):
                policy.check_classes(config.m)
        except ValueError as exc:
            raise ConfigError("policy", str(exc)) from None

    systems = [SystemConfig(n=n, alpha=config.alpha, rho=rho, mu=config.mu, family=config.family)
               for n in args.n for rho in args.rho or [config.rho]]
    runs = _runs(systems, args.seed or [0], args.reps, args.policy, beta, args.threads,
                 horizon=args.T, warmup=args.warmup, init=args.init)
    rows = [_metric_row(m) for cell in runs for m in cell]
    _write_text(_csv(rows, METRIC_COLUMNS), args.out)
    return 0


def table1_system(n: int, rho: float) -> SystemConfig:
    """The two-class log-quality benchmark used by the scaling matrix."""
    family = UtilityFamily((LogQuality(20.0), LogQuality(30.0)))
    return SystemConfig(n=n, alpha=(0.5, 0.5), rho=rho, mu=1.0, family=family)


def cmd_table1(args: argparse.Namespace) -> int:
    scale = args.scale or list(TABLE1_SCALE)
    rhos = args.rho or list(TABLE1_RHOS)
    for flag, values in (("scale", scale), ("rho", rhos)):
        if len(set(values)) < len(values):
            raise ConfigError(flag, f"repeats a value in {values}; each must be given once")
    runs = _runs([table1_system(n, rho) for n in scale for rho in rhos], [args.seed],
                 args.reps, ("jlmu", "slta"), None, args.threads,
                 horizon=args.T, init="optimal")
    # (n, rho, rep) -> (ceiling at the realized mass, jlmu, slta); simulate
    # has already refused any run above its ceiling.
    per_rep = {
        (slta.n, slta.rho, slta.replication): (slta.empirical_bound, jlmu.avg_u, slta.avg_u)
        for jlmu, slta in runs
    }

    header = ["n", "rep"]
    for rho in rhos:
        tag = _fmt(float(rho))
        header += [f"u_star@{tag}", f"jlmu@{tag}", f"slta@{tag}"]
    rows_out: list[list] = []
    for n in scale:
        for rep in range(args.reps):
            row: list = [n, rep]
            for rho in rhos:
                row += per_rep[(n, rho, rep)]
            rows_out.append(row)
        mean_row: list = [n, "mean"]
        for rho in rhos:
            for k in range(3):
                vals = [per_rep[(n, rho, r)][k] for r in range(args.reps)]
                mean_row.append(sum(vals) / len(vals))
        rows_out.append(mean_row)

    _write_text(_csv(rows_out, header), args.out)
    return 0


def cmd_suboptimal(args: argparse.Namespace) -> int:
    from .model import CappedLinear, Linear

    a, eps, rho = args.a, args.eps, args.rho
    if not a > 0:
        raise ConfigError("a", f"must be > 0, got {a}")
    if not 0 < eps < 1:
        raise ConfigError("eps", f"must be in (0, 1), got {eps}")
    if not rho > 0:
        raise ConfigError("rho", f"must be > 0, got {rho}")
    if args.reps < 2:
        raise ConfigError("reps", "need at least 2 replications for error bars")

    # Two pools, one per class; total arrival rate rho * mu splits as n * lam.
    family = UtilityFamily((Linear(a * eps), CappedLinear(a, 1)))
    system = SystemConfig(n=2, alpha=(0.5, 0.5), rho=rho / 2.0, mu=1.0, family=family)

    runs = _runs([system], [args.seed], args.reps, ("jlmu", "fixed:2"), None, 1,
                 horizon=args.T, init="empty")
    # (jlmu, fixed:2) utility per replication, summed over the two pools.
    utils = [(2.0 * jlmu.avg_u, 2.0 * fixed.avg_u) for jlmu, fixed in runs]
    jl_mean, jl_se = batch_means(jl for jl, _ in utils)
    fx_mean, fx_se = batch_means(fx for _, fx in utils)
    report = {
        "a": a, "eps": eps, "rho": rho, "horizon": args.T,
        "reps": args.reps, "seed": args.seed,
        "closed_form_fixed2": a * (1.0 - math.exp(-rho)),
        # Greedy dispatch makes the capped pool an Erlang loss system, busy
        # with probability rho / (rho + 1); the linear pool gets the overflow,
        # of mean rho - rho / (rho + 1) = rho^2 / (rho + 1).
        "jlmu_mean_formula": a * (eps * rho * rho / (rho + 1.0) + rho / (rho + 1.0)),
        "fixed2_mean": fx_mean, "fixed2_se": fx_se,
        "jlmu_mean": jl_mean, "jlmu_se": jl_se,
        "fixed2_beats_jlmu": sum(jl < fx for jl, fx in utils),
    }
    _write_text(_json_text(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# fluid command


def cmd_fluid(args: argparse.Namespace) -> int:
    # The mean-field model needs no pool count.
    system = _load_at_rho(args)
    integ = IntegratorConfig.for_system(system, horizon=args.T, dt=args.dt, levels=args.levels)
    # The reflection check needs every step; otherwise about 400 records.
    record = 1 if args.verify_reflection else max(1, round(integ.horizon / integ.dt / 400))
    integ = replace(integ, record_every=record)

    if args.init == "empty":
        q0 = None
    else:
        q0 = equilibrium_profile(system)
    path = integrate_fluid(system, q0=q0, config=integ)

    def rows() -> Iterator[tuple]:
        # A record with no level above 1e-12 still gets a row, for its mass.
        for k, t in enumerate(path.times.tolist()):
            q = path.profile(k)
            mass = q.mass()
            for cls, j, v in q.to_pairs(1e-12) or [(0, 0, 0.0)]:
                yield t, cls, j, v, mass

    _write_text(_csv(rows(), ("t", "cls", "level", "q", "mass")), args.out)

    if args.verify_reflection:
        report = verify_reflection_system(path)
        payload = {
            "dt": integ.dt,
            "horizon": integ.horizon,
            "slots_checked": len(report.slots),
            "max_flow_residual": max(report.flow_residuals),
            "max_state_residual": max(report.state_residuals),
            "max_residual": report.max_residual,
        }
        sys.stdout.write(_json_text(payload))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _positive_int(text: str) -> int:
    """A count flag's value (``--threads``, ``--reps``, ``--count``): a whole
    number, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolsim",
        description="Task assignment across heterogeneous pools: bounds, policies, fluid model.",
    )
    # One small parent per shared flag, so each command takes only what it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="experiment config (JSON)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=1,
                         help="worker processes for replication fan-out")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[config, out], help="ceiling value and boundary slot")
    p.add_argument("--rho", type=float, default=None, help="override the config load")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("assign", parents=[config, out], help="full greedy-fill profile")
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(handler=cmd_assign)

    p = sub.add_parser("rank", parents=[config, out], help="best-first slot enumeration")
    p.add_argument("--count", "-k", type=_positive_int, default=20, help="slots to print")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("simulate", parents=[config, out, threads],
                       help="finite-system runs, CSV metrics")
    p.add_argument("--policy", action="append", required=True,
                   help="jlmu | slta | random | fixed:<cls>; repeat to couple several")
    p.add_argument("--seed", type=int, action="append",
                   help="base RNG seed (default 0); repeatable")
    p.add_argument("--T", type=float, default=100.0, help="run horizon")
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--reps", type=_positive_int, default=1)
    p.add_argument("--n", type=int, action="append", required=True,
                   help="pool count; repeatable")
    p.add_argument("--rho", type=float, action="append",
                   help="offered load (default: the config's); repeatable")
    p.add_argument("--init", choices=("empty", "optimal"), default="empty")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fluid", parents=[config, out], help="integrate the mean-field model")
    p.add_argument("--init", choices=("empty", "qstar"), default="empty")
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--verify-reflection", action="store_true",
                   help="rebuild the path from its reflected free process and report residuals")
    p.set_defaults(handler=cmd_fluid)

    p = sub.add_parser("table1", parents=[seed, out, threads],
                       help="canned scaling matrix (two-class benchmark)")
    p.add_argument("--scale", type=int, nargs="+", default=None, help="pool counts")
    p.add_argument("--rho", type=float, nargs="+", default=None)
    p.add_argument("--reps", type=_positive_int, default=20)
    p.add_argument("--T", type=float, default=TABLE1_HORIZON)
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("suboptimal", parents=[seed, out], help="two-pool greedy counterexample")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--T", type=float, default=5000.0)
    p.add_argument("--reps", type=int, default=20)
    p.set_defaults(handler=cmd_suboptimal)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # table1 alone reads an existing directory as the place for table1.csv.
    if args.handler is cmd_table1 and args.out and Path(args.out).is_dir():
        args.out = str(Path(args.out) / "table1.csv")
    try:
        _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
