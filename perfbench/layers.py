"""Per-layer metrics of a traced pass.

Times and counts named without a rate are per unit of the workload, as the
median over the units of the traced pass, so they do not depend on how many
units a pass fits in its time. ``_us``/``_ms`` metrics are means per call,
``kev_per_s`` metrics are events over time spent in simulate calls. Times and
rates are scaled to the reference speed (speed.py) by the pass's median speed
factor. A layer that a workload does not use reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from hooks import policy_label

POLICIES = ("jlmu", "slta", "random", "fixed1")
DESK_KEV = [(p, n) for p in ("jlmu", "slta") for n in (50, 100, 200)]
SCALE_KEV = [(p, 1600) for p in POLICIES]

# name -> (unit, better)
PER_LAYER = {
    "cli.table1_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "sim.runs": ("count", "higher"),
    "sim.events": ("count", "higher"),
    "sim.self_s": ("s", "lower"),
    "sim.run_ms_p50": ("ms", "lower"),
    "sim.run_ms_tail": ("ms", "lower"),
    "sim.run_ms_samples": ("count", "higher"),
    "sim.setup_ms": ("ms", "lower"),
    **{f"sim.kev_per_s.{p}.n{n}": ("kev/s", "higher") for p, n in DESK_KEV + SCALE_KEV},
    "sim.paired_diff_se": ("utility", "lower"),
    **{f"policies.calls.{p}": ("count", "lower") for p in POLICIES},
    **{f"policies.self_s.{p}": ("s", "lower") for p in POLICIES},
    **{f"policies.share.{p}": ("frac", "lower") for p in POLICIES},
    "policies.learn_steps.slta": ("count", "lower"),
    "policies.learn_ms.slta": ("ms", "lower"),
    "model.snapshots": ("count", "higher"),
    "model.snapshot_us": ("us", "lower"),
    "model.init_state_ms": ("ms", "lower"),
    "assign.calls": ("count", "higher"),
    "assign.upper_bound_us": ("us", "lower"),
    "assign.optimal_assignment_us": ("us", "lower"),
    "assign.self_s": ("s", "lower"),
    "fluid.steps": ("count", "higher"),
    "fluid.levels": ("count", "lower"),
    "fluid.step_us": ("us", "lower"),
    "fluid.integrate_s": ("s", "lower"),
    "fluid.reflect_s": ("s", "lower"),
    "fluid.rhs_us": ("us", "lower"),
    "fluid.max_residual": ("mass", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "ops_failed_frac": ("frac", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples). With ``beyond`` samples or fewer
    there is no such percentile, and the lowest sample is returned.
    """
    ordered = sorted(values)
    k = max(len(ordered) - beyond - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(workload, tracer, traced, base) -> dict[str, float]:
    """Every PER_LAYER metric except ``ops_failed_frac``."""
    out = {name: 0.0 for name in PER_LAYER}
    units = len(traced.walls)
    spans = tracer.spans
    own = tracer.self_times()
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def per_unit(items, value) -> float:
        sums = [0.0] * units
        for item in items:
            sums[item[0]] += value(item[1])
        return statistics.median(sums)

    def unit_spans(*names):
        return [(sp.unit, sp) for name in names for sp in by_name[name]]

    def dur(sp):
        return sp.dur

    out["cli.table1_s"] = per_unit(unit_spans("cli.table1"), dur)
    out["cli.self_s"] = per_unit(unit_spans("cli.table1"), lambda sp: own[sp.id])

    runs = [r for r in traced.runs if r.span is not None]
    if runs:
        unit_runs = [(r.span.unit, r) for r in runs]
        out["sim.runs"] = per_unit(unit_runs, lambda r: 1)
        out["sim.events"] = per_unit(unit_runs, lambda r: r.metrics.events if r.metrics else 0)
        out["sim.self_s"] = per_unit(unit_runs, lambda r: own[r.span.id])
        run_ms = [r.span.dur * 1e3 for r in runs]
        out["sim.run_ms_p50"] = statistics.median(run_ms)
        out["sim.run_ms_tail"], _, out["sim.run_ms_samples"] = tail(run_ms)
        setup = unit_spans("model.init_state", "policies.bind")
        out["sim.setup_ms"] = sum(sp.dur for _, sp in setup) * 1e3 / len(runs)
        events = defaultdict(float)
        busy = defaultdict(float)
        for r in runs:
            if r.metrics is not None:
                key = (policy_label(r.policy), r.metrics.n)
                events[key] += r.metrics.events
                busy[key] += r.span.dur
        for (p, n) in DESK_KEV + SCALE_KEV:
            if busy.get((p, n)):
                out[f"sim.kev_per_s.{p}.n{n}"] = events[(p, n)] / busy[(p, n)] / 1e3
        out["sim.paired_diff_se"] = paired_diff_se(runs)
        for p in POLICIES:
            mine = [(u, r) for u, r in unit_runs if policy_label(r.policy) == p]
            if not mine:
                continue
            out[f"policies.calls.{p}"] = _mean(r.policy_calls for _, r in mine)
            out[f"policies.self_s.{p}"] = per_unit(mine, lambda r: r.policy_s)
            out[f"policies.share.{p}"] = (
                sum(r.policy_s for _, r in mine) / sum(r.span.dur for _, r in mine)
            )
            if p == "slta":
                out["policies.learn_steps.slta"] = _mean(r.learn_steps for _, r in mine)
                out["policies.learn_ms.slta"] = _mean(r.learn_s * 1e3 for _, r in mine)

    snaps = by_name["model.occupancy_to_q"]
    out["model.snapshots"] = per_unit(unit_spans("model.occupancy_to_q"), lambda sp: 1)
    out["model.snapshot_us"] = _mean(sp.dur * 1e6 for sp in snaps)
    out["model.init_state_ms"] = _mean(sp.dur * 1e3 for sp in by_name["model.init_state"])

    assign = unit_spans("assign.upper_bound", "assign.optimal_assignment")
    out["assign.calls"] = per_unit(assign, lambda sp: 1)
    out["assign.upper_bound_us"] = _mean(sp.dur * 1e6 for sp in by_name["assign.upper_bound"])
    out["assign.optimal_assignment_us"] = _mean(
        sp.dur * 1e6 for sp in by_name["assign.optimal_assignment"]
    )
    out["assign.self_s"] = per_unit(assign, lambda sp: own[sp.id])

    if workload.work_unit == "steps":
        out["fluid.steps"] = statistics.median(traced.work)
        integrate = by_name["fluid.integrate"]
        out["fluid.step_us"] = sum(sp.dur for sp in integrate) / sum(traced.work) * 1e6
        out["fluid.levels"] = max(d["levels"] for d in traced.data)
        out["fluid.max_residual"] = max(d["max_residual"] for d in traced.data)
    out["fluid.integrate_s"] = per_unit(unit_spans("fluid.integrate"), dur)
    out["fluid.reflect_s"] = per_unit(unit_spans("fluid.reflect"), dur)
    out["fluid.rhs_us"] = _mean(sp.dur * 1e6 for sp in by_name["fluid.rhs"])

    factor = statistics.median(traced.speed)
    for name, (unit, _) in PER_LAYER.items():
        if unit in ("s", "ms", "us"):
            out[name] *= factor
        elif unit == "kev/s":
            out[name] /= factor
    out["trace.overhead_frac"] = sum(traced.walls) / sum(base.walls[:units]) - 1.0
    return out


def paired_diff_se(runs) -> float:
    """Per-replication standard error of the paired JLMU - SLTA avg_u
    difference, pooled over the (n, rho) cells: how well common random
    numbers couple the two policies. 0 when no cell has two replications."""
    pairs = defaultdict(dict)
    for r in runs:
        m = r.metrics
        if m is not None and m.policy in ("jlmu", "slta"):
            pairs[(m.n, m.rho, m.seed, m.replication)][m.policy] = m.avg_u
    cells = defaultdict(list)
    for (n, rho, _, _), pair in pairs.items():
        if len(pair) == 2:
            cells[(n, rho)].append(pair["jlmu"] - pair["slta"])
    variances = [statistics.variance(d) for d in cells.values() if len(d) >= 2]
    return math.sqrt(_mean(variances)) if variances else 0.0
