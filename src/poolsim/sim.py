"""Event-driven simulation of dispatch policies on a finite system.

Pools of one class are exchangeable and service is exponential, so the
per-class occupancy counts ``N(i, j)`` are a complete Markov state, and the run
simulates them directly (the direct method of Gillespie, J. Phys. Chem. 81,
2340, 1977). With ``S`` tasks present the next event comes at total rate
``n * lam + mu * S``; it is an arrival with probability ``n * lam`` over that
rate, and otherwise a departure of a uniformly chosen task.

Runs use two counter-based random streams keyed by (seed, replication,
stream). The event stream gives each event its exponential gap and its
arrival-or-departure draw. It depends on the policy only through ``S``, which
every policy moves the same way, so runs that share the seed and replication
see the same event epochs and the same M/M/infinity mass path whatever the
policy. The selection stream, keyed additionally by a per-policy slot, gives
one draw per event: on an arrival the policy's decision draw, on a departure
the departing cell (a class by its task total, then a level ``j`` by weight
``j * N(i, j)``). Paired policy comparisons are low-variance for that reason.

Both streams are drawn in blocks of ``_BLOCK`` events, generated together and
consumed in lockstep: event ``i`` of a run takes the ``i``-th gap, the
``i``-th arrival-or-departure draw and the ``i``-th selection draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .assign import optimal_assignment, upper_bound
from .model import (
    MAX_ENUMERATION,
    OccupancyState,
    QVector,
    SystemConfig,
    occupancy_to_q,
)
from .policies import Policy, parse_policy

__all__ = [
    "RunConfig",
    "Metrics",
    "BoundViolation",
    "init_state",
    "simulate",
    "coupled_simulate",
    "batch_means",
]

_STREAM_EVENTS = 0
_STREAM_SELECTION = 1

_BLOCK = 1 << 14

#: Tolerance on the average-utility upper bound; anything beyond this is a bug.
BOUND_TOL = 1e-9

#: Hard cap on the expected events of one run, so no config can make it hang.
MAX_EVENTS = 10**8


class BoundViolation(RuntimeError):
    """The realized average utility exceeded its theoretical ceiling."""


def _stream(seed: int, replication: int, stream: int, sub: int = 0) -> np.random.Generator:
    entropy = (seed, replication, stream, sub)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class RunConfig:
    """One simulation run.

    ``warmup`` defaults to 0 when starting from the rounded optimal profile and
    to ``5 / mu`` when starting empty (resolved against the system in
    :func:`simulate`). ``sample_times`` asks for tail-profile snapshots on a
    grid in [0, horizon]; ``batches`` asks for per-batch averages of the mass,
    for batch-means error bars.
    """

    horizon: float
    warmup: float | None = None
    seed: int = 0
    replication: int = 0
    init: str = "empty"
    selection_slot: int = 0
    sample_times: tuple[float, ...] | None = None
    batches: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.warmup is not None and not 0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must lie in [0, horizon), got {self.warmup}")
        if self.seed < 0 or self.replication < 0:
            raise ValueError("seed and replication must be >= 0")
        if self.init not in ("empty", "optimal"):
            raise ValueError(f"init must be 'empty' or 'optimal', got {self.init!r}")
        if self.batches < 0:
            raise ValueError("batches must be >= 0")
        if self.sample_times is not None:
            object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
            times = self.sample_times
            if not all(0 <= t <= self.horizon for t in times):
                raise ValueError(f"sample_times must lie in [0, {self.horizon}]")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("sample_times must be strictly increasing")


@dataclass
class Metrics:
    """Outcome of one run. Averages are per pool over [warmup, horizon]."""

    policy: str
    n: int
    rho: float
    seed: int
    replication: int
    horizon: float
    warmup: float
    avg_u: float
    avg_s: float
    empirical_bound: float
    bound_rho: float
    r_final: int | None
    switches: int
    events: int
    arrivals: int
    wall_ms: float
    rank_history: list[tuple[float, int]] = field(default_factory=list)
    trajectory: list[tuple[float, QVector]] | None = None
    s_batches: list[float] | None = None

    @property
    def bound_gap(self) -> float:
        """Slack of the average-utility ceiling; negative means a violation."""
        return self.empirical_bound - self.avg_u


def init_state(config: SystemConfig, init: str) -> tuple[OccupancyState, int]:
    """Starting occupancies plus the matching initial learning rank.

    ``empty`` puts every pool at zero and the rank at the bottom. ``optimal``
    rounds the greedy-fill profile to whole tasks: class totals follow the
    largest-remainder split of ``round(n * rho)`` tasks, and each class spreads
    its total as evenly as possible (all pools within one task of each other).
    The rank is then the best-ranked slot the rounded state leaves unsaturated,
    which always satisfies the learning policy's starting requirement.
    """
    if init == "empty":
        return OccupancyState.empty(config.n, config.alpha), 1
    if init != "optimal":
        raise ValueError(f"unknown init mode {init!r}")
    n = config.n
    assign = optimal_assignment(config.family, config.alpha, config.rho)
    class_mass = assign.q_star.class_mass()
    total = int(round(n * config.rho))
    base = []
    rem = []
    for ci in range(config.m):
        x = n * float(class_mass[ci])
        b = int(np.floor(x + 1e-9))
        base.append(b)
        rem.append(x - b)
    short = total - sum(base)
    if not 0 <= short <= config.m:
        raise AssertionError(f"rounding drift: {short} tasks unassigned")
    order = sorted(range(config.m), key=lambda ci: (-rem[ci], ci))
    for ci in order[:short]:
        base[ci] += 1
    counts = []
    for size, tasks in zip(config.class_sizes, base):
        low, extra = divmod(tasks, size)
        counts.append([0] * low + [size - extra, extra])
    state = OccupancyState(config.alpha, counts)
    rank = _first_open_rank(config, state)
    return state, rank


def _first_open_rank(config: SystemConfig, state: OccupancyState) -> int:
    """Rank of the best slot not yet filled by every pool of its class.

    Some class-``cls`` pool holds fewer than ``level`` tasks exactly when the
    class's emptiest pool does.
    """
    lowest = [state.min_occupied(cls) for cls in range(1, state.m + 1)]
    for rank in range(1, MAX_ENUMERATION + 1):
        cls, level = config.family.slot(rank)
        if level > lowest[cls - 1]:
            return rank
    raise RuntimeError("no open slot within the enumerable range")


def simulate(
    config: SystemConfig,
    policy: Policy | str,
    run: RunConfig,
    hook: Callable[[str, float, OccupancyState, Policy], None] | None = None,
) -> Metrics:
    """Run one policy over one sample path and return its metrics.

    ``hook(kind, t, state, policy)`` is called after every processed event with
    kind "arrival" or "departure" and the state fully current; it is for tests
    and debugging only and slows the run down considerably.

    Raises :class:`BoundViolation` if the realized average utility lands above
    the ceiling evaluated at the realized average mass, beyond ``BOUND_TOL``,
    and ``ValueError`` before any event if the run expects more than
    ``MAX_EVENTS`` events, ``horizon * n * (lam + mu * rho)``.
    """
    if isinstance(policy, str):
        policy = parse_policy(policy)
    family = config.family
    n = config.n
    mu = config.mu
    lam = config.lam
    horizon = run.horizon
    warmup = run.warmup
    if warmup is None:
        warmup = 0.0 if run.init == "optimal" else 5.0 / mu
        if warmup >= horizon:
            warmup = 0.0
    started = time.perf_counter()
    # The ceiling at the offered load depends on the config alone; taking it
    # first refuses a load past the ranked-slot limit before any event.
    bound_rho = upper_bound(family, config.alpha, config.rho)
    # Arrivals and, near the offered load, departures each come at rate n * lam.
    expected = horizon * n * (lam + mu * config.rho)
    if not expected <= MAX_EVENTS:
        raise ValueError(
            f"a run of horizon {horizon} at n={n} expects {expected:.3g} events, more "
            f"than {MAX_EVENTS}; refusing to simulate"
        )

    state, base_rank = init_state(config, run.init)
    policy.bind(state, config, initial_rank=base_rank)

    ev_gen = _stream(run.seed, run.replication, _STREAM_EVENTS)
    sel_gen = _stream(run.seed, run.replication, _STREAM_SELECTION, run.selection_slot)
    arr_rate = n * lam

    # Local bindings for the event loop. Task moves are applied in place, as
    # OccupancyState.push_task / pick_task / pop_task apply them; s_tot is the
    # task total, kept as a local because every event reads it.
    counts = state.counts
    class_tasks = state.class_tasks
    low = state.min_occ
    s_tot = state.total_tasks
    marg = family.marginals
    # Each marginal cache reaches as deep as its count list; a push that
    # appends a level grows both.
    for cls in range(1, state.m + 1):
        family.marginal(cls, state.max_occupied(cls) + 1)

    decide = policy.decide
    tracks = policy.tracks_tokens
    notify_push = policy.notify_push
    notify_pop = policy.notify_pop
    apply_learning = policy.apply_learning

    u_agg = state.aggregate_value(family)

    inf = float("inf")
    acc_u = 0.0
    comp_u = 0.0
    acc_s = 0.0
    comp_s = 0.0
    t_last = 0.0
    events = 0
    arrivals = 0
    rank_history: list[tuple[float, int]] = []
    if policy.rank is not None:
        rank_history.append((0.0, policy.rank))

    sample_times = run.sample_times or ()
    si = 0
    next_sample = sample_times[0] if sample_times else inf
    trajectory: list[tuple[float, QVector]] | None = None
    if run.sample_times is not None:
        trajectory = []

    batches = run.batches
    if batches:
        batch_acc = [0.0] * batches
        batch_width = (horizon - warmup) / batches

    done = False
    while not done:
        # Both streams give one draw per processed event, so their blocks
        # stay in lockstep; the final event's selection draw goes unused.
        gaps = ev_gen.standard_exponential(_BLOCK).tolist()
        kinds = ev_gen.random(_BLOCK).tolist()
        sels = sel_gen.random(_BLOCK).tolist()
        for gap, kind, u in zip(gaps, kinds, sels):
            rate = arr_rate + mu * s_tot
            te = t_last + gap / rate if rate > 0 else inf
            if te > horizon:
                te = horizon if horizon > t_last else t_last
                done = True
            # Time integral of the piecewise-constant utility and mass.
            if te > warmup and te > t_last:
                lo = t_last if t_last > warmup else warmup
                w = te - lo
                y = u_agg * w - comp_u
                tt = acc_u + y
                comp_u = (tt - acc_u) - y
                acc_u = tt
                y = s_tot * w - comp_s
                tt = acc_s + y
                comp_s = (tt - acc_s) - y
                acc_s = tt
                if batches:
                    b = int((lo - warmup) / batch_width)
                    rest = w
                    edge = warmup + (b + 1) * batch_width
                    while edge < te and b < batches - 1:
                        batch_acc[b] += (edge - lo) * s_tot
                        rest -= edge - lo
                        lo = edge
                        b += 1
                        edge += batch_width
                    batch_acc[b if b < batches else batches - 1] += rest * s_tot
            if next_sample < te:
                while si < len(sample_times) and sample_times[si] < te:
                    trajectory.append((sample_times[si], occupancy_to_q(state)))
                    si += 1
                next_sample = sample_times[si] if si < len(sample_times) else inf
            if done:
                break
            is_arrival = kind * rate < arr_rate
            if is_arrival:
                cls, v, delta = decide(state, u)
                ci = cls - 1
                row = counts[ci]
                row[v] -= 1
                if not row[v] and v == low[ci]:
                    low[ci] = v + 1
                if v + 2 == len(row):
                    row.append(0)
                    family.marginal(cls, v + 2)
                row[v + 1] += 1
                class_tasks[ci] += 1
                s_tot += 1
                u_agg += marg[ci][v]
                if tracks:
                    notify_push(ci, v)
                    if delta:
                        apply_learning(state, delta)
                        rank_history.append((te, policy.rank))
                arrivals += 1
            else:
                # The departing task: a class by its task total, then a level
                # j by weight j * N(i, j).
                k = int(u * s_tot)
                if k == s_tot:
                    k -= 1
                ci = 0
                while k >= class_tasks[ci]:
                    k -= class_tasks[ci]
                    ci += 1
                row = counts[ci]
                v = low[ci]
                k -= v * row[v]
                while k >= 0:
                    v += 1
                    k -= v * row[v]
                row[v] -= 1
                row[v - 1] += 1
                if v - 1 < low[ci]:
                    low[ci] = v - 1
                class_tasks[ci] -= 1
                s_tot -= 1
                u_agg -= marg[ci][v - 1]
                if tracks:
                    notify_pop(ci, v)
            events += 1
            t_last = te
            if hook is not None:
                hook("arrival" if is_arrival else "departure", te, state, policy)

    while si < len(sample_times) and sample_times[si] <= horizon:
        trajectory.append((sample_times[si], occupancy_to_q(state)))
        si += 1
    span = horizon - warmup
    avg_u = acc_u / (n * span)
    avg_s = acc_s / (n * span)
    empirical_bound = upper_bound(family, config.alpha, avg_s)
    wall_ms = (time.perf_counter() - started) * 1e3

    metrics = Metrics(
        policy=policy.name,
        n=n,
        rho=config.rho,
        seed=run.seed,
        replication=run.replication,
        horizon=horizon,
        warmup=warmup,
        avg_u=avg_u,
        avg_s=avg_s,
        empirical_bound=empirical_bound,
        bound_rho=bound_rho,
        r_final=policy.rank,
        switches=max(len(rank_history) - 1, 0),
        events=events,
        arrivals=arrivals,
        wall_ms=wall_ms,
        rank_history=rank_history,
        trajectory=trajectory,
        s_batches=(
            [a / (batch_width * n) for a in batch_acc] if batches else None
        ),
    )
    if metrics.bound_gap < -BOUND_TOL:
        raise BoundViolation(
            f"average utility {avg_u} exceeds its ceiling {empirical_bound} "
            f"(policy {policy.name}, n={n}, seed={run.seed}, rep={run.replication})"
        )
    return metrics


def coupled_simulate(
    config: SystemConfig, policies: Sequence[Policy | str], run: RunConfig
) -> list[Metrics]:
    """Run several policies on the same event epochs and mass path.

    Every policy replays the identical event stream; selections come from a
    per-policy substream whose slot is the policy's position in the list.
    """
    return [
        simulate(config, policy, replace(run, selection_slot=slot))
        for slot, policy in enumerate(policies)
    ]


def batch_means(values: Iterable[float]) -> tuple[float, float]:
    """Mean and its standard error from per-batch averages."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least two batches")
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
