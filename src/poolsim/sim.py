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

A run is split along that line. The event clock draws the event stream once
per system and run, and keeps per block the event times (float64) and which
events are arrivals (bool), with the time integral of the task total. The
walk replays the clock for one policy: it draws the selection stream block by
block, moves the occupancy counts and integrates the aggregate utility.
:func:`coupled_simulate` builds one clock and walks it once per policy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .assign import optimal_assignment, upper_bound
from .model import OccupancyState, QVector, SystemConfig, occupancy_to_q
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
    grid in [0, horizon].
    """

    horizon: float
    warmup: float | None = None
    seed: int = 0
    replication: int = 0
    init: str = "empty"
    selection_slot: int = 0
    sample_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.warmup is not None and not 0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must lie in [0, horizon), got {self.warmup}")
        if self.seed < 0 or self.replication < 0:
            raise ValueError("seed and replication must be >= 0")
        if self.init not in ("empty", "optimal"):
            raise ValueError(f"init must be 'empty' or 'optimal', got {self.init!r}")
        if self.sample_times is not None:
            object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
            times = self.sample_times
            if not all(0 <= t <= self.horizon for t in times):
                raise ValueError(f"sample_times must lie in [0, {self.horizon}]")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("sample_times must be strictly increasing")


@dataclass
class Metrics:
    """Outcome of one run. Averages are per pool over [warmup, horizon].

    ``wall_ms`` times the :func:`simulate` call. A lone run builds its own
    event clock, so that is in it; the runs of one :func:`coupled_simulate`
    cell share a clock built before the first of them, so theirs cover each
    policy's walk alone. ``r_final`` and ``switches`` are read off
    ``rank_history``: the last rank, and the steps after the first.
    """

    policy: str
    n: int
    rho: float
    seed: int
    replication: int
    warmup: float
    avg_u: float
    avg_s: float
    empirical_bound: float
    bound_rho: float
    events: int
    wall_ms: float
    rank_history: list[tuple[float, int]] = field(default_factory=list)
    trajectory: list[tuple[float, QVector]] | None = None

    @property
    def r_final(self) -> int | None:
        return self.rank_history[-1][1] if self.rank_history else None

    @property
    def switches(self) -> int:
        return max(len(self.rank_history) - 1, 0)

    @property
    def bound_gap(self) -> float:
        """Slack of the average-utility ceiling; negative means a violation."""
        return self.empirical_bound - self.avg_u


def init_state(config: SystemConfig, run: RunConfig) -> OccupancyState:
    """Starting occupancies of ``run``. ``empty`` puts every pool at zero.
    ``optimal`` rounds the greedy-fill profile to whole tasks: class totals
    follow the largest-remainder split of ``round(n * rho)`` tasks, and each
    class spreads its total as evenly as possible (all pools within one task
    of each other)."""
    if run.init == "empty":
        return OccupancyState.empty(config.n, config.alpha)
    n = config.n
    assign = optimal_assignment(config.family, config.alpha, config.rho)
    class_mass = assign.q_star.class_mass()
    total = _start_tasks(config, run)
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
    return OccupancyState(config.alpha, counts)


def _start_tasks(config: SystemConfig, run: RunConfig) -> int:
    """Tasks present at time 0: none from the empty start, ``round(n * rho)``
    from the optimal one."""
    return 0 if run.init == "empty" else int(round(config.n * config.rho))


def _admit(config: SystemConfig, run: RunConfig) -> tuple[float, float, float]:
    """The run's resolved warmup, the ceiling at the offered load and the
    events it expects, ``horizon * n * (lam + mu * rho)``.

    Raises ``ValueError`` for a load past the ranked-slot limit (from
    :func:`upper_bound`) and for a run that expects more than ``MAX_EVENTS``
    events; callers admit a run before they draw any of its events.
    """
    n = config.n
    mu = config.mu
    lam = config.lam
    horizon = run.horizon
    warmup = run.warmup
    if warmup is None:
        warmup = 0.0 if run.init == "optimal" else 5.0 / mu
        if warmup >= horizon:
            warmup = 0.0
    bound_rho = upper_bound(config.family, config.alpha, config.rho)
    # Arrivals and, near the offered load, departures each come at rate n * lam.
    expected = horizon * n * (lam + mu * config.rho)
    if not expected <= MAX_EVENTS:
        raise ValueError(
            f"a run of horizon {horizon} at n={n} expects {expected:.3g} events, more "
            f"than {MAX_EVENTS}; refusing to simulate"
        )
    return warmup, bound_rho, expected


def _segment_starts(ends: np.ndarray, start: float, warmup: float) -> np.ndarray:
    """Where the part after the warmup of each segment begins.

    The segments run from ``start`` to ``ends[0]`` and on between
    consecutive ends; a segment weighs the time integrals by ``end - lo``
    when that is positive, which holds exactly when ``end > lo``.
    """
    lo = np.empty_like(ends)
    lo[0] = start
    lo[1:] = ends[:-1]
    return np.maximum(lo, warmup, out=lo)


class _EventClock:
    """The policy-independent part of a run: its event epochs and mass path.

    The task total starts where :func:`init_state` puts it and moves by one
    at every event, whatever the policy, so the event epochs, the arrival
    flags and the mass integral follow from the event stream alone.

    ``blocks`` yields, per block of the event stream, the times of the
    processed events (float64) and whether each is an arrival (bool). It is
    drawn as it is read, so a lone run holds one block at a time; a coupled
    cell of several policies lists it once for all its runs, at 9 bytes an
    event. The rest is set when the last block has been read: ``final`` is
    the weight of the last segment, up to the horizon, in the time
    integrals, ``acc_s`` the time integral of the task total over [warmup,
    horizon], and ``events`` the count of events processed.

    Drawing stops with ``RuntimeError`` once more than ``2 * expected +
    _BLOCK`` events have come short of the horizon, so a stream whose times
    stop advancing cannot run on. No valid run gets there. Every task departs
    at most once, so a run's events number at most ``2 * A + D``: ``A`` is
    its arrivals, Poisson of mean ``expected / 2``, and ``D`` the departures
    of the tasks present at time 0, a binomial of mean at most ``expected /
    2 + 0.5``. That sum would have to pass its mean by ``expected / 2 +
    _BLOCK - 0.5``, which Bernstein's inequality puts below ``exp(-5000)``.
    """

    def __init__(self, config: SystemConfig, run: RunConfig,
                 warmup: float, bound_rho: float, expected: float) -> None:
        self.warmup = warmup
        self.bound_rho = bound_rho
        self.final = 0.0
        self.acc_s = 0.0
        self.events = 0
        self.blocks: Iterable[tuple[np.ndarray, np.ndarray]] = self._draw(config, run, expected)

    def _draw(self, config: SystemConfig, run: RunConfig, expected: float):
        """Only the path of ``S`` and the compensated sum of the mass integral
        go event by event. The rates, gaps and times of a block are whole-array
        operations: ``n * lam + mu * S`` and ``gap / rate`` are one IEEE
        operation per event, and ``np.cumsum`` adds in order, so each time is
        the one a scalar loop over the events computes."""
        mu = config.mu
        horizon = run.horizon
        warmup = self.warmup
        arr_rate = config.n * config.lam
        ev_gen = _stream(run.seed, run.replication, _STREAM_EVENTS)
        s_tot = _start_tasks(config, run)

        acc_s = 0.0
        comp_s = 0.0
        t_last = 0.0
        limit = 2 * expected + _BLOCK
        done = False
        while not done:
            if self.events > limit:
                raise RuntimeError(
                    f"the event clock counted {self.events} events short of the horizon "
                    f"{horizon}, more than twice the {expected:.3g} expected plus {_BLOCK}; "
                    f"its times have stopped advancing"
                )
            gaps = ev_gen.standard_exponential(_BLOCK)
            # The task total before each event of the block, and after its last.
            totals = np.empty(_BLOCK + 1, dtype=np.int64)
            totals[0] = s_tot
            totals[1:] = [
                s_tot := s_tot + 1 if kind * (arr_rate + mu * s_tot) < arr_rate else s_tot - 1
                for kind in memoryview(ev_gen.random(_BLOCK))
            ]
            rates = arr_rate + mu * totals[:-1]
            # With no task and no arrivals the rate is 0 and no event comes.
            steps = np.divide(gaps, rates, out=np.full(_BLOCK, np.inf), where=rates > 0)
            steps[0] += t_last
            times = np.cumsum(steps)
            count = int(np.searchsorted(times, horizon, side="right"))
            flags = totals[1 : count + 1] > totals[:count]
            # Segments end at each event, and the last one at the horizon.
            ends = times[:count]
            if count < _BLOCK:
                done = True
                ends = np.append(ends, horizon)
            # Time integral of the piecewise-constant mass.
            w = ends - _segment_starts(ends, t_last, warmup)
            keep = np.flatnonzero(w > 0)
            # The compensated sum runs in event order; its terms do not depend on it.
            for y in memoryview(totals[keep] * w[keep]):
                y -= comp_s
                tt = acc_s + y
                comp_s = (tt - acc_s) - y
                acc_s = tt
            if done and w[-1] > 0:
                self.final = float(w[-1])
            if count:
                t_last = float(ends[count - 1])
            self.events += count
            yield ends[:count], flags

        self.acc_s = acc_s


def simulate(
    config: SystemConfig,
    policy: Policy | str,
    run: RunConfig,
    hook: Callable[[str, float, OccupancyState, Policy], None] | None = None,
    *,
    _clock: _EventClock | None = None,
) -> Metrics:
    """Run one policy over one sample path and return its metrics.

    A run has two parts. The event clock draws the event stream and holds
    what follows from it alone: the event times, which events are arrivals,
    and the time integral of the task total. The walk then replays those
    events for the policy: it draws the run's selection stream in the same
    blocks, applies each arrival where ``decide`` sends it and each departure
    to the cell the draw picks, and integrates the aggregate utility. A
    ``simulate`` call draws its own clock as it walks it;
    :func:`coupled_simulate` builds one per cell and passes it to each of its
    runs by the private ``_clock`` keyword.

    ``hook(kind, t, state, policy)`` is called after every processed event with
    kind "arrival" or "departure" and the state fully current; it is for tests
    and debugging only and slows the run down considerably.

    Raises :class:`BoundViolation` if the realized average utility lands above
    the ceiling evaluated at the realized average mass, beyond ``BOUND_TOL``,
    ``ValueError`` before any event if the load is past the ranked-slot
    limit or the run expects more than ``MAX_EVENTS`` events,
    ``horizon * n * (lam + mu * rho)``, or after it if the average utility
    or its ceiling is not finite, and ``RuntimeError`` if the event clock's
    times stop advancing.
    """
    if isinstance(policy, str):
        policy = parse_policy(policy)
    started = time.perf_counter()
    if _clock is None:
        _clock = _EventClock(config, run, *_admit(config, run))
    family = config.family
    n = config.n
    horizon = run.horizon
    warmup = _clock.warmup

    state = init_state(config, run)
    policy.bind(state, config)

    sel_gen = _stream(run.seed, run.replication, _STREAM_SELECTION, run.selection_slot)

    # Local bindings for the walk, which moves tasks in place and keeps the
    # counts, class task totals and min-level pointers of OccupancyState
    # exact; s_tot is the task total, a local because every departure reads it.
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
    if tracks:
        notify_push = policy.notify_push
        notify_pop = policy.notify_pop
        apply_learning = policy.apply_learning

    u_agg = state.aggregate_value(family)

    inf = float("inf")
    acc_u = 0.0
    comp_u = 0.0
    t_last = 0.0
    rank_history: list[tuple[float, int]] = []
    if policy.rank is not None:
        rank_history.append((0.0, policy.rank))

    samples = iter((*(run.sample_times or ()), inf))
    next_sample = next(samples)
    trajectory: list[tuple[float, QVector]] | None = None
    if run.sample_times is not None:
        trajectory = []

    for times, flags in _clock.blocks:
        # One selection draw per event of the block, in lockstep with the
        # event stream; the draws past the final event go unused.
        sels = sel_gen.random(_BLOCK)
        if not len(times):
            continue
        # Each event closes the segment since the previous one, weighted by
        # its part after the warmup.
        weights = times - _segment_starts(times, t_last, warmup)
        weights[weights <= 0] = 0.0
        t_last = float(times[-1])
        # Iterating a memoryview yields Python floats and bools, one at a time.
        for te, w, is_arrival, u in zip(
            memoryview(times), memoryview(weights), memoryview(flags), memoryview(sels)
        ):
            # Time integral of the piecewise-constant utility.
            if w:
                y = u_agg * w - comp_u
                tt = acc_u + y
                comp_u = (tt - acc_u) - y
                acc_u = tt
            while next_sample < te:
                trajectory.append((next_sample, occupancy_to_q(state)))
                next_sample = next(samples)
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
            else:
                # The departing task: a class by its task total, then a level
                # j by weight j * N(i, j).
                k = int(u * s_tot)
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
            if hook is not None:
                hook("arrival" if is_arrival else "departure", te, state, policy)

    # The last segment, from the last event to the horizon.
    final = _clock.final
    if final:
        acc_u += u_agg * final - comp_u
    while next_sample <= horizon:
        trajectory.append((next_sample, occupancy_to_q(state)))
        next_sample = next(samples)
    span = horizon - warmup
    avg_u = acc_u / (n * span)
    avg_s = _clock.acc_s / (n * span)
    empirical_bound = upper_bound(family, config.alpha, avg_s)
    wall_ms = (time.perf_counter() - started) * 1e3

    metrics = Metrics(
        policy=policy.name,
        n=n,
        rho=config.rho,
        seed=run.seed,
        replication=run.replication,
        warmup=warmup,
        avg_u=avg_u,
        avg_s=avg_s,
        empirical_bound=empirical_bound,
        bound_rho=_clock.bound_rho,
        events=_clock.events,
        wall_ms=wall_ms,
        rank_history=rank_history,
        trajectory=trajectory,
    )
    if not (math.isfinite(avg_u) and math.isfinite(empirical_bound)):
        raise ValueError(f"policy {policy.name} averaged utility {avg_u} under a ceiling "
                         f"of {empirical_bound}: the utilities overflow float64")
    if not metrics.bound_gap >= -BOUND_TOL:  # a NaN gap fails too
        raise BoundViolation(
            f"average utility {avg_u} exceeds its ceiling {empirical_bound} "
            f"(policy {policy.name}, n={n}, seed={run.seed}, rep={run.replication})"
        )
    return metrics


def coupled_simulate(
    config: SystemConfig, policies: Sequence[Policy | str], run: RunConfig
) -> list[Metrics]:
    """Run several policies on the same event epochs and mass path.

    Every policy replays the identical event stream, drawn once into one
    event clock that all the runs share; selections come from a per-policy
    substream whose slot is the policy's position in the list. Each run is
    one :func:`simulate` call, and its metrics equal those of a lone
    ``simulate`` with that selection slot.
    """
    clock = _EventClock(config, run, *_admit(config, run))
    if len(policies) > 1:
        clock.blocks = list(clock.blocks)
    return [
        simulate(config, policy, replace(run, selection_slot=slot), _clock=clock)
        for slot, policy in enumerate(policies)
    ]


def batch_means(values: Iterable[float]) -> tuple[float, float]:
    """Mean and its standard error from per-batch averages.

    Both are formed on the averages scaled by the power of two that brings the
    largest magnitude into [0.5, 1), so no sum or square overflows; scaling by
    a power of two and undoing it is exact.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least two batches")
    exp = math.frexp(float(np.abs(arr).max()))[1]
    arr = np.ldexp(arr, -exp)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size))
    return math.ldexp(float(arr.mean()), exp), math.ldexp(se, exp)
