"""Deterministic large-system dynamics and their reflection structure.

As the pool count grows, the scaled occupancy profile approaches the solution
of an ordinary differential equation: arrivals keep every slot ranked above
the active slot saturated, the remainder of the arrival rate flows into the
active slot, and each level drains at rate ``mu * level`` times its excess
over the next level. The active slot of a profile is its best-ranked slot
with a strictly positive gap to the level above.

The same dynamics can be written as a chain of one-sided reflections: per
ranked slot, the cumulative inflow past that slot is the upper-barrier
regulator of a free process, and the slot's occupancy is the reflected
process. :func:`verify_reflection_system` checks both identities on an
integrated trajectory.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .assign import optimal_assignment
from .model import Coordinate, FluidSystem, QVector

__all__ = [
    "IntegratorConfig",
    "FluidPath",
    "ReflectionReport",
    "fluid_rhs",
    "integrate_fluid",
    "equilibrium_profile",
    "skorokhod_reflect",
    "verify_reflection_system",
]

SIGMA_TOL = 1e-9
TRUNCATION_WARN = 1e-8

#: Ranks past the deepest active rank that the reflection check also covers.
REFLECTION_MARGIN = 2

#: Records whose gaps the reflection check forms at once to read their ranks.
RANK_BLOCK = 256

#: The rank :func:`_active_rank` reads when no slot is open.
NO_SLOT = np.iinfo(np.int64).max

#: Hard cap on the steps one integration may take, so no horizon can make it hang.
MAX_STEPS = 10**6

#: Caps on the cells one integration steps, ``steps * m * (levels + 2)``, and
#: records. On a shared 2-core x86 host the first allows 4.5 s of stepping at
#: depth 40,000 (2499 steps), while at depth 39 the step cap comes first, at
#: 28 s; the second allows 80 MB of records: ``poolsim fluid --T 120
#: --verify-reflection`` records 79 MB and peaks at 127 MB of resident memory.
MAX_CELLS = 2 * 10**8
MAX_RECORDED_CELLS = 10**7


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator settings: step size, truncation depth, horizon, recording stride."""

    dt: float
    levels: int
    horizon: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        if self.levels < 2:
            raise ValueError("need at least two levels of truncation")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        # ceil(x) > MAX_STEPS exactly when x > MAX_STEPS; x may overflow to inf.
        if self._step_ratio() > MAX_STEPS:
            raise ValueError(
                f"horizon {self.horizon} at dt {self.dt} needs more than {MAX_STEPS} "
                "steps; refusing to integrate"
            )

    def _step_ratio(self) -> float:
        return self.horizon / self.dt - 1e-9

    @property
    def steps(self) -> int:
        """Number of steps to cover the horizon: at least one, since the
        horizon is positive."""
        return max(1, int(math.ceil(self._step_ratio())))

    @classmethod
    def for_system(
        cls, system: FluidSystem, horizon: float, dt: float | None = None,
        levels: int | None = None, record_every: int = 1,
    ) -> "IntegratorConfig":
        """Defaults: dt = 1e-3 / mu; depth = active-slot level + 10, and at
        least ceil(2 * rho / min alpha)."""
        if dt is None:
            dt = 1e-3 / system.mu
        if levels is None:
            boundary = optimal_assignment(system.family, system.alpha, system.rho).sigma_star
            levels = max(boundary.level + 10, math.ceil(2.0 * system.rho / min(system.alpha)))
        return cls(dt=dt, levels=levels, horizon=horizon, record_every=record_every)


@dataclass(eq=False)
class FluidPath:
    """Integrated trajectory on a uniform grid.

    ``states[k]`` is the padded profile at ``times[k]``: shape (classes,
    levels + 2), column 0 the class fractions, the last column identically 0.
    The path holds every record in the one array ``states``, records x
    classes x (levels + 2) doubles, and nothing else that grows with it but
    ``times``.
    """

    times: np.ndarray
    states: np.ndarray
    system: FluidSystem
    config: IntegratorConfig
    max_tail_mass: float = 0.0

    def profile(self, k: int) -> QVector:
        return QVector(alpha=self.system.alpha, tail=self.states[k][:, :-1])

    def mass(self) -> np.ndarray:
        """Total mass per recorded time."""
        return self.states[:, :, 1:].sum(axis=(1, 2))

    def final(self) -> QVector:
        return self.profile(len(self.times) - 1)


def _pad(q: QVector, levels: int) -> np.ndarray:
    if q.depth > levels:
        extra = float(np.abs(q.tail[:, levels + 1 :]).max(initial=0.0))
        if extra > 0:
            raise ValueError(f"profile carries mass at level {q.depth} beyond truncation {levels}")
    out = np.zeros((q.m, levels + 2))
    upto = min(q.depth, levels)
    out[:, : upto + 1] = q.tail[:, : upto + 1]
    return out


def _gap_row(state: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Write into ``gaps`` and return the flat gap row ``f[:-1] - f[1:]`` of
    padded profiles, ``f = state.ravel()``: class ``ci + 1``'s gap from level
    ``j`` to ``j + 1`` at ``ci * (levels + 2) + j``, and 1e300 where two rows
    meet (and at the end), which is feasible and drains ``0 * 1e300 = 0``."""
    flat = state.ravel()
    np.subtract(flat[:-1], flat[1:], out=gaps[:-1])
    gaps[state.shape[-1] - 1 :: state.shape[-1]] = 1e300
    return gaps


@functools.lru_cache(maxsize=64)
def _rank_row(family, levels: int) -> np.ndarray:
    """``family.rank_table(levels)`` laid out like a flat gap row, each slot on
    the gap to the level above it, with ``NO_SLOT`` past the table; kept
    read-only per family and depth."""
    row = np.hstack([family.rank_table(levels), np.full((family.m, 2), NO_SLOT)]).ravel()
    row.flags.writeable = False
    return row


def _active_rank(ranks: np.ndarray, gaps: np.ndarray, opened=None) -> np.ndarray:
    """Rank of the active slot of each padded profile, read along the last axis
    of its flat gap row and the :func:`_rank_row` of its depth, broadcast to
    match: a slot is open (in the mask ``opened``, if given) when its gap to
    the level above exceeds ``SIGMA_TOL``. Inside a class the rank grows with
    the level, so the smallest rank among open slots is the best-ranked first
    open slot of any class. Reads ``m * levels + 1`` when that slot is ranked
    past the table, and ``NO_SLOT`` when no slot is open, which
    :func:`_check_open` refuses.
    """
    return np.minimum.reduce(ranks, axis=-1, where=np.greater(gaps, SIGMA_TOL, out=opened),
                             initial=NO_SLOT)


def _check_open(rank: int) -> None:
    if rank == NO_SLOT:
        raise RuntimeError("no active slot within the truncated profile; increase the depth")


def _fill_at(system: FluidSystem, rank: int, levels: int, mu_j, rates) -> tuple:
    """The drift's record at active rank ``rank``: the active slot and, along
    the flat row ``p.ravel()[1:-1]`` of a padded profile, the views of
    ``rates`` on each class's non-empty span of slots ranked above the active
    slot, the active slot's index, and two arrays: ``mu_j`` (``mu * j`` at
    level ``j``) on the spans, 0 elsewhere, and their class fraction, 1e300
    elsewhere, so that the rate there, ``0 * (1e300 - q)``, is +0.0 even on a
    level above alpha."""
    _check_open(rank)
    depths = system.family.class_counts_before(rank)
    for cls, depth in enumerate(depths, 1):
        if depth >= levels:
            raise RuntimeError(f"class {cls} saturates past the truncation depth {levels}")
    mu_fill, alpha = np.zeros_like(mu_j), np.full_like(mu_j, 1e300)
    spans = [slice(ci * (levels + 2), ci * (levels + 2) + depth)
             for ci, depth in enumerate(depths)]
    for a, span in zip(system.alpha, spans):
        mu_fill[span], alpha[span] = mu_j[span], a
    cls, level = coord = system.family.slot(rank)
    views = [rates[span] for span in spans if span.stop > span.start]
    return coord, views, (cls - 1) * (levels + 2) + level - 1, mu_fill, alpha


class _Stepper:
    """The stepping state at depth ``levels``: the rank row, the drift's
    record per active rank and every buffer a stage writes, written in place,
    so one is built per integration or call. ``drift(upper, inner)``, the one
    drift, reads a padded profile ``p`` as its gap row, in ``gaps``, and
    ``upper = p.ravel()[2:]``. Along ``p.ravel()[1:-1]`` it writes the drift
    into ``inner`` and each saturated slot's inflow rate into ``rates``, and
    it returns the active slot and its inflow: level ``j`` drains at ``mu *
    j`` times its gap to level ``j + 1``, a saturated slot takes in what the
    level below it drains, and the active slot the rest of ``lam``.
    """

    def __init__(self, system: FluidSystem, levels: int) -> None:
        self.system, self.levels = system, levels
        cells = system.m * (levels + 2)
        self.gaps, self.rates = gaps, rates = np.empty(cells), np.empty(cells - 2)
        opened, inner_gaps = np.empty(cells, dtype=bool), gaps[1:-1]
        mu_j = np.zeros((system.m, levels + 2))
        mu_j[:, 1:-1] = system.mu * np.arange(1, levels + 1)
        mu_j = mu_j.ravel()[1:-1]
        ranks, fills, lam = _rank_row(system.family, levels), {}, system.lam
        add, subtract, multiply = np.add.reduce, np.subtract, np.multiply

        def drift(upper: np.ndarray, inner: np.ndarray) -> tuple[Coordinate, float]:
            rank = int(_active_rank(ranks, gaps, opened))
            fill = fills.get(rank)
            if fill is None:
                fill = fills[rank] = _fill_at(system, rank, levels, mu_j, rates)
            coord, spans, slot, mu_fill, alpha = fill
            multiply(mu_fill, subtract(alpha, upper, out=rates), out=rates)
            multiply(mu_j, inner_gaps, out=inner)
            drain = inner.item(slot)
            subtract(rates, inner, out=inner)
            # Class by class: one pairwise sum over the masked rows would round differently.
            above = 0.0
            for span in spans:
                above += float(add(span))
            inner[slot] = (lam - above) - drain
            return coord, lam - above

        self.drift = drift

    def run(self, q: np.ndarray, dt: float) -> Iterator[np.ndarray]:
        """Yield the state after each trapezoid step of ``dt`` from the padded
        profile ``q``, in two buffers that take turns, ``q`` one of them; stop
        after a step that returns its state byte for byte. The drifts are +0.0
        in columns 0 and -1, so every stage keeps alpha and 0 there."""
        system, levels, gaps, drift = self.system, self.levels, self.gaps, self.drift
        alpha = np.asarray(system.alpha, dtype=np.float64)
        move_cap, half = 10.0 * dt * system.lam + 1e-15, 0.5 * dt
        pour_order = [c for c in system.family.enumerate_ranked(system.m * levels)
                      if c.level <= levels]
        add, subtract, multiply = np.add, np.subtract, np.multiply
        head, junctions = gaps[:-1], gaps[levels + 1 :: levels + 2]
        # Written in place by every step: the drifts, the predictor stage and the
        # states, each with the views of its flat row that a gap row and a drift read.
        d1, d2 = np.zeros_like(q), np.zeros_like(q)
        inner1, inner2 = d1.ravel()[1:-1], d2.ravel()[1:-1]
        (pred, pred_head, pred_tail, pred_upper), now, after = (
            (b, f[:-1], f[1:], f[2:]) for b in (np.empty_like(q), q, np.empty_like(q))
            for f in [b.ravel()])
        _gap_row(q, gaps)
        for k in count(1):
            (q, _, _, upper), (raw, raw_head, raw_tail, _) = now, after
            drift(upper, inner1)
            add(q, multiply(d1, dt, out=pred), out=pred)
            subtract(pred_head, pred_tail, out=head)
            junctions.fill(1e300)
            _project_conserving(pred, alpha, pour_order, gaps)
            drift(pred_upper, inner2)
            # d1 holds (d1 + d2) * dt / 2 until the next step's first stage.
            add(q, multiply(add(d1, d2, out=d1), half, out=d1), out=raw)
            subtract(raw_head, raw_tail, out=head)
            junctions.fill(1e300)
            moved = _project_conserving(raw, alpha, pour_order, gaps)
            if moved > move_cap:
                raise RuntimeError(f"projection moved the state by {moved:.3e} at t={k * dt:.6f}; "
                                   f"dt={dt} is too large for these dynamics")
            now, after = after, now
            yield raw
            if raw.tobytes() == q.tobytes():
                return


def fluid_rhs(system: FluidSystem, q: QVector) -> tuple[np.ndarray, np.ndarray, Coordinate]:
    """Drift of a profile under the large-system dynamics.

    Returns ``(dq, inflow, active)`` where both arrays are indexed like
    ``q.tail`` (class row, level column; column 0 is constant so its drift is
    zero). Summing the drift over all levels gives ``lam - mu * mass`` exactly:
    inflows total ``lam`` by construction and the drain terms telescope.
    """
    levels = q.depth + 1
    padded = _pad(q, levels)
    stepper = _Stepper(system, levels)
    _gap_row(padded, stepper.gaps)
    drift, inflow = np.zeros_like(padded), np.zeros_like(padded)
    active, into = stepper.drift(padded.ravel()[2:], drift.ravel()[1:-1])
    inflow.ravel()[1:-1] = stepper.rates
    inflow[active.cls - 1, active.level] = into
    return drift[:, : q.depth + 1], inflow[:, : q.depth + 1], active


def equilibrium_profile(system: FluidSystem) -> QVector:
    """The stationary profile: the greedy fill at the offered load."""
    return optimal_assignment(system.family, system.alpha, system.rho).q_star


def _project_conserving(
    raw: np.ndarray, alpha: np.ndarray, pour_order: list[Coordinate], gaps: np.ndarray
) -> float:
    """Feasibility projection that redistributes instead of discarding.

    Clamp to [0, alpha] and restore monotonicity across levels, then pour the
    clipped-off mass back into the best-ranked slots that still have room
    (that is where the exact dynamics would have routed it once the boundary
    slot filled mid-step). Writes the projected state over ``raw`` and its
    gap row over ``raw``'s in ``gaps``, and returns the maximum pointwise
    displacement. Mass that finds no room stays lost; the caller checks the
    total against its own running target. ``raw`` has column 0 at ``alpha``
    and a zero last column, so with no negative gap it is feasible already
    and stays as it is, moved by 0.
    """
    if float(np.minimum.reduce(gaps)) >= 0.0:
        return 0.0
    target = float(raw[:, 1:].sum())
    proj = np.minimum.accumulate(np.clip(raw, 0.0, alpha[:, None]), axis=1)
    proj[:, -1] = 0.0
    delta = target - float(proj[:, 1:].sum())
    if abs(delta) > 1e-18:
        # Pour lost mass into the best-ranked slots with room; shave mass the
        # clamp added (clipping negatives) off the worst-ranked ones.
        step, left = (1, delta) if delta > 0.0 else (-1, -delta)
        for cls, level in pour_order if step > 0 else reversed(pour_order):
            ci = cls - 1
            room = step * (proj[ci, level - step] - proj[ci, level])
            if room <= 0.0:
                continue
            move = room if room < left else left
            proj[ci, level] += step * move
            left -= move
            if left <= 1e-18:
                break
    moved = float(np.abs(proj - raw).max())
    raw[...] = proj
    _gap_row(raw, gaps)
    return moved


def integrate_fluid(
    system: FluidSystem, q0: QVector | None, config: IntegratorConfig
) -> FluidPath:
    """Explicit trapezoid steps with a mass-conserving feasibility projection.

    ``q0=None`` starts from the empty profile. Each step takes a predictor
    Euler stage, re-evaluates the drift there, and averages the two slopes;
    after every stage the state is clamped to [0, alpha], made non-increasing
    across levels, and any mass the clamp removed is poured back into the
    best-ranked open slots. The two-stage step keeps the total-mass recursion
    accurate to O(dt^2); the conserving projection keeps it exact through
    boundary crossings. If a projection ever moves the state by more than
    ``10 * dt * lam`` the step size is declared too coarse and the run aborts.
    Mass on the last two retained levels is monitored; if it ever exceeds
    1e-8 a truncation warning is issued. A step reads nothing but the state,
    so once a step returns its state unchanged, byte for byte (-0.0 is not
    +0.0), no step is taken after it and that state fills the later records.
    A run that would step more than ``MAX_CELLS`` cells or record more than
    ``MAX_RECORDED_CELLS`` is refused before it starts. The records are
    written in place into one array allocated for all of them.
    """
    dt, levels, steps, every = config.dt, config.levels, config.steps, config.record_every
    cells = system.m * (levels + 2)
    records = 1 + math.ceil(steps / every)
    if steps * cells > MAX_CELLS or records * cells > MAX_RECORDED_CELLS:
        raise ValueError(f"{steps} steps of {cells} cells, {records} recorded, pass the caps "
                         f"({MAX_CELLS}, {MAX_RECORDED_CELLS}); refusing to integrate")
    states = np.empty((records, system.m, levels + 2))
    times = np.append(np.arange(0, steps, every), steps) * dt
    q = _pad(QVector.zeros(system.alpha, 1) if q0 is None else q0, levels)
    q[:, 0] = system.alpha
    states[0], r = q, 0
    # A stepped state is feasible, so when level levels - 1 is 0 in every
    # class, the monitored sum is +-0 and raises no maximum that is >= 0.
    max_tail = float(np.add.reduce(q[:, levels - 1 :], axis=None))
    watch = range(levels - 1, cells, levels + 2)
    for k, q in zip(range(1, steps + 1), _Stepper(system, levels).run(q, dt)):
        if max_tail < 0.0 or any(map(q.item, watch)):
            tail = float(np.add.reduce(q[:, levels - 1 :], axis=None))
            if tail > max_tail:
                max_tail = tail
        if k % every == 0 or k == steps:
            r += 1
            states[r] = q
    # The state a step returned unchanged fills the later records.
    states[r + 1 :] = q
    if max_tail > TRUNCATION_WARN:
        warnings.warn(f"mass {max_tail:.3e} reached the last truncated levels; results may be "
                      f"biased, increase levels beyond {levels}", RuntimeWarning, stacklevel=2)
    return FluidPath(times=times, states=states, system=system, config=config,
                     max_tail_mass=max_tail)


# ---------------------------------------------------------------------------
# Upper-barrier reflection
# ---------------------------------------------------------------------------


def skorokhod_reflect(x, barrier: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided reflection of the sampled path ``x`` below an upper barrier.

    ``x`` holds the path's values in time order; the sample times do not
    enter the map. Returns the arrays ``(push, reflected)``: the minimal
    non-decreasing process that, subtracted from ``x``, keeps it at or below
    the barrier, and the reflected path ``x - push`` itself. The push at
    sample k is the running maximum of the barrier excess up to k. Requires
    the path to start at or below the barrier.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a non-empty vector of path values")
    if x[0] > barrier:
        raise ValueError(f"path starts at {x[0]}, above the barrier {barrier}")
    push = np.maximum.accumulate(np.maximum(x - barrier, 0.0))
    return push, x - push


@dataclass(eq=False)
class ReflectionReport:
    """Residuals of the reflection identities along one trajectory."""

    slots: list[Coordinate]
    flow_residuals: np.ndarray
    state_residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(max(self.flow_residuals.max(), self.state_residuals.max()))


def verify_reflection_system(path: FluidPath) -> ReflectionReport:
    """Check the chained-reflection form of the dynamics on a trajectory.

    For each ranked slot k up to the deepest rank the trajectory activates
    (plus ``REFLECTION_MARGIN``), accumulate the inflow that passes slot k
    while the active slot sits below it, reconstruct the slot's free process
    from the previous slot's overflow minus its own drain, and compare: the
    overflow must be the push of :func:`skorokhod_reflect` applied to the free
    process at the class fraction, and the slot occupancy the reflected path.

    Integrals use the trapezoid rule; the step in which the active slot moves
    past k contributes only the estimated fraction of the step after the slot
    filled (from its remaining gap and fill rate at the left endpoint), since
    the gated integrand jumps there. Residuals shrink with the step size.

    Beside the path, the check holds the active rank of every record, the
    gaps of ``RANK_BLOCK`` records at a time while it reads those ranks, and
    then, one slot at a time, a few arrays of one double per record.
    """
    system = path.system
    alpha = np.asarray(system.alpha)
    lam, mu = system.lam, system.mu
    states, times = path.states, path.times
    if len(times) < 2:
        raise ValueError("need at least two recorded states")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("reflection checks need a uniform grid; record every step")
    records = len(times)
    levels = states.shape[2] - 2

    # A record no block reads keeps NO_SLOT, which _check_open refuses.
    row = _rank_row(system.family, levels)
    ranks = np.full(records, NO_SLOT)
    for lo in range(0, records, RANK_BLOCK):
        block = states[lo : lo + RANK_BLOCK]
        gaps = _gap_row(block, np.empty(block.size)).reshape(len(block), -1)
        ranks[lo : lo + RANK_BLOCK] = _active_rank(np.broadcast_to(row, gaps.shape), gaps)
    top = int(ranks.max())
    _check_open(top)
    ranked = system.family.enumerate_ranked(top - 1 + REFLECTION_MARGIN)
    slots = list(takewhile(lambda slot: slot.level <= levels, ranked))
    moves = np.flatnonzero(np.diff(ranks))
    left = ranks[moves]

    # theta[s]: the fraction of step s spent before the left endpoint's active
    # slot fills, estimated from its gap and net fill rate. Only read on steps
    # where the active rank moves.
    theta = np.zeros(records - 1)
    flow_res = np.zeros(len(slots))
    state_res = np.zeros(len(slots))
    # Per record: the inflow that reaches the slot (lam less what the slots
    # ranked above it pass on), what those slots pass on, and the previous
    # slot's overflow.
    into, passed, w_prev = np.full(records, lam), np.zeros(records), lam * times
    for idx, (cls, level) in enumerate(slots):
        occupancy, above = states[:, cls - 1, level], states[:, cls - 1, level + 1]
        passed += mu * level * (alpha[cls - 1] - above)
        f = lam - passed
        d = mu * level * (occupancy - above)
        for s in moves[left == idx + 1]:
            gap = alpha[cls - 1] - occupancy[s]
            rate = into[s] - d[s]
            theta[s] = min(max(gap / (rate * dt), 0.0), 1.0) if rate > 0 else 0.5
        open_gate = ranks > idx + 1
        g_l, g_r = open_gate[:-1], open_gate[1:]
        frac = np.where(
            g_l & g_r, 1.0,
            np.where(g_l == g_r, 0.0, np.where(g_r, 1.0 - theta, 0.5)),
        )
        seg = (0.5 * dt) * frac * (f[:-1] + f[1:])
        w = np.concatenate(([0.0], np.cumsum(seg)))
        drained = np.concatenate(
            ([0.0], np.cumsum((0.5 * dt) * (d[:-1] + d[1:])))
        )
        free = states[0, cls - 1, level] + w_prev - drained
        push, reflected = skorokhod_reflect(free, alpha[cls - 1])
        flow_res[idx] = float(np.abs(w - push).max())
        state_res[idx] = float(np.abs(occupancy - reflected).max())
        into, w_prev = f, w
    return ReflectionReport(slots=slots, flow_residuals=flow_res, state_residuals=state_res)
