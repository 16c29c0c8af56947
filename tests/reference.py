"""Reference models for checking the package against code of another shape.

A pool-level model of a system's occupancy, for checking the simulator: it
keeps every pool's occupancy, one list per class, and derives counts, class
task totals and lowest occupied levels from those lists, never maintaining
them, so it shares no code or layout with the count-level walk of
:func:`poolsim.sim.simulate`. Its rules are the ones the package states.

The average per-pool utility of a tail profile, formed from the class
utilities' values alone, without the marginal cache of a family, for checking
the bits of :func:`poolsim.assign.upper_bound` and
:func:`poolsim.assign.optimal_assignment`.

A trapezoid integrator of the fluid limit that forms a fresh ``(m, levels +
1)`` gap array per stage, for checking the bits of
:func:`poolsim.fluid.integrate_fluid`, and one of its stages on a profile, for
checking those of :func:`poolsim.fluid.fluid_rhs`.
"""

from __future__ import annotations

import numpy as np

from poolsim.fluid import NO_SLOT, SIGMA_TOL
from poolsim.model import Coordinate, FluidSystem, OccupancyState, QVector, UtilityFamily


class PoolModel:
    """``pools[ci]`` lists the occupancy of every class-``ci+1`` pool."""

    def __init__(self, alpha, pools):
        self.alpha = tuple(alpha)
        self.pools = [list(row) for row in pools]

    @classmethod
    def of(cls, state: OccupancyState) -> "PoolModel":
        """The pools a state's counts describe."""
        return cls(state.alpha, [[v for v, c in enumerate(row) for _ in range(c)]
                                 for row in state.counts])

    def state(self) -> OccupancyState:
        """These pools as an :class:`OccupancyState`."""
        return OccupancyState(self.alpha, [[row.count(v) for v in range(max(row) + 1)]
                                           for row in self.pools])

    def push(self, cls: int, occ: int) -> None:
        """One task joins a class-``cls`` pool holding ``occ`` tasks."""
        row = self.pools[cls - 1]
        if occ not in row:
            raise ValueError(f"class {cls} has no pool holding {occ} tasks")
        row[row.index(occ)] += 1

    def pop(self, cls: int, occ: int) -> None:
        """One task leaves a class-``cls`` pool holding ``occ`` tasks."""
        row = self.pools[cls - 1]
        if occ < 1 or occ not in row:
            raise ValueError(f"class {cls} has no pool holding {occ} tasks to remove")
        row[row.index(occ)] -= 1

    def pick_task(self, u: float) -> tuple[int, int]:
        """Cell ``(cls, occ)`` of the pool holding a uniformly chosen task.

        The draw indexes the tasks listed class by class and, inside a class,
        pool by pool in ascending occupancy.
        """
        tasks = [(ci + 1, v) for ci, row in enumerate(self.pools)
                 for v in sorted(row) for _ in range(v)]
        if not tasks:
            raise ValueError("no task to pick")
        return tasks[min(int(u * len(tasks)), len(tasks) - 1)]

    def tokens(self, thresholds, boundary: Coordinate) -> tuple[list[int], int]:
        """SLTA's token census: per class the green pools, those below the
        class threshold, and the yellow pools, those of the boundary class
        below the boundary level."""
        green = [sum(v < depth for v in row) for row, depth in zip(self.pools, thresholds)]
        yellow = sum(v < boundary.level for v in self.pools[boundary.cls - 1])
        return green, yellow

    def audit(self, state: OccupancyState) -> None:
        """Assert that ``state`` holds exactly these pools."""
        for ci, row in enumerate(self.pools):
            counts = state.counts[ci]
            assert len(counts) > max(row) + 1, "count list does not end past the deepest pool"
            assert counts == [row.count(v) for v in range(len(counts))], "counts disagree"
            assert state.class_sizes[ci] == len(row), "class size disagrees"
            assert state.class_tasks[ci] == sum(row), "class task total is stale"
            assert state.min_occ[ci] == min(row), "min-level pointer is not the lowest pool"
        assert state.total_tasks == sum(map(sum, self.pools))


def audit_tokens(policy, model: PoolModel) -> None:
    """Assert that an SLTA policy's green counters match the model's census."""
    green, _ = model.tokens(policy.thresholds, policy.boundary)
    assert policy._green == green, f"green counters drifted: {policy._green} vs {green}"
    assert policy._total_green == sum(green)


def overall_utility(family: UtilityFamily, q: QVector) -> float:
    """Average per-pool utility of a tail profile.

    Per class, in class order, it adds the utility at 0 tasks times the class
    fraction, then the tail row against the marginals ``u(j) - u(j - 1)``.
    Summing marginals against the tail telescopes to the occupancy-weighted
    utility ``sum_i sum_j u_i(j) * (fraction of class-i pools at exactly j tasks)``.
    """
    total = 0.0
    for u, a, row in zip(family.utilities, q.alpha, q.tail):
        values = [u.value(x) for x in range(q.depth + 1)]
        total += values[0] * float(a)
        if q.depth:
            total += float(np.dot(np.diff(values), row[1:]))
    return total


def rank_precedes(family: UtilityFamily, a: Coordinate, b: Coordinate) -> bool:
    """True when slot ``a`` ranks strictly below slot ``b``: by marginal gain,
    with ties going to the dictionary-smaller slot."""
    da = family.value(a.cls, a.level) - family.value(a.cls, a.level - 1)
    db = family.value(b.cls, b.level) - family.value(b.cls, b.level - 1)
    if da != db:
        return da < db
    return tuple(a) > tuple(b)


# ---------------------------------------------------------------------------
# the trapezoid integrator, stage by stage on 2-D gap arrays


def _reference_active_rank(table: np.ndarray, gaps: np.ndarray) -> int:
    """Smallest rank among the slots whose gap to the level above exceeds
    ``SIGMA_TOL``, read off the ``(m, levels + 1)`` gaps of one padded profile;
    ``NO_SLOT`` when none is open."""
    return int(np.minimum.reduce(table, axis=(-2, -1), where=gaps[:, : table.shape[1]] > SIGMA_TOL,
                                 initial=NO_SLOT))


def _reference_fill(system: FluidSystem, rank: int, levels: int) -> tuple:
    """The drift's record at active rank ``rank``, along the flat row
    ``p.ravel()[1:-1]`` of a padded profile: each class's span of saturated
    slots, the active slot's index, ``mu * j`` per level, the same on the spans
    and their class fraction (1e300 off them)."""
    if rank == NO_SLOT:
        raise RuntimeError("no active slot within the truncated profile; increase the depth")
    depths = system.family.class_counts_before(rank)
    for cls, depth in enumerate(depths, 1):
        if depth >= levels:
            raise RuntimeError(f"class {cls} saturates past the truncation depth {levels}")
    mu_j = np.zeros((system.m, levels + 2))
    mu_j[:, 1:-1] = system.mu * np.arange(1, levels + 1)
    mu_j = mu_j.ravel()[1:-1]
    mu_fill, alpha = np.zeros_like(mu_j), np.full_like(mu_j, 1e300)
    spans = [slice(ci * (levels + 2), ci * (levels + 2) + depth)
             for ci, depth in enumerate(depths)]
    for a, span in zip(system.alpha, spans):
        mu_fill[span], alpha[span] = mu_j[span], a
    cls, level = system.family.slot(rank)
    return spans, (cls - 1) * (levels + 2) + level - 1, mu_j, mu_fill, alpha


def _reference_drift(state: np.ndarray, fill: tuple, lam: float) -> tuple:
    """The drift and the inflow rates of a padded profile: saturated slots
    take what the level below drains, the active slot the rest of ``lam``,
    level ``j`` drains at ``mu * j`` times its gap to level ``j + 1``."""
    spans, slot, mu_j, mu_fill, alpha = fill
    flat = state.ravel()
    upper = flat[2:]
    rates = mu_fill * (alpha - upper)
    drain = mu_j * (flat[1:-1] - upper)
    drift, inflow = np.zeros_like(state), np.zeros_like(state)
    inner = drift.ravel()[1:-1]
    np.subtract(rates, drain, out=inner)
    above = 0.0
    for span in spans:
        above += float(np.add.reduce(rates[span]))
    inner[slot] = (lam - above) - drain[slot]
    inflow.ravel()[1:-1] = rates
    inflow.ravel()[1 + slot] = lam - above
    return drift, inflow


def reference_rhs(system: FluidSystem, q: QVector) -> tuple:
    """One stage of the reference integrator on a profile, the shape of
    :func:`poolsim.fluid.fluid_rhs`: the drift and the inflow, indexed like
    ``q.tail``, and the active slot, on a truncation one level past its depth."""
    levels = q.depth + 1
    state = np.zeros((system.m, levels + 2))
    state[:, : q.depth + 1] = q.tail
    rank = _reference_active_rank(system.family.rank_table(levels),
                                  state[:, :-1] - state[:, 1:])
    drift, inflow = _reference_drift(state, _reference_fill(system, rank, levels), system.lam)
    return drift[:, : q.depth + 1], inflow[:, : q.depth + 1], system.family.slot(rank)


def _reference_project(raw: np.ndarray, alpha: np.ndarray, pour_order) -> tuple:
    """Clamp to [0, alpha], make non-increasing, pour the clamp's loss into the
    best-ranked slots with room or shave its gain off the worst-ranked ones.
    A stage with no negative gap comes back itself. Returns the stage, its
    gaps and the largest move."""
    gaps = raw[:, :-1] - raw[:, 1:]
    if np.minimum.reduce(gaps, axis=None) >= 0.0:
        return raw, gaps, 0.0
    target = float(raw[:, 1:].sum())
    proj = np.minimum.accumulate(np.clip(raw, 0.0, alpha[:, None]), axis=1)
    proj[:, -1] = 0.0
    delta = target - float(proj[:, 1:].sum())
    if abs(delta) > 1e-18:
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
    return proj, proj[:, :-1] - proj[:, 1:], float(np.abs(proj - raw).max())


def reference_integrate(system: FluidSystem, q0: QVector | None, config) -> tuple:
    """The explicit trapezoid integrator of :func:`poolsim.fluid.integrate_fluid`,
    written stage by stage: each stage forms the ``(m, levels + 1)`` gaps of a
    fresh array, reads the active rank off them and projects. It stops
    stepping once a step returns its state byte for byte. Returns the records
    as one array, their times and the largest mass on the last two retained
    levels (and the padding column)."""
    dt, levels, steps = config.dt, config.levels, config.steps
    alpha = np.asarray(system.alpha, dtype=np.float64)
    q = np.zeros((system.m, levels + 2))
    if q0 is not None:
        upto = min(q0.depth, levels)
        q[:, : upto + 1] = q0.tail[:, : upto + 1]
    q[:, 0] = alpha
    table = system.family.rank_table(levels)
    pour_order = [c for c in system.family.enumerate_ranked(system.m * levels)
                  if c.level <= levels]
    fills: dict = {}

    def drift(state, gaps):
        rank = _reference_active_rank(table, gaps)
        if rank not in fills:
            fills[rank] = _reference_fill(system, rank, levels)
        return _reference_drift(state, fills[rank], system.lam)[0]

    records, times = [q], [0.0]
    max_tail = float(np.add.reduce(q[:, levels - 1 :], axis=None))
    gaps = q[:, :-1] - q[:, 1:]
    still = False
    for k in range(1, steps + 1):
        if not still:
            d1 = drift(q, gaps)
            pred, pred_gaps, _ = _reference_project(q + dt * d1, alpha, pour_order)
            d2 = drift(pred, pred_gaps)
            new, gaps, moved = _reference_project(q + (0.5 * dt) * (d1 + d2), alpha, pour_order)
            if moved > 10.0 * dt * system.lam + 1e-15:
                raise RuntimeError(
                    f"projection moved the state by {moved:.3e} at t={k * dt:.6f}; "
                    f"dt={dt} is too large for these dynamics"
                )
            still = new.tobytes() == q.tobytes()
            q = new
            max_tail = max(max_tail, float(np.add.reduce(q[:, levels - 1 :], axis=None)))
        if k % config.record_every == 0 or k == steps:
            records.append(q)
            times.append(k * dt)
    return np.array(records), np.array(times), max_tail
