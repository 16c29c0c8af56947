import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from poolsim import fluid
from poolsim.assign import optimal_assignment, validate_feasible
from poolsim.fluid import (
    FluidPath,
    MAX_STEPS,
    IntegratorConfig,
    equilibrium_profile,
    fluid_rhs,
    integrate_fluid,
    skorokhod_reflect,
    verify_reflection_system,
)
from poolsim.model import Coordinate, FluidSystem, LogQuality, QVector, UtilityFamily

from conftest import (
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    piecewise_family,
    random_feasible_tail,
    two_class_system,
)
from reference import reference_integrate, reference_rhs


def all_alpha_profile(alpha, depth):
    tail = np.tile(np.asarray(alpha)[:, None], (1, depth + 1))
    return QVector(alpha=np.asarray(alpha), tail=tail)


# ---------------------------------------------------------------------------
# active slot


def test_sigma_of_equilibrium_is_boundary():
    system = two_class_system(8, 9.75)
    q = equilibrium_profile(system)
    assert fluid_rhs(system, q)[2] == Coordinate(2, 12)


def test_sigma_of_empty_is_top_slot():
    system = two_class_system(8, 9.75)
    q = QVector.zeros(TWO_CLASS_ALPHA, 3)
    assert fluid_rhs(system, q)[2] == Coordinate(2, 1)


def test_sigma_single_class_block_fill():
    fam = UtilityFamily((LogQuality(50.0),))
    system = FluidSystem(alpha=(1.0,), rho=6.0, mu=1.0, family=fam)
    tail = np.zeros((1, 8))
    tail[0, :6] = 1.0
    q = QVector(alpha=np.array([1.0]), tail=tail)
    assert fluid_rhs(system, q)[2] == Coordinate(1, 6)


@pytest.mark.parametrize("gap, active", [(5e-8, Coordinate(2, 1)), (5e-10, Coordinate(1, 1))])
def test_slot_opens_past_sigma_tol(gap, active):
    # the top slot (2, 1) is open only while its gap below alpha exceeds
    # SIGMA_TOL = 1e-9; closed, the next slot (1, 1) is active
    system = two_class_system(8, 9.75)
    tail = np.zeros((2, 4))
    tail[:, 0] = TWO_CLASS_ALPHA
    tail[1, 1] = TWO_CLASS_ALPHA[1] - gap
    q = QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail)
    assert fluid_rhs(system, q)[2] == active


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cls, level", [(2, 2), (1, 1)])
def test_non_finite_starts_are_refused(cls, level, bad):
    # refused where the profile is built, not a step later as a depth problem
    system = two_class_system(8, 9.75)
    config = IntegratorConfig.for_system(system, horizon=1.0)

    def start():
        tail = np.zeros((2, 4))
        tail[:, 0] = TWO_CLASS_ALPHA
        tail[cls - 1, level] = bad
        return QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail)

    with pytest.raises(ValueError, match="finite"):
        integrate_fluid(system, start(), config)
    with pytest.raises(ValueError, match="finite"):
        fluid_rhs(system, start())


def test_sigma_needs_an_open_gap():
    # every retained level full: no slot within the truncation is open
    system = two_class_system(8, 9.75)
    q = all_alpha_profile(TWO_CLASS_ALPHA, 3)
    cfg = IntegratorConfig(dt=1e-3, levels=3, horizon=1e-3)
    with pytest.raises(RuntimeError, match="active slot"):
        integrate_fluid(system, q, cfg)


# ---------------------------------------------------------------------------
# drift


def test_rhs_vanishes_at_equilibrium():
    for rho in (9.75, 10.0):
        system = two_class_system(8, rho)
        drift, _, sigma = fluid_rhs(system, equilibrium_profile(system))
        assert np.abs(drift).max() <= 1e-9
        assert sigma == optimal_assignment(
            system.family, system.alpha, rho
        ).sigma_star


def test_rhs_from_empty_feeds_only_the_top_slot():
    system = two_class_system(8, 9.75)
    q = QVector.zeros(TWO_CLASS_ALPHA, 2)
    drift, inflow, sigma = fluid_rhs(system, q)
    assert sigma == Coordinate(2, 1)
    assert inflow[1, 1] == pytest.approx(system.lam)
    inflow[1, 1] = 0.0
    assert np.abs(inflow).max() == 0.0
    assert drift[1, 1] == pytest.approx(system.lam)


def test_rhs_mass_rate_identity(rng):
    system = two_class_system(8, 9.75)
    lam, mu = system.lam, system.mu
    profiles = [random_feasible_tail(rng, TWO_CLASS_ALPHA, 12) for _ in range(100)]
    profiles += [
        optimal_assignment(system.family, TWO_CLASS_ALPHA, rho).q_star
        for rho in (0.5, 3.2, 9.75, 10.0)
    ]
    for q in profiles:
        drift, _, _ = fluid_rhs(system, q)
        assert float(drift.sum()) == pytest.approx(
            lam - mu * q.mass(), abs=1e-12
        )


def test_rhs_inflow_never_negative(rng):
    system = two_class_system(8, 9.75)
    for _ in range(50):
        q = random_feasible_tail(rng, TWO_CLASS_ALPHA, 12)
        _, inflow, _ = fluid_rhs(system, q)
        assert inflow.min() >= -1e-12


def test_rhs_zeros_are_positive_off_the_fill(rng):
    # Off the fill a rate is 0 times (a number above every level), +0.0 as a
    # plain 0 is, also on levels above their class fraction: a level-1 entry
    # above alpha, and runs of equal entries above it off the fill.
    system = two_class_system(8, 9.75)
    profiles = []
    for k in range(200):
        tail = random_feasible_tail(rng, TWO_CLASS_ALPHA, 14).tail.copy()
        ci, level = k % 2, int(rng.integers(1, 12))
        tail[ci, level : level + 2] = 0.5 + rng.uniform(0.0, 1.0)
        profiles.append(tail)
    for tail in profiles:
        drift, inflow, _ = fluid_rhs(system, QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail))
        for values in (drift, inflow):
            assert not np.any((values == 0.0) & np.signbit(values))


def saturated_profiles(rng, alpha, count):
    """Random feasible profiles of depth 2 to 30: per class a block at its
    fraction, then a non-increasing column below it; some with a run of
    equal levels, some with the slot below the block open by less than
    ``SIGMA_TOL``."""
    alpha = np.asarray(alpha)
    for k in range(count):
        depth = int(rng.integers(2, 31))
        tail = random_feasible_tail(rng, alpha, depth).tail.copy()
        for ci, a in enumerate(alpha):
            block = int(rng.integers(0, depth))
            tail[ci, 1 : block + 1] = a
            if k % 3 == 1 and block + 3 <= depth:
                tail[ci, block + 2 : block + 4] = tail[ci, block + 1]
            if k % 3 == 2 and block < depth:
                tail[ci, block + 1] = a - 5e-10
        yield QVector(alpha=alpha, tail=tail)


@pytest.mark.parametrize("make_system", [lambda: two_class_system(8, 9.75),
                                         lambda: three_class_system()],
                         ids=["two-class", "three-class"])
def test_rhs_matches_the_reference_stage(make_system, rng):
    # the drift, the inflow and the active slot of 100 profiles per system
    # are one stage of the reference integrator's, bit for bit
    system = make_system()
    slots = set()
    for q in saturated_profiles(rng, system.alpha, 100):
        drift, inflow, active = fluid_rhs(system, q)
        want_drift, want_inflow, want_active = reference_rhs(system, q)
        assert drift.tobytes() == want_drift.tobytes()
        assert inflow.tobytes() == want_inflow.tobytes()
        assert drift.shape == inflow.shape == q.tail.shape
        assert active == want_active
        slots.add(active)
    assert len(slots) >= 20


def test_rank_row_is_laid_out_once_per_depth():
    # fluid_rhs reads its depth's rank row from a cache, which no caller can
    # write through
    system = two_class_system(8, 9.75)
    row = fluid._rank_row(system.family, 13)
    assert fluid._rank_row(system.family, 13) is row
    assert not row.flags.writeable
    assert fluid._rank_row(system.family, 14) is not row


# ---------------------------------------------------------------------------
# conserving projection


def reference_project_conserving(raw, alpha, pour_order):
    """The conserving projection without its feasible-stage shortcut: it
    always clamps, pours and shaves, and returns ``(proj, moved)``."""
    target = float(raw[:, 1:].sum())
    proj = np.minimum.accumulate(np.clip(raw, 0.0, alpha[:, None]), axis=1)
    proj[:, -1] = 0.0
    delta = target - float(proj[:, 1:].sum())
    if delta > 1e-18:
        for cls, level in pour_order:
            ci = cls - 1
            room = proj[ci, level - 1] - proj[ci, level]
            if room <= 0.0:
                continue
            add = room if room < delta else delta
            proj[ci, level] += add
            delta -= add
            if delta <= 1e-18:
                break
    elif delta < -1e-18:
        for cls, level in reversed(pour_order):
            ci = cls - 1
            excess = proj[ci, level] - proj[ci, level + 1]
            if excess <= 0.0:
                continue
            cut = excess if excess < -delta else -delta
            proj[ci, level] -= cut
            delta += cut
            if delta >= -1e-18:
                break
    return proj, float(np.abs(proj - raw).max())


def padded_profiles(rng, count, levels=20):
    """Feasible padded profiles (column 0 alpha, last column 0), some with
    flat runs, runs of zeros, and the last retained level occupied.

    No entry is -0.0: the full projection's clamp turns -0.0 into +0.0, which
    the shortcut would not. Integrator stages hold no -0.0: a stage is a
    state plus a step, a sum is -0.0 only when both terms are, and a step is
    -0.0 only when a negative drift times dt underflows. The
    "start-with-negative-zeros" pin checks a start that holds -0.0.
    """
    alpha = np.asarray(TWO_CLASS_ALPHA)
    for k in range(count):
        out = np.zeros((2, levels + 2))
        out[:, : levels + 1] = random_feasible_tail(rng, alpha, levels).tail
        if k % 3 == 1:
            out[:, 3:7] = out[:, 3:4]
            out[0, 9:-1] = 0.0
        if k % 3 == 2:
            out[:, 1:-1] = alpha[:, None] * (rng.uniform(size=(2, levels)) < 0.5).cumprod(axis=1)
        yield out


def flat_gap_row(p):
    """The gaps of a padded profile ``p`` as one row of ``levels + 2`` per
    class: its ``levels + 1`` gaps to the next level, then 1e300."""
    ends = np.full((p.shape[0], 1), 1e300)
    return np.hstack([p[:, :-1] - p[:, 1:], ends]).ravel()


def test_gap_row_spans_no_class_junction(rng):
    # the slot that would span two class rows holds a large finite gap: it
    # passes the feasibility test, and its drain, 0 times the gap, is +0.0
    for p in padded_profiles(rng, 20):
        gaps = fluid._gap_row(p, np.full(p.size, np.nan))
        assert gaps.tobytes() == flat_gap_row(p).tobytes()


def ranked_slots(system, levels):
    table = system.family.rank_table(levels)
    return [c for c in system.family.enumerate_ranked(table.size) if c.level <= levels]


def test_feasible_stage_comes_back_unchanged(rng):
    system = two_class_system(8, 9.75)
    alpha = np.asarray(TWO_CLASS_ALPHA)
    order = ranked_slots(system, 20)
    for raw in padded_profiles(rng, 300):
        gaps = fluid._gap_row(raw, np.empty(raw.size))
        proj = raw.copy()
        moved = fluid._project_conserving(proj, alpha, order, gaps)
        reference, reference_moved = reference_project_conserving(raw.copy(), alpha, order)
        assert moved == 0.0 == reference_moved
        assert proj.tobytes() == raw.tobytes() == reference.tobytes()
        assert gaps.tobytes() == flat_gap_row(raw).tobytes()


def test_infeasible_stage_matches_the_full_projection(rng):
    system = two_class_system(8, 9.75)
    alpha = np.asarray(TWO_CLASS_ALPHA)
    order = ranked_slots(system, 20)
    branches = {"pour": 0, "shave": 0, "none": 0}
    for base in padded_profiles(rng, 300):
        # some entries moved by noise of one scale in 1e-15..1e-2 per profile
        scale = 10.0 ** rng.uniform(-15.0, -2.0)
        raw = base + rng.normal(0.0, scale, size=base.shape) * (rng.uniform(size=base.shape) < 0.3)
        raw[:, 0] = alpha
        raw[:, -1] = 0.0
        if (raw[:, :-1] - raw[:, 1:]).min() >= 0.0:
            continue
        branches[projection_branch(raw, alpha)] += 1
        gaps = fluid._gap_row(raw, np.empty(raw.size))
        proj = raw.copy()
        moved = fluid._project_conserving(proj, alpha, order, gaps)
        reference, reference_moved = reference_project_conserving(raw, alpha, order)
        assert proj.tobytes() == reference.tobytes()
        assert moved == reference_moved > 0.0
        assert gaps.tobytes() == flat_gap_row(proj).tobytes()
    assert branches["pour"] > 50 and branches["shave"] > 50


# ---------------------------------------------------------------------------
# integrator construction


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, levels=10, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, levels=1, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, levels=10, horizon=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, levels=10, horizon=1.0, record_every=0)


def test_integrator_config_rejects_non_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=bad, levels=10, horizon=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, levels=10, horizon=bad)
    # more steps than MAX_STEPS would run for hours; at the cap is allowed
    assert IntegratorConfig(dt=1e-3, levels=10, horizon=1e3).steps == MAX_STEPS
    for dt, horizon in ((1e-3, 1e9), (1e-3, 1000.002), (5e-324, 1.0)):
        with pytest.raises(ValueError, match="refusing to integrate"):
            IntegratorConfig(dt=dt, levels=10, horizon=horizon)


def test_a_positive_horizon_takes_a_step():
    # ceil(horizon / dt - 1e-9) is 0 up to a horizon of 1e-9 * dt
    for horizon in (1e-4, 2e-12, 1e-12, 5e-324, 1e-15):
        cfg = IntegratorConfig(dt=1e-3, levels=10, horizon=horizon)
        assert cfg.steps == 1
    path = integrate_fluid(two_class_system(8, 9.75), None, cfg)
    assert path.times.tolist() == [0.0, 1e-3]
    assert verify_reflection_system(path).slots[0] == Coordinate(2, 1)


def test_integrator_defaults_cover_the_fill():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=5.0)
    assert cfg.dt == pytest.approx(1e-3)
    assert cfg.levels == 39  # ceil(2 * 9.75 / 0.5) dominates level 12 + 10


# ---------------------------------------------------------------------------
# integration


def test_equilibrium_is_a_fixed_point():
    system = two_class_system(8, 9.75)
    q = equilibrium_profile(system)
    cfg = IntegratorConfig.for_system(system, horizon=10.0, dt=2e-3, record_every=500)
    path = integrate_fluid(system, q, cfg)
    assert path.final().l1_distance(q) <= 1e-6
    for k in range(len(path.times)):
        assert path.profile(k).l1_distance(q) <= 1e-6


def test_mass_follows_the_scalar_law():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=3.0, record_every=10)
    path = integrate_fluid(system, None, cfg)
    expected = 9.75 * (1.0 - np.exp(-path.times))
    assert np.abs(path.mass() - expected).max() <= 1e-4


def test_empty_start_converges_to_equilibrium():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=15.0, record_every=100)
    path = integrate_fluid(system, None, cfg)
    assert path.final().l1_distance(equilibrium_profile(system)) < 1e-3


def test_emitted_states_stay_feasible():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=4.0, dt=2e-3, record_every=200)
    path = integrate_fluid(system, None, cfg)
    for k in range(len(path.times)):
        q = path.profile(k)
        validate_feasible(q, TWO_CLASS_ALPHA, q.mass())
        _, inflow, _ = fluid_rhs(system, q)
        assert inflow.min() >= -1e-12
    assert path.profile(3).mass() == pytest.approx(path.mass()[3], abs=1e-12)


def test_oversized_step_is_rejected():
    system = two_class_system(8, 0.2)
    tail = np.zeros((2, 26))
    tail[:, :26] = np.asarray(TWO_CLASS_ALPHA)[:, None]
    deep = QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail)
    cfg = IntegratorConfig(dt=0.2, levels=30, horizon=2.0)
    with pytest.raises(RuntimeError, match="too large"):
        integrate_fluid(system, deep, cfg)


@pytest.mark.parametrize("cap", ["MAX_CELLS", "MAX_RECORDED_CELLS"])
def test_cell_caps_refuse_before_any_step(cap, monkeypatch):
    # 100 steps of 2 x 12 cells, every third one recorded: at each cap the
    # run goes ahead, one cell under it the run is refused before a step
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig(dt=1e-3, levels=10, horizon=0.1, record_every=3)
    records = len(integrate_fluid(system, None, cfg).times)
    assert (cfg.steps, records) == (100, 35)
    cells = {"MAX_CELLS": 100 * 24, "MAX_RECORDED_CELLS": 35 * 24}[cap]
    monkeypatch.setattr(fluid, cap, cells)
    integrate_fluid(system, None, cfg)
    monkeypatch.setattr(fluid, cap, cells - 1)
    projections = []
    monkeypatch.setattr(fluid, "_project_conserving", lambda *args: projections.append(args))
    with pytest.raises(ValueError, match="refusing to integrate"):
        integrate_fluid(system, None, cfg)
    assert projections == []


def test_truncation_depth_guard():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=5.0, levels=2)
    with pytest.raises(RuntimeError, match="saturates past the truncation depth"):
        integrate_fluid(system, None, cfg)


def test_tight_truncation_warns():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig(dt=2e-3, levels=13, horizon=6.0, record_every=100)
    with pytest.warns(RuntimeWarning, match="increase levels"):
        path = integrate_fluid(system, None, cfg)
    assert path.max_tail_mass > 1e-8
    # 5e-8 on class 1's levels 1-9 puts five times the 1e-8 threshold in the
    # last truncated levels at levels = 10, so the start alone warns
    tail = np.zeros((2, 10))
    tail[:, 0] = TWO_CLASS_ALPHA
    tail[0, 1:] = 5e-8
    cfg = IntegratorConfig(dt=1e-3, levels=10, horizon=0.01)
    with pytest.warns(RuntimeWarning, match="increase levels"):
        integrate_fluid(system, QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail), cfg)


# numpy reports its buffers to tracemalloc, so a traced peak counts the arrays
# a call holds at once.


@pytest.fixture(scope="module")
def traced_path():
    """The two-class empty start at T = 8 and dt = 1e-3, 8001 records, and the
    traced peak of its integration in bytes."""
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=8.0, dt=1e-3)
    tracemalloc.start()
    try:
        path = integrate_fluid(system, None, cfg)
        return path, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integration_writes_its_records_once(traced_path):
    # the records, plus the stepping's few profiles; a list of records copied
    # into the array at the end would peak at twice the records
    path, peak = traced_path
    assert len(path.times) == 8001
    assert peak <= 1.5 * path.states.nbytes


def test_reflection_check_holds_a_few_doubles_per_record(traced_path):
    # a (slots, records) array of 21 slots alone would take 168 bytes a record
    path, _ = traced_path
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        verify_reflection_system(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 256 * len(path.times)


# ---------------------------------------------------------------------------
# reflection map


def test_reflect_below_barrier_is_identity():
    x = np.full(11, 0.3)
    push, refl = skorokhod_reflect(x, 1.0)
    assert np.all(push == 0.0)
    assert np.all(refl == x)


def test_reflect_linear_ramp_closed_form():
    t = np.linspace(0.0, 3.0, 3001)
    push, refl = skorokhod_reflect(t.copy(), 1.0)
    assert np.allclose(push, np.maximum(t - 1.0, 0.0), atol=1e-12)
    assert np.allclose(refl, np.minimum(t, 1.0), atol=1e-12)


def test_reflect_requires_valid_start():
    with pytest.raises(ValueError, match="above the barrier"):
        skorokhod_reflect(np.array([2.0, 0.0]), 1.0)


def test_reflect_structure_and_complementarity(rng):
    for _ in range(20):
        x = np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.05, 1999))))
        push, refl = skorokhod_reflect(x, 0.4)
        assert push[0] == 0.0
        assert np.all(np.diff(push) >= 0.0)
        assert refl.max() <= 0.4 + 1e-12
        # the push grows only while the reflected path presses the barrier
        grows = np.flatnonzero(np.diff(push) > 1e-15) + 1
        assert np.allclose(refl[grows], 0.4, atol=1e-12)


def test_reflect_lipschitz_pair(rng):
    for _ in range(20):
        x = np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.05, 1499))))
        y = np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.05, 1499))))
        px, rx = skorokhod_reflect(x, 0.4)
        py, ry = skorokhod_reflect(y, 0.4)
        gap = np.abs(x - y).max()
        assert np.abs(px - py).max() <= gap + 1e-12
        assert np.abs(rx - ry).max() <= 2.0 * gap + 1e-12


# ---------------------------------------------------------------------------
# chained-reflection verification


def transient_path(dt: float, horizon: float = 5.0) -> FluidPath:
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=horizon, dt=dt)
    return integrate_fluid(system, None, cfg)


def test_reflection_residuals_at_equilibrium():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=2.0, dt=1e-3)
    path = integrate_fluid(system, equilibrium_profile(system), cfg)
    report = verify_reflection_system(path)
    assert report.max_residual <= 1e-6


def test_reflection_residuals_transient():
    report = verify_reflection_system(transient_path(1e-3))
    assert len(report.slots) >= 20
    assert report.slots[0] == Coordinate(2, 1)
    assert report.max_residual <= 5e-3


def test_reflection_residual_shrinks_with_dt():
    coarse = verify_reflection_system(transient_path(4e-3)).max_residual
    mid = verify_reflection_system(transient_path(2e-3)).max_residual
    fine = verify_reflection_system(transient_path(1e-3)).max_residual
    assert 0.35 <= mid / coarse <= 0.65
    assert 0.35 <= fine / mid <= 0.65


def test_reflection_needs_an_open_slot():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig(dt=1e-3, levels=30, horizon=3e-3)
    path = integrate_fluid(system, None, cfg)
    path.states[-1, :, :-1] = np.asarray(TWO_CLASS_ALPHA)[:, None]
    with pytest.raises(RuntimeError, match="no active slot"):
        verify_reflection_system(path)


def test_reflection_gate_opens_half_a_step_against_a_draining_slot():
    # Slot (2, 1) fills in the one step while it drains at 0.45 against
    # lam = 0.2: with no positive fill rate to time the fill, the slot's
    # outflow is gated on for half the step. That outflow is lam minus what
    # (2, 1) passes at 0.5, so its integral is 0.5 * dt * -0.3; the free
    # process stays below alpha, so the push is 0 and the flow residual is
    # 0.15 * dt.
    system, dt = two_class_system(8, 0.2), 0.01
    states = np.zeros((2, 2, 6))
    states[:, :, 0] = TWO_CLASS_ALPHA
    states[:, 1, 1] = (0.45, 0.5)
    path = FluidPath(times=np.array([0.0, dt]), states=states, system=system,
                     config=IntegratorConfig(dt=dt, levels=4, horizon=dt))
    report = verify_reflection_system(path)
    assert report.slots[:2] == [Coordinate(2, 1), Coordinate(1, 1)]
    assert report.flow_residuals[0] == pytest.approx(0.15 * dt, rel=1e-12)


def test_reflection_needs_uniform_grid():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=1.0, dt=2e-3, record_every=7)
    path = integrate_fluid(system, None, cfg)
    with pytest.raises(ValueError, match="uniform grid"):
        verify_reflection_system(path)


def first_record(system):
    """A path cut to its starting record."""
    path = integrate_fluid(system, None, IntegratorConfig(dt=1e-3, levels=30, horizon=1e-3))
    return FluidPath(times=path.times[:1], states=path.states[:1], system=system,
                     config=path.config)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda system: skorokhod_reflect([], 1.0), "non-empty vector",
                 id="reflect-empty"),
    pytest.param(lambda system: skorokhod_reflect(np.zeros((2, 2)), 1.0), "non-empty vector",
                 id="reflect-matrix"),
    pytest.param(lambda system: verify_reflection_system(first_record(system)),
                 "at least two recorded states", id="verify-one-record"),
    # the equilibrium fills class 2 to level 12, past a truncation at 3
    pytest.param(lambda system: integrate_fluid(system, equilibrium_profile(system),
                                                IntegratorConfig(dt=1e-3, levels=3, horizon=1.0)),
                 "mass at level 12 beyond truncation 3", id="start-past-truncation"),
])
def test_fluid_refuses_inputs_it_cannot_read(call, match):
    with pytest.raises(ValueError, match=match):
        call(two_class_system(8, 9.75))


# ---------------------------------------------------------------------------
# pinned integrator output


def criterion_6_starts(alpha, mass_cap: float, count: int) -> list[QVector]:
    """``count`` starts of criterion 6's random-start generator for the class
    fractions ``alpha``: geometric columns or a block filled to alpha, with
    mass at most ``mass_cap``."""
    gen = np.random.default_rng(20260815)
    alpha = np.asarray(alpha)
    starts = []
    while len(starts) < count:
        if gen.uniform() < 0.5:
            depth = int(gen.integers(6, 26))
            ratios = gen.uniform(0.6, 1.0, size=(len(alpha), depth))
            tail = np.hstack([alpha[:, None], alpha[:, None] * np.cumprod(ratios, axis=1)])
            q = QVector(alpha=alpha, tail=tail)
        else:
            q = all_alpha_profile(alpha, int(gen.integers(3, 20)))
        if q.mass() <= mass_cap:
            starts.append(q)
    return starts


def criterion_6_start(draw: int) -> QVector:
    """The ``draw``-th start of criterion 6's random-start generator."""
    return criterion_6_starts(TWO_CLASS_ALPHA, 19.5, draw)[-1]


def negative_zeros(q: QVector, level: int) -> QVector:
    """``q`` emptied from ``level`` on, with -0.0 in the emptied levels."""
    tail = q.tail.copy()
    tail[:, level:] = -0.0
    return QVector(alpha=q.alpha, tail=tail)


#: name -> (start, horizon, dt, levels or None for the default, record_every,
#: SHA-256 of ``states.tobytes()``, ``max_tail_mass``). The bytes include the
#: sign of every zero; the digests hold for IEEE doubles with numpy 2.4.
PINNED_INTEGRATIONS = {
    # 16 changes of the active rank
    "empty": (
        lambda: None, 2.0, 1e-3, None, 1,
        "9ef3210ba6d098df1191bf6e688a69d850106f9fcb2f5d1b004ddd754339339c", 0.0,
    ),
    "all-alpha-12": (
        lambda: all_alpha_profile(TWO_CLASS_ALPHA, 12), 2.0, 1e-3, None, 1,
        "620416bcb070126160fe02a135784919d47c44ea1a55e7b986200197e7a53ddc", 0.0,
    ),
    # the first geometric start of criterion 6's generator (depth 19)
    "criterion-6-draw-2": (
        lambda: criterion_6_start(2), 2.0, 2e-3, None, 1,
        "c3b0898598260e1888469c813cc2ec1c97fe7bb583c2fac2ac8fa6f0fa74e1bd", 0.0,
    ),
    # coarse steps: the projection both pours and shaves
    "all-alpha-12-coarse": (
        lambda: all_alpha_profile(TWO_CLASS_ALPHA, 12), 2.0, 2e-2, None, 1,
        "48ee34d070980c551fb7fbbab57ca33b18617d2fce7aa7524337c9de5eda086d", 0.0,
    ),
    # -0.0 in the start's zero levels becomes +0.0 in the first stage
    "start-with-negative-zeros": (
        lambda: negative_zeros(criterion_6_start(2), 12), 1.0, 1e-3, None, 1,
        "203644f133cf3108e5e84543593edd4b4015c3985d238697fb7314cf11ec73dc", 0.0,
    ),
    # a tight truncation: mass reaches the last levels, sparse recording
    "empty-tight": (
        lambda: None, 6.0, 2e-3, 13, 100,
        "8e3caedbe977183375a5868a724be1901254e2cb01dc930e28d8bebdeb629154",
        0.22583206946085108,
    ),
}


def projection_branch(raw: np.ndarray, alpha: np.ndarray) -> str:
    """Which branch the conserving projection of ``raw`` must take: the
    clamp's mass change decides between pouring, shaving and neither."""
    clamped = np.minimum.accumulate(np.clip(raw, 0.0, alpha[:, None]), axis=1)
    clamped[:, -1] = 0.0
    delta = float(raw[:, 1:].sum()) - float(clamped[:, 1:].sum())
    if delta > 1e-18:
        return "pour"
    if delta < -1e-18:
        return "shave"
    return "none"


def pinned_config(system, horizon, dt, levels, every) -> IntegratorConfig:
    if levels is None:
        return IntegratorConfig.for_system(system, horizon=horizon, dt=dt, record_every=every)
    return IntegratorConfig(dt=dt, levels=levels, horizon=horizon, record_every=every)


@pytest.mark.parametrize("name", sorted(PINNED_INTEGRATIONS))
def test_integrator_output_is_pinned(name, monkeypatch):
    start, horizon, dt, levels, every, digest, max_tail = PINNED_INTEGRATIONS[name]
    system = two_class_system(8, 9.75)
    cfg = pinned_config(system, horizon, dt, levels, every)
    branches = {"pour": 0, "shave": 0, "none": 0}
    project = fluid._project_conserving

    def counting(raw, alpha, *rest):
        branches[projection_branch(raw, alpha)] += 1
        return project(raw, alpha, *rest)

    monkeypatch.setattr(fluid, "_project_conserving", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = integrate_fluid(system, start(), cfg)
    assert hashlib.sha256(path.states.tobytes()).hexdigest() == digest
    assert path.max_tail_mass == max_tail
    assert path.times.tolist() == [k * dt for k in range(0, cfg.steps + 1, every)]
    assert sum(branches.values()) == 2 * cfg.steps
    assert branches["pour"] > 0
    if name == "all-alpha-12-coarse":
        assert branches["shave"] > 0


def three_class_path() -> FluidPath:
    """The piecewise three-class system at rho = 8 from empty: 27 rank moves
    through all three classes."""
    system = FluidSystem(alpha=THREE_CLASS_ALPHA, rho=8.0, mu=1.0, family=piecewise_family())
    return integrate_fluid(system, None, IntegratorConfig.for_system(system, horizon=2.0, dt=2e-3))


def pinned_path(name: str) -> FluidPath:
    if name == "three-class":
        return three_class_path()
    start, horizon, dt, levels, every, _, _ = PINNED_INTEGRATIONS[name]
    system = two_class_system(8, 9.75)
    return integrate_fluid(system, start(), pinned_config(system, horizon, dt, levels, every))


#: The two-class ranking's first slots, as ``cls.level``.
TWO_CLASS_SLOTS = ("2.1 1.1 2.2 1.2 2.3 2.4 1.3 2.5 1.4 2.6 2.7 1.5 2.8 1.6 2.9 2.10 1.7 2.11 "
                   "1.8 2.12 2.13 1.9 2.14 1.10").split()

#: name -> (the slots checked, as ``cls.level``, and the SHA-256 of the flow
#: residuals' bytes followed by the state residuals'), for every path of
#: ``PINNED_INTEGRATIONS`` recorded at each step and for ``three_class_path``.
REFLECTION_PINS = {
    # the active rank moves up twice, then back down twice
    "all-alpha-12": (
        TWO_CLASS_SLOTS[:24],
        "53af22b48510973229e9425474aab0fb1d5d18c7c8388770f3d6c044aed5e447",
    ),
    "all-alpha-12-coarse": (
        TWO_CLASS_SLOTS[:24],
        "d9004a3f89cb4226fb34dcb59df4637ab8eb0f8cc77e431b2b93759bcb136a16",
    ),
    "criterion-6-draw-2": (
        TWO_CLASS_SLOTS[:19],
        "9e0a829e5ed5d2dac2885e43557c5923b55dde9a97f754f56dc0c657c128eb10",
    ),
    "empty": (
        TWO_CLASS_SLOTS[:18],
        "5d2f029460185657d1c5fff8433100cc0f4c51b1dd5f7f2a917c5b18d16e9e13",
    ),
    "start-with-negative-zeros": (
        TWO_CLASS_SLOTS[:16],
        "089b7af9c2d83743346a812982b68518ca8781091ef211d356859de2a38313ec",
    ),
    "three-class": (
        ["2.1", "2.2", "2.3", "2.4", "2.5", *(f"3.{j}" for j in range(1, 21)),
         "2.6", "2.7", "2.8", "2.9"],
        "fef0a9fc3363d1407826b4a8449586e5a6ace6b95d5584ad2795a1cfe6a9a3b3",
    ),
}


@pytest.mark.parametrize("name", sorted(REFLECTION_PINS))
def test_reflection_report_is_pinned(name):
    slots, digest = REFLECTION_PINS[name]
    report = verify_reflection_system(pinned_path(name))
    assert [f"{cls}.{level}" for cls, level in report.slots] == slots
    residuals = report.flow_residuals.tobytes() + report.state_residuals.tobytes()
    assert hashlib.sha256(residuals).hexdigest() == digest


# ---------------------------------------------------------------------------
# the fixed-point stop


def padded_profile(q: QVector, levels: int) -> np.ndarray:
    out = np.zeros((q.m, levels + 2))
    out[:, : q.depth + 1] = q.tail
    return out


def counted_integration(monkeypatch, system, start, cfg):
    """The integrated path and the number of projections it ran."""
    calls = []
    project = fluid._project_conserving

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(fluid, "_project_conserving", counting)
    return integrate_fluid(system, start, cfg), len(calls)


@pytest.mark.parametrize("every", [1, 7])
def test_optimal_start_takes_one_step(every, monkeypatch):
    system = two_class_system(8, 9.75)
    q_star = equilibrium_profile(system)
    cfg = IntegratorConfig.for_system(system, horizon=1.0, dt=1e-3, record_every=every)
    path, projections = counted_integration(monkeypatch, system, q_star, cfg)
    want = padded_profile(q_star, cfg.levels).tobytes()
    assert path.times.tolist() == [k * 1e-3 for k in (*range(0, 1000, every), 1000)]
    assert all(state.tobytes() == want for state in path.states)
    # every one of the 1000 steps returns q* as it is; only the first is taken
    assert projections == 2


def test_fixed_point_is_judged_on_bytes(monkeypatch):
    # -0.0 in q*'s empty levels: the first step makes them +0.0, a state equal
    # as values but not as bytes, so the second step is taken as well
    system = two_class_system(8, 9.75)
    q_star = equilibrium_profile(system)
    cfg = IntegratorConfig.for_system(system, horizon=1.0, dt=1e-3)
    tail = padded_profile(q_star, cfg.levels)[:, :-1]
    tail[tail == 0.0] = -0.0
    start = QVector(alpha=q_star.alpha, tail=tail)
    path, projections = counted_integration(monkeypatch, system, start, cfg)
    want = padded_profile(q_star, cfg.levels)
    assert np.array_equal(path.states[0], want)
    assert path.states[0].tobytes() != want.tobytes()
    assert all(state.tobytes() == want.tobytes() for state in path.states[1:])
    assert projections == 4


def nudged_optimal_start() -> QVector:
    """q* with 1e-12 more mass on its boundary slot (2, 12)."""
    q_star = equilibrium_profile(two_class_system(8, 9.75))
    tail = q_star.tail.copy()
    tail[1, 12] += 1e-12
    return QVector(alpha=q_star.alpha, tail=tail)


#: name -> (start, horizon, dt, SHA-256 of ``states.tobytes()`` recorded every
#: step, as computed by the integrator that takes every step, the first step
#: that returns its input unchanged).
MID_RUN_FIXED_POINTS = {
    "empty-coarse": (
        lambda: None, 40.0, 2e-2,
        "c5badaf622d71c0c317ac25eaf8cb7413a1342e53ed8cd8b3eab616eea1a5e92", 1837,
    ),
    "nudged-optimal": (
        nudged_optimal_start, 4.0, 1e-3,
        "b83b7b6ebf0a949f7040a680471548b24384c870ca1d600277704429c775bb67", 3455,
    ),
}


@pytest.mark.parametrize("name", sorted(MID_RUN_FIXED_POINTS))
def test_fixed_point_reached_mid_run_ends_the_stepping(name, monkeypatch):
    start, horizon, dt, digest, repeat = MID_RUN_FIXED_POINTS[name]
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=horizon, dt=dt)
    path, projections = counted_integration(monkeypatch, system, start(), cfg)
    assert hashlib.sha256(path.states.tobytes()).hexdigest() == digest
    assert path.states[repeat - 1].tobytes() != path.states[repeat - 2].tobytes()
    assert path.states[repeat - 1].tobytes() == path.states[-1].tobytes()
    assert projections == 2 * repeat < 2 * cfg.steps


# ---------------------------------------------------------------------------
# the integrator against a reference written stage by stage


def three_class_system() -> FluidSystem:
    return FluidSystem(alpha=THREE_CLASS_ALPHA, rho=8.0, mu=1.0, family=piecewise_family())


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("dt", [1e-3, 2e-3, 2e-2])
@pytest.mark.parametrize("make_system, floor", [(lambda: two_class_system(8, 9.75), 16),
                                                (three_class_system, 21)],
                         ids=["two-class", "three-class"])
def test_integrator_matches_the_stagewise_reference(make_system, floor, dt, every):
    # 120 steps from empty and from 20 random starts, which pour and, at the
    # coarsest step, shave. Every other start is truncated one level past
    # its depth, or at ``floor``, which leaves room for the fill's deepest
    # class, so that mass reaches the monitored levels. The records, their
    # times and the monitored tail mass are the reference's bit for bit.
    system = make_system()
    tails = []
    for k, start in enumerate([None, *criterion_6_starts(system.alpha, 2.0 * system.rho, 20)]):
        levels = max(start.depth + 1, floor) if k % 2 else None
        cfg = IntegratorConfig.for_system(system, horizon=120 * dt, dt=dt, levels=levels,
                                          record_every=every)
        states, times, max_tail = reference_integrate(system, start, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            path = integrate_fluid(system, start, cfg)
        assert path.states.tobytes() == states.tobytes()
        assert path.times.tobytes() == times.tobytes()
        assert np.float64(path.max_tail_mass).tobytes() == np.float64(max_tail).tobytes()
        tails.append(max_tail)
    assert max(tails) > 1e-8


def monitored_start(cls: int, level: int, value: float) -> QVector:
    """The empty two-class profile of depth 13 with ``value`` at one slot."""
    tail = np.zeros((2, 14))
    tail[:, 0] = TWO_CLASS_ALPHA
    tail[cls - 1, level] = value
    return QVector(alpha=np.asarray(TWO_CLASS_ALPHA), tail=tail)


#: name -> (start, horizon, dt, record_every), each at a truncation of 13
#: levels, whose monitored levels are 12, 13 and the padding.
MONITORED_STARTS = {
    # empty until the fill reaches level 12
    "empty": (lambda: None, 6.0, 2e-3, 100),
    # mass on the monitored levels at the start, draining
    "nudged-optimal": (nudged_optimal_start, 0.5, 1e-3, 1),
    "geometric": (lambda: QVector(alpha=np.asarray(TWO_CLASS_ALPHA),
                                  tail=criterion_6_start(2).tail[:, :14]), 0.5, 1e-3, 1),
    "alpha-to-9": (lambda: all_alpha_profile(TWO_CLASS_ALPHA, 9), 0.5, 1e-3, 1),
    # monitored levels of -0.0
    "negative-zeros": (lambda: negative_zeros(all_alpha_profile(TWO_CLASS_ALPHA, 13), 12),
                       0.2, 1e-3, 1),
    # a negative entry on a monitored level: the first step clamps it to 0,
    # which then beats the start's negative tail mass
    "negative-at-12": (lambda: monitored_start(1, 12, -1e-6), 0.2, 1e-3, 1),
    "negative-at-13": (lambda: monitored_start(2, 13, -1e-6), 0.2, 1e-3, 1),
}


@pytest.mark.parametrize("name", sorted(MONITORED_STARTS))
def test_truncation_monitor_matches_the_reference(name):
    # max_tail_mass, the records and their times are the reference's bit for
    # bit, whether or not mass reaches the monitored levels
    start, horizon, dt, every = MONITORED_STARTS[name]
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig(dt=dt, levels=13, horizon=horizon, record_every=every)
    states, times, max_tail = reference_integrate(system, start(), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = integrate_fluid(system, start(), cfg)
    assert path.states.tobytes() == states.tobytes()
    assert path.times.tobytes() == times.tobytes()
    assert np.float64(path.max_tail_mass).tobytes() == np.float64(max_tail).tobytes()
    if name.startswith("negative-at"):
        assert np.float64(path.max_tail_mass).tobytes() == np.float64(0.0).tobytes()
