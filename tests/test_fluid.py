import math

import numpy as np
import pytest

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
    TWO_CLASS_ALPHA,
    random_feasible_tail,
    two_class_system,
)


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


def test_reflection_needs_uniform_grid():
    system = two_class_system(8, 9.75)
    cfg = IntegratorConfig.for_system(system, horizon=1.0, dt=2e-3, record_every=7)
    path = integrate_fluid(system, None, cfg)
    with pytest.raises(ValueError, match="uniform grid"):
        verify_reflection_system(path)
