"""End-to-end acceptance battery.

Each test here verifies one numbered acceptance criterion and is written to
be read as such: closed-form bound arithmetic, breakpoint structure of the
optimal assignment, the desk-scale regression benchmark for both dispatch
policies, the pathwise utility ceiling, the M/M/infinity mass law, fluid
model behaviour, fluid-limit consistency of the scaled simulation, the
reflection-map oracle, threshold learning lock-in (a large-system property,
checked at desk scale as the modal rank and at n = 3200 as strict
containment), and the two-pool counterexample where greedy dispatch stays
strictly suboptimal.

Heavy simulation matrices are shared through module-scoped fixtures.  Every
stochastic run produced anywhere in this module is appended to RUNS so that
criterion 4 can audit the utility bound across the whole matrix (>= 500
runs, exact inequality, no statistics).
"""

import math
import time

import numpy as np
import pytest

from poolsim.assign import optimal_assignment, upper_bound
from poolsim.fluid import (
    IntegratorConfig,
    fluid_rhs,
    integrate_fluid,
    skorokhod_reflect,
    verify_reflection_system,
)
from poolsim.model import CappedLinear, Linear, QVector, SystemConfig, UtilityFamily
from poolsim.sim import Metrics, RunConfig, batch_means, coupled_simulate, simulate

from conftest import (
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    batched_run,
    piecewise_family,
    two_class_family,
    two_class_system,
)

BOUND_TOL = 1e-9

# Reference replication means for the canned two-class benchmark
# (20 reps, T = 180, equilibrium start, default learning rate).
BENCHMARK_MEANS = {
    (9.75, "jlmu"): {50: 9.1652, 100: 9.1699, 200: 9.1723},
    (9.75, "slta"): {50: 9.1649, 100: 9.1698, 200: 9.1723},
    (10.0, "jlmu"): {50: 9.1433, 100: 9.1499, 200: 9.1556},
    (10.0, "slta"): {50: 9.1439, 100: 9.1498, 200: 9.1555},
}
BENCHMARK_TOL = 0.01

RUNS: list[Metrics] = []


def track(metrics: Metrics) -> Metrics:
    RUNS.append(metrics)
    return metrics


def all_alpha_profile(alpha, depth: int) -> QVector:
    tail = np.tile(np.asarray(alpha)[:, None], (1, depth + 1))
    return QVector(alpha=np.asarray(alpha), tail=tail)


# ---------------------------------------------------------------------------
# shared simulation matrices


@pytest.fixture(scope="module")
def benchmark_matrix():
    """Coupled jlmu/slta replications for every benchmark cell."""
    cells: dict[tuple[int, float], list[tuple[Metrics, Metrics]]] = {}
    t0 = time.perf_counter()
    for n in (50, 100, 200):
        for rho in (9.75, 10.0):
            system = two_class_system(n, rho)
            pairs = []
            for rep in range(20):
                run = RunConfig(horizon=180.0, seed=7, replication=rep, init="optimal")
                jl, sl = coupled_simulate(system, ["jlmu", "slta"], run)
                pairs.append((track(jl), track(sl)))
            cells[(n, rho)] = pairs
    return cells, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mass_law_runs():
    """One long independent run per policy on a small system, with 20 batch
    means of its task total."""
    system = two_class_system(4, 3.0)
    out = {}
    for k, policy in enumerate(("jlmu", "slta", "random", "fixed:2")):
        run = RunConfig(horizon=2000.0, seed=41 + k, init="empty")
        metrics, _, s_batches = batched_run(system, policy, run, 20)
        out[policy] = (track(metrics), s_batches)
    return out


@pytest.fixture(scope="module")
def consistency_gaps():
    """Mean sup-l1 gap between scaled greedy runs and the fluid trajectory."""
    rho = 9.75
    reference = two_class_system(8, rho)
    cfg = IntegratorConfig.for_system(reference, horizon=10.0, record_every=100)
    path = integrate_fluid(reference, None, cfg)
    sample_times = tuple(float(t) for t in path.times[1:] if t <= 10.0)
    means = {}
    for n in (100, 400, 1600):
        system = two_class_system(n, rho)
        sups = []
        for seed in range(10):
            run = RunConfig(
                horizon=10.0, seed=70 + seed, init="empty", sample_times=sample_times
            )
            m = track(simulate(system, "jlmu", run))
            assert len(m.trajectory) == len(sample_times)
            sup = max(
                q.l1_distance(path.profile(k + 1))
                for k, (_, q) in enumerate(m.trajectory)
            )
            sups.append(sup)
        means[n] = float(np.mean(sups))
    return means


@pytest.fixture(scope="module")
def lockin_runs():
    """Threshold policy from an empty start at desk scale, 20 seeds."""
    system = two_class_system(200, 9.75)
    out = []
    for seed in range(20):
        run = RunConfig(horizon=180.0, seed=130 + seed, init="empty")
        out.append(track(simulate(system, "slta", run)))
    return out


@pytest.fixture(scope="module")
def lockin_scale_runs():
    """Threshold policy from an empty start at n = 3200, 20 seeds.

    The boundary slot's spare room, 0.25 * n = 800 pools, is 4.5 sd of the
    total-mass noise sqrt(9.75 * n), so strict lock-in is expected here.
    """
    system = two_class_system(3200, 9.75)
    out = []
    for seed in range(20):
        run = RunConfig(horizon=30.0, seed=130 + seed, init="empty")
        out.append(track(simulate(system, "slta", run)))
    return out


@pytest.fixture(scope="module")
def counterexample_pairs():
    """Greedy vs fixed dispatch on the two-pool system with a capped payoff.

    One linear-epsilon pool class and one unit-capped pool class; the fixed
    policy sends everything to the capped pool.  Total arrival rate is
    rho * mu = 1 with a = 1, eps = 0.05.
    """
    family = UtilityFamily((Linear(0.05), CappedLinear(1.0, 1)))
    system = SystemConfig(
        n=2, alpha=(0.5, 0.5), rho=0.5, mu=1.0, family=family
    )
    pairs = []
    for seed in range(20):
        run = RunConfig(horizon=5000.0, seed=210 + seed, init="empty")
        jl, fx = coupled_simulate(system, ["jlmu", "fixed:2"], run)
        pairs.append((track(jl), track(fx)))
    return pairs


@pytest.fixture(scope="module")
def extra_matrix():
    """Small-system sweep that pushes the audited run count past 500."""
    out = []
    seed = 900
    for rho in (0.8, 2.5, 9.75):
        system = two_class_system(10, rho)
        for policy in ("jlmu", "slta", "random", "fixed:1"):
            for k in range(15):
                init = "optimal" if k % 2 else "empty"
                run = RunConfig(horizon=30.0, seed=seed, init=init)
                out.append(track(simulate(system, policy, run)))
                seed += 1
    return out


# ---------------------------------------------------------------------------
# criterion 1: closed-form upper bounds


def test_criterion_01_upper_bound_values():
    def timed(load):
        value, best = None, float("inf")
        for _ in range(5):
            family = two_class_family()  # fresh marginal cache each trial
            t0 = time.perf_counter()
            value = upper_bound(family, TWO_CLASS_ALPHA, load)
            best = min(best, time.perf_counter() - t0)
        return value, best

    at_10, time_10 = timed(10.0)
    at_975, time_975 = timed(9.75)
    assert round(at_10, 4) == 9.1629
    assert round(at_975, 4) == 9.1731
    assert time_10 < 1e-3 and time_975 < 1e-3
    print(
        f"criterion 1 PASS: bound(10)={at_10:.6f}, bound(9.75)={at_975:.6f}, "
        f"{max(time_10, time_975) * 1e6:.0f}us"
    )


# ---------------------------------------------------------------------------
# criterion 2: growth breakpoints of the optimal assignment


def test_criterion_02_growth_breakpoints():
    family = piecewise_family()

    def expected(rho):
        if rho < 1.25:
            return 2
        if rho < 6.25:
            return 3
        if rho < 7.5:
            return 2
        return 1

    grid = [k / 20.0 for k in range(181)]  # step 0.05 through rho = 9
    t0 = time.perf_counter()
    growing = [
        optimal_assignment(family, THREE_CLASS_ALPHA, rho).sigma_star.cls
        for rho in grid
    ]
    elapsed = time.perf_counter() - t0

    for rho, cls in zip(grid, growing):
        assert cls == expected(rho), f"rho={rho}: growing class {cls}"
    switches = [grid[k] for k in range(1, len(grid)) if growing[k] != growing[k - 1]]
    assert switches == [1.25, 6.25, 7.5]
    assert [growing[0]] + [growing[grid.index(s)] for s in switches] == [2, 3, 2, 1]
    assert elapsed < 1.0
    print(f"criterion 2 PASS: breakpoints {switches}, {elapsed * 1e3:.0f}ms")


# ---------------------------------------------------------------------------
# criterion 3: desk-scale regression benchmark


def test_criterion_03_desk_scale_benchmark(benchmark_matrix):
    cells, elapsed = benchmark_matrix
    worst = 0.0
    for (n, rho), pairs in cells.items():
        means = {
            "jlmu": float(np.mean([jl.avg_u for jl, _ in pairs])),
            "slta": float(np.mean([sl.avg_u for _, sl in pairs])),
        }
        for policy, got in means.items():
            want = BENCHMARK_MEANS[(rho, policy)][n]
            err = abs(got - want)
            worst = max(worst, err)
            assert err <= BENCHMARK_TOL, (
                f"{policy} n={n} rho={rho}: mean {got:.4f} vs reference {want:.4f}"
            )
    assert elapsed < 600.0
    print(
        f"criterion 3 PASS: 12 cells within {BENCHMARK_TOL} "
        f"(worst gap {worst:.4f}), {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: pathwise utility bound across the whole matrix


def test_criterion_04_pathwise_utility_bound(
    benchmark_matrix,
    mass_law_runs,
    consistency_gaps,
    lockin_runs,
    lockin_scale_runs,
    counterexample_pairs,
    extra_matrix,
):
    assert len(RUNS) >= 500, f"only {len(RUNS)} runs in the matrix"
    gaps = np.array([m.bound_gap for m in RUNS])
    violations = int((gaps < -BOUND_TOL).sum())
    assert violations == 0
    print(
        f"criterion 4 PASS: {len(RUNS)} runs, 0 violations of the utility "
        f"ceiling (min slack {gaps.min():.3e})"
    )


# ---------------------------------------------------------------------------
# criterion 5: M/M/infinity total-mass law per policy


def test_criterion_05_total_mass_law(mass_law_runs):
    for policy, (_, s_batches) in mass_law_runs.items():
        mean, se = batch_means(s_batches)
        assert abs(mean - 3.0) <= 3.0 * se, f"{policy}: {mean:.4f} +- {se:.4f}"
    print(f"criterion 5 PASS: {len(mass_law_runs)} policies within 3 SE of rho")


# ---------------------------------------------------------------------------
# criterion 6: fluid model (fixed point, mass law, global convergence)


def test_criterion_06_fluid_model():
    t0 = time.perf_counter()
    family = two_class_family()

    # (a) the optimal profile is a fixed point of the drift
    for rho in (9.75, 10.0):
        system = two_class_system(8, rho)
        q_star = optimal_assignment(family, TWO_CLASS_ALPHA, rho).q_star
        drift, _, _ = fluid_rhs(system, q_star)
        assert float(np.abs(drift).max()) <= 1e-9

    # (b) total mass follows rho + (s0 - rho) e^{-mu t} at dt = 1e-3
    system = two_class_system(8, 9.75)
    for q0, s0 in ((None, 0.0), (all_alpha_profile(TWO_CLASS_ALPHA, 12), 12.0)):
        cfg = IntegratorConfig.for_system(system, horizon=3.0, dt=1e-3, record_every=10)
        path = integrate_fluid(system, q0, cfg)
        expected = 9.75 + (s0 - 9.75) * np.exp(-path.times)
        assert float(np.abs(path.mass() - expected).max()) <= 1e-4

    # (c) l1 convergence to the optimal profile from 25 random feasible starts
    gen = np.random.default_rng(20260815)
    target = optimal_assignment(family, TWO_CLASS_ALPHA, 9.75).q_star
    cfg = IntegratorConfig.for_system(system, horizon=20.0, dt=2e-3, record_every=1000)
    alpha = np.asarray(TWO_CLASS_ALPHA)

    def random_start():
        # mass capped by the feasibility envelope 2 * rho = 19.5
        while True:
            if gen.uniform() < 0.5:
                depth = int(gen.integers(6, 26))
                ratios = gen.uniform(0.6, 1.0, size=(2, depth))
                tail = np.hstack([alpha[:, None], alpha[:, None] * np.cumprod(ratios, axis=1)])
                q = QVector(alpha=alpha, tail=tail)
            else:
                q = all_alpha_profile(alpha, int(gen.integers(3, 20)))
            if q.mass() <= 19.5:
                return q

    worst = 0.0
    for _ in range(25):
        path = integrate_fluid(system, random_start(), cfg)
        worst = max(worst, path.final().l1_distance(target))
    assert worst < 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 6 PASS: worst final l1 {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: scaled simulation approaches the fluid trajectory


def test_criterion_07_fluid_limit_consistency(consistency_gaps):
    g = consistency_gaps
    assert g[400] < g[100] and g[1600] < g[400]
    ratios = (g[400] / g[100], g[1600] / g[400])
    assert all(r <= 0.8 for r in ratios)
    print(
        "criterion 7 PASS: mean sup-l1 gaps "
        f"{g[100]:.3f} > {g[400]:.3f} > {g[1600]:.3f} "
        f"(ratios {ratios[0]:.2f}, {ratios[1]:.2f})"
    )


# ---------------------------------------------------------------------------
# criterion 8: reflection-map oracle


def test_criterion_08_reflection_oracle():
    gen = np.random.default_rng(8)
    paths = 0
    for _ in range(500):
        k = int(gen.integers(4, 12))
        # the sample-time gaps: the map does not read them, but drawing them
        # keeps the stream
        gen.uniform(0.05, 0.4, size=k)
        barrier = float(gen.uniform(0.3, 1.2))

        def draw():
            steps = np.empty(k)
            steps[0] = gen.uniform(0.0, barrier)
            steps[1:] = gen.normal(0.0, 0.35, size=k - 1)
            return np.cumsum(steps)

        results = []
        for x in (draw(), draw()):
            p, r = skorokhod_reflect(x, barrier)
            # closed form: push is the running maximum of the barrier excess
            assert np.allclose(p, np.maximum(0.0, np.maximum.accumulate(x - barrier)), atol=1e-12)
            assert np.allclose(r, x - p, atol=1e-12)
            assert np.all(r <= barrier + 1e-12)
            assert abs(p[0]) <= 1e-12 and np.all(np.diff(p) >= -1e-12)
            grew = np.diff(p) > 1e-12
            assert np.all(~grew | (np.abs(r[1:] - barrier) <= 1e-9))
            results.append((x, p, r))
            paths += 1
        # both maps are Lipschitz on a shared grid (constants 1 and 2)
        (xa, pa, ra), (xb, pb, rb) = results
        dist = float(np.abs(xa - xb).max())
        assert float(np.abs(pa - pb).max()) <= dist + 1e-12
        assert float(np.abs(ra - rb).max()) <= 2.0 * dist + 1e-12
    assert paths == 1000

    # residuals of the reflection system shrink like dt under halving
    residuals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        system = two_class_system(8, 9.75)
        cfg = IntegratorConfig.for_system(system, horizon=5.0, dt=dt)
        residuals[dt] = verify_reflection_system(integrate_fluid(system, None, cfg)).max_residual
    ratios = (residuals[2e-3] / residuals[4e-3], residuals[1e-3] / residuals[2e-3])
    assert all(0.35 <= r <= 0.65 for r in ratios)
    print(
        f"criterion 8 PASS: 1000 paths exact, residual halving ratios "
        f"{ratios[0]:.2f}, {ratios[1]:.2f}"
    )


# ---------------------------------------------------------------------------
# criterion 9: threshold learning locks in at the boundary rank


def rank_locked(metrics: Metrics, horizon: float, target: int, final_fraction=0.8):
    """True when the rank sits at ``target`` throughout the final window."""
    window_start = horizon * (1.0 - final_fraction)
    current = None
    for t, rank in metrics.rank_history:
        if t <= window_start:
            current = rank
        elif rank != target:
            return False
    return current == target


def rank_share(metrics: Metrics, horizon: float, target: int, final_fraction=0.8):
    """Time-weighted share of the final window spent at ``target``."""
    window_start = horizon * (1.0 - final_fraction)
    hist = list(metrics.rank_history) + [(horizon, target)]
    held = 0.0
    for (t0, rank), (t1, _) in zip(hist, hist[1:]):
        lo, hi = max(t0, window_start), min(t1, horizon)
        if hi > lo and rank == target:
            held += hi - lo
    return held / (horizon - window_start)


def window_shares(metrics: Metrics, horizon: float, final_fraction=0.8):
    """Time-weighted share of the final window spent at each visited rank."""
    ranks = {rank for _, rank in metrics.rank_history}
    return {r: rank_share(metrics, horizon, r, final_fraction) for r in ranks}


def test_criterion_09_threshold_lock_in(lockin_runs, lockin_scale_runs):
    # Lock-in is a large-system property: the boundary slot leaves 0.25 * n
    # pools of spare room against total-mass noise of sd sqrt(9.75 * n).  At
    # n = 200 (1.1 sd) the index hovers at the boundary rank with short +-1
    # excursions; at n = 3200 (4.5 sd) it climbs there and stays.
    family = two_class_family()
    target = optimal_assignment(family, TWO_CLASS_ALPHA, 9.75).sigma_index
    assert target == 20
    for m in lockin_runs + lockin_scale_runs:
        assert m.rank_history[0] == (0.0, 1)  # empty start learns from the bottom
        assert max(r for _, r in m.rank_history) >= target  # the index does get there

    # desk leg: the boundary rank holds the largest share of the final window
    shares = [window_shares(m, 180.0) for m in lockin_runs]
    for seed, share in enumerate(shares):
        other = max(v for r, v in share.items() if r != target)
        assert share[target] > other, (
            f"n = 200 seed {130 + seed}: {share[target]:.2f} of the "
            f"final window at rank {target}, {other:.2f} at another rank"
        )
    at_target = [share[target] for share in shares]
    off_target = max(v for share in shares for r, v in share.items() if r != target)

    # scale leg: strict containment through the final 80% of the run
    locked = sum(rank_locked(m, 30.0, target) for m in lockin_scale_runs)
    assert locked >= 18, f"n = 3200: locked in only {locked}/20 seeds"
    print(
        f"criterion 9 PASS: n = 200, rank {target} modal in 20/20 seeds (share "
        f"{min(at_target):.2f}-{max(at_target):.2f}, any other rank <= "
        f"{off_target:.2f}); n = 3200, rank {target} held for the final 80% in "
        f"{locked}/20 seeds"
    )


# ---------------------------------------------------------------------------
# criterion 10: greedy dispatch is strictly suboptimal on the capped system


def test_criterion_10_greedy_counterexample(counterexample_pairs):
    closed_form = 1.0 - math.exp(-1.0)  # fixed:2 long-run total utility
    fixed_vals = np.array([2.0 * fx.avg_u for _, fx in counterexample_pairs])
    greedy_vals = np.array([2.0 * jl.avg_u for jl, _ in counterexample_pairs])

    mean = float(fixed_vals.mean())
    se = float(fixed_vals.std(ddof=1) / math.sqrt(len(fixed_vals)))
    assert abs(mean - closed_form) <= 3.0 * se, f"{mean:.4f} vs {closed_form:.4f} +- {se:.4f}"

    wins = int((greedy_vals < fixed_vals).sum())
    assert wins >= 19, f"greedy below fixed in only {wins}/20 pairs"
    print(
        f"criterion 10 PASS: fixed mean {mean:.4f} (truth {closed_form:.4f}, "
        f"SE {se:.4f}), greedy strictly below in {wins}/20 pairs"
    )
