import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim import sim
from poolsim.cli import main
from poolsim.model import CappedLinear, Linear, SystemConfig, UtilityFamily
from poolsim.policies import Jlmu, _first_open_rank, parse_policy
from poolsim.sim import (
    MAX_EVENTS,
    BoundViolation,
    Metrics,
    RunConfig,
    _stream,
    batch_means,
    coupled_simulate,
    init_state,
    simulate,
)

from reference import PoolModel, audit_tokens

from conftest import (
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    batched_run,
    piecewise_family,
    two_class_family,
    two_class_system,
)

COMPARED = (
    "policy",
    "avg_u",
    "avg_s",
    "empirical_bound",
    "bound_rho",
    "r_final",
    "switches",
    "events",
)


def fields(metrics: Metrics) -> tuple:
    return tuple(getattr(metrics, name) for name in COMPARED)


# ---------------------------------------------------------------------------
# run configuration


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(horizon=0.0)
    with pytest.raises(ValueError):
        RunConfig(horizon=10.0, warmup=10.0)
    with pytest.raises(ValueError):
        RunConfig(horizon=10.0, init="steady")
    for times in ((1.0, 1.0), (-1.0, 0.5), (0.5, 10.5)):
        with pytest.raises(ValueError):
            RunConfig(horizon=10.0, sample_times=times)


def test_run_config_rejects_non_finite_times():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RunConfig(horizon=bad)
        with pytest.raises(ValueError):
            RunConfig(horizon=10.0, warmup=bad)
        with pytest.raises(ValueError):
            RunConfig(horizon=10.0, sample_times=(1.0, bad))


@pytest.mark.parametrize("field", ["seed", "replication"])
def test_run_config_refuses_negative_stream_keys(field):
    with pytest.raises(ValueError, match="seed and replication must be >= 0"):
        RunConfig(horizon=10.0, **{field: -1})


# ---------------------------------------------------------------------------
# initial states


def test_init_state_empty():
    config = two_class_system(8, 9.75)
    state = init_state(config, "empty")
    assert _first_open_rank(config.family, state) == 1
    assert state.total_tasks == 0
    assert state.counts[0][0] == 4 and state.counts[1][0] == 4


def test_init_state_optimal_integral_load():
    config = two_class_system(50, 10.0)
    state = init_state(config, "optimal")
    assert state.counts[0][8] == 25
    assert state.counts[1][12] == 25
    assert state.total_tasks == 500
    assert _first_open_rank(config.family, state) == 21  # the boundary slot of the greedy fill


def test_init_state_optimal_fractional_load():
    config = two_class_system(8, 9.75)
    state = init_state(config, "optimal")
    assert state.counts[0][8] == 4
    assert state.counts[1][11] == 2
    assert state.counts[1][12] == 2
    assert state.total_tasks == 78  # round(8 * 9.75)
    assert _first_open_rank(config.family, state) == 20


def test_init_state_spreads_classes_evenly():
    config = two_class_system(50, 9.75)
    state = init_state(config, "optimal")
    assert state.total_tasks == round(50 * 9.75)
    for cls in (1, 2):
        present = [v for v, c in enumerate(state.counts[cls - 1]) if c]
        assert len(present) <= 2
        assert max(present) - min(present) <= 1
    PoolModel.of(state).audit(state)


def walked_open_rank(family: UtilityFamily, low: list[int]) -> int:
    """Reference: walk the ranking to the first slot above its class's lowest pool."""
    rank = 1
    while True:
        cls, level = family.slot(rank)
        if level > low[cls - 1]:
            return rank
        rank += 1


#: name -> (family factory, class fractions); the last pair's marginals tie.
OPEN_RANK_FAMILIES = {
    "two_class": (two_class_family, TWO_CLASS_ALPHA),
    "piecewise": (piecewise_family, THREE_CLASS_ALPHA),
    "tied": (lambda: UtilityFamily((Linear(1.0), CappedLinear(1.0, 2))), TWO_CLASS_ALPHA),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_first_open_rank_matches_the_slot_walk(data):
    make, alpha = OPEN_RANK_FAMILIES[data.draw(st.sampled_from(sorted(OPEN_RANK_FAMILIES)))]
    scale = data.draw(st.integers(1, 3))
    occupancies = [
        data.draw(st.lists(st.integers(0, 30), min_size=round(4 * a * scale),
                           max_size=round(4 * a * scale)))
        for a in alpha
    ]
    state = PoolModel(alpha, occupancies).state()
    config = SystemConfig(n=state.n, alpha=alpha, rho=1.0, mu=1.0, family=make())
    assert _first_open_rank(config.family, state) == walked_open_rank(make(), state.min_occ)


# ---------------------------------------------------------------------------
# degenerate loads


def test_zero_load_empty_start_is_silent():
    config = two_class_system(4, 0.0)
    metrics = simulate(config, "jlmu", RunConfig(horizon=5.0, warmup=0.0))
    assert metrics.events == 0
    assert metrics.avg_u == 0.0
    assert metrics.avg_s == 0.0


def test_zero_load_coupled_policies_agree():
    family = two_class_family()
    config = SystemConfig(n=8, alpha=TWO_CLASS_ALPHA, mu=1.0, rho=0.0, family=family)
    run = RunConfig(horizon=5.0, warmup=0.0, seed=3)
    out = coupled_simulate(config, ["jlmu", "slta", "random"], run)
    assert {(m.avg_u, m.avg_s, m.events) for m in out} == {(0.0, 0.0, 0)}


def test_unreachable_load_is_refused_before_any_event():
    # no 10^6 ranked slots carry this load; the ceiling at the offered load
    # is taken before the loop, so the refusal does not wait for the horizon
    config = two_class_system(2, 1e7)

    def no_event(*args):
        raise AssertionError("an event ran before the load was refused")

    with pytest.raises(ValueError, match="refusing"):
        simulate(config, "jlmu", RunConfig(horizon=0.01), hook=no_event)


def test_run_past_the_event_cap_is_refused_before_any_event(monkeypatch):
    # the largest acceptance run, n = 3200 over T = 30, expects about 1.9e6 events
    largest = two_class_system(3200, 9.75)
    assert 30.0 * largest.n * (largest.lam + largest.mu * largest.rho) < MAX_EVENTS

    def no_event(*args):
        raise AssertionError("an event ran before the run was refused")

    # 1.6e8 expected events at mu = 1e6; 1.6e301 at mu = 1e300
    for mu in (1e6, 1e300):
        with pytest.raises(ValueError, match="refusing to simulate"):
            simulate(two_class_system(8, 9.75, mu=mu), "jlmu", RunConfig(horizon=1.0),
                     hook=no_event)
    # the cap is inclusive: 10 * 19.5 * 5 = 975 expected events
    monkeypatch.setattr(sim, "MAX_EVENTS", 975)
    config = two_class_system(10, 9.75)
    assert simulate(config, "jlmu", RunConfig(horizon=5.0)).events > 0
    with pytest.raises(ValueError, match="expects 975"):
        simulate(config, "jlmu", RunConfig(horizon=5.0 + 1e-9), hook=no_event)


def test_coupled_runs_are_refused_before_the_clock_is_built(monkeypatch):
    # the shared event clock is drawn once per cell, after the cell's run is
    # admitted; a clock built first would draw 1.6e301 events at mu = 1e300
    def no_clock(*args):
        raise AssertionError("the event clock was built before the run was refused")

    monkeypatch.setattr(sim, "_EventClock", no_clock)
    refused = [
        (two_class_system(2, 1e7), RunConfig(horizon=0.01), "refusing"),
        (two_class_system(8, 9.75, mu=1e6), RunConfig(horizon=1.0), "refusing to simulate"),
        (two_class_system(8, 9.75, mu=1e300), RunConfig(horizon=1.0), "refusing to simulate"),
    ]
    for config, run, message in refused:
        with pytest.raises(ValueError, match=message):
            coupled_simulate(config, ["jlmu", "slta"], run)
        with pytest.raises(ValueError, match=message):
            simulate(config, "jlmu", run)
    monkeypatch.undo()
    # the cap is inclusive on this path too: 10 * 19.5 * 5 = 975 expected events
    monkeypatch.setattr(sim, "MAX_EVENTS", 975)
    config = two_class_system(10, 9.75)
    assert all(m.events > 0 for m in coupled_simulate(config, ["jlmu", "slta"],
                                                       RunConfig(horizon=5.0)))
    with pytest.raises(ValueError, match="expects 975"):
        coupled_simulate(config, ["jlmu", "slta"], RunConfig(horizon=5.0 + 1e-9))


# ---------------------------------------------------------------------------
# determinism and coupling


def test_simulate_is_deterministic():
    config = two_class_system(10, 4.0)
    run = RunConfig(horizon=40.0, seed=11, replication=2)
    a = simulate(config, "slta", run)
    b = simulate(config, "slta", run)
    assert fields(a) == fields(b)
    assert a.rank_history == b.rank_history


PINNED_PATHS = {
    # policy: (avg_u, avg_s, events, switches, r_final)
    "jlmu": (9.138293292155682, 9.957277184165495, 15262, 0, None),
    "slta": (9.138048361317637, 9.957277184165495, 15262, 144, 19),
    "random": (8.403624068949847, 9.957277184165495, 15262, 0, None),
    "fixed:1": (-0.22804455608084287, 9.957277184165495, 15262, 0, None),
}


def test_fixed_seed_sample_paths_are_pinned():
    # exact values: a refactor of the event loop or of a policy must leave
    # every sample path bit-for-bit where it was
    config = two_class_system(40, 9.75)
    run = RunConfig(horizon=20.0, seed=3, init="empty")
    for policy, expected in PINNED_PATHS.items():
        m = simulate(config, policy, run)
        assert (m.avg_u, m.avg_s, m.events, m.switches, m.r_final) == expected, policy


BLOCK_CROSSING_PATHS = {
    # policy: (avg_u, avg_s, events, switches, r_final, s_batches, snapshot digest)
    "jlmu": (
        9.153488844873134, 9.840384139212881, 62204, 0, None,
        [9.92009631984687, 9.813366589001268, 9.99828069626624, 9.629792951737148],
        "9b2d687368fddef5",
    ),
    "slta": (
        9.153206188475425, 9.840384139212881, 62204, 535, 20,
        [9.92009631984687, 9.813366589001268, 9.99828069626624, 9.629792951737148],
        "f73104615f9ac206",
    ),
}


def snapshot_digest(trajectory) -> str:
    digest = hashlib.sha256()
    for t, q in trajectory:
        digest.update(repr((t, q.tail.tolist())).encode())
    return digest.hexdigest()[:16]


def test_sample_paths_across_stream_blocks_are_pinned():
    # 62204 events span four of the 16384-event stream blocks, so a refill
    # that skips or repeats draws, or event and selection draws that fall out
    # of lockstep, moves these values; warmup, the hook and snapshots are all
    # on, and the four batch means of the task total integrate the hook's states
    config = two_class_system(40, 9.75)
    grid = (15.0, 40.0, 65.0, 79.5)
    run = RunConfig(horizon=80.0, warmup=10.0, seed=3, init="empty", sample_times=grid)
    for policy, expected in BLOCK_CROSSING_PATHS.items():
        m, _, s_batches = batched_run(config, policy, run, 4)
        assert [t for t, _ in m.trajectory] == list(grid)
        got = (
            m.avg_u, m.avg_s, m.events, m.switches, m.r_final,
            s_batches, snapshot_digest(m.trajectory),
        )
        assert got == expected, policy


@pytest.mark.parametrize("init", ["empty", "optimal"])
@pytest.mark.parametrize(
    "name, three_class",
    [pytest.param(name, False, id=name) for name in ("jlmu", "random", "fixed:1", "slta")]
    + [pytest.param(name, True, id=f"3class-{name}")
       for name in ("jlmu", "random", "fixed:3", "slta")],
)
def test_kernel_moves_match_the_reference_moves(name, three_class, init):
    # Replays every event on the pool-level model of tests/reference.py: a
    # departure draws its task there, and an arrival goes where a second
    # policy, fed the model's pools, sends it; the selection draws are
    # regenerated from the run's stream. After each event the kernel's state,
    # min-level pointers included, must hold exactly the model's pools, and
    # SLTA's rank and green counters must agree with the model.
    if three_class:
        config = SystemConfig(n=16, alpha=THREE_CLASS_ALPHA, rho=7.0, mu=1.0,
                              family=piecewise_family())
        run = RunConfig(horizon=90.0, seed=8, replication=1, init=init)
    else:
        config = two_class_system(20, 9.75)
        run = RunConfig(horizon=45.0, seed=8, replication=1, init=init)
    start = init_state(config, init)
    model = PoolModel.of(start)
    reference = parse_policy(name)
    reference.bind(model.state(), config)
    draws = _stream(run.seed, run.replication, 1, run.selection_slot)  # selection stream
    seen = []

    def replay(kind, t, state, policy):
        u = draws.random()
        if kind == "arrival":
            cls, occ, delta = reference.decide(model.state(), u)
            model.push(cls, occ)
            if reference.tracks_tokens:
                reference.notify_push(cls - 1, occ)
                reference.apply_learning(model.state(), delta)
        else:
            cls, occ = model.pick_task(u)
            model.pop(cls, occ)
            if reference.tracks_tokens:
                reference.notify_pop(cls - 1, occ)
        model.audit(state)
        assert policy.rank == reference.rank, (kind, t)
        if policy.tracks_tokens:
            audit_tokens(policy, model)
        seen.append(kind)

    metrics = simulate(config, name, run, hook=replay)
    assert len(seen) == metrics.events > 1 << 14


def test_seed_changes_the_path():
    config = two_class_system(10, 4.0)
    a = simulate(config, "jlmu", RunConfig(horizon=40.0, seed=1))
    b = simulate(config, "jlmu", RunConfig(horizon=40.0, seed=2))
    assert a.avg_u != b.avg_u


def test_coupled_identical_policies_identical_metrics():
    config = two_class_system(10, 4.0)
    run = RunConfig(horizon=30.0, seed=5)
    a, b = simulate(config, "jlmu", run), simulate(config, "jlmu", run)
    assert fields(a) == fields(b)


def test_coupled_policies_share_the_mass_path():
    # event times and the arrival-or-departure draws come from one event
    # stream shared by all policies, so every policy sees the same total-mass
    # path and the same bound
    config = two_class_system(20, 6.0)
    run = RunConfig(horizon=60.0, seed=9, init="optimal")
    out = coupled_simulate(config, ["jlmu", "slta", "random"], run)
    assert len({m.avg_s for m in out}) == 1
    assert len({m.empirical_bound for m in out}) == 1
    assert len({m.events for m in out}) == 1
    # and greedy dispatch should not do worse than random dispatch here
    assert out[0].avg_u > out[2].avg_u


def test_shared_clock_equals_each_runs_own_clock():
    # a coupled cell draws its event clock once and walks it per policy; each
    # run must equal a lone simulate with the same selection slot, bit for
    # bit, on a path that crosses stream blocks with warmup and snapshots on
    config = two_class_system(40, 9.75)
    run = RunConfig(
        horizon=80.0, warmup=10.0, seed=3, init="empty", sample_times=(15.0, 40.0, 65.0, 79.5)
    )
    policies = ["jlmu", "slta", "random", "fixed:1"]
    coupled = coupled_simulate(config, policies, run)
    assert coupled[0].events > 2 << 14
    compared = [f.name for f in dataclasses.fields(Metrics) if f.name != "wall_ms"]
    for slot, (name, shared) in enumerate(zip(policies, coupled)):
        own = simulate(config, name, dataclasses.replace(run, selection_slot=slot))
        for field_name in compared:
            a, b = getattr(shared, field_name), getattr(own, field_name)
            if field_name == "trajectory":
                assert [t for t, _ in a] == [t for t, _ in b], name
                a, b = snapshot_digest(a), snapshot_digest(b)
            assert a == b, (name, field_name)


def test_policy_instance_and_string_agree():
    config = two_class_system(6, 2.0)
    run = RunConfig(horizon=20.0, seed=4)
    a = simulate(config, "jlmu", run)
    b = simulate(config, Jlmu(), run)
    assert fields(a) == fields(b)


# ---------------------------------------------------------------------------
# metric accounting


def test_warmup_defaults():
    config = two_class_system(4, 1.0)
    empty = simulate(config, "jlmu", RunConfig(horizon=30.0))
    assert empty.warmup == pytest.approx(5.0)
    eq = simulate(config, "jlmu", RunConfig(horizon=30.0, init="optimal"))
    assert eq.warmup == 0.0
    short = simulate(config, "jlmu", RunConfig(horizon=2.0))
    assert short.warmup == 0.0


def test_mass_matches_mm_infinity():
    # any dispatch policy leaves the total task count an M/M/infinity system
    config = two_class_system(4, 3.0)
    run = RunConfig(horizon=2000.0, seed=12)
    metrics, _, s_batches = batched_run(config, "random", run, 20)
    mean, se = batch_means(s_batches)
    assert se > 0
    assert abs(mean - 3.0) <= 3 * se
    assert metrics.avg_s == pytest.approx(mean, rel=1e-9)


def test_sampled_dispersion_near_poisson():
    # stationary total tasks is Poisson(n rho): index of dispersion near 1
    config = two_class_system(2, 4.0)
    grid = tuple(float(t) for t in range(100, 2000))
    run = RunConfig(horizon=2000.0, seed=3, sample_times=grid)
    metrics = simulate(config, "jlmu", run)
    totals = [2 * q.mass() for _, q in metrics.trajectory]
    mean = sum(totals) / len(totals)
    var = sum((x - mean) ** 2 for x in totals) / (len(totals) - 1)
    assert mean == pytest.approx(8.0, abs=0.6)
    assert 0.75 <= var / mean <= 1.30


def test_trajectory_grid_is_respected():
    config = two_class_system(4, 2.0)
    grid = (1.0, 2.5, 7.75)
    metrics = simulate(
        config, "jlmu", RunConfig(horizon=10.0, warmup=0.0, sample_times=grid)
    )
    assert [t for t, _ in metrics.trajectory] == list(grid)
    for _, q in metrics.trajectory:
        assert q.get(1, 0) == pytest.approx(0.5)


def test_snapshot_at_the_horizon_is_taken():
    # no event falls at the horizon itself, so the last snapshot is taken
    # after the loop
    config = two_class_system(4, 2.0)
    run = RunConfig(horizon=2.0, warmup=0.0, sample_times=(0.5, 1.0, 2.0))
    metrics = simulate(config, "jlmu", run)
    assert [t for t, _ in metrics.trajectory] == [0.5, 1.0, 2.0]


def test_rank_history_tracks_switches():
    config = two_class_system(20, 9.75)
    metrics = simulate(config, "slta", RunConfig(horizon=40.0, seed=2))
    assert metrics.rank_history[0] == (0.0, 1)
    assert metrics.switches == len(metrics.rank_history) - 1
    assert metrics.r_final == metrics.rank_history[-1][1]
    assert metrics.switches > 0
    steps = [r for _, r in metrics.rank_history]
    assert all(abs(b - a) == 1 for a, b in zip(steps, steps[1:]))


def test_jlmu_metrics_have_no_rank():
    config = two_class_system(4, 1.0)
    metrics = simulate(config, "jlmu", RunConfig(horizon=10.0))
    assert metrics.r_final is None
    assert metrics.switches == 0


def test_slta_rank_locks_at_large_scale():
    # At rho = 9.75 the boundary slot buffers 0.25 * n pools against mass
    # noise of sd sqrt(9.75 * n): 3.2 sd at n = 1600, where strict lock-in
    # held in 15 of 20 seeds, and 4.5 sd at n = 3200, where the learning
    # index climbs to the boundary rank and stays in 40 of 40 seeds.
    config = two_class_system(3200, 9.75)
    metrics = simulate(config, "slta", RunConfig(horizon=30.0, seed=99, init="empty"))
    assert metrics.r_final == 20
    assert all(r == 20 for t, r in metrics.rank_history if t > 6.0)
    assert max(t for t, _ in metrics.rank_history) < 6.0


# ---------------------------------------------------------------------------
# structural audits under simulation


def test_conservation_and_consistency_every_event():
    config = two_class_system(10, 3.0)
    sizes = config.class_sizes
    totals = []

    def audit(kind, t, state, policy):
        for cls in (1, 2):
            assert sum(state.counts[cls - 1]) == sizes[cls - 1]
        totals.append(state.total_tasks)
        if len(totals) % 50 == 0:
            PoolModel.of(state).audit(state)

    simulate(config, "jlmu", RunConfig(horizon=30.0, seed=6), hook=audit)
    assert all(abs(b - a) == 1 for a, b in zip(totals, totals[1:]))


def test_bound_holds_across_policies_and_seeds():
    config = two_class_system(10, 4.0)
    for policy in ("jlmu", "slta", "random", "fixed:2"):
        for seed in range(3):
            run = RunConfig(horizon=25.0, seed=seed)
            metrics = simulate(config, policy, run)  # raises BoundViolation on failure
            assert metrics.bound_gap >= -1e-9


class StalledStream:
    """An event stream whose gaps are all 0, so its times never advance. It
    fails the test itself after 100 blocks, so a clock with no cap fails
    instead of hanging."""

    def __init__(self, gen):
        self.gen = gen
        self.blocks = 0

    def standard_exponential(self, size):
        self.blocks += 1
        if self.blocks > 100:
            raise AssertionError("the clock drew 100 blocks of a stalled stream")
        return np.zeros(size)

    def random(self, size):
        return self.gen.random(size)


@pytest.mark.parametrize("path", ["lone", "coupled", "cli"])
def test_stalled_event_clock_is_refused(monkeypatch, capsys, path):
    # a few hundred events expected, so the clock stops after its second block
    def streams(seed, replication, stream, sub=0):
        gen = _stream(seed, replication, stream, sub)
        return StalledStream(gen) if stream == 0 else gen

    monkeypatch.setattr(sim, "_stream", streams)
    config = two_class_system(4, 3.0)
    run = RunConfig(horizon=10.0, seed=1)
    started = time.perf_counter()
    if path == "cli":
        assert main(["table1", "--scale", "4", "--reps", "1", "--T", "1"]) == 3
        assert "stopped advancing" in capsys.readouterr().err
    else:
        with pytest.raises(RuntimeError, match="stopped advancing"):
            if path == "coupled":
                coupled_simulate(config, ["jlmu", "slta"], run)
            else:
                simulate(config, "jlmu", run)
    assert time.perf_counter() - started < 1.0


def test_bound_violation_is_a_runtime_error():
    assert issubclass(BoundViolation, RuntimeError)


@pytest.mark.parametrize("slack, refused", [(-0.5 * sim.BOUND_TOL, False),
                                            (-2.0 * sim.BOUND_TOL, True)])
def test_a_run_above_its_ceiling_is_refused(monkeypatch, slack, refused):
    # the ceiling at the run's realized mass moved to sit `slack` off its
    # average utility: within BOUND_TOL the run passes, beyond it is refused
    config, run = two_class_system(4, 3.0), RunConfig(horizon=10.0, seed=1)
    metrics = simulate(config, "jlmu", run)
    ceiling = sim.upper_bound

    def moved(family, alpha, rho):
        return metrics.avg_u + slack if rho == metrics.avg_s else ceiling(family, alpha, rho)

    monkeypatch.setattr(sim, "upper_bound", moved)
    if refused:
        with pytest.raises(BoundViolation, match="exceeds its ceiling"):
            simulate(config, "jlmu", run)
    else:
        assert simulate(config, "jlmu", run).bound_gap == pytest.approx(slack, abs=1e-12)


def test_cli_exits_3_for_a_run_above_its_ceiling(monkeypatch, capsys):
    monkeypatch.setattr(sim, "upper_bound", lambda family, alpha, rho: 0.0)
    assert main(["table1", "--scale", "4", "--reps", "1", "--T", "1"]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err and "exceeds its ceiling" in err


def test_overflowing_utilities_are_refused():
    # suboptimal's two pools with a = 1e308 at rho = 50 a pool: the greedy
    # run's utility integral overflows, and its average reads NaN
    a = 1e308
    family = UtilityFamily((Linear(a * 0.05), CappedLinear(a, 1)))
    config = SystemConfig(n=2, alpha=TWO_CLASS_ALPHA, rho=50.0, mu=1.0, family=family)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="policy jlmu .* overflow float64"):
        coupled_simulate(config, ["jlmu", "fixed:2"], RunConfig(horizon=1.0, init="empty"))
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# batch means


def test_batch_means_basic():
    mean, se = batch_means([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0)
    with pytest.raises(ValueError):
        batch_means([1.0])


def test_batch_means_scale_exactly_and_do_not_overflow():
    # values near the largest float square and sum past it; scaled by a power
    # of two first, they give the small values' figures times that power, bit
    # for bit
    small = [0.7, 0.55, 0.9, 0.61]
    mean, se = batch_means(small)
    assert batch_means([math.ldexp(v, 1023) for v in small]) == (
        math.ldexp(mean, 1023), math.ldexp(se, 1023),
    )
    assert batch_means([v * 4.0 for v in small]) == (mean * 4.0, se * 4.0)
