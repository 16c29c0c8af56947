import math

import pytest

from poolsim.model import (
    Coordinate,
    Linear,
    LogQuality,
    OccupancyState,
    SystemConfig,
    UtilityFamily,
)
from poolsim.policies import (
    Jlmu,
    Slta,
    UniformDispatch,
    parse_policy,
)
from poolsim.sim import RunConfig, simulate

from reference import PoolModel, audit_tokens, rank_precedes

from conftest import (
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    piecewise_family,
    shared_resource_family,
    two_class_family,
    two_class_system,
)


def slot_of(decision):
    """The slot ``(cls, occ + 1)`` of a decision's cell ``(cls, occ, delta)``."""
    cls, occ, _ = decision
    return Coordinate(cls, occ + 1)


def bound_slta(family, alpha, occupancies, rank, beta=None):
    """Slta attached to a concrete state at the given learning rank."""
    state = PoolModel(alpha, occupancies).state()
    cfg = SystemConfig(n=state.n, alpha=alpha, mu=1.0, rho=1.0, family=family)
    policy = Slta(beta=beta)
    policy.bind(state, cfg, initial_rank=rank)
    return state, policy


def bound_jlmu(family, state):
    """Jlmu attached to a concrete state, with marginal caches grown to its deepest pool."""
    for cls in range(1, state.m + 1):
        family.marginal(cls, state.max_occupied(cls))
    cfg = SystemConfig(n=state.n, alpha=state.alpha, mu=1.0, rho=1.0, family=family)
    policy = Jlmu()
    policy.bind(state, cfg)
    return policy


def jlmu_pick(family, state):
    """The slot greedy dispatch fills in this state."""
    return slot_of(bound_jlmu(family, state).decide(state, 0.0))


# ---------------------------------------------------------------------------
# greedy dispatch


def test_jlmu_empty_two_class():
    fam = two_class_family()
    state = OccupancyState.empty(4, TWO_CLASS_ALPHA)
    assert jlmu_pick(fam, state) == Coordinate(2, 1)


def test_jlmu_exact_tie_goes_to_the_smaller_class():
    # equal marginals everywhere: the dictionary-smaller slot (1, 1) wins
    fam = UtilityFamily((Linear(1.0), Linear(1.0)))
    state = OccupancyState.empty(4, TWO_CLASS_ALPHA)
    assert jlmu_pick(fam, state) == Coordinate(1, 1)


def test_jlmu_is_jsq_with_one_class():
    fam = UtilityFamily((LogQuality(9.0),))
    state = PoolModel((1.0,), [[0, 0, 3]]).state()
    assert jlmu_pick(fam, state) == Coordinate(1, 1)


def test_jlmu_piecewise_crossover():
    # class-2 pools at 5 tasks push the next marginal to 1.45, below the
    # capped class at 1.5
    fam = piecewise_family()
    state = PoolModel(THREE_CLASS_ALPHA, [[0] * 4, [5, 5], [0, 0]]).state()
    assert jlmu_pick(fam, state) == Coordinate(3, 1)


def brute_force_target(fam, occs):
    best = None
    for ci, row in enumerate(occs):
        for v in row:
            cand = Coordinate(ci + 1, v + 1)
            if best is None or rank_precedes(fam, best, cand):
                best = cand
    return best


def test_jlmu_maximizes_over_all_pools(rng):
    cases = [
        (two_class_family(), TWO_CLASS_ALPHA, (4, 4)),
        (piecewise_family(), THREE_CLASS_ALPHA, (4, 2, 2)),
    ]
    for fam, alpha, sizes in cases:
        for _ in range(60):
            occs = [rng.integers(0, 14, size=s).tolist() for s in sizes]
            state = PoolModel(alpha, occs).state()
            assert jlmu_pick(fam, state) == brute_force_target(fam, occs)


def test_jlmu_trace_matches_jsq(rng):
    fam = UtilityFamily((LogQuality(50.0),))
    model = PoolModel((1.0,), [[0] * 5])
    occ = [0] * 5
    for _ in range(200):
        if sum(occ) and rng.uniform() < 0.4:
            pool = int(rng.choice([p for p in range(5) if occ[p] > 0]))
            model.pop(1, occ[pool])
            occ[pool] -= 1
        else:
            target = jlmu_pick(fam, model.state())
            assert target.level - 1 == min(occ)
            pool = occ.index(min(occ))
            model.push(1, occ[pool])
            occ[pool] += 1
        depth = max(occ) + 1
        assert model.state().counts[0][:depth] == [occ.count(v) for v in range(depth)]


# ---------------------------------------------------------------------------
# thresholds and tokens


def test_thresholds_rank_one_is_zero():
    assert two_class_family().class_counts_before(1) == [0, 0]
    assert piecewise_family().class_counts_before(1) == [0, 0, 0]


def test_thresholds_at_boundary_ranks():
    fam = two_class_family()
    assert fam.class_counts_before(20) == [8, 11]
    assert fam.class_counts_before(21) == [8, 12]


def test_thresholds_monotone_and_consistent():
    fam = piecewise_family()
    prev = [0, 0, 0]
    for r in range(1, 40):
        thr = fam.class_counts_before(r)
        assert all(a <= b for a, b in zip(prev, thr))
        assert sum(thr) == r - 1
        boundary = fam.slot(r)
        assert thr[boundary.cls - 1] == boundary.level - 1
        prev = thr


def test_token_counts_worked_example():
    # N(1,0)=1, N(1,2)=1, N(2,0)=2 with thresholds (2,1), boundary (2,2)
    model = PoolModel(TWO_CLASS_ALPHA, [[0, 2], [0, 0]])
    green, yellow = model.tokens([2, 1], Coordinate(2, 2))
    assert green == [1, 2]
    assert yellow == 2


def test_token_counts_empty_and_rank_one():
    model = PoolModel.of(OccupancyState.empty(8, TWO_CLASS_ALPHA))
    green, yellow = model.tokens([3, 2], Coordinate(1, 4))
    assert green == [4, 4]
    assert yellow == 4
    green, yellow = model.tokens([0, 0], Coordinate(2, 1))
    assert green == [0, 0]
    assert yellow == 4


# ---------------------------------------------------------------------------
# learning-policy dispatch clauses
#
# rank 3 of the two-class family has boundary (2,2), thresholds (1,1) and
# previous boundary (1,1), which exercises every clause with four pools.


def test_slta_prefers_green_outside_previous_class():
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[0, 1], [0, 1]], 3)
    for u in (0.0, 0.3, 0.9):
        assert slot_of(policy.decide(state, u)) == Coordinate(2, 1)


def test_slta_falls_back_to_previous_class_green():
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[0, 1], [1, 1]], 3)
    for u in (0.0, 0.5):
        assert slot_of(policy.decide(state, u)) == Coordinate(1, 1)


def test_slta_yellow_only_targets_boundary():
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[1, 1], [1, 1]], 3)
    assert slot_of(policy.decide(state, 0.7)) == Coordinate(2, 2)


def test_slta_no_tokens_uniform_over_pools():
    fam = UtilityFamily((LogQuality(9.0),))
    state = PoolModel((1.0,), [[5, 5, 5]]).state()
    policy = Slta()
    policy._thr = [0]
    policy._boundary = Coordinate(1, 1)
    policy._prev_ci = -1
    policy._green = [0]
    policy._total_green = 0
    assert slot_of(policy.decide(state, 0.1)) == Coordinate(1, 6)
    assert slot_of(policy.decide(state, 0.99)) == Coordinate(1, 6)


def test_slta_single_class_saturated_below_boundary():
    # all pools at 5 with the boundary at (1,6): the boundary level itself
    # still has room, so the task lands there regardless of the draw
    fam = UtilityFamily((LogQuality(9.0),))
    state, policy = bound_slta(fam, (1.0,), [[5, 5, 5]], 6)
    for u in (0.0, 0.42, 0.9999):
        assert slot_of(policy.decide(state, u)) == Coordinate(1, 6)


def test_slta_green_draw_is_proportional():
    # two green pools in class 2 at levels 0; draws split between them evenly
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[1, 1], [0, 0]], 3)
    assert slot_of(policy.decide(state, 0.2)) == Coordinate(2, 1)
    assert slot_of(policy.decide(state, 0.8)) == Coordinate(2, 1)


def test_slta_routing_stays_at_or_above_boundary(rng):
    fam = two_class_family()
    for _ in range(40):
        occs = [rng.integers(0, 3, size=2).tolist(), rng.integers(0, 3, size=2).tolist()]
        model = PoolModel(TWO_CLASS_ALPHA, occs)
        state = model.state()
        policy = Slta()
        cfg = SystemConfig(n=4, alpha=TWO_CLASS_ALPHA, mu=1.0, rho=1.0, family=fam)
        try:
            policy.bind(state, cfg, initial_rank=3)
        except ValueError:
            continue  # state not good at this rank
        green, yellow = model.tokens(policy.thresholds, policy.boundary)
        if sum(green) + yellow == 0:
            continue
        target = slot_of(policy.decide(state, rng.uniform()))
        assert not rank_precedes(fam, target, policy.boundary)


def test_slta_green_draw_is_exactly_uniform():
    # rank 15 of the three-class family: thresholds (2, 5, 7), boundary (1, 3)
    # and previous boundary (2, 5), so class-2 greens are drawn only when
    # classes 1 and 3 have none
    fam = shared_resource_family()
    # five greens in class 1 and three in class 3; class 2's are held back
    spread = (
        [[0, 0, 1, 1, 1, 2, 2, 3], [2, 4, 5, 6], [3, 6, 6, 8]],
        [(1, 0), (1, 0), (1, 1), (1, 1), (1, 1), (3, 3), (3, 6), (3, 6)],
    )
    cases = [
        (*spread, False),
        # only the previous boundary class still holds greens
        (
            [[2, 2, 2, 2, 3, 3, 3, 3], [0, 2, 2, 4], [7, 7, 8, 9]],
            [(2, 0), (2, 2), (2, 2), (2, 4)],
            False,
        ),
        # the first state again, with the min pointers of classes 2 and 3
        # written one level below their lowest pools: a reader given a lower
        # bound must pick the same pools
        (*spread, True),
    ]
    for occs, cells, lagging in cases:
        state, policy = bound_slta(fam, THREE_CLASS_ALPHA, occs, 15)
        if lagging:
            for cls in (2, 3):
                state.min_occ[cls - 1] = min(occs[cls - 1]) - 1
        assert policy.thresholds == [2, 5, 7]
        assert policy.boundary == Coordinate(1, 3)
        # the midpoint of each of the equal bins picks each green pool once
        pool = len(cells)
        drawn = sorted(policy.decide(state, (i + 0.5) / pool)[:2] for i in range(pool))
        assert drawn == cells
        # the top draw lands on the last green cell
        assert policy.decide(state, math.nextafter(1.0, 0.0))[:2] == cells[-1]


def test_slta_green_walk_passes_classes_below_their_threshold():
    # rank 23: thresholds (4, 7, 11), previous boundary (3, 11). Every pool is
    # empty, so class 1's count list ends below its threshold and the walk
    # must step past it to reach class 2.
    fam = shared_resource_family()
    state, policy = bound_slta(fam, THREE_CLASS_ALPHA, [[0] * 8, [0] * 4, [0] * 4], 23)
    assert policy.thresholds == [4, 7, 11]
    assert len(state.counts[0]) < 4
    drawn = sorted(policy.decide(state, (i + 0.5) / 12)[:2] for i in range(12))
    assert drawn == [(1, 0)] * 8 + [(2, 0)] * 4


def test_slta_green_pick_is_the_kth_green_pool_in_slot_order(rng):
    # The green pick against a reference that lists every green pool in
    # (class, level) order, outside the previous boundary class unless only
    # it holds greens, and takes the k-th. Each class draws its pools low
    # (its count list may end below the threshold), mixed, or at or above
    # its threshold (no greens), on random three-class states and ranks.
    fam = shared_resource_family()
    seen = {"short row": 0, "skipped class": 0, "only the skipped class": 0}
    for _ in range(400):
        rank = int(rng.integers(1, 40))
        thr = fam.class_counts_before(rank)
        occs = []
        for size, depth in zip((8, 4, 4), thr):
            lo, hi = [(0, max(depth // 2, 1)), (0, depth + 2), (depth, depth + 2)][
                rng.integers(3)
            ]
            occs.append(rng.integers(lo, hi, size=size).tolist())
        try:
            state, policy = bound_slta(fam, THREE_CLASS_ALPHA, occs, rank)
        except ValueError:
            continue  # not good at this rank
        prev = fam.slot(rank - 1).cls - 1 if rank > 1 else -1
        greens = [
            [(ci + 1, v) for v in sorted(row) if v < depth]
            for ci, (row, depth) in enumerate(zip(occs, thr))
        ]
        cells = [cell for ci, row in enumerate(greens) if ci != prev for cell in row]
        if prev >= 0 and greens[prev]:
            seen["skipped class" if cells else "only the skipped class"] += 1
        if not cells and prev >= 0:
            cells = greens[prev]
        if not cells:
            continue  # no green pool
        seen["short row"] += any(
            len(state.counts[cls - 1]) < thr[cls - 1] for cls, _ in cells
        )
        pool = len(cells)
        for i in range(pool):
            assert policy.decide(state, (i + 0.5) / pool)[:2] == cells[i], (rank, occs, i)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# learning rule


def test_learn_stays_put_on_empty_start():
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[0, 0], [0, 0]], 1)
    assert policy.decide(state, 0.5)[2] == 0


def test_learn_decrements_at_exact_quota():
    fam = two_class_family()
    # rank 2: boundary (1,1), previous boundary (2,1), thresholds (0,1)
    state, policy = bound_slta(fam, TWO_CLASS_ALPHA, [[0, 0], [0, 0]], 2, beta=0.5)
    assert policy.thresholds == [0, 1]
    green, _ = PoolModel.of(state).tokens(policy.thresholds, policy.boundary)
    assert sum(green) == 2  # equals n * beta exactly
    assert policy.decide(state, 0.5)[2] == -1
    # beta = 1 binds with quota n = 4, above the 2 green tokens
    state, policy = bound_slta(fam, TWO_CLASS_ALPHA, [[0, 0], [0, 0]], 2, beta=1.0)
    assert policy.decide(state, 0.5)[2] == 0
    for beta in (0.0, 1.5):
        with pytest.raises(ValueError, match="beta"):
            bound_slta(fam, TWO_CLASS_ALPHA, [[0, 0], [0, 0]], 2, beta=beta)


def test_learn_increments_when_one_yellow_left():
    state, policy = bound_slta(two_class_family(), TWO_CLASS_ALPHA, [[1, 1], [1, 2]], 3)
    green, yellow = PoolModel.of(state).tokens(policy.thresholds, policy.boundary)
    assert sum(green) == 0 and yellow == 1
    assert policy.decide(state, 0.5)[2] == 1


def test_learn_never_fires_both_ways(rng):
    fam = two_class_family()
    cfg = SystemConfig(n=4, alpha=TWO_CLASS_ALPHA, mu=1.0, rho=1.0, family=fam)
    seen = set()
    for _ in range(120):
        occs = [rng.integers(0, 4, size=2).tolist(), rng.integers(0, 4, size=2).tolist()]
        state = PoolModel(TWO_CLASS_ALPHA, occs).state()
        policy = Slta(beta=0.5)
        try:
            policy.bind(state, cfg, initial_rank=int(rng.integers(1, 8)))
        except ValueError:
            continue
        delta = policy.decide(state, 0.5)[2]
        assert delta in (-1, 0, 1)
        seen.add(delta)
    assert seen == {-1, 0, 1}


def test_learning_applied_after_dispatch():
    # the decrement decided pre-arrival must not change where the task goes
    fam = two_class_family()
    state, policy = bound_slta(fam, TWO_CLASS_ALPHA, [[0, 0], [0, 0]], 2, beta=0.5)
    cls, occ, delta = policy.decide(state, 0.0)
    assert (cls, occ, delta) == (2, 0, -1)
    assert policy.rank == 2  # unchanged until the simulator applies it
    model = PoolModel.of(state)
    model.push(cls, occ)
    policy.notify_push(cls - 1, occ)
    policy.apply_learning(model.state(), delta)
    assert policy.rank == 1
    audit_tokens(policy, model)


# ---------------------------------------------------------------------------
# goodness and token upkeep under simulation


def test_goodness_and_tokens_preserved_in_simulation():
    config = two_class_system(20, 9.75)

    def audit(kind, t, state, policy):
        audit_tokens(policy, PoolModel.of(state))
        policy.check_goodness(state)

    metrics = simulate(
        config, "slta", RunConfig(horizon=30.0, seed=7, init="empty"), hook=audit
    )
    assert metrics.events > 200


# ---------------------------------------------------------------------------
# baselines


def test_random_dispatch_examples():
    policy = UniformDispatch()
    single = PoolModel((1.0,), [[2]]).state()
    assert slot_of(policy.decide(single, 0.99)) == Coordinate(1, 3)
    state = PoolModel((1.0,), [[0, 4]]).state()
    assert slot_of(policy.decide(state, 0.3)) == Coordinate(1, 1)
    assert slot_of(policy.decide(state, 0.8)) == Coordinate(1, 5)


def test_fixed_class_dispatch_examples():
    policy = UniformDispatch(2)
    state = OccupancyState.empty(4, TWO_CLASS_ALPHA)
    assert slot_of(policy.decide(state, 0.1)) == Coordinate(2, 1)
    state = PoolModel(TWO_CLASS_ALPHA, [[0, 0], [3, 7]]).state()
    assert slot_of(policy.decide(state, 0.3)) == Coordinate(2, 4)
    assert slot_of(policy.decide(state, 0.9)) == Coordinate(2, 8)


def test_fixed_class_validation():
    with pytest.raises(ValueError):
        UniformDispatch(0)
    policy = UniformDispatch(3)
    state = OccupancyState.empty(4, TWO_CLASS_ALPHA)
    cfg = SystemConfig(
        n=4, alpha=TWO_CLASS_ALPHA, mu=1.0, rho=1.0, family=two_class_family()
    )
    with pytest.raises(ValueError):
        policy.bind(state, cfg)


def test_parse_policy():
    assert isinstance(parse_policy("jlmu"), Jlmu)
    assert isinstance(parse_policy("random"), UniformDispatch)
    slta = parse_policy("slta", beta=0.25)
    assert isinstance(slta, Slta)
    fixed = parse_policy("fixed:2")
    assert isinstance(fixed, UniformDispatch) and fixed.cls == 2
    assert fixed.name == "fixed:2"  # named before any bind
    for bad in ("fixed:two", "fixed: 1", "fixed:+1", "fixed:0", "lru"):
        with pytest.raises(ValueError):
            parse_policy(bad)
