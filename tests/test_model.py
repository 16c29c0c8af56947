import math
import pickle
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.config import utility_from_dict
from poolsim.model import (
    MAX_ENUMERATION,
    CappedLinear,
    Coordinate,
    FluidSystem,
    Linear,
    LogQuality,
    OccupancyState,
    QVector,
    SystemConfig,
    Tabulated,
    UtilityFamily,
    occupancy_to_q,
)

from reference import PoolModel, overall_utility, rank_precedes

from conftest import (
    QUAD_VALUES,
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    piecewise_family,
    shared_resource_family,
    two_class_family,
)


def concave_values(first: float, drops: list[float], start: float = 0.0) -> list[float]:
    """Values whose increments fall by the given amounts: concave by build."""
    values = [start]
    inc = first
    for d in drops:
        values.append(values[-1] + inc)
        inc -= d
    return values


# ---------------------------------------------------------------------------
# utilities and marginals


def test_log_quality_values():
    u = LogQuality(20.0)
    assert u.value(0) == 0.0
    assert u.value(1) == pytest.approx(math.log(20.0), rel=1e-15)
    assert u.value(4) == pytest.approx(4.0 * math.log(5.0), rel=1e-15)


def test_log_quality_known_marginals():
    fam = two_class_family()
    assert fam.marginal(1, 0) == pytest.approx(2.995732273553991, abs=1e-12)
    assert fam.marginal(2, 0) == pytest.approx(3.4011973816621555, abs=1e-12)
    # second task in a class-2 pool: 2 log 15 - log 30 = log 7.5
    assert fam.marginal(2, 1) == pytest.approx(math.log(7.5), rel=1e-12)


def test_linear_and_capped():
    lin = Linear(2.5)
    assert lin.value(3) == 7.5
    assert UtilityFamily((Linear(1.0),)).marginal(1, 17) == 1.0
    cap = CappedLinear(1.5, 20)
    assert cap.value(19) == pytest.approx(28.5)
    assert cap.value(20) == 30.0
    assert cap.value(25) == 30.0
    fam = UtilityFamily((cap,))
    assert fam.marginal(1, 19) == pytest.approx(1.5)
    assert fam.marginal(1, 20) == 0.0


def test_tabulated_quadratic_marginals():
    u = Tabulated(QUAD_VALUES)
    fam = UtilityFamily((u,))
    assert fam.marginal(1, 0) == pytest.approx(1.95, abs=1e-12)
    assert fam.marginal(1, 4) == pytest.approx(1.55, abs=1e-12)
    # past the table the last marginal is carried on
    assert fam.marginal(1, 25) == pytest.approx(fam.marginal(1, 40), abs=1e-12)
    assert u.value(26) == pytest.approx(u.value(25) + fam.marginal(1, 25), rel=1e-12)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: Linear(math.inf), ValueError, "finite slope", id="linear-slope"),
    pytest.param(lambda: CappedLinear(-1.0, 2), ValueError, "finite slope >= 0",
                 id="capped-slope"),
    pytest.param(lambda: CappedLinear(1.0, 0), ValueError, "cap must be an integer >= 1",
                 id="capped-cap"),
    pytest.param(lambda: Tabulated((1.0,)), ValueError, "at least two values", id="table-short"),
    pytest.param(lambda: Tabulated((0.0, math.nan)), ValueError, "values must be finite",
                 id="table-nan"),
    pytest.param(lambda: UtilityFamily(()), ValueError, "at least one class utility",
                 id="family-empty"),
    pytest.param(lambda: two_class_family().marginal(1, -1), ValueError,
                 "occupancy must be >= 0", id="marginal-negative"),
    pytest.param(lambda: two_class_family().slot(0), ValueError, "rank must be >= 1",
                 id="slot-zero"),
    pytest.param(lambda: two_class_family().slot(MAX_ENUMERATION + 1), RuntimeError,
                 "ranked walk exceeded", id="slot-past-cap"),
    pytest.param(lambda: two_class_family().enumerate_ranked(-1), ValueError,
                 "count must be >= 0", id="enumerate-negative"),
    pytest.param(lambda: two_class_family().enumerate_ranked(MAX_ENUMERATION + 1), ValueError,
                 "refusing to enumerate", id="enumerate-past-cap"),
    pytest.param(lambda: FluidSystem((), 1.0, 1.0, two_class_family()), ValueError,
                 "at least one class fraction", id="fractions-empty"),
    pytest.param(lambda: FluidSystem((1.5, -0.5), 1.0, 1.0, two_class_family()), ValueError,
                 "class fraction 2 must be > 0", id="fraction-negative"),
    pytest.param(lambda: QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=np.array(TWO_CLASS_ALPHA)),
                 ValueError, r"tail must be a \(classes, depth\+1\) matrix", id="tail-flat"),
    pytest.param(lambda: QVector.zeros(TWO_CLASS_ALPHA, 2).get(1, -1), ValueError,
                 "level must be >= 0", id="get-negative"),
    pytest.param(lambda: QVector.zeros(TWO_CLASS_ALPHA, 2).l1_distance(QVector.zeros((1.0,), 2)),
                 ValueError, "different class counts", id="distance-classes"),
])
def test_model_refuses_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_tabulated_rejects_convex_segments():
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 3.0))


def test_marginals_never_increase():
    for util in (LogQuality(7.0), Linear(0.3), CappedLinear(2.0, 5), Tabulated(QUAD_VALUES)):
        fam = UtilityFamily((util,))
        fam.marginal(1, 39)
        deltas = fam.marginals[0]
        assert len(deltas) == 40
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))


@given(
    start=st.floats(min_value=-5, max_value=5),
    first=st.floats(min_value=0.01, max_value=10),
    drops=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
)
def test_concave_tables_accepted(start, first, drops):
    u = Tabulated(concave_values(first, drops, start))
    fam = UtilityFamily((u,))
    fam.marginal(1, len(drops) + 3)
    deltas = fam.marginals[0]
    assert all(a >= b - 1e-9 for a, b in zip(deltas, deltas[1:]))


def test_utility_from_dict_round_trip():
    cases = [
        ({"kind": "log_quality", "r": 20.0}, LogQuality(20.0)),
        ({"kind": "linear", "slope": 1.0}, Linear(1.0)),
        ({"kind": "capped_linear", "slope": 1.5, "cap": 20}, CappedLinear(1.5, 20)),
        ({"kind": "table", "values": list(QUAD_VALUES)}, Tabulated(QUAD_VALUES)),
    ]
    for spec, expected in cases:
        u = utility_from_dict(spec)
        assert u == expected
        assert all(u.value(x) == expected.value(x) for x in range(30))


def test_utility_from_dict_rejects_bad_specs():
    with pytest.raises(ValueError):
        utility_from_dict({"kind": "nope"})
    with pytest.raises(ValueError):
        utility_from_dict({"kind": "linear"})  # missing slope
    with pytest.raises(ValueError):
        utility_from_dict({"kind": "linear", "slope": 1.0, "cap": 3})
    with pytest.raises(ValueError):
        utility_from_dict({"kind": "log_quality", "r": -2.0})


# ---------------------------------------------------------------------------
# ranking and enumeration
#
# rank_precedes(family, a, b), the comparator of tests/reference.py, reads
# "a ranks strictly below b".


def test_rank_orders_by_marginal():
    fam = two_class_family()
    # log 20 < log 30, so the first class-1 slot sits below the first class-2 slot
    assert rank_precedes(fam, Coordinate(1, 1), Coordinate(2, 1))
    assert not rank_precedes(fam, Coordinate(2, 1), Coordinate(1, 1))
    # within a strictly concave class, deeper slots rank lower
    assert rank_precedes(fam, Coordinate(1, 2), Coordinate(1, 1))
    assert rank_precedes(fam, Coordinate(2, 2), Coordinate(2, 1))


def test_rank_tie_break_is_dictionary_order():
    fam = UtilityFamily((Linear(1.0), Linear(1.0)))
    # identical marginals everywhere: the dictionary-smaller slot wins
    assert rank_precedes(fam, Coordinate(2, 1), Coordinate(1, 1))
    assert rank_precedes(fam, Coordinate(1, 3), Coordinate(1, 2))
    assert not rank_precedes(fam, Coordinate(1, 3), Coordinate(2, 3))


@pytest.mark.parametrize(
    "family",
    [
        UtilityFamily((Linear(1.0), Linear(1.0))),
        UtilityFamily((Tabulated(QUAD_VALUES), Tabulated(QUAD_VALUES))),
        piecewise_family(),
    ],
    ids=["linear-pair", "equal-tables", "piecewise"],
)
def test_cached_ranking_sorts_by_rank_precedes(family):
    # assign, fluid and SLTA read the cached walk: on
    # families full of ties both must order the slots the same way
    k = 60
    candidates = [Coordinate(c, j) for c in range(1, family.m + 1) for j in range(1, k + 1)]

    def later(a, b):
        return rank_precedes(family, a, b) - rank_precedes(family, b, a)

    assert family.enumerate_ranked(k) == sorted(candidates, key=cmp_to_key(later))[:k]


def test_rank_crossover_between_flat_and_falling_marginals():
    fam = piecewise_family()
    # 1.5 (capped class at level 1) against 1.55 (quadratic class at level 5)
    assert rank_precedes(fam, Coordinate(3, 1), Coordinate(2, 5))
    assert rank_precedes(fam, Coordinate(2, 6), Coordinate(3, 20))


def test_enumeration_two_class_prefix():
    fam = two_class_family()
    assert fam.enumerate_ranked(5) == [
        Coordinate(2, 1),
        Coordinate(1, 1),
        Coordinate(2, 2),
        Coordinate(1, 2),
        Coordinate(2, 3),
    ]


def test_enumeration_single_class():
    fam = UtilityFamily((LogQuality(9.0),))
    assert fam.enumerate_ranked(4) == [Coordinate(1, j) for j in range(1, 5)]


def test_enumeration_piecewise_prefix():
    fam = piecewise_family()
    slots = fam.enumerate_ranked(31)
    assert slots[:5] == [Coordinate(2, j) for j in range(1, 6)]
    assert slots[5:25] == [Coordinate(3, j) for j in range(1, 21)]
    assert slots[25:30] == [Coordinate(2, j) for j in range(6, 11)]
    assert slots[30] == Coordinate(1, 1)


def test_enumeration_is_strictly_decreasing():
    fam = two_class_family()
    slots = fam.enumerate_ranked(40)
    for a, b in zip(slots, slots[1:]):
        assert rank_precedes(fam, b, a)
    # within each class, levels appear without gaps
    for cls in (1, 2):
        levels = [c.level for c in slots if c.cls == cls]
        assert levels == list(range(1, len(levels) + 1))


def test_enumeration_exhausts_boxes():
    # log-quality marginals fall without bound, so a long enough prefix
    # contains every slot up to any fixed level exactly once
    fam = two_class_family()
    slots = fam.enumerate_ranked(400)
    assert len(set(slots)) == len(slots)
    want = {Coordinate(i, j) for i in (1, 2) for j in range(1, 31)}
    assert want <= set(slots)


@pytest.mark.parametrize("make", [two_class_family, piecewise_family, shared_resource_family])
@pytest.mark.parametrize("prefix", [0, 400])
def test_rank_table_matches_the_ranked_walk(make, prefix):
    # entry [ci, j - 1] is the rank of slot (ci + 1, j) among the best
    # m * levels slots, else m * levels + 1, also when a longer prefix is cached
    fam = make()
    fam.enumerate_ranked(prefix)
    for levels in range(1, 81):
        size = fam.m * levels
        want = np.full((fam.m, levels), size + 1)
        for rank, (cls, level) in enumerate(fam.enumerate_ranked(size), 1):
            if level <= levels:
                want[cls - 1, level - 1] = rank
        table = fam.rank_table(levels)
        assert np.array_equal(table, want)
        assert fam.rank_table(levels) is table
        assert not table.flags.writeable


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rank_total_order_laws(data):
    tables = []
    for _ in range(2):
        first = data.draw(st.floats(min_value=0.5, max_value=3.0))
        drops = data.draw(
            st.lists(st.floats(min_value=0, max_value=0.5), min_size=4, max_size=8)
        )
        tables.append(Tabulated(concave_values(first, drops)))
    fam = UtilityFamily(tables)
    box = [Coordinate(i, j) for i in (1, 2) for j in range(1, 9)]

    def key(c):
        return (-fam.marginal(c.cls, c.level - 1), c.cls, c.level)

    # the relation must agree everywhere with the sort key, which makes it a
    # strict total order (irreflexive, antisymmetric, transitive, total)
    for a in box:
        assert not rank_precedes(fam, a, a)
        for b in box:
            if a != b:
                assert rank_precedes(fam, a, b) == (key(a) > key(b))


# ---------------------------------------------------------------------------
# tail profiles


def test_qvector_basics():
    q = QVector.zeros(TWO_CLASS_ALPHA, 3)
    assert q.mass() == 0.0
    assert q.get(1, 0) == 0.5
    assert q.get(2, 17) == 0.0
    assert q.to_pairs() == []

    tail = np.array([[0.5, 0.5, 0.25, 0.0], [0.5, 0.1, 0.1, 0.05]])
    q = QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=tail)
    assert q.mass() == pytest.approx(1.0)
    assert q.class_mass() == pytest.approx([0.75, 0.25])
    assert (1, 2, 0.25) in q.to_pairs()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, level", [(2, 2), (1, 1)])
def test_qvector_rejects_non_finite_entries(cls, level, bad):
    tail = np.zeros((2, 4))
    tail[:, 0] = TWO_CLASS_ALPHA
    tail[cls - 1, level] = bad
    with pytest.raises(ValueError, match="finite"):
        QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=tail)


def test_qvector_owns_read_only_copies():
    alpha = np.array(TWO_CLASS_ALPHA)
    tail = np.array([[0.5, 0.2], [0.5, 0.1]])
    q = QVector(alpha=alpha, tail=tail)
    with pytest.raises(ValueError, match="read-only"):
        q.tail[0, 1] = math.nan
    with pytest.raises(ValueError, match="read-only"):
        q.alpha[0] = math.nan
    alpha[0], tail[0, 1] = math.nan, math.nan
    assert q.alpha[0] == 0.5 and q.tail[0, 1] == 0.2
    # A profile that crosses a process boundary stays read-only.
    back = pickle.loads(pickle.dumps(q))
    assert not back.alpha.flags.writeable and not back.tail.flags.writeable
    np.testing.assert_array_equal(back.tail, q.tail)


def test_qvector_rejects_mismatched_base():
    tail = np.array([[0.4, 0.2], [0.5, 0.1]])
    with pytest.raises(ValueError):
        QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=tail)


def test_qvector_checks_column_0_within_1e_12():
    alpha = np.array(TWO_CLASS_ALPHA)
    tail = np.array([[0.5, 0.2], [0.5, 0.1]])
    tail[1, 0] += 5e-13
    QVector(alpha=alpha, tail=tail)
    for bad in (0.5 + 2e-12, 0.5 - 2e-12, math.nan):
        tail[1, 0] = bad
        with pytest.raises(ValueError, match="class fractions"):
            QVector(alpha=alpha, tail=tail)


def test_point_mass_tail():
    # 4 pools of one class, all holding 2 tasks
    state = PoolModel((1.0,), [[2, 2, 2, 2]]).state()
    q = occupancy_to_q(state)
    assert q.get(1, 1) == 1.0
    assert q.get(1, 2) == 1.0
    assert q.get(1, 3) == 0.0


def test_occupancy_to_q_preserves_mass(rng):
    sizes = (4, 2, 2)
    for _ in range(25):
        occs = [rng.integers(0, 9, size=s).tolist() for s in sizes]
        state = PoolModel(THREE_CLASS_ALPHA, occs).state()
        q = occupancy_to_q(state)
        assert 8 * q.mass() == pytest.approx(state.total_tasks, abs=1e-9)


def test_occupancy_state_push_pop():
    model = PoolModel(TWO_CLASS_ALPHA, [[0, 3], [1, 1]])
    state = model.state()
    assert state.total_tasks == 5
    assert state.min_occ[0] == 0
    assert state.max_occupied(2) == 1
    model.push(1, 0)
    state = model.state()
    assert state.counts[0][1] == 1
    assert state.min_occ[0] == 1
    model.pop(1, 3)
    state = model.state()
    assert state.counts[0][2] == 1
    assert state.class_tasks == [3, 2]
    hist = state.counts[0]
    assert hist[1] == 1 and hist[2] == 1
    # all four pools now hold at least one task
    assert state.tail_count(1, 1) / state.n == pytest.approx(0.5)
    assert state.tail_count(2, 1) / state.n == pytest.approx(0.5)
    assert state.tail_count(1, 2) == 1
    model.audit(state)


def test_occupancy_state_guards():
    model = PoolModel.of(OccupancyState.empty(2, (1.0,)))
    with pytest.raises(ValueError):
        model.pop(1, 0)
    with pytest.raises(ValueError):
        model.pop(1, 1)  # no pool holds a task
    with pytest.raises(ValueError):
        model.push(1, 1)  # no pool holds one task yet
    with pytest.raises(ValueError):
        OccupancyState.empty(3, TWO_CLASS_ALPHA)
    with pytest.raises(ValueError):
        PoolModel(TWO_CLASS_ALPHA, [[0], [0, 0, 0]]).state()
    # the counts constructor: a negative count, class sizes that disagree
    # with alpha, the wrong number of classes
    with pytest.raises(ValueError, match=">= 0"):
        OccupancyState(TWO_CLASS_ALPHA, [[3, -1], [2]])
    with pytest.raises(ValueError, match="n \\* alpha gives it 2"):
        OccupancyState(TWO_CLASS_ALPHA, [[1], [3]])
    with pytest.raises(ValueError, match="integral"):
        OccupancyState(TWO_CLASS_ALPHA, [[1], [2]])
    with pytest.raises(ValueError, match="n must be"):
        OccupancyState((1.0,), [[0, 0]])
    with pytest.raises(ValueError, match="one count list per class"):
        OccupancyState(TWO_CLASS_ALPHA, [[2]])
    with pytest.raises(ValueError, match="one count list per class"):
        OccupancyState(TWO_CLASS_ALPHA, [[2], [2], [0]])


def test_pick_task_weights_levels_by_tasks():
    # class 1: pools at 1 and 3 tasks; class 2: both pools at 1 task
    model = PoolModel(TWO_CLASS_ALPHA, [[1, 3], [1, 1]])
    picks = [model.pick_task(k / 6) for k in range(6)]
    assert picks == [(1, 1), (1, 3), (1, 3), (1, 3), (2, 1), (2, 1)]
    assert model.pick_task(1.0 - 2.0**-53) == (2, 1)


def test_pick_pool_by_class_then_level():
    state = PoolModel(TWO_CLASS_ALPHA, [[2, 0], [5, 5]]).state()
    assert [state.pick_pool(k / 4) for k in range(4)] == [(1, 0), (1, 2), (2, 5), (2, 5)]
    assert state.pick_pool(0.6, cls=1) == (1, 2)
    assert state.pick_pool(1.0 - 2.0**-53, cls=2) == (2, 5)


def test_counts_constructor_histogram_form():
    # histogram [0, 2, 1] means: none empty, two pools at 1, one at 2
    state = OccupancyState((0.75, 0.25), [[0, 2, 1], [1]])
    assert state.n == 4
    assert state.total_tasks == 4
    assert state.counts[0][1] == 2
    assert state.counts[1][0] == 1
    PoolModel.of(state).audit(state)


# ---------------------------------------------------------------------------
# overall utility


def test_overall_utility_closed_form():
    fam = two_class_family()
    tail = np.zeros((2, 14))
    tail[:, 0] = 0.5
    tail[0, 1:9] = 0.5
    tail[1, 1:13] = 0.5
    q = QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=tail)
    # every pool at r(i)/2.5 tasks: the value telescopes to 10 log 2.5
    assert overall_utility(fam, q) == pytest.approx(10.0 * math.log(2.5), rel=1e-13)


def test_overall_utility_matches_occupancy_sum(rng):
    # marginal form against direct per-pool summation on integer states
    fam = piecewise_family()
    sizes = (4, 2, 2)
    for _ in range(20):
        occs = [rng.integers(0, 25, size=s).tolist() for s in sizes]
        state = PoolModel(THREE_CLASS_ALPHA, occs).state()
        q = occupancy_to_q(state)
        direct = sum(fam.value(ci + 1, v) for ci, row in enumerate(occs) for v in row)
        assert 8 * overall_utility(fam, q) == pytest.approx(direct, abs=1e-9)
        assert state.aggregate_value(fam) == pytest.approx(direct, abs=1e-9)


def test_overall_utility_counts_value_at_zero():
    fam = UtilityFamily((Tabulated((0.5, 1.0, 1.25)),))
    q = QVector.zeros((1.0,), 2)
    assert overall_utility(fam, q) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# system construction


def test_system_config_validation():
    fam = two_class_family()
    cfg = SystemConfig(n=10, alpha=TWO_CLASS_ALPHA, rho=2.0, mu=0.5, family=fam)
    assert cfg.lam == pytest.approx(1.0)
    assert cfg.rho == pytest.approx(2.0)
    assert cfg.class_sizes == (5, 5)

    with pytest.raises(ValueError):
        SystemConfig(n=3, alpha=TWO_CLASS_ALPHA, rho=1.0, mu=1.0, family=fam)
    with pytest.raises(ValueError):
        SystemConfig(n=4, alpha=(0.6, 0.5), rho=1.0, mu=1.0, family=fam)
    with pytest.raises(ValueError):
        SystemConfig(n=4, alpha=TWO_CLASS_ALPHA, rho=1.0, mu=0.0, family=fam)
    with pytest.raises(ValueError):
        SystemConfig(n=4, alpha=(1.0,), rho=1.0, mu=1.0, family=fam)
    # the last pair is finite, but its arrival rate rho * mu is not
    for rho, mu in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan),
                    (10.0, 1e308)):
        with pytest.raises(ValueError):
            SystemConfig(n=4, alpha=TWO_CLASS_ALPHA, rho=rho, mu=mu, family=fam)
    # zero load is allowed; it models a draining system
    cfg0 = SystemConfig(n=4, alpha=TWO_CLASS_ALPHA, rho=0.0, mu=1.0, family=fam)
    assert cfg0.lam == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_every_class_needs_a_pool(n):
    # n * 1e-10 lies within 1e-9 of 0 pools, which once passed the integrality
    # check and left a state with an empty class
    alpha = (1e-10, 1.0 - 1e-10)
    with pytest.raises(ValueError, match="integral and >= 1: class 1 would get"):
        SystemConfig(n=n, alpha=alpha, rho=1.0, mu=1.0, family=two_class_family())
    with pytest.raises(ValueError, match="integral and >= 1: class 1 would get"):
        OccupancyState.empty(n, alpha)
