import hashlib
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.assign import (
    optimal_assignment,
    upper_bound,
    validate_feasible,
)
from poolsim.fluid import fluid_rhs
from poolsim.model import (
    CappedLinear,
    Coordinate,
    FluidSystem,
    Linear,
    LogQuality,
    QVector,
    Tabulated,
    UtilityFamily,
)

from reference import overall_utility

from conftest import (
    QUAD_VALUES,
    THREE_CLASS_ALPHA,
    TWO_CLASS_ALPHA,
    piecewise_family,
    random_feasible_tail,
    two_class_family,
)

# closed forms for the two-class log-quality family
BOUND_AT_10 = 10.0 * math.log(2.5)
BOUND_AT_975 = 7.0 * math.log(2.5) + 2.75 * math.log(30.0 / 11.0)


# ---------------------------------------------------------------------------
# boundary slot


def boundary(family, alpha, rho):
    opt = optimal_assignment(family, alpha, rho)
    return opt.sigma_star, opt.sigma_index


def test_sigma_star_two_class_integral_load():
    fam = two_class_family()
    coord, rank = boundary(fam, TWO_CLASS_ALPHA, 10.0)
    assert coord == Coordinate(2, 13)
    assert rank == 21


def test_sigma_star_two_class_fractional_load():
    fam = two_class_family()
    coord, rank = boundary(fam, TWO_CLASS_ALPHA, 9.75)
    assert coord == Coordinate(2, 12)
    assert rank == 20


def test_sigma_star_zero_load_is_top_slot():
    fam = two_class_family()
    coord, rank = boundary(fam, TWO_CLASS_ALPHA, 0.0)
    assert coord == Coordinate(2, 1)
    assert rank == 1


def test_sigma_star_rejects_bad_inputs():
    fam = two_class_family()
    with pytest.raises(ValueError):
        boundary(fam, TWO_CLASS_ALPHA, -1.0)
    with pytest.raises(ValueError):
        boundary(fam, (0.25, 0.25, 0.5), 1.0)
    # non-finite loads fail before any walk; a load no 10^6 slots can carry
    # is refused up front instead of growing the cached ranking
    for load in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            boundary(fam, TWO_CLASS_ALPHA, load)
    with pytest.raises(ValueError, match="refusing"):
        boundary(fam, TWO_CLASS_ALPHA, 1e300)


# ---------------------------------------------------------------------------
# the filled profile


def test_assignment_two_class_fill_depths():
    fam = two_class_family()
    opt = optimal_assignment(fam, TWO_CLASS_ALPHA, 10.0)
    q = opt.q_star
    assert q.get(1, 8) == pytest.approx(0.5)
    assert q.get(1, 9) == 0.0
    assert q.get(2, 12) == pytest.approx(0.5)
    assert q.get(2, 13) == pytest.approx(0.0, abs=1e-12)
    assert opt.residual == pytest.approx(0.0, abs=1e-12)
    assert q.mass() == pytest.approx(10.0, abs=1e-12)


def test_assignment_fractional_residual():
    fam = two_class_family()
    opt = optimal_assignment(fam, TWO_CLASS_ALPHA, 9.75)
    assert opt.sigma_star == Coordinate(2, 12)
    assert opt.residual == pytest.approx(0.25, abs=1e-12)
    assert opt.q_star.get(2, 11) == pytest.approx(0.5)
    assert opt.q_star.mass() == pytest.approx(9.75, abs=1e-12)
    validate_feasible(opt.q_star, TWO_CLASS_ALPHA, 9.75)


def test_assignment_piecewise_low_load():
    fam = piecewise_family()
    opt = optimal_assignment(fam, THREE_CLASS_ALPHA, 1.25)
    assert opt.sigma_star == Coordinate(3, 1)
    assert opt.sigma_index == 6
    for j in range(1, 6):
        assert opt.q_star.get(2, j) == pytest.approx(0.25)
    assert opt.q_star.get(1, 1) == 0.0
    assert opt.q_star.get(3, 1) == pytest.approx(0.0, abs=1e-12)


def test_assignment_piecewise_high_load():
    # the linear class is last in rank; it only fills once the others cap out
    fam = piecewise_family()
    opt = optimal_assignment(fam, THREE_CLASS_ALPHA, 8.0)
    assert opt.sigma_star == Coordinate(1, 2)
    assert opt.q_star.get(1, 1) == pytest.approx(0.5)
    assert opt.q_star.get(2, 10) == pytest.approx(0.25)
    assert opt.q_star.get(3, 20) == pytest.approx(0.25)
    assert opt.bound == pytest.approx(11.75, abs=1e-12)


def test_assignment_matches_enumeration_prefix():
    # mass above the boundary must sit exactly on the top-ranked slots
    fam = piecewise_family()
    for rho in (0.3, 1.25, 2.0, 5.55, 8.0, 9.75):
        opt = optimal_assignment(fam, THREE_CLASS_ALPHA, rho)
        prefix = fam.enumerate_ranked(opt.sigma_index - 1)
        filled = {
            (cls, level)
            for cls, level, v in opt.q_star.to_pairs()
            if v >= THREE_CLASS_ALPHA[cls - 1] - 1e-12
        }
        assert filled == {(c.cls, c.level) for c in prefix}


def test_a_load_at_the_cached_mass_walks_past_it():
    # the cached running mass serves a load at once only when its last entry
    # passes it; at a load equal to that entry the boundary is the next slot
    fam = two_class_family()
    mass, _ = fam.ranked_mass(TWO_CLASS_ALPHA, 3.0)
    edge = mass.item(-1)
    got = optimal_assignment(fam, TWO_CLASS_ALPHA, edge)
    want = optimal_assignment(two_class_family(), TWO_CLASS_ALPHA, edge)
    assert got.sigma_index == want.sigma_index == len(mass) + 1
    assert got.q_star.tail.tobytes() == want.q_star.tail.tobytes()
    assert got.bound == want.bound


def reference_walk(fam, alpha, rho):
    """Slot-by-slot greedy walk: the boundary slot, its rank and the residual."""
    cum = 0.0
    rank = 1
    while True:
        coord = fam.slot(rank)
        a = alpha[coord.cls - 1]
        if rho < cum + a:
            return coord, rank, rho - cum
        cum += a
        rank += 1


def test_shared_ranking_matches_fresh_family():
    # one family serves many loads and fraction vectors; its cached ranking
    # must never carry anything that depends on alpha (the cumulative mass).
    # Both vectors have the same widest fraction, so a load walks the same
    # number of slots under either.
    fam = piecewise_family()
    loads = [k / 4.0 for k in range(80)]
    interleaved = [x for pair in zip(loads[::3], loads[::-3]) for x in pair]
    system = FluidSystem(alpha=THREE_CLASS_ALPHA, rho=8.0, mu=1.0, family=fam)
    reference = piecewise_family()
    for order in (loads[::-1], loads, interleaved):
        for rho in order:
            for alpha in (THREE_CLASS_ALPHA, (0.25, 0.25, 0.5)):
                got = optimal_assignment(fam, alpha, rho)
                want = optimal_assignment(piecewise_family(), alpha, rho)
                walked = reference_walk(reference, alpha, rho)
                assert (got.sigma_star, got.sigma_index, got.residual) == walked
                assert got.bound == want.bound
                assert np.array_equal(got.q_star.tail, want.q_star.tail)
        fluid_rhs(system, optimal_assignment(fam, THREE_CLASS_ALPHA, 30.0).q_star)


def test_residual_zero_iff_prefix_sum():
    fam = two_class_family()
    # loads that are multiples of 0.5 land exactly on slot boundaries
    for k in range(0, 12):
        opt = optimal_assignment(fam, TWO_CLASS_ALPHA, 0.5 * k)
        assert opt.residual == pytest.approx(0.0, abs=1e-12)
    opt = optimal_assignment(fam, TWO_CLASS_ALPHA, 3.2)
    assert 0.0 < opt.residual < 0.5


# ---------------------------------------------------------------------------
# the bound


def test_bound_closed_forms():
    fam = two_class_family()
    assert upper_bound(fam, TWO_CLASS_ALPHA, 10.0) == pytest.approx(
        BOUND_AT_10, abs=1e-12
    )
    assert upper_bound(fam, TWO_CLASS_ALPHA, 9.75) == pytest.approx(
        BOUND_AT_975, abs=1e-12
    )
    assert upper_bound(fam, TWO_CLASS_ALPHA, 0.0) == 0.0


def test_bound_counts_value_at_zero():
    fam = UtilityFamily((Tabulated((0.5, 1.0, 1.25)), LogQuality(4.0)))
    assert upper_bound(fam, TWO_CLASS_ALPHA, 0.0) == pytest.approx(0.25)


def test_bound_matches_two_pool_brute_force():
    # one pool per class holding 20 tasks total: enumerate every split
    fam = two_class_family()
    best = max(fam.value(1, x) + fam.value(2, 20 - x) for x in range(21))
    assert best == pytest.approx(2 * upper_bound(fam, TWO_CLASS_ALPHA, 10.0), rel=1e-12)
    splits = [fam.value(1, x) + fam.value(2, 20 - x) for x in range(21)]
    assert splits.index(max(splits)) == 8


def test_bound_is_the_utility_of_the_fill_bit_for_bit():
    # upper_bound reads the fill without building its profile; the float must
    # be the one the utility of that profile gives
    gen = np.random.default_rng(15)
    for fam, alpha in (
        (two_class_family(), TWO_CLASS_ALPHA),
        (piecewise_family(), THREE_CLASS_ALPHA),
    ):
        loads = [0.0, *(k / 100.0 for k in range(1, 2001)), *gen.uniform(0.0, 30.0, 500)]
        for rho in loads:
            fill = optimal_assignment(fam, alpha, rho).q_star
            assert upper_bound(fam, alpha, rho) == overall_utility(fam, fill)
    message = "load 10000000.0 needs more than 1000000 ranked slots; refusing to walk further"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        upper_bound(two_class_family(), TWO_CLASS_ALPHA, 1e7)


#: Marginals and slopes drawn from a few dyadic values, so that slots tie
#: across classes and within a table, and tables reach zero marginals.
STEPS = (0.0, 0.25, 0.5, 1.0, 2.0)


@st.composite
def utilities(draw):
    kind = draw(st.sampled_from(("table", "linear", "capped")))
    if kind == "table":
        steps = sorted(draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=8)),
                       reverse=True)
        start = draw(st.sampled_from((-1.0, 0.0, 0.5)))
        return Tabulated(tuple(np.cumsum([start, *steps]).tolist()))
    if kind == "linear":
        return Linear(draw(st.sampled_from((-0.5, *STEPS))))
    return CappedLinear(draw(st.sampled_from(STEPS)), draw(st.integers(1, 5)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_families_fill_to_the_reference_utility_bit_for_bit(data):
    # 2 to 4 classes of tables, linear and capped-linear utilities under
    # random fractions; one family serves every load, in the order drawn
    m = data.draw(st.integers(2, 4))
    fam = UtilityFamily([data.draw(utilities()) for _ in range(m)])
    weights = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    alpha = [w / sum(weights) for w in weights]
    loads = data.draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6))
    for rho in loads:
        opt = optimal_assignment(fam, alpha, rho)
        validate_feasible(opt.q_star, alpha, rho)
        bound = upper_bound(fam, alpha, rho)
        want = overall_utility(fam, opt.q_star)
        assert np.float64(bound).tobytes() == np.float64(want).tobytes()
        assert np.float64(opt.bound).tobytes() == np.float64(bound).tobytes()


def test_bound_dominates_random_feasible_profiles(rng):
    for fam, alpha in (
        (two_class_family(), TWO_CLASS_ALPHA),
        (piecewise_family(), THREE_CLASS_ALPHA),
    ):
        for _ in range(40):
            q = random_feasible_tail(rng, alpha, depth=12)
            validate_feasible(q, alpha, q.mass())
            assert overall_utility(fam, q) <= upper_bound(fam, alpha, q.mass()) + 1e-9


def test_bound_is_concave_nondecreasing_then_flat_or_falling(rng):
    # marginal slot values are non-increasing, so the bound is concave in load
    fam = piecewise_family()
    loads = np.linspace(0.0, 12.0, 49)
    vals = [upper_bound(fam, THREE_CLASS_ALPHA, x) for x in loads]
    gaps = np.diff(vals)
    assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# pinned bits of the ceiling


def test_ceiling_curve_is_pinned():
    # the u*(rho) curve on rho = 0.01 .. 20, one family walked in rising load
    fam = two_class_family()
    curve = np.array([upper_bound(fam, TWO_CLASS_ALPHA, k / 100.0) for k in range(1, 2001)])
    digest = "69fb3adb45ef10089bf6050ada97c1b4e6a5d40ab8ed8c771125fde8207fa969"
    assert hashlib.sha256(curve.tobytes()).hexdigest() == digest


def test_breakpoint_sweep_is_pinned():
    # criterion 2's sweep: bound, profile shape and profile bytes per load
    fam = piecewise_family()
    sha = hashlib.sha256()
    for k in range(181):
        opt = optimal_assignment(fam, THREE_CLASS_ALPHA, k / 20.0)
        sha.update(np.float64(opt.bound).tobytes())
        sha.update(repr(opt.q_star.tail.shape).encode())
        sha.update(opt.q_star.tail.tobytes())
    digest = "1869e3be9cc27efa37ae37247a270cf95fbbab5d86869099cbb0074ced4f365b"
    assert sha.hexdigest() == digest


def test_interleaved_fractions_match_a_fresh_family():
    # one family serves two fraction vectors with different widest classes,
    # small loads first and then loads that make its ranking grow; nothing
    # computed for one vector may leak into the other
    fam = two_class_family()
    loads = [k / 8.0 for k in range(40)] + [5.0 + 7.5 * k for k in range(27)]
    for rho in loads:
        for alpha in (TWO_CLASS_ALPHA, (0.2, 0.8)):
            got = optimal_assignment(fam, alpha, rho)
            want = optimal_assignment(two_class_family(), alpha, rho)
            assert (got.sigma_star, got.sigma_index) == (want.sigma_star, want.sigma_index)
            assert got.q_star.tail.tobytes() == want.q_star.tail.tobytes()
            assert got.bound == want.bound == upper_bound(fam, alpha, rho)


# ---------------------------------------------------------------------------
# feasibility checks


def test_validate_feasible_rejects_perturbations():
    fam = two_class_family()
    opt = optimal_assignment(fam, TWO_CLASS_ALPHA, 9.75)
    base = opt.q_star.tail

    def variant(edits):
        tail = base.copy()
        for (ci, j), v in edits.items():
            tail[ci, j] = v
        return QVector(alpha=np.array(TWO_CLASS_ALPHA), tail=tail)

    with pytest.raises(ValueError, match="below 0"):
        validate_feasible(variant({(0, 8): -0.01}), TWO_CLASS_ALPHA, 9.74 - 0.01)
    with pytest.raises(ValueError, match="exceeds alpha"):
        validate_feasible(variant({(1, 3): 0.51}), TWO_CLASS_ALPHA, 9.76)
    with pytest.raises(ValueError, match="non-increasing"):
        validate_feasible(variant({(0, 5): 0.2, (0, 6): 0.3}), TWO_CLASS_ALPHA, 9.25)
    with pytest.raises(ValueError, match="total mass"):
        validate_feasible(opt.q_star, TWO_CLASS_ALPHA, 9.5)
    with pytest.raises(ValueError):
        validate_feasible(opt.q_star, (0.25, 0.25, 0.5), 9.75)


# ---------------------------------------------------------------------------
# the ceiling against the full profile


def reference_fill(fam, alpha, rho):
    """The boundary slot, its rank, the filled profile and its utility, from
    the slot-by-slot walk and the utility of the full profile."""
    coord, rank, residual = reference_walk(fam, alpha, rho)
    filled = [0] * len(alpha)
    for slot in fam.enumerate_ranked(rank - 1):
        filled[slot.cls - 1] += 1
    tail = np.zeros((len(alpha), max(max(filled), coord.level) + 1))
    for ci, a in enumerate(alpha):
        tail[ci, : filled[ci] + 1] = a
    tail[coord.cls - 1, coord.level] = residual
    return coord, rank, tail, overall_utility(fam, QVector(alpha=np.asarray(alpha), tail=tail))


def based_family() -> UtilityFamily:
    """Two classes whose utilities are not 0 at 0 tasks."""
    return UtilityFamily((Tabulated((0.5, 1.0, 1.25)),
                          Tabulated(tuple(0.75 + v for v in QUAD_VALUES))))


@pytest.mark.parametrize("make_family, alphas", [
    (two_class_family, (TWO_CLASS_ALPHA, (0.2, 0.8))),
    (piecewise_family, (THREE_CLASS_ALPHA, (0.25, 0.25, 0.5))),
    (based_family, (TWO_CLASS_ALPHA, (0.2, 0.8))),
])
def test_ceiling_matches_the_full_profile_bit_for_bit(make_family, alphas):
    # 5000 loads, each under two fraction vectors in turn on one family: 0,
    # the running class mass of the first 100 slots and its neighbouring
    # floats, and random loads up to 30
    fam, reference = make_family(), make_family()
    gen = np.random.default_rng(25)
    loads = [0.0]
    for alpha in alphas:
        for cum in np.cumsum(np.asarray(alpha)[[c.cls - 1 for c in fam.enumerate_ranked(100)]]):
            loads += [float(cum), math.nextafter(cum, 0.0), math.nextafter(cum, math.inf)]
    loads += gen.uniform(0.0, 30.0, 5000 - len(loads)).tolist()
    for rho in loads:
        for alpha in alphas:
            coord, rank, tail, bound = reference_fill(reference, alpha, rho)
            got = optimal_assignment(fam, alpha, rho)
            assert (got.sigma_star, got.sigma_index) == (coord, rank)
            assert got.q_star.tail.tobytes() == tail.tobytes()
            assert np.float64(got.bound).tobytes() == np.float64(bound).tobytes()
            ceiling = upper_bound(fam, alpha, rho)
            assert np.float64(ceiling).tobytes() == np.float64(bound).tobytes()


def test_a_pickled_family_fills_as_the_original():
    # a family crosses to worker processes by pickle, its fill records too
    fam = two_class_family()
    loads = [0.3, 9.75, 10.0, 9.6]
    want = [optimal_assignment(fam, TWO_CLASS_ALPHA, rho) for rho in loads]
    copy = pickle.loads(pickle.dumps(fam))
    for rho, opt in zip(reversed(loads), reversed(want)):
        got = optimal_assignment(copy, TWO_CLASS_ALPHA, rho)
        assert got.q_star.tail.tobytes() == opt.q_star.tail.tobytes()
        assert got.bound == opt.bound == upper_bound(copy, TWO_CLASS_ALPHA, rho)
