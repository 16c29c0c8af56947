"""Exact long-run averages of tiny systems, as an independent check on the simulator.

Pools of one class are exchangeable and service is exponential, so the
per-class multisets of pool occupancies form a continuous-time Markov chain.
For two classes and ``n`` in {2, 4} its generator is small enough to build in
full. The total task count is truncated at the first value whose
Poisson(``n * rho``) tail is below 1e-12, by blocking arrivals there. Solving
``pi Q = 0`` then gives the exact long-run ``avg_u`` and ``avg_s`` for jlmu,
random, fixed:1 and fixed:2.

The oracle reads only the utility family. It enumerates each arrival's target
pools from its own statement of each policy's rule and shares no code with
:mod:`poolsim.sim` or :mod:`poolsim.policies`, so it judges any simulator core
on its own. The learning policy slta is not covered: its rank would have to
join the state. It stays covered by the token audits in ``test_policies.py``
and by acceptance criteria 3, 4 and 9.
"""

import math

import numpy as np
import pytest

from poolsim.assign import upper_bound
from poolsim.model import CappedLinear, Linear, SystemConfig, UtilityFamily
from poolsim.sim import RunConfig, batch_means

from conftest import TWO_CLASS_ALPHA, batched_run, two_class_family

TAIL = 1e-12
POLICIES = ("jlmu", "random", "fixed:1", "fixed:2")

# Criterion 10's system: two pools, total offered load 1, a = 1, eps = 0.05.
A, EPS = 1.0, 0.05


def counterexample_system() -> SystemConfig:
    family = UtilityFamily((Linear(A * EPS), CappedLinear(A, 1)))
    return SystemConfig(n=2, alpha=TWO_CLASS_ALPHA, rho=0.5, mu=1.0, family=family)


def log_quality_system() -> SystemConfig:
    return SystemConfig(
        n=4, alpha=TWO_CLASS_ALPHA, rho=0.75, mu=1.0, family=two_class_family()
    )


SYSTEMS = {"counterexample": counterexample_system, "log_quality": log_quality_system}


def poisson_cutoff(mean: float) -> int:
    """Smallest s with P(Poisson(mean) > s) < TAIL."""
    s = 0
    pmf = cdf = math.exp(-mean)
    while 1.0 - cdf >= TAIL:
        s += 1
        pmf *= mean / s
        cdf += pmf
    return s


def arrival_targets(policy: str, family, state) -> list[tuple[float, int, int]]:
    """(probability, class index, pool index) of the pool an arrival joins."""
    pools = [(ci, p) for ci, occs in enumerate(state) for p in range(len(occs))]
    if policy == "random":
        return [(1.0 / len(pools), ci, p) for ci, p in pools]
    if policy.startswith("fixed:"):
        ci = int(policy.split(":")[1]) - 1
        return [(1.0 / len(state[ci]), ci, p) for p in range(len(state[ci]))]
    assert policy == "jlmu"

    # The best-ranked slot some pool can fill: highest marginal, ties to the
    # dictionary-smaller slot (cls, level).
    def key(pool):
        ci, p = pool
        v = state[ci][p]
        return (-family.marginal(ci + 1, v), ci, v)

    ci, p = min(pools, key=key)
    return [(1.0, ci, p)]


def moved(state, ci: int, p: int, step: int):
    occs = list(state[ci])
    occs[p] += step
    return state[:ci] + (tuple(sorted(occs)),) + state[ci + 1 :]


def exact_averages(config: SystemConfig, policy: str) -> tuple[float, float]:
    """Long-run (avg_u, avg_s) of the truncated count chain from pi Q = 0."""
    family, n = config.family, config.n
    smax = poisson_cutoff(n * config.rho)
    start = tuple((0,) * size for size in config.class_sizes)
    index = {start: 0}
    states = [start]
    edges: list[list[tuple[float, tuple]]] = []
    for state in states:  # grows while it is walked: a breadth-first search
        out = []
        if sum(map(sum, state)) < smax:
            for prob, ci, p in arrival_targets(policy, family, state):
                out.append((n * config.lam * prob, moved(state, ci, p, +1)))
        for ci, occs in enumerate(state):
            for p, v in enumerate(occs):
                if v:
                    out.append((config.mu * v, moved(state, ci, p, -1)))
        for _, nxt in out:
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
        edges.append(out)
    size = len(states)
    Q = np.zeros((size, size))
    for i, out in enumerate(edges):
        for rate, nxt in out:
            Q[i, index[nxt]] += rate
            Q[i, i] -= rate
    # pi Q = 0 with sum(pi) = 1: replace one balance equation by the norm.
    lhs = Q.T.copy()
    lhs[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = np.linalg.solve(lhs, rhs)
    assert pi.min() > -1e-12
    utility = [
        sum(family.value(ci + 1, v) for ci, occs in enumerate(s) for v in occs)
        for s in states
    ]
    mass = [sum(map(sum, s)) for s in states]
    return float(pi @ utility) / n, float(pi @ mass) / n


@pytest.fixture(scope="module")
def exact():
    return {
        (name, policy): exact_averages(make(), policy)
        for name, make in SYSTEMS.items()
        for policy in POLICIES
    }


def test_poisson_cutoff():
    assert poisson_cutoff(1.0) == 14
    assert all(poisson_cutoff(m) > m for m in (0.5, 3.0, 10.0))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_oracle_mass_is_offered_load(exact, name):
    # any dispatch leaves the total task count an M/M/infinity queue
    rho = SYSTEMS[name]().rho
    for policy in POLICIES:
        assert exact[name, policy][1] == pytest.approx(rho, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_oracle_respects_the_ceiling(exact, name):
    config = SYSTEMS[name]()
    ceiling = upper_bound(config.family, config.alpha, config.rho)
    for policy in POLICIES:
        assert exact[name, policy][0] <= ceiling + 1e-12


def test_oracle_counterexample_closed_forms(exact):
    # Totals over both pools at total load rho = 1. fixed:2 keeps the capped
    # pool an M/M/infinity queue, busy with probability 1 - e^-rho. jlmu makes
    # it an Erlang loss system, busy with probability rho / (rho + 1), and sends
    # the overflow, of mean rho^2 / (rho + 1), to the linear pool. These are the
    # closed forms `poolsim suboptimal` reports.
    rho = 1.0
    fixed2 = 2.0 * exact["counterexample", "fixed:2"][0]
    jlmu = 2.0 * exact["counterexample", "jlmu"][0]
    assert fixed2 == pytest.approx(A * (1.0 - math.exp(-rho)), abs=1e-10)
    busy = rho / (rho + 1.0)
    assert jlmu == pytest.approx(A * (EPS * (rho - busy) + busy), abs=1e-10)
    fixed1 = 2.0 * exact["counterexample", "fixed:1"][0]
    assert fixed1 == pytest.approx(A * EPS * rho, abs=1e-10)
    assert jlmu < fixed2


def test_oracle_log_quality_ordering(exact):
    # greedy dispatch beats random dispatch on the concave family
    assert exact["log_quality", "jlmu"][0] > exact["log_quality", "random"][0]


# ---------------------------------------------------------------------------
# simulation against the oracle

# One long run per system and policy, averaged in 20 batches.
RUN = RunConfig(horizon=20000.0, warmup=20.0, seed=2112)
BATCHES = 20


@pytest.fixture(scope="module")
def simulated():
    return {
        (name, policy): batched_run(make(), policy, RUN, BATCHES)
        for name, make in SYSTEMS.items()
        for policy in POLICIES
    }


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_simulation_matches_oracle(exact, simulated, name):
    # The bar is 4 batch-means standard errors, not 3: about ten comparisons
    # (eight utilities and, since coupled runs share one mass path, two
    # masses) run at once. With 19 degrees of freedom a 3 SE bar would fail
    # some comparison of a correct simulator about 7% of the time; 4 SE keeps
    # that under 1%.
    for policy in POLICIES:
        metrics, u_batches, s_batches = simulated[name, policy]
        u_mean, u_se = batch_means(u_batches)
        assert u_mean == pytest.approx(metrics.avg_u, rel=1e-9, abs=1e-12)
        exact_u, exact_s = exact[name, policy]
        assert abs(u_mean - exact_u) <= 4.0 * u_se, (policy, u_mean, exact_u, u_se)
        s_mean, s_se = batch_means(s_batches)
        assert abs(s_mean - exact_s) <= 4.0 * s_se, (policy, s_mean, exact_s, s_se)
