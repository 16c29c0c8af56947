import numpy as np
import pytest

from poolsim.model import (
    CappedLinear,
    Linear,
    LogQuality,
    QVector,
    SystemConfig,
    Tabulated,
    UtilityFamily,
)
from poolsim.sim import _admit, init_state, simulate

# Quadratic profile 2x - x^2/20 tabulated on 0..25; its marginals fall by
# exactly 0.1 per task, which makes tie and crossover points easy to reason
# about by hand.
QUAD_VALUES = tuple(2.0 * x - x * x / 20.0 for x in range(26))

TWO_CLASS_ALPHA = (0.5, 0.5)
THREE_CLASS_ALPHA = (0.5, 0.25, 0.25)


def two_class_family() -> UtilityFamily:
    """Log-quality pair used by most scenario tests (r = 20 and 30)."""
    return UtilityFamily((LogQuality(20.0), LogQuality(30.0)))


def piecewise_family() -> UtilityFamily:
    """Linear + tabulated quadratic + capped linear; growth switches classes
    at loads 1.25, 6.25 and 7.5."""
    return UtilityFamily((Linear(1.0), Tabulated(QUAD_VALUES), CappedLinear(1.5, 20)))


def shared_resource_family() -> UtilityFamily:
    return UtilityFamily((LogQuality(5.0), LogQuality(10.0), LogQuality(15.0)))


def two_class_system(n: int, rho: float, mu: float = 1.0) -> SystemConfig:
    return SystemConfig(
        n=n, alpha=TWO_CLASS_ALPHA, rho=rho, mu=mu, family=two_class_family()
    )


def random_feasible_tail(rng: np.random.Generator, alpha, depth: int) -> QVector:
    """Random tail profile: per class a non-increasing column below alpha."""
    m = len(alpha)
    tail = np.zeros((m, depth + 1))
    tail[:, 0] = alpha
    for ci in range(m):
        level = alpha[ci]
        for j in range(1, depth + 1):
            level = level * rng.uniform(0.0, 1.0)
            tail[ci, j] = level
    return QVector(alpha=np.asarray(alpha, dtype=np.float64), tail=tail)


def batched_run(config: SystemConfig, policy, run, batches: int):
    """One ``simulate`` run, and the per-batch time averages per pool of its
    aggregate utility and of its task total over ``batches`` equal windows of
    [warmup, horizon].

    Both come from the event hook, which sees the state after every event;
    the state before the first event is the run's start.
    """
    warmup, _, _ = _admit(config, run)
    horizon, family = run.horizon, config.family
    width = (horizon - warmup) / batches
    u_acc = [0.0] * batches
    s_acc = [0.0] * batches

    def integrate(acc, lo: float, hi: float, value) -> None:
        lo, hi = max(lo, warmup), min(hi, horizon)
        while lo < hi:
            b = min(int((lo - warmup) / width), batches - 1)
            edge = min(hi, warmup + (b + 1) * width) if b < batches - 1 else hi
            acc[b] += (edge - lo) * value
            lo = edge

    start = init_state(config, run.init)
    last = [0.0, start.aggregate_value(family), start.total_tasks]

    def hook(kind, t, state, policy):
        integrate(u_acc, last[0], t, last[1])
        integrate(s_acc, last[0], t, last[2])
        last[:] = t, state.aggregate_value(family), state.total_tasks

    metrics = simulate(config, policy, run, hook=hook)
    integrate(u_acc, last[0], horizon, last[1])
    integrate(s_acc, last[0], horizon, last[2])
    assert metrics.warmup == warmup
    scale = width * config.n
    return metrics, [a / scale for a in u_acc], [a / scale for a in s_acc]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
