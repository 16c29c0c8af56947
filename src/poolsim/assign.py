"""Greedy fill of ranked slots and the resulting utility upper bound.

Filling slots in rank order until the offered load is exhausted solves the
static relaxation: maximize the average per-pool utility over tail profiles
that are monotone, bounded by the class fractions, and carry a fixed total
mass per pool. The profile produced here is the unique maximizer, and its
value bounds the long-run average utility of any dispatch policy, evaluated
at that policy's realized average mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_ENUMERATION,
    Coordinate,
    QVector,
    UtilityFamily,
    _check_fractions,
)

__all__ = [
    "OptimalAssignment",
    "optimal_assignment",
    "upper_bound",
    "validate_feasible",
]

FEASIBILITY_TOL = 1e-9

#: Cells of the largest fill whose record is cached: at most as many records, 8 MB.
FILL_RECORDS = 1024


@dataclass(frozen=True, eq=False)
class OptimalAssignment:
    """Greedy prefix fill at load ``rho``.

    ``sigma_star`` is the first slot the fill cannot complete, ``sigma_index``
    its 1-based rank, ``q_star`` the filled profile (class fraction on every
    slot ranked above, the residual mass on ``sigma_star``, zero below), and
    ``bound`` the profile's overall utility.
    """

    sigma_star: Coordinate
    sigma_index: int
    q_star: QVector
    bound: float

    @property
    def residual(self) -> float:
        """Mass left for the boundary slot itself, in [0, alpha of its class)."""
        return self.q_star.get(*self.sigma_star)


def _too_deep(rho: float) -> ValueError:
    return ValueError(
        f"load {rho} needs more than {MAX_ENUMERATION} ranked slots; "
        "refusing to walk further"
    )


def _utility_terms(
    family: UtilityFamily, alpha, tail: np.ndarray
) -> tuple[list[float], list[np.ndarray]]:
    """The terms of a filled tail's utility, in the order they are added: per
    class its base utility times its fraction, then its tail row against its
    marginals (``tail[ci, j]`` multiplies the marginal of the step j-1 -> j).
    Also the marginal arrays of the classes, read off ``family.marginals``."""
    depth = tail.shape[1] - 1
    terms, marginals = [], []
    for cls, a in enumerate(alpha, 1):
        family.marginal(cls, depth - 1)
        marginals.append(np.array(family.marginals[cls - 1][:depth]))
        terms += [family.value(cls, 0) * a, float(np.dot(marginals[-1], tail[cls - 1, 1:]))]
    return terms, marginals


def _greedy_fill(
    family: UtilityFamily, alpha, rho: float
) -> tuple[tuple[float, ...], Coordinate, int, np.ndarray, float]:
    """Walk the ranking until the cumulative class mass first passes ``rho``,
    and fill every slot above that boundary.

    Returns the checked class fractions, the boundary slot, its rank, the
    filled tail and its overall utility. The mass is a running sum in rank
    order, read off the family's cache for ``alpha``. The boundary slot holds
    the residual ``rho`` minus the mass above it, kept as the exact float
    difference; nothing is rounded to whole pools. The tail and its utility
    terms are cached per rank; a call copies them and fills the boundary in.
    """
    alpha = _check_fractions(alpha)
    if len(alpha) != family.m:
        raise ValueError(f"got {len(alpha)} fractions for {family.m} classes")
    if not math.isfinite(rho):
        raise ValueError(f"load must be finite, got {rho}")
    if rho < 0:
        raise ValueError(f"load must be >= 0, got {rho}")
    if rho >= MAX_ENUMERATION * max(alpha):
        raise _too_deep(rho)
    # Each entry is the float the slot-by-slot walk accumulates.
    mass, records = family.ranked_mass(alpha, rho)
    rank = int(mass.searchsorted(rho, side="right")) + 1
    if rank > len(mass):
        raise _too_deep(rho)
    cum = float(mass[rank - 2]) if rank > 1 else 0.0
    record = records.get(rank)
    if record is None:
        coord, filled = family.slot(rank), family.class_counts_before(rank)
        tail = np.zeros((len(alpha), max(max(filled), coord.level) + 1))
        for ci, a in enumerate(alpha):
            tail[ci, : filled[ci] + 1] = a
        terms, marginals = _utility_terms(family, alpha, tail)
        record = (coord, tail, terms, marginals[coord.cls - 1])
        if tail.size <= FILL_RECORDS:
            records[rank] = record
    coord, template, base, marginals = record
    tail, terms, ci = template.copy(), list(base), coord.cls - 1
    tail[ci, coord.level] = rho - cum
    terms[2 * ci + 1] = float(np.dot(marginals, tail[ci, 1:]))
    bound = 0.0
    for term in terms:
        bound += term
    return alpha, coord, rank, tail, bound


def optimal_assignment(family: UtilityFamily, alpha, rho: float) -> OptimalAssignment:
    """The maximizing tail profile at load ``rho`` and its utility."""
    alpha, coord, rank, tail, bound = _greedy_fill(family, alpha, rho)
    q = QVector(alpha=np.asarray(alpha, dtype=np.float64), tail=tail)
    return OptimalAssignment(sigma_star=coord, sigma_index=rank, q_star=q, bound=bound)


def upper_bound(family: UtilityFamily, alpha, load: float) -> float:
    """Best achievable average per-pool utility at the given mass per pool.

    Any load is accepted, so this can be evaluated at a realized time-average
    mass as well as at the nominal offered load.
    """
    return _greedy_fill(family, alpha, load)[4]


def validate_feasible(q: QVector, alpha, rho: float) -> None:
    """Raise ValueError unless ``q`` is a feasible profile of total mass ``rho``.

    Checks bounds 0 <= q(i, j) <= alpha[i], monotonicity along levels, and the
    total mass, each to within ``FEASIBILITY_TOL``.
    """
    alpha = _check_fractions(alpha)
    if q.m != len(alpha):
        raise ValueError(f"profile has {q.m} classes, fractions have {len(alpha)}")
    if not np.allclose(q.alpha, alpha, rtol=0, atol=FEASIBILITY_TOL):
        raise ValueError("profile class fractions disagree with alpha")
    tail = q.tail
    for ci, a in enumerate(alpha):
        row = tail[ci]
        low = row.min()
        if low < -FEASIBILITY_TOL:
            j = int(row.argmin())
            raise ValueError(f"q({ci + 1},{j}) = {low} is below 0")
        high = row.max()
        if high > a + FEASIBILITY_TOL:
            j = int(row.argmax())
            raise ValueError(f"q({ci + 1},{j}) = {high} exceeds alpha = {a}")
        steps = row[1:] - row[:-1]
        if steps.size and steps.max() > FEASIBILITY_TOL:
            j = int(steps.argmax()) + 1
            raise ValueError(
                f"q({ci + 1},{j}) = {row[j]} exceeds q({ci + 1},{j - 1}) = {row[j - 1]}: "
                "tail profiles must be non-increasing"
            )
    mass = q.mass()
    if abs(mass - rho) > FEASIBILITY_TOL:
        raise ValueError(f"total mass {mass} differs from required load {rho}")
