"""Core model types for utility-driven dispatch across heterogeneous server pools.

A system has ``m`` pool classes. Class ``i`` contains a fraction ``alpha[i]`` of
the ``n`` pools and earns utility ``u_i(x)`` when one of its pools holds ``x``
tasks. All utilities are concave in the integer occupancy, so the marginal gain
of slot ``(i, j)`` (raising some class-``i`` pool from ``j-1`` to ``j`` tasks)
is non-increasing in ``j``. Ranking slots by marginal gain, with a fixed
dictionary rule for ties, yields the total order that drives both the greedy
assignment and the dispatch policies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Coordinate",
    "Utility",
    "LogQuality",
    "Linear",
    "CappedLinear",
    "Tabulated",
    "UtilityFamily",
    "FluidSystem",
    "SystemConfig",
    "QVector",
    "OccupancyState",
    "occupancy_to_q",
]

#: Hard cap on how many slots any ranked walk may visit before giving up.
MAX_ENUMERATION = 10**6

CONCAVITY_TOL = 1e-12


class Coordinate(NamedTuple):
    """Slot ``(cls, level)``: headroom for one task at depth ``level`` in class ``cls``.

    Classes are numbered from 1. ``level >= 1``; the slot is occupied in a pool
    holding at least ``level`` tasks. Tuple comparison on this type is plain
    dictionary order, not rank order; compare slots by the ranks
    :meth:`UtilityFamily.rank_table` gives them.
    """

    cls: int
    level: int


# ---------------------------------------------------------------------------
# Utility families
# ---------------------------------------------------------------------------


class Utility:
    """Concave utility of integer per-pool occupancy."""

    def value(self, x: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LogQuality(Utility):
    """u(x) = x * log(r / x), with u(0) = 0. Peaks near x = r / e."""

    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"log_quality utility needs a finite r > 0, got {self.r}")

    def value(self, x: int) -> float:
        if x == 0:
            return 0.0
        return x * math.log(self.r / x)


@dataclass(frozen=True)
class Linear(Utility):
    """u(x) = slope * x."""

    slope: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.slope):
            raise ValueError(f"linear utility needs a finite slope, got {self.slope}")

    def value(self, x: int) -> float:
        return self.slope * x


@dataclass(frozen=True)
class CappedLinear(Utility):
    """u(x) = slope * min(x, cap): linear up to ``cap`` tasks, flat beyond."""

    slope: float
    cap: int

    def __post_init__(self) -> None:
        # A negative slope would make the marginal jump up to 0 at the cap.
        if not (math.isfinite(self.slope) and self.slope >= 0):
            raise ValueError("capped_linear utility needs a finite slope >= 0")
        if not (isinstance(self.cap, int) and self.cap >= 1):
            raise ValueError(f"capped_linear cap must be an integer >= 1, got {self.cap!r}")

    def value(self, x: int) -> float:
        return self.slope * min(x, self.cap)


@dataclass(frozen=True)
class Tabulated(Utility):
    """Utility given by a table ``values[x]`` for x = 0..len-1.

    Past the end of the table the function continues linearly with the final
    tabulated marginal, which keeps it concave everywhere.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("table utility needs at least two values")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("table utility values must be finite")
        diffs = [vals[k + 1] - vals[k] for k in range(len(vals) - 1)]
        for k in range(len(diffs) - 1):
            if diffs[k + 1] > diffs[k] + CONCAVITY_TOL:
                raise ValueError(
                    f"table utility is not concave: marginal rises from {diffs[k]} to "
                    f"{diffs[k + 1]} at occupancy {k + 1}"
                )

    def value(self, x: int) -> float:
        last = len(self.values) - 1
        if x <= last:
            return self.values[x]
        tail_slope = self.values[last] - self.values[last - 1]
        return self.values[last] + (x - last) * tail_slope


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


class UtilityFamily:
    """The per-class utilities of a system plus the slot ranking they induce.

    The family owns the one ranked slot list of the system: a cached prefix,
    extended on demand, that every layer reads. Ranks are 1-based:
    ``slot(1)`` is the best slot overall. Rank comparisons use exact float
    equality to detect ties.

    ``marginals[ci][v]`` is the marginal utility of a class-``ci+1`` pool going
    from ``v`` to ``v + 1`` tasks, cached per class: :meth:`marginal` extends
    the list on demand, so read past its end only after calling it.
    """

    def __init__(self, utilities: Sequence[Utility]):
        if not utilities:
            raise ValueError("need at least one class utility")
        self.utilities: tuple[Utility, ...] = tuple(utilities)
        self.marginals: list[list[float]] = [[] for _ in self.utilities]
        self._slots: list[Coordinate] = []
        # _level_ranks[ci][j - 1] is the rank of slot (ci + 1, j).
        self._level_ranks: list[list[int]] = [[] for _ in self.utilities]
        self._rank_tables: dict[int, np.ndarray] = {}
        self._mass: tuple[tuple[float, ...], np.ndarray, dict] = ((), np.zeros(0), {})

    @property
    def m(self) -> int:
        return len(self.utilities)

    def value(self, cls: int, x: int) -> float:
        return self.utilities[cls - 1].value(x)

    def marginal(self, cls: int, occ: int) -> float:
        """Utility gained by a class-``cls`` pool going from ``occ`` to ``occ + 1`` tasks."""
        if occ < 0:
            raise ValueError(f"occupancy must be >= 0, got {occ}")
        cache = self.marginals[cls - 1]
        if occ >= len(cache):
            u = self.utilities[cls - 1]
            lo = u.value(len(cache))
            for x in range(len(cache), occ + 1):
                hi = u.value(x + 1)
                cache.append(hi - lo)
                lo = hi
        return cache[occ]

    def _extend(self, count: int) -> None:
        """Grow the cached ranking to at least ``count`` slots.

        Each class contributes its levels in order, so the next slot overall is
        the best of the m next-level candidates. Scanning classes in ascending
        order and keeping the first of equal marginals breaks ties toward the
        dictionary-smaller slot.
        """
        if count > MAX_ENUMERATION:
            raise RuntimeError(f"ranked walk exceeded {MAX_ENUMERATION} slots")
        slots = self._slots
        level_ranks = self._level_ranks
        while len(slots) < count:
            best_ci = 0
            best_d = -math.inf
            for ci, ranks in enumerate(level_ranks):
                d = self.marginal(ci + 1, len(ranks))
                if d > best_d:
                    best_ci, best_d = ci, d
            ranks = level_ranks[best_ci]
            slots.append(Coordinate(best_ci + 1, len(ranks) + 1))
            ranks.append(len(slots))

    def slot(self, rank: int) -> Coordinate:
        """The slot at 1-based ``rank``."""
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self._extend(rank)
        return self._slots[rank - 1]

    def enumerate_ranked(self, count: int) -> list[Coordinate]:
        """The best ``count`` slots in rank order."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count > MAX_ENUMERATION:
            raise ValueError(f"refusing to enumerate more than {MAX_ENUMERATION} slots")
        self._extend(count)
        return self._slots[:count]

    def ranked_mass(self, alpha: tuple[float, ...], rho: float) -> tuple[np.ndarray, dict]:
        """Running class mass along the ranking for ``alpha``, long enough to
        pass ``rho`` or else ``MAX_ENUMERATION`` slots long: read-only, cached
        for the last fractions, grown by doubling.
        ``np.cumsum`` adds in order, so a prefix is what a shorter walk sums.
        Also the dict the greedy fill keeps its records for ``alpha`` in."""
        cached_alpha, mass, records = self._mass
        if cached_alpha != alpha:
            mass, records = mass[:0], {}
        elif mass.item(-1) > rho or len(mass) == MAX_ENUMERATION:
            return mass, records
        # Every slot carries at most the widest class fraction, so no prefix
        # shorter than rho / max(alpha) slots passes rho.
        size = max(int(rho / max(alpha)) + 1, 2 * len(mass))
        while True:
            size = min(size, MAX_ENUMERATION)
            classes = [c.cls - 1 for c in self.enumerate_ranked(size)]
            mass = np.cumsum(np.asarray(alpha)[classes])
            if size == MAX_ENUMERATION or mass.item(-1) > rho:
                break
            size *= 2
        mass.flags.writeable = False
        self._mass = (alpha, mass, records)
        return mass, records

    def class_counts_before(self, rank: int) -> list[int]:
        """Per-class slot counts among ranks 1..rank-1 (how deep each class goes)."""
        self._extend(rank - 1)
        return [bisect_left(ranks, rank) for ranks in self._level_ranks]

    def rank_table(self, levels: int) -> np.ndarray:
        """Ranks of the slots ``(cls, 1..levels)`` as a read-only ``(m, levels)`` array.

        Entry ``[ci, j - 1]`` is the rank of slot ``(ci + 1, j)`` when it is
        among the best ``m * levels`` slots, and ``m * levels + 1`` otherwise.
        A slot ranked past that prefix leaves some class more than ``levels``
        deep, so the table ranks every slot a profile of that depth can
        activate. Built once per depth.
        """
        table = self._rank_tables.get(levels)
        if table is None:
            size = self.m * levels
            self.enumerate_ranked(size)  # extends the ranking, size check included
            table = np.full((self.m, levels), size + 1, dtype=np.int64)
            for ci, ranks in enumerate(self._level_ranks):
                inside = [r for r in ranks[:levels] if r <= size]
                table[ci, : len(inside)] = inside
            table.flags.writeable = False
            self._rank_tables[levels] = table
        return table


# ---------------------------------------------------------------------------
# System configuration
# ---------------------------------------------------------------------------


ALPHA_SUM_TOL = 1e-12
ALPHA_INT_TOL = 1e-9


def _check_fractions(alpha: Sequence[float]) -> tuple[float, ...]:
    alpha = tuple(float(a) for a in alpha)
    if not alpha:
        raise ValueError("need at least one class fraction")
    for k, a in enumerate(alpha):
        if not a > 0:
            raise ValueError(f"class fraction {k + 1} must be > 0, got {a}")
    if abs(sum(alpha) - 1.0) > ALPHA_SUM_TOL:
        raise ValueError(f"class fractions must sum to 1, got {sum(alpha)!r}")
    return alpha


def _class_sizes(n: int, alpha: tuple[float, ...]) -> tuple[int, ...]:
    """Pools per class of an ``n``-pool system; each ``n * alpha[i]`` must be whole and >= 1."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    sizes = []
    for i, a in enumerate(alpha):
        pools = a * n
        if abs(pools - round(pools)) > ALPHA_INT_TOL or round(pools) < 1:
            raise ValueError(f"n * alpha must be integral and >= 1: class {i + 1} would get "
                             f"{pools} pools")
        sizes.append(int(round(pools)))
    return tuple(sizes)


@dataclass(frozen=True, eq=False)
class FluidSystem:
    """A system without a pool count: class fractions ``alpha``, offered load
    ``rho`` per pool, services at rate ``mu``, and the class utilities.

    This is all the large-system (fluid) model needs. Arrivals come at rate
    ``lam = rho * mu`` per pool of capacity.
    """

    alpha: tuple[float, ...]
    rho: float
    mu: float
    family: UtilityFamily

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_fractions(self.alpha))
        if len(self.alpha) != self.family.m:
            raise ValueError(
                f"got {len(self.alpha)} class fractions but {self.family.m} utilities"
            )
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        # rho == 0 is allowed: it models a draining system with no arrivals.
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not math.isfinite(self.lam):
            raise ValueError(f"arrival rate rho * mu overflows: {self.rho} * {self.mu}")

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def lam(self) -> float:
        return self.rho * self.mu


@dataclass(frozen=True, eq=False)
class SystemConfig(FluidSystem):
    """A finite system of n pools: arrivals at rate n*lam.

    Every ``n * alpha[i]`` must be a whole number of pools.
    """

    n: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _class_sizes(self.n, self.alpha)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return _class_sizes(self.n, self.alpha)


# ---------------------------------------------------------------------------
# Occupancy descriptors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QVector:
    """Tail occupancy profile: ``tail[i-1, j]`` is the fraction of all pools that
    are of class ``i`` and hold at least ``j`` tasks.

    Column 0 equals ``alpha`` by definition, and every entry is finite.
    Entries beyond the stored depth are zero. Feasible profiles are
    non-increasing along each row. Both arrays are copies that cannot be
    written in place, and a pickled profile is rebuilt through these checks.
    """

    alpha: np.ndarray
    tail: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.array(self.alpha, dtype=np.float64)
        self.tail = np.array(self.tail, dtype=np.float64)
        self.alpha.flags.writeable = self.tail.flags.writeable = False
        if self.tail.ndim != 2 or self.tail.shape[0] != self.alpha.shape[0]:
            raise ValueError("tail must be a (classes, depth+1) matrix")
        if not np.abs(self.tail[:, 0] - self.alpha).max(initial=0.0) <= 1e-12:
            raise ValueError("tail column 0 must equal the class fractions")
        if not np.isfinite(self.tail).all():
            raise ValueError("tail entries must be finite")

    def __reduce__(self):
        return QVector, (self.alpha, self.tail)

    @classmethod
    def zeros(cls, alpha: Sequence[float], depth: int) -> "QVector":
        alpha = np.asarray(alpha, dtype=np.float64)
        tail = np.zeros((alpha.shape[0], depth + 1))
        tail[:, 0] = alpha
        return cls(alpha=alpha, tail=tail)

    @property
    def m(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def depth(self) -> int:
        return int(self.tail.shape[1]) - 1

    def get(self, cls: int, level: int) -> float:
        if level < 0:
            raise ValueError("level must be >= 0")
        if level > self.depth:
            return 0.0
        return float(self.tail[cls - 1, level])

    def mass(self) -> float:
        """Total tasks per pool: the sum of all tail entries at levels >= 1."""
        return float(self.tail[:, 1:].sum())

    def class_mass(self) -> np.ndarray:
        return self.tail[:, 1:].sum(axis=1)

    def l1_distance(self, other: "QVector") -> float:
        if self.m != other.m:
            raise ValueError("profiles have different class counts")
        depth = max(self.depth, other.depth)
        a = np.zeros((self.m, depth + 1))
        b = np.zeros((self.m, depth + 1))
        a[:, : self.depth + 1] = self.tail
        b[:, : other.depth + 1] = other.tail
        return float(np.abs(a - b).sum())

    def to_pairs(self, tol: float = 0.0) -> list[tuple[int, int, float]]:
        """Sparse (cls, level, value) triples for levels >= 1 with value > tol."""
        out = []
        for ci in range(self.m):
            for j in range(1, self.depth + 1):
                v = float(self.tail[ci, j])
                if v > tol:
                    out.append((ci + 1, j, v))
        return out


class OccupancyState:
    """Mutable per-class occupancy counts of a finite system.

    ``counts[ci][v]`` is ``N(ci+1, v)``, the number of class-``ci+1`` pools
    holding exactly ``v`` tasks, and ``class_tasks[ci]`` is that class's task
    total. Pools of one class are exchangeable and service is exponential, so
    these counts are a complete Markov state. Each count list ends at least one
    level past its deepest pool, so a push never indexes past the end.

    ``min_occ[ci]`` is exactly the lowest occupied class-``ci+1`` level;
    readers that walk levels upward start there. :func:`poolsim.sim.simulate`
    moves tasks in place and keeps it exact: a departure lowers it to the
    level its pool now fills, and an arrival that empties the cell at it
    raises it by one, to the level the pushed pool now fills. Derived counts
    are read from the cells, not mirrored: ``total_tasks`` sums
    ``class_tasks``, and SLTA's yellow tokens, which matter only once no
    green pool is left, are then exactly one cell, the boundary class's pools
    one level below the boundary slot.
    """

    __slots__ = (
        "n",
        "alpha",
        "class_sizes",
        "counts",
        "class_tasks",
        "min_occ",
    )

    def __init__(self, alpha: Sequence[float], counts: Sequence[Sequence[int]]):
        """Build from per-class counts: ``counts[ci][v]`` class-``ci+1`` pools hold ``v`` tasks.

        The pool count ``n`` and the class sizes follow from the counts, and
        every class size must equal ``n * alpha`` for its class.
        """
        self.alpha = _check_fractions(alpha)
        if len(counts) != len(self.alpha):
            raise ValueError(
                f"need one count list per class: got {len(counts)} for {len(self.alpha)} classes"
            )
        self.counts: list[list[int]] = []
        for per_level in counts:
            row = [int(c) for c in per_level]
            if any(c < 0 for c in row):
                raise ValueError("pool counts must be >= 0")
            while row and not row[-1]:
                row.pop()
            row.append(0)
            self.counts.append(row)
        self.n = sum(map(sum, self.counts))
        self.class_sizes = _class_sizes(self.n, self.alpha)
        for ci, (size, row) in enumerate(zip(self.class_sizes, self.counts)):
            if sum(row) != size:
                raise ValueError(
                    f"class {ci + 1} has {sum(row)} pools but n * alpha gives it {size}"
                )
        self.class_tasks = [sum(v * c for v, c in enumerate(row)) for row in self.counts]
        # Every class has a pool, so each row has a first non-empty level.
        self.min_occ = [next(v for v, c in enumerate(row) if c) for row in self.counts]

    @classmethod
    def empty(cls, n: int, alpha: Sequence[float]) -> "OccupancyState":
        return cls(alpha, [[size, 0] for size in _class_sizes(n, _check_fractions(alpha))])

    # -- read access ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.class_sizes)

    @property
    def total_tasks(self) -> int:
        """Tasks present across all classes."""
        return sum(self.class_tasks)

    def tail_count(self, cls: int, level: int) -> int:
        """Number of class-``cls`` pools holding at least ``level`` tasks."""
        return sum(self.counts[cls - 1][level:])

    def max_occupied(self, cls: int) -> int:
        """The deepest level a class-``cls`` pool holds; every class has a pool."""
        counts = self.counts[cls - 1]
        v = len(counts) - 1
        while not counts[v]:
            v -= 1
        return v

    def pick_pool(self, u: float, cls: int | None = None) -> tuple[int, int]:
        """Cell ``(cls, occ)`` of a uniformly chosen pool, given a uniform draw ``u``.

        The pool is chosen among all pools, or among class ``cls`` when given:
        the draw picks a class by its pool count, then a level by ``N(i, j)``.
        The draw must satisfy ``0 <= u < 1``, so ``int(u * total)`` stays below ``total``.
        """
        if cls is None:
            k = int(u * self.n)
            ci = 0
            while k >= self.class_sizes[ci]:
                k -= self.class_sizes[ci]
                ci += 1
        else:
            ci = cls - 1
            k = int(u * self.class_sizes[ci])
        counts = self.counts[ci]
        v = self.min_occ[ci]
        k -= counts[v]
        while k >= 0:
            v += 1
            k -= counts[v]
        return ci + 1, v

    # -- conversions ---------------------------------------------------------

    def aggregate_value(self, family: UtilityFamily) -> float:
        """Sum of per-pool utilities across the whole system (not normalized)."""
        total = 0.0
        for ci, counts in enumerate(self.counts):
            for v, c in enumerate(counts):
                if c:
                    total += c * family.value(ci + 1, v)
        return total


def occupancy_to_q(state: OccupancyState) -> QVector:
    """Tail fractions of an occupancy state: right cumulative counts over n."""
    depth = max(state.max_occupied(cls) for cls in range(1, state.m + 1))
    tail = np.zeros((state.m, depth + 1))
    for ci, counts in enumerate(state.counts):
        hist = counts[: depth + 1]
        tail[ci, : len(hist)] = np.cumsum(hist[::-1])[::-1]
    tail /= state.n
    tail[:, 0] = state.alpha
    return QVector(alpha=np.asarray(state.alpha), tail=tail)
