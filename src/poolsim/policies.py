"""Dispatch policies over occupancy states.

Every policy sees only the occupancy counts: it returns the cell ``(cls, occ)``
an arriving task should join, meaning "some class-``cls`` pool currently holding
``occ`` tasks", plus a learning step. Pools sharing a cell are exchangeable, so
the cell alone fixes the next state.

Policies are configured by string: ``jlmu``, ``slta``, ``random``, or
``fixed:<cls>``.
"""

from __future__ import annotations

import math

from .model import Coordinate, OccupancyState, SystemConfig, UtilityFamily

__all__ = [
    "Policy",
    "Jlmu",
    "Slta",
    "UniformDispatch",
    "parse_policy",
]

DEFAULT_LEARNING_EXPONENT = 0.45


class Policy:
    """Base dispatcher. Subclasses override :meth:`decide`.

    ``decide`` consumes exactly one uniform draw per arrival (passed in as
    ``u``) whether or not the policy is randomized, which keeps draw
    consumption identical across policies.
    """

    name = "?"
    #: When True the simulator reports every occupancy change via notify_push /
    #: notify_pop so the policy can keep running counters.
    tracks_tokens = False
    #: Current learning rank, for policies that have one.
    rank: int | None = None

    def bind(self, state: OccupancyState, config: SystemConfig) -> None:
        """Attach to a fresh run. Called once before any decision."""

    def decide(self, state: OccupancyState, u: float) -> tuple[int, int, int]:
        """Where an arriving task goes: ``(cls, occ, delta)``.

        The task joins a class-``cls`` pool holding ``occ`` tasks, so that
        cell must hold a pool. ``delta`` in {-1, 0, +1} is the learning-rank
        step the simulator applies after dispatch; it is 0 for policies that
        do not learn. Each class's marginal cache (``family.marginals``) must
        reach its lowest occupied level, as :func:`poolsim.sim.simulate` grows
        them; a caller with a state of its own grows them first.
        """
        raise NotImplementedError

    def notify_push(self, ci: int, prev_occ: int) -> None:  # pragma: no cover
        pass

    def notify_pop(self, ci: int, prev_occ: int) -> None:  # pragma: no cover
        pass

    def apply_learning(self, state: OccupancyState, delta: int) -> None:  # pragma: no cover
        """Move the learning rank by ``delta`` once the arrival is dispatched."""


# ---------------------------------------------------------------------------
# Greedy marginal dispatch
# ---------------------------------------------------------------------------


class Jlmu(Policy):
    """Send each task to the best-ranked slot that some pool can currently fill.

    Per class the best fillable slot sits just above the least-loaded pool, so
    the decision reduces to comparing one candidate slot per class. With a
    single class this is exactly join-the-shortest-queue.
    """

    name = "jlmu"

    def __init__(self) -> None:
        self._family: UtilityFamily | None = None

    def bind(self, state, config):
        self._family = config.family

    def decide(self, state: OccupancyState, u: float) -> tuple[int, int, int]:
        low = state.min_occ
        best_d = -math.inf
        best_ci = 0
        best_v = 0
        # Classes are scanned in ascending order, so keeping the first of
        # equal marginals breaks ties toward the dictionary-smaller slot.
        for ci, cache in enumerate(self._family.marginals):
            v = low[ci]
            d = cache[v]
            if d > best_d:
                best_d = d
                best_ci = ci
                best_v = v
        return best_ci + 1, best_v, 0


# ---------------------------------------------------------------------------
# Threshold learning dispatch
# ---------------------------------------------------------------------------


def _first_open_rank(family: UtilityFamily, state: OccupancyState) -> int:
    """Rank of the best slot not yet filled by every pool of its class.

    Some class-``cls`` pool holds fewer than ``level`` tasks exactly when the
    class's emptiest pool does, so each class's first open slot sits one
    level above its lowest pool, and the answer is the best of those. The
    rank table of depth ``max(low) + 1`` ranks its best ``m * depth`` slots,
    and some class fills ``depth`` levels of them, so that class's open slot
    is inside and the least entry is exact. It is a start that
    :meth:`Slta.check_goodness` accepts from ``sim.init_state``'s states.
    """
    low = state.min_occ
    table = family.rank_table(max(low) + 1)
    return min(int(table[ci, v]) for ci, v in enumerate(low))


class Slta(Policy):
    """Static-priority dispatch behind learned per-class thresholds.

    The policy keeps a rank ``r`` into the slot enumeration. Slots ranked above
    ``r`` define per-class fill depths (thresholds); pools below their class
    threshold hold green tokens and boundary-class pools below the boundary
    level hold yellow tokens. Arrivals fill green slots first, avoiding the
    class of the previous boundary slot while possible, then the boundary slot;
    with no tokens at all the task lands on a uniformly random pool.

    The rank moves at arrival instants: down when greens are plentiful (at
    least ``n * beta`` of them) and the previous boundary class still has a
    green pool, up when every slot above the boundary is saturated and at most
    one yellow pool remains.

    Green counts are kept per class: the down rule compares their sum with
    ``n * beta`` at every arrival, and a green pick takes its class by them,
    then walks that class's levels up from its lowest pool. Yellow tokens are
    not counted: they matter only once no green pool is left, and the boundary
    class's threshold is ``level - 1`` (every level of that class above the
    boundary slot ranks above it), so then they are exactly the one cell
    ``N(cls, level - 1)`` of the boundary slot ``(cls, level)``.
    """

    name = "slta"
    tracks_tokens = True

    def __init__(self, beta: float | None = None):
        # beta defaults to n ** -0.45, resolved when the run size is known.
        self._beta_override = beta
        self.rank = 1
        self._family: UtilityFamily | None = None
        self._thr: list[int] = []
        self._green: list[int] = []
        self._total_green = 0
        self._boundary = Coordinate(0, 0)
        # Class index of the previous boundary slot; -1 at rank 1.
        self._prev_ci = -1
        self._quota = 0.0

    @property
    def boundary(self) -> Coordinate:
        return self._boundary

    @property
    def thresholds(self) -> list[int]:
        return list(self._thr)

    def bind(self, state, config, initial_rank=None):
        """Attach to a run from ``state`` at rank ``initial_rank``, by default
        the first rank the state leaves open (:func:`_first_open_rank`)."""
        self._family = config.family
        beta = (
            self._beta_override
            if self._beta_override is not None
            else state.n ** -DEFAULT_LEARNING_EXPONENT
        )
        if not 0 < beta <= 1:
            raise ValueError(f"learning fraction beta must be in (0, 1], got {beta}")
        self._quota = state.n * beta
        self.rank = (_first_open_rank(self._family, state) if initial_rank is None
                     else int(initial_rank))
        if self.rank < 1:
            raise ValueError(f"initial rank must be >= 1, got {self.rank}")
        self._reload(state)
        self.check_goodness(state)

    def _reload(self, state: OccupancyState) -> None:
        """Recompute thresholds, boundary and green counts from scratch."""
        r = self.rank
        family = self._family
        self._boundary = family.slot(r)
        self._prev_ci = family.slot(r - 1).cls - 1 if r > 1 else -1
        self._thr = family.class_counts_before(r)
        # Per class, the pools below the class threshold.
        self._green = [
            size - state.tail_count(ci + 1, depth) if depth > 0 else 0
            for ci, (size, depth) in enumerate(zip(state.class_sizes, self._thr))
        ]
        self._total_green = sum(self._green)

    def check_goodness(self, state: OccupancyState) -> None:
        """Raise ValueError unless the boundary slot sits strictly above every
        saturated slot; :meth:`bind` runs this on the starting state."""
        b = self._boundary
        yellow = state.class_sizes[b.cls - 1] - state.tail_count(b.cls, b.level)
        if yellow < 1:
            raise ValueError(
                f"state is not good: boundary slot {tuple(b)} is saturated"
            )
        for ci, depth in enumerate(self._thr):
            if ci == b.cls - 1:
                continue
            if state.tail_count(ci + 1, depth + 1) >= state.class_sizes[ci]:
                raise ValueError(
                    f"state is not good: class {ci + 1} is saturated beyond its threshold"
                )

    # -- token upkeep --------------------------------------------------------

    def notify_push(self, ci: int, prev_occ: int) -> None:
        if prev_occ + 1 == self._thr[ci]:
            self._green[ci] -= 1
            self._total_green -= 1

    def notify_pop(self, ci: int, prev_occ: int) -> None:
        if prev_occ == self._thr[ci]:
            self._green[ci] += 1
            self._total_green += 1

    def apply_learning(self, state: OccupancyState, delta: int) -> None:
        if delta == 0:
            return
        self.rank += delta
        self._reload(state)

    # -- decisions ------------------------------------------------------------

    def decide(self, state: OccupancyState, u: float) -> tuple[int, int, int]:
        """Dispatch one arrival and pick the learning step from the pre-arrival counts.

        The rank steps down when green pools are plentiful (at least
        ``n * beta``, compared as reals) and the previous boundary class still
        has one, and up when no green pool is left and at most one yellow pool
        remains; the two cannot both hold. Yellow pools are counted only then,
        from one cell: with no green pool left no boundary-class pool sits
        below the class threshold ``level - 1``, so every yellow pool sits at
        it. The step is applied only after the arrival is dispatched.
        """
        total_green = self._total_green
        if total_green:
            # Uniform over green pools outside the previous boundary class, or
            # over that class's green pools when no other class has one. The
            # draw becomes an index k into those pools, as in pick_pool.
            skip = self._prev_ci
            prev_green = self._green[skip] if skip >= 0 else 0
            delta = -1 if prev_green and total_green >= self._quota else 0
            pool = total_green - prev_green
            if not pool:
                pool = prev_green
                skip = -1
            k = int(u * pool)
            if k == pool:  # u * pool can round up to pool
                k -= 1
            # A class by its green count, then a level up from its lowest pool.
            for ci, green in enumerate(self._green):
                if ci != skip:
                    if k < green:
                        break
                    k -= green
            else:
                raise AssertionError("no green pool found despite positive green count")
            levels = state.counts[ci]
            v = state.min_occ[ci]
            k -= levels[v]
            while k >= 0:
                v += 1
                k -= levels[v]
            return ci + 1, v, delta
        # No green tokens: aim at the boundary slot while it has room. Every
        # boundary-class pool holds level - 1 tasks or more, so the cell exists.
        b = self._boundary
        yellow = state.counts[b.cls - 1][b.level - 1]
        delta = 1 if yellow <= 1 else 0
        if yellow:
            return b.cls, b.level - 1, delta
        # Nothing to aim at: uniform over all pools.
        cls, occ = state.pick_pool(u)
        return cls, occ, delta


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class UniformDispatch(Policy):
    """Send each task to a uniformly random pool: of any class, or of class
    ``cls`` alone when given (``random`` and ``fixed:<cls>``)."""

    def __init__(self, cls: int | None = None):
        if cls is not None and cls < 1:
            raise ValueError(f"class index must be >= 1, got {cls}")
        self.cls = cls
        self.name = "random" if cls is None else f"fixed:{cls}"

    def bind(self, state, config):
        self.check_classes(state.m)

    def check_classes(self, m: int) -> None:
        """Refuse a system of ``m`` classes that lacks this policy's class."""
        if self.cls is not None and self.cls > m:
            raise ValueError(f"{self.name} needs class {self.cls} but the system has {m}")

    def decide(self, state: OccupancyState, u: float) -> tuple[int, int, int]:
        cls, occ = state.pick_pool(u, self.cls)
        return cls, occ, 0


def parse_policy(spec: str, beta: float | None = None) -> Policy:
    """Build a policy from its config string."""
    if spec == "jlmu":
        return Jlmu()
    if spec == "slta":
        return Slta(beta=beta)
    if spec == "random":
        return UniformDispatch()
    if isinstance(spec, str) and spec.startswith("fixed:"):
        tail = spec[len("fixed:") :]
        if not tail.isdecimal():
            raise ValueError(f"bad class in {spec!r}: need fixed:<positive int>")
        return UniformDispatch(int(tail))
    raise ValueError(
        f"unknown policy {spec!r} (known: jlmu, slta, random, fixed:<cls>)"
    )
