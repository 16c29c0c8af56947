"""A pool-level model of a system's occupancy, for checking the simulator.

The model keeps every pool's occupancy, one list per class, and derives
counts, class task totals and lowest occupied levels from those lists, never
maintaining them, so it shares no code or layout with the count-level walk of
:func:`poolsim.sim.simulate`. Its rules are the ones the package states.
"""

from __future__ import annotations

from poolsim.model import Coordinate, OccupancyState, UtilityFamily


class PoolModel:
    """``pools[ci]`` lists the occupancy of every class-``ci+1`` pool."""

    def __init__(self, alpha, pools):
        self.alpha = tuple(alpha)
        self.pools = [list(row) for row in pools]

    @classmethod
    def of(cls, state: OccupancyState) -> "PoolModel":
        """The pools a state's counts describe."""
        return cls(state.alpha, [[v for v, c in enumerate(row) for _ in range(c)]
                                 for row in state.counts])

    def state(self) -> OccupancyState:
        """These pools as an :class:`OccupancyState`."""
        return OccupancyState(self.alpha, [[row.count(v) for v in range(max(row) + 1)]
                                           for row in self.pools])

    def push(self, cls: int, occ: int) -> None:
        """One task joins a class-``cls`` pool holding ``occ`` tasks."""
        row = self.pools[cls - 1]
        if occ not in row:
            raise ValueError(f"class {cls} has no pool holding {occ} tasks")
        row[row.index(occ)] += 1

    def pop(self, cls: int, occ: int) -> None:
        """One task leaves a class-``cls`` pool holding ``occ`` tasks."""
        row = self.pools[cls - 1]
        if occ < 1 or occ not in row:
            raise ValueError(f"class {cls} has no pool holding {occ} tasks to remove")
        row[row.index(occ)] -= 1

    def pick_task(self, u: float) -> tuple[int, int]:
        """Cell ``(cls, occ)`` of the pool holding a uniformly chosen task.

        The draw indexes the tasks listed class by class and, inside a class,
        pool by pool in ascending occupancy.
        """
        tasks = [(ci + 1, v) for ci, row in enumerate(self.pools)
                 for v in sorted(row) for _ in range(v)]
        if not tasks:
            raise ValueError("no task to pick")
        return tasks[min(int(u * len(tasks)), len(tasks) - 1)]

    def tokens(self, thresholds, boundary: Coordinate) -> tuple[list[int], int]:
        """SLTA's token census: per class the green pools, those below the
        class threshold, and the yellow pools, those of the boundary class
        below the boundary level."""
        green = [sum(v < depth for v in row) for row, depth in zip(self.pools, thresholds)]
        yellow = sum(v < boundary.level for v in self.pools[boundary.cls - 1])
        return green, yellow

    def audit(self, state: OccupancyState) -> None:
        """Assert that ``state`` holds exactly these pools."""
        for ci, row in enumerate(self.pools):
            counts = state.counts[ci]
            assert len(counts) > max(row) + 1, "count list does not end past the deepest pool"
            assert counts == [row.count(v) for v in range(len(counts))], "counts disagree"
            assert state.class_sizes[ci] == len(row), "class size disagrees"
            assert state.class_tasks[ci] == sum(row), "class task total is stale"
            assert state.min_occ[ci] == min(row), "min-level pointer is not the lowest pool"
        assert state.total_tasks == sum(map(sum, self.pools))


def audit_tokens(policy, model: PoolModel) -> None:
    """Assert that an SLTA policy's green counters match the model's census."""
    green, _ = model.tokens(policy.thresholds, policy.boundary)
    assert policy._green == green, f"green counters drifted: {policy._green} vs {green}"
    assert policy._total_green == sum(green)


def rank_precedes(family: UtilityFamily, a: Coordinate, b: Coordinate) -> bool:
    """True when slot ``a`` ranks strictly below slot ``b``: by marginal gain,
    with ties going to the dictionary-smaller slot."""
    da = family.value(a.cls, a.level) - family.value(a.cls, a.level - 1)
    db = family.value(b.cls, b.level) - family.value(b.cls, b.level - 1)
    if da != db:
        return da < db
    return tuple(a) > tuple(b)
