"""In-memory spans recorded around calls into poolsim's public functions.

A span has a name, a start and end (``time.perf_counter`` seconds), a parent
span and a run id. Every span opened inside one simulate call or one fluid
integration carries that call's run id. Spans stay in memory and are written
out once, when the benchmark ends.

Per-event policy calls are too many to record one by one. They are summed per
simulate call and recorded as one aggregate span per policy and run, whose
duration is the summed time and whose ``calls`` field counts the calls. The
aggregate is a child of the simulate span, so the simulate span's self time
excludes the policy's time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None
    unit: int
    calls: int = 1
    aggregate: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans; ``unit`` tags each span with the workload unit it ran in."""

    spans: list[Span] = field(default_factory=list)
    unit: int = 0
    _stack: list[Span] = field(default_factory=list)
    _next_run: int = 0

    @contextmanager
    def span(self, name: str, new_run: bool = False):
        parent = self._stack[-1] if self._stack else None
        if new_run:
            run = self._next_run
            self._next_run += 1
        else:
            run = parent.run if parent is not None else None
        sp = Span(len(self.spans), name, 0.0, 0.0,
                  parent.id if parent is not None else None, run, self.unit)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def aggregate(self, name: str, parent: Span, busy: float, calls: int) -> None:
        """Record summed time of many short calls made inside ``parent``."""
        self.spans.append(Span(len(self.spans), name, parent.start, parent.start + busy,
                               parent.id, parent.run, parent.unit, calls, True))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children of one span run one after another in a single thread, so the
        time they cover is the sum of their durations.
        """
        own = {sp.id: sp.dur for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.dur
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(sp) for sp in self.spans]) + "\n")


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, new_run: bool = False):
    """A span on ``tracer``, or nothing when tracing is off (``None``)."""
    if tracer is None:
        yield None
    else:
        with tracer.span(name, new_run) as sp:
            yield sp
