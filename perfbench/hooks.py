"""Wrappers installed around poolsim's public functions while a pass runs.

``simulate`` is always wrapped in ``poolsim.sim``, where ``coupled_simulate``
looks it up on every call (``table1`` reaches it only through
``coupled_simulate``): the wrapper keeps each run's ``Metrics`` or its
exception for the output checks. That is one extra call per simulate run, so
it costs nothing measurable.

With a tracer, the wrapper also opens a span per simulate call and times the
calls that the simulator makes into other layers: ``init_state``,
``occupancy_to_q``, ``upper_bound`` and ``optimal_assignment``, looked up as
``poolsim.sim`` module attributes on every call, and the policy's ``bind``,
``decide``, ``notify_push``, ``notify_pop`` and ``apply_learning``, replaced on
the policy instance for the length of the run. A name the program no longer
has is left alone, and its layer then reads as unused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from spans import Span, Tracer

POLICY_HOT = ("decide", "notify_push", "notify_pop")


@dataclass
class SimRun:
    """One simulate call as the wrapper saw it.

    With tracing, ``policy_s``/``policy_calls`` sum the policy's per-event
    calls and ``learn_s``/``learn_steps`` its ``apply_learning`` calls.
    """

    metrics: object | None
    error: str | None
    policy: str
    span: Span | None = None
    policy_s: float = 0.0
    policy_calls: int = 0
    learn_s: float = 0.0
    learn_steps: int = 0


def policy_label(name: str) -> str:
    """``fixed:1`` -> ``fixed1``, so labels can be used in metric names."""
    return name.replace(":", "")


def _timed(fn, acc: list):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        acc[0] += clock() - t0
        acc[1] += 1
        return out

    return wrapper


def _spanned(fn, tracer: Tracer, name: str):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class SimHooks:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.runs: list[SimRun] = []
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> list[SimRun]:
        runs, self.runs = self.runs, []
        return runs

    def _patch(self, module, name: str, make) -> None:
        if hasattr(module, name):
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, make(original))

    def __enter__(self) -> "SimHooks":
        import poolsim.sim as sim

        self._patch(sim, "simulate", self._wrap_simulate)
        if self.tracer is not None:
            for name, span in (
                ("init_state", "model.init_state"),
                ("occupancy_to_q", "model.occupancy_to_q"),
                ("upper_bound", "assign.upper_bound"),
                ("optimal_assignment", "assign.optimal_assignment"),
            ):
                self._patch(sim, name, lambda orig, s=span: _spanned(orig, self.tracer, s))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap_simulate(self, simulate):
        def plain(config, policy, run, *args, **kwargs):
            label = policy if isinstance(policy, str) else getattr(policy, "name", "?")
            try:
                m = simulate(config, policy, run, *args, **kwargs)
            except Exception as exc:
                self.runs.append(SimRun(None, f"{type(exc).__name__}: {exc}", label))
                raise
            self.runs.append(SimRun(m, None, m.policy))
            return m

        if self.tracer is None:
            return plain
        tracer = self.tracer

        def traced(config, policy, run, *args, **kwargs):
            if isinstance(policy, str):
                from poolsim.policies import parse_policy

                policy = parse_policy(policy)
            acc = [0.0, 0]
            learn = [0.0, 0]
            cls = type(policy)
            installed = []
            for name in POLICY_HOT + ("apply_learning", "bind"):
                if not hasattr(cls, name):
                    continue
                method = getattr(cls, name).__get__(policy)
                if name == "bind":
                    method = _spanned(method, tracer, "policies.bind")
                elif name == "apply_learning":
                    method = _timed(_timed(method, learn), acc)
                else:
                    method = _timed(method, acc)
                setattr(policy, name, method)
                installed.append(name)
            record = SimRun(None, None, getattr(policy, "name", "?"))
            try:
                with tracer.span("sim.simulate", new_run=True) as record.span:
                    try:
                        record.metrics = simulate(config, policy, run, *args, **kwargs)
                    finally:
                        record.policy = policy.name
                        tracer.aggregate(
                            f"policies.{policy_label(policy.name)}", record.span, acc[0], acc[1]
                        )
            except Exception as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                for name in installed:
                    policy.__dict__.pop(name, None)
                record.policy_s, record.policy_calls = acc
                record.learn_s, record.learn_steps = learn
                self.runs.append(record)
            return record.metrics

        return traced
