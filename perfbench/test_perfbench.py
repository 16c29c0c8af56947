"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The wrong-reference tests check that a broken check is counted as a failed
operation and turns ``correct`` false, instead of being swallowed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from spans import Tracer

run.load_program()
ROOT = run.ROOT


def _one_unit(name: str, seed: int = 3):
    from hooks import SimHooks

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    with SimHooks(None) as hooks:
        outputs = workload.run_unit(inputs, 0, None, hooks)
    return workload, inputs, outputs


def _check(workload, inputs, outputs) -> workloads.Ledger:
    ledger = workloads.Ledger()
    workload.check_unit(inputs, outputs, ledger, [])
    return ledger


def test_desk_wrong_reference_fails_the_run(monkeypatch):
    wrong = {key: {n: v + 0.1 for n, v in cells.items()}
             for key, cells in workloads.DESK_REFERENCE.items()}
    monkeypatch.setattr(run, "measure_setup", lambda *a: [0.1])
    for reference, expect_failed in ((workloads.DESK_REFERENCE, 0), (wrong, 6)):
        monkeypatch.setattr(workloads, "DESK_REFERENCE", reference)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", "desk", "--seed", "2", "--seconds", "0.1"]) == 0
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        assert result["failed"] == expect_failed
        assert result["correct"] is (expect_failed == 0)
        assert result["attempted"] == 2 * (12 + 1) + 6


def test_numerics_wrong_references_fail():
    workload, inputs, outputs = _one_unit("numerics")
    ledger = _check(workload, inputs, outputs)
    assert ledger.failures == [] and ledger.attempted == 10

    broken = [
        ("UPPER_BOUND_REFERENCE", {10.0: 9.1630, 9.75: 9.1731}),
        ("BREAKPOINTS", [1.25, 6.25, 7.55]),
        ("FLUID_MASS_TOL", 1e-15),
        ("RESIDUAL_RATIO", (0.1, 0.2)),
    ]
    for name, value in broken:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workloads, name, value)
            assert _check(workload, inputs, outputs).failures, name


def test_scale_wrong_mass_law_fails():
    import poolsim.cli as cli

    workload, inputs, outputs = _one_unit("scale")
    assert _check(workload, inputs, outputs).failures == []
    wrong = dict(inputs, system=cli.table1_system(workloads.SCALE_N, 10.5))
    assert len(_check(workload, wrong, outputs).failures) == len(workloads.SCALE_POLICIES)


def test_coupling_check_catches_unequal_mass_paths():
    workload, inputs, outputs = _one_unit("scale")
    first = outputs["runs"][1]
    shifted = dataclasses.replace(first.metrics, avg_s=first.metrics.avg_s + 1e-12)
    outputs["runs"][1] = dataclasses.replace(first, metrics=shifted)
    failures = _check(workload, inputs, outputs).failures
    assert len(failures) == 1 and "avg_s" in failures[0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", new_run=True) as outer:
        with tracer.span("inner") as inner:
            pass
    tracer.aggregate("calls", outer, busy=0.0, calls=3)
    own = tracer.self_times()
    assert inner.run == outer.run == 0 and inner.parent == outer.id
    assert own[outer.id] == pytest.approx(outer.dur - inner.dur, abs=1e-12)
    assert tracer.spans[-1].calls == 3


def test_speed_measure_subtracts_probe_time_and_scales():
    from speed import PROBE_REF_S, Speedometer

    speed = Speedometer()
    slow = 2 * PROBE_REF_S  # the host runs at half the reference speed
    speed.samples = [(9.5, 9.5001, 1.0), (10.2, 10.2003, slow), (10.6, 10.6003, slow),
                     (11.5, 11.5001, 1.0)]
    wall, cpu, factor = speed.measure(10.0, 1.0, 0.8)
    assert factor == pytest.approx(0.5)
    assert wall == pytest.approx((1.0 - 0.0006) * 0.5)
    assert cpu == pytest.approx(0.4)
    # No sample inside: the nearest one gives the factor, and nothing is subtracted.
    wall, cpu, factor = speed.measure(9.6, 0.1, 0.1)
    assert factor == pytest.approx(PROBE_REF_S / 1.0)
    assert wall == cpu == pytest.approx(0.1 * factor)


def test_speed_probe_process_samples_and_stops():
    import time

    from speed import Speedometer

    with Speedometer(period=0.01) as speed:
        proc = speed._proc
        time.sleep(0.2)
    assert proc.returncode == 0
    assert len(speed.samples) >= 5
    assert all(start <= end and dur > 0 for start, end, dur in speed.samples)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = layers.tail([float(k) for k in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert layers.tail([5.0, 1.0]) == (1.0, 50.0, 2)


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == set(
        run.end_to_end(run.Pass(walls=[1.0], cpus=[1.0], work=[1]), [1.0])
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
