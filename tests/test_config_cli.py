import csv
import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from poolsim.assign import optimal_assignment
from poolsim.cli import build_parser, main
from poolsim.config import ConfigError, load_config, parse_config
from poolsim.model import SystemConfig
from poolsim.policies import Slta
from poolsim.sim import RunConfig, _admit, simulate

BASE_DOC = {
    "schema": 1,
    "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20.0}},
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 30.0}},
    ],
    "mu": 1.0,
    "rho": 9.75,
}

#: The run settings every simulate call needs, as flags.
RUN_FLAGS = ["--policy", "jlmu", "--policy", "slta", "--n", "8"]


def write_config(tmp_path, doc=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else BASE_DOC))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_builds_systems_on_one_family(tmp_path, monkeypatch):
    from poolsim import cli

    system, beta = parse_config(BASE_DOC)
    assert system.rho == 9.75 and system.lam == pytest.approx(9.75)
    assert system.family.m == 2 and beta is None
    # every simulate cell shares the config's one slot ranking and marginal cache
    cells = []
    monkeypatch.setattr(cli, "_fan_out", lambda batch, threads: cells.extend(batch) or [])
    argv = ["simulate", "--config", write_config(tmp_path), "--policy", "jlmu",
            "--n", "8", "--n", "16", "--rho", "9.75", "--rho", "10"]
    assert main(argv) == 0
    systems = [cell[0] for cell in cells]
    assert [(s.n, s.rho) for s in systems] == [(8, 9.75), (8, 10.0), (16, 9.75), (16, 10.0)]
    assert len({id(s.family) for s in systems}) == 1


REMOVED_FIELDS = {
    "n": 8,
    "lambda": 9.75,
    "policies": ["jlmu"],
    "run": {"horizon": 4.0},
    "sweep": {"n": [4, 8]},
    "out": "metrics.csv",
}


@pytest.mark.parametrize("key", sorted(REMOVED_FIELDS))
def test_removed_fields_are_unknown(tmp_path, capsys, key):
    # a config describes the system; run settings are flags (rho replaces lambda)
    doc = {**BASE_DOC, key: REMOVED_FIELDS[key]}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path == key and "unknown field" in str(err.value)
    argv = ["simulate", "--config", write_config(tmp_path, doc), *RUN_FLAGS, "--T", "1"]
    assert main(argv) == 2
    assert f"{key}: unknown field" in capsys.readouterr().err


def test_parse_error_paths():
    bad_classes = [
        {"fraction": 0.5, "utility": {"kind": "linear"}},
        {"fraction": 0.5, "utility": {"kind": "linear", "slope": 1.0}},
    ]
    skewed = [
        {"fraction": 0.5, "utility": {"kind": "linear", "slope": 1.0}},
        {"fraction": 0.6, "utility": {"kind": "linear", "slope": 1.0}},
    ]
    empty_class = [
        {"fraction": 1.0, "utility": {"kind": "linear", "slope": 1.0}},
        {"fraction": 0.0, "utility": {"kind": "linear", "slope": 1.0}},
    ]
    cases = [
        ({}, "schema"),
        ({**BASE_DOC, "schema": 2}, "schema"),
        ({**BASE_DOC, "classes": skewed}, "sum to 1"),
        ({**BASE_DOC, "classes": empty_class}, "classes[1].fraction"),
        ({**BASE_DOC, "classes": []}, "classes"),
        ({**BASE_DOC, "classes": bad_classes}, "classes[0].utility"),
        ({**BASE_DOC, "mu": 0.0}, "mu"),
        ({**BASE_DOC, "rho": -0.5}, "rho"),
        ({**BASE_DOC, "beta": 0}, "beta"),
        ({**BASE_DOC, "beta": 1.5}, "beta"),
        ({**BASE_DOC, "surprise": 1}, "surprise"),
    ]
    # utility fields follow the config's number rules: no bools, strings,
    # fractional or float caps, and tables only as lists of numbers
    for utility in (
        {"kind": "capped_linear", "slope": 1.0, "cap": 2.5},
        {"kind": "capped_linear", "slope": 1.0, "cap": 2.0},
        {"kind": "capped_linear", "slope": 1.0, "cap": True},
        {"kind": "log_quality", "r": "20"},
        {"kind": "linear", "slope": True},
        {"kind": "table", "values": "12"},
        {"kind": "table", "values": {"3": 1, "5": 2}},
        {"kind": "table", "values": [0.0, "1"]},
        {"kind": ["linear"], "slope": 1.0},
    ):
        classes = [{"fraction": 0.5, "utility": utility}, BASE_DOC["classes"][1]]
        cases.append(({**BASE_DOC, "classes": classes}, "classes[0].utility"))
    for doc, needle in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert needle in str(err.value), f"expected {needle!r} in {err.value}"


@pytest.mark.parametrize("doc, where, needle", [
    pytest.param(["schema", 1], "", "must be a JSON object", id="not-an-object"),
    pytest.param({**BASE_DOC, "classes": [3]}, "classes[0]", "each class must be an object",
                 id="class-not-an-object"),
    pytest.param({**BASE_DOC, "classes": [{"fraction": 1.0, "utility": 3}]},
                 "classes[0].utility", "'kind' field", id="utility-not-an-object"),
    pytest.param({**BASE_DOC, "classes": [{**BASE_DOC["classes"][0], "weight": 1},
                                          BASE_DOC["classes"][1]]},
                 "classes[0]", "unexpected fields: ['weight']", id="class-extra-field"),
])
def test_parse_refuses_documents_of_the_wrong_shape(doc, where, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path == where and needle in str(err.value)


@pytest.mark.parametrize("changes, needle", [
    pytest.param({"mu": 0.0}, "mu must be finite and > 0, got 0.0", id="mu"),
    pytest.param({"rho": -0.5}, "rho must be finite and >= 0, got -0.5", id="rho"),
    pytest.param({"classes": [{**c, "fraction": 0.6} for c in BASE_DOC["classes"]]},
                 "class fractions must sum to 1, got 1.2", id="fraction-sum"),
    # both finite, but the arrival rate rho * mu overflows
    pytest.param({"mu": 1e300, "rho": 1e300}, "arrival rate rho * mu overflows", id="overflow"),
])
def test_the_model_judges_a_configs_values(tmp_path, capsys, changes, needle):
    doc = {**BASE_DOC, **changes}
    with pytest.raises(ConfigError, match=re.escape(needle)):
        parse_config(doc)
    assert main(["bound", "--config", write_config(tmp_path, doc)]) == 2
    assert f"config error: {needle}" in capsys.readouterr().err


def test_parse_takes_the_closed_ends_of_rho_and_beta():
    # rho = 0 is a draining system, and beta = 1 a quota of every pool
    system, beta = parse_config({**BASE_DOC, "rho": 0, "beta": 1})
    assert (system.rho, beta) == (0, 1)


def test_missing_load_is_rejected():
    doc = dict(BASE_DOC)
    del doc["rho"]
    with pytest.raises(ConfigError, match="missing required field 'rho'"):
        parse_config(doc)


def test_load_config_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,,}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def test_parse_rejects_non_finite_numbers(tmp_path):
    cases = [
        ({**BASE_DOC, "rho": math.nan}, "rho"),
        ({**BASE_DOC, "mu": math.inf}, "mu"),
        ({**BASE_DOC, "rho": 10**400}, "rho"),
    ]
    for utility in (
        {"kind": "linear", "slope": math.inf},
        {"kind": "log_quality", "r": math.inf},
        {"kind": "capped_linear", "slope": math.nan, "cap": 2},
        {"kind": "table", "values": [0.0, math.nan]},
    ):
        classes = [{"fraction": 0.5, "utility": utility}, BASE_DOC["classes"][1]]
        cases.append(({**BASE_DOC, "classes": classes}, "classes[0].utility"))
    for doc, where in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == where
    # the JSON literals NaN and Infinity reach the same check from a file
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(BASE_DOC).replace('"rho": 9.75', '"rho": NaN'))
    with pytest.raises(ConfigError, match="finite"):
        load_config(str(path))


def test_file_errors_exit_2_and_name_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["bound", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert main(["bound", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    out = tmp_path / "no-such-dir" / "bound.json"
    assert main(["bound", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    # a file that is not UTF-8 is named too, not just the decoder's complaint
    binary = tmp_path / "bin.json"
    binary.write_bytes(bytes([0x81]) + bytes(range(256))[:99])
    assert main(["bound", "--config", str(binary)]) == 2
    assert str(binary) in capsys.readouterr().err


def test_out_directory_is_checked_before_any_work(tmp_path, monkeypatch, capsys):
    from poolsim import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "_run_cell", no_work)
    monkeypatch.setattr("poolsim.fluid.integrate_fluid", no_work)
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    cfg = write_config(tmp_path)
    fluid = ["fluid", "--config", cfg, "--T", "20"]
    simulate = ["simulate", "--config", cfg, *RUN_FLAGS, "--T", "1"]
    for argv, out in (
        (fluid, missing),
        (simulate, missing),
        (["table1", "--scale", "4", "--reps", "1", "--T", "1"], missing),
        # an existing directory is refused too, except by table1 (below)
        (fluid, str(tmp_path)),
        (simulate, str(tmp_path)),
    ):
        assert main(argv + ["--out", out]) == 2
        assert f"out: cannot write {out}" in capsys.readouterr().err


def test_table1_out_directory_means_table1_csv(tmp_path):
    assert main(["table1", "--scale", "4", "--rho", "9.75", "--reps", "1", "--T", "1",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table1.csv").read_text().startswith("n,rep,")


def test_run_batches_is_not_a_config_field():
    doc = {**BASE_DOC, "run": {"horizon": 4.0, "batches": 5}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path == "run" and "unknown field" in str(err.value)


def test_run_init_alias_rejected(tmp_path, capsys):
    argv = ["simulate", "--config", write_config(tmp_path), *RUN_FLAGS, "--T", "1"]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--init", "optimal-rounded"])
    assert info.value.code == 2
    assert "--init: invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: analytical commands


def test_cli_bound(tmp_path, capsys):
    code = main(["bound", "--config", write_config(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == pytest.approx(
        7.0 * math.log(2.5) + 2.75 * math.log(30.0 / 11.0), abs=1e-12
    )
    assert doc["sigma_star"] == [2, 12]
    assert doc["rank"] == 20
    assert doc["residual"] == pytest.approx(0.25)


def test_cli_bound_rho_override(tmp_path, capsys):
    code = main(["bound", "--config", write_config(tmp_path), "--rho", "10.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == pytest.approx(10.0 * math.log(2.5), abs=1e-12)


def test_cli_bound_rejects_unreachable_loads(tmp_path, capsys):
    # non-finite loads are config errors; a load beyond what 10^6 ranked
    # slots can carry is refused without walking them, also with exit 2
    cfg = write_config(tmp_path)
    for command in ("bound", "assign"):
        for load in ("nan", "inf"):
            assert main([command, "--config", cfg, "--rho", load]) == 2
            assert "finite" in capsys.readouterr().err
        assert main([command, "--config", cfg, "--rho", "1e300"]) == 2
        assert "refusing" in capsys.readouterr().err
    for argv in (["fluid", "--config", cfg], ["simulate", "--config", cfg, *RUN_FLAGS]):
        assert main(argv + ["--rho", "1e300"]) == 2
        assert "refusing" in capsys.readouterr().err
        # a negative load is reported as the rho the flag sets, not as lam
        assert main(argv + ["--rho", "-1"]) == 2
        err = capsys.readouterr().err
        assert "rho must be finite and >= 0, got -1.0" in err and "lam" not in err


@pytest.mark.parametrize("mu", [1e6, 1e300])
def test_cli_simulate_refuses_runs_past_the_event_cap(tmp_path, capsys, mu):
    # T * n * (lam + mu * rho) = 1.56e8 expected events at mu = 1e6, past 1e8;
    # the admission check refuses the run first, so an estimate that lets it
    # through fails here at once instead of simulating it
    fluid, _ = parse_config({**BASE_DOC, "mu": mu})
    system = SystemConfig(n=8, alpha=fluid.alpha, rho=fluid.rho, mu=fluid.mu, family=fluid.family)
    with pytest.raises(ValueError, match="refusing to simulate"):
        _admit(system, RunConfig(horizon=1.0))
    cfg = write_config(tmp_path, {**BASE_DOC, "mu": mu})
    started = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--policy", "jlmu", "--n", "8", "--T", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    assert "refusing to simulate" in capsys.readouterr().err


def test_cli_assign(tmp_path, capsys):
    code = main(["assign", "--config", write_config(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mass"] == pytest.approx(9.75)
    pairs = {(c, l): v for c, l, v in doc["q_star"]}
    assert pairs[(2, 12)] == pytest.approx(0.25)
    assert pairs[(1, 8)] == pytest.approx(0.5)


def test_cli_assign_masses_are_the_profile_sums(tmp_path, capsys):
    # at fractions that are not dyadic, summing the listed entries in order
    # rounds otherwise; the reported masses are QVector's own sums, bit for bit
    doc = {**BASE_DOC, "classes": [
        {"fraction": 0.3, "utility": {"kind": "log_quality", "r": 20.0}},
        {"fraction": 0.7, "utility": {"kind": "log_quality", "r": 30.0}},
    ], "rho": 20.0}
    assert main(["assign", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    system, _ = parse_config(doc)
    q_star = optimal_assignment(system.family, system.alpha, system.rho).q_star
    assert out["mass"] == q_star.mass() != sum(v for _, _, v in out["q_star"])
    assert out["class_mass"] == q_star.class_mass().tolist() != [
        sum(v for c, _, v in out["q_star"] if c == cls) for cls in (1, 2)
    ]


def test_cli_rank(tmp_path, capsys):
    code = main(["rank", "--config", write_config(tmp_path), "--count", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(s["cls"], s["level"]) for s in doc] == [(2, 1), (1, 1), (2, 2)]
    assert doc[0]["marginal"] == pytest.approx(math.log(30.0))


# ---------------------------------------------------------------------------
# CLI: simulation commands


def test_cli_simulate_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    code = main(
        [
            "simulate",
            "--config",
            write_config(tmp_path),
            *RUN_FLAGS,
            "--T",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["policy"] for r in rows} == {"jlmu", "slta"}
    for row in rows:
        assert row["n"] == "8"
        assert float(row["avg_u"]) <= float(row["empirical_bound"]) + 1e-9
    # identical settings must reproduce every column except the wall clock
    again = tmp_path / "metrics2.csv"
    argv = ["simulate", "--config", write_config(tmp_path), *RUN_FLAGS, "--T", "2.0"]
    main(argv + ["--out", str(again)])
    strip = lambda text: [
        ",".join(line.split(",")[:-1]) for line in text.read_text().splitlines()
    ]
    assert strip(out) == strip(again)


def test_cli_simulate_reads_sweep_warmup_beta_and_out(tmp_path):
    # repeated --seed gives the rows of the one-seed calls, wall column cut
    config = write_config(tmp_path, {**BASE_DOC, "beta": 0.5})
    argv = ["simulate", "--config", config, "--policy", "jlmu", "--policy", "slta",
            "--n", "4", "--n", "8", "--reps", "2", "--T", "3.0", "--warmup", "0.5",
            "--init", "optimal"]
    cut = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    out = tmp_path / "seeds.csv"
    assert main(argv + ["--seed", "1", "--seed", "2", "--out", str(out)]) == 0
    rows = cut(out)
    assert len(rows) == 1 + 2 * 2 * 2 * 2
    expected = []
    for seed in (1, 2):
        again = tmp_path / f"seed{seed}.csv"
        assert main(argv + ["--seed", str(seed), "--out", str(again)]) == 0
        expected.append(cut(again))
    assert rows[0] == expected[0][0] == expected[1][0]
    assert sorted(rows[1:]) == sorted(expected[0][1:] + expected[1][1:])
    # beta has no flag: the SLTA rows are runs with Slta(beta=0.5)
    system, beta = load_config(config)
    assert beta == 0.5
    header = rows[0].split(",")
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        if row["policy"] != "slta":
            continue
        run = RunConfig(horizon=3.0, warmup=0.5, seed=int(row["seed"]),
                        replication=int(row["rep"]), init="optimal", selection_slot=1)
        cell = SystemConfig(n=int(row["n"]), alpha=system.alpha, rho=system.rho,
                            mu=system.mu, family=system.family)
        m = simulate(cell, Slta(beta=0.5), run)
        assert (row["avg_u"], row["r_final"], row["switches"]) == (
            f"{m.avg_u:.9g}", str(m.r_final), str(m.switches)
        )


def test_cli_simulate_rejects_unknown_policy(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--config",
            write_config(tmp_path),
            "--policy",
            "jlmu",
            "--policy",
            "lru",
            "--n",
            "8",
            "--T",
            "1.0",
        ]
    )
    assert code == 2
    assert "config error: policy: unknown policy 'lru'" in capsys.readouterr().err


def test_cli_simulate_checks_fixed_class_before_any_run(tmp_path, monkeypatch, capsys):
    # a class past the config's class count is refused before any run starts
    from poolsim import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a run started before the policies were checked")

    monkeypatch.setattr(cli, "_run_cell", no_work)
    argv = ["simulate", "--config", write_config(tmp_path), "--policy", "jlmu",
            "--policy", "fixed:3", "--n", "400", "--T", "100"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: policy: fixed:3 needs class 3 but the system has 2" in err


@pytest.mark.parametrize("flag", ["--policy", "--n"])
def test_cli_simulate_requires_policy_and_n(tmp_path, capsys, flag):
    argv = ["simulate", "--config", write_config(tmp_path), "--policy", "jlmu", "--n", "8"]
    k = argv.index(flag)
    with pytest.raises(SystemExit) as info:
        main(argv[:k] + argv[k + 2:])
    assert info.value.code == 2
    assert f"required: {flag}" in capsys.readouterr().err


def test_cli_simulate_refuses_a_class_of_no_pools(tmp_path, capsys):
    # n * alpha = 1e-10 for class 1 lies within 1e-9 of 0 pools
    doc = {**BASE_DOC, "classes": [{**BASE_DOC["classes"][0], "fraction": 1e-10},
                                   {**BASE_DOC["classes"][1], "fraction": 1 - 1e-10}]}
    argv = ["simulate", "--config", write_config(tmp_path, doc), "--policy", "jlmu",
            "--n", "1", "--T", "1"]
    assert main(argv) == 2
    assert "integral and >= 1: class 1 would get 1e-10 pools" in capsys.readouterr().err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_cli_reports_a_write_that_fails_after_the_out_check(tmp_path, capsys):
    # /dev/full passes the check (a file in a directory) and refuses every write
    assert main(["bound", "--config", write_config(tmp_path), "--out", "/dev/full"]) == 2
    assert "out: cannot write /dev/full: No space left on device" in capsys.readouterr().err


def test_cli_simulate_rejects_infinite_horizon(tmp_path, capsys):
    # an infinite horizon used to start a run that never returned
    argv = ["simulate", "--config", write_config(tmp_path), *RUN_FLAGS]
    assert main(argv + ["--T", "inf"]) == 2
    assert "horizon" in capsys.readouterr().err
    argv += ["--T", "1.0"]
    assert main(argv + ["--warmup", "nan"]) == 2
    assert main(argv + ["--rho", "nan"]) == 2


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_cli_simulate_rejects_reps_below_one(tmp_path, capsys, reps):
    # these used to exit 0 with only the CSV header written
    out = tmp_path / "metrics.csv"
    argv = ["simulate", "--config", write_config(tmp_path), *RUN_FLAGS, "--T", "1.0",
            "--reps", reps]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert "--reps: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--scale", "4", "--reps", "1", "--T", "1", "--threads"],
        ["simulate", "--config", "c.json", "--policy", "jlmu", "--n", "4", "--threads"],
        ["simulate", "--config", "c.json", "--policy", "jlmu", "--n", "4", "--reps"],
        ["table1", "--scale", "4", "--T", "1", "--reps"],
        ["rank", "--config", "c.json", "--count"],
    ],
)
def test_cli_rejects_threads_below_one(argv, threads, capsys):
    # every count flag ends its argv here, and one parser type refuses it
    # before any config is read or any run starts
    with pytest.raises(SystemExit) as info:
        main(argv + [threads])
    assert info.value.code == 2
    assert re.search(rf"argument {argv[-1]}\S*: must be >= 1", capsys.readouterr().err)


@pytest.mark.parametrize("text", ["x", "2.5"])
def test_cli_count_flags_refuse_what_is_not_a_whole_number(text, capsys):
    with pytest.raises(SystemExit) as info:
        main(["rank", "--config", "c.json", "--count", text])
    assert info.value.code == 2
    assert f"argument --count/-k: need a whole number, got '{text}'" in capsys.readouterr().err


def test_fan_out_over_processes_keeps_the_bytes(tmp_path, monkeypatch):
    # a real process pool, whatever the host's cpu count
    from poolsim import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["table1", "--scale", "4", "8", "--reps", "2", "--T", "1", "--seed", "3"]
    outs = [tmp_path / "serial.csv", tmp_path / "pool.csv"]
    for threads, out in zip(("1", "2"), outs):
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_fan_out_clamps_workers(monkeypatch):
    # a stand-in executor records the worker count and starts no process
    from poolsim import cli

    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli, "_run_cell", lambda cell: [cell])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._fan_out(["a", "b"], 10**6) == [["a"], ["b"]]
    assert cli._fan_out(["a"], 2) == [["a"]]
    assert seen == [3, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._fan_out(["d"], 8) == [["d"]]
    assert seen == [3, 2]


def test_cli_table1_small(capsys):
    argv = [
        "table1",
        "--scale",
        "8",
        "--rho",
        "9.75",
        "--reps",
        "2",
        "--T",
        "5.0",
    ]
    code = main(argv)
    assert code == 0
    first = capsys.readouterr().out
    rows = list(csv.DictReader(first.splitlines()))
    assert [r["n"] for r in rows] == ["8", "8", "8"]
    assert [r["rep"] for r in rows] == ["0", "1", "mean"]
    for row in rows:
        assert float(row["jlmu@9.75"]) <= float(row["u_star@9.75"]) + 1e-9
        assert float(row["slta@9.75"]) <= float(row["u_star@9.75"]) + 1e-9
    # byte-stable across reruns
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_suboptimal_report(tmp_path, capsys):
    argv = [
        "suboptimal",
        "--a",
        "1.0",
        "--eps",
        "0.05",
        "--rho",
        "1.0",
        "--T",
        "50.0",
        "--reps",
        "3",
    ]
    code = main(argv)
    assert code == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["closed_form_fixed2"] == pytest.approx(1.0 - math.exp(-1.0))
    # exact: the capped pool is busy half the time, the linear one holds 1/2
    assert doc["jlmu_mean_formula"] == pytest.approx(0.5 + 0.05 * 0.5)
    assert doc["reps"] == 3
    assert set(doc) >= {"fixed2_mean", "jlmu_mean", "fixed2_se", "jlmu_se"}
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("scale, rhos, flag", [
    (["4", "4"], ["9.75"], "scale"),
    (["4"], ["9.75", "9.750"], "rho"),
    (["4", "8", "4"], ["9.75", "10", "9.75"], "scale"),
    (["4", "8"], ["9.75", "10"], None),
])
def test_cli_table1_refuses_repeated_values_before_any_run(scale, rhos, flag, monkeypatch,
                                                           capsys):
    # a repeat would run its cells twice and print its rows or columns twice
    from poolsim import cli

    cells = []
    run_cell = cli._run_cell
    monkeypatch.setattr(cli, "_run_cell", lambda cell: cells.append(cell) or run_cell(cell))
    code = main(["table1", "--scale", *scale, "--rho", *rhos, "--reps", "1", "--T", "1"])
    err = capsys.readouterr().err
    if flag is None:
        assert (code, len(cells)) == (0, len(scale) * len(rhos))
    else:
        assert (code, cells) == (2, [])
        assert err.startswith(f"config error: {flag}: repeats a value")


def test_cli_suboptimal_prints_strict_json_for_huge_payoffs(capsys):
    # payoffs near the largest float overflowed the variance of the error bars
    def refuse(constant):
        raise AssertionError(f"not strict JSON: {constant}")

    assert main(["suboptimal", "--a", "1e308", "--T", "1", "--reps", "2"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert all(math.isfinite(doc[key]) for key in ("jlmu_se", "fixed2_se", "jlmu_mean"))


def test_cli_suboptimal_names_overflowing_payoffs(capsys):
    # at rho = 100 the greedy run's utility overflows before any JSON is formed
    argv = ["suboptimal", "--a", "1e308", "--rho", "100", "--T", "1", "--reps", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "policy jlmu" in err and "overflow float64" in err and "JSON" not in err


def test_json_output_refuses_non_finite_values():
    from poolsim.cli import _json_text

    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _json_text({"x": bad})


def test_cli_suboptimal_refuses_one_rep_before_any_run(monkeypatch, capsys):
    from poolsim import cli

    def no_runs(*args):
        raise AssertionError("suboptimal ran before checking --reps")

    monkeypatch.setattr(cli, "coupled_simulate", no_runs)
    assert main(["suboptimal", "--reps", "1", "--T", "1"]) == 2
    assert "reps" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, needle", [
    ("--a", "0", "a: must be > 0, got 0.0"),
    ("--eps", "1", "eps: must be in (0, 1), got 1.0"),
    ("--rho", "0", "rho: must be > 0, got 0.0"),
])
def test_cli_suboptimal_refuses_bad_parameters_before_any_run(monkeypatch, capsys, flag,
                                                               value, needle):
    from poolsim import cli

    def no_runs(*args):
        raise AssertionError(f"suboptimal ran before checking {flag}")

    monkeypatch.setattr(cli, "coupled_simulate", no_runs)
    assert main(["suboptimal", flag, value, "--T", "1"]) == 2
    assert f"config error: {needle}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: fluid command


def test_cli_fluid_csv_and_reflection(tmp_path, capsys):
    out = tmp_path / "fluid.csv"
    code = main(
        [
            "fluid",
            "--config",
            write_config(tmp_path),
            "--T",
            "2.0",
            "--dt",
            "2e-3",
            "--verify-reflection",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_residual"] <= 2e-2
    rows = list(csv.DictReader(out.open()))
    assert set(rows[0]) == {"t", "cls", "level", "q", "mass"}
    final = [r for r in rows if float(r["t"]) == 2.0]
    mass = {float(r["mass"]) for r in final}
    assert len(mass) == 1
    assert mass.pop() == pytest.approx(9.75 * (1 - math.exp(-2.0)), abs=1e-3)


def test_cli_fluid_qstar_stays_put(tmp_path, capsys):
    code = main(
        [
            "fluid",
            "--config",
            write_config(tmp_path),
            "--init",
            "qstar",
            "--T",
            "1.0",
            "--dt",
            "5e-3",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert all(float(r["mass"]) == pytest.approx(9.75, abs=1e-6) for r in rows)


def test_cli_fluid_needs_no_pool_count(tmp_path):
    # 1/pi and 1 - 1/pi: no small pool count gives whole class sizes
    doc = dict(BASE_DOC)
    doc["classes"] = [
        {**doc["classes"][0], "fraction": 0.3183098861837907},
        {**doc["classes"][1], "fraction": 0.6816901138162093},
    ]
    out = tmp_path / "fluid.csv"
    argv = ["fluid", "--config", write_config(tmp_path, doc), "--T", "1.0", "--dt", "5e-3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert float(rows[-1]["t"]) == 1.0
    assert float(rows[-1]["mass"]) == pytest.approx(9.75 * (1 - math.exp(-1.0)), abs=1e-3)


def test_cli_fluid_takes_a_step_at_a_tiny_horizon(tmp_path, capsys):
    out = tmp_path / "fluid.csv"
    argv = ["fluid", "--config", write_config(tmp_path), "--T", "1e-15", "--verify-reflection"]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["slots_checked"] >= 1
    assert {float(r["t"]) for r in csv.DictReader(out.open())} == {0.0, 1e-3}


def test_cli_fluid_truncation_failure_is_exit_3(tmp_path, capsys):
    code = main(
        [
            "fluid",
            "--config",
            write_config(tmp_path),
            "--T",
            "5.0",
            "--levels",
            "2",
        ]
    )
    assert code == 3
    assert "invariant violation" in capsys.readouterr().err


def test_cli_fluid_refuses_a_start_past_the_truncation(tmp_path, capsys):
    # q* fills class 2 to level 12
    argv = ["fluid", "--config", write_config(tmp_path), "--init", "qstar", "--levels", "3"]
    assert main(argv) == 2
    assert "mass at level 12 beyond truncation 3" in capsys.readouterr().err


def test_cli_fluid_refuses_a_horizon_beyond_the_step_cap(tmp_path, capsys):
    assert main(["fluid", "--config", write_config(tmp_path), "--T", "1e9"]) == 2
    assert "refusing to integrate" in capsys.readouterr().err


def test_cli_fluid_refuses_a_run_past_the_work_cap(tmp_path, capsys):
    # the default run at rho = 1e4 steps 40,002 levels per class 20,000 times
    # and would take minutes; it is refused before the rank table is built
    started = time.perf_counter()
    assert main(["fluid", "--config", write_config(tmp_path), "--rho", "1e4"]) == 2
    assert time.perf_counter() - started < 1.0
    assert "refusing to integrate" in capsys.readouterr().err


def test_cli_requires_a_config(capsys):
    assert main(["bound"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in ("bound", "assign", "rank", "fluid")
        for flag in ("--seed", "--threads")
    ]
    + [("table1", "--config"), ("suboptimal", "--config"), ("suboptimal", "--threads"),
       ("fluid", "--record-every")],
)
def test_cli_refuses_flags_the_command_does_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, flag, "1"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_shared_flags_parse_where_they_are_read():
    parser = build_parser()
    args = parser.parse_args(["table1", "--seed", "3", "--threads", "2", "--out", "t.csv"])
    assert (args.seed, args.threads, args.out) == (3, 2, "t.csv")
    args = parser.parse_args(
        ["simulate", "--config", "c.json", "--policy", "jlmu", "--n", "4",
         "--seed", "4", "--threads", "2", "--out", "s.csv"]
    )
    assert (args.config, args.seed, args.threads, args.out) == ("c.json", [4], 2, "s.csv")
    args = parser.parse_args(["suboptimal", "--seed", "5", "--out", "r.json"])
    assert (args.seed, args.out) == (5, "r.json")
    for command in ("bound", "assign", "rank", "fluid"):
        args = parser.parse_args([command, "--config", "c.json", "--out", "o"])
        assert (args.config, args.out) == ("c.json", "o")


def test_readme_command_line_section_parses():
    # README's config example and shell lines must match the parser; nothing runs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
    (config,) = [body for lang, body in blocks if lang == "json"]
    (shell,) = [body for lang, body in blocks if lang == "sh"]
    parse_config(json.loads(config))
    commands, pending = [], ""
    for line in shell.splitlines():
        line = pending + line.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.strip():
            commands.append(shlex.split(line))
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "poolsim", argv
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")
    assert {argv[1] for argv in commands} == {
        "bound", "assign", "rank", "simulate", "fluid", "table1", "suboptimal"
    }
