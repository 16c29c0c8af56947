"""Experiment configuration files.

A config is a JSON object with ``"schema": 1``. It describes the class mix and
utilities, the service rate, and the load as exactly one of ``rho`` (per-pool
offered load) or ``lambda`` (per-pool arrival rate). Optional blocks set the
policy list, run options, sweep axes, and an output path. Example::

    {
      "schema": 1,
      "n": 100,
      "mu": 1.0,
      "rho": 9.75,
      "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20}},
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 30}}
      ],
      "policies": ["jlmu", "slta"],
      "run": {"horizon": 180.0, "init": "optimal"},
      "sweep": {"n": [50, 100], "seeds": [1, 2, 3]}
    }

Validation errors carry the offending field path; JSON syntax errors keep the
parser's line and column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .model import (
    SystemConfig,
    UtilityFamily,
    _check_fractions,
    _json_integer,
    _json_number,
    utility_from_dict,
)
from .policies import parse_policy

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A configuration file problem, with the field path in the message."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _req(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(where, f"missing required field {key!r}")
    return obj[key]


def _number(value: Any, where: str) -> float:
    try:
        return _json_number(value)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


def _integer(value: Any, where: str) -> int:
    try:
        return _json_integer(value)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


@dataclass
class RunOptions:
    horizon: float = 100.0
    warmup: float | None = None
    init: str = "empty"


@dataclass
class SweepOptions:
    n_values: list[int] = field(default_factory=list)
    rho_values: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    replications: int = 1


@dataclass
class ExperimentConfig:
    """Validated contents of a config file.

    ``family`` is built once, so every system the config builds shares one
    slot ranking and marginal cache.
    """

    fractions: tuple[float, ...]
    family: UtilityFamily
    mu: float
    rho: float | None
    lam: float | None
    n: int | None
    policies: list[str]
    beta: float | None
    run: RunOptions
    sweep: SweepOptions
    out: str | None

    def offered_load(self, rho: float | None = None) -> float:
        if rho is not None:
            return rho
        if self.rho is not None:
            return self.rho
        return self.lam / self.mu

    def system(self, n: int | None = None, rho: float | None = None) -> SystemConfig:
        """Build the finite system, optionally overriding the size or load."""
        size = n if n is not None else self.n
        if size is None:
            raise ConfigError("n", "the config has no pool count; pass one explicitly")
        return SystemConfig.from_rho(
            n=size,
            alpha=self.fractions,
            rho=self.offered_load(rho),
            mu=self.mu,
            family=self.family,
        )


def parse_config(doc: Any) -> ExperimentConfig:
    """Validate a decoded JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("", f"config must be a JSON object, got {type(doc).__name__}")
    known = {
        "schema", "classes", "mu", "rho", "lambda", "n",
        "policies", "beta", "run", "sweep", "out",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    schema = _req(doc, "schema", "")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")

    classes = _req(doc, "classes", "")
    if not isinstance(classes, list) or not classes:
        raise ConfigError("classes", "must be a non-empty list")
    fractions = []
    utilities = []
    for k, entry in enumerate(classes):
        where = f"classes[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError(where, "each class must be an object")
        frac = _number(_req(entry, "fraction", where), f"{where}.fraction")
        if not frac > 0:
            raise ConfigError(f"{where}.fraction", f"must be > 0, got {frac}")
        spec = _req(entry, "utility", where)
        try:
            utilities.append(utility_from_dict(spec))
        except ValueError as exc:
            raise ConfigError(f"{where}.utility", str(exc)) from None
        fractions.append(frac)
        extra = set(entry) - {"fraction", "utility"}
        if extra:
            raise ConfigError(where, f"unexpected fields: {sorted(extra)}")
    try:
        _check_fractions(fractions)
    except ValueError as exc:
        raise ConfigError("classes", str(exc)) from None

    mu = _number(_req(doc, "mu", ""), "mu")
    if not mu > 0:
        raise ConfigError("mu", f"must be > 0, got {mu}")

    has_rho = "rho" in doc
    has_lam = "lambda" in doc
    if has_rho == has_lam:
        raise ConfigError("", "exactly one of 'rho' or 'lambda' is required")
    rho = _number(doc["rho"], "rho") if has_rho else None
    lam = _number(doc["lambda"], "lambda") if has_lam else None
    if rho is not None and rho < 0:
        raise ConfigError("rho", f"must be >= 0, got {rho}")
    if lam is not None and lam < 0:
        raise ConfigError("lambda", f"must be >= 0, got {lam}")

    n = None
    if "n" in doc:
        n = _integer(doc["n"], "n")
        if n < 1:
            raise ConfigError("n", f"must be >= 1, got {n}")

    policies = []
    if "policies" in doc:
        if not isinstance(doc["policies"], list):
            raise ConfigError("policies", "must be a list of policy names")
        for k, name in enumerate(doc["policies"]):
            try:
                parse_policy(name)
            except ValueError as exc:
                raise ConfigError(f"policies[{k}]", str(exc)) from None
            policies.append(name)

    beta = None
    if "beta" in doc:
        beta = _number(doc["beta"], "beta")
        if not 0 < beta <= 1:
            raise ConfigError("beta", f"must be in (0, 1], got {beta}")

    run = RunOptions()
    if "run" in doc:
        block = doc["run"]
        if not isinstance(block, dict):
            raise ConfigError("run", "must be an object")
        extra = set(block) - {"horizon", "warmup", "init"}
        if extra:
            raise ConfigError("run", f"unexpected fields: {sorted(extra)}")
        if "horizon" in block:
            run.horizon = _number(block["horizon"], "run.horizon")
            if not run.horizon > 0:
                raise ConfigError("run.horizon", "must be > 0")
        if "warmup" in block:
            run.warmup = _number(block["warmup"], "run.warmup")
            if run.warmup < 0:
                raise ConfigError("run.warmup", "must be >= 0")
        if "init" in block:
            init = block["init"]
            if init not in ("empty", "optimal"):
                raise ConfigError("run.init", f"must be 'empty' or 'optimal', got {init!r}")
            run.init = init

    sweep = SweepOptions()
    if "sweep" in doc:
        block = doc["sweep"]
        if not isinstance(block, dict):
            raise ConfigError("sweep", "must be an object")
        extra = set(block) - {"n", "rho", "seeds", "replications"}
        if extra:
            raise ConfigError("sweep", f"unexpected fields: {sorted(extra)}")
        for key, out, cast in (
            ("n", sweep.n_values, _integer),
            ("seeds", sweep.seeds, _integer),
        ):
            if key in block:
                if not isinstance(block[key], list) or not block[key]:
                    raise ConfigError(f"sweep.{key}", "must be a non-empty list")
                for k, v in enumerate(block[key]):
                    out.append(cast(v, f"sweep.{key}[{k}]"))
        if "rho" in block:
            if not isinstance(block["rho"], list) or not block["rho"]:
                raise ConfigError("sweep.rho", "must be a non-empty list")
            for k, v in enumerate(block["rho"]):
                sweep.rho_values.append(_number(v, f"sweep.rho[{k}]"))
        if "replications" in block:
            sweep.replications = _integer(block["replications"], "sweep.replications")
            if sweep.replications < 1:
                raise ConfigError("sweep.replications", "must be >= 1")

    out = None
    if "out" in doc:
        if not isinstance(doc["out"], str):
            raise ConfigError("out", "must be a path string")
        out = doc["out"]

    cfg = ExperimentConfig(
        fractions=tuple(fractions),
        family=UtilityFamily(utilities),
        mu=mu,
        rho=rho,
        lam=lam,
        n=n,
        policies=policies,
        beta=beta,
        run=run,
        sweep=sweep,
        out=out,
    )
    # Surface inconsistent fraction/size combinations right away when possible.
    if cfg.n is not None:
        cfg.system()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    try:
        return parse_config(doc)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("", str(exc)) from None
