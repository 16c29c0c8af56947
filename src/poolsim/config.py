"""Experiment configuration files.

A config describes the system and nothing else. It is a JSON object with
``"schema": 1``, the class mix and utilities, the service rate ``mu``, the
per-pool offered load ``rho``, and optionally SLTA's learning rate ``beta``,
which has no flag. Everything about a run (the pool count, policies, horizon,
seeds, replications and output path) is a command-line flag. Example::

    {
      "schema": 1,
      "mu": 1.0,
      "rho": 9.75,
      "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20}},
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 30}}
      ]
    }

Validation errors carry the offending field path; JSON syntax errors keep the
parser's line and column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .model import SystemConfig, UtilityFamily, _check_fractions, _json_number, utility_from_dict

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


@dataclass
class ExperimentConfig:
    """Validated contents of a config file.

    ``family`` is built once, so every system the config builds shares one
    slot ranking and marginal cache.
    """

    fractions: tuple[float, ...]
    family: UtilityFamily
    mu: float
    rho: float
    beta: float | None

    def offered_load(self, rho: float | None = None) -> float:
        """The load to use: ``rho`` when given, else the config's."""
        return self.rho if rho is None else rho

    def system(self, n: int, rho: float | None = None) -> SystemConfig:
        """Build the system of ``n`` pools, optionally overriding the load."""
        return SystemConfig.from_rho(
            n=n,
            alpha=self.fractions,
            rho=self.offered_load(rho),
            mu=self.mu,
            family=self.family,
        )


def parse_config(doc: Any) -> ExperimentConfig:
    """Validate a decoded JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("", f"config must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in ("schema", "classes", "mu", "rho", "beta"):
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
    rho = _number(_req(doc, "rho", ""), "rho")
    if rho < 0:
        raise ConfigError("rho", f"must be >= 0, got {rho}")

    beta = None
    if "beta" in doc:
        beta = _number(doc["beta"], "beta")
        if not 0 < beta <= 1:
            raise ConfigError("beta", f"must be in (0, 1], got {beta}")

    return ExperimentConfig(
        fractions=tuple(fractions),
        family=UtilityFamily(utilities),
        mu=mu,
        rho=rho,
        beta=beta,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"cannot read config {path}: not UTF-8 ({exc.reason} "
                              f"at byte {exc.start})") from None
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
