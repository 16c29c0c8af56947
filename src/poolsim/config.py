"""Experiment configuration files.

A config is a system plus SLTA's learning rate ``beta``, which has no flag.
It is a JSON object with ``"schema": 1``, the class mix and utilities, the
service rate ``mu``, the per-pool offered load ``rho``, and optionally
``beta``. Everything about a run (the pool count, policies, horizon, seeds,
replications and output path) is a command-line flag. Example::

    {
      "schema": 1,
      "mu": 1.0,
      "rho": 9.75,
      "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20}},
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 30}}
      ]
    }

Errors of the JSON rules carry the offending field path; JSON syntax errors
keep the parser's line and column. This module holds every rule for reading
JSON, including the utility specs; the system's values are judged by
``FluidSystem``, whose errors come without a path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .model import CappedLinear, FluidSystem, Linear, LogQuality, Tabulated, Utility, UtilityFamily

__all__ = ["ConfigError", "load_config", "parse_config", "utility_from_dict"]

SCHEMA_VERSION = 1


def _json_number(value: Any) -> float:
    """A finite number from a decoded JSON document; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    # JSON lets NaN, Infinity and 1e400 through.
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _json_integer(value: Any) -> int:
    """An integer from a decoded JSON document; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_numbers(value: Any) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return tuple(_json_number(v) for v in value)


#: Each utility kind: its type and a reader per field of its config form.
_UTILITY_KINDS = {
    "log_quality": (LogQuality, {"r": _json_number}),
    "linear": (Linear, {"slope": _json_number}),
    "capped_linear": (CappedLinear, {"slope": _json_number, "cap": _json_integer}),
    "table": (Tabulated, {"values": _json_numbers}),
}


def utility_from_dict(spec: dict) -> Utility:
    """Build a utility from its config form, e.g. {"kind": "linear", "slope": 2.0}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"utility spec must be an object with a 'kind' field, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _UTILITY_KINDS:
        known = ", ".join(sorted(_UTILITY_KINDS))
        raise ValueError(f"unknown utility kind {kind!r} (known kinds: {known})")
    make, fields = _UTILITY_KINDS[kind]
    extra = set(spec) - set(fields) - {"kind"}
    missing = set(fields) - set(spec)
    if missing:
        raise ValueError(f"utility kind {kind!r} is missing fields: {sorted(missing)}")
    if extra:
        raise ValueError(f"utility kind {kind!r} has unexpected fields: {sorted(extra)}")
    params = {}
    for key, read in fields.items():
        try:
            params[key] = read(spec[key])
        except ValueError as exc:
            raise ValueError(f"utility kind {kind!r} field {key!r}: {exc}") from None
    return make(**params)


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


def parse_config(doc: Any) -> tuple[FluidSystem, float | None]:
    """Validate a decoded JSON document into its system and SLTA's ``beta``.

    The system's family is built once, so every system derived from it shares
    one slot ranking and marginal cache.
    """
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
    mu = _number(_req(doc, "mu", ""), "mu")
    rho = _number(_req(doc, "rho", ""), "rho")

    beta = None
    if "beta" in doc:
        beta = _number(doc["beta"], "beta")
        if not 0 < beta <= 1:
            raise ConfigError("beta", f"must be in (0, 1], got {beta}")

    try:
        system = FluidSystem(tuple(fractions), rho=rho, mu=mu, family=UtilityFamily(utilities))
    except ValueError as exc:
        raise ConfigError("", str(exc)) from None
    return system, beta


def load_config(path: str | Path) -> tuple[FluidSystem, float | None]:
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
    return parse_config(doc)
