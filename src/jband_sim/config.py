"""Line-oriented ``key = value`` run configuration, and the number rule of every front end.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Unknown keys, duplicate keys and malformed values are
reported with their line number.  The study table loads when a document is
first parsed, so importing ``ConfigError`` or ``parse_number`` alone is cheap.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .experiments import ExperimentSpec


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


#: Keys that count sites, orders or excitations; every other numeric key is a float.
INT_KEYS = ("n", "N", "M")
_TEXT_KEYS = ("experiment", "out")
_SWEEP_KEYS = ("sweep_start", "sweep_stop", "sweep_step")


def parse_number(key: str, raw: str) -> int | float:
    """``raw`` as the value of ``key``; ``ValueError`` names the key.

    An integer key takes a decimal integer, exact at any size, or an integral
    float literal (``3e2``); any other key takes a float."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"invalid value '{raw}' for key '{key}'") from None
    if key not in INT_KEYS:
        return value
    try:
        return int(raw)
    except ValueError:
        if value.is_integer():
            return int(value)
        raise ValueError(f"key '{key}' needs an integer, got '{raw}'") from None


def parse_config(text: str) -> ExperimentSpec:
    """Parse a configuration document into a validated experiment spec."""
    from .core import DEFAULT_BASE
    from .experiments import EXPERIMENTS, ExperimentSpec, SweepAxis, resolve

    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in (*_TEXT_KEYS, *_SWEEP_KEYS, *DEFAULT_BASE):
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        if not raw_value:
            raise ConfigError(f"line {line_no}: missing value for key '{key}'")
        try:
            values[key] = raw_value if key in _TEXT_KEYS else parse_number(key, raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    name = values["experiment"]
    definition = EXPERIMENTS.get(name)
    if definition is None:
        known = ", ".join(EXPERIMENTS)
        raise ConfigError(f"unknown experiment '{name}' (known: {known})")

    default = definition.sweep
    sweep = SweepAxis(
        variable=default.variable,
        start=float(values.get("sweep_start", default.start)),
        stop=float(values.get("sweep_stop", default.stop)),
        step=float(values.get("sweep_step", default.step)),
    )
    spec = ExperimentSpec(name, {k: v for k, v in values.items() if k in DEFAULT_BASE},
                          sweep, values.get("out"))
    try:
        resolve(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec
