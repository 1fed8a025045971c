"""Line-oriented ``key = value`` run configuration.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Unknown keys, duplicate keys and malformed values are
reported with their line number.  The study table loads when a document is
first parsed, so importing ``ConfigError`` alone is cheap.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .experiments import ExperimentSpec


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


_FLOAT_KEYS = {"a", "b", "c", "t_k", "t", "sweep_start", "sweep_stop", "sweep_step"}
_INT_KEYS = {"N"}
_TEXT_KEYS = {"experiment", "out"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _TEXT_KEYS


def _parse_value(key: str, raw: str, line_no: int):
    if key in _TEXT_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: invalid value '{raw}' for key '{key}'") from None


def parse_config(text: str) -> ExperimentSpec:
    """Parse a configuration document into a validated experiment spec."""
    from .experiments import EXPERIMENTS, PARAM_KEYS, ExperimentSpec, SweepAxis, resolve

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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        if not raw_value:
            raise ConfigError(f"line {line_no}: missing value for key '{key}'")
        values[key] = _parse_value(key, raw_value, line_no)

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
    spec = ExperimentSpec(
        name=name,
        params={k: values[k] for k in PARAM_KEYS if k in values},
        sweep=sweep,
        output_path=values.get("out"),
    )
    try:
        resolve(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec
