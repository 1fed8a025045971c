"""Named parameter studies and their tabulated results.

Each preset pins the parameter values of one bundled study; ``run_experiment``
turns a spec into a deterministic table whose first column is the sweep
variable.  Entropy studies produce two tables, the summed site entropy and
its per-site average, exposed via ``run_experiment_outputs``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from .core import ModelParams, check_time
from .measures import concurrence_vs_size_curve, entropy_report, extended_state_entropy
from .multipartite import SusceptibilityParams, SymmetricState, chi3_magnitude, geometric_entropy, zeta_ratios
from .propagator import occupation_profile

SWEEP_VARIABLES = ("t", "N", "a", "b", "c", "t_k", "M")

#: Configuration keys that set model parameters directly.
PARAM_KEYS = ("N", "a", "b", "c", "t_k", "t")

#: Fallback parameter values for custom runs and single-measure evaluation.
DEFAULT_BASE: Mapping[str, float] = {
    "a": 0.0, "b": 0.0, "c": 30.0, "t_k": 1.0, "N": 200, "t": 2.0,
}


@dataclass(frozen=True)
class SweepAxis:
    """Inclusive sweep grid: start, start + step, ... up to stop."""

    variable: str
    start: float
    stop: float
    step: float


@dataclass(frozen=True)
class ExperimentSpec:
    """A named study plus explicit overrides of its pinned defaults."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)
    sweep: SweepAxis | None = None
    output_path: str | None = None


@dataclass(frozen=True)
class CsvTable:
    """Header row plus numeric records, one tuple per sweep point."""

    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("every row must match the header length")


@dataclass(frozen=True)
class ExperimentDef:
    """A bundled study, named by its ``EXPERIMENTS`` key; ``resolve`` merges in a spec's overrides."""

    kind: str
    description: str
    base: Mapping[str, float]
    curves: tuple[Mapping[str, float], ...]
    sweep: SweepAxis
    extended_ref: bool = False


_T_GRID = SweepAxis("t", 0.0, 10.0, 0.05)
_N_GRID = SweepAxis("N", 10, 300, 10)

EXPERIMENTS: dict[str, ExperimentDef] = {
    "fig1a": ExperimentDef(
        "entropy",
        "site entropy versus time for chain lengths N = 200, 100, 50 (a = b = 0, c = 30)",
        {"a": 0.0, "b": 0.0, "c": 30.0, "t_k": 1.0},
        ({"N": 200}, {"N": 100}, {"N": 50}), _T_GRID),
    "fig1b": ExperimentDef(
        "entropy",
        "site entropy versus chain length at t = 2, 5, 9 (a = b = 0, c = 30)",
        {"a": 0.0, "b": 0.0, "c": 30.0, "t_k": 1.0},
        ({"t": 2.0}, {"t": 5.0}, {"t": 9.0}), _N_GRID),
    "fig1c": ExperimentDef(
        "entropy",
        "site entropy versus chain length at c = 10, 20, 40 (a = b = 0, t = 2)",
        {"a": 0.0, "b": 0.0, "t_k": 1.0, "t": 2.0},
        ({"c": 10.0}, {"c": 20.0}, {"c": 40.0}), _N_GRID),
    "fig1d": ExperimentDef(
        "entropy",
        "site entropy versus chain length at b = 0, 0.3, 0.5 plus the extended-state "
        "reference (a = 0, c = 30, t = 6)",
        {"a": 0.0, "c": 30.0, "t_k": 1.0, "t": 6.0},
        ({"b": 0.0}, {"b": 0.3}, {"b": 0.5}), _N_GRID, extended_ref=True),
    "fig2a": ExperimentDef(
        "entropy",
        "site entropy versus time at a = 0, 0.3, 0.7, 1.5 (N = 150, b = 0, c = 10)",
        {"b": 0.0, "c": 10.0, "t_k": 1.0, "N": 150},
        ({"a": 0.0}, {"a": 0.3}, {"a": 0.7}, {"a": 1.5}), _T_GRID),
    "fig2b": ExperimentDef(
        "entropy",
        "site entropy versus time at b = 0, 0.5, 1 (N = 100, a = 0, c = 20)",
        {"a": 0.0, "c": 20.0, "t_k": 1.0, "N": 100},
        ({"b": 0.0}, {"b": 0.5}, {"b": 1.0}), _T_GRID),
    "fig2c": ExperimentDef(
        "entropy",
        "site entropy versus time at c = 40, 20, 5 (N = 200, a = 0.5, b = 0.3)",
        {"a": 0.5, "b": 0.3, "t_k": 1.0, "N": 200},
        ({"c": 40.0}, {"c": 20.0}, {"c": 5.0}), _T_GRID),
    "fig3": ExperimentDef(
        "concurrence_vs_N",
        "average concurrence versus aggregate size at t_k = 2 for (c, b) in "
        "(15, 0.5), (15, 0.1), (5, 0.5), (5, 0.1)",
        {"a": 0.0, "t_k": 2.0},
        ({"c": 15.0, "b": 0.5}, {"c": 15.0, "b": 0.1},
         {"c": 5.0, "b": 0.5}, {"c": 5.0, "b": 0.1}),
        SweepAxis("N", 10, 200, 5)),
    "fig4": ExperimentDef(
        "zeta_vs_N",
        "one- and two-exciton entropy ratios zeta1, zeta2 versus aggregate size",
        {}, ({},), SweepAxis("N", 4, 400, 4)),
    "fig5": ExperimentDef(
        "chi3_vs_N",
        "reduced third-order susceptibility per monomer versus aggregate size "
        "(mu = 1, gamma = 0.5, delta_e = 3, omega = delta_e / 3)",
        {"mu": 1.0, "gamma": 0.5, "delta_e": 3.0, "omega": 1.0},
        ({},), SweepAxis("N", 4, 400, 4)),
    "custom": ExperimentDef(
        "custom",
        "single-curve entropy study over the configured sweep variable "
        "(defaults: a = 0, b = 0, c = 30, t_k = 1, N = 200, t = 2)",
        dict(DEFAULT_BASE), ({},), _T_GRID),
}


def _format_value(v: float) -> str:
    return f"{v:g}"


def _curve_label(curve: Mapping[str, float]) -> str:
    return "_".join(f"{k}{_format_value(v)}" for k, v in curve.items())


def _column(prefix: str, label: str) -> str:
    return f"{prefix}_{label}" if label else prefix


def sweep_grid(axis: SweepAxis) -> list[float]:
    """Materialise the inclusive grid of a sweep axis."""
    if axis.variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable '{axis.variable}'")
    if not (math.isfinite(axis.step) and axis.step > 0):
        raise ValueError("sweep step must be > 0")
    if not (axis.start < axis.stop):
        raise ValueError("sweep start must be < stop")
    count = int(math.floor((axis.stop - axis.start) / axis.step + 1e-9)) + 1
    return [axis.start + i * axis.step for i in range(count)]


def _grid(axis: SweepAxis) -> list:
    """The sweep grid, rounded to integers for the integer variables N and M."""
    grid = sweep_grid(axis)
    return [int(round(v)) for v in grid] if axis.variable in ("N", "M") else grid


def resolve(spec: ExperimentSpec) -> ExperimentDef:
    """Merge a spec with its preset and validate the result."""
    definition = EXPERIMENTS.get(spec.name)
    if definition is None:
        raise ValueError(f"unknown experiment '{spec.name}'")

    overrides = dict(spec.params)
    for key in overrides:
        if key not in PARAM_KEYS:
            raise ValueError(f"unknown parameter '{key}'")

    sweep = spec.sweep if spec.sweep is not None else definition.sweep
    if definition.kind == "custom":
        kind = "geometric_vs_M" if sweep.variable == "M" else "entropy"
    else:
        kind = definition.kind
        if sweep.variable != definition.sweep.variable:
            raise ValueError(
                f"experiment '{spec.name}' sweeps '{definition.sweep.variable}', "
                f"not '{sweep.variable}'")
    first = _grid(sweep)[0]  # validates the axis

    if sweep.variable in overrides:
        raise ValueError(
            f"'{sweep.variable}' is the sweep variable of experiment '{spec.name}' "
            "and cannot be fixed")

    curve_keys = set()
    for curve in definition.curves:
        curve_keys.update(curve)
    base = dict(definition.base)
    base.update({k: v for k, v in overrides.items() if k not in curve_keys})

    curves: list[dict[str, float]] = []
    for curve in definition.curves:
        merged = {k: overrides.get(k, v) for k, v in curve.items()}
        if merged not in curves:
            curves.append(merged)

    for curve in curves:
        merged = {**base, **curve, sweep.variable: first}
        if "t" in merged:
            check_time(merged["t"])
        if kind in ("entropy", "concurrence_vs_N"):
            model_params(merged)

    return replace(definition, kind=kind, base=base, curves=tuple(curves), sweep=sweep)


def model_params(values: Mapping[str, float]) -> ModelParams:
    """Validated model parameters from ``values``; ``DEFAULT_BASE`` fills the gaps.

    A non-integral ``N`` is rejected, not truncated.  ``N`` is passed on as
    given, so an integer too large for a float is a domain error, not an
    ``OverflowError``.
    """
    return ModelParams(N=values.get("N", DEFAULT_BASE["N"]),
                       **{k: float(values.get(k, DEFAULT_BASE[k]))
                          for k in ("a", "b", "c", "t_k")})


def _build_entropy(plan: ExperimentDef) -> dict[str, CsvTable]:
    var = plan.sweep.variable
    total_rows, avg_rows = [], []
    for x in _grid(plan.sweep):
        totals, avgs = [float(x)], [float(x)]
        for curve in plan.curves:
            merged = {**plan.base, **curve, var: x}
            report = entropy_report(occupation_profile(merged["t"], model_params(merged)))
            totals.append(report.total)
            avgs.append(report.average)
        if plan.extended_ref:
            per_site = extended_state_entropy(x)
            totals.append(x * per_site)
            avgs.append(per_site)
        total_rows.append(tuple(totals))
        avg_rows.append(tuple(avgs))
    labels = [_curve_label(curve) for curve in plan.curves]
    names = [_column("S", lab) for lab in labels]
    avg_names = [_column("S_avg", lab) for lab in labels]
    if plan.extended_ref:
        names.append("S_ext")
        avg_names.append("S_avg_ext")
    return {
        "": CsvTable(tuple([var] + names), tuple(total_rows)),
        "avg": CsvTable(tuple([var] + avg_names), tuple(avg_rows)),
    }


def _build_concurrence_vs_N(plan: ExperimentDef) -> dict[str, CsvTable]:
    grid = _grid(plan.sweep)
    labels = [_curve_label(curve) for curve in plan.curves]
    columns = []
    for curve in plan.curves:
        p = model_params({**plan.base, **curve, "N": grid[0]})
        columns.append([value for _, value in concurrence_vs_size_curve(p, grid)])
    header = tuple(["N"] + [_column("C", lab) for lab in labels])
    rows = tuple(tuple([float(n)] + [col[i] for col in columns])
                 for i, n in enumerate(grid))
    return {"": CsvTable(header, rows)}


def _build_zeta_vs_N(plan: ExperimentDef) -> dict[str, CsvTable]:
    rows = []
    for N in _grid(plan.sweep):
        z1, z2 = zeta_ratios(N)
        rows.append((float(N), z1, z2))
    return {"": CsvTable(("N", "zeta1", "zeta2"), tuple(rows))}


def _build_chi3_vs_N(plan: ExperimentDef) -> dict[str, CsvTable]:
    sp = SusceptibilityParams(mu=float(plan.base["mu"]), gamma=float(plan.base["gamma"]),
                              delta_e=float(plan.base["delta_e"]), omega=float(plan.base["omega"]))
    rows = []
    for N in _grid(plan.sweep):
        reduced = (geometric_entropy(SymmetricState(N, 1))
                   * geometric_entropy(SymmetricState(N, 2)))
        rows.append((float(N), reduced, chi3_magnitude(N, sp) / N))
    return {"": CsvTable(("N", "chi3_reduced", "chi3_over_N"), tuple(rows))}


def _build_geometric_vs_M(plan: ExperimentDef) -> dict[str, CsvTable]:
    N = plan.base.get("N", DEFAULT_BASE["N"])
    rows = []
    for M in _grid(plan.sweep):
        rows.append((float(M), geometric_entropy(SymmetricState(N, M))))
    return {"": CsvTable(("M", "E_geom"), tuple(rows))}


_BUILDERS: dict[str, Callable[[ExperimentDef], dict[str, CsvTable]]] = {
    "entropy": _build_entropy,
    "concurrence_vs_N": _build_concurrence_vs_N,
    "zeta_vs_N": _build_zeta_vs_N,
    "chi3_vs_N": _build_chi3_vs_N,
    "geometric_vs_M": _build_geometric_vs_M,
}


def run_experiment_outputs(spec: ExperimentSpec) -> dict[str, CsvTable]:
    """All tables of a study, keyed by filename suffix ('' is the primary)."""
    plan = resolve(spec)
    return _BUILDERS[plan.kind](plan)


def run_experiment(spec: ExperimentSpec) -> CsvTable:
    """The primary table of a study (the plotted quantity)."""
    return run_experiment_outputs(spec)[""]
