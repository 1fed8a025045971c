"""Named parameter studies and their tabulated results.

Each preset pins the parameter values of one bundled study, and each study
kind names an evaluator: it maps the parameter values of every point of a
sweep, grid value by grid value and curve by curve, to the measure's values
at those points.  Entropy sweeps are evaluated in blocks of points that share
one chain length, ordered by c t, so that each Bessel row is computed once;
the other kinds map a point function over the points.  One sweep loop lays
the values out as tables whose first column is the sweep variable.  Entropy
studies produce two tables, the summed site entropy and its per-site
average, exposed via ``run_experiment_outputs``; ``run_experiment`` returns
the primary table.  A study accepts an override or a sweep variable only
among the keys its kind reads.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Mapping

from .config import INT_KEYS

from .core import DEFAULT_BASE, check_time, model_params
from .measures import _site_entropies, average_concurrence, extended_state_entropy, spano_coherence_size
from .multipartite import SusceptibilityParams, SymmetricState, chi3_magnitude, geometric_entropy, zeta_ratios
from .propagator import _check_point, _occupation_blocks

#: Largest sweep grid; the bundled studies use at most 201 points.
MAX_SWEEP_POINTS = 100_000


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
    base: Mapping[str, float]
    curves: tuple[Mapping[str, float], ...]
    sweep: SweepAxis
    extended_ref: bool = False


_T_GRID = SweepAxis("t", 0.0, 10.0, 0.05)
_N_GRID = SweepAxis("N", 10, 300, 10)

EXPERIMENTS: dict[str, ExperimentDef] = {
    "fig1a": ExperimentDef("entropy", {"a": 0.0, "b": 0.0, "c": 30.0},
                           ({"N": 200}, {"N": 100}, {"N": 50}), _T_GRID),
    "fig1b": ExperimentDef("entropy", {"a": 0.0, "b": 0.0, "c": 30.0},
                           ({"t": 2.0}, {"t": 5.0}, {"t": 9.0}), _N_GRID),
    "fig1c": ExperimentDef("entropy", {"a": 0.0, "b": 0.0, "t": 2.0},
                           ({"c": 10.0}, {"c": 20.0}, {"c": 40.0}), _N_GRID),
    "fig1d": ExperimentDef("entropy", {"a": 0.0, "c": 30.0, "t": 6.0},
                           ({"b": 0.0}, {"b": 0.3}, {"b": 0.5}), _N_GRID, extended_ref=True),
    "fig2a": ExperimentDef("entropy", {"b": 0.0, "c": 10.0, "N": 150},
                           ({"a": 0.0}, {"a": 0.3}, {"a": 0.7}, {"a": 1.5}), _T_GRID),
    "fig2b": ExperimentDef("entropy", {"a": 0.0, "c": 20.0, "N": 100},
                           ({"b": 0.0}, {"b": 0.5}, {"b": 1.0}), _T_GRID),
    "fig2c": ExperimentDef("entropy", {"a": 0.5, "b": 0.3, "N": 200},
                           ({"c": 40.0}, {"c": 20.0}, {"c": 5.0}), _T_GRID),
    "fig3": ExperimentDef("concurrence_vs_N", {"t_k": 2.0},
                          ({"c": 15.0, "b": 0.5}, {"c": 15.0, "b": 0.1},
                           {"c": 5.0, "b": 0.5}, {"c": 5.0, "b": 0.1}),
                          SweepAxis("N", 10, 200, 5)),
    "fig4": ExperimentDef("zeta_vs_N", {}, ({},), SweepAxis("N", 4, 400, 4)),
    "fig5": ExperimentDef("chi3_vs_N", asdict(SusceptibilityParams()), ({},),
                          SweepAxis("N", 4, 400, 4)),
    "custom": ExperimentDef("custom", dict(DEFAULT_BASE), ({},), _T_GRID),
}


def sweep_grid(axis: SweepAxis) -> list[float]:
    """The inclusive grid of a sweep axis, as integers for N and M."""
    if not (math.isfinite(axis.step) and axis.step > 0):
        raise ValueError("sweep step must be > 0")
    if not (math.isfinite(axis.start) and math.isfinite(axis.stop)):
        raise ValueError("sweep start and stop must be finite")
    if not (axis.start < axis.stop):
        raise ValueError("sweep start must be < stop")
    if axis.variable in INT_KEYS and (axis.start % 1 or axis.step % 1):
        raise ValueError(f"a sweep over {axis.variable} needs an integer start and step")
    # Compared as a float, so a quotient that overflows to inf is rejected
    # before int() sees it, and no grid is allocated past the limit.
    steps = (axis.stop - axis.start) / axis.step + 1e-9
    if steps >= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep must have at most {MAX_SWEEP_POINTS} points")
    count = int(math.floor(steps)) + 1
    grid = [axis.start + i * axis.step for i in range(count)]
    return [int(v) for v in grid] if axis.variable in INT_KEYS else grid


def resolve(spec: ExperimentSpec) -> ExperimentDef:
    """Merge a spec with its preset and validate the result.

    The plan keeps the model parameters its kind reads, and any other key is
    rejected; fig5's susceptibility constants stay fixed.  The sweep variable,
    which every point sets, is not part of the plan's base.
    """
    definition = EXPERIMENTS.get(spec.name)
    if definition is None:
        raise ValueError(f"unknown experiment '{spec.name}'")

    overrides = spec.params
    sweep = spec.sweep if spec.sweep is not None else definition.sweep
    if definition.kind == "custom":
        kind = "geometric_vs_M" if sweep.variable == "M" else "entropy"
    else:
        kind = definition.kind
        if sweep.variable != definition.sweep.variable:
            raise ValueError(
                f"experiment '{spec.name}' sweeps '{definition.sweep.variable}', "
                f"not '{sweep.variable}'")
    reads = _KINDS[kind][1]
    for key in (sweep.variable, *overrides):
        if key not in reads:
            raise ValueError(f"unknown parameter '{key}' for experiment '{spec.name}', "
                             f"which reads {' '.join(reads)}")
    first = sweep_grid(sweep)[0]  # validates the axis

    if sweep.variable in overrides:
        raise ValueError(
            f"'{sweep.variable}' is the sweep variable of experiment '{spec.name}' "
            "and cannot be fixed")

    curve_keys = {k for curve in definition.curves for k in curve}
    base = {k: v for k, v in definition.base.items()
            if (k in reads or k not in DEFAULT_BASE) and k != sweep.variable}
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


def _entropy_sweep(points: Iterable[Mapping[str, float]]) -> list[tuple[float, float]]:
    # Every point is checked, in sweep order, before any block is computed, so
    # the first point out of the domain names the error.
    checked = [_check_point(v["t"], model_params(v)) for v in points]
    order = sorted(range(len(checked)), key=lambda k: checked[k][:2])
    blocks = _occupation_blocks([checked[k] for k in order])
    totals = chain.from_iterable(_site_entropies(u).sum(axis=1).tolist() for u in blocks)
    values: list = [None] * len(checked)
    for k, total in zip(order, totals):
        values[k] = (total, total / checked[k][0])
    return values


def _extended_point(values: Mapping[str, float]) -> tuple[float, float]:
    per_site = extended_state_entropy(values["N"])
    return values["N"] * per_site, per_site


def _concurrence_point(values: Mapping[str, float]) -> tuple[float]:
    p = model_params(values)
    # The empirical coherence size is clamped to [1, N] so the concurrence
    # stays in its physical range at both extremes.
    zeta = max(1.0, spano_coherence_size(p))
    return (average_concurrence(zeta, p.N).avg_concurrence,)


def _zeta_point(values: Mapping[str, float]) -> tuple[float, float]:
    return zeta_ratios(values["N"])


def _chi3_point(values: Mapping[str, float]) -> tuple[float, float]:
    N = values["N"]
    sp = SusceptibilityParams(**{k: float(values[k]) for k in ("mu", "gamma", "delta_e", "omega")})
    reduced = (geometric_entropy(SymmetricState(N, 1))
               * geometric_entropy(SymmetricState(N, 2)))
    return reduced, chi3_magnitude(N, sp) / N


def _geometric_point(values: Mapping[str, float]) -> tuple[float]:
    return (geometric_entropy(SymmetricState(values["N"], values["M"])),)


# kind -> (what it tabulates; the keys its points read (t_k enters only the
#          coherence size); function from a plan's points, in sweep order, to
#          their values; one (table suffix, column prefix) per value of a point)
_KINDS: dict[str, tuple[str, tuple[str, ...], Callable, tuple[tuple[str, str], ...]]] = {
    "entropy": ("site entropy", ("N", "a", "b", "c", "t"), _entropy_sweep,
                (("", "S"), ("avg", "S_avg"))),
    "concurrence_vs_N": ("average concurrence", ("N", "b", "c", "t_k"),
                         partial(map, _concurrence_point), (("", "C"),)),
    "zeta_vs_N": ("one- and two-exciton entropy ratios", ("N",), partial(map, _zeta_point),
                  (("", "zeta1"), ("", "zeta2"))),
    "chi3_vs_N": ("reduced third-order susceptibility per monomer", ("N",),
                  partial(map, _chi3_point), (("", "chi3_reduced"), ("", "chi3_over_N"))),
    "geometric_vs_M": ("geometric entanglement", ("N", "M"), partial(map, _geometric_point),
                       (("", "E_geom"),)),
}


def title(plan: ExperimentDef) -> str:
    """What a resolved plan tabulates, against its sweep variable."""
    extended = " plus the extended-state reference" if plan.extended_ref else ""
    return f"{_KINDS[plan.kind][0]} versus {plan.sweep.variable}{extended}"


def _build(plan: ExperimentDef) -> dict[str, CsvTable]:
    _, _, evaluate, columns = _KINDS[plan.kind]
    var = plan.sweep.variable
    grid = sweep_grid(plan.sweep)
    values = iter(evaluate({**plan.base, **curve, var: x}
                           for x in grid for curve in plan.curves))
    tables = {suffix: [] for suffix, _ in columns}
    for x in grid:
        results = [next(values) for _ in plan.curves]
        if plan.extended_ref:
            results.append(_extended_point({**plan.base, var: x}))
        rows = {suffix: [float(x)] for suffix in tables}
        for result in results:
            for (suffix, _), value in zip(columns, result):
                rows[suffix].append(value)
        for suffix, row in rows.items():
            tables[suffix].append(tuple(row))
    # Labels only after the rows: a point rejects an out-of-range value with a
    # domain error, where formatting it into a label could overflow.
    labels = ["_".join(f"{k}{v:g}" for k, v in curve.items()) for curve in plan.curves]
    if plan.extended_ref:
        labels.append("ext")
    headers = {suffix: [var] for suffix in tables}
    for label in labels:
        for suffix, prefix in columns:
            headers[suffix].append(f"{prefix}_{label}" if label else prefix)
    return {suffix: CsvTable(tuple(headers[suffix]), tuple(rows))
            for suffix, rows in tables.items()}


def run_experiment_outputs(spec: ExperimentSpec) -> dict[str, CsvTable]:
    """All tables of a study, keyed by filename suffix ('' is the primary)."""
    return _build(resolve(spec))


def run_experiment(spec: ExperimentSpec) -> CsvTable:
    """The primary table of a study (the plotted quantity)."""
    return run_experiment_outputs(spec)[""]
