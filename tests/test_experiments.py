import math

import numpy as np
import pytest

from jband_sim import experiments, propagator, specfun
from jband_sim.config import ConfigError, parse_config
from jband_sim.core import make_window, model_params
from jband_sim.experiments import (
    EXPERIMENTS,
    CsvTable,
    ExperimentSpec,
    SweepAxis,
    resolve,
    run_experiment,
    run_experiment_outputs,
    sweep_grid,
)
from jband_sim.measures import _site_entropies, extended_state_entropy
from jband_sim.output import render_csv
from jband_sim.specfun import bessel_j_row, bessel_j_rows

from test_specfun import study_keys

PLATEAU = 2.0 - math.log(2.0)


def test_parse_fig1a_defaults():
    spec = parse_config("experiment = fig1a")
    plan = resolve(spec)
    assert spec.name == "fig1a"
    assert plan.curves == ({"N": 200}, {"N": 100}, {"N": 50})
    assert plan.base["a"] == 0.0 and plan.base["b"] == 0.0 and plan.base["c"] == 30.0
    assert plan.sweep.variable == "t"


def test_parse_fig3_defaults():
    plan = resolve(parse_config("experiment = fig3"))
    assert plan.base["t_k"] == 2.0
    assert plan.curves == ({"c": 15.0, "b": 0.5}, {"c": 15.0, "b": 0.1},
                           {"c": 5.0, "b": 0.5}, {"c": 5.0, "b": 0.1})
    assert plan.sweep == SweepAxis("N", 10, 200, 5)


def test_parse_override_of_fixed_parameter():
    plan = resolve(parse_config("experiment = fig1a\nc = 40"))
    assert plan.base["c"] == 40.0


def test_parse_override_of_curve_parameter_collapses_curves():
    plan = resolve(parse_config("experiment = fig1a\nN = 300"))
    assert plan.curves == ({"N": 300},)


def test_parse_override_of_one_curve_axis_in_fig3():
    plan = resolve(parse_config("experiment = fig3\nc = 10"))
    assert plan.curves == ({"c": 10.0, "b": 0.5}, {"c": 10.0, "b": 0.1})


def test_parse_sweep_override():
    plan = resolve(parse_config("experiment = fig1a\nsweep_stop = 5\nsweep_step = 0.5"))
    assert plan.sweep == SweepAxis("t", 0.0, 5.0, 0.5)
    assert len(sweep_grid(plan.sweep)) == 11


def test_parse_comments_and_blank_lines():
    text = "# study\n\nexperiment = fig1a  # preset\n\nc = 40 # override\n"
    plan = resolve(parse_config(text))
    assert plan.base["c"] == 40.0


def test_parse_reports_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'foo'"):
        parse_config("experiment = fig1a\nfoo = 1")


def test_parse_reports_syntax_error_with_line_number():
    with pytest.raises(ConfigError, match=r"line 1"):
        parse_config("experiment fig1a")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'c'"):
        parse_config("experiment = fig1a\nc = 40\nc = 41")


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigError, match=r"line 2: invalid value"):
        parse_config("experiment = fig1a\nN = many")


def test_parse_requires_experiment_key():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("c = 30")


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment = fig9")


def test_parse_rejects_domain_violations():
    with pytest.raises(ConfigError, match="c must be positive"):
        parse_config("experiment = custom\nc = -1")
    with pytest.raises(ConfigError, match="step"):
        parse_config("experiment = fig1a\nsweep_step = 0")
    with pytest.raises(ConfigError, match="start"):
        parse_config("experiment = fig1a\nsweep_start = 11\nsweep_stop = 10")


def test_parse_rejects_fixing_the_sweep_variable():
    with pytest.raises(ConfigError, match="sweep variable"):
        parse_config("experiment = fig1a\nt = 3")


def test_unknown_spec_parameter_is_domain_error():
    with pytest.raises(ValueError, match="unknown parameter"):
        resolve(ExperimentSpec("fig1a", params={"q": 1.0}))


# A value for every model parameter that differs from each preset's own.
OVERRIDES = {"N": 37, "a": 0.4, "b": 0.35, "c": 12.5, "t_k": 1.7, "t": 1.3}


@pytest.mark.parametrize("key", sorted(OVERRIDES))
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_accepted_override_changes_the_primary_table(name, key):
    # The input contract itself: an override is rejected with a message that
    # names the study and the key, or it changes the plotted table.
    spec = ExperimentSpec(name, params={key: OVERRIDES[key]})
    try:
        resolve(spec)
    except ValueError as exc:
        assert f"'{name}'" in str(exc) and f"'{key}'" in str(exc)
        return
    assert run_experiment(spec) != run_experiment(ExperimentSpec(name))


@pytest.mark.parametrize("name, params, sweep, key", [
    ("fig4", {"c": 3.0}, None, "c"), ("fig4", {"t": 7.0}, None, "t"),
    ("fig4", {"a": 0.5}, None, "a"), ("fig5", {"c": 3.0}, None, "c"),
    ("fig5", {"b": 0.5}, None, "b"), ("fig1a", {"t_k": 5.0}, None, "t_k"),
    ("fig3", {"a": 0.5}, None, "a"),
    ("custom", {"N": 40, "c": 3.0}, SweepAxis("M", 0, 40, 1), "c"),
    ("custom", {"N": 40, "t": 7.0}, SweepAxis("M", 0, 40, 1), "t"),
    ("custom", {}, SweepAxis("t_k", 0.5, 3.0, 0.5), "t_k"),
], ids=["fig4-c", "fig4-t", "fig4-a", "fig5-c", "fig5-b", "fig1a-t_k", "fig3-a",
        "custom-M-c", "custom-M-t", "custom-sweep-t_k"])
def test_resolve_rejects_a_key_the_study_does_not_read(name, params, sweep, key):
    with pytest.raises(ValueError, match=f"unknown parameter '{key}' for experiment '{name}'"):
        resolve(ExperimentSpec(name, params, sweep))


@pytest.mark.parametrize("spec, base", [
    (ExperimentSpec("fig1a"), {"a": 0.0, "b": 0.0, "c": 30.0}),
    (ExperimentSpec("fig3"), {"t_k": 2.0}),
    # The sweep variable is set by every point, so the base does not fix it.
    (ExperimentSpec("custom"), {"a": 0.0, "b": 0.0, "c": 30.0, "N": 200}),
    (ExperimentSpec("custom", sweep=SweepAxis("N", 10, 50, 10)), {"a": 0.0, "b": 0.0, "c": 30.0, "t": 2.0}),
    (ExperimentSpec("custom", {"N": 40}, SweepAxis("M", 0, 40, 1)), {"N": 40}),
    (ExperimentSpec("fig5"), {"mu": 1.0, "gamma": 0.5, "delta_e": 3.0, "omega": 1.0}),
], ids=["fig1a", "fig3", "custom", "custom-N", "custom-M", "fig5"])
def test_plan_keeps_only_the_keys_its_kind_reads(spec, base):
    assert resolve(spec).base == base


def test_fig1a_table_shape_and_initial_row():
    tables = run_experiment_outputs(ExperimentSpec("fig1a"))
    total, avg = tables[""], tables["avg"]
    assert total.header == ("t", "S_N200", "S_N100", "S_N50")
    assert avg.header == ("t", "S_avg_N200", "S_avg_N100", "S_avg_N50")
    assert total.rows[0] == (0.0, 0.0, 0.0, 0.0)
    assert len(total.rows) == 201
    for row_t, row_a in zip(total.rows, avg.rows):
        assert row_a[1] == pytest.approx(row_t[1] / 200, rel=1e-12, abs=1e-300)


def test_fig1d_emits_extended_reference_columns():
    tables = run_experiment_outputs(ExperimentSpec("fig1d"))
    total, avg = tables[""], tables["avg"]
    assert total.header[-1] == "S_ext"
    assert avg.header[-1] == "S_avg_ext"
    for row_t, row_a in zip(total.rows, avg.rows):
        N = int(row_t[0])
        assert row_a[-1] == pytest.approx(extended_state_entropy(N), rel=1e-12)
        assert row_t[-1] == pytest.approx(N * extended_state_entropy(N), rel=1e-12)


def test_fig4_branch_ordering():
    table = run_experiment(ExperimentSpec("fig4"))
    assert table.header == ("N", "zeta1", "zeta2")
    for _, z1, z2 in table.rows:
        assert z2 > z1


def test_fig5_plateau():
    table = run_experiment(ExperimentSpec("fig5"))
    assert table.header == ("N", "chi3_reduced", "chi3_over_N")
    reduced = [row[1] for row in table.rows]
    assert all(x < y for x, y in zip(reduced, reduced[1:]))
    assert abs(table.rows[-1][1] - PLATEAU) / PLATEAU < 0.02


def test_fig3_columns_decrease_with_coupling():
    table = run_experiment(ExperimentSpec("fig3"))
    assert table.header == ("N", "C_c15_b0.5", "C_c15_b0.1", "C_c5_b0.5", "C_c5_b0.1")
    last = table.rows[-1]
    assert last[2] > last[1]  # weaker b keeps more concurrence at fixed c
    assert last[1] > last[3] or last[2] > last[4]  # faster transfer helps


def test_custom_time_sweep_has_single_curve():
    table = run_experiment(ExperimentSpec("custom", sweep=SweepAxis("t", 0.0, 1.0, 0.5)))
    assert table.header == ("t", "S")
    assert table.rows[0] == (0.0, 0.0)


def test_custom_coupling_sweep_is_monotone():
    table = run_experiment(ExperimentSpec("custom", sweep=SweepAxis("b", 0.0, 1.0, 0.25)))
    assert table.header == ("b", "S")
    values = [row[1] for row in table.rows]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_custom_slot_sweep_peaks_at_half_filling():
    spec = ExperimentSpec("custom", params={"N": 40}, sweep=SweepAxis("M", 0, 40, 1))
    table = run_experiment(spec)
    assert table.header == ("M", "E_geom")
    values = [row[1] for row in table.rows]
    assert values[0] == 0.0 and values[-1] == 0.0
    assert max(range(41), key=lambda i: values[i]) == 20


def test_run_rejects_mismatched_sweep_variable():
    with pytest.raises(ValueError, match="sweeps"):
        run_experiment(ExperimentSpec("fig1a", sweep=SweepAxis("N", 10, 100, 10)))


def test_tables_are_deterministic():
    spec = parse_config("experiment = fig2b")
    once = render_csv(run_experiment(spec))
    again = render_csv(run_experiment(spec))
    assert once == again


def test_csv_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        CsvTable(("a", "b"), ((1.0,),))


def test_every_preset_resolves():
    for name in EXPERIMENTS:
        plan = resolve(ExperimentSpec(name))
        assert len(sweep_grid(plan.sweep)) >= 2


def test_sweep_grid_point_limit():
    limit = experiments.MAX_SWEEP_POINTS
    assert len(sweep_grid(SweepAxis("t", 0.0, limit - 1.0, 1.0))) == limit
    for axis in (SweepAxis("t", 0.0, float(limit), 1.0),
                 SweepAxis("t", -1e308, 1e308, 1.0)):  # the span overflows to inf
        with pytest.raises(ValueError, match=f"sweep must have at most {limit} points"):
            sweep_grid(axis)


# Independent mirror of every preset's pinned values; guards against the
# defaults drifting away from their documented settings.
PINNED_DEFAULTS = {
    "fig1a": ({"a": 0.0, "b": 0.0, "c": 30.0},
              ({"N": 200}, {"N": 100}, {"N": 50}), "t"),
    "fig1b": ({"a": 0.0, "b": 0.0, "c": 30.0},
              ({"t": 2.0}, {"t": 5.0}, {"t": 9.0}), "N"),
    "fig1c": ({"a": 0.0, "b": 0.0, "t": 2.0},
              ({"c": 10.0}, {"c": 20.0}, {"c": 40.0}), "N"),
    "fig1d": ({"a": 0.0, "c": 30.0, "t": 6.0},
              ({"b": 0.0}, {"b": 0.3}, {"b": 0.5}), "N"),
    "fig2a": ({"N": 150, "b": 0.0, "c": 10.0},
              ({"a": 0.0}, {"a": 0.3}, {"a": 0.7}, {"a": 1.5}), "t"),
    "fig2b": ({"N": 100, "a": 0.0, "c": 20.0},
              ({"b": 0.0}, {"b": 0.5}, {"b": 1.0}), "t"),
    "fig2c": ({"N": 200, "a": 0.5, "b": 0.3},
              ({"c": 40.0}, {"c": 20.0}, {"c": 5.0}), "t"),
    "fig3": ({"t_k": 2.0},
             ({"c": 15.0, "b": 0.5}, {"c": 15.0, "b": 0.1},
              {"c": 5.0, "b": 0.5}, {"c": 5.0, "b": 0.1}), "N"),
    "fig4": ({}, ({},), "N"),
    "fig5": ({"delta_e": 3.0, "omega": 1.0}, ({},), "N"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DEFAULTS))
def test_preset_defaults_match_pinned_table(name):
    base, curves, sweep_var = PINNED_DEFAULTS[name]
    definition = EXPERIMENTS[name]
    for key, value in base.items():
        assert definition.base[key] == value
    assert definition.curves == curves
    assert definition.sweep.variable == sweep_var


def point_profile(t, p):
    # The one-point formula that entropy sweeps evaluated before they were
    # computed in blocks; kept here as the reference.
    j = bessel_j_row(p.N // 2, p.c * t)[np.abs(np.asarray(make_window(p.N)))]
    return math.exp(-p.a * p.a) * (j * j * math.exp(-p.b * p.b * t))


def point_by_point_tables(spec):
    """The entropy tables of ``spec``, one ``point_profile`` per point."""
    plan = resolve(spec)
    var = plan.sweep.variable
    totals, averages = [], []
    for x in sweep_grid(plan.sweep):
        total, average = [float(x)], [float(x)]
        for curve in plan.curves:
            values = {**plan.base, **curve, var: x}
            t, p = values["t"], model_params(values)
            u = point_profile(float(t), p)
            entropy = float(_site_entropies(u).sum())
            total.append(entropy)
            average.append(entropy / u.size)
        if plan.extended_ref:
            per_site = extended_state_entropy(x)
            total.append(x * per_site)
            average.append(per_site)
        totals.append(tuple(total))
        averages.append(tuple(average))
    return {"": totals, "avg": averages}


# 23 grid points: not a multiple of the rows per block at N = 201 or 2000.
# The t sweeps start at c t = 0 (the series path); the a and b sweeps keep
# c t fixed, so all their points share one Bessel row.
EQUIVALENCE_SWEEPS = {
    "t": ({"a": 0.3, "b": 0.2, "c": 25.0}, SweepAxis("t", 0.0, 2.2, 0.1)),
    "a": ({"b": 0.2, "c": 25.0, "t": 1.5}, SweepAxis("a", 0.0, 1.1, 0.05)),
    "b": ({"a": 0.3, "c": 25.0, "t": 1.5}, SweepAxis("b", 0.0, 1.1, 0.05)),
    "c": ({"a": 0.3, "b": 0.2, "t": 1.3}, SweepAxis("c", 1.0, 45.0, 2.0)),
}


def equivalence_specs():
    for var, (params, axis) in EQUIVALENCE_SWEEPS.items():
        # N = 2000 sums rows long enough that a strided sum would round differently.
        for N in (2000, 201, 150):
            yield pytest.param(ExperimentSpec("custom", {**params, "N": N}, axis), id=f"{var}-N{N}")
    # Curves sharing c t at every grid value (fig2a), c t repeating across grid
    # values (fig2c), one block per N (fig1a), an N sweep with its reference (fig1d).
    yield pytest.param(ExperimentSpec("fig2a", sweep=SweepAxis("t", 0.0, 1.1, 0.05)), id="fig2a")
    yield pytest.param(ExperimentSpec("fig2c", sweep=SweepAxis("t", 0.0, 2.2, 0.1)), id="fig2c")
    yield pytest.param(ExperimentSpec("fig1a", sweep=SweepAxis("t", 0.0, 2.2, 0.1)), id="fig1a")
    yield pytest.param(ExperimentSpec("fig1d", sweep=SweepAxis("N", 2, 90, 4)), id="fig1d")


@pytest.mark.parametrize("spec", equivalence_specs())
def test_entropy_sweep_equals_point_by_point(spec, monkeypatch):
    expected = point_by_point_tables(spec)
    # One row per block, the default blocks, and the whole sweep as one block.
    for cap in (1, propagator._BLOCK_ELEMENTS, 10**9):
        monkeypatch.setattr(propagator, "_BLOCK_ELEMENTS", cap)
        tables = run_experiment_outputs(spec)
        assert {suffix: list(table.rows) for suffix, table in tables.items()} == expected, cap


def counting_descents(monkeypatch):
    """The arguments of each batched call's descents, one list per call, as they are descended."""
    calls, histories = [], specfun._histories

    def descend(xs):
        calls.append([])
        for x, f in zip(xs, histories(xs)):
            calls[-1].append(x)
            yield f

    monkeypatch.setattr(specfun, "_histories", descend)
    return calls


@pytest.mark.parametrize("name", sorted(n for n, d in EXPERIMENTS.items() if d.kind == "entropy"))
def test_each_bessel_row_is_computed_once(name, monkeypatch):
    # The sweep's one batched call takes one key per point, in (N, c t) order,
    # whatever its blocking, and descends each distinct c t once, in order of
    # first use, whatever the N of its keys: the rows of one c t are views of
    # its one history.
    plan = resolve(ExperimentSpec(name))
    var = plan.sweep.variable
    expected = [(N // 2, x) for N, x in sorted(
        (int(v["N"]), float(v["c"]) * float(v["t"]))
        for v in ({**plan.base, **curve, var: x} for x in sweep_grid(plan.sweep) for curve in plan.curves))]
    for cap in (propagator._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(propagator, "_BLOCK_ELEMENTS", cap)
        descents = counting_descents(monkeypatch)
        [keys] = study_keys([ExperimentSpec(name)], monkeypatch)
        assert keys == expected, cap
        assert descents == [list(dict.fromkeys(x for _, x in keys if x >= specfun._BATCH_CUTOFF))], cap
    first = {}
    for (n_max, x), row in zip(keys, bessel_j_rows(keys)):
        if x >= specfun._SERIES_CUTOFF and n_max <= specfun._start(x):
            assert np.shares_memory(row, first.setdefault(x, row)), x


def test_each_entropy_point_is_checked_once(monkeypatch):
    # One check per entropy point of the ten bundled studies, and no Bessel
    # key check: the batched descent takes the keys of the points as checked.
    calls, check_point = [], propagator._check_point

    def counted(t, p):
        calls.append((t, p))
        return check_point(t, p)

    monkeypatch.setattr(specfun, "_check_row", lambda *key: pytest.fail(f"key {key} checked again"))
    monkeypatch.setattr(experiments, "_check_point", counted)
    monkeypatch.setattr(propagator, "_check_point", counted)
    points = 0
    for name in sorted(EXPERIMENTS.keys() - {"custom"}):
        plan = resolve(ExperimentSpec(name))
        if plan.kind == "entropy":
            points += len(sweep_grid(plan.sweep)) * len(plan.curves)
        run_experiment_outputs(ExperimentSpec(name))
    assert len(calls) == points == 2883


@pytest.mark.parametrize("var", ["a", "b"])
def test_a_run_of_equal_ct_is_cut_into_capped_blocks(var, monkeypatch):
    # Every point of an a or b sweep shares c t, so the whole sweep is one run;
    # it must still be evaluated in blocks of at most the capped size, from
    # one descent.
    params, axis = EQUIVALENCE_SWEEPS[var]
    spec = ExperimentSpec("custom", {**params, "N": 201}, axis)
    monkeypatch.setattr(propagator, "_BLOCK_ELEMENTS", 5 * 201)
    sizes = []
    monkeypatch.setattr(experiments, "_occupation_blocks",
                        lambda points: (sizes.append(len(u)) or u
                                        for u in propagator._occupation_blocks(points)))
    descents = counting_descents(monkeypatch)
    [keys] = study_keys([spec], monkeypatch)
    assert sizes == [5, 5, 5, 5, 3]
    assert len({x for _, x in keys}) == 1
    assert descents == [[keys[0][1]]]
