import csv
import gc
import hashlib
import importlib
import json
import math
import os
import random
import runpy
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from jband_sim import cli
from jband_sim.config import parse_number
from jband_sim.core import model_params
from jband_sim.experiments import (_KINDS, EXPERIMENTS, CsvTable, ExperimentSpec, resolve, run_experiment,
                                  run_experiment_outputs, sweep_grid)
from jband_sim.measures import (
    _site_entropies, average_concurrence, extended_state_entropy, spano_coherence_size)
from jband_sim.multipartite import SusceptibilityParams, chi3_magnitude
from jband_sim.output import emit_svg, format_number, render_csv, render_svg, write_csv
from jband_sim.propagator import _check_point, _occupation_blocks


def small_table():
    return CsvTable(("x", "y"), ((0.0, 1.0), (1.0, 2.0), (2.0, 0.5)))


def test_format_number_significant_digits():
    assert format_number(math.pi) == "3.14159265359"
    assert format_number(200.0) == "200"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(9.5755901541e-3) == "0.0095755901541"


def test_render_csv_layout():
    text = render_csv(small_table())
    assert text == "x,y\n0,1\n1,2\n2,0.5\n"
    assert "\r" not in text


def test_write_csv_is_atomic_and_creates_directories(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.csv"
    write_csv(small_table(), target)
    assert target.read_bytes() == render_csv(small_table()).encode()
    assert not list(target.parent.glob("*.tmp"))


def test_svg_single_polyline_three_points():
    svg = render_svg(small_table())
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0]
    assert len(points.split()) == 3


def test_svg_fig1a_has_three_curves():
    svg = render_svg(run_experiment(ExperimentSpec("fig1a")))
    assert svg.count("<polyline") == 3


def test_svg_has_labeled_ticks():
    svg = render_svg(small_table())
    assert svg.count("<text") >= 12
    assert 'text-anchor="middle"' in svg


def test_svg_is_deterministic():
    assert render_svg(small_table()) == render_svg(small_table())


def test_svg_rejects_empty_tables():
    with pytest.raises(ValueError):
        render_svg(CsvTable(("x", "y"), ()))
    with pytest.raises(ValueError):
        render_svg(CsvTable(("x",), ((1.0,),)))


def test_emit_svg_writes_file(tmp_path):
    path = emit_svg(small_table(), tmp_path / "chart.svg")
    body = path.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIGESTS = ROOT / "tests" / "corpus_digests.json"
RUN_ALL_FIGURES = ROOT / "scripts" / "run_all_figures.py"


def write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def test_cli_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = fig1a\nsweep_stop = 2\n")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--svg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig1a.csv" in out
    for name in ("fig1a.csv", "fig1a_avg.csv", "fig1a.svg", "fig1a_avg.svg"):
        assert (tmp_path / "out" / name).exists()


def test_cli_run_twice_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "experiment = fig1a\nsweep_stop = 1\n")
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(first_dir)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(second_dir)]) == 0
    assert (first_dir / "fig1a.csv").read_bytes() == (second_dir / "fig1a.csv").read_bytes()


def test_cli_out_key_in_config(tmp_path):
    cfg = write_config(tmp_path, f"experiment = fig4\nout = {tmp_path / 'data'}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "data" / "fig4.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = fig1a\nbogus = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    # fig1b sets t per curve; a negative t is still rejected at parse time.
    cfg = write_config(tmp_path, "experiment = fig1b\nt = -1\n")
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert "config error: t must be" in capsys.readouterr().err
    # Non-finite sweep bounds, a grid past the point limit (here one whose
    # point count overflows to inf) and a fractional N sweep are config
    # errors, not tracebacks or rounded grids.
    for text, message in [
        ("experiment = fig4\nsweep_start = 4\nsweep_stop = 6\nsweep_step = 0.5\n",
         "a sweep over N needs an integer start and step"),
        ("experiment = fig4\nsweep_start = 4.5\nsweep_stop = 6\n",
         "a sweep over N needs an integer start and step"),
        ("experiment = custom\nsweep_stop = inf\n", "sweep start and stop must be finite"),
        ("experiment = fig1b\nsweep_start = -inf\n", "sweep start and stop must be finite"),
        ("experiment = custom\nsweep_start = nan\n", "sweep start and stop must be finite"),
        ("experiment = fig1b\nsweep_stop = nan\n", "sweep start and stop must be finite"),
        ("experiment = custom\nsweep_stop = 1e300\nsweep_step = 1e-10\n",
         "sweep must have at most 100000 points"),
    ]:
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    # A tiny step is rejected before its grid is built.  The child runs under a
    # 1 GB address-space limit, so a grid built anyway fails fast with a
    # MemoryError instead of filling the host's memory.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for step in ("1e-9", "1e-6"):
        cfg = write_config(tmp_path, f"experiment = custom\nsweep_step = {step}\n")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                  "from jband_sim import cli\n"
                  f"sys.exit(cli.main(['run', '--config', {str(cfg)!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == \
            (1, "config error: sweep must have at most 100000 points\n"), step


def test_cli_huge_integer_n_is_a_domain_error(tmp_path, capsys):
    # N is parsed as an int; one too large for a float must reach the window
    # bound as a domain error, not escape as an OverflowError.
    for experiment in ("fig1a", "fig2a", "custom"):
        cfg = write_config(tmp_path, f"experiment = {experiment}\nN = 1{'0' * 400}\n"
                                     f"out = {tmp_path / 'data'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "domain error: N must be <=" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


X_ENVELOPE = "domain error: c t must be <= 1000\n"
N_ENVELOPE = "domain error: N must be <= 4001, the largest window inside the Bessel order envelope\n"


@pytest.mark.parametrize("text, message", [
    # c t passes 1000 at t = 10.05, after 201 good points.
    ("experiment = custom\nc = 100\nsweep_stop = 20\n", X_ENVELOPE),
    # The window crosses the order envelope at N = 4050, after two good N.
    ("experiment = fig1b\nsweep_start = 3950\nsweep_stop = 4100\nsweep_step = 50\n", N_ENVELOPE),
    # The t = 9 curve leaves the x envelope at the first N, the t = 2 curve
    # leaves the order envelope at a later N: grid order decides, then curve order.
    ("experiment = fig1b\nc = 150\nsweep_start = 3950\nsweep_stop = 4100\nsweep_step = 50\n",
     X_ENVELOPE),
    # The t = 9 curve's c t is 1800 at the first N; N passes 4001 only at later points.
    ("experiment = fig1b\nc = 200\nsweep_stop = 9000\n", X_ENVELOPE),
    ("experiment = fig1b\nsweep_stop = 9000\n", N_ENVELOPE),
    # The second point's c t is 2e304; from t = 1.8e8 on, c t overflows to inf.
    ("experiment = custom\nc = 1e300\nsweep_stop = 1e9\nsweep_step = 2e4\n", X_ENVELOPE),
    ("experiment = custom\nsweep_stop = 1e308\nsweep_step = 5e307\n", X_ENVELOPE),
    # The grid's first point already fails: a domain error (exit 2), not a config error.
    ("experiment = fig1a\nsweep_start = 50\nsweep_stop = 60\n", X_ENVELOPE),
], ids=["x-mid-sweep", "N-mid-sweep", "first-point-wins", "x-before-N", "N-alone",
        "x-before-overflow", "x-overflows", "first-grid-point"])
def test_cli_sweep_error_names_the_first_failing_point(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text + f"out = {tmp_path / 'data'}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "data").exists()


def write_bundled_with_cli(out, tmp_path, monkeypatch):
    for name in EXPERIMENTS:
        if name == "custom":
            continue
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {name}\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--svg"]) == 0


def write_bundled_with_script(out, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_all_figures.py", "--out", str(out)])
    runpy.run_path(str(RUN_ALL_FIGURES), run_name="__main__")


def test_bundled_studies_match_reference_digests(tmp_path, capsys, monkeypatch):
    # The recorded SHA-256 of every bundled study's CSV and SVG, the corpus's
    # bundled case, defines "same behaviour".  Both entry points of the one
    # writer, output.write_study, must reproduce it: the CLI and
    # scripts/run_all_figures.py.
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))["bundled"]
    assert len(reference) == 34
    for writer in (write_bundled_with_cli, write_bundled_with_script):
        out = tmp_path / writer.__name__
        writer(out, tmp_path, monkeypatch)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == reference, writer.__name__


def test_script_without_svg_writes_the_bundled_csvs(tmp_path, capsys, monkeypatch):
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))["bundled"]
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_all_figures.py", "--out", str(out), "--no-svg"])
    runpy.run_path(str(RUN_ALL_FIGURES), run_name="__main__")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert len(digests) == 17
    assert digests == {name: d for name, d in reference.items() if name.endswith(".csv")}


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_failed_replace_leaves_no_temp_file(tmp_path, capsys):
    # The temporary file is written, but a directory holds the target's name.
    cfg = write_config(tmp_path, "experiment = fig4\n")
    (tmp_path / "out" / "fig4.csv").mkdir(parents=True)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.tmp"))


def test_io_error_keeps_the_files_written_before_it(tmp_path, capsys):
    # Each file is atomic, the run is not: the files a run finished before an
    # I/O error stay, and each was named by a "wrote" line.
    cfg = write_config(tmp_path, "experiment = fig1a\nsweep_stop = 1\n")
    out = tmp_path / "out"
    (out / "fig1a_avg.csv").mkdir(parents=True)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--svg"]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out / 'fig1a.csv'}\nwrote {out / 'fig1a.svg'}\n"
    assert captured.err.startswith("i/o error: ")
    assert (out / "fig1a.csv").is_file() and (out / "fig1a.svg").is_file()
    assert not list(out.glob("*.tmp"))


def test_config_with_a_byte_order_mark_runs(tmp_path):
    outputs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + b"experiment = fig4\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "fig4.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("data", ["experiment = fig4\n# caf\u00e9\n".encode("latin-1"),
                                  "experiment = fig4\n".encode("utf-16")], ids=["latin-1", "utf-16"])
def test_config_that_is_not_utf8_is_a_config_error(data, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: configuration file is not UTF-8: ")
    assert not (tmp_path / "out").exists()


def test_cli_list_names_every_preset(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c",
                 "fig3", "fig4", "fig5", "custom"):
        assert f"{name}:" in out


def test_cli_eval_spano(capsys):
    assert cli.main(["eval", "spano", "c=15", "b=0.5", "t_k=2", "N=500"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(16.552283739700747, abs=1e-9)


def test_cli_eval_prints_single_number(capsys):
    assert cli.main(["eval", "bessel", "n=1", "x=2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert float(out[0]) == pytest.approx(0.5767248077568734, abs=1e-10)


def test_cli_eval_domain_error(capsys):
    # The last two lie outside the Bessel envelope (|n| <= 2000, x <= 1000) and
    # must be rejected before a window of N sites or a row of c t orders exists.
    for args in (["spano", "c=15", "b=0", "t_k=2"],
                 ["entropy", "t=1", "N=1e9"],
                 ["entropy", "t=1e7", "c=30"]):
        assert cli.main(["eval", *args]) == 2
        assert "domain error" in capsys.readouterr().err


def test_cli_eval_unknown_measure(capsys):
    assert cli.main(["eval", "nope"]) == 1
    assert "unknown measure" in capsys.readouterr().err


def test_cli_eval_missing_argument(capsys):
    assert cli.main(["eval", "bessel", "n=1"]) == 1
    assert "needs" in capsys.readouterr().err


def test_cli_eval_bad_pair(capsys):
    for args, message in ((["bessel", "n=1", "x"], "key=value"),
                          (["entropy", "t=2", "N=2.5"], "integer"),
                          (["bessel", "n=2.7", "x=1"], "integer"),
                          (["geometric_entropy", "N=4", "M=2.5"], "integer"),
                          # As in a configuration file, a repeated key is rejected, not overwritten.
                          (["spano", "b=0.1", "b=0.5", "c=10"], "duplicate key 'b'"),
                          # A key the measure does not read is rejected, not ignored.
                          (["spano", "c=15", "b=0.5", "t_k=2", "t=5", "a=9"],
                           "unknown key 't' for measure 'spano'"),
                          (["transfer", "n=1", "t=1", "N=1"], "unknown key 'N' for measure 'transfer'")):
        assert cli.main(["eval", *args]) == 1
        assert message in capsys.readouterr().err


def test_cli_eval_keeps_an_integer_beyond_the_float_range(capsys):
    assert cli.main(["eval", "extended_ref", f"N=1{'0' * 400}"]) == 0
    assert capsys.readouterr().out == format_number(extended_state_entropy(10**400)) + "\n"


def test_cli_eval_scaled_concurrence_of_a_huge_chain(capsys):
    # The average concurrence underflows to 0 here; N/2 times it does not.
    assert cli.main(["eval", "concurrence_scaled", "zeta=2", "N=1e200"]) == 0
    assert capsys.readouterr().out == "1e-200\n"


def test_cli_eval_concurrence_of_a_huge_chain(capsys):
    # N (N - 1) overflows a float above 1e154; the exact value is 2e-250.
    assert cli.main(["eval", "concurrence", "zeta=1e150", "N=1e200"]) == 0
    assert capsys.readouterr().out == "2e-250\n"


@pytest.mark.parametrize("N", [10**21, 10**400], ids=["1e21", "1e400"])
def test_concurrence_is_exact_at_any_size(N, capsys):
    zeta = 2.5
    report = average_concurrence(zeta, N)
    assert report.avg_concurrence == float(2 * (Fraction(zeta) - 1) / (N * (N - 1)))
    assert report.scaled == float((Fraction(zeta) - 1) / (N - 1))
    for measure in ("concurrence", "concurrence_scaled"):
        assert cli.main(["eval", measure, "zeta=2", f"N={N}"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("N", [10**21, 10**400], ids=["1e21", "1e400"])
def test_cli_eval_spano_of_a_huge_chain(N, capsys):
    # The coherence size lies far below N, so the cap does not apply.
    assert cli.main(["eval", "spano", "b=0.5", f"N={N}"]) == 0
    uncapped = spano_coherence_size(model_params({"b": 0.5}))
    assert capsys.readouterr().out == format_number(uncapped) + "\n"


def test_cli_eval_spano_outside_the_normal_range(capsys):
    # b^2 t_k underflows to 0, and the size is capped at the default N = 200.
    assert cli.main(["eval", "spano", "b=1e-200"]) == 0
    assert capsys.readouterr().out == "200\n"
    # c^2 overflows, yet the size lies far below N.
    assert cli.main(["eval", "spano", "b=0.5", "c=1e200", f"N={10**400}"]) == 0
    assert capsys.readouterr().out == "7.38709608964e+133\n"
    assert cli.main(["eval", "spano", "b=1e-300", "t_k=1e-300", "c=1e300", f"N={10**400}"]) == 2
    assert capsys.readouterr().err == "domain error: coherence size lies beyond the float range\n"


def test_cli_run_fig3_at_the_smallest_temperature(tmp_path, capsys):
    config = tmp_path / "fig3.cfg"
    config.write_text("experiment = fig3\nt_k = 5e-324\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig3.csv").read_text().splitlines()[1] == "10,0.2,0.2,0.2,0.2"


def test_cli_list_prints_values_from_the_table(monkeypatch, capsys):
    # Each value list prints comes from the study table, so an edit shows at once.
    fig1a = EXPERIMENTS["fig1a"]
    monkeypatch.setitem(EXPERIMENTS, "fig1a", replace(fig1a, base={**fig1a.base, "c": 40.0}))
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    lines = out[:out.index("fig1b:")]
    assert "c=40" in lines and "30" not in lines


def test_config_integral_float_literal_is_an_integer(tmp_path):
    # One integer rule for configuration files and eval: N = 3e2 is N = 300.
    outputs = []
    for value in ("300", "3e2"):
        cfg = write_config(tmp_path, f"experiment = custom\nN = {value}\nsweep_stop = 1\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / value)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / value).iterdir()})
    assert outputs[0] == outputs[1]


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])  # --config is required
    assert err.value.code == 1


def test_cli_eval_without_measure_names_only_the_measure(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["eval"])
    assert err.value.code == 1
    # The usage line shows the optional pairs; the error line must not ask for them.
    error = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(error) == 1
    assert "measure" in error[0] and "key=value" not in error[0]


# The names the benchmark's tracer wraps on ``jband_sim.cli``, and where each is defined.
TRACED_CLI_NAMES = {
    "occupation_profile": "propagator", "entropy_report": "measures",
    "geometric_entropy": "multipartite", "run_experiment_outputs": "experiments",
    "parse_config": "config", "write_csv": "output", "emit_svg": "output", "main": "cli",
}


@pytest.mark.parametrize("name,module", sorted(TRACED_CLI_NAMES.items()))
def test_cli_binds_each_traced_name(name, module):
    assert getattr(cli, name) is getattr(importlib.import_module(f"jband_sim.{module}"), name)
    assert name in vars(cli)  # bound, so a wrapper set on the module replaces it


def test_cli_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        cli.validate_params  # noqa: B018  (a removed helper stays absent)
    for name in ("__path__", "__all__", "_EXPORTS"):  # the package's own attributes
        with pytest.raises(AttributeError):
            getattr(cli, name)
    assert getattr(cli, "no_such_helper", None) is None


def test_cli_run_calls_the_functions_set_on_the_module(tmp_path, monkeypatch):
    calls = []

    def parse_config(text):
        calls.append("parse_config")
        return real_parse(text)

    def write_study(tables, primary, svg):
        calls.append("write_study")
        return real_write(tables, primary, svg)

    real_parse, real_write = cli.parse_config, cli.write_study
    monkeypatch.setattr(cli, "parse_config", parse_config)
    monkeypatch.setattr(cli, "write_study", write_study)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = fig4\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--svg"]) == 0
    assert calls == ["parse_config", "write_study"]
    assert (tmp_path / "out" / "fig4.svg").is_file()


def test_cli_calls_leave_no_reference_cycles(tmp_path, capsys):
    # Objects in reference cycles wait for the collector, so the memory a
    # series of calls holds would move with the collector's timing.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = fig4\n", encoding="utf-8")
    calls = [["list"], ["eval", "spano", "c=15", "b=0.5", "t_k=2"],
             ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]]
    for argv in calls:  # the first calls import what they use
        assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            assert cli.main(argv) == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_fig5_and_eval_chi3_use_the_default_monomer(capsys):
    monomer = SusceptibilityParams()
    for N, _, over_N in run_experiment(ExperimentSpec("fig5")).rows:
        assert over_N == chi3_magnitude(int(N), monomer) / N
    assert cli.main(["eval", "chi3", "N=40"]) == 0
    assert capsys.readouterr().out == format_number(chi3_magnitude(40, monomer)) + "\n"


# Every eval measure, with the Bessel recurrence and series paths.
EVALS = [
    ("spano", "c=15", "b=0.5", "t_k=2"), ("chi3", "N=40"), ("zeta1", "N=30"), ("zeta2", "N=30"),
    ("geometric_entropy", "N=20", "M=3"), ("lambda_max", "N=20", "M=3"),
    ("bessel", "n=500", "x=477.5"), ("bessel", "n=-3", "x=1e-9"),
    ("transfer", "n=4", "t=2", "c=3"), ("concurrence", "zeta=3", "N=20"),
    ("concurrence_scaled", "zeta=3", "N=20"),
    ("extended_ref", "N=50"), ("resonance",), ("site_entropy", "u=0.2"),
    ("exciton_energy", "k=0.5", "delta_e=2", "d_shift=0", "v=-0.2"),
    ("dipole", "mu_i=1", "mu_j=1", "d=2"), ("coupling_nn", "v=0.3", "k=1"),
    ("entropy", "t=2", "N=100"), ("entropy_avg", "t=1e-9", "N=3"),
    ("survival", "t=2", "N=4001", "a=0.3", "b=0.2"), ("ipr", "t=0", "N=2"),
]


# Every value each key of the contract tests takes, by its label.
CONTRACT_VALUES = {v: v for v in ("0", "-1", "1e-320", "1e-200", "1e-8", "0.5", "2", "7", "1e8",
                                  "1e21", "1e200", "1e308", "nan", "inf")}
CONTRACT_VALUES["10^400"] = str(10**400)
# The geometric measures still fail with a traceback at these (measure, key, value).
_HUGE_N_TRACEBACKS = {(m, "N", v) for m in ("lambda_max", "geometric_entropy", "zeta1", "zeta2", "chi3")
                      for v in ("1e308", "10^400")} | {("zeta1", "N", "1e21"), ("zeta2", "N", "1e21")}


def _eval_contract_cases():
    for measure, (required, optional, _) in cli.EVAL_MEASURES.items():
        for key in f"{required} {optional}".split():
            for label in CONTRACT_VALUES:
                marks = ()
                if (measure, key, label) in _HUGE_N_TRACEBACKS:
                    marks = pytest.mark.xfail(strict=True, raises=(OverflowError, ZeroDivisionError))
                yield pytest.param(measure, key, label, id=f"{measure}-{key}={label}", marks=marks)


def _assert_exit_contract(code, out, err):
    # 0 with what was asked for, or 1 / 2 with one message and nothing on stdout.
    if code == cli.EXIT_OK:
        assert err == ""
    else:
        prefix = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_DOMAIN: "domain error: "}[code]
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1, (code, err)


@pytest.mark.parametrize("measure,key,label", _eval_contract_cases())
def test_every_eval_key_keeps_the_exit_contract(measure, key, label, capsys):
    # Each key of each measure, set alone on a valid call, prints one finite
    # number or fails with a config or domain error; it never raises.
    pairs = dict(pair.split("=") for pair in next(a for a in EVALS if a[0] == measure)[1:])
    pairs[key] = CONTRACT_VALUES[label]
    code = cli.main(["eval", measure, *(f"{k}={v}" for k, v in pairs.items())])
    out, err = capsys.readouterr()
    _assert_exit_contract(code, out, err)
    if code == cli.EXIT_OK:
        assert out.endswith("\n") and math.isfinite(float(out)), out


def _run_contract_cases():
    for name in ("fig1a", "fig1b", "fig3", "fig4", "fig5", "custom"):
        plan = resolve(ExperimentSpec(name))
        for key in (*(k for k in _KINDS[plan.kind][1] if k != plan.sweep.variable),
                    "sweep_start", "sweep_stop", "sweep_step"):
            yield name, key


def _assert_run_contract(text, out_dir, capsys):
    # A run writes only finite cells or fails with a config or domain error.
    cfg = out_dir.with_suffix(".cfg")
    cfg.write_text(text, encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
    out, err = capsys.readouterr()
    _assert_exit_contract(code, out, err)
    for path in out_dir.glob("*.csv"):
        with path.open(encoding="utf-8", newline="") as f:
            cells = [cell for row in list(csv.reader(f))[1:] for cell in row]
        assert all(math.isfinite(float(cell)) for cell in cells), (path.name, text[:60])


@pytest.mark.parametrize("name,key", _run_contract_cases())
def test_every_run_override_keeps_the_exit_contract(name, key, tmp_path, capsys):
    # The same values as overrides of each study kind; a run never raises.
    for i, value in enumerate(CONTRACT_VALUES.values()):
        _assert_run_contract(f"experiment = {name}\n{key} = {value}\n", tmp_path / str(i), capsys)


@pytest.mark.parametrize("name,start,stop,step", [
    pytest.param("fig4", "1e21", "2e21", "1e21", id="fig4-N=1e21",
                 marks=pytest.mark.xfail(strict=True, raises=ZeroDivisionError)),
    pytest.param("fig5", "1e308", "1.5e308", "5e307", id="fig5-N=1e308",
                 marks=pytest.mark.xfail(strict=True, raises=OverflowError)),
])
def test_huge_n_sweeps_keep_the_exit_contract(name, start, stop, step, tmp_path, capsys):
    # Sweeps whose every N is huge, which no single override reaches.  The
    # geometric measures still fail there with a traceback, as at the
    # _HUGE_N_TRACEBACKS eval cases.
    _assert_run_contract(f"experiment = {name}\nsweep_start = {start}\nsweep_stop = {stop}\n"
                         f"sweep_step = {step}\n", tmp_path / "out", capsys)


def test_no_eval_imports_numpy():
    # numpy's import is most of a cold eval, and no measure needs an array.
    # A fresh interpreter starts without it.
    assert {argv[0] for argv in EVALS} == set(cli.EVAL_MEASURES)
    script = f"""
import sys
import jband_sim
assert not hasattr(jband_sim, "no_such_name")
assert "numpy" not in sys.modules, "import jband_sim"
# A submodule is a package attribute after a bare import, as with eager imports.
assert "fig1a" in jband_sim.experiments.EXPERIMENTS
assert "numpy" not in sys.modules, "jband_sim.experiments"
from jband_sim import cli
for argv in {EVALS!r}:
    assert cli.main(["eval", *argv]) == 0, argv
    assert "numpy" not in sys.modules, argv
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_list_and_non_entropy_runs_do_not_import_numpy(tmp_path):
    # Only an entropy sweep builds arrays; list and the other studies, SVG
    # included, run on floats in a fresh interpreter.
    script = f"""
import sys
from pathlib import Path
from jband_sim import cli
assert cli.main(["list"]) == 0
assert "numpy" not in sys.modules, "list"
for name in ("fig3", "fig4", "fig5"):
    cfg = Path({str(tmp_path)!r}) / (name + ".cfg")
    cfg.write_text("experiment = " + name + "\\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--out", str(cfg.parent), "--svg"]) == 0
    assert "numpy" not in sys.modules, name
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("fig*.svg"))) == 3


def _block_ipr(u):
    s = u.sum()
    if s <= 0.0:
        raise ValueError("profile carries no occupation")
    w = u / s
    return 1.0 / w.dot(w)


# Each profile measure reduced, with numpy, from the sweep's block path: a
# reference that shares only the Bessel descent with what eval calls.
PROFILE_MEASURES = {
    "survival": lambda u: u.sum(),
    "entropy": lambda u: _site_entropies(u).sum(),
    "entropy_avg": lambda u: _site_entropies(u).sum() / u.size,
    "ipr": _block_ipr,
}


def _profile_measure_cases():
    mix = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["cli_eval_mix"]
    cases = set()
    for seed in range(1, 21):
        for measure, pairs in mix(seed):
            if measure in PROFILE_MEASURES:
                cases.add((measure, pairs))
                if measure == "entropy":
                    cases.add(("entropy_avg", pairs))
    # Window edges, the series path (c t < 1e-8), no occupation left (a = 30,
    # where ipr fails), subnormal weights and c t outside the Bessel envelope.
    edges = [("t=2", "N=2"), ("t=2", "N=3"), ("t=2", "N=4001", "c=40"), ("t=0", "N=50"),
             ("t=1e-10", "N=9", "c=20"), ("t=2", "N=40", "a=30"), ("t=0.3", "N=60", "a=27.2"),
             ("t=40", "N=4001"), ("t=0.5", "N=101", "a=0.2", "b=3")]
    cases |= {(measure, pairs) for measure in PROFILE_MEASURES for pairs in edges}
    return sorted(cases)


@pytest.mark.parametrize("measure,pairs", _profile_measure_cases())
def test_profile_evals_match_the_array_path(measure, pairs, capsys):
    # eval builds its one profile from floats; it prints what the sweep's
    # block path computes, or fails with the same message and exit code.
    kw = {key: parse_number(key, raw) for key, raw in (pair.split("=") for pair in pairs)}
    code = cli.main(["eval", measure, *pairs])
    out, err = capsys.readouterr()
    try:
        u = next(_occupation_blocks([_check_point(kw["t"], model_params(kw))]))[0]
        expected = float(PROFILE_MEASURES[measure](u))
    except ValueError as exc:
        assert (code, out, err) == (cli.EXIT_DOMAIN, "", f"domain error: {exc}\n")
        return
    assert (code, out, err) == (0, format_number(expected) + "\n", "")
    value = cli.EVAL_MEASURES[measure][2](kw)
    assert math.isclose(value, expected, rel_tol=1e-14, abs_tol=0.0), (value, expected)


def bundled_entropy_cells():
    """``(study, measure, eval pairs) -> printed cell`` over the bundled entropy studies."""
    cells = {}
    for name in sorted(EXPERIMENTS.keys() - {"custom"}):
        plan = resolve(ExperimentSpec(name))
        if plan.kind != "entropy":
            continue
        tables = run_experiment_outputs(ExperimentSpec(name))
        for i, x in enumerate(sweep_grid(plan.sweep)):
            for j, curve in enumerate(plan.curves):
                v = {**plan.base, **curve, plan.sweep.variable: x}
                pairs = f"t={v['t']!r} N={v['N']} c={v['c']!r} a={v['a']!r} b={v['b']!r}"
                for measure, suffix in (("entropy", ""), ("entropy_avg", "avg")):
                    cells[name, measure, pairs] = format_number(tables[suffix].rows[i][1 + j])
    return cells


# Over all 5 766 cells of the seven bundled entropy studies (2 883 points,
# each with S and S_avg), eval reprints every one but this: fig2a's S_a1.5
# at t = 9.600000000000001, whose true value 0.51749727956249993 lies 7e-17
# below a rounding tie.  The sweep normalises its Bessel rows with np.dot and
# prints ...563; eval normalises with math.fsum and prints ...562.
TIE_BOUND = {("fig2a", "entropy", "t=9.600000000000001 N=150 c=10.0 a=1.5 b=0.0"):
             ("0.517497279563", "0.517497279562")}


def test_eval_reprints_bundled_entropy_cells(capsys):
    # A seeded sample of the cells, and the tie-bound ones.
    cells = bundled_entropy_cells()
    assert len(cells) == 5766
    sample = random.Random(1).sample(sorted(cells.keys() - TIE_BOUND.keys()), 50)
    for key in sample + list(TIE_BOUND):
        _, measure, pairs = key
        assert cli.main(["eval", measure, *pairs.split()]) == 0
        printed = capsys.readouterr().out.rstrip("\n")
        assert (cells[key], printed) == TIE_BOUND.get(key, (cells[key], cells[key])), key


# The measures of the benchmark's cold-eval mix, and the module that defines each.
COLD_EVALS = [
    (("bessel", "n=-7", "x=31.5"), "specfun"), (("spano", "c=15", "b=0.5", "t_k=2"), "measures"),
    (("chi3", "N=40", "mu=1", "gamma=0.5", "delta_e=3", "omega=1"), "multipartite"),
    (("geometric_entropy", "N=20", "M=3"), "multipartite"), (("zeta1", "N=30"), "multipartite"),
    (("entropy", "t=2", "N=100", "c=12"), "propagator"),
    (("entropy_avg", "t=2", "N=100", "a=0.3"), "propagator"),
    (("survival", "t=1.5", "N=200", "b=0.4"), "propagator"),
    (("ipr", "t=0.5", "N=50"), "propagator"),
]


@pytest.mark.parametrize("argv,module", COLD_EVALS, ids=[argv[0] for argv, _ in COLD_EVALS])
def test_cold_eval_imports_only_its_measure_module(argv, module):
    # The console entry point itself, as a cold `jband-sim eval` runs it: it
    # loads the module that defines the measure, but not the study table or numpy.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "jband_sim.cli", "eval", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert f"jband_sim.{module}" in imported
    assert "numpy" not in imported and "jband_sim.experiments" not in imported


def test_package_attributes_load_through_the_timed_import():
    # ``python -X importtime`` times the builtin __import__ only, so a submodule
    # that ``import jband_sim`` loads on first access must appear in its list.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import jband_sim; jband_sim.bessel_j(1, 1.0)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "jband_sim.specfun" in imported
