import hashlib
import json
import math
from pathlib import Path

import pytest

from jband_sim import cli
from jband_sim.experiments import EXPERIMENTS, CsvTable, ExperimentSpec, run_experiment
from jband_sim.output import emit_svg, format_number, render_csv, render_svg, write_csv


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


REFERENCE_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "reference_digests.json"


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


def test_cli_huge_integer_n_is_a_domain_error(tmp_path, capsys):
    # N is parsed as an int; one too large for a float must reach the window
    # bound as a domain error, not escape as an OverflowError.
    for experiment in ("fig1a", "fig2a", "custom"):
        cfg = write_config(tmp_path, f"experiment = {experiment}\nN = 1{'0' * 400}\n"
                                     f"out = {tmp_path / 'data'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "domain error: N must be <=" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_bundled_studies_match_reference_digests(tmp_path, capsys):
    # The recorded SHA-256 of every bundled study's CSV and SVG defines "same
    # behaviour"; the file is only read here.
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))["files"]
    out = tmp_path / "out"
    for name in EXPERIMENTS:
        if name == "custom":
            continue
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {name}\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert len(reference) == 34
    assert digests == reference


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 3
    assert "i/o error" in capsys.readouterr().err


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
                          (["geometric_entropy", "N=4", "M=2.5"], "integer")):
        assert cli.main(["eval", *args]) == 1
        assert message in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])  # --config is required
    assert err.value.code == 1
