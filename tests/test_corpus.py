"""Behaviour corpus: SHA-256 digests of outputs beyond the ten bundled studies.

The bundled studies are pinned by ``bench/reference_digests.json``.  This
module pins the shapes around them: ``eval`` of every measure (the benchmark's
``cli_eval`` rounds of seeds 1-3 among them), ``jband-sim list``, error
messages with their exit codes, overridden presets, ``custom`` sweeps over
every model parameter and over ``M``, and the long-row ``wide_window`` tables
of seeds 1 and 7.  Everything runs in process.  Each case maps entry names to
digests of the bytes a user sees: a CSV or SVG file, or the exit code,
standard output and standard error of one CLI call.

After an intended output change, remake the digest file with

    PYTHONPATH=src python tests/test_corpus.py --write

which prints each ``case/key`` whose digest changed, was added or was
removed, and say which digests changed, and why, in CHANGES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from jband_sim import cli
from jband_sim.experiments import ExperimentSpec, SweepAxis, run_experiment_outputs
from jband_sim.output import emit_svg, write_csv

DIGESTS = Path(__file__).with_name("corpus_digests.json")

# The benchmark's cli_eval rounds (bench/workloads.cli_eval_mix) for seeds 1-3.
CLI_EVAL_ROUNDS = {
    1: """entropy t=1.3498 N=100 c=22.3402 a=0.2247 b=0.3258
          entropy t=3.9647 N=300 c=8.2851 a=0.0142 b=0.4179
          survival t=1.7823 N=200 c=15.8192 a=0.0011 b=0.2227
          survival t=0.8096 N=300 c=23.0385 a=0.4726 b=0.4507
          ipr t=0.1887 N=50 c=5.8906 a=0.2707 b=0.4696
          ipr t=1.9679 N=300 c=12.581 a=0.2111 b=0.0145
          bessel n=-7 x=11.0846
          bessel n=500 x=477.5155
          spano c=22.3534 b=0.3098 t_k=1.0772
          spano c=12.6573 b=0.5136 t_k=1.2245 N=300
          chi3 N=288 mu=1.8833 gamma=0.19 delta_e=1.0645 omega=0.3732
          chi3 N=155 mu=0.6813 gamma=0.3994 delta_e=3.1709 omega=1.1506
          geometric_entropy N=70 M=9
          geometric_entropy N=70 M=61
          zeta1 N=368
          zeta1 N=260""",
    2: """entropy t=0.5159 N=100 c=34.2425 a=0.368 b=0.3349
          entropy t=1.6099 N=300 c=26.208 a=0.3034 b=0.2906
          survival t=1.8443 N=200 c=8.9596 a=0.1968 b=0.3615
          survival t=2.1078 N=300 c=29.8705 a=0.2721 b=0.2224
          ipr t=0.8779 N=50 c=6.2574 a=0.0137 b=0.2324
          ipr t=1.6605 N=300 c=18.3005 a=0.4459 b=0.2629
          bessel n=-7 x=28.0255
          bessel n=500 x=469.4449
          spano c=5.835 b=0.3926 t_k=0.8417
          spano c=22.8578 b=0.9988 t_k=2.1862 N=300
          chi3 N=232 mu=1.6951 gamma=0.761 delta_e=1.5455 omega=0.599
          chi3 N=307 mu=1.0307 gamma=0.9829 delta_e=3.2887 omega=1.2988
          geometric_entropy N=30 M=3
          geometric_entropy N=30 M=27
          zeta1 N=86
          zeta1 N=390""",
    3: """entropy t=2.7667 N=100 c=17.9484 a=0.302 b=0.3129
          entropy t=0.4211 N=300 c=5.4609 a=0.4187 b=0.1297
          survival t=3.3019 N=200 c=10.8583 a=0.2351 b=0.4182
          survival t=2.5667 N=300 c=16.9088 a=0.0753 b=0.3174
          ipr t=2.6173 N=50 c=23.3113 a=0.3706 b=0.3357
          ipr t=0.4138 N=300 c=31.5381 a=0.2955 b=0.1506
          bessel n=-7 x=1.5506
          bessel n=500 x=494.6211
          spano c=21.5462 b=0.7469 t_k=2.697
          spano c=29.9945 b=0.929 t_k=1.4874 N=300
          chi3 N=231 mu=1.9461 gamma=0.2207 delta_e=3.4027 omega=1.0732
          chi3 N=257 mu=0.8255 gamma=0.9689 delta_e=1.1077 omega=0.3598
          geometric_entropy N=123 M=76
          geometric_entropy N=123 M=47
          zeta1 N=324
          zeta1 N=158""",
}

# Every other eval measure, the Bessel branches the rounds miss, and a
# coherence size whose b^2 t_k underflows.
OTHER_EVALS = """bessel n=0 x=0
                 bessel n=3 x=1e-9
                 bessel n=-5 x=2.5
                 bessel n=2000 x=3
                 bessel n=40 x=999.5
                 transfer n=-12 t=1.7 c=9.5 a=0.3 b=0.2
                 transfer n=150 t=4 c=40
                 entropy_avg t=2.2 N=81 c=12 a=0.1 b=0.4
                 extended_ref
                 extended_ref N=37
                 site_entropy u=0.3
                 concurrence zeta=12.5 N=40
                 concurrence_scaled zeta=12.5 N=40
                 resonance
                 resonance c=7.5
                 lambda_max N=25 M=7
                 zeta2 N=101
                 exciton_energy k=0.7 delta_e=2 d_shift=-0.1 v=-0.3
                 dipole mu_i=1.2 mu_j=0.8 d=1.5
                 coupling_nn v=0.4 k=2.1
                 spano b=1e-200"""

# name -> (config file text, or None for an eval call; CLI arguments after it)
ERRORS = {
    "fig1b_negative_t": ("experiment = fig1b\nt = -1\n", ()),
    "custom_huge_N": (f"experiment = custom\nN = 1{'0' * 400}\n", ()),
    "custom_ct_beyond_envelope": ("experiment = custom\nc = 200\nsweep_stop = 10\n", ()),
    "custom_N_below_2": ("experiment = custom\nN = 1\n", ()),
    "custom_non_integer_N": ("experiment = custom\nN = 2.5\n", ()),
    "unknown_key": ("experiment = fig1a\nfoo = 1\n", ()),
    "duplicate_key": ("experiment = fig1a\nc = 1\nc = 2\n", ()),
    "missing_value": ("experiment = fig1a\nc =\n", ()),
    "malformed_line": ("experiment = fig1a\njunk\n", ()),
    "missing_experiment": ("c = 3\n", ()),
    "unknown_experiment": ("experiment = fig9\n", ()),
    "fixed_sweep_variable": ("experiment = fig1a\nt = 2\n", ()),
    "zero_sweep_step": ("experiment = fig4\nsweep_step = 0\n", ()),
    # Keys the study or measure does not read.
    "fig4_unread_c_t": ("experiment = fig4\nc = 3\nt = 7\n", ()),
    "fig5_unread_b": ("experiment = fig5\nb = 0.5\n", ()),
    "fig1a_unread_t_k": ("experiment = fig1a\nt_k = 5\n", ()),
    "fig3_unread_a": ("experiment = fig3\na = 0.5\n", ()),
    "custom_unread_t_k": ("experiment = custom\nt_k = 2\n", ()),
    "eval_unread_key": (None, ("eval", "spano", "c=15", "b=0.5", "t_k=2", "t=5", "a=9")),
    "eval_transfer_unread_N": (None, ("eval", "transfer", "n=1", "t=1", "N=1")),
    "eval_unknown_measure": (None, ("eval", "nope")),
    "eval_missing_key": (None, ("eval", "bessel", "n=3")),
    "eval_not_a_pair": (None, ("eval", "bessel", "n3")),
    "eval_invalid_number": (None, ("eval", "bessel", "n=3", "x=abc")),
    "eval_non_integer_order": (None, ("eval", "bessel", "n=2.5", "x=1")),
    "eval_order_beyond_envelope": (None, ("eval", "bessel", "n=3000", "x=1")),
    "eval_negative_argument": (None, ("eval", "bessel", "n=3", "x=-1")),
    "eval_spano_zero_b": (None, ("eval", "spano", "b=0")),
    "eval_entropy_ct_beyond_envelope": (None, ("eval", "entropy", "t=50", "c=30")),
    "eval_dipole_beyond_float_range": (None, ("eval", "dipole", "mu_i=1", "mu_j=1", "d=1e-200")),
    "eval_exciton_energy_nan": (None, ("eval", "exciton_energy", "k=0.7", "delta_e=nan",
                                       "d_shift=-0.1", "v=-0.3")),
    "eval_exciton_energy_negative_delta_e": (None, ("eval", "exciton_energy", "k=0", "delta_e=-5",
                                                    "d_shift=0", "v=0")),
    "eval_chi3_huge_mu": (None, ("eval", "chi3", "N=40", "mu=1e200")),
    "eval_chi3_subnormal_gamma": (None, ("eval", "chi3", "N=40", "gamma=1e-320")),
}

# preset -> overriding configuration lines
PRESETS = {
    "fig1a": "c = 40\nsweep_stop = 5\n",
    "fig1b": "c = 20\nsweep_stop = 150\n",
    "fig1d": "t = 4\nsweep_stop = 200\n",
    "fig2a": "N = 120\nsweep_stop = 6\n",
    "fig2b": "b = 0.2\nsweep_stop = 4\n",
    "fig3": "t_k = 1.5\nsweep_stop = 100\n",
    "fig4": "sweep_start = 10\nsweep_stop = 200\nsweep_step = 6\n",
    "fig5": "sweep_stop = 120\n",
}

# name -> (fixed parameters, sweep) of a custom study
CUSTOM = {
    "t": ({"N": 120, "c": 25.0, "a": 0.3, "b": 0.2}, ("t", 0.0, 8.0, 0.1)),
    "a": ({"N": 100, "c": 20.0, "t": 3.0, "b": 0.1}, ("a", 0.0, 2.0, 0.05)),
    "b": ({"N": 100, "c": 20.0, "t": 3.0, "a": 0.2}, ("b", 0.0, 1.5, 0.05)),
    "c": ({"N": 150, "t": 2.5, "a": 0.1, "b": 0.3}, ("c", 1.0, 50.0, 0.7)),
    "N": ({"c": 15.0, "t": 3.0, "a": 0.2, "b": 0.25}, ("N", 10, 200, 7)),
    "M_odd_N": ({"N": 41}, ("M", 0, 41, 1)),
    "M_even_N": ({"N": 60}, ("M", 0, 60, 3)),
    # The benchmark's wide_window calls (bench/workloads.wide_window_calls).
    "wide_t_seed1": ({"N": 2000, "c": 60.0, "a": 0.1239, "b": 0.2619}, ("t", 0.0, 15.0, 0.075)),
    "wide_c_seed1": ({"N": 1000, "t": 10.0, "a": 0.4701, "b": 0.1138}, ("c", 1.0, 90.0, 0.47)),
    "wide_t_seed7": ({"N": 2000, "c": 60.0, "a": 0.2281, "b": 0.0877}, ("t", 0.0, 15.0, 0.075)),
    "wide_c_seed7": ({"N": 1000, "t": 10.0, "a": 0.408, "b": 0.0681}, ("c", 1.0, 90.0, 0.47)),
}


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _cli(argv, out: Path) -> str:
    """Exit code, standard output and standard error of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(argv))
    text = f"exit {rc}\n[stdout]\n{stdout.getvalue()}[stderr]\n{stderr.getvalue()}"
    return text.replace(str(out), "<out>")


def _files(directory: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(directory.iterdir())}


def _evals(lines: str, out: Path) -> dict[str, str]:
    return {f"{k:02d} {line.strip()}": _sha(_cli(["eval", *line.split()], out))
            for k, line in enumerate(lines.splitlines())}


def _error(name: str, out: Path) -> str:
    config, argv = ERRORS[name]
    if config is not None:
        path = out / f"{name}.cfg"
        path.write_text(config, encoding="utf-8")
        argv = ("run", "--config", str(path), "--out", str(out / "never"))
    return _sha(_cli(argv, out))


def _preset(name: str, out: Path) -> dict[str, str]:
    path = out / f"{name}.cfg"
    path.write_text(f"experiment = {name}\n{PRESETS[name]}", encoding="utf-8")
    log = _cli(["run", "--config", str(path), "--out", str(out / "out"), "--svg"], out)
    return {"cli": _sha(log), **_files(out / "out")}


def _custom(name: str, out: Path) -> dict[str, str]:
    params, sweep = CUSTOM[name]
    tables = run_experiment_outputs(ExperimentSpec("custom", params, SweepAxis(*sweep)))
    for suffix, table in tables.items():
        stem = f"{name}_{suffix}" if suffix else name
        write_csv(table, out / f"{stem}.csv")
        emit_svg(table, out / f"{stem}.svg")
    return _files(out)


CASES = {
    "list": lambda out: {"list": _sha(_cli(["list"], out))},
    **{f"eval_seed{seed}": lambda out, s=seed: _evals(CLI_EVAL_ROUNDS[s], out)
       for seed in CLI_EVAL_ROUNDS},
    "eval_other": lambda out: _evals(OTHER_EVALS, out),
    "errors": lambda out: {name: _error(name, out) for name in ERRORS},
    **{f"preset_{name}": lambda out, n=name: _preset(n, out) for name in PRESETS},
    **{f"custom_{name}": lambda out, n=name: _custom(n, out) for name in CUSTOM},
}


def _stored() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case():
    assert sorted(_stored()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_corpus(case, tmp_path):
    assert CASES[case](tmp_path) == _stored()[case]


def changes(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> list[str]:
    """One line per ``case/key`` whose digest was changed, added or removed."""
    before = {f"{case}/{key}": d for case, entries in old.items() for key, d in entries.items()}
    after = {f"{case}/{key}": d for case, entries in new.items() for key, d in entries.items()}
    return [f"{'added' if key not in before else 'removed' if key not in after else 'changed'} {key}"
            for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]


def test_changes_names_each_entry():
    old = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    new = {"a": {"x": "1", "y": "9"}, "c": {"w": "4"}}
    assert changes(old, new) == ["changed a/y", "removed b/z", "added c/w"]
    assert changes(old, old) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Remake the behaviour corpus digests.")
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"overwrite {DIGESTS.name} with the current outputs "
                             "and print each changed, added and removed case/key")
    parser.parse_args(argv)
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = CASES[case](Path(tmp))
    for line in changes(_stored(), digests):
        print(line)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
