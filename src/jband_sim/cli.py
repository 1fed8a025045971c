"""Command-line entry point.

Subcommands:
    run   -- execute a configured study and write CSV (optionally SVG) files
    list  -- show the bundled studies and their pinned defaults
    eval  -- evaluate one scalar measure from key=value arguments

Exit codes: 0 success, 1 configuration error, 2 domain error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .experiments import DEFAULT_BASE, EXPERIMENTS, model_params, run_experiment_outputs, sweep_grid
from .measures import (
    average_concurrence,
    extended_state_entropy,
    entropy_report,
    ipr,
    resonance_coherence_size,
    site_entropy,
    spano_coherence_size,
)
from .multipartite import (
    SusceptibilityParams,
    SymmetricState,
    chi3_magnitude,
    coupling_sum_nn,
    geometric_entropy,
    lambda_max,
    zeta_ratios,
)
from .output import emit_svg, format_number, write_csv
from .propagator import (
    DipolePair,
    DispersionParams,
    dipole_coupling,
    exciton_energy,
    occupation_profile,
    transfer_probability,
)
from .specfun import bessel_j

EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO = 0, 1, 2, 3

#: ``eval`` keys that count sites, orders or excitations.
_INT_KEYS = ("n", "N", "M")


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors under this tool's exit codes.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _profile(kw: dict):
    return occupation_profile(kw["t"], model_params(kw))


def _susceptibility_from(kw: dict) -> SusceptibilityParams:
    return SusceptibilityParams(mu=kw.get("mu", 1.0), gamma=kw.get("gamma", 0.5),
                                delta_e=kw.get("delta_e", 3.0),
                                omega=kw.get("omega", 1.0))


# measure name -> (required keys, evaluator over the parsed key/value dict)
EVAL_MEASURES = {
    "bessel": (("n", "x"), lambda kw: bessel_j(kw["n"], kw["x"])),
    "transfer": (("n", "t"), lambda kw: transfer_probability(kw["n"], kw["t"], model_params(kw))),
    "survival": (("t",), lambda kw: _profile(kw).u.sum()),
    "entropy": (("t",), lambda kw: entropy_report(_profile(kw)).total),
    "entropy_avg": (("t",), lambda kw: entropy_report(_profile(kw)).average),
    "extended_ref": ((), lambda kw: extended_state_entropy(kw.get("N", DEFAULT_BASE["N"]))),
    "ipr": (("t",), lambda kw: ipr(_profile(kw))),
    "site_entropy": (("u",), lambda kw: site_entropy(kw["u"])),
    "concurrence": (("zeta", "N"), lambda kw: average_concurrence(kw["zeta"], kw["N"]).avg_concurrence),
    "concurrence_scaled": (("zeta", "N"), lambda kw: average_concurrence(kw["zeta"], kw["N"]).scaled),
    "spano": (("b",), lambda kw: spano_coherence_size(model_params(kw))),
    "resonance": ((), lambda kw: resonance_coherence_size(kw.get("c", DEFAULT_BASE["c"]))),
    "lambda_max": (("N", "M"), lambda kw: lambda_max(SymmetricState(kw["N"], kw["M"]))),
    "geometric_entropy": (("N", "M"), lambda kw: geometric_entropy(SymmetricState(kw["N"], kw["M"]))),
    "zeta1": (("N",), lambda kw: zeta_ratios(kw["N"])[0]),
    "zeta2": (("N",), lambda kw: zeta_ratios(kw["N"])[1]),
    "chi3": (("N",), lambda kw: chi3_magnitude(kw["N"], _susceptibility_from(kw))),
    "exciton_energy": (("k", "delta_e", "d_shift", "v"),
                       lambda kw: exciton_energy(kw["k"], DispersionParams(kw["delta_e"], kw["d_shift"], kw["v"]))),
    "dipole": (("mu_i", "mu_j", "d"),
               lambda kw: dipole_coupling(DipolePair(kw["mu_i"], kw["mu_j"], kw["d"]))),
    "coupling_nn": (("v", "k"), lambda kw: coupling_sum_nn(kw["v"], kw["k"])),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jband-sim",
                     description="Exciton propagation and entanglement diagnostics "
                                 "on a finite one-dimensional aggregate.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a configured study")
    run.add_argument("--config", required=True, help="path to a key = value configuration file")
    run.add_argument("--out", default=None, help="output directory (overrides the config 'out' key)")
    run.add_argument("--svg", action="store_true", help="emit an SVG chart next to each CSV")
    run.set_defaults(func=_cmd_run)

    lst = sub.add_parser("list", help="list bundled studies and defaults")
    lst.set_defaults(func=_cmd_list)

    ev = sub.add_parser("eval", help="evaluate one measure and print one number")
    ev.add_argument("measure", help="one of: " + ", ".join(sorted(EVAL_MEASURES)))
    ev.add_argument("pairs", nargs="*", metavar="key=value",
                    help="numeric arguments, e.g. c=15 b=0.5 t_k=2")
    ev.set_defaults(func=_cmd_eval)
    return parser


def _primary_path(spec, out_flag: str | None) -> Path:
    if out_flag is not None:
        return Path(out_flag) / f"{spec.name}.csv"
    if spec.output_path:
        p = Path(spec.output_path)
        return p if p.suffix == ".csv" else p / f"{spec.name}.csv"
    return Path(f"{spec.name}.csv")


def _cmd_run(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    spec = parse_config(text)
    outputs = run_experiment_outputs(spec)
    primary = _primary_path(spec, args.out)
    for suffix, table in outputs.items():
        path = primary if not suffix else primary.with_name(f"{primary.stem}_{suffix}.csv")
        write_csv(table, path)
        print(f"wrote {path}")
        if args.svg:
            svg_path = path.with_suffix(".svg")
            emit_svg(table, svg_path)
            print(f"wrote {svg_path}")
    return EXIT_OK


def _cmd_list(args) -> int:
    for name, definition in EXPERIMENTS.items():
        print(f"{name}: {definition.description}")
        fixed = " ".join(f"{k}={v:g}" for k, v in definition.base.items())
        if fixed:
            print(f"  fixed: {fixed}")
        labels = [" ".join(f"{k}={v:g}" for k, v in curve.items())
                  for curve in definition.curves if curve]
        if labels:
            print(f"  curves: {'; '.join(labels)}")
        axis = definition.sweep
        grid = sweep_grid(axis)
        print(f"  sweep: {axis.variable} from {axis.start:g} to {axis.stop:g} "
              f"step {axis.step:g} ({len(grid)} points)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    entry = EVAL_MEASURES.get(args.measure)
    if entry is None:
        raise ConfigError(f"unknown measure '{args.measure}' "
                          f"(known: {', '.join(sorted(EVAL_MEASURES))})")
    required, evaluator = entry
    kw: dict[str, float] = {}
    for pair in args.pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"expected key=value, got '{pair}'")
        try:
            kw[key] = float(raw)
        except ValueError:
            raise ConfigError(f"invalid number '{raw}' for key '{key}'") from None
        if key in _INT_KEYS and not kw[key].is_integer():
            raise ConfigError(f"key '{key}' needs an integer, got '{raw}'")
    missing = [k for k in required if k not in kw]
    if missing:
        raise ConfigError(f"measure '{args.measure}' needs: {', '.join(missing)}")
    print(format_number(float(evaluator(kw))))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
