"""Command-line entry point.

Subcommands:
    run   -- execute a configured study and write CSV (optionally SVG) files
    list  -- show the bundled studies and their pinned defaults
    eval  -- evaluate one scalar measure from key=value arguments

Exit codes: 0 success, 1 configuration error, 2 domain error, 3 I/O error.

Importing this module loads only what every subcommand shares: argparse,
``config``, ``core`` and ``output``, none of which loads numpy.  Any other
public name of the package binds here on first access, from the package's
own lazy table (PEP 562), so a cold ``eval`` adds only the module that
defines its measure, and ``run`` and ``list`` load ``experiments`` when they
are called.  No ``eval`` loads numpy: the profile measures (``survival``,
``entropy``, ``entropy_avg``, ``ipr``) build their one ``occupation_profile``
from Python floats.  Names are bound on this module, and the commands read
them from it, for one reason: a function set on the module
(``cli.parse_config = ...``, as a tracer or ``monkeypatch`` does) is the one
they call.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config, parse_number
from .core import DEFAULT_BASE, model_params
from .output import format_number, write_study

EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO = 0, 1, 2, 3


def __getattr__(name):
    package = sys.modules[__package__]
    # Only the package's exports: its own attributes (``__path__``) are not ours.
    if name not in package._MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


# This module as an object (also when run as ``__main__``).  A helper read
# through it loads on first use; a plain global name would not.
_cli = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors under this tool's exit codes.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# measure name -> (required keys, optional keys, evaluator over the parsed key/value dict)
EVAL_MEASURES = {
    "bessel": ("n x", "", lambda kw: _cli.bessel_j(kw["n"], kw["x"])),
    "transfer": ("n t", "a b c",
                 lambda kw: _cli.transfer_probability(kw["n"], kw["t"], model_params(kw))),
    "survival": ("t", "N a b c", lambda kw: _cli.window_survival(kw["t"], model_params(kw))),
    "entropy": ("t", "N a b c", lambda kw: _cli.entropy_report(
        _cli.occupation_profile(kw["t"], model_params(kw))).total),
    "entropy_avg": ("t", "N a b c", lambda kw: _cli.entropy_report(
        _cli.occupation_profile(kw["t"], model_params(kw))).average),
    "extended_ref": ("", "N", lambda kw: _cli.extended_state_entropy(kw.get("N", DEFAULT_BASE["N"]))),
    "ipr": ("t", "N a b c", lambda kw: _cli.ipr(_cli.occupation_profile(kw["t"], model_params(kw)))),
    "site_entropy": ("u", "", lambda kw: _cli.site_entropy(kw["u"])),
    "concurrence": ("zeta N", "",
                    lambda kw: _cli.average_concurrence(kw["zeta"], kw["N"]).avg_concurrence),
    "concurrence_scaled": ("zeta N", "",
                           lambda kw: _cli.average_concurrence(kw["zeta"], kw["N"]).scaled),
    "spano": ("b", "c t_k N", lambda kw: _cli.spano_coherence_size(model_params(kw))),
    "resonance": ("", "c", lambda kw: _cli.resonance_coherence_size(kw.get("c", DEFAULT_BASE["c"]))),
    "lambda_max": ("N M", "", lambda kw: _cli.lambda_max(_cli.SymmetricState(kw["N"], kw["M"]))),
    "geometric_entropy": ("N M", "",
                          lambda kw: _cli.geometric_entropy(_cli.SymmetricState(kw["N"], kw["M"]))),
    "zeta1": ("N", "", lambda kw: _cli.zeta_ratios(kw["N"])[0]),
    "zeta2": ("N", "", lambda kw: _cli.zeta_ratios(kw["N"])[1]),
    "chi3": ("N", "mu gamma delta_e omega",
             lambda kw: _cli.chi3_magnitude(
                 kw["N"], _cli.SusceptibilityParams(**{k: v for k, v in kw.items() if k != "N"}))),
    "exciton_energy": ("k delta_e d_shift v", "",
                       lambda kw: _cli.exciton_energy(
                           kw["k"], _cli.DispersionParams(kw["delta_e"], kw["d_shift"], kw["v"]))),
    "dipole": ("mu_i mu_j d", "",
               lambda kw: _cli.dipole_coupling(_cli.DipolePair(kw["mu_i"], kw["mu_j"], kw["d"]))),
    "coupling_nn": ("v k", "", lambda kw: _cli.coupling_sum_nn(kw["v"], kw["k"])),
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
    ev.add_argument("pairs", nargs="*", default=[], metavar="key=value",
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
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a domain error
        raise ConfigError(f"configuration file is not UTF-8: {exc}") from None
    spec = parse_config(text)
    for path in write_study(_cli.run_experiment_outputs(spec), _primary_path(spec, args.out), args.svg):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_list(args) -> int:
    from .experiments import EXPERIMENTS, ExperimentSpec, resolve, sweep_grid, title

    for name in EXPERIMENTS:
        plan = resolve(ExperimentSpec(name))
        print(f"{name}: {title(plan)}")
        fixed = " ".join(f"{k}={v:g}" for k, v in plan.base.items())
        if fixed:
            print(f"  fixed: {fixed}")
        labels = [" ".join(f"{k}={v:g}" for k, v in curve.items())
                  for curve in plan.curves if curve]
        if labels:
            print(f"  curves: {'; '.join(labels)}")
        axis = plan.sweep
        print(f"  sweep: {axis.variable} from {axis.start:g} to {axis.stop:g} "
              f"step {axis.step:g} ({len(sweep_grid(axis))} points)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    entry = EVAL_MEASURES.get(args.measure)
    if entry is None:
        raise ConfigError(f"unknown measure '{args.measure}' "
                          f"(known: {', '.join(sorted(EVAL_MEASURES))})")
    required, optional, evaluator = entry
    reads = f"{required} {optional}".split()
    kw: dict[str, float] = {}
    for pair in args.pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"expected key=value, got '{pair}'")
        if key in kw:
            raise ConfigError(f"duplicate key '{key}'")
        if key not in reads:
            raise ConfigError(f"unknown key '{key}' for measure '{args.measure}', "
                              f"which reads {' '.join(reads)}")
        try:
            kw[key] = parse_number(key, raw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    missing = [k for k in required.split() if k not in kw]
    if missing:
        raise ConfigError(f"measure '{args.measure}' needs: {', '.join(missing)}")
    print(format_number(float(evaluator(kw))))
    return EXIT_OK


# Built once: each build leaves objects in reference cycles for the collector.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
