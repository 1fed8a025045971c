"""Exciton propagation and entanglement diagnostics on finite 1-D aggregates.

The public names below, and the submodules that define them, load on first
access (PEP 562), so ``import jband_sim`` costs almost nothing.  numpy loads
only when an array is first built: the scalar measures, ``bessel_j``, the
one-point profile functions (``occupation_profile``, ``window_survival``,
``entropy_report``, ``ipr``) and every ``jband-sim eval`` run without it.
"""
__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "config": ("ConfigError", "parse_config"),
    "core": ("AggregateDensityMatrix", "ModelParams", "OccupationProfile", "make_window"),
    "experiments": ("CsvTable", "EXPERIMENTS", "ExperimentSpec", "SweepAxis",
                    "run_experiment", "run_experiment_outputs"),
    "measures": ("ConcurrenceReport", "EntropyReport", "average_concurrence", "coherence_size",
                 "entropy_report", "extended_state_entropy", "ipr", "resonance_coherence_size",
                 "site_entropy", "spano_coherence_size"),
    "multipartite": ("SusceptibilityParams", "SymmetricState", "TwoBranchHamiltonian",
                     "chi3_magnitude", "coupling_sum_nn", "geometric_entropy", "lambda_max",
                     "two_exciton_diagonalize", "zeta_ratios"),
    "output": ("emit_svg", "render_csv", "render_svg", "write_csv"),
    "propagator": ("DipolePair", "DispersionParams", "dipole_coupling", "exciton_energy",
                   "occupation_profile", "transfer_probability", "window_survival"),
    "specfun": ("bessel_j", "bessel_j_row"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin __import__, unlike importlib.import_module, is timed by
    # ``python -X importtime``, so the import list stays complete.
    value = __import__(f"{__name__}.{module}", fromlist=(name,))
    value = value if module == name else getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
