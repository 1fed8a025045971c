"""Exciton propagation and entanglement diagnostics on finite 1-D aggregates."""

from .core import (
    AggregateDensityMatrix,
    ModelParams,
    OccupationProfile,
    make_window,
)
from .experiments import (
    CsvTable,
    EXPERIMENTS,
    ExperimentSpec,
    SweepAxis,
    run_experiment,
    run_experiment_outputs,
)
from .config import ConfigError, parse_config
from .measures import (
    ConcurrenceReport,
    EntropyReport,
    average_concurrence,
    coherence_size,
    entropy_report,
    extended_state_entropy,
    ipr,
    resonance_coherence_size,
    site_entropy,
    spano_coherence_size,
)
from .multipartite import (
    SusceptibilityParams,
    SymmetricState,
    TwoBranchHamiltonian,
    chi3_magnitude,
    coupling_sum_nn,
    geometric_entropy,
    lambda_max,
    two_exciton_diagonalize,
    zeta_ratios,
)
from .output import emit_svg, render_csv, render_svg, write_csv
from .propagator import (
    DipolePair,
    DispersionParams,
    dipole_coupling,
    exciton_energy,
    occupation_profile,
    transfer_probability,
    window_survival,
)
from .specfun import bessel_j, bessel_j_row

__version__ = "0.1.0"
