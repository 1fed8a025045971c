"""Reduced transfer dynamics of a single excitation on a finite chain.

The site-to-site transfer probability factorises into a coherent spreading
kernel J_n(c t)^2, a static dressing weight exp(-a^2) for the dispersive
coupling and a decoherence envelope exp(-b^2 t) for the resonance coupling:

    P_n(t) = exp(-a^2) * J_n(c t)^2 * exp(-b^2 t)

The dressing weight is applied exactly as written, so for a > 0 the total
in-window probability starts below one; the deficit is the weight carried by
the phonon-dressed component and is deliberately not renormalised away.
Temperature does not enter the propagator.

All functions are pure; independent (site, time) points can be evaluated
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, OccupationProfile, check_time, make_window
from .specfun import MAX_ORDER, bessel_j, bessel_j_row


@dataclass(frozen=True)
class DispersionParams:
    """One-exciton band parameters.

    Attributes:
        delta_e: on-site excitation energy (positive).
        d_shift: aggregate dispersive shift of the band.
        v:       nearest-neighbour transfer energy, any sign; a negative v
                 red-shifts the k = 0 band edge.
    """

    delta_e: float
    d_shift: float
    v: float


@dataclass(frozen=True)
class DipolePair:
    """Transition-dipole magnitudes of two sites a distance d > 0 apart."""

    mu_i: float
    mu_j: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("d must be positive")


def transfer_probability(n: int, t: float, p: ModelParams) -> float:
    """Probability that the excitation started at site 0 sits at site n at time t."""
    t = check_time(t)
    j = bessel_j(n, p.c * t)
    # Grouping keeps the a-dependence an exact scalar factor.
    return math.exp(-p.a * p.a) * (j * j * math.exp(-p.b * p.b * t))


def occupation_profile(t: float, p: ModelParams) -> OccupationProfile:
    """Transfer probabilities over the full centred window at time t."""
    t = check_time(t)
    if p.N // 2 > MAX_ORDER:
        raise ValueError(f"N must be <= {2 * MAX_ORDER + 1}, the largest window "
                         "inside the Bessel order envelope")
    idx = np.abs(np.asarray(make_window(p.N)))
    j = bessel_j_row(p.N // 2, p.c * t)[idx]
    base = j * j * math.exp(-p.b * p.b * t)
    return OccupationProfile(u=math.exp(-p.a * p.a) * base, t=t)


def window_survival(t: float, p: ModelParams) -> float:
    """Total probability still inside the observed window at time t."""
    return float(occupation_profile(t, p).u.sum())


def exciton_energy(k: float, dp: DispersionParams) -> float:
    """Band energy delta_e + d_shift + 2 v cos(k) at wavevector k."""
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    return dp.delta_e + dp.d_shift + 2.0 * dp.v * math.cos(k)


def dipole_coupling(pair: DipolePair) -> float:
    """Point-dipole transfer energy mu_i mu_j / d^3 (unit proportionality)."""
    return pair.mu_i * pair.mu_j / pair.d**3
