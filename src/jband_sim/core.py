"""Shared value types and argument checks for the aggregate-dynamics modules.

Every record is immutable and stores only independent inputs: no field has to
agree with another field or with an array's shape.  Instances carry no hidden
state and can be shared freely between threads or worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Floating-point guard on the total in-window occupation probability.
OCCUPATION_SUM_EPS = 1e-9


def check_integer(value, name: str, lo: int | None = None) -> int:
    """``value`` as an ``int``; ``ValueError`` unless integral (not inf/nan) and >= ``lo``."""
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return int(value)


def check_time(t) -> float:
    """``t`` as a ``float``; ``ValueError`` unless finite and >= 0."""
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError("t must be finite and >= 0")
    return t


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameter set driving the reduced dynamics.

    Attributes:
        a:   dispersive exciton-phonon coupling strength.
        b:   resonance coupling strength (decoheres the transfer).
        c:   intersite transfer rate in phonon-frequency units.
        t_k: temperature in phonon-frequency units.
        N:   number of molecular sites in the chain.

    Time is measured in inverse phonon-frequency units throughout, so every
    field is a pure number.  Construction rejects values outside these
    domains and stores ``N`` as an ``int``.
    """

    a: float
    b: float
    c: float
    t_k: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ValueError("a must be finite and >= 0")
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError("b must be finite and >= 0")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive")
        if not (math.isfinite(self.t_k) and self.t_k > 0):
            raise ValueError("t_k must be positive")
        object.__setattr__(self, "N", check_integer(self.N, "N", 2))


def make_window(N: int) -> range:
    """Site indices of the centred window of ``N`` contiguous sites containing site 0.

    Odd ``N`` spans [-(N-1)/2, (N-1)/2]; even ``N`` spans [-N/2, N/2-1].
    """
    N = check_integer(N, "N", 2)
    return range(-(N // 2), N - N // 2)


@dataclass(frozen=True)
class OccupationProfile:
    """Per-site excitation probabilities at time ``t``.

    ``u[i]`` belongs to site ``make_window(len(u))[i]``.
    """

    u: np.ndarray
    t: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if u.ndim != 1 or u.size < 2:
            raise ValueError("u must be a vector of at least 2 site probabilities")
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("occupation probabilities must lie in [0, 1]")
        if float(u.sum()) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("total occupation probability exceeds unity")


@dataclass(frozen=True)
class AggregateDensityMatrix:
    """Site-basis coherence magnitudes |rho_mn| of an aggregate; N is ``len(entries)``."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.any(m < 0):
            raise ValueError("coherence magnitudes must be nonnegative")
        if not np.array_equal(m, m.T):
            raise ValueError("coherence magnitudes must be symmetric")
        if float(np.trace(m)) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("diagonal probabilities must sum to at most 1")
