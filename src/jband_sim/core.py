"""Shared value types for the aggregate-dynamics modules.

Everything here is an immutable record.  Instances carry no hidden state and
can be shared freely between threads or worker processes.
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


@dataclass(frozen=True)
class SiteWindow:
    """Contiguous block of observed site indices centred on the initial site 0."""

    N: int
    indices: tuple[int, ...]


def make_window(N: int) -> SiteWindow:
    """Centred window of ``N`` contiguous sites containing site 0.

    Odd ``N`` spans [-(N-1)/2, (N-1)/2]; even ``N`` spans [-N/2, N/2-1].
    """
    N = check_integer(N, "N", 2)
    half = N // 2
    hi = half if N % 2 else half - 1
    return SiteWindow(N=N, indices=tuple(range(-half, hi + 1)))


@dataclass(frozen=True)
class OccupationProfile:
    """Per-site excitation probabilities over a window at one instant."""

    window: SiteWindow
    u: np.ndarray
    t: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if u.shape != (self.window.N,):
            raise ValueError("u must hold one probability per window site")
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("occupation probabilities must lie in [0, 1]")
        if float(u.sum()) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("total occupation probability exceeds unity")


@dataclass(frozen=True)
class AggregateDensityMatrix:
    """Site-basis coherence magnitudes |rho_mn| of an N-site aggregate."""

    N: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if m.shape != (self.N, self.N):
            raise ValueError("entries must be an N x N matrix")
        if np.any(m < 0):
            raise ValueError("coherence magnitudes must be nonnegative")
        if not np.array_equal(m, m.T):
            raise ValueError("coherence magnitudes must be symmetric")
        if float(np.trace(m)) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("diagonal probabilities must sum to at most 1")
