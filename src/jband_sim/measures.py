"""Entanglement diagnostics of a single-excitation profile.

Entropies use natural logarithms throughout, so every value is in nats.
Both the summed site entropy and its per-site average are reported because
different diagnostics are naturally normalised different ways.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import AggregateDensityMatrix, ModelParams, OccupationProfile, check_integer

#: Prefactor of the empirical coherence-size relation.
SPANO_COEFFICIENT = 2.16
# Relative round-off allowed when comparing density-matrix entries with the diagonal.
_COHERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class EntropyReport:
    """Summed site entropy of a profile and its average over the window's sites."""

    total: float
    average: float


@dataclass(frozen=True)
class ConcurrenceReport:
    """Average pairwise concurrence implied by a delocalization measure, and N/2 times it."""

    avg_concurrence: float
    scaled: float


def site_entropy(u: float) -> float:
    """Binary entropy -u ln u - (1-u) ln(1-u) of one site, in nats."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("u must lie in [0, 1]")
    if u == 0.0 or u == 1.0:
        return 0.0
    return -u * math.log(u) - (1.0 - u) * math.log1p(-u)


def _site_entropies(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    v = u[inner]
    out[inner] = -v * np.log(v) - (1.0 - v) * np.log1p(-v)
    return out


def extended_state_entropy(N: int) -> float:
    """Per-site entropy of the fully extended state on N sites."""
    N = check_integer(N, "N", 2)
    return math.log(N) / N - (1.0 - 1.0 / N) * math.log1p(-1.0 / N)


def entropy_report(profile: OccupationProfile) -> EntropyReport:
    """Summed and averaged site entropies of a profile."""
    total = float(np.sum(_site_entropies(profile.u)))
    return EntropyReport(total=total, average=total / profile.u.size)


def ipr(profile: OccupationProfile) -> float:
    """Inverse participation ratio of the profile shape.

    Weights are renormalised before squaring so the measure reflects the
    shape of the surviving occupation, not its overall survival.
    """
    s = float(profile.u.sum())
    if s <= 0.0:
        raise ValueError("profile carries no occupation")
    w = profile.u / s
    return 1.0 / float(np.dot(w, w))


def average_concurrence(zeta: float, N: int) -> ConcurrenceReport:
    """Average pairwise concurrence 2 (zeta - 1) / (N (N - 1))."""
    N = check_integer(N, "N", 2)
    if not (1.0 <= zeta <= N):
        raise ValueError("zeta must lie in [1, N]")
    avg = 2.0 * (zeta - 1.0) / (N * (N - 1.0))
    return ConcurrenceReport(avg_concurrence=avg, scaled=avg * N / 2.0)


def coherence_size(rho: AggregateDensityMatrix) -> float:
    """Coherence size (sum |rho_mn|)^2 / (N sum |rho_mn|^2); lies in [1, N].

    The formula assumes a translation-invariant ensemble: a uniform diagonal
    d with every |rho_mn| <= d.  Other matrices are rejected, because with a
    non-uniform diagonal the value can fall to 1/N.
    """
    m = rho.entries
    d = float(m[0, 0])
    tol = _COHERENCE_RTOL * d
    if np.any(np.abs(np.diagonal(m) - d) > tol):
        raise ValueError("diagonal probabilities must be uniform")
    if np.any(m > d + tol):
        raise ValueError("coherence magnitudes must not exceed the diagonal")
    sum_sq = float(np.sum(m * m))
    if sum_sq == 0.0:
        raise ValueError("density matrix carries no weight")
    total = float(m.sum())
    return total * total / (len(m) * sum_sq)


def spano_coherence_size(p: ModelParams) -> float:
    """Empirical coherence size 2.16 (c^2 / (b^2 t_k))^(1/3), capped at N."""
    if p.b == 0.0:
        raise ValueError("b must be positive; with b = 0 the coherence size is the full aggregate N")
    nc = SPANO_COEFFICIENT * (p.c * p.c / (p.b * p.b * p.t_k)) ** (1.0 / 3.0)
    return min(nc, float(p.N))


def resonance_coherence_size(c: float) -> float:
    """Coherence size 4 pi c at phonon-band resonance points."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError("c must be positive")
    return 4.0 * math.pi * c


def concurrence_vs_size_curve(p: ModelParams,
                              N_range: Iterable[int]) -> list[tuple[int, float]]:
    """Average concurrence against aggregate size, one point per N.

    The delocalization measure is the empirical coherence size, clamped to
    [1, N] so the concurrence stays in its physical range at both extremes.
    """
    curve = []
    for N in N_range:
        pn = replace(p, N=N)
        zeta = max(1.0, spano_coherence_size(pn))
        curve.append((pn.N, average_concurrence(zeta, pn.N).avg_concurrence))
    return curve
