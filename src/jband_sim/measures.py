"""Entanglement diagnostics of a single-excitation profile.

Entropies use natural logarithms throughout, so every value is in nats.
Both the summed site entropy and its per-site average are reported because
different diagnostics are naturally normalised different ways.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import AggregateDensityMatrix, ModelParams, OccupationProfile, check_finite, check_integer

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    v = u[inner]
    out[inner] = -v * np.log(v) - (1.0 - v) * np.log1p(-v)
    return out


def extended_state_entropy(N: int) -> float:
    """Per-site entropy of the fully extended state on N sites."""
    N = check_integer(N, "N", 2)
    if N > sys.float_info.max:
        # N has no float value, and -(1 - 1/N) ln(1 - 1/N) equals 1/N to double
        # precision; an integer ratio divides exactly, then rounds once.
        num, den = (math.log(N) + 1.0).as_integer_ratio()
        return num / (den * N)
    return math.log(N) / N - (1.0 - 1.0 / N) * math.log1p(-1.0 / N)


def entropy_report(profile: OccupationProfile) -> EntropyReport:
    """Summed and averaged site entropies of a profile, summed with ``math.fsum``."""
    u = profile.u
    total = math.fsum(site_entropy(v) for v in u)
    return EntropyReport(total=total, average=total / len(u))


def ipr(profile: OccupationProfile) -> float:
    """Inverse participation ratio of the profile shape.

    Weights are renormalised before squaring so the measure reflects the
    shape of the surviving occupation, not its overall survival.  Both sums
    use ``math.fsum``.
    """
    u = profile.u
    s = math.fsum(u)
    if s <= 0.0:
        raise ValueError("profile carries no occupation")
    return 1.0 / math.fsum(w * w for w in (v / s for v in u))


def average_concurrence(zeta: float, N: int) -> ConcurrenceReport:
    """Average pairwise concurrence 2 (zeta - 1) / (N (N - 1))."""
    N = check_integer(N, "N", 2)
    if not (1.0 <= zeta <= N):
        raise ValueError("zeta must lie in [1, N]")
    # Integer ratios divide exactly, then round once, so both fields are
    # correctly rounded at any N: a float N (N - 1) overflows above 1e154.
    num, den = (zeta - 1.0).as_integer_ratio()
    return ConcurrenceReport(avg_concurrence=2 * num / (den * N * (N - 1)),
                             scaled=num / (den * (N - 1)))


def coherence_size(rho: AggregateDensityMatrix) -> float:
    """Coherence size (sum |rho_mn|)^2 / (N sum |rho_mn|^2); lies in [1, N].

    The formula assumes a translation-invariant ensemble: a uniform diagonal
    d with every |rho_mn| <= d.  Other matrices are rejected, because with a
    non-uniform diagonal the value can fall to 1/N.
    """
    m = rho.entries
    d = float(m[0, 0])
    tol = _COHERENCE_RTOL * d
    if (abs(m.diagonal() - d) > tol).any():
        raise ValueError("diagonal probabilities must be uniform")
    if (m > d + tol).any():
        raise ValueError("coherence magnitudes must not exceed the diagonal")
    sum_sq = float((m * m).sum())
    if sum_sq == 0.0:
        raise ValueError("density matrix carries no weight")
    total = float(m.sum())
    return total * total / (len(m) * sum_sq)


def spano_coherence_size(p: ModelParams) -> float:
    """Empirical coherence size 2.16 (c^2 / (b^2 t_k))^(1/3), capped at N."""
    if p.b == 0.0:
        raise ValueError("b must be positive; with b = 0 the coherence size is the full aggregate N")
    # c^2, b^2 t_k and their ratio can leave the float range where the size
    # does not.  Split off each binary exponent exactly, take the cube root of
    # the mantissas and the exponent's remainder, and put the exponent's third back.
    (mc, ec), (mb, eb), (mt, et) = map(math.frexp, (p.c, p.b, p.t_k))
    k, r = divmod(2 * ec - 2 * eb - et, 3)
    root = SPANO_COEFFICIENT * math.ldexp(mc * mc / (mb * mb * mt), r) ** (1.0 / 3.0)
    try:
        nc = math.ldexp(root, k)
    except OverflowError:
        nc = math.inf
    # Compared exactly: an N beyond the float range is converted only if it is the cap.
    if nc <= p.N:
        return nc
    if p.N > sys.float_info.max:
        raise ValueError("coherence size lies beyond the float range")
    return float(p.N)


def resonance_coherence_size(c: float) -> float:
    """Coherence size 4 pi c at phonon-band resonance points."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError("c must be positive")
    return check_finite(4.0 * math.pi * c, "coherence size")
