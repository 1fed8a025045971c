"""Reduced transfer dynamics of a single excitation on a finite chain.

The site-to-site transfer probability factorises into a coherent spreading
kernel J_n(c t)^2, a static dressing weight exp(-a^2) for the dispersive
coupling and a decoherence envelope exp(-b^2 t) for the resonance coupling:

    P_n(t) = exp(-a^2) * J_n(c t)^2 * exp(-b^2 t)

The dressing weight is applied exactly as written, so for a > 0 the total
in-window probability starts below one; the deficit is the weight carried by
the phonon-dressed component and is deliberately not renormalised away.
Temperature does not enter the propagator.

A sweep evaluates its points as blocks: the profiles of consecutive points
that share one chain length N, ordered by c t, form the rows of one array.
A Bessel row is computed once per N and c t, and a point's values do not
depend on how its sweep is blocked.  ``occupation_profile`` builds one
point's profile as Python floats, with the Bessel row ``bessel_j`` uses, and
never loads numpy; it agrees with the block path to about 1e-14 relative.

All functions are pure; independent (site, time) points can be evaluated
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import OCCUPATION_SUM_EPS, ModelParams, OccupationProfile, check_finite, check_time, make_window
from .specfun import MAX_ORDER, _check_row, _fsum_row, bessel_j, bessel_j_row

if TYPE_CHECKING:
    import numpy as np

# A sweep evaluates its points in blocks of at most this many site
# probabilities (always at least one row), so its working memory stays a few
# hundred kilobytes whatever the window size.
_BLOCK_ELEMENTS = 2**12


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

    def __post_init__(self):
        for name in ("delta_e", "d_shift", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DipolePair:
    """Transition-dipole magnitudes of two sites a distance d > 0 apart."""

    mu_i: float
    mu_j: float
    d: float

    def __post_init__(self):
        for name in ("mu_i", "mu_j"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("d must be positive")


def transfer_probability(n: int, t: float, p: ModelParams) -> float:
    """Probability that the excitation started at site 0 sits at site n at time t."""
    t = check_time(t)
    j = bessel_j(n, p.c * t)
    # Grouping keeps the a-dependence an exact scalar factor.
    return math.exp(-p.a * p.a) * (j * j * math.exp(-p.b * p.b * t))


def _check_point(t: float, p: ModelParams) -> tuple[float, ModelParams]:
    """``(t, p)`` with ``t`` as a float, after every check ``occupation_profile`` makes."""
    t = check_time(t)
    if p.N // 2 > MAX_ORDER:
        raise ValueError(f"N must be <= {2 * MAX_ORDER + 1}, the largest window "
                         "inside the Bessel order envelope")
    _check_row(p.N // 2, p.c * t)
    return t, p


def _occupation_blocks(points: Sequence[tuple[float, ModelParams]]) -> Iterator[np.ndarray]:
    """Transfer probabilities of checked ``(t, p)`` points that share one ``N``.

    The points come ordered by ``c t``.  Each block holds the profiles of the
    next ``_BLOCK_ELEMENTS // N`` points (at least one), one per row, and
    each Bessel row is computed once, also where a run of equal ``c t``
    crosses into the next block.  A block is C-ordered, so a sum along its
    last axis adds a row's entries alike whatever block holds it: a sweep's
    values do not depend on its blocking.
    """
    import numpy as np

    N = points[0][1].N
    step = max(1, _BLOCK_ELEMENTS // N)
    window = np.abs(np.asarray(make_window(N)))
    rows: dict[float, np.ndarray] = {}
    for lo in range(0, len(points), step):
        block = points[lo:lo + step]
        xs = [p.c * t for t, p in block]
        rows = {x: rows[x] if x in rows else bessel_j_row(N // 2, x) for x in dict.fromkeys(xs)}
        # np.take keeps C order, where rows[:, window] would give a Fortran-ordered block.
        j = np.take(np.array([rows[x] for x in xs]), window, axis=1)
        decay = np.array([[math.exp(-p.b * p.b * t)] for t, p in block])
        dressing = np.array([[math.exp(-p.a * p.a)] for _, p in block])
        # Grouping keeps the a-dependence an exact scalar factor of each row.
        u = dressing * ((j * j) * decay)
        if not ((u >= 0) & (u <= 1)).all():  # NaN fails both comparisons
            raise ValueError("occupation probabilities must lie in [0, 1]")
        if (u.sum(axis=1) > 1.0 + OCCUPATION_SUM_EPS).any():
            raise ValueError("total occupation probability exceeds unity")
        del j  # while the block is consumed, only it and the rows the next may share stay
        yield u


def occupation_profile(t: float, p: ModelParams) -> OccupationProfile:
    """Transfer probabilities over the full centred window at time t."""
    t, p = _check_point(t, p)
    row = _fsum_row(p.N // 2, p.c * t)
    dressing, decay = math.exp(-p.a * p.a), math.exp(-p.b * p.b * t)
    # Grouping keeps the a-dependence an exact scalar factor.
    u = [dressing * ((j * j) * decay) for j in (row[abs(n)] for n in make_window(p.N))]
    return OccupationProfile(u=u, t=t)


def window_survival(t: float, p: ModelParams) -> float:
    """Total probability still inside the observed window at time t."""
    return math.fsum(occupation_profile(t, p).u)


def exciton_energy(k: float, dp: DispersionParams) -> float:
    """Band energy delta_e + d_shift + 2 v cos(k) at wavevector k."""
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    return check_finite(dp.delta_e + dp.d_shift + 2.0 * dp.v * math.cos(k), "band energy")


def dipole_coupling(pair: DipolePair) -> float:
    """Point-dipole transfer energy mu_i mu_j / d^3 (unit proportionality)."""
    # Divided one factor of d at a time, so no power of d under- or overflows alone.
    return check_finite(pair.mu_i * pair.mu_j / pair.d / pair.d / pair.d, "dipole coupling")
