"""Reduced transfer dynamics of a single excitation on a finite chain.

The site-to-site transfer probability factorises into a coherent spreading
kernel J_n(c t)^2, a static dressing weight exp(-a^2) for the dispersive
coupling and a decoherence envelope exp(-b^2 t) for the resonance coupling:

    P_n(t) = exp(-a^2) * J_n(c t)^2 * exp(-b^2 t)

The dressing weight is applied exactly as written, so for a > 0 the total
in-window probability starts below one; the deficit is the weight carried by
the phonon-dressed component and is deliberately not renormalised away.
Temperature does not enter the propagator.

``_check_point`` checks a point and returns its profile inputs: N, c t,
exp(-a^2) and exp(-b^2 t).  A sweep evaluates them in blocks, the profiles
of consecutive points of one N, ordered by c t, as the rows of one array;
one batched call per sweep yields their Bessel rows, one key per point,
from one descent per c t, and a point's values do not depend on the
blocking.  ``occupation_profile`` builds one profile from the same inputs as
Python floats and never loads numpy; it agrees with the block path to about
1e-14 relative.

All functions are pure; independent (site, time) points can be evaluated
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import (OCCUPATION_SUM_EPS, ModelParams, OccupationProfile, check_finite, check_finite_fields,
                   check_time, make_window)
from .specfun import MAX_ARGUMENT, MAX_ORDER, _fsum_row, bessel_j, bessel_j_rows

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
        check_finite_fields(self, "delta_e", "d_shift", "v")
        if self.delta_e <= 0:
            raise ValueError("delta_e must be positive")


@dataclass(frozen=True)
class DipolePair:
    """Transition-dipole magnitudes of two sites a distance d > 0 apart."""

    mu_i: float
    mu_j: float
    d: float

    def __post_init__(self):
        check_finite_fields(self, "mu_i", "mu_j")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("d must be positive")


def transfer_probability(n: int, t: float, p: ModelParams) -> float:
    """Probability that the excitation started at site 0 sits at site n at time t."""
    t = check_time(t)
    j = bessel_j(n, p.c * t)
    # Grouping keeps the a-dependence an exact scalar factor.
    return math.exp(-p.a * p.a) * (j * j * math.exp(-p.b * p.b * t))


def _check_point(t: float, p: ModelParams) -> tuple[int, float, float, float]:
    """Profile inputs ``(N, c t, exp(-a^2), exp(-b^2 t))`` of a point; ``ValueError`` outside the domain."""
    t = check_time(t)
    if p.N // 2 > MAX_ORDER:
        raise ValueError(f"N must be <= {2 * MAX_ORDER + 1}, the largest window "
                         "inside the Bessel order envelope")
    if not p.c * t <= MAX_ARGUMENT:  # also an overflow to inf
        raise ValueError(f"c t must be <= {MAX_ARGUMENT:g}")
    return p.N, p.c * t, math.exp(-p.a * p.a), math.exp(-p.b * p.b * t)


def _occupation_blocks(points: Sequence[tuple[int, float, float, float]]) -> Iterator[np.ndarray]:
    """Transfer probabilities of ``_check_point`` inputs, ordered by ``(N, c t)``.

    Each block holds the profiles of the next points of one ``N``, at most
    ``_BLOCK_ELEMENTS // N`` of them (at least one), one per row.  One batched
    call yields the Bessel rows of all the points, one key per point, as the
    blocks consume them.  A block is C-ordered, so a sum along its last axis
    adds a row's entries alike whatever block holds it: a sweep's values do
    not depend on its blocking.
    """
    import numpy as np

    table = bessel_j_rows([(N // 2, x) for N, x, _, _ in points])
    for N, run in groupby(points, key=lambda point: point[0]):
        run = list(run)
        step = max(1, _BLOCK_ELEMENTS // N)
        window = np.abs(np.asarray(make_window(N)))
        for lo in range(0, len(run), step):
            _, xs, dressing, decay = zip(*run[lo:lo + step])
            # np.take keeps C order, where indexing [:, window] would give a Fortran-ordered block.
            j = np.take(np.array([next(table) for _ in xs]), window, axis=1)
            # Grouping keeps the a-dependence an exact scalar factor of each row.
            u = np.array(dressing)[:, None] * ((j * j) * np.array(decay)[:, None])
            if not ((u >= 0) & (u <= 1)).all():  # NaN fails both comparisons
                raise ValueError("occupation probabilities must lie in [0, 1]")
            if (u.sum(axis=1) > 1.0 + OCCUPATION_SUM_EPS).any():
                raise ValueError("total occupation probability exceeds unity")
            del j  # while the block is consumed, only it and the histories later keys share stay
            yield u


def occupation_profile(t: float, p: ModelParams) -> OccupationProfile:
    """Transfer probabilities over the full centred window at time t."""
    N, x, dressing, decay = _check_point(t, p)
    row = _fsum_row(N // 2, x)
    # Grouping keeps the a-dependence an exact scalar factor.
    u = [dressing * ((j * j) * decay) for j in (row[abs(n)] for n in make_window(N))]
    return OccupationProfile(u=u, t=float(t))


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
