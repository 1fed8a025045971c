"""Symmetric-state geometric entanglement and two-exciton diagnostics.

Covers the closed-form geometric measure of permutation-symmetric states,
the one-/two-exciton entropy ratios, the third-order susceptibility
magnitude built from them, and the 2x2 two-branch diagonalization.

Binomials and powers are evaluated in log space via lgamma, so all measures
stay finite up to monomer counts of order 10^6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import check_finite, check_integer


@dataclass(frozen=True)
class SymmetricState:
    """Permutation-symmetric basis state of N >= 1 monomers with M in [0, N]
    ground-state slots; both are stored as ``int``."""

    N: int
    M: int

    def __post_init__(self):
        object.__setattr__(self, "N", check_integer(self.N, "N", 1))
        object.__setattr__(self, "M", check_integer(self.M, "M"))
        if not (0 <= self.M <= self.N):
            raise ValueError("M must lie in [0, N]")


@dataclass(frozen=True)
class TwoBranchHamiltonian:
    """Two coupled exciton branches: energies e1, e2 and coupling t_coupling."""

    e1: float
    e2: float
    t_coupling: float

    def __post_init__(self):
        for name in ("e1", "e2", "t_coupling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SusceptibilityParams:
    """Monomer dipole mu, damping gamma, excitation energy delta_e, drive omega.

    The defaults are fig5's monomer, which ``jband-sim eval chi3`` also uses.
    """

    mu: float = 1.0
    gamma: float = 0.5
    delta_e: float = 3.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("mu", "gamma", "delta_e", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta_e <= 0:
            raise ValueError("delta_e must be positive")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.omega == self.delta_e:
            raise ValueError("omega must differ from delta_e (resonant singularity)")


def _log_overlap_sq(N: int, M: int) -> float:
    # Canonical (lo, hi) split keeps the M <-> N-M symmetry bit-exact.
    lo = min(M, N - M)
    hi = N - lo
    s = math.lgamma(N + 1) - math.lgamma(lo + 1) - math.lgamma(hi + 1)
    if lo > 0:
        s += lo * math.log(lo / N)
    if hi > 0:
        s += hi * math.log(hi / N)
    return s


def lambda_max(s: SymmetricState) -> float:
    """Maximal product-state overlap sqrt(C(N,M) (M/N)^M ((N-M)/N)^(N-M))."""
    return math.exp(0.5 * _log_overlap_sq(s.N, s.M))


def geometric_entropy(s: SymmetricState) -> float:
    """Geometric entanglement -ln(lambda_max^2), in nats; zero at M = 0 or M = N."""
    value = -_log_overlap_sq(s.N, s.M)
    return value if value > 0.0 else 0.0


def zeta_ratios(N: int) -> tuple[float, float]:
    """One- and two-exciton entropies normalised by the half-filled maximum.

    For odd N the normaliser uses M = (N - 1) / 2, which equals the
    M = (N + 1) / 2 value by symmetry.
    """
    N = check_integer(N, "N", 4)
    denom = geometric_entropy(SymmetricState(N, N // 2))
    zeta1 = geometric_entropy(SymmetricState(N, 1)) / denom
    zeta2 = geometric_entropy(SymmetricState(N, 2)) / denom
    return zeta1, zeta2


def chi3_magnitude(N: int, sp: SusceptibilityParams) -> float:
    """Third-order susceptibility magnitude, in reduced units (hbar = 1).

    |chi3| = N mu^2 E(N,1) E(N,2) / (2 gamma |omega^2 - delta_e^2|), where E
    is the geometric entropy.  The detuning denominator enters through its
    absolute value; it is negative at the usual omega = delta_e / 3 drive.
    A magnitude beyond the float range is rejected with ``ValueError``.
    """
    N = check_integer(N, "N", 4)
    e_one = geometric_entropy(SymmetricState(N, 1))
    e_two = geometric_entropy(SymmetricState(N, 2))
    detune = abs(sp.omega * sp.omega - sp.delta_e * sp.delta_e)
    return check_finite(N * sp.mu * sp.mu * e_one * e_two / (2.0 * sp.gamma * detune), "chi3")


def two_exciton_diagonalize(h: TwoBranchHamiltonian) -> tuple[float, float, float]:
    """Eigenvalues (ascending) and mixing angle of [[e1, T], [T, e2]].

    The angle beta lies in (-pi/4, pi/4], with beta = pi/4 for degenerate
    branches with nonzero coupling and beta = 0 for zero coupling.
    """
    mean = 0.5 * (h.e1 + h.e2)
    radius = math.hypot(0.5 * (h.e1 - h.e2), h.t_coupling)
    if h.t_coupling == 0.0:
        beta = 0.0
    elif h.e1 == h.e2:
        beta = 0.25 * math.pi
    else:
        beta = 0.5 * math.atan(2.0 * h.t_coupling / (h.e1 - h.e2))
        if beta <= -0.25 * math.pi:
            # atan rounds onto the open boundary only when the branches are
            # degenerate at double precision; the +pi/2 rotation also
            # diagonalizes and lands on the closed end of the interval.
            beta += 0.5 * math.pi
    return mean - radius, mean + radius, beta


def coupling_sum_nn(v: float, k: float) -> float:
    """Nearest-neighbour inter-branch coupling 2 v cos(k)."""
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    if not math.isfinite(v):
        raise ValueError("v must be finite")
    return check_finite(2.0 * v * math.cos(k), "coupling")
