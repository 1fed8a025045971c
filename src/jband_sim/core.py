"""Shared value types, parameter defaults and argument checks for the aggregate-dynamics modules.

Every record is immutable and stores only independent inputs: no field has to
agree with another field or with an array's shape.  Instances carry no hidden
state and can be shared freely between threads or worker processes.

Only ``AggregateDensityMatrix`` needs numpy, and it imports it when the first
one is built, so the other records and checks load without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

#: Floating-point guard on the total in-window occupation probability.
OCCUPATION_SUM_EPS = 1e-9

#: Fallback parameter values for custom runs and single-measure evaluation.
DEFAULT_BASE: Mapping[str, float] = {
    "a": 0.0, "b": 0.0, "c": 30.0, "t_k": 1.0, "N": 200, "t": 2.0,
}


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


def check_finite_fields(record, *names: str) -> None:
    """``ValueError`` naming the first of the fields ``names`` of ``record`` that is not finite."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite")


def check_finite(value: float, name: str) -> float:
    """``value``; ``ValueError`` if it is not finite, as a true value beyond the float range."""
    if not math.isfinite(value):
        raise ValueError(f"{name} lies beyond the float range")
    return value


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


def model_params(values: Mapping[str, float]) -> ModelParams:
    """Validated model parameters from ``values``; ``DEFAULT_BASE`` fills the gaps.

    A non-integral ``N`` is rejected, not truncated.  ``N`` is passed on as
    given, so an integer too large for a float is a domain error, not an
    ``OverflowError``.
    """
    return ModelParams(N=values.get("N", DEFAULT_BASE["N"]),
                       **{k: float(values.get(k, DEFAULT_BASE[k]))
                          for k in ("a", "b", "c", "t_k")})


def make_window(N: int) -> range:
    """Site indices of the centred window of ``N`` contiguous sites containing site 0.

    Odd ``N`` spans [-(N-1)/2, (N-1)/2]; even ``N`` spans [-N/2, N/2-1].
    """
    N = check_integer(N, "N", 2)
    return range(-(N // 2), N - N // 2)


@dataclass(frozen=True)
class OccupationProfile:
    """Per-site excitation probabilities at time ``t``.

    ``u`` is stored as a tuple of floats; ``u[i]`` belongs to site
    ``make_window(len(u))[i]``.
    """

    u: tuple[float, ...]
    t: float

    def __post_init__(self):
        try:
            # A string would iterate as characters, not as one value.
            u = () if isinstance(self.u, str) else tuple(map(float, self.u))
        except TypeError:  # a scalar, or the rows of a 2-D input
            u = ()
        if len(u) < 2:
            raise ValueError("u must be a vector of at least 2 site probabilities")
        if not all(0.0 <= v <= 1.0 for v in u):  # NaN fails both comparisons
            raise ValueError("occupation probabilities must lie in [0, 1]")
        if math.fsum(u) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("total occupation probability exceeds unity")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class AggregateDensityMatrix:
    """Site-basis coherence magnitudes |rho_mn| of an aggregate; N is ``len(entries)``."""

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np

        m = np.asarray(self.entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if m.size == 0:
            raise ValueError("entries must not be empty")
        if np.any(m < 0):
            raise ValueError("coherence magnitudes must be nonnegative")
        if not np.isfinite(m).all():
            raise ValueError("coherence magnitudes must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("coherence magnitudes must be symmetric")
        if float(np.trace(m)) > 1.0 + OCCUPATION_SUM_EPS:
            raise ValueError("diagonal probabilities must sum to at most 1")
