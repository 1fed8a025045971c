"""Integer-order Bessel functions of the first kind.

The propagator only ever needs J_n at integer order and nonnegative argument,
so this module implements exactly that: Miller's downward recurrence,
normalised through the sum-of-squares identity

    J_0(x)^2 + 2 * sum_{n>=1} J_n(x)^2 = 1,

which stays stable for the large orders (hundreds) and large arguments
(several hundred) that full-window sweeps require.  The recurrence runs on
Python floats, which round exactly as numpy's float64 does.

All functions are pure.  Every row returned is read-only, and up to 8 recent
recurrence rows are kept and handed out again: a sweep that varies only the
dressing ``a`` or the decoherence ``b`` asks for the same ``(n_max, x)`` row
once per curve.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .core import check_integer

# Start the descent this far above the requested order; the margin keeps the
# truncation contamination far below the 1e-10 accuracy target.
_ORDER_MARGIN = 40
# Rescale the unnormalised recurrence before its square can overflow.
_RESCALE_LIMIT = 1e130
_RESCALE = 1e-130
# Below this argument a two-term power series is exact to double precision.
_SERIES_CUTOFF = 1e-8
#: Envelope of the documented accuracy; larger orders or arguments are rejected
#: before the recurrence allocates its (order + 1.5 x)-sized work array.
MAX_ORDER = 2000
MAX_ARGUMENT = 1000.0


def _check_argument(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0:
        raise ValueError("x must be >= 0")
    return x


def _row_series(n_max: int, x: float) -> np.ndarray:
    # J_n(x) ~ (x/2)^n / n! * (1 - (x/2)^2 / (n+1)), evaluated in log space.
    out = np.zeros(n_max + 1)
    h = 0.5 * x
    if h == 0.0:
        out[0] = 1.0
        return out
    log_h = math.log(h)
    for n in range(n_max + 1):
        log_term = n * log_h - math.lgamma(n + 1)
        if log_term < -745.0:
            break
        out[n] = math.exp(log_term) * (1.0 - h * h / (n + 1))
    return out


def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """Evaluate J_0(x) .. J_{n_max}(x) in one downward recurrence pass.

    Requires ``n_max <= MAX_ORDER`` and ``x <= MAX_ARGUMENT``.  The returned
    array is read-only; equal arguments may return the same array.
    """
    n_max = check_integer(n_max, "n_max", 0)
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max must be <= {MAX_ORDER}")
    x = _check_argument(x)
    if x > MAX_ARGUMENT:
        raise ValueError(f"x must be <= {MAX_ARGUMENT:g}")
    if x < _SERIES_CUTOFF:
        row = _row_series(n_max, x)
        row.setflags(write=False)
        return row
    return _row_recurrence(n_max, x)


# Eight rows of at most MAX_ORDER + 1 floats (16 KB each) stay resident.
@functools.lru_cache(maxsize=8)
def _row_recurrence(n_max: int, x: float) -> np.ndarray:
    start = n_max + math.ceil(1.5 * x) + _ORDER_MARGIN
    # f[start], f[start - 1], ...; the seed order exceeds x, where J is
    # positive, so the hidden proportionality constant is positive and no
    # sign fix is needed.
    f = [0.0, 1e-30]
    hi, lo = f
    for n in range(start - 1, 0, -1):
        v = (2.0 * n / x) * lo - hi
        if v > _RESCALE_LIMIT or v < -_RESCALE_LIMIT:
            f = [r * _RESCALE for r in f]
            lo *= _RESCALE
            v *= _RESCALE
        f.append(v)
        hi, lo = lo, v
    f.reverse()
    f = np.array(f)
    norm = math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:])))
    row = f[: n_max + 1] / norm
    row.setflags(write=False)
    return row


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer ``n`` (any sign) and ``x >= 0``.

    Absolute error stays below 1e-10 for |n| <= 2000 and x <= 1000; other
    orders and arguments are rejected.
    """
    n = check_integer(n, "n")
    value = float(bessel_j_row(abs(n), x)[abs(n)])
    if n < 0 and n % 2:
        return -value
    return value
