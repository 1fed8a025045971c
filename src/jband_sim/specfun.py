"""Integer-order Bessel functions of the first kind.

The propagator only ever needs J_n at integer order and nonnegative argument,
so this module implements exactly that: Miller's downward recurrence,
normalised through the sum-of-squares identity

    J_0(x)^2 + 2 * sum_{n>=1} J_n(x)^2 = 1,

which stays stable for the large orders (hundreds) and large arguments
(several hundred) that full-window sweeps require.  The recurrence runs on
Python floats, which round exactly as numpy's float64 does.

One descent serves both entry points; they differ only in how they sum the
squares for the norm.  ``bessel_j_row``, which the sweeps build their tables
from, sums them with numpy's ``dot``.  ``bessel_j``, and the one-point
profile of ``propagator``, sum the same squares with ``math.fsum`` and never
load numpy; a value lies within 2 ulp of the row's entry for that order.

All functions are pure and keep no state between calls; every row returned is
a new read-only array.  Callers that need one row for several points, such as
curves that differ only in the dressing ``a`` or the decoherence ``b``, ask
for it once and share it themselves.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import check_integer

if TYPE_CHECKING:
    import numpy as np

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


def _series_term(n: int, x: float) -> float:
    # J_n(x) ~ (x/2)^n / n! * (1 - (x/2)^2 / (n+1)), evaluated in log space.
    # The log term falls with n, so once it underflows every higher order does.
    h = 0.5 * x
    if h == 0.0:
        return 1.0 if n == 0 else 0.0
    log_term = n * math.log(h) - math.lgamma(n + 1)
    if log_term < -745.0:
        return 0.0
    return math.exp(log_term) * (1.0 - h * h / (n + 1))


def _descent(n_max: int, x: float) -> list[float]:
    """Unnormalised J_0(x), J_1(x), ... from a recurrence started well above ``n_max``."""
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
    return f


def _check_row(n_max: int, x: float) -> tuple[int, float]:
    """``(n_max, x)`` as ``(int, float)``; ``ValueError`` outside the envelope."""
    n_max = check_integer(n_max, "n_max", 0)
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max must be <= {MAX_ORDER}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x > MAX_ARGUMENT:
        raise ValueError(f"x must be <= {MAX_ARGUMENT:g}")
    return n_max, x


def _series_row(n_max: int, x: float) -> list[float]:
    """J_0(x) .. J_{n_max}(x) of checked ``x < _SERIES_CUTOFF`` by the two-term series."""
    row = [0.0] * (n_max + 1)
    for n in range(n_max + 1):
        term = _series_term(n, x)
        if term == 0.0:
            break
        row[n] = term
    return row


def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """Evaluate J_0(x) .. J_{n_max}(x) in one downward recurrence pass.

    Requires ``n_max <= MAX_ORDER`` and ``x <= MAX_ARGUMENT``.  The returned
    array is read-only.
    """
    import numpy as np

    n_max, x = _check_row(n_max, x)
    if x < _SERIES_CUTOFF:
        row = np.array(_series_row(n_max, x))
    else:
        f = np.array(_descent(n_max, x))
        # np.dot, not math.fsum as in _fsum_row: on a 2-vCPU Xeon it normalises
        # a 2 391-term row in 102 us against 252-287 us, and fsum would add
        # about 24 ms to a pass over the ten bundled studies.
        norm = math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:])))
        row = f[: n_max + 1] / norm
    row.setflags(write=False)
    return row


def _fsum_row(n_max: int, x: float) -> list[float]:
    """J_0(x) .. J_{n_max}(x) of checked arguments as floats; the norm sums with ``math.fsum``."""
    if x < _SERIES_CUTOFF:
        return _series_row(n_max, x)
    f = _descent(n_max, x)
    norm = math.sqrt(f[0] * f[0] + 2.0 * math.fsum(v * v for v in f[1:]))
    return [v / norm for v in f[: n_max + 1]]


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer ``n`` (any sign) and ``x >= 0``.

    Absolute error stays below 1e-10 for |n| <= 2000 and x <= 1000; other
    orders and arguments are rejected.
    """
    n = check_integer(n, "n")
    order, x = _check_row(abs(n), x)
    value = _fsum_row(order, x)[order]
    if n < 0 and n % 2:
        return -value
    return value
