"""Integer-order Bessel functions of the first kind.

The propagator only ever needs J_n at integer order and nonnegative argument,
so this module implements exactly that: Miller's downward recurrence,
normalised through the sum-of-squares identity

    J_0(x)^2 + 2 * sum_{n>=1} J_n(x)^2 = 1,

which stays stable for the large orders (hundreds) and large arguments
(several hundred) that full-window sweeps require.

A descent for argument x starts at ``_start(x)``, a little above the Airy
transition region past order x, whatever the orders asked for, so the row of
any ``n_max`` at one x is a prefix of that x's one normalised history; its
orders above the start are zero.  The recurrence has two implementations,
which do the same float operations in the same order.  ``_descent`` runs it
on Python floats and rescales the unnormalised values before they can
overflow; ``bessel_j`` and the one-point profile of ``propagator`` sum its
squares for the norm with ``math.fsum`` and never load numpy.
``bessel_j_rows``, which the sweeps take all their rows from, descends each
distinct x of its ``(n_max, x)`` keys once: below x = 0.1 with ``_descent``,
at or above it many descents together as the columns of numpy vectors,
whose float64 rounds each operation as Python floats do.  The batched
descents never rescale: they peak at 10^81.6, 48 orders of magnitude under
the limit.  It sums the squares with numpy's ``dot``, and its rows equal
``bessel_j_row``, its one-key case, bit for bit.  A ``bessel_j`` value lies
within 2 ulp of the row's entry for that order.  Below x = 1e-8 both take a
two-term series.  ``bessel_j`` and ``bessel_j_row`` check their key;
``bessel_j_rows`` takes checked keys.

All functions are pure and keep no state between calls; every row returned is
read-only.  The rows of one x from one ``bessel_j_rows`` call view its one
history, so callers ask for one key per point and share nothing themselves.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import check_integer

if TYPE_CHECKING:
    import numpy as np

# Start the descent this far above the Airy transition region, past which
# J_n(x) falls off faster than exponentially in n; the margin keeps the
# truncation contamination far below the 1e-10 accuracy target.
_ORDER_MARGIN = 40
# The scalar descent rescales its unnormalised values before their squares overflow.
_RESCALE_LIMIT = 1e130
_RESCALE = 1e-130
# Below this argument a two-term power series is exact to double precision.
_SERIES_CUTOFF = 1e-8
# Below this argument a row's history is the scalar descent's, which owns the
# rescale; it is still normalised with np.dot (math.fsum's norm differs by an
# ulp at about 1 x in 5 000 of (0.001, 0.1)).  At or above it the descent
# peaks at 10^81.6 (at x = 0.1), far under ``_RESCALE_LIMIT``, so the batched
# descent needs none; the largest argument whose descent rescales is ~0.004.
_BATCH_CUTOFF = 0.1
#: Envelope of the documented accuracy; larger orders or arguments are rejected.
MAX_ORDER = 2000
MAX_ARGUMENT = 1000.0
# A batched descent's step table holds at most this many floats (and at least
# one column): 512 KiB, whatever the number of keys.
_BATCH_FLOATS = 2**16


def _start(x: float) -> int:
    """The order a descent for J_0(x), J_1(x), ... starts from.

    It lies ``_ORDER_MARGIN`` orders above ``x + 10 x^(1/3)``, about 12
    widths (x/2)^(1/3) of the Airy transition region past the turning point
    n = x (DLMF 10.19(iii)); every J_n(x) above it is negligible.  It does
    not depend on the orders asked for.
    """
    return math.ceil(x + 10.0 * x ** (1.0 / 3.0)) + _ORDER_MARGIN


def _descent(x: float) -> list[float]:
    """Unnormalised J_0(x) .. J_s(x) of a recurrence started at s = ``_start(x)``."""
    # f[start], f[start - 1], ...; the seed order exceeds x, where J is
    # positive, so the hidden proportionality constant is positive and no
    # sign fix is needed.
    f = [0.0, 1e-30]
    hi, lo = f
    for n in range(_start(x) - 1, 0, -1):
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
    h = 0.5 * x
    if h == 0.0:
        row[0] = 1.0
        return row
    # J_n(x) ~ (x/2)^n / n! * (1 - (x/2)^2 / (n+1)), evaluated in log space.
    # The log term falls with n, so once it underflows every higher order does.
    for n in range(n_max + 1):
        log_term = n * math.log(h) - math.lgamma(n + 1)
        if log_term < -745.0:
            break
        row[n] = math.exp(log_term) * (1.0 - h * h / (n + 1))
    return row


def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """Evaluate J_0(x) .. J_{n_max}(x) in one downward recurrence pass.

    Requires ``n_max <= MAX_ORDER`` and ``x <= MAX_ARGUMENT``.  The returned
    array is read-only.
    """
    return next(bessel_j_rows([_check_row(n_max, x)]))


def bessel_j_rows(keys: Iterable[tuple[int, float]]) -> Iterator[np.ndarray]:
    """``bessel_j_row(n_max, x)`` for each ``(n_max, x)`` of ``keys``, in order.

    The keys must lie in the envelope ``_check_row`` checks, which is not
    run again.  Each distinct ``x`` that takes the descent is descended
    once, in order of first use: by the scalar ``_descent`` below
    ``_BATCH_CUTOFF``, else by ``_histories``.  Its history is normalised
    once, in place, made read-only and kept until the last key of that
    ``x`` has taken its row: the view of its first ``n_max + 1`` orders,
    or a zero-padded copy where ``n_max`` reaches past the start.  Each
    row equals the one-key row bit for bit.
    """
    import numpy as np

    keys = list(keys)
    # Each descended x, in order of first use, with the number of its keys still to come.
    pending = Counter(x for _, x in keys if x >= _SERIES_CUTOFF)
    histories = _histories([x for x in pending if x >= _BATCH_CUTOFF])
    held: dict[float, np.ndarray] = {}
    for n_max, x in keys:
        if x < _SERIES_CUTOFF:
            row = np.array(_series_row(n_max, x))
        else:
            if x not in held:
                f = next(histories) if x >= _BATCH_CUTOFF else np.array(_descent(x))
                # np.dot, not math.fsum as in _fsum_row: on a 2-vCPU Xeon it
                # normalises a 2 391-term row in 102 us against 252-287 us.
                # f is contiguous: a strided dot would round differently.
                np.divide(f, math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:]))), out=f)
                f.setflags(write=False)
                held[x] = f
            pending[x] -= 1
            f = held[x] if pending[x] else held.pop(x)
            # Orders above the start are zero.
            row = f[:n_max + 1] if n_max < len(f) else np.concatenate((f, np.zeros(n_max + 1 - len(f))))
        row.setflags(write=False)
        yield row


def _coefficients(n: np.ndarray, x: np.ndarray, steps: int) -> np.ndarray:
    """The factors ``(2.0 * n) / x`` of ``steps`` steps down from orders ``n``; 0 once n <= 0."""
    import numpy as np

    coef = 2.0 * n - 2.0 * np.arange(steps)[:, None]  # 2 n, exact
    np.maximum(coef, 0.0, out=coef)
    return np.divide(coef, x, out=coef)


def _histories(xs: list[float]) -> Iterator[np.ndarray]:
    """The unnormalised histories ``_descent(x)`` of arguments ``xs >= _BATCH_CUTOFF``, in order.

    Consecutive arguments descend together as the columns of one batch, as
    many as fit ``_BATCH_FLOATS`` floats at the batch's longest start, and
    at least one.  Step i of a column of start s computes order s - 2 - i
    with the scalar descent's operations, in place over row i of the batch's
    factor table: numpy rounds each elementwise operation as Python floats
    do and fuses none.  Past order 0 a column steps on with factor 0, which
    only negates values it already holds.  No column ever rescales (see
    ``_BATCH_CUTOFF``), so its history is its steps reversed.  The histories
    are yielded one at a time, each a new contiguous array, while the table
    lives.
    """
    import numpy as np

    end = 0
    while end < len(xs):
        batch: list[int] = []  # its columns' starts; a column of start s takes s - 1 steps
        longest = 0
        while end < len(xs):
            s = _start(xs[end])
            if batch and (len(batch) + 1) * (max(longest, s) - 1) > _BATCH_FLOATS:
                break
            batch.append(s)
            longest = max(longest, s)
            end += 1
        table = _coefficients(np.array(batch) - 1, np.array(xs[end - len(batch):end]), longest - 1)
        hi, lo = np.zeros(len(batch)), np.full(len(batch), 1e-30)
        # Each row of factors becomes the values of its step.
        for v in table:
            np.multiply(v, lo, v)
            np.subtract(v, hi, v)
            hi, lo = lo, v
        for p, s in enumerate(batch):
            # Orders ascending: the column's steps, reversed, then its seeds.
            f = np.empty(s + 1)
            f[s - 2::-1] = table[:s - 1, p]
            f[s - 1:] = 1e-30, 0.0
            yield f
        del table, hi, lo, v  # the table and its views, before the next batch builds its own


def _fsum_row(n_max: int, x: float) -> list[float]:
    """J_0(x) .. J_{n_max}(x) of checked arguments as floats; the norm sums with ``math.fsum``."""
    if x < _SERIES_CUTOFF:
        return _series_row(n_max, x)
    f = _descent(x)
    norm = math.sqrt(f[0] * f[0] + 2.0 * math.fsum(v * v for v in f[1:]))
    # Orders above the start are zero.
    return [v / norm for v in f[: n_max + 1]] + [0.0] * (n_max + 1 - len(f))


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
