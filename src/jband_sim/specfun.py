"""Integer-order Bessel functions of the first kind.

The propagator only ever needs J_n at integer order and nonnegative argument,
so this module implements exactly that: Miller's downward recurrence,
normalised through the sum-of-squares identity

    J_0(x)^2 + 2 * sum_{n>=1} J_n(x)^2 = 1,

which stays stable for the large orders (hundreds) and large arguments
(several hundred) that full-window sweeps require.

The recurrence has two implementations, which do the same float operations
in the same order.  ``bessel_j``, and the one-point profile of
``propagator``, run it on Python floats, sum the squares for the norm with
``math.fsum`` and never load numpy.  ``bessel_j_rows``, which the sweeps
take all their rows from, steps the descents of many ``(n_max, x)`` keys
together as numpy vectors; numpy's float64 rounds each operation as Python
floats do.  It sums the squares with numpy's ``dot``, and its rows equal
``bessel_j_row``, its one-key case, bit for bit.  A ``bessel_j`` value lies
within 2 ulp of the row's entry for that order.  ``bessel_j`` and
``bessel_j_row`` check their key; ``bessel_j_rows`` takes checked keys.

All functions are pure and keep no state between calls; every row returned is
a new read-only array.  Callers that need one row for several points, such as
curves that differ only in the dressing ``a`` or the decoherence ``b``, ask
for it once and share it themselves.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

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
# Batched descents: a forward pass steps up to _BATCH_COLUMNS columns in whole
# segments of _CHECKPOINT_STEPS steps, no more than the shortest descent takes,
# so that no segment steps far past order 0, and keeps their state before each
# segment; a replay group recomputes up to _BATCH_COLUMNS segments, which hold
# the longest column.
_BATCH_COLUMNS = 256
_CHECKPOINT_STEPS = 32


def _start(n_max: int, x: float) -> int:
    """The order a descent for J_0(x) .. J_{n_max}(x) starts from."""
    return n_max + math.ceil(1.5 * x) + _ORDER_MARGIN


def _descent(n_max: int, x: float) -> list[float]:
    """Unnormalised J_0(x), J_1(x), ... from a recurrence started well above ``n_max``."""
    # f[start], f[start - 1], ...; the seed order exceeds x, where J is
    # positive, so the hidden proportionality constant is positive and no
    # sign fix is needed.
    f = [0.0, 1e-30]
    hi, lo = f
    for n in range(_start(n_max, x) - 1, 0, -1):
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

    The keys must have passed ``_check_row``, which is not run again.  Each
    row equals the one-key row bit for bit, but the descents of up to
    ``_BATCH_COLUMNS`` keys step together as numpy vectors: every key of a
    batch that takes the descent is a column of ``_histories``, in key
    order, and its row is its history normalised.  The working arrays stay
    within a size the module constants fix, whatever the number of keys.
    """
    import numpy as np

    keys = list(keys)
    for lo in range(0, len(keys), _BATCH_COLUMNS):
        batch = keys[lo:lo + _BATCH_COLUMNS]
        # A generator: a batch without descent keys never starts it.
        histories = _histories([_start(n_max, x) for n_max, x in batch if x >= _SERIES_CUTOFF],
                               np.array([x for _, x in batch if x >= _SERIES_CUTOFF]))
        for n_max, x in batch:
            if x < _SERIES_CUTOFF:
                row = np.array(_series_row(n_max, x))
            else:
                f = next(histories)
                # np.dot, not math.fsum as in _fsum_row: on a 2-vCPU Xeon it
                # normalises a 2 391-term row in 102 us against 252-287 us.
                # f is contiguous: a strided dot would round differently.
                norm = math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:])))
                row = f[:n_max + 1] / norm
            row.setflags(write=False)
            yield row


def _coefficients(n: np.ndarray, x: np.ndarray, steps: int) -> np.ndarray:
    """The factors ``(2.0 * n) / x`` of ``steps`` steps down from orders ``n``; 0 once n <= 0."""
    import numpy as np

    coef = 2.0 * n - 2.0 * np.arange(steps)[:, None]  # 2 n, exact
    np.maximum(coef, 0.0, out=coef)
    return np.divide(coef, x, out=coef)


def _histories(starts: list[int], x: np.ndarray) -> Iterator[np.ndarray]:
    """The unnormalised histories f[0 .. s] of columns of starts ``starts``, in order.

    Step i of a column of start s computes order s - 2 - i with the scalar
    descent's operations: numpy rounds each elementwise operation as Python
    floats do and fuses none.  A forward pass steps all columns from their
    seeds together, in segments of B = ``_CHECKPOINT_STEPS`` steps, until
    the longest column's last segment ends; past order 0 a column steps on
    with factor 0, which keeps its values within the rescale limit.  It
    keeps only every column's ``(hi, lo)`` before each segment, and the
    steps at which each column was rescaled.  Replays then recompute the
    histories a group of consecutive columns at a time, as many as hold
    ``_BATCH_COLUMNS`` segments or fewer, and at least one: all segments of
    a group in parallel, each from its checkpoint, with each rescale event
    in the one segment that holds its step.  A replay builds its step table only once the forward pass's
    last table, or the previous group's, has gone.  Each history is a new
    contiguous array.
    """
    import numpy as np

    B = _CHECKPOINT_STEPS
    segments = [-(-(s - 1) // B) for s in starts]  # a column of start s takes s - 1 steps
    n = np.array(starts) - 1
    state = np.empty((2, max(segments), len(starts)))
    hi, lo = np.zeros(len(starts)), np.full(len(starts), 1e-30)
    events: list[list[int]] = [[] for _ in starts]
    limit = _RESCALE_LIMIT * _RESCALE_LIMIT
    for q in range(state.shape[1]):
        state[0, q], state[1, q] = hi, lo
        # Each row of factors becomes the values of its step.
        for i, v in enumerate(_coefficients(n - q * B, x, B), q * B):
            np.multiply(v, lo, v)
            np.subtract(v, hi, v)
            hi, lo = lo, v
            # No |v| passes the limit unless v . v does, and that costs one call.
            if v.dot(v) >= limit:
                for p in (np.abs(v) > _RESCALE_LIMIT).nonzero()[0].tolist():
                    v[p] *= _RESCALE
                    hi[p] *= _RESCALE
                    events[p].append(i)
    del hi, lo, v  # the last table goes before the replays build theirs
    end = 0  # the first column no group has taken
    while end < len(starts):
        group: list[tuple[int, int]] = []  # its columns, each with its first lane
        cols: list[int] = []  # per lane: its column and its segment
        segs: list[int] = []
        rescaled: dict[int, list[int]] = {}  # step in segment -> lanes rescaled at it
        while end < len(starts) and (not cols or len(cols) + segments[end] <= _BATCH_COLUMNS):
            group.append((end, len(cols)))
            for i in events[end]:
                rescaled.setdefault(i % B, []).append(len(cols) + i // B)
            cols += [end] * segments[end]
            segs += range(segments[end])
            end += 1
        column, segment = np.array(cols), np.array(segs)
        hi, lo = state[:, segment, column]
        # Each row of factors becomes the values of its step.
        values = _coefficients(n[column] - B * segment, x[column], B)
        for i, v in enumerate(values):
            np.multiply(v, lo, v)
            np.subtract(v, hi, v)
            hi = lo
            if i in rescaled:
                hi = lo.copy()
                for r in rescaled[i]:
                    v[r] *= _RESCALE
                    hi[r] *= _RESCALE
            lo = v
        for p, at in group:
            s = starts[p]
            # Orders ascending: the column's steps, one segment after another, reversed.
            f = np.empty(s + 1)
            f[s - 2::-1] = values[:, at:at + segments[p]].T.ravel()[:s - 1]
            f[s - 1:] = 1e-30, 0.0
            # The scalar descent rescales order n - 1 as it computes it, at
            # n = s - 1 - i, and every order it holds by then, n up, with it.
            for i in events[p]:
                f[s - 1 - i:] *= _RESCALE
            yield f
        del values, hi, lo, v  # before the next group builds its table


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
