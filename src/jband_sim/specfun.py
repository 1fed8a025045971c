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
from itertools import chain
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
# Batched descents: a forward pass steps up to _BATCH_COLUMNS columns and keeps
# their state every _CHECKPOINT_STEPS steps, no more than the shortest descent
# takes; a replay group recomputes up to _BATCH_COLUMNS segments of that many
# steps, which hold the longest column.
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
    batch that takes the descent is a column.  A forward pass steps all
    columns together and keeps only each column's state every
    ``_CHECKPOINT_STEPS`` steps, and the steps at which it was rescaled.
    Replays then recompute the columns' histories from those checkpoints, a
    group of consecutive columns at a time, as the rows are asked for.  The
    working arrays stay within a size the module constants fix, whatever the
    number of keys.
    """
    import numpy as np

    keys = list(keys)
    for lo in range(0, len(keys), _BATCH_COLUMNS):
        batch = keys[lo:lo + _BATCH_COLUMNS]
        # Columns by descending start, so those descending at any step are a prefix.
        cols = sorted((j for j, (_, x) in enumerate(batch) if x >= _SERIES_CUTOFF),
                      key=lambda j: -_start(*batch[j]))
        if cols:
            starts = [_start(*batch[j]) for j in cols]
            xs = [batch[j][1] for j in cols]
            # In key order, column p owns the replay segments from first[p] on,
            # and a group takes columns while they own _BATCH_COLUMNS or fewer.
            first = [0] * len(cols)
            groups: list[list[int]] = []
            total = 0
            for p in sorted(range(len(cols)), key=cols.__getitem__):
                first[p] = total
                total += (starts[p] - 1) // _CHECKPOINT_STEPS + 1
                if not groups or total - first[groups[-1][0]] > _BATCH_COLUMNS:
                    groups.append([])
                groups[-1].append(p)
            state, events = _forward(starts, np.array(xs), first, total)
            histories = chain.from_iterable(_replay(group, starts, xs, first, state, events)
                                            for group in groups)
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


def _forward(starts: list[int], x: np.ndarray, first: list[int], total: int
             ) -> tuple[np.ndarray, list[list[int]]]:
    """Step the columns of descending ``starts`` together; keep their checkpoints.

    Each column is held at its seeds until the shared loop reaches its own
    start, and sees exactly the scalar descent's operations: numpy rounds
    each elementwise operation as Python floats do and fuses none.  Returns
    the ``(hi, lo)`` each replay segment starts from, and the steps at which
    each column was rescaled.  A column of start s owns the (s - 1) // B + 1
    segments from ``first[p]`` on: segment q < (s - 1) // B starts before
    step (q + 1) B, and the last one from the seeds.
    """
    import numpy as np

    B = _CHECKPOINT_STEPS
    w = len(starts)
    hi, lo, c = np.zeros(w), np.zeros(w), np.zeros(w)
    segments = np.array(first)
    state = np.zeros((2, total))
    state[1, [f + (s - 1) // B for f, s in zip(first, starts)]] = 1e-30
    events: list[list[int]] = [[] for _ in range(w)]
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    limit = _RESCALE_LIMIT * _RESCALE_LIMIT
    k = 0  # columns [0, k) have started
    for n in range(starts[0] - 1, 0, -1):
        if k < w and starts[k] > n:
            k0 = k
            while k < w and starts[k] > n:
                k += 1
            hi[k0:k] = 0.0
            lo[k0:k] = 1e-30
            xk, ck, hk, lk = x[:k], c[:k], hi[:k], lo[:k]
        if n % B == 0:
            at = segments[:k] + (n // B - 1)
            state[0, at] = hk
            state[1, at] = lk
        divide(2.0 * n, xk, ck)
        multiply(ck, lk, ck)
        subtract(ck, hk, hk)
        hi, lo, hk, lk = lo, hi, lk, hk
        # No |v| passes the limit unless v . v does, and that costs one call.
        if lk.dot(lk) >= limit:
            for p in (np.abs(lk, ck) > _RESCALE_LIMIT).nonzero()[0].tolist():
                lk[p] *= _RESCALE
                hk[p] *= _RESCALE
                events[p].append(n)
    return state, events


def _replay(group, starts, xs, first, state, events) -> Iterator[np.ndarray]:
    """The unnormalised histories f[0 .. s] of the columns of one group, in order.

    All segments run their ``_CHECKPOINT_STEPS`` steps in parallel.  A column
    of start s owns Q + 1 consecutive segments, Q = (s - 1) // B: the first Q
    replay orders 0 .. QB - 1 from its checkpoints, and the last runs from
    its seeds and supplies orders QB .. s - 2, the first (s - 1) % B of its
    steps.  Each history is a new contiguous array.
    """
    import numpy as np

    B = _CHECKPOINT_STEPS
    offset = first[group[0]]
    firsts: list[int] = []  # per segment: the step it starts with, and x
    x: list[float] = []
    rescaled: dict[int, list[int]] = {}  # step -> segments rescaled at it
    for g in group:
        start, q = starts[g], (starts[g] - 1) // B
        base = first[g] - offset
        firsts += [*range(B, (q + 1) * B, B), start - 1]
        x += [xs[g]] * (q + 1)
        # The seed segment steps on past order QB; its rescales there keep
        # those discarded values finite.
        for n in events[g]:
            if n <= q * B:
                rescaled.setdefault(-n % B, []).append(base + (n - 1) // B)
            if n > start - 1 - B:
                rescaled.setdefault(start - 1 - n, []).append(base + q)
    two_n, x = 2.0 * np.array(firsts, dtype=float), np.array(x)
    hi, lo = state[:, offset:offset + len(firsts)]
    steps, coef = np.empty((B, len(firsts))), np.empty(len(firsts))
    for i in range(B):
        v = steps[i]
        np.subtract(two_n, 2.0 * i, coef)  # 2 n, exact
        np.divide(coef, x, coef)
        np.multiply(coef, lo, v)
        np.subtract(v, hi, v)
        hi = lo
        if i in rescaled:
            hi = lo.copy()
            for r in rescaled[i]:
                v[r] *= _RESCALE
                hi[r] *= _RESCALE
        lo = v
    for g in group:
        start, q = starts[g], (starts[g] - 1) // B
        base = first[g] - offset
        # Orders ascending: each segment's steps reversed, one after another.
        f = np.empty(start + 1)
        f[:q * B] = steps[::-1, base:base + q].T.ravel()
        f[q * B:start - 1] = steps[:start - 1 - q * B, base + q][::-1]
        f[start - 1] = 1e-30
        f[start] = 0.0
        # The scalar descent rescales order n - 1 as it computes it at step n,
        # and every order it holds by then, n up, with it.
        for n in events[g]:
            f[n:] *= _RESCALE
        yield f


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
