import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jband_sim import propagator, specfun
from jband_sim.experiments import EXPERIMENTS, ExperimentSpec, SweepAxis, run_experiment_outputs
from jband_sim.specfun import (
    _BATCH_CUTOFF,
    _ORDER_MARGIN,
    _SERIES_CUTOFF,
    MAX_ARGUMENT,
    MAX_ORDER,
    _descent,
    _series_row,
    bessel_j,
    bessel_j_row,
    bessel_j_rows,
)

from oracles import bessel_mp, bessel_series

# Frozen from the series/arbitrary-precision oracles.
J1_OF_2 = 0.5767248077568734
J0_OF_2 = 0.22389077914123567


def test_order_zero_at_origin():
    assert bessel_j(0, 0.0) == 1.0


def test_positive_order_at_origin():
    assert bessel_j(5, 0.0) == 0.0


def test_series_value_order_one():
    assert bessel_j(1, 2.0) == pytest.approx(J1_OF_2, abs=1e-12)


def test_row_at_origin():
    assert bessel_j_row(2, 0.0).tolist() == [1.0, 0.0, 0.0]


def test_row_matches_series_values():
    row = bessel_j_row(1, 2.0)
    assert row[0] == pytest.approx(J0_OF_2, abs=1e-12)
    assert row[1] == pytest.approx(J1_OF_2, abs=1e-12)


@pytest.mark.parametrize("n", range(0, 21, 4))
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_against_series_oracle(n, x):
    assert bessel_j(n, x) == pytest.approx(bessel_series(n, x), abs=1e-12)


@pytest.mark.parametrize("n,x", [
    (0, 1000.0), (1, 1000.0), (1500, 1000.0), (2000, 1000.0), (-2000, 1000.0),
    (500, 500.0), (999, 998.5), (2000, 3.0), (123, 0.02), (40, 40.0),
    (0, 1e-9), (3, 1e-9), (7, 0.3),
])
def test_against_arbitrary_precision_oracle(n, x):
    assert bessel_j(n, x) == pytest.approx(bessel_mp(n, x), abs=1e-12)


def test_oracles_agree_with_each_other():
    # Guards the test suite itself: both reference routes match where valid.
    for n, x in [(0, 2.0), (1, 2.0), (5, 7.5), (12, 10.0)]:
        assert bessel_series(n, x) == pytest.approx(bessel_mp(n, x), abs=1e-13)


@given(st.integers(min_value=-300, max_value=300),
       st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
@example(-3, 2.0)
def test_parity_is_exact(n, x):
    sign = -1.0 if (n < 0 and n % 2) else 1.0
    assert bessel_j(n, x) == sign * bessel_j(abs(n), x)


@given(st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
@settings(deadline=None)
def test_closure_identity(x):
    n_max = math.ceil(x) + 40
    row = bessel_j_row(n_max, x)
    total = row[0] ** 2 + 2.0 * float(np.sum(row[1:] ** 2))
    assert abs(total - 1.0) <= 1e-8


@given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
@settings(deadline=None)
def test_second_moment_sum_rule(x):
    # 2 sum_n n^2 J_n(x)^2 = x^2 / 2, with the row long enough to hold the tail.
    row = bessel_j_row(math.ceil(x) + 60, x)
    n = np.arange(len(row))
    moment = 2.0 * float(np.sum(n * n * row * row))
    assert moment == pytest.approx(0.5 * x * x, rel=1e-12, abs=1e-300)


@given(st.integers(min_value=1, max_value=600),
       st.floats(min_value=1.0, max_value=400.0, allow_nan=False))
@settings(deadline=None)
def test_three_term_recurrence_residual(n, x):
    row = bessel_j_row(n + 1, x)
    residual = row[n - 1] + row[n + 1] - (2.0 * n / x) * row[n]
    assert abs(residual) <= 1e-8


@given(st.integers(min_value=0, max_value=400),
       st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
@settings(deadline=None)
def test_magnitude_bound(n, x):
    assert abs(bessel_j(n, x)) <= 1.0 + 1e-12


def test_row_consistent_with_scalar():
    # Both run one descent; bessel_j sums the squares for the norm with
    # math.fsum, the row with numpy's dot.  x = 1e-3 rescales the descent,
    # and x <= 1e-9 takes the series path, where both agree exactly.
    for n in (0, 1, -7, 17, 40, 50, -151, 500, 753, 1000, 2000):
        for x in (0.0, 1e-9, 1e-3, 0.5, 3.0, 37.3, 269.57, 477.5155, 999.9):
            expected = float(bessel_j_row(abs(n), x)[abs(n)]) * (-1 if n < 0 and n % 2 else 1)
            assert abs(bessel_j(n, x) - expected) <= 2 * math.ulp(expected), (n, x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        bessel_j(0, bad)


def test_row_rejects_negative_order():
    with pytest.raises(ValueError):
        bessel_j_row(-1, 1.0)


def test_row_rejects_inputs_beyond_envelope():
    # The documented envelope is |n| <= 2000, x <= 1000; its edges are oracle cases above.
    with pytest.raises(ValueError, match="n_max"):
        bessel_j_row(2001, 1.0)
    with pytest.raises(ValueError, match="x must be"):
        bessel_j_row(10, 1000.5)
    with pytest.raises(ValueError, match="n_max"):
        bessel_j(-2001, 1.0)


def _signed_orders(row, k):
    # J_{-k} = (-1)^k J_k, so any integer order reads from a row of |k|.
    value = row[np.abs(k)]
    return np.where(k % 2 == 1, np.where(k < 0, -value, value), value)


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=500 * 256),
       st.integers(min_value=0, max_value=500 * 256))
@settings(deadline=None)
@example(0, 768, 1152)        # (x, y) = (3, 4.5)
@example(5, 5120, 9600)       # (20, 37.5)
@example(-7, 38400, 53760)    # (150, 210)
@example(100, 128000, 128000)  # (500, 500), the envelope's edge
def test_graf_addition_theorem(n, x256, y256):
    # J_n(x + y) = sum_k J_k(x) J_{n-k}(y) (DLMF 10.23.7).  The recurrence does
    # not satisfy this by construction, so it checks rows across arguments.
    # Multiples of 1/256 keep x + y exact.  Summing to max(x, y) + 100 orders
    # keeps the dropped tail below the tolerance; 60 orders left 2e-13 at
    # x = y = 422.
    x, y = x256 / 256, y256 / 256
    width = math.ceil(max(x, y)) + 100
    k = np.arange(-width, width + 1)
    terms = (_signed_orders(bessel_j_row(width, x), k)
             * _signed_orders(bessel_j_row(width + abs(n), y), n - k))
    assert abs(float(np.sum(terms)) - bessel_j(n, x + y)) <= 1e-14


@pytest.mark.parametrize("n_max,x", [
    (2000, 3.0), (2000, 0.5), (1500, 1e-7), (1000, 1.0), (300, 0.01), (100, 1e-3),
])
def test_rescaled_rows_against_arbitrary_precision_oracle(n_max, x):
    # A small argument overflows the unnormalised descent: x = 1e-7 rescales
    # it twice and x = 1e-3 once, and every rescale must keep the row.  The
    # other descents here start below order 60, too low to overflow.  Every
    # order is checked: those 20 or more below the start relative to the
    # oracle, those nearer it (which lose relative accuracy) within the
    # envelope test's 1e-15 absolute, and those above it are exactly zero.
    row = bessel_j_row(n_max, x)
    start = specfun._start(x)
    for k in range(min(n_max, start) + 1):
        ref = bessel_mp(k, x)
        if k <= start - 20:
            assert row[k] == pytest.approx(ref, rel=1e-12, abs=0)
        else:
            assert abs(row[k] - ref) <= 1e-15
    assert not row[start + 1:].any()


ENVELOPE_ARGUMENTS = [0.0, 1e-300, 5e-9, math.nextafter(_SERIES_CUTOFF, 0.0), _SERIES_CUTOFF, 1e-5,
                      0.02, math.nextafter(_BATCH_CUTOFF, 0.0), _BATCH_CUTOFF, 0.5, 3.0, 11.0846, 37.3,
                      150.0, 477.5155, 750.0, 998.5, MAX_ARGUMENT]


def test_rows_against_the_oracle_over_the_envelope():
    # Rows of every order up to MAX_ORDER, from one batched call, over the
    # arguments of the envelope, series path included: every 100th order, the
    # lowest, those around the turning point n = x and those around the
    # descent's start, above which the row is zero.  The largest error seen
    # is 1.5e-16, against the 1e-10 that bessel_j promises.
    rows = bessel_j_rows([(MAX_ORDER, x) for x in ENVELOPE_ARGUMENTS])
    for x, row in zip(ENVELOPE_ARGUMENTS, rows):
        s = specfun._start(x)
        near = (int(x) - 1, int(x), int(x) + 1, s - 2, s - 1, s, s + 1)
        orders = {*range(0, MAX_ORDER + 1, 100), 1, 2, 3, 7, *(n for n in near if 0 <= n <= MAX_ORDER)}
        for n in sorted(orders):
            assert abs(row[n] - bessel_mp(n, x)) <= 1e-15, (n, x)
        assert x < _SERIES_CUTOFF or not row[s:].any()


@pytest.mark.parametrize("x", [0.0, 1e-9, 2.5, 37.3])
def test_returned_rows_are_read_only(x):
    # Rows may be shared between callers, so a write must fail, not corrupt them.
    first = bessel_j_row(30, x)
    expected = first.copy()
    with pytest.raises(ValueError):
        first[0] = 42.0
    if first.base is not None:  # a view of the history that later rows of x share
        with pytest.raises(ValueError):
            first.base[0] = 42.0
    again = bessel_j_row(30, x)
    assert not again.flags.writeable
    assert np.array_equal(again, expected)


def scalar_row(n_max, x):
    # The one-key row as the scalar descent computes it: the reference that
    # the batched descent must equal bit for bit.
    if x < _SERIES_CUTOFF:
        return np.array(_series_row(n_max, x))
    f = np.array(_descent(x))
    norm = math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:])))
    row = np.zeros(n_max + 1)  # orders above the start are zero
    m = min(n_max + 1, len(f))
    row[:m] = f[:m] / norm
    return row


def assert_rows_bit_exact(keys):
    rows = list(bessel_j_rows(keys))
    assert len(rows) == len(keys)
    for (n_max, x), row in zip(keys, rows):
        assert not row.flags.writeable
        assert np.array_equal(row, scalar_row(n_max, x)), (n_max, x)


ARGUMENTS = st.one_of(
    st.sampled_from([0.0, math.nextafter(_SERIES_CUTOFF, 0.0), _SERIES_CUTOFF,
                     math.nextafter(_BATCH_CUTOFF, 0.0), _BATCH_CUTOFF, MAX_ARGUMENT]),
    st.floats(min_value=-8.0, max_value=3.0).map(lambda e: min(10.0 ** e, MAX_ARGUMENT)),
)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=MAX_ORDER), ARGUMENTS),
                min_size=1, max_size=8)
       .flatmap(lambda keys: st.permutations(keys + keys[: len(keys) // 2])))
@settings(deadline=None, max_examples=40)
@example([(7, 2.5)])
@example([(0, 0.0), (0, _SERIES_CUTOFF), (0, MAX_ARGUMENT)])
# Small arguments at large orders, which take the scalar descent, beside
# batched ones; x = 1e-7 rescales the descent twice.
@example([(2000, 1e-8), (2000, 3.0), (1500, 1e-7), (2000, 1e-8), (300, 0.01), (2000, 1000.0)])
# Either side of the batch cutoff, below which the scalar descent takes over.
@example([(2000, math.nextafter(0.1, 0)), (2000, 0.1)])
# Keys of one x share its descent (start 55 at x = 2), below and above its start.
@example([(n, 2.0) for n in range(0, 100, 3)])
def test_batched_rows_equal_the_scalar_descent(keys):
    assert_rows_bit_exact(keys)


@given(st.integers(min_value=0, max_value=MAX_ORDER), st.integers(min_value=0, max_value=MAX_ORDER),
       ARGUMENTS)
@settings(deadline=None, max_examples=40)
@example(0, MAX_ORDER, MAX_ARGUMENT)
@example(40, 1000, 2.0)
@example(3, 2000, 1e-9)
def test_rows_of_one_argument_are_prefixes_of_each_other(n, m, x):
    # One normalised history per x: a row for fewer orders is the start of
    # the row for more, bit for bit, also past the descent's start.
    short, long = bessel_j_row(min(n, m), x), bessel_j_row(max(n, m), x)
    assert short.tobytes() == long[: len(short)].tobytes()


@pytest.mark.parametrize("columns,steps", [(1, 8), (3, 16), (7, 32), (5, _ORDER_MARGIN),
                                           (4, 100), (3, 200)])
def test_batched_rows_do_not_depend_on_the_batch_constants(columns, steps, monkeypatch):
    # A float budget of `columns` columns of `steps` steps.  Under two
    # columns of the shortest batched descent's 44 steps every batch has one
    # column; above that, batches of several columns whose starts differ, and
    # columns that step on past order 0 while a longer one finishes.
    monkeypatch.setattr(specfun, "_BATCH_FLOATS", columns * steps)
    rng = random.Random(columns)
    keys = [(rng.randint(0, MAX_ORDER), min(10.0 ** rng.uniform(-9.0, 3.0), MAX_ARGUMENT))
            for _ in range(14)]
    assert_rows_bit_exact(keys + [(MAX_ORDER, MAX_ARGUMENT), (0, 1e-8), keys[3]])


def bracket_floors():
    """``_BATCH_CUTOFF`` and the smallest x of each higher ``_start`` up to ``MAX_ARGUMENT``."""
    xs = [_BATCH_CUTOFF]
    for k in range(specfun._start(_BATCH_CUTOFF) + 1, specfun._start(MAX_ARGUMENT) + 1):
        lo, hi = xs[-1], MAX_ARGUMENT  # _start(lo) < k <= _start(hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if specfun._start(mid) >= k else (mid, hi)
        xs.append(hi)
    return xs


def test_batched_descents_stay_far_from_the_rescale_limit():
    # The batched descent has no rescale, so every descent it takes must stay
    # finite and far under _RESCALE_LIMIT = 1e130.  A descent of start s
    # peaks near 1e-30 max|J_n(x)| / J_{s-1}(x), and J_{s-1}(x) grows with x
    # below the turning point, so in each _start bracket its smallest x peaks
    # highest.  The largest peak, 10^81.6 at x = 0.1, is 48 orders under the
    # limit; the test asks for 30.
    xs = bracket_floors()
    assert len(xs) == specfun._start(MAX_ARGUMENT) - specfun._start(_BATCH_CUTOFF) + 1
    for x, f in zip(xs, specfun._histories(xs), strict=True):
        assert np.isfinite(f).all(), x
        assert np.abs(f).max() < 1e100, x


def test_batch_constants_fit_every_descent():
    # Rows are exact at any budget; it bounds the work.  A descent from start
    # s takes s - 1 steps.  The shortest batched one starts at 45 and the
    # longest, at the largest argument, at 1 140 (3 540 when the start
    # followed n_max); the budget holds 57 columns of the longest, so no
    # default batch exceeds it and the longest descents still step many
    # columns together.
    assert specfun._start(_BATCH_CUTOFF) == _ORDER_MARGIN + 5
    longest = specfun._start(MAX_ARGUMENT)
    assert longest == 1140
    assert specfun._BATCH_FLOATS // (longest - 1) == 57


# Long-row custom sweeps shaped like the benchmark's wide_window workload.
WIDE_WINDOW_SPECS = [
    ExperimentSpec("custom", {"N": 2000, "c": 60.0}, SweepAxis("t", 0.0, 15.0, 0.075)),
    ExperimentSpec("custom", {"N": 1000, "t": 10.0}, SweepAxis("c", 1.0, 90.0, 0.47)),
]


def study_keys(specs, monkeypatch):
    """The keys of every ``bessel_j_rows`` call the studies ``specs`` make, as they hand them."""
    calls = []

    def rows(keys):
        calls.append(list(keys))
        return bessel_j_rows(calls[-1])

    monkeypatch.setattr(propagator, "bessel_j_rows", rows)
    for spec in specs:
        run_experiment_outputs(spec)
    return calls


def batch_tables(monkeypatch):
    """The ``(steps, starts)`` of every step table the batched descents build, as they build them."""
    tables, coefficients = [], specfun._coefficients

    def table(n, x, steps):
        tables.append((steps, (n + 1).tolist()))
        return coefficients(n, x, steps)

    monkeypatch.setattr(specfun, "_coefficients", table)
    return tables


def test_study_batches_equal_the_scalar_descent(monkeypatch):
    # Full batches at the default budget, on the keys the sweeps really hand
    # over: the ten bundled studies (fig1a's 603 keys, 201 distinct c t, take
    # two batches and fig2c's 451 three) and two long-row custom sweeps.
    specs = [ExperimentSpec(name) for name in sorted(EXPERIMENTS.keys() - {"custom"})]
    calls = study_keys(specs + WIDE_WINDOW_SPECS, monkeypatch)
    tables = batch_tables(monkeypatch)
    batches = []
    for keys in calls:
        tables.clear()
        assert_rows_bit_exact(keys)
        batches.append(len(tables))
    assert max(batches) > 2


def test_batch_tables_fit_the_float_budget(monkeypatch):
    # Every step table holds at most _BATCH_FLOATS floats, or one column, and
    # steps as far as its longest column.  A batch takes consecutive columns
    # and closes only when the next column would not fit.  Closing early
    # keeps the bits, so only this test sees it.
    calls = study_keys(WIDE_WINDOW_SPECS, monkeypatch)
    tables = batch_tables(monkeypatch)
    for budget in (specfun._BATCH_FLOATS, 5000, 1):
        monkeypatch.setattr(specfun, "_BATCH_FLOATS", budget)
        widths = []
        for keys in calls:
            tables.clear()
            list(bessel_j_rows(keys))
            assert [s for _, starts in tables for s in starts] == \
                [specfun._start(x) for x in dict.fromkeys(x for _, x in keys if x >= _BATCH_CUTOFF)]
            for k, (steps, starts) in enumerate(tables):
                assert starts and steps == max(starts) - 1
                assert len(starts) == 1 or len(starts) * steps <= budget
                if k + 1 < len(tables):
                    assert (len(starts) + 1) * (max(steps + 1, tables[k + 1][1][0]) - 1) > budget
            widths += [len(starts) for _, starts in tables]
        assert (max(widths) > 1) == (budget > 1)


def test_one_key_calls_check_their_key():
    # bessel_j_rows takes keys its caller has checked; the one-key calls check their own.
    for n, x, message in [(10, -1.0, "x must be >= 0"), (10, math.nan, "x must be finite"),
                          (10, math.nextafter(MAX_ARGUMENT, math.inf), "x must be <= 1000"),
                          (MAX_ORDER + 1, 1.0, "n_max must be <= 2000")]:
        for call in (bessel_j_row, bessel_j):
            with pytest.raises(ValueError, match=message):
                call(n, x)
    assert list(bessel_j_rows([])) == []
