import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jband_sim import propagator, specfun
from jband_sim.experiments import EXPERIMENTS, ExperimentSpec, SweepAxis, run_experiment_outputs
from jband_sim.specfun import (
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
    # math.fsum, the row with numpy's dot.  Orders 500-2000 at x <= 3 rescale
    # the descent, and x <= 1e-9 takes the series path, where both agree exactly.
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
    # A small argument with many orders overflows the unnormalised descent
    # several times (5 to 118 rescales here); every rescale must keep the row.
    row = bessel_j_row(n_max, x)
    for k in range(0, n_max + 1, max(1, n_max // 40)):
        ref = bessel_mp(k, x)
        if abs(ref) > 1e-280:
            assert row[k] == pytest.approx(ref, rel=1e-12)
        else:
            assert abs(row[k]) <= 1e-280


@pytest.mark.parametrize("x", [0.0, 1e-9, 2.5, 37.3])
def test_returned_rows_are_read_only(x):
    # Rows may be shared between callers, so a write must fail, not corrupt them.
    first = bessel_j_row(30, x)
    expected = first.copy()
    with pytest.raises(ValueError):
        first[0] = 42.0
    again = bessel_j_row(30, x)
    assert not again.flags.writeable
    assert np.array_equal(again, expected)


def scalar_row(n_max, x):
    # The one-key row as the scalar descent computes it: the reference that
    # the batched descent must equal bit for bit.
    if x < _SERIES_CUTOFF:
        return np.array(_series_row(n_max, x))
    f = np.array(_descent(n_max, x))
    norm = math.sqrt(f[0] * f[0] + 2.0 * float(np.dot(f[1:], f[1:])))
    return f[: n_max + 1] / norm


def assert_rows_bit_exact(keys):
    rows = list(bessel_j_rows(keys))
    assert len(rows) == len(keys)
    for (n_max, x), row in zip(keys, rows):
        assert not row.flags.writeable
        assert np.array_equal(row, scalar_row(n_max, x)), (n_max, x)


ARGUMENTS = st.one_of(
    st.sampled_from([0.0, math.nextafter(_SERIES_CUTOFF, 0.0), _SERIES_CUTOFF, MAX_ARGUMENT]),
    st.floats(min_value=-8.0, max_value=3.0).map(lambda e: min(10.0 ** e, MAX_ARGUMENT)),
)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=MAX_ORDER), ARGUMENTS),
                min_size=1, max_size=8)
       .flatmap(lambda keys: st.permutations(keys + keys[: len(keys) // 2])))
@settings(deadline=None, max_examples=40)
@example([(7, 2.5)])
@example([(0, 0.0), (0, _SERIES_CUTOFF), (0, MAX_ARGUMENT)])
# Small arguments at large orders rescale the descent many times.
@example([(2000, 1e-8), (2000, 3.0), (1500, 1e-7), (2000, 1e-8), (300, 0.01), (2000, 1000.0)])
# Starts n + 43: a column's last segment steps 1 to 32 orders before it passes order 0.
@example([(n, 2.0) for n in range(32)])
def test_batched_rows_equal_the_scalar_descent(keys):
    assert_rows_bit_exact(keys)


@pytest.mark.parametrize("columns,steps", [(1, 8), (3, 16), (7, 32), (5, _ORDER_MARGIN),
                                           (4, 100), (3, 200)])
def test_batched_rows_do_not_depend_on_the_batch_constants(columns, steps, monkeypatch):
    # Several batches and several replay groups per batch, columns longer than
    # a group, and checkpoint intervals longer than the shortest descent,
    # whose one segment steps on past order 0.
    monkeypatch.setattr(specfun, "_BATCH_COLUMNS", columns)
    monkeypatch.setattr(specfun, "_CHECKPOINT_STEPS", steps)
    rng = random.Random(columns)
    keys = [(rng.randint(0, MAX_ORDER), min(10.0 ** rng.uniform(-9.0, 3.0), MAX_ARGUMENT))
            for _ in range(14)]
    assert_rows_bit_exact(keys + [(MAX_ORDER, MAX_ARGUMENT), (0, 1e-8), keys[3]])


def test_batch_constants_fit_every_descent():
    # Rows are exact at any constants; these bound the work.  A checkpoint
    # interval no longer than the shortest descent wastes no steps past
    # order 0, and one replay group holds the longest column's segments.  A
    # descent from start s runs s - 1 steps over ceil((s - 1) / B) segments,
    # never more than (s - 1) // B + 1.
    shortest = 0 + math.ceil(1.5 * _SERIES_CUTOFF) + _ORDER_MARGIN
    longest = MAX_ORDER + math.ceil(1.5 * MAX_ARGUMENT) + _ORDER_MARGIN
    assert specfun._CHECKPOINT_STEPS <= shortest - 1
    assert (longest - 1) // specfun._CHECKPOINT_STEPS + 1 <= specfun._BATCH_COLUMNS


def test_study_batches_equal_the_scalar_descent(monkeypatch):
    # Full-width batches at the default constants, on the keys the sweeps
    # really hand over: the ten bundled studies (fig1a's 603 keys and fig2c's
    # 451 take several batches) and two long-row custom sweeps.
    calls = []

    def rows(keys):
        calls.append(list(keys))
        return bessel_j_rows(calls[-1])

    monkeypatch.setattr(propagator, "bessel_j_rows", rows)
    specs = [ExperimentSpec(name) for name in sorted(EXPERIMENTS.keys() - {"custom"})]
    specs += [ExperimentSpec("custom", {"N": 2000, "c": 60.0}, SweepAxis("t", 0.0, 15.0, 0.075)),
              ExperimentSpec("custom", {"N": 1000, "t": 10.0}, SweepAxis("c", 1.0, 90.0, 0.47))]
    for spec in specs:
        run_experiment_outputs(spec)
    assert max(map(len, calls)) > 2 * specfun._BATCH_COLUMNS
    for keys in calls:
        assert_rows_bit_exact(keys)


def test_one_key_calls_check_their_key():
    # bessel_j_rows takes keys its caller has checked; the one-key calls check their own.
    for n, x, message in [(10, -1.0, "x must be >= 0"), (10, math.nan, "x must be finite"),
                          (10, math.nextafter(MAX_ARGUMENT, math.inf), "x must be <= 1000"),
                          (MAX_ORDER + 1, 1.0, "n_max must be <= 2000")]:
        for call in (bessel_j_row, bessel_j):
            with pytest.raises(ValueError, match=message):
                call(n, x)
    assert list(bessel_j_rows([])) == []
