import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jband_sim.core import AggregateDensityMatrix, ModelParams, OccupationProfile, make_window
from jband_sim.experiments import ExperimentSpec, SweepAxis, run_experiment
from jband_sim.measures import (
    SPANO_COEFFICIENT,
    average_concurrence,
    coherence_size,
    entropy_report,
    extended_state_entropy,
    ipr,
    resonance_coherence_size,
    site_entropy,
    spano_coherence_size,
)

# Frozen closed-form values.
SPANO_C15_B05_TK2 = 16.552283739700747
SPANO_C5_B05_TK2 = 7.957508037063235
RESONANCE_C5 = 62.83185307179586
RESONANCE_C15 = 188.4955592153876
CONCURRENCE_CHAIN_N100 = 0.009575590154104521


def profile_from(u, t=0.0):
    return OccupationProfile(u=u, t=t)


def delta_profile(N):
    u = np.zeros(N)
    u[make_window(N).index(0)] = 1.0
    return profile_from(u)


def test_site_entropy_pure_states():
    assert site_entropy(0.0) == 0.0
    assert site_entropy(1.0) == 0.0


def test_site_entropy_maximum():
    assert site_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)


def test_site_entropy_rejects_out_of_range():
    for u in (-0.01, 1.01):
        with pytest.raises(ValueError):
            site_entropy(u)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_site_entropy_bounds_and_symmetry(u):
    s = site_entropy(u)
    assert 0.0 <= s <= math.log(2) + 1e-12
    assert s == pytest.approx(site_entropy(1.0 - u), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_site_entropy_concavity(u, v):
    mid = site_entropy(0.5 * (u + v))
    assert mid >= 0.5 * (site_entropy(u) + site_entropy(v)) - 1e-12


def test_entropy_of_delta_profile_is_zero():
    assert entropy_report(delta_profile(11)).total == 0.0


def test_entropy_of_half_filled_pair():
    report = entropy_report(profile_from([0.5, 0.5]))
    assert report.total == pytest.approx(2 * math.log(2), abs=1e-12)
    assert report.average == pytest.approx(math.log(2), abs=1e-12)


def test_extended_reference_at_two_sites():
    assert extended_state_entropy(2) == pytest.approx(math.log(2), abs=1e-15)


@pytest.mark.parametrize("N", [10**300, 2**1024 - 1, 2**1024, 2**1030, 10**310, 10**320, 10**400],
                         ids=["1e300", "2^1024-1", "2^1024", "2^1030", "1e310", "1e320", "1e400"])
def test_extended_reference_beyond_the_float_range(N):
    # An integer N with no float value still gets the per-site entropy, not an
    # OverflowError; the oracle is the same formula at 50 digits.
    with mpmath.workdps(50):
        inv = mpmath.mpf(1) / N
        expected = float(mpmath.log(N) * inv - (1 - inv) * mpmath.log1p(-inv))
    value = extended_state_entropy(N)
    assert value == pytest.approx(expected, rel=1e-15, abs=0.0)
    if N == 10**400:
        assert value == 0.0  # about 9e-398, below the smallest subnormal


@given(st.integers(min_value=2, max_value=400))
def test_uniform_profile_average_equals_extended_reference(N):
    report = entropy_report(profile_from(np.full(N, 1.0 / N)))
    assert report.average == pytest.approx(extended_state_entropy(N), rel=1e-12)
    assert report.average == pytest.approx(report.total / N, rel=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=300),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_entropy_total_is_bounded_by_extended_state(weights, scale):
    # h is concave and rises on [0, 1/2], so sum h(u_n) <= N h(mean u) <= N h(1/N).
    w = np.asarray(weights)
    u = w / w.sum() * scale if w.sum() > 0 else w
    N = len(u)
    total = entropy_report(profile_from(u)).total
    assert total <= N * extended_state_entropy(N) * (1 + 1e-12)


def test_ipr_localized():
    assert ipr(delta_profile(9)) == 1.0


def test_ipr_uniform():
    assert ipr(profile_from(np.full(25, 1.0 / 25))) == pytest.approx(25.0, rel=1e-9)


def test_ipr_two_equal_weights():
    assert ipr(profile_from([0.5, 0.5, 0.0])) == pytest.approx(2.0, rel=1e-12)


def test_ipr_rejects_empty_profile():
    with pytest.raises(ValueError):
        ipr(profile_from(np.zeros(5)))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=80)
def test_ipr_ignores_overall_scale(weights, scale):
    u = np.asarray(weights)
    total = u.sum()
    if total < 1e-6:  # degenerate and underflow-prone shapes are excluded
        return
    u = u / max(total, 1.0)  # keep the profile invariant satisfied
    assert ipr(profile_from(u * scale)) == pytest.approx(ipr(profile_from(u)), rel=1e-9)


def test_concurrence_localized_limit():
    assert average_concurrence(1.0, 10).avg_concurrence == 0.0


def test_concurrence_delocalized_limit():
    report = average_concurrence(10.0, 10)
    assert report.avg_concurrence == 2.0 / 10
    assert report.scaled == pytest.approx(1.0, rel=1e-12)


def test_concurrence_intermediate_value():
    assert average_concurrence(2.0, 4).avg_concurrence == pytest.approx(1.0 / 6, abs=1e-15)


@given(st.integers(min_value=2, max_value=10**6), st.floats(min_value=0.0, max_value=1.0))
def test_scaled_concurrence_is_n_over_2_times_the_average(N, frac):
    report = average_concurrence(1.0 + frac * (N - 1), N)
    assert report.scaled == pytest.approx(report.avg_concurrence * N / 2.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("zeta,N", [(0.5, 4), (5.0, 4), (1.0, 1)])
def test_concurrence_rejects_out_of_range(zeta, N):
    with pytest.raises(ValueError):
        average_concurrence(zeta, N)


@given(st.integers(min_value=2, max_value=300),
       st.floats(min_value=0.0, max_value=1.0))
def test_concurrence_is_affine_in_zeta(N, frac):
    zeta = 1.0 + frac * (N - 1)
    got = average_concurrence(zeta, N).avg_concurrence
    slope = 2.0 / (N * (N - 1.0))
    assert got == pytest.approx(slope * (zeta - 1.0), rel=1e-12, abs=1e-300)


def test_coherence_size_localized_matrix():
    N = 7
    rho = AggregateDensityMatrix(entries=np.eye(N) / N)
    assert coherence_size(rho) == pytest.approx(1.0, rel=1e-12)


def test_coherence_size_uniform_matrix():
    N = 7
    rho = AggregateDensityMatrix(entries=np.full((N, N), 1.0 / N))
    assert coherence_size(rho) == pytest.approx(float(N), rel=1e-12)


def test_coherence_size_two_site_example():
    rho = AggregateDensityMatrix(entries=np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert coherence_size(rho) == pytest.approx(1.8, rel=1e-12)


def test_coherence_size_rejects_zero_matrix():
    with pytest.raises(ValueError):
        coherence_size(AggregateDensityMatrix(entries=np.zeros((3, 3))))


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**9),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_coherence_size_bounds(N, seed, density):
    # Translation-invariant ensemble: uniform diagonal d, every |rho_mn| <= d.
    # Then sum off^2 <= d sum off gives the lower bound, Cauchy-Schwarz the upper.
    rng = np.random.default_rng(seed)
    d = 0.9 / N
    m = rng.uniform(0.0, d, size=(N, N)) * (rng.uniform(size=(N, N)) < density)
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, d)
    value = coherence_size(AggregateDensityMatrix(entries=m))
    assert 1.0 - 1e-9 <= value <= N + 1e-9


def test_coherence_size_rejects_matrices_outside_its_ensemble():
    # diag(0.9, 0.1) would give 0.61, below the promised lower bound of 1.
    with pytest.raises(ValueError, match="uniform"):
        coherence_size(AggregateDensityMatrix(entries=np.diag([0.9, 0.1])))
    with pytest.raises(ValueError, match="exceed"):
        coherence_size(AggregateDensityMatrix(entries=np.array([[0.2, 0.3], [0.3, 0.2]])))


def test_spano_reference_values():
    p = ModelParams(a=0.0, b=0.5, c=15.0, t_k=2.0, N=500)
    assert spano_coherence_size(p) == pytest.approx(SPANO_C15_B05_TK2, abs=1e-9)
    p = ModelParams(a=0.0, b=0.5, c=5.0, t_k=2.0, N=500)
    assert spano_coherence_size(p) == pytest.approx(SPANO_C5_B05_TK2, abs=1e-9)


def test_spano_is_clamped_to_system_size():
    p = ModelParams(a=0.0, b=0.5, c=15.0, t_k=2.0, N=10)
    assert spano_coherence_size(p) == 10.0


def test_spano_rejects_zero_coupling():
    with pytest.raises(ValueError, match="b"):
        spano_coherence_size(ModelParams(a=0.0, b=0.0, c=15.0, t_k=2.0, N=100))


def test_spano_monotone_in_couplings():
    big = 10**9
    along_b = [spano_coherence_size(ModelParams(0.0, b, 15.0, 2.0, big))
               for b in np.linspace(0.1, 2.0, 12)]
    assert all(x > y for x, y in zip(along_b, along_b[1:]))
    along_tk = [spano_coherence_size(ModelParams(0.0, 0.5, 15.0, tk, big))
                for tk in np.linspace(0.5, 6.0, 12)]
    assert all(x > y for x, y in zip(along_tk, along_tk[1:]))
    along_c = [spano_coherence_size(ModelParams(0.0, 0.5, c, 2.0, big))
               for c in np.linspace(1.0, 40.0, 12)]
    assert all(x < y for x, y in zip(along_c, along_c[1:]))


def test_resonance_values():
    assert resonance_coherence_size(5.0) == pytest.approx(RESONANCE_C5, abs=1e-9)
    assert resonance_coherence_size(15.0) == pytest.approx(RESONANCE_C15, abs=1e-9)


def test_resonance_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        resonance_coherence_size(0.0)


def test_resonance_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(ValueError, match="coherence size lies beyond the float range"):
        resonance_coherence_size(1e308)


@pytest.mark.parametrize("c,b,t_k", [
    (15.0, 1e-200, 2.0),      # b^2 t_k underflows to 0
    (15.0, 1e-160, 1e20),     # b^2 is subnormal, b^2 t_k is not
    (1e200, 0.5, 2.0),        # c^2 overflows
    (1e150, 1e-5, 1.0),       # the ratio overflows
    (1e-200, 0.5, 2.0),       # c^2 underflows
    (20.0, 0.3, 5e-324),      # t_k is the smallest subnormal
    (1e300, 1e-300, 1e-300),  # beyond the float range
])
def test_spano_is_exact_outside_the_normal_range(c, b, t_k):
    # Where c^2, b^2, b^2 t_k or their ratio leaves the normal range, the size
    # is still correctly rounded to a few ulp, or a domain error beyond it.
    with mpmath.workprec(100):
        exact = SPANO_COEFFICIENT * mpmath.cbrt(mpmath.mpf(c) ** 2 / (mpmath.mpf(b) ** 2 * t_k))
    p = ModelParams(a=0.0, b=b, c=c, t_k=t_k, N=10**600)
    if exact > sys.float_info.max:
        with pytest.raises(ValueError, match="coherence size lies beyond the float range"):
            spano_coherence_size(p)
        assert spano_coherence_size(replace(p, N=10**300)) == 1e300
    else:
        assert spano_coherence_size(p) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def concurrence_curve(c, b, start, stop, step):
    """The fig3 study's concurrence column for one (c, b) pair at t_k = 2."""
    table = run_experiment(ExperimentSpec("fig3", {"c": c, "b": b},
                                          SweepAxis("N", start, stop, step)))
    assert table.header[1:] == (f"C_c{c:g}_b{b:g}",)
    return {int(row[0]): row[1] for row in table.rows}


def test_concurrence_curve_reference_point():
    curve = concurrence_curve(15.0, 0.1, 100, 104, 5)
    assert list(curve) == [100]
    assert curve[100] == pytest.approx(CONCURRENCE_CHAIN_N100, abs=1e-9)


def test_concurrence_curve_decreases_beyond_coherence_size():
    values = list(concurrence_curve(15.0, 0.1, 60, 200, 5).values())
    assert len(values) == 29
    assert all(x > y for x, y in zip(values, values[1:]))


def test_concurrence_curve_vanishes_at_strong_coupling():
    values = concurrence_curve(1.0, 40.0, 10, 100, 10).values()
    assert len(values) == 10
    assert all(v == 0.0 for v in values)
