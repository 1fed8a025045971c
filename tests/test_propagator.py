import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jband_sim.core import ModelParams, make_window
from jband_sim.propagator import (
    DipolePair,
    DispersionParams,
    dipole_coupling,
    exciton_energy,
    occupation_profile,
    transfer_probability,
    window_survival,
)

# J_0(60)^2 exp(-0.25) exp(-0.18), with J_0(60) pinned by the oracle.
TRANSFER_AT_T2 = 0.005442868754998763


def params(a=0.0, b=0.0, c=30.0, t_k=1.0, N=200):
    return ModelParams(a=a, b=b, c=c, t_k=t_k, N=N)


def test_initial_site_starts_with_certainty():
    assert transfer_probability(0, 0.0, params()) == 1.0


def test_remote_site_starts_empty():
    assert transfer_probability(3, 0.0, params(a=0.7, b=0.2, c=12.0)) == 0.0


def test_dephased_transfer_value():
    got = transfer_probability(0, 2.0, params(a=0.5, b=0.3, c=30.0))
    assert got == pytest.approx(TRANSFER_AT_T2, abs=1e-12)


def test_rejects_negative_time():
    with pytest.raises(ValueError):
        transfer_probability(0, -0.1, params())


def test_profile_is_delta_at_start():
    prof = occupation_profile(0.0, params(N=50))
    origin = make_window(len(prof.u)).index(0)
    assert prof.u[origin] == 1.0
    assert np.all(prof.u[np.arange(50) != origin] == 0.0)


def test_profile_decays_at_long_times():
    prof = occupation_profile(200.0, params(b=0.5, N=40, c=5.0))
    assert float(prof.u.max()) < 1e-8


def test_profile_mass_is_conserved_inside_wide_window():
    total = float(occupation_profile(1.0, params(c=2.0, N=21)).u.sum())
    assert abs(total - 1.0) < 1e-6


def test_survival_starts_at_unity():
    assert window_survival(0.0, params(c=7.0, N=30)) == 1.0


def test_survival_with_dressing_only():
    assert window_survival(0.0, params(a=0.5, N=30)) == math.exp(-0.25)


def test_survival_drops_after_wavefront_exit():
    p = params(c=30.0, N=50)
    assert window_survival(4.0, p) < window_survival(1.0, p)


@given(st.floats(min_value=0.1, max_value=8.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None, max_examples=40)
def test_zero_coupling_conserves_probability(c, t, a, b):
    # While the window covers the front, only dressing and damping remove weight.
    N = 2 * (int(math.ceil(c * t)) + 40) + 1
    assert window_survival(t, params(c=c, N=N)) == pytest.approx(1.0, abs=1e-6)
    assert window_survival(t, params(a=a, b=b, c=c, N=N)) == \
        pytest.approx(math.exp(-a * a - b * b * t), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=-8, max_value=8),
       st.floats(min_value=0.0, max_value=4.0))
@settings(deadline=None, max_examples=60)
def test_dressing_factorises_exactly(a, n, t):
    p_on = params(a=a, b=0.4, c=6.0)
    p_off = params(a=0.0, b=0.4, c=6.0)
    assert transfer_probability(n, t, p_on) == \
        math.exp(-a * a) * transfer_probability(n, t, p_off)


@given(st.floats(min_value=0.0, max_value=5.0),
       st.integers(min_value=5, max_value=60))
@settings(deadline=None, max_examples=40)
def test_profile_is_mirror_symmetric(t, N):
    prof = occupation_profile(t, params(c=4.0, N=N))
    idx = dict(zip(make_window(len(prof.u)), prof.u))
    for n in range(1, N // 2):
        assert idx[n] == idx[-n]


@given(st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=1000.0))
@settings(deadline=None, max_examples=40)
def test_ballistic_second_moment(a, b, t, x):
    # sum_n n^2 J_n(x)^2 = x^2 / 2, so while the window covers the front the
    # profile spreads ballistically.  J_n(x) decays past n ~ x over a width
    # ~ x^(1/3), so the margin grows with it: a margin of 4 x^(1/3) + 10 left
    # 1.7e-12 of tail at x ~ 1000, 6 x^(1/3) + 10 leaves below 1e-14.
    c = x / t
    x = c * t  # the argument the kernel sees
    margin = math.ceil(6.0 * x ** (1.0 / 3.0)) + 10
    prof = occupation_profile(t, params(a=a, b=b, c=c, N=2 * (math.ceil(x) + margin) + 1))
    n = np.asarray(make_window(len(prof.u)), dtype=float)
    assert float(np.sum(n * n * prof.u)) == \
        pytest.approx(math.exp(-a * a - b * b * t) * x * x / 2.0, rel=1e-12)


def test_damping_is_strictly_monotone_in_b():
    # site inside the wavefront so the kernel is nonzero
    values = [transfer_probability(2, 1.5, params(b=b, c=10.0))
              for b in (0.0, 0.2, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_profile_matches_pointwise_transfer():
    p = params(a=0.3, b=0.2, c=12.0, N=30)
    prof = occupation_profile(1.7, p)
    for n, u in zip(make_window(len(prof.u)), prof.u):
        assert u == pytest.approx(transfer_probability(n, 1.7, p), abs=1e-10)


def test_band_edges():
    dp = DispersionParams(delta_e=2.0, d_shift=-0.1, v=-0.5)
    assert exciton_energy(0.0, dp) == pytest.approx(0.9, abs=1e-12)
    assert exciton_energy(math.pi, dp) == pytest.approx(2.9, abs=1e-12)


def test_bandwidth_is_four_v():
    dp = DispersionParams(delta_e=2.0, d_shift=-0.1, v=-0.5)
    ks = np.linspace(-math.pi, math.pi, 2001)
    band = [exciton_energy(k, dp) for k in ks]
    assert max(band) - min(band) == pytest.approx(4 * abs(dp.v), abs=1e-6)


def test_exciton_energy_rejects_nonfinite_wavevector():
    with pytest.raises(ValueError):
        exciton_energy(float("nan"), DispersionParams(2.0, 0.0, -0.5))


@pytest.mark.parametrize("mu_i,mu_j,d,expected", [
    (1.0, 1.0, 1.0, 1.0),
    (1.0, 1.0, 2.0, 0.125),
    (2.0, 3.0, 1.0, 6.0),
])
def test_dipole_coupling_inverse_cube(mu_i, mu_j, d, expected):
    assert dipole_coupling(DipolePair(mu_i, mu_j, d)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("d", [0.0, -1.0])
def test_dipole_coupling_rejects_bad_separation(d):
    with pytest.raises(ValueError):
        dipole_coupling(DipolePair(1.0, 1.0, d))
