import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jband_sim import cli, specfun
from jband_sim.core import ModelParams, make_window
from jband_sim.propagator import (
    DipolePair,
    DispersionParams,
    _check_point,
    _occupation_blocks,
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
    u = np.asarray(prof.u)
    assert u[origin] == 1.0
    assert np.all(u[np.arange(50) != origin] == 0.0)


def test_profile_decays_at_long_times():
    prof = occupation_profile(200.0, params(b=0.5, N=40, c=5.0))
    assert max(prof.u) < 1e-8


def test_profile_mass_is_conserved_inside_wide_window():
    total = math.fsum(occupation_profile(1.0, params(c=2.0, N=21)).u)
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
    assume(x <= 1000.0)  # x / t * t can round one ulp past the envelope
    margin = math.ceil(6.0 * x ** (1.0 / 3.0)) + 10
    prof = occupation_profile(t, params(a=a, b=b, c=c, N=2 * (math.ceil(x) + margin) + 1))
    n = np.asarray(make_window(len(prof.u)), dtype=float)
    assert float(np.sum(n * n * np.asarray(prof.u))) == \
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


@pytest.mark.parametrize("t,p", [
    (0.0, params(N=2)), (2.0, params(N=3)), (1.7, params(a=0.3, b=0.2, c=12.0, N=30)),
    (1e-10, params(c=20.0, N=9)), (0.3, params(a=27.2, N=60)), (5.0, params(c=40.0, N=401)),
])
def test_point_occupation_matches_the_array_profile(t, p):
    # The one-point float profile is the sweep's block row site by site, up
    # to the Bessel norm, which one sums with math.fsum and the other with numpy.
    point = occupation_profile(t, p).u
    assert type(point) is tuple and all(type(v) is float for v in point)
    block = next(_occupation_blocks([_check_point(t, p)]))[0]
    np.testing.assert_allclose(point, block, rtol=1e-14, atol=1e-300)


def test_sweep_working_memory_is_bounded():
    # A t sweep at the largest window, with more distinct c t than one batched
    # descent takes.  The descent keeps two checkpoint floats per column for
    # each of the longest descent's segments, and a replay group's steps and
    # temporaries take at most three buffers of _CHECKPOINT_STEPS floats per
    # segment for _BATCH_COLUMNS segments; a block at N = 4001 holds a few
    # arrays of N floats.  The rest is the sweep's points and keys.  Rows kept
    # for the whole sweep, or whole histories, would take several MiB.
    N = 4001
    longest = specfun.MAX_ORDER + math.ceil(1.5 * specfun.MAX_ARGUMENT) + specfun._ORDER_MARGIN
    B, W = specfun._CHECKPOINT_STEPS, specfun._BATCH_COLUMNS
    kernel = 8 * (2 * W * ((longest - 1) // B + 1) + 3 * B * W)
    bound = kernel + 8 * 8 * N + 2**18
    points = [_check_point(0.005 * k, params(c=100.0, N=N)) for k in range(1, 301)]
    next(_occupation_blocks(points[:1]))  # numpy and its first-use allocations
    tracemalloc.start()
    try:
        for _ in _occupation_blocks(points):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


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


@pytest.mark.parametrize("field", ["delta_e", "d_shift", "v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dispersion_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DispersionParams(**{"delta_e": 2.0, "d_shift": 0.0, "v": -0.5, field: value})


@pytest.mark.parametrize("delta_e", [0.0, -5.0])
def test_dispersion_params_require_a_positive_site_energy(delta_e, capsys):
    with pytest.raises(ValueError, match="delta_e must be positive"):
        DispersionParams(delta_e=delta_e, d_shift=0.0, v=0.0)
    assert cli.main(["eval", "exciton_energy", "k=0", f"delta_e={delta_e:g}", "d_shift=0", "v=0"]) == 2
    assert capsys.readouterr().err == "domain error: delta_e must be positive\n"


@pytest.mark.parametrize("field", ["mu_i", "mu_j"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dipole_moments_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DipolePair(**{"mu_i": 1.0, "mu_j": 1.0, "d": 1.0, field: value})


def test_band_energy_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(ValueError, match="band energy lies beyond the float range"):
        exciton_energy(0.0, DispersionParams(1e308, 1e308, 0.0))


def test_dipole_coupling_at_extreme_separations():
    # d**3 under- or overflows alone; one factor of d at a time does not.
    assert dipole_coupling(DipolePair(1.0, 1.0, 1e-100)) == pytest.approx(1e300, rel=1e-15, abs=0.0)
    assert dipole_coupling(DipolePair(1.0, 1.0, 1e100)) == pytest.approx(1e-300, rel=1e-15, abs=0.0)
    assert dipole_coupling(DipolePair(1.0, 1.0, 1e200)) == 0.0
    with pytest.raises(ValueError, match="dipole coupling lies beyond the float range"):
        dipole_coupling(DipolePair(1.0, 1.0, 1e-200))
