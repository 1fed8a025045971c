import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jband_sim.multipartite import (
    SusceptibilityParams,
    SymmetricState,
    TwoBranchHamiltonian,
    chi3_magnitude,
    coupling_sum_nn,
    geometric_entropy,
    lambda_max,
    two_exciton_diagonalize,
    zeta_ratios,
)

# Frozen closed-form values.
E_10_1 = 0.9482446409204367
E_10_2 = 1.197361745611559
E_10_5 = 1.4020427180880298
ZETA1_10 = 0.6763307770062534
ZETA2_10 = 0.8540123137220848
CHI3_EXAMPLE_N4 = 0.4232504883416184
PLATEAU = 2.0 - math.log(2.0)


def test_lambda_of_product_state():
    assert lambda_max(SymmetricState(6, 0)) == 1.0
    assert lambda_max(SymmetricState(6, 6)) == 1.0


def test_lambda_of_single_hole_pair():
    assert lambda_max(SymmetricState(2, 1)) == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_lambda_half_filled_four():
    assert lambda_max(SymmetricState(4, 2)) == pytest.approx(math.sqrt(6.0 / 16.0), abs=1e-14)


def test_entropy_endpoints_are_zero():
    for N in (1, 2, 5, 31):
        assert geometric_entropy(SymmetricState(N, 0)) == 0.0
        assert geometric_entropy(SymmetricState(N, N)) == 0.0


def test_entropy_reference_values():
    assert geometric_entropy(SymmetricState(2, 1)) == pytest.approx(math.log(2), abs=1e-12)
    assert geometric_entropy(SymmetricState(10, 1)) == pytest.approx(E_10_1, abs=1e-12)
    assert geometric_entropy(SymmetricState(10, 2)) == pytest.approx(E_10_2, abs=1e-12)
    assert geometric_entropy(SymmetricState(10, 5)) == pytest.approx(E_10_5, abs=1e-12)


def test_entropy_against_direct_binomial():
    # Independent route: exact binomial and dyadic powers for N = 10, M = 5.
    assert geometric_entropy(SymmetricState(10, 5)) == pytest.approx(
        -math.log(252 / 1024), abs=1e-13)


@given(st.integers(min_value=1, max_value=64), st.data())
def test_symmetry_is_exact(N, data):
    M = data.draw(st.integers(min_value=0, max_value=N))
    a = geometric_entropy(SymmetricState(N, M))
    b = geometric_entropy(SymmetricState(N, N - M))
    assert a == b


@pytest.mark.parametrize("N", range(2, 65, 2))
def test_argmax_at_half_filling_even(N):
    peak = geometric_entropy(SymmetricState(N, N // 2))
    others = [geometric_entropy(SymmetricState(N, M))
              for M in range(N + 1) if M != N // 2]
    assert all(peak > v for v in others)


@pytest.mark.parametrize("N", range(3, 64, 2))
def test_argmax_pair_odd(N):
    lo, hi = (N - 1) // 2, (N + 1) // 2
    peak = geometric_entropy(SymmetricState(N, lo))
    assert peak == geometric_entropy(SymmetricState(N, hi))
    others = [geometric_entropy(SymmetricState(N, M))
              for M in range(N + 1) if M not in (lo, hi)]
    assert all(peak > v for v in others)


def test_log_space_survives_huge_states():
    value = geometric_entropy(SymmetricState(10**6, 5 * 10**5))
    assert math.isfinite(value) and value > 0
    lam = lambda_max(SymmetricState(10**6, 5 * 10**5))
    assert 0.0 < lam < 1.0


@given(st.integers(min_value=1, max_value=2000), st.data())
def test_lambda_stays_in_unit_interval(N, data):
    M = data.draw(st.integers(min_value=0, max_value=N))
    assert 0.0 < lambda_max(SymmetricState(N, M)) <= 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        geometric_entropy(SymmetricState(0, 0))
    with pytest.raises(ValueError):
        geometric_entropy(SymmetricState(4, 5))
    with pytest.raises(ValueError):
        geometric_entropy(SymmetricState(4, -1))


def test_zeta_reference_values():
    z1, z2 = zeta_ratios(10)
    assert z1 == pytest.approx(ZETA1_10, abs=1e-12)
    assert z2 == pytest.approx(ZETA2_10, abs=1e-12)


def test_zeta_ordering_and_decay():
    previous = None
    for N in range(4, 401, 2):
        z1, z2 = zeta_ratios(N)
        assert z2 > z1
        if previous is not None:
            assert z1 < previous[0] and z2 < previous[1]
        previous = (z1, z2)


def test_zeta_accepts_odd_sizes():
    z1, z2 = zeta_ratios(11)
    assert 0 < z1 < z2 <= 1.0


def test_zeta_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        zeta_ratios(3)


def susceptibility(**kw):
    base = dict(mu=1.0, gamma=0.5, delta_e=3.0, omega=1.0)
    base.update(kw)
    return SusceptibilityParams(**base)


def test_chi3_reference_value():
    assert chi3_magnitude(4, susceptibility()) == pytest.approx(CHI3_EXAMPLE_N4, abs=1e-12)


def test_chi3_quadratic_in_dipole():
    base = chi3_magnitude(12, susceptibility())
    assert chi3_magnitude(12, susceptibility(mu=2.0)) == pytest.approx(4 * base, rel=1e-12)


def test_chi3_rejects_resonant_drive():
    with pytest.raises(ValueError):
        chi3_magnitude(8, susceptibility(omega=3.0))


@pytest.mark.parametrize("kw", [dict(gamma=0.0), dict(gamma=-1.0),
                                dict(delta_e=-3.0), dict(omega=0.0)])
def test_chi3_rejects_bad_parameters(kw):
    with pytest.raises(ValueError):
        chi3_magnitude(8, susceptibility(**kw))


def test_chi3_rejects_small_aggregates():
    with pytest.raises(ValueError):
        chi3_magnitude(3, susceptibility())


def test_reduced_product_plateau():
    values = []
    for N in range(4, 401, 2):
        values.append(geometric_entropy(SymmetricState(N, 1))
                      * geometric_entropy(SymmetricState(N, 2)))
    assert all(x < y for x, y in zip(values, values[1:]))
    for N, v in zip(range(4, 401, 2), values):
        if N >= 200:
            assert abs(v - PLATEAU) / PLATEAU < 0.02


def test_chi3_consistent_with_reduced_product():
    sp = susceptibility()
    for N in (4, 50, 256):
        reduced = (geometric_entropy(SymmetricState(N, 1))
                   * geometric_entropy(SymmetricState(N, 2)))
        expected = N * reduced / (2 * sp.gamma * abs(sp.omega**2 - sp.delta_e**2))
        assert chi3_magnitude(N, sp) == pytest.approx(expected, rel=1e-12)


def test_diagonal_hamiltonian_passes_through():
    assert two_exciton_diagonalize(TwoBranchHamiltonian(1.0, 2.0, 0.0)) == (1.0, 2.0, 0.0)


def test_degenerate_branches_split_symmetrically():
    e_a, e_b, beta = two_exciton_diagonalize(TwoBranchHamiltonian(3.5, 3.5, 0.7))
    assert e_a == pytest.approx(2.8, abs=1e-12)
    assert e_b == pytest.approx(4.2, abs=1e-12)
    assert beta == math.pi / 4


def test_generic_eigenvalues():
    e_a, e_b, _ = two_exciton_diagonalize(TwoBranchHamiltonian(1.0, 2.0, 0.5))
    assert e_a == pytest.approx(1.5 - math.sqrt(0.5), abs=1e-12)
    assert e_b == pytest.approx(1.5 + math.sqrt(0.5), abs=1e-12)


finite_energy = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(finite_energy, finite_energy, finite_energy)
@settings(max_examples=200)
def test_diagonalization_against_brute_force(e1, e2, tc):
    h = np.array([[e1, tc], [tc, e2]])
    reference = np.linalg.eigvalsh(h)
    e_a, e_b, beta = two_exciton_diagonalize(TwoBranchHamiltonian(e1, e2, tc))
    scale = max(abs(reference[0]), abs(reference[1]), 1e-30)
    assert abs(e_a - reference[0]) <= 1e-12 * scale
    assert abs(e_b - reference[1]) <= 1e-12 * scale
    # rotation annihilates the off-diagonal coupling
    c, s = math.cos(beta), math.sin(beta)
    residual = (e2 - e1) * c * s + tc * (c * c - s * s)
    assert abs(residual) <= 1e-12 * scale
    assert -math.pi / 4 < beta <= math.pi / 4
    # trace and determinant are preserved relative to the matrix scale
    rot = np.array([[c, s], [-s, c]])
    transformed = rot @ h @ rot.T
    assert abs(np.trace(transformed) - (e1 + e2)) <= 1e-12 * max(1.0, scale)
    assert abs(np.linalg.det(transformed) - np.linalg.det(h)) <= 1e-12 * max(1.0, scale * scale)


def test_coupling_sum_values():
    assert coupling_sum_nn(1.0, 0.0) == 2.0
    assert coupling_sum_nn(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert coupling_sum_nn(0.5, math.pi / 3) == pytest.approx(0.5, abs=1e-12)


def test_coupling_sum_rejects_non_finite_values():
    with pytest.raises(ValueError, match="v must be finite"):
        coupling_sum_nn(math.nan, 1.0)
    with pytest.raises(ValueError, match="coupling lies beyond the float range"):
        coupling_sum_nn(1e308, 0.1)
