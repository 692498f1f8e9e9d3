import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smmn import spharm
from smmn.errors import DomainError, ShapeError


def test_y00_value():
    expected = 1.0 / (2.0 * math.sqrt(math.pi))
    value = spharm.filter_basis(0, 0.3, 0.7)[..., spharm.basis_index(0, 0, "a")]
    assert value == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.2820948, abs=1e-7)


def test_y10_at_pole():
    value = spharm.filter_basis(1, 0.0, 0.0)[..., spharm.basis_index(1, 0, "a")]
    assert value == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)), abs=1e-15
    )


def test_cos_branch_m1_value():
    # l=1, m=1 cos branch at (pi/2, 0): sqrt(2) * N_11 * P_11(0)
    basis = spharm.filter_basis(1, math.pi / 2.0, 0.0)
    value = basis[..., spharm.basis_index(1, 1, "a")]
    assert value == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)) * 1.0, rel=1e-12)


# Closed forms of the radial factors (sqrt(2) N_lm P_l^m(cos theta), no
# Condon-Shortley phase) of four m > 0 columns.
_CLOSED_FORM_RADIAL = {
    (1, 1): lambda t: math.sqrt(3.0 / (4.0 * math.pi)) * np.sin(t),
    (2, 1): lambda t: math.sqrt(15.0 / (4.0 * math.pi)) * np.sin(t) * np.cos(t),
    (2, 2): lambda t: math.sqrt(15.0 / (16.0 * math.pi)) * np.sin(t) ** 2,
    (3, 3): lambda t: math.sqrt(35.0 / (32.0 * math.pi)) * np.sin(t) ** 3,
}


@pytest.mark.parametrize("l, m", sorted(_CLOSED_FORM_RADIAL))
def test_basis_matches_closed_forms_near_the_poles(l, m):
    # Near the poles sin(theta) is small: forming it from cos(theta) as
    # sqrt(1 - cos^2) would lose about 1e-10 relative here.
    near = np.geomspace(1e-3, 0.1, 41)
    theta = np.concatenate([near, math.pi - near])[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 13)[None, :]
    basis = spharm.filter_basis(3, theta, phi)
    radial = _CLOSED_FORM_RADIAL[l, m](theta)
    for kind, trig in (("a", np.cos), ("b", np.sin)):
        got = basis[..., spharm.basis_index(l, m, kind)]
        err = np.abs(got - radial * trig(m * phi)) / np.abs(radial)
        assert err.max() < 1e-13, (kind, err.max())


def _quadrature_grid(n_theta=16, n_phi=64):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    theta, phi = np.meshgrid(np.arccos(x), phis, indexing="ij")
    return theta, phi, w, 2.0 * math.pi / n_phi


def test_orthonormality_under_quadrature():
    # Gauss-Legendre x uniform-phi quadrature is exact for products of
    # band-limited harmonics, so 1e-3 (the contract) holds with room.
    theta, phi, w, dphi = _quadrature_grid()
    basis = spharm.filter_basis(3, theta, phi)
    gram = np.einsum("tpk,tpl,t->kl", basis, basis, w) * dphi
    assert np.abs(gram - np.eye(16)).max() < 1e-3
    assert np.abs(gram - np.eye(16)).max() < 1e-12


@pytest.mark.parametrize("l_max", range(0, 6))
def test_coefficient_count(l_max):
    assert spharm.num_coefficients(l_max) == (l_max + 1) ** 2
    basis = spharm.filter_basis(l_max, 0.4, 1.3)
    assert basis.shape == ((l_max + 1) ** 2,)


def test_basis_l0_value():
    basis = spharm.filter_basis(0, 1.234, 5.678)
    assert basis.shape == (1,)
    assert basis[0] == pytest.approx(0.2820948, abs=1e-7)


def test_basis_l3_has_16_entries():
    assert spharm.filter_basis(3, 0.1, 0.2).shape == (16,)


def test_basis_index_layout():
    assert spharm.basis_index(0, 0, "a") == 0
    assert spharm.basis_index(1, 0, "a") == 1
    assert spharm.basis_index(1, 1, "a") == 2
    assert spharm.basis_index(1, 1, "b") == 3
    assert spharm.basis_index(3, 3, "b") == 15
    with pytest.raises(DomainError):
        spharm.basis_index(1, 0, "b")
    with pytest.raises(DomainError):
        spharm.basis_index(1, 1, "bogus")


def test_constant_bank_evaluates_to_one():
    bank = spharm.FilterBank.constant(1.0)
    for theta, phi in [(0.0, 0.0), (1.1, 2.2), (math.pi, 4.0)]:
        assert spharm.filter_eval(bank, theta, phi)[0, 0] == pytest.approx(
            1.0, abs=1e-14
        )


def test_zero_bank_evaluates_to_zero():
    bank = spharm.FilterBank.zeros(3, 2, 3)
    assert np.all(spharm.filter_eval(bank, 0.3, 0.4) == 0.0)


def test_sin_only_bank_vanishes_at_phi_zero():
    bank = spharm.FilterBank.zeros(3, 1, 1)
    for l in range(1, 4):
        for m in range(1, l + 1):
            bank.coeffs[0, 0, spharm.basis_index(l, m, "b")] = 1.7
    for theta in (0.1, 0.7, 2.0):
        assert spharm.filter_eval(bank, theta, 0.0)[0, 0] == pytest.approx(
            0.0, abs=1e-14
        )


def test_dot_basis_equals_filter_eval():
    rng = np.random.default_rng(0)
    bank = spharm.FilterBank.random(3, 2, 3, rng)
    for theta, phi in rng.uniform(0, math.pi, size=(20, 2)):
        basis = spharm.filter_basis(3, theta, phi)
        direct = spharm.filter_eval(bank, theta, phi)
        np.testing.assert_allclose(bank.coeffs @ basis, direct, atol=1e-12, rtol=0)


def test_filter_eval_linear_in_coefficients():
    rng = np.random.default_rng(1)
    bank_a = spharm.FilterBank.random(3, 2, 2, rng)
    bank_b = spharm.FilterBank.random(3, 2, 2, rng)
    alpha, beta = 0.37, -1.25
    mixed = spharm.FilterBank(3, 2, 2, alpha * bank_a.coeffs + beta * bank_b.coeffs)
    for theta, phi in rng.uniform(0, math.pi, size=(10, 2)):
        lhs = spharm.filter_eval(mixed, theta, phi)
        rhs = alpha * spharm.filter_eval(bank_a, theta, phi) + beta * spharm.filter_eval(
            bank_b, theta, phi
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


def test_basis_matches_finite_difference_gradient():
    # F is linear in its coefficients, so the basis IS the gradient.
    rng = np.random.default_rng(2)
    bank = spharm.FilterBank.random(3, 1, 1, rng)
    h = 1e-6
    angles = np.column_stack(
        [rng.uniform(0, math.pi, 100), rng.uniform(0, 2 * math.pi, 100)]
    )
    for theta, phi in angles[:25]:
        basis = spharm.filter_basis(3, theta, phi)
        k = int(rng.integers(16))
        up = bank.coeffs.copy()
        dn = bank.coeffs.copy()
        up[0, 0, k] += h
        dn[0, 0, k] -= h
        fd = (
            spharm.filter_eval(spharm.FilterBank(3, 1, 1, up), theta, phi)
            - spharm.filter_eval(spharm.FilterBank(3, 1, 1, dn), theta, phi)
        )[0, 0] / (2 * h)
        denom = max(abs(fd), abs(basis[k]), 1e-9)
        assert abs(fd - basis[k]) / denom < 1e-6


def test_bank_shape_validation():
    with pytest.raises(ShapeError):
        spharm.FilterBank(3, 2, 2, np.zeros((2, 2, 9)))


@given(
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
def test_basis_finite_everywhere(theta, phi):
    basis = spharm.filter_basis(3, theta, phi)
    assert np.all(np.isfinite(basis))
    # pointwise bound: sum_k Y_k^2 == sum_l (2l+1)/(4 pi), independent of angle
    assert np.sum(basis * basis) == pytest.approx(16.0 / (4.0 * math.pi), rel=1e-9)
