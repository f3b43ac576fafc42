"""Pencil, multipower, kernel, and transform tests."""

import numpy as np
import pytest

from rho_radii.errors import CapacityError, InputError, PoleError
from rho_radii.linalg import op_norm
from rho_radii.pencil import (
    OperatorTuple,
    eval_pencil,
    k_rho_kernel,
    phi_rho,
    psi_rho,
    sym_multipower,
    word_product,
)


def _random_pair(seed, d=3):
    rng = np.random.default_rng(seed)
    return OperatorTuple(tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)
    ))


def test_tuple_validation():
    with pytest.raises(InputError):
        OperatorTuple(())
    with pytest.raises(InputError):
        OperatorTuple((np.eye(2), np.eye(3)))


def test_norm_sum_equals_summed_op_norms():
    # bitwise the sum of op_norm in variable order
    rng = np.random.default_rng(7)
    for n_vars in (1, 2, 3, 4):
        for d in (1, 2, 3, 5):
            t = OperatorTuple(tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                                    for _ in range(n_vars)))
            assert t.norm_sum() == sum(op_norm(m) for m in t.mats)
    assert OperatorTuple((np.zeros((2, 2)),) * 3).norm_sum() == 0.0


def test_pencil_linearity():
    a = _random_pair(0)
    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([1.0, 0.5])
    np.testing.assert_allclose(
        eval_pencil(a, 2 * z + w),
        2 * eval_pencil(a, z) + eval_pencil(a, w),
        atol=1e-12,
    )


def test_sym_multipower_single_variable_is_power():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3))
    a = OperatorTuple((m,))
    for n in range(5):
        np.testing.assert_allclose(sym_multipower(a, (n,)), np.linalg.matrix_power(m, n), atol=1e-10)


def test_sym_multipower_t_1_2():
    # t = (1, 2): weight 1!2!/3! = 1/3 over the three distinct words
    a = _random_pair(3)
    a1, a2 = a.mats
    expected = (a1 @ a2 @ a2 + a2 @ a1 @ a2 + a2 @ a2 @ a1) / 3
    np.testing.assert_allclose(sym_multipower(a, (1, 2)), expected, atol=1e-12)


def test_sym_multipower_commuting_reduces_to_plain():
    d = np.diag([0.3, -0.5, 0.2 + 0.1j])
    e = np.diag([1.0, 2.0, -0.7j])
    a = OperatorTuple((d, e))
    plain = np.linalg.matrix_power(d, 2) @ np.linalg.matrix_power(e, 3)
    np.testing.assert_allclose(sym_multipower(a, (2, 3)), plain, atol=1e-12)


def test_sym_multipower_caps_order():
    a = _random_pair(4, d=2)
    with pytest.raises(CapacityError):
        sym_multipower(a, (10, 10))


def test_word_product_order():
    a = _random_pair(5)
    np.testing.assert_allclose(word_product(a, (0, 1)), a.mats[0] @ a.mats[1], atol=0)


def test_pencil_multinomial_expansion():
    # (zA)^2 expands into the symmetrized multipowers with multinomial weights
    a = _random_pair(6)
    z = np.array([0.4 - 0.2j, 0.1 + 0.3j])
    za = eval_pencil(a, z)
    expansion = (
        z[0] ** 2 * sym_multipower(a, (2, 0))
        + z[1] ** 2 * sym_multipower(a, (0, 2))
        + 2 * z[0] * z[1] * sym_multipower(a, (1, 1))
    )
    np.testing.assert_allclose(za @ za, expansion, atol=1e-12)


def test_psi_neumann_series():
    a = _random_pair(7)
    z = np.array([0.05, 0.03j])
    za = eval_pencil(a, z)
    eye = np.eye(3)
    rho = 1.7
    series = eye.astype(complex)
    term = np.eye(3, dtype=complex)
    for _ in range(60):
        term = term @ za
        series += term
    np.testing.assert_allclose(psi_rho(a, rho, z), (1 - 2 / rho) * eye + (2 / rho) * series, atol=1e-10)


def test_psi_at_zero_is_identity():
    a = _random_pair(8)
    np.testing.assert_allclose(psi_rho(a, 0.6, [0, 0]), np.eye(3), atol=1e-14)


def test_phi_nilpotent_closed_form():
    # for (zA)^2 = 0: phi = -zA/rho exactly
    rho = 2.5
    m = np.array([[0, 1.0], [0, 0]])
    a = OperatorTuple((m,))
    z = [0.7j]
    za = eval_pencil(a, z)
    np.testing.assert_allclose(phi_rho(a, rho, z), -za / rho, atol=1e-13)


@pytest.mark.parametrize("rho", [0.5, 1.5, 2.0, 3.0, 10.0])
def test_phi_rescaling_identity(rho):
    # phi_rho(zA)/g = phi_r(zA/s) with r = 1 + g(rho-1) and s = g rho/r, for
    # every g with r > 0: a bound g on phi_rho is membership of A/s at level r
    rng = np.random.default_rng(13)
    a = _random_pair(14)
    for g in (0.1, 0.5, 1.0, 1.9, 4.0):
        r = 1 + g * (rho - 1)
        if r <= 0:
            continue
        s = g * rho / r
        for _ in range(3):
            z = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = phi_rho(a, rho, z) / g
            np.testing.assert_allclose(phi_rho(a.scale(1 / s), r, z), lhs, rtol=0,
                                       atol=1e-12 * np.abs(lhs).max())


def test_phi_pole_detection():
    # (rho-1) zA - rho I singular at zA = rho/(rho-1) I
    rho = 2.0
    a = OperatorTuple((np.eye(2) * 2.0,))
    with pytest.raises(PoleError):
        phi_rho(a, rho, [1.0])


def test_kernel_vs_psi_identity():
    # Re psi(z) = (1/rho) (I - zA)^{-*} k(z, z) (I - zA)^{-1}
    a = _random_pair(9)
    rho = 1.3
    rng = np.random.default_rng(10)
    for _ in range(5):
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
        k = k_rho_kernel(a, rho, z, z)
        inv = np.linalg.inv(np.eye(3) - eval_pencil(a, z))
        lhs = psi_rho(a, rho, z)
        lhs = (lhs + lhs.conj().T) / 2
        rhs = inv.conj().T @ k @ inv / rho
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_kernel_at_zero_is_rho_identity():
    a = _random_pair(11)
    np.testing.assert_allclose(k_rho_kernel(a, 0.8, [0, 0], [0, 0]), 0.8 * np.eye(3), atol=0)
