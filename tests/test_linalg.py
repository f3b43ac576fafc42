"""Tests for the dense linear-algebra helpers, with independent oracles."""

import numpy as np
import pytest

from rho_radii.errors import InputError
from rho_radii.linalg import (
    Embedding,
    as_matrix,
    compress,
    min_eig_hermitian,
    op_norm,
    spectral_radius,
)


def _power_iteration_norm(a, iters=2000, seed=0):
    """Independent op-norm oracle: power iteration on A*A."""
    rng = np.random.default_rng(seed)
    g = a.conj().T @ a
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return np.sqrt(lam)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        as_matrix([1, 2, 3])
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]))


def test_op_norm_against_power_iteration():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(op_norm(a) - _power_iteration_norm(a)) < 1e-9


def test_op_norm_known_values():
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)
    # rank-one uv* has norm |u||v|
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    assert op_norm(np.outer(u, v)) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))


def test_min_eig_hermitian_characteristic_oracle():
    # 2x2 Hermitian [[a, b], [conj(b), c]]: eigenvalues from the quadratic
    # formula, written out independently of any eigensolver.
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, c = rng.standard_normal(2)
        b = complex(rng.standard_normal(), rng.standard_normal())
        h = np.array([[a, b], [np.conj(b), c]])
        disc = np.sqrt((a - c) ** 2 + 4 * abs(b) ** 2)
        oracle = (a + c - disc) / 2
        assert min_eig_hermitian(h) == pytest.approx(oracle, abs=1e-12)


def test_min_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(InputError):
        min_eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_radius_triangular():
    t = np.array([[0.5, 100.0], [0.0, -0.7]])
    assert spectral_radius(t) == pytest.approx(0.7, abs=1e-12)
    n = np.array([[0, 1], [0, 0]])
    assert spectral_radius(n) == pytest.approx(0.0, abs=1e-12)


def test_embedding_orthonormality_enforced():
    with pytest.raises(InputError):
        Embedding(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


def test_embedding_from_coordinates_and_compress():
    e = Embedding.from_coordinates(4, [2, 0])
    assert e.ambient_dim == 4 and e.dim == 2
    m = np.arange(16, dtype=complex).reshape(4, 4)
    c = compress(m, e)
    # compression picks out the selected rows/columns in the given order
    np.testing.assert_allclose(c, m[np.ix_([2, 0], [2, 0])])


def test_compress_shift_vanishing_entries():
    # the cyclic shift on C^8 compressed to coordinates (e1, e0) is [[0,1],[0,0]]
    m = 8
    u = np.zeros((m, m), dtype=complex)
    for j in range(m):
        u[(j + 1) % m, j] = 1.0
    e = Embedding.from_coordinates(m, [1, 0])
    np.testing.assert_allclose(compress(u, e), np.array([[0, 1], [0, 0]]), atol=0)
