"""Dilation verification, constructors, and divergence certificates."""

import itertools
import math

import numpy as np
import pytest

from rho_radii.dilation import (
    build_nonsimilar_pair,
    build_shift_unitary_rho_dilation,
    build_staircase_isometric_dilation,
    build_staircase_pair,
    cyclic_shift,
    divergence_probe,
    nilpotent_jump,
    popescu_conditions,
    torus_unitarity,
    unitary_pencil_pair,
    verify_rho_dilation,
    verify_uniform_rho_dilation,
)
from rho_radii.errors import CapacityError, InputError
from rho_radii.linalg import Embedding, compress, op_norm
from rho_radii.pencil import OperatorTuple, eval_pencil, k_rho_kernel, phi_rho, psi_rho
from rho_radii.repro import repro_von_neumann


def test_cyclic_shift_is_unitary():
    u = cyclic_shift(5)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=0)
    np.testing.assert_allclose(np.linalg.matrix_power(u, 5), np.eye(5), atol=0)


def test_shift_dilation_valid_window():
    # B^n = rho * P U^n |X must hold exactly for n <= M - 2
    for rho in (0.5, 1.0, 2.0):
        big, e = build_shift_unitary_rho_dilation(rho, 8)
        small = OperatorTuple((nilpotent_jump(rho),))
        wit = verify_rho_dilation(small, big, e, rho, t_max=6)
        assert wit.max_residual == 0.0
        assert wit.passed


def test_shift_dilation_wraparound_fails():
    # at n = M - 1 the cyclic return spoils the identity (documented window)
    rho = 2.0
    big, e = build_shift_unitary_rho_dilation(rho, 8)
    small = OperatorTuple((nilpotent_jump(rho),))
    wit = verify_rho_dilation(small, big, e, rho, t_max=7)
    assert wit.max_residual > 0.1
    assert not wit.passed


def test_shift_dilation_small_m_rejected():
    with pytest.raises(CapacityError):
        build_shift_unitary_rho_dilation(1.0, 4)


def test_uniform_verifier_word_cap():
    big, e = build_shift_unitary_rho_dilation(1.0, 8)
    small = OperatorTuple((nilpotent_jump(1.0),))
    with pytest.raises(CapacityError):
        verify_uniform_rho_dilation(small, big, e, 1.0, n_max=7)


def test_torus_unitarity_positive_case():
    cert = torus_unitarity(unitary_pencil_pair(4))
    assert cert.passed


def test_torus_unitarity_negative_case():
    cert = torus_unitarity(build_staircase_pair(1.0))
    assert not cert.passed


def test_staircase_pair_torus_norm():
    # || zeta A || = sqrt(2) * rho at every torus point
    for rho in (1.0, 2.5):
        pair = build_staircase_pair(rho)
        rng = np.random.default_rng(0)
        for _ in range(10):
            zeta = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            assert op_norm(eval_pencil(pair, zeta)) == pytest.approx(math.sqrt(2) * rho, abs=1e-12)


def test_staircase_isometric_dilation_popescu():
    rho = 2.0
    v, e, interior = build_staircase_isometric_dilation(rho, 8, depth=4)
    cert = popescu_conditions(v, interior)
    assert cert.residual_isometry < 1e-12
    assert cert.residual_orthogonality < 1e-12
    assert cert.range_sum_min_eig >= -1e-12
    assert cert.consistency_flag


def _popescu_on_projector(v, basis):
    """The isometry and orthogonality residuals of popescu_conditions taken
    on the dense projector B B* of the interior basis B."""
    proj, eye = basis @ basis.conj().T, np.eye(v.dim)
    iso = max(op_norm((m.conj().T @ m - eye) @ proj) for m in v.mats)
    orth = max((op_norm(mk.conj().T @ mj @ proj) for mk, mj in itertools.permutations(v.mats, 2)), default=0.0)
    return iso, orth


def test_popescu_residuals_on_basis_equal_projector_form():
    # ||X B|| = ||X B B*|| for B with orthonormal columns: the staircase
    # tree and random tuples under random QR isometries
    cases = []
    for rho in (1.5, 2.0, 3.0):
        v, _, interior = build_staircase_isometric_dilation(rho, 16, depth=5)
        cases.append((v, interior))
    rng = np.random.default_rng(17)
    for n_vars, n, k in ((1, 6, 3), (2, 8, 5), (3, 7, 7), (2, 12, 1)):
        v = OperatorTuple(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                                for _ in range(n_vars)))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        cases.append((v, Embedding(q)))
    for v, interior in cases:
        cert = popescu_conditions(v, interior)
        iso, orth = _popescu_on_projector(v, interior.basis)
        assert cert.residual_isometry == pytest.approx(iso, abs=1e-12 * max(1.0, iso))
        assert cert.residual_orthogonality == pytest.approx(orth, abs=1e-12 * max(1.0, orth))
        if v.n_vars == 1:
            assert cert.residual_orthogonality == 0.0


def test_staircase_uniform_dilation_identity():
    for rho in (1.0, 2.0):
        pair = build_staircase_pair(rho)
        v, e, _ = build_staircase_isometric_dilation(rho, 8, depth=4)
        wit = verify_uniform_rho_dilation(pair, v, e, rho, n_max=3)
        assert wit.max_residual < 1e-12


@pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
def test_rho_entry_points_reject_non_positive_or_non_finite(rho):
    # every entry point that takes a level rho raises InputError, before it
    # computes anything, unless rho is finite and positive
    small, pair = OperatorTuple((nilpotent_jump(1.0),)), build_staircase_pair(1.0)
    big, e = build_shift_unitary_rho_dilation(1.0, 8)
    v, ve, _ = build_staircase_isometric_dilation(1.0, 8, depth=4)
    z = [0.3, 0.2j]
    calls = {
        "verify_rho_dilation": lambda: verify_rho_dilation(small, big, e, rho, 3),
        "verify_uniform_rho_dilation": lambda: verify_uniform_rho_dilation(pair, v, ve, rho, 3),
        "k_rho_kernel": lambda: k_rho_kernel(pair, rho, z, z),
        "psi_rho": lambda: psi_rho(pair, rho, z),
        "phi_rho": lambda: phi_rho(pair, rho, z),
        "build_shift_unitary_rho_dilation": lambda: build_shift_unitary_rho_dilation(rho, 8),
        "build_staircase_pair": lambda: build_staircase_pair(rho),
        "repro_von_neumann": lambda: repro_von_neumann(rho, trials=1),
    }
    for name, call in calls.items():
        with pytest.raises(InputError, match="^rho must be finite and positive$"):
            call()
            pytest.fail(name)


def test_divergence_probe_rejects_non_square():
    with pytest.raises(InputError, match="square"):
        divergence_probe(np.ones((2, 3)))


def test_divergence_probe_classifications():
    grow = np.diag([1.2, 0.3])
    assert divergence_probe(grow).classification == "Diverges"
    shrink = np.diag([0.5, 0.1])
    assert divergence_probe(shrink).classification == "Bounded"
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert divergence_probe(nil).classification == "Bounded"


def test_divergence_probe_exponent():
    lam = 1.3
    probe = divergence_probe(np.diag([lam, 0.2]))
    assert probe.exponent == pytest.approx(math.log(lam), rel=0.05)


def test_nonsimilar_pair_product_structure():
    eps = 0.1
    pair = build_nonsimilar_pair(eps)
    prod = (pair.mats[0] + pair.mats[1]) @ (pair.mats[0] - pair.mats[1])
    c2 = (1 + eps) ** 2
    expected = np.array([
        [-c2, 0, 0],
        [0, c2 / 2, -c2 / 2],
        [0, -c2 / 2, c2 / 2],
    ])
    np.testing.assert_allclose(prod, expected, atol=1e-14)
    eigs = sorted(np.linalg.eigvals(prod).real)
    np.testing.assert_allclose(eigs, [-c2, 0.0, c2], atol=1e-12)


def test_nonsimilar_pair_rejects_negative_eps():
    with pytest.raises(InputError):
        build_nonsimilar_pair(-0.1)


def test_embedding_compression_of_staircase():
    # the dilation embedding recovers the staircase pair at word length 1
    rho = 1.5
    pair = build_staircase_pair(rho)
    v, e, _ = build_staircase_isometric_dilation(rho, 8, depth=3)
    wit = verify_uniform_rho_dilation(pair, v, e, rho, n_max=1)
    assert wit.max_residual < 1e-12


def _verify_per_word(small, big, e, rho, n_max, mode):
    """The residual of every word (uniform) or multi-index (sym), by the
    definition: each word's ambient product formed on its own by
    word_product, symmetrized sums over the distinct words, then compressed."""
    from rho_radii.linalg import compress
    from rho_radii.pencil import word_product

    def sym(a, t):
        words = sorted(set(itertools.permutations([k for k, c in enumerate(t) for _ in range(c)])))
        acc = np.zeros((a.dim, a.dim), dtype=complex)
        for w in words:
            acc += word_product(a, w)
        return math.prod(math.factorial(x) for x in t) / math.factorial(sum(t)) * acc

    if mode == "uniform":
        items = [(w, word_product(small, w), word_product(big, w))
                 for n in range(1, n_max + 1) for w in itertools.product(range(small.n_vars), repeat=n)]
    else:
        ts = [t for n in range(1, n_max + 1) for t in itertools.product(range(n + 1), repeat=small.n_vars)
              if sum(t) == n]
        items = [(t, sym(small, t), sym(big, t)) for t in ts]
    return {w: float(np.linalg.norm(lhs - rho * compress(big_w, e), 2)) for w, lhs, big_w in items}


def _random_tuple(rng, n_vars, dim):
    return OperatorTuple(tuple(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                               for _ in range(n_vars)))


def _dilation_cases():
    for rho in (0.5, 2.0, 3.0):
        v, ve, _ = build_staircase_isometric_dilation(rho, 16, 5)
        yield build_staircase_pair(rho), v, ve, rho, 4
        big, e = build_shift_unitary_rho_dilation(rho, 9)
        yield OperatorTuple((nilpotent_jump(rho),)), big, e, rho, 6
    # a non-commuting pair with random words: residuals nonzero everywhere
    rng = np.random.default_rng(3)
    big = _random_tuple(rng, 2, 6)
    e = Embedding.from_coordinates(6, [0, 2, 5])
    small = OperatorTuple(tuple(compress(m, e) for m in big.mats))
    yield small, big, e, 1.0, 4
    # non-commuting N = 1, 2, 3 under a random orthonormal (not coordinate) embedding
    for n_vars, n_max in ((1, 6), (2, 5), (3, 4)):
        big = _random_tuple(rng, n_vars, 7)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3)))
        e = Embedding(q)
        yield _random_tuple(rng, n_vars, 3).scale(0.3), big.scale(0.4), e, 1.5, n_max


def test_dilation_verifiers_match_per_word_reference():
    # products on the embedded subspace sum in another order than the
    # ambient word products: residuals agree to rounding, and the worst key
    # agrees wherever the top two residuals are further apart than that
    for small, big, e, rho, n_max in _dilation_cases():
        for mode, fn in (("uniform", verify_uniform_rho_dilation), ("sym", verify_rho_dilation)):
            wit = fn(small, big, e, rho, n_max)
            ref = _verify_per_word(small, big, e, rho, n_max, mode)
            top = max(ref.values())
            tol = 1e-12 * max(1.0, top)
            assert abs(wit.max_residual - top) <= tol, (mode, wit.max_residual, top)
            order = sorted(ref, key=lambda w: (-ref[w], sum(w) if mode == "sym" else len(w), w))
            if len(order) == 1 or ref[order[0]] - ref[order[1]] > tol:
                assert tuple(wit.worst_word) == (order[0] if top > 0 else ()), mode


def test_dilation_worst_key_is_first_by_order():
    # exact ties: the worst key is the first by order, then lexicographically,
    # not the lexicographically least (the 1x1 residuals are exact in binary)
    e = Embedding.identity(1)

    def scalars(*xs):
        return OperatorTuple(tuple(np.array([[x]]) for x in xs))

    wit = verify_rho_dilation(scalars(0.0, 1.25), scalars(1.0, 0.75), e, 1.0, 2)
    assert (wit.max_residual, wit.worst_word) == (1.0, (1, 0))  # ties (2, 0), (0, 2)
    wit = verify_uniform_rho_dilation(scalars(1.25, 0.0), scalars(0.75, 1.0), e, 1.0, 2)
    assert (wit.max_residual, wit.worst_word) == (1.0, (1,))  # ties (0, 0), (1, 1)
