"""Membership decisions and radius computations."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rho_radii import radii
from rho_radii.dilation import build_nonsimilar_pair
from rho_radii.errors import InputError
from rho_radii.linalg import op_norm, spectral_radius
from rho_radii.pencil import OperatorTuple, eval_pencil
from rho_radii.radii import (
    CERTIFIED,
    DEFAULT_TOL,
    IN,
    NECESSARY_ONLY,
    OUT,
    MembershipVerdict,
    kernel_margin,
    membership_single,
    membership_single_all_conditions,
    membership_tuple,
    numerical_radius,
    sample_commuting_tuple,
    sample_commuting_tuples,
    substitute,
    w_rho,
    w_rho_tuple,
)
from rho_radii.repro import admissible_eps
from rho_radii.serialize import matrix_from_json

NILP = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_membership_contraction_at_rho_1():
    v = membership_single(NILP, 1.0)
    assert v.decision == IN
    assert v.margin >= -1e-9


def test_membership_strict_contraction_has_positive_margin():
    v = membership_single(0.5 * NILP, 1.0)
    assert v.decision == IN and v.margin > 0.1


def test_membership_out_above_norm():
    v = membership_single(1.5 * NILP, 1.0)
    assert v.decision == OUT and v.margin < -0.1


def test_scalar_boundary_cases():
    # a = rho/(2-rho) is the scalar class boundary below rho = 1
    for rho in (0.3, 0.5, 0.8):
        a = np.array([[rho / (2 - rho)]])
        assert membership_single(a, rho).decision == IN
        assert membership_single(a * 1.01, rho).decision == OUT


def test_membership_rejects_bad_rho():
    with pytest.raises(InputError):
        membership_single(NILP, 0.0)


def test_radii_reject_nonpositive_width():
    # with a zero width the bisection could never stop
    with pytest.raises(InputError):
        w_rho(NILP, 2.0, width=0.0)
    with pytest.raises(InputError):
        w_rho_tuple(OperatorTuple((NILP, NILP)), 2.0, width=0.0)


def test_kernel_margin_matches_verdict_margin():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    a = a / op_norm(a)
    v = membership_single(a, 1.4)
    assert kernel_margin(a, 1.4) == pytest.approx(v.margin, abs=1e-12)


def test_numerical_radius_oracles():
    # w([[0,1],[0,0]]) = 1/2; w(normal) = spectral radius
    assert numerical_radius(NILP) == pytest.approx(0.5, abs=1e-9)
    d = np.diag([0.3, -0.9, 0.5j])
    assert numerical_radius(d) == pytest.approx(0.9, abs=1e-9)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # direct grid oracle at a modest resolution
    oracle = max(
        np.linalg.eigvalsh((np.exp(1j * t) * a + np.exp(-1j * t) * a.conj().T) / 2).max()
        for t in np.linspace(0, 2 * np.pi, 7201)
    )
    assert numerical_radius(a) == pytest.approx(oracle, abs=1e-5)


def test_w_rho_identity_matrix():
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        rep = w_rho(np.eye(2), rho)
        exact = 1.0 if rho >= 1 else 2.0 / rho - 1.0
        assert rep.hi - rep.lo <= 1e-6
        assert rep.mid == pytest.approx(exact, abs=2e-6)


def test_w_rho_nilpotent_law():
    for rho in (0.5, 1.0, 2.0, 3.0):
        assert w_rho(NILP, rho).mid == pytest.approx(1.0 / rho, abs=1e-5)


def test_w_rho_interpolates_norm_and_numrad():
    rng = np.random.default_rng(2)
    for seed in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert w_rho(a, 1.0).mid == pytest.approx(op_norm(a), abs=1e-5)
        assert w_rho(a, 2.0).mid == pytest.approx(numerical_radius(a), abs=1e-5)


def test_w_rho_zero_matrix():
    rep = w_rho(np.zeros((2, 2)), 1.5)
    assert rep.lo == rep.hi == 0.0


def test_w_rho_monotone_decreasing_in_rho():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    vals = [w_rho(a, r).mid for r in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 2e-6


def test_w_rho_above_spectral_radius():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    for rho in (1.0, 3.0, 8.0):
        assert w_rho(a, rho).hi >= spectral_radius(a) - 1e-6


def test_all_conditions_agree():
    rng = np.random.default_rng(5)
    cases = []
    for seed in range(8):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = a / op_norm(a) * rng.uniform(0.5, 1.5)
        cases += [(a, rho) for rho in (0.5, 1.0, 2.0)]
    # psi and phi have poles deep inside the disk, which a ring near the
    # circle never meets
    cases.append((np.array([[100.0]]), 3.0))
    for a, rho in cases:
        res = membership_single_all_conditions(a, rho)
        decisions = {res[k] for k in ("kernel", "psi", "phi")}
        decisions.discard("Borderline")
        assert len(decisions) <= 1, (a, rho, res)


def test_psi_margin_with_poles_on_the_circle():
    # an eigenvalue on the unit circle puts the pole of (I - zA)^{-1} on
    # the circle, just outside the ring; for normal A the ring minimum is
    # min_k 1 - 2/rho + (2/rho)/(1 + |lam_k|), up to the ring's radius
    for lam in ([1.0, 0.5], [1j, -0.3], [1.0, 1.0]):
        for rho in (0.5, 1.5, 2.0, 3.0):
            exact = min(1 - 2 / rho + (2 / rho) / (1 + abs(x)) for x in lam)
            margin = membership_single_all_conditions(np.diag(lam), rho)["psi_margin"]
            assert margin == pytest.approx(exact, abs=1e-5), (lam, rho, margin)


def _psi_ring(a, rho, n):
    """lambda_min Re psi at n equally spaced angles of |z| = 1 - 1e-6."""
    zs = (1 - 1e-6) * np.exp(2j * np.pi * np.arange(n) / n)
    psi = (1 - 2 / rho) * np.eye(len(a)) + (2 / rho) * np.linalg.inv(np.eye(len(a)) - zs[:, None, None] * a)
    return np.linalg.eigvalsh((psi + psi.conj().swapaxes(1, 2)) / 2)[:, 0]


def test_psi_margin_bounds_a_dense_ring():
    # on the criterion-10 cases the level-set psi margin is at most every
    # sample of a 4096-angle ring plus its gap, and within 1e-5 of the
    # 512-angle ring that it replaced
    rng = np.random.default_rng(10)
    finite = 0
    for i in range(30):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a / op_norm(a) * rng.uniform(0.3, 1.8)
        for rho in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            margin = membership_single_all_conditions(a, rho)["psi_margin"]
            if not math.isfinite(margin):
                assert spectral_radius(a) > 1, (i, rho)
                continue
            finite += 1
            gap = radii.KERNEL_GAP * (1 + np.linalg.norm(a)) ** 2 * (1 + abs(margin))
            assert margin <= _psi_ring(a, rho, 4096).min() + gap, (i, rho, margin)
            assert margin == pytest.approx(_psi_ring(a, rho, 512).min(), abs=1e-5), (i, rho, margin)
    assert finite >= 100


def test_psi_out_for_unimodular_jordan_blocks():
    # a Jordan block with a unimodular eigenvalue is not power bounded; the
    # level set there is not accurate for d >= 3, but reads Out, as the
    # kernel and phi do
    for d in range(2, 9):
        for lam in (1.0, np.exp(0.3j), -1.0):
            j = lam * np.eye(d) + np.eye(d, k=1)
            for rho in (0.5, 1.0, 2.0, 3.0, 10.0):
                res = membership_single_all_conditions(j, rho)
                assert (res["kernel"], res["psi"], res["phi"]) == (OUT, OUT, OUT), (d, lam, rho, res)


def test_sampled_tuples_commute_and_contract():
    for seed in range(6):
        ct = sample_commuting_tuple(3, 2, seed)
        assert ct.commutator_residual() < 1e-10
        assert ct.max_norm() < 1.0


def test_sample_batch_deterministic():
    b1 = sample_commuting_tuples(2, 5, seed=9)
    b2 = sample_commuting_tuples(2, 5, seed=9)
    for x, y in zip(b1, b2):
        for mx, my in zip(x.mats, y.mats):
            np.testing.assert_array_equal(mx, my)


def test_membership_tuple_single_var_matches_single():
    a = OperatorTuple((0.8 * NILP,))
    v = membership_tuple(a, 1.0)
    assert v.decision == membership_single(0.8 * NILP, 1.0).decision


def test_membership_tuple_pair_certified():
    small = OperatorTuple((0.2 * NILP, 0.2 * np.eye(2)))
    v = membership_tuple(small, 2.0)
    assert v.decision == IN and v.exactness == "Certified"


def test_membership_tuple_pair_out():
    big = OperatorTuple((3.0 * np.eye(2), 3.0 * NILP))
    v = membership_tuple(big, 1.0)
    assert v.decision == OUT


def test_membership_tuple_three_vars_necessary_only():
    # under the norm bound sum ||A_k|| max(1, 2/rho - 1) < 1 the verdict is
    # certified; above it (here 1.5) a passing triple is NecessaryOnly
    t = OperatorTuple(tuple(0.1 * np.eye(2) for _ in range(3)))
    v = membership_tuple(t, 2.0)
    assert v.decision == IN and v.exactness == CERTIFIED and v.certificate["method"] == "norm-bound"
    u = OperatorTuple((0.5 * NILP, 0.5 * NILP, 0.5 * NILP))
    v = membership_tuple(u, 2.0)
    assert v.decision == IN and v.exactness == "NecessaryOnly"


def test_w_rho_tuple_single_var_matches_w_rho():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    rep_t = w_rho_tuple(OperatorTuple((a,)), 2.0)
    rep_s = w_rho(a, 2.0)
    assert rep_t.mid == pytest.approx(rep_s.mid, abs=1e-4)


def test_w_rho_tuple_scaling():
    t = OperatorTuple((0.5 * NILP, 0.3 * np.eye(2)))
    r1 = w_rho_tuple(t, 1.5).mid
    r2 = w_rho_tuple(t.scale(2.0), 1.5).mid
    assert r2 == pytest.approx(2 * r1, rel=1e-3)


def test_w_rho_tuple_unitary_pair():
    # the pencil is unitary at every torus point, so w_1 = max ||zeta A|| = 1
    from rho_radii.dilation import unitary_pencil_pair

    rep = w_rho_tuple(unitary_pencil_pair(4), 1.0)
    assert rep.lo <= 1.0 + 1e-12 and 1.0 <= rep.hi  # lo is 1 up to the SVD's rounding
    assert rep.mid == pytest.approx(1.0, abs=1e-8)


def _shift(n):
    s = np.zeros((n, n))
    s[np.arange(1, n), np.arange(n - 1)] = 1.0
    return s


def _random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _assert_bracket_confirmed(a, rho, rep, tol=1e-9):
    """hi passes the kernel test; the kernel is negative somewhere at lo,
    unless lo is the lower bound ||A||/rho."""
    assert rep.hi - rep.lo <= 1e-6
    assert kernel_margin(a / rep.hi, rho) >= -tol
    assert rep.lo == op_norm(a) / rho or kernel_margin(a / rep.lo, rho) < 0


def test_w_rho_bracket_ends_confirmed_by_kernel():
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        a = _random_matrix(rng, d)
        for rho in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
            rep = w_rho(a, rho)
            _assert_bracket_confirmed(a, rho, rep)
            spec = rep.grid_spec
            # rho = 1 reads the norm and runs no level
            assert (rho != 1.0) <= spec["slice_levels"] <= 5, (d, rho, spec)
            assert spec["certified_level"] == rep.hi, (d, rho, spec)
            assert rep.method == radii.LEVELSET_METHOD


def test_radius_brackets_are_ordered():
    # lo <= hi for one operator and for pairs; at rho = 1 the bracket holds
    # the computed norm exactly, where the slice's level can round an ulp
    # below ||A||/rho
    rng = np.random.default_rng(17)
    for d in range(1, 9):
        for _ in range(4):
            a, b = _random_matrix(rng, d), _random_matrix(rng, d)
            for rho in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0):
                one, pair = w_rho(a, rho), w_rho_tuple(OperatorTuple((a, b)), rho)
                assert one.lo <= one.hi and pair.lo <= pair.hi, (d, rho, one, pair)
                if rho == 1.0:
                    assert one.lo <= np.linalg.svd(a, compute_uv=False)[0] <= one.hi, (d, one)


def test_w_rho_shift_above_dim_64():
    # w_2 of the n x n shift is cos(pi / (n + 1)), below its spectral bound 1
    s = _shift(65)
    rep = w_rho(s, 2.0)
    assert rep.mid == pytest.approx(numerical_radius(s), abs=1e-6)
    assert rep.mid == pytest.approx(math.cos(math.pi / 66), abs=1e-6)


def _phi_norms(b, rho, zs):
    """||phi(zB)|| at each point of ``zs``."""
    zb = zs[:, None, None] * b
    return np.linalg.svd(zb @ np.linalg.inv((rho - 1) * zb - rho * np.eye(len(b))), compute_uv=False)[:, 0]


def test_phi_circle_sup_bounds_dense_circle():
    # ||phi|| on a 4096-angle circle and at interior points stays at or
    # below the level-set sup, which the circle reaches to the grid's error
    rng = np.random.default_rng(13)
    inner = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    for d in range(1, 5):
        g = _random_matrix(rng, d)
        for b in (_unit(g), _unit(np.triu(g, 1)), np.zeros((d, d))):
            for rho in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0):
                c = (0.3 if rho < 0.5 else 0.9) * b  # |rho-1| r(c) < rho: no pole
                sup = radii._phi_circle_sup(c, rho)
                dense = _phi_norms(c, rho, DENSE).max()
                assert dense <= sup * (1 + 1e-12) + 1e-12, (d, rho, dense, sup)
                assert sup - dense <= 1e-5 * (1 + sup), (d, rho, dense, sup)
                assert _phi_norms(c, rho, inner).max() <= sup * (1 + 1e-12) + 1e-12


def test_phi_circle_sup_infinite_at_a_pole():
    # phi(zA) has a pole where (rho-1) z lam = rho for an eigenvalue lam
    assert radii._phi_circle_sup(np.array([[100.0]]), 3.0) == math.inf
    assert radii._phi_circle_sup(np.diag([0.1, 2.0]), 2.0) == math.inf
    assert radii._phi_circle_sup(np.diag([0.1, 1.9]), 2.0) < math.inf


def test_substitute_mixed_product_identity():
    rng = np.random.default_rng(5)
    a, b, c, d = (OperatorTuple((_random_matrix(rng, 2),)) for _ in range(4))
    ac, bd = OperatorTuple((a[0] @ c[0],)), OperatorTuple((b[0] @ d[0],))
    np.testing.assert_allclose(substitute(a, b) @ substitute(c, d), substitute(ac, bd), atol=1e-12)
    # scalar substitutions give the pencil
    pair = OperatorTuple((_random_matrix(rng, 3), _random_matrix(rng, 3)))
    z = np.array([0.3 - 0.2j, -0.7j])
    scalars = OperatorTuple(tuple(np.array([[zk]]) for zk in z))
    np.testing.assert_allclose(substitute(pair, scalars), eval_pencil(pair, z), atol=1e-15)
    with pytest.raises(InputError):
        substitute(pair, OperatorTuple((np.eye(1),)))


@pytest.mark.parametrize("a", [5.0, 10.0])
def test_pair_with_interior_pole_is_out(a):
    # the slice a I alone has w_3 = a; phi has its pole at |z| = 3 / (2a),
    # deep inside the bidisk, so a grid near the torus never meets it
    pair = OperatorTuple((a * np.eye(2), 0.01 * NILP))
    v = membership_tuple(pair, 3.0)
    assert v.decision == OUT and v.exactness == "Certified"
    assert w_rho_tuple(pair, 3.0).lo >= a


def test_w_rho_tuple_scalar_pairs():
    # the worst slice of a scalar pair is a + w b with |a + w b| = |a| + |b|
    for a, b in ((0.3, 0.5j), (-1.2 + 0.4j, 0.7 - 0.1j), (2.0, 0.0), (0.0, 0.0)):
        pair = OperatorTuple((np.array([[a]]), np.array([[b]])))
        for rho in (0.5, 1.0, 2.0, 3.0):
            rep = w_rho_tuple(pair, rho)
            exact = (abs(a) + abs(b)) * max(1.0, 2.0 / rho - 1.0)
            assert rep.lo - 1e-9 <= exact <= rep.hi + 1e-6 * exact, (a, b, rho, rep)


def _scalar_triple(rng, rho, factor, n_vars=3):
    """Scalars with random moduli and phases, at ``factor`` times the class
    boundary sum |a_k| max(1, 2/rho - 1) = 1."""
    mods = rng.uniform(0.2, 1.0, n_vars)
    c = mods * np.exp(2j * np.pi * rng.uniform(size=n_vars)) / (mods.sum() * max(1.0, 2.0 / rho - 1.0))
    return OperatorTuple(tuple(np.array([[factor * x]]) for x in c))


def test_scalar_triple_membership_closed_form():
    # In iff sum |a_k| max(1, 2/rho - 1) <= 1: the slice search finds a
    # failing slice 2% outside, and the norm bound certifies 2% inside
    # (also for N = 4)
    rng = np.random.default_rng(61)
    for rho in (0.5, 1.0, 2.0, 3.0):
        for n_vars in (3, 3, 3, 3, 4):
            for factor, want in ((1.02, OUT), (0.98, IN)):
                v = membership_tuple(_scalar_triple(rng, rho, factor, n_vars), rho)
                assert v.decision == want, (rho, n_vars, factor, v)
                assert v.exactness == CERTIFIED
                assert (v.certificate["method"] == "norm-bound") == (want == IN), (rho, n_vars, factor, v)


CERT_RHOS = (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0)


def _norm_bound(a, rho):
    """sum ||A_k|| max(1, 2/rho - 1), the certified tuple radius bound."""
    return sum(op_norm(m) for m in a.mats) * max(1.0, 2.0 / rho - 1.0)


def test_norm_bound_certifies_scalar_tuples():
    # 2% inside the closed form: In, Certified by the norm bound, with the
    # scalar kernel's disk minimum rho - 2|rho-1| t + (rho-2) t^2,
    # t = sum |a_k|, as margin; 2% outside: Out from the slice search
    rng = np.random.default_rng(63)
    for rho in CERT_RHOS:
        for n_vars in (2, 3, 4):
            a = _scalar_triple(rng, rho, 0.98, n_vars)
            v = membership_tuple(a, rho)
            t = sum(abs(m[0, 0]) for m in a.mats)
            exact = rho - 2 * abs(rho - 1) * t + (rho - 2) * t ** 2
            assert (v.decision, v.exactness, v.certificate["method"]) == (IN, CERTIFIED, "norm-bound"), (rho, n_vars)
            assert v.margin == pytest.approx(exact, abs=1e-12), (rho, n_vars)
            assert v.certificate["norm_sum"] == pytest.approx(t, rel=1e-15)
            scalar = np.array([[t]])
            assert abs(v.margin - kernel_margin(scalar, rho)) <= 2 * radii.KERNEL_GAP * _scale(scalar, rho)
            v = membership_tuple(_scalar_triple(rng, rho, 1.02, n_vars), rho)
            assert v.decision == OUT and v.exactness == CERTIFIED, (rho, n_vars)
            assert v.certificate["method"].startswith("torus-slice"), (rho, n_vars)


def test_norm_bound_margin_below_slices_and_substitutions():
    # the certified margin is at most the disk minimum of every first-grid
    # slice and every sampled substitution, random pairs and triples under
    # the bound
    rng = np.random.default_rng(64)
    for n_vars in (2, 3):
        samples = sample_commuting_tuples(n_vars, 16)
        phases = np.exp(1j * radii._phase_grid(n_vars - 1)[0])
        for d in range(1, 5):
            for rho in (0.3, 1.5, 3.0):
                a = OperatorTuple(tuple(_random_matrix(rng, d) for _ in range(n_vars)))
                a = a.scale(rng.uniform(0.5, 1.0) / _norm_bound(a, rho))
                v = membership_tuple(a, rho, budget=16)
                assert v.certificate["method"] == "norm-bound", (n_vars, d, rho)
                for b in list(radii._slice_stack(a, phases)) + [substitute(a, c) for c in samples]:
                    guard = radii.SCREEN_ROUND_GUARD * len(b) * _scale(b, rho)
                    assert v.margin <= kernel_margin(b, rho) + guard, (n_vars, d, rho)


def test_norm_bound_at_the_bound_runs_the_search():
    # at sum ||A_k|| max(1, 2/rho - 1) = 1 the floor is within the guard,
    # so the certificate does not fire and the slice search decides
    rng = np.random.default_rng(65)
    for rho in CERT_RHOS:
        for n_vars in (2, 3):
            a = OperatorTuple(tuple(_random_matrix(rng, 2) for _ in range(n_vars)))
            a = a.scale(1 / _norm_bound(a, rho))
            t = sum(op_norm(m) for m in a.mats)
            assert abs(radii._kernel_norm_floor(t, rho)) <= radii.SCREEN_ROUND_GUARD * 2 * radii._kernel_scale(t, rho)
            v = membership_tuple(a, rho, budget=4)
            cert = v.certificate
            assert v.decision == IN and cert["method"].startswith("torus-slice"), (rho, n_vars)
            ran = cert["cell_vertices"] > 0 if n_vars == 2 else cert["slice_points"] == radii.SLICE_POINTS
            assert "norm_sum" not in cert and ran, (rho, n_vars, cert)


def test_norm_bound_fires_iff_triple_radius_hi_below_1():
    # for N >= 3 the certificate fires iff w_rho_tuple's hi, the same bound,
    # is below 1 (4 times the bound passes rho/(rho-2), where the uncapped
    # quadratic turns positive again at rho = 3)
    rng = np.random.default_rng(66)
    for n_vars in (3, 4):
        for rho in (0.5, 1.0, 2.0, 3.0):
            for d in (1, 2):
                a = OperatorTuple(tuple(_random_matrix(rng, d) for _ in range(n_vars)))
                for factor in (0.5, 0.999, 1.001, 1.5, 4.0):
                    b = a.scale(factor / _norm_bound(a, rho))
                    fired = membership_tuple(b, rho, budget=4).certificate["method"] == "norm-bound"
                    hi = w_rho_tuple(b, rho).hi
                    assert fired == (hi < 1), (n_vars, rho, d, factor, hi)


def test_triples_missed_by_a_torus_curve_are_out():
    # (1, 1, -1) s is worst at the phases (1, -1), which the curve
    # zeta -> (zeta, zeta^2, zeta^3) never reaches; its exact radius is 3s
    for s, rho in ((1.05 / 3, 1.0), (1.2 / 3, 2.0)):
        a = OperatorTuple(tuple(np.array([[s * c]]) for c in (1.0, 1.0, -1.0)))
        v = membership_tuple(a, rho)
        assert v.decision == OUT and v.exactness == CERTIFIED, (rho, v)
        z = np.array([complex(*p) for p in v.certificate["witness_z"]])
        assert np.abs(z).max() <= 1 + 1e-15
        assert radii._kernel_lambda_min(eval_pencil(a, z), rho, np.ones(1))[0] == pytest.approx(v.margin, abs=1e-12)
        rep = w_rho_tuple(a, rho)
        assert rep.lo <= 3 * s <= rep.hi and rep.lo == pytest.approx(3 * s, rel=1e-8), (rho, rep)


def test_w_rho_tuple_scalar_triples_bracket_exact_value():
    # lo is a slice's w_rho, hi the bound sum ||A_k|| max(1, 2/rho - 1),
    # which scalars attain
    rng = np.random.default_rng(62)
    for rho in (0.5, 1.0, 2.0, 3.0):
        for _ in range(3):
            a = _scalar_triple(rng, rho, rng.uniform(0.5, 2.0))
            rep = w_rho_tuple(a, rho)
            exact = sum(abs(m[0, 0]) for m in a.mats) * max(1.0, 2.0 / rho - 1.0)
            assert rep.lo <= exact * (1 + 1e-12) and exact <= rep.hi * (1 + 1e-12), (rho, exact, rep)
            assert rep.lo >= exact * (1 - 1e-3), (rho, exact, rep)


def _random_pairs():
    rng = np.random.default_rng(14)
    for d in (2, 3, 2, 3):
        yield OperatorTuple((_random_matrix(rng, d), _random_matrix(rng, d)))


def test_pair_verdict_agrees_with_radius():
    for pair in _random_pairs():
        for rho in (0.5, 2.0, 3.0):
            rep = w_rho_tuple(pair, rho)
            spec = rep.grid_spec
            assert spec["cells_unproven"] == 0 and spec["cell_rounds"] >= 1
            assert spec["certified_level"] == rep.hi
            v_in = membership_tuple(pair.scale(1 / (rep.hi * (1 + 1e-6))), rho)
            v_out = membership_tuple(pair.scale(1 / (rep.lo * (1 - 1e-6))), rho)
            assert (v_in.decision, v_out.decision) == (IN, OUT), (rho, rep, v_in, v_out)
            # the cells prove v_in, with no cell left unproven
            cert = v_in.certificate
            assert (v_in.exactness, cert["method"], cert["cells_unproven"]) == (CERTIFIED, radii.CELLS_METHOD, 0), cert


def _slice_root(pair, t, rho):
    """The largest w_rho root that the slice A_1 + e^{it} A_2 attains."""
    s = pair[0] + np.exp(1j * t) * pair[1]
    norm = op_norm(s)
    return radii._slices_max((s / norm)[None], rho)["value"] * norm


def test_pair_hi_bounds_every_grid_slice():
    # hi is the level at which the cells prove every slice, so it bounds
    # w_rho of the first phase grid's slices, and the root that a
    # golden-section search of the phase attains around slice_w; at
    # ref_pairs.json entry 5 and rho = 3 the search-based hi of the old
    # phase search fell 1.2e-9 relative below such a root
    rng = np.random.default_rng(31)
    w = np.exp(1j * radii._phase_grid(1)[0])
    cases = []
    for d in (1, 2, 3):
        pair = OperatorTuple((_random_matrix(rng, d), _random_matrix(rng, d)))
        cases += [(pair, rho) for rho in (0.5, 1.0, 2.0, 3.0)]
    entry = json.loads((Path(__file__).resolve().parents[1] / "bench" / "ref_pairs.json").read_text())["entries"][5]
    cases.append((OperatorTuple(tuple(matrix_from_json(m) for m in entry["mats"])), 3.0))
    for pair, rho in cases:
        rep = w_rho_tuple(pair, rho)
        for s in radii._slice_stack(pair, w):
            assert rep.hi >= w_rho(s, rho).lo, (pair.dim, rho, rep)
        t0 = np.angle(complex(*rep.grid_spec["slice_w"]))
        _, best = _golden_min(lambda t: -_slice_root(pair, t, rho), t0 - np.pi / 32, t0 + np.pi / 32, 60)
        assert rep.lo <= -best <= rep.hi, (pair.dim, rho, rep, -best)


def test_pair_radius_above_commuting_substitutions():
    # commuting strict contractions substituted into a member give members
    samples = sample_commuting_tuples(2, 16, dims=(2, 3))
    for pair in _random_pairs():
        for rho in (0.5, 2.0, 3.0):
            rep = w_rho_tuple(pair, rho)
            for c in samples:
                assert rep.hi >= w_rho(substitute(pair, c), rho).lo - rep.width, (rho, rep)


def test_cell_vertices_are_sound():
    # every level the cell recursion proves passes the member test on 8192
    # dense phases: the pair radius's hi, and the level just above it at
    # which membership decides In, Certified (random pairs, d 1-4, rho
    # 0.3-10); just below lo membership finds an Out slice
    rng = np.random.default_rng(83)
    dense = np.exp(1j * np.linspace(0, 2 * np.pi, 8192, endpoint=False))[:, None]
    for i, rho in enumerate(CERT_RHOS):
        a = OperatorTuple((_random_matrix(rng, 1 + i % 4), _random_matrix(rng, 1 + i % 4)))
        rep = w_rho_tuple(a, rho)
        assert rep.grid_spec["cells_unproven"] == 0 and rep.lo <= rep.hi, (rho, rep)
        v = membership_tuple(a.scale(1 / (rep.hi * (1 + 1e-9))), rho)
        assert (v.decision, v.exactness) == (IN, CERTIFIED), (rho, v.certificate)
        assert membership_tuple(a.scale(1 / (rep.lo * (1 - 1e-8))), rho).decision == OUT, rho
        for level in (rep.hi, rep.hi * (1 + 1e-9)):
            s = radii._slice_stack(a.scale(1 / level), dense)
            rows = [r for r, _, _ in radii._level1_failures(s, rho, {"slice_crossing_solves": 0}) if r.size]
            assert not rows, (rho, level, rep)


def _diagonal_pair(rng, d):
    """diag(a), diag(b) with random complex entries, the largest |a_i| in
    coordinate 0 and the largest |b_i| in coordinate 1, and the exact
    radius factor max_i |a_i| + |b_i|."""
    a, b = (rng.uniform(0.1, 0.6, d) * np.exp(2j * np.pi * rng.uniform(0, 1, d)) for _ in range(2))
    a[0], b[1] = np.exp(2j * np.pi * rng.uniform()), np.exp(2j * np.pi * rng.uniform())
    return OperatorTuple((np.diag(a), np.diag(b))), float(np.max(np.abs(a) + np.abs(b)))


def test_diagonal_pair_closed_form():
    # a diagonal pair is a sum of scalar pairs (a_i, b_i), whose radius is
    # (|a_i| + |b_i|) max(1, 2/rho - 1); with the largest entries in
    # different coordinates the norm bound does not fire, and the cells
    # prove In just inside: their margin is a lower bound on the least
    # slice disk minimum, the scalar floor of the worst coordinate
    rng = np.random.default_rng(85)
    for rho in CERT_RHOS:
        for d in (2, 3, 4):
            pair, top = _diagonal_pair(rng, d)
            exact = top * max(1.0, 2.0 / rho - 1.0)
            inside = pair.scale(0.98 / exact)
            v = membership_tuple(inside, rho)
            cert = v.certificate
            assert (v.decision, v.exactness, cert["method"]) == (IN, CERTIFIED, radii.CELLS_METHOD), (rho, d, cert)
            diag = np.abs(np.diagonal(inside.mats[0])) + np.abs(np.diagonal(inside.mats[1]))
            assert 0 <= v.margin <= float(radii._kernel_norm_floor(diag, rho).min()), (rho, d, v.margin)
            assert membership_tuple(pair.scale(1.02 / exact), rho).decision == OUT, (rho, d)


def test_cells_find_out_slices_between_grid_phases():
    # the worst slice of a diagonal pair whose largest coordinate is
    # (1/2, e^{-i pi/64}/2) has phase pi/64, midway between two phases of
    # the first grid, where the slices lie 3e-4 below it: 1e-4 outside the
    # class every grid slice is a member, and the split cells find an Out
    # slice
    rng = np.random.default_rng(87)
    for rho in CERT_RHOS:
        for d in (1, 2, 3):
            a = np.append(0.5, rng.uniform(0.1, 0.4, d - 1)) * np.exp(2j * np.pi * rng.uniform(0, 1, d))
            b = np.append(0.5, rng.uniform(0.1, 0.4, d - 1)) * np.exp(2j * np.pi * rng.uniform(0, 1, d))
            b[0] = 0.5 * a[0] / abs(a[0]) * np.exp(-1j * np.pi / radii.SLICE_POINTS)
            exact = max(1.0, 2.0 / rho - 1.0)
            pair = OperatorTuple((np.diag(a), np.diag(b))).scale(1.0001 / exact)
            v = membership_tuple(pair, rho)
            cert = v.certificate
            assert (v.decision, v.exactness) == (OUT, CERTIFIED), (rho, d, cert)
            assert cert["cell_rounds"] > 1 and cert["cells_unproven"] == 0, (rho, d, cert)


def _near_flat_pairs():
    """(pair, rho): a normal A_2 and a rank-one A_1 of 1e-3 to 1e-1 its
    norm, so that w_rho of the slices A_1 + w A_2 barely depends on w."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(_random_matrix(rng, d))
        a2 = q @ np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)) @ q.conj().T
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a1 = 10 ** rng.uniform(-3, -1) * op_norm(a2) * np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))
        yield OperatorTuple((a1, a2)), float(rng.choice([0.5, 2.0, 3.0, 5.0]))


def test_near_flat_pairs_just_outside_are_out():
    # just below lo, where the slices that fail lie in a narrow arc while
    # most cells' tangent pencils fail: membership keeps cutting cells
    # until a real slice in that arc is the Out witness
    for pair, rho in _near_flat_pairs():
        v = membership_tuple(pair.scale(1 / (w_rho_tuple(pair, rho).lo * (1 - 1e-6))), rho)
        assert (v.decision, v.exactness) == (OUT, CERTIFIED), (rho, v.certificate)


def _reference_pairs():
    """(pair, rho, midpoint) for every pair and level of the recorded
    reference radii bench/ref_pairs.json."""
    path = Path(__file__).resolve().parents[1] / "bench" / "ref_pairs.json"
    for entry in json.loads(path.read_text())["entries"]:
        pair = OperatorTuple(tuple(matrix_from_json(m) for m in entry["mats"]))
        for rho, (lo, hi) in entry["w"].items():
            yield pair, float(rho), (lo + hi) / 2


def test_reference_pairs_decided_near_their_radius():
    # 5% and 0.1% either side of each recorded radius; just inside, the
    # cells prove In within their budget
    for pair, rho, mid in _reference_pairs():
        for factor, want in ((0.95, IN), (0.999, IN), (1.001, OUT), (1.05, OUT)):
            v = membership_tuple(pair.scale(factor / mid), rho)
            assert v.decision == want, (rho, mid, factor, v.certificate)
            if want == IN:
                assert v.exactness == CERTIFIED and v.certificate["cells_unproven"] == 0, (rho, factor)


@pytest.mark.parametrize("n_vars", [1, 2, 3])
def test_tuple_knobs_rejected(n_vars):
    t = OperatorTuple(tuple(0.1 * np.eye(2) for _ in range(n_vars)))
    for kwargs in ({"tol": 0.0}, {"tol": -1.0}, {"budget": 0}, {"budget": -5}):
        with pytest.raises(InputError):
            membership_tuple(t, 2.0, **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_knobs_rejected(bad):
    pair = OperatorTuple((0.1 * NILP, 0.1 * np.eye(2)))
    for fn, a in ((w_rho, NILP), (membership_single, NILP), (membership_tuple, pair), (w_rho_tuple, pair)):
        with pytest.raises(InputError):
            fn(a, rho=bad)
    for fn, a in ((membership_single, NILP), (membership_tuple, pair)):
        with pytest.raises(InputError):
            fn(a, rho=2.0, tol=bad)
    for fn, a in ((w_rho, NILP), (w_rho_tuple, pair)):
        with pytest.raises(InputError):
            fn(a, 2.0, width=bad)


@pytest.mark.parametrize("knobs", [{"rho": 0.0}, {"rho": -1.0}, {"rho": math.nan}, {"rho": math.inf},
                                   {"rho": 2.0, "tol": math.nan}, {"rho": 2.0, "tol": 0.0}])
def test_all_conditions_and_kernel_margin_reject_bad_knobs(knobs):
    # they raised ZeroDivisionError or LinAlgError, or returned verdicts
    with pytest.raises(InputError):
        membership_single_all_conditions(NILP, **knobs)
    if "tol" not in knobs:
        with pytest.raises(InputError):
            kernel_margin(NILP, **knobs)


def _membership_tuple_loop(a, rho, tol=DEFAULT_TOL, budget=radii.DEFAULT_BUDGET):
    """Unscreened reference for N >= 3: In with the closed-form floor
    rho - 2|rho-1| t + (rho-2) t^2, t = sum ||A_k||, when
    t max(1, 2/rho - 1) < 1 and that floor is above the member test's
    guard; else the slice verdict (the level-1 pass, else the worst slice),
    then the disk minimum of every substitution, in sample order.  Returns
    (decision, margin, exactness, size of the witness sample or None)."""
    t = sum(op_norm(m) for m in a.mats)
    floor = rho - 2 * abs(rho - 1) * t + (rho - 2) * t ** 2
    if t * max(1.0, 2.0 / rho - 1.0) < 1 and floor > radii.SCREEN_ROUND_GUARD * a.dim * radii._kernel_scale(t, rho):
        return IN, floor, CERTIFIED, None
    v = radii._first_out_slice(a, rho, tol)[1] or membership_single(radii._worst_slice(a, rho)[0], rho, tol)
    if v.decision == OUT:
        return OUT, v.margin, CERTIFIED, None
    worst = v.margin
    for sample in sample_commuting_tuples(a.n_vars, budget):
        km = kernel_margin(substitute(a, sample), rho)
        worst = min(worst, km)
        if km < -tol:
            return OUT, km, CERTIFIED, sample.dim
    return IN, worst, NECESSARY_ONLY, None


def _verdict(v):
    """What _membership_tuple_loop returns, read off a verdict."""
    return v.decision, v.margin, v.exactness, v.certificate.get("witness_sample_dim")


def _triple(seed, d):
    rng = np.random.default_rng(seed)
    return OperatorTuple(tuple(_random_matrix(rng, d) for _ in range(3)))


def _first_variable_as_slice(monkeypatch):
    """Put A_1 in place of the worst torus slice, with its w_rho's lo as
    the root attained.  No sampled substitution of a random triple was seen
    to fail above its worst slice, so the pinned triples below reach an Out
    substitution only against this weaker slice."""
    def first_variable(a, rho):
        return a.mats[0], np.zeros(a.n_vars - 1), w_rho(a.mats[0], rho).lo, {}

    monkeypatch.setattr(radii, "_first_out_slice", lambda a, rho, tol: (None, None, {}))
    monkeypatch.setattr(radii, "_worst_slice", first_variable)


def _inside_above_bound(a, rho):
    """The scale 0.95/w_rho of the worst slice, which puts a random triple
    inside the class but, for d >= 2, above the norm bound; None for d = 1,
    where scalars attain the bound."""
    return None if a.dim == 1 else 0.95 / w_rho(radii._worst_slice(a, rho)[0], rho).hi


def _screened_triples():
    """(triple, rho, budget, outcome): In by the norm bound (0.9 of it), In
    above the bound from the substitutions, and Out at a torus slice for
    every rho and d, and pinned triples that fail at a substitution (with
    _first_variable_as_slice)."""
    for i, rho in enumerate((0.3, 0.5, 1.0, 1.5, 2.0, 3.0)):
        for d in (1, 2, 3):
            budget = 16 if rho > 2 else (16, 64)[(i + d) % 2]
            a = _triple(10 * i + d, d)
            base = 1 / (sum(op_norm(m) for m in a.mats) * max(1.0, 2.0 / rho - 1.0))
            yield a.scale(0.9 * base), rho, budget, "bound"
            if d > 1:
                yield a.scale(_inside_above_bound(a, rho)), rho, budget, "in"
            yield a.scale(3.0 * base), rho, budget, "slice"
    for seed, d, rho, scale, budget in ((2, 3, 0.3, 0.0317, 16), (4, 2, 0.5, 0.0674, 64),
                                        (10, 2, 1.5, 0.302, 16), (29, 3, 1.5, 0.153, 64),
                                        (12, 1, 2.0, 0.419, 16), (33, 1, 3.0, 0.486, 16)):
        yield _triple(seed, d).scale(scale), rho, budget, "substitution"


def test_screened_membership_equals_unscreened_loop(monkeypatch):
    for a, rho, budget, outcome in _screened_triples():
        with monkeypatch.context() as m:
            if outcome == "substitution":
                _first_variable_as_slice(m)
            v = membership_tuple(a, rho, budget=budget)
            assert _verdict(v) == _membership_tuple_loop(a, rho, budget=budget), (rho, budget, outcome)
        cert = v.certificate
        if cert["method"] == "norm-bound":
            assert outcome == "bound" and v.decision == IN and v.exactness == CERTIFIED, (rho, a.dim, budget)
            assert "substitutions" not in cert and "slice_points" not in cert
            continue
        got = "in" if v.decision == IN else "substitution" if _verdict(v)[3] else "slice"
        assert got == outcome, (rho, a.dim, budget)
        assert cert["substitutions"] == (0 if outcome == "slice" else budget)
        assert 0 <= cert["disk_minima"] <= cert["substitutions"]


QEP_RHOS = (0.05, 0.5, 0.99, 1.0, 1.01, 1.5, 1.99, 2.0, 2.01, 3.0, 10.0)


def _unit(a):
    n = op_norm(a)
    return a / n if n else a


def _kinds(rng, d):
    """Random, nilpotent, normal, zero and shift d x d matrices of norm at
    most 1.  mu* of the shift is flat on the circle (e^{i theta} S is
    unitarily similar to S), so its grid maxima are rounding ties."""
    g = _random_matrix(rng, d)
    q, _ = np.linalg.qr(_random_matrix(rng, d))
    normal = q @ np.diag(_random_matrix(rng, d)[0]) @ q.conj().T
    return [_unit(g), _unit(np.triu(g, 1)), _unit(normal), np.zeros((d, d)), _shift(d)]


def _qep_theta_max_full(a, rho):
    """Reference maximum of mu* over the torus for the slice search: the
    grid of 64 angles per variable and 3 local rounds of 17 x 17 points
    spanning +- one spacing of the grid before, every point solved."""
    n, rounds, per_axis = 64, 3, 17
    grid = np.linspace(0, 2 * np.pi, n, endpoint=False)
    axes = [np.zeros(1) if rho == 1 else grid, grid]

    def grid_max(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        pencils = points[:, 0, None, None] * a[0] + points[:, 1, None, None] * a[1]
        vals = np.concatenate([radii._qep_top_roots(pencils[i:i + 64], rho)
                               for i in range(0, len(points), 64)])
        i = int(np.argmax(vals))
        idx = np.unravel_index(i, [len(ax) for ax in axes])
        return float(vals[i]), [float(ax[j]) for ax, j in zip(axes, idx)]

    best, best_angles = grid_max(axes)
    span = 2 * np.pi / n
    for _ in range(rounds):
        local = [t + np.linspace(-span, span, per_axis) if len(ax) > 1 else ax
                 for t, ax in zip(best_angles, axes)]
        val, angles = grid_max(local)
        if val > best:
            best, best_angles = val, angles
        span *= 2 / (per_axis - 1)
    return best


def test_slice_search_not_below_full_grid():
    # the cell radius brackets the full torus grid's maximum: hi is proven
    # above every slice, and lo, the best root less the radius gap, is not
    # above the grid's by more than that gap and the grid's own sampling
    # error (its last round spacing is about 2e-4, which at rho = 10 misses
    # a peak of mu* by up to 7e-9 relative)
    rng = np.random.default_rng(25)
    cases = 0
    for d in range(1, 7):
        kinds = _kinds(rng, d)
        pair = OperatorTuple((kinds[d % 3] / 2, kinds[(d + 1) % 3] / 2))
        for rho in QEP_RHOS:
            rep = w_rho_tuple(pair, rho)
            ref = _qep_theta_max_full(pair, rho)
            gap = radii.RADIUS_GAP * (1 + max(1.0, 2.0 / rho - 1.0)) * pair.norm_sum()
            assert rep.lo - gap <= ref * (1 + 1e-8) and ref <= rep.hi, (d, rho, rep, ref)
            cases += 1
    assert cases == 66


SLICE_RHOS = (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
SLICE_DENSE = np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))


def _assert_below_levels(s, rho, run):
    """Every slice's mu* on SLICE_DENSE stays at or below its elimination
    level, and the best value is attained on the slice it names."""
    for b, level in zip(s, run["levels"]):
        top = radii._qep_top_roots(SLICE_DENSE[:, None, None] * b, rho).max()
        assert top <= level * (1 + 1e-12) + 1e-15, (b.shape, rho, top, level)
    assert run["value"] <= run["levels"].max()


def test_slice_eliminations_are_sound():
    # random, nilpotent and normal first variables in turn, d 1-6, on 8 phases
    rng = np.random.default_rng(27)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))[:, None, None]
    for d in range(1, 7):
        kinds = _kinds(rng, d)
        s = (kinds[d % 3] + phases * kinds[(d + 1) % 3]) / 2
        for rho in SLICE_RHOS:
            run = radii._slices_max(s, rho)
            assert not np.isnan(run["levels"]).any()
            _assert_below_levels(s, rho, run)


def test_slice_above_rho_2_not_eliminated_by_circle_alone():
    # at rho = 3 and level 0.2 the kernel of 1/level = 5 is positive on the
    # whole circle (3 - 20 cos t + 25 > 0), but r = 5 >= beta = 2: the slice
    # goes on, and its root at -arg lam = 0 is w_3(1) = 1
    s = np.array([[[1.0 + 0j]], [[0.1 + 0j]]])
    level = 0.2 + radii.SLICE_GAP * 1.2
    assert radii._kernel_lambda_min(s[0] / level, 3.0, SLICE_DENSE).min() > 0
    run = radii._slices_max(s, 3.0, (0.2, 0.0))
    assert run["slice"] == 0 and run["value"] == pytest.approx(1.0, rel=1e-12)
    assert run["levels"][1] == level and run["levels"][0] > 1
    _assert_below_levels(s, 3.0, run)


def test_batched_circle_crossings_equal_single_calls():
    # kernel pencils at the median of lambda_min over 16 angles, anchored
    # where lambda_min is largest, so that most have crossings
    rng = np.random.default_rng(28)
    start = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
    for d in (1, 2, 3, 5):
        s = np.stack([_random_matrix(rng, d) * rng.uniform(0.2, 0.6) for _ in range(9)])
        for rho in (0.5, 2.0, 3.0):
            lam = np.array([radii._kernel_lambda_min(b, rho, start) for b in s])
            c = np.median(lam, axis=1)
            psi = np.angle(start[np.argmax(lam, axis=1)])
            e = -(rho - 1) * s
            m = (rho - c)[:, None, None] * np.eye(d) + (rho - 2) * (s.conj().swapaxes(1, 2) @ s)
            batch = radii._circle_crossings(e, m, psi)
            assert batch.shape == (len(s), 2 * d)
            for row, ej, mj, pj in zip(batch, e, m, psi):
                one = radii._circle_crossings(ej, mj, pj)
                assert one.size and row[:one.size].tobytes() == one.tobytes()
                assert np.isnan(row[one.size:]).all()


def test_flat_pair_search_runs_few_solves():
    # the thm51 pair's pencil is nilpotent, so mu* is flat on the torus:
    # every torus grid point ties with the best, and the old grid solved
    # all 4963 of them; every cell's tangent fails alike, so past
    # CELL_SPLITS cells in a round the cells raise the level over them
    for rho in (1.5, 2.0, 3.0):
        pair = build_nonsimilar_pair(admissible_eps(rho) / 2)
        rep = w_rho_tuple(pair, rho)
        spec = rep.grid_spec
        assert spec["cell_crossing_solves"] + spec["cell_root_solves"] <= 400, (rho, spec)
        one = w_rho(pair.mats[0] + pair.mats[1], rho)
        assert rep.lo <= one.hi and one.lo <= rep.hi, (rho, rep, one)
        assert membership_tuple(pair, rho).decision == IN


def test_cached_samples_equal_fresh_draws_and_are_read_only():
    assert sample_commuting_tuple.cache_info().maxsize == radii.SAMPLE_CACHE_SIZE
    for n_vars in (2, 3):
        for dim in (1, 2, 3, 4):
            for seed in (0, 1, 6, 10007):
                cached = sample_commuting_tuple(dim, n_vars, seed)
                assert sample_commuting_tuple(dim, n_vars, seed) is cached
                fresh = sample_commuting_tuple.__wrapped__(dim, n_vars, seed)
                for mc, mf in zip(cached.mats, fresh.mats):
                    assert mc.dtype == mf.dtype and mc.tobytes() == mf.tobytes()
                    with pytest.raises(ValueError):
                        mc[0, 0] = 0.5
    # batches draw through the same cache
    batch = sample_commuting_tuples(3, 12)
    for i, c in enumerate(batch):
        dim = radii.SAMPLE_DIMS[i % len(radii.SAMPLE_DIMS)]
        assert c is sample_commuting_tuple(dim, 3, i)


def test_substitutions_bitwise_kron_sums():
    # the broadcast substitution against the Kronecker-sum definition, with
    # every sample size in one call, which returns one stack per size
    rng = np.random.default_rng(31)
    for n_vars in (2, 3, 4):
        samples = sample_commuting_tuples(n_vars, 10)
        for d in (1, 2, 3, 4):
            a = OperatorTuple(tuple(_random_matrix(rng, d) for _ in range(n_vars)))
            stacks = radii._substitutions(a, samples)
            assert sorted(i for idx, _ in stacks for i in idx) == list(range(len(samples)))
            for idx, stack in stacks:
                for i, s in zip(idx, stack):
                    c = samples[i]
                    assert c.dim == samples[idx[0]].dim
                    ref = sum(np.kron(ak, ck) for ak, ck in zip(a.mats, c.mats))
                    assert s.shape == ref.shape and s.tobytes() == ref.tobytes(), (n_vars, d, c.dim)
                    assert substitute(a, c).tobytes() == ref.tobytes()


def _level1_rows(s, rho, floor):
    """The rows that _slice_failures returns for the one-matrix stack ``s``
    at level 1 and anchor angle 0, with its spectral norm, and the
    crossing solves."""
    out = {"slice_crossing_solves": 0}
    stack = s[None].astype(complex)
    top = radii._top_eigenvalues(stack) if rho > 2 else None
    batches = radii._slice_failures(stack, rho, 1.0, np.zeros(1), np.array([op_norm(s)]), top, out, floor)
    return [int(i) for rows, _, _ in batches for i in rows], out["slice_crossing_solves"]


def test_kernel_norm_floor_below_disk_minimum(monkeypatch):
    # the norm test of _slice_failures, _kernel_norm_floor(||S||, rho) =
    # rho - 2|rho-1| s + (rho-2) s^2 (s capped at beta above rho = 2), is
    # below the disk minimum, and a row whose bound is above the floor
    # passes without an eigensolve
    rng = np.random.default_rng(21)
    mats = []
    for i, norm in enumerate(np.logspace(-2, 2, 15)):
        s = _random_matrix(rng, 1 + i % 6)
        mats.append(s * (norm / op_norm(s)))
    mats.append(np.diag([0.9, -0.5j]))
    calls = []
    kernels = radii._kernels
    monkeypatch.setattr(radii, "_kernels",
                        lambda a, rho, zs, gram=None: calls.append(len(zs)) or kernels(a, rho, zs, gram))
    for rho in (0.05, 0.5, 1.0, 1.5, 1.99, 2.0, 2.1, 2.5, 3.0, 5.0, 10.0):
        for s in mats:
            norm = op_norm(s)
            bound = radii._kernel_norm_floor(norm, rho)
            guard = 2 * radii.SCREEN_ROUND_GUARD * len(s) * radii._kernel_scale(norm, rho)
            assert bound - guard <= kernel_margin(s, rho), (rho, s.shape)
            calls.clear()
            assert _level1_rows(s, rho, bound - guard) == ([], 0) and sum(calls) == 0, (rho, s.shape)
        # the test is tight: the scalar 0.9 of the last matrix attains the
        # bound at z = 1 (rho >= 1) or -1 (rho < 1), and a floor above the
        # bound needs an eigensolve at every rho
        rows, _ = _level1_rows(s, rho, bound + guard)
        assert sum(calls) > 0, rho
        assert kernel_margin(s, rho) == pytest.approx(bound, abs=1e-12)
        assert rows and set(rows) == {0}, rho
    # above rho = 2 the S*S term lifts the bound: a row with
    # rho/(2(rho-1)) < ||S|| < 1, where rho - 2(rho-1)||S|| is negative,
    # passes the member test at floor 0 with no eigensolve
    for rho in SQUARE_RHOS:
        for t in np.linspace(rho / (2 * (rho - 1)), 1, 6)[1:-1]:
            assert rho - 2 * (rho - 1) * t < 0 < radii._kernel_norm_floor(t, rho)
            for d in range(1, 5):
                s = _random_matrix(rng, d)
                s *= t / op_norm(s)
                calls.clear()
                assert _level1_rows(s, rho, 0.0) == ([], 0) and sum(calls) == 0, (rho, t, d)
                assert kernel_margin(s, rho) >= radii._kernel_norm_floor(t, rho) - 1e-13 * _scale(s, rho)


def test_slice_failures_floor_is_sound():
    # a row that _slice_failures does not return keeps its disk minimum at
    # or above the floor, and at rho > 2 a row with r(S) >= beta L is
    # always returned; random, nilpotent, normal and shift first and second
    # variables on 8 phases, at levels below and above their norms
    rng = np.random.default_rng(29)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))[:, None, None]
    kept = wide = 0
    for d in range(1, 5):
        kinds = _kinds(rng, d)
        for first, second in ((0, 1), (2, 4), (4, 0)):
            s = kinds[first] + phases * kinds[second]
            norms = np.linalg.norm(s, axis=(1, 2))
            for rho in SLICE_RHOS:
                top = radii._top_eigenvalues(s) if rho > 2 else None
                for level in (0.6, 1.0, 1.7):
                    minima = [radii._kernel_disk_min(b, rho)[0] for b in s / level]
                    must = np.flatnonzero((rho - 2) * np.abs(top) >= (rho - 1) * level) if rho > 2 else []
                    wide += len(must)
                    for floor in (0.0, -1e-9, 0.3):
                        out = {"slice_crossing_solves": 0}
                        batches = radii._slice_failures(s, rho, level, np.zeros(len(s)), norms, top, out, floor)
                        rows = {int(i) for r, _, _ in batches for i in r}
                        assert rows.issuperset(must), (d, rho, level, floor)
                        for i, (b, low) in enumerate(zip(s / level, minima)):
                            if i not in rows:
                                kept += 1
                                assert low >= floor - 1e-12 * _scale(b, rho), (d, rho, level, floor, low)
    assert kept > 0 and wide > 0


def test_out_at_early_substitution_equals_unscreened_loop(monkeypatch):
    # a witness among the first samples of a large budget
    _first_variable_as_slice(monkeypatch)
    for a, rho in ((_triple(4, 2).scale(0.0674), 0.5), (_triple(29, 3).scale(0.153), 1.5)):
        v = membership_tuple(a, rho, budget=256)
        assert _verdict(v) == _membership_tuple_loop(a, rho, budget=256)
        assert v.decision == OUT and "witness_sample_dim" in v.certificate
        assert v.certificate["substitutions"] == 256


def test_in_margin_set_by_a_substitution_equals_unscreened_loop(monkeypatch):
    # the pinned triples scaled into the class: against the weaker slice A_1
    # a substitution sets the margin, which only the floor of the
    # substitutions' member test at the slice's margin finds
    _first_variable_as_slice(monkeypatch)
    lowered = 0
    for a, rho, budget, outcome in _screened_triples():
        if outcome == "substitution":
            b = a.scale(0.7)
            v = membership_tuple(b, rho, budget=budget)
            assert _verdict(v) == _membership_tuple_loop(b, rho, budget=budget), (rho, budget)
            lowered += v.decision == IN and v.margin < membership_single(b.mats[0], rho).margin
    assert lowered > 0


def test_level1_pass_at_rho_1_solves_no_crossings():
    # at rho = 1 the kernel on the circle is I - S*S at every angle, so the
    # anchor test decides every vertex of the pair cells, at level 1 and in
    # the radius
    for pair in _random_pairs():
        rep = w_rho_tuple(pair, 1.0)
        assert rep.grid_spec["cell_crossing_solves"] == 0, rep.grid_spec
        for scale, want in ((rep.hi * (1 + 1e-6), IN), (rep.lo * (1 - 1e-6), OUT)):
            v = membership_tuple(pair.scale(1 / scale), 1.0)
            assert v.decision == want and v.certificate["cell_crossing_solves"] == 0, (want, v.certificate)


def _first_grid_reference(a, rho, tol):
    """The Out slice as membership_single decides it: every first-grid
    slice that the level-1 member test returns, in its order, then for
    N >= 3 the worst slice of the search.  Returns (decision, slice_w);
    for a pair with no Out grid slice, (In, None): the pair cells decide
    the pairs that the caller builds there In, naming no slice."""
    w = np.exp(1j * radii._phase_grid(a.n_vars - 1)[0])
    s = radii._slice_stack(a, w)
    for rows, _, _ in radii._level1_failures(s, rho, {"slice_crossing_solves": 0}):
        for i in dict.fromkeys(rows.tolist()):
            if membership_single(s[i], rho, tol).decision == OUT:
                return OUT, radii._slice_phases_json(w[i])
    if a.n_vars == 2:
        return IN, None
    b, _, _, spec = radii._worst_slice(a, rho)
    return membership_single(b, rho, tol).decision, spec["slice_w"]


def _slice_of(a, cert):
    """The slice A_1 + w_2 A_2 + ... named by a certificate's slice_w."""
    w = np.array(cert["slice_w"], dtype=float).reshape(-1, 2) @ [1, 1j]
    return radii._slice_stack(a, w[None])[0]


def _out_tuples(rng, sizes=(2, 3), rhos=(0.5, 1.0, 2.0, 3.0, 10.0)):
    """(tuple, rho): random tuples of each of the ``sizes``, d 1-4, scaled
    1.001-2x beyond the proven lower end of their radius bracket, so
    outside the class."""
    for n_vars in sizes:
        for d in range(1, 5):
            for rho in rhos:
                a = OperatorTuple(tuple(_random_matrix(rng, d) for _ in range(n_vars)))
                lo = w_rho_tuple(a, rho).lo
                for factor in (1.001, rng.uniform(1.001, 2.0), 2.0):
                    yield a.scale(factor / lo), rho


def test_out_witness_equals_membership_single_path():
    # an Out verdict read from the member test's own kernel value decides
    # as membership_single does: for N >= 3 of every failing grid slice in
    # order, on the same slice, and for a pair (whose cells take their real
    # slices in their own order) on the slice it names; its margin is
    # attained at its witness: below -tol, lambda_min k of the pencil
    # there, and at least the slice's minimum
    rng = np.random.default_rng(71)
    witnessed = 0
    for a, rho in _out_tuples(rng):
        v = membership_tuple(a, rho, budget=16)
        cert = v.certificate
        assert v.decision == OUT and v.exactness == CERTIFIED, (a.n_vars, a.dim, rho)
        if a.n_vars == 2:
            assert membership_single(_slice_of(a, cert), rho).decision == OUT, cert
        else:
            assert (v.decision, cert["slice_w"]) == _first_grid_reference(a, rho, DEFAULT_TOL), cert
        assert v.margin < -DEFAULT_TOL
        za = eval_pencil(a, np.array(cert["witness_z"]) @ [1, 1j])
        scale = _scale(za, rho)
        assert abs(v.margin - radii._kernel_lambda_min(za, rho, np.ones(1))[0]) <= 1e-12 * scale, cert
        b = _slice_of(a, cert)
        assert v.margin >= kernel_margin(b, rho) - 2 * radii.KERNEL_GAP * _scale(b, rho), cert
        if cert["method"].startswith("torus-slice+kernel-witness"):
            witnessed += 1
            assert "certified_level" not in cert and "levelset_iterations" not in cert
            assert cert["kernel_margin"] == v.margin
    assert witnessed > 0


def test_out_witness_falls_back_to_membership_single():
    rng = np.random.default_rng(72)
    # a rho > 2 slice with r(S) >= beta keeps its exact margin -1/(rho-2)
    for rho in (3.0, 10.0):
        for d in range(1, 5):
            a = OperatorTuple((_random_matrix(rng, d), _random_matrix(rng, d)))
            a = a.scale(1.01 * _beta(rho) / spectral_radius(a.mats[0] + a.mats[1]))
            v = membership_tuple(a, rho)
            assert v.decision == OUT and v.margin == -1 / (rho - 2), (rho, d)
            assert v.certificate["method"] == "torus-slice+kernel-levelset"
            assert v.certificate["level1_memberships"] >= 1
    # with a large tol, a slice just outside the class has its values in
    # [-tol, guard], so membership_single decides it; decided In, the pair
    # cells prove every slice's disk minimum at or above -tol instead
    tol = 0.05
    for d in range(1, 5):
        for rho in (0.5, 2.0, 3.0):
            a = OperatorTuple((_random_matrix(rng, d), _random_matrix(rng, d)))
            a = a.scale(1.001 / w_rho_tuple(a, rho).lo)
            v = membership_tuple(a, rho, tol)
            assert v.certificate["level1_memberships"] >= 1, (d, rho, v.certificate)
            assert (v.decision, v.certificate.get("slice_w")) == _first_grid_reference(a, rho, tol), (d, rho)
            if v.decision == IN:
                assert (v.exactness, v.margin, v.certificate["cells_unproven"]) == (CERTIFIED, -tol, 0), (d, rho)


TRIPLE_RHOS = (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0)


def test_row_batches_cover_each_row_once_in_order():
    for n in (0, 1, 3, 4, 5, 64, 65):
        for first in (None, 1, radii.LEVEL1_FIRST_BATCH):
            ranges = list(radii._row_batches(n, first))
            assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(n)), (n, first)
            assert all(lo < hi for lo, hi in ranges), (n, first)
            if first is None:
                assert len(ranges) == min(n, 1)
            else:
                assert [hi - lo for lo, hi in ranges[:-1]] == [first * 2 ** k for k in range(len(ranges) - 1)]


def test_level1_out_search_stops_at_its_witness():
    # the N >= 3 level-1 pass solves crossings in doubling batches and
    # stops at its witness's batch: a triple whose first slice solved is
    # its witness (one crossing solve in batches of 1, 2, 4, ...) solves at
    # most the first batch, and no triple solves more than in one batch
    first_out_slice = radii._first_out_slice
    early = saved = 0
    for a, rho in _out_tuples(np.random.default_rng(73), (3,), TRIPLE_RHOS):
        lazy = membership_tuple(a, rho, budget=16).certificate["level1_crossing_solves"]
        full = first_out_slice(a, rho, DEFAULT_TOL, batch=None)[2]["level1_crossing_solves"]
        assert lazy <= full, (a.dim, rho)
        if first_out_slice(a, rho, DEFAULT_TOL, batch=1)[2]["level1_crossing_solves"] == 1:
            early += 1
            assert lazy <= radii.LEVEL1_FIRST_BATCH, (a.dim, rho, lazy)
            saved += full > radii.LEVEL1_FIRST_BATCH
    assert early > 0 and saved > 0


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.05])
def test_level1_batches_leave_verdicts_unchanged(monkeypatch, tol):
    # decision, margin, witness, slice phases, exactness and method equal
    # the one-batch pass's, byte for byte; only level1_anchor_solves and
    # level1_crossing_solves may differ, and a witness among the first
    # anchors solves only that batch.  At tol 0.05 some slice past the
    # first batch goes to membership_single
    def report(v):
        j = v.to_json()
        return j, j["certificate"].pop("level1_crossing_solves"), j["certificate"].pop("level1_anchor_solves")

    first_out_slice = radii._first_out_slice
    later = early = 0
    for a, rho in _out_tuples(np.random.default_rng(74), (3,), TRIPLE_RHOS):
        got, lazy, lazy_anchors = report(membership_tuple(a, rho, tol, budget=16))
        with monkeypatch.context() as m:
            m.setattr(radii, "_first_out_slice", lambda a, rho, tol: first_out_slice(a, rho, tol, batch=None))
            want, full, full_anchors = report(membership_tuple(a, rho, tol, budget=16))
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), (a.dim, rho)
        assert lazy <= full and lazy_anchors <= full_anchors
        assert lazy == 0 or lazy_anchors == full_anchors, (a.dim, rho)  # every anchor before any crossing
        later += got["certificate"]["level1_memberships"] > 0 and lazy > radii.LEVEL1_FIRST_BATCH
        early += lazy_anchors == radii.LEVEL1_FIRST_BATCH < full_anchors
    assert later > 0 or tol == DEFAULT_TOL
    assert early > 0


def test_triple_radius_is_its_worst_slice_and_the_norm_bound(monkeypatch):
    # lo is the slice search's attained root less the gap, hi the bound
    # sum ||A_k|| max(1, 2/rho - 1), and no commuting tuple is drawn
    def no_samples(*args, **kwargs):
        raise AssertionError("w_rho_tuple drew commuting samples")

    monkeypatch.setattr(radii, "sample_commuting_tuples", no_samples)
    for i, rho in enumerate((0.5, 2.0, 3.0)):
        a = _triple(80 + i, 2)
        a = a.scale(1 / sum(op_norm(m) for m in a.mats))
        rep = w_rho_tuple(a, rho)
        bound = max(1.0, 2.0 / rho - 1.0)
        root, gap = radii._worst_slice(a, rho)[2], radii.RADIUS_GAP * (1 + bound)
        assert rep.lo == pytest.approx(root - gap * a.norm_sum(), rel=1e-14, abs=0), rho
        assert (rep.hi, rep.method) == (bound * a.norm_sum(), "torus-slice+levelset"), rho
        assert "budget" not in rep.grid_spec and not any(k.startswith("substitution_") for k in rep.grid_spec)


# ---------------------------------------------------------------------------
# the level-set engine for one operator

DENSE = np.exp(1j * np.linspace(0, 2 * np.pi, 4096, endpoint=False))
LEVELSET_RHOS = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)


def _golden_min(f, lo, hi, iters):
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


#: Interior grid of the reference engine for rho > 2: radii and angles.
GRID_R_POINTS = 64
GRID_THETA_POINTS = 128


def _grid_kernel_disk_min(a, rho):
    """The grid engine the level set replaced, as the reference for the
    margin: 512 angles, three rounds of 16 golden-section steps around the
    best one, and for rho > 2 an interior grid of GRID_R_POINTS radii and
    GRID_THETA_POINTS angles with one local round."""
    thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    vals = radii._kernel_lambda_min(a, rho, np.exp(1j * thetas))
    i = int(np.argmin(vals))
    best_theta, best = float(thetas[i]), float(vals[i])
    span = 2 * np.pi / 512
    g = lambda th: float(radii._kernel_lambda_min(a, rho, np.exp(1j * np.array([th])))[0])
    for _ in range(3):
        best_theta, best = _golden_min(g, best_theta - span, best_theta + span, 16)
        span *= 0.05
    if rho > 2:
        rs = np.linspace(1 / GRID_R_POINTS, 1.0, GRID_R_POINTS)
        th = np.linspace(0, 2 * np.pi, GRID_THETA_POINTS, endpoint=False)
        rr, tt = np.meshgrid(rs, th, indexing="ij")
        vals = radii._kernel_lambda_min(a, rho, (rr * np.exp(1j * tt)).ravel())
        j = int(np.argmin(vals))
        if vals[j] < best:
            r0, t0 = rr.ravel()[j], tt.ravel()[j]
            rloc = np.clip(np.linspace(r0 - 1 / GRID_R_POINTS, r0 + 1 / GRID_R_POINTS, 17), 0, 1)
            tloc = np.linspace(t0 - 2 * np.pi / GRID_THETA_POINTS,
                               t0 + 2 * np.pi / GRID_THETA_POINTS, 17)
            rr2, tt2 = np.meshgrid(rloc, tloc, indexing="ij")
            best = min(best, float(radii._kernel_lambda_min(a, rho, (rr2 * np.exp(1j * tt2)).ravel()).min()))
    return best


def _levelset_cases():
    """Random, nilpotent, normal, zero and shift matrices (d 1-6) at their
    norm 1 and scaled to 0.3 and 1.7."""
    rng = np.random.default_rng(41)
    for d in range(1, 7):
        for k, a in enumerate(_kinds(rng, d)):
            yield a * (0.3, 1.0, 1.7)[(d + k) % 3]


def _scale(a, rho):
    """The kernel's norm bound that scales the margin's gap."""
    return radii._kernel_scale(float(np.linalg.norm(a)), rho)


def test_kernel_margin_never_crosses_certified_level():
    # lambda_min k on a 4096-angle circle stays at or above the certified
    # level; the margin is attained at its witness and, on the circle
    # (rho <= 2), lies within the gap of that level
    for a in _levelset_cases():
        for rho in LEVELSET_RHOS:
            margin, witness, stats = radii._kernel_disk_min(a, rho)
            scale = _scale(a, rho)
            circle = radii._kernel_lambda_min(a, rho, DENSE)
            assert circle.min() >= stats["certified_level"] - 1e-13 * scale, (a.shape, rho, stats)
            at_witness = radii._kernel_lambda_min(a, rho, np.array([witness]))[0]
            assert at_witness == pytest.approx(margin, abs=1e-13 * scale)
            if rho <= 2:
                assert abs(witness) == pytest.approx(1.0, abs=1e-15)
                assert margin - stats["certified_level"] <= 1.01 * radii.KERNEL_GAP * scale
                assert stats["levelset_iterations"] <= 5


def test_radius_never_crossed_above_certified_level():
    # mu*(theta) on a 4096-angle circle stays at or below the certified hi;
    # hi is certified for every rho, and lo sits within width of hi.  The
    # scalars' real roots at rho = 10 live in a window narrower than the
    # spacing of the start angles.  For rho <= 2 the pencil P(mu) has d
    # roots >= 0 and d roots <= 0, so mu* <= hi there iff P(hi) >= 0, a
    # d x d eigvalsh per angle.
    scalars = [np.array([[c]]) for c in (np.exp(0.1j), np.exp(2.9j), 0.4 - 2.1j)]
    for i, a in enumerate([*_levelset_cases(), *scalars]):
        gram = a.conj().T @ a
        for rho in LEVELSET_RHOS:
            rep = w_rho(a, rho)
            assert rep.hi - rep.lo <= rep.grid_spec["width"] / 2 + 1e-15 * rep.hi
            level = rep.grid_spec["certified_level"]
            assert level == rep.hi, (a.shape, rho, rep.grid_spec)
            if not a.any():
                continue
            if rho <= 2:
                za = DENSE[:, None, None] * a
                p = rho * level ** 2 * np.eye(len(a)) - (rho - 1) * level * (za + za.conj().swapaxes(1, 2)) + (rho - 2) * gram
                assert np.linalg.eigvalsh(p)[:, 0].min() >= -1e-13 * (1 + level) ** 2, (a.shape, rho)
            elif i % 2:
                mu = radii._qep_top_roots(DENSE[:, None, None] * a, rho)
                assert mu.max() <= level * (1 + 1e-12) + 1e-15, (a.shape, rho)


def test_levelset_closed_forms():
    rng = np.random.default_rng(42)
    # rho = 1: the kernel on the circle is I - A*A, so the margin is 1 - ||A||^2
    for d in range(1, 6):
        a = _random_matrix(rng, d) * rng.uniform(0.2, 1.5) / d
        v = membership_single(a, 1.0)
        assert v.margin == pytest.approx(1 - op_norm(a) ** 2, abs=1e-13 * (1 + op_norm(a) ** 2))
        assert v.certificate["crossing_solves"] == 0
    # scalars: w_rho(a) = |a| max(1, 2/rho - 1), also where the real roots
    # of rho > 2 live in a window narrower than the starting angles' spacing
    for a in (0.7, -1.3j, 0.4 - 2.1j, np.exp(0.1j), np.exp(2.9j)):
        for rho in LEVELSET_RHOS:
            rep = w_rho(np.array([[a]]), rho)
            exact = abs(a) * max(1.0, 2.0 / rho - 1.0)
            assert rep.lo <= exact * (1 + 1e-12) and exact <= rep.hi * (1 + 1e-12), (a, rho, rep)
    # N^2 = 0: w_rho(N) = ||N|| / rho at every level
    for d in range(2, 7):
        k = d // 2
        n = np.zeros((d, d), dtype=complex)
        n[:k, d - k:] = _random_matrix(rng, k)
        for rho in LEVELSET_RHOS:
            rep = w_rho(n, rho)
            assert rep.lo == op_norm(n) / rho
            assert rep.hi - rep.lo <= 2 * radii.RADIUS_GAP * op_norm(n) * max(2.0, 2.0 / rho), (d, rho, rep)
    # the 65 x 65 shift at rho = 2: cos(pi/66), one level
    rep = w_rho(_shift(65), 2.0)
    assert rep.lo <= math.cos(math.pi / 66) * (1 + 1e-14) and math.cos(math.pi / 66) <= rep.hi
    assert rep.grid_spec["slice_levels"] == 1 and rep.grid_spec["certified_level"] == rep.hi


#: Largest distance between the level-set margin and the grid engine's,
#: relative to the kernel's norm bound (see CHANGES.md).
MARGIN_BOUND = 1e-9


def test_margin_within_bound_of_grid_engine():
    worst = 0.0
    for a in _levelset_cases():
        for rho in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            for b in (a, a / max(w_rho(a, rho).mid, 1e-300)):
                if not b.any():
                    continue
                scale = _scale(b, rho)
                got, _, stats = radii._kernel_disk_min(b, rho)
                ref = _grid_kernel_disk_min(b, rho)
                # the grid values are attained: on the circle they are
                # above the certified level, within two gaps of the margin
                if rho <= 2:
                    assert ref >= stats["certified_level"] - 1e-13 * scale, (b.shape, rho, got, ref)
                    assert got <= ref + 2 * radii.KERNEL_GAP * scale, (b.shape, rho, got, ref)
                worst = max(worst, abs(got - ref) / scale)
    assert worst <= MARGIN_BOUND


def test_norm_floor_screen_above_rho_2_equals_unscreened_loop():
    # verdict and margin of the unscreened loop: In by the norm bound, In
    # above it (d = 2) with some substitutions settled by their norm floor,
    # and Out at a torus slice
    settled = 0
    for i, rho in enumerate((2.5, 3.0, 5.0)):
        for d in (1, 2):
            a = _triple(70 + 10 * i + d, d)
            base = 1 / sum(op_norm(m) for m in a.mats)
            inside = _inside_above_bound(a, rho)
            for scale in (0.9 * base, 3.0 * base) + (() if inside is None else (inside,)):
                v = membership_tuple(a.scale(scale), rho, budget=16)
                assert _verdict(v) == _membership_tuple_loop(a.scale(scale), rho, budget=16)
                cert = v.certificate
                assert (cert["method"] == "norm-bound") == (scale == 0.9 * base), (rho, d, scale)
                settled += cert.get("substitutions", 0) - cert.get("disk_minima", 0)
    assert settled > 0


def test_empty_matrix_rejected():
    for fn in (membership_single, kernel_margin, lambda a, rho: w_rho(a, rho), lambda a, rho: numerical_radius(a)):
        with pytest.raises(InputError):
            fn(np.zeros((0, 0)), 2.0)


# ---------------------------------------------------------------------------
# the completed square at rho > 2

SQUARE_RHOS = (2.1, 2.5, 3.0, 5.0, 10.0)


def _beta(rho):
    return (rho - 1) / (rho - 2)


def test_kernel_is_completed_square_above_rho_2():
    # lambda_min k(z) = (rho-2) sigma_min(zA - beta I)^2 - 1/(rho-2)
    rng = np.random.default_rng(51)
    for d in range(1, 7):
        for rho in SQUARE_RHOS:
            a = _random_matrix(rng, d) * rng.uniform(0.2, 2.0)
            zs = np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
            lam = radii._kernel_lambda_min(a, rho, zs)
            sigma = np.linalg.svd(zs[:, None, None] * a - _beta(rho) * np.eye(d), compute_uv=False)[:, -1]
            square = (rho - 2) * sigma ** 2 - 1 / (rho - 2)
            assert np.abs(lam - square).max() <= 1e-12 * _scale(a, rho), (d, rho)


def test_disk_minimum_closed_form_inside_disk():
    # an eigenvalue c with |c| >= beta: margin -1/(rho-2), at z = beta/c
    for rho in SQUARE_RHOS:
        beta = _beta(rho)
        for c in (beta, -1.5 * beta, 2j * beta, beta * np.exp(2.3j) * 1.01, 7.0):
            if abs(c) < beta:
                continue
            for a in (np.array([[c]]), c * np.eye(3)):
                margin, witness, stats = radii._kernel_disk_min(a, rho)
                assert margin == -1 / (rho - 2), (rho, c)
                assert witness == pytest.approx(beta / c, abs=1e-15) and abs(witness) <= 1 + 1e-15
                assert stats["certified_level"] == margin and stats["levelset_iterations"] == 0
                assert stats["spectral_radius"] == pytest.approx(abs(c), rel=1e-15)
                assert radii._kernel_lambda_min(a, rho, np.array([witness]))[0] == pytest.approx(
                    margin, abs=1e-13 * _scale(a, rho))
                cert = membership_single(a, rho).certificate
                assert cert["kernel_margin"] == margin and cert["spectral_radius"] == stats["spectral_radius"]
                assert "interior_r_points" not in cert


def test_disk_minimum_below_dense_polar_grid():
    # on random, nilpotent and shift matrices, scaled on both sides of
    # beta, the margin is at most every value of a dense polar grid (up to
    # the gap) and every value is at least the certified level
    rng = np.random.default_rng(52)
    rs = np.linspace(0, 1, 33)
    zs = (rs[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 128, endpoint=False))[None, :]).ravel()
    inside = 0
    for d in range(1, 7):
        g = _random_matrix(rng, d)
        for a in (_unit(g), _unit(np.triu(g, 1)), _shift(d)):
            for rho in SQUARE_RHOS:
                for scale in (0.5, 1.0, 2.0, 4.0):
                    b = a * scale
                    margin, witness, stats = radii._kernel_disk_min(b, rho)
                    bound = _scale(b, rho)
                    grid = radii._kernel_lambda_min(b, rho, zs)
                    assert margin <= grid.min() + 1.01 * radii.KERNEL_GAP * bound + 1e-13 * bound, (d, rho, scale)
                    assert grid.min() >= stats["certified_level"] - 1e-13 * bound, (d, rho, scale)
                    assert margin >= stats["certified_level"]
                    inside += abs(witness) < 1 - 1e-12
    assert inside > 0


def _companion_top_roots(za, rho, gram=None):
    """Largest real root of the quadratic pencil of _qep_top_roots from its
    2d x 2d companion matrix, at every rho (the reference for rho = 2)."""
    d = za.shape[1]
    zah = za.conj().transpose(0, 2, 1)
    comp = np.zeros((len(za), 2 * d, 2 * d), dtype=complex)
    comp[:, :d, d:] = np.eye(d)
    comp[:, d:, :d] = -(rho - 2) / rho * (zah @ za if gram is None else gram)
    comp[:, d:, d:] = (rho - 1) / rho * (za + zah)
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= radii.QEP_REAL_TOL * (1 + np.abs(roots.real))
    return np.where(real, roots.real, -np.inf).max(axis=1)


def test_qep_top_roots_closed_form_at_rho_2():
    # at rho = 2 the companion is block triangular: max(0, lambda_max Re zA);
    # the gram's coefficient rho - 2 vanishes, so a tangent pencil's G
    # changes nothing
    rng = np.random.default_rng(41)
    for d in range(1, 9):
        za = np.stack([_random_matrix(rng, d) for _ in range(16)])
        gram = np.stack([g.conj().T @ g for g in (_random_matrix(rng, d) for _ in range(16))])
        for g in (None, gram):
            got, want = radii._qep_top_roots(za, 2.0, g), _companion_top_roots(za, 2.0, g)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (d, got - want)


def _mu_star(mats, rho, x):
    """mu*(theta) of the slice mats[0], or mu*(theta, phi) of the pair
    slice A_1 + e^{i phi} A_2, by _qep_top_roots."""
    s = mats[0] if len(x) == 1 else mats[0] + np.exp(1j * x[1]) * mats[1]
    return float(radii._qep_top_roots(np.exp(1j * x[0]) * s[None], rho)[0])


def _central_differences(f, x, h):
    """Gradient and Hessian of f at x by central differences of step h."""
    unit = np.eye(len(x)) * h
    grad = [(f(x + e) - f(x - e)) / (2 * h) for e in unit]
    hess = [[(f(x + e + g) - f(x + e - g) - f(x - e + g) + f(x - e - g)) / (4 * h * h) for g in unit] for e in unit]
    return np.array(grad), np.array(hess)


def test_root_derivatives_match_central_differences():
    # the perturbation-sum gradient and Hessian of mu*(theta) and
    # mu*(theta, phi) match central differences on random pairs, d 1-4,
    # extrapolated from steps 2e-4 and 1e-4 (Richardson), so that hills
    # with a large third derivative (near a second root) are not in error
    rng = np.random.default_rng(45)
    checked = 0
    for d in (1, 2, 3, 4):
        for rho in (0.5, 1.5, 2.0, 3.0, 10.0):
            for _ in range(4):
                a1, a2 = _random_matrix(rng, d), _random_matrix(rng, d)
                scale = op_norm(a1) + op_norm(a2)
                for mats in ((a1 / scale,), (a1 / scale, a2 / scale)):
                    x = rng.uniform(0, 2 * np.pi, len(mats))
                    mu = _mu_star(mats, rho, x)
                    der = radii._root_derivatives(mats, rho, tuple(x), mu) if mu > 0 else None
                    if der is None:
                        continue
                    grad, hess = np.array(der[0]), np.array(der[1])
                    coarse, fine = (_central_differences(lambda y: _mu_star(mats, rho, y), x, h) for h in (2e-4, 1e-4))
                    fd_grad, fd_hess = ((4 * f - c) / 3 for c, f in zip(coarse, fine))
                    assert np.allclose(grad, fd_grad, rtol=0, atol=1e-7 * (1 + np.abs(grad).max())), (d, rho)
                    assert np.allclose(hess, fd_hess, rtol=0, atol=1e-5 * (1 + np.abs(hess).max())), (d, rho)
                    checked += len(mats) == 2
    assert checked >= 40, checked


def test_polish_returns_a_larger_attained_root():
    # each Newton step counts only where the root solved at its point is
    # larger, so the polish ends on an attained root, at least the start's:
    # on one slice (the angle) and on a pair (the angle and the phase)
    rng = np.random.default_rng(42)
    climbed = 0
    for d in range(1, 7):
        b, c = _random_matrix(rng, d), _random_matrix(rng, d)
        scale = op_norm(b) + op_norm(c)
        for mats in ((b / op_norm(b),), (b / scale, c / scale)):
            for rho in SLICE_RHOS:
                if rho == 1.0:
                    continue
                for start in ((0.0, 2.0), (2.0, 4.0), (4.0, 0.0)):
                    x0 = start[:len(mats)]
                    mu = _mu_star(mats, rho, x0)
                    x, m, steps = radii._polish_root(mats, rho, x0, mu)
                    assert m >= mu and steps <= radii.SLICE_POLISH_STEPS, (d, rho, start)
                    assert len(x) == len(mats) and (m > mu or x == x0), (d, rho, start)
                    if m > mu:
                        climbed += len(mats) == 2
                        assert m == _mu_star(mats, rho, x), (d, rho, start)
    assert climbed > 0


def test_reference_pair_radii_take_few_rounds():
    # the polished start root puts the first level just above the radius,
    # so the rounds cut cells: the 24 radii of the reference pairs at rho
    # 0.5/1.5/2 took a median of 14 rounds from the unpolished start; the
    # polish's steps are root solves, and on the flat thm51 pair, whose
    # mu* does not depend on the phase, it stops at once
    path = Path(__file__).resolve().parents[1] / "bench" / "ref_pairs.json"
    entries = json.loads(path.read_text())["entries"]
    pairs = [OperatorTuple(tuple(matrix_from_json(m) for m in e["mats"])) for e in entries]
    specs = [w_rho_tuple(pair, rho).grid_spec for rho in (0.5, 1.5, 2.0) for pair in pairs]
    assert np.median([spec["cell_rounds"] for spec in specs]) <= 9, [spec["cell_rounds"] for spec in specs]
    assert all(0 <= spec["cell_polish_steps"] <= spec["cell_root_solves"] for spec in specs)
    assert sum(spec["cell_polish_steps"] > 0 for spec in specs) >= len(specs) // 2
    for rho in (1.5, 2.0, 3.0):
        spec = w_rho_tuple(build_nonsimilar_pair(admissible_eps(rho) / 2), rho).grid_spec
        assert spec["cell_polish_steps"] == 0, (rho, spec)


def _numrad_kinds(rng, d):
    """Random, normal, nilpotent and Jordan d x d matrices."""
    q, _ = np.linalg.qr(_random_matrix(rng, d))
    return {
        "random": _random_matrix(rng, d),
        "normal": q @ np.diag(_random_matrix(rng, d)[0]) @ q.conj().T,
        "nilpotent": np.triu(_random_matrix(rng, d), 1),
        "jordan": 0.7 * np.exp(0.3j) * np.eye(d) + np.eye(d, k=1),
    }


def test_numerical_radius_polish_keeps_the_value(monkeypatch):
    # the polished search ends on the value of the level-set search alone,
    # and both lie under the certified level
    rng = np.random.default_rng(43)
    cases = [(f"{k} d={d}", a) for d in range(1, 9) for k, a in _numrad_kinds(rng, d).items()]
    cases.append(("shift 65", _shift(65)))
    polished = {name: radii.numerical_radius_report(a) for name, a in cases}
    monkeypatch.setattr(radii, "SLICE_POLISH_STEPS", 0)
    for name, a in cases:
        rep, plain = polished[name], numerical_radius(a)
        w, level = rep["numerical_radius"], rep["grid_spec"]["certified_level"]
        assert w == pytest.approx(plain, rel=1e-10, abs=1e-300), (name, w, plain)
        assert plain <= level * (1 + 1e-15) and w <= level, (name, w, plain, level)
    assert polished["shift 65"]["numerical_radius"] == pytest.approx(math.cos(math.pi / 66), rel=1e-12)


def test_numerical_radius_takes_few_levels():
    # 16 start angles by eigvalsh and the polish put the first level on the
    # top hill: without them 56 such matrices took 3.6 levels on average
    # (at most 6)
    rng = np.random.default_rng(44)
    specs = [radii.numerical_radius_report(_random_matrix(rng, d))["grid_spec"]
             for d in range(2, 9) for _ in range(8)]
    levels = [spec["slice_levels"] for spec in specs]
    assert np.mean(levels) <= 1.5 and max(levels) <= 3, levels
    assert all(spec["slice_polish_cap"] == radii.SLICE_POLISH_STEPS for spec in specs)
    assert sum(spec["slice_polish_steps"] for spec in specs) > 0
