"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines).
Each test prints `criterion NN <name>: PASS (<t>s)` on success; a failure
raises before the line is printed.
"""

import math
import time

import numpy as np
import pytest

from rho_radii.linalg import op_norm
from rho_radii.radii import (
    IN,
    OUT,
    membership_single,
    membership_single_all_conditions,
    numerical_radius,
    w_rho,
)
from rho_radii.repro import (
    radius_property_suite,
    repro_nonsimilar_pair,
    repro_scalar_boundary,
    repro_staircase,
    repro_von_neumann,
)

RHO_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


def _report(num, name, start):
    print(f"criterion {num:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_01_radius_oracles_identity():
    start = time.perf_counter()
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        exact = 1.0 if rho >= 1 else 2.0 / rho - 1.0
        for n in (1, 2, 3):
            rep = w_rho(np.eye(n), rho)
            assert rep.hi - rep.lo <= 1e-6, (rho, n)
            assert abs(rep.mid - exact) <= 2e-6, (rho, n, rep.mid, exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(1, "radius oracles w_rho(I)", start)


def test_criterion_02_nilpotent_law():
    start = time.perf_counter()
    nilp = np.array([[0.0, 1.0], [0.0, 0.0]])
    for rho in (0.5, 1.0, 2.0, 3.0):
        assert abs(w_rho(nilp, rho).mid - 1.0 / rho) <= 1e-5, rho
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(2, "nilpotent law w_rho = 1/rho", start)


def test_criterion_03_norm_and_numrad_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(50):
        d = 2 + i % 4
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(w_rho(a, 1.0).mid - op_norm(a)) <= 1e-5, i
        assert abs(w_rho(a, 2.0).mid - numerical_radius(a)) <= 1e-5, i
    _report(3, "w_1 = norm, w_2 = numerical radius", start)


def test_criterion_04_scalar_class_boundary():
    start = time.perf_counter()
    rho, eps = 0.5, 0.25
    a = np.array([[1.0 / 3.0]])
    assert membership_single(a, rho).decision == IN
    v = membership_single(a, rho - eps)
    assert v.decision == OUT
    assert abs(v.margin - (-4 * eps / (2 - rho) ** 2)) <= 1e-8, v.margin
    report = repro_scalar_boundary(rho, eps)
    assert report.passed, [c.to_json() for c in report.claims]
    _report(4, "scalar class boundary a = 1/3", start)


def test_criterion_05_symmetry_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    for i in range(20):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a / op_norm(a)
        for rho in (0.25, 0.5, 1.5):
            lhs = rho * w_rho(a, rho).mid
            rhs = (2 - rho) * w_rho(a, 2 - rho).mid
            assert abs(lhs - rhs) <= 4e-6, (i, rho, lhs, rhs)
    _report(5, "symmetry rho*w_rho = (2-rho)*w_{2-rho}", start)


def test_criterion_06_nonsimilar_pair_reproduction():
    start = time.perf_counter()
    report = repro_nonsimilar_pair(2.0)
    assert report.passed, [c.to_json() for c in report.claims]
    sup_claim = next(c for c in report.claims if "phi sup" in c.description)
    assert sup_claim.observed == "In Certified"
    cube_claim = next(c for c in report.claims if "cube" in c.description)
    assert cube_claim.observed == 0.0
    report_eps = repro_nonsimilar_pair(2.0, eps=0.1)
    assert report_eps.passed, [c.to_json() for c in report_eps.claims]
    exp_claim = next(c for c in report_eps.claims if "exponent" in c.description)
    assert abs(exp_claim.observed - 2 * math.log(1.1)) <= 0.2 * 2 * math.log(1.1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(6, "non-similar pair reproduction", start)


def test_criterion_07_staircase_reproduction():
    start = time.perf_counter()
    for rho in (1.0, 2.0):
        report = repro_staircase(rho)
        assert report.passed, (rho, [c.to_json() for c in report.claims])
        by_desc = {c.description: c for c in report.claims}
        assert by_desc["shift dilation residual (n <= 6)"].observed < 1e-10
        assert by_desc["isometry residual (interior)"].observed < 1e-10
        assert by_desc["range orthogonality residual (interior)"].observed < 1e-10
        assert by_desc["uniform dilation residual (words <= 4)"].observed < 1e-9
        assert by_desc["torus pencil norm"].observed <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(7, "staircase dilation reproduction", start)


def test_criterion_08_generalized_von_neumann():
    start = time.perf_counter()
    for rho in (1.0, 2.0):
        report = repro_von_neumann(rho, trials=100, seed=int(rho))
        assert report.passed, (rho, [c.to_json() for c in report.claims])
        for c in report.claims:
            assert c.observed >= -1e-7, (rho, c.description, c.observed)
    _report(8, "generalized von Neumann inequality", start)


def test_criterion_09_property_suite():
    start = time.perf_counter()
    report = radius_property_suite(seeds=50, dims=(2, 3, 4), rho_set=RHO_GRID)
    assert report.passed, [c.to_json() for c in report.claims]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min"
    _report(9, "radius property suite", start)


def test_criterion_10_cross_condition_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for i in range(30):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a / op_norm(a) * rng.uniform(0.3, 1.8)
        for rho in RHO_GRID:
            res = membership_single_all_conditions(a, rho)
            decisions = {res[k] for k in ("kernel", "psi", "phi")}
            decisions.discard("Borderline")
            assert len(decisions) <= 1, (i, rho, res)
    _report(10, "cross-condition agreement", start)
