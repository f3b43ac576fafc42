"""Reproduction experiments: claims pass and reports are deterministic."""

import json
import math

import numpy as np
import pytest

from rho_radii import radii, repro
from rho_radii.dilation import build_nonsimilar_pair
from rho_radii.errors import InputError
from rho_radii.radii import IN, OUT, membership_tuple
from rho_radii.repro import (
    EXPERIMENTS,
    admissible_eps,
    radius_property_suite,
    repro_class_monotonicity,
    repro_nonsimilar_pair,
    repro_scalar_boundary,
    repro_staircase,
    repro_von_neumann,
)


def _stripped(report):
    obj = report.to_json()
    obj.pop("wall_time_s")
    return json.dumps(obj, sort_keys=True)


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {
        "scalar-boundary", "thm51", "thm53", "von-neumann",
        "radius-properties", "monotonicity",
    }


def test_scalar_boundary_passes():
    r = repro_scalar_boundary(0.5, 0.25)
    assert r.passed, [c.to_json() for c in r.claims]


def test_scalar_boundary_margin_value():
    r = repro_scalar_boundary(0.5, 0.25)
    claim = next(c for c in r.claims if "kernel value" in c.description)
    assert claim.observed == pytest.approx(-4 * 0.25 / 1.5**2, abs=1e-10)


def test_scalar_boundary_validates_params():
    with pytest.raises(InputError):
        repro_scalar_boundary(1.5, 0.1)
    with pytest.raises(InputError):
        repro_scalar_boundary(0.5, 0.6)


def test_admissible_eps_solves_quadratic():
    for rho in (1.5, 2.0, 3.0):
        e = admissible_eps(rho)
        x = (1 + e) / rho
        assert x + (rho - 1) * x * x == pytest.approx(1.0, abs=1e-12)
    # the rho = 2 bound from the quadratic is about 0.236
    assert admissible_eps(2.0) == pytest.approx(0.2360679, abs=1e-6)


@pytest.mark.parametrize("rho", [1.5, 2.0, 3.0, 1.01, 1.05, 1.1, 1.001, 1.0003])
def test_nonsimilar_pair_passes(rho):
    # below rho = 1.1 the product's growth exponent 2 log(1 + eps) is under
    # the divergence probe's threshold, and the probe takes a power of it;
    # the pair cells prove (2) and (3) from about rho = 1.00011 up, while at
    # 1.0001 and below they leave cells of those flat pairs, close to the
    # class boundary, unproven (In NecessaryOnly)
    r = repro_nonsimilar_pair(rho)
    assert r.passed, [c.to_json() for c in r.claims]
    # the phi sup (2) and the perturbed pair (3) are proven, not sampled
    assert [c.observed for c in r.claims[1:3]] == ["In Certified"] * 2


@pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
def test_nonsimilar_pair_phi_claim_is_sharp(rho):
    # claim (2) tests A_0/s in C_{r,2} for g = (2 rho - 1)/rho^2; at g just
    # below and above the phi sup sampled on 512 phases the verdict flips,
    # so the rescaled membership decides the sup itself
    a1, a2 = build_nonsimilar_pair(0.0).mats
    sup = max(radii._phi_circle_sup(a1 + w * a2, rho) for w in np.exp(2j * np.pi * np.arange(512) / 512))
    for factor, decision in ((0.999, OUT), (1.001, IN)):
        g = factor * sup
        r = 1 + g * (rho - 1)
        pair = build_nonsimilar_pair(0.0).scale(r / (g * rho))
        assert membership_tuple(pair, r).decision == decision, (rho, factor)


@pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
def test_nonsimilar_pair_rescaling_through_repro(rho, monkeypatch):
    # repro's claim (2) on c A_0 in place of A_0, with c set by bisection
    # so that the phi sup (flat in the phase) is g (1 -+ 1e-3): the claim
    # holds at the first and fails at the second
    a1, a2 = build_nonsimilar_pair(0.0).mats
    g = (2 * rho - 1) / rho**2
    for factor, observed in ((1 - 1e-3, "In Certified"), (1 + 1e-3, "Out Certified")):
        lo, hi = 0.5, 1.5
        for _ in range(60):
            c = (lo + hi) / 2
            lo, hi = (c, hi) if radii._phi_circle_sup(c * (a1 + a2), rho) < factor * g else (lo, c)
        pair0 = build_nonsimilar_pair(0.0).scale(lo)
        monkeypatch.setattr(repro, "build_nonsimilar_pair", lambda eps: pair0 if eps == 0 else build_nonsimilar_pair(eps))
        assert repro_nonsimilar_pair(rho).claims[1].observed == observed, (rho, factor)


def test_nonsimilar_pair_eps_validation():
    with pytest.raises(InputError):
        repro_nonsimilar_pair(2.0, eps=0.5)
    with pytest.raises(InputError):
        repro_nonsimilar_pair(1.0)


def test_nonsimilar_pair_divergence_exponent():
    r = repro_nonsimilar_pair(2.0, eps=0.1)
    claim = next(c for c in r.claims if "exponent" in c.description)
    assert claim.observed == pytest.approx(2 * math.log(1.1), rel=0.2)


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
def test_staircase_passes(rho):
    r = repro_staircase(rho)
    assert r.passed, [c.to_json() for c in r.claims]


def test_von_neumann_passes():
    for rho in (1.0, 2.0):
        r = repro_von_neumann(rho, trials=30, seed=3)
        assert r.passed, [c.to_json() for c in r.claims]


def test_von_neumann_rho_below_one():
    r = repro_von_neumann(0.5, trials=10, seed=1)
    assert r.passed


def test_monotonicity_passes():
    assert repro_class_monotonicity(seeds=6).passed
    assert repro_class_monotonicity(n_vars=2, seeds=3).passed


def test_property_suite_small_run_passes():
    r = radius_property_suite(seeds=3, power_bound_seeds=2)
    assert r.passed, [c.to_json() for c in r.claims]


def test_reports_deterministic():
    a = repro_nonsimilar_pair(2.0)
    b = repro_nonsimilar_pair(2.0)
    assert _stripped(a) == _stripped(b)

    a = repro_von_neumann(2.0, trials=10, seed=7)
    b = repro_von_neumann(2.0, trials=10, seed=7)
    assert _stripped(a) == _stripped(b)

    a = radius_property_suite(seeds=2, power_bound_seeds=1)
    b = radius_property_suite(seeds=2, power_bound_seeds=1)
    assert _stripped(a) == _stripped(b)


def test_report_json_shape():
    obj = repro_scalar_boundary(0.5, 0.25).to_json()
    assert obj["name"] == "scalar-boundary"
    assert "wall_time_s" in obj
    for claim in obj["claims"]:
        assert set(claim) == {"description", "expected", "observed", "tolerance", "pass", "provenance"}
        assert claim["provenance"] in {"PAPER", "DERIVED", "TRIVIAL"}
