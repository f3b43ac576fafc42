"""Named, parameterized reproductions of the concrete constructions.

Each experiment returns an ExperimentReport whose claims carry an
expected value, an observed value, a tolerance, and a provenance tag
("PAPER" for values quoted from the literature, "DERIVED" for
independently computed oracles, "TRIVIAL" for direct identities).
Reports are deterministic given (seed, parameters), excluding wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dilation import (
    build_nonsimilar_pair,
    build_shift_unitary_rho_dilation,
    build_staircase_isometric_dilation,
    build_staircase_pair,
    divergence_probe,
    nilpotent_jump,
    popescu_conditions,
    torus_unitarity,
    verify_rho_dilation,
    verify_uniform_rho_dilation,
)
from .errors import InputError
from .linalg import op_norm, spectral_radius
from .pencil import OperatorTuple, eval_pencil, k_rho_kernel
from .radii import (
    CERTIFIED,
    IN,
    OUT,
    kernel_margin,
    membership_single,
    membership_tuple,
    sample_commuting_tuples,
    substitute,
    w_rho,
    w_rho_tuple,
)


@dataclass(frozen=True)
class Claim:
    description: str
    expected: object
    observed: object
    tolerance: float
    passed: bool
    provenance: str

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "provenance": self.provenance,
        }


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    claims: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def add(self, description, expected, observed, tolerance, passed, provenance):
        self.claims.append(Claim(description, expected, observed, tolerance, bool(passed), provenance))

    def add_le(self, description, observed, bound, tolerance, provenance):
        """Claim of the form observed <= bound + tolerance."""
        self.add(description, f"<= {bound}", observed, tolerance,
                 observed <= bound + tolerance, provenance)

    def add_close(self, description, observed, expected, tolerance, provenance):
        self.add(description, expected, observed, tolerance,
                 abs(observed - expected) <= tolerance, provenance)

    def add_certified(self, description, decision, verdict, provenance):
        """Claim that a membership verdict is `decision`, Certified."""
        expected, observed = f"{decision} {CERTIFIED}", f"{verdict.decision} {verdict.exactness}"
        self.add(description, expected, observed, 0.0, observed == expected, provenance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "claims": [c.to_json() for c in self.claims],
            "wall_time_s": self.wall_time,
        }


def _finish(report: ExperimentReport, start: float) -> ExperimentReport:
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# scalar class boundary


def repro_scalar_boundary(rho: float, eps: float) -> ExperimentReport:
    """The scalar a = rho/(2-rho) sits in the class at rho and falls out at
    rho - eps, with boundary slack exactly -4*eps/(2-rho)^2."""
    if not 0 < eps < rho < 1:
        raise InputError("need 0 < eps < rho < 1")
    start = time.perf_counter()
    report = ExperimentReport("scalar-boundary", {"rho": rho, "eps": eps})
    a = rho / (2 - rho)

    v_in = membership_single(np.array([[a]]), rho)
    report.add("membership at rho", IN, v_in.decision, 0.0, v_in.decision == IN, "PAPER")

    v_out = membership_single(np.array([[a]]), rho - eps)
    report.add("membership at rho - eps", OUT, v_out.decision, 0.0, v_out.decision == OUT, "PAPER")

    scalar = OperatorTuple((np.array([[a]], dtype=complex),))
    observed = float(k_rho_kernel(scalar, rho - eps, [-1.0], [-1.0])[0, 0].real)
    expected = -4 * eps / (2 - rho) ** 2
    report.add_close("kernel value at z = -1, level rho - eps", observed, expected, 1e-10, "PAPER")
    return _finish(report, start)


# ---------------------------------------------------------------------------
# non-similar pair (nilpotent pencil of degree 3)


def admissible_eps(rho: float) -> float:
    """Largest eps with (1+eps)/rho + (rho-1)((1+eps)/rho)^2 = 1."""
    if not (math.isfinite(rho) and rho > 1):
        raise InputError("rho must be finite and exceed 1")
    x = (-1 + math.sqrt(1 + 4 * (rho - 1))) / (2 * (rho - 1))
    return rho * x - 1


def repro_nonsimilar_pair(rho: float, eps: float | None = None) -> ExperimentReport:
    """The 3x3 pair with nilpotent pencil: inside the class at rho, yet not
    simultaneously similar to contractive pairs (certified by divergence)."""
    eps_max = admissible_eps(rho)
    if eps is None:
        eps = eps_max / 2
    if not 0 <= eps < eps_max:
        raise InputError(f"eps must lie in [0, {eps_max:.6g}) for rho = {rho}")
    start = time.perf_counter()
    report = ExperimentReport("nonsimilar-pair", {"rho": rho, "eps": eps})

    pair0 = build_nonsimilar_pair(0.0)
    pair = build_nonsimilar_pair(eps)

    # (1) the pencil is nilpotent of degree 3, exactly.  The cancellation
    # c^3 - c^3 is bit-exact when the products are not fused, so the cube
    # is formed without BLAS (einsum keeps multiply and add separate) and
    # tested at exactly representable points (unit phases, powers of two).
    def cube(m):
        m2 = np.einsum("ik,kj->ij", m, m)
        return np.einsum("ik,kj->ij", m2, m)

    points = (1.0, -1.0, 1j, -1j, 0.5, -0.5j)
    worst_cube = 0.0
    for z1 in points:
        for z2 in points:
            za = eval_pencil(pair, [z1, z2])
            worst_cube = max(worst_cube, float(np.abs(cube(za)).max()))
    report.add("pencil cube vanishes exactly", 0.0, worst_cube, 0.0, worst_cube == 0.0, "PAPER")

    # (2) sup ||phi_rho(zA_0)|| <= g = (2 rho - 1)/rho^2 on the closed bidisk.
    # phi_rho(x)/g = phi_r(x/s) with r = 1 + g(rho-1) > 1 and s = g rho/r, so
    # this is A_0/s in C_{r,2}, proven by the pair cells (no pole at r > 1)
    g = (2 * rho - 1) / rho**2
    r = 1 + g * (rho - 1)
    report.add_certified("phi sup over bidisk <= (2 rho - 1)/rho^2, eps = 0", IN,
                         membership_tuple(pair0.scale(r / (g * rho)), r), "PAPER")

    # (3) membership of the eps-perturbed pair
    report.add_certified("membership of perturbed pair", IN, membership_tuple(pair, rho), "PAPER")

    # (4) divergence of the non-normal product, probed on prod^k: near rho = 1
    # its exponent 2 log(1 + eps) is below the probe's 0.01 threshold
    if eps > 0:
        prod = (pair.mats[0] + pair.mats[1]) @ (pair.mats[0] - pair.mats[1])
        rate = 2 * math.log(1 + eps)
        k = max(1, math.ceil(0.05 / rate))
        probe = divergence_probe(np.linalg.matrix_power(prod, k))
        expected_exp = k * rate
        report.add("product powers diverge", "Diverges", probe.classification, 0.0,
                   probe.classification == "Diverges", "PAPER")
        report.add_close("divergence exponent", probe.exponent, expected_exp,
                         0.2 * expected_exp, "DERIVED")
    return _finish(report, start)


# ---------------------------------------------------------------------------
# staircase pair: uniform isometric dilation vs torus-unitary dilation


def repro_staircase(rho: float, m: int = 16, depth: int = 5) -> ExperimentReport:
    """The staircase pair has a uniform isometric dilation (constructed and
    verified) while its pencil has norm sqrt(2)*rho on the torus, so no
    torus-unitary dilation can exist."""
    if not (math.isfinite(rho) and rho > 0):
        raise InputError("rho must be finite and positive")
    start = time.perf_counter()
    report = ExperimentReport("staircase", {"rho": rho, "m": m, "depth": depth})

    # (1) cyclic-shift dilation of the nilpotent jump, word length 6
    big, e = build_shift_unitary_rho_dilation(rho, m)
    small = OperatorTuple((nilpotent_jump(rho),))
    wit = verify_rho_dilation(small, big, e, rho, t_max=6)
    report.add_le("shift dilation residual (n <= 6)", wit.max_residual, 0.0, 1e-10, "DERIVED")

    # (2) isometry conditions on the truncated tree, interior
    v, ve, interior = build_staircase_isometric_dilation(rho, m, depth)
    cert = popescu_conditions(v, interior)
    report.add_le("isometry residual (interior)", cert.residual_isometry, 0.0, 1e-10, "PAPER")
    report.add_le("range orthogonality residual (interior)", cert.residual_orthogonality, 0.0, 1e-10, "PAPER")
    report.add("row contraction min eig >= 0", ">= -1e-10", cert.range_sum_min_eig, 1e-10,
               cert.range_sum_min_eig >= -1e-10, "PAPER")

    # (3) uniform dilation identity, all words of length <= 4
    pair = build_staircase_pair(rho)
    uwit = verify_uniform_rho_dilation(pair, v, ve, rho, n_max=4)
    report.add_le("uniform dilation residual (words <= 4)", uwit.max_residual, 0.0, 1e-9, "PAPER")

    # (4) pencil norm sqrt(2)*rho at every torus point, hence out of the class:
    # ||A_1 + w A_2||^2 = lambda_max(A_1*A_1 + A_2*A_2 + 2 Re(w A_1*A_2)) for
    # |w| = 1, and A_1*A_2 = 0
    a1, a2 = pair.mats
    gram = math.sqrt(op_norm(a1.conj().T @ a1 + a2.conj().T @ a2))
    deviation = max(op_norm(a1.conj().T @ a2), abs(gram - math.sqrt(2) * rho))
    report.add_close("torus pencil norm", deviation, 0.0, 1e-9, "PAPER")
    report.add_certified("pair membership Out, certified", OUT, membership_tuple(pair, rho), "PAPER")

    # (5) the pair itself cannot pass the torus-unitarity test
    cert_a = torus_unitarity(pair)
    report.add("torus unitarity fails for the pair", False, cert_a.passed, 0.0,
               not cert_a.passed, "TRIVIAL")
    return _finish(report, start)


# ---------------------------------------------------------------------------
# generalized von Neumann inequality


def _poly_eval_scalar(coeffs, z):
    """sum_j coeffs[j] z^j on an array of points."""
    out = np.zeros_like(z, dtype=complex)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _poly_eval_matrix(coeffs, a):
    out = np.zeros_like(a)
    eye = np.eye(a.shape[0], dtype=complex)
    for c in reversed(coeffs):
        out = out @ a + c * eye
    return out


def _vn_rhs(coeffs, rho: float, n_grid: int = 1024) -> float:
    z = np.exp(1j * np.linspace(0, 2 * np.pi, n_grid, endpoint=False))
    vals = rho * _poly_eval_scalar(coeffs, z) + (1 - rho) * coeffs[0]
    return float(np.abs(vals).max())


def _vn_slack(rng, rho: float, m) -> float:
    """Slack of the inequality at m for a random polynomial of degree 1-5."""
    deg = int(rng.integers(1, 6))
    coeffs = (rng.uniform(0, 1, deg + 1) ** 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi, deg + 1))
    return _vn_rhs(coeffs, rho) - op_norm(_poly_eval_matrix(coeffs, m))


def repro_von_neumann(rho: float, trials: int = 100, seed: int = 0) -> ExperimentReport:
    """||p(A)|| <= max over the circle of |rho p(z) + (1-rho) p(0)| for
    class members, in one variable and under commuting substitutions."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if rho <= 0:
        raise InputError("rho must be positive")
    start = time.perf_counter()
    report = ExperimentReport("von-neumann", {"rho": rho, "trials": trials, "seed": seed})
    rng = np.random.default_rng(seed)

    worst_slack = math.inf
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        worst_slack = min(worst_slack, _vn_slack(rng, rho, a * (0.99 / w_rho(a, rho).hi)))
    report.add("single-variable inequality slack", ">= -1e-7", worst_slack, 1e-7,
               worst_slack >= -1e-7, "PAPER")

    # tuple version: a pair scaled safely into the class (by w_{1,2}, the
    # torus sup of ||zA||), under sampled commuting substitutions
    pair = build_nonsimilar_pair(0.0)
    sup = w_rho_tuple(pair, 1.0).hi
    scale = 0.99 / (sup * max(1.0, 2.0 / rho - 1.0))
    pair = pair.scale(scale)
    worst_tuple_slack = math.inf
    samples = sample_commuting_tuples(2, 8, seed=seed + 1)
    for sample in samples:
        big = substitute(pair, sample)
        for _ in range(4):
            worst_tuple_slack = min(worst_tuple_slack, _vn_slack(rng, rho, big))
    report.add("tuple inequality slack", ">= -1e-7", worst_tuple_slack, 1e-7,
               worst_tuple_slack >= -1e-7, "PAPER")
    return _finish(report, start)


# ---------------------------------------------------------------------------
# radius property suite


def radius_property_suite(seeds: int = 50, dims=(2, 3, 4), rho_set=(0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
                          width: float = 1e-6, seed0: int = 0,
                          power_bound_seeds: int | None = None) -> ExperimentReport:
    """Randomized check of the radius laws: scaling, ordering, the
    rho <-> 2-rho symmetry, product and power bounds, log-convexity,
    lower bounds, verdict nesting, the scalar closed form, and the
    uniform power bound under commuting substitutions."""
    if seeds < 1:
        raise InputError("seeds must be at least 1")
    if seed0 < 0:
        raise InputError("seed must be nonnegative")
    start = time.perf_counter()
    report = ExperimentReport(
        "radius-properties",
        {"seeds": seeds, "dims": list(dims), "rho_set": list(rho_set), "seed0": seed0},
    )
    rho_set = sorted(rho_set)
    if power_bound_seeds is None:
        power_bound_seeds = seeds

    sym_rhos = (0.25, 0.5, 1.0, 1.5)
    logcvx_rhos = (0.5, 1.0, 2.0, 4.0)

    worst = {
        "nesting": 0.0,
        "scaling": 0.0,
        "ordering_upper": 0.0,
        "ordering_lower": 0.0,
        "symmetry": 0.0,
        "product": 0.0,
        "power": 0.0,
        "lower_norm": 0.0,
        "lower_spectral": 0.0,
        "logcvx": 0.0,
        "scalar": 0.0,
    }

    tol = 1e-9
    for s in range(seeds):
        rng = np.random.default_rng(seed0 * 65537 + s)
        d = dims[s % len(dims)]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a / op_norm(a)
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = b / op_norm(b)

        rhos_needed = sorted(set(rho_set) | {2 - r for r in sym_rhos} | set(logcvx_rhos)
                             | {(r1 + r2) / 2 for r1, r2 in zip(logcvx_rhos, logcvx_rhos[1:])})
        wa = {r: w_rho(a, r, width).mid for r in rhos_needed}

        # verdict nesting across the grid
        margins = {r: kernel_margin(a, r) for r in rho_set}
        for r1, r2 in zip(rho_set, rho_set[1:]):
            if margins[r1] >= -tol:
                worst["nesting"] = max(worst["nesting"], -(margins[r2] + tol))

        # scaling law
        mu = complex(rng.standard_normal() + 1j * rng.standard_normal())
        r = rho_set[s % len(rho_set)]
        w_scaled = w_rho(mu * a, r, width).mid
        worst["scaling"] = max(worst["scaling"], abs(w_scaled - abs(mu) * wa[r]))

        # ordering between consecutive levels
        for r1, r2 in zip(rho_set, rho_set[1:]):
            worst["ordering_upper"] = max(worst["ordering_upper"], wa[r2] - wa[r1])
            worst["ordering_lower"] = max(
                worst["ordering_lower"], wa[r1] - (2 * r2 / r1 - 1) * wa[r2]
            )

        # symmetry rho*w_rho = (2-rho)*w_{2-rho}
        for r in sym_rhos:
            worst["symmetry"] = max(worst["symmetry"], abs(r * wa[r] - (2 - r) * wa[2 - r]))

        # products and powers
        for r in rho_set:
            w_ab = w_rho(a @ b, r, width).mid
            w_b = w_rho(b, r, width).mid
            const = r**2 if r >= 1 else (2 - r) * r
            worst["product"] = max(worst["product"], w_ab - const * wa[r] * w_b)
            p = a
            for n in range(2, 5):
                p = p @ a
                w_an = w_rho(p, r, width).mid
                worst["power"] = max(worst["power"], w_an - wa[r] ** n)

        # lower bounds
        nrm, nu = op_norm(a), spectral_radius(a)
        for r in rho_set:
            worst["lower_norm"] = max(worst["lower_norm"], nrm / r - wa[r])
            worst["lower_spectral"] = max(worst["lower_spectral"], nu - wa[r])

        # midpoint log-convexity over the probe levels
        for r1, r2 in zip(logcvx_rhos, logcvx_rhos[1:]):
            mid = (r1 + r2) / 2
            lhs = math.log(wa[mid])
            rhs = (math.log(wa[r1]) + math.log(wa[r2])) / 2
            worst["logcvx"] = max(worst["logcvx"], lhs - rhs)

        # scalar closed form
        a_scalar = complex(rng.standard_normal() + 1j * rng.standard_normal()) / 2
        r = rho_set[(s + 1) % len(rho_set)]
        w_s = w_rho(np.array([[a_scalar]]), r, width).mid
        exact = abs(a_scalar) * (1.0 if r >= 1 else 2.0 / r - 1.0)
        worst["scalar"] = max(worst["scalar"], abs(w_s - exact))

    # uniform power bound under commuting substitutions
    for s in range(power_bound_seeds):
        rng = np.random.default_rng(seed0 * 9973 + 31 + s)
        d = dims[s % len(dims)]
        t = OperatorTuple(tuple(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)
        ))
        r = rho_set[s % len(rho_set)]
        cap = t.norm_sum() * max(1.0, 2.0 / r - 1.0)
        t = t.scale(0.98 / cap)
        if membership_tuple(t, r, tol).decision == OUT:
            continue
        for sample in sample_commuting_tuples(2, 4, seed=s + 1, dims=(2, 3)):
            big = substitute(t, sample)
            p = np.eye(big.shape[0], dtype=complex)
            for _ in range(8):
                p = p @ big
                worst["power_bound"] = max(worst.get("power_bound", 0.0), op_norm(p) - r)

    report.add_le("verdict nesting violation", worst["nesting"], 0.0, 1e-8, "PAPER")
    report.add_le("scaling-law deviation", worst["scaling"], 0.0, 2 * width, "PAPER")
    report.add_le("ordering (upper) violation", worst["ordering_upper"], 0.0, 2 * width, "PAPER")
    report.add_le("ordering (factor) violation", worst["ordering_lower"], 0.0, 2 * width, "PAPER")
    report.add_le("symmetry identity deviation", worst["symmetry"], 0.0, 4 * width, "PAPER")
    report.add_le("product bound violation", worst["product"], 0.0, 1e-5, "PAPER")
    report.add_le("power bound violation", worst["power"], 0.0, 1e-5, "PAPER")
    report.add_le("norm lower-bound violation", worst["lower_norm"], 0.0, width, "PAPER")
    report.add_le("spectral lower-bound violation", worst["lower_spectral"], 0.0, width, "PAPER")
    report.add_le("log-convexity violation", worst["logcvx"], 0.0, 1e-4, "PAPER")
    report.add_le("scalar closed-form deviation", worst["scalar"], 0.0, width, "PAPER")
    report.add_le("uniform power-bound violation", worst.get("power_bound", 0.0), 0.0, 1e-6, "PAPER")
    return _finish(report, start)


# ---------------------------------------------------------------------------
# class monotonicity


def repro_class_monotonicity(n_vars: int = 1, rho_grid=(0.3, 0.5, 0.7, 1.0, 2.0, 4.0),
                             seeds: int = 10, seed0: int = 0) -> ExperimentReport:
    """Verdicts nest along an ascending level grid; scalar witnesses
    a = rho/(2-rho) separate consecutive levels below 1."""
    rho_grid = sorted(rho_grid)
    if len(rho_grid) < 2:
        raise InputError("rho_grid must contain at least two ascending values")
    if seeds < 1:
        raise InputError("seeds must be at least 1")
    if seed0 < 0:
        raise InputError("seed must be nonnegative")
    start = time.perf_counter()
    report = ExperimentReport(
        "monotonicity", {"n_vars": n_vars, "rho_grid": list(rho_grid), "seeds": seeds, "seed0": seed0}
    )

    # scalar witness chain below 1
    chain_ok = True
    for r1, r2 in zip(rho_grid, rho_grid[1:]):
        if not r2 < 1:
            continue
        a = np.array([[r2 / (2 - r2)]], dtype=complex)
        v_hi = membership_single(a, r2)
        v_lo = membership_single(a, r1)
        if v_hi.decision != IN or v_lo.decision != OUT:
            chain_ok = False
    report.add("scalar witness chain (levels < 1)", True, chain_ok, 0.0, chain_ok, "PAPER")

    # scalar levels >= 1 coincide
    rng = np.random.default_rng(seed0)
    coincide = True
    for _ in range(8):
        a = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)]])
        verdicts = {membership_single(a, r).decision for r in rho_grid if r >= 1}
        if len(verdicts) > 1:
            coincide = False
    report.add("scalar verdicts coincide for levels >= 1", True, coincide, 0.0, coincide, "PAPER")

    # nesting on random inputs
    nested = True
    for s in range(seeds):
        rng = np.random.default_rng(seed0 * 131 + s)
        d = 2 + s % 2
        if n_vars == 1:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a / op_norm(a)
            decisions = [membership_single(a, r).decision for r in rho_grid]
        else:
            t = OperatorTuple(tuple(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(n_vars)
            ))
            t = t.scale(1.0 / t.norm_sum())
            decisions = [membership_tuple(t, r).decision for r in rho_grid]
        seen_in = False
        for dec in decisions:
            if seen_in and dec != IN:
                nested = False
            if dec == IN:
                seen_in = True
    report.add("verdict nesting on random inputs", True, nested, 0.0, nested, "DERIVED")
    return _finish(report, start)


EXPERIMENTS = {
    "scalar-boundary": repro_scalar_boundary,
    "thm51": repro_nonsimilar_pair,
    "thm53": repro_staircase,
    "von-neumann": repro_von_neumann,
    "radius-properties": radius_property_suite,
    "monotonicity": repro_class_monotonicity,
}
