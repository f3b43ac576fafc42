"""Class-membership tests and operator radii.

The single-operator test evaluates the positivity kernel
k(z, z) = rho*I - (rho-1)(zA + (zA)*) + (rho-2)(zA)*(zA) over the closed
unit disk; membership holds iff its smallest eigenvalue stays nonnegative.
The radius w_rho is the smallest u such that A/u passes, read off a
quadratic eigenproblem in the scaling and confirmed by the kernel test.
Tuple variants work through the pencil transform phi on the polydisk and
through substitution of sampled commuting strict contractions.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError
from .linalg import as_matrix, op_norm
from .pencil import COMMUTE_TOL, OperatorTuple, eval_pencil

IN = "In"
OUT = "Out"
BORDERLINE = "Borderline"

CERTIFIED = "Certified"
NECESSARY_ONLY = "NecessaryOnly"

DEFAULT_TOL = 1e-9
DEFAULT_WIDTH = 1e-6
DEFAULT_BUDGET = 64

#: Strict-contraction cap for sampled commuting tuples.
NORM_CAP = 1 - 1e-6
#: Sizes of the commuting tuples that N >= 3 membership samples, in turn.
SAMPLE_DIMS = (1, 2, 3, 4)
#: Sampled tuples kept by sample_commuting_tuple (least recently used out);
#: at the library's sample sizes one holds at most N 4 x 4 complex matrices.
SAMPLE_CACHE_SIZE = 1024

#: Radius used for "scalar polydisk point" samples; any value < 1 is a
#: valid member of the strict-contraction family.
SCALAR_POINT_RADIUS = 1 - 1e-12

#: Angles of the single-operator theta grids: the disk kernel minimum, the
#: psi / phi boundary rings, and the quadratic eigenproblem of w_rho.
THETA_POINTS = 512
#: Angles of the coarse circle grid that screens commuting substitutions
#: (N >= 3) before their full disk minimum.
SCREEN_POINTS = 64
#: Rounding guard of the screen's floor, per unit of dimension, relative to
#: the bound rho + 2|rho-1| ||S|| + |rho-2| ||S||^2 on the kernel's norm.
SCREEN_ROUND_GUARD = 1e-13
#: Substitutions screened at a time, in sample order, before the witness
#: search moves on: THETA_POINTS // SCREEN_POINTS of each sample size, so
#: that every eigvalsh stack of the circle floor holds THETA_POINTS kernels.
SCREEN_CHUNK = len(SAMPLE_DIMS) * (THETA_POINTS // SCREEN_POINTS)
#: Interior grid of the disk kernel minimum for rho > 2: radii and angles.
INTERIOR_R_POINTS = 64
INTERIOR_THETA_POINTS = 128

#: Angles per variable of the torus grid that finds the worst slice
#: A_1 + w A_2 of a pair.
PAIR_TORUS_POINTS = 64

#: Local theta refinements of the quadratic eigenproblem: rounds, and angles
#: per round spanning +- one spacing of the previous grid.
QEP_REFINE_ROUNDS = 3
QEP_REFINE_POINTS = 17
#: Torus points per batched companion eigen-solve, so that memory stays at
#: QEP_CHUNK (2d)^2 entries whatever the grid size.
QEP_CHUNK = 64
#: Roots with |Im mu| <= QEP_REAL_TOL (1 + |Re mu|) count as real.
QEP_REAL_TOL = 1e-7
#: Rounding allowance of the tests that let the theta maximiser skip a
#: point: they must put every root below best - QEP_BOUND_GUARD (1 + |best|).
QEP_BOUND_GUARD = 1e-9

QEP_METHOD = "qep-theta-max+kernel-check"

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class MembershipVerdict:
    decision: str
    margin: float
    certificate: dict
    exactness: str = CERTIFIED

    @property
    def is_in(self) -> bool:
        return self.decision in (IN, BORDERLINE)

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "margin": self.margin,
            "certificate": self.certificate,
            "exactness": self.exactness,
        }


@dataclass(frozen=True)
class RadiusReport:
    lo: float
    hi: float
    method: str
    grid_spec: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "method": self.method,
            "grid_spec": self.grid_spec,
            "wall_time_s": self.wall_time,
        }


# ---------------------------------------------------------------------------
# batched kernel / transform evaluation


def _kernel_lambda_min(a: np.ndarray, rho: float, zs: np.ndarray) -> np.ndarray:
    """lambda_min of k(z, z) for a batch of scalar disk points ``zs``."""
    ah = a.conj().T
    aha = ah @ a
    eye = np.eye(a.shape[0])
    z = zs[:, None, None]
    k = (
        rho * eye
        - (rho - 1) * (z * a + z.conj() * ah)
        + (rho - 2) * (np.abs(z) ** 2) * aha
    )
    k = (k + k.conj().transpose(0, 2, 1)) / 2
    return np.linalg.eigvalsh(k)[:, 0]


def _golden_min(f, lo: float, hi: float, iters: int = 40):
    """Golden-section minimization of a unimodal scalar function."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _kernel_disk_min(a: np.ndarray, rho: float, n_theta: int = THETA_POINTS, refine_rounds: int = 3):
    """Minimum of lambda_min(k(z, z)) over the closed disk, with witness.

    For rho <= 2 the per-direction profile in r is concave with positive
    value at r = 0, so the disk minimum sits on the boundary circle.  For
    rho > 2 an interior r-grid is scanned as well.
    """
    thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    bvals = _kernel_lambda_min(a, rho, np.exp(1j * thetas))
    i = int(np.argmin(bvals))
    best_theta, best_val = float(thetas[i]), float(bvals[i])
    span = 2 * np.pi / n_theta
    g = lambda th: float(_kernel_lambda_min(a, rho, np.exp(1j * np.array([th])))[0])
    for _ in range(refine_rounds):
        best_theta, best_val = _golden_min(g, best_theta - span, best_theta + span, iters=16)
        span *= 0.05
    witness = complex(np.exp(1j * best_theta))

    if rho > 2:
        rs = np.linspace(1.0 / INTERIOR_R_POINTS, 1.0, INTERIOR_R_POINTS)
        th = np.linspace(0, 2 * np.pi, INTERIOR_THETA_POINTS, endpoint=False)
        rr, tt = np.meshgrid(rs, th, indexing="ij")
        zs = (rr * np.exp(1j * tt)).ravel()
        vals = _kernel_lambda_min(a, rho, zs)
        j = int(np.argmin(vals))
        if float(vals[j]) < best_val:
            r0, t0 = float(rr.ravel()[j]), float(tt.ravel()[j])
            # one local refinement round around the interior minimizer
            rloc = np.clip(np.linspace(r0 - 1 / INTERIOR_R_POINTS, r0 + 1 / INTERIOR_R_POINTS, 17), 0, 1)
            tloc = np.linspace(t0 - 2 * np.pi / INTERIOR_THETA_POINTS,
                               t0 + 2 * np.pi / INTERIOR_THETA_POINTS, 17)
            rr2, tt2 = np.meshgrid(rloc, tloc, indexing="ij")
            zs2 = (rr2 * np.exp(1j * tt2)).ravel()
            vals2 = _kernel_lambda_min(a, rho, zs2)
            j2 = int(np.argmin(vals2))
            if float(vals2[j2]) < best_val:
                best_val = float(vals2[j2])
                witness = complex(zs2[j2])

    return best_val, witness


def _psi_boundary_min(a: np.ndarray, rho: float, n_theta: int = THETA_POINTS, r: float = 1 - 1e-6):
    """min over the ring |z| = r of lambda_min(Re psi(z)); -inf past a pole."""
    d = a.shape[0]
    zs = r * np.exp(1j * np.linspace(0, 2 * np.pi, n_theta, endpoint=False))
    m = np.eye(d) - zs[:, None, None] * a
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return -math.inf
    if not np.all(np.isfinite(inv)):
        return -math.inf
    psi = (1 - 2 / rho) * np.eye(d) + (2 / rho) * inv
    re = (psi + psi.conj().transpose(0, 2, 1)) / 2
    return float(np.linalg.eigvalsh(re)[:, 0].min())


def _phi_boundary_sup(a: np.ndarray, rho: float, n_theta: int = THETA_POINTS, r: float = 1 - 1e-6):
    """sup over the ring |z| = r of ||phi(z)||; +inf past a pole."""
    d = a.shape[0]
    zs = r * np.exp(1j * np.linspace(0, 2 * np.pi, n_theta, endpoint=False))
    za = zs[:, None, None] * a
    m = (rho - 1) * za - rho * np.eye(d)
    try:
        phi = za @ np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return math.inf
    if not np.all(np.isfinite(phi)):
        return math.inf
    return float(np.linalg.svd(phi, compute_uv=False)[:, 0].max())


def kernel_margin(a, rho: float) -> float:
    """Signed disk minimum of the membership kernel (fast path, no report)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError("membership input must be square")
    return _kernel_disk_min(m, rho)[0]


def _kernel_circle_floor(subs, rho: float) -> np.ndarray:
    """Lower bounds on the values _kernel_disk_min returns for a sequence of
    square matrices S (any mix of sizes), as an array.

    For rho <= 2 that value is lambda_min k at a point of the unit circle,
    and lambda_min k(e^{i theta}) is Lipschitz in theta with constant
    2|rho-1| ||S|| (Weyl; dk/dtheta has at most that norm).  So the minimum
    over SCREEN_POINTS angles, less |rho-1| ||S|| 2 pi/SCREEN_POINTS and a
    rounding guard proportional to ||k||, lies below it.  For rho > 2 the
    disk minimum may lie inside the disk, and the floors are -inf.  Matrices
    of one size run as stacks of at most THETA_POINTS kernels per eigvalsh.
    """
    floors = np.full(len(subs), -np.inf)
    if rho > 2:
        return floors
    zeta = np.exp(1j * np.linspace(0, 2 * np.pi, SCREEN_POINTS, endpoint=False))[:, None, None]
    per_call = THETA_POINTS // SCREEN_POINTS
    for d, idx, stack in _by_size(subs):
        lam = np.empty(len(idx))
        for j in range(0, len(idx), per_call):
            s = stack[j:j + per_call, None]
            sh = s.conj().swapaxes(-1, -2)
            k = rho * np.eye(d) - (rho - 1) * (zeta * s + zeta.conj() * sh) + (rho - 2) * (sh @ s)
            k = (k + k.conj().swapaxes(-1, -2)) / 2
            lam[j:j + per_call] = np.linalg.eigvalsh(k)[..., 0].min(axis=1)
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        floors[idx] = (lam - abs(rho - 1) * norms * (2 * np.pi / SCREEN_POINTS)
                       - _screen_guard(norms, d, rho))
    return floors


def _kernel_norm_floor(subs, rho: float) -> np.ndarray:
    """Lower bounds from the norm s = ||S|| alone on the values
    _kernel_disk_min returns, for the matrices of _kernel_circle_floor.

    On the closed disk ||zS + (zS)*|| <= 2s, and for rho <= 2 the term
    (rho-2)|z|^2 S*S is at least -(2-rho) s^2, so lambda_min k is at least
    rho - 2|rho-1| s - (2-rho) s^2; the floor is that less the rounding
    guard of _kernel_circle_floor.  For rho > 2 the floors are -inf.
    """
    floors = np.full(len(subs), -np.inf)
    if rho > 2:
        return floors
    for d, idx, stack in _by_size(subs):
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        floors[idx] = (rho - 2 * abs(rho - 1) * norms - (2 - rho) * norms ** 2
                       - _screen_guard(norms, d, rho))
    return floors


def _by_size(mats):
    """(size d, indices, stack) for each size among the square ``mats``."""
    for d in {m.shape[0] for m in mats}:
        idx = [i for i, m in enumerate(mats) if m.shape[0] == d]
        yield d, idx, np.stack([mats[i] for i in idx])


def _screen_guard(norms: np.ndarray, d: int, rho: float) -> np.ndarray:
    """Rounding guard of the screen floors of d x d matrices of these norms:
    SCREEN_ROUND_GUARD d times a bound on the kernel's norm."""
    return SCREEN_ROUND_GUARD * d * (rho + 2 * abs(rho - 1) * norms + abs(rho - 2) * norms ** 2)


def _screen_witness(subs, rho: float, tol: float, level: float, disk_min):
    """Screen the substitutions ``subs`` in sample order and find the first
    whose disk minimum is below -tol.

    Works through chunks of SCREEN_CHUNK samples.  In each, a sample whose
    _kernel_norm_floor is at least ``level`` keeps that floor; the others get
    their _kernel_circle_floor.  Then ``disk_min(i)`` runs on every sample of
    the chunk with a floor below -tol, in order, until one returns a value
    below -tol.  Returns (floors, index of that sample or None); floors of
    chunks after the witness are nan.  With level >= -tol the witness is
    the first failing sample of the unscreened loop.
    """
    floors = np.full(len(subs), np.nan)
    for start in range(0, len(subs), SCREEN_CHUNK):
        stop = min(start + SCREEN_CHUNK, len(subs))
        floors[start:stop] = _kernel_norm_floor(subs[start:stop], rho)
        chunk = range(start, stop)
        grid = [i for i in chunk if floors[i] < level]
        if grid:
            floors[grid] = _kernel_circle_floor([subs[i] for i in grid], rho)
        for i in chunk:
            if floors[i] < -tol and disk_min(i) < -tol:
                return floors, i
    return floors, None


# ---------------------------------------------------------------------------
# single-operator membership and radii


def _check_positive(**knobs: float) -> None:
    """Raise InputError unless every knob is finite and positive."""
    for name, value in knobs.items():
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and positive")


def membership_single(a, rho: float, tol: float = DEFAULT_TOL, cross_check: bool = True) -> MembershipVerdict:
    """Decide membership of a single operator at level rho.

    The decision comes from the kernel condition on the closed disk; the
    Herglotz-transform condition is evaluated on a near-boundary ring as a
    cross-check and recorded in the certificate.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError("membership input must be square")
    _check_positive(rho=rho, tol=tol)
    margin, witness = _kernel_disk_min(m, rho)
    decision = IN if margin >= -tol else OUT
    certificate = {
        "method": "kernel-disk-grid",
        "theta_points": THETA_POINTS,
        "interior_r_points": INTERIOR_R_POINTS if rho > 2 else 0,
        "witness_z": [witness.real, witness.imag],
        "kernel_margin": margin,
        "tol": tol,
    }
    if cross_check:
        psi_min = _psi_boundary_min(m, rho)
        psi_decision = IN if psi_min >= -max(tol, 1e-6) else OUT
        certificate["psi_margin"] = psi_min
        certificate["psi_decision"] = psi_decision
    return MembershipVerdict(decision, margin, certificate)


def membership_single_all_conditions(a, rho: float, tol: float = DEFAULT_TOL) -> dict:
    """Verdicts from the kernel, Herglotz, and Schur conditions separately.

    Returns {"kernel": ..., "psi": ..., "phi": ...} decisions plus margins.
    Boundary-band cases (|margin| within the grid slack) are reported as
    Borderline so callers can treat them as wildcards.
    """
    m = as_matrix(a)
    band = max(tol, 1e-6)
    kmargin, _ = _kernel_disk_min(m, rho)
    pmargin = _psi_boundary_min(m, rho)
    fsup = _phi_boundary_sup(m, rho)
    fmargin = 1 - fsup

    def classify(margin):
        if margin < -band:
            return OUT
        if margin > band:
            return IN
        return BORDERLINE

    return {
        "kernel": classify(kmargin),
        "psi": classify(pmargin),
        "phi": classify(fmargin),
        "kernel_margin": kmargin,
        "psi_margin": pmargin,
        "phi_margin": fmargin,
    }


def _bisect_radius(norm, lo, hi, feasible, width, method, grid_spec) -> RadiusReport:
    start = time.perf_counter()
    if norm == 0.0:
        return RadiusReport(0.0, 0.0, method, grid_spec, time.perf_counter() - start)
    if feasible(lo):
        return RadiusReport(lo, lo, method, grid_spec, time.perf_counter() - start)
    if not feasible(hi):
        hi2 = hi * (1 + 1e-9)
        if not feasible(hi2):
            raise InternalError(
                f"radius bracket inverted: upper endpoint {hi} infeasible ({method})"
            )
        hi = hi2
    while hi - lo > width:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return RadiusReport(lo, hi, method, grid_spec, time.perf_counter() - start)


def _qep_top_roots(za: np.ndarray, rho: float, gram: np.ndarray | None = None) -> np.ndarray:
    """Largest real root mu*(zeta) of the quadratic pencil
    rho mu^2 I - (rho-1) mu (zeta A + (zeta A)*) + (rho-2) (zeta A)*(zeta A)
    for each pencil value zeta A in the stack ``za`` (-inf where no root is
    real), from batched eigenvalues of the 2d x 2d companion matrix
    [[0, I], [-(rho-2)/rho G, (rho-1)/rho H]].  ``gram`` is G when it is
    the same at every point (A*A for a single operator on the circle);
    otherwise G is formed per point."""
    d = za.shape[1]
    zah = za.conj().transpose(0, 2, 1)
    comp = np.zeros((len(za), 2 * d, 2 * d), dtype=complex)
    comp[:, :d, d:] = np.eye(d)
    comp[:, d:, :d] = -(rho - 2) / rho * (zah @ za if gram is None else gram)
    comp[:, d:, d:] = (rho - 1) / rho * (za + zah)
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= QEP_REAL_TOL * (1 + np.abs(roots.real))
    return np.where(real, roots.real, -np.inf).max(axis=1)


def _qep_upper_bound(za: np.ndarray, rho: float, gram_max: float | None = None) -> np.ndarray:
    """Upper bound on every real root, and on the real part of every complex
    root, of the pencil of _qep_top_roots, for each pencil value in ``za``.

    A root mu with unit eigenvector x solves the scalar quadratic
    rho mu^2 - (rho-1) h mu + (rho-2) g = 0, h = x*Hx, g = x*Gx, where
    H = zeta A + (zeta A)* and G = (zeta A)*(zeta A), and g >= h^2/4.  For
    rho >= 2 that gives Re mu <= max(h, 0)/2.  For rho < 2 the roots are real
    and mu <= f(h, g) = [(rho-1)h + sqrt((rho-1)^2 h^2 + 4 rho (2-rho) g)]/(2 rho),
    which increases in g and in (rho-1)h; so h is lambda_max(H) for rho >= 1,
    lambda_min(H) for rho < 1, and g is lambda_max(G) (``gram_max`` when it
    is the same at every point).  The bound is exact at rho = 1 and 2.
    """
    zah = za.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(za + zah)
    if rho >= 2:
        return np.maximum(lam[:, -1], 0) / 2
    h = lam[:, -1] if rho >= 1 else lam[:, 0]
    g = np.linalg.eigvalsh(zah @ za)[:, -1] if gram_max is None else gram_max
    disc = (rho - 1) ** 2 * h ** 2 + 4 * rho * (2 - rho) * np.maximum(g, 0)
    return ((rho - 1) * h + np.sqrt(disc)) / (2 * rho)


def _qep_roots_below(za: np.ndarray, rho: float, level: float, gram: np.ndarray | None = None) -> np.ndarray:
    """True where every root of the pencil of _qep_top_roots has real part
    below ``level``, for pencil values with ||zeta A|| <= 1.

    With mu = level + s the pencil is rho s^2 I + s C + P, where
    C = 2 rho level I - (rho-1) H and P is the pencil at mu = level.  If C
    and P are positive definite, a root s with unit eigenvector x solves
    rho s^2 + (x*Cx) s + x*Px = 0 with positive coefficients, so Re s < 0.
    Their smallest eigenvalues must exceed QEP_BOUND_GUARD times a bound on
    their norms, so that rounding cannot pass them.
    """
    zah = za.conj().transpose(0, 2, 1)
    h = za + zah
    eye = np.eye(za.shape[1])
    c = 2 * rho * level * eye - (rho - 1) * h
    p = level * (rho * level * eye - (rho - 1) * h) + (rho - 2) * (zah @ za if gram is None else gram)
    lam = np.linalg.eigvalsh(np.concatenate([c, p]))[:, 0]
    norm_c = 2 * rho * abs(level) + 2 * abs(rho - 1)
    norm_p = abs(level) * (rho * abs(level) + 2 * abs(rho - 1)) + abs(rho - 2)
    return (lam[:len(za)] > QEP_BOUND_GUARD * norm_c) & (lam[len(za):] > QEP_BOUND_GUARD * norm_p)


def _qep_theta_max(a: OperatorTuple, rho: float):
    """Maximum over the torus of mu*(zeta) for N = 1 or 2.

    Returns (maximum, slice phase w* = zeta_2/zeta_1 at the maximiser (1 for
    N = 1), grid points per axis, refinement rounds, companion solves).  The
    grid has THETA_POINTS angles for N = 1 and PAIR_TORUS_POINTS per axis
    for N = 2; QEP_REFINE_ROUNDS local grids of QEP_REFINE_POINTS per axis
    follow around the best point, each spanning +- one spacing of the grid
    before.  At rho = 1 the pencil mu^2 I - (zeta A)*(zeta A) does not see
    the phase of zeta_1, so the first axis is the single angle 0.

    A grid of more than QEP_CHUNK points is solved in chunks of QEP_CHUNK
    in decreasing order of _qep_upper_bound (stable in the point index).
    After the first chunk, with level = best root so far less
    QEP_BOUND_GUARD (1 + |best|), a point is skipped if its bound is below
    level or if _qep_roots_below puts every root below level (not run at
    rho = 2, where the bound is exact), and the pass stops at the first
    chunk whose bounds are all below level.  A skipped point cannot reach
    the best root, so the maximum and its first maximiser are those of
    solving every point.  The callers pass tuples with ||zeta A|| <= 1 on
    the torus.
    """
    n = THETA_POINTS if a.n_vars == 1 else PAIR_TORUS_POINTS
    grid = np.linspace(0, 2 * np.pi, n, endpoint=False)
    axes = [np.zeros(1) if rho == 1 else grid] + [grid] * (a.n_vars - 1)
    gram = a[0].conj().T @ a[0] if a.n_vars == 1 else None
    gram_max = None if gram is None else float(np.linalg.eigvalsh(gram)[-1])

    def grid_max(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.exp(1j * np.stack([m.ravel() for m in mesh], axis=1))
        chunks = range(0, len(points), QEP_CHUNK)
        prune = len(points) > QEP_CHUNK
        order = np.arange(len(points))
        if prune:
            bound = np.concatenate([_qep_upper_bound(_pencils(a, points[i:i + QEP_CHUNK]), rho, gram_max)
                                    for i in chunks])
            order = np.argsort(-bound, kind="stable")
        vals = np.full(len(points), -np.inf)
        best, solves = -np.inf, 0
        for i in chunks:
            idx = order[i:i + QEP_CHUNK]
            if prune and best > -np.inf:
                level = best - QEP_BOUND_GUARD * (1 + abs(best))
                idx = idx[bound[idx] >= level]
                if not idx.size:
                    break
                if rho != 2:
                    idx = idx[~_qep_roots_below(_pencils(a, points[idx]), rho, level, gram)]
            if idx.size:
                vals[idx] = _qep_top_roots(_pencils(a, points[idx]), rho, gram)
                best, solves = max(best, vals[idx].max()), solves + idx.size
        i = int(np.argmax(vals))
        idx = np.unravel_index(i, [len(ax) for ax in axes])
        return float(vals[i]), [float(ax[j]) for ax, j in zip(axes, idx)], solves

    best, best_angles, solves = grid_max(axes)
    rounds = QEP_REFINE_ROUNDS if any(len(ax) > 1 for ax in axes) else 0
    span = 2 * np.pi / n
    for _ in range(rounds):
        local = [t + np.linspace(-span, span, QEP_REFINE_POINTS) if len(ax) > 1 else ax
                 for t, ax in zip(best_angles, axes)]
        val, angles, count = grid_max(local)
        solves += count
        if val > best:
            best, best_angles = val, angles
        span *= 2 / (QEP_REFINE_POINTS - 1)
    w = complex(np.exp(1j * (best_angles[1] - best_angles[0]))) if a.n_vars == 2 else 1.0
    return best, w, [len(ax) for ax in axes], rounds, solves


def w_rho(a, rho: float, width: float = DEFAULT_WIDTH, tol: float = DEFAULT_TOL) -> RadiusReport:
    """Operator radius w_rho(A) = inf{u > 0 : A/u passes membership at rho}.

    Scaling A -> A/u moves the kernel at a disk point z = r e^{i theta}
    only through s = r/u, so w_rho(A) is the maximum over theta of the
    largest real root mu*(theta) of the quadratic pencil
    rho mu^2 I - (rho-1) mu (e^{i theta} A + e^{-i theta} A*) + (rho-2) A*A
    (the norm at rho = 1, the numerical radius at rho = 2).  The bracket
    [mu - width/2, mu + width/2], floored at the lower bound ||A||/rho, is
    confirmed at both ends by the kernel disk minimum: below zero at lo
    (A/lo is not a member) unless lo is that lower bound, at least -tol at
    hi.  If either end fails, the kernel test is bisected between the
    nearest confirmed ends instead.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError("radius input must be square")
    _check_positive(rho=rho, width=width, tol=tol)
    start = time.perf_counter()
    norm = op_norm(m)
    grid_spec = {"theta_points": 0, "refine_rounds": 0, "theta_solves": 0, "kernel_checks": 0,
                 "fallback_steps": 0, "tol": tol, "width": width}
    if norm == 0.0:
        return RadiusReport(0.0, 0.0, QEP_METHOD, grid_spec, 0.0)
    mu, _, (grid_spec["theta_points"],), grid_spec["refine_rounds"], grid_spec["theta_solves"] = (
        _qep_theta_max(OperatorTuple((m / norm,)), rho))
    floor = norm / rho
    centre = max(mu * norm, floor)
    lo, hi = max(floor, centre - width / 2), centre + width / 2
    while hi - lo > width:  # rounding of centre +- width/2
        hi = math.nextafter(hi, lo)

    def margin(u):
        grid_spec["kernel_checks"] += 1
        return kernel_margin(m / u, rho)

    def feasible(u):
        return margin(u) >= -tol

    method, fallback = QEP_METHOD, None
    lo_margin = margin(lo)
    if lo == floor and lo_margin >= -tol:
        hi = lo  # w_rho attains its lower bound ||A||/rho
    elif lo_margin >= 0:
        fallback = (floor, lo)
    elif not feasible(hi):
        fallback = (hi, norm * max(1.0, 2.0 / rho - 1.0))
    if fallback is not None:
        checks = grid_spec["kernel_checks"]
        method = QEP_METHOD + "+kernel-bisection"
        rep = _bisect_radius(norm, *fallback, feasible, width, method, grid_spec)
        lo, hi = rep.lo, rep.hi
        grid_spec["fallback_steps"] = grid_spec["kernel_checks"] - checks
    return RadiusReport(lo, hi, method, grid_spec, time.perf_counter() - start)


def numerical_radius(a, n_theta: int = THETA_POINTS) -> float:
    """w(A) = max over directions theta of lambda_max(Re(e^{i theta} A))."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError("numerical radius input must be square")
    thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    phases = np.exp(1j * thetas)[:, None, None]
    re = (phases * m + (phases * m).conj().transpose(0, 2, 1)) / 2
    vals = np.linalg.eigvalsh(re)[:, -1]
    i = int(np.argmax(vals))

    def g(th):
        rot = np.exp(1j * th) * m
        return -float(np.linalg.eigvalsh((rot + rot.conj().T) / 2)[-1])

    span = 2 * np.pi / n_theta
    _, neg = _golden_min(g, float(thetas[i]) - span, float(thetas[i]) + span, iters=40)
    return max(float(vals[i]), -neg)


# ---------------------------------------------------------------------------
# sampling of commuting tuples


@functools.lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def sample_commuting_tuple(dim: int, n_vars: int, seed: int, norm_cap: float = NORM_CAP) -> OperatorTuple:
    """One deterministic commuting tuple of strict contractions.

    Even seeds draw from the simultaneously-diagonalizable (normal) family;
    odd seeds from polynomials in a single nilpotent Jordan-type matrix.
    Draws are memoised per argument list (the last SAMPLE_CACHE_SIZE), and
    every caller shares them, so their matrices are read-only; the
    commutator and norm checks run on each first draw.
    """
    if dim < 1:
        raise InputError("dim must be >= 1")
    if not 0 < norm_cap < 1:
        raise InputError("norm_cap must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    if seed % 2 == 0 or dim == 1:
        # family (a): C_k = U D_k U* with a common random unitary
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        mats = []
        for _ in range(n_vars):
            radii = rng.uniform(0, 1, dim) ** 0.5
            angles = rng.uniform(0, 2 * np.pi, dim)
            d = np.diag(radii * np.exp(1j * angles))
            mats.append(u @ d @ u.conj().T)
    else:
        # family (b): C_k = p_k(J) for one strictly upper-triangular J
        j = np.triu(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), k=1
        )
        powers = [np.eye(dim, dtype=complex)]
        for _ in range(dim - 1):
            powers.append(powers[-1] @ j)
        mats = []
        for _ in range(n_vars):
            coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            coeffs[0] *= 0.3  # keep the constant part from dominating
            mats.append(sum(c * p for c, p in zip(coeffs, powers)))
    norms = np.linalg.norm(np.stack(mats), 2, axis=(1, 2))
    t = OperatorTuple(tuple(m * (norm_cap / nrm) if nrm > norm_cap else m for m, nrm in zip(mats, norms)))
    residual = t.commutator_residual()
    if residual > COMMUTE_TOL:
        raise InternalError(f"sampled tuple has commutator residual {residual:.3e}")
    if t.max_norm() >= 1:
        raise InternalError("sampled tuple is not a strict contraction")
    for m in t.mats:
        m.setflags(write=False)
    return t


def sample_commuting_tuples(n_vars: int, budget: int, seed: int = 0, dims=SAMPLE_DIMS, norm_cap: float = NORM_CAP):
    """Deterministic batch of samples, alternating both families and dims."""
    out = []
    for i in range(budget):
        dim = dims[i % len(dims)]
        out.append(sample_commuting_tuple(dim, n_vars, seed * 10007 + i, norm_cap))
    return out


def _scalar_torus_points(n_vars: int, count: int, radius: float = SCALAR_POINT_RADIUS) -> np.ndarray:
    """Deterministic spread of torus-scaled scalar points in the polydisk,
    one point per row."""
    i = np.arange(count)[:, None]
    k = np.arange(1, n_vars + 1)[None, :]
    return radius * np.exp(1j * (2 * np.pi * ((i * k * 0.6180339887498949) % 1.0)))


def substitute(a: OperatorTuple, c: OperatorTuple) -> np.ndarray:
    """The substitution A(C) = sum_k A_k (x) C_k of a tuple C into the pencil."""
    if c.n_vars != a.n_vars:
        raise InputError(f"substituted tuple has {c.n_vars} variables, pencil has {a.n_vars}")
    return _substitute_stack(a, np.array([c.mats]))[0]


def _substitute_stack(a: OperatorTuple, c: np.ndarray) -> np.ndarray:
    """A(C) for a stack ``c`` of n tuples of m x m matrices, shape
    (n, N, m, m), as an (n, dm, dm) stack.  The terms A_k (x) C_k are
    broadcast products summed in k order, which is bitwise
    sum(np.kron(A_k, C_k)); einsum would change the last ulp."""
    n, _, m, _ = c.shape
    d = a.dim
    terms = (ak[None, :, None, :, None] * c[:, k, None, :, None, :] for k, ak in enumerate(a.mats))
    return sum(terms).reshape(n, d * m, d * m)


def _substitutions(a: OperatorTuple, samples) -> list:
    """A(C) for every sample C, in sample order: one _substitute_stack per
    sample size."""
    subs = [None] * len(samples)
    for m in {c.dim for c in samples}:
        idx = [i for i, c in enumerate(samples) if c.dim == m]
        for i, s in zip(idx, _substitute_stack(a, np.array([samples[i].mats for i in idx]))):
            subs[i] = s
    return subs


def _pencils(a: OperatorTuple, points: np.ndarray) -> np.ndarray:
    """zA for every row z of ``points``, stacked, summed in the order of
    eval_pencil (so that one variable gives exactly z A_1)."""
    return sum(points[:, k, None, None] * m for k, m in enumerate(a.mats))


# ---------------------------------------------------------------------------
# tuple membership and radii


def phi_sup(a: OperatorTuple, rho: float, points: np.ndarray):
    """sup of ||phi(zA)|| over the rows z of ``points`` (any N), with the
    first maximizing point; (inf, z) at the first point z that is a pole."""
    za = _pencils(a, points)
    res = (rho - 1) * za - rho * np.eye(a.dim)
    poles = np.flatnonzero(np.linalg.svd(res, compute_uv=False)[:, -1] <= 1e-12)
    if poles.size:
        return math.inf, points[poles[0]]
    vals = np.linalg.svd(za @ np.linalg.inv(res), compute_uv=False)[:, 0]
    j = int(np.argmax(vals))
    return float(vals[j]), points[j]


def _worst_slice(a: OperatorTuple, rho: float):
    """The slice A_1 + w A_2 of a pair whose w_rho is largest on the torus
    grid of the quadratic eigenproblem, and how it was found."""
    scale = sum(op_norm(m) for m in a.mats) or 1.0
    _, w, axes, rounds, solves = _qep_theta_max(a.scale(1 / scale), rho)
    spec = {"torus_points": axes, "torus_refine_rounds": rounds, "qep_solves": solves,
            "slice_w": [w.real, w.imag]}
    return a[0] + w * a[1], spec


def _check_tuple_knobs(rho: float, tol: float, budget: int) -> None:
    _check_positive(rho=rho, tol=tol)
    if budget < 1:
        raise InputError("budget must be at least 1")


def membership_tuple(a: OperatorTuple, rho: float, tol: float = DEFAULT_TOL,
                     budget: int = DEFAULT_BUDGET) -> MembershipVerdict:
    """Decide membership of an operator tuple at level rho.

    N = 1 delegates to the single-operator test.  N = 2 is decided by the
    single-operator test of its worst torus slice A_1 + w A_2, |w| = 1.
    This is exact for pairs: by the two-variable von Neumann inequality
    (Ando) membership is sup ||phi(zA)|| <= 1 on the closed bidisk, and by
    the maximum principle that holds iff every slice is a member.  If every
    slice is, the spectral radius of zA is at most 1 on the torus, hence on
    the bidisk (it is plurisubharmonic), while a pole of phi needs the
    eigenvalue rho/(rho-1) of zA, of modulus above 1 for rho > 1.  For
    rho < 1 member slices have ||zA|| <= rho, which excludes poles the same
    way; at rho = 1, phi = -zA has none.

    N >= 3 combines the polydisk sup (necessary) with the disk minima of
    budget substitutions A(C) of sampled commuting tuples (drawn once per
    process, see sample_commuting_tuple); a passing verdict is then
    NecessaryOnly.  All budget substitutions are formed (certificate
    ``substitutions``) and screened by _screen_witness in sample-order
    chunks, which stops at the Out witness: a substitution whose norm floor
    is at least the polydisk margin 1 - sup ||phi|| is settled without an
    eigensolve, the others get their _kernel_circle_floor, and a disk
    minimum (``disk_minima``) runs only where a floor is below -tol.  An In
    margin is the smaller of 1 - sup ||phi|| and the smallest disk minimum,
    found in increasing order of floor until the floor reaches it.  Verdict
    and margin are those of running every disk minimum.
    """
    _check_tuple_knobs(rho, tol, budget)
    if a.n_vars == 1:
        return membership_single(a.mats[0], rho, tol)
    if a.n_vars == 2:
        b, spec = _worst_slice(a, rho)
        v = membership_single(b, rho, tol)
        z, w = complex(*v.certificate["witness_z"]), complex(*spec["slice_w"])
        cert = {**v.certificate, **spec, "method": "torus-slice+" + v.certificate["method"],
                "witness_z": [[z.real, z.imag], [(z * w).real, (z * w).imag]]}
        return MembershipVerdict(v.decision, v.margin, cert, CERTIFIED)

    # N >= 3: polydisk sampling is necessary-only; Out is still certified
    points = _scalar_torus_points(a.n_vars, max(budget * 4, 128))
    sup, witness = phi_sup(a, rho, points)
    margin = 1 - sup
    cert = {
        "method": "phi-polydisk-sample+commuting-substitution",
        "polydisk_points": len(points),
        "budget": budget,
        "tol": tol,
        "screen_points": SCREEN_POINTS if rho <= 2 else 0,
        "substitutions": 0,
        "disk_minima": 0,
    }
    if margin < -tol:
        cert["witness_z"] = [[z.real, z.imag] for z in np.asarray(witness, dtype=complex)]
        return MembershipVerdict(OUT, margin, cert, CERTIFIED)
    samples = sample_commuting_tuples(a.n_vars, budget)
    subs = _substitutions(a, samples)
    cert["substitutions"] = len(subs)
    minima = {}

    def disk_min(i):
        cert["disk_minima"] += 1
        minima[i] = kernel_margin(subs[i], rho)
        return minima[i]

    # a floor at or above the polydisk margin can neither be the witness nor
    # lower the margin below it
    floors, i = _screen_witness(subs, rho, tol, margin, disk_min)
    if i is not None:
        cert["witness_sample_dim"] = samples[i].dim
        return MembershipVerdict(OUT, minima[i], cert, CERTIFIED)
    # the smallest disk minimum: samples in increasing order of floor, until
    # the floor reaches the smallest minimum found
    worst = min([margin, *minima.values()])
    for i in np.argsort(floors, kind="stable").tolist():
        if floors[i] >= worst:
            break
        if i not in minima:
            worst = min(worst, disk_min(i))
    return MembershipVerdict(IN, worst, cert, NECESSARY_ONLY)


def torus_pencil_sup(a: OperatorTuple, n_points: int = 64) -> float:
    """max ||zeta A|| over sampled torus points."""
    za = _pencils(a, _scalar_torus_points(a.n_vars, n_points, radius=1.0))
    return float(np.linalg.svd(za, compute_uv=False)[:, 0].max())


def w_rho_tuple(a: OperatorTuple, rho: float, width: float = DEFAULT_WIDTH,
                budget: int = 16, tol: float = DEFAULT_TOL) -> RadiusReport:
    """Tuple radius bracket.

    N = 2: w_rho of the worst torus slice A_1 + w A_2 (see membership_tuple).
    Its lo is proven, since a slice that is not a member makes the pair not
    a member; its hi rests on the torus grid.  N >= 3: a lower bound from
    w_rho of sampled substitutions (scalar polydisk points always included),
    then bisection over the necessary-only tuple test.  That test forms the
    substitutions of A/u with the cached samples and screens them with
    _screen_witness at level -tol: a substitution whose norm floor or
    _kernel_circle_floor is at least -tol passes without its disk minimum.
    """
    _check_tuple_knobs(rho, tol, budget)
    _check_positive(width=width)
    start = time.perf_counter()
    if a.n_vars == 1:
        return w_rho(a.mats[0], rho, width, tol)
    if a.n_vars == 2:
        b, spec = _worst_slice(a, rho)
        rep = w_rho(b, rho, width, tol)
        return RadiusReport(rep.lo, rep.hi, "torus-slice+" + rep.method, {**rep.grid_spec, **spec},
                            time.perf_counter() - start)

    norm_sum = sum(op_norm(m) for m in a.mats)
    grid_spec = {"budget": budget, "width": width, "tol": tol, "disk_minima": 0}
    if norm_sum == 0.0:
        return RadiusReport(0.0, 0.0, "tuple-bisection", grid_spec, time.perf_counter() - start)

    lower = 0.0
    for z in _scalar_torus_points(a.n_vars, max(8, budget)):
        rep = w_rho(eval_pencil(a, z), rho, width, tol)
        lower = max(lower, rep.lo)
    samples = sample_commuting_tuples(a.n_vars, budget, dims=(2, 3))
    for s in _substitutions(a, samples):
        rep = w_rho(s, rho, width, tol)
        lower = max(lower, rep.lo)

    points = _scalar_torus_points(a.n_vars, max(budget * 4, 128))

    def feasible(u):
        scaled = a.scale(1.0 / u)
        sup, _ = phi_sup(scaled, rho, points)
        if 1 - sup < -tol:
            return False
        subs = _substitutions(scaled, samples)

        def disk_min(i):
            grid_spec["disk_minima"] += 1
            return kernel_margin(subs[i], rho)

        return _screen_witness(subs, rho, tol, -tol, disk_min)[1] is None

    method = "tuple-bisection-necessary-only"
    lo = max(lower, torus_pencil_sup(a) / rho)
    hi = max(lo * (1 + 1e-12), norm_sum * max(1.0, 2.0 / rho - 1.0))
    rep = _bisect_radius(norm_sum, lo, hi, feasible, width, method, grid_spec)
    return RadiusReport(rep.lo, rep.hi, method, grid_spec, time.perf_counter() - start)
