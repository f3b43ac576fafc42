"""Class-membership tests and operator radii.

The single-operator test evaluates the positivity kernel
k(z, z) = rho*I - (rho-1)(zA + (zA)*) + (rho-2)(zA)*(zA) over the closed
unit disk; membership holds iff its smallest eigenvalue stays nonnegative.
The radius w_rho is the smallest u such that A/u passes, the maximum over
the circle of the largest root of a quadratic eigenproblem in the scaling.
Both extrema over the circle come from the level-set iteration of Byers
(SIAM J. Sci. Stat. Comput. 9, 1988) and Boyd & Balakrishnan (Syst.
Control Lett. 15, 1990): the angles where a level is attained are the
unimodular roots of a *-palindromic quadratic; a joint level set over a
stack of slices (_slices_max) gives w_rho.  A tuple whose norm sum keeps
every kernel above the scalar floor (_kernel_norm_floor) is a member at
once.  Otherwise it is tested on its torus slices
A_1 + w_2 A_2 + ... + w_N A_N, |w_k| = 1, through the batched member test
(_slice_failures).  A pair's membership and radius both come from one
recursion over cells of its phase circle, each proven by three pencils
(_pair_cells).  Larger tuples take the first grid's Out slices and the
phase search's worst slice (_qep_theta_max); their membership then
substitutes sampled commuting strict contractions C, a necessary test:
A(C) = sum_k A_k (x) C_k goes through the same member test (the radii take
rho and width; tol and budget are membership's).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError
from .linalg import _check_positive, _square, op_norm, spectral_radius
from .pencil import COMMUTE_TOL, OperatorTuple

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

#: Rounding guard of the member test _slice_failures (slices and commuting
#: substitutions), per unit of dimension, relative to the bound
#: rho + 2|rho-1| ||S|| + |rho-2| ||S||^2 on the kernel's norm.
SCREEN_ROUND_GUARD = 1e-13
#: Equally spaced angles sampled before a level-set iteration starts.
LEVELSET_START_POINTS = 16
#: Iterations (crossing solves) allowed per level-set run; reaching the cap
#: raises InternalError.
LEVELSET_MAX_ITERATIONS = 32
#: Crossings: roots tau with |Im tau| <= LEVELSET_REAL_TOL (1 + (Re tau)^2)
#: count as real, which errs towards "real": an extra crossing costs one
#: midpoint, a missed one would certify a wrong level.
LEVELSET_REAL_TOL = 1e-7
#: Gap between the best value attained and the next level of the kernel
#: margin, relative to the kernel's norm bound; it bounds how far the
#: reported margin can lie above the minimum.
KERNEL_GAP = 1e-12
#: Gap between the best root attained and a radius's lo, relative to
#: 1 + max(1, 2/rho - 1) for a matrix of norm 1 (at most width/4 in
#: absolute terms): the rounding guard that puts lo below the attained root.
RADIUS_GAP = 1e-9

#: Phases (w_2, ..., w_N) of the slices A_1 + w_2 A_2 + ... + w_N A_N of
#: the N >= 3 level-1 pass and worst-slice search (_qep_theta_max): a
#: tensor grid of about SLICE_POINTS phases (8 x 8 for a triple), then local
#: rounds of about SLICE_REFINE_POINTS.
SLICE_POINTS = 64
SLICE_REFINE_ROUNDS = 3
SLICE_REFINE_POINTS = 17
#: Angles at which each slice of the first pass is solved before the joint
#: level-set iteration (_slices_max), whose levels lie SLICE_GAP (1 + U)
#: above the best root U attained.  At rho = 2, where a root is one d x d
#: eigvalsh (_qep_top_roots), the slices are solved at
#: LEVELSET_START_POINTS angles instead.
SLICE_START_POINTS = 2
SLICE_GAP = 1e-11
#: Newton steps (_polish_root) that raise the best root of _slices_max
#: before each level, and a pair radius's best real slice root
#: (_pair_cells), whenever a root solve has just raised it.
SLICE_POLISH_STEPS = 3
#: The counters that _slices_max adds to the record its caller passes in.
SLICE_COUNTERS = ("slice_levels", "slice_crossing_solves", "slice_anchor_solves", "slice_root_solves",
                  "slice_polish_steps")
#: Roots with |Im mu| <= QEP_REAL_TOL (1 + |Re mu|) count as real.
QEP_REAL_TOL = 1e-7

LEVELSET_METHOD = "levelset"

#: Rows in the first anchor batch and the first crossing batch of the
#: N >= 3 level-1 pass (_first_out_slice); later batches double.
LEVEL1_FIRST_BATCH = 4

#: Cells over the phase circle from which _pair_cells starts, and the parts
#: it cuts a failing cell into.
CELL_START = 8
CELL_WAYS = 4
#: Failing cells that one round of the pair radius may cut, and vertices
#: that pair membership may test; past them no cell is cut, nor one
#: narrower than CELL_WAYS 2 pi/(CELL_START 2^CELL_DEPTH).
CELL_SPLITS = 16
CELL_BUDGET = 16 * SLICE_POINTS
CELL_DEPTH = 32
CELLS_METHOD = "torus-slice+cells"


@dataclass(frozen=True)
class MembershipVerdict:
    decision: str
    margin: float
    certificate: dict
    exactness: str = CERTIFIED

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


def _kernel_lambda_min(a: np.ndarray, rho: float, zs: np.ndarray, gram=None) -> np.ndarray:
    """lambda_min of k(z, z) for a batch of scalar disk points ``zs``, of
    one matrix ``a`` or of a stack of matrices paired with the points;
    ``gram`` replaces A*A (the tangent pencils of _pair_cells)."""
    return np.linalg.eigvalsh(_kernels(a, rho, zs, gram))[:, 0]


def _kernels(a: np.ndarray, rho: float, zs: np.ndarray, gram=None) -> np.ndarray:
    """The Hermitian kernels k(z, z) of _kernel_lambda_min, one per point."""
    ah = a.conj().swapaxes(-1, -2)
    aha = ah @ a if gram is None else gram
    eye = np.eye(a.shape[-1])
    z = zs[:, None, None]
    k = (
        rho * eye
        - (rho - 1) * (z * a + z.conj() * ah)
        + (rho - 2) * (np.abs(z) ** 2) * aha
    )
    return (k + k.conj().transpose(0, 2, 1)) / 2


def _circle_crossings(e: np.ndarray, m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Sorted angles theta in [0, 2 pi) where the Hermitian matrix
    k(theta) = e^{i theta} E + M + e^{-i theta} E* is singular, for an angle
    psi at which k(psi) is positive definite.

    They are the unimodular roots zeta = e^{i theta} of the *-palindromic
    quadratic zeta^2 E + zeta M + E* (Mackey, Mackey, Mehl & Mehrmann, SIAM
    J. Matrix Anal. Appl. 28, 2006).  The Cayley variable
    zeta = -e^{i psi} (1 + i tau)/(1 - i tau) maps the real tau onto the
    circle less e^{i psi}, and (1 + tau^2) k turns into the Hermitian
    quadratic tau^2 k(psi) + tau P_1 + k(psi + pi) with
    P_1 = 2i (e^{-i psi} E* - e^{i psi} E).  With k(psi) = L L* the roots
    tau are the eigenvalues of the 2d x 2d companion of the monic quadratic
    tau^2 I + tau L^{-1} P_1 L^{-*} + L^{-1} k(psi + pi) L^{-*}.

    Given stacks of n matrices E and M and n angles psi, it returns an
    (n, 2d) array: row j holds the crossings of pencil j, sorted, then nan.
    """
    d = m.shape[-1]
    f = np.exp(1j * psi)[:, None, None] * e
    fh = f.conj().swapaxes(-1, -2)
    try:
        li = np.linalg.inv(np.linalg.cholesky(m + f + fh))
    except np.linalg.LinAlgError as exc:
        raise InternalError(f"level-set pencil not positive definite at its anchor angle {psi}") from exc
    lih = li.conj().swapaxes(-1, -2)
    comp = np.zeros((len(m), 2 * d, 2 * d), dtype=complex)
    comp[:, :d, d:] = np.eye(d)
    comp[:, d:, :d] = -li @ (m - f - fh) @ lih
    comp[:, d:, d:] = -li @ (2j * (fh - f)) @ lih
    tau = np.linalg.eigvals(comp)
    real = np.abs(tau.imag) <= LEVELSET_REAL_TOL * (1 + tau.real ** 2)
    return np.sort(np.where(real, (psi[:, None] + np.pi + 2 * np.arctan(tau.real)) % (2 * np.pi), np.nan))


def _levelset_min(h, pencil, gap: float, rel: float = 0.0) -> dict:
    """Minimum over the circle of a continuous function h(theta), by the
    level-set iteration.

    ``h`` evaluates the function on an array of angles.  ``pencil(level)``
    returns (E, M) such that k(theta) of _circle_crossings is singular where
    h(theta) = level and positive definite where h(theta) > level (other
    branches may be singular too).  It starts from the best value at
    LEVELSET_START_POINTS equal-spaced angles.  At level
    = best - gap - rel |best| it finds the crossings, evaluates h at the
    midpoints between consecutive crossings and takes the smallest.  It stops at a level with no
    crossing, or at one where no midpoint falls below the level.  Then
    h >= level everywhere: a set where h < level is open, bounded by
    crossings, so it would hold the midpoint of a gap between two of them.

    Returns {"value", "theta", "level", "iterations"}: the best value, the
    angle that attains it, the certified stop level, and the crossing
    solves.
    """
    thetas = np.linspace(0, 2 * np.pi, LEVELSET_START_POINTS, endpoint=False)
    vals = h(thetas)
    i = int(np.argmin(vals))
    best, theta = float(vals[i]), float(thetas[i])
    psi = float(thetas[int(np.argmax(vals))])
    for it in range(1, LEVELSET_MAX_ITERATIONS + 1):
        level = best - gap - rel * abs(best)
        cross = _circle_crossings(*(x[None] for x in pencil(level)), np.array([psi]))[0]
        cross = cross[~np.isnan(cross)]
        if not cross.size:
            return {"value": best, "theta": theta, "level": level, "iterations": it}
        mids = (cross + np.append(cross[1:], cross[0] + 2 * np.pi)) / 2
        vals = h(mids)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, theta = float(vals[j]), float(mids[j] % (2 * np.pi))
        if vals[j] >= level:
            return {"value": best, "theta": theta, "level": level, "iterations": it}
    raise InternalError(f"level-set iteration did not stop in {LEVELSET_MAX_ITERATIONS} crossing solves")


def _kernel_scale(norm, rho: float):
    """Bound rho + 2|rho-1| s + |rho-2| s^2 on the kernel's norm on the
    closed disk, for any s >= ||A|| (the Frobenius norm will do); s may be
    an array."""
    return rho + 2 * abs(rho - 1) * norm + abs(rho - 2) * norm ** 2


def _kernel_norm_floor(t, rho: float):
    """rho - 2|rho-1| t + (rho-2) t^2, the disk minimum of the kernel of the
    scalar t >= 0 (t may be an array), with t capped at beta = (rho-1)/(rho-2)
    for rho > 2.  It is at most lambda_min k on the closed disk for every U
    with ||U|| <= t.  For rho <= 2, ||zU + (zU)*|| <= 2t and
    (rho-2)|z|^2 U*U >= (rho-2) t^2 on the disk.  For rho > 2,
    k = (rho-2)(zU - beta I)*(zU - beta I) - I/(rho-2) and
    sigma_min(zU - beta I) >= beta - t, so the completed square
    (rho-2)(beta - t)^2 - 1/(rho-2) bounds k for t <= beta; at t = beta it
    is -1/(rho-2), the least value k takes."""
    if rho > 2:
        t = np.minimum(t, (rho - 1) / (rho - 2))
    return rho - 2 * abs(rho - 1) * t + (rho - 2) * t ** 2


def _check_finite_kernel(t: float, rho: float, what: str) -> None:
    """InputError unless max(rho, 2) (1 + t)^2 is a finite float: it bounds
    the kernel of a matrix of norm at most t (_kernel_scale) and the gram
    t^2 that the kernel is built from.  ``what`` names the matrices."""
    if not math.isfinite(max(rho, 2.0) * (1 + t) * (1 + t)):
        raise InputError(f"the kernel of {what}, of norm up to {t:.3g}, overflows at rho = {rho:g}")


def _kernel_disk_min(a: np.ndarray, rho: float):
    """Minimum of lambda_min(k(z, z)) over the closed disk, with witness and
    counters; ``certified_level`` is below lambda_min k on the whole disk.

    On the circle, lambda_min k(theta) = c where c is an eigenvalue of
    k(theta), the *-palindromic quadratic
    -(rho-1) A zeta^2 + ((rho-c) I + (rho-2) A*A) zeta - (rho-1) A*, so
    the boundary minimum is the level-set minimum (_levelset_min) with gap
    KERNEL_GAP times the kernel's norm bound; its stop level is the
    certified level.  At rho = 1 the kernel on the circle is I - A*A at
    every angle, so the minimum is the closed form 1 - ||A||^2, read at
    z = 1.  For rho <= 2 the per-direction profile in r is concave with
    positive value at r = 0, so the disk minimum sits on the circle.

    For rho > 2, k(z) = (rho-2)(zA - beta I)*(zA - beta I) - I/(rho-2) with
    beta = (rho-1)/(rho-2), so lambda_min k >= -1/(rho-2).  An eigenvalue
    |lam| >= beta of A attains it at z = beta/lam: the exact margin.
    Otherwise (zA - beta I)^{-1} is holomorphic on the closed disk with
    subharmonic norm, so sigma_min(zA - beta I), and lambda_min k with it,
    is smallest on the circle.  ``spectral_radius`` is r(A) as computed.
    """
    stats = {"theta_points": 1, "crossing_solves": 0}
    if rho > 2:
        top = _top_eigenvalues(a[None])[0]
        stats["spectral_radius"] = float(abs(top))
        beta = (rho - 1) / (rho - 2)
        if abs(top) >= beta:
            stats.update(theta_points=0, certified_level=-1 / (rho - 2))
            return -1 / (rho - 2), complex(beta / top), stats
    with np.errstate(over="ignore"):  # a norm that overflows is named by the check
        norm = float(np.linalg.norm(a))
    _check_finite_kernel(norm, rho, "a matrix")
    scale = _kernel_scale(norm, rho)
    if rho == 1:
        best_val = float(_kernel_lambda_min(a, rho, np.ones(1))[0])
        stats["certified_level"] = best_val - KERNEL_GAP * scale
        return best_val, 1 + 0j, stats
    e = -(rho - 1) * a
    base = (rho - 2) * (a.conj().T @ a)
    eye = np.eye(len(a))
    run = _levelset_min(lambda th: _kernel_lambda_min(a, rho, np.exp(1j * th)),
                        lambda c: (e, (rho - c) * eye + base), KERNEL_GAP * scale)
    stats.update(theta_points=LEVELSET_START_POINTS, crossing_solves=run["iterations"], certified_level=run["level"])
    return run["value"], complex(np.exp(1j * run["theta"])), stats


def _psi_boundary_min(a: np.ndarray, rho: float) -> float:
    """A level that lambda_min(Re psi(z)) stays at or above on the ring
    |z| = 1 - 1e-6; -inf when r(A) > 1: then psi has a pole in the disk, at
    z = 1/lam for an eigenvalue lam of A, which the ring never meets.

    Otherwise B = (1 - 1e-6) A has r(B) < 1, and on the circle
    (I - zB)* (Re psi(zB) - c I)(I - zB) = k/rho - c (I - zB)*(I - zB),
    k the kernel of B: the pencil E = -((rho-1)/rho - c) B,
    M = (1-c) I + ((rho-2)/rho - c) B*B of a level set (_levelset_min),
    whose stop level is returned.  Re psi reaches about 1e12 near a pole,
    so the gap is KERNEL_GAP (1 + |c|)(1 + ||B||_F)^2 at the level c, the
    pencil's size, not a fixed one below the level's ulp.  For a unimodular
    eigenvalue in a Jordan block of size d >= 3, I - zB has a condition
    number of about 1e6^d on the circle: the level is only very negative
    (such an A is not power bounded)."""
    if spectral_radius(a) > 1:
        return -math.inf
    b = (1 - 1e-6) * a
    eye, gram = np.eye(len(b)), b.conj().T @ b

    def h(thetas):
        psi = (1 - 2 / rho) * eye + (2 / rho) * np.linalg.inv(eye - np.exp(1j * thetas)[:, None, None] * b)
        return np.linalg.eigvalsh((psi + psi.conj().swapaxes(1, 2)) / 2)[:, 0]

    def pencil(c):
        return -((rho - 1) / rho - c) * b, (1 - c) * eye + ((rho - 2) / rho - c) * gram

    gap = KERNEL_GAP * (1 + float(np.linalg.norm(b))) ** 2
    return _levelset_min(h, pencil, gap, gap)["level"]


def _phi_circle_sup(b: np.ndarray, rho: float) -> float:
    """sup over the closed disk of ||phi(zB)||, phi(zB) = zB ((rho-1) zB -
    rho I)^{-1}, as a level that ||phi|| stays at or below; +inf when phi
    has a pole there, an eigenvalue lam of B with |rho-1| |lam| >= rho.

    Without a pole phi is holomorphic on the closed disk, and by the maximum
    principle the sup lies on the circle.  There ||phi(zB)|| <= gamma iff
    gamma^2 R*R - (zB)*(zB) >= 0, R = (rho-1) zB - rho I: the Hermitian
    trigonometric polynomial e^{i t} E + M + e^{-i t} E* of _circle_crossings
    with E = -gamma^2 rho (rho-1) B and
    M = gamma^2 (rho^2 I + (rho-1)^2 B*B) - B*B (Boyd & Balakrishnan's
    H-infinity level set).  So the sup is _levelset_min of -||phi||, and its
    stop level, KERNEL_GAP (1 + ||B||_F) above the best value, is returned.
    """
    if abs(rho - 1) * spectral_radius(b) >= rho:
        return math.inf
    eye, gram = np.eye(len(b)), b.conj().T @ b

    def h(thetas):
        zb = np.exp(1j * thetas)[:, None, None] * b
        return -np.linalg.svd(zb @ np.linalg.inv((rho - 1) * zb - rho * eye), compute_uv=False)[:, 0]

    def pencil(level):
        return -level ** 2 * rho * (rho - 1) * b, level ** 2 * (rho ** 2 * eye + (rho - 1) ** 2 * gram) - gram

    return -_levelset_min(h, pencil, KERNEL_GAP * (1 + float(np.linalg.norm(b))))["level"]


def kernel_margin(a, rho: float) -> float:
    """Signed disk minimum of the membership kernel (fast path, no report)."""
    m = _square(a, "membership")
    _check_positive(rho=rho)
    return _kernel_disk_min(m, rho)[0]


# ---------------------------------------------------------------------------
# single-operator membership and radii


def membership_single(a, rho: float, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Decide membership of a single operator at level rho.

    The decision is the kernel disk minimum (_kernel_disk_min) against -tol;
    the certificate records the witness point, the counters and the
    certified level of _kernel_disk_min (the rho > 2 margin is exact).
    """
    m = _square(a, "membership")
    _check_positive(rho=rho, tol=tol)
    margin, witness, stats = _kernel_disk_min(m, rho)
    decision = IN if margin >= -tol else OUT
    certificate = {
        "method": "kernel-levelset",
        **stats,
        "witness_z": [witness.real, witness.imag],
        "kernel_margin": margin,
        "tol": tol,
    }
    return MembershipVerdict(decision, margin, certificate)


def membership_single_all_conditions(a, rho: float, tol: float = DEFAULT_TOL) -> dict:
    """Verdicts from the kernel, Herglotz, and Schur conditions separately.

    Returns {"kernel": ..., "psi": ..., "phi": ...} decisions plus margins:
    the kernel disk minimum, a level that lambda_min Re psi stays above on
    the ring |z| = 1 - 1e-6 (_psi_boundary_min) and 1 - sup ||phi||
    (_phi_circle_sup), the last two from level sets.  Boundary-band cases
    (|margin| at most max(tol, 1e-6)) are reported as Borderline so callers
    can treat them as wildcards.
    """
    m = _square(a, "membership")
    _check_positive(rho=rho, tol=tol)
    band = max(tol, 1e-6)
    kmargin = _kernel_disk_min(m, rho)[0]
    pmargin = _psi_boundary_min(m, rho)
    fmargin = 1 - _phi_circle_sup(m, rho)

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


def _qep_top_roots(za: np.ndarray, rho: float, gram=None) -> np.ndarray:
    """Largest real root mu*(zeta) of the quadratic pencil
    rho mu^2 I - (rho-1) mu (zeta A + (zeta A)*) + (rho-2) G
    for each pencil value zeta A in the stack ``za`` (-inf where no root is
    real), from batched eigenvalues of the 2d x 2d companion matrix
    [[0, I], [-(rho-2)/rho G, (rho-1)/rho H]], G = ``gram``, else
    (zeta A)*(zeta A).  At rho = 2 that companion is block triangular, its
    eigenvalues 0 and those of H/2 = Re(zeta A), so the root is
    max(0, lambda_max(Re zeta A)), from one batched eigvalsh."""
    d = za.shape[1]
    zah = za.conj().transpose(0, 2, 1)
    if rho == 2:
        return np.maximum(np.linalg.eigvalsh((za + zah) / 2)[:, -1], 0.0)
    comp = np.zeros((len(za), 2 * d, 2 * d), dtype=complex)
    comp[:, :d, d:] = np.eye(d)
    comp[:, d:, :d] = -(rho - 2) / rho * (zah @ za if gram is None else gram)
    comp[:, d:, d:] = (rho - 1) / rho * (za + zah)
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= QEP_REAL_TOL * (1 + np.abs(roots.real))
    return np.where(real, roots.real, -np.inf).max(axis=1)


def _root_derivatives(mats: tuple, rho: float, x: tuple, mu: float):
    """Gradient and Hessian in the coordinates ``x`` of the largest root
    mu*(x) of P_x(mu) = rho mu^2 I - (rho-1) mu H + (rho-2) S*S,
    H = Z + Z*, Z = e^{i theta} S, at a root mu = mu*(x) > 0: x = (theta,)
    for the slice S = ``mats[0]``, or x = (theta, phi) for the pair slice
    S_phi = A_1 + e^{i phi} A_2 of ``mats`` = (A_1, A_2).  None where
    lambda_min P is not simple or f_mu <= 0.

    With f(x, mu) = lambda_min P_x(mu) and x_j the eigenvectors of
    P_x(mu*) (x_0 that of f = 0), mu*_a = -f_a/f_mu and
    mu*_ab = -(f_ab + f_amu mu*_b + f_bmu mu*_a + f_mumu mu*_a mu*_b)/f_mu,
    the second derivatives by the eigenvalue perturbation sums
    f_ab = x_0* P_ab x_0 - 2 Re sum_j (x_0* P_a x_j)(x_j* P_b x_0)/(lambda_j - f)
    (Mengi & Overton, IMA J. Numer. Anal. 25, 2005; at rho = 2 these are
    the derivatives of lambda_max(Re e^{i theta} S)).  With G = S*S,
    P_mu = 2 rho mu I - (rho-1) H and P_a = -(rho-1) mu H_a + (rho-2) G_a;
    with V = e^{i(theta + phi)} A_2 and Y = e^{i phi} A_1* A_2,
    H_theta = i(Z - Z*), H_phi = i(V - V*), G_phi = i(Y - Y*), G_theta = 0,
    H_thth = -(Z + Z*), H_thphi = H_phiphi = -(V + V*) and
    G_phiphi = -(Y + Y*).  An eigh of P less rho mu^2 I gives the x_j."""
    e = [complex(math.cos(t), math.sin(t)) for t in x]
    s = mats[0] if len(e) == 1 else mats[0] + e[1] * mats[1]
    z = e[0] * s
    lam, v = np.linalg.eigh((rho - 2) * (s.conj().T @ s) - ((rho - 1) * mu) * (z + z.conj().T))
    if len(s) > 1 and not lam[1] > lam[0]:
        return None
    w = lam[1:] - lam[0]
    vh = v.conj().T

    def parts(m):  # x_0* M x_0, and x_0* (M + M*) x_j, x_0* i(M - M*) x_j for j >= 1
        m = vh @ m @ v
        u, l = m[0, 1:], m[1:, 0].conj()
        return complex(m[0, 0]), u + l, 1j * (u - l)

    # f_c, the rows x_0* P_c x_j (j >= 1) and x_0* P_cc' x_0 for c, c' = mu, theta (, phi)
    c, h, h_th = parts(z)
    df = [2 * rho * mu - 2 * (rho - 1) * c.real, 2 * (rho - 1) * mu * c.imag]
    rows = [(1 - rho) * h, (1 - rho) * mu * h_th]
    f = [[2 * rho, 2 * (rho - 1) * c.imag], [2 * (rho - 1) * c.imag, 2 * (rho - 1) * mu * c.real]]
    if len(e) == 2:
        cv, _, h_ph = parts(e[0] * e[1] * mats[1])
        cy, _, g_ph = parts(e[1] * (mats[0].conj().T @ mats[1]))
        df.append(2 * (rho - 1) * mu * cv.imag - 2 * (rho - 2) * cy.imag)
        rows.append((1 - rho) * mu * h_ph + (rho - 2) * g_ph)
        f[0].append(2 * (rho - 1) * cv.imag)
        f[1].append(2 * (rho - 1) * mu * cv.real)
        f.append([f[0][2], f[1][2], f[1][2] - 2 * (rho - 2) * cy.real])
    fm = df[0]
    if not fm > 0:
        return None
    rows = np.array(rows)
    f = (np.array(f) - 2 * ((rows / w) @ rows.conj().T).real).tolist()
    grad = [-fa / fm for fa in df[1:]]
    hess = [[-(f[a + 1][b + 1] + f[0][a + 1] * grad[b] + f[0][b + 1] * grad[a] + f[0][0] * grad[a] * grad[b]) / fm
             for b in range(len(grad))] for a in range(len(grad))]
    return grad, hess


def _polish_root(mats: tuple, rho: float, x, mu: float, gap: float = 0.0):
    """Newton steps on the coordinates ``x`` (_root_derivatives, one or
    two) towards a local maximum of mu*(x), from a root mu = mu*(x);
    returns the (x, mu) reached, mu an attained root at least the one
    given, and the steps tried, each one root solve.  A step
    -hess^{-1} grad is taken only where the Hessian of mu* is negative
    definite and its predicted gain grad.step/2 is above a quarter of the
    level gap max(gap, SLICE_GAP (1 + mu)) (below it the next level clears
    the hill's top anyway), and counts only if _qep_top_roots at the new
    point returns a larger root; at most SLICE_POLISH_STEPS are tried.
    ``x`` is a tuple of floats, and so is the x returned."""
    steps = 0
    while steps < SLICE_POLISH_STEPS and mu > 0:
        der = _root_derivatives(mats, rho, x, mu)
        if der is None:
            break
        grad, hess = der
        # [[a, b], [b, c]]; one coordinate's [a] as [[a, 0], [0, -1]], whose step starts -grad/a
        (a, b), c = (hess[0], hess[1][1]) if len(x) == 2 else ((hess[0][0], 0.0), -1.0)
        det = a * c - b * b
        if not (a < 0 and det > 0):  # negative definite
            break
        step = [(b * grad[-1] - c * grad[0]) / det, (b * grad[0] - a * grad[-1]) / det][:len(x)]
        if sum(gi * si for gi, si in zip(grad, step)) / 2 <= max(gap, SLICE_GAP * (1 + mu)) / 4:
            break
        steps += 1
        y = tuple(xi + si for xi, si in zip(x, step))
        s = mats[0] if len(y) == 1 else mats[0] + complex(math.cos(y[1]), math.sin(y[1])) * mats[1]
        root = float(_qep_top_roots(complex(math.cos(y[0]), math.sin(y[0])) * s[None], rho)[0])
        if not root > mu:
            break
        x, mu = y, root
    return x, mu, steps


def _slices_max(s: np.ndarray, rho: float, record: dict, best=None, norms=None) -> dict:
    """Largest w_rho over a stack ``s`` of slices S with ||S|| <= 1, each
    maximised exactly over the circle by one joint level-set iteration.

    w_rho(S) is the maximum over theta of mu*(theta), the largest real root
    of P_theta(mu) = rho mu^2 I - (rho-1) mu H_theta + (rho-2) S*S (w_rho);
    P_theta(L) = L^2 k(e^{i theta}), k the kernel of S/L.  At rho = 1 it is
    ||S||, which is each slice's level.  ``best`` = (U, anchor) is a lower
    bound on the largest w_rho (an attained root, say) and every slice's
    anchor angle; without it the slices are solved at SLICE_START_POINTS
    equally spaced angles (LEVELSET_START_POINTS at rho = 2, where a root
    is one Hermitian eigvalsh) and, at rho > 2, at the angle -arg lam of
    the top eigenvalue, near which mu* peaks as rho grows; U is the best
    root (at least 0) and anchors the least roots.  ``norms`` are the
    slices' spectral norms when known (1 for a stack that holds m/||m||),
    else they are computed.

    Before each level, if a root solve has just raised U, Newton steps on
    the angle (_polish_root) raise it to the attained root at a local
    maximum of its slice's mu* (Mitchell, SIAM J. Sci. Comput. 45, 2023,
    climbs between levels in the same way): the level above it is then
    most often the last; the levels alone certify.

    At the level L = U + SLICE_GAP (1 + U) the live slices that pass
    _slice_failures are eliminated: S/L is a member, so w_rho(S) <= L.  A
    slice that fails has an angle where P_theta(L) is not definite, so
    mu*(theta) >= L (P_theta(mu) is definite for mu > mu*(theta)), or, if
    r(S) >= beta L, the angle -arg lam of its top eigenvalue, where
    mu* >= r(S) (w_rho).  One batched _qep_top_roots solve there raises U,
    and the failing slices go on at the level above max(U, L), which rises
    even where rounding keeps a root below L.  Returns the best root
    "value", the "slice" that attained it (None if it is the given best)
    and its "anchor", and each slice's elimination level ("levels"); the
    counters SLICE_COUNTERS are added to ``record``.
    """
    n, d = s.shape[:2]
    for key in SLICE_COUNTERS:
        record.setdefault(key, 0)
    anchors = np.full(n, 0.0 if best is None else best[1])
    value, owner = (0.0 if best is None else best[0]), None
    if norms is None:
        norms = np.linalg.norm(s, 2, axis=(1, 2))
    if rho == 1:
        levels = norms
        if best is None or levels.max() > value:
            value, owner = float(levels.max()), int(np.argmax(levels))
        return {"value": value, "slice": owner, "anchor": anchors[0], "levels": levels}
    _check_finite_kernel(2 / SLICE_GAP, rho, "a slice over a level of the radius search")
    peak, top = 0.0, (_top_eigenvalues(s) if rho > 2 else None)
    if best is None:
        thetas = np.linspace(0, 2 * np.pi, LEVELSET_START_POINTS if rho == 2 else SLICE_START_POINTS, endpoint=False)
        thetas = np.broadcast_to(thetas[:, None], (thetas.size, n))
        if top is not None:
            thetas = np.vstack([thetas, -np.angle(top)])
        roots = _qep_top_roots((np.exp(1j * thetas)[:, :, None, None] * s).reshape(-1, d, d), rho)
        roots = roots.reshape(thetas.shape)
        record["slice_root_solves"] += roots.size
        owner = int(np.argmax(roots.max(axis=0)))
        value, anchors = max(float(roots.max()), 0.0), thetas[np.argmin(roots, axis=0), np.arange(n)]
        peak = float(thetas[np.argmax(roots[:, owner]), owner])
    levels = np.full(n, np.nan)
    live, level, fresh, it = np.arange(n), -math.inf, owner is not None, 0
    while live.size:
        if it == LEVELSET_MAX_ITERATIONS:
            raise InternalError(f"slice level-set iteration did not stop in {LEVELSET_MAX_ITERATIONS} levels")
        it += 1
        record["slice_levels"] += 1
        if fresh:
            (peak,), value, steps = _polish_root((s[owner],), rho, (peak,), value)
            record["slice_polish_steps"] += steps
            record["slice_root_solves"] += steps
        level = max(value, level)
        level += SLICE_GAP * (1 + level)
        failures = list(_slice_failures(s[live], rho, level, anchors[live], norms[live],
                                        None if top is None else top[live], record, "slice"))
        rows, angles = (np.concatenate(parts) for parts in list(zip(*failures))[:2])
        failed = np.zeros(live.size, dtype=bool)
        failed[rows] = True
        levels[live[~failed]] = level
        if rows.size:
            roots = _qep_top_roots(np.exp(1j * angles)[:, None, None] * s[live[rows]], rho)
            record["slice_root_solves"] += roots.size
            j = int(np.argmax(roots))
            fresh = roots[j] > value
            if fresh:
                value, owner, peak = float(roots[j]), int(live[rows[j]]), float(angles[j])
        live = live[failed]
    return {"value": value, "slice": owner, "anchor": anchors[0 if owner is None else owner], "levels": levels}


def _top_eigenvalues(s: np.ndarray) -> np.ndarray:
    """An eigenvalue of largest modulus of each matrix of the stack ``s``."""
    lam = np.linalg.eigvals(s)
    return lam[np.arange(len(s)), np.argmax(np.abs(lam), axis=1)]


def _slice_failures(s: np.ndarray, rho: float, level: float, anchors, norms, top, record: dict, stage: str,
                    floor: float = 0.0, batch=None, gram=None):
    """The matrices S of the stack ``s`` for which lambda_min k, k the
    kernel of S/L, L = ``level``, is not shown to stay above ``floor`` on
    the closed disk, in (rows, angles, values) batches, each angle one
    where the row fails and each value lambda_min k computed there (nan
    for a rho > 2 row with r(S) >= beta L, whose angle is not where a
    kernel was evaluated).  At floor 0 a row not returned has S/L a member.

    ``norms`` bound ||S|| (the Frobenius norms will do), and every test
    allows the rounding guard SCREEN_ROUND_GUARD d times the kernel's norm
    bound _kernel_scale(t, rho), t = ||S||/L.  The norm test comes first:
    a row whose _kernel_norm_floor(t, rho) is above floor + guard passes
    without an eigensolve.  ``gram``, when given, replaces S*S in each
    kernel (the tangent pencils of _pair_cells, with a nan ``top`` and
    ||G|| <= norm^2); the norm test is then skipped, and a row not returned
    has its kernel above the floor on the circle.  The anchor batches hold
    the other rows where lambda_min k is at most floor + guard at the
    anchor angle (counted per row in record[stage + "_anchor_solves"]),
    and, at rho > 2, those with r(S) >= beta L, beta = (rho-1)/(rho-2), at
    the angle -arg lam of the eigenvalue ``top``.  The others come from
    _circle_crossings of k - floor I (which err towards real, counted per
    row in record[stage + "_crossing_solves"], both from the first draw):
    a row for each midpoint between consecutive crossings where
    lambda_min k is at most floor + guard.
    Both passes run in row order, in one batch each, or in batches of
    ``batch``, 2 batch, ... rows (_row_batches), one per draw, every anchor
    batch before any crossing batch, so a caller that stops at an Out row
    solves no later batch; a row's result does not depend on its batch.
    U*U, U = S/L, is formed once for the anchor kernels, the crossing
    pencils and the midpoint kernels.  At rho = 1 the kernel on the circle
    is I - U*U at every angle, so the anchor decides.  A row in no batch has lambda_min k above
    the floor on the circle, where its disk minimum lies (_kernel_disk_min):
    at zeta = |lam|/lam, x* k x = (rho-2)(|lam| - beta)^2 - 1/(rho-2) for an
    eigenvector x of an eigenvalue lam of U, so a kernel above a floor
    above -1/(rho-2) on the circle leaves U no eigenvalue of modulus beta.
    """
    d = s.shape[-1]
    anchor_key, crossing_key = stage + "_anchor_solves", stage + "_crossing_solves"
    record.setdefault(anchor_key, 0)
    record.setdefault(crossing_key, 0)
    t = norms / level
    cut = floor + SCREEN_ROUND_GUARD * d * _kernel_scale(t, rho)
    idx = np.arange(len(s)) if gram is not None else np.flatnonzero(_kernel_norm_floor(t, rho) <= cut)
    u, angles = s[idx] / level, anchors[idx]
    g = u.conj().swapaxes(1, 2) @ u if gram is None else gram[idx] / level ** 2
    bad, k = np.zeros(idx.size, dtype=bool), _kernels(u, rho, np.exp(1j * angles), g)
    for lo, hi in list(_row_batches(idx.size, batch)) or [(0, 0)]:  # one draw even with no row left
        rows, at = idx[lo:hi], angles[lo:hi]
        vals = np.linalg.eigvalsh(k[lo:hi])[:, 0]
        record[anchor_key] += rows.size
        fail = vals <= cut[rows]
        if rho > 2:
            wide = (rho - 2) * np.abs(top[rows]) >= (rho - 1) * level
            at, fail, vals = np.where(wide, -np.angle(top[rows]), at), fail | wide, np.where(wide, np.nan, vals)
        bad[lo:hi] = fail
        yield rows[fail], at[fail], vals[fail]
    if rho == 1 or bad.all():
        return
    keep = np.flatnonzero(~bad)
    for lo, hi in _row_batches(keep.size, batch):
        rows = keep[lo:hi]
        ub, ib = u[rows], idx[rows]
        cross = _circle_crossings(-(rho - 1) * ub, (rho - floor) * np.eye(d) + (rho - 2) * g[rows], angles[rows])
        record[crossing_key] += ib.size
        count, col = np.count_nonzero(~np.isnan(cross), axis=1)[:, None], np.arange(2 * d)
        nxt = np.where(col + 1 < count, np.hstack([cross[:, 1:], cross[:, :1]]), cross[:, :1] + 2 * np.pi)
        at, col = np.nonzero(col < count)
        mids = (cross[at, col] + nxt[at, col]) / 2 % (2 * np.pi)
        vals = _kernel_lambda_min(u[rows[at]], rho, np.exp(1j * mids), g[rows[at]])
        fail = vals <= cut[ib[at]]
        yield ib[at[fail]], mids[fail], vals[fail]


def _row_batches(n: int, first=None):
    """Consecutive (start, stop) ranges that cover rows 0..n-1 once, in
    order: one range, or ranges of first, 2 first, 4 first, ... rows."""
    start, size = 0, first or n
    while start < n:
        yield start, min(start + size, n)
        start, size = start + size, 2 * size


def _level1_failures(s: np.ndarray, rho: float, record: dict, stage: str, floor=0.0, batch=None):
    """_slice_failures of the stack ``s`` at level 1 from the anchor angle 0,
    with the Frobenius norms, which bound the spectral ones."""
    top = _top_eigenvalues(s) if rho > 2 else None
    return _slice_failures(s, rho, 1.0, np.zeros(len(s)), np.linalg.norm(s, axis=(1, 2)), top, record, stage,
                           floor, batch)


def _phase_tensor(axis: np.ndarray, k: int) -> np.ndarray:
    """Every k-tuple of entries of ``axis``, one per row, the last varying
    fastest."""
    return np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)


@functools.lru_cache(maxsize=None)
def _phase_grid(k: int) -> tuple:
    """The first phase grid of _qep_theta_max for k = N - 1 phases: the
    (n^k, k) array of angles, their spacing 2 pi/n, and the refinement's
    points per phase p.  Memoised per k and shared by every caller, so the
    array is read-only."""
    n = round(SLICE_POINTS ** (1 / k))
    p = 2 * round((SLICE_REFINE_POINTS - 1) ** (1 / k) / 2) + 1
    phases = _phase_tensor(np.linspace(0, 2 * np.pi, n, endpoint=False), k)
    phases.setflags(write=False)
    return phases, 2 * np.pi / n, p


def _slice_stack(a: OperatorTuple, w: np.ndarray) -> np.ndarray:
    """The slices A_1 + w_2 A_2 + ... + w_N A_N for each row of the (n, N-1)
    array ``w`` of unimodular phases, summed in variable order."""
    s = a[0] + w[:, 0, None, None] * a[1]
    for j in range(2, a.n_vars):
        s = s + w[:, j - 1, None, None] * a[j]
    return s


def _qep_theta_max(a: OperatorTuple, rho: float):
    """Maximum over the torus of mu*(zeta) for a tuple (N >= 2) with
    ||zeta A|| <= 1: the largest w_rho of its slices
    A_1 + w_2 A_2 + ... + w_N A_N, as zeta A = zeta_1 S(w) with
    w_k = zeta_k/zeta_1.

    The phases are the tensor grid of _phase_grid, n equally spaced angles
    per w_k with n^(N-1) about SLICE_POINTS, then SLICE_REFINE_ROUNDS local
    rounds of p angles per w_k (p odd, p^(N-1) about SLICE_REFINE_POINTS)
    spanning +- one spacing of the phases before (half the span before
    when p = 3) around the best, whose slice is skipped; each round is one
    _slices_max run from the best root so far, all counted in one record.
    Returns (maximum attained, phases w* as an array, the record).
    """
    k = a.n_vars - 1
    phases, span, p = _phase_grid(k)
    best, stats = None, {"slice_points": len(phases), "slice_refine_rounds": SLICE_REFINE_ROUNDS}
    for _ in range(SLICE_REFINE_ROUNDS + 1):
        run = _slices_max(_slice_stack(a, np.exp(1j * phases)), rho, stats, best)
        if run["slice"] is not None:
            phi, best = phases[run["slice"]], (run["value"], run["anchor"])
        phases = np.delete(phi + _phase_tensor(np.linspace(-span, span, p), k), p ** k // 2, axis=0)
        span *= min(0.5, 2 / (p - 1))
    return best[0], np.exp(1j * phi), stats


def w_rho(a, rho: float, width: float = DEFAULT_WIDTH) -> RadiusReport:
    """Operator radius w_rho(A) = inf{u > 0 : A/u passes membership at rho}.

    Scaling A -> A/u moves the kernel at a disk point z = r e^{i theta}
    only through s = r/u, so w_rho(A) is the maximum over theta of the
    largest real root mu*(theta) of the quadratic pencil
    rho mu^2 I - (rho-1) mu (e^{i theta} A + e^{-i theta} A*) + (rho-2) A*A
    (the norm at rho = 1, the numerical radius at rho = 2).  It is the
    one-slice case of the tuple search: _slices_max of the stack that holds
    A/||A|| alone.

    hi is the slice's elimination level L (``certified_level``), at which
    A/L passes the member test _slice_failures: the kernel of A/L is
    nonnegative on the circle.  For rho <= 2 its disk minimum lies on the
    circle.  For rho > 2 it does when r(A/L) < beta = (rho-1)/(rho-2)
    (_kernel_disk_min), and the test passes no level with r(A) >= beta L:
    it fails that row at the angle theta = -arg lam of an eigenvalue of
    largest modulus.  There, for mu just below |lam|, e^{i theta} lam/mu is
    within 1/(rho-2) of beta, the pencil is indefinite, and
    mu*(theta) >= r(A); so the root solved there lifts the next level above
    r(A) > r(A)/beta, and hi is certified at every rho.  At
    rho = 1 the level is 1, the norm of A/||A|| as _one_slice_search
    passes it in (its computed value can round an ulp off 1), so
    hi = lo = ||A||; hi is floored at lo.  lo is the best root attained less
    the gap, floored at the lower bound ||A||/rho, so that A/lo fails the
    kernel test at the witness angle.  The gap is
    RADIUS_GAP (1 + max(1, 2/rho - 1)) relative, and at most width/4.  hi
    lies a few SLICE_GAP (1 + U) above the best root U, so hi - lo is at
    most width/2 unless width/(4 ||A||) is below that level gap.
    """
    m = _square(a, "radius")
    _check_positive(rho=rho, width=width)
    start = time.perf_counter()
    norm, run, grid_spec = _one_slice_search(m, rho)
    grid_spec["width"] = width
    if run is None:
        return RadiusReport(0.0, 0.0, LEVELSET_METHOD, grid_spec, 0.0)
    gap = min(RADIUS_GAP * (1 + max(1.0, 2.0 / rho - 1.0)), width / (4 * norm))
    lo = max(norm / rho, (run["value"] - gap) * norm)
    hi = max(lo, grid_spec["certified_level"])
    grid_spec["certified_level"] = hi
    return RadiusReport(lo, hi, LEVELSET_METHOD, grid_spec, time.perf_counter() - start)


def _one_slice_search(m: np.ndarray, rho: float):
    """(||m||, run, grid_spec) of _slices_max on the stack that holds
    m/||m|| alone, whose norm 1 it passes in rather than take a second SVD
    of m (run None when m = 0): grid_spec holds the run's counters,
    the polish step cap and the slice's elimination level in m's units
    (``certified_level``)."""
    norm, grid_spec = op_norm(m), dict.fromkeys(SLICE_COUNTERS, 0)
    run = _slices_max((m / norm)[None], rho, grid_spec, norms=np.ones(1)) if norm else None
    grid_spec.update(slice_polish_cap=SLICE_POLISH_STEPS,
                     certified_level=float(run["levels"][0]) * norm if run else 0.0)
    return norm, run, grid_spec


def numerical_radius(a) -> float:
    """w(A) = max over theta of lambda_max(Re(e^{i theta} A)), the rho = 2
    case of w_rho: the largest root attained by its slice search, within
    the search's level gap below the certified level."""
    return numerical_radius_report(a)["numerical_radius"]


def numerical_radius_report(a) -> dict:
    """numerical_radius of ``a`` with its search's ``grid_spec``: the slice
    counters, the polish step cap and the certified level (w(A) lies
    between the two values)."""
    norm, run, grid_spec = _one_slice_search(_square(a, "numerical radius"), 2.0)
    return {"numerical_radius": run["value"] * norm if run else 0.0, "grid_spec": grid_spec}


# ---------------------------------------------------------------------------
# sampling of commuting tuples


@functools.lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def sample_commuting_tuple(dim: int, n_vars: int, seed: int) -> OperatorTuple:
    """One deterministic commuting tuple of strict contractions (norms at
    most NORM_CAP).

    Even seeds draw from the simultaneously-diagonalizable (normal) family;
    odd seeds from polynomials in a single nilpotent Jordan-type matrix.
    Draws are memoised per argument list (the last SAMPLE_CACHE_SIZE), and
    every caller shares them, so their matrices are read-only; the
    commutator and norm checks run on each first draw.
    """
    if dim < 1:
        raise InputError("dim must be >= 1")
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
    t = OperatorTuple(tuple(m * (NORM_CAP / nrm) if nrm > NORM_CAP else m for m, nrm in zip(mats, norms)))
    residual = t.commutator_residual()
    if residual > COMMUTE_TOL:
        raise InternalError(f"sampled tuple has commutator residual {residual:.3e}")
    if t.max_norm() >= 1:
        raise InternalError("sampled tuple is not a strict contraction")
    for m in t.mats:
        m.setflags(write=False)
    return t


def sample_commuting_tuples(n_vars: int, budget: int, seed: int = 0, dims=SAMPLE_DIMS):
    """Deterministic batch of samples, alternating both families and dims."""
    out = []
    for i in range(budget):
        dim = dims[i % len(dims)]
        out.append(sample_commuting_tuple(dim, n_vars, seed * 10007 + i))
    return out


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
    """(indices, stack) for each size among the samples: the indices in
    ``samples`` of the samples C of that size, in order, and their A(C),
    one _substitute_stack."""
    out = []
    for m in dict.fromkeys(c.dim for c in samples):
        idx = [i for i, c in enumerate(samples) if c.dim == m]
        out.append((idx, _substitute_stack(a, np.array([samples[i].mats for i in idx]))))
    return out


# ---------------------------------------------------------------------------
# tuple membership and radii


def _slice_phases_json(w) -> list:
    """The phases w_2, ..., w_N of a slice as [re, im] pairs; one pair alone
    for a pair's single phase."""
    phases = [[float(x.real), float(x.imag)] for x in w]
    return phases[0] if len(phases) == 1 else phases


def _worst_slice(a: OperatorTuple, rho: float):
    """The worst slice A_1 + w_2 A_2 + ... + w_N A_N of a tuple of nonzero
    norm (_qep_theta_max on A/sum ||A_k||), its phases w, the largest root
    attained, in the tuple's units, and the counters."""
    scale = a.norm_sum()
    root, w, stats = _qep_theta_max(a.scale(1 / scale), rho)
    return _slice_stack(a, w[None])[0], w, root * scale, {**stats, "slice_w": _slice_phases_json(w)}


def _first_out(s: np.ndarray, failures, rho: float, tol: float, stats: dict, stage: str, undecided=None):
    """The first row of the stack ``s`` decided Out among the (rows,
    angles, values) batches ``failures`` of its member test at floor 0, and
    its verdict, else (None, None).  The rows are taken in turn: one whose
    smallest value is below -tol is Out with that value as margin and its
    angle as witness ("kernel-witness"); the others (nan, or in [-tol,
    guard]) go to membership_single, counted in stats[stage +
    "_memberships"], and those it decides In are appended to ``undecided``
    as (row, margin).  The crossing solves of the memberships decided In,
    whose certificates are dropped, are added to stats[stage +
    "_membership_crossing_solves"] (an Out verdict carries its own); both
    keys are present from the first draw.  The batches are drawn lazily, so
    a row that fails at its anchor settles the tuple before any crossing
    solve, and one found in a crossing batch before the batches after it."""
    count, solves = stage + "_memberships", stage + "_membership_crossing_solves"
    stats.setdefault(count, 0)
    stats.setdefault(solves, 0)
    for rows, angles, vals in failures:
        for i in dict.fromkeys(rows.tolist()):
            j = np.flatnonzero(rows == i)[np.argmin(vals[rows == i])]
            if vals[j] < -tol:
                z, km = complex(np.exp(1j * angles[j])), float(vals[j])
                v = MembershipVerdict(OUT, km, {"method": "kernel-witness", "witness_z": [z.real, z.imag],
                                                "kernel_margin": km, "tol": tol})
            else:
                stats[count] += 1
                v = membership_single(s[i], rho, tol)
            if v.decision == OUT:
                return i, v
            stats[solves] += v.certificate["crossing_solves"]
            if undecided is not None:
                undecided.append((i, v.margin))
    return None, None


def _first_out_slice(a: OperatorTuple, rho: float, tol: float, batch=LEVEL1_FIRST_BATCH):
    """The level-1 pass of membership_tuple (N >= 3) over the first phase
    grid of _qep_theta_max: the first grid slice decided Out (_first_out)
    among those that _level1_failures does not show to be members.
    Returns (phases, verdict) of that slice, or (None, None), and the
    counters (with the slice's phases).  The anchor kernels, then the
    crossings, are solved in batches of ``batch``, 2 batch, ... slices (one
    each if None) up to the witness's: an Out triple's witness is most
    often among the first slices solved (``level1_anchor_solves`` and
    ``level1_crossing_solves`` count the slices solved)."""
    w = np.exp(1j * _phase_grid(a.n_vars - 1)[0])
    s = _slice_stack(a, w)
    stats = {}
    i, v = _first_out(s, _level1_failures(s, rho, stats, "level1", batch=batch), rho, tol, stats, "level1")
    if v is None:
        return None, None, stats
    return w[i], v, {**stats, "slice_w": _slice_phases_json(w[i])}


def _pair_cells(a: OperatorTuple, rho: float, tol=None, gap: float = 0.0):
    """The cell recursion over the circle of phases w of the slices
    S_w = A_1 + w A_2: pair membership at level 1 (``tol`` given), as
    (phases, verdict, counters) like _first_out_slice, or the radius of a
    pair with sum ||A_k|| = 1 (``gap`` its radius gap), as (best root,
    proven level, counters).

    A cell's arc |t - c| <= h lies in the triangle with vertices
    e^{i(c-h)}, e^{i(c+h)} and e^{ic}/cos h, where the end tangents meet.
    With G_w = A_1*A_1 + A_2*A_2 + w A_1*A_2 + conj(w) A_2*A_1 the kernel
    rho I - (rho-1)(zS_w + (zS_w)*) + (rho-2) G_w is real-affine in w, the
    slice's kernel for |w| = 1, and lambda_min is concave: so a cell whose
    real end slices and tangent pencil (S_w, G_w) pass the member test at a
    level L (_slice_failures) has every slice a member at L (at rho > 2 no
    slice of the arc has r(S) = beta L, so r(S) < beta L, as at its ends).
    A round tests in one batch the tangents of the live cells and their
    ends not passed yet (a member at L is one above L).  A cell whose
    tangent fails while its ends pass is cut in CELL_WAYS, unless the radius
    has more than CELL_SPLITS such cells in the round, membership would test
    more than CELL_BUDGET vertices, or the cell is at depth CELL_DEPTH.

    Membership runs at level 1 from the anchor angle 0, at floor 0.  A
    failing real slice goes to _first_out: the first decided Out is the
    witness.  One decided In (within tol of the boundary) starts the
    recursion again at the floor -tol, where such a slice leaves its cells
    unproven, as does a failing cell not cut.  The verdict is In,
    Certified, its margin the floor (a proven lower bound on every slice's
    disk minimum; at rho > 2 one below -1/(rho-2) holds for every slice),
    or with cells unproven NecessaryOnly, margin the least of the floor and
    the In slices'.

    The radius solves its first real slices at the angles 0 and pi (and,
    at rho > 2, -arg lam of each one's top eigenvalue) for the best root U,
    then runs a joint level set at L = max(U + gap, L + SLICE_GAP (1 + L)),
    anchored opposite U's angle.  A failing vertex gets its root where it
    fails (_qep_top_roots, with G_w for a tangent): a real slice's raises
    U; a tangent's at most U + gap, or one whose cell is not cut, raises L
    above it instead.  Whenever a real slice's root raises U (the start
    included), Newton steps on its angle and phase (_polish_root) climb to
    the top of its hill, an attained root of the slice S_phi that names
    ``slice_w``: the first levels then lie just above the radius, and the
    rounds mostly cut cells (``cell_polish_steps``, each one root solve).
    The level at which the last cell passes bounds every slice.
    """
    a1, a2 = a.mats
    g0, g1 = a1.conj().T @ a1 + a2.conj().T @ a2, a1.conj().T @ a2
    radius, margins = tol is None, []
    cells = dict.fromkeys(("cell_rounds", "cell_vertices", "cell_root_solves", "cells_unproven"), 0)
    n, floor = CELL_START << CELL_DEPTH, 0.0

    def start():  # the first cells, and whether each one's left and right ends passed
        return (np.arange(CELL_START, dtype=np.int64) << CELL_DEPTH, np.full(CELL_START, 1 << CELL_DEPTH),
                np.zeros((2, CELL_START), dtype=bool))

    def climb(theta, phi, mu):  # the polished root of a real slice, U, and the anchor opposite it
        (theta, phi), mu, steps = _polish_root(a.mats, rho, (float(theta), float(phi)), mu, gap)
        cells["cell_polish_steps"] += steps
        cells["cell_root_solves"] += steps
        cells["slice_w"] = _slice_phases_json([complex(math.cos(phi), math.sin(phi))])
        return max(mu, 0.0), theta + np.pi

    p, q, known = start()
    if radius:
        _check_finite_kernel(2 / SLICE_GAP, rho, "a slice over a level of the radius search")
        phi = 2 * np.pi * np.arange(CELL_START) / CELL_START
        s = _slice_stack(a, np.exp(1j * phi)[:, None])
        theta = np.array([np.zeros(CELL_START), np.full(CELL_START, np.pi)])
        if rho > 2:
            theta = np.vstack([theta, -np.angle(_top_eigenvalues(s))])
        roots = _qep_top_roots((np.exp(1j * theta)[:, :, None, None] * s).reshape(-1, *s.shape[1:]), rho)
        i, j = divmod(int(np.argmax(roots)), CELL_START)
        cells.update(cell_root_solves=roots.size, cell_polish_steps=0)
        value, anchor = climb(theta[i, j], phi[j], float(roots.max()))
        level = -math.inf
    else:
        level, anchor, value = 1.0, 0.0, 0.0
    while p.size:
        if cells["cell_rounds"] == CELL_DEPTH + LEVELSET_MAX_ITERATIONS:
            raise InternalError(f"pair cell recursion did not stop in {cells['cell_rounds']} rounds")
        cells["cell_rounds"] += 1
        if radius:
            level = max(value + max(gap, SLICE_GAP * (1 + value)), level + SLICE_GAP * (1 + level))
        real, inv = np.unique(np.stack([p, p + q])[~known] % n, return_inverse=True)
        k, step = real.size, 2 * np.pi / n
        w = np.concatenate([np.exp(1j * step * real), np.exp(1j * step * (p + q / 2)) / np.cos(step * q / 2)])
        s = a1 + w[:, None, None] * a2
        gram = g0 + w[:, None, None] * g1 + w.conj()[:, None, None] * g1.conj().T
        norms = np.concatenate([np.linalg.norm(s[:k], axis=(1, 2)),
                                np.linalg.norm(a1) + np.abs(w[k:]) * np.linalg.norm(a2)])
        top = np.concatenate([_top_eigenvalues(s[:k]), np.full(p.size, np.nan)]) if rho > 2 else None
        rows, angles, vals = (np.concatenate(part) for part in zip(*_slice_failures(
            s, rho, level, np.full(w.size, anchor), norms, top, cells, "cell", floor=floor, gram=gram)))
        cells["cell_vertices"] += w.size
        is_real = rows < k
        if not radius:
            found = []
            i, v = _first_out(s[:k], [(rows[is_real], angles[is_real], vals[is_real])], rho, tol, cells, "cell",
                              found)
            if v is not None:
                return w[[i]], v, {**cells, "slice_w": _slice_phases_json(w[[i]])}
            if found and not floor:  # within tol of the boundary: prove every slice at -tol instead
                floor, (p, q, known) = -tol, start()
                continue
            margins += [m for _, m in found]
        known[~known] = np.bincount(rows[is_real], minlength=k)[inv] == 0
        ok, failed = known.all(axis=0), np.bincount(rows[~is_real] - k, minlength=p.size) > 0
        split = ok & failed
        if radius:
            at = is_real | ok[np.maximum(rows - k, 0)] & ~is_real
            rows, angles, is_real = rows[at], angles[at], is_real[at]
            roots = _qep_top_roots(np.exp(1j * angles)[:, None, None] * s[rows], rho, gram[rows])
            cells["cell_root_solves"] += roots.size
            j = np.flatnonzero(is_real)
            if j.size and roots[j].max() > value:
                j = j[np.argmax(roots[j])]
                value, anchor = climb(angles[j], step * real[rows[j]], float(roots[j]))
            troot, t = np.full(p.size, -np.inf), np.flatnonzero(~is_real)
            t = t[np.argsort(roots[t])]
            troot[rows[t] - k] = roots[t]
            split &= troot > value + gap
        cuts = np.count_nonzero(split)
        over = cuts > CELL_SPLITS if radius else cells["cell_vertices"] + (2 * CELL_WAYS - 1) * cuts > CELL_BUDGET
        if over or (q[split] < CELL_WAYS).any():
            split[:] = False
        held = ok & failed & ~split
        if radius:
            level = max(level, troot[held].max(initial=level))
        else:
            cells["cells_unproven"] += int(np.count_nonzero(held | ~ok))
        stay, pos = (~ok | held) & radius, np.tile(np.arange(CELL_WAYS), np.count_nonzero(split))
        part = np.repeat(q[split] // CELL_WAYS, CELL_WAYS)
        kids = np.repeat(p[split], CELL_WAYS) + part * pos
        kept = np.where([pos == 0, pos == CELL_WAYS - 1], np.repeat(known[:, split], CELL_WAYS, axis=1), False)
        p, q, known = np.append(p[stay], kids), np.append(q[stay], part), np.hstack([known[:, stay], kept])
    if radius:
        return value, level, cells
    verdict = MembershipVerdict(IN, min([floor, *margins]), {
        "method": CELLS_METHOD, **cells, "kernel_margin": min([floor, *margins]), "tol": tol},
        NECESSARY_ONLY if cells["cells_unproven"] else CERTIFIED)
    return None, verdict, verdict.certificate


def membership_tuple(a: OperatorTuple, rho: float, tol: float = DEFAULT_TOL,
                     budget: int = DEFAULT_BUDGET) -> MembershipVerdict:
    """Decide membership of an operator tuple at level rho.

    N = 1 delegates to the single-operator test.  For N >= 2 the norm
    bound comes first: every torus slice and every substitution A(C) below
    has norm at most t = sum ||A_k||, so its kernel stays at or above
    _kernel_norm_floor(t, rho) on the closed disk.  When that floor is
    above the member test's rounding guard the verdict is In, Certified,
    with the floor as its margin (certificate ``method`` "norm-bound" and
    ``norm_sum`` t); it fires iff t max(1, 2/rho - 1) < 1 up to the guard,
    and scalar tuples attain the floor.  Otherwise the tuple is tested on
    its torus slices A_1 + w_2 A_2 + ... + w_N A_N, |w_k| = 1, as
    zeta A = zeta_1 S(zeta_2/zeta_1, ...): a slice that is not a member
    puts the tuple out of the class, with its phases; the margin is
    lambda_min k at the witness, an attained value (at least the slice's
    disk minimum), unless membership_single decided that slice.  A pair is
    decided by the cell recursion (_pair_cells, method "torus-slice+cells"):
    Out at its first real slice decided Out, else In, Certified, with
    margin 0 when every cell of the phase circle is proven, or
    NecessaryOnly (``cells_unproven``).  For N >= 3 the level-1 pass
    (_first_out_slice) returns Out at the first grid slice that fails,
    stopping at its witness's anchor or crossing batch (only
    ``level1_anchor_solves`` and ``level1_crossing_solves`` depend on the
    batches); else the worst slice of the phase search
    (_qep_theta_max, the same search as w_rho_tuple's) is decided by
    membership_single.

    Slices decide a pair: by Ando's inequality membership is
    sup ||phi(zA)|| <= 1 on the closed bidisk, which by the maximum
    principle holds iff every slice is a member.  If every slice is, r(zA)
    is at most 1 on the torus, hence on the bidisk (it is
    plurisubharmonic), while a pole of phi needs the eigenvalue
    rho/(rho-1) of zA, of modulus above 1 for rho > 1; for rho < 1 member
    slices have ||zA|| <= rho, and at rho = 1, phi = -zA has no pole.

    For N >= 3 a worst slice that passes is followed by budget
    substitutions A(C) of sampled commuting tuples (drawn once per process,
    see sample_commuting_tuple); a passing verdict is then NecessaryOnly.
    Only this stage adds the method suffix "+commuting-substitution",
    ``budget``, ``substitutions`` and ``disk_minima`` to the certificate.
    Each sample size's stack goes through the slices' member test at level
    1 (_level1_failures, stage "substitution") with the worst slice's
    kernel margin as its floor, which returns every substitution whose disk minimum may lie below that
    margin: only those can be the Out witness or lower the margin.  They get
    their disk minimum (``disk_minima``, not the member test's values; its
    crossing solves in ``substitution_membership_crossing_solves``) in
    sample order; the first below -tol is the Out witness, else the In
    margin is the smallest of them and the slice's.  Verdict and margin are
    those of every disk minimum.
    """
    _check_positive(rho=rho, tol=tol)
    if budget < 1:
        raise InputError("budget must be at least 1")
    if a.n_vars == 1:
        return membership_single(a.mats[0], rho, tol)
    norm_sum = a.norm_sum()
    _check_finite_kernel(norm_sum, rho, "a torus slice")
    floor = float(_kernel_norm_floor(norm_sum, rho))
    if floor > SCREEN_ROUND_GUARD * a.dim * _kernel_scale(norm_sum, rho):
        cert = {"method": "norm-bound", "norm_sum": norm_sum, "kernel_margin": floor, "tol": tol}
        return MembershipVerdict(IN, floor, cert, CERTIFIED)
    w, v, spec = (_pair_cells if a.n_vars == 2 else _first_out_slice)(a, rho, tol)
    if v is not None and v.certificate["method"] == CELLS_METHOD:
        return v
    if v is None:
        b, w, _, worst = _worst_slice(a, rho)
        v, spec = membership_single(b, rho, tol), {**worst, **spec}
    z = complex(*v.certificate["witness_z"])
    cert = {**v.certificate, **spec, "method": "torus-slice+" + v.certificate["method"],
            "witness_z": [[z.real, z.imag]] + [[float((z * x).real), float((z * x).imag)] for x in w]}
    if v.decision == OUT:
        return MembershipVerdict(OUT, v.margin, cert, CERTIFIED)

    samples = sample_commuting_tuples(a.n_vars, budget)
    cert.update(method=cert["method"] + "+commuting-substitution", budget=budget, substitutions=len(samples),
                disk_minima=0, substitution_membership_crossing_solves=0)
    failing, margin = {}, v.margin
    for idx, stack in _substitutions(a, samples):
        for rows, _, _ in _level1_failures(stack, rho, cert, "substitution", v.margin):
            failing.update((idx[i], stack[i]) for i in rows)
    for i in sorted(failing):
        cert["disk_minima"] += 1
        km, _, stats = _kernel_disk_min(failing[i], rho)
        cert["substitution_membership_crossing_solves"] += stats["crossing_solves"]
        if km < -tol:
            cert["witness_sample_dim"] = samples[i].dim
            return MembershipVerdict(OUT, km, cert, CERTIFIED)
        margin = min(margin, km)
    return MembershipVerdict(IN, margin, cert, NECESSARY_ONLY)


def w_rho_tuple(a: OperatorTuple, rho: float, width: float = DEFAULT_WIDTH) -> RadiusReport:
    """Tuple radius bracket.

    N = 1 delegates to w_rho.  For N >= 2, lo is the largest w_rho root
    attained by a torus slice A_1 + w_2 A_2 + ... + w_N A_N less the
    radius gap RADIUS_GAP (1 + max(1, 2/rho - 1)) sum ||A_k||, at most
    width/4: a slice that is not a member puts the tuple out of the class.
    A pair's radius is the largest w_rho of its slices, and both ends come
    from the cell recursion (_pair_cells on A/sum ||A_k||): hi is the level
    at which every cell of the phase circle is proven (``certified_level``),
    so it bounds every slice, and ``slice_w`` the phase of the root.

    N >= 3: the slice is the phase search's worst (_worst_slice), and hi is
    the bound sum ||A_k|| max(1, 2/rho - 1): for commuting contractions C,
    ||A(C)|| <= sum ||A_k||, and w_rho(T) <= max(1, 2/rho - 1) ||T||.
    """
    _check_positive(rho=rho, width=width)
    if a.n_vars == 1:
        return w_rho(a.mats[0], rho, width)
    start = time.perf_counter()
    method = "torus-slice+levelset"
    norm_sum = a.norm_sum()
    if norm_sum == 0.0:
        return RadiusReport(0.0, 0.0, method, {"width": width}, time.perf_counter() - start)
    bound = max(1.0, 2.0 / rho - 1.0)
    gap = min(RADIUS_GAP * (1 + bound), width / (4 * norm_sum))
    if a.n_vars == 2:
        value, level, grid_spec = _pair_cells(a.scale(1 / norm_sum), rho, gap=gap)
        hi = level * norm_sum
        grid_spec.update(certified_level=hi, width=width)
    else:
        _, _, root, spec = _worst_slice(a, rho)
        grid_spec, value, hi = {**spec, "width": width}, root / norm_sum, bound * norm_sum
    return RadiusReport((value - gap) * norm_sum, hi, method, grid_spec, time.perf_counter() - start)
