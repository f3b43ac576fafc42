"""Class-membership tests and operator radii.

The single-operator test evaluates the positivity kernel
k(z, z) = rho*I - (rho-1)(zA + (zA)*) + (rho-2)(zA)*(zA) over the closed
unit disk; membership holds iff its smallest eigenvalue stays nonnegative.
The radius w_rho is the smallest u such that A/u passes, the maximum over
the circle of the largest root of a quadratic eigenproblem in the scaling.
Both extrema over the circle come from the level-set iteration of Byers
(SIAM J. Sci. Stat. Comput. 9, 1988) and Boyd & Balakrishnan (Syst.
Control Lett. 15, 1990): the angles where a level is attained are the
unimodular roots of a *-palindromic quadratic.  One radius engine serves
every N: the joint level-set search over a stack of slices (_slices_max),
which for a single operator is a stack of one.  A tuple whose norm sum
keeps every kernel above the scalar floor (_kernel_norm_floor) is a member
at once.  Otherwise it is tested on its torus slices
A_1 + w_2 A_2 + ... + w_N A_N, |w_k| = 1: Out where the batched member
test (_slice_failures) of the first phase grid computes a lambda_min k
below -tol, that attained value the margin; else cells over the phase
circle, each proven from its centre by the completed square, decide a
pair, and one level-set iteration over many slices brackets a pair's
radius between the largest root it attains and the largest level at which
it eliminates a slice (the radii take rho and width; tol and budget are
membership's).  Larger tuples
also substitute sampled commuting strict contractions C, a necessary test:
the substitutions A(C) = sum_k A_k (x) C_k go through the same member test
and level-set search (_slices_max) as the slices.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError
from .linalg import as_matrix, op_norm, spectral_radius
from .pencil import COMMUTE_TOL, OperatorTuple

IN = "In"
OUT = "Out"
BORDERLINE = "Borderline"

CERTIFIED = "Certified"
NECESSARY_ONLY = "NecessaryOnly"

DEFAULT_TOL = 1e-9
DEFAULT_WIDTH = 1e-6
DEFAULT_BUDGET = 64
#: Sampled commuting tuples substituted by the N >= 3 radius (w_rho_tuple).
RADIUS_BUDGET = 16

#: Strict-contraction cap for sampled commuting tuples.
NORM_CAP = 1 - 1e-6
#: Sizes of the commuting tuples that N >= 3 membership samples, in turn.
SAMPLE_DIMS = (1, 2, 3, 4)
#: Sampled tuples kept by sample_commuting_tuple (least recently used out);
#: at the library's sample sizes one holds at most N 4 x 4 complex matrices.
SAMPLE_CACHE_SIZE = 1024

#: Angles of the ring |z| = 1 - 1e-6 on which _psi_boundary_min evaluates
#: the Herglotz condition of membership_single_all_conditions.
THETA_POINTS = 512
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

#: Phases (w_2, ..., w_N) of the slices A_1 + w_2 A_2 + ... + w_N A_N
#: among which a tuple's worst slice is sought (_qep_theta_max): a tensor
#: grid of about SLICE_POINTS phases, then local rounds of about
#: SLICE_REFINE_POINTS (64 and 17 for a pair, 8 x 8 and 5 x 5 for a triple).
SLICE_POINTS = 64
SLICE_REFINE_ROUNDS = 3
SLICE_REFINE_POINTS = 17
#: Angles at which each slice of the first pass is solved before the joint
#: level-set iteration (_slices_max), whose levels lie SLICE_GAP (1 + U)
#: above the best root U attained.
SLICE_START_POINTS = 2
SLICE_GAP = 1e-11
#: Roots with |Im mu| <= QEP_REAL_TOL (1 + |Re mu|) count as real.
QEP_REAL_TOL = 1e-7

LEVELSET_METHOD = "levelset"

#: Rows in the first crossing batch of the N >= 3 level-1 pass
#: (_first_out_slice); later batches double.
LEVEL1_FIRST_BATCH = 4

#: Cell slices (cell centres tested, the first grid's among them) that pair
#: membership may take before an In verdict is left NecessaryOnly.
CELL_BUDGET = 16 * SLICE_POINTS
#: Bound to which a pair cell is proven, relative to its floor
#: Delta = _cell_floor(eps, rho): its centre is tested at the floor
#: _cell_floor(eps, rho, CELL_RAISE Delta), so the proof leaves a margin.
CELL_RAISE = 0.125
CELLS_METHOD = "torus-slice+cells"


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
    """lambda_min of k(z, z) for a batch of scalar disk points ``zs``, of
    one matrix ``a`` or of a stack of matrices paired with the points."""
    ah = a.conj().swapaxes(-1, -2)
    aha = ah @ a
    eye = np.eye(a.shape[-1])
    z = zs[:, None, None]
    k = (
        rho * eye
        - (rho - 1) * (z * a + z.conj() * ah)
        + (rho - 2) * (np.abs(z) ** 2) * aha
    )
    k = (k + k.conj().transpose(0, 2, 1)) / 2
    return np.linalg.eigvalsh(k)[:, 0]


def _circle_crossings(e: np.ndarray, m: np.ndarray, psi: float) -> np.ndarray:
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
    single, psi = e.ndim == 2, np.atleast_1d(psi)
    e, m = (e[None], m[None]) if single else (e, m)
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
    theta = np.sort(np.where(real, (psi[:, None] + np.pi + 2 * np.arctan(tau.real)) % (2 * np.pi), np.nan))
    return theta[0, :np.count_nonzero(real)] if single else theta


def _levelset_min(h, pencil, gap: float) -> dict:
    """Minimum over the circle of a continuous function h(theta), by the
    level-set iteration.

    ``h`` evaluates the function on an array of angles.  ``pencil(level)``
    returns (E, M) such that k(theta) of _circle_crossings is singular where
    h(theta) = level and positive definite where h(theta) > level (other
    branches may be singular too).  It starts from the best value at
    LEVELSET_START_POINTS equal-spaced angles.  At level = best - gap it
    finds the crossings, evaluates h at the midpoints between consecutive
    crossings and takes the smallest.  It stops at a level with no
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
        level = best - gap
        cross = _circle_crossings(*pencil(level), psi)
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
    scale = _kernel_scale(float(np.linalg.norm(a)), rho)
    stats = {"theta_points": 1, "levelset_iterations": 0, "crossing_solves": 0}
    if rho > 2:
        top = _top_eigenvalues(a[None])[0]
        stats["spectral_radius"] = float(abs(top))
        beta = (rho - 1) / (rho - 2)
        if abs(top) >= beta:
            stats.update(theta_points=0, certified_level=-1 / (rho - 2))
            return -1 / (rho - 2), complex(beta / top), stats
    if rho == 1:
        best_val = float(_kernel_lambda_min(a, rho, np.ones(1))[0])
        stats["certified_level"] = best_val - KERNEL_GAP * scale
        return best_val, 1 + 0j, stats
    e = -(rho - 1) * a
    base = (rho - 2) * (a.conj().T @ a)
    eye = np.eye(len(a))
    run = _levelset_min(lambda th: _kernel_lambda_min(a, rho, np.exp(1j * th)),
                        lambda c: (e, (rho - c) * eye + base), KERNEL_GAP * scale)
    stats.update(theta_points=LEVELSET_START_POINTS, levelset_iterations=run["iterations"],
                 crossing_solves=run["iterations"], certified_level=run["level"])
    return run["value"], complex(np.exp(1j * run["theta"])), stats


def _psi_boundary_min(a: np.ndarray, rho: float):
    """min over THETA_POINTS angles of the ring |z| = 1 - 1e-6 of
    lambda_min(Re psi(z)); -inf when psi has a pole in the disk: when
    r(A) > 1, I - zA is singular at z = 1/lam for an eigenvalue lam of A,
    which a ring near the circle never meets.  Otherwise I - zA is
    invertible on the ring."""
    if spectral_radius(a) > 1:
        return -math.inf
    d = a.shape[0]
    zs = (1 - 1e-6) * np.exp(1j * np.linspace(0, 2 * np.pi, THETA_POINTS, endpoint=False))
    psi = (1 - 2 / rho) * np.eye(d) + (2 / rho) * np.linalg.inv(np.eye(d) - zs[:, None, None] * a)
    re = (psi + psi.conj().transpose(0, 2, 1)) / 2
    return float(np.linalg.eigvalsh(re)[:, 0].min())


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
    return _kernel_disk_min(_square(a, "membership"), rho)[0]


# ---------------------------------------------------------------------------
# single-operator membership and radii


def _check_positive(**knobs: float) -> None:
    """Raise InputError unless every knob is finite and positive."""
    for name, value in knobs.items():
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and positive")


def _square(a, what: str) -> np.ndarray:
    """``a`` as a finite complex matrix; InputError unless it is square with
    at least one row."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"{what} input must be square")
    if m.shape[0] == 0:
        raise InputError(f"{what} input must have at least one row")
    return m


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
    the kernel disk minimum, the psi ring minimum (_psi_boundary_min) and
    1 - sup ||phi|| (_phi_circle_sup).  Boundary-band cases (|margin| at
    most max(tol, 1e-6), which covers the psi ring's sampling) are reported
    as Borderline so callers can treat them as wildcards.
    """
    m = _square(a, "membership")
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


def _qep_top_roots(za: np.ndarray, rho: float) -> np.ndarray:
    """Largest real root mu*(zeta) of the quadratic pencil
    rho mu^2 I - (rho-1) mu (zeta A + (zeta A)*) + (rho-2) (zeta A)*(zeta A)
    for each pencil value zeta A in the stack ``za`` (-inf where no root is
    real), from batched eigenvalues of the 2d x 2d companion matrix
    [[0, I], [-(rho-2)/rho G, (rho-1)/rho H]], G = (zeta A)*(zeta A)."""
    d = za.shape[1]
    zah = za.conj().transpose(0, 2, 1)
    comp = np.zeros((len(za), 2 * d, 2 * d), dtype=complex)
    comp[:, :d, d:] = np.eye(d)
    comp[:, d:, :d] = -(rho - 2) / rho * (zah @ za)
    comp[:, d:, d:] = (rho - 1) / rho * (za + zah)
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= QEP_REAL_TOL * (1 + np.abs(roots.real))
    return np.where(real, roots.real, -np.inf).max(axis=1)


def _slices_max(s: np.ndarray, rho: float, best=None) -> dict:
    """Largest w_rho over a stack ``s`` of slices S with ||S|| <= 1, each
    maximised exactly over the circle by one joint level-set iteration.

    w_rho(S) is the maximum over theta of mu*(theta), the largest real root
    of P_theta(mu) = rho mu^2 I - (rho-1) mu H_theta + (rho-2) S*S (w_rho);
    P_theta(L) = L^2 k(e^{i theta}), k the kernel of S/L.  At rho = 1 it is
    ||S||, which is each slice's level.  ``best`` = (U, anchor) is a lower
    bound on the largest w_rho (an attained root, say) and every slice's
    anchor angle; without it the slices are solved at SLICE_START_POINTS
    angles, U is the best root (at least 0) and anchors the least roots.

    At the level L = U + SLICE_GAP (1 + U) the live slices that pass
    _slice_failures are eliminated: S/L is a member, so w_rho(S) <= L.  A
    slice that fails has an angle where P_theta(L) is not definite, so
    mu*(theta) >= L (P_theta(mu) is definite for mu > mu*(theta)), or, if
    r(S) >= beta L, the angle -arg lam of its top eigenvalue, where
    mu* >= r(S) (w_rho).  One batched _qep_top_roots solve there raises U,
    and the failing slices go on at the level above max(U, L), which rises
    even where rounding keeps a root below L.  Returns the best root
    "value", the "slice" that attained it (None if it is the given best)
    and its "anchor", each slice's elimination level ("levels") and the
    counters.
    """
    n, d = s.shape[:2]
    out = {"slice_levels": 0, "slice_crossing_solves": 0, "slice_root_solves": 0}
    anchors = np.full(n, 0.0 if best is None else best[1])
    value, owner = (0.0 if best is None else best[0]), None
    if rho == 1:
        levels = np.linalg.norm(s, 2, axis=(1, 2))
        if best is None or levels.max() > value:
            value, owner = float(levels.max()), int(np.argmax(levels))
        return {**out, "value": value, "slice": owner, "anchor": anchors[0], "levels": levels}
    if best is None:
        thetas = np.linspace(0, 2 * np.pi, SLICE_START_POINTS, endpoint=False)
        roots = _qep_top_roots((np.exp(1j * thetas)[:, None, None, None] * s).reshape(-1, d, d), rho)
        roots = roots.reshape(SLICE_START_POINTS, n)
        out["slice_root_solves"] = roots.size
        owner = int(np.argmax(roots.max(axis=0)))
        value, anchors = max(float(roots.max()), 0.0), thetas[np.argmin(roots, axis=0)]
    top = _top_eigenvalues(s) if rho > 2 else None
    levels, norms = np.full(n, np.nan), np.linalg.norm(s, 2, axis=(1, 2))
    live, level = np.arange(n), -math.inf
    while live.size:
        if out["slice_levels"] == LEVELSET_MAX_ITERATIONS:
            raise InternalError(f"slice level-set iteration did not stop in {LEVELSET_MAX_ITERATIONS} levels")
        out["slice_levels"] += 1
        level = max(value, level)
        level += SLICE_GAP * (1 + level)
        failures = list(_slice_failures(s[live], rho, level, anchors[live], norms[live],
                                        None if top is None else top[live], out))
        rows, angles = (np.concatenate(parts) for parts in list(zip(*failures))[:2])
        failed = np.isin(np.arange(live.size), rows)
        levels[live[~failed]] = level
        if rows.size:
            roots = _qep_top_roots(np.exp(1j * angles)[:, None, None] * s[live[rows]], rho)
            out["slice_root_solves"] += roots.size
            if roots.max() > value:
                value, owner = float(roots.max()), int(live[rows[np.argmax(roots)]])
        live = live[failed]
    return {**out, "value": value, "slice": owner, "anchor": anchors[0 if owner is None else owner], "levels": levels}


def _top_eigenvalues(s: np.ndarray) -> np.ndarray:
    """An eigenvalue of largest modulus of each matrix of the stack ``s``."""
    lam = np.linalg.eigvals(s)
    return lam[np.arange(len(s)), np.argmax(np.abs(lam), axis=1)]


def _slice_failures(s: np.ndarray, rho: float, level: float, anchors, norms, top, out: dict,
                    floor=0.0, batch=None):
    """The matrices S of the stack ``s`` for which lambda_min k, k the
    kernel of S/L, L = ``level``, is not shown to stay above ``floor`` (one
    value, or one per row) on the closed disk, in (rows, angles, values)
    batches, each angle one
    where the row fails and each value lambda_min k computed there (nan
    for a rho > 2 row with r(S) >= beta L, whose angle is not where a
    kernel was evaluated).  At floor 0 a row not returned has S/L a member.

    ``norms`` bound ||S|| (the Frobenius norms will do), and every test
    allows the rounding guard SCREEN_ROUND_GUARD d times the kernel's norm
    bound _kernel_scale(t, rho), t = ||S||/L.  The norm test comes first: a
    row whose _kernel_norm_floor(t, rho) is above floor + guard passes
    without an eigensolve.  The first batch holds the other rows where
    lambda_min k is at most floor + guard at the anchor angle, and, at
    rho > 2, those with r(S) >= beta L, beta = (rho-1)/(rho-2), at the
    angle -arg lam of the eigenvalue ``top``.  The others come from
    _circle_crossings of k - floor I (which err towards real, counted per
    row in out["slice_crossing_solves"]): a row for each midpoint between
    consecutive crossings where lambda_min k is at most floor + guard.
    They are solved in row order, in one batch, or in batches of ``batch``,
    2 batch, ... rows (_row_batches), one per draw, so a caller that stops
    at an Out row solves no later batch; a row's result does not depend on
    its batch.  At rho = 1 the kernel on the circle is I - U*U at every
    angle, so the anchor decides and no crossing is solved.  A row in no
    batch has lambda_min k above the floor on the circle, where its disk
    minimum lies (_kernel_disk_min).  The computed r(S) is safe: at
    zeta = |lam|/lam, x* k x = (rho-2)(|lam| - beta)^2 - 1/(rho-2) for an
    eigenvector x of an eigenvalue lam of U, so a kernel above the floor on
    the circle leaves U no eigenvalue of modulus beta, unless the floor is
    below -1/(rho-2), the least value k takes.
    """
    d = s.shape[-1]
    t = norms / level
    floor = np.broadcast_to(floor, t.shape)
    cut = floor + SCREEN_ROUND_GUARD * d * _kernel_scale(t, rho)
    idx = np.flatnonzero(_kernel_norm_floor(t, rho) <= cut)
    u, angles = s[idx] / level, anchors[idx]
    vals = _kernel_lambda_min(u, rho, np.exp(1j * angles))
    bad = vals <= cut[idx]
    if rho > 2:
        wide = (rho - 2) * np.abs(top[idx]) >= (rho - 1) * level
        angles, bad, vals = np.where(wide, -np.angle(top[idx]), angles), bad | wide, np.where(wide, np.nan, vals)
    yield idx[bad], angles[bad], vals[bad]
    if rho == 1 or bad.all():
        return
    u, idx, angles = u[~bad], idx[~bad], angles[~bad]
    for lo, hi in _row_batches(idx.size, batch):
        ub, ib = u[lo:hi], idx[lo:hi]
        cross = _circle_crossings(-(rho - 1) * ub, (rho - floor[ib])[:, None, None] * np.eye(d)
                                  + (rho - 2) * (ub.conj().swapaxes(1, 2) @ ub), angles[lo:hi])
        out["slice_crossing_solves"] += ib.size
        count, col = np.count_nonzero(~np.isnan(cross), axis=1)[:, None], np.arange(2 * d)
        nxt = np.where(col + 1 < count, np.roll(cross, -1, axis=1), cross[:, :1] + 2 * np.pi)
        at, col = np.nonzero(col < count)
        mids = (cross[at, col] + nxt[at, col]) / 2 % (2 * np.pi)
        vals = _kernel_lambda_min(ub[at], rho, np.exp(1j * mids))
        fail = vals <= cut[ib[at]]
        yield ib[at[fail]], mids[fail], vals[fail]


def _row_batches(n: int, first=None):
    """Consecutive (start, stop) ranges that cover rows 0..n-1 once, in
    order: one range, or ranges of first, 2 first, 4 first, ... rows."""
    start, size = 0, first or n
    while start < n:
        yield start, min(start + size, n)
        start, size = start + size, 2 * size


def _level1_failures(s: np.ndarray, rho: float, out: dict, floor=0.0, top=None, batch=None):
    """_slice_failures of the stack ``s`` at level 1 from the anchor angle 0,
    with the Frobenius norms, which bound the spectral ones, and the top
    eigenvalues ``top`` (computed here when rho > 2 and not given)."""
    if rho > 2 and top is None:
        top = _top_eigenvalues(s)
    return _slice_failures(s, rho, 1.0, np.zeros(len(s)), np.linalg.norm(s, axis=(1, 2)), top, out, floor, batch)


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
    _slices_max run from the best root so far.  Returns (maximum attained,
    largest elimination level, phases w* as an array, counters): the level
    bounds w_rho of every slice searched, in every run.
    """
    k = a.n_vars - 1
    phases, span, p = _phase_grid(k)
    runs, best = [], None
    stats = {"slice_points": len(phases), "slice_refine_rounds": SLICE_REFINE_ROUNDS}
    for _ in range(SLICE_REFINE_ROUNDS + 1):
        runs.append(_slices_max(_slice_stack(a, np.exp(1j * phases)), rho, best))
        if runs[-1]["slice"] is not None:
            phi, best = phases[runs[-1]["slice"]], (runs[-1]["value"], runs[-1]["anchor"])
        phases = np.delete(phi + _phase_tensor(np.linspace(-span, span, p), k), p ** k // 2, axis=0)
        span *= min(0.5, 2 / (p - 1))
    stats.update({key: sum(run[key] for run in runs)
                  for key in ("slice_levels", "slice_crossing_solves", "slice_root_solves")})
    return best[0], max(float(run["levels"].max()) for run in runs), np.exp(1j * phi), stats


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
    rho = 1 the level is the computed norm of A/||A||, which can round an
    ulp below 1, so hi is floored at lo.  lo is the best root attained less
    the gap, floored at the lower bound ||A||/rho, so that A/lo fails the
    kernel test at the witness angle.  The gap is
    RADIUS_GAP (1 + max(1, 2/rho - 1)) relative, and at most width/4.  hi
    lies a few SLICE_GAP (1 + U) above the best root U, so hi - lo is at
    most width/2 unless width/(4 ||A||) is below that level gap.
    """
    m = _square(a, "radius")
    _check_positive(rho=rho, width=width)
    start = time.perf_counter()
    norm = op_norm(m)
    grid_spec = {"slice_levels": 0, "slice_crossing_solves": 0, "slice_root_solves": 0,
                 "certified_level": 0.0, "width": width}
    if norm == 0.0:
        return RadiusReport(0.0, 0.0, LEVELSET_METHOD, grid_spec, 0.0)
    gap = min(RADIUS_GAP * (1 + max(1.0, 2.0 / rho - 1.0)), width / (4 * norm))
    run = _slices_max((m / norm)[None], rho)
    lo = max(norm / rho, (run["value"] - gap) * norm)
    hi = max(lo, float(run["levels"][0]) * norm)
    grid_spec.update({key: run[key] for key in ("slice_levels", "slice_crossing_solves", "slice_root_solves")},
                     certified_level=hi)
    return RadiusReport(lo, hi, LEVELSET_METHOD, grid_spec, time.perf_counter() - start)


def numerical_radius(a) -> float:
    """w(A) = max over theta of lambda_max(Re(e^{i theta} A)), the rho = 2
    case of w_rho: the largest root attained by its slice search, within
    the search's level gap below the certified level."""
    m = _square(a, "numerical radius")
    norm = op_norm(m)
    if norm == 0.0:
        return 0.0
    return _slices_max((m / norm)[None], 2.0)["value"] * norm


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
    attained and the largest elimination level, both in the tuple's units,
    and the counters."""
    scale = a.norm_sum()
    root, level, w, stats = _qep_theta_max(a.scale(1 / scale), rho)
    return _slice_stack(a, w[None])[0], w, root * scale, level * scale, {**stats, "slice_w": _slice_phases_json(w)}


def _first_out(s: np.ndarray, failures, rho: float, tol: float, stats: dict):
    """The first row of the stack ``s`` decided Out among the (rows,
    angles, values) batches ``failures`` of its member test at floor 0, and
    its verdict, else (None, None).  The rows are taken in turn: one whose
    smallest value is below -tol is Out with that value as margin and its
    angle as witness ("kernel-witness"); the others (nan, or in [-tol,
    guard]) go to membership_single, counted in stats["level1_memberships"].
    The batches are drawn lazily, so a row that fails at its anchor settles
    the tuple before any crossing solve, and one found in a crossing batch
    before the batches after it."""
    for rows, angles, vals in failures:
        for i in dict.fromkeys(rows.tolist()):
            j = np.flatnonzero(rows == i)[np.argmin(vals[rows == i])]
            if vals[j] < -tol:
                z, km = complex(np.exp(1j * angles[j])), float(vals[j])
                v = MembershipVerdict(OUT, km, {"method": "kernel-witness", "witness_z": [z.real, z.imag],
                                                "kernel_margin": km, "tol": tol})
            else:
                stats["level1_memberships"] += 1
                v = membership_single(s[i], rho, tol)
            if v.decision == OUT:
                return i, v
    return None, None


def _member_test_tops(s: np.ndarray, rho: float) -> np.ndarray:
    """The top eigenvalues that the member test reads at rho > 2
    (_top_eigenvalues of the stack ``s``); nan at rho <= 2."""
    return _top_eigenvalues(s) if rho > 2 else np.full(len(s), np.nan)


def _first_grid(a: OperatorTuple, rho: float):
    """The first phase grid of _qep_theta_max as (phases, slices,
    _member_test_tops of the slices)."""
    w = np.exp(1j * _phase_grid(a.n_vars - 1)[0])
    s = _slice_stack(a, w)
    return w, s, _member_test_tops(s, rho)


def _first_out_slice(a: OperatorTuple, rho: float, tol: float, grid=None, batch=LEVEL1_FIRST_BATCH):
    """The level-1 pass of membership_tuple over the first phase grid
    (``grid``, else _first_grid): the first grid slice decided Out
    (_first_out) among those that _level1_failures does not show to be
    members.  Returns (phases, verdict) of that slice, or (None, None), and
    the counters (with the slice's phases).  Crossings are solved in
    batches of ``batch``, 2 batch, ... slices (one if None) up to the
    witness's: an Out triple's witness is most often among the first
    slices solved, while a pair In solves them all, so pairs take one."""
    w, s, top = grid or _first_grid(a, rho)
    solves = {"slice_crossing_solves": 0}
    stats = {"level1_crossing_solves": 0, "level1_memberships": 0}
    i, v = _first_out(s, _level1_failures(s, rho, solves, top=top, batch=batch), rho, tol, stats)
    stats["level1_crossing_solves"] = solves["slice_crossing_solves"]
    if v is None:
        return None, None, stats
    return w[i], v, {**stats, "slice_w": _slice_phases_json(w[i])}


def _cell_floor(eps, rho: float, target: float = 0.0):
    """Floor F such that a slice S whose kernel stays at or above F on the
    closed disk keeps every slice within ``eps`` of it (in norm) at or above
    ``target``: F = target + 2 eps sqrt(1 + q target) + q eps^2, q = rho-2,
    or +inf where no such F below rho follows from the bound (eps may be an
    array).  At target 0 it is Delta = 2 eps + q eps^2.

    For q != 0, k = q (zS - beta I)*(zS - beta I) - I/q with
    beta = (rho-1)/q, so lambda_min k = q sigma^2 - 1/q with sigma the
    least (q > 0) or largest (q < 0) singular value of zS - beta I, which
    moves by at most |z| eps <= eps when S does; at q = 0, k = 2 I - (zS +
    (zS)*) moves by at most 2 eps.  Hence _cell_bound(F, eps) = target.
    The q < 0 branch needs sqrt(1 + q target) + q eps > 0, |q| eps < 1 at
    target 0.  F must lie below rho: k(0) = rho I, and at rho <= 2, where
    lambda_min k is concave along each radius, a kernel at or above F on
    the circle is at or above min(rho, F) on the disk."""
    q = rho - 2
    root = np.sqrt(1 + q * target)
    floor = target + 2 * eps * root + q * eps ** 2
    return np.where((root + q * eps > 0) & (floor < rho), floor, np.inf)


def _cell_bound(f, eps, rho: float):
    """G(f, eps) = f - 2 eps sqrt(1 + q f) + q eps^2, q = rho-2, f capped at
    rho: a lower bound on lambda_min k over the closed disk for every slice
    within ``eps`` of one whose kernel stays at or above f there
    (_cell_floor), -1/q at q > 0 where q eps exceeds sqrt(1 + q f), the
    least value k takes."""
    q = rho - 2
    f = np.minimum(f, rho)
    root = np.sqrt(1 + q * f)
    bound = f - 2 * eps * root + q * eps ** 2
    return np.where(root >= q * eps, bound, -1 / q if q > 0 else bound)


def _pair_cells(a: OperatorTuple, rho: float, tol: float):
    """Pair membership by cells over the circle of phases w of the slices
    S(w) = A_1 + w A_2: (phases, verdict, counters) as _first_out_slice,
    with the In verdict of the cells ("torus-slice+cells"), or (None, None,
    counters) when a slice that the member test cannot place above 0 is
    decided In by membership_single (within tol of the boundary).

    The level-1 pass over the first phase grid (_first_out_slice) runs
    first, for Out.  Each grid phase c is then the centre of a cell of
    half-width h = pi/SLICE_POINTS, whose slices lie within
    eps = 2 sin(h/2) ||A_2|| of S(c).  A centre that passes the member test
    at the per-row floor _cell_floor(eps, rho, CELL_RAISE Delta),
    Delta = _cell_floor(eps, rho), proves that every slice of its cell
    keeps its kernel at or above CELL_RAISE Delta on the closed disk.  A cell whose centre fails, or
    whose floor is +inf, is split in two; the new centres take the floor
    test first, and those that fail it the floor-0 test, for Out
    (_first_out).  A cell whose centre passes floor 0 with
    _cell_bound(0, eps) >= -tol stops splitting, with that bound.  The
    margin is the least bound, a proven lower bound on every slice's disk
    minimum, and the verdict In, Certified.  Past CELL_BUDGET cell slices
    it is In, NecessaryOnly, with the cells left (``cells_unproven``), and
    the margin covers the proven cells and the centres tested (0)."""
    grid = _, s, top = _first_grid(a, rho)
    w, v, stats = _first_out_slice(a, rho, tol, grid, batch=None)
    if v is not None or stats["level1_memberships"]:
        return w, v, stats
    theta, h = _phase_grid(1)[0][:, 0], np.full(SLICE_POINTS, np.pi / SLICE_POINTS)
    norm, solves = op_norm(a.mats[1]), {"slice_crossing_solves": 0}
    cells = {"slice_points": len(theta), "cell_slices": len(theta), "cell_rounds": 0, "cell_crossing_solves": 0,
             "cells_unproven": 0}
    proven, fresh = [], False
    while theta.size:
        cells["cell_rounds"] += 1
        eps = 2 * np.sin(h / 2) * norm
        delta = _cell_floor(eps, rho)
        target = CELL_RAISE * np.where(np.isfinite(delta), delta, 0.0)
        floor = _cell_floor(eps, rho, target)
        failed = ~np.isfinite(floor)
        test = np.flatnonzero(~failed)
        for rows, _, _ in _level1_failures(s[test], rho, solves, floor[test], top[test]):
            failed[test[rows]] = True
        keep = ~failed
        proven.append(target[keep])
        if fresh and failed.any():
            idx = np.flatnonzero(failed)
            i, v = _first_out(s[idx], _level1_failures(s[idx], rho, solves, top=top[idx]), rho, tol, stats)
            if v is not None or stats["level1_memberships"]:
                cells["cell_crossing_solves"] = solves["slice_crossing_solves"]
                if v is None:
                    return None, None, {**stats, **cells}
                wi = np.exp(1j * theta[idx[i]])[None]
                return wi, v, {**stats, **cells, "slice_w": _slice_phases_json(wi)}
        bound = _cell_bound(0.0, eps, rho)
        stop = failed & (bound >= -tol)
        proven.append(bound[stop])
        split = failed & ~stop
        if cells["cell_slices"] + 2 * np.count_nonzero(split) > CELL_BUDGET:
            cells["cells_unproven"] = int(np.count_nonzero(split))
            break
        h = np.repeat(h[split] / 2, 2)
        theta = np.repeat(theta[split], 2) + h * np.tile([-1.0, 1.0], np.count_nonzero(split))
        s = _slice_stack(a, np.exp(1j * theta)[:, None])
        top = _member_test_tops(s, rho)
        cells["cell_slices"] += theta.size
        fresh = True
    bounds = np.concatenate(proven)
    if cells["cells_unproven"]:
        margin, exactness = float(bounds.min(initial=0.0)), NECESSARY_ONLY
    else:
        margin, exactness = float(bounds.min()), CERTIFIED
    cells["cell_crossing_solves"] = solves["slice_crossing_solves"]
    cert = {"method": CELLS_METHOD, **stats, **cells, "kernel_margin": margin, "tol": tol}
    return None, MembershipVerdict(IN, margin, cert, exactness), cert


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
    puts the tuple out of the class.  The level-1 pass (_first_out_slice)
    comes first and returns Out at the first grid slice that fails, with
    its phases; its margin is lambda_min k at the witness, an attained
    value (at least the slice's disk minimum), unless membership_single
    decided that slice.  For N >= 3 it stops at its witness's crossing
    batch; only ``level1_crossing_solves`` depends on the batches.

    A pair then goes on to the phase cells (_pair_cells, method
    "torus-slice+cells"): each first-grid phase is the centre of a cell,
    and a centre that passes the member test at the per-row floor of
    the completed square (_cell_floor) proves that every slice of its cell
    is a member; the others are split, and a new centre that fails floor 0
    can be the Out witness.  An In margin is then a proven lower bound on
    every slice's disk minimum (the least cell bound), and past CELL_BUDGET
    cell slices the In verdict is NecessaryOnly, with the cells left in
    ``cells_unproven``.  A pair within tol of the boundary, some slice of
    which membership_single decides In although the member test cannot
    place it above 0, and a tuple with N >= 3, are decided on the worst
    slice of the phase search (_qep_theta_max, the same search as
    w_rho_tuple's) by membership_single; that pair In rests on the phases
    searched, so it is NecessaryOnly.

    Slices decide a pair: by the two-variable von Neumann inequality
    (Ando) membership is sup ||phi(zA)|| <= 1 on the closed bidisk, and by
    the maximum principle that holds iff every slice is a member.  If every
    slice is, the spectral radius of zA is at most 1 on the torus, hence on
    the bidisk (it is plurisubharmonic), while a pole of phi needs the
    eigenvalue rho/(rho-1) of zA, of modulus above 1 for rho > 1.  For
    rho < 1 member slices have ||zA|| <= rho, which excludes poles the same
    way; at rho = 1, phi = -zA has none.

    For N >= 3 a worst slice that passes is followed by budget
    substitutions A(C) of sampled commuting tuples (drawn once per process,
    see sample_commuting_tuple; certificate ``substitutions``); a passing
    verdict is then NecessaryOnly.  Each sample size's stack goes through
    the slices' member test at level 1 (_level1_failures) with the worst
    slice's kernel margin as its floor (``substitution_crossing_solves``),
    which returns every substitution whose disk minimum may lie below that
    margin: only those can be the Out witness or lower the margin.  They get
    their disk minimum (``disk_minima``, not the member test's values) in
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
    floor = float(_kernel_norm_floor(norm_sum, rho))
    if floor > SCREEN_ROUND_GUARD * a.dim * _kernel_scale(norm_sum, rho):
        cert = {"method": "norm-bound", "norm_sum": norm_sum, "kernel_margin": floor, "tol": tol}
        return MembershipVerdict(IN, floor, cert, CERTIFIED)
    w, v, spec = (_pair_cells if a.n_vars == 2 else _first_out_slice)(a, rho, tol)
    if v is not None and v.certificate["method"] == CELLS_METHOD:
        return v
    if v is None:
        b, w, _, _, worst = _worst_slice(a, rho)
        v, spec = membership_single(b, rho, tol), {**worst, **spec}
    z = complex(*v.certificate["witness_z"])
    cert = {**v.certificate, **spec, "method": "torus-slice+" + v.certificate["method"],
            "witness_z": [[z.real, z.imag]] + [[float((z * x).real), float((z * x).imag)] for x in w]}
    if a.n_vars > 2:
        cert.update(method=cert["method"] + "+commuting-substitution", budget=budget, substitutions=0,
                    substitution_crossing_solves=0, disk_minima=0)
    if v.decision == OUT:
        return MembershipVerdict(OUT, v.margin, cert, CERTIFIED)
    if a.n_vars == 2:
        return MembershipVerdict(IN, v.margin, cert, NECESSARY_ONLY)

    samples = sample_commuting_tuples(a.n_vars, budget)
    solves, failing = {"slice_crossing_solves": 0}, {}
    for idx, stack in _substitutions(a, samples):
        for rows, _, _ in _level1_failures(stack, rho, solves, v.margin):
            failing.update((idx[i], stack[i]) for i in rows)
    cert.update(substitutions=len(samples), substitution_crossing_solves=solves["slice_crossing_solves"])
    margin = v.margin
    for i in sorted(failing):
        cert["disk_minima"] += 1
        km = kernel_margin(failing[i], rho)
        if km < -tol:
            cert["witness_sample_dim"] = samples[i].dim
            return MembershipVerdict(OUT, km, cert, CERTIFIED)
        margin = min(margin, km)
    return MembershipVerdict(IN, margin, cert, NECESSARY_ONLY)


def w_rho_tuple(a: OperatorTuple, rho: float, width: float = DEFAULT_WIDTH) -> RadiusReport:
    """Tuple radius bracket.

    N = 1 delegates to w_rho.  For N >= 2 the bracket comes from the search
    over the torus slices A_1 + w_2 A_2 + ... + w_N A_N (_worst_slice; see
    membership_tuple).  lo is the largest root attained less the radius
    gap, RADIUS_GAP (1 + max(1, 2/rho - 1)) sum ||A_k|| and at most width/4.
    It is proven: a slice that is not a member puts the tuple out of the
    class.  For a pair the largest w_rho of the slices is the radius, and hi
    is the search's largest elimination level (``certified_level``), at
    which every slice searched passes the member test; between the phases
    searched it rests on the search (``hi_basis`` "phase-search"), unlike
    a pair In verdict, which the phase cells prove.  Its bracket is at
    least the search's level gap (SLICE_GAP, relative) wide, whatever the
    width.

    N >= 3: hi is the bound sum ||A_k|| max(1, 2/rho - 1): for commuting
    contractions C, ||A(C)|| <= sum ||A_k||, and
    w_rho(T) <= max(1, 2/rho - 1) ||T||.  The substitutions of
    A/sum ||A_k|| with RADIUS_BUDGET sampled commuting tuples go through
    the slices' level-set search (_slices_max, counted as
    ``substitution_*``), one stack per sample size, from the slices' root
    as the value attained.  lo rises to a substitution's attained root less
    the gap where that is larger (w_rho(A(C)) <= w_rho(A) for commuting
    strict contractions C).  ``necessary_estimate`` is the largest
    elimination level, above which every sampled substitution passes.
    """
    _check_positive(rho=rho, width=width)
    if a.n_vars == 1:
        return w_rho(a.mats[0], rho, width)
    start = time.perf_counter()
    method = "torus-slice+levelset" if a.n_vars == 2 else "torus-slice+commuting-substitution"
    norm_sum = a.norm_sum()
    if norm_sum == 0.0:
        return RadiusReport(0.0, 0.0, method, {"width": width}, time.perf_counter() - start)
    _, _, root, level, spec = _worst_slice(a, rho)
    grid_spec, value = {**spec, "width": width}, root / norm_sum
    bound = max(1.0, 2.0 / rho - 1.0)
    if a.n_vars == 2:
        hi = grid_spec["certified_level"] = level
        grid_spec["hi_basis"] = "phase-search"
    else:
        grid_spec.update(budget=RADIUS_BUDGET, substitution_levels=0, substitution_crossing_solves=0,
                         substitution_root_solves=0)
        top, samples = value, sample_commuting_tuples(a.n_vars, RADIUS_BUDGET, dims=(2, 3))
        for _, stack in _substitutions(a.scale(1 / norm_sum), samples):
            run = _slices_max(stack, rho, (value, 0.0))
            for key in ("levels", "crossing_solves", "root_solves"):
                grid_spec["substitution_" + key] += run["slice_" + key]
            # at rho = 1 the levels are the norms, which may lie below the value
            value, top = run["value"], max(top, run["value"], run["levels"].max())
        grid_spec["necessary_estimate"] = top * norm_sum
        hi = max(top, bound) * norm_sum
    gap = min(RADIUS_GAP * (1 + bound), width / (4 * norm_sum))
    return RadiusReport((value - gap) * norm_sum, hi, method, grid_spec, time.perf_counter() - start)
