"""Verification and construction of dilations with a compression factor.

A "big" tuple on an ambient space dilates a "small" tuple at level rho when
every (symmetrized or literal) word of the small tuple equals rho times the
compression of the corresponding word of the big tuple.  Constructors here
supply concrete finite truncations: a cyclic shift standing in for the
bilateral shift, and a binary-tree stack of shifted blocks realizing a
uniform isometric dilation of the staircase pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .linalg import Embedding, as_matrix
from .pencil import MAX_WORD_LENGTH, OperatorTuple, sym_multipowers

SYMMETRIZED = "Symmetrized"
UNIFORM = "Uniform"

PASS_RESIDUAL = 1e-9
UNITARITY_RESIDUAL = 1e-10
MAX_UNIFORM_WORD = 6


@dataclass(frozen=True)
class DilationWitness:
    """A dilation check; *_products count its (dim x dim) @ (dim x k) block products."""

    small: OperatorTuple
    big: OperatorTuple
    embedding: Embedding
    rho: float
    verified_word_length: int
    max_residual: float
    mode: str
    worst_word: tuple = ()
    small_products: int = 0
    big_products: int = 0

    @property
    def passed(self) -> bool:
        return self.max_residual < PASS_RESIDUAL

    def to_json(self) -> dict:
        """The report; it cites each input by shape and serialize.matrices_sha256."""
        from .serialize import matrices_sha256

        inputs = {"small": self.small.mats, "big": self.big.mats, "embedding": (self.embedding.basis,)}
        return {
            "inputs": {name: {"shape": [len(mats), *mats[0].shape], "sha256": matrices_sha256(mats)}
                       for name, mats in inputs.items()},
            "products": {"small": self.small_products, "big": self.big_products},
            "rho": self.rho,
            "verified_word_length": self.verified_word_length,
            "max_residual": self.max_residual,
            "mode": self.mode,
            "worst_word": list(self.worst_word),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class TorusUnitarityCertificate:
    residual_sum_right: float
    residual_sum_left: float
    cross_residual_left: float
    cross_residual_right: float

    @property
    def passed(self) -> bool:
        return max(
            self.residual_sum_right,
            self.residual_sum_left,
            self.cross_residual_left,
            self.cross_residual_right,
        ) < UNITARITY_RESIDUAL

    def to_json(self) -> dict:
        return {
            "residual_sum_right": self.residual_sum_right,
            "residual_sum_left": self.residual_sum_left,
            "cross_residual_left": self.cross_residual_left,
            "cross_residual_right": self.cross_residual_right,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class PopescuCertificate:
    residual_isometry: float
    residual_orthogonality: float
    range_sum_min_eig: float
    consistency_flag: bool

    @property
    def passed(self) -> bool:
        return (
            self.residual_isometry < UNITARITY_RESIDUAL
            and self.residual_orthogonality < UNITARITY_RESIDUAL
            and self.range_sum_min_eig >= -UNITARITY_RESIDUAL
        )

    def to_json(self) -> dict:
        return {
            "residual_isometry": self.residual_isometry,
            "residual_orthogonality": self.residual_orthogonality,
            "range_sum_min_eig": self.range_sum_min_eig,
            "consistency_flag": self.consistency_flag,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SimilarityReport:
    residual: float
    conditioning: float

    @property
    def passed(self) -> bool:
        return self.residual < PASS_RESIDUAL

    def to_json(self) -> dict:
        return {"residual": self.residual, "conditioning": self.conditioning, "passed": self.passed}


@dataclass(frozen=True)
class DivergenceReport:
    norms: list
    exponent: float
    classification: str
    overflow: bool = False

    def to_json(self) -> dict:
        return {
            "norms": self.norms,
            "exponent": self.exponent,
            "classification": self.classification,
            "overflow": self.overflow,
        }


def _check(small: OperatorTuple, big: OperatorTuple, e: Embedding, name: str, n: int, cap: int) -> None:
    if n < 1:
        raise InputError(f"{name} must be >= 1")
    if n > cap:
        raise CapacityError(f"{name} = {n} exceeds cap {cap}")
    if small.n_vars != big.n_vars:
        raise InputError("small and big tuples must have the same number of variables")
    if e.ambient_dim != big.dim or e.dim != small.dim:
        raise InputError("embedding dims do not match the small/big tuples")


def _worse(worst: tuple, s, b, e: Embedding, rho: float, order: int, keys) -> tuple:
    """The least (-residual, order, key) of worst and of ||S_j - rho basis* B_j|| over
    stacks of (k x k) and (ambient x k) blocks: the first worst by order, then key."""
    resid = np.linalg.norm(s - rho * (e.basis.conj().T @ b), 2, axis=(1, 2))
    j = int(np.argmax(resid))
    return min(worst, (-float(resid[j]), order, keys[j]))


def verify_rho_dilation(small: OperatorTuple, big: OperatorTuple, e: Embedding,
                        rho: float, t_max: int) -> DilationWitness:
    """Check the symmetrized-multipower compression identity up to |t| = t_max,
    with A^t formed on C^k and on the basis (pencil.sym_multipowers), never ambient."""
    _check(small, big, e, "t_max", t_max, MAX_WORD_LENGTH)
    worst, small_products, big_products = (-0.0, 0, ()), 0, 0  # all 0: worst_word ()
    for (ts, s, ns), (_, b, nb) in zip(sym_multipowers(small, np.eye(e.dim), t_max),
                                       sym_multipowers(big, e.basis, t_max)):
        worst = _worse(worst, s, b, e, rho, sum(ts[0]), ts)
        small_products, big_products = small_products + ns, big_products + nb
    return DilationWitness(small, big, e, rho, t_max, -worst[0], SYMMETRIZED, worst[2],
                           small_products, big_products)


def verify_uniform_rho_dilation(small: OperatorTuple, big: OperatorTuple, e: Embedding,
                                rho: float, n_max: int) -> DilationWitness:
    """Check the compression identity for every literal word of length <= n_max;
    worst_word is the first of largest residual by length, then lexicographically.

    V_{(i,) + w} = A_i V_w from V_() = basis (I on the small side), depth first over
    batches of at most ambient / k words: under n_max N ambient x ambient blocks held."""
    _check(small, big, e, "n_max", n_max, MAX_UNIFORM_WORD)
    small_mats, big_mats = np.stack(small.mats)[:, None], np.stack(big.mats)[:, None]
    stack, worst, products = [([()], np.eye(e.dim, dtype=complex)[None], e.basis[None])], (-0.0, 0, ()), 0
    while stack:
        words, s, b = stack.pop()
        words = [(i,) + w for i in range(small.n_vars) for w in words]
        s, b = (small_mats @ s).reshape(-1, *s.shape[1:]), (big_mats @ b).reshape(-1, *b.shape[1:])
        worst, products = _worse(worst, s, b, e, rho, len(words[0]), words), products + len(words)
        m = len(words) if len(words) * e.dim <= e.ambient_dim else len(words) // small.n_vars
        if len(words[0]) < n_max:
            stack.extend((words[j:j + m], s[j:j + m], b[j:j + m]) for j in reversed(range(0, len(words), m)))
    return DilationWitness(small, big, e, rho, n_max, -worst[0], UNIFORM, worst[2], products, products)


def torus_unitarity(big: OperatorTuple) -> TorusUnitarityCertificate:
    """Exact Fourier-coefficient test: the pencil is unitary at every torus
    point iff sum A_k* A_k = I = sum A_k A_k* and all cross products vanish.
    """
    d = big.dim
    eye = np.eye(d)
    left = sum(m.conj().T @ m for m in big.mats)
    right = sum(m @ m.conj().T for m in big.mats)
    cross_l = 0.0
    cross_r = 0.0
    for k in range(big.n_vars):
        for j in range(big.n_vars):
            if k == j:
                continue
            cross_l = max(cross_l, float(np.linalg.norm(big.mats[k].conj().T @ big.mats[j], 2)))
            cross_r = max(cross_r, float(np.linalg.norm(big.mats[k] @ big.mats[j].conj().T, 2)))
    return TorusUnitarityCertificate(
        residual_sum_right=float(np.linalg.norm(right - eye, 2)),
        residual_sum_left=float(np.linalg.norm(left - eye, 2)),
        cross_residual_left=cross_l,
        cross_residual_right=cross_r,
    )


def popescu_conditions(v: OperatorTuple, interior: Embedding | None = None) -> PopescuCertificate:
    """Residuals of the row-isometry conditions for a candidate dilation tuple.

    ``interior`` restricts the isometry/orthogonality residuals to a
    subspace (used for finite truncations whose boundary rows are zeroed):
    they are ||(V_k* V_j - delta_kj I) B|| on its orthonormal basis B, which
    equal the norms on the projector B B*.
    """
    eye = np.eye(v.dim)
    basis = eye if interior is None else interior.basis
    vb = v.mats if interior is None else [m @ basis for m in v.mats]
    resid_iso = max(float(np.linalg.norm(m.conj().T @ mb - basis, 2)) for m, mb in zip(v.mats, vb))
    resid_orth = max((float(np.linalg.norm(v.mats[k].conj().T @ vb[j], 2))
                      for k in range(v.n_vars) for j in range(v.n_vars) if k != j), default=0.0)
    range_sum = eye - sum(m @ m.conj().T for m in v.mats)
    range_sum = (range_sum + range_sum.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(range_sum)[0])
    passes_12 = resid_iso < UNITARITY_RESIDUAL and resid_orth < UNITARITY_RESIDUAL
    passes_12p = resid_iso < UNITARITY_RESIDUAL and min_eig >= -UNITARITY_RESIDUAL
    return PopescuCertificate(resid_iso, resid_orth, min_eig, passes_12 == passes_12p)


def cyclic_shift(m: int) -> np.ndarray:
    """The unitary cyclic shift e_j -> e_{j+1 mod m} on C^m."""
    u = np.zeros((m, m), dtype=complex)
    for j in range(m):
        u[(j + 1) % m, j] = 1.0
    return u


def nilpotent_jump(rho: float) -> np.ndarray:
    """[[0, rho], [0, 0]]: norm rho, square zero, radius w_rho = 1."""
    return np.array([[0.0, rho], [0.0, 0.0]], dtype=complex)


def build_shift_unitary_rho_dilation(rho: float, m: int):
    """Cyclic-shift dilation of the 2x2 nilpotent jump of norm rho.

    Returns (big, embedding): big is the 1-tuple holding the cyclic shift
    on C^m, and the embedding selects (e_1, e_0) as the ordered basis of
    the distinguished 2-dimensional subspace.  The compression identity
    B^n = rho * P U^n|X holds exactly for 1 <= n <= m - 2 and is allowed
    to fail at n = m - 1 (cyclic wraparound).
    """
    if m < 8:
        raise CapacityError("ambient size m must be >= 8")
    if rho <= 0:
        raise InputError("rho must be positive")
    u = cyclic_shift(m)
    e = Embedding.from_coordinates(m, [1, 0])
    return OperatorTuple((u,)), e


def build_staircase_pair(rho: float) -> OperatorTuple:
    """The 4x4 pair A_1 = [[B, 0], [0, 0]], A_2 = [[0, 0], [B, 0]].

    B is the nilpotent jump of norm rho; the pair's pencil has norm
    sqrt(2)*rho at every torus point.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    b = nilpotent_jump(rho)
    z = np.zeros((2, 2), dtype=complex)
    a1 = np.block([[b, z], [z, z]])
    a2 = np.block([[z, z], [b, z]])
    return OperatorTuple((a1, a2))


def build_staircase_isometric_dilation(rho: float, m: int, depth: int):
    """Finite truncation of the binary-tree isometric dilation of the
    staircase pair.

    The ambient space stacks ``depth`` copies of C^m.  V_1 maps summand j
    to summand 2j-1 and V_2 maps summand j to summand 2j (1-indexed),
    each acting by the cyclic shift; blocks whose target summand exceeds
    the truncation are zero.  Returns (v, embedding, interior): the
    embedding places the 4-dimensional small space inside the first two
    summands via the shift coordinates (e_1, e_0); ``interior`` spans the
    summands whose images under both V_1 and V_2 survive truncation, where
    the isometry conditions hold exactly.
    """
    if depth < 3:
        raise CapacityError("depth must be >= 3")
    if m < 8:
        raise CapacityError("ambient size m must be >= 8")
    u = cyclic_shift(m)
    dim = depth * m
    v1 = np.zeros((dim, dim), dtype=complex)
    v2 = np.zeros((dim, dim), dtype=complex)
    for j in range(1, depth + 1):
        t1, t2 = 2 * j - 1, 2 * j
        if t1 <= depth:
            v1[(t1 - 1) * m : t1 * m, (j - 1) * m : j * m] = u
        if t2 <= depth:
            v2[(t2 - 1) * m : t2 * m, (j - 1) * m : j * m] = u
    # small space: (e_1, e_0) inside summand 1, then summand 2
    coords = [1, 0, m + 1, m]
    e = Embedding.from_coordinates(dim, coords)
    interior_summands = [j for j in range(1, depth + 1) if 2 * j <= depth]
    interior_coords = [
        (j - 1) * m + i for j in interior_summands for i in range(m)
    ]
    interior = Embedding.from_coordinates(dim, interior_coords)
    return OperatorTuple((v1, v2)), e, interior


def verify_similarity(a: OperatorTuple, b: OperatorTuple, s) -> SimilarityReport:
    """Residuals of A_k = S^{-1} B_k S in the multiplied form S A_k = B_k S."""
    smat = as_matrix(s)
    if smat.shape[0] != smat.shape[1]:
        raise InputError("similarity S must be square")
    if a.n_vars != b.n_vars:
        raise InputError("tuples must have the same number of variables")
    svals = np.linalg.svd(smat, compute_uv=False)
    if float(svals[-1]) <= 1e-12:
        raise InputError("similarity S is numerically singular")
    resid = 0.0
    for ak, bk in zip(a.mats, b.mats):
        resid = max(resid, float(np.linalg.norm(smat @ ak - bk @ smat, 2)))
    return SimilarityReport(resid, float(svals[0] / svals[-1]))


NORM_CAP_OVERFLOW = 1e300


def divergence_probe(mat, n_max: int = 64) -> DivergenceReport:
    """Norm sequence ||M^n|| with a tail growth exponent and classification.

    The exponent is the tail slope of log ||M^n|| between n_max/2 and
    n_max; a monotone growing tail with exponent > 0.01 classifies as
    Diverges, a non-growing tail with small exponent as Bounded.
    """
    a = as_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise InputError("divergence probe input must be square")
    if n_max > 64:
        raise InputError("n_max is capped at 64")
    norms = []
    p = np.eye(a.shape[0], dtype=complex)
    overflow = False
    for _ in range(n_max):
        p = p @ a
        nrm = float(np.linalg.norm(p, 2))
        if not math.isfinite(nrm) or nrm > NORM_CAP_OVERFLOW:
            norms.append(NORM_CAP_OVERFLOW)
            overflow = True
            break
        norms.append(nrm)
        if nrm == 0.0:
            break

    if overflow:
        return DivergenceReport(norms, math.inf, "Diverges", True)
    if norms[-1] == 0.0:
        return DivergenceReport(norms + [0.0] * (n_max - len(norms)), 0.0, "Bounded")

    half = max(1, len(norms) // 2)
    tail = norms[half - 1 :]
    exponent = (math.log(norms[-1]) - math.log(norms[half - 1])) / (len(norms) - half)
    monotone_up = all(b >= a_ * (1 - 1e-12) for a_, b in zip(tail, tail[1:]))
    growing = tail[-1] > tail[0] * (1 + 1e-9)
    if exponent > 0.01 and monotone_up:
        return DivergenceReport(norms, exponent, "Diverges")
    if exponent <= 0.01 and not growing:
        return DivergenceReport(norms, exponent, "Bounded")
    return DivergenceReport(norms, exponent, "Inconclusive")


def build_nonsimilar_pair(eps: float) -> OperatorTuple:
    """The 3x3 pair whose pencil is nilpotent of degree 3.

    Entries are +-(1+eps)/sqrt(2); at eps = 0 the pair passes membership
    at every rho > 1 while for eps > 0 the product
    (A_1 + A_2)(A_1 - A_2) has powers growing like (1+eps)^(2n).
    """
    if eps < 0:
        raise InputError("eps must be nonnegative")
    c = (1 + eps) / math.sqrt(2)
    a1 = np.array([[0, c, 0], [0, 0, 0], [-c, 0, 0]], dtype=complex)
    a2 = np.array([[0, 0, c], [c, 0, 0], [0, 0, 0]], dtype=complex)
    return OperatorTuple((a1, a2))


def unitary_pencil_pair(dim: int = 2) -> OperatorTuple:
    """A pair whose pencil is unitary at every torus point: A_k = U P_k."""
    u = cyclic_shift(dim)
    p1 = np.zeros((dim, dim), dtype=complex)
    p2 = np.zeros((dim, dim), dtype=complex)
    half = dim // 2
    for i in range(half):
        p1[i, i] = 1.0
    for i in range(half, dim):
        p2[i, i] = 1.0
    return OperatorTuple((u @ p1, u @ p2))
