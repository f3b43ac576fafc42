"""Linear pencils, kernels, and the rational transforms attached to them.

An operator tuple A = (A_1, ..., A_N) of common dimension d is evaluated
through its pencil zA = z_1 A_1 + ... + z_N A_N.  This module supplies the
pencil itself, symmetrized multipowers A^t, the positivity kernel
k_rho(z, w), the Herglotz-type transform psi_rho and the Schur-type
transform phi_rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, PoleError
from .linalg import _check_positive, as_matrix

#: Default cap on |t| for multipowers and on word lengths.
MAX_WORD_LENGTH = 16

#: Smallest singular value below which a resolvent is treated as a pole.
POLE_TOL = 1e-12

#: Commutator-norm tolerance for accepting a tuple as commuting.
COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class OperatorTuple:
    """N square matrices of common dimension, treated as one tuple."""

    mats: tuple

    def __post_init__(self):
        ms = tuple(as_matrix(m) for m in self.mats)
        if not ms:
            raise InputError("operator tuple must contain at least one matrix")
        d = ms[0].shape[0]
        for m in ms:
            if m.shape != (d, d):
                raise InputError(
                    f"tuple entries must be square of common dimension, got {[x.shape for x in ms]}"
                )
        object.__setattr__(self, "mats", ms)

    @property
    def n_vars(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def __getitem__(self, k):
        return self.mats[k]

    def __iter__(self):
        return iter(self.mats)

    def scale(self, factor: complex) -> "OperatorTuple":
        return OperatorTuple(tuple(factor * m for m in self.mats))

    def commutator_residual(self) -> float:
        """max over pairs of || A_k A_j - A_j A_k || (spectral norm)."""
        comms = [self.mats[k] @ self.mats[j] - self.mats[j] @ self.mats[k]
                 for k in range(self.n_vars) for j in range(k + 1, self.n_vars)]
        if not comms:
            return 0.0
        return float(np.linalg.norm(np.stack(comms), 2, axis=(1, 2)).max())

    def max_norm(self) -> float:
        return float(np.linalg.norm(np.stack(self.mats), 2, axis=(1, 2)).max())

    def norm_sum(self) -> float:
        """sum_k ||A_k||, spectral norms summed in variable order."""
        return float(np.linalg.norm(np.stack(self.mats), 2, axis=(1, 2)).sum())


def eval_pencil(a: OperatorTuple, z) -> np.ndarray:
    """zA = sum_k z_k A_k."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.shape[0] != a.n_vars:
        raise InputError(f"point has length {z.shape[0]}, tuple has {a.n_vars} variables")
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for zk, mk in zip(z, a.mats):
        out += zk * mk
    return out


def word_product(a: OperatorTuple, word) -> np.ndarray:
    """A_{i_1} ... A_{i_n} for a word of 0-indexed letters."""
    out = np.eye(a.dim, dtype=complex)
    for k in word:
        out = out @ a.mats[k]
    return out


def sym_multipowers(a: OperatorTuple, tail, order: int):
    """Yield (ts, powers, products) for |t| = 1, ..., order: ts the multi-indices
    of that order, lexicographically, and powers[j] = A^{ts[j]} tail, formed as
    (t!/|t|!) Sigma_t tail from Sigma_t = sum over k with t_k >= 1 of
    A_k Sigma_{t - e_k} (Sigma_0 = I), the sum of the distinct words with counts
    t; products counts the (dim x dim) @ (dim x cols) block products formed."""
    ts, sums = [(0,) * a.n_vars], tail[None]
    for n in range(1, order + 1):
        bumped = [[t[:k] + (t[k] + 1,) + t[k + 1:] for t in ts] for k in range(a.n_vars)]
        nxt = sorted(set().union(*bumped))
        pos = {t: j for j, t in enumerate(nxt)}
        out = np.zeros((len(nxt),) + tail.shape, dtype=complex)
        for mk, kids in zip(a.mats, bumped):
            out[[pos[t] for t in kids]] += mk @ sums
        weights = np.array([math.prod(map(math.factorial, t)) for t in nxt]) / math.factorial(n)
        yield nxt, weights[:, None, None] * out, a.n_vars * len(ts)
        ts, sums = nxt, out


def sym_multipower(a: OperatorTuple, t) -> np.ndarray:
    """Symmetrized multipower A^t = (t!/|t|!) * sum over distinct words.

    For commuting tuples this equals the plain product A_1^t1 ... A_N^tN.
    """
    t = tuple(int(x) for x in t)
    if len(t) != a.n_vars:
        raise InputError(f"multi-index length {len(t)} != n_vars {a.n_vars}")
    if any(x < 0 for x in t):
        raise InputError("multi-index components must be nonnegative")
    order = sum(t)
    if order > MAX_WORD_LENGTH:
        raise CapacityError(f"|t| = {order} exceeds cap {MAX_WORD_LENGTH}")
    ts, powers = [t], np.eye(a.dim, dtype=complex)[None]  # order 0
    for ts, powers, _ in sym_multipowers(a, powers[0], order):
        pass
    return powers[ts.index(t)]


def k_rho_kernel(a: OperatorTuple, rho: float, z, w) -> np.ndarray:
    """rho*I - (rho-1)(zA + (wA)*) + (rho-2)(wA)*(zA).

    At w = z the value is Hermitian.
    """
    _check_positive(rho=rho)
    za = eval_pencil(a, z)
    wa_star = eval_pencil(a, w).conj().T
    eye = np.eye(a.dim, dtype=complex)
    return rho * eye - (rho - 1) * (za + wa_star) + (rho - 2) * (wa_star @ za)


def _resolve(m: np.ndarray, rhs: np.ndarray, point) -> np.ndarray:
    """Solve m @ x = rhs, raising PoleError when m is numerically singular."""
    smin = float(np.linalg.svd(m, compute_uv=False)[-1])
    if smin <= POLE_TOL:
        raise PoleError(f"resolvent singular (smallest singular value {smin:.3e})", point=point)
    return np.linalg.solve(m, rhs)


def psi_rho(a: OperatorTuple, rho: float, z) -> np.ndarray:
    """(1 - 2/rho) I + (2/rho) (I - zA)^{-1}."""
    _check_positive(rho=rho)
    za = eval_pencil(a, z)
    eye = np.eye(a.dim, dtype=complex)
    inv = _resolve(eye - za, eye, tuple(np.asarray(z).ravel()))
    return (1 - 2 / rho) * eye + (2 / rho) * inv


def phi_rho(a: OperatorTuple, rho: float, z) -> np.ndarray:
    """zA ((rho-1) zA - rho I)^{-1}."""
    _check_positive(rho=rho)
    za = eval_pencil(a, z)
    eye = np.eye(a.dim, dtype=complex)
    # right-multiplication by the inverse: solve the transposed system
    inv = _resolve((rho - 1) * za - rho * eye, eye, tuple(np.asarray(z).ravel()))
    return za @ inv
