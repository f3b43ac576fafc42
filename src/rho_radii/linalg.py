"""Dense complex linear-algebra primitives.

Everything operates on plain numpy arrays of complex128.  Matrices are
always 2-d; "tuples" of operators live in :mod:`rho_radii.pencil`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Orthonormality tolerance for embedding bases (Gram matrix vs identity).
ORTHO_TOL = 1e-12

#: Hermitian symmetry tolerance for eigensolves.
HERM_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite complex 2-d array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def min_eig_hermitian(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input is symmetrized internally as (H + H*)/2; asymmetry beyond
    HERM_TOL (relative to the norm scale) is rejected.
    """
    a = _require_square(as_matrix(h))
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    asym = float(np.abs(a - a.conj().T).max(initial=0.0))
    if asym > HERM_TOL * scale:
        raise InputError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    sym = (a + a.conj().T) / 2
    return float(np.linalg.eigvalsh(sym)[0])


def spectral_radius(m) -> float:
    """Estimate of max |lambda| from the computed eigenvalues.

    Only an estimate: the eigenvalues of a defective matrix move by about
    eps^(1/k) for a Jordan block of size k, so a unitarily rotated 80-dim
    nilpotent Jordan block reads about 0.64 instead of 0.
    """
    a = _require_square(as_matrix(m))
    if a.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())


@dataclass(frozen=True)
class Embedding:
    """An orthonormal basis of a distinguished subspace of C^ambient_dim.

    ``basis`` is an (ambient_dim x k) matrix whose columns span the
    subspace; the compression of an ambient operator M to the subspace is
    basis* @ M @ basis.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] < b.shape[1]:
            raise InputError(
                f"embedding has more columns ({b.shape[1]}) than ambient dim ({b.shape[0]})"
            )
        gram = b.conj().T @ b
        if float(np.abs(gram - np.eye(b.shape[1])).max(initial=0.0)) > ORTHO_TOL:
            raise InputError("embedding basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def from_coordinates(ambient_dim: int, coords) -> "Embedding":
        """Embedding spanned by the listed standard basis vectors, in order."""
        b = np.zeros((ambient_dim, len(coords)), dtype=complex)
        for col, i in enumerate(coords):
            b[i, col] = 1.0
        return Embedding(b)

    @staticmethod
    def identity(dim: int) -> "Embedding":
        return Embedding(np.eye(dim, dtype=complex))


def compress(m, embedding: Embedding) -> np.ndarray:
    """Compression B* M B of an ambient operator to the embedded subspace."""
    a = _require_square(as_matrix(m))
    if a.shape[0] != embedding.ambient_dim:
        raise InputError(
            f"operator dim {a.shape[0]} != embedding ambient dim {embedding.ambient_dim}"
        )
    b = embedding.basis
    return b.conj().T @ a @ b
