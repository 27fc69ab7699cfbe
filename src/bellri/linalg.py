"""Small dense symmetric/Hermitian kernel: PSD tests, eigenvalues, Schur complements.

Every matrix inequality in this package reduces to positive semidefiniteness
of a covariance-style block matrix of dimension 2..16: the r' context
matrices, the bordered n-party matrix and its Schur reduction, and the
quantum 3x3 Gram block. This module validates those blocks (square, finite,
(conj-)symmetric, n <= 16) and hands the arithmetic to LAPACK through NumPy:
the symmetric/Hermitian eigensolver for eigenvalues and PSD decisions, and
Cholesky plus a linear solve for Schur complements.

PSD tolerance is relative: a matrix passes when its minimum eigenvalue is
>= -tol * max(1, spectral norm). The correlation bounds checked downstream
sit exactly on PSD boundaries in their saturation cases, so an absolute zero
test would flap.

The Schur complement needs a strictly positive definite leading block. Its
pivot rule is strict: the block is rejected with DegeneratePivotError when
Cholesky fails or when any squared pivot |L_jj|^2 is <= 1e-13 times the
largest entry, so a near-singular block is reported instead of being
inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePivotError, MalformedInputError

__all__ = [
    "SymmetricMatrix",
    "HermitianMatrix",
    "is_psd",
    "eigenvalues_sym",
    "eigh_sym",
    "schur_complement",
    "spectral_norm",
]

MAX_DIM = 16


def _check_square_finite(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MalformedInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise MalformedInputError("empty matrix")
    if a.shape[0] > MAX_DIM:
        raise MalformedInputError(
            f"kernel handles small dense matrices (n <= {MAX_DIM}), got n={a.shape[0]}"
        )
    if not np.all(np.isfinite(a)):
        raise MalformedInputError("matrix has non-finite entries")


@dataclass(frozen=True)
class SymmetricMatrix:
    """Real symmetric matrix, exactly symmetric by construction."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data, dtype=np.float64)
        _check_square_finite(a)
        if not np.array_equal(a, a.T):
            raise MalformedInputError("entries are not exactly symmetric")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def from_array(cls, a, *, symmetrize: bool = False) -> "SymmetricMatrix":
        """Wrap ``a``; with ``symmetrize`` the average (a + a.T)/2 is used."""
        a = np.asarray(a, dtype=np.float64)
        _check_square_finite(a)
        if symmetrize:
            a = 0.5 * (a + a.T)
        return cls(a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class HermitianMatrix:
    """Complex Hermitian matrix; diagonal imaginary parts are exactly zero."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data, dtype=np.complex128)
        _check_square_finite(a)
        if not np.array_equal(a, a.conj().T):
            raise MalformedInputError("entries are not exactly conjugate-symmetric")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def from_array(cls, a, *, symmetrize: bool = False) -> "HermitianMatrix":
        a = np.array(a, dtype=np.complex128)
        _check_square_finite(a)
        if symmetrize:
            a = 0.5 * (a + a.conj().T)
        # exact-zero the diagonal imaginary parts so the invariant holds
        d = np.arange(a.shape[0])
        a[d, d] = a[d, d].real
        return cls(a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


Matrix = SymmetricMatrix | HermitianMatrix


def _coerce(m) -> np.ndarray:
    """Accept a wrapper type or a raw array; return an exactly (conj-)symmetric ndarray."""
    if isinstance(m, (SymmetricMatrix, HermitianMatrix)):
        return m.data
    a = np.asarray(m)
    if np.iscomplexobj(a):
        a = a.astype(np.complex128)
        _check_square_finite(a)
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.conj().T).max() > 1e-10 * scale:
            raise MalformedInputError("matrix is not Hermitian")
        a = 0.5 * (a + a.conj().T)
        d = np.arange(a.shape[0])
        a[d, d] = a[d, d].real
        return a
    a = a.astype(np.float64)
    _check_square_finite(a)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise MalformedInputError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def eigh_sym(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition m = V diag(w) V* with w ascending."""
    return np.linalg.eigh(_coerce(m))


def eigenvalues_sym(m) -> np.ndarray:
    """Eigenvalues of a symmetric/Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_coerce(m))


def spectral_norm(m) -> float:
    """Spectral norm (largest absolute eigenvalue)."""
    w = eigenvalues_sym(m)
    return float(max(abs(w[0]), abs(w[-1])))


def is_psd(m, tol: float = 1e-9) -> bool:
    """True iff the minimum eigenvalue is >= -tol * max(1, spectral norm).

    Deterministic for a fixed input; raises MalformedInputError on
    non-finite entries and for tol < 0.
    """
    if not (tol >= 0.0) or not math.isfinite(tol):
        raise MalformedInputError(f"tol must be a nonnegative finite scalar, got {tol}")
    w = eigenvalues_sym(m)
    lam_min, lam_max = float(w[0]), float(w[-1])
    norm = max(abs(lam_min), abs(lam_max))
    return lam_min >= -tol * max(1.0, norm)


# ---------------------------------------------------------------------------
# Schur complement
# ---------------------------------------------------------------------------


def _cholesky_strict(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a strictly positive definite block.

    Raises DegeneratePivotError when the factorization fails or any squared
    pivot is not decisively positive; the caller is expected to special-case
    zero-variance blocks itself.
    """
    floor = 1e-13 * max(float(np.abs(a).max()), 1e-300)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DegeneratePivotError("leading block is not strictly positive definite") from exc
    pivots = np.abs(np.diagonal(low)) ** 2
    for j, s in enumerate(pivots):
        if s <= floor:
            raise DegeneratePivotError(
                f"leading block is not strictly positive definite (pivot {j}: {s:.3e})"
            )
    return low


def schur_complement(m, block_split: int) -> Matrix:
    """Schur complement D - C A^{-1} C* of the partition [[A, C*], [C, D]].

    ``block_split`` is the size of the leading block A, which must be
    strictly positive definite. For A > 0 the input is PSD iff the returned
    complement is PSD.
    """
    a = _coerce(m)
    n = a.shape[0]
    if not (0 < block_split < n):
        raise MalformedInputError(f"block_split must be in 1..{n - 1}, got {block_split}")
    k = block_split
    lead = a[:k, :k]
    cross = a[k:, :k]          # C, shape (n-k, k)
    trail = a[k:, k:]          # D
    low = _cholesky_strict(lead)
    # A = L L*, so C A^{-1} C* = W* W with W = L^{-1} C*
    w = np.linalg.solve(low, cross.conj().T)
    comp = trail - w.conj().T @ w
    if isinstance(m, SymmetricMatrix) or not np.iscomplexobj(a):
        return SymmetricMatrix.from_array(np.real(comp), symmetrize=True)
    return HermitianMatrix.from_array(comp, symmetrize=True)
