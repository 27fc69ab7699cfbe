"""One PSD predicate for the small symmetric/Hermitian blocks of this package.

Every matrix inequality here reduces to positive semidefiniteness of a small
covariance-style block: the 2x2 shared-parameter block of each n-party
context, the 4x4 PR-box context matrices and the quantum 3x3 Gram block.
``_coerce`` is the single input check (square, non-empty, finite, symmetric
or Hermitian within 1e-10 relative); the arithmetic is LAPACK's
symmetric/Hermitian eigensolver through NumPy, which reads one triangle.

PSD tolerance is relative: a matrix passes when its minimum eigenvalue is
>= -tol * max(1, spectral norm). The correlation bounds checked downstream
sit exactly on PSD boundaries in their saturation cases, so an absolute zero
test would flap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MalformedInputError

__all__ = ["is_psd", "eigenvalues_sym"]


def _coerce(m) -> np.ndarray:
    """Validate ``m`` and return its average with its (conjugate) transpose."""
    a = np.asarray(m)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MalformedInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise MalformedInputError("empty matrix")
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise MalformedInputError("matrix has non-finite entries")
    adj = a.conj().T
    if np.abs(a - adj).max() > 1e-10 * max(1.0, scale):
        kind = "Hermitian" if np.iscomplexobj(a) else "symmetric"
        raise MalformedInputError(f"matrix is not {kind}")
    return 0.5 * (a + adj)


def eigenvalues_sym(m) -> np.ndarray:
    """Eigenvalues of a symmetric/Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_coerce(m))


def is_psd(m, tol: float = 1e-9) -> bool:
    """True iff the minimum eigenvalue is >= -tol * max(1, spectral norm).

    Deterministic for a fixed input; raises MalformedInputError on
    non-finite entries and for tol < 0.
    """
    if not (tol >= 0.0) or not math.isfinite(tol):
        raise MalformedInputError(f"tol must be a nonnegative finite scalar, got {tol}")
    w = eigenvalues_sym(m)
    lam_min, lam_max = float(w[0]), float(w[-1])
    return lam_min >= -tol * max(1.0, abs(lam_min), abs(lam_max))
