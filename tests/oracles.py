"""Independent oracles the tests compare the library against.

Each builds the same quantity as a library function by a different route
(an explicit matrix whose PSD is the condition, a Cholesky-based Schur
complement, a four-sign closed form, a brute-force covariance), so a test can
check the two routes agree.
"""

import numpy as np

from bellri.correlators import CorrelatorTable, TripartiteCorrelatorTable
from bellri.errors import MalformedInputError
from bellri.lhv import _VERTEX_VALUES, LhvEnsemble
from bellri.linalg import is_psd
from bellri.multiparty import NPartyCorrelators
from bellri.ri import _halfwidth


class DegeneratePivotError(ArithmeticError):
    """Leading block of a Schur partition is singular or indefinite."""


def epsilon_four_signs(ct: CorrelatorTable) -> float:
    """The explicit four-sign form of ``epsilon_gap`` for disjoint intervals."""
    pe = ct.require_defined()
    center_diff = float(pe[0, 0] * pe[1, 0] - pe[0, 1] * pe[1, 1])
    h0 = _halfwidth(pe[0, 0], pe[1, 0])
    h1 = _halfwidth(pe[0, 1], pe[1, 1])
    return min(abs(center_diff + s0 * h0 + s1 * h1) for s0 in (1, -1) for s1 in (1, -1))


def ri_condition_matrix(ct: CorrelatorTable, j: int, r_prime: float) -> np.ndarray:
    """Normalized 3x3 matrix whose PSD is equivalent to r' in D_j."""
    pe = ct.require_defined()
    r0, r1 = float(pe[0, j]), float(pe[1, j])
    return np.array([[1.0, r1, r0], [r1, 1.0, r_prime], [r0, r_prime, 1.0]])


def ri_pair_matrix(ct: CorrelatorTable, r_prime: float) -> np.ndarray:
    """Block-diagonal 4x4 pairing both contexts at one shared r'.

    PSD iff r' is admissible for both remote settings simultaneously, the
    block form of the feasibility condition.
    """
    pe = ct.require_defined()
    p = np.array([[1.0, r_prime], [r_prime, 1.0]])
    blocks = []
    for j in (0, 1):
        rj = np.array([pe[0, j], pe[1, j]])
        blocks.append(p - np.outer(rj, rj))
    m = np.zeros((4, 4))
    m[:2, :2] = blocks[0]
    m[2:, 2:] = blocks[1]
    return m


def tripartite_condition_matrix(
    tct: TripartiteCorrelatorTable, j: int, k: int, r_prime: float
) -> np.ndarray:
    """Normalized 4x4 matrix (C_k, B_j, A_1, A_0) for one remote context."""
    ab = tct.pearson_ab
    ac = tct.pearson_ac
    bc = tct.pearson_bc
    return np.array(
        [
            [1.0, bc[j, k], ac[1, k], ac[0, k]],
            [bc[j, k], 1.0, ab[1, j], ab[0, j]],
            [ac[1, k], ab[1, j], 1.0, r_prime],
            [ac[0, k], ab[0, j], r_prime, 1.0],
        ]
    )


def product_cov_oracle(ens: LhvEnsemble) -> np.ndarray:
    """``product_cov_matrix`` by brute force: enumerate vertex products and form the covariance."""
    w = ens.weights
    z = np.stack(
        [
            _VERTEX_VALUES[:, 0] * _VERTEX_VALUES[:, 2],
            _VERTEX_VALUES[:, 1] * _VERTEX_VALUES[:, 2],
            _VERTEX_VALUES[:, 0] * _VERTEX_VALUES[:, 3],
            _VERTEX_VALUES[:, 1] * _VERTEX_VALUES[:, 3],
        ]
    )
    mu = z @ w
    return (z * w) @ z.T - np.outer(mu, mu)


def build_multiparty_matrix(
    npc: NPartyCorrelators, r_prime: float, context: str = "first"
) -> np.ndarray:
    """Bordered-identity (n+2)x(n+2) correlation matrix of one context selection.

    Rows 0..n-1 are the experimenters (identity block, mutual uncorrelation),
    the last two rows Alice's pair with unit diagonal and r' off-diagonal;
    the border columns hold the per-experimenter correlation pairs. Its PSD
    is the n-party precondition ``nparty_bound_check`` tests on the 2x2 block.
    """
    if context not in ("first", "second"):
        raise MalformedInputError("context must be 'first' or 'second'")
    rho = npc.rho_first if context == "first" else npc.rho_second
    n = npc.n
    m = np.eye(n + 2)
    m[n, n + 1] = m[n + 1, n] = float(r_prime)
    m[:n, n:] = rho
    m[n:, :n] = rho.T
    return m


def bordered_oracle(npc: NPartyCorrelators, r_prime: float) -> tuple[bool, bool]:
    """(both bordered matrices PSD, both their Schur complements over the identity block PSD)."""
    mats = [build_multiparty_matrix(npc, r_prime, c) for c in ("first", "second")]
    return (all(is_psd(m) for m in mats),
            all(is_psd(schur_complement(m, npc.n)) for m in mats))


def _cholesky_strict(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a strictly positive definite block.

    Raises DegeneratePivotError when the factorization fails or any squared
    pivot is <= 1e-13 times the largest entry, so a near-singular block is
    reported instead of being inverted.
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


def schur_complement(m, block_split: int) -> np.ndarray:
    """Schur complement D - C A^{-1} C* of the partition [[A, C*], [C, D]].

    ``block_split`` is the size of the leading block A, which must be
    strictly positive definite. For A > 0 the input is PSD iff the returned
    complement is. The result is real for a real input, complex otherwise,
    and exactly (conj-)symmetric.
    """
    a = np.asarray(m)
    n = a.shape[0]
    if not (0 < block_split < n):
        raise MalformedInputError(f"block_split must be in 1..{n - 1}, got {block_split}")
    k = block_split
    low = _cholesky_strict(a[:k, :k])
    # A = L L*, so C A^{-1} C* = W* W with W = L^{-1} C*
    w = np.linalg.solve(low, a[k:, :k].conj().T)
    comp = a[k:, k:] - w.conj().T @ w
    return 0.5 * (comp + comp.conj().T)
