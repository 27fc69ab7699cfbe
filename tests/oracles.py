"""Independent oracles the tests compare the library against.

Each builds the same quantity as a library function by a different route
(an explicit matrix whose PSD is the condition, a four-sign closed form, a
brute-force covariance), so a test can check the two routes agree.
"""

import numpy as np

from bellri.correlators import CorrelatorTable, TripartiteCorrelatorTable
from bellri.lhv import _VERTEX_VALUES, LhvEnsemble
from bellri.linalg import SymmetricMatrix
from bellri.ri import _halfwidth


def epsilon_four_signs(ct: CorrelatorTable) -> float:
    """The explicit four-sign form of ``epsilon_gap`` for disjoint intervals."""
    pe = ct.require_defined()
    center_diff = float(pe[0, 0] * pe[1, 0] - pe[0, 1] * pe[1, 1])
    h0 = _halfwidth(pe[0, 0], pe[1, 0])
    h1 = _halfwidth(pe[0, 1], pe[1, 1])
    return min(abs(center_diff + s0 * h0 + s1 * h1) for s0 in (1, -1) for s1 in (1, -1))


def ri_condition_matrix(ct: CorrelatorTable, j: int, r_prime: float) -> SymmetricMatrix:
    """Normalized 3x3 matrix whose PSD is equivalent to r' in D_j."""
    pe = ct.require_defined()
    r0, r1 = float(pe[0, j]), float(pe[1, j])
    m = np.array([[1.0, r1, r0], [r1, 1.0, r_prime], [r0, r_prime, 1.0]])
    return SymmetricMatrix(m)


def ri_pair_matrix(ct: CorrelatorTable, r_prime: float) -> SymmetricMatrix:
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
    return SymmetricMatrix.from_array(m, symmetrize=True)


def tripartite_condition_matrix(
    tct: TripartiteCorrelatorTable, j: int, k: int, r_prime: float
) -> SymmetricMatrix:
    """Normalized 4x4 matrix (C_k, B_j, A_1, A_0) for one remote context."""
    ab = tct.pearson_ab
    ac = tct.pearson_ac
    bc = tct.pearson_bc
    m = np.array(
        [
            [1.0, bc[j, k], ac[1, k], ac[0, k]],
            [bc[j, k], 1.0, ab[1, j], ab[0, j]],
            [ac[1, k], ab[1, j], 1.0, r_prime],
            [ac[0, k], ab[0, j], r_prime, 1.0],
        ]
    )
    return SymmetricMatrix(m)


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
