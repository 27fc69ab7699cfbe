"""Local-hidden-variable oracle for the two-setting, two-outcome scenario.

Deterministic strategies assign +-1 to all four variables at once, so a local
model is a mixture over the 16 strategy vertices. Membership in the resulting
correlation polytope is decided by the eight CHSH facet inequalities together
with |E_ij| <= 1; at this scenario size the facet list is complete, which
removes any need for an LP.

Locality tests and the product-covariance contraction identity work with raw
+-1 correlators E_ij = <A_i B_j>. Pearson-normalized correlators of a skewed
(nonzero-mean) mixture are NOT confined to |CHSH| <= 2 (numerical search finds
mixtures reaching 2.5), so the raw convention is the only sound one here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlators import _VAR_FLOOR, CorrelatorTable
from .errors import MalformedInputError

__all__ = [
    "DeterministicStrategy",
    "LhvEnsemble",
    "LhvStatistics",
    "enumerate_vertices",
    "correlators_of",
    "statistics_of",
    "is_local",
    "product_cov_matrix",
]


@dataclass(frozen=True)
class DeterministicStrategy:
    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b0", "b1"):
            if getattr(self, name) not in (-1, 1):
                raise MalformedInputError(f"{name} must be exactly -1 or +1")


def enumerate_vertices() -> tuple[DeterministicStrategy, ...]:
    """All 16 strategies, index k = bits (a0, a1, b0, b1) with -1 <-> bit 0.

    Vertex k has a0 = sign of bit 3, a1 = bit 2, b0 = bit 1, b1 = bit 0.
    """
    out = []
    for k in range(16):
        bits = [(k >> s) & 1 for s in (3, 2, 1, 0)]
        vals = [1 if b else -1 for b in bits]
        out.append(DeterministicStrategy(*vals))
    return tuple(out)


_VERTICES = enumerate_vertices()
_VERTEX_VALUES = np.array([[v.a0, v.a1, v.b0, v.b1] for v in _VERTICES], dtype=np.float64)


@dataclass(frozen=True)
class LhvEnsemble:
    """Probability weights over the 16 deterministic strategies."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (16,):
            raise MalformedInputError(f"weights must have length 16, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < -1e-15):
            raise MalformedInputError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise MalformedInputError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "LhvEnsemble":
        return cls(np.full(16, 1.0 / 16.0))

    @classmethod
    def point(cls, index: int) -> "LhvEnsemble":
        w = np.zeros(16)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def random(cls, rng: np.random.Generator, concentration: float = 1.0) -> "LhvEnsemble":
        return cls(rng.dirichlet(np.full(16, concentration)))


@dataclass(frozen=True)
class LhvStatistics:
    """Moment summary of an ensemble, with the hidden cross moments.

    ``r`` is C(A0, A1) (the admissible uncertainty parameter every local model
    realizes), ``r_bar`` its Bob-side counterpart, ``q`` the four-point moment
    <A0 A1 B0 B1>, and ``raw_e`` the raw correlator matrix E[i, j].
    """

    table: CorrelatorTable
    raw_e: np.ndarray
    r: float
    r_bar: float
    q: float

    @property
    def r_prime(self) -> float | None:
        va = self.table.var_a
        if va[0] <= _VAR_FLOOR or va[1] <= _VAR_FLOOR:
            return None
        return float(self.r / np.sqrt(va[0] * va[1]))

    @property
    def r_bar_prime(self) -> float | None:
        vb = self.table.var_b
        if vb[0] <= _VAR_FLOOR or vb[1] <= _VAR_FLOOR:
            return None
        return float(self.r_bar / np.sqrt(vb[0] * vb[1]))


def statistics_of(ens: LhvEnsemble) -> LhvStatistics:
    """Full moment summary by direct expectation over the 16 vertices."""
    w = ens.weights
    vals = _VERTEX_VALUES
    means = w @ vals                                 # (a0, a1, b0, b1), second moments are 1
    var = np.maximum(1.0 - means**2, 0.0)
    e = np.einsum("k,ki,kj->ij", w, vals[:, :2], vals[:, 2:])     # E[i, j] = <A_i B_j>
    cov = e - np.outer(means[:2], means[2:])
    pearson = np.full((2, 2), np.nan)
    defined = np.zeros((2, 2), dtype=bool)
    for i in range(2):
        for j in range(2):
            va, vb = var[i], var[2 + j]
            if va > _VAR_FLOOR and vb > _VAR_FLOOR:
                pearson[i, j] = cov[i, j] / np.sqrt(va * vb)
                defined[i, j] = True
    table = CorrelatorTable(
        means_a=means[:2],
        means_b=means[2:],
        var_a=var[:2],
        var_b=var[2:],
        cov=cov,
        pearson=pearson,
        pearson_defined=defined,
    )
    r = float(w @ (vals[:, 0] * vals[:, 1]) - means[0] * means[1])
    r_bar = float(w @ (vals[:, 2] * vals[:, 3]) - means[2] * means[3])
    q = float(w @ np.prod(vals, axis=1))
    return LhvStatistics(table=table, raw_e=e, r=r, r_bar=r_bar, q=q)


def correlators_of(ens: LhvEnsemble) -> CorrelatorTable:
    """Correlator table of an ensemble (see ``statistics_of`` for the witnesses)."""
    return statistics_of(ens).table


def is_local(e, tol: float = 1e-9) -> bool:
    """Membership in the local correlation polytope for raw correlators E[i, j].

    True iff every CHSH facet value is <= 2 + tol. Entries beyond [-1, 1] + tol
    are rejected as out of range.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (2, 2) or not np.all(np.isfinite(e)):
        raise MalformedInputError("correlator matrix must be a finite 2x2 array")
    if np.abs(e).max() > 1.0 + tol:
        raise MalformedInputError(f"correlators out of range [-1, 1]: {e.tolist()}")
    from .correlators import CHSH_SIGNS

    return all(abs(float((s * e).sum())) <= 2.0 + tol for s in CHSH_SIGNS)


def product_cov_matrix(ens: LhvEnsemble) -> np.ndarray:
    """Covariance matrix of the four products A_i B_j, order (00), (10), (01), (11).

    Returned read-only; its entries are exactly symmetric by construction.

    Assembled from the scalar moments E[i, j], r = <A0 A1>, r_bar = <B0 B1>
    and q = <A0 A1 B0 B1> (raw +-1 outcomes, for which every second moment of
    a single variable is exactly 1):

        diag block j :  [[1, r], [r, 1]] - R_j R_j^T
        off block    :  [[rbar, q], [q, rbar]] - R_0 R_1^T

    with R_j = (E[0, j], E[1, j]). Being a covariance matrix it is PSD for
    every ensemble, and the CHSH contraction u M u^T with u = (1, 1, 1, -1)
    equals 4 - B^2 exactly, B the raw-correlator CHSH value: the product
    combination A0 B0 + A1 B0 + A0 B1 - A1 B1 has magnitude 2 pointwise, so
    its variance is 4 - (E B)^2.
    """
    stats = statistics_of(ens)
    e = stats.raw_e
    raw_r = float(ens.weights @ (_VERTEX_VALUES[:, 0] * _VERTEX_VALUES[:, 1]))
    raw_rbar = float(ens.weights @ (_VERTEX_VALUES[:, 2] * _VERTEX_VALUES[:, 3]))
    q = stats.q
    r0 = e[:, 0]
    r1 = e[:, 1]
    p = np.array([[1.0, raw_r], [raw_r, 1.0]])
    cross = np.array([[raw_rbar, q], [q, raw_rbar]])
    m = np.block(
        [
            [p - np.outer(r0, r0), cross - np.outer(r0, r1)],
            [cross.T - np.outer(r1, r0), p - np.outer(r1, r1)],
        ]
    )
    m.setflags(write=False)
    return m

