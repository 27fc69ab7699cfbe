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

from .correlators import _VAR_FLOOR, CorrelatorTable, _pearson, chsh_max
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
        try:
            w = np.array(self.weights, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:     # a non-number, ragged, or a huge int
            raise MalformedInputError("weights must be an array of numbers in the float range") from exc
        if w.shape != (16,):
            raise MalformedInputError(f"weights must have length 16, got shape {w.shape}")
        if not all(-1e-15 <= x < np.inf for x in w.tolist()):     # NaN fails
            raise MalformedInputError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise MalformedInputError(f"weights must sum to 1 within 1e-12, got {total!r}")
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


def _ensemble_moments(ens: LhvEnsemble) -> tuple[CorrelatorTable, list[float], np.ndarray]:
    """The correlator table, the means (a0, a1, b0, b1) and the raw correlators E[i, j]."""
    w = ens.weights
    means = (w @ _VERTEX_VALUES).tolist()            # second moments are 1
    e = np.einsum("k,ki,kj->ij", w, _VERTEX_VALUES[:, :2], _VERTEX_VALUES[:, 2:])     # E[i, j] = <A_i B_j>
    var = [v if (v := 1.0 - m * m) > 0.0 else 0.0 for m in means]
    ma, mb = means[:2], means[2:]
    (e00, e01), (e10, e11) = e.tolist()
    cov = [e00 - ma[0] * mb[0], e01 - ma[0] * mb[1], e10 - ma[1] * mb[0], e11 - ma[1] * mb[1]]
    pearson = _pearson(cov, (var[0], var[0], var[1], var[1]), (var[2], var[3]) * 2, _VAR_FLOOR, _VAR_FLOOR)
    table = CorrelatorTable(means_a=ma, means_b=mb, var_a=var[:2], var_b=var[2:],
                            cov=[cov[:2], cov[2:]], pearson=[pearson[:2], pearson[2:]])
    return table, means, e


def statistics_of(ens: LhvEnsemble) -> LhvStatistics:
    """Full moment summary by direct expectation over the 16 vertices."""
    table, m, e = _ensemble_moments(ens)
    w, v = ens.weights, _VERTEX_VALUES
    return LhvStatistics(table=table, raw_e=e, r=float(w @ (v[:, 0] * v[:, 1])) - m[0] * m[1],
                         r_bar=float(w @ (v[:, 2] * v[:, 3])) - m[2] * m[3], q=float(w @ np.prod(v, axis=1)))


def correlators_of(ens: LhvEnsemble) -> CorrelatorTable:
    """Correlator table of an ensemble (see ``statistics_of`` for the witnesses)."""
    return _ensemble_moments(ens)[0]


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
    return chsh_max(e.tolist()) <= 2.0 + tol


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

