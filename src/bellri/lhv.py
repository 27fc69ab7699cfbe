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
Each moment of an ensemble is ``math.fsum`` of its 16 terms +-w_k, so it is
correctly rounded and the same on every machine.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter

from .correlators import _P_MIN, _VAR_FLOOR, CorrelatorTable, _Array, _Frozen, _nested, _pearson, chsh_max
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


class DeterministicStrategy(namedtuple("DeterministicStrategy", "a0 a1 b0 b1")):
    __slots__ = ()

    def __new__(cls, a0: int, a1: int, b0: int, b1: int):
        for name, x in zip(cls._fields, (a0, a1, b0, b1)):
            if x not in (-1, 1):
                raise MalformedInputError(f"{name} must be exactly -1 or +1")
        return super().__new__(cls, a0, a1, b0, b1)


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


def _terms(*variables: int) -> itemgetter:
    """Picks the terms +-w_k of a product of the vertex values at ``variables`` (0 to 3 for a0 ... b1)
    from the weights followed by their negations."""
    return itemgetter(*[k if math.prod(v[i] for i in variables) > 0 else k + 16 for k, v in enumerate(_VERTICES)])


# <a0>, <a1>, <b0>, <b1>, E[i, j] = <A_i B_j> row-major, <a0 a1>, <b0 b1>, <a0 a1 b0 b1>
_MOMENT_TERMS = (*map(_terms, range(4)), *(_terms(i, j) for i in (0, 1) for j in (2, 3)),
                 _terms(0, 1), _terms(2, 3), _terms(0, 1, 2, 3))


class LhvEnsemble(_Frozen):
    """Probability weights over the 16 deterministic strategies. The ensemble keeps the Python floats
    it checked; ``weights`` is built from them, read-only, on its first read."""

    weights = _Array(0)
    _FIELDS = ("weights",)

    def __init__(self, weights) -> None:
        try:
            shape, w = _nested(weights)
        except (TypeError, ValueError, OverflowError) as exc:     # a non-number, ragged, or a huge int
            raise MalformedInputError("weights must be an array of numbers in the float range") from exc
        if shape != (16,):
            raise MalformedInputError(f"weights must have length 16, got shape {shape}")
        if not (all(map(_P_MIN.__le__, w)) and max(w) < math.inf):     # NaN fails the first
            raise MalformedInputError("weights must be finite and nonnegative")
        total = math.fsum(w)
        if abs(total - 1.0) > 1e-12:
            raise MalformedInputError(f"weights must sum to 1 within 1e-12, got {total!r}")
        self.__dict__["_floats"] = (w,)

    @classmethod
    def uniform(cls) -> "LhvEnsemble":
        return cls([1.0 / 16.0] * 16)

    @classmethod
    def point(cls, index: int) -> "LhvEnsemble":
        w = [0.0] * 16
        w[index] = 1.0
        return cls(w)

    @classmethod
    def random(cls, rng: np.random.Generator, concentration: float = 1.0) -> "LhvEnsemble":
        return cls(rng.dirichlet([concentration] * 16))


class LhvStatistics(namedtuple("LhvStatistics", "table raw_e r r_bar q")):
    """Moment summary of an ensemble, with the hidden cross moments.

    ``r`` is C(A0, A1) (the admissible uncertainty parameter every local model
    realizes), ``r_bar`` its Bob-side counterpart, ``q`` the four-point moment
    <A0 A1 B0 B1>, and ``raw_e`` the raw correlator matrix E[i, j].
    """

    __slots__ = ()

    @property
    def r_prime(self) -> float | None:
        va = self.table._floats[2]
        if va[0] <= _VAR_FLOOR or va[1] <= _VAR_FLOOR:
            return None
        return self.r / math.sqrt(va[0] * va[1])


def _raw_moments(ens: LhvEnsemble, n: int) -> list[float]:
    """The first ``n`` moments of ``_MOMENT_TERMS``, each ``math.fsum`` of its 16 terms +-w_k."""
    w = ens._floats[0]
    signed = w + [-x for x in w]
    return [math.fsum(pick(signed)) for pick in _MOMENT_TERMS[:n]]


def _ensemble_moments(ens: LhvEnsemble, n: int = 8) -> tuple[CorrelatorTable, list[float]]:
    """The correlator table and the first ``n`` >= 8 raw moments (``_raw_moments``)."""
    m = _raw_moments(ens, n)         # second moments are 1
    var = [v if (v := 1.0 - x * x) > 0.0 else 0.0 for x in m[:4]]
    ma, mb = m[:2], m[2:4]
    e00, e01, e10, e11 = m[4:8]
    cov = [e00 - ma[0] * mb[0], e01 - ma[0] * mb[1], e10 - ma[1] * mb[0], e11 - ma[1] * mb[1]]
    pearson = _pearson(cov, (var[0], var[0], var[1], var[1]), (var[2], var[3]) * 2, _VAR_FLOOR, _VAR_FLOOR)
    table = CorrelatorTable(means_a=ma, means_b=mb, var_a=var[:2], var_b=var[2:],
                            cov=[cov[:2], cov[2:]], pearson=[pearson[:2], pearson[2:]])
    return table, m


def statistics_of(ens: LhvEnsemble) -> LhvStatistics:
    """Full moment summary by direct expectation over the 16 vertices."""
    import numpy as np
    table, m = _ensemble_moments(ens, 11)
    r, r_bar, q = m[8:]
    return LhvStatistics(table=table, raw_e=np.array([m[4:6], m[6:8]]), r=r - m[0] * m[1],
                         r_bar=r_bar - m[2] * m[3], q=q)


def correlators_of(ens: LhvEnsemble) -> CorrelatorTable:
    """Correlator table of an ensemble (see ``statistics_of`` for the witnesses)."""
    return _ensemble_moments(ens)[0]


def is_local(e, tol: float = 1e-9) -> bool:
    """Membership in the local correlation polytope for raw correlators E[i, j].

    True iff every CHSH facet value is <= 2 + tol. Entries beyond [-1, 1] + tol
    are rejected as out of range.
    """
    shape, flat = _nested(e)
    if shape != (2, 2) or not all(map(math.isfinite, flat)):
        raise MalformedInputError("correlator matrix must be a finite 2x2 array")
    e = [flat[:2], flat[2:]]
    if max(map(abs, flat)) > 1.0 + tol:
        raise MalformedInputError(f"correlators out of range [-1, 1]: {e}")
    return chsh_max(e) <= 2.0 + tol


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
    import numpy as np
    e00, e01, e10, e11, raw_r, raw_rbar, q = _raw_moments(ens, 11)[4:]
    r0 = np.array([e00, e10])
    r1 = np.array([e01, e11])
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

