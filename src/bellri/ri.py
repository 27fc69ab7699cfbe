"""Relativistic-independence feasibility engine.

A party's two-setting uncertainty block, normalized by the standard
deviations, is [[1, r'], [r', 1]]; appending the remote party's setting-j
correlations gives a 3x3 correlation matrix whose positive semidefiniteness
confines r' to a closed interval

    D_j = [rho_0j rho_1j - h_j,  rho_0j rho_1j + h_j],
    h_j = sqrt((1 - rho_0j^2)(1 - rho_1j^2)).

Feasibility of a remote-setting-independent r' is exactly the intersection of
the D_j, and equally (by the triangle inequality) the two-row correlator bound
checked by ``tlm_check``. Interval intersections are evaluated as closed sets
with additive slack: the saturation configurations touch at a single point and
must classify as feasible.

The tripartite variant admits a third uncorrelated party and produces four
intervals, one per remote setting context (j, k); a common r' exists iff all
four intersect. When a context's diagonal condition
1 - rho_ab^2 - rho_ac^2 >= 0 fails, no r' works for that context at all; this
is reported as a context infeasibility verdict, not an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlators import CorrelatorTable, TripartiteCorrelatorTable
from .errors import MalformedInputError, PreconditionError
from .lhv import is_local
from .linalg import is_psd

__all__ = [
    "RInterval",
    "TlmResult",
    "Verdict",
    "TripartiteIntervalResult",
    "r_interval_bipartite",
    "r_interval_swapped",
    "tlm_check",
    "ri_feasible_bipartite",
    "tripartite_r_intervals",
    "epsilon_gap",
    "emit_geometry",
    "g_theta",
    "pr_box_demo",
    "classify",
]

DEFAULT_SLACK = 1e-9


def _halfwidth(rho0: float, rho1: float) -> float:
    return math.sqrt(max(0.0, (1.0 - rho0 * rho0)) * max(0.0, (1.0 - rho1 * rho1)))


@dataclass(frozen=True)
class RInterval:
    """Admissible range of the normalized uncertainty parameter in one context."""

    lo: float
    hi: float
    context: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise MalformedInputError(f"invalid interval [{self.lo}, {self.hi}]")

    def contains(self, x: float, slack: float = DEFAULT_SLACK) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def to_json_dict(self) -> dict:
        return {"context": self.context, "lo": self.lo, "hi": self.hi}


def _intersect(intervals: list[RInterval], slack: float) -> tuple[float, float] | None:
    lo = max(iv.lo for iv in intervals)
    hi = min(iv.hi for iv in intervals)
    if lo <= hi + slack:
        return lo, hi
    return None


def r_interval_bipartite(ct: CorrelatorTable, j: int) -> RInterval:
    """Admissible r' for Alice when the remote side uses setting j."""
    pe = ct.require_defined()
    c = float(pe[0, j] * pe[1, j])
    h = _halfwidth(float(pe[0, j]), float(pe[1, j]))
    return RInterval(lo=c - h, hi=c + h, context=f"j={j}")


def r_interval_swapped(ct: CorrelatorTable, i: int) -> RInterval:
    """Role-swapped interval: admissible r-bar' for Bob under Alice's setting i."""
    pe = ct.require_defined()
    c = float(pe[i, 0] * pe[i, 1])
    h = _halfwidth(float(pe[i, 0]), float(pe[i, 1]))
    return RInterval(lo=c - h, hi=c + h, context=f"i={i}")


@dataclass(frozen=True)
class TlmResult:
    passed: bool
    lhs: tuple[float, float]
    rhs: tuple[float, float]

    @property
    def slack(self) -> tuple[float, float]:
        return (self.rhs[0] - self.lhs[0], self.rhs[1] - self.lhs[1])


def tlm_check(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> TlmResult:
    """Two-row correlator bound on the Pearson entries.

    Row 1:  |rho00 rho10 - rho01 rho11| <= sum_j h_j
    Row 2:  |rho00 rho01 - rho10 rho11| <= sum_i h_i  (roles swapped)
    """
    pe = ct.require_defined()
    lhs1 = abs(float(pe[0, 0] * pe[1, 0] - pe[0, 1] * pe[1, 1]))
    rhs1 = _halfwidth(pe[0, 0], pe[1, 0]) + _halfwidth(pe[0, 1], pe[1, 1])
    lhs2 = abs(float(pe[0, 0] * pe[0, 1] - pe[1, 0] * pe[1, 1]))
    rhs2 = _halfwidth(pe[0, 0], pe[0, 1]) + _halfwidth(pe[1, 0], pe[1, 1])
    passed = lhs1 <= rhs1 + tol and lhs2 <= rhs2 + tol
    return TlmResult(passed=passed, lhs=(lhs1, lhs2), rhs=(rhs1, rhs2))


@dataclass(frozen=True)
class Verdict:
    """Classification of a bipartite correlator table."""

    local: bool | None
    quantum_compatible: bool
    ri_feasible: bool
    witness_r: float | None
    witness_r_bar: float | None
    epsilon: float
    intervals: tuple[RInterval, ...] = field(default_factory=tuple)
    signaling_in_variance: bool = False
    no_signaling: dict | None = None

    def __post_init__(self) -> None:
        # feasibility of a common r' is never weaker than the correlator bound
        if self.ri_feasible and not self.quantum_compatible:
            raise MalformedInputError("inconsistent verdict: ri_feasible without the bound")

    @property
    def infeasible(self) -> bool:
        return not self.ri_feasible

    def to_json_dict(self) -> dict:
        out = {
            "local": self.local,
            "quantum_compatible": self.quantum_compatible,
            "ri_feasible": self.ri_feasible,
            "witness_r": self.witness_r,
            "witness_r_bar": self.witness_r_bar,
            "epsilon": self.epsilon,
            "intervals": [iv.to_json_dict() for iv in self.intervals],
        }
        if self.signaling_in_variance:
            out["signaling_in_variance"] = True
        if self.no_signaling is not None:
            out["no_signaling"] = self.no_signaling
        return out


def _verdict(
    ct: CorrelatorTable, tol: float, local: bool | None, no_signaling: dict | None
) -> Verdict:
    a_intervals = [r_interval_bipartite(ct, j) for j in (0, 1)]
    b_intervals = [r_interval_swapped(ct, i) for i in (0, 1)]
    a_meet = _intersect(a_intervals, tol)
    b_meet = _intersect(b_intervals, tol)
    return Verdict(
        local=local,
        quantum_compatible=tlm_check(ct, tol).passed,
        ri_feasible=a_meet is not None and b_meet is not None,
        witness_r=0.5 * (a_meet[0] + a_meet[1]) if a_meet else None,
        witness_r_bar=0.5 * (b_meet[0] + b_meet[1]) if b_meet else None,
        epsilon=_gap(a_intervals),
        intervals=tuple(a_intervals + b_intervals),
        signaling_in_variance=ct.signaling_in_variance,
        no_signaling=no_signaling,
    )


def ri_feasible_bipartite(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> Verdict:
    """Existence of setting-independent uncertainty parameters for both parties.

    Feasible iff the two Alice-side intervals intersect and the role-swapped
    Bob-side intervals intersect (closed intervals, additive slack ``tol``).
    Witnesses are interval-intersection midpoints, a convention; any point of
    the intersection is admissible.
    """
    return _verdict(ct, tol, local=None, no_signaling=None)


def classify(ct: CorrelatorTable, *, tol: float = DEFAULT_SLACK, no_signaling: dict | None = None) -> Verdict:
    """Full verdict: locality, correlator bound, feasibility of a common r'."""
    raw_e = ct.cov + np.outer(ct.means_a, ct.means_b)
    try:
        local = is_local(raw_e, tol=max(tol, 1e-9))
    except MalformedInputError:
        local = None
    return _verdict(ct, tol, local=local, no_signaling=no_signaling)


def _gap(intervals: list[RInterval]) -> float:
    return max(0.0, float(max(iv.lo for iv in intervals) - min(iv.hi for iv in intervals)))


def epsilon_gap(ct: CorrelatorTable) -> float:
    """Distance between the two admissible r' intervals (0 when they meet).

    When the intervals are disjoint this is the smallest of the four numbers
    |rho00 rho10 - rho01 rho11 +- h_0 +- h_1|, and the least detectable
    signaling magnitude in the in-principle estimation protocol.
    """
    return _gap([r_interval_bipartite(ct, j) for j in (0, 1)])


def emit_geometry(ct: CorrelatorTable, tol: float = 1e-9) -> dict:
    """Disk geometry of the two admissible regions in the r' plane.

    Each remote setting confines the normalized uncertainty parameter to a
    disk centered on the real axis; the real-axis restriction is the pair of
    feasibility intervals, classified as disjoint, tangent, or overlapping.
    """
    circles = []
    intervals = []
    for j in (0, 1):
        iv = r_interval_bipartite(ct, j)
        center = 0.5 * (iv.lo + iv.hi)
        radius = 0.5 * (iv.hi - iv.lo)
        circles.append({"context": iv.context, "center": center, "radius": radius})
        intervals.append(iv)
    gap = max(iv.lo for iv in intervals) - min(iv.hi for iv in intervals)
    if gap > tol:
        relation = "disjoint"
        touch = None
    elif gap >= -tol:
        relation = "tangent"
        touch = [0.5 * (max(iv.lo for iv in intervals) + min(iv.hi for iv in intervals)), 0.0]
    else:
        relation = "overlapping"
        touch = None
    out = {
        "circles": circles,
        "relation": relation,
        "gap": max(0.0, gap),
        "intervals": [iv.to_json_dict() for iv in intervals],
    }
    if touch is not None:
        out["intersection_point"] = touch
    return out


def g_theta(theta: float, sigma0: float, sigma1: float) -> float:
    """Locally measurable ratio combination cos^2(t) s0/s1 + sin^2(t) s1/s0.

    For any admissible r' it dominates r' sin(2 theta); equality at the
    minimizing parameters pins down |r'| via a singular uncertainty block.
    """
    if not (sigma0 > 0.0 and sigma1 > 0.0):
        raise MalformedInputError("standard deviations must be positive")
    c, s = math.cos(theta), math.sin(theta)
    return c * c * sigma0 / sigma1 + s * s * sigma1 / sigma0


# ---------------------------------------------------------------------------
# Tripartite four-interval feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripartiteIntervalResult:
    intervals: tuple[RInterval, ...]
    common_r: float | None
    infeasible_contexts: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return self.common_r is not None

    def to_json_dict(self) -> dict:
        return {
            "intervals": [iv.to_json_dict() for iv in self.intervals],
            "common_r": self.common_r,
            "infeasible_contexts": list(self.infeasible_contexts),
            "feasible": self.feasible,
        }


def tripartite_r_intervals(
    tct: TripartiteCorrelatorTable,
    contexts: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1)),
    tol: float = DEFAULT_SLACK,
) -> TripartiteIntervalResult:
    """Per-context admissible intervals for r' with an uncorrelated third party.

    Requires rho_bc = 0 (within 1e-9) on every supplied context. Context
    (j, k) contributes

        d_jk(+-) = rho_ab_0j rho_ab_1j + rho_ac_0k rho_ac_1k
                   +- sqrt(prod_i [1 - rho_ab_ij^2 - rho_ac_ik^2])

    provided both bracketed diagonal terms are nonnegative; a negative
    diagonal term means no r' works for that context (reported, not raised).
    A common r' exists iff every context is feasible and the intervals all
    intersect; the witness is the intersection midpoint.
    """
    ab, ac, bc = tct.pearson_ab, tct.pearson_ac, tct.pearson_bc
    intervals: list[RInterval] = []
    infeasible: list[str] = []
    for (j, k) in contexts:
        if abs(float(bc[j, k])) > 1e-9:
            raise PreconditionError(
                f"context (j={j}, k={k}) has nonzero Bob-Charlie correlation {bc[j, k]}"
            )
        label = f"j={j},k={k}"
        diag0 = 1.0 - ab[0, j] ** 2 - ac[0, k] ** 2
        diag1 = 1.0 - ab[1, j] ** 2 - ac[1, k] ** 2
        if diag0 < -tol or diag1 < -tol:
            infeasible.append(label)
            continue
        center = float(ab[0, j] * ab[1, j] + ac[0, k] * ac[1, k])
        h = math.sqrt(max(0.0, diag0) * max(0.0, diag1))
        intervals.append(RInterval(lo=center - h, hi=center + h, context=label))
    common = None
    if not infeasible and intervals:
        meet = _intersect(intervals, tol)
        if meet is not None:
            common = 0.5 * (meet[0] + meet[1])
    return TripartiteIntervalResult(
        intervals=tuple(intervals),
        common_r=common,
        infeasible_contexts=tuple(infeasible),
    )


# ---------------------------------------------------------------------------
# The no-signaling box with maximal correlations, worked end to end
# ---------------------------------------------------------------------------


def pr_box_demo() -> dict:
    """Work the maximally-correlated no-signaling box through the machinery.

    Alice and Charlie share <A_i C_k> = (-1)^(i k) with an uncorrelated Bob.
    The normalized context matrix forces every Alice-Bob correlation to zero
    and admits exactly one uncertainty parameter per context, r_jk = (-1)^k,
    so no context-independent choice exists. It also exposes the signaling
    channel: the product A0 A1 equals (-1)^k, readable by Alice alone.
    """
    ac = np.array([[1.0, 1.0], [1.0, -1.0]])   # pearson of A_i vs C_k = (-1)^(i k)

    def context_matrix(j: int, k: int, rho_ab: float, r: float) -> np.ndarray:
        return np.array(
            [
                [1.0, 0.0, rho_ab, rho_ab],
                [0.0, 1.0, ac[1, k], ac[0, k]],
                [rho_ab, ac[1, k], 1.0, r],
                [rho_ab, ac[0, k], r, 1.0],
            ]
        )

    # any nonzero Alice-Bob correlation breaks PSD regardless of r
    ab_forced_zero = all(
        not is_psd(context_matrix(j, k, rho_ab, r), tol=1e-9)
        for j in (0, 1)
        for k in (0, 1)
        for rho_ab in (0.25, -0.5)
        for r in np.linspace(-1.0, 1.0, 41)
    )

    contexts = {}
    r_table = [[0.0, 0.0], [0.0, 0.0]]
    for j in (0, 1):
        for k in (0, 1):
            required = float((-1.0) ** k)
            r_table[j][k] = required
            contexts[f"j={j},k={k}"] = {
                "r_required": required,
                "psd_at_required": is_psd(context_matrix(j, k, 0.0, required), tol=1e-9),
                "psd_at_zero": is_psd(context_matrix(j, k, 0.0, 0.0), tol=1e-9),
                "signaling_product_a0a1": required,   # A0 A1 = (A0 C_k)(A1 C_k) = (-1)^k
            }

    box = CorrelatorTable.from_pearson(ac)
    return {
        "correlations_ac": ac.tolist(),
        "forced_pearson_ab": 0.0,
        "ab_forced_zero_verified": ab_forced_zero,
        "r_table": r_table,
        "contexts": contexts,
        "common_r_exists": False,
        "epsilon": epsilon_gap(box),
        "intervals": [r_interval_bipartite(box, j).to_json_dict() for j in (0, 1)],
    }
