"""Relativistic-independence feasibility engine.

A party's two-setting uncertainty block, normalized by the standard
deviations, is [[1, r'], [r', 1]]; appending the remote party's setting-j
correlations gives a 3x3 correlation matrix whose positive semidefiniteness
confines r' to a closed interval

    D_j = [rho_0j rho_1j - h_j,  rho_0j rho_1j + h_j],
    h_j = sqrt((1 - rho_0j^2)(1 - rho_1j^2)).

A remote-setting-independent r' exists iff D_0 and D_1 meet, and likewise
Bob's role-swapped intervals for r-bar'. Each side has one signed gap
g = max lo - min hi; where positive it is the distance between the intervals
and a row |c_0 - c_1| - (h_0 + h_1) of the two-row correlator bound. ``tol``
is one additive slack on the signed gap, used by every verdict: a table is
feasible iff g_A <= tol and g_B <= tol (so the saturation configurations,
which touch at one point, are feasible), and the correlator bound, both
witnesses, ``epsilon``, the geometry relation and the tripartite test follow.

The tripartite variant admits a third uncorrelated party and gives four
intervals, one per remote setting context (j, k), which must meet under the
same slack. A context whose diagonal condition 1 - rho_ab^2 - rho_ac^2 >= 0
fails admits no r' at all: a context infeasibility verdict, not an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .correlators import CorrelatorTable, TripartiteCorrelatorTable
from .errors import MalformedInputError, PreconditionError
from .lhv import box_is_local
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


class _Side(NamedTuple):
    """One party's admissible intervals c_s +- h_s, one per remote setting s."""

    label: str          # the remote setting's name, "j" or "i"
    c: tuple[float, float]
    h: tuple[float, float]
    gap: float          # max lo - min hi: the distance apart when > 0
    mid: float          # 0.5 (max lo + min hi), the witness when the intervals meet

    def intervals(self) -> tuple[RInterval, RInterval]:
        return tuple(
            RInterval(c - h, c + h, f"{self.label}={s}") for s, (c, h) in enumerate(zip(self.c, self.h))
        )


def _side(rows, label: str) -> _Side:
    """``rows[s]`` holds the party's two settings' Pearson entries with remote setting s."""
    (c0, h0), (c1, h1) = (
        (x * y, math.sqrt(max(0.0, 1.0 - x * x) * max(0.0, 1.0 - y * y))) for x, y in rows
    )
    lo, hi = max(c0 - h0, c1 - h1), min(c0 + h0, c1 + h1)
    return _Side(label, (c0, c1), (h0, h1), lo - hi, 0.5 * (lo + hi))


def _gaps(ct: CorrelatorTable, tol: float) -> tuple[_Side, _Side, bool, float]:
    """Alice's side (r' under Bob's j), Bob's side (r-bar' under Alice's i), feasible, epsilon.

    Feasible iff each side's signed gap is at most ``tol``. ``epsilon`` is 0.0
    when feasible, else Alice's gap, or Bob's where Alice's intervals meet up to
    rounding (a tangent table's gaps can differ in sign by ~1e-11): never 0 then.
    """
    rows = ct.require_defined().tolist()
    a, b = _side(zip(*rows), "j"), _side(rows, "i")
    feasible = a.gap <= tol and b.gap <= tol
    return a, b, feasible, 0.0 if feasible else a.gap if a.gap > 0.0 else b.gap


def r_interval_bipartite(ct: CorrelatorTable, j: int) -> RInterval:
    """Admissible r' for Alice when the remote side uses setting j."""
    return _side(zip(*ct.require_defined().tolist()), "j").intervals()[j]


def r_interval_swapped(ct: CorrelatorTable, i: int) -> RInterval:
    """Role-swapped interval: admissible r-bar' for Bob under Alice's setting i."""
    return _side(ct.require_defined().tolist(), "i").intervals()[i]


@dataclass(frozen=True)
class TlmResult:
    passed: bool
    lhs: tuple[float, float]
    rhs: tuple[float, float]

    @property
    def slack(self) -> tuple[float, float]:
        return (self.rhs[0] - self.lhs[0], self.rhs[1] - self.lhs[1])


def tlm_check(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> TlmResult:
    """Two-row correlator bound on the Pearson entries; it passes iff the table is feasible.

    Row 1:  |rho00 rho10 - rho01 rho11| <= sum_j h_j
    Row 2:  |rho00 rho01 - rho10 rho11| <= sum_i h_i  (roles swapped)
    """
    a, b, feasible, _ = _gaps(ct, tol)
    lhs = tuple(abs(side.c[0] - side.c[1]) for side in (a, b))
    return TlmResult(passed=feasible, lhs=lhs, rhs=tuple(side.h[0] + side.h[1] for side in (a, b)))


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


def ri_feasible_bipartite(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> Verdict:
    """Existence of setting-independent uncertainty parameters for both parties.

    Feasible iff Alice's two intervals and Bob's two meet (signed gaps at most
    ``tol``). Witnesses are the midpoints of the meeting ends, a convention.
    """
    a, b, feasible, epsilon = _gaps(ct, tol)
    return Verdict(
        local=None,
        quantum_compatible=feasible,
        ri_feasible=feasible,
        witness_r=a.mid if feasible else None,
        witness_r_bar=b.mid if feasible else None,
        epsilon=epsilon,
        intervals=a.intervals() + b.intervals(),
        signaling_in_variance=ct.signaling_in_variance,
    )


def classify(ct: CorrelatorTable, *, tol: float = DEFAULT_SLACK, no_signaling: dict | None = None) -> Verdict:
    """Full verdict: locality, correlator bound, feasibility of a common r'.

    ``local`` is None unless a no-signaling +-1 box has the table's moments,
    so local implies feasible.
    """
    verdict = ri_feasible_bipartite(ct, tol)
    return replace(verdict, local=box_is_local(ct, no_signaling, tol), no_signaling=no_signaling)


def epsilon_gap(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> float:
    """Distance between the two admissible r' intervals (0.0 when the table is feasible).

    When the intervals are disjoint this is the smallest of the four numbers
    |rho00 rho10 - rho01 rho11 +- h_0 +- h_1|, and the least detectable
    signaling magnitude in the in-principle estimation protocol.
    """
    return _gaps(ct, tol)[3]


def emit_geometry(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> dict:
    """Disk geometry of the two admissible regions in the r' plane.

    Each remote setting confines the normalized uncertainty parameter to a
    disk centered on the real axis; the real-axis restriction is the pair of
    feasibility intervals, disjoint, tangent or overlapping as Alice's signed
    gap is above ``tol``, within it of 0, or below. ``gap`` is ``epsilon_gap``.
    """
    a, _, _, epsilon = _gaps(ct, tol)
    intervals = a.intervals()
    out = {
        "circles": [
            {"context": iv.context, "center": 0.5 * (iv.lo + iv.hi), "radius": 0.5 * (iv.hi - iv.lo)}
            for iv in intervals
        ],
        "relation": "disjoint" if a.gap > tol else "tangent" if a.gap >= -tol else "overlapping",
        "gap": epsilon,
        "intervals": [iv.to_json_dict() for iv in intervals],
    }
    if out["relation"] == "tangent":
        out["intersection_point"] = [a.mid, 0.0]
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
    A common r' exists iff every context is feasible and the intervals' signed
    gap is at most ``tol``; the witness is the midpoint of the meeting ends.
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
    lo = max((iv.lo for iv in intervals), default=math.inf)
    hi = min((iv.hi for iv in intervals), default=-math.inf)
    common = 0.5 * (lo + hi) if not infeasible and lo - hi <= tol else None
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

    r_table = [[float((-1.0) ** k) for k in (0, 1)] for _ in (0, 1)]
    contexts = {}
    for j in (0, 1):
        for k in (0, 1):
            required = r_table[j][k]
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
