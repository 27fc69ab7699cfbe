"""Relativistic-independence feasibility engine: one admissible-interval rule.

Relativistic independence asks that a party's uncertainty parameter r' not
depend on the remote context it is measured in. In each context the party's
normalized conditional block z confines r' to the closed interval

    z01 +- sqrt((1 - z00)(1 - z11) - shrink)

(shrink = eta^2 for quantum data, 0 otherwise), and a context-independent r'
exists iff the intervals of all contexts meet. ``_side`` is the one place
that rule is computed: from each context's (z01, 1 - z00, 1 - z11) it builds
the interval, and it returns the signed gap g = max lo - min hi and the
midpoint of the meeting ends. Where g > 0 it is the distance between the
intervals; for two contexts it is then |c_0 - c_1| - (h_0 + h_1), a row of
the two-row correlator bound. ``tol`` is one additive slack on g.

Bipartite tables give Alice two contexts, Bob's settings j, with
z01 = rho_0j rho_1j and 1 - z_ii = 1 - rho_ij^2, and Bob the role-swapped
two. A table is feasible iff g_A <= tol and g_B <= tol (so the saturation
configurations, which touch at one point, are feasible). One record per
table, ``Verdict``, holds both sides and what follows from them: the
correlator bound, both witnesses, ``epsilon`` and the geometry relation. Each
table verb prints one of its five views and exits 0 iff it is ``ri_feasible``.

The tripartite variant admits a third uncorrelated party and gives four
contexts (j, k), with z01 = rho_ab_0j rho_ab_1j + rho_ac_0k rho_ac_1k and
1 - z_ii = 1 - rho_ab_ij^2 - rho_ac_ik^2. A context whose diagonal is below
-tol admits no r' at all: a context infeasibility verdict, not an input
error. ``multiparty.zeta_bound_check`` and ``qmodel.quantum_tlm_check`` feed
their contexts to the same rule.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .correlators import CorrelatorTable, TripartiteCorrelatorTable, chsh, chsh_max
from .errors import MalformedInputError, PreconditionError

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
    "box_is_local",
    "classify",
]

DEFAULT_SLACK = 1e-9


class RInterval(namedtuple("RInterval", "lo hi context")):
    """Admissible range of the normalized uncertainty parameter in one context."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, context: str):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise MalformedInputError(f"invalid interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi, context)

    def contains(self, x: float, slack: float = DEFAULT_SLACK) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def to_json_dict(self) -> dict:
        return {"context": self.context, "lo": self.lo, "hi": self.hi}


class _Side(namedtuple("_Side", "labels c h gap mid")):
    """One parameter's admissible intervals c_s +- h_s, one per context s: the ``labels``, centers
    ``c`` and half-widths ``h`` as tuples, the signed ``gap`` max lo - min hi (the distance apart
    when > 0), and ``mid`` = 0.5 (max lo + min hi), the common value when the intervals meet."""

    __slots__ = ()

    def intervals(self) -> tuple[RInterval, ...]:
        return tuple([RInterval(c - h, c + h, label) for label, c, h in zip(self.labels, self.c, self.h)])

    @property
    def row(self) -> tuple[float, float]:
        """A two-context side's row of the two-row bound: |c_0 - c_1| against h_0 + h_1."""
        return abs(self.c[0] - self.c[1]), self.h[0] + self.h[1]


def _side(contexts, labels, shrink: float = 0.0) -> _Side:
    """The admissible-interval rule: each context's (z01, 1 - z00, 1 - z11) gives z01 +- h.

    h = sqrt(max(0, max(0, d0) max(0, d1) - shrink)); the clamps absorb
    rounding below zero, so a caller that must reject a negative diagonal
    checks it first. With no contexts the gap is +inf.
    """
    c, h, lo, hi = [], [], [], []
    for z01, d0, d1 in contexts:
        # the clamps as conditionals (equal to max(0, x), NaN included): written
        # with max() calls they make every bipartite verdict about a quarter slower
        rad = (d0 if d0 > 0.0 else 0.0) * (d1 if d1 > 0.0 else 0.0) - shrink
        r = math.sqrt(rad) if rad > 0.0 else 0.0
        c.append(z01)
        h.append(r)
        lo.append(z01 - r)
        hi.append(z01 + r)
    lo, hi = max(lo, default=math.inf), min(hi, default=-math.inf)
    return _Side(tuple(labels), tuple(c), tuple(h), lo - hi, 0.5 * (lo + hi))


def _pearson_contexts(rows) -> tuple[tuple, tuple]:
    """Alice's contexts (Bob's setting j) and Bob's (Alice's setting i) of a Pearson block.

    Each context is (rho_0 rho_1, 1 - rho_0^2, 1 - rho_1^2) for the party's two
    settings' entries with that remote setting.
    """
    (p00, p01), (p10, p11) = rows
    d00, d01, d10, d11 = 1.0 - p00 * p00, 1.0 - p01 * p01, 1.0 - p10 * p10, 1.0 - p11 * p11
    return ((p00 * p10, d00, d10), (p01 * p11, d01, d11)), ((p00 * p01, d00, d01), (p10 * p11, d10, d11))


class TlmResult(namedtuple("TlmResult", "passed lhs rhs")):
    """Whether the two-row bound holds, and each row's two sides: ``lhs`` and ``rhs`` are pairs."""

    __slots__ = ()

    @property
    def slack(self) -> tuple[float, float]:
        return (self.rhs[0] - self.lhs[0], self.rhs[1] - self.lhs[1])


class Verdict(namedtuple("Verdict", "alice bob tol local no_signaling signaling_in_variance ri_feasible "
                                   "quantum_compatible witness_r witness_r_bar epsilon intervals chsh")):
    """The one record of a bipartite table: every verdict on it, and each table verb's JSON, reads it.

    ``alice`` holds r' under Bob's settings j, ``bob`` r-bar' under Alice's i (each a ``_Side``);
    they, ``intervals`` (Alice's two ``RInterval``s, then Bob's two) and ``chsh`` (Pearson CHSH) do
    not depend on ``tol``. ``ri_feasible`` (= ``quantum_compatible``) iff each side's signed gap is at
    most ``tol``; the witnesses are then the meeting points, else None. ``epsilon`` is 0.0
    when feasible, else Alice's gap, or Bob's where Alice's intervals meet up to
    rounding (a tangent table's gaps can differ in sign by ~1e-11): never 0 then.
    ``local`` is ``classify``'s (True, False or None), and ``no_signaling`` a probability table's
    report or None. The five views are ``to_json_dict`` (``classify``)
    and the four ``*_view`` methods; every table verb exits 0 iff ``ri_feasible``.
    """

    __slots__ = ()

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

    def ri_intervals_view(self) -> dict:
        return {
            "intervals": [iv.to_json_dict() for iv in self.intervals],
            "feasible": self.ri_feasible,
            "witness_r": self.witness_r,
            "witness_r_bar": self.witness_r_bar,
        }

    def tlm_view(self) -> dict:
        rows = [{"lhs": lhs, "rhs": rhs, "slack": rhs - lhs} for lhs, rhs in (self.alice.row, self.bob.row)]
        return {"pass": self.ri_feasible, "rows": rows, "chsh": self.chsh}

    def epsilon_view(self) -> dict:
        return {"epsilon": self.epsilon}

    def geometry_view(self) -> dict:
        a, intervals, tol = self.alice, self.intervals[:2], self.tol
        out = {
            "circles": [
                {"context": iv.context, "center": 0.5 * (iv.lo + iv.hi), "radius": 0.5 * (iv.hi - iv.lo)}
                for iv in intervals
            ],
            "relation": "disjoint" if a.gap > tol else "tangent" if a.gap >= -tol else "overlapping",
            "gap": self.epsilon,
            "intervals": [iv.to_json_dict() for iv in intervals],
        }
        if out["relation"] == "tangent":
            out["intersection_point"] = [a.mid, 0.0]
        return out


def _verdict(ct: CorrelatorTable, tol: float,
             local: bool | None = None, no_signaling: dict | None = None) -> Verdict:
    """The table's ``Verdict``. The first request keeps its tol-independent part on the table, which
    never changes; a table with undefined Pearson entries keeps nothing and raises every time."""
    kept = ct.__dict__.get("_sides")
    if kept is None:
        ctx_a, ctx_b = _pearson_contexts(ct._pearson_rows())
        a, b = _side(ctx_a, ("j=0", "j=1")), _side(ctx_b, ("i=0", "i=1"))
        ct.__dict__["_sides"] = kept = a, b, a.intervals() + b.intervals(), chsh(ct)
    a, b, intervals, chsh_value = kept
    feasible = a.gap <= tol and b.gap <= tol
    return Verdict(a, b, tol, local, no_signaling, ct.signaling_in_variance, feasible, feasible,
                   a.mid if feasible else None, b.mid if feasible else None,
                   0.0 if feasible else a.gap if a.gap > 0.0 else b.gap, intervals, chsh_value)


def r_interval_bipartite(ct: CorrelatorTable, j: int) -> RInterval:
    """Admissible r' for Alice when the remote side uses setting j."""
    return _verdict(ct, DEFAULT_SLACK).intervals[:2][j]


def r_interval_swapped(ct: CorrelatorTable, i: int) -> RInterval:
    """Role-swapped interval: admissible r-bar' for Bob under Alice's setting i."""
    return _verdict(ct, DEFAULT_SLACK).intervals[2:][i]


def tlm_check(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> TlmResult:
    """Two-row correlator bound on the Pearson entries; it passes iff the table is feasible.

    Row 1:  |rho00 rho10 - rho01 rho11| <= sum_j h_j
    Row 2:  |rho00 rho01 - rho10 rho11| <= sum_i h_i  (roles swapped)
    """
    v = _verdict(ct, tol)
    return TlmResult(v.ri_feasible, *zip(v.alice.row, v.bob.row))


def ri_feasible_bipartite(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> Verdict:
    """Existence of setting-independent uncertainty parameters for both parties.

    Feasible iff Alice's two intervals and Bob's two meet (signed gaps at most
    ``tol``). Witnesses are the midpoints of the meeting ends, a convention.
    """
    return _verdict(ct, tol)


def box_is_local(ct: CorrelatorTable, no_signaling: dict | None = None, tol: float = 1e-9) -> bool | None:
    """``lhv.is_local`` on the raw correlators, or None unless a no-signaling +-1 box has the moments:
    every second moment var + mean^2 is 1, every context's implied outcome weights
    1 + a m_A + b m_B + a b E are >= -tol, and a probability table's ``no_signaling`` report passes.
    """
    if no_signaling is not None and not no_signaling["pass"]:
        return None
    ma, mb, va, vb, cov = ct._floats[:5]
    for v, m in zip(va + vb, ma + mb):
        if abs(v + m * m - 1.0) > tol:
            return None
    rows = [[], []]
    for row, crow, a in zip(rows, cov, ma):
        for c, b in zip(crow, mb):
            x = c + a * b
            weight = min(1.0 + a + b + x, 1.0 + a - b - x, 1.0 - a + b - x, 1.0 - a - b + x)
            if weight < -tol or abs(x) > 1.0 + tol:     # |E| beyond 1 + tol by rounding
                return None
            row.append(x)
    return chsh_max(rows) <= 2.0 + tol


def classify(ct: CorrelatorTable, *, tol: float = DEFAULT_SLACK, no_signaling: dict | None = None) -> Verdict:
    """Full verdict: locality, correlator bound, feasibility of a common r'.

    ``local`` is None unless a no-signaling +-1 box has the table's moments,
    so local implies feasible.
    """
    return _verdict(ct, tol, box_is_local(ct, no_signaling, tol), no_signaling)


def epsilon_gap(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> float:
    """Distance between the two admissible r' intervals (0.0 when the table is feasible).

    When the intervals are disjoint this is the smallest of the four numbers
    |rho00 rho10 - rho01 rho11 +- h_0 +- h_1|, and the least detectable
    signaling magnitude in the in-principle estimation protocol.
    """
    return _verdict(ct, tol).epsilon


def emit_geometry(ct: CorrelatorTable, tol: float = DEFAULT_SLACK) -> dict:
    """Disk geometry of the two admissible regions in the r' plane, ``Verdict.geometry_view``.

    Each remote setting confines the normalized uncertainty parameter to a
    disk centered on the real axis; the real-axis restriction is the pair of
    feasibility intervals, disjoint, tangent or overlapping as Alice's signed
    gap is above ``tol``, within it of 0, or below. ``gap`` is ``epsilon_gap``.
    """
    return _verdict(ct, tol).geometry_view()


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


class TripartiteIntervalResult(namedtuple("TripartiteIntervalResult", "intervals common_r infeasible_contexts")):
    """The kept contexts' ``RInterval``s, the common r' or None, and the labels of the contexts
    that admit no r'."""

    __slots__ = ()

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
    (j, k) has z01 = rho_ab_0j rho_ab_1j + rho_ac_0k rho_ac_1k and diagonals
    1 - z_ii = 1 - rho_ab_ij^2 - rho_ac_ik^2; a diagonal below -``tol`` means
    no r' works for that context (reported, not raised). A common r' exists
    iff every context is feasible and the intervals' signed gap is at most
    ``tol``; the witness is the midpoint of the meeting ends.
    """
    ab, ac, bc = tct._floats[:3]
    kept, labels, infeasible = [], [], []
    for (j, k) in contexts:
        if abs(bc[j][k]) > 1e-9:
            raise PreconditionError(
                f"context (j={j}, k={k}) has nonzero Bob-Charlie correlation {bc[j][k]}"
            )
        label = f"j={j},k={k}"
        d0 = 1.0 - ab[0][j] ** 2 - ac[0][k] ** 2
        d1 = 1.0 - ab[1][j] ** 2 - ac[1][k] ** 2
        if d0 < -tol or d1 < -tol:
            infeasible.append(label)
        else:
            kept.append((ab[0][j] * ab[1][j] + ac[0][k] * ac[1][k], d0, d1))
            labels.append(label)
    side = _side(kept, labels)
    return TripartiteIntervalResult(
        intervals=side.intervals(),
        common_r=side.mid if not infeasible and side.gap <= tol else None,
        infeasible_contexts=tuple(infeasible),
    )


# ---------------------------------------------------------------------------
# The no-signaling box with maximal correlations, worked end to end
# ---------------------------------------------------------------------------


def pr_box_demo() -> dict:
    """Work the maximally-correlated no-signaling box through the machinery.

    Alice and Charlie share <A_i C_k> = (-1)^(i k) with an uncorrelated Bob.
    Every context's diagonal is then -rho_ab^2, so any nonzero Alice-Bob
    correlation leaves no admissible r' and forces rho_ab = 0; there each
    context (j, k) admits exactly one uncertainty parameter, r_jk = (-1)^k,
    so no context-independent choice exists. It also exposes the signaling
    channel: the product A0 A1 equals (-1)^k, readable by Alice alone.
    """
    ac = [[1.0, 1.0], [1.0, -1.0]]   # pearson of A_i vs C_k = (-1)^(i k)

    def embedded(rho_ab: float) -> TripartiteIntervalResult:
        return tripartite_r_intervals(TripartiteCorrelatorTable([[rho_ab] * 2] * 2, ac, [[0.0] * 2] * 2))

    ab_forced_zero = all(len(embedded(rho_ab).infeasible_contexts) == 4 for rho_ab in (0.25, -0.5))
    res = embedded(0.0)
    contexts = {
        iv.context: {
            "r_required": iv.lo,
            "psd_at_required": iv.contains(iv.lo),
            "psd_at_zero": iv.contains(0.0),
            "signaling_product_a0a1": iv.lo,   # A0 A1 = (A0 C_k)(A1 C_k) = (-1)^k
        }
        for iv in res.intervals
    }
    box = ri_feasible_bipartite(CorrelatorTable.from_pearson(ac))
    return {
        "correlations_ac": ac,
        "forced_pearson_ab": 0.0,
        "ab_forced_zero_verified": ab_forced_zero,
        "r_table": [[iv.lo for iv in res.intervals[j : j + 2]] for j in (0, 2)],
        "contexts": contexts,
        "common_r_exists": res.feasible,
        "epsilon": box.epsilon,
        "intervals": [iv.to_json_dict() for iv in box.intervals[:2]],
    }
