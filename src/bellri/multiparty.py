"""Tripartite and n-party correlation bounds built on one shared uncertainty block.

The tripartite bound compares the context quantity

    zeta_ij(l, k) = [ rho_ac_ik rho_ac_jk + rho_ab_il rho_ab_jl
                      - rho_bc_lk (rho_ab_il rho_ac_jk + rho_ab_jl rho_ac_ik) ]
                    / (1 - rho_bc_lk^2)

across two remote contexts. Each context's zeta block confines Alice's r'
to z01 +- sqrt((1 - z00)(1 - z11)), and ``ri``'s interval rule decides
whether the two intervals meet; a diagonal 1 - z_ii below -tol leaves no r'
for that context and fails the check. It collapses to the bipartite two-row
bound when the third party decouples, and with rho_bc = 0 it gives the
verdict of ``ri.tripartite_r_intervals`` on the same two contexts.

The n-party bound assumes mutually uncorrelated experimenters. Their
correlation matrix with Alice's pair is the identity bordered by the
per-experimenter correlations rho (n x 2); since the leading block is the
identity, it is PSD exactly when the 2x2 shared-parameter block

    [[1, r'], [r', 1]] - rho^T rho

is (its Schur complement). When that block is PSD for both contexts, the
per-experimenter CHSH values obey

    sum_s |B_s| <= sqrt(2 n) (sqrt(1 + r') + sqrt(1 - r')) <= 2 sqrt(2 n).

Radicands that go negative by floating-point rounding are clamped at zero;
the saturation configurations sit exactly on those boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .correlators import TripartiteCorrelatorTable, chsh_combination
from .errors import MalformedInputError, PreconditionError
from .linalg import is_psd
from .ri import _side

if TYPE_CHECKING:
    from .qmodel import QuantumMoments

__all__ = [
    "ZetaArgs",
    "NPartyCorrelators",
    "zeta",
    "zeta_from_table",
    "zeta_bound_check",
    "monogamy_check",
    "nparty_bound_check",
    "nparty_from_pairs",
]


@dataclass(frozen=True)
class ZetaArgs:
    """Inputs of the context quantity: two Alice-Bob, two Alice-Charlie, one Bob-Charlie."""

    ab_i: float
    ab_j: float
    ac_i: float
    ac_j: float
    bc: float

    def __post_init__(self) -> None:
        vals = (self.ab_i, self.ab_j, self.ac_i, self.ac_j, self.bc)
        if not all(math.isfinite(v) for v in vals):
            raise MalformedInputError("zeta inputs must be finite")
        if abs(self.bc) >= 1.0 - 1e-12:
            raise MalformedInputError(
                f"|rho_bc| must stay below 1 - 1e-12 for a valid denominator, got {self.bc}"
            )


def zeta(args: ZetaArgs) -> float:
    """The displayed rational context expression, evaluated exactly as given."""
    num = (
        args.ac_i * args.ac_j
        - args.bc * args.ab_i * args.ac_j
        - args.bc * args.ab_j * args.ac_i
        + args.ab_i * args.ab_j
    )
    return num / (1.0 - args.bc * args.bc)


def zeta_from_table(tct: TripartiteCorrelatorTable, i: int, j: int, l: int, k: int) -> float:
    ab, ac, bc = tct.pearson_ab, tct.pearson_ac, tct.pearson_bc
    return zeta(
        ZetaArgs(
            ab_i=float(ab[i, l]), ab_j=float(ab[j, l]),
            ac_i=float(ac[i, k]), ac_j=float(ac[j, k]),
            bc=float(bc[l, k]),
        )
    )


def zeta_bound_check(
    tct: TripartiteCorrelatorTable,
    ctx1: tuple[int, int] = (0, 0),
    ctx2: tuple[int, int] = (1, 1),
    tol: float = 1e-9,
) -> dict:
    """Cross-context bound |z01 - z01'| <= sqrt((1-z00)(1-z11)) + sqrt((1-z00')(1-z11')).

    Contexts are (l, k) pairs of Bob/Charlie settings; each one's zeta block
    admits r' in z01 +- sqrt((1 - z00)(1 - z11)), the interval rule of ``ri``.
    It passes iff the two intervals meet (signed gap at most ``tol``) and no
    compared diagonal 1 - z_ii is below -``tol``, where no r' fits at all.
    Quantum-generated tripartite data always passes.
    """
    contexts = [
        (zeta_from_table(tct, 0, 1, l, k),
         1.0 - zeta_from_table(tct, 0, 0, l, k),
         1.0 - zeta_from_table(tct, 1, 1, l, k))
        for l, k in (ctx1, ctx2)
    ]
    side = _side(contexts, ("ctx1", "ctx2"))
    diagonals_ok = min(min(d0, d1) for _, d0, d1 in contexts) >= -tol
    lhs, rhs = side.row
    return {"lhs": lhs, "rhs": rhs, "pass": side.gap <= tol and diagonals_ok,
            "zeta": {"ctx1": side.c[0], "ctx2": side.c[1]}}


def monogamy_check(chsh_ab: float, chsh_ac: float, tol: float = 1e-9) -> dict:
    """Trade-off checks for two CHSH values sharing one party's settings."""
    if not (math.isfinite(chsh_ab) and math.isfinite(chsh_ac)):
        raise MalformedInputError("CHSH inputs must be finite")
    sum_sq = chsh_ab * chsh_ab + chsh_ac * chsh_ac     # ** raises OverflowError near 1e308
    sum_abs = abs(chsh_ab) + abs(chsh_ac)
    return {
        "sum_sq": sum_sq,
        "sum_abs": sum_abs,
        "pass_sq": sum_sq <= 8.0 + tol,
        "pass_abs": sum_abs <= 4.0 + tol,
    }


@dataclass(frozen=True)
class NPartyCorrelators:
    """Per-experimenter correlation pairs with Alice, two contexts each.

    ``rho_first[s] = (rho^s_{0, i_s}, rho^s_{1, i_s})`` and ``rho_second`` the
    same for the j_s contexts, for any n >= 1 experimenters. They are assumed
    mutually uncorrelated; ``nparty_bound_check`` certifies that the data is
    realizable under that assumption, nothing here re-derives it.
    """

    rho_first: np.ndarray             # (n, 2)
    rho_second: np.ndarray            # (n, 2)

    def __post_init__(self) -> None:
        for name in ("rho_first", "rho_second"):
            m = np.array(getattr(self, name), dtype=np.float64)
            entries = m.ravel().tolist()
            if m.ndim != 2 or m.shape[1] != 2 or not all(map(math.isfinite, entries)):
                raise MalformedInputError(f"{name} must be a finite (n, 2) array")
            if any(abs(x) > 1.0 + 1e-9 for x in entries):
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if self.rho_first.shape != self.rho_second.shape:
            raise MalformedInputError("context blocks must have matching shapes")
        if self.n < 1:
            raise MalformedInputError("at least one experimenter is required")

    @property
    def n(self) -> int:
        return self.rho_first.shape[0]

    def chsh_values(self) -> np.ndarray:
        """B_s = rho^s_{0,i_s} + rho^s_{1,i_s} + rho^s_{0,j_s} - rho^s_{1,j_s}."""
        return chsh_combination(zip(self.rho_first.T, self.rho_second.T))


def nparty_bound_check(npc: NPartyCorrelators, r_prime: float, tol: float = 1e-9) -> dict:
    """Per-experimenter CHSH sum against the shared-parameter cap.

    Precondition (raised on failure): for both contexts the block
    [[1, r'], [r', 1]] - rho^T rho is PSD within ``tol`` as given (``is_psd``'s
    relative slack), i.e. the data is realizable by mutually uncorrelated
    experimenters with the common parameter r'.
    Reported: the refined bound sqrt(2n)(sqrt(1+r') + sqrt(1-r')) and the
    universal cap 2 sqrt(2n), checked link by link.
    """
    if not -1.0 <= r_prime <= 1.0:
        raise MalformedInputError("r_prime must lie in [-1, 1]")
    n = npc.n
    shared = np.array([[1.0, r_prime], [r_prime, 1.0]])
    for context, rho in (("first", npc.rho_first), ("second", npc.rho_second)):
        if not is_psd(shared - rho.T @ rho, tol=tol):
            raise PreconditionError(
                f"bordered matrix for context '{context}' is not PSD: "
                "data not realizable under a common uncertainty parameter"
            )
    sum_abs_b = float(np.abs(npc.chsh_values()).sum())
    refined = math.sqrt(2.0 * n) * (
        math.sqrt(max(0.0, 1.0 + r_prime)) + math.sqrt(max(0.0, 1.0 - r_prime))
    )
    cap = 2.0 * math.sqrt(2.0 * n)
    return {
        "n": n,
        "sum_abs_chsh": sum_abs_b,
        "refined_bound": refined,
        "cap": cap,
        "pass_refined": sum_abs_b <= refined + tol,
        "pass_cap": refined <= cap + tol and sum_abs_b <= cap + tol,
        "pass": sum_abs_b <= refined + tol and refined <= cap + tol,
    }


def nparty_from_pairs(pair_moments: list[QuantumMoments]) -> tuple[NPartyCorrelators, float]:
    """Compose n independent two-party scenarios into one n-experimenter dataset.

    Alice's effective observables are the normalized sums of her per-pair
    observables, A_i = (1/sqrt(n)) sum_s A_i^(s). Independence across pairs
    makes the experimenters mutually uncorrelated and gives

        C(A_i, M_s^k) = C_s(A_i^(s), M^k) / sqrt(n),
        var(A_i)      = mean_s var_s(A_i^(s)),
        r_q           = mean_s r_q^(s),

    so the data is the correlation matrix of actual commuting observables and
    the precondition of ``nparty_bound_check`` holds by construction. Returns the
    correlator data together with the realized r' = Re(r_q) normalized.
    """
    n = len(pair_moments)
    if n == 0:
        raise MalformedInputError("at least one pair is required")
    # each record once, as Python floats; the means add as np.mean does (pairwise, row by row)
    var_a, var_b, cov = zip(*[(m.var_a.tolist(), m.var_b.tolist(), m.cov.tolist()) for m in pair_moments])
    var0, var1 = (np.add.reduce(list(zip(*var_a)), axis=1) / n).tolist()
    r_q = complex(np.add.reduce([m.r_q_a for m in pair_moments]) / n)
    r_prime = r_q.real / math.sqrt(var0 * var1)
    norm0, norm1 = math.sqrt(n) * math.sqrt(var0), math.sqrt(n) * math.sqrt(var1)
    rho_first, rho_second = [], []
    for (vb0, vb1), ((c00, c01), (c10, c11)) in zip(var_b, cov):
        sig0, sig1 = math.sqrt(vb0), math.sqrt(vb1)
        # contexts: each experimenter uses setting 0 in the first slot, 1 in the second
        rho_first.append((c00 / (norm0 * sig0), c10 / (norm1 * sig0)))
        rho_second.append((c01 / (norm0 * sig1), c11 / (norm1 * sig1)))
    return NPartyCorrelators(rho_first=rho_first, rho_second=rho_second), r_prime
