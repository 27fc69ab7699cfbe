"""Tripartite and n-party correlation bounds built on one shared uncertainty block.

The tripartite bound compares the context quantity

    zeta_ij(l, k) = [ rho_ac_ik rho_ac_jk + rho_ab_il rho_ab_jl
                      - rho_bc_lk (rho_ab_il rho_ac_jk + rho_ab_jl rho_ac_ik) ]
                    / (1 - rho_bc_lk^2)

across two remote contexts; it collapses to the bipartite two-row bound when
the third party decouples. The n-party bound assumes mutually uncorrelated
experimenters. Their correlation matrix with Alice's pair is the identity
bordered by the per-experimenter correlations rho (n x 2); since the leading
block is the identity, it is PSD exactly when the 2x2 shared-parameter block

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

import numpy as np

from .correlators import TripartiteCorrelatorTable
from .errors import MalformedInputError, PreconditionError
from .linalg import is_psd
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
    """Cross-context bound |z01 - z01'| <= sqrt((1-z11)(1-z00)) + sqrt((1-z11')(1-z00')).

    Contexts are (l, k) pairs of Bob/Charlie settings. Radicands are clamped
    at zero. Quantum-generated tripartite data always passes.
    """
    (l1, k1), (l2, k2) = ctx1, ctx2
    z01_1 = zeta_from_table(tct, 0, 1, l1, k1)
    z01_2 = zeta_from_table(tct, 0, 1, l2, k2)
    rad1 = max(0.0, (1.0 - zeta_from_table(tct, 1, 1, l1, k1))) * max(
        0.0, (1.0 - zeta_from_table(tct, 0, 0, l1, k1))
    )
    rad2 = max(0.0, (1.0 - zeta_from_table(tct, 1, 1, l2, k2))) * max(
        0.0, (1.0 - zeta_from_table(tct, 0, 0, l2, k2))
    )
    lhs = abs(z01_1 - z01_2)
    rhs = math.sqrt(rad1) + math.sqrt(rad2)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + tol,
            "zeta": {"ctx1": z01_1, "ctx2": z01_2}}


def monogamy_check(chsh_ab: float, chsh_ac: float, tol: float = 1e-9) -> dict:
    """Trade-off checks for two CHSH values sharing one party's settings."""
    if not (math.isfinite(chsh_ab) and math.isfinite(chsh_ac)):
        raise MalformedInputError("CHSH inputs must be finite")
    sum_sq = chsh_ab**2 + chsh_ac**2
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
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[1] != 2 or not np.all(np.isfinite(m)):
                raise MalformedInputError(f"{name} must be a finite (n, 2) array")
            if np.any(np.abs(m) > 1.0 + 1e-9):
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            m = m.copy()
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
        return (
            self.rho_first[:, 0]
            + self.rho_first[:, 1]
            + self.rho_second[:, 0]
            - self.rho_second[:, 1]
        )


def nparty_bound_check(npc: NPartyCorrelators, r_prime: float, tol: float = 1e-9) -> dict:
    """Per-experimenter CHSH sum against the shared-parameter cap.

    Precondition (raised on failure): for both contexts the block
    [[1, r'], [r', 1]] - rho^T rho is PSD, i.e. the data is realizable by
    mutually uncorrelated experimenters with the common parameter r'.
    Reported: the refined bound sqrt(2n)(sqrt(1+r') + sqrt(1-r')) and the
    universal cap 2 sqrt(2n), checked link by link.
    """
    if not -1.0 <= r_prime <= 1.0:
        raise MalformedInputError("r_prime must lie in [-1, 1]")
    n = npc.n
    shared = np.array([[1.0, r_prime], [r_prime, 1.0]])
    for context, rho in (("first", npc.rho_first), ("second", npc.rho_second)):
        if not is_psd(shared - rho.T @ rho, tol=max(tol, 1e-9)):
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
    var0 = float(np.mean([m.var_a[0] for m in pair_moments]))
    var1 = float(np.mean([m.var_a[1] for m in pair_moments]))
    r_q = complex(np.mean([m.r_q_a for m in pair_moments]))
    r_prime = r_q.real / math.sqrt(var0 * var1)
    rho_first = np.empty((n, 2))
    rho_second = np.empty((n, 2))
    sqrt_n = math.sqrt(n)
    for s, m in enumerate(pair_moments):
        sig_b = np.sqrt(m.var_b)
        # contexts: experimenter s uses setting 0 in the first slot, 1 in the second
        rho_first[s, 0] = m.cov[0, 0] / (sqrt_n * math.sqrt(var0) * sig_b[0])
        rho_first[s, 1] = m.cov[1, 0] / (sqrt_n * math.sqrt(var1) * sig_b[0])
        rho_second[s, 0] = m.cov[0, 1] / (sqrt_n * math.sqrt(var0) * sig_b[1])
        rho_second[s, 1] = m.cov[1, 1] / (sqrt_n * math.sqrt(var1) * sig_b[1])
    return NPartyCorrelators(rho_first=rho_first, rho_second=rho_second), float(r_prime)
