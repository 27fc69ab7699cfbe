"""Correlation data model: probability tables, moment tables, CHSH, no-signaling.

A ``CorrelatorTable`` carries the one-point means, variances, covariances and
Pearson coefficients of a two-setting bipartite experiment. Outcome alphabets
are arbitrary finite reals, not just +-1; every normalization divides by a
standard deviation, so zero-variance settings mark their Pearson entries
undefined instead of defaulting them, and downstream consumers fail loudly.

Signaling in the variances (a party's spread depending on the remote setting)
is recorded as a flag rather than treated as an error: feasibility of a common
uncertainty parameter is assessed independently of the no-signaling condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, MalformedInputError

__all__ = [
    "ProbabilityTable",
    "CorrelatorTable",
    "TripartiteCorrelatorTable",
    "from_probability_table",
    "chsh",
    "chsh_raw",
    "chsh_max",
    "check_no_signaling",
    "pr_box_table",
]

_VAR_FLOOR = 1e-12
_PEARSON_MAX = 1.0 + 1e-9     # |rho| above this is out of range, not rounding
_OUTCOME_MAX = 1e77           # outcome magnitudes whose moments' pairwise products stay finite
_OBSERVABLE_MAX = 1e75        # observable entries: at dim 32, var0 var1 and |r_q|^2 stay finite
_SIGNALING_TOL = 1e-9         # marginal variances further apart flag signaling in variance


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _per_party(obj, what: str, default: tuple) -> tuple:
    """Alice's and Bob's vectors from an optional {"a": [..], "b": [..]} object."""
    if obj is None:
        return default, default
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{what} must be an object with keys 'a' and 'b'")
    try:
        return tuple(np.asarray(obj.get(p, default), float) for p in "ab")
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome distributions p[i][j] over a shared outcome alphabet per party."""

    outcomes_a: np.ndarray            # (na,)
    outcomes_b: np.ndarray            # (nb,)
    p: np.ndarray                     # (2, 2, na, nb), each p[i, j] sums to 1

    def __post_init__(self) -> None:
        oa = np.array(self.outcomes_a, dtype=np.float64)
        ob = np.array(self.outcomes_b, dtype=np.float64)
        pr = np.array(self.p, dtype=np.float64)
        if oa.ndim != 1 or ob.ndim != 1 or oa.size == 0 or ob.size == 0:
            raise MalformedInputError("outcome lists must be non-empty 1-d arrays")
        if not all(abs(x) <= _OUTCOME_MAX for x in oa.tolist() + ob.tolist()):    # NaN fails
            raise MalformedInputError("outcome values must be finite and at most 1e77 in magnitude")
        if pr.shape != (2, 2, oa.size, ob.size):
            raise MalformedInputError(
                f"p must have shape (2, 2, {oa.size}, {ob.size}), got {pr.shape}"
            )
        if not all(-1e-15 <= x < math.inf for x in pr.ravel().tolist()):     # NaN fails
            raise MalformedInputError("probabilities must be finite and nonnegative")
        sums = pr.sum(axis=(2, 3))
        if any(abs(x - 1.0) > 1e-12 for x in sums.ravel().tolist()):
            raise MalformedInputError(
                f"each setting pair must be normalized to 1 within 1e-12, sums={sums.tolist()}"
            )
        object.__setattr__(self, "outcomes_a", _readonly(oa))
        object.__setattr__(self, "outcomes_b", _readonly(ob))
        object.__setattr__(self, "p", _readonly(pr))


@dataclass(frozen=True)
class CorrelatorTable:
    """Means, variances, covariances and Pearson coefficients for 2x2 settings.

    Pearson entries where either standard deviation vanishes are NaN with the
    matching ``pearson_defined`` entry False. Construction converts each field
    once and checks each rule once, in field order, on Python floats; where
    Pearson is defined, the raw correlator cov + mean_a mean_b must be finite.
    Every array is a read-only copy, so a table never changes: ``ri`` keeps its
    r' sides on it after the first verdict.
    """

    means_a: np.ndarray               # (2,)
    means_b: np.ndarray               # (2,)
    var_a: np.ndarray                 # (2,)
    var_b: np.ndarray                 # (2,)
    cov: np.ndarray                   # (2, 2), cov[i, j] = C(A_i, B_j)
    pearson: np.ndarray               # (2, 2)
    pearson_defined: np.ndarray = field(default=None)  # (2, 2) bool
    signaling_in_variance: bool = False

    def __post_init__(self) -> None:
        names = ("means_a", "means_b", "var_a", "var_b", "cov", "pearson")
        fields = [np.array(getattr(self, name), dtype=np.float64) for name in names]
        ma, mb, va, vb, cov, pe = (a.tolist() for a in fields)
        for name, v, x in zip(names, fields, (ma, mb, va, vb)):
            if v.shape != (2,) or not all(map(math.isfinite, x)):
                raise MalformedInputError(f"{name} must be a finite length-2 vector")
        if min(va + vb) < 0.0:
            raise MalformedInputError("variances must be nonnegative")
        if fields[4].shape != (2, 2) or fields[5].shape != (2, 2):
            raise MalformedInputError("cov and pearson must be 2x2")
        if self.pearson_defined is None:
            defined = np.isfinite(fields[5])
        else:
            defined = np.array(self.pearson_defined, dtype=bool)
        d = defined.tolist()
        kept = [(i, j) for i in (0, 1) for j in (0, 1) if d[i][j]]
        if any(abs(pe[i][j]) > _PEARSON_MAX for i, j in kept):
            raise MalformedInputError("defined Pearson entries must lie in [-1, 1]")
        if not all(math.isfinite(cov[i][j] + ma[i] * mb[j]) for i, j in kept):     # overflow gives inf
            raise MalformedInputError("cov + mean_a * mean_b must be finite where pearson is defined")
        for name, a in zip(names, fields):
            object.__setattr__(self, name, _readonly(a))
        object.__setattr__(self, "pearson_defined", _readonly(defined))

    @property
    def all_defined(self) -> bool:
        return bool(self.pearson_defined.all())

    def require_defined(self) -> np.ndarray:
        if not self.all_defined:
            bad = [tuple(ix) for ix in np.argwhere(~self.pearson_defined).tolist()]
            raise DegenerateDataError(f"Pearson entries undefined at (i, j) in {bad}")
        return self.pearson

    @classmethod
    def from_pearson(cls, pearson, variances=None, means=None) -> "CorrelatorTable":
        """Build a table from Pearson entries alone (unit variances, zero means)."""
        pe = np.asarray(pearson, dtype=np.float64)
        if pe.shape != (2, 2):
            raise MalformedInputError(f"pearson must be 2x2, got shape {pe.shape}")
        var_a, var_b = _per_party(variances, "variances", (1.0, 1.0))
        mean_a, mean_b = _per_party(means, "means", (0.0, 0.0))
        cov = pe
        if variances is not None and var_a.shape == var_b.shape == (2,):
            # other shapes, negative variances and overflow are the table's to reject
            with np.errstate(over="ignore", invalid="ignore"):
                cov = pe * np.sqrt(np.outer(var_a, var_b))
        return cls(means_a=mean_a, means_b=mean_b, var_a=var_a, var_b=var_b, cov=cov, pearson=pe)

    def to_json_dict(self) -> dict:
        return {
            "scenario": "bipartite",
            "pearson": [[None if not d else float(x) for x, d in zip(row, drow)]
                        for row, drow in zip(self.pearson, self.pearson_defined)],
            "means": {"a": self.means_a.tolist(), "b": self.means_b.tolist()},
            "variances": {"a": self.var_a.tolist(), "b": self.var_b.tolist()},
            "cov": self.cov.tolist(),
            "signaling_in_variance": self.signaling_in_variance,
        }


@dataclass(frozen=True)
class TripartiteCorrelatorTable:
    """Pairwise Pearson blocks for three parties with two settings each."""

    pearson_ab: np.ndarray            # (2, 2), [i, j]
    pearson_ac: np.ndarray            # (2, 2), [i, k]
    pearson_bc: np.ndarray            # (2, 2), [j, k]
    var_a: np.ndarray = None          # (2,), defaults to ones
    var_b: np.ndarray = None
    var_c: np.ndarray = None

    def __post_init__(self) -> None:
        for name in ("pearson_ab", "pearson_ac", "pearson_bc"):
            m = np.array(getattr(self, name), dtype=np.float64)
            x = m.ravel().tolist()
            if m.shape != (2, 2) or not all(map(math.isfinite, x)):
                raise MalformedInputError(f"{name} must be a finite 2x2 block")
            if max(map(abs, x)) > _PEARSON_MAX:
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            object.__setattr__(self, name, _readonly(m))
        for name in ("var_a", "var_b", "var_c"):
            v = getattr(self, name)
            v = np.array((1.0, 1.0) if v is None else v, dtype=np.float64)
            if v.shape != (2,) or not all(0.0 <= x < math.inf for x in v.tolist()):     # NaN fails
                raise MalformedInputError(f"{name} must be a nonnegative length-2 vector")
            object.__setattr__(self, name, _readonly(v))


def _pearson(cov, var_a, var_b, floor_a: float, floor_b: float) -> tuple[np.ndarray, np.ndarray]:
    """cov / sqrt(var_a var_b) (broadcast to 2x2), NaN where a variance is at or below its floor."""
    defined = (var_a > floor_a) & (var_b > floor_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(defined, cov / np.sqrt(var_a * var_b), np.nan), defined


def from_probability_table(pt: ProbabilityTable) -> CorrelatorTable:
    """Moments of a probability table, per-context Pearson normalization.

    Each pearson[i, j] is computed within its own (i, j) joint distribution.
    Per-setting means and variances are the across-context averages; if a
    marginal variance differs across the other party's settings by more than
    1e-9, the table is flagged signaling-in-variance.
    """
    oa, ob, p = pt.outcomes_a, pt.outcomes_b, pt.p
    mean_a_ctx = np.einsum("ijab,a->ij", p, oa)
    mean_b_ctx = np.einsum("ijab,b->ij", p, ob)
    m2_a_ctx = np.einsum("ijab,a->ij", p, oa**2)
    m2_b_ctx = np.einsum("ijab,b->ij", p, ob**2)
    var_a_ctx = np.maximum(m2_a_ctx - mean_a_ctx**2, 0.0)
    var_b_ctx = np.maximum(m2_b_ctx - mean_b_ctx**2, 0.0)
    e_ab = np.einsum("ijab,a,b->ij", p, oa, ob)
    cov = e_ab - mean_a_ctx * mean_b_ctx

    scale_a = max(1.0, max(map(abs, oa.tolist())) ** 2)
    scale_b = max(1.0, max(map(abs, ob.tolist())) ** 2)
    pearson, defined = _pearson(cov, var_a_ctx, var_b_ctx, _VAR_FLOOR * scale_a, _VAR_FLOOR * scale_b)

    # Alice's variance across Bob's settings (rows), Bob's across Alice's (columns)
    va, vb = var_a_ctx.tolist(), var_b_ctx.tolist()
    sig_var = any(abs(x - y) > _SIGNALING_TOL for x, y in (*va, *zip(*vb)))
    return CorrelatorTable(
        means_a=mean_a_ctx.mean(axis=1),
        means_b=mean_b_ctx.mean(axis=0),
        var_a=var_a_ctx.mean(axis=1),
        var_b=var_b_ctx.mean(axis=0),
        cov=cov,
        pearson=pearson,
        pearson_defined=defined,
        signaling_in_variance=sig_var,
    )


def chsh_combination(x):
    """The CHSH combination x00 + x10 + x01 - x11 of 2x2 blocks indexed [..., i, j]."""
    return x[..., 0, 0] + x[..., 1, 0] + x[..., 0, 1] - x[..., 1, 1]


def chsh(ct: CorrelatorTable) -> float:
    """Pearson CHSH combination rho00 + rho10 + rho01 - rho11."""
    return float(chsh_combination(ct.require_defined()))


def chsh_raw(ct: CorrelatorTable) -> float:
    """CHSH of the raw two-point correlators <A_i B_j> = cov + mean*mean."""
    return float(chsh_combination(ct.cov + np.outer(ct.means_a, ct.means_b)))


def chsh_max(entries: np.ndarray) -> float:
    """Largest magnitude over the eight CHSH facet sign patterns.

    The eight patterns each put one -1 among four +1 (or the reverse), so the
    values are four sums, one per position of the odd sign, and their
    negations. Each sum adds in the row-major order ``(s * entries).sum()``
    uses for a sign array s, so every value is bit-identical to that one.
    """
    (e00, e01), (e10, e11) = np.asarray(entries, dtype=np.float64).tolist()
    return max(abs(e00 + e01 + e10 - e11), abs(e00 + e01 - e10 + e11),
               abs(e00 - e01 + e10 + e11), abs(-e00 + e01 + e10 + e11))


def check_no_signaling(pt: ProbabilityTable, tol: float = 1e-9) -> dict:
    """Compare each party's marginals across the other party's settings.

    Returns a report with the maximum marginal discrepancy per party and the
    location of the worst violation; passes iff both maxima are <= tol.
    """
    report, worst = {"pass": True}, {}
    # each party's marginal indexed [own setting, remote setting, outcome]
    for party, marg, outcomes in (("alice", pt.p.sum(axis=3), pt.outcomes_a),
                                  ("bob", pt.p.sum(axis=2).transpose(1, 0, 2), pt.outcomes_b)):
        diff = np.abs(marg[:, 0] - marg[:, 1])
        top = float(diff.max())
        report["pass"] = report["pass"] and top <= tol
        report[f"max_discrepancy_{party}"] = top
        if top > tol:
            setting, k = np.unravel_index(int(diff.argmax()), diff.shape)
            worst[f"worst_{party}"] = {
                "setting": int(setting),
                "outcome": float(outcomes[k]),
                "marginals": [float(marg[setting, 0, k]), float(marg[setting, 1, k])],
            }
    return report | worst


def pr_box_table() -> ProbabilityTable:
    """Joint table with <A_i B_j> = (-1)^(i*j), uniform +-1 marginals."""
    outcomes = np.array([-1.0, 1.0])
    target = np.array([[1.0, 1.0], [1.0, -1.0]])          # (-1)^(i j)
    p = np.where(np.multiply.outer(target, np.outer(outcomes, outcomes)) == 1.0, 0.5, 0.0)
    return ProbabilityTable(outcomes_a=outcomes, outcomes_b=outcomes, p=p)
