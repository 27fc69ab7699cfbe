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
    "CHSH_SIGNS",
]

_VAR_FLOOR = 1e-12

# the eight facet sign patterns (one odd entry), indexed like pearson[i][j]
CHSH_SIGNS = tuple(
    np.array(s, dtype=float).reshape(2, 2)
    for s in (
        [[+1, +1], [+1, -1]],
        [[+1, +1], [-1, +1]],
        [[+1, -1], [+1, +1]],
        [[-1, +1], [+1, +1]],
        [[-1, -1], [-1, +1]],
        [[-1, -1], [+1, -1]],
        [[-1, +1], [-1, -1]],
        [[+1, -1], [-1, -1]],
    )
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64).copy()
    a.setflags(write=False)
    return a


def _per_party(obj, what: str, default: float) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's vectors from an optional {"a": [..], "b": [..]} object."""
    if obj is None:
        return np.full(2, default), np.full(2, default)
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{what} must be an object with keys 'a' and 'b'")
    try:
        return tuple(np.asarray(obj.get(p, [default, default]), float) for p in "ab")
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome distributions p[i][j] over a shared outcome alphabet per party."""

    outcomes_a: np.ndarray            # (na,)
    outcomes_b: np.ndarray            # (nb,)
    p: np.ndarray                     # (2, 2, na, nb), each p[i, j] sums to 1

    def __post_init__(self) -> None:
        oa = np.asarray(self.outcomes_a, dtype=np.float64)
        ob = np.asarray(self.outcomes_b, dtype=np.float64)
        pr = np.asarray(self.p, dtype=np.float64)
        if oa.ndim != 1 or ob.ndim != 1 or oa.size == 0 or ob.size == 0:
            raise MalformedInputError("outcome lists must be non-empty 1-d arrays")
        if not (np.all(np.isfinite(oa)) and np.all(np.isfinite(ob))):
            raise MalformedInputError("outcome values must be finite")
        if pr.shape != (2, 2, oa.size, ob.size):
            raise MalformedInputError(
                f"p must have shape (2, 2, {oa.size}, {ob.size}), got {pr.shape}"
            )
        if not np.all(np.isfinite(pr)) or np.any(pr < -1e-15):
            raise MalformedInputError("probabilities must be finite and nonnegative")
        sums = pr.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > 1e-12:
            raise MalformedInputError(
                f"each setting pair must be normalized to 1 within 1e-12, sums={sums.tolist()}"
            )
        object.__setattr__(self, "outcomes_a", _freeze(oa))
        object.__setattr__(self, "outcomes_b", _freeze(ob))
        object.__setattr__(self, "p", _freeze(pr))


@dataclass(frozen=True)
class CorrelatorTable:
    """Means, variances, covariances and Pearson coefficients for 2x2 settings.

    Pearson entries where either standard deviation vanishes are NaN with the
    matching ``pearson_defined`` entry False.
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
        for name in ("means_a", "means_b", "var_a", "var_b"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (2,) or not np.all(np.isfinite(v)):
                raise MalformedInputError(f"{name} must be a finite length-2 vector")
            object.__setattr__(self, name, _freeze(v))
        if np.any(self.var_a < 0) or np.any(self.var_b < 0):
            raise MalformedInputError("variances must be nonnegative")
        cov = np.asarray(self.cov, dtype=np.float64)
        pe = np.asarray(self.pearson, dtype=np.float64)
        if cov.shape != (2, 2) or pe.shape != (2, 2):
            raise MalformedInputError("cov and pearson must be 2x2")
        if self.pearson_defined is None:
            defined = np.isfinite(pe)
        else:
            defined = np.asarray(self.pearson_defined, dtype=bool)
        if np.any(np.abs(pe[defined]) > 1.0 + 1e-9):
            raise MalformedInputError("defined Pearson entries must lie in [-1, 1]")
        object.__setattr__(self, "cov", _freeze(cov))
        object.__setattr__(self, "pearson", _freeze(pe))
        d = defined.copy()
        d.setflags(write=False)
        object.__setattr__(self, "pearson_defined", d)

    @property
    def all_defined(self) -> bool:
        return bool(self.pearson_defined.all())

    def require_defined(self) -> np.ndarray:
        if not self.all_defined:
            bad = [tuple(ix) for ix in np.argwhere(~self.pearson_defined)]
            raise DegenerateDataError(f"Pearson entries undefined at (i, j) in {bad}")
        return self.pearson

    @classmethod
    def from_pearson(cls, pearson, variances=None, means=None) -> "CorrelatorTable":
        """Build a table from Pearson entries alone (unit variances, zero means)."""
        pe = np.asarray(pearson, dtype=np.float64)
        if pe.shape != (2, 2):
            raise MalformedInputError(f"pearson must be 2x2, got shape {pe.shape}")
        var_a, var_b = _per_party(variances, "variances", 1.0)
        mean_a, mean_b = _per_party(means, "means", 0.0)
        sig = np.sqrt(np.outer(var_a, var_b))
        return cls(
            means_a=mean_a,
            means_b=mean_b,
            var_a=var_a,
            var_b=var_b,
            cov=pe * sig,
            pearson=pe,
        )

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
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (2, 2) or not np.all(np.isfinite(m)):
                raise MalformedInputError(f"{name} must be a finite 2x2 block")
            if np.abs(m).max() > 1.0 + 1e-9:
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            object.__setattr__(self, name, _freeze(m))
        for name in ("var_a", "var_b", "var_c"):
            v = getattr(self, name)
            v = np.ones(2) if v is None else np.asarray(v, dtype=np.float64)
            if v.shape != (2,) or np.any(v < 0) or not np.all(np.isfinite(v)):
                raise MalformedInputError(f"{name} must be a nonnegative length-2 vector")
            object.__setattr__(self, name, _freeze(v))


def _pearson(cov, var_a, var_b, floor_a: float, floor_b: float) -> tuple[np.ndarray, np.ndarray]:
    """cov / sqrt(var_a var_b) (broadcast to 2x2), NaN where a variance is at or below its floor."""
    defined = (var_a > floor_a) & (var_b > floor_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(defined, cov / np.sqrt(var_a * var_b), np.nan), defined


def from_probability_table(pt: ProbabilityTable, *, signaling_tol: float = 1e-9) -> CorrelatorTable:
    """Moments of a probability table, per-context Pearson normalization.

    Each pearson[i, j] is computed within its own (i, j) joint distribution.
    Per-setting means and variances are the across-context averages; if a
    marginal variance differs across the other party's settings by more than
    ``signaling_tol``, the table is flagged signaling-in-variance.
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

    scale_a = max(1.0, float(np.abs(oa).max()) ** 2)
    scale_b = max(1.0, float(np.abs(ob).max()) ** 2)
    pearson, defined = _pearson(cov, var_a_ctx, var_b_ctx, _VAR_FLOOR * scale_a, _VAR_FLOOR * scale_b)

    sig_var = bool(
        np.abs(var_a_ctx[:, 0] - var_a_ctx[:, 1]).max() > signaling_tol
        or np.abs(var_b_ctx[0, :] - var_b_ctx[1, :]).max() > signaling_tol
    )
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
    """Largest magnitude over the eight CHSH facet sign patterns."""
    entries = np.asarray(entries, dtype=np.float64)
    return float(max(abs(float((s * entries).sum())) for s in CHSH_SIGNS))


def check_no_signaling(pt: ProbabilityTable, tol: float = 1e-9) -> dict:
    """Compare each party's marginals across the other party's settings.

    Returns a report with the maximum marginal discrepancy per party and the
    location of the worst violation; passes iff both maxima are <= tol.
    """
    pa = pt.p.sum(axis=3)                      # (2, 2, na): marginal of A per (i, j)
    pb = pt.p.sum(axis=2)                      # (2, 2, nb)
    diff_a = np.abs(pa[:, 0, :] - pa[:, 1, :])   # A's marginal vs Bob's setting
    diff_b = np.abs(pb[0, :, :] - pb[1, :, :])   # B's marginal vs Alice's setting
    max_a = float(diff_a.max())
    max_b = float(diff_b.max())
    report = {
        "pass": bool(max_a <= tol and max_b <= tol),
        "max_discrepancy_alice": max_a,
        "max_discrepancy_bob": max_b,
    }
    if max_a > tol:
        i, a = np.unravel_index(int(diff_a.argmax()), diff_a.shape)
        report["worst_alice"] = {
            "setting": int(i),
            "outcome": float(pt.outcomes_a[a]),
            "marginals": [float(pa[i, 0, a]), float(pa[i, 1, a])],
        }
    if max_b > tol:
        j, b = np.unravel_index(int(diff_b.argmax()), diff_b.shape)
        report["worst_bob"] = {
            "setting": int(j),
            "outcome": float(pt.outcomes_b[b]),
            "marginals": [float(pb[0, j, b]), float(pb[1, j, b])],
        }
    return report


def pr_box_table() -> ProbabilityTable:
    """Joint table with <A_i B_j> = (-1)^(i*j), uniform +-1 marginals."""
    outcomes = np.array([-1.0, 1.0])
    p = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            target = (-1.0) ** (i * j)
            for a in range(2):
                for b in range(2):
                    if outcomes[a] * outcomes[b] == target:
                        p[i, j, a, b] = 0.5
    return ProbabilityTable(outcomes_a=outcomes, outcomes_b=outcomes, p=p)
