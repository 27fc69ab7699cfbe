"""Correlation data model: probability tables, moment tables, CHSH, no-signaling.

A ``CorrelatorTable`` carries the one-point means, variances, covariances and
Pearson coefficients of a two-setting bipartite experiment. Outcome alphabets
are arbitrary finite reals, not just +-1; every normalization divides by a
standard deviation, so zero-variance settings mark their Pearson entries
undefined instead of defaulting them, and downstream consumers fail loudly.

Signaling in the variances (a party's spread depending on the remote setting)
is recorded as a flag rather than treated as an error: feasibility of a common
uncertainty parameter is assessed independently of the no-signaling condition.

The correlator tables keep the Python floats they checked, which is all the verdicts read, so
a Pearson table never imports NumPy; each array field is built on its first read. Probability
tables, their moments and the no-signaling report keep NumPy's bits and import it on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DegenerateDataError, MalformedInputError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProbabilityTable",
    "CorrelatorTable",
    "TripartiteCorrelatorTable",
    "from_probability_table",
    "chsh",
    "chsh_max",
    "check_no_signaling",
    "pr_box_table",
]

_VAR_FLOOR = 1e-12
_PEARSON_MAX = 1.0 + 1e-9     # |rho| above this is out of range, not rounding
_OUTCOME_MAX = 1e77           # outcome magnitudes whose moments' pairwise products stay finite
_OBSERVABLE_MAX = 1e75        # observable entries: at dim 32, var0 var1 and |r_q|^2 stay finite
_SIGNALING_TOL = 1e-9         # marginal variances further apart flag signaling in variance
_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _vector(obj, entry=float) -> list | None:
    """A length-2 list, tuple or array with ``entry`` applied to each item, or None if it is not one:
    ``float`` for a vector, ``_vector`` for the rows of a 2x2 block."""
    if type(obj) is not list and hasattr(obj, "tolist"):      # an array: its entries as Python numbers
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        return None
    try:
        a, b = entry(obj[0]), entry(obj[1])
    except (TypeError, ValueError, OverflowError):
        return None
    return None if a is None or b is None else [a, b]


class _Array:
    """An array field of a table that keeps the Python floats or bools it checked, ``_floats[k]``:
    built as a read-only float64 or bool array on its first read, then kept on the table."""

    def __init__(self, name: str, k: int) -> None:
        self.name, self.k = name, k

    def __get__(self, table, owner=None):
        if table is None:
            return self
        import numpy as np
        a = np.array(table._floats[self.k])
        a.setflags(write=False)
        table.__dict__[self.name] = a
        return a


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome distributions p[i][j] over a shared outcome alphabet per party."""

    outcomes_a: np.ndarray            # (na,)
    outcomes_b: np.ndarray            # (nb,)
    p: np.ndarray                     # (2, 2, na, nb), each p[i, j] sums to 1

    def __post_init__(self) -> None:
        import numpy as np
        arrays = []
        for name in ("outcomes_a", "outcomes_b", "p"):      # the one conversion of each field
            try:
                arrays.append(np.array(getattr(self, name), dtype=np.float64))
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedInputError(f"{name} must be a rectangular array of numbers") from exc
        oa, ob, pr = arrays
        if oa.ndim != 1 or ob.ndim != 1 or oa.size == 0 or ob.size == 0:
            raise MalformedInputError("outcome lists must be non-empty 1-d arrays")
        if not all(abs(x) <= _OUTCOME_MAX for x in oa.tolist() + ob.tolist()):    # NaN fails
            raise MalformedInputError("outcome values must be finite and at most 1e77 in magnitude")
        if pr.shape != (2, 2, oa.size, ob.size):
            raise MalformedInputError(
                f"p must have shape (2, 2, {oa.size}, {ob.size}), got {pr.shape}"
            )
        for x in pr.ravel().tolist():       # a loop: a generator resumes once per entry
            if not -1e-15 <= x < math.inf:      # NaN fails
                raise MalformedInputError("probabilities must be finite and nonnegative")
        sums = pr.sum(axis=(2, 3))
        if any(abs(x - 1.0) > 1e-12 for x in sums.ravel().tolist()):
            raise MalformedInputError(
                f"each setting pair must be normalized to 1 within 1e-12, sums={sums.tolist()}"
            )
        for a in arrays:
            a.setflags(write=False)
        self.__dict__.update(outcomes_a=oa, outcomes_b=ob, p=pr)     # frozen: bypass __setattr__


@dataclass(frozen=True)
class CorrelatorTable:
    """Means, variances, covariances and Pearson coefficients for 2x2 settings.

    Pearson entries where either standard deviation vanishes are NaN with the
    matching ``pearson_defined`` entry False. Construction converts each field
    to Python floats once and checks each rule once, in field order; the table
    keeps those floats, and the verdicts read only them. Each array field is
    built from them, read-only, on its first read. A table never changes:
    ``ri`` keeps its r' sides on it after the first verdict.
    """

    means_a: np.ndarray               # (2,)
    means_b: np.ndarray               # (2,)
    var_a: np.ndarray                 # (2,)
    var_b: np.ndarray                 # (2,)
    cov: np.ndarray                   # (2, 2), cov[i, j] = C(A_i, B_j)
    pearson: np.ndarray               # (2, 2)
    pearson_defined: np.ndarray = field(default=None)  # (2, 2) bool
    signaling_in_variance: bool = False

    _ARRAYS = ("means_a", "means_b", "var_a", "var_b", "cov", "pearson", "pearson_defined")

    def __post_init__(self) -> None:
        given = list(map(self.__dict__.pop, self._ARRAYS))      # frozen: bypass __delattr__
        ma, mb, va, vb = vectors = list(map(_vector, given[:4]))
        for name, x in zip(self._ARRAYS, vectors):
            if x is None or not all(map(math.isfinite, x)):
                raise MalformedInputError(f"{name} must be a finite length-2 vector")
        if min(va + vb) < 0.0:
            raise MalformedInputError("variances must be nonnegative")
        cov, pe = _vector(given[4], _vector), _vector(given[5], _vector)
        mask = None if given[6] is None else _vector(given[6], _vector)
        if cov is None or pe is None or (mask is None and given[6] is not None):
            raise MalformedInputError("cov and pearson must be 2x2")
        if mask is None:
            d = [math.isfinite(x) for x in pe[0] + pe[1]]
        else:
            d = [x != 0.0 for x in mask[0] + mask[1]]       # NaN counts as True, as in NumPy
        kept = [ij for ij, ok in zip(_CELLS, d) if ok]
        if any(abs(pe[i][j]) > _PEARSON_MAX for i, j in kept):
            raise MalformedInputError("defined Pearson entries must lie in [-1, 1]")
        if not all(math.isfinite(cov[i][j] + ma[i] * mb[j]) for i, j in kept):     # overflow gives inf
            raise MalformedInputError("cov + mean_a * mean_b must be finite where pearson is defined")
        self.__dict__.update(_floats=(ma, mb, va, vb, cov, pe, [d[:2], d[2:]]),
                             _undefined=[ij for ij, ok in zip(_CELLS, d) if not ok])

    def _pearson_rows(self) -> list[list[float]]:
        """The Pearson rows as floats; raises DegenerateDataError where an entry is undefined."""
        if self._undefined:
            raise DegenerateDataError(f"Pearson entries undefined at (i, j) in {self._undefined}")
        return self._floats[5]

    @classmethod
    def from_pearson(cls, pearson, variances=None, means=None) -> "CorrelatorTable":
        """Build a table from Pearson entries alone (unit variances, zero means)."""
        pe = _vector(pearson, _vector)
        if pe is None:      # only this error path imports NumPy, to name the shape
            import numpy as np
            try:
                shape = np.asarray(pearson, dtype=np.float64).shape
            except (TypeError, ValueError, OverflowError):
                raise MalformedInputError("pearson must be a 2x2 array of numbers") from None
            raise MalformedInputError(f"pearson must be 2x2, got shape {shape}")
        given = []          # Alice's and Bob's vectors as given; the table checks them
        for what, obj, default in (("variances", variances, (1.0, 1.0)), ("means", means, (0.0, 0.0))):
            if obj is not None and not isinstance(obj, dict):
                raise MalformedInputError(f"{what} must be an object with keys 'a' and 'b'")
            given += [(obj or {}).get("a", default), (obj or {}).get("b", default)]
        var_a, var_b, mean_a, mean_b = given
        cov = pe
        if variances is not None and (va := _vector(var_a)) and (vb := _vector(var_b)):
            # other shapes, negative variances and overflow are the table's to reject
            cov = [[x * (math.sqrt(v) if (v := a * b) >= 0.0 else math.nan)
                    for x, b in zip(row, vb)] for row, a in zip(pe, va)]
        return cls(means_a=mean_a, means_b=mean_b, var_a=var_a, var_b=var_b, cov=cov, pearson=pe)


@dataclass(frozen=True)
class TripartiteCorrelatorTable:
    """Pairwise Pearson blocks for three parties with two settings each. Like ``CorrelatorTable``,
    it keeps the Python floats it checked and builds each array field, read-only, on its first read."""

    pearson_ab: np.ndarray            # (2, 2), [i, j]
    pearson_ac: np.ndarray            # (2, 2), [i, k]
    pearson_bc: np.ndarray            # (2, 2), [j, k]
    var_a: np.ndarray = None          # (2,), defaults to ones
    var_b: np.ndarray = None
    var_c: np.ndarray = None

    _ARRAYS = ("pearson_ab", "pearson_ac", "pearson_bc", "var_a", "var_b", "var_c")

    def __post_init__(self) -> None:
        floats = []
        for name in self._ARRAYS[:3]:
            m = _vector(self.__dict__.pop(name), _vector)
            if m is None or not all(map(math.isfinite, m[0] + m[1])):
                raise MalformedInputError(f"{name} must be a finite 2x2 block")
            if max(map(abs, m[0] + m[1])) > _PEARSON_MAX:
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            floats.append(m)
        for name in self._ARRAYS[3:]:
            v = self.__dict__.pop(name)
            v = [1.0, 1.0] if v is None else _vector(v)
            if v is None or not all(0.0 <= x < math.inf for x in v):     # NaN fails
                raise MalformedInputError(f"{name} must be a nonnegative length-2 vector")
            floats.append(v)
        self.__dict__["_floats"] = tuple(floats)


for _table in (CorrelatorTable, TripartiteCorrelatorTable):    # in place of @dataclass's class-level defaults
    for _k, _name in enumerate(_table._ARRAYS):
        setattr(_table, _name, _Array(_name, _k))


def _pearson(cov, var_a, var_b, floor_a: float, floor_b: float) -> list[float]:
    """cov / sqrt(var_a var_b) entry by entry, NaN where a variance is at or below its floor.

    Entries past +-1 are clamped: E[x^2] - E[x]^2 rounds when a variance is tiny, and Cauchy-Schwarz
    bounds the exact value. An entry inside [-1, 1] keeps its bits."""
    out = []
    for c, va, vb in zip(cov, var_a, var_b):
        if va > floor_a and vb > floor_b:
            r = c / math.sqrt(va * vb)
            out.append(r if -1.0 <= r <= 1.0 else math.copysign(1.0, r))
        else:
            out.append(math.nan)
    return out


def from_probability_table(pt: ProbabilityTable) -> CorrelatorTable:
    """Moments of a probability table, per-context Pearson normalization.

    Each pearson[i, j] is computed within its own (i, j) joint distribution.
    Per-setting means and variances are the across-context averages; if a
    marginal variance differs across the other party's settings by more than
    1e-9, the table is flagged signaling-in-variance.
    """
    import numpy as np
    oa, ob, p = pt.outcomes_a, pt.outcomes_b, pt.p
    # each moment of the four contexts (i, j), in row-major order
    mean_a = np.einsum("ijab,a->ij", p, oa).ravel().tolist()
    mean_b = np.einsum("ijab,b->ij", p, ob).ravel().tolist()
    m2_a = np.einsum("ijab,a->ij", p, oa**2).ravel().tolist()
    m2_b = np.einsum("ijab,b->ij", p, ob**2).ravel().tolist()
    e_ab = np.einsum("ijab,a,b->ij", p, oa, ob).ravel().tolist()
    var_a, var_b, cov = [], [], []
    for a, a2, b, b2, e in zip(mean_a, m2_a, mean_b, m2_b, e_ab):
        var_a.append(v if (v := a2 - a * a) > 0.0 else 0.0)
        var_b.append(v if (v := b2 - b * b) > 0.0 else 0.0)
        cov.append(e - a * b)

    scale_a = max(1.0, max(map(abs, oa.tolist())) ** 2)
    scale_b = max(1.0, max(map(abs, ob.tolist())) ** 2)
    pearson = _pearson(cov, var_a, var_b, _VAR_FLOOR * scale_a, _VAR_FLOOR * scale_b)
    return CorrelatorTable(
        means_a=[(mean_a[0] + mean_a[1]) / 2, (mean_a[2] + mean_a[3]) / 2],
        means_b=[(mean_b[0] + mean_b[2]) / 2, (mean_b[1] + mean_b[3]) / 2],
        var_a=[(var_a[0] + var_a[1]) / 2, (var_a[2] + var_a[3]) / 2],
        var_b=[(var_b[0] + var_b[2]) / 2, (var_b[1] + var_b[3]) / 2],
        cov=[cov[:2], cov[2:]],
        pearson=[pearson[:2], pearson[2:]],
        # Alice's variance across Bob's settings j, Bob's across Alice's settings i
        signaling_in_variance=max(abs(var_a[0] - var_a[1]), abs(var_a[2] - var_a[3]),
                                  abs(var_b[0] - var_b[2]), abs(var_b[1] - var_b[3])) > _SIGNALING_TOL,
    )


def chsh_combination(x):
    """The CHSH combination x00 + x10 + x01 - x11 of a 2x2 block indexed x[i][j].

    The block is unpacked by rows, so it may be nested floats, a (2, 2) array, or
    any pair of row pairs whose entries are arrays with the batch on trailing axes.
    """
    (x00, x01), (x10, x11) = x
    return x00 + x10 + x01 - x11


def chsh(ct: CorrelatorTable) -> float:
    """Pearson CHSH combination rho00 + rho10 + rho01 - rho11."""
    return chsh_combination(ct._pearson_rows())


def chsh_max(entries) -> float:
    """Largest magnitude over the eight CHSH facet sign patterns of a 2x2 float array or nested list.

    The eight patterns each put one -1 among four +1 (or the reverse), so the
    values are four sums, one per position of the odd sign, and their
    negations. Each sum adds in the row-major order ``(s * entries).sum()``
    uses for a sign array s, so every value is bit-identical to that one.
    """
    (e00, e01), (e10, e11) = entries
    return max(abs(e00 + e01 + e10 - e11), abs(e00 + e01 - e10 + e11),
               abs(e00 - e01 + e10 + e11), abs(-e00 + e01 + e10 + e11))


def check_no_signaling(pt: ProbabilityTable, tol: float = 1e-9) -> dict:
    """Compare each party's marginals across the other party's settings.

    Returns a report with the maximum marginal discrepancy per party and the location
    of the worst violation (the first on a tie); passes iff both maxima are <= tol.
    """
    report, worst = {"pass": True}, {}
    # each party's marginal indexed [own setting][remote setting][outcome]
    pa, pb = pt.p.sum(axis=3).tolist(), list(zip(*pt.p.sum(axis=2).tolist()))
    for party, marg, outcomes in (("alice", pa, pt.outcomes_a), ("bob", pb, pt.outcomes_b)):
        diff = [abs(x - y) for m0, m1 in marg for x, y in zip(m0, m1)]     # [setting, outcome] flat
        top = max(diff)
        report["pass"] = report["pass"] and top <= tol
        report[f"max_discrepancy_{party}"] = top
        if top > tol:
            setting, k = divmod(diff.index(top), len(marg[0][0]))      # the first maximum, as argmax
            worst[f"worst_{party}"] = {
                "setting": setting,
                "outcome": outcomes.tolist()[k],
                "marginals": [marg[setting][0][k], marg[setting][1][k]],
            }
    return report | worst


@functools.cache
def pr_box_table() -> ProbabilityTable:
    """Joint table with <A_i B_j> = (-1)^(i*j), uniform +-1 marginals: one shared, read-only table."""
    return ProbabilityTable([-1.0, 1.0], [-1.0, 1.0], [[[[0.5, 0.0], [0.0, 0.5]]] * 2,
                                                     [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]]]])
