"""Correlation data model: probability tables, moment tables, CHSH, no-signaling.

A ``CorrelatorTable`` carries the one-point means, variances, covariances and
Pearson coefficients of a two-setting bipartite experiment. Outcome alphabets
are arbitrary finite reals, not just +-1; every normalization divides by a
standard deviation, so zero-variance settings mark their Pearson entries
undefined instead of defaulting them, and downstream consumers fail loudly.

Signaling in the variances (a party's spread depending on the remote setting)
is recorded as a flag rather than treated as an error: feasibility of a common
uncertainty parameter is assessed independently of the no-signaling condition.

Every table keeps the Python floats it checked, which is all the verdicts read, so no table verb
imports NumPy; each array field is built, read-only, on its first read. Every sum of a probability
table (its moments, marginals and normalization totals) is ``math.fsum`` of its float terms:
correctly rounded, so its bits depend neither on the order of the terms nor on the machine.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import mul

from .errors import DegenerateDataError, MalformedInputError

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
_P_MIN = -1e-15               # probabilities and ensemble weights down to this are rounding, not negative


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


_SEQUENCES = {list, tuple}
_PLAIN = {list, tuple, float, int}


def _nested(obj) -> tuple[tuple[int, ...], list[float]]:
    """The shape ``np.array(obj, dtype=np.float64)`` would have, and its entries as floats in row-major order.

    ``obj`` is a number or a nested list, tuple or array. As with NumPy, a ragged
    nesting raises ValueError, an entry ``float`` cannot read raises TypeError,
    ValueError or OverflowError, and None reads as NaN.
    """
    shape, level = [], [obj]
    while True:
        kinds = set(map(type, level))
        if not kinds <= _PLAIN and any(hasattr(x, "tolist") for x in level):    # arrays and NumPy scalars
            level = [x.tolist() if hasattr(x, "tolist") else x for x in level]
            kinds = set(map(type, level))
        if level and kinds <= _SEQUENCES:
            lengths = set(map(len, level))
            if len(lengths) != 1:
                raise ValueError("the nested lists are ragged")
            shape += lengths
            level = list(chain.from_iterable(level))
        elif kinds & _SEQUENCES:
            raise ValueError("the nested lists are ragged")
        else:
            break
    try:
        return tuple(shape), list(map(float, level))
    except TypeError:
        if None not in level:
            raise
        return tuple(shape), [math.nan if x is None else float(x) for x in level]


class _Array:
    """An array field of a record that keeps the Python floats or bools it checked, ``_floats[k]``:
    built as a read-only float64 or bool array on its first read, then kept on the record."""

    def __init__(self, k: int) -> None:
        self.k = k

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, table, owner=None):
        if table is None:
            return self
        import numpy as np
        a = np.array(table._floats[self.k])
        a.setflags(write=False)
        table.__dict__[self.name] = a
        return a


class _Frozen:
    """A record whose constructor fills ``__dict__`` once; its ``_FIELDS`` make its repr."""

    _FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._FIELDS)})"


class ProbabilityTable(_Frozen):
    """Joint outcome distributions p[i][j] over a shared outcome alphabet per party.

    Construction converts each field to Python floats once and checks each rule
    once; the table keeps those floats, and the moments read only them. Each
    array field is built from them, read-only, on its first read.
    """

    outcomes_a, outcomes_b, p = map(_Array, range(3))     # (na,), (nb,), (2, 2, na, nb): each p[i, j] sums to 1
    _FIELDS = ("outcomes_a", "outcomes_b", "p")

    def __init__(self, outcomes_a, outcomes_b, p) -> None:
        given = []
        for name, obj in zip(self._FIELDS, (outcomes_a, outcomes_b, p)):     # the one conversion of each field
            try:
                given.append(_nested(obj))
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedInputError(f"{name} must be a rectangular array of numbers") from exc
        (shape_a, oa), (shape_b, ob), (shape, flat) = given
        if len(shape_a) != 1 or len(shape_b) != 1 or not oa or not ob:
            raise MalformedInputError("outcome lists must be non-empty 1-d arrays")
        if not all(abs(x) <= _OUTCOME_MAX for x in oa + ob):    # NaN fails
            raise MalformedInputError("outcome values must be finite and at most 1e77 in magnitude")
        na, nb = len(oa), len(ob)
        if shape != (2, 2, na, nb):
            raise MalformedInputError(f"p must have shape (2, 2, {na}, {nb}), got {shape}")
        if not (all(map(_P_MIN.__le__, flat)) and max(flat) < math.inf):     # NaN fails the first
            raise MalformedInputError("probabilities must be finite and nonnegative")
        n = na * nb
        sums = [math.fsum(flat[k:k + n]) for k in range(0, 4 * n, n)]      # (i, j) row-major
        if any(abs(x - 1.0) > 1e-12 for x in sums):
            raise MalformedInputError(
                f"each setting pair must be normalized to 1 within 1e-12, sums={[sums[:2], sums[2:]]}"
            )
        rows = [flat[k:k + nb] for k in range(0, 4 * n, nb)]       # p[i][j][a], one list per (i, j, a)
        self.__dict__["_floats"] = (oa, ob, [[rows[k:k + na] for k in range(m, m + 2 * na, na)]
                                             for m in (0, 2 * na)])


class CorrelatorTable(_Frozen):
    """Means, variances, covariances and Pearson coefficients for 2x2 settings.

    Pearson entries where either standard deviation vanishes are NaN with the
    matching ``pearson_defined`` entry False. Construction converts each field
    to Python floats once and checks each rule once, in field order; the table
    keeps those floats, and the verdicts read only them. Each array field is
    built from them, read-only, on its first read. A table never changes:
    ``ri`` keeps its r' sides on it after the first verdict.
    """

    # (2,) each, then (2, 2): cov[i, j] = C(A_i, B_j), pearson, and pearson_defined as bools
    means_a, means_b, var_a, var_b, cov, pearson, pearson_defined = map(_Array, range(7))
    _FIELDS = ("means_a", "means_b", "var_a", "var_b", "cov", "pearson", "pearson_defined", "signaling_in_variance")

    def __init__(self, means_a, means_b, var_a, var_b, cov, pearson, pearson_defined=None,
                 signaling_in_variance: bool = False) -> None:
        ma, mb, va, vb = vectors = list(map(_vector, (means_a, means_b, var_a, var_b)))
        for name, x in zip(self._FIELDS, vectors):
            if x is None or not all(map(math.isfinite, x)):
                raise MalformedInputError(f"{name} must be a finite length-2 vector")
        if min(va + vb) < 0.0:
            raise MalformedInputError("variances must be nonnegative")
        cov, pe = _vector(cov, _vector), _vector(pearson, _vector)
        mask = None if pearson_defined is None else _vector(pearson_defined, _vector)
        if cov is None or pe is None or (mask is None and pearson_defined is not None):
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
                             _undefined=[ij for ij, ok in zip(_CELLS, d) if not ok],
                             signaling_in_variance=signaling_in_variance)

    def _pearson_rows(self) -> list[list[float]]:
        """The Pearson rows as floats; raises DegenerateDataError where an entry is undefined."""
        if self._undefined:
            raise DegenerateDataError(f"Pearson entries undefined at (i, j) in {self._undefined}")
        return self._floats[5]

    @classmethod
    def from_pearson(cls, pearson, variances=None, means=None) -> "CorrelatorTable":
        """Build a table from Pearson entries alone (unit variances, zero means)."""
        pe = _vector(pearson, _vector)
        if pe is None:
            try:
                shape = _nested(pearson)[0]
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


class TripartiteCorrelatorTable(_Frozen):
    """Pairwise Pearson blocks for three parties with two settings each. Like ``CorrelatorTable``,
    it keeps the Python floats it checked and builds each array field, read-only, on its first read."""

    # (2, 2) blocks [i, j], [i, k] and [j, k], then the (2,) variances, ones when not given
    pearson_ab, pearson_ac, pearson_bc, var_a, var_b, var_c = map(_Array, range(6))
    _FIELDS = ("pearson_ab", "pearson_ac", "pearson_bc", "var_a", "var_b", "var_c")

    def __init__(self, pearson_ab, pearson_ac, pearson_bc, var_a=None, var_b=None, var_c=None) -> None:
        floats = []
        for name, m in zip(self._FIELDS, (pearson_ab, pearson_ac, pearson_bc)):
            m = _vector(m, _vector)
            if m is None or not all(map(math.isfinite, m[0] + m[1])):
                raise MalformedInputError(f"{name} must be a finite 2x2 block")
            if max(map(abs, m[0] + m[1])) > _PEARSON_MAX:
                raise MalformedInputError(f"{name} entries must lie in [-1, 1]")
            floats.append(m)
        for name, v in zip(self._FIELDS[3:], (var_a, var_b, var_c)):
            v = [1.0, 1.0] if v is None else _vector(v)
            if v is None or not all(0.0 <= x < math.inf for x in v):     # NaN fails
                raise MalformedInputError(f"{name} must be a nonnegative length-2 vector")
            floats.append(v)
        self.__dict__["_floats"] = tuple(floats)


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


def _context_moments(pt: ProbabilityTable) -> tuple[list[float], ...]:
    """E[a], E[b], E[a^2], E[b^2] and E[ab] in each context (i, j), row-major: each one ``math.fsum``
    of its terms p a, p b, p (a a), p (b b) and (p a) b over the context's outcome pairs (a, b)."""
    oa, ob, p = pt._floats
    a = [x for x in oa for _ in ob]         # each term's outcomes, row-major over (a, b)
    b = ob * len(oa)
    a2, b2 = [x * x for x in a], [y * y for y in b]
    out = [], [], [], [], []
    mean_a, mean_b, m2_a, m2_b, e_ab = out
    for pij in (*p[0], *p[1]):
        row = list(chain.from_iterable(pij))
        pa = list(map(mul, row, a))
        mean_a.append(math.fsum(pa))
        mean_b.append(math.fsum(map(mul, row, b)))
        m2_a.append(math.fsum(map(mul, row, a2)))
        m2_b.append(math.fsum(map(mul, row, b2)))
        e_ab.append(math.fsum(map(mul, pa, b)))
    return out


def from_probability_table(pt: ProbabilityTable) -> CorrelatorTable:
    """Moments of a probability table, per-context Pearson normalization.

    Each pearson[i, j] is computed within its own (i, j) joint distribution.
    Per-setting means and variances are the across-context averages; if a
    marginal variance differs across the other party's settings by more than
    1e-9, the table is flagged signaling-in-variance.
    """
    mean_a, mean_b, m2_a, m2_b, e_ab = _context_moments(pt)
    var_a, var_b, cov = [], [], []
    for a, a2, b, b2, e in zip(mean_a, m2_a, mean_b, m2_b, e_ab):
        var_a.append(v if (v := a2 - a * a) > 0.0 else 0.0)
        var_b.append(v if (v := b2 - b * b) > 0.0 else 0.0)
        cov.append(e - a * b)

    oa, ob = pt._floats[:2]
    scale_a = max(1.0, max(map(abs, oa)) ** 2)
    scale_b = max(1.0, max(map(abs, ob)) ** 2)
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
    oa, ob, p = pt._floats
    # each party's marginal indexed [own setting][remote setting][outcome]
    pa = [[list(map(math.fsum, pij)) for pij in pi] for pi in p]
    pb = [[list(map(math.fsum, zip(*p[i][j]))) for i in (0, 1)] for j in (0, 1)]
    for party, marg, outcomes in (("alice", pa, oa), ("bob", pb, ob)):
        diff = [abs(x - y) for m0, m1 in marg for x, y in zip(m0, m1)]     # [setting, outcome] flat
        top = max(diff)
        report["pass"] = report["pass"] and top <= tol
        report[f"max_discrepancy_{party}"] = top
        if top > tol:
            setting, k = divmod(diff.index(top), len(marg[0][0]))      # the first maximum, as argmax
            worst[f"worst_{party}"] = {
                "setting": setting,
                "outcome": outcomes[k],
                "marginals": [marg[setting][0][k], marg[setting][1][k]],
            }
    return report | worst


@functools.cache
def pr_box_table() -> ProbabilityTable:
    """Joint table with <A_i B_j> = (-1)^(i*j), uniform +-1 marginals: one shared, read-only table."""
    return ProbabilityTable([-1.0, 1.0], [-1.0, 1.0], [[[[0.5, 0.0], [0.0, 0.5]]] * 2,
                                                     [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]]]])
