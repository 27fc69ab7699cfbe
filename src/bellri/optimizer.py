"""Derivative-free search over parameterized two-qubit scenarios.

The search space is 14-dimensional: six hyperspherical angles fix a pure
two-qubit state (unit norm by construction), and each of the four observables
is a unit Bloch vector from two polar angles, so every parameter vector
decodes to a valid scenario; there are no constraints to project onto.

``_two_qubit_moments`` maps an (R, 14) block of vectors in closed form to its
own record, each row computed alone: ``QuantumMoments``' field names, each
field batched with a leading (R,) axis and built from the map's work block on
first read. It also returns a mask of the rows with a vanishing variance (its
oracle is ``moments(ScenarioParams.from_vector(x).decode())``). An objective
gets that record and scores it elementwise, one value per row (a scalar
broadcasts; any other shape raises ``ObjectiveError``): index
``mom.pearson[..., i, j]`` and use NumPy, not ``float`` or ``math``. It may be
handed rows that no search consumes, which never count, so it must be pure
and elementwise. Masked rows score ``DEGENERATE_PENALTY``; a non-finite value
on another consumed row aborts with ``ObjectiveError`` naming its parameters.

The optimizer is a Nelder-Mead simplex (Nelder & Mead, Comput. J. 7, 308,
1965) with deterministic multistart: restart r starts from a generator seeded
with seed + r, and each converged simplex is rebuilt twice around its best
vertex at a smaller scale. All restarts (and eta targets) run in lockstep: a
simplex is a generator that keeps its control flow and budget and yields
requests to ``_lockstep``, whose steps sort every simplex, build the points
asked for and score every pending row at once (one map call, one call per
objective). A reflection's expansion and contraction are mapped with it, so
a search that asks for one gets it in the same step (the idea of evaluating
a direct search's candidate points together is from Dennis & Torczon, SIAM
J. Optim. 1, 448, 1991). Each restart's result equals that restart run
alone, bit for bit, and ties between restarts go to the lowest index.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .correlators import _VAR_FLOOR
from .errors import BellRIError, MalformedInputError
from .qmodel import QuantumMoments, QuantumScenario, bloch_observable

__all__ = [
    "ScenarioParams",
    "OptConfig",
    "OptResult",
    "ObjectiveError",
    "maximize",
    "chsh_objective",
    "eta_pinned_objective",
    "trace_eta_curve",
]

N_PARAMS = 14

DEGENERATE_PENALTY = -1e6   # finite sentinel for zero-variance iterates, below any
                            # value a penalized objective can reach near an optimum
SIMPLEX_TOL = 1e-11         # a simplex whose value spread is below this has converged
INIT_STEP = 0.6             # edge of a restart's first simplex; each refinement takes x0.05
PIN_WEIGHTS = (1e3, 1e5, 1e7)   # the eta curve's penalty weight in each of its stages
PIN_TOL = 1e-3              # |realized |eta_A| - target| of a feasible curve point


class ObjectiveError(BellRIError):
    """Objective returned a non-finite value (aborts with a parameter dump) or a result of the wrong shape."""


@dataclass(frozen=True)
class ScenarioParams:
    """Decoded search point: state angles plus per-observable Bloch angles."""

    state_angles: np.ndarray          # (6,): three amplitude angles, three phases
    alice_bloch: np.ndarray           # (2, 2): rows (theta, phi)
    bob_bloch: np.ndarray             # (2, 2)

    def __post_init__(self) -> None:
        names = ("state_angles", "alice_bloch", "bob_bloch")
        arrays = [np.array(getattr(self, name), dtype=np.float64) for name in names]  # copies
        if [arr.shape for arr in arrays] != [(6,), (2, 2), (2, 2)]:
            raise MalformedInputError("parameter blocks have wrong shapes")
        if not all(np.isfinite(arr).all() for arr in arrays):
            raise MalformedInputError("parameters must be finite")
        for name, arr in zip(names, arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_vector(cls, x) -> "ScenarioParams":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (N_PARAMS,):
            raise MalformedInputError(f"parameter vector must have length {N_PARAMS}")
        return cls(state_angles=x[:6], alice_bloch=x[6:10].reshape(2, 2), bob_bloch=x[10:].reshape(2, 2))

    def decode(self) -> QuantumScenario:
        t1, t2, t3, p1, p2, p3 = self.state_angles
        amps = np.array(
            [
                math.cos(t1),
                math.sin(t1) * math.cos(t2) * np.exp(1j * p1),
                math.sin(t1) * math.sin(t2) * math.cos(t3) * np.exp(1j * p2),
                math.sin(t1) * math.sin(t2) * math.sin(t3) * np.exp(1j * p3),
            ],
            dtype=np.complex128,
        )
        return QuantumScenario(
            dims=(2, 2),
            state=amps,
            alice_obs=tuple(bloch_observable(*row) for row in self.alice_bloch),
            bob_obs=tuple(bloch_observable(*row) for row in self.bob_bloch),
        )


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 24
    max_evals: int = 2500             # per restart, refinement stages included
    seed: int = 0
    refine_stages: int = 2

    def __post_init__(self) -> None:
        for name in ("restarts", "max_evals", "seed", "refine_stages"):
            if type(getattr(self, name)) is not int:            # bool and float too
                raise MalformedInputError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.restarts < 1 or self.max_evals < N_PARAMS + 2 or min(self.refine_stages, self.seed) < 0:
            raise MalformedInputError("config values must be positive and sane")


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_params: ScenarioParams
    evaluations: int
    trace: tuple[float, ...]          # best value per restart
    trajectory_max: float             # max objective over every evaluation made
    degenerate_hits: int = 0          # evaluations scored DEGENERATE_PENALTY

    def __post_init__(self) -> None:
        if not math.isfinite(self.best_value):
            raise MalformedInputError("best_value must be finite")


# The map's work block w (a column per parameter row) holds f0 f1 twice, component
# c of observable i of party p at _N + 6 i + 3 p + c, m_p[c] at _M + 3 p + c, T[c, k]
# at _T + 3 c + k, the negatives of rows _N + 6 to _T, a zero row, and from _ACC the
# sums, variances, floored variances and ratios; before the sums, the trig table
# (sin of parameter k at k, cos at 15 + k, parameter 14 = 0), then the distinct
# amplitude products and the negatives of those a Pauli sum subtracts. Parameters
# 0-5 are t1-t3, p1-p3; observable i of party p has theta, phi at 6 + 4 p + 2 i.
_N, _M, _T, _NEG, _ACC = 8, 20, 26, 35, 48
_THETA = (6, 10, 8, 12)                 # A0, B0, A1, B1
_TRIG_TAKE = np.array([29, 29, 0, 0] * 2 + [k for th in _THETA for k in (th, th, th + 15)]  # f0, n =
                      + [29, 0, 1, 1] * 2 + [k for th in _THETA for k in (th + 16, th + 1, 29)]  # (sin th,
                      + [15, 16, 17, 2] * 2 + [29, 18, 19, 20, 14, 3, 4, 5])  # sin th, cos th) (cos ph,
# sin ph, 1); f1; f2 (|psi| = f0 f1 f2); cos, sin of the arguments. <sigma_i x sigma_j>
# (at 4 i + j) sums Re(conj(psi_a) f psi_b) over a, f = f' + i f'' being the one
# nonzero, at b, of row a of the Kronecker product: with u = (Re psi, Im psi), term
# a is (f' - f'') u_a u_b+4f'' and term 4 + a is (f' + f'') u_a+4 u_b+4f'.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_KRON = (_PAULI[:, None, :, None, :, None] * _PAULI[None, :, None, :, None, :]).reshape(16, 4, 4).tolist()
_TERMS = [[(*sorted((a + 4 * h, b + 4 * (h != (f.imag != 0)))), f.real + (2 * h - 1) * f.imag < 0)
           for e in [4, 8, 12, 1, 2, 3] + [4 * c + k for c in (1, 2, 3) for k in (1, 2, 3)]  # m_A, m_B, T
           for b in [[abs(f) for f in _KRON[e][a]].index(1)] for f in [_KRON[e][a][b]]]
          for h in (0, 1) for a in range(4)]
_NEGATED = {(x, y) for row in _TERMS for x, y, neg in row if neg}
_PAIRS = sorted({(x, y) for row in _TERMS for x, y, _ in row}, key=lambda xy: (xy not in _NEGATED, xy))
_PAULI_SUMS = np.array([[_ACC + _PAIRS.index((x, y)) + len(_PAIRS) * neg for x, y, neg in row]
                        for row in _TERMS])
_PAIRS = np.array(_PAIRS).T
# Sums of three products of rows as (left, right) pairs, terms down each column (a_i,
# b_j: the vectors of A_i, B_j; X their cross product). The second table's left
# factors are the first's sums; it adds <X1><X0> per party, <A_i><B_j> and the
# squared means as single products. Last, the floored variances' pairs.
_SUMS_A = np.array(
    [[(_N + 6 * i + 3 * p + c, _M + 3 * p + c) for c in range(3)] for p in range(2) for i in range(2)]
    + [[(_N + 6 * i + c, _T + 3 * c + k) for c in range(3)] for i in range(2) for k in range(3)]  # a_i T
    + [[(_N + 6 + 3 * p + (c + 1) % 3, _N + 3 * p + (c + 2) % 3),                 # (X1 x X0)_c,
        (_NEG + 3 * p + (c + 2) % 3, _N + 3 * p + (c + 1) % 3), (_ACC - 1, _N)]  # party p
       for c in range(3) for p in range(2)]
    + [[(_N + 6 + 3 * p + c, _N + 3 * p + c) for c in range(3)] for p in range(2)]       # X1.X0
).transpose(2, 1, 0)
_PAIR_A, _PAIR_B = [1, 3, 0, 0, 1, 1, 1, 3], [0, 2, 2, 3, 2, 3, 0, 2]     # under nu, Pearson, eta
_SUMS_B = np.hstack([np.array(
    [[(_ACC + 4 + 3 * i + k, _N + 3 + 6 * j + k) for k in range(3)] for i in range(2) for j in range(2)]
    + [[(_ACC + 10 + 2 * c + p, _NEG + 6 + 3 * p + c) for c in range(3)] for p in range(2)]  # -(X1 x X0).m
).transpose(2, 1, 0).reshape(2, 18), [_ACC + np.r_[_PAIR_A[:6], :4], _ACC + np.r_[_PAIR_B[:6], :4]]])
_VAR_PAIRS, _FLOORS = _ACC + 28 + np.array([_PAIR_A, _PAIR_B]), np.array([0, _VAR_FLOOR])[:, None, None]


def _products(w: np.ndarray, pairs) -> np.ndarray:
    """Products of the rows of w that pairs = (left, right) names, in pairs' shape."""
    terms = w.take(pairs, axis=0)
    return np.multiply(terms[0], terms[1], out=terms[0])


class _View:
    """A field of ``_Moments``: its view of the map's work block, built on first read, then kept."""

    def __init__(self, view) -> None:
        self.view = view

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, mom, owner=None):
        if mom is None:
            return self
        mom.__dict__[self.name] = value = self.view(mom.wt)
        return value


class _Moments:
    """The map's record: ``QuantumMoments``' field names, each field with a leading row axis.

    ``wt`` is the work block from _ACC on, transposed (row first): means at 0-3,
    Re r_q per party at 16-17, cov at 18-21, -Im r_q per party at 22-23,
    variances at 24-27, then nu, Pearson and eta at 32-39.
    """

    mean_a, mean_b = _View(lambda wt: wt[:, :2]), _View(lambda wt: wt[:, 2:4])
    var_a, var_b = _View(lambda wt: wt[:, 24:26]), _View(lambda wt: wt[:, 26:28])
    cov = _View(lambda wt: wt[:, 18:22].reshape(-1, 2, 2))
    pearson = _View(lambda wt: wt[:, 34:38].reshape(-1, 2, 2))
    eta_a, eta_b = _View(lambda wt: wt[:, 38]), _View(lambda wt: wt[:, 39])
    nu_a, nu_b = _View(lambda wt: wt[:, 32]), _View(lambda wt: wt[:, 33])
    r_q_a = _View(lambda wt: wt[:, 16] - 1j * wt[:, 22])
    r_q_b = _View(lambda wt: wt[:, 17] - 1j * wt[:, 23])

    def __init__(self, wt: np.ndarray) -> None:
        self.wt = wt


def _two_qubit_moments(x) -> tuple[_Moments, np.ndarray]:
    """Moments of the scenarios an (R, 14) parameter block decodes to, in closed form.

    Each observable is a unit Bloch vector n, so with the state's Bloch
    vectors m_A, m_B and T_ij = <sigma_i x sigma_j>: <a.sigma> = a.m_A,
    var = 1 - <a.sigma>^2, cov_ij = a_i^T T b_j - <A_i><B_j> and
    r_q = a_1.a_0 + i (a_1 x a_0).m_A - <A_1><A_0> (Bob's alike). A Pauli
    expectation gathers its 8 signed terms from the 32 distinct amplitude
    products, each computed once; every other sum is one gather, multiply
    and reduce on one work block. Returns the record and the mask of rows with
    a variance at or below the floor of ``moments`` (their eta, nu and Pearson
    are meaningless); raises ``MalformedInputError`` on a bad shape or entry.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != N_PARAMS:
        raise MalformedInputError(f"parameter block must have shape (R, {N_PARAMS})")
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise MalformedInputError("parameters must be finite")
    r = len(v)
    w = np.zeros((_ACC + _PAIRS.size, r))
    trig, angles = w[_ACC:_ACC + 30], w[_ACC + 30:_ACC + 45]
    angles[:N_PARAMS] = v.T
    np.sin(angles, out=trig[:15])
    np.cos(angles, out=trig[15:])
    t = trig.take(_TRIG_TAKE, axis=0)
    np.multiply(t[:_M], t[_M:2 * _M], out=w[:_M])
    prod = w[_ACC:].reshape(2, -1, r)
    (w[:8] * t[40:48] * t[48:]).take(_PAIRS, axis=0, out=prod, mode="clip")   # u, then pairs
    del t                                   # freed before the largest gather
    np.multiply(prod[0], prod[1], out=prod[0])
    np.negative(prod[0, :len(_NEGATED)], out=prod[1, :len(_NEGATED)])
    np.add.reduce(w.take(_PAULI_SUMS, axis=0), axis=0, out=w[_M:_NEG])
    np.negative(w[_N + 6:_T], out=w[_NEG:_ACC - 1])
    acc = w[_ACC:_ACC + 24]
    np.add.reduce(_products(w, _SUMS_A), axis=0, out=acc[:18])
    prod = _products(w, _SUMS_B)
    np.add.reduce(prod[:18].reshape(3, 6, r), axis=0, out=acc[18:])
    acc[16:22] -= prod[18:24]
    diff = 1.0 - prod[24:]
    degenerate = np.logical_or.reduce(diff <= _VAR_FLOOR)
    np.maximum(diff, _FLOORS, out=w[_ACC + 24:_ACC + 32].reshape(2, 4, r))   # var, then floored
    # acc[16:]: Re r_q per party, cov, -Im r_q per party; divided: nu, Pearson, eta
    np.divide(acc[16:], np.sqrt(prod := _products(w, _VAR_PAIRS), out=prod), out=w[_ACC + 32:_ACC + 40])
    return _Moments(w[_ACC:].T), degenerate


class _Evaluator:
    """An objective and its accounting over every search that uses it."""

    def __init__(self, objective):
        self.objective = objective
        self.count = self.degenerate_hits = 0
        self.maximum = -math.inf

    def charge(self, value: float, degenerate, point: np.ndarray) -> None:
        """Count one row mapped ahead of its request, once its search asks for it."""
        if not math.isfinite(value):
            raise _nonfinite(value, point)
        self.count += 1
        self.degenerate_hits += bool(degenerate)
        self.maximum = max(self.maximum, value)


def _nonfinite(value: float, point: np.ndarray) -> ObjectiveError:
    return ObjectiveError(f"objective returned {value!r} at parameters {point.tolist()}")


def _score(x: np.ndarray, groups: list) -> tuple[np.ndarray, np.ndarray]:
    """Objective values of the rows x and their degeneracy mask.

    Each [evaluator, lo, hi, a, b] of groups scores rows lo:hi, checked and
    charged here, and rows n + a:n + b (n the last group's hi), mapped ahead
    and charged by ``_Evaluator.charge`` only when their search asks.
    """
    mom, degenerate = _two_qubit_moments(x)
    n, vals = groups[-1][2], np.empty(len(x))
    for ev, lo, hi, a, b in groups:
        shape = np.shape(out := ev.objective(mom))
        if shape == (len(x),):
            vals[lo:hi], vals[n + a:n + b] = out[lo:hi], out[n + a:n + b]
        elif shape == ():
            vals[lo:hi] = vals[n + a:n + b] = out
        else:
            raise ObjectiveError(f"objective returned shape {shape} for {len(x)} rows, "
                                 "not a scalar or one value per row")
    if hit := np.count_nonzero(degenerate):
        vals[degenerate] = DEGENERATE_PENALTY
    finite = np.isfinite(vals[:n])
    if np.count_nonzero(finite) < n:
        i = int(finite.argmin())
        raise _nonfinite(float(vals[i]), x[i])
    for ev, lo, hi, _, _ in groups:
        ev.count += hi - lo
        ev.degenerate_hits += np.count_nonzero(degenerate[lo:hi]) if hit else 0
        ev.maximum = max(ev.maximum, float(np.maximum.reduce(vals[lo:hi])))
    return vals, degenerate


# Requests for one point, answered with (value, point): reflect the worst vertex
# through the centroid of the others, expand twice as far, contract halfway. A
# search asks for an expansion or a contraction right after the reflection, on
# the same simplex, so both are mapped with the reflection and answered at once.
_XR, _XE, _XC = "reflect", "expand", "contract"
_BLOCK = {_XR: 0, _XE: 1, _XC: 2}       # the row block of _lockstep holding each kind


def _lockstep(jobs, tol: float) -> list:
    """Run (evaluator, search) jobs, each evaluator's adjacent, and return each search's result.

    ``search(pts, vals)`` starts a generator on its job's column j of one (15,
    J, 14) vertex array and (15, J) value array (to minimize), edited in place.
    It yields a slice of its vertices, answered with their values, or ``_XR``/
    ``_XE``/``_XC``, answered with (value, point), or with None at ``_XR`` when
    its value spread is below tol. Each step sorts every simplex, builds the
    three kinds of point in their own blocks of rows, gathers the asked rows
    and, for each reflection, its expansion and contraction, maps them in one
    call and runs each objective once on the whole record. An ``_XE`` or
    ``_XC`` right after a reflection is answered in the same step from those
    rows, so a search must not edit its simplex in between. A row mapped ahead
    counts, or raises ``ObjectiveError``, only when its search asks for it; an
    objective may thus score rows no search consumes.
    """
    J, n = len(jobs), N_PARAMS
    rows = np.zeros(((n + 4) * J, n))       # 3 blocks of points, then vertex k of job j at (3 + k) J + j
    new, vertices = rows[:3 * J].reshape(3, J, n), rows[3 * J:]
    P, V = vertices.reshape(n + 1, J, n), np.full((n + 1, J), math.inf)
    results, cols = [None] * J, np.arange(J)
    live = [(j, ev, gen, next(gen)) for j, (ev, search) in enumerate(jobs)
            for gen in [search(P[:, j], V[:, j])]]
    while live:
        P[:] = vertices.take(V.argsort(axis=0, kind="stable") * J + cols, axis=0)
        V.sort(axis=0, kind="stable")
        best, worst = V[::n].tolist()
        take, ahead, plan, groups, group = [], [], [], [], [None]
        for j, ev, gen, req in live:
            lo, a = len(take), len(ahead)
            if req.__class__ is slice:
                take += range(J * (req.start + 3) + j, J * (req.stop + 3) + j, J)
            elif req is _XR and worst[j] - best[j] < tol:
                plan.append((j, ev, gen, req, None, None))
                continue
            else:
                take.append(J * _BLOCK[req] + j)
                if req is _XR:                  # its expansion and contraction, mapped ahead
                    ahead += (J + j, 2 * J + j)
            if group[0] is not ev:
                groups.append(group := [ev, lo, 0, a, 0])
            group[2], group[4] = len(take), len(ahead)
            plan.append((j, ev, gen, req, lo, a if req is _XR else None))
        if take:
            centroid = np.add.reduce(P[:n], axis=0) / n
            np.add(centroid, centroid - P[n], out=new[0])
            np.add(centroid, 2.0 * (new[0] - centroid), out=new[1])
            np.add(centroid, 0.5 * (P[n] - centroid), out=new[2])
            vals, degenerate = _score(x := rows.take(take + ahead, axis=0), groups)
            values, m = -vals, len(take)
            floats = values.tolist()
        live = []
        for j, ev, gen, req, lo, a in plan:
            answer = (None if lo is None else values[lo:lo + req.stop - req.start]
                      if req.__class__ is slice else (floats[lo], x[lo]))
            try:
                req = gen.send(answer)
                while a is not None and (req is _XE or req is _XC):
                    ev.charge(-floats[k := m + a + _BLOCK[req] - 1], degenerate[k], x[k])
                    req = gen.send((floats[k], x[k]))
                live.append((j, ev, gen, req))
            except StopIteration as done:
                results[j] = done.value
    return results


def _descend(x: np.ndarray, steps, budget: int, pts: np.ndarray, vals: np.ndarray):
    """Classic simplex descent on its rows pts, vals; returns the best point and its objective value.

    Each of the stages, on one budget, rebuilds the simplex around the last
    best point at its step. Yields the initial simplex and a shrink as slices
    of its rows, and a reflection, expansion or contraction as one request.
    """
    n, value = x.size, math.inf
    for step in steps:
        if budget <= 0:
            break
        pts[:] = x + np.vstack([np.zeros(n), step * np.eye(n)])
        vals[:] = math.inf
        k = min(n + 1, budget)
        budget -= k
        vals[:k] = yield slice(0, k)
        while budget > 0:
            if (reflected := (yield _XR)) is None:      # answered on the sorted simplex
                break
            fr, xr = reflected
            budget -= 1
            if fr < vals[0] and budget > 0:
                budget -= 1
                fe, xe = yield _XE
                if fe < fr:
                    xr, fr = xe, fe
            if fr < vals[-2]:                   # also every new best point
                pts[-1], vals[-1] = xr, fr
            elif budget <= 0:
                break
            else:
                budget -= 1
                fc, xc = yield _XC
                if fc < vals[-1]:
                    pts[-1], vals[-1] = xc, fc
                elif budget > 0:
                    k = min(n, budget)
                    pts[1:k + 1] = pts[0] + 0.5 * (pts[1:k + 1] - pts[0])
                    budget -= k
                    vals[1:k + 1] = yield slice(1, k + 1)
        best = int(np.argmin(vals))
        x, value = pts[best].copy(), float(vals[best])
    return x, -value                        # the simplex minimizes -objective


def _restarts(evaluators, config: OptConfig) -> list[list[tuple[np.ndarray, float]]]:
    """Each evaluator's multistart runs, all in one lockstep; restart r seeds seed + r."""
    starts = [np.random.default_rng(config.seed + r).uniform(-math.pi, math.pi, size=N_PARAMS)
              for r in range(config.restarts)]
    steps = [INIT_STEP * 0.05 ** s for s in range(config.refine_stages + 1)]
    runs = _lockstep([(ev, functools.partial(_descend, x0, steps, config.max_evals))
                      for ev in evaluators for x0 in starts], SIMPLEX_TOL)
    return [runs[k:k + config.restarts] for k in range(0, len(runs), config.restarts)]


def maximize(objective, config: OptConfig = OptConfig()) -> OptResult:
    """Multistart simplex maximization of an objective on ``QuantumMoments``.

    Deterministic for a fixed (objective, config): each restart's result
    equals that restart run alone, and ties resolve to the lowest restart.
    """
    ev = _Evaluator(objective)
    [runs] = _restarts([ev], config)
    best_x, best_value = max(runs, key=lambda run: run[1])
    return OptResult(best_value=best_value, best_params=ScenarioParams.from_vector(best_x),
                     evaluations=ev.count, trace=tuple(v for _, v in runs),
                     trajectory_max=ev.maximum, degenerate_hits=ev.degenerate_hits)


def chsh_objective(mom: QuantumMoments):
    """Pearson CHSH of a moments record, one value per row. The record is batch-first, (R, 2, 2):
    indexing it is cheaper than moving the batch axis last for ``chsh_combination``."""
    p = mom.pearson
    return p[..., 0, 0] + p[..., 1, 0] + p[..., 0, 1] - p[..., 1, 1]


def _real(value) -> bool:
    return type(value) is not bool and isinstance(value, numbers.Real)


def eta_pinned_objective(target: float, weight: float):
    """CHSH with a quadratic penalty pinning Alice's commutator ratio.

    The pin is symmetric in sign: scenarios with eta_A = -target are as good
    as +target (the CHSH ceiling depends on eta^2 only). The target is a real
    in [0, 1], as in ``trace_eta_curve``, and the weight a finite real >= 0.
    """
    if not (_real(target) and 0.0 <= target <= 1.0):
        raise MalformedInputError(f"eta target must be a real in [0, 1], got {target!r}")
    if not (_real(weight) and 0.0 <= weight < math.inf):
        raise MalformedInputError(f"pin weight must be a finite real >= 0, got {weight!r}")

    def objective(mom: QuantumMoments):
        return chsh_objective(mom) - weight * (np.abs(mom.eta_a) - target) ** 2

    return objective


def trace_eta_curve(eta_grid, config: OptConfig = OptConfig()) -> list[dict]:
    """Constrained CHSH maxima along a grid of commutator-ratio targets.

    Each point runs a penalty continuation in three stages, each restarting
    the simplex from the previous stage's optimum: a multistart at quadratic
    weight 1e3, then the weights 1e5 and 1e7 (``PIN_WEIGHTS``). Every stage
    always runs; ``feasible`` only reports whether the realized |eta_A| ends
    within 1e-3 (``PIN_TOL``) of the target. The targets run in lockstep,
    stage by stage, and each point equals the point traced alone.
    """
    targets = list(eta_grid)
    if not targets or not all(_real(t) and 0.0 <= t <= 1.0 for t in targets):     # NaN fails
        raise MalformedInputError("eta targets must be a nonempty list of reals in [0, 1]")
    targets = [float(t) for t in targets]
    evs = [_Evaluator(eta_pinned_objective(t, PIN_WEIGHTS[0])) for t in targets]
    xs = [max(runs, key=lambda run: run[1])[0] for runs in _restarts(evs, config)]
    # escalate the pin from the located basin: the base weight trades a
    # small eta drift for smoothness, the follow-up stages remove it; each
    # target keeps its evaluator, so its count spans every stage
    for weight in PIN_WEIGHTS[1:]:
        for ev, t in zip(evs, targets):
            ev.objective = eta_pinned_objective(t, weight)
        jobs = [(ev, functools.partial(_descend, x, (0.03, 0.003), config.max_evals))
                for ev, x in zip(evs, xs)]
        xs = [x for x, _ in _lockstep(jobs, SIMPLEX_TOL)]
    mom, _ = _two_qubit_moments(np.array(xs))
    achieved, chsh = np.abs(mom.eta_a), chsh_objective(mom)
    return [{"eta": t, "eta_achieved": float(a), "max_chsh": float(c),
             "feasible": bool(abs(a - t) <= PIN_TOL), "evaluations": ev.count}
            for t, a, c, ev in zip(targets, achieved, chsh, evs)]
