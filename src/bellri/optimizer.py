"""Derivative-free search over parameterized two-qubit scenarios.

The search space is 14-dimensional: six hyperspherical angles fix a pure
two-qubit state (unit norm by construction), and each of the four observables
is a unit Bloch vector from two polar angles, so every parameter vector
decodes to a valid scenario; there are no constraints to project onto.

``_two_qubit_moments`` maps an (R, 14) block of vectors in closed form to one
``QuantumMoments`` record with a leading batch axis, each row computed alone,
plus a mask of the rows with a vanishing variance (its oracle is
``moments(ScenarioParams.from_vector(x).decode())``). An objective scores the
record elementwise, one value per row (a scalar broadcasts): index
``mom.pearson[..., i, j]`` and use NumPy, not ``float`` or ``math``. Masked
rows score ``DEGENERATE_PENALTY``; a non-finite value on another row aborts
with ``ObjectiveError`` naming its parameters.

The optimizer is a Nelder-Mead simplex (Nelder & Mead, Comput. J. 7, 308,
1965) with deterministic multistart: restart r starts from a generator seeded
with seed + r, and each converged simplex is rebuilt twice around its best
vertex at a smaller scale. All restarts (and eta targets) run in lockstep: a
simplex is a generator that keeps its control flow and budget and yields
requests to ``_lockstep``, whose steps sort every simplex, build every new
point and score every pending row at once (one map call, one call per
objective). Each restart's result equals that restart run alone, and ties
between restarts go to the lowest index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlators import _VAR_FLOOR, chsh_combination
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


class ObjectiveError(BellRIError):
    """Objective returned a non-finite value; aborts with a parameter dump."""


@dataclass(frozen=True)
class ScenarioParams:
    """Decoded search point: state angles plus per-observable Bloch angles."""

    state_angles: np.ndarray          # (6,): three amplitude angles, three phases
    alice_bloch: np.ndarray           # (2, 2): rows (theta, phi)
    bob_bloch: np.ndarray             # (2, 2)

    def __post_init__(self) -> None:
        sa = np.asarray(self.state_angles, dtype=np.float64)
        ab = np.asarray(self.alice_bloch, dtype=np.float64)
        bb = np.asarray(self.bob_bloch, dtype=np.float64)
        if sa.shape != (6,) or ab.shape != (2, 2) or bb.shape != (2, 2):
            raise MalformedInputError("parameter blocks have wrong shapes")
        if not all(np.all(np.isfinite(x)) for x in (sa, ab, bb)):
            raise MalformedInputError("parameters must be finite")
        for name, arr in (("state_angles", sa), ("alice_bloch", ab), ("bob_bloch", bb)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_vector(cls, x) -> "ScenarioParams":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (N_PARAMS,):
            raise MalformedInputError(f"parameter vector must have length {N_PARAMS}")
        return cls(
            state_angles=x[:6],
            alice_bloch=x[6:10].reshape(2, 2),
            bob_bloch=x[10:14].reshape(2, 2),
        )

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.state_angles, self.alice_bloch.ravel(), self.bob_bloch.ravel()]
        )

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
    tol: float = 1e-11                # simplex value-spread convergence
    refine_stages: int = 2
    init_step: float = 0.6

    def __post_init__(self) -> None:
        for name in ("restarts", "max_evals", "seed", "refine_stages"):
            if type(getattr(self, name)) is not int:            # bool and float too
                raise MalformedInputError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.restarts < 1 or self.max_evals < N_PARAMS + 2 or min(self.refine_stages, self.seed) < 0:
            raise MalformedInputError("config values must be positive and sane")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise MalformedInputError("tol must be finite and positive")
        if not (math.isfinite(self.init_step) and self.init_step > 0):
            raise MalformedInputError("init_step must be finite and positive")


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


# Rows of the map's trig table: sin of parameter k at k, its cos at 14 + k,
# then sin 0 and cos 0. Parameters 0-5 are t1-t3 and p1-p3; observable o (A0,
# A1, B0, B1) has theta = parameter 6 + 2 o and phi = parameter 7 + 2 o.
_THETA = np.arange(6, N_PARAMS, 2)
_TRIG_TAKE = np.array([[29, 29, 0, 0], [29, 0, 1, 1], [14, 15, 16, 2],   # |psi| = f0 f1 f2,
                       [29, 17, 18, 19], [28, 3, 4, 5],                  # times cos, sin of arg;
                       _THETA, _THETA, _THETA + 14,                      # n = (sin th, sin th,
                       _THETA + 15, _THETA + 1, [29] * 4])   # cos th) times (cos ph, sin ph, 1)
# <sigma_i x sigma_j> (i, j = 0..3, sigma_0 = 1) at 4 i + j: row a of the
# Kronecker product has one nonzero, f = f' + i f'' in column b, so the
# expectation sums Re(conj(psi_a) f psi_b) over a: with u = (Re psi, Im psi),
# f' (u_a u_b + u_a+4 u_b+4) for real f, f'' (u_a+4 u_b - u_a u_b+4) otherwise;
# each coefficient is +-1, and a negative one takes its left factor from -u.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_KRON = (_PAULI[:, None, :, None, :, None] * _PAULI[None, :, None, :, None, :]).reshape(16, 4, 4)
_COL = np.abs(_KRON).argmax(axis=2).T
_PHASE = np.take_along_axis(_KRON, _COL.T[..., None], axis=2)[..., 0].T
_PAULI_SUMS = (np.arange(8)[:, None] + 8 * (np.vstack([_PHASE.real - _PHASE.imag,
                                                       _PHASE.real + _PHASE.imag]) < 0),
               np.vstack([_COL + 4 * (_PHASE.imag != 0), _COL + 4 * (_PHASE.imag == 0)]))
# Rows of the block z: component c of observable o (A0, A1, B0, B1) at
# 4 c + o, then <sigma_i x sigma_j> at 12 + 4 i + j, so m_A[c] at 16 + 4 c,
# m_B[c] at 13 + c and T[c, k] at 17 + 4 c + k; the negatives of these 28
# rows follow, then a zero row. Each entry below sums three products of rows,
# as (left, right) pairs; the first table's entries run over z, the second's
# left factors over the first table's sums.
_M_ROWS = [[16 + 4 * c for c in range(3)], [13 + c for c in range(3)]]
_SUMS_A = np.array(
    [[(4 * c + o, _M_ROWS[o // 2][c]) for c in range(3)] for o in range(4)]                 # <X_o>
    + [[(4 * c + i, 17 + 4 * c + k) for c in range(3)] for i in range(2) for k in range(3)]
    + [[(4 * ((c + 1) % 3) + 2 * p + 1, 4 * ((c + 2) % 3) + 2 * p),    # (X1 x X0)_c, party p
        (28 + 4 * ((c + 2) % 3) + 2 * p + 1, 4 * ((c + 1) % 3) + 2 * p), (56, 0)]
       for c in range(3) for p in range(2)]
    + [[(4 * c + 2 * p + 1, 4 * c + 2 * p) for c in range(3)] for p in range(2)]        # X1.X0
).transpose(2, 1, 0)
_SUMS_B = np.array(
    [[(4 + 3 * i + k, 4 * k + 2 + j) for k in range(3)] for i in range(2) for j in range(2)]
    + [[(10 + 2 * c + p, 28 + _M_ROWS[p][c]) for c in range(3)] for p in range(2)]  # -(X1 x X0).m
).transpose(2, 1, 0)
# <X1><X0> per party, <A_i><B_j>; all eight: the variances under nu, Pearson, eta
_PAIR_A, _PAIR_B = np.array([1, 3, 0, 0, 1, 1, 1, 3]), np.array([0, 2, 2, 3, 2, 3, 0, 2])


def _sums(a: np.ndarray, b: np.ndarray, rows, out: np.ndarray) -> None:
    """out[e] = sum over terms t of a[left[t, e]] * b[right[t, e]], with rows = (left, right)."""
    np.add.reduce(a.take(rows[0], axis=0) * b.take(rows[1], axis=0), axis=0, out=out)


def _two_qubit_moments(x) -> tuple[QuantumMoments, np.ndarray]:
    """Moments of the scenarios an (R, 14) parameter block decodes to, in closed form.

    Each observable is a unit Bloch vector n, so with the state's Bloch
    vectors m_A, m_B and T_ij = <sigma_i x sigma_j>: <a.sigma> = a.m_A,
    var = 1 - <a.sigma>^2, cov_ij = a_i^T T b_j - <A_i><B_j> and
    r_q = a_1.a_0 + i (a_1 x a_0).m_A - <A_1><A_0> (Bob's alike). Returns the
    record and the mask of rows with a variance at or below the floor of
    ``moments``, whose eta, nu and Pearson entries are meaningless. Raises
    ``MalformedInputError`` on a block of the wrong shape or a non-finite entry.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != N_PARAMS:
        raise MalformedInputError(f"parameter block must have shape (R, {N_PARAMS})")
    if not np.isfinite(v).all():
        raise MalformedInputError("parameters must be finite")
    r = len(v)
    trig = np.empty((30, r))
    np.sin(v.T, out=trig[:N_PARAMS])
    np.cos(v.T, out=trig[N_PARAMS:28])
    trig[28], trig[29] = 0.0, 1.0
    t = trig.take(_TRIG_TAKE, axis=0)
    u = (((t[0] * t[1]) * t[2]) * t[3:5]).reshape(8, r)
    z = np.empty((57, r))
    np.multiply(t[5:8], t[8:], out=z[:12].reshape(3, 4, r))
    _sums(np.concatenate((u, -u)), u, _PAULI_SUMS, out=z[12:28])
    np.negative(z[:28], out=z[28:56])
    z[56] = 0.0
    acc = np.empty((24, r))                 # the sums of _SUMS_A, then of _SUMS_B
    _sums(z, z, _SUMS_A, out=acc[:18])
    mean = acc[:4]
    var = np.maximum(1.0 - mean * mean, 0.0)
    degenerate = (var <= _VAR_FLOOR).any(axis=0)
    var_div = np.maximum(var, _VAR_FLOOR)   # var itself on every unmasked row
    _sums(acc, z, _SUMS_B, out=acc[18:])
    acc[16:22] -= mean.take(_PAIR_A[:6], axis=0) * mean.take(_PAIR_B[:6], axis=0)
    # acc[16:]: Re r_q per party, cov, -Im r_q per party; divided: nu, Pearson, eta
    ratio = acc[16:] / np.sqrt(var_div.take(_PAIR_A, axis=0) * var_div.take(_PAIR_B, axis=0))
    r_q = acc[16:18] - 1j * acc[22:]
    return QuantumMoments(
        mean[:2].T, mean[2:].T, var[:2].T, var[2:].T,
        acc[18:22].reshape(2, 2, r).transpose(2, 0, 1),
        ratio[2:6].reshape(2, 2, r).transpose(2, 0, 1),
        ratio[6], ratio[7], ratio[0], ratio[1], r_q[0], r_q[1],
    ), degenerate


class _Evaluator:
    """An objective and its accounting over every search that uses it."""

    def __init__(self, objective):
        self.objective = objective
        self.count = self.degenerate_hits = 0
        self.maximum = -math.inf


def _score(x: np.ndarray, groups: dict) -> np.ndarray:
    """Objective values of the rows x, evaluator ev scoring rows lo:hi for groups[ev] = [lo, hi]."""
    mom, degenerate = _two_qubit_moments(x)
    vals = np.empty(len(x))
    for ev, (lo, hi) in groups.items():
        out = ev.objective(mom)
        vals[lo:hi] = out[lo:hi] if np.ndim(out) else out
    vals[degenerate] = DEGENERATE_PENALTY
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(finite.argmin())
        raise ObjectiveError(f"objective returned {float(vals[i])!r} at parameters {x[i].tolist()}")
    for ev, (lo, hi) in groups.items():
        ev.count += hi - lo
        ev.degenerate_hits += int(np.count_nonzero(degenerate[lo:hi]))
        ev.maximum = max(ev.maximum, float(vals[lo:hi].max()))
    return vals


# Requests for one point, answered with (value, point): reflect the worst vertex
# through the centroid of the others, expand twice as far (a search asks right
# after the reflection, so it is rebuilt from the same simplex), contract halfway.
_XR, _XE, _XC = "reflect", "expand", "contract"


def _lockstep(jobs, tol: float) -> list:
    """Run (evaluator, search) jobs, each evaluator's adjacent, and return each search's result.

    ``search(pts, vals)`` starts a generator on its job's rows of one (J, 15,
    14) vertex array and (J, 15) value array (to minimize), edited in place. It
    yields a slice of its rows, answered with their values, or ``_XR``/``_XE``/
    ``_XC``, answered with (value, point), or with None at ``_XR`` when its value
    spread is below tol. Each step sorts every simplex, builds every point, maps
    all rows in one call and runs each objective once on the whole record.
    """
    J, n = len(jobs), N_PARAMS
    rows = np.zeros((J * (n + 2), n))       # each job's new point, then every vertex
    pts, vertices = rows[:J], rows[J:]
    P, V = vertices.reshape(J, n + 1, n), np.full((J, n + 1), math.inf)
    results, first = [None] * J, np.arange(0, J * (n + 1), n + 1)[:, None]
    live = [(j, ev, gen, next(gen)) for j, (ev, search) in enumerate(jobs)
            for gen in [search(P[j], V[j])]]
    while live:
        order = V.argsort(axis=1, kind="stable") + first
        V[:], P[:] = V.take(order), vertices.take(order, axis=0)
        ends = V[:, ::n].tolist()           # (best, worst) value per job
        centroid = np.add.reduce(P[:, :-1], axis=1) / n
        take, plan, groups, points = [], [], {}, {_XR: [], _XE: [], _XC: []}
        for j, ev, gen, req in live:
            lo = len(take)
            if req is _XR and ends[j][1] - ends[j][0] < tol:
                plan.append((j, ev, gen, req, None))
                continue
            if req.__class__ is slice:
                take += range(J + (n + 1) * j + req.start, J + (n + 1) * j + req.stop)
            else:
                take.append(j)
                points[req].append(j)
            groups.setdefault(ev, [lo, 0])[1] = len(take)
            plan.append((j, ev, gen, req, lo))
        np.add(centroid, centroid - P[:, -1], out=pts)
        pts[points[_XE]] = (centroid + 2.0 * (pts - centroid))[points[_XE]]
        pts[points[_XC]] = (centroid + 0.5 * (P[:, -1] - centroid))[points[_XC]]
        if take:
            x = rows.take(take, axis=0)
            values = -_score(x, groups)
            floats = values.tolist()
        live = []
        for j, ev, gen, req, lo in plan:
            if lo is None:
                answer = None
            elif req.__class__ is slice:
                answer = values[lo:lo + req.stop - req.start]
            else:
                answer = (floats[lo], x[lo])
            try:
                live.append((j, ev, gen, gen.send(answer)))
            except StopIteration as done:
                results[j] = done.value
    return results


def _nelder_mead(x0: np.ndarray, step: float, budget: int, pts: np.ndarray, vals: np.ndarray):
    """Classic simplex descent on its rows pts, vals; returns (best point, value, budget left).

    Yields the initial simplex and a shrink as slices of its rows, and a
    reflection, expansion or contraction as one ``_lockstep`` request.
    """
    n = x0.size
    pts[:] = x0 + np.vstack([np.zeros(n), step * np.eye(n)])
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
    return pts[best].copy(), float(vals[best]), budget


def _descend(x: np.ndarray, steps, max_evals: int, pts: np.ndarray, vals: np.ndarray):
    """Chained simplex stages from x, each rebuilt around the last best point, on one budget."""
    value, budget = math.inf, max_evals
    for step in steps:
        if budget <= 0:
            break
        x, value, budget = yield from _nelder_mead(x, step, budget, pts, vals)
    return x, -value                        # the simplex minimizes -objective


def _restarts(evaluators, config: OptConfig) -> list[list[tuple[np.ndarray, float]]]:
    """Each evaluator's multistart runs, all in one lockstep; restart r seeds seed + r."""
    starts = [np.random.default_rng(config.seed + r).uniform(-math.pi, math.pi, size=N_PARAMS)
              for r in range(config.restarts)]
    steps = [config.init_step * 0.05 ** s for s in range(config.refine_stages + 1)]
    runs = _lockstep([(ev, functools.partial(_descend, x0, steps, config.max_evals))
                      for ev in evaluators for x0 in starts], config.tol)
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
    """Pearson CHSH of a moments record, one value per row."""
    return chsh_combination(mom.pearson)


def eta_pinned_objective(target: float, weight: float):
    """CHSH with a quadratic penalty pinning Alice's commutator ratio.

    The pin is symmetric in sign: scenarios with eta_A = -target are as good
    as +target (the CHSH ceiling depends on eta^2 only).
    """

    def objective(mom: QuantumMoments):
        return chsh_combination(mom.pearson) - weight * (np.abs(mom.eta_a) - target) ** 2

    return objective


def trace_eta_curve(
    eta_grid,
    config: OptConfig = OptConfig(),
    *,
    base_weight: float = 1e3,
    pin_tol: float = 1e-3,
) -> list[dict]:
    """Constrained CHSH maxima along a grid of commutator-ratio targets.

    Each point runs a penalty continuation: the base quadratic weight is
    escalated (x100 per stage, three stages) until the realized |eta_A| sits
    within ``pin_tol`` of the target, restarting the simplex from the
    previous stage's optimum. Points that never pin are flagged infeasible
    rather than reported as maxima. The targets run in lockstep, stage by
    stage, and each point equals the point traced alone.
    """
    targets = [float(t) for t in eta_grid]
    if not targets or not all(0.0 <= t <= 1.0 for t in targets):
        raise MalformedInputError("eta targets must be a nonempty list of values in [0, 1]")
    evs = [_Evaluator(eta_pinned_objective(t, base_weight)) for t in targets]
    xs = [max(runs, key=lambda run: run[1])[0] for runs in _restarts(evs, config)]
    # escalate the pin from the located basin: the base weight trades a
    # small eta drift for smoothness, the follow-up stages remove it; each
    # target keeps its evaluator, so its count spans every stage
    for weight in (base_weight * 1e2, base_weight * 1e4):
        for ev, t in zip(evs, targets):
            ev.objective = eta_pinned_objective(t, weight)
        xs = [x for x, _ in _lockstep([(ev, functools.partial(_descend, x, (0.03, 0.003),
                                                              config.max_evals))
                                       for ev, x in zip(evs, xs)], config.tol)]
    mom, _ = _two_qubit_moments(np.array(xs))
    achieved, chsh = np.abs(mom.eta_a), chsh_objective(mom)
    return [{"eta": t, "eta_achieved": float(a), "max_chsh": float(c),
             "feasible": bool(abs(a - t) <= pin_tol), "evaluations": ev.count}
            for t, a, c, ev in zip(targets, achieved, chsh, evs)]
