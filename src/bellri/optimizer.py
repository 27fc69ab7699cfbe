"""Derivative-free search over parameterized two-qubit scenarios.

The search space is 14-dimensional: six hyperspherical angles fix a pure
two-qubit state (unit norm by construction), and each of the four observables
is a unit Bloch vector from two polar angles, so every parameter vector
decodes to a valid scenario; there are no constraints to project onto.

An objective scores a ``QuantumMoments`` record. The search never builds a
scenario per iterate: each parameter vector maps straight to its moments
through the Bloch vectors m_A, m_B and the correlation tensor
T_ij = <sigma_i x sigma_j> of the decoded state, in closed form. The generic
route ``moments(ScenarioParams.from_vector(x).decode())`` gives the same
record to rounding and serves as its oracle.

The optimizer is a Nelder-Mead simplex with deterministic multistart:
restart r draws its start from a generator seeded with seed + r, and each
converged simplex is rebuilt twice around its best vertex at a smaller scale
to polish the optimum. The merge is an argmax with lowest-restart-index
tie-break, so identical configs reproduce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import chsh_combination
from .errors import BellRIError, DegenerateScenarioError, MalformedInputError
from .qmodel import (
    QuantumMoments,
    QuantumScenario,
    _bloch_vector,
    _normalized_pair,
    bloch_observable,
)

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
        if self.restarts < 1 or self.max_evals < N_PARAMS + 2 or self.refine_stages < 0:
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

    def __post_init__(self) -> None:
        if not math.isfinite(self.best_value):
            raise MalformedInputError("best_value must be finite")


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _two_qubit_moments(x) -> QuantumMoments:
    """Moments of the scenario a parameter vector decodes to, in closed form.

    Write the decoded state as the amplitude matrix M = [[a, b], [c, d]]
    (rows Alice, columns Bob; a is real). Alice's Bloch vector m_A, Bob's
    m_B and the rows of T_ij = <sigma_i x sigma_j> are quadratic in the
    amplitudes. Every observable is a unit Bloch vector n, so (n.sigma)^2 = 1
    and, with the pair identity (u.sigma)(v.sigma) = u.v + i (u x v).sigma,

        <a.sigma> = a.m_A,   var = 1 - <a.sigma>^2,
        cov_ij = a_i^T T b_j - <A_i><B_j>,
        r_q = a_1.a_0 + i (a_1 x a_0).m_A - <A_1><A_0>   (Bob's alike).

    Raises ``MalformedInputError`` on the vectors ``ScenarioParams.from_vector``
    rejects and ``DegenerateScenarioError`` under the same variance floor as
    ``moments``.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (N_PARAMS,):
        raise MalformedInputError(f"parameter vector must have length {N_PARAMS}")
    v = v.tolist()
    if not all(map(math.isfinite, v)):
        raise MalformedInputError("parameters must be finite")
    t1, t2, t3, p1, p2, p3 = v[:6]
    s1 = math.sin(t1)
    s12 = s1 * math.sin(t2)
    a = math.cos(t1)
    b = s1 * math.cos(t2) * complex(math.cos(p1), math.sin(p1))
    c = s12 * math.cos(t3) * complex(math.cos(p2), math.sin(p2))
    d = s12 * math.sin(t3) * complex(math.cos(p3), math.sin(p3))
    cc = c.conjugate()
    ab, ac, ad = a * b, a * c, a * d
    cb, cd, bd = cc * b, cc * d, b.conjugate() * d
    na, nb, nc, nd = a * a, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    m_a = (2.0 * (ac.real + bd.real), 2.0 * (ac.imag + bd.imag), na + nb - nc - nd)
    m_b = (2.0 * (ab.real + cd.real), 2.0 * (ab.imag + cd.imag), na + nc - nb - nd)
    tx = (2.0 * (ad.real + cb.real), 2.0 * (ad.imag + cb.imag), 2.0 * (ac.real - bd.real))
    ty = (2.0 * (ad.imag - cb.imag), 2.0 * (cb.real - ad.real), 2.0 * (ac.imag - bd.imag))
    tz = (2.0 * (ab.real - cd.real), 2.0 * (ab.imag - cd.imag), na - nb - nc + nd)
    alice = (_bloch_vector(v[6], v[7]), _bloch_vector(v[8], v[9]))
    bob = (_bloch_vector(v[10], v[11]), _bloch_vector(v[12], v[13]))

    def party(ns, m):
        mean = [_dot(n, m) for n in ns]
        var = [max(1.0 - mu * mu, 0.0) for mu in mean]
        n1, n0 = ns[1], ns[0]
        cross = (n1[1] * n0[2] - n1[2] * n0[1],
                 n1[2] * n0[0] - n1[0] * n0[2],
                 n1[0] * n0[1] - n1[1] * n0[0])
        return mean, var, complex(_dot(n1, n0) - mean[1] * mean[0], _dot(cross, m))

    mean_a, var_a, r_q_a = party(alice, m_a)
    mean_b, var_b, r_q_b = party(bob, m_b)
    nu_a, eta_a = _normalized_pair(var_a, r_q_a, "A")
    nu_b, eta_b = _normalized_pair(var_b, r_q_b, "B")
    # the rows a_i^T T, contracted with each b_j below
    rows = [tuple(n[0] * tx[k] + n[1] * ty[k] + n[2] * tz[k] for k in range(3)) for n in alice]
    cov = [[_dot(rows[i], bob[j]) - mean_a[i] * mean_b[j] for j in range(2)] for i in range(2)]
    pearson = [[cov[i][j] / math.sqrt(var_a[i] * var_b[j]) for j in range(2)] for i in range(2)]
    return QuantumMoments(
        mean_a=np.array(mean_a), mean_b=np.array(mean_b),
        var_a=np.array(var_a), var_b=np.array(var_b),
        cov=np.array(cov), pearson=np.array(pearson),
        eta_a=eta_a, eta_b=eta_b, nu_a=nu_a, nu_b=nu_b,
        r_q_a=r_q_a, r_q_b=r_q_b,
    )


class _Evaluator:
    """Wraps a moments objective into a vector function with accounting."""

    def __init__(self, objective):
        self.objective = objective
        self.count = 0
        self.maximum = -math.inf

    def __call__(self, x: np.ndarray) -> float:
        try:
            val = float(self.objective(_two_qubit_moments(x)))
        except DegenerateScenarioError:
            val = DEGENERATE_PENALTY
        if not math.isfinite(val):
            raise ObjectiveError(
                f"objective returned {val!r} at parameters {x.tolist()}"
            )
        self.count += 1
        if val > self.maximum:
            self.maximum = val
        return -val                    # simplex minimizes


def _nelder_mead(f, x0: np.ndarray, step: float, tol: float, budget: list[int]) -> tuple[np.ndarray, float]:
    """Classic simplex descent on f; budget is a mutable remaining-eval counter."""
    n = x0.size
    pts = [x0.copy()]
    for i in range(n):
        y = x0.copy()
        y[i] += step
        pts.append(y)
    vals = []
    for p in pts:
        if budget[0] <= 0:
            break
        budget[0] -= 1
        vals.append(f(p))
    while len(vals) < len(pts):
        vals.append(math.inf)
    pts = np.array(pts)
    vals = np.array(vals)

    while budget[0] > 0:
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if vals[-1] - vals[0] < tol:
            break
        centroid = pts[:-1].mean(axis=0)
        xr = centroid + (centroid - pts[-1])
        budget[0] -= 1
        fr = f(xr)
        if fr < vals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            if budget[0] > 0:
                budget[0] -= 1
                fe = f(xe)
                if fe < fr:
                    pts[-1], vals[-1] = xe, fe
                    continue
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            if budget[0] <= 0:
                break
            budget[0] -= 1
            fc = f(xc)
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                best = pts[0].copy()
                for i in range(1, len(pts)):
                    if budget[0] <= 0:
                        break
                    pts[i] = best + 0.5 * (pts[i] - best)
                    budget[0] -= 1
                    vals[i] = f(pts[i])
    order = np.argsort(vals, kind="stable")
    return pts[order][0], float(vals[order][0])


def maximize(objective, config: OptConfig = OptConfig()) -> OptResult:
    """Multistart simplex maximization of an objective on ``QuantumMoments``.

    Deterministic for a fixed (objective, config): restart r seeds its own
    generator with config.seed + r, restarts run independently, and ties
    between restarts resolve to the lowest index.
    """
    ev = _Evaluator(objective)
    best_x: np.ndarray | None = None
    best_val = math.inf
    trace: list[float] = []
    for r in range(config.restarts):
        rng = np.random.default_rng(config.seed + r)
        x0 = rng.uniform(-math.pi, math.pi, size=N_PARAMS)
        budget = [config.max_evals]
        x, v = _nelder_mead(ev, x0, config.init_step, config.tol, budget)
        for stage in range(config.refine_stages):
            if budget[0] <= 0:
                break
            x, v = _nelder_mead(ev, x, config.init_step * 0.05 ** (stage + 1), config.tol, budget)
        trace.append(-v)
        if v < best_val:
            best_val = v
            best_x = x
    params = ScenarioParams.from_vector(best_x)
    return OptResult(
        best_value=-best_val,
        best_params=params,
        evaluations=ev.count,
        trace=tuple(trace),
        trajectory_max=ev.maximum,
    )


def chsh_objective(mom: QuantumMoments) -> float:
    """Pearson CHSH of a moments record."""
    return chsh_combination(mom.pearson)


def eta_pinned_objective(target: float, weight: float):
    """CHSH with a quadratic penalty pinning Alice's commutator ratio.

    The pin is symmetric in sign: scenarios with eta_A = -target are as good
    as +target (the CHSH ceiling depends on eta^2 only).
    """

    def objective(mom: QuantumMoments) -> float:
        return chsh_combination(mom.pearson) - weight * (abs(mom.eta_a) - target) ** 2

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
    rather than reported as maxima.
    """
    targets = [float(t) for t in eta_grid]
    if not all(0.0 <= t <= 1.0 for t in targets):
        raise MalformedInputError("eta targets must lie in [0, 1]")
    out = []
    for target in targets:
        result = maximize(eta_pinned_objective(target, base_weight), config)
        x = result.best_params.to_vector()
        evals = result.evaluations
        # escalate the pin from the located basin: the base weight trades a
        # small eta drift for smoothness, the follow-up stages remove it
        for weight in (base_weight * 1e2, base_weight * 1e4):
            ev = _Evaluator(eta_pinned_objective(target, weight))
            budget = [config.max_evals]
            for step in (0.03, 0.003):
                x, _ = _nelder_mead(ev, x, step, config.tol, budget)
            evals += ev.count
        mom = _two_qubit_moments(x)
        achieved = abs(mom.eta_a)
        out.append(
            {
                "eta": target,
                "eta_achieved": float(achieved),
                "max_chsh": chsh_objective(mom),
                "feasible": bool(abs(achieved - target) <= pin_tol),
                "evaluations": int(evals),
            }
        )
    return out
