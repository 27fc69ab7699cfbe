"""Finite-dimensional quantum scenarios: states, observables, moment extraction.

A scenario is a pure state vector or density matrix on a tensor product of
two (optionally three) parties, plus two observables per party. Everything
downstream consumes moments: means, variances, covariances, Pearson entries,
and the per-party pair quantities

    r_q  = <X1 X0> - <X1><X0>            (complex)
    nu   = Re(r_q) / (s0 s1)             (normalized anticommutator part)
    eta  = -Im(r_q) / (s0 s1)            (normalized commutator part)

with nu^2 + eta^2 <= 1 (the standard uncertainty relation in normalized
form). Tensor index order is Alice first, then Bob, then Charlie; fixed so
golden fixtures are bit-stable.

A bipartite scenario's moments are computed once, on the first request, and
kept on the scenario: ``moments`` and every check that takes the scenario
share that one record, whose arrays are read-only.

Internally hbar = 1; the position-momentum demonstration computes its
commutator term from the realized expectation value rather than assuming it,
since an exact canonical pair does not exist in finite dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import (
    _VAR_FLOOR,
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    chsh_combination,
)
from .errors import DegenerateScenarioError, MalformedInputError

__all__ = [
    "Observable",
    "QuantumScenario",
    "QuantumMoments",
    "TripartiteMoments",
    "moments",
    "tripartite_moments",
    "to_correlator_table",
    "schrodinger_robertson_check",
    "quantum_cov_matrix",
    "quantum_tlm_check",
    "tsirelson_eta_bound",
    "chsh_r_tradeoff_check",
    "higher_moment_uncertainty_check",
    "outcome_distribution",
    "bloch_observable",
    "planar_observable",
    "pauli",
    "singlet_scenario",
    "eta_saturating_scenario",
    "tsirelson_scenario",
    "truncated_oscillator_pair",
    "random_state",
    "random_observable",
    "random_scenario",
]

MAX_OBS_DIM = 32

SQRT8 = 2.0 * math.sqrt(2.0)

pauli = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on one party's factor."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedInputError(f"observable must be square, got {m.shape}")
        if not (2 <= m.shape[0] <= MAX_OBS_DIM):
            raise MalformedInputError(f"observable dimension must be 2..{MAX_OBS_DIM}")
        if not np.all(np.isfinite(m)):
            raise MalformedInputError("observable has non-finite entries")
        if np.abs(m - m.conj().T).max() > 1e-12 * max(1.0, float(np.abs(m).max())):
            raise MalformedInputError("observable is not Hermitian within 1e-12")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QuantumScenario:
    """State plus two observables per party; state may be pure or a density matrix."""

    dims: tuple[int, ...]
    state: np.ndarray
    alice_obs: tuple[Observable, Observable]
    bob_obs: tuple[Observable, Observable] | None = None
    charlie_obs: tuple[Observable, Observable] | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not (1 <= len(dims) <= 3):
            raise MalformedInputError("dims must list one to three parties")
        total = int(np.prod(dims))
        state = np.asarray(self.state, dtype=np.complex128)
        if not np.all(np.isfinite(state)):
            raise MalformedInputError("state has non-finite entries")
        if state.ndim == 1:
            if state.shape != (total,):
                raise MalformedInputError(f"state vector must have length {total}")
            if abs(np.linalg.norm(state) - 1.0) > 1e-12:
                raise MalformedInputError("state vector must be normalized within 1e-12")
        elif state.ndim == 2:
            if state.shape != (total, total):
                raise MalformedInputError(f"density matrix must be {total}x{total}")
            if np.abs(state - state.conj().T).max() > 1e-12 * max(1.0, float(np.abs(state).max())):
                raise MalformedInputError("density matrix must be Hermitian")
            if abs(np.trace(state).real - 1.0) > 1e-12:
                raise MalformedInputError("density matrix must have unit trace within 1e-12")
            if float(np.linalg.eigvalsh(state)[0]) < -1e-10:
                raise MalformedInputError("density matrix must be PSD within 1e-10")
        else:
            raise MalformedInputError("state must be a vector or a square matrix")
        state = state.copy()
        state.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "state", state)

        obs_sets = [("alice_obs", 0), ("bob_obs", 1), ("charlie_obs", 2)]
        for name, party in obs_sets:
            obs = getattr(self, name)
            if obs is None:
                if party < len(dims):
                    raise MalformedInputError(f"{name} required for dims {dims}")
                continue
            if party >= len(dims):
                raise MalformedInputError(f"{name} given but dims {dims} has no such party")
            obs = tuple(o if isinstance(o, Observable) else Observable(o) for o in obs)
            if len(obs) != 2:
                raise MalformedInputError(f"{name} must contain exactly two observables")
            for o in obs:
                if o.dim != dims[party]:
                    raise MalformedInputError(
                        f"{name} dimension {o.dim} does not match party dim {dims[party]}"
                    )
            object.__setattr__(self, name, obs)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def is_pure(self) -> bool:
        return self.state.ndim == 1


# ---------------------------------------------------------------------------
# Expectation machinery
# ---------------------------------------------------------------------------


class _Expectations:
    """Caches reduced density matrices of a scenario for fast trace forms."""

    def __init__(self, sc: QuantumScenario):
        self.sc = sc
        dims = sc.dims
        n = len(dims)
        if sc.is_pure:
            psi = sc.state.reshape(dims)
            full = np.tensordot(psi, psi.conj(), axes=0)  # indices (i1..in, j1..jn)
        else:
            full = sc.state.reshape(dims + dims)
        self._rho = {}
        for keep in _subsets(n):
            self._rho[keep] = _partial_trace(full, n, keep)

    def rho(self, party: int) -> np.ndarray:
        """Reduced density matrix of one party."""
        return self._rho[(party,)]

    def value(self, ops: dict[int, np.ndarray]) -> complex:
        """<O_p> or <O_p x O_q> for operators on one or two distinct parties."""
        keep = tuple(sorted(ops))
        rho = self._rho[keep]
        if len(keep) == 1:
            return complex(np.trace(rho @ ops[keep[0]]))
        a, b = ops[keep[0]], ops[keep[1]]
        return complex(np.einsum("abcd,ca,db->", rho, a, b))


def _subsets(n: int):
    singles = [(i,) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return singles + pairs


def _partial_trace(full: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Reduce the (ket..., bra...) tensor to the kept parties.

    Tracing from the highest party index down keeps every remaining ket axis
    at its own party index, so axis p pairs with axis ndim/2 + p throughout.
    """
    t = full
    for p in reversed(range(n)):
        if p not in keep:
            t = np.trace(t, axis1=p, axis2=t.ndim // 2 + p)
    return t


def _normalized_pair(var, r_q: complex, label: str) -> tuple[float, float]:
    """(nu, eta) of one party's pair; raises when either variance is at the floor."""
    for which in (0, 1):
        if var[which] <= _VAR_FLOOR:
            raise DegenerateScenarioError(
                f"observable {label}{which} has vanishing variance; eta/nu undefined"
            )
    s0s1 = math.sqrt(var[0] * var[1])
    return r_q.real / s0s1, -r_q.imag / s0s1


@dataclass(frozen=True)
class QuantumMoments:
    mean_a: np.ndarray
    mean_b: np.ndarray
    var_a: np.ndarray
    var_b: np.ndarray
    cov: np.ndarray                    # (2, 2), C(A_i, B_j), real
    pearson: np.ndarray
    eta_a: float
    eta_b: float
    nu_a: float
    nu_b: float
    r_q_a: complex
    r_q_b: complex


def _party_moments(rho: np.ndarray, obs) -> dict:
    """Means, variances, and the complex pair moment r_q = <X1 X0> - <X1><X0>.

    ``rho`` is the party's reduced density matrix. tr(rho M) contracts as
    sum over rho[x, y] M[y, x], i.e. the plain dot of rho.T with M
    flattened, no conjugation.
    """
    rho_t = np.ascontiguousarray(rho.T).ravel()
    m = []
    m2 = []
    for o in obs:
        om = o.matrix
        m.append(float((rho_t @ om.ravel()).real))
        m2.append(float((rho_t @ (om @ om).ravel()).real))
    var = [max(b - a * a, 0.0) for b, a in zip(m2, m)]
    x1x0 = complex(rho_t @ (obs[1].matrix @ obs[0].matrix).ravel())
    return {"mean": np.array(m), "var": np.array(var), "r_q": x1x0 - m[1] * m[0]}


def _compute_moments(sc: QuantumScenario) -> QuantumMoments:
    """All bipartite moment data; raises when a needed variance vanishes."""
    if sc.n_parties != 2:
        raise MalformedInputError("moments expects a bipartite scenario")
    if sc.is_pure:
        psi = sc.state.reshape(sc.dims)
        psi_c = psi.conj()
        pa = _party_moments(psi @ psi_c.T, sc.alice_obs)
        pb = _party_moments(psi.T @ psi_c, sc.bob_obs)
        cov = np.empty((2, 2))
        for i in range(2):
            ai_psi = sc.alice_obs[i].matrix @ psi
            for j in range(2):
                ab = np.vdot(psi, ai_psi @ sc.bob_obs[j].matrix.T)
                cov[i, j] = float(ab.real) - pa["mean"][i] * pb["mean"][j]
    else:
        ex = _Expectations(sc)
        pa = _party_moments(ex.rho(0), sc.alice_obs)
        pb = _party_moments(ex.rho(1), sc.bob_obs)
        cov = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ab = ex.value({0: sc.alice_obs[i].matrix, 1: sc.bob_obs[j].matrix})
                cov[i, j] = float(ab.real) - pa["mean"][i] * pb["mean"][j]
    nu_a, eta_a = _normalized_pair(pa["var"], pa["r_q"], "A")
    nu_b, eta_b = _normalized_pair(pb["var"], pb["r_q"], "B")
    sig = np.sqrt(np.outer(pa["var"], pb["var"]))
    pearson = cov / sig
    for a in (pa["mean"], pb["mean"], pa["var"], pb["var"], cov, pearson):
        a.setflags(write=False)
    return QuantumMoments(
        mean_a=pa["mean"], mean_b=pb["mean"], var_a=pa["var"], var_b=pb["var"],
        cov=cov, pearson=pearson,
        eta_a=eta_a, eta_b=eta_b, nu_a=nu_a, nu_b=nu_b,
        r_q_a=pa["r_q"], r_q_b=pb["r_q"],
    )


def _scenario_moments(sc: QuantumScenario) -> QuantumMoments:
    """The scenario's one moments record, computed on the first request.

    The record is kept on the scenario outside its dataclass fields, so
    equality, repr and hashing are unchanged; a scenario cannot change after
    construction, so the record never goes stale. A degenerate or
    non-bipartite scenario stores nothing and raises on every request.
    """
    mom = sc.__dict__.get("_moments")
    if mom is None:
        mom = _compute_moments(sc)
        object.__setattr__(sc, "_moments", mom)
    return mom


def moments(sc: QuantumScenario) -> QuantumMoments:
    """All bipartite moment data; raises when a needed variance vanishes.

    Computed once per scenario and shared with every check that takes the
    scenario; the record's arrays are read-only.
    """
    return _scenario_moments(sc)


@dataclass(frozen=True)
class TripartiteMoments:
    means: tuple[np.ndarray, np.ndarray, np.ndarray]
    vars: tuple[np.ndarray, np.ndarray, np.ndarray]
    cov_ab: np.ndarray
    cov_ac: np.ndarray
    cov_bc: np.ndarray
    r_q_a: complex

    def to_table(self) -> TripartiteCorrelatorTable:
        sa, sb, sc_ = (np.sqrt(v) for v in self.vars)
        if min(s.min() for s in (sa, sb, sc_)) <= math.sqrt(_VAR_FLOOR):
            raise DegenerateScenarioError("zero variance observable in tripartite scenario")
        return TripartiteCorrelatorTable(
            pearson_ab=self.cov_ab / np.outer(sa, sb),
            pearson_ac=self.cov_ac / np.outer(sa, sc_),
            pearson_bc=self.cov_bc / np.outer(sb, sc_),
            var_a=self.vars[0], var_b=self.vars[1], var_c=self.vars[2],
        )


def tripartite_moments(sc: QuantumScenario) -> TripartiteMoments:
    if sc.n_parties != 3:
        raise MalformedInputError("tripartite_moments expects three parties")
    ex = _Expectations(sc)
    obs = [sc.alice_obs, sc.bob_obs, sc.charlie_obs]
    parts = [_party_moments(ex.rho(p), obs[p]) for p in range(3)]

    def block(p: int, q: int) -> np.ndarray:
        out = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                v = ex.value({p: obs[p][i].matrix, q: obs[q][j].matrix})
                out[i, j] = float(v.real) - parts[p]["mean"][i] * parts[q]["mean"][j]
        return out

    return TripartiteMoments(
        means=tuple(p["mean"] for p in parts),
        vars=tuple(p["var"] for p in parts),
        cov_ab=block(0, 1), cov_ac=block(0, 2), cov_bc=block(1, 2),
        r_q_a=parts[0]["r_q"],
    )


def to_correlator_table(mom: QuantumMoments) -> CorrelatorTable:
    return CorrelatorTable(
        means_a=mom.mean_a, means_b=mom.mean_b,
        var_a=mom.var_a, var_b=mom.var_b,
        cov=mom.cov, pearson=mom.pearson,
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def schrodinger_robertson_check(sc: QuantumScenario, party: str = "a", tol: float = 1e-9) -> dict:
    """Variance product against the squared pair moment for one party."""
    mom = _scenario_moments(sc)
    if party == "a":
        var, r_q = mom.var_a, mom.r_q_a
    elif party == "b":
        var, r_q = mom.var_b, mom.r_q_b
    else:
        raise MalformedInputError("party must be 'a' or 'b'")
    lhs = float(var[0] * var[1])
    rhs = float(abs(r_q) ** 2)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs >= rhs - tol * max(1.0, lhs)}


def quantum_cov_matrix(sc: QuantumScenario, j: int) -> np.ndarray:
    """3x3 Hermitian block (B_j, A_1, A_0) with the complex pair moment off-diagonal.

    Returned read-only; its entries are exactly conjugate-symmetric by
    construction.

    PSD for every scenario: it is the Gram matrix of the centered operators
    applied to the state.
    """
    mom = _scenario_moments(sc)
    m = np.array(
        [
            [mom.var_b[j], mom.cov[1, j], mom.cov[0, j]],
            [mom.cov[1, j], mom.var_a[1], mom.r_q_a],
            [mom.cov[0, j], np.conj(mom.r_q_a), mom.var_a[0]],
        ],
        dtype=np.complex128,
    )
    m.setflags(write=False)
    return m


def quantum_tlm_check(sc: QuantumScenario, tol: float = 1e-9) -> dict:
    """Two-row correlator bound tightened by the commutator terms.

    Row 1 subtracts eta_A^2 under each radical, row 2 (roles swapped)
    subtracts eta_B^2. Radicands are clamped at zero against floating-point
    negatives; the per-context inequality guarantees they are nonnegative up
    to rounding.
    """
    mom = _scenario_moments(sc)
    pe = mom.pearson
    per_context = []
    for j in range(2):
        lhs_ctx = (1.0 - pe[1, j] ** 2) * (1.0 - pe[0, j] ** 2)
        rhs_ctx = (mom.nu_a - pe[0, j] * pe[1, j]) ** 2 + mom.eta_a**2
        per_context.append({"j": j, "lhs": float(lhs_ctx), "rhs": float(rhs_ctx)})
    row1_lhs = abs(float(pe[0, 0] * pe[1, 0] - pe[0, 1] * pe[1, 1]))
    row1_rhs = sum(
        math.sqrt(max(0.0, (1.0 - pe[0, j] ** 2) * (1.0 - pe[1, j] ** 2) - mom.eta_a**2))
        for j in range(2)
    )
    row2_lhs = abs(float(pe[0, 0] * pe[0, 1] - pe[1, 0] * pe[1, 1]))
    row2_rhs = sum(
        math.sqrt(max(0.0, (1.0 - pe[i, 0] ** 2) * (1.0 - pe[i, 1] ** 2) - mom.eta_b**2))
        for i in range(2)
    )
    return {
        "row1": {"lhs": row1_lhs, "rhs": row1_rhs},
        "row2": {"lhs": row2_lhs, "rhs": row2_rhs},
        "per_context": per_context,
        "pass": row1_lhs <= row1_rhs + tol and row2_lhs <= row2_rhs + tol,
    }


def tsirelson_eta_bound(sc: QuantumScenario, tol: float = 1e-9) -> dict:
    """CHSH magnitude against 2 sqrt(2) sqrt(1 - max(eta_A^2, eta_B^2))."""
    mom = _scenario_moments(sc)
    chsh = chsh_combination(mom.pearson)
    eta2 = max(mom.eta_a**2, mom.eta_b**2)
    bound = SQRT8 * math.sqrt(max(0.0, 1.0 - eta2))
    return {"chsh": chsh, "bound": bound, "pass": abs(chsh) <= bound + tol}


def chsh_r_tradeoff_check(sc: QuantumScenario, tol: float = 1e-9) -> dict:
    """(CHSH / 2 sqrt(2))^2 + |r'|^2 with r' the normalized complex pair moment.

    The sum is bounded by 1 on the anti-diagonal-sign extremal configurations
    (the regime where the relation is derived); it is reported, not assumed,
    for anything else.
    """
    mom = _scenario_moments(sc)
    chsh = chsh_combination(mom.pearson)
    r_term = float(abs(mom.r_q_a) ** 2 / (mom.var_a[0] * mom.var_a[1]))
    chsh_term = (chsh / SQRT8) ** 2
    return {
        "chsh_term": chsh_term,
        "r_term": r_term,
        "total": chsh_term + r_term,
        "pass": chsh_term + r_term <= 1.0 + tol,
    }


def higher_moment_uncertainty_check(
    sc: QuantumScenario, i: int, m: int, sign: str | int = "auto", tol: float = 1e-9
) -> dict:
    """Additive uncertainty bound enhanced by correlations with a power A_i^m.

    lhs            = var(A_1) + var(A_0)
    rhs_basic      = 2 |Re r_q|
    rhs_enhanced   = rhs_basic + |c_1 + s c_0|^2 / var(A_i^m)

    with c_k = <A_k A_i^m> - <A_k><A_i^m> and the sign s chosen opposite to
    the anticommutator term ("auto"), for which the enhanced bound always
    holds and is never weaker than the basic one. An explicit sign +-1 checks
    the matching-sign inequality lhs + 2 s Re(r_q) >= |c_1 + s c_0|^2 / var,
    reported through the same fields. The additive form stays informative on
    eigenstates of one observable, where the variance-product bound collapses.
    """
    if m <= 1 or int(m) != m:
        raise MalformedInputError("power m must be an integer greater than 1")
    if i not in (0, 1):
        raise MalformedInputError("observable index i must be 0 or 1")
    ex = _Expectations(sc)
    obs = sc.alice_obs
    pa = _party_moments(ex.rho(0), obs)
    d = np.linalg.matrix_power(obs[i].matrix, int(m))
    mean_d = float(ex.value({0: d}).real)
    m2_d = float(ex.value({0: d @ d}).real)
    var_d = max(m2_d - mean_d**2, 0.0)
    scale = max(1.0, float(np.abs(d).max()) ** 2)
    if var_d <= _VAR_FLOOR * scale:
        raise DegenerateScenarioError(
            f"A_{i}^{m} has vanishing variance (proportional to identity on the state); "
            "pick an odd power or a higher-dimensional observable"
        )
    c = [complex(ex.value({0: obs[k].matrix @ d}) - pa["mean"][k] * mean_d) for k in (0, 1)]
    nu_raw = pa["r_q"].real
    if sign == "auto":
        s = -1.0 if nu_raw > 0 else 1.0
        rhs_basic = 2.0 * abs(nu_raw)
    else:
        s = float(sign)
        if s not in (-1.0, 1.0):
            raise MalformedInputError("sign must be 'auto', +1 or -1")
        rhs_basic = -2.0 * s * nu_raw
    enhancement = float(abs(c[1] + s * c[0]) ** 2 / var_d)
    lhs = float(pa["var"][0] + pa["var"][1])
    rhs_enhanced = rhs_basic + enhancement
    return {
        "lhs": lhs,
        "rhs_basic": rhs_basic,
        "rhs_enhanced": rhs_enhanced,
        "enhancement": enhancement,
        "sign": s,
        "pass": lhs >= rhs_enhanced - tol * max(1.0, lhs),
    }


# ---------------------------------------------------------------------------
# Outcome distributions (projector route)
# ---------------------------------------------------------------------------


def _spectral_outcomes(o: Observable, merge_tol: float = 1e-9):
    w, v = np.linalg.eigh(o.matrix)
    outcomes: list[float] = []
    projectors: list[np.ndarray] = []
    k = 0
    while k < len(w):
        grp = [k]
        while grp[-1] + 1 < len(w) and abs(w[grp[-1] + 1] - w[k]) <= merge_tol:
            grp.append(grp[-1] + 1)
        vecs = v[:, grp]
        outcomes.append(float(np.mean(w[grp])))
        projectors.append(vecs @ vecs.conj().T)
        k = grp[-1] + 1
    return outcomes, projectors


def outcome_distribution(sc: QuantumScenario) -> ProbabilityTable:
    """Joint outcome table p(a, b | i, j) via spectral projectors.

    Requires a bipartite scenario whose two observables per party share the
    same outcome alphabet within 1e-9 (true for any pair of +-1 observables).
    """
    if sc.n_parties != 2:
        raise MalformedInputError("outcome_distribution expects a bipartite scenario")
    spect_a = [_spectral_outcomes(o) for o in sc.alice_obs]
    spect_b = [_spectral_outcomes(o) for o in sc.bob_obs]
    for spect, label in ((spect_a, "alice"), (spect_b, "bob")):
        o0, o1 = spect[0][0], spect[1][0]
        if len(o0) != len(o1) or max(abs(x - y) for x, y in zip(o0, o1)) > 1e-9:
            raise MalformedInputError(
                f"{label} observables do not share an outcome alphabet; "
                "a shared joint table is not defined"
            )
    outcomes_a = spect_a[0][0]
    outcomes_b = spect_b[0][0]
    ex = _Expectations(sc)
    p = np.zeros((2, 2, len(outcomes_a), len(outcomes_b)))
    for i in range(2):
        for j in range(2):
            for a, pa in enumerate(spect_a[i][1]):
                for b, pb in enumerate(spect_b[j][1]):
                    val = float(ex.value({0: pa, 1: pb}).real)
                    p[i, j, a, b] = max(val, 0.0)
            p[i, j] /= p[i, j].sum()
    return ProbabilityTable(outcomes_a=np.array(outcomes_a), outcomes_b=np.array(outcomes_b), p=p)


# ---------------------------------------------------------------------------
# Constructors and samplers
# ---------------------------------------------------------------------------


def _bloch_vector(theta: float, phi: float) -> tuple[float, float, float]:
    s = math.sin(theta)
    return s * math.cos(phi), s * math.sin(phi), math.cos(theta)


def bloch_observable(theta: float, phi: float) -> Observable:
    """Qubit observable n . sigma with unit Bloch vector from polar angles."""
    nx, ny, nz = _bloch_vector(theta, phi)
    return Observable(np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]))


def planar_observable(angle: float) -> Observable:
    """Observable cos(angle) sigma_z + sin(angle) sigma_x (real matrix)."""
    return Observable(math.cos(angle) * pauli["z"] + math.sin(angle) * pauli["x"])


def singlet_scenario(alice_angles, bob_angles) -> QuantumScenario:
    """Spin singlet with planar observables: C(A_i, B_j) = -cos(a_i - b_j)."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return QuantumScenario(
        dims=(2, 2),
        state=psi,
        alice_obs=tuple(planar_observable(a) for a in alice_angles),
        bob_obs=tuple(planar_observable(b) for b in bob_angles),
    )


def _xy_observable(angle: float) -> Observable:
    return Observable(math.cos(angle) * pauli["x"] + math.sin(angle) * pauli["y"])


def eta_saturating_scenario(eta: float) -> QuantumScenario:
    """Scenario reaching CHSH = 2 sqrt(2) sqrt(1 - eta^2) with eta_A = eta_B = eta.

    State cos(chi)|00> + sin(chi)|11> with cos(2 chi) = eta; x-y plane
    observables A at angles (0, pi/2), B at (-pi/4, pi/4).
    """
    if not 0.0 <= eta <= 1.0:
        raise MalformedInputError("eta must lie in [0, 1]")
    chi = 0.5 * math.acos(eta)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(chi)
    psi[3] = math.sin(chi)
    return QuantumScenario(
        dims=(2, 2),
        state=psi,
        alice_obs=(_xy_observable(0.0), _xy_observable(math.pi / 2)),
        bob_obs=(_xy_observable(-math.pi / 4), _xy_observable(math.pi / 4)),
    )


def tsirelson_scenario() -> QuantumScenario:
    """Maximal-CHSH two-qubit configuration (the eta = 0 member)."""
    return eta_saturating_scenario(0.0)


def truncated_oscillator_pair(dim: int = 24) -> tuple[Observable, Observable]:
    """Position and momentum on a dim-level ladder, hbar = 1.

    The commutator equals i except on the top level, so states supported on
    the lower half reproduce the canonical value exactly; second moments of
    states in the lowest dim/2 levels involve levels up to dim/2 + 2 and are
    not clipped by the truncation.
    """
    n = np.arange(1, dim, dtype=float)
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(n)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    return Observable(x), Observable(p)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit vector with complex Gaussian entries."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_observable(rng: np.random.Generator, dim: int, scale: float = 1.0) -> Observable:
    """Random Hermitian from the symmetrized complex Gaussian ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(scale * 0.5 * (g + g.conj().T))


def random_scenario(
    rng: np.random.Generator,
    dims: tuple[int, int] = (2, 2),
    kind: str = "gue",
    min_variance: float = 1e-6,
    max_tries: int = 64,
) -> QuantumScenario:
    """Random bipartite scenario, resampled until all variances are decisive.

    ``kind`` is "gue" for generic Hermitian observables or "bloch" for random
    +-1 qubit observables (requires qubit dims).
    """
    for _ in range(max_tries):
        state = random_state(rng, int(np.prod(dims)))
        if kind == "bloch":
            if dims != (2, 2):
                raise MalformedInputError("bloch sampling requires two qubits")
            mk = lambda: bloch_observable(
                math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi)
            )
            alice = (mk(), mk())
            bob = (mk(), mk())
        else:
            alice = (random_observable(rng, dims[0]), random_observable(rng, dims[0]))
            bob = (random_observable(rng, dims[1]), random_observable(rng, dims[1]))
        sc = QuantumScenario(dims=dims, state=state, alice_obs=alice, bob_obs=bob)
        mom_ok = True
        try:
            mm = _scenario_moments(sc)
            if min(mm.var_a.min(), mm.var_b.min()) < min_variance:
                mom_ok = False
        except DegenerateScenarioError:
            mom_ok = False
        if mom_ok:
            return sc
    raise DegenerateScenarioError("could not sample a non-degenerate scenario")
