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

Every moment takes one route: ``_reduced`` gives one party's reduced density
matrix (means, variances, r_q) and ``_pair_block`` the block Re<A_i x B_j>
of two parties (covariances; the tests' projector route to joint outcome
probabilities calls it too). They are the only
code that looks at whether the state is pure. A pure state is contracted as
a vector and never forms a density tensor, so a pure (32, 32, 32) scenario
costs milliseconds and under 2 MB of working memory.

A bipartite scenario's moments are computed once, on the first request, and
kept on the scenario: ``moments`` and every check that takes the scenario
share that one record, whose arrays are read-only.

Construction reports the first rule an input breaks. ``Observable``: square,
dimension 2..32, finite, entries at most 1e75, Hermitian within 1e-12
relative; one abs().max() passes both entry rules, and only a matrix that
fails it is scanned for NaN and inf. ``QuantumScenario``: dims, the state
(finite; a vector's length and norm, or a density matrix's shape,
Hermiticity, trace and eigenvalues), then the observables. One norm passes a
finite, normalized vector of the right length; the ordered checks run only
when it fails.

Internally hbar = 1; the position-momentum demonstration computes its
commutator term from the realized expectation value rather than assuming it,
since an exact canonical pair does not exist in finite dimension.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .correlators import (
    _OBSERVABLE_MAX,
    _VAR_FLOOR,
    CorrelatorTable,
    TripartiteCorrelatorTable,
    chsh_combination,
)
from .errors import DegenerateScenarioError, MalformedInputError
from .ri import _pearson_contexts, _side

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
    "bloch_observable",
    "pauli",
    "eta_saturating_scenario",
    "tsirelson_scenario",
    "truncated_oscillator_pair",
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
        scale = np.abs(m).max()
        if not scale <= _OBSERVABLE_MAX:            # NaN and inf fail here too
            if not np.isfinite(m).all():
                raise MalformedInputError("observable has non-finite entries")
            got = f"{scale:.6g}" if scale < math.inf else "an entry whose modulus overflows"
            raise MalformedInputError(f"observable entries must be at most 1e75 in magnitude, got {got}")
        adj = m.conj().T
        if np.abs(m - adj).max() > 1e-12 * max(1.0, scale):
            raise MalformedInputError("observable is not Hermitian within 1e-12")
        m = 0.5 * (m + adj)
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
        dims = tuple(map(int, self.dims))
        if not (1 <= len(dims) <= 3):
            raise MalformedInputError("dims must list one to three parties")
        if not (2 <= min(dims) and max(dims) <= MAX_OBS_DIM):
            raise MalformedInputError(f"party dims must lie in 2..{MAX_OBS_DIM}, got {list(dims)}")
        total = math.prod(dims)
        state = np.array(self.state, dtype=np.complex128)
        if state.shape != (total,) or not abs(np.linalg.norm(state) - 1.0) <= 1e-12:
            if not np.isfinite(state).all():
                raise MalformedInputError("state has non-finite entries")
            if state.ndim == 1:
                if state.shape != (total,):
                    raise MalformedInputError(f"state vector must have length {total}")
                raise MalformedInputError("state vector must be normalized within 1e-12")
            if state.ndim != 2:
                raise MalformedInputError("state must be a vector or a square matrix")
            if state.shape != (total, total):
                raise MalformedInputError(f"density matrix must be {total}x{total}")
            if np.abs(state - state.conj().T).max() > 1e-12 * max(1.0, float(np.abs(state).max())):
                raise MalformedInputError("density matrix must be Hermitian")
            if abs(np.trace(state).real - 1.0) > 1e-12:
                raise MalformedInputError("density matrix must have unit trace within 1e-12")
            if float(np.linalg.eigvalsh(state)[0]) < -1e-10:
                raise MalformedInputError("density matrix must be PSD within 1e-10")
        state.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "state", state)

        for party, name in enumerate(("alice_obs", "bob_obs", "charlie_obs")):
            obs = getattr(self, name)
            if obs is None:
                if party < len(dims):
                    raise MalformedInputError(f"{name} required for dims {dims}")
                continue
            if party >= len(dims):
                raise MalformedInputError(f"{name} given but dims {dims} has no such party")
            obs = tuple([o if isinstance(o, Observable) else Observable(o) for o in obs])
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
# The moments route: one party's reduced state, one block of pair moments
# ---------------------------------------------------------------------------


def _reduced(sc: QuantumScenario, p: int) -> np.ndarray:
    """Reduced density matrix of party ``p``.

    A pure state, party p's axis moved first, reshapes to a (d_p, rest)
    matrix m, whose m m^dagger is the reduced state. A density tensor (ket
    axes, then bra axes) is traced from the highest party index down, so
    ket axis q pairs with axis ndim/2 + q throughout.
    """
    if sc.is_pure:
        m = sc.state.reshape(sc.dims).swapaxes(0, p).reshape(sc.dims[p], -1)
        return m.dot(m.conj().T)
    t = sc.state.reshape(sc.dims * 2)
    for q in reversed(range(sc.n_parties)):
        if q != p:
            t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    return t


def _pair_block(sc: QuantumScenario, p: int, q: int, mats_p, mats_q) -> np.ndarray:
    """Re<A_i x B_j> for operators A_i on party p and B_j on party q, p < q.

    On a pure state, with the two parties' axes moved last, (A x B) psi is
    A m B^T on each slice m of the other party's index; on a density tensor,
    the other party is traced out first.
    """
    out = np.empty((len(mats_p), len(mats_q)))
    if sc.is_pure:
        rest = [r for r in range(sc.n_parties) if r not in (p, q)]
        m = sc.state.reshape(sc.dims).transpose(*rest, p, q)
        mul = np.matmul if rest else np.ndarray.dot    # .dot does not broadcast over a third party
        for i, a in enumerate(mats_p):
            am = mul(a, m)
            for j, b in enumerate(mats_q):
                out[i, j] = np.vdot(m, mul(am, b.T)).real
        return out
    t = sc.state.reshape(sc.dims * 2)
    for r in reversed(range(sc.n_parties)):
        if r not in (p, q):
            t = np.trace(t, axis1=r, axis2=t.ndim // 2 + r)
    for i, a in enumerate(mats_p):
        for j, b in enumerate(mats_q):
            out[i, j] = np.einsum("abcd,ca,db->", t, a, b).real
    return out


def _normalized_pair(var, r_q: complex, label: str) -> tuple[float, float]:
    """(nu, eta) of one party's pair; raises when either variance is at the floor."""
    var = var.tolist()
    for which in (0, 1):
        if var[which] <= _VAR_FLOOR:
            raise DegenerateScenarioError(
                f"observable {label}{which} has vanishing variance; eta/nu undefined"
            )
    s0s1 = math.sqrt(var[0] * var[1])
    return r_q.real / s0s1, -r_q.imag / s0s1


@dataclass(frozen=True)
class QuantumMoments:
    """Bipartite moment data of one scenario.

    An optimizer objective gets the optimizer map's own record instead: the
    same field names, each batched with a leading row axis. It may be handed
    rows that no search consumes, which never count, so it must be pure and
    elementwise.
    """

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


def _party_moments(rho: np.ndarray, mats) -> tuple[np.ndarray, np.ndarray, complex]:
    """Means, variances, and the complex pair moment r_q = <X1 X0> - <X1><X0>.

    ``rho`` is the party's reduced density matrix and ``mats`` its two
    observables' matrices. tr(rho M) contracts as sum over rho[x, y] M[y, x],
    i.e. the plain dot of rho.T with M flattened, no conjugation; ``.dot`` on
    these operands is the BLAS call of ``@``, bit for bit, without its dispatch.
    """
    rho_t = rho.T.ravel()                       # a C-order copy
    x0, x1 = mats
    m0 = float(rho_t.dot(x0.ravel()).real)
    m1 = float(rho_t.dot(x1.ravel()).real)
    v0 = max(float(rho_t.dot(x0.dot(x0).ravel()).real) - m0 * m0, 0.0)
    v1 = max(float(rho_t.dot(x1.dot(x1).ravel()).real) - m1 * m1, 0.0)
    r_q = complex(rho_t.dot(x1.dot(x0).ravel())) - m1 * m0
    return np.array([m0, m1]), np.array([v0, v1]), r_q


def _covariances(sc: QuantumScenario, p: int, q: int, mats, means) -> np.ndarray:
    """C(A_i, B_j) = Re<A_i x B_j> - <A_i><B_j> for party p's A and party q's B."""
    return _pair_block(sc, p, q, mats[p], mats[q]) - means[p][:, None] * means[q]


def _compute_moments(sc: QuantumScenario) -> QuantumMoments:
    """All bipartite moment data; raises when a needed variance vanishes."""
    if sc.n_parties != 2:
        raise MalformedInputError("moments expects a bipartite scenario")
    mats = [o.matrix for o in sc.alice_obs], [o.matrix for o in sc.bob_obs]
    mean_a, var_a, r_q_a = _party_moments(_reduced(sc, 0), mats[0])
    mean_b, var_b, r_q_b = _party_moments(_reduced(sc, 1), mats[1])
    nu_a, eta_a = _normalized_pair(var_a, r_q_a, "A")
    nu_b, eta_b = _normalized_pair(var_b, r_q_b, "B")
    cov = _covariances(sc, 0, 1, mats, (mean_a, mean_b))
    pearson = cov / np.sqrt(var_a[:, None] * var_b)
    for a in (mean_a, mean_b, var_a, var_b, cov, pearson):
        a.setflags(write=False)
    return QuantumMoments(
        mean_a=mean_a, mean_b=mean_b, var_a=var_a, var_b=var_b,
        cov=cov, pearson=pearson,
        eta_a=eta_a, eta_b=eta_b, nu_a=nu_a, nu_b=nu_b,
        r_q_a=r_q_a, r_q_b=r_q_b,
    )


def moments(sc: QuantumScenario) -> QuantumMoments:
    """All bipartite moment data; raises when a needed variance vanishes.

    Computed once per scenario and shared with every check that takes the
    scenario; the record's arrays are read-only. It is kept on the scenario
    outside its dataclass fields, so equality, repr and hashing are
    unchanged; a scenario cannot change after construction, so the record
    never goes stale. A degenerate or non-bipartite scenario stores nothing
    and raises on every request.
    """
    mom = sc.__dict__.get("_moments")
    if mom is None:
        mom = _compute_moments(sc)
        object.__setattr__(sc, "_moments", mom)
    return mom


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
    mats = [[o.matrix for o in pair] for pair in (sc.alice_obs, sc.bob_obs, sc.charlie_obs)]
    means, variances, r_q = zip(*(_party_moments(_reduced(sc, p), mats[p]) for p in range(3)))
    return TripartiteMoments(
        means=means, vars=variances,
        cov_ab=_covariances(sc, 0, 1, mats, means),
        cov_ac=_covariances(sc, 0, 2, mats, means),
        cov_bc=_covariances(sc, 1, 2, mats, means),
        r_q_a=r_q[0],
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
    mom = moments(sc)
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
    mom = moments(sc)
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

    Each party's intervals are the bipartite ones narrowed by its eta^2 under
    the radical (``ri``'s interval rule with shrink = eta^2); row 1 is Alice's
    |c_0 - c_1| against h_0 + h_1, row 2 Bob's, and the check passes iff both
    sides' intervals meet within ``tol``. ``per_context`` compares each of
    Alice's contexts' (1 - rho_0j^2)(1 - rho_1j^2) with (nu_A - rho_0j rho_1j)^2
    + eta_A^2, the realized r' against that context's disk.
    """
    mom = moments(sc)
    ctx_a, ctx_b = _pearson_contexts(mom.pearson.tolist())
    a = _side(ctx_a, ("j=0", "j=1"), mom.eta_a**2)
    b = _side(ctx_b, ("i=0", "i=1"), mom.eta_b**2)
    return {
        "row1": dict(zip(("lhs", "rhs"), a.row)),
        "row2": dict(zip(("lhs", "rhs"), b.row)),
        "per_context": [
            {"j": j, "lhs": d0 * d1, "rhs": (mom.nu_a - c) ** 2 + mom.eta_a**2}
            for j, (c, d0, d1) in enumerate(ctx_a)
        ],
        "pass": a.gap <= tol and b.gap <= tol,
    }


def tsirelson_eta_bound(sc: QuantumScenario, tol: float = 1e-9) -> dict:
    """CHSH magnitude against 2 sqrt(2) sqrt(1 - max(eta_A^2, eta_B^2))."""
    mom = moments(sc)
    chsh = float(chsh_combination(mom.pearson))
    eta2 = max(mom.eta_a**2, mom.eta_b**2)
    bound = SQRT8 * math.sqrt(max(0.0, 1.0 - eta2))
    return {"chsh": chsh, "bound": bound, "pass": abs(chsh) <= bound + tol}


def chsh_r_tradeoff_check(sc: QuantumScenario, tol: float = 1e-9) -> dict:
    """(CHSH / 2 sqrt(2))^2 + |r'|^2 with r' the normalized complex pair moment.

    The sum is bounded by 1 on the anti-diagonal-sign extremal configurations
    (the regime where the relation is derived); it is reported, not assumed,
    for anything else.
    """
    mom = moments(sc)
    chsh = float(chsh_combination(mom.pearson))
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

    ``i`` and ``m`` are integers and the power must stay in double range:
    with R the larger spectral norm of Alice's observables, R^(2m + 2) (the
    scale of <A_i^2m> and of the squared correlations) must not exceed 1e290.
    """
    integer = lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool)
    if not integer(i) or i not in (0, 1):
        raise MalformedInputError("observable index i must be the integer 0 or 1")
    if not integer(m) or m <= 1:
        raise MalformedInputError("power m must be an integer greater than 1")
    if sign != "auto" and not (isinstance(sign, numbers.Real) and sign in (1, -1)):
        raise MalformedInputError("sign must be 'auto', +1 or -1")
    mats = [o.matrix for o in sc.alice_obs]
    r = max(1.0, *(float(np.linalg.norm(a, 2)) for a in mats))
    if r > 1.0 and m + 1 > 145.0 / math.log10(r):
        raise MalformedInputError(
            f"power m = {m} leaves double range: R^(2m + 2) exceeds 1e290 for the "
            f"spectral norm R = {r:.6g} of Alice's observables"
        )
    rho = _reduced(sc, 0)
    expect = lambda op: complex(np.trace(rho @ op))
    mean, var, r_q = _party_moments(rho, mats)
    d = np.linalg.matrix_power(mats[i], m)
    mean_d = expect(d).real
    m2_d = expect(d @ d).real
    var_d = max(m2_d - mean_d**2, 0.0)
    scale = max(1.0, float(np.abs(d).max()) ** 2)
    if var_d <= _VAR_FLOOR * scale:
        raise DegenerateScenarioError(
            f"A_{i}^{m} has vanishing variance (proportional to identity on the state); "
            "pick an odd power or a higher-dimensional observable"
        )
    c = [expect(mats[k] @ d) - mean[k] * mean_d for k in (0, 1)]
    nu_raw = r_q.real
    if sign == "auto":
        s = -1.0 if nu_raw > 0 else 1.0
        rhs_basic = 2.0 * abs(nu_raw)
    else:
        s = float(sign)
        rhs_basic = -2.0 * s * nu_raw
    enhancement = float(abs(c[1] + s * c[0]) ** 2 / var_d)
    lhs = float(var[0] + var[1])
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
# Constructors
# ---------------------------------------------------------------------------


def bloch_observable(theta: float, phi: float) -> Observable:
    """Qubit observable n . sigma with unit Bloch vector from polar angles."""
    s = math.sin(theta)
    nx, ny, nz = s * math.cos(phi), s * math.sin(phi), math.cos(theta)
    return Observable(np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]))


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
