"""Independent oracles the tests compare the library against.

Each builds the same quantity as a library function by a different route
(an explicit matrix whose PSD is the condition, a brute-force PSD grid, a
Cholesky-based Schur complement, a four-sign closed form, the arcsine form
of the correlator bound, a brute-force covariance, quantum expectations of
explicit Kronecker-product operators, spectral projectors), so a test can
check the two routes agree.
"""

from fractions import Fraction

import numpy as np

from bellri.correlators import CorrelatorTable, ProbabilityTable, TripartiteCorrelatorTable
from bellri.errors import MalformedInputError
from bellri.lhv import LhvEnsemble, enumerate_vertices
from bellri.linalg import is_psd
from bellri.multiparty import NPartyCorrelators
from bellri.qmodel import Observable, QuantumScenario, _pair_block

_MERGE_TOL = 1e-9           # eigenvalues this close are one outcome of an observable

# the values (a0, a1, b0, b1) of the 16 deterministic strategies, one row per vertex index k
VERTEX_VALUES = np.array(enumerate_vertices(), dtype=np.float64)

# the eight CHSH facet sign patterns, indexed like pearson[i][j]: one odd -1 entry
# at (1, 1), (1, 0), (0, 1), (0, 0), then those four negated; ``chsh_max`` is
# checked against the largest |(s * entries).sum()| over them
_ODD_SIGNS = tuple(np.where(np.arange(4).reshape(2, 2) == k, -1.0, 1.0) for k in (3, 2, 1, 0))
CHSH_SIGNS = _ODD_SIGNS + tuple(-s for s in _ODD_SIGNS)


class DegeneratePivotError(ArithmeticError):
    """Leading block of a Schur partition is singular or indefinite."""


def defined_pearson(ct: CorrelatorTable) -> np.ndarray:
    """The table's Pearson array; raises DegenerateDataError where an entry is undefined."""
    ct._pearson_rows()
    return ct.pearson


def chsh_raw(ct: CorrelatorTable) -> float:
    """CHSH of the raw two-point correlators <A_i B_j> = cov + mean*mean."""
    ma, mb, _, _, cov = ct._floats[:5]
    (e00, e01), (e10, e11) = ([c + a * b for c, b in zip(row, mb)] for row, a in zip(cov, ma))
    return e00 + e10 + e01 - e11


def epsilon_four_signs(ct: CorrelatorTable) -> float:
    """The explicit four-sign form of ``epsilon_gap`` for disjoint intervals."""
    pe = defined_pearson(ct)
    center_diff = float(pe[0, 0] * pe[1, 0] - pe[0, 1] * pe[1, 1])
    h0, h1 = (np.sqrt(np.clip(1.0 - pe[:, j] ** 2, 0.0, None).prod()) for j in (0, 1))
    return min(abs(center_diff + s0 * h0 + s1 * h1) for s0 in (1, -1) for s1 in (1, -1))


def tlm_arcsine_slack(ct: CorrelatorTable) -> float:
    """pi - max |sum +- arcsin rho_ij| over the four sign patterns with one odd sign.

    The arcsine form of the Tsirelson-Landau-Masanes condition (Landau 1988,
    Found. Phys. 18, 449; Masanes 2003, quant-ph/0309137): a zero-mean table
    is quantum-realizable iff this is >= 0.
    """
    theta = np.arcsin(np.clip(defined_pearson(ct), -1.0, 1.0))
    return float(np.pi - max(abs(float((s * theta).sum())) for s in _ODD_SIGNS))


def ri_condition_matrix(ct: CorrelatorTable, j: int, r_prime: float) -> np.ndarray:
    """Normalized 3x3 matrix whose PSD is equivalent to r' in D_j."""
    pe = defined_pearson(ct)
    r0, r1 = float(pe[0, j]), float(pe[1, j])
    return np.array([[1.0, r1, r0], [r1, 1.0, r_prime], [r0, r_prime, 1.0]])


def ri_pair_matrix(ct: CorrelatorTable, r_prime: float) -> np.ndarray:
    """Block-diagonal 4x4 pairing both contexts at one shared r'.

    PSD iff r' is admissible for both remote settings simultaneously, the
    block form of the feasibility condition.
    """
    pe = defined_pearson(ct)
    p = np.array([[1.0, r_prime], [r_prime, 1.0]])
    blocks = []
    for j in (0, 1):
        rj = np.array([pe[0, j], pe[1, j]])
        blocks.append(p - np.outer(rj, rj))
    m = np.zeros((4, 4))
    m[:2, :2] = blocks[0]
    m[2:, 2:] = blocks[1]
    return m


def tripartite_condition_matrix(
    tct: TripartiteCorrelatorTable, j: int, k: int, r_prime: float
) -> np.ndarray:
    """Normalized 4x4 matrix (C_k, B_j, A_1, A_0) for one remote context."""
    ab = tct.pearson_ab
    ac = tct.pearson_ac
    bc = tct.pearson_bc
    return np.array(
        [
            [1.0, bc[j, k], ac[1, k], ac[0, k]],
            [bc[j, k], 1.0, ab[1, j], ab[0, j]],
            [ac[1, k], ab[1, j], 1.0, r_prime],
            [ac[0, k], ab[0, j], r_prime, 1.0],
        ]
    )


def pr_box_demo_oracle() -> dict:
    """``pr_box_demo``'s booleans by brute force over 4x4 context matrices.

    Charlie shares <A_i C_k> = (-1)^(i k) with Alice and nothing with Bob;
    each verdict asks ``is_psd`` of ``tripartite_condition_matrix`` on an r'
    grid: nonzero Alice-Bob correlations 0.25 and -0.5 are PSD at no r' of
    41, each context at rho_ab = 0 is PSD at r' = (-1)^k and not at 0, and no
    r' of 2001 is PSD in all four contexts at once.
    """
    ac = np.array([[1.0, 1.0], [1.0, -1.0]])
    contexts = [(j, k) for j in (0, 1) for k in (0, 1)]

    def psd(rho_ab: float, j: int, k: int, r: float) -> bool:
        tct = TripartiteCorrelatorTable(np.full((2, 2), rho_ab), ac, np.zeros((2, 2)))
        return is_psd(tripartite_condition_matrix(tct, j, k, r), tol=1e-9)

    return {
        "ab_forced_zero_verified": not any(
            psd(rho_ab, j, k, r)
            for rho_ab in (0.25, -0.5) for j, k in contexts for r in np.linspace(-1.0, 1.0, 41)
        ),
        "contexts": {
            f"j={j},k={k}": {
                "psd_at_required": psd(0.0, j, k, (-1.0) ** k),
                "psd_at_zero": psd(0.0, j, k, 0.0),
            }
            for j, k in contexts
        },
        "common_r_exists": any(
            all(psd(0.0, j, k, r) for j, k in contexts) for r in np.linspace(-1.0, 1.0, 2001)
        ),
    }


def product_cov_oracle(ens: LhvEnsemble) -> np.ndarray:
    """``product_cov_matrix`` by brute force: enumerate vertex products and form the covariance."""
    w = ens.weights
    z = np.stack(
        [
            VERTEX_VALUES[:, 0] * VERTEX_VALUES[:, 2],
            VERTEX_VALUES[:, 1] * VERTEX_VALUES[:, 2],
            VERTEX_VALUES[:, 0] * VERTEX_VALUES[:, 3],
            VERTEX_VALUES[:, 1] * VERTEX_VALUES[:, 3],
        ]
    )
    mu = z @ w
    return (z * w) @ z.T - np.outer(mu, mu)


def build_multiparty_matrix(
    npc: NPartyCorrelators, r_prime: float, context: str = "first"
) -> np.ndarray:
    """Bordered-identity (n+2)x(n+2) correlation matrix of one context selection.

    Rows 0..n-1 are the experimenters (identity block, mutual uncorrelation),
    the last two rows Alice's pair with unit diagonal and r' off-diagonal;
    the border columns hold the per-experimenter correlation pairs. Its PSD
    is the n-party precondition ``nparty_bound_check`` tests on the 2x2 block.
    """
    if context not in ("first", "second"):
        raise MalformedInputError("context must be 'first' or 'second'")
    rho = npc.rho_first if context == "first" else npc.rho_second
    n = npc.n
    m = np.eye(n + 2)
    m[n, n + 1] = m[n + 1, n] = float(r_prime)
    m[:n, n:] = rho
    m[n:, :n] = rho.T
    return m


def bordered_oracle(npc: NPartyCorrelators, r_prime: float) -> tuple[bool, bool]:
    """(both bordered matrices PSD, both their Schur complements over the identity block PSD)."""
    mats = [build_multiparty_matrix(npc, r_prime, c) for c in ("first", "second")]
    return (all(is_psd(m) for m in mats),
            all(is_psd(schur_complement(m, npc.n)) for m in mats))


def _cholesky_strict(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a strictly positive definite block.

    Raises DegeneratePivotError when the factorization fails or any squared
    pivot is <= 1e-13 times the largest entry, so a near-singular block is
    reported instead of being inverted.
    """
    floor = 1e-13 * max(float(np.abs(a).max()), 1e-300)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DegeneratePivotError("leading block is not strictly positive definite") from exc
    pivots = np.abs(np.diagonal(low)) ** 2
    for j, s in enumerate(pivots):
        if s <= floor:
            raise DegeneratePivotError(
                f"leading block is not strictly positive definite (pivot {j}: {s:.3e})"
            )
    return low


def schur_complement(m, block_split: int) -> np.ndarray:
    """Schur complement D - C A^{-1} C* of the partition [[A, C*], [C, D]].

    ``block_split`` is the size of the leading block A, which must be
    strictly positive definite. For A > 0 the input is PSD iff the returned
    complement is. The result is real for a real input, complex otherwise,
    and exactly (conj-)symmetric.
    """
    a = np.asarray(m)
    n = a.shape[0]
    if not (0 < block_split < n):
        raise MalformedInputError(f"block_split must be in 1..{n - 1}, got {block_split}")
    k = block_split
    low = _cholesky_strict(a[:k, :k])
    # A = L L*, so C A^{-1} C* = W* W with W = L^{-1} C*
    w = np.linalg.solve(low, a[k:, :k].conj().T)
    comp = a[k:, k:] - w.conj().T @ w
    return 0.5 * (comp + comp.conj().T)


def table_fault_oracle(means_a, means_b, var_a, var_b, cov, pearson, pearson_defined=None) -> str | None:
    """The message ``CorrelatorTable`` must raise for these fields, or None if it accepts them.

    Each rule is its own NumPy reduction, checked field by field in the order
    the fields are listed: each moment vector finite with length 2, variances
    nonnegative, cov and pearson 2x2, defined |rho| <= 1 + 1e-9, and at each
    defined entry a finite raw correlator cov + mean_a mean_b.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in (means_a, means_b, var_a, var_b)]
    for name, v in zip(("means_a", "means_b", "var_a", "var_b"), vectors):
        if v.shape != (2,) or not np.all(np.isfinite(v)):
            return f"{name} must be a finite length-2 vector"
    if np.any(vectors[2] < 0) or np.any(vectors[3] < 0):
        return "variances must be nonnegative"
    cov, pe = np.asarray(cov, dtype=np.float64), np.asarray(pearson, dtype=np.float64)
    if cov.shape != (2, 2) or pe.shape != (2, 2):
        return "cov and pearson must be 2x2"
    defined = np.isfinite(pe) if pearson_defined is None else np.asarray(pearson_defined, dtype=bool)
    if np.any(np.abs(pe[defined]) > 1.0 + 1e-9):
        return "defined Pearson entries must lie in [-1, 1]"
    with np.errstate(over="ignore", invalid="ignore"):
        raw = cov + np.outer(vectors[0], vectors[1])
    if not np.all(np.isfinite(raw[defined])):
        return "cov + mean_a * mean_b must be finite where pearson is defined"
    return None


def tripartite_fault_oracle(blocks, variances) -> str | None:
    """The message ``TripartiteCorrelatorTable`` must raise, or None: one reduction per rule and field."""
    for name, m in zip(("pearson_ab", "pearson_ac", "pearson_bc"), blocks):
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            return f"{name} must be a finite 2x2 block"
        if np.abs(m).max() > 1.0 + 1e-9:
            return f"{name} entries must lie in [-1, 1]"
    for name, v in zip(("var_a", "var_b", "var_c"), variances):
        v = np.ones(2) if v is None else np.asarray(v, dtype=np.float64)
        if v.shape != (2,) or np.any(v < 0) or not np.all(np.isfinite(v)):
            return f"{name} must be a nonnegative length-2 vector"
    return None


def probability_fault_oracle(outcomes_a, outcomes_b, p) -> str | None:
    """The message ``ProbabilityTable`` must raise, or None: one reduction per rule."""
    oa, ob = np.asarray(outcomes_a, dtype=np.float64), np.asarray(outcomes_b, dtype=np.float64)
    pr = np.asarray(p, dtype=np.float64)
    if oa.ndim != 1 or ob.ndim != 1 or oa.size == 0 or ob.size == 0:
        return "outcome lists must be non-empty 1-d arrays"
    if not (np.all(np.abs(oa) <= 1e77) and np.all(np.abs(ob) <= 1e77)):      # NaN fails
        return "outcome values must be finite and at most 1e77 in magnitude"
    if pr.shape != (2, 2, oa.size, ob.size):
        return f"p must have shape (2, 2, {oa.size}, {ob.size}), got {pr.shape}"
    if not np.all(np.isfinite(pr)) or np.any(pr < -1e-15):
        return "probabilities must be finite and nonnegative"
    # each total summed exactly and rounded once
    sums = [[float(sum(map(Fraction, pr[i, j].ravel().tolist()))) for j in (0, 1)] for i in (0, 1)]
    if max(abs(x - 1.0) for row in sums for x in row) > 1e-12:
        return f"each setting pair must be normalized to 1 within 1e-12, sums={sums}"
    return None


def kron_expectation(sc, ops: dict) -> complex:
    """<O_p x O_q x ...> of scenario ``sc`` for ``ops`` = {party: matrix}.

    Builds the full operator as a Kronecker product with the identity on every
    party not in ``ops``, then takes psi^dagger (O psi) or tr(rho O).
    """
    full = np.ones((1, 1))
    for party, d in enumerate(sc.dims):
        full = np.kron(full, ops.get(party, np.eye(d)))
    if sc.state.ndim == 1:
        return complex(sc.state.conj() @ (full @ sc.state))
    return complex(np.trace(sc.state @ full))


def tensor_expectation(psi: np.ndarray, ops: dict) -> complex:
    """<psi| O_p x O_q x ... |psi> as one einsum over the state tensor (one axis per party)."""
    bra = "abc"[: psi.ndim]
    ket = "".join(c.upper() if party in ops else c for party, c in enumerate(bra))
    spec = ",".join([bra, *(bra[party] + ket[party] for party in ops), ket]) + "->"
    return complex(np.einsum(spec, psi.conj(), *ops.values(), psi, optimize=True))


def moments_oracle(obs, expect) -> dict:
    """Each party's means, variances and r_q, and each pair's covariance block.

    ``obs`` lists each party's two observable matrices; ``expect`` maps
    {party: operator} to the state's expectation of their tensor product.
    """
    n = len(obs)
    means = [np.array([expect({p: a}).real for a in obs[p]]) for p in range(n)]
    variances = [np.array([expect({p: a @ a}).real for a in obs[p]]) - means[p] ** 2 for p in range(n)]
    r_q = [expect({p: obs[p][1] @ obs[p][0]}) - means[p][1] * means[p][0] for p in range(n)]
    cov = {
        (p, q): np.array([[expect({p: a, q: b}).real for b in obs[q]] for a in obs[p]])
        - np.outer(means[p], means[q])
        for p in range(n)
        for q in range(p + 1, n)
    }
    return {"means": means, "vars": variances, "r_q": r_q, "cov": cov}


def higher_moment_oracle(sc, i: int, m: int) -> dict:
    """``higher_moment_uncertainty_check``'s lhs and bounds with the "auto" sign, from Kronecker operators."""
    a = [o.matrix for o in sc.alice_obs]
    e = lambda op: kron_expectation(sc, {0: op})
    mean = [e(x).real for x in a]
    var = [e(x @ x).real - mu**2 for x, mu in zip(a, mean)]
    nu_raw = (e(a[1] @ a[0]) - mean[1] * mean[0]).real
    d = np.linalg.matrix_power(a[i], m)
    mean_d = e(d).real
    var_d = e(d @ d).real - mean_d**2
    c = [e(a[k] @ d) - mean[k] * mean_d for k in (0, 1)]
    s = -1.0 if nu_raw > 0 else 1.0
    enhancement = abs(c[1] + s * c[0]) ** 2 / var_d
    return {
        "lhs": var[0] + var[1],
        "rhs_basic": 2.0 * abs(nu_raw),
        "rhs_enhanced": 2.0 * abs(nu_raw) + enhancement,
        "enhancement": enhancement,
        "sign": s,
    }


def qubit_outcome_oracle(sc) -> np.ndarray:
    """p(a, b | i, j) of a two-qubit scenario with +-1 observables, outcomes ordered (-1, +1).

    Each outcome's projector is (I + a X) / 2; the table is the expectation of
    the projectors' Kronecker product.
    """
    proj = lambda x, a: 0.5 * (np.eye(2) + a * x.matrix)
    signs = (-1.0, 1.0)
    return np.array([
        [[[kron_expectation(sc, {0: proj(x, a), 1: proj(y, b)}).real for b in signs] for a in signs]
         for y in sc.bob_obs]
        for x in sc.alice_obs
    ])


def _spectral_outcomes(o: Observable):
    w, v = np.linalg.eigh(o.matrix)
    outcomes: list[float] = []
    projectors: list[np.ndarray] = []
    k = 0
    while k < len(w):
        grp = [k]
        while grp[-1] + 1 < len(w) and abs(w[grp[-1] + 1] - w[k]) <= _MERGE_TOL:
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
    p = np.empty((2, 2, len(outcomes_a), len(outcomes_b)))
    for i in range(2):
        for j in range(2):
            p[i, j] = np.maximum(_pair_block(sc, 0, 1, spect_a[i][1], spect_b[j][1]), 0.0)
            p[i, j] /= p[i, j].sum()
    return ProbabilityTable(outcomes_a=np.array(outcomes_a), outcomes_b=np.array(outcomes_b), p=p)
