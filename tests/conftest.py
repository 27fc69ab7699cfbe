"""Shared sampling helpers for the test suite."""

import json
import math

import numpy as np

from bellri.correlators import pr_box_table
from bellri.errors import DegenerateScenarioError, MalformedInputError, PreconditionError
from bellri.lhv import _VERTEX_VALUES
from bellri.multiparty import NPartyCorrelators, nparty_bound_check
from bellri.qmodel import (
    Observable,
    QuantumScenario,
    bloch_observable,
    chsh_r_tradeoff_check,
    moments,
    pauli,
    quantum_cov_matrix,
    quantum_tlm_check,
    schrodinger_robertson_check,
    tsirelson_eta_bound,
)


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
            mm = moments(sc)
            if min(mm.var_a.min(), mm.var_b.min()) < min_variance:
                mom_ok = False
        except DegenerateScenarioError:
            mom_ok = False
        if mom_ok:
            return sc
    raise DegenerateScenarioError("could not sample a non-degenerate scenario")


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


def random_unitary(rng, d):
    """Haar-random unitary: Q of g = QR with R's diagonal positive, by Gram-Schmidt on g's columns."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = []
    for col in g.T.tolist():
        for u in q:
            c = sum(x.conjugate() * y for x, y in zip(u, col))
            col = [y - c * x for x, y in zip(u, col)]
        norm = math.sqrt(sum(y.real * y.real + y.imag * y.imag for y in col))
        q.append([y / norm for y in col])
    return np.array(q).T


def random_bloch(rng):
    u, v = rng.random(2)                    # the draws of uniform(-1, 1), uniform(-pi, pi)
    return bloch_observable(math.acos(-1.0 + 2.0 * u), -math.pi + 2.0 * math.pi * v)


def random_max_entangled(rng):
    """Random maximally entangled two-qubit state (marginals fully mixed): (U x V)|Phi+>."""
    u = random_unitary(rng, 2)
    return (u @ random_unitary(rng, 2).T).ravel() / math.sqrt(2.0)


def _abc_from_ab(rho_ab: np.ndarray) -> np.ndarray:
    """(A, B) density times fully mixed C, party order (A, B, C)."""
    return (rho_ab.reshape(4, 1, 4, 1) * (np.eye(2) / 2.0)[None, :, None, :]).reshape(8, 8)


def _abc_from_ac(rho_ac: np.ndarray) -> np.ndarray:
    """(A, C) density times fully mixed B, party order (A, B, C)."""
    r = rho_ac.reshape(2, 2, 2, 2)      # (a, c, a', c')
    out = np.einsum("acxz,bB->abcxBz", r, np.eye(2) / 2.0)
    return out.reshape(8, 8)


def uncorrelated_bc_scenario(rng, *, w: float | None = None) -> QuantumScenario:
    """Three-qubit mixed scenario with C(B_j, C_k) = 0 by construction.

    Convex mix of (maximally entangled AB) x (mixed C) with (maximally
    entangled AC) x (mixed B). Every single-party marginal is fully mixed, so
    the one-point means of the traceless +-1 observables vanish and the
    Bob-Charlie covariances are exactly zero in both branches.
    """
    psi_ab = random_max_entangled(rng)
    psi_ac = random_max_entangled(rng)
    w = float(rng.uniform(0.0, 1.0)) if w is None else float(w)
    rho = w * _abc_from_ab(np.outer(psi_ab, psi_ab.conj())) + (1.0 - w) * _abc_from_ac(
        np.outer(psi_ac, psi_ac.conj())
    )
    return QuantumScenario(
        dims=(2, 2, 2),
        state=rho,
        alice_obs=(random_bloch(rng), random_bloch(rng)),
        bob_obs=(random_bloch(rng), random_bloch(rng)),
        charlie_obs=(random_bloch(rng), random_bloch(rng)),
    )


def optimal_ab_with_idle_charlie(rng) -> QuantumScenario:
    """Maximal-CHSH Alice-Bob block with a decoupled, fully mixed Charlie."""
    from bellri.qmodel import tsirelson_scenario

    base = tsirelson_scenario()
    rho = _abc_from_ab(np.outer(base.state, base.state.conj()))
    return QuantumScenario(
        dims=(2, 2, 2),
        state=rho,
        alice_obs=base.alice_obs,
        bob_obs=base.bob_obs,
        charlie_obs=(random_bloch(rng), random_bloch(rng)),
    )


def random_density(rng, n: int, rank: int) -> np.ndarray:
    """Random n x n density matrix of rank ``rank``: G G^dagger over its trace, G complex Gaussian."""
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def random_mixed_scenario(rng, dims=(2, 3), rank: int = 3) -> QuantumScenario:
    """Random rank-``rank`` density matrix with random_scenario's observables."""
    sc = random_scenario(rng, dims=dims)
    return QuantumScenario(
        dims=dims, state=random_density(rng, sc.state.size, rank),
        alice_obs=sc.alice_obs, bob_obs=sc.bob_obs,
    )


def fresh_copy(sc: QuantumScenario) -> QuantumScenario:
    """An equal bipartite scenario built anew, so it shares no computed moments."""
    return QuantumScenario(
        dims=sc.dims, state=np.array(sc.state), alice_obs=sc.alice_obs, bob_obs=sc.bob_obs
    )


def check_report(sc: QuantumScenario) -> str:
    """Moments and every bipartite check of ``sc`` as JSON; floats print exactly."""
    mom = moments(sc)
    arrays = (mom.mean_a, mom.mean_b, mom.var_a, mom.var_b, mom.cov, mom.pearson)
    gram = [quantum_cov_matrix(sc, j) for j in (0, 1)]
    return json.dumps({
        "moments": [a.tolist() for a in arrays],
        "pairs": [mom.eta_a, mom.eta_b, mom.nu_a, mom.nu_b,
                  [mom.r_q_a.real, mom.r_q_a.imag, mom.r_q_b.real, mom.r_q_b.imag]],
        "quantum_tlm": quantum_tlm_check(sc),
        "eta_bound": tsirelson_eta_bound(sc),
        "uncertainty": [schrodinger_robertson_check(sc, p) for p in "ab"],
        "tradeoff": chsh_r_tradeoff_check(sc),
        "gram": [[g.real.tolist(), g.imag.tolist()] for g in gram],
    })


def random_nparty(rng, n: int) -> NPartyCorrelators:
    """Correlation pairs at a random overall scale, so both n-party verdicts occur."""
    def block():
        return np.clip(rng.uniform(-1, 1, (n, 2)) * rng.uniform(0, 1.5) / math.sqrt(n), -1, 1)
    return NPartyCorrelators(rho_first=block(), rho_second=block())


def precondition_holds(npc: NPartyCorrelators, r_prime: float) -> bool:
    """Verdict of the 2x2 realizability precondition inside ``nparty_bound_check``."""
    try:
        nparty_bound_check(npc, r_prime)
    except PreconditionError:
        return False
    return True


def tangent_pearson(rng) -> list:
    """Pearson table whose two admissible r' intervals touch at one point.

    With rho = cos(x), cos(y) the interval of one remote setting is
    [cos(x + y), cos(x - y)]; the second setting's angles sum to |a - b|,
    so its lower end is the first interval's upper end.
    """
    a, b = rng.uniform(0.0, math.pi, size=2)
    s = abs(a - b)
    x = rng.uniform(0.0, s)
    return [[math.cos(a), math.cos(x)], [math.cos(b), math.cos(s - x)]]


def float_bits(x):
    """The type and ``float.hex`` of every number in ``x``.

    ``x`` is an array, a tuple or list, a dict of such values, a float, an int,
    a bool, a complex or None.
    """
    if isinstance(x, np.ndarray):
        return [f"{x.dtype}{list(x.shape)}", [float_bits(v) for v in x.ravel().tolist()]]
    if isinstance(x, (tuple, list)):
        return [float_bits(v) for v in x]
    if isinstance(x, dict):
        return {k: float_bits(v) for k, v in x.items()}
    if x is None:
        return None
    if type(x) is complex:
        return [x.real.hex(), x.imag.hex()]
    return f"{type(x).__name__}:{float(x).hex()}"


def lhv_probabilities(weights) -> np.ndarray:
    """p[i, j, a, b] of a mixture of the 16 deterministic strategies, outcomes (-1, +1)."""
    p = np.zeros((2, 2, 2, 2))
    for w, (a0, a1, b0, b1) in zip(weights, _VERTEX_VALUES):
        for i, a in enumerate((a0, a1)):
            for j, b in enumerate((b0, b1)):
                p[i, j, int(a > 0), int(b > 0)] += w
    return p


TABLE_KINDS = ("pearson", "moments", "scaled", "ensemble", "box", "probabilities", "tangent", "pr-box")


def random_table_payload(rng, kind: str) -> dict:
    """A bipartite table of one of ``TABLE_KINDS``, as the CLI reads it.

    ``moments`` has the second moments of +-1 outcomes but may imply a
    negative probability; ``scaled`` has variances no +-1 variable has;
    ``box`` mixes a local box with the PR box (no-signaling, +-1 outcomes);
    ``probabilities`` generally signals and may have three outcomes.
    """
    if kind == "pearson":
        return {"pearson": rng.uniform(-1, 1, (2, 2)).tolist()}
    if kind == "moments":
        m = rng.uniform(-0.6, 0.6, 4)
        return {"pearson": rng.uniform(-1, 1, (2, 2)).tolist(),
                "means": {"a": m[:2].tolist(), "b": m[2:].tolist()},
                "variances": {"a": (1 - m[:2] ** 2).tolist(), "b": (1 - m[2:] ** 2).tolist()}}
    if kind == "scaled":
        return {"pearson": rng.uniform(-1, 1, (2, 2)).tolist(),
                "variances": {"a": rng.uniform(0.1, 2, 2).tolist(), "b": rng.uniform(0.1, 2, 2).tolist()}}
    if kind == "ensemble":
        return {"ensemble": {"weights": rng.dirichlet(np.full(16, 0.5)).tolist()}}
    if kind == "box":
        share = rng.uniform(0, 1)
        p = (1 - share) * lhv_probabilities(rng.dirichlet(np.full(16, 0.5))) + share * pr_box_table().p
        return {"probabilities": {"outcomes_a": [-1.0, 1.0], "outcomes_b": [-1.0, 1.0], "p": p.tolist()}}
    if kind == "probabilities":
        na, nb = (int(n) for n in rng.integers(2, 4, size=2))
        oa = [-1.0, 1.0] if na == 2 else sorted(rng.uniform(-2, 2, na).tolist())
        ob = [-1.0, 1.0] if nb == 2 else sorted(rng.uniform(-2, 2, nb).tolist())
        p = rng.dirichlet(np.ones(na * nb), size=(2, 2)).reshape(2, 2, na, nb)
        return {"probabilities": {"outcomes_a": oa, "outcomes_b": ob, "p": p.tolist()}}
    if kind == "tangent":
        return {"pearson": tangent_pearson(rng)}
    if kind == "pr-box":
        return {"name": "pr-box"}
    raise ValueError(kind)
