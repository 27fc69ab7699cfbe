"""Shared sampling helpers for the test suite."""

import json
import math

import numpy as np

from bellri.qmodel import (
    QuantumScenario,
    bloch_observable,
    chsh_r_tradeoff_check,
    moments,
    quantum_cov_matrix,
    quantum_tlm_check,
    random_scenario,
    schrodinger_robertson_check,
    tsirelson_eta_bound,
)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_bloch(rng):
    return bloch_observable(math.acos(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))


def random_max_entangled(rng):
    """Random maximally entangled two-qubit state (marginals fully mixed)."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ phi


def _abc_from_ab(rho_ab: np.ndarray) -> np.ndarray:
    """(A, B) density times fully mixed C, party order (A, B, C)."""
    return np.kron(rho_ab, np.eye(2) / 2.0)


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


def random_mixed_scenario(rng, dims=(2, 3), rank: int = 3) -> QuantumScenario:
    """Random rank-``rank`` density matrix with random_scenario's observables."""
    sc = random_scenario(rng, dims=dims)
    n = sc.state.size
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumScenario(
        dims=dims, state=rho / np.trace(rho).real, alice_obs=sc.alice_obs, bob_obs=sc.bob_obs
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
    gram = [quantum_cov_matrix(sc, j).data for j in (0, 1)]
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
