"""Quantum simulator tests: moments, uncertainty checks, bounds, constructions."""

import math
from dataclasses import fields

import numpy as np
import pytest
from conftest import check_report, fresh_copy, random_mixed_scenario

from bellri import qmodel
from bellri.correlators import chsh_max, from_probability_table
from bellri.errors import DegenerateScenarioError, MalformedInputError
from bellri.linalg import eigenvalues_sym, is_psd
from bellri.qmodel import (
    Observable,
    QuantumScenario,
    bloch_observable,
    chsh_r_tradeoff_check,
    eta_saturating_scenario,
    higher_moment_uncertainty_check,
    moments,
    outcome_distribution,
    pauli,
    quantum_cov_matrix,
    quantum_tlm_check,
    random_observable,
    random_scenario,
    random_state,
    schrodinger_robertson_check,
    singlet_scenario,
    to_correlator_table,
    tripartite_moments,
    truncated_oscillator_pair,
    tsirelson_eta_bound,
    tsirelson_scenario,
)
from bellri.ri import r_interval_bipartite, ri_feasible_bipartite, tlm_check

SQRT2 = math.sqrt(2.0)


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def scenario_xy_on_zero(bob=None):
    """Alice measures sigma_x / sigma_y on |0>; Bob z/y on |+> (unit variances)."""
    bob = bob or (pauli["z"], pauli["y"])
    state = np.kron(ket(1, 0), ket(1, 1))
    return QuantumScenario(
        dims=(2, 2),
        state=state,
        alice_obs=(Observable(pauli["x"]), Observable(pauli["y"])),
        bob_obs=tuple(Observable(np.asarray(b)) for b in bob),
    )


class TestScenarioValidation:
    def test_norm_enforced(self):
        with pytest.raises(MalformedInputError):
            QuantumScenario(
                dims=(2, 2),
                state=np.array([1.0, 0, 0, 0.1]),
                alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
                bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            )

    def test_density_matrix_accepted(self):
        rho = np.eye(4) / 4.0
        sc = QuantumScenario(
            dims=(2, 2),
            state=rho,
            alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
        )
        assert not sc.is_pure

    def test_non_psd_density_rejected(self):
        rho = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(MalformedInputError):
            QuantumScenario(
                dims=(2, 2),
                state=rho,
                alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
                bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            )

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(MalformedInputError):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMoments:
    def test_xy_on_zero_eta_one(self):
        mom = moments(scenario_xy_on_zero())
        assert mom.eta_a == pytest.approx(1.0, abs=1e-12)
        assert mom.nu_a == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(mom.var_a, 1.0, atol=1e-12)

    def test_commuting_observables_zero_eta(self):
        state = np.kron(ket(1, 1), ket(1, 0.3))
        sc = QuantumScenario(
            dims=(2, 2),
            state=state,
            alice_obs=(Observable(pauli["z"]), Observable(pauli["z"])),
            bob_obs=(Observable(pauli["x"]), Observable(pauli["z"])),
        )
        mom = moments(sc)
        assert mom.eta_a == pytest.approx(0.0, abs=1e-12)
        assert mom.nu_a == pytest.approx(1.0, abs=1e-12)

    def test_singlet_planar_covariances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(-math.pi, math.pi, size=2)
            b = rng.uniform(-math.pi, math.pi, size=2)
            mom = moments(singlet_scenario(a, b))
            expected = -np.cos(np.subtract.outer(a, b))
            np.testing.assert_allclose(mom.cov, expected, atol=1e-12)
            np.testing.assert_allclose(mom.mean_a, 0.0, atol=1e-12)
            np.testing.assert_allclose(mom.var_a, 1.0, atol=1e-12)

    def test_pure_and_density_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sc = random_scenario(rng, dims=(2, 3))
            rho = np.outer(sc.state, sc.state.conj())
            sc2 = QuantumScenario(
                dims=sc.dims, state=rho, alice_obs=sc.alice_obs, bob_obs=sc.bob_obs
            )
            m1, m2 = moments(sc), moments(sc2)
            np.testing.assert_allclose(m1.cov, m2.cov, atol=1e-11)
            np.testing.assert_allclose(m1.pearson, m2.pearson, atol=1e-11)
            assert m1.r_q_a == pytest.approx(m2.r_q_a, abs=1e-11)

    def test_zero_variance_raises_with_name(self):
        state = np.kron(ket(1, 0), ket(1, 1))
        sc = QuantumScenario(
            dims=(2, 2),
            state=state,
            alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
        )
        with pytest.raises(DegenerateScenarioError, match="A0"):
            moments(sc)


class TestSharedMoments:
    """A scenario's moments are computed once and shared by every check."""

    @staticmethod
    def _count_computes(monkeypatch) -> list:
        calls = []
        compute = qmodel._compute_moments

        def counting(sc):
            calls.append(sc)
            return compute(sc)

        monkeypatch.setattr(qmodel, "_compute_moments", counting)
        return calls

    def test_every_check_shares_one_compute(self, monkeypatch):
        rng = np.random.default_rng(41)
        # random_scenario already holds its record; an equal fresh copy does not
        scenarios = [fresh_copy(random_scenario(rng, dims=(2, 3))), random_mixed_scenario(rng)]
        calls = self._count_computes(monkeypatch)
        for sc in scenarios:
            before = len(calls)
            mom = moments(sc)
            quantum_tlm_check(sc)
            tsirelson_eta_bound(sc)
            quantum_cov_matrix(sc, 0)
            quantum_cov_matrix(sc, 1)
            schrodinger_robertson_check(sc, "a")
            schrodinger_robertson_check(sc, "b")
            chsh_r_tradeoff_check(sc)
            assert moments(sc) is mom
            assert len(calls) - before == 1

    def test_checks_alone_compute_once(self, monkeypatch):
        sc = eta_saturating_scenario(0.3)
        calls = self._count_computes(monkeypatch)
        quantum_tlm_check(sc)
        tsirelson_eta_bound(sc)
        assert len(calls) == 1

    def test_record_arrays_read_only(self):
        rng = np.random.default_rng(42)
        for sc in (random_scenario(rng, dims=(3, 2)), random_mixed_scenario(rng)):
            mom = moments(sc)
            for arr in (mom.mean_a, mom.mean_b, mom.var_a, mom.var_b, mom.cov, mom.pearson):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_record_is_not_a_field(self):
        sc = tsirelson_scenario()
        text = repr(sc)
        moments(sc)
        assert repr(sc) == text
        assert "_moments" not in {f.name for f in fields(sc)}

    def test_degenerate_scenario_raises_every_call(self, monkeypatch):
        sc = QuantumScenario(
            dims=(2, 2),
            state=np.kron(ket(1, 0), ket(1, 1)),
            alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
        )
        calls = self._count_computes(monkeypatch)
        checks = (moments, quantum_tlm_check, tsirelson_eta_bound, chsh_r_tradeoff_check)
        for _ in range(2):
            for check in checks:
                with pytest.raises(DegenerateScenarioError, match="A0"):
                    check(sc)
        assert len(calls) == 2 * len(checks)

    def test_non_bipartite_raises_every_call(self):
        sc = QuantumScenario(dims=(2,), state=ket(1, 1), alice_obs=(pauli["x"], pauli["z"]))
        for _ in range(2):
            with pytest.raises(MalformedInputError):
                moments(sc)

    def test_checks_match_fresh_scenario_bitwise(self):
        rng = np.random.default_rng(43)
        scenarios = [eta_saturating_scenario(0.6), singlet_scenario((0.0, 1.1), (0.4, -0.7))]
        scenarios += [random_scenario(rng, dims=d) for d in ((2, 2), (3, 4), (4, 2))]
        scenarios += [random_mixed_scenario(rng, d) for d in ((2, 2), (3, 2), (2, 4))]
        for sc in scenarios:
            first = check_report(sc)
            assert check_report(sc) == first
            assert check_report(fresh_copy(sc)) == first


class TestUncertaintyChecks:
    def test_sr_equality_for_xy_on_zero(self):
        res = schrodinger_robertson_check(scenario_xy_on_zero())
        assert res["pass"]
        assert res["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert res["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_sr_monte_carlo(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            dims = tuple(rng.choice([2, 3, 4], size=2))
            sc = random_scenario(rng, dims=dims)
            for party in ("a", "b"):
                assert schrodinger_robertson_check(sc, party)["pass"]

    def test_normalized_sum_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            sc = random_scenario(rng, dims=(2, 2), kind="bloch")
            mom = moments(sc)
            assert mom.nu_a**2 + mom.eta_a**2 <= 1.0 + 1e-9
            assert abs(mom.eta_a) <= 1.0 + 1e-12

    def test_product_operator_route_matches_moment_route(self):
        # for +-1 observables with vanishing means, the per-context inequality
        # terms coincide with the uncertainty relation of the product
        # operators A_i B_j computed directly
        rng = np.random.default_rng(31)
        for _ in range(50):
            u = _random_unitary(rng, 2)
            psi = (np.kron(u, np.eye(2)) @ ket(1, 0, 0, 1)).ravel()
            mk = lambda: bloch_observable(
                math.acos(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi)
            )
            sc = QuantumScenario(
                dims=(2, 2), state=psi, alice_obs=(mk(), mk()), bob_obs=(mk(), mk())
            )
            mom = moments(sc)
            assert np.abs(mom.mean_a).max() < 1e-10
            a0, a1 = (o.matrix for o in sc.alice_obs)
            for j, b in enumerate(o.matrix for o in sc.bob_obs):
                prod0 = np.kron(a0, b)
                prod1 = np.kron(a1, b)
                e = lambda op: float((psi.conj() @ op @ psi).real)
                lhs_op = (1 - e(prod0) ** 2) * (1 - e(prod1) ** 2)
                anti = np.kron(0.5 * (a0 @ a1 + a1 @ a0), np.eye(2))
                comm = np.kron(a0 @ a1 - a1 @ a0, np.eye(2))
                cross = e(anti) - e(prod0) * e(prod1)
                comm_term = float((psi.conj() @ comm @ psi).imag) / 2.0
                rhs_op = cross**2 + comm_term**2
                ctx = quantum_tlm_check(sc)["per_context"][j]
                assert ctx["lhs"] == pytest.approx(lhs_op, abs=1e-10)
                assert ctx["rhs"] == pytest.approx(rhs_op, abs=1e-10)

    def test_quantum_cov_matrix_psd_monte_carlo(self):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            dims = tuple(rng.choice([2, 3, 4], size=2))
            sc = random_scenario(rng, dims=dims)
            for j in (0, 1):
                assert is_psd(quantum_cov_matrix(sc, j), tol=1e-9)

    def test_quantum_cov_matrix_product_state_block(self):
        state = np.kron(ket(1, 2), ket(3, 1))
        sc = QuantumScenario(
            dims=(2, 2),
            state=state,
            alice_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
            bob_obs=(Observable(pauli["x"]), Observable(pauli["z"])),
        )
        m = quantum_cov_matrix(sc, 0)
        np.testing.assert_allclose(m[0, 1:], 0.0, atol=1e-12)

    def test_quantum_cov_matrix_read_only_and_exactly_hermitian(self):
        m = quantum_cov_matrix(random_scenario(np.random.default_rng(5), dims=(3, 2)), 1)
        assert m.dtype == np.complex128 and np.array_equal(m, m.conj().T)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_tsirelson_saturation_minimum_eigenvalue(self):
        m = quantum_cov_matrix(tsirelson_scenario(), 0)
        w = eigenvalues_sym(m)
        assert w[0] == pytest.approx(0.0, abs=1e-8)
        assert is_psd(m, tol=1e-8)


class TestTightenedBound:
    def test_reduces_to_plain_bound_when_eta_zero(self):
        sc = singlet_scenario((0.0, 1.0), (0.4, 2.0))
        res = quantum_tlm_check(sc)
        mom = moments(sc)
        assert mom.eta_a == pytest.approx(0.0, abs=1e-12)
        plain = tlm_check(to_correlator_table(mom))
        assert res["row1"]["rhs"] == pytest.approx(plain.rhs[0], abs=1e-12)
        assert res["pass"] and plain.passed

    def test_tsirelson_scenario_saturates(self):
        res = quantum_tlm_check(tsirelson_scenario())
        assert res["pass"]
        assert res["row1"]["rhs"] - res["row1"]["lhs"] == pytest.approx(0.0, abs=1e-8)

    def test_monte_carlo_always_holds(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            dims = tuple(rng.choice([2, 3, 4], size=2))
            assert quantum_tlm_check(random_scenario(rng, dims=dims))["pass"]


class TestTsirelsonEtaBound:
    def test_eta_zero_bound(self):
        res = tsirelson_eta_bound(tsirelson_scenario())
        assert res["bound"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert res["chsh"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert res["pass"]

    def test_eta_one_forces_zero_chsh(self):
        res = tsirelson_eta_bound(scenario_xy_on_zero())
        assert res["bound"] == pytest.approx(0.0, abs=1e-9)
        assert abs(res["chsh"]) <= 1e-9

    def test_saturating_family(self):
        for eta in (0.0, 0.25, 0.5, 1 / SQRT2, 0.9):
            sc = eta_saturating_scenario(eta)
            mom = moments(sc)
            assert mom.eta_a == pytest.approx(eta, abs=1e-12)
            assert mom.eta_b == pytest.approx(eta, abs=1e-12)
            res = tsirelson_eta_bound(sc)
            assert res["chsh"] == pytest.approx(2 * SQRT2 * math.sqrt(1 - eta**2), abs=1e-12)
            assert res["pass"]

    def test_oscillator_pair_bound(self):
        x, p = truncated_oscillator_pair(24)
        rng = np.random.default_rng(61)
        comm = x.matrix @ p.matrix - p.matrix @ x.matrix
        for _ in range(50):
            low = np.zeros(24, dtype=complex)
            low[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
            low /= np.linalg.norm(low)
            state = np.kron(low, random_state(rng, 2))
            sc = QuantumScenario(
                dims=(24, 2),
                state=state,
                alice_obs=(x, p),
                bob_obs=(bloch_observable(1.0, 0.3), bloch_observable(2.0, -1.0)),
            )
            mom = moments(sc)
            realized = complex(low.conj() @ comm @ low)
            assert realized == pytest.approx(1j, abs=1e-12)
            c = abs(realized) / 2.0
            eta_expected = c / math.sqrt(mom.var_a[0] * mom.var_a[1])
            assert mom.eta_a == pytest.approx(-eta_expected, abs=1e-10) or \
                mom.eta_a == pytest.approx(eta_expected, abs=1e-10)
            res = tsirelson_eta_bound(sc)
            assert res["pass"]
            assert res["bound"] <= 2 * SQRT2 * math.sqrt(1 - eta_expected**2) + 1e-9


class TestChshRTradeoff:
    def test_tsirelson_saturates(self):
        res = chsh_r_tradeoff_check(tsirelson_scenario())
        assert res["chsh_term"] == pytest.approx(1.0, abs=1e-12)
        assert res["r_term"] == pytest.approx(0.0, abs=1e-12)
        assert res["pass"]

    def test_identical_settings_with_product_state(self):
        # perfectly correlated Alice settings: |r'| = 1, and an uncorrelated
        # Bob keeps every Pearson entry at zero, so the CHSH term vanishes
        state = np.kron(ket(1, 1), ket(1, 0.7))
        sc = QuantumScenario(
            dims=(2, 2),
            state=state,
            alice_obs=(Observable(pauli["z"]), Observable(pauli["z"])),
            bob_obs=(Observable(pauli["z"]), Observable(pauli["x"])),
        )
        res = chsh_r_tradeoff_check(sc)
        assert res["r_term"] == pytest.approx(1.0, abs=1e-12)
        assert res["chsh_term"] == pytest.approx(0.0, abs=1e-12)
        assert res["pass"]

    def test_extremal_configuration_family(self):
        # anti-diagonal-sign configurations realized by isotropic mixtures of
        # the maximal-CHSH scenario: the tradeoff holds along the whole family
        rng = np.random.default_rng(71)
        base = tsirelson_scenario()
        rho_ent = np.outer(base.state, base.state.conj())
        for _ in range(200):
            w = rng.uniform(0.0, 1.0)
            rho = w * rho_ent + (1 - w) * np.eye(4) / 4.0
            sc = QuantumScenario(
                dims=(2, 2), state=rho, alice_obs=base.alice_obs, bob_obs=base.bob_obs
            )
            mom = moments(sc)
            pattern = mom.pearson * np.array([[1.0, 1.0], [1.0, -1.0]])
            assert np.ptp(pattern) < 1e-10          # rho_ij = (-1)^(ij) * rho
            res = chsh_r_tradeoff_check(sc)
            assert res["pass"]
            assert res["total"] == pytest.approx(w * w, abs=1e-10)


class TestHigherMoments:
    def test_qutrit_enhancement_holds_and_bites(self):
        rng = np.random.default_rng(81)
        strict = 0
        total = 0
        for _ in range(200):
            sc = _qutrit_scenario(rng)
            for m in (2, 3):
                res = higher_moment_uncertainty_check(sc, i=0, m=m)
                assert res["pass"]
                assert res["rhs_enhanced"] >= res["rhs_basic"] - 1e-15
                total += 1
                if res["enhancement"] > 1e-9:
                    strict += 1
        assert strict / total >= 0.5

    def test_eigenstate_stays_informative(self):
        rng = np.random.default_rng(82)
        a0 = random_observable(rng, 3)
        a1 = random_observable(rng, 3)
        w, v = np.linalg.eigh(a0.matrix)
        state = np.kron(v[:, 0], ket(1, 1, 1))
        sc = QuantumScenario(dims=(3, 3), state=state, alice_obs=(a0, a1), bob_obs=(a1, a0))
        res = higher_moment_uncertainty_check(sc, i=1, m=2)
        assert res["pass"]
        assert res["rhs_enhanced"] > 1e-6      # bound does not collapse to 0 >= 0
        assert res["rhs_basic"] == pytest.approx(0.0, abs=1e-10)

    def test_identity_power_rejected(self):
        sc = scenario_xy_on_zero()
        with pytest.raises(DegenerateScenarioError):
            higher_moment_uncertainty_check(sc, i=0, m=2)   # sigma_x^2 = identity

    def test_commuting_pair_reduces_to_variance_identity(self):
        rng = np.random.default_rng(83)
        d = np.diag(rng.normal(size=3))
        state = np.kron(ket(1, 1, 1), ket(1, 0, 1))
        sc = QuantumScenario(
            dims=(3, 3), state=state,
            alice_obs=(Observable(d), Observable(d)),
            bob_obs=(Observable(np.eye(3) * 0.0 + random_observable(rng, 3).matrix),
                     random_observable(rng, 3)),
        )
        res = higher_moment_uncertainty_check(sc, i=0, m=3)
        # A0 = A1: lhs = 2 var, basic = 2 var, the enhancement must stay within slack
        assert res["lhs"] == pytest.approx(res["rhs_basic"], abs=1e-12)
        assert res["pass"]


class TestOutcomeDistribution:
    def test_singlet_table_matches_trace_route(self):
        angles_a = (0.0, math.pi / 2)
        angles_b = (math.pi / 4, 3 * math.pi / 4)
        sc = singlet_scenario(angles_a, angles_b)
        pt = outcome_distribution(sc)
        ct = from_probability_table(pt)
        expected = -np.cos(np.subtract.outer(np.array(angles_a), np.array(angles_b)))
        np.testing.assert_allclose(ct.pearson, expected, atol=1e-12)
        assert chsh_max(ct.pearson) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_mismatched_spectra_rejected(self):
        sc = QuantumScenario(
            dims=(2, 2),
            state=np.kron(ket(1, 1), ket(1, 0.5)),
            alice_obs=(Observable(pauli["z"]), Observable(2.0 * pauli["z"])),
            bob_obs=(Observable(pauli["x"]), Observable(pauli["z"])),
        )
        with pytest.raises(MalformedInputError):
            outcome_distribution(sc)

    def test_degenerate_spectrum_merges_projectors(self):
        # three-level +-1 observables with a doubled eigenvalue: the joint
        # table collapses to a 2x2 outcome alphabet and its moments must
        # match the trace route exactly
        rng = np.random.default_rng(5)
        base = np.diag([1.0, 1.0, -1.0])
        u = _random_unitary(rng, 3)
        a0 = Observable(base)
        a1 = Observable(u @ base @ u.conj().T)
        state = np.kron(random_state(rng, 3), ket(1, 0.4))
        sc = QuantumScenario(
            dims=(3, 2),
            state=state,
            alice_obs=(a0, a1),
            bob_obs=(Observable(pauli["x"]), Observable(pauli["y"])),
        )
        pt = outcome_distribution(sc)
        assert pt.outcomes_a.tolist() == [-1.0, 1.0]
        ct = from_probability_table(pt)
        mom = moments(sc)
        np.testing.assert_allclose(ct.cov, mom.cov, atol=1e-12)
        np.testing.assert_allclose(ct.means_a, mom.mean_a, atol=1e-12)


class TestFeedsRiEngine:
    def test_quantum_tables_always_feasible_with_contained_witness(self):
        rng = np.random.default_rng(91)
        for _ in range(300):
            dims = tuple(rng.choice([2, 3], size=2))
            sc = random_scenario(rng, dims=dims)
            mom = moments(sc)
            ct = to_correlator_table(mom)
            assert tlm_check(ct).passed
            v = ri_feasible_bipartite(ct)
            assert v.ri_feasible
            r_prime = mom.nu_a           # Re(r_q) normalized
            for j in (0, 1):
                assert r_interval_bipartite(ct, j).contains(r_prime)

    def test_tripartite_moments_product_structure(self):
        rng = np.random.default_rng(92)
        psi_ab = random_state(rng, 4)
        psi_c = random_state(rng, 2)
        state = np.kron(psi_ab, psi_c)
        sc = QuantumScenario(
            dims=(2, 2, 2),
            state=state,
            alice_obs=(bloch_observable(0.3, 0.1), bloch_observable(1.2, -0.5)),
            bob_obs=(bloch_observable(0.9, 2.0), bloch_observable(2.1, 0.4)),
            charlie_obs=(bloch_observable(1.5, 1.0), bloch_observable(0.7, -2.0)),
        )
        tm = tripartite_moments(sc)
        np.testing.assert_allclose(tm.cov_ac, 0.0, atol=1e-12)
        np.testing.assert_allclose(tm.cov_bc, 0.0, atol=1e-12)
        # AB block must match the reduced bipartite computation
        sc_ab = QuantumScenario(
            dims=(2, 2), state=psi_ab, alice_obs=sc.alice_obs, bob_obs=sc.bob_obs
        )
        np.testing.assert_allclose(tm.cov_ab, moments(sc_ab).cov, atol=1e-12)


def _random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _qutrit_scenario(rng):
    state = np.kron(random_state(rng, 3), random_state(rng, 2))
    return QuantumScenario(
        dims=(3, 2),
        state=state,
        alice_obs=(random_observable(rng, 3), random_observable(rng, 3)),
        bob_obs=(bloch_observable(1.0, 0.0), bloch_observable(2.0, 1.0)),
    )
