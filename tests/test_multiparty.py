"""Tripartite and n-party bound tests."""

import math

import numpy as np
import pytest
from conftest import (
    optimal_ab_with_idle_charlie,
    precondition_holds,
    random_nparty,
    random_scenario,
    uncorrelated_bc_scenario,
)
from oracles import (
    bordered_oracle,
    build_multiparty_matrix,
    schur_complement,
    tripartite_condition_matrix,
)

from bellri.correlators import TripartiteCorrelatorTable, chsh_combination
from bellri.errors import MalformedInputError, PreconditionError
from bellri.linalg import eigenvalues_sym, is_psd
from bellri.multiparty import (
    NPartyCorrelators,
    ZetaArgs,
    monogamy_check,
    nparty_bound_check,
    nparty_from_pairs,
    zeta,
    zeta_bound_check,
    zeta_from_table,
)
from bellri.qmodel import moments, tripartite_moments, tsirelson_scenario
from bellri.ri import tlm_check

SQRT2 = math.sqrt(2.0)


def psd_boundary_scale(rho, r_prime):
    """Largest c with [[1, r'], [r', 1]] - c^2 rho^T rho PSD (needs |r'| < 1)."""
    inv_low = np.linalg.inv(np.linalg.cholesky(np.array([[1.0, r_prime], [r_prime, 1.0]])))
    return 1.0 / math.sqrt(np.linalg.eigvalsh(inv_low @ rho.T @ rho @ inv_low.T)[-1])


def random_tripartite_table(rng, scale=0.5, bc_scale=0.4):
    return TripartiteCorrelatorTable(
        pearson_ab=rng.uniform(-1, 1, size=(2, 2)) * scale,
        pearson_ac=rng.uniform(-1, 1, size=(2, 2)) * scale,
        pearson_bc=rng.uniform(-1, 1, size=(2, 2)) * bc_scale,
    )


class TestZeta:
    def test_decoupled_third_party_reduces_to_products(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ab_i, ab_j = rng.uniform(-1, 1, size=2)
            val = zeta(ZetaArgs(ab_i=ab_i, ab_j=ab_j, ac_i=0.0, ac_j=0.0, bc=0.0))
            assert val == pytest.approx(ab_i * ab_j, abs=1e-15)

    def test_all_zero(self):
        assert zeta(ZetaArgs(0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_denominator_guard(self):
        with pytest.raises(MalformedInputError):
            ZetaArgs(0.1, 0.1, 0.1, 0.1, 1.0)

    def test_matches_schur_expansion(self):
        # the 4x4 context matrix reduced over (C, B) must equal
        # [[1 - z11, r' - z01], [r' - z01, 1 - z00]]
        rng = np.random.default_rng(2)
        for _ in range(100):
            tct = random_tripartite_table(rng, scale=0.45, bc_scale=0.5)
            j, k = int(rng.integers(2)), int(rng.integers(2))
            r_prime = float(rng.uniform(-1, 1))
            m = tripartite_condition_matrix(tct, j, k, r_prime)
            reduced = schur_complement(m, 2)
            z11 = zeta_from_table(tct, 1, 1, j, k)
            z00 = zeta_from_table(tct, 0, 0, j, k)
            z01 = zeta_from_table(tct, 0, 1, j, k)
            expected = np.array([[1 - z11, r_prime - z01], [r_prime - z01, 1 - z00]])
            np.testing.assert_allclose(reduced, expected, atol=1e-10)

    def test_single_context_inequality_is_determinant_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tct = random_tripartite_table(rng, scale=0.4)
            j, k = int(rng.integers(2)), int(rng.integers(2))
            r_prime = float(rng.uniform(-0.6, 0.6))
            m = tripartite_condition_matrix(tct, j, k, r_prime)
            reduced = schur_complement(m, 2)
            det = float(np.linalg.det(reduced))
            z11 = zeta_from_table(tct, 1, 1, j, k)
            z00 = zeta_from_table(tct, 0, 0, j, k)
            z01 = zeta_from_table(tct, 0, 1, j, k)
            ineq = (1 - z11) * (1 - z00) - (r_prime - z01) ** 2
            assert det == pytest.approx(ineq, abs=1e-10)


class TestZetaBound:
    def test_reduces_to_row_one_bound_without_charlie(self):
        rng = np.random.default_rng(4)
        from bellri.correlators import CorrelatorTable

        for _ in range(200):
            ab = rng.uniform(-1, 1, size=(2, 2))
            tct = TripartiteCorrelatorTable(
                pearson_ab=ab, pearson_ac=np.zeros((2, 2)), pearson_bc=np.zeros((2, 2))
            )
            res = zeta_bound_check(tct, ctx1=(0, 0), ctx2=(1, 1))
            row1 = tlm_check(CorrelatorTable.from_pearson(ab))
            assert res["lhs"] == pytest.approx(row1.lhs[0], abs=1e-12)
            assert res["rhs"] == pytest.approx(row1.rhs[0], abs=1e-12)
            assert res["pass"] == (row1.lhs[0] <= row1.rhs[0] + 1e-9)

    def test_zero_table(self):
        tct = TripartiteCorrelatorTable(
            pearson_ab=np.zeros((2, 2)),
            pearson_ac=np.zeros((2, 2)),
            pearson_bc=np.zeros((2, 2)),
        )
        res = zeta_bound_check(tct)
        assert res["lhs"] == 0.0
        assert res["rhs"] == pytest.approx(2.0)
        assert res["pass"]

    def test_quantum_tripartite_monte_carlo(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sc = uncorrelated_bc_scenario(rng)
            tct = tripartite_moments(sc).to_table()
            assert zeta_bound_check(tct, ctx1=(0, 0), ctx2=(1, 1))["pass"]
            assert zeta_bound_check(tct, ctx1=(0, 1), ctx2=(1, 0))["pass"]


class TestMonogamy:
    def test_boundary_case(self):
        res = monogamy_check(2 * SQRT2, 0.0)
        assert res["sum_sq"] == pytest.approx(8.0, abs=1e-12)
        assert res["pass_sq"] and res["pass_abs"]

    def test_zero(self):
        res = monogamy_check(0.0, 0.0)
        assert res["sum_sq"] == 0.0 and res["pass_sq"]

    def test_violation_detected(self):
        res = monogamy_check(2.5, 2.0)
        assert not res["pass_sq"]
        assert not res["pass_abs"]

    def test_quantum_scenarios_never_violate(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            sc = uncorrelated_bc_scenario(rng)
            tm = tripartite_moments(sc)
            np.testing.assert_allclose(tm.cov_bc, 0.0, atol=1e-12)
            tct = tm.to_table()
            ab = tct.pearson_ab
            ac = tct.pearson_ac
            b_ab = ab[0, 0] + ab[1, 0] + ab[0, 1] - ab[1, 1]
            b_ac = ac[0, 0] + ac[1, 0] + ac[0, 1] - ac[1, 1]
            assert monogamy_check(b_ab, b_ac)["pass_sq"]

    def test_saturating_scenario_forces_silent_charlie(self):
        rng = np.random.default_rng(7)
        sc = optimal_ab_with_idle_charlie(rng)
        tct = tripartite_moments(sc).to_table()
        ab = tct.pearson_ab
        ac = tct.pearson_ac
        b_ab = ab[0, 0] + ab[1, 0] + ab[0, 1] - ab[1, 1]
        b_ac = ac[0, 0] + ac[1, 0] + ac[0, 1] - ac[1, 1]
        assert abs(b_ab) == pytest.approx(2 * SQRT2, abs=1e-12)
        assert abs(b_ac) <= 1e-9


class TestNParty:
    def test_matrix_layout(self):
        npc = NPartyCorrelators(
            rho_first=np.array([[0.1, 0.2], [0.3, 0.4]]),
            rho_second=np.zeros((2, 2)),
        )
        m = build_multiparty_matrix(npc, 0.5, "first")
        assert m.shape == (4, 4)
        np.testing.assert_allclose(m[:2, :2], np.eye(2))
        assert m[2, 3] == 0.5
        assert m[0, 2] == 0.1 and m[0, 3] == 0.2 and m[1, 2] == 0.3

    def test_zero_data_identity(self):
        npc = NPartyCorrelators(rho_first=np.zeros((3, 2)), rho_second=np.zeros((3, 2)))
        m = build_multiparty_matrix(npc, 0.0)
        np.testing.assert_allclose(m, np.eye(5))
        assert is_psd(m)

    def test_single_pair_reduces_to_bipartite_block(self):
        rng = np.random.default_rng(8)
        sc = random_scenario(rng, dims=(2, 2), kind="bloch")
        mom = moments(sc)
        npc, r_prime = nparty_from_pairs([mom])
        m = build_multiparty_matrix(npc, r_prime, "first")
        pe = mom.pearson
        expected = np.array(
            [
                [1.0, pe[0, 0], pe[1, 0]],
                [pe[0, 0], 1.0, r_prime],
                [pe[1, 0], r_prime, 1.0],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-12)
        np.testing.assert_allclose(
            sorted(eigenvalues_sym(m)), sorted(eigenvalues_sym(expected)), atol=1e-12
        )

    def test_tsirelson_case_saturates_cap(self):
        mom = moments(tsirelson_scenario())
        npc, r_prime = nparty_from_pairs([mom])
        assert r_prime == pytest.approx(0.0, abs=1e-12)
        res = nparty_bound_check(npc, r_prime)
        assert res["pass"]
        assert res["sum_abs_chsh"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert res["cap"] == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_identical_pairs_scale_as_sqrt_n(self):
        mom = moments(tsirelson_scenario())
        for n in (2, 3, 4):
            npc, r_prime = nparty_from_pairs([mom] * n)
            res = nparty_bound_check(npc, r_prime)
            assert res["pass"]
            assert res["sum_abs_chsh"] == pytest.approx(
                math.sqrt(n) * 2 * SQRT2, abs=1e-10
            )
            assert res["cap"] == pytest.approx(2 * math.sqrt(2 * n), abs=1e-12)

    def test_extreme_r_prime_bound_value(self):
        # no experimenter cap: the check is one 2x2 test per context at any n
        for n in (1, 2, 4, 9, 12, 32):
            npc = NPartyCorrelators(
                rho_first=np.zeros((n, 2)), rho_second=np.zeros((n, 2))
            )
            for r in (1.0, -1.0):
                res = nparty_bound_check(npc, r)
                assert res["refined_bound"] == pytest.approx(
                    math.sqrt(2 * n) * SQRT2, abs=1e-12
                )
                assert res["pass"]

    def test_random_pairs_monte_carlo(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                moms = [
                    moments(random_scenario(rng, dims=(2, 2), kind="bloch"))
                    for _ in range(n)
                ]
                npc, r_prime = nparty_from_pairs(moms)
                res = nparty_bound_check(npc, r_prime)
                assert res["pass_refined"] and res["pass_cap"]

    def test_embedding_preserves_pass(self):
        rng = np.random.default_rng(10)
        moms = [moments(random_scenario(rng, dims=(2, 2), kind="bloch")) for _ in range(2)]
        npc, r_prime = nparty_from_pairs(moms)
        base = nparty_bound_check(npc, r_prime)
        # append a silent experimenter: same CHSH sum, larger bound
        bigger = NPartyCorrelators(
            rho_first=np.vstack([npc.rho_first, np.zeros(2)]),
            rho_second=np.vstack([npc.rho_second, np.zeros(2)]),
        )
        res = nparty_bound_check(bigger, r_prime)
        assert res["sum_abs_chsh"] == pytest.approx(base["sum_abs_chsh"], abs=1e-12)
        assert res["refined_bound"] > base["refined_bound"]
        assert res["pass"]

    def test_unrealizable_data_rejected(self):
        npc = NPartyCorrelators(
            rho_first=np.array([[0.9, 0.9], [0.9, 0.9]]),
            rho_second=np.zeros((2, 2)),
        )
        message = ("bordered matrix for context 'first' is not PSD: "
                   "data not realizable under a common uncertainty parameter")
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            nparty_bound_check(npc, 0.0)

    def test_precondition_tol_has_no_floor(self):
        # smallest eigenvalue of the first block: 1 - 1.0000000004^2, about -8e-10
        npc = NPartyCorrelators(rho_first=np.array([[1.0000000004, 0.0]]), rho_second=np.zeros((1, 2)))
        assert nparty_bound_check(npc, 0.0)["n"] == 1
        for tol in (1e-10, 1e-12):
            with pytest.raises(PreconditionError, match="context 'first'"):
                nparty_bound_check(npc, 0.0, tol=tol)

    def test_chsh_values_match_the_written_sum(self):
        # the shared CHSH combination adds in the order B_s is written, bit for bit,
        # on the batched rows, on each experimenter's float rows and on its (2, 2) array
        rng = np.random.default_rng(12)
        for n in range(1, 40):
            npc = random_nparty(rng, n)
            f, s = npc.rho_first, npc.rho_second
            written = f[:, 0] + f[:, 1] + s[:, 0] - s[:, 1]
            np.testing.assert_array_equal(npc.chsh_values(), written)
            for row, (f0, f1), (s0, s1) in zip(written.tolist(), f.tolist(), s.tolist()):
                block = [[f0, s0], [f1, s1]]
                assert chsh_combination(block) == row
                assert chsh_combination(np.array(block)) == row

    def test_no_experimenters_rejected(self):
        with pytest.raises(MalformedInputError):
            NPartyCorrelators(rho_first=np.zeros((0, 2)), rho_second=np.zeros((0, 2)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_bordered_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        verdicts = []
        for _ in range(100):
            npc = random_nparty(rng, n)
            r_prime = float(rng.uniform(-1, 1))
            closed = precondition_holds(npc, r_prime)
            assert (closed, closed) == bordered_oracle(npc, r_prime)
            shared = np.array([[1.0, r_prime], [r_prime, 1.0]])
            m = build_multiparty_matrix(npc, r_prime, "second")
            np.testing.assert_allclose(
                schur_complement(m, n), shared - npc.rho_second.T @ npc.rho_second, atol=1e-12
            )
            verdicts.append(closed)
        assert 10 <= sum(verdicts) <= 90

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_at_psd_boundary(self, n):
        # one context scaled onto the PSD boundary, then moved in or out by a
        # relative step; inside the 1e-9 tolerance window the bordered matrix
        # can pass where its 2x2 Schur complement fails, and the check keeps
        # the stricter 2x2 rule
        rng = np.random.default_rng(60 + n)
        for _ in range(40):
            r_prime = float(rng.uniform(-0.95, 0.95))
            direction = rng.normal(size=(n, 2))
            scale = psd_boundary_scale(direction, r_prime)
            other = 0.1 * rng.uniform(-1, 1, (n, 2)) / math.sqrt(n)
            for step in (1e-8, 3e-9, 1e-9, 3e-10, -3e-10, -1e-9, -3e-9, -1e-8):
                rho = direction * scale * (1.0 + step)
                if np.abs(rho).max() > 1.0:
                    continue
                npc = NPartyCorrelators(rho_first=rho, rho_second=other)
                closed = precondition_holds(npc, r_prime)
                bordered, reduced = bordered_oracle(npc, r_prime)
                assert closed == (bordered and reduced)
                if step <= 3e-10:
                    assert closed
