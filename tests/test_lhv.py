"""LHV oracle tests: vertices, polytope membership, product covariance."""

import numpy as np
import pytest
from oracles import CHSH_SIGNS, chsh_raw, product_cov_oracle

from bellri.correlators import chsh_max
from bellri.errors import MalformedInputError
from bellri.lhv import (
    DeterministicStrategy,
    LhvEnsemble,
    correlators_of,
    enumerate_vertices,
    is_local,
    product_cov_matrix,
    statistics_of,
)
from bellri.linalg import is_psd


class TestVertices:
    def test_count_and_uniqueness(self):
        vs = enumerate_vertices()
        assert len(vs) == 16
        assert len({(v.a0, v.a1, v.b0, v.b1) for v in vs}) == 16

    def test_all_plus_present(self):
        assert DeterministicStrategy(1, 1, 1, 1) in enumerate_vertices()

    def test_each_vertex_saturates_a_facet(self):
        for k, v in enumerate(enumerate_vertices()):
            e = np.array(
                [[v.a0 * v.b0, v.a0 * v.b1], [v.a1 * v.b0, v.a1 * v.b1]], dtype=float
            )
            assert chsh_max(e) == 2.0

    def test_index_convention(self):
        # k = 0b1010: a0 = +1, a1 = -1, b0 = +1, b1 = -1
        v = enumerate_vertices()[0b1010]
        assert (v.a0, v.a1, v.b0, v.b1) == (1, -1, 1, -1)


class TestEnsembles:
    def test_weights_validated(self):
        with pytest.raises(MalformedInputError):
            LhvEnsemble(np.full(16, 0.9 / 16.0))
        with pytest.raises(MalformedInputError):
            LhvEnsemble(-np.ones(16) / 16.0)

    @pytest.mark.parametrize("weights", [[0.5, {"w": 1}], [0.0625] * 15 + ["a"], "x" * 16,
                                         [10**400] + [0.0] * 15])
    def test_unconvertible_weights_name_the_field(self, weights):
        # a non-number, a string and an integer past the float range: NumPy raises TypeError,
        # ValueError or OverflowError, and the ensemble turns each into one named message
        with pytest.raises(MalformedInputError) as info:
            LhvEnsemble(weights)
        assert str(info.value) == "weights must be an array of numbers in the float range"

    def test_weight_sum_message_prints_a_plain_number(self):
        w = np.zeros(16)
        w[:3] = 0.5
        with pytest.raises(MalformedInputError) as info:
            LhvEnsemble(w)
        assert str(info.value) == "weights must sum to 1 within 1e-12, got 1.5"

    def test_uniform_moments(self):
        ct = correlators_of(LhvEnsemble.uniform())
        np.testing.assert_allclose(ct.pearson, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_a, 1.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_b, 1.0, atol=1e-15)

    def test_point_mass_degenerate(self):
        ct = correlators_of(LhvEnsemble.point(0b1111))
        assert not ct.pearson_defined.any()
        np.testing.assert_allclose(ct.var_a, 0.0, atol=1e-15)

    def test_fifty_fifty_parity_mix(self):
        w = np.zeros(16)
        w[0b1111] = 0.5
        w[0b0000] = 0.5
        stats = statistics_of(LhvEnsemble(w))
        np.testing.assert_allclose(stats.raw_e, 1.0, atol=1e-15)
        np.testing.assert_allclose(stats.table.pearson, 1.0, atol=1e-15)
        assert chsh_raw(stats.table) == pytest.approx(2.0)


class TestIsLocal:
    def test_pr_box_excluded(self):
        assert not is_local(np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_tsirelson_point_excluded(self):
        assert not is_local(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

    def test_ensemble_data_always_local(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            ens = LhvEnsemble.random(rng, concentration=rng.choice([0.1, 0.5, 1.0]))
            assert is_local(statistics_of(ens).raw_e)

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInputError):
            is_local(np.array([[1.5, 0.0], [0.0, 0.0]]))

    def test_facets_match_chsh_sign_patterns(self):
        # the PR box mixed into a local vertex it shares a facet with, at weights
        # down to the rounding scale and scaled a hair inwards: CHSH ~ 2 +- 1e-16
        rng = np.random.default_rng(22)
        pr = np.array([[1.0, 1.0], [1.0, -1.0]])
        for _ in range(5000):
            share = 10.0 ** rng.uniform(-18, -8)
            e = (1.0 - 10.0 ** rng.uniform(-18, -8)) * (share * pr + (1.0 - share) * np.ones((2, 2)))
            e = e * rng.choice([-1, 1], (2, 1)) * rng.choice([-1, 1], (1, 2))
            e = e.T if rng.random() < 0.5 else e
            tol = float(rng.choice([0.0, 1e-15, 1e-12]))
            assert is_local(e, tol) == all(abs(float((s * e).sum())) <= 2.0 + tol for s in CHSH_SIGNS)


class TestProductCovariance:
    def test_uniform_gives_identity(self):
        m = product_cov_matrix(LhvEnsemble.uniform())
        np.testing.assert_allclose(m, np.eye(4), atol=1e-15)
        u = np.array([1.0, 1.0, 1.0, -1.0])
        assert u @ m @ u == pytest.approx(4.0)

    def test_near_deterministic_limit(self):
        for eps in (1e-1, 1e-3, 1e-6):
            w = np.full(16, eps / 16.0)
            w[0b1111] += 1.0 - eps
            ens = LhvEnsemble(w)
            stats = statistics_of(ens)
            m = product_cov_matrix(ens)
            u = np.array([1.0, 1.0, 1.0, -1.0])
            b = chsh_raw(stats.table)
            assert u @ m @ u == pytest.approx(4.0 - b * b, abs=1e-12)
        assert b == pytest.approx(2.0, abs=1e-5)

    def test_matches_brute_force_oracle_and_psd(self):
        rng = np.random.default_rng(3)
        u = np.array([1.0, 1.0, 1.0, -1.0])
        for _ in range(1000):
            ens = LhvEnsemble.random(rng, concentration=rng.choice([0.2, 1.0, 4.0]))
            m = product_cov_matrix(ens)
            np.testing.assert_allclose(m, product_cov_oracle(ens), atol=1e-13)
            assert is_psd(m, tol=1e-9)
            b = chsh_raw(statistics_of(ens).table)
            assert u @ m @ u == pytest.approx(4.0 - b * b, abs=1e-9)

    def test_read_only_and_exactly_symmetric(self):
        m = product_cov_matrix(LhvEnsemble.random(np.random.default_rng(4)))
        assert m.dtype == np.float64 and np.array_equal(m, m.T)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_uncertainty_not_saturated_for_full_support(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            ens = LhvEnsemble.random(rng, concentration=1.0)
            stats = statistics_of(ens)
            va = stats.table.var_a
            assert va[0] * va[1] - stats.r**2 >= 1e-12

    def test_perfectly_correlated_mixture_saturates(self):
        # a0 == a1 on every support vertex: |C(A0, A1)| = var exactly, while
        # the ensemble is not deterministic
        w = np.zeros(16)
        w[0b1111] = 0.5
        w[0b0000] = 0.5
        stats = statistics_of(LhvEnsemble(w))
        va = stats.table.var_a
        assert va[0] * va[1] - stats.r**2 == pytest.approx(0.0, abs=1e-15)


class TestRawVersusPearson:
    def test_raw_chsh_bounded_by_two(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            stats = statistics_of(LhvEnsemble.random(rng, rng.choice([0.1, 1.0])))
            assert chsh_max(stats.raw_e) <= 2.0 + 1e-12

    def test_pearson_chsh_can_exceed_two_for_skewed_mixtures(self):
        # equal mixture of (-1,-1,-1,-1), (-1,+1,-1,+1), (+1,-1,+1,+1):
        # standardized correlations are [[1, 1/2], [-1/2, 1/2]], whose
        # facet value rho00 - rho10 + rho01 + rho11 equals 5/2, while the raw
        # correlators remain inside the local polytope. Locality verdicts must
        # therefore use raw correlators; Pearson entries only enter the
        # feasibility bounds (which this table saturates but satisfies).
        w = np.zeros(16)
        w[0b0000] = w[0b0101] = w[0b1011] = 1.0 / 3.0
        stats = statistics_of(LhvEnsemble(w))
        np.testing.assert_allclose(
            stats.table.pearson, [[1.0, 0.5], [-0.5, 0.5]], atol=1e-12
        )
        assert chsh_max(stats.table.pearson) == pytest.approx(2.5, abs=1e-12)
        assert is_local(stats.raw_e)
        from bellri.ri import tlm_check

        res = tlm_check(stats.table)
        assert res.passed
        assert min(res.slack) == pytest.approx(0.0, abs=1e-12)
