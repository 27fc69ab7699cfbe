"""Correlation data model tests: moments, CHSH, no-signaling."""

import numpy as np
import pytest

from bellri.correlators import (
    CorrelatorTable,
    ProbabilityTable,
    check_no_signaling,
    chsh,
    chsh_max,
    chsh_raw,
    from_probability_table,
    pr_box_table,
)
from bellri.errors import DegenerateDataError, MalformedInputError


def random_probability_table(rng, na=None, nb=None):
    na = na or int(rng.integers(2, 5))
    nb = nb or int(rng.integers(2, 5))
    oa = np.sort(rng.normal(size=na) * rng.uniform(0.5, 3.0))
    ob = np.sort(rng.normal(size=nb) * rng.uniform(0.5, 3.0))
    p = rng.dirichlet(np.ones(na * nb), size=4).reshape(2, 2, na, nb)
    return ProbabilityTable(outcomes_a=oa, outcomes_b=ob, p=p)


class TestProbabilityTable:
    def test_normalization_enforced(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = 0.3
        with pytest.raises(MalformedInputError):
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)

    def test_negative_probability_rejected(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0] = [[0.5, -0.1], [0.3, 0.3]]
        with pytest.raises(MalformedInputError):
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)


class TestFromPearson:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 1), ()])
    def test_non_2x2_block_rejected(self, shape):
        with pytest.raises(MalformedInputError, match="2x2"):
            CorrelatorTable.from_pearson(np.zeros(shape))


class TestFromProbabilityTable:
    def test_pr_box_moments(self):
        ct = from_probability_table(pr_box_table())
        np.testing.assert_allclose(ct.means_a, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.means_b, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_a, 1.0, atol=1e-15)
        np.testing.assert_allclose(ct.pearson, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)
        assert not ct.signaling_in_variance

    def test_uniform_independent(self):
        p = np.full((2, 2, 2, 2), 0.25)
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        np.testing.assert_allclose(ct.pearson, 0.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_a, 1.0, atol=1e-15)
        np.testing.assert_allclose(ct.var_b, 1.0, atol=1e-15)

    def test_zero_variance_marks_undefined(self):
        # Alice's outcome is deterministic under setting 0
        p = np.zeros((2, 2, 2, 2))
        p[0, :, 0, 0] = 0.5
        p[0, :, 0, 1] = 0.5
        p[1, :] = 0.25
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        assert not ct.pearson_defined[0, 0] and not ct.pearson_defined[0, 1]
        assert ct.pearson_defined[1, 0] and ct.pearson_defined[1, 1]
        with pytest.raises(DegenerateDataError):
            chsh(ct)

    def test_signaling_in_variance_flagged(self):
        # Alice's variance depends on Bob's setting (a signaling table)
        p = np.zeros((2, 2, 2, 2))
        p[:, 0] = 0.25                          # uniform when Bob uses 0
        p[:, 1, 0, 0] = 0.45                    # skewed when Bob uses 1
        p[:, 1, 0, 1] = 0.45
        p[:, 1, 1, 0] = 0.05
        p[:, 1, 1, 1] = 0.05
        ct = from_probability_table(
            ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        )
        assert ct.signaling_in_variance

    def test_pearson_within_unit_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ct = from_probability_table(random_probability_table(rng))
            pe = ct.pearson[ct.pearson_defined]
            assert np.all(np.abs(pe) <= 1.0 + 1e-12)

    def test_affine_relabel_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pt = random_probability_table(rng)
            alpha, beta = rng.uniform(0.2, 3.0), rng.normal()
            relabeled = ProbabilityTable(
                outcomes_a=alpha * pt.outcomes_a + beta,
                outcomes_b=pt.outcomes_b,
                p=pt.p,
            )
            r0 = from_probability_table(pt)
            r1 = from_probability_table(relabeled)
            np.testing.assert_array_equal(r0.pearson_defined, r1.pearson_defined)
            mask = r0.pearson_defined
            np.testing.assert_allclose(
                r0.pearson[mask], r1.pearson[mask], atol=1e-10
            )


class TestChsh:
    def test_pr_box_reaches_four(self):
        assert chsh(from_probability_table(pr_box_table())) == pytest.approx(4.0, abs=1e-12)

    def test_zero_table(self):
        ct = CorrelatorTable.from_pearson(np.zeros((2, 2)))
        assert chsh(ct) == 0.0

    def test_tsirelson_point(self):
        pe = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        ct = CorrelatorTable.from_pearson(pe)
        assert chsh(ct) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_chsh_max_picks_best_variant(self):
        pe = np.array([[-1.0, -1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        assert chsh_max(pe) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_chsh_raw_uses_means(self):
        ct = CorrelatorTable.from_pearson(
            np.zeros((2, 2)), means={"a": [0.5, 0.5], "b": [0.5, -0.5]}
        )
        # raw E_ij = mean_a_i * mean_b_j when cov = 0
        assert chsh_raw(ct) == pytest.approx(0.25 + 0.25 + (-0.25) - (-0.25))


class TestNoSignaling:
    def test_pr_box_passes(self):
        report = check_no_signaling(pr_box_table())
        assert report["pass"]
        assert report["max_discrepancy_alice"] == 0.0

    def test_product_table_passes(self):
        rng = np.random.default_rng(1)
        qa = rng.dirichlet(np.ones(3), size=2)      # per Alice setting
        qb = rng.dirichlet(np.ones(2), size=2)      # per Bob setting
        p = np.einsum("ia,jb->ijab", qa, qb)
        pt = ProbabilityTable(outcomes_a=[0.0, 1.0, 2.0], outcomes_b=[-1.0, 1.0], p=p)
        assert check_no_signaling(pt)["pass"]

    def test_signaling_table_located(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, 0] = 0.25
        p[:, 1, 0, :] = 0.4
        p[:, 1, 1, :] = 0.1
        pt = ProbabilityTable(outcomes_a=[-1, 1], outcomes_b=[-1, 1], p=p)
        report = check_no_signaling(pt)
        assert not report["pass"]
        assert report["max_discrepancy_alice"] == pytest.approx(0.3)
        assert "worst_alice" in report
        assert report["worst_alice"]["marginals"] == [0.5, 0.8] or report[
            "worst_alice"
        ]["marginals"] == [0.5, 0.2]
