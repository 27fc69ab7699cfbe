"""Feasibility engine tests: intervals, correlator bound, epsilon gap, demo."""

import math

import numpy as np
import pytest
from oracles import (
    epsilon_four_signs,
    ri_condition_matrix,
    ri_pair_matrix,
    tripartite_condition_matrix,
)

from bellri.correlators import CorrelatorTable, TripartiteCorrelatorTable, from_probability_table, pr_box_table
from bellri.errors import DegenerateDataError, MalformedInputError, PreconditionError
from bellri.lhv import LhvEnsemble, statistics_of
from bellri.linalg import is_psd
from bellri.ri import (
    classify,
    epsilon_gap,
    g_theta,
    pr_box_demo,
    r_interval_bipartite,
    r_interval_swapped,
    ri_feasible_bipartite,
    tlm_check,
    tripartite_r_intervals,
)

SQRT2 = math.sqrt(2.0)


def tsirelson_table():
    pe = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    return CorrelatorTable.from_pearson(pe)


def pr_table():
    return from_probability_table(pr_box_table())


def random_table(rng, scale=1.0):
    # random Pearson entries; scale < 1 biases toward feasible interiors
    pe = rng.uniform(-1.0, 1.0, size=(2, 2)) * scale
    return CorrelatorTable.from_pearson(pe)


class TestIntervals:
    def test_tsirelson_touch_at_origin(self):
        ct = tsirelson_table()
        d0 = r_interval_bipartite(ct, 0)
        d1 = r_interval_bipartite(ct, 1)
        assert (d0.lo, d0.hi) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert (d1.lo, d1.hi) == pytest.approx((-1.0, 0.0), abs=1e-12)

    def test_uncorrelated_full_range(self):
        ct = CorrelatorTable.from_pearson(np.zeros((2, 2)))
        for j in (0, 1):
            iv = r_interval_bipartite(ct, j)
            assert (iv.lo, iv.hi) == (-1.0, 1.0)

    def test_pr_box_disjoint_points(self):
        ct = pr_table()
        d0 = r_interval_bipartite(ct, 0)
        d1 = r_interval_bipartite(ct, 1)
        assert (d0.lo, d0.hi) == (1.0, 1.0)
        assert (d1.lo, d1.hi) == (-1.0, -1.0)

    def test_degenerate_data_raises(self):
        pe = np.array([[np.nan, 0.0], [0.0, 0.0]])
        defined = np.array([[False, True], [True, True]])
        ct = CorrelatorTable(
            means_a=[0, 0], means_b=[0, 0], var_a=[0, 1], var_b=[1, 1],
            cov=np.zeros((2, 2)), pearson=pe, pearson_defined=defined,
        )
        with pytest.raises(DegenerateDataError):
            r_interval_bipartite(ct, 0)

    def test_interval_psd_equivalence_random(self):
        # membership in D_j must coincide with PSD of the normalized 3x3 block
        rng = np.random.default_rng(77)
        grid = np.linspace(-1.0, 1.0, 201)
        for _ in range(1000):
            ct = random_table(rng, scale=rng.choice([0.4, 0.9, 1.0]))
            j = int(rng.integers(2))
            iv = r_interval_bipartite(ct, j)
            for r in grid:
                if abs(r - iv.lo) < 1e-9 or abs(r - iv.hi) < 1e-9:
                    continue
                inside = iv.contains(float(r), slack=0.0)
                psd = is_psd(ri_condition_matrix(ct, j, float(r)), tol=1e-12)
                assert inside == psd


class TestTlm:
    def test_tsirelson_saturates_both_rows(self):
        res = tlm_check(tsirelson_table())
        assert res.passed
        assert res.slack[0] == pytest.approx(0.0, abs=1e-12)
        assert res.slack[1] == pytest.approx(0.0, abs=1e-12)
        assert res.lhs[0] == pytest.approx(1.0, abs=1e-12)

    def test_pr_box_fails_row_one(self):
        res = tlm_check(pr_table())
        assert not res.passed
        assert res.lhs[0] == pytest.approx(2.0)
        assert res.rhs[0] == pytest.approx(0.0)

    def test_zero_table_passes_with_slack_two(self):
        res = tlm_check(CorrelatorTable.from_pearson(np.zeros((2, 2))))
        assert res.passed
        assert res.slack == (pytest.approx(2.0), pytest.approx(2.0))

    def test_equivalence_with_interval_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ct = random_table(rng, scale=rng.choice([0.5, 0.95, 1.0]))
            assert tlm_check(ct).passed == ri_feasible_bipartite(ct).ri_feasible

    def test_monotone_slack_under_shrinking(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 500:
            ct = random_table(rng, scale=0.9)
            if not tlm_check(ct).passed:
                continue
            count += 1
            for s in (0.75, 0.5, 0.2):
                shrunk = CorrelatorTable.from_pearson(ct.pearson * s)
                assert tlm_check(shrunk).passed


class TestFeasibility:
    def test_tsirelson_feasible_witness_zero(self):
        v = ri_feasible_bipartite(tsirelson_table())
        assert v.ri_feasible
        assert v.witness_r == pytest.approx(0.0, abs=1e-12)
        assert v.witness_r_bar == pytest.approx(0.0, abs=1e-12)

    def test_pr_box_infeasible(self):
        v = ri_feasible_bipartite(pr_table())
        assert not v.ri_feasible
        assert v.witness_r is None
        assert v.epsilon == pytest.approx(2.0, abs=1e-12)

    def test_lhv_witness_always_contained(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 500:
            stats = statistics_of(LhvEnsemble.random(rng))
            if not stats.table.all_defined:
                continue
            checked += 1
            v = ri_feasible_bipartite(stats.table)
            assert v.ri_feasible
            for j in (0, 1):
                assert r_interval_bipartite(stats.table, j).contains(stats.r_prime)
            for i in (0, 1):
                assert r_interval_swapped(stats.table, i).contains(stats.r_bar_prime)

    def test_pair_matrix_matches_joint_feasibility(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            ct = random_table(rng, scale=rng.choice([0.6, 1.0]))
            v = ri_feasible_bipartite(ct, tol=1e-12)
            if v.witness_r is not None:
                assert is_psd(ri_pair_matrix(ct, v.witness_r), tol=1e-9)
            lo = max(r_interval_bipartite(ct, j).lo for j in (0, 1))
            hi = min(r_interval_bipartite(ct, j).hi for j in (0, 1))
            if lo > hi + 1e-6:
                mid = 0.5 * (lo + hi)
                assert not is_psd(ri_pair_matrix(ct, mid), tol=1e-9)


class TestEpsilon:
    def test_pr_box_gap_two(self):
        assert epsilon_gap(pr_table()) == pytest.approx(2.0, abs=1e-12)

    def test_tsirelson_zero(self):
        assert epsilon_gap(tsirelson_table()) == 0.0

    def test_zero_table_zero(self):
        assert epsilon_gap(CorrelatorTable.from_pearson(np.zeros((2, 2)))) == 0.0

    def test_agrees_with_four_sign_form_when_disjoint(self):
        rng = np.random.default_rng(2)
        found = 0
        for _ in range(3000):
            ct = random_table(rng)
            eps = epsilon_gap(ct)
            if eps > 1e-9:
                found += 1
                assert eps == pytest.approx(epsilon_four_signs(ct), abs=1e-12)
        assert found > 50

    def test_zero_gap_iff_intervals_meet(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            ct = random_table(rng, scale=rng.choice([0.7, 1.0]))
            d0 = r_interval_bipartite(ct, 0)
            d1 = r_interval_bipartite(ct, 1)
            meet = max(d0.lo, d1.lo) <= min(d0.hi, d1.hi)
            assert (epsilon_gap(ct) == 0.0) == meet


class TestGTheta:
    def test_equal_sigmas_quarter_angle(self):
        assert g_theta(math.pi / 4, 1.3, 1.3) == pytest.approx(1.0)

    def test_theta_zero_is_ratio(self):
        assert g_theta(0.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(MalformedInputError):
            g_theta(0.3, 0.0, 1.0)

    def test_dominates_admissible_r(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            s0, s1 = rng.uniform(0.1, 3.0, size=2)
            theta = rng.uniform(-math.pi, math.pi)
            g = g_theta(theta, s0, s1)
            for r_prime in rng.uniform(-1.0, 1.0, size=5):
                assert g >= r_prime * math.sin(2 * theta) - 1e-12

    def test_saturating_family_pins_down_witness(self):
        # family of real qubit states (cos t, sin t) with observables
        # A0 = sz, A1 = cos(alpha) sz + sin(alpha) sx; every member saturates
        # the uncertainty block, and at the variance-balanced member the
        # minimum of g(pi/4, .) equals the admissible r' = +1 exactly
        alpha = 1.0

        def sigmas_and_r(t):
            s0 = abs(math.sin(2 * t))
            s1 = abs(math.sin(2 * t - alpha))
            r_prime_sign = math.copysign(1.0, math.sin(2 * t) * math.sin(2 * t - alpha))
            return s0, s1, r_prime_sign

        def g_of(t):
            s0, s1, _ = sigmas_and_r(t)
            return g_theta(math.pi / 4, s0, s1)

        ts = np.linspace(0.05, math.pi / 2 - 0.05, 4001)
        vals = [g_of(t) for t in ts]
        i_best = int(np.argmin(vals))
        lo, hi = ts[max(0, i_best - 1)], ts[min(len(ts) - 1, i_best + 1)]
        for _ in range(80):                      # ternary refinement
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if g_of(m1) < g_of(m2):
                hi = m2
            else:
                lo = m1
        t_star = 0.5 * (lo + hi)
        _, _, r_prime = sigmas_and_r(t_star)
        assert r_prime == 1.0
        assert min(min(vals), g_of(t_star)) == pytest.approx(r_prime, abs=1e-6)
        assert t_star == pytest.approx(alpha / 4 + math.pi / 4, abs=1e-5)


class TestTripartite:
    def test_reduces_to_bipartite_when_third_party_silent(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            ab = rng.uniform(-1, 1, size=(2, 2))
            tct = TripartiteCorrelatorTable(
                pearson_ab=ab, pearson_ac=np.zeros((2, 2)), pearson_bc=np.zeros((2, 2))
            )
            res = tripartite_r_intervals(tct)
            ct = CorrelatorTable.from_pearson(ab)
            for iv in res.intervals:
                j = int(iv.context[2])
                ref = r_interval_bipartite(ct, j)
                assert iv.lo == pytest.approx(ref.lo, abs=1e-12)
                assert iv.hi == pytest.approx(ref.hi, abs=1e-12)

    def test_all_zero_gives_full_intervals(self):
        tct = TripartiteCorrelatorTable(
            pearson_ab=np.zeros((2, 2)),
            pearson_ac=np.zeros((2, 2)),
            pearson_bc=np.zeros((2, 2)),
        )
        res = tripartite_r_intervals(tct)
        assert len(res.intervals) == 4
        for iv in res.intervals:
            assert (iv.lo, iv.hi) == (-1.0, 1.0)
        assert res.common_r == pytest.approx(0.0)

    def test_embedded_max_box_forces_context_dependence(self):
        ac = np.array([[1.0, 1.0], [1.0, -1.0]])   # (-1)^(i k)
        tct = TripartiteCorrelatorTable(
            pearson_ab=np.zeros((2, 2)), pearson_ac=ac, pearson_bc=np.zeros((2, 2))
        )
        res = tripartite_r_intervals(tct)
        assert res.common_r is None
        for iv in res.intervals:
            k = int(iv.context[-1])
            assert iv.lo == iv.hi == (-1.0) ** k

    def test_nonzero_bc_rejected(self):
        tct = TripartiteCorrelatorTable(
            pearson_ab=np.zeros((2, 2)),
            pearson_ac=np.zeros((2, 2)),
            pearson_bc=np.full((2, 2), 0.2),
        )
        with pytest.raises(PreconditionError):
            tripartite_r_intervals(tct)

    def test_negative_diagonal_reports_infeasible_context(self):
        tct = TripartiteCorrelatorTable(
            pearson_ab=np.array([[0.9, 0.0], [0.9, 0.0]]),
            pearson_ac=np.array([[0.9, 0.0], [0.9, 0.0]]),
            pearson_bc=np.zeros((2, 2)),
        )
        res = tripartite_r_intervals(tct)
        assert not res.feasible
        assert "j=0,k=0" in res.infeasible_contexts

    def test_grid_oracle_agreement(self):
        # interval verdicts against brute-force PSD sweeps on a 2001-point grid
        rng = np.random.default_rng(55)
        grid = np.linspace(-1.0, 1.0, 2001)
        contexts = ((0, 0), (0, 1), (1, 0), (1, 1))
        for _ in range(50):
            scale = rng.choice([0.35, 0.6, 0.8])
            tct = TripartiteCorrelatorTable(
                pearson_ab=rng.uniform(-1, 1, size=(2, 2)) * scale,
                pearson_ac=rng.uniform(-1, 1, size=(2, 2)) * scale,
                pearson_bc=np.zeros((2, 2)),
            )
            res = tripartite_r_intervals(tct)
            mats = [
                np.stack([tripartite_condition_matrix(tct, j, k, r) for r in grid])
                for (j, k) in contexts
            ]
            psd_all = np.ones(len(grid), dtype=bool)
            for m in mats:
                w = np.linalg.eigvalsh(m)[:, 0]
                psd_all &= w >= -1e-9
            endpoints = [x for iv in res.intervals for x in (iv.lo, iv.hi)]
            for idx, r in enumerate(grid):
                if any(abs(r - e) < 1e-3 for e in endpoints):
                    continue
                inside = bool(res.intervals) and all(
                    iv.contains(float(r), slack=0.0) for iv in res.intervals
                )
                if res.infeasible_contexts:
                    inside = False
                assert inside == bool(psd_all[idx])


class TestClassifyAndDemo:
    def test_classify_pr_box(self):
        v = classify(pr_table())
        assert v.local is False
        assert v.quantum_compatible is False
        assert v.ri_feasible is False
        assert v.epsilon == pytest.approx(2.0, abs=1e-12)

    def test_classify_tsirelson(self):
        v = classify(tsirelson_table())
        assert v.local is False
        assert v.quantum_compatible and v.ri_feasible
        assert v.witness_r == pytest.approx(0.0, abs=1e-9)

    def test_classify_lhv(self):
        rng = np.random.default_rng(19)
        stats = statistics_of(LhvEnsemble.random(rng))
        v = classify(stats.table)
        assert v.local is True and v.ri_feasible

    def test_verdict_json_round_trip_fields(self):
        d = classify(tsirelson_table()).to_json_dict()
        assert set(d) >= {"local", "quantum_compatible", "ri_feasible", "witness_r", "epsilon", "intervals"}
        assert len(d["intervals"]) == 4

    def test_demo_report(self):
        rep = pr_box_demo()
        assert rep["r_table"] == [[1.0, -1.0], [1.0, -1.0]]
        assert rep["forced_pearson_ab"] == 0.0
        assert rep["ab_forced_zero_verified"]
        assert rep["epsilon"] == pytest.approx(2.0, abs=1e-12)
        for ctx in rep["contexts"].values():
            assert ctx["psd_at_required"] is True or ctx["psd_at_required"] == True
            assert not ctx["psd_at_zero"]
        assert not rep["common_r_exists"]
