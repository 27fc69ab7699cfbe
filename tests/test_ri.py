"""Feasibility engine tests: intervals, correlator bound, epsilon gap, demo."""

import math

import numpy as np
import pytest
from conftest import random_table_payload, tangent_pearson
from oracles import (
    epsilon_four_signs,
    pr_box_demo_oracle,
    ri_condition_matrix,
    ri_pair_matrix,
    tripartite_condition_matrix,
)

from bellri.cli import decode_bipartite_table
from bellri.correlators import (
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    check_no_signaling,
    from_probability_table,
    pr_box_table,
)
from bellri.errors import DegenerateDataError, MalformedInputError, PreconditionError
from bellri.lhv import LhvEnsemble, statistics_of
from bellri.linalg import is_psd
from bellri.ri import (
    classify,
    emit_geometry,
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
            if not stats.table.pearson_defined.all():
                continue
            checked += 1
            v = ri_feasible_bipartite(stats.table)
            assert v.ri_feasible
            for j in (0, 1):
                assert r_interval_bipartite(stats.table, j).contains(stats.r_prime)
            vb = stats.table.var_b
            for i in (0, 1):
                assert r_interval_swapped(stats.table, i).contains(stats.r_bar / math.sqrt(vb[0] * vb[1]))

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
        # both parties' intervals, each pair within the default slack of meeting
        rng = np.random.default_rng(44)
        for _ in range(1000):
            ct = random_table(rng, scale=rng.choice([0.7, 1.0]))
            meet = all(
                max(d.lo for d in pair) - min(d.hi for d in pair) <= 1e-9
                for pair in ([r_interval_bipartite(ct, j) for j in (0, 1)],
                             [r_interval_swapped(ct, i) for i in (0, 1)])
            )
            assert (epsilon_gap(ct) == 0.0) == meet


class TestOneRule:
    """Every bipartite verdict follows the signed gaps under one slack."""

    def test_tangent_tables_are_feasible_with_zero_epsilon(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            ct = CorrelatorTable.from_pearson(tangent_pearson(rng))
            v = classify(ct)
            assert v.ri_feasible and v.quantum_compatible and tlm_check(ct).passed
            assert v.epsilon == epsilon_gap(ct) == 0.0
            assert emit_geometry(ct)["relation"] == "tangent"

    def test_epsilon_reports_bob_gap_when_alice_intervals_meet(self):
        # at a slack below the rounding scale a tangent table can be infeasible
        # through Bob's gap alone; epsilon must then be that gap, not 0
        rng = np.random.default_rng(5)
        tol = 1e-15
        for _ in range(20000):
            ct = CorrelatorTable.from_pearson(tangent_pearson(rng))
            lo = max(r_interval_bipartite(ct, j).lo for j in (0, 1))
            hi = min(r_interval_bipartite(ct, j).hi for j in (0, 1))
            lo_b = max(r_interval_swapped(ct, i).lo for i in (0, 1))
            hi_b = min(r_interval_swapped(ct, i).hi for i in (0, 1))
            if lo - hi <= 0.0 and lo_b - hi_b > tol:
                break
        else:
            pytest.fail("no tangent table with gaps of opposite sign")
        v = classify(ct, tol=tol)
        assert not v.ri_feasible and not tlm_check(ct, tol).passed
        assert v.epsilon == epsilon_gap(ct, tol) == lo_b - hi_b > 0.0
        assert v.witness_r is None and v.witness_r_bar is None

    def test_slack_moves_every_verdict_together(self):
        # scaling a tangent table by 1 + 1e-6 opens gaps between 1e-9 and 1e-5
        pe = np.array(tangent_pearson(np.random.default_rng(3)))
        ct = CorrelatorTable.from_pearson(pe * (1 + 1e-6))
        for tol, feasible in ((1e-9, False), (1e-5, True)):
            v = classify(ct, tol=tol)
            assert v.ri_feasible == v.quantum_compatible == tlm_check(ct, tol).passed == feasible
            assert (epsilon_gap(ct, tol) == 0.0) == feasible
            assert (emit_geometry(ct, tol)["gap"] == 0.0) == feasible

    def test_local_needs_a_box(self):
        # PR-box Pearson entries at Alice's variance 1/4: the raw CHSH is 2,
        # but no +-1 variable has that variance
        pe = np.array([[1.0, 1.0], [1.0, -1.0]])
        ct = CorrelatorTable.from_pearson(pe, variances={"a": [0.25, 0.25]})
        v = classify(ct)
        assert v.local is None and not v.ri_feasible
        # +-1 second moments, but means 0.5 and E = -0.5 give the a = b = -1
        # weight 1 - 0.5 - 0.5 - 0.5 < 0
        m = {"a": [0.5, 0.5], "b": [0.5, 0.5]}
        var = {"a": [0.75, 0.75], "b": [0.75, 0.75]}
        ct = CorrelatorTable.from_pearson(np.full((2, 2), -1.0), variances=var, means=m)
        assert classify(ct).local is None
        assert classify(CorrelatorTable.from_pearson(np.zeros((2, 2)))).local is True

    def test_signaling_probability_table_has_no_locality_verdict(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, 0, 1, 1] = 1.0           # Bob's setting 0: both +1
        p[:, 1, 0, 1] = 1.0           # Bob's setting 1: Alice -1, Bob +1
        pt = ProbabilityTable(outcomes_a=[-1.0, 1.0], outcomes_b=[-1.0, 1.0], p=p * 0.9 + 0.025)
        ns = check_no_signaling(pt)
        assert not ns["pass"]
        assert classify(from_probability_table(pt), no_signaling=ns).local is None


def _no_signaling(pt, tol):
    return None if pt is None else check_no_signaling(pt, tol)


# every call that reads a bipartite table's sides, as (table, probability table, tol) -> result
SIDE_READERS = {
    "classify": lambda ct, pt, tol: classify(ct, tol=tol, no_signaling=_no_signaling(pt, tol)),
    "ri_feasible_bipartite": lambda ct, pt, tol: ri_feasible_bipartite(ct, tol),
    "tlm_check": lambda ct, pt, tol: tlm_check(ct, tol),
    "epsilon_gap": lambda ct, pt, tol: epsilon_gap(ct, tol),
    "emit_geometry": lambda ct, pt, tol: emit_geometry(ct, tol),
    "r_intervals": lambda ct, pt, tol: [f(ct, k) for f in (r_interval_bipartite, r_interval_swapped) for k in (0, 1)],
}


class TestKeptSides:
    """A table keeps its two sides, which do not depend on ``tol``, and nothing that does."""

    def test_every_reader_matches_a_freshly_decoded_table(self):
        rng = np.random.default_rng(1111)
        kinds = ("pearson", "tangent", "ensemble", "probabilities")
        calls = [(name, tol) for name in SIDE_READERS for tol in (1e-9, 1e-3)]
        for n in range(500):
            payload = random_table_payload(rng, kinds[n % len(kinds)])
            if "pearson" in payload:
                # tangent tables pushed apart by ~1e-6: infeasible at tol 1e-9, feasible at 1e-3
                scale = 1.0 + 1e-6 if n % len(kinds) == 1 else 1.0
                payload["pearson"] = np.clip(np.array(payload["pearson"]) * scale, -1.0, 1.0).tolist()
            ct, pt = decode_bipartite_table(payload)
            for k in rng.permutation(len(calls)):
                name, tol = calls[k]
                fresh, fresh_pt = decode_bipartite_table(payload)
                assert SIDE_READERS[name](ct, pt, tol) == SIDE_READERS[name](fresh, fresh_pt, tol), (payload, name)

    def test_degenerate_table_keeps_nothing(self):
        ct = statistics_of(LhvEnsemble.point(0)).table
        for read in SIDE_READERS.values():
            for _ in range(2):
                with pytest.raises(DegenerateDataError):
                    read(ct, None, 1e-9)
        assert "_sides" not in vars(ct)


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

    def test_demo_booleans_match_brute_force_psd(self):
        rep, oracle = pr_box_demo(), pr_box_demo_oracle()
        assert rep["ab_forced_zero_verified"] is oracle["ab_forced_zero_verified"] is True
        assert rep["common_r_exists"] is oracle["common_r_exists"] is False
        assert set(rep["contexts"]) == set(oracle["contexts"])
        for label, expected in oracle["contexts"].items():
            got = rep["contexts"][label]
            assert (got["psd_at_required"], got["psd_at_zero"]) == (
                expected["psd_at_required"], expected["psd_at_zero"]
            )
            assert got["r_required"] == got["signaling_product_a0a1"] == (-1.0) ** int(label[-1])
