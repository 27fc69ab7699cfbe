"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
from conftest import optimal_ab_with_idle_charlie, uncorrelated_bc_scenario
from oracles import tripartite_condition_matrix

from bellri.cli import main as cli_main
from bellri.correlators import TripartiteCorrelatorTable, from_probability_table, pr_box_table
from bellri.lhv import LhvEnsemble, is_local, product_cov_matrix, statistics_of
from bellri.linalg import is_psd
from bellri.multiparty import monogamy_check, nparty_bound_check, nparty_from_pairs
from bellri.optimizer import OptConfig, chsh_objective, maximize, trace_eta_curve
from bellri.qmodel import (
    QuantumScenario,
    bloch_observable,
    higher_moment_uncertainty_check,
    moments,
    quantum_tlm_check,
    random_observable,
    random_scenario,
    random_state,
    to_correlator_table,
    tripartite_moments,
    truncated_oscillator_pair,
)
from bellri.ri import (
    classify,
    epsilon_gap,
    pr_box_demo,
    r_interval_bipartite,
    r_interval_swapped,
    tlm_check,
    tripartite_r_intervals,
)

SQRT2 = math.sqrt(2.0)
CEILING = 2.0 * SQRT2


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_01_tsirelson_reproduction():
    t0 = time.monotonic()
    res = maximize(chsh_objective, OptConfig(restarts=24, max_evals=2500, seed=0))
    elapsed = time.monotonic() - t0
    ok = (
        res.best_value >= CEILING - 1e-6
        and res.trajectory_max <= CEILING + 1e-9
        and elapsed < 10.0
    )
    report(
        1,
        "CHSH ceiling reached, never crossed",
        ok,
        f"best={res.best_value:.12f} traj_max={res.trajectory_max:.12f} t={elapsed:.1f}s",
    )


def test_02_correlator_bound_universality():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(10_000):
        dims = tuple(rng.choice([2, 3, 4], size=2))
        sc = random_scenario(rng, dims=dims)
        if not tlm_check(to_correlator_table(moments(sc)), tol=1e-9).passed:
            failures += 1
    report(2, "two-row bound holds on 10^4 random scenarios", failures == 0,
           f"failures={failures}")


def test_03_commutator_terms_tighten_the_bound():
    rng = np.random.default_rng(3)
    holds = 0
    total = 0
    big_eta = 0
    strictly_tighter = 0
    while total < 1000:
        dims = tuple(rng.choice([2, 3, 4], size=2))
        sc = random_scenario(rng, dims=dims)
        mom = moments(sc)
        if abs(mom.eta_a) < 1e-12:
            continue
        total += 1
        res = quantum_tlm_check(sc, tol=1e-9)
        if res["pass"]:
            holds += 1
        if abs(mom.eta_a) > 0.1:
            big_eta += 1
            plain = tlm_check(to_correlator_table(mom))
            if res["row1"]["rhs"] < plain.rhs[0] - 1e-12:
                strictly_tighter += 1
    ok = holds == total and big_eta > 100 and strictly_tighter / big_eta >= 0.99
    report(3, "subtracted commutator terms bite yet never break", ok,
           f"holds={holds}/{total} tighter={strictly_tighter}/{big_eta}")


def test_04_constrained_ceiling_curve():
    targets = [0.0, 0.25, 0.5, 1.0 / SQRT2, 0.9]
    pts = trace_eta_curve(targets, OptConfig(restarts=16, max_evals=1800, seed=0))
    worst = 0.0
    ok = True
    for p in pts:
        ref = CEILING * math.sqrt(1.0 - p["eta"] ** 2)
        worst = max(worst, abs(p["max_chsh"] - ref))
        ok = ok and p["feasible"] and abs(p["max_chsh"] - ref) <= 5e-3
    values = ", ".join(f"{p['max_chsh']:.3f}" for p in pts)
    report(4, "constrained maxima match the closed-form curve", ok,
           f"values=[{values}] worst_diff={worst:.2e}")


def test_05_max_box_infeasibility(tmp_path, capsys):
    ct = from_probability_table(pr_box_table())
    verdict = classify(ct)
    demo = pr_box_demo()
    table_ok = (
        verdict.ri_feasible is False
        and abs(verdict.epsilon - 2.0) <= 1e-12
        and abs(epsilon_gap(ct) - 2.0) <= 1e-12
    )
    demo_ok = demo["r_table"] == [[1.0, -1.0], [1.0, -1.0]] and all(
        ctx["psd_at_required"] and not ctx["psd_at_zero"]
        for ctx in demo["contexts"].values()
    )
    path = tmp_path / "pr.json"
    path.write_text('{"scenario": "bipartite", "name": "pr-box"}')
    code = cli_main(["classify", "--input", str(path)])
    capsys.readouterr()
    report(5, "maximal no-signaling box is infeasible with gap 2",
           table_ok and demo_ok and code == 1,
           f"epsilon={verdict.epsilon!r} exit={code}")


def test_06_four_interval_grid_oracle():
    rng = np.random.default_rng(6)
    grid = np.linspace(-1.0, 1.0, 201)
    contexts = ((0, 0), (0, 1), (1, 0), (1, 1))
    decisive = 0
    point_checks = 0
    for _ in range(1000):
        scale = rng.choice([0.3, 0.5, 0.75, 1.0])
        tct = TripartiteCorrelatorTable(
            pearson_ab=rng.uniform(-1, 1, size=(2, 2)) * scale,
            pearson_ac=rng.uniform(-1, 1, size=(2, 2)) * scale,
            pearson_bc=np.zeros((2, 2)),
        )
        res = tripartite_r_intervals(tct)
        psd_all = np.ones(grid.size, dtype=bool)
        for (j, k) in contexts:
            base = tripartite_condition_matrix(tct, j, k, 0.0)
            stack = np.broadcast_to(base, (grid.size, 4, 4)).copy()
            stack[:, 2, 3] = grid
            stack[:, 3, 2] = grid
            psd_all &= np.linalg.eigvalsh(stack)[:, 0] >= -1e-9
        endpoints = [x for iv in res.intervals for x in (iv.lo, iv.hi)]
        feasible_region_nonempty = res.common_r is not None
        if res.infeasible_contexts:
            assert not psd_all.any()
            decisive += 1
            continue
        lo = max(iv.lo for iv in res.intervals)
        hi = min(iv.hi for iv in res.intervals)
        for idx, r in enumerate(grid):
            if any(abs(r - e) < 1e-3 for e in endpoints):
                continue
            inside = all(iv.contains(float(r), slack=0.0) for iv in res.intervals)
            assert inside == bool(psd_all[idx]), (r, lo, hi)
            point_checks += 1
        # verdict-level comparison only when the grid can resolve it
        if hi - lo > 0.012 or hi - lo < -1e-3:
            decisive += 1
            assert feasible_region_nonempty == bool(psd_all.any())
    report(6, "interval verdicts agree with 201-point PSD sweeps", True,
           f"decisive_tables={decisive} point_checks={point_checks}")


def test_07_lhv_soundness():
    rng = np.random.default_rng(7)
    u = np.array([1.0, 1.0, 1.0, -1.0])
    for _ in range(1000):
        ens = LhvEnsemble.random(rng, concentration=rng.choice([0.5, 1.0, 3.0]))
        stats = statistics_of(ens)
        assert is_local(stats.raw_e, tol=1e-9)
        assert tlm_check(stats.table, tol=1e-9).passed
        r_prime = stats.r_prime
        r_bar_prime = stats.r_bar_prime
        for j in (0, 1):
            assert r_interval_bipartite(stats.table, j).contains(r_prime, slack=1e-9)
        for i in (0, 1):
            assert r_interval_swapped(stats.table, i).contains(r_bar_prime, slack=1e-9)
        m = product_cov_matrix(ens)
        assert is_psd(m, tol=1e-9)
        b_raw = float(
            stats.raw_e[0, 0] + stats.raw_e[1, 0] + stats.raw_e[0, 1] - stats.raw_e[1, 1]
        )
        assert abs(float(u @ m @ u) - (4.0 - b_raw**2)) <= 1e-9
    report(7, "local mixtures: membership, bound, witness, product covariance", True)


def test_08_monogamy():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        sc = uncorrelated_bc_scenario(rng)
        tm = tripartite_moments(sc)
        assert np.abs(tm.cov_bc).max() <= 1e-12
        tct = tm.to_table()
        ab, ac = tct.pearson_ab, tct.pearson_ac
        b_ab = float(ab[0, 0] + ab[1, 0] + ab[0, 1] - ab[1, 1])
        b_ac = float(ac[0, 0] + ac[1, 0] + ac[0, 1] - ac[1, 1])
        res = monogamy_check(b_ab, b_ac, tol=1e-9)
        worst = max(worst, res["sum_sq"])
        assert res["pass_sq"]
    sc = optimal_ab_with_idle_charlie(rng)
    tct = tripartite_moments(sc).to_table()
    ab, ac = tct.pearson_ab, tct.pearson_ac
    b_ab = float(ab[0, 0] + ab[1, 0] + ab[0, 1] - ab[1, 1])
    b_ac = float(ac[0, 0] + ac[1, 0] + ac[0, 1] - ac[1, 1])
    saturating_ok = abs(abs(b_ab) - CEILING) <= 1e-9 and abs(b_ac) <= 1e-6
    report(8, "squared-CHSH monogamy under uncorrelated partners",
           saturating_ok, f"max_sum_sq={worst:.6f} saturating |B_ac|={abs(b_ac):.2e}")


def test_09_many_experimenter_cap():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4):
        for _ in range(125):
            moms = [
                moments(random_scenario(rng, dims=(2, 2), kind="bloch"))
                for _ in range(n)
            ]
            npc, r_prime = nparty_from_pairs(moms)
            res = nparty_bound_check(npc, r_prime, tol=1e-9)
            assert res["pass_refined"], (n, res)
            assert res["pass_cap"], (n, res)
            assert res["sum_abs_chsh"] <= 2.0 * math.sqrt(2.0 * n) + 1e-9
    report(9, "per-experimenter CHSH sums below both cap links", True)


def test_10_position_momentum_tradeoff():
    dim = 24
    x, p = truncated_oscillator_pair(dim)
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    rng = np.random.default_rng(10)
    worst_total = -math.inf
    worst_trunc = 0.0
    for _ in range(200):
        low = np.zeros(dim, dtype=complex)
        low[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
        low /= np.linalg.norm(low)
        state = np.kron(low, random_state(rng, 2))
        sc = QuantumScenario(
            dims=(dim, 2),
            state=state,
            alice_obs=(x, p),
            bob_obs=(
                bloch_observable(math.acos(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi)),
                bloch_observable(math.acos(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi)),
            ),
        )
        mom = moments(sc)
        realized = complex(low.conj() @ comm @ low)
        worst_trunc = max(worst_trunc, abs(realized - 1j))
        c = abs(realized) / 2.0
        pe = mom.pearson
        chsh = float(pe[0, 0] + pe[1, 0] + pe[0, 1] - pe[1, 1])
        total = (chsh / CEILING) ** 2 + (c / math.sqrt(mom.var_a[0] * mom.var_a[1])) ** 2
        worst_total = max(worst_total, total)
        assert total <= 1.0 + 1e-9          # realized-commutator form
        ideal = (chsh / CEILING) ** 2 + (0.5 / math.sqrt(mom.var_a[0] * mom.var_a[1])) ** 2
        assert ideal <= 1.0 + 1e-3          # canonical hbar/2 form
    # ladder ground state: minimum-uncertainty member saturates from the
    # uncertainty side (sigma_x sigma_p = 1/2, so the second term is 1)
    ground = np.zeros(dim, dtype=complex)
    ground[0] = 1.0
    sc = QuantumScenario(
        dims=(dim, 2),
        state=np.kron(ground, random_state(rng, 2)),
        alice_obs=(x, p),
        bob_obs=(bloch_observable(0.7, 0.1), bloch_observable(1.9, -0.4)),
    )
    mom = moments(sc)
    sat = (0.5 / math.sqrt(mom.var_a[0] * mom.var_a[1])) ** 2
    pe = mom.pearson
    sat += ((pe[0, 0] + pe[1, 0] + pe[0, 1] - pe[1, 1]) / CEILING) ** 2
    ok = worst_trunc < 1e-3 and abs(sat - 1.0) <= 1e-9
    report(10, "position-momentum CHSH trade-off on the truncated ladder", ok,
           f"max_total={worst_total:.9f} ground_state_total={sat:.12f} "
           f"truncation_error={worst_trunc:.2e}")


def test_11_higher_moment_enhancement():
    rng = np.random.default_rng(11)
    strict = 0
    total = 0
    for _ in range(500):
        state = np.kron(random_state(rng, 3), random_state(rng, 2))
        sc = QuantumScenario(
            dims=(3, 2),
            state=state,
            alice_obs=(random_observable(rng, 3), random_observable(rng, 3)),
            bob_obs=(bloch_observable(1.0, 0.2), bloch_observable(2.2, -0.7)),
        )
        for m in (2, 3):
            res = higher_moment_uncertainty_check(sc, i=int(rng.integers(2)), m=m, tol=1e-9)
            assert res["pass"]
            assert res["rhs_enhanced"] >= res["rhs_basic"] - 1e-15
            total += 1
            if res["enhancement"] > 1e-9:
                strict += 1
    # eigenstate inputs stay informative
    a0 = random_observable(rng, 3)
    a1 = random_observable(rng, 3)
    _, v = np.linalg.eigh(a0.matrix)
    state = np.kron(v[:, 1], random_state(rng, 2))
    sc = QuantumScenario(dims=(3, 2), state=state, alice_obs=(a0, a1),
                         bob_obs=(bloch_observable(0.4, 0.0), bloch_observable(1.4, 0.9)))
    eig_res = higher_moment_uncertainty_check(sc, i=1, m=2, tol=1e-9)
    ok = strict / total >= 0.5 and eig_res["pass"] and eig_res["rhs_enhanced"] > 1e-9
    report(11, "power-correlation enhancement of the additive bound", ok,
           f"strict={strict}/{total} eigenstate_rhs={eig_res['rhs_enhanced']:.3e}")
