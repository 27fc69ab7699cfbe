"""Property tests over random scenarios and tables (hypothesis, derandomized)."""

import contextlib
import io
import json
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (
    TABLE_KINDS,
    check_report,
    fresh_copy,
    precondition_holds,
    random_mixed_scenario,
    random_nparty,
    random_scenario,
    random_table_payload,
    tangent_pearson,
)
from oracles import bordered_oracle, tlm_arcsine_slack

from bellri.cli import VERBS, decode_bipartite_table, main
from bellri.correlators import CorrelatorTable, TripartiteCorrelatorTable, check_no_signaling, chsh
from bellri.multiparty import zeta_bound_check
from bellri.qmodel import moments
from bellri.ri import (
    classify,
    emit_geometry,
    epsilon_gap,
    ri_feasible_bipartite,
    tlm_check,
    tripartite_r_intervals,
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    mixed_rank=st.integers(0, 3),
)
def test_shared_moments_match_fresh_copy(seed, dims, mixed_rank):
    """mixed_rank 0 draws a pure state, 1..3 a density matrix of that rank."""
    rng = np.random.default_rng(seed)
    if mixed_rank == 0:
        sc = random_scenario(rng, dims=dims)
    else:
        sc = random_mixed_scenario(rng, dims, mixed_rank)
    report = check_report(sc)
    assert check_report(sc) == report
    assert check_report(fresh_copy(sc)) == report
    mom = moments(sc)
    assert mom.nu_a**2 + mom.eta_a**2 <= 1.0 + 1e-9
    assert mom.nu_b**2 + mom.eta_b**2 <= 1.0 + 1e-9


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    r_prime=st.floats(-1.0, 1.0),
)
def test_nparty_closed_form_matches_bordered_oracle(seed, n, r_prime):
    """The 2x2 precondition of nparty_bound_check passes iff both bordered matrices are PSD."""
    npc = random_nparty(np.random.default_rng(seed), n)
    closed = precondition_holds(npc, r_prime)
    assert (closed, closed) == bordered_oracle(npc, r_prime)


# ---------------------------------------------------------------------------
# Bipartite verdicts: one feasibility rule, one exit code per table
# ---------------------------------------------------------------------------

TABLE_VERBS = ("classify", "ri-intervals", "epsilon", "tlm-check", "geometry")
INPUT_VERBS = tuple(v for v in VERBS if v not in ("pr-demo", "optimize", "eta-curve"))
SEEDS = st.integers(0, 2**32 - 1)


def run_verb(verb: str, text: str) -> tuple[int, str, str]:
    """``bellri <verb> --input -`` in process on ``text``: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--input", "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def decoded_table(seed: int, kind: str):
    ct, pt = decode_bipartite_table(random_table_payload(np.random.default_rng(seed), kind))
    assume(ct.pearson_defined.all())
    return ct, pt


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(TABLE_KINDS), tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_local_implies_feasible_iff_two_row_bound(seed, kind, tol):
    ct, pt = decoded_table(seed, kind)
    ns = None if pt is None else check_no_signaling(pt, tol=tol)
    v = classify(ct, tol=tol, no_signaling=ns)
    assert v.ri_feasible == v.quantum_compatible == tlm_check(ct, tol).passed
    assert v.ri_feasible == ri_feasible_bipartite(ct, tol).ri_feasible
    assert v.local is not True or v.ri_feasible
    if kind in ("pearson", "ensemble", "box", "tangent", "pr-box"):
        assert v.local is not None          # no-signaling +-1 boxes keep a locality verdict
    if kind in ("scaled", "probabilities"):
        assert v.local is None              # no +-1 box has these moments


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    seed=SEEDS,
    kind=st.sampled_from(TABLE_KINDS + ("tangent",) * 4),
    tol=st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]),
)
def test_epsilon_zero_iff_feasible(seed, kind, tol):
    """Tangent tables are drawn five times as often: their two gaps sit at the rounding scale."""
    ct, _ = decoded_table(seed, kind)
    v = ri_feasible_bipartite(ct, tol)
    eps = epsilon_gap(ct, tol)
    assert eps == v.epsilon == emit_geometry(ct, tol)["gap"] >= 0.0
    assert (eps == 0.0) == v.ri_feasible
    assert (v.witness_r is not None) == (v.witness_r_bar is not None) == v.ri_feasible


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(TABLE_KINDS))
def test_table_verbs_agree_and_round_trip(seed, kind):
    """One exit code for the five table verbs; stdout re-parses to the library's exact values."""
    payload = random_table_payload(np.random.default_rng(seed), kind)
    runs = {verb: run_verb(verb, json.dumps(payload)) for verb in TABLE_VERBS}
    assert len({code for code, _, _ in runs.values()}) == 1, {v: r[0] for v, r in runs.items()}
    code, out, _ = runs["classify"]
    if code == 2:
        return
    for _, text, err in runs.values():
        assert err == "" and json.dumps(json.loads(text), indent=2) + "\n" == text
    ct, pt = decode_bipartite_table(payload)
    ns = None if pt is None else check_no_signaling(pt)
    assert json.loads(out) == classify(ct, no_signaling=ns).to_json_dict()
    v = ri_feasible_bipartite(ct)
    assert json.loads(runs["ri-intervals"][1]) == {
        "intervals": [iv.to_json_dict() for iv in v.intervals], "feasible": v.ri_feasible,
        "witness_r": v.witness_r, "witness_r_bar": v.witness_r_bar,
    }
    t = tlm_check(ct)
    assert json.loads(runs["tlm-check"][1]) == {
        "pass": t.passed, "rows": [{"lhs": x, "rhs": y, "slack": z} for x, y, z in zip(t.lhs, t.rhs, t.slack)],
        "chsh": chsh(ct),
    }
    assert json.loads(runs["epsilon"][1]) == {"epsilon": epsilon_gap(ct)}
    assert json.loads(runs["geometry"][1]) == emit_geometry(ct)


FUZZ_KEYS = st.sampled_from([
    "pearson", "probabilities", "ensemble", "name", "variances", "means", "outcomes_a",
    "outcomes_b", "p", "weights", "a", "b", "pearson_ab", "pearson_ac", "pearson_bc", "chsh_ab",
    "chsh_ac", "r_prime", "experimenters", "first", "second", "dims", "state", "re", "im",
    "alice_obs", "bob_obs", "charlie_obs",
])
FUZZ_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["", "x", "pr-box", 1.0000001, 1e308])
)
FUZZ_JSON = st.recursive(
    FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(FUZZ_KEYS, inner, max_size=4),
    max_leaves=16,
)
FUZZ_TABLES = st.builds(
    lambda key, rows: {key: rows},
    FUZZ_KEYS,
    st.lists(st.lists(st.floats() | st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(payload=st.dictionaries(FUZZ_KEYS, FUZZ_JSON, min_size=1, max_size=4) | FUZZ_JSON | FUZZ_TABLES,
       verb=st.sampled_from(INPUT_VERBS))
def test_fuzzed_json_exits_0_1_2_without_traceback(payload, verb):
    code, out, err = run_verb(verb, json.dumps(payload))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and "error" in json.loads(err)
    else:
        json.loads(out)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=SEEDS, tangent=st.booleans())
def test_arcsine_oracle_agrees_with_tlm_check(seed, tangent):
    """Zero-mean tables; tangent ones sit on the boundary, where both forms must pass."""
    rng = np.random.default_rng(seed)
    ct = CorrelatorTable.from_pearson(tangent_pearson(rng) if tangent else rng.uniform(-1, 1, (2, 2)))
    slack = tlm_arcsine_slack(ct)
    if tangent:
        assert tlm_check(ct).passed and abs(slack) < 1e-6
    else:
        assume(abs(slack) > 1e-6)
        assert tlm_check(ct).passed == (slack > 0.0)


# ---------------------------------------------------------------------------
# Tripartite contexts: the zeta bound and the four intervals use one rule
# ---------------------------------------------------------------------------

CONTEXTS = st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=SEEDS, scale=st.sampled_from([0.5, 0.8, 1.0]), ctx1=CONTEXTS, ctx2=CONTEXTS)
def test_zeta_pass_leaves_no_compared_context_infeasible(seed, scale, ctx1, ctx2):
    """With rho_bc = 0 the zeta blocks are the tripartite contexts, so the verdicts agree."""
    rng = np.random.default_rng(seed)
    tct = TripartiteCorrelatorTable(
        pearson_ab=rng.uniform(-scale, scale, (2, 2)),
        pearson_ac=rng.uniform(-scale, scale, (2, 2)),
        pearson_bc=np.zeros((2, 2)),
    )
    passed = zeta_bound_check(tct, ctx1, ctx2)["pass"]
    if passed:
        infeasible = tripartite_r_intervals(tct).infeasible_contexts
        assert f"j={ctx1[0]},k={ctx1[1]}" not in infeasible
        assert f"j={ctx2[0]},k={ctx2[1]}" not in infeasible
    assert passed == tripartite_r_intervals(tct, (ctx1, ctx2)).feasible
