"""Command-line front end: JSON in, verdict JSON out, shell-composable verbs.

One verb per invocation. Exit status 0 means pass/feasible, 1 means
fail/infeasible, 2 means the input could not be parsed or validated. All
numeric output uses Python's shortest round-trip float representation, so
emitted JSON re-parses to bit-identical doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import multiparty, optimizer, qmodel, ri
from .correlators import (
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    check_no_signaling,
    chsh,
    chsh_combination,
    from_probability_table,
    pr_box_table,
)
from .errors import BellRIError, MalformedInputError

# ---------------------------------------------------------------------------
# Input decoding
# ---------------------------------------------------------------------------


def _read_payload(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise MalformedInputError(f"cannot read input {path!r}: {exc}") from exc
        source = path
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise MalformedInputError(f"{source}: top-level JSON value must be an object")
    return payload


def _require(payload: dict, key: str):
    if key not in payload:
        raise MalformedInputError(f"missing required field {key!r}")
    return payload[key]


def _float(payload: dict, key: str) -> float:
    """A required JSON number field as a float."""
    value = _require(payload, key)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{key} must be a number, got {value!r}") from exc


def _float_array(obj) -> np.ndarray:
    """A JSON number or rectangular nested list as a float array."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(str(exc)) from exc


def decode_bipartite_table(payload: dict) -> tuple[CorrelatorTable, ProbabilityTable | None]:
    if payload.get("name") == "pr-box":
        pt = pr_box_table()
        return from_probability_table(pt), pt
    if "probabilities" in payload:
        prob = payload["probabilities"]
        pt = ProbabilityTable(
            outcomes_a=_float_array(_require(prob, "outcomes_a")),
            outcomes_b=_float_array(_require(prob, "outcomes_b")),
            p=_float_array(_require(prob, "p")),
        )
        return from_probability_table(pt), pt
    if "ensemble" in payload:
        from .lhv import LhvEnsemble, correlators_of

        weights = _float_array(_require(payload["ensemble"], "weights"))
        return correlators_of(LhvEnsemble(weights)), None
    if "pearson" in payload:
        pe = _float_array(payload["pearson"])
        ct = CorrelatorTable.from_pearson(
            pe, variances=payload.get("variances"), means=payload.get("means")
        )
        return ct, None
    raise MalformedInputError(
        "bipartite input needs 'probabilities', 'pearson', 'ensemble', or name 'pr-box'"
    )


def decode_tripartite_table(payload: dict) -> TripartiteCorrelatorTable:
    return TripartiteCorrelatorTable(
        pearson_ab=_float_array(_require(payload, "pearson_ab")),
        pearson_ac=_float_array(_require(payload, "pearson_ac")),
        pearson_bc=_float_array(_require(payload, "pearson_bc")),
    )


def _complex_array(obj, what: str) -> np.ndarray:
    if isinstance(obj, dict):
        re = _float_array(_require(obj, "re"))
        im = _float_array(obj.get("im", np.zeros_like(re)))
        if re.shape != im.shape:
            raise MalformedInputError(f"{what}: 're' and 'im' shapes differ")
        return re + 1j * im
    return _float_array(obj).astype(complex)


def decode_scenario(payload: dict) -> qmodel.QuantumScenario:
    dims = _float_array(_require(payload, "dims"))
    if dims.ndim != 1 or not np.all(np.isfinite(dims)) or np.any(dims != np.round(dims)):
        raise MalformedInputError("dims must list whole-number party dimensions")
    dims = tuple(int(d) for d in dims)
    state = _complex_array(_require(payload, "state"), "state")
    def obs_list(key):
        if key not in payload:
            return None
        entries = payload[key]
        if not isinstance(entries, list) or len(entries) != 2:
            raise MalformedInputError(f"{key} must list exactly two observables")
        return tuple(qmodel.Observable(_complex_array(o, key)) for o in entries)
    return qmodel.QuantumScenario(
        dims=dims,
        state=state,
        alice_obs=obs_list("alice_obs"),
        bob_obs=obs_list("bob_obs"),
        charlie_obs=obs_list("charlie_obs"),
    )


def decode_nparty(payload: dict) -> tuple[multiparty.NPartyCorrelators, float]:
    r_prime = _float(payload, "r_prime")
    exps = _require(payload, "experimenters")
    if not isinstance(exps, list) or not all(isinstance(e, dict) for e in exps):
        raise MalformedInputError("experimenters must be a list of objects")
    first = _float_array([_require(e, "first") for e in exps])
    second = _float_array([_require(e, "second") for e in exps])
    return multiparty.NPartyCorrelators(rho_first=first, rho_second=second), r_prime


# ---------------------------------------------------------------------------
# Verb handlers: return (payload, exit_code)
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, int]:
    payload = _read_payload(args.input)
    ct, pt = decode_bipartite_table(payload)
    ns_report = check_no_signaling(pt, tol=args.tol) if pt is not None else None
    verdict = ri.classify(ct, tol=args.tol, no_signaling=ns_report)
    return verdict.to_json_dict(), 0 if verdict.ri_feasible else 1


def _cmd_ri_intervals(args) -> tuple[dict, int]:
    ct, _ = decode_bipartite_table(_read_payload(args.input))
    v = ri.ri_feasible_bipartite(ct, tol=args.tol)
    out = {
        "intervals": [iv.to_json_dict() for iv in v.intervals],
        "feasible": v.ri_feasible,
        "witness_r": v.witness_r,
        "witness_r_bar": v.witness_r_bar,
    }
    return out, 0 if v.ri_feasible else 1


def _cmd_tlm_check(args) -> tuple[dict, int]:
    ct, _ = decode_bipartite_table(_read_payload(args.input))
    res = ri.tlm_check(ct, tol=args.tol)
    out = {
        "pass": res.passed,
        "rows": [
            {"lhs": res.lhs[0], "rhs": res.rhs[0], "slack": res.slack[0]},
            {"lhs": res.lhs[1], "rhs": res.rhs[1], "slack": res.slack[1]},
        ],
        "chsh": chsh(ct),
    }
    return out, 0 if res.passed else 1


def _cmd_epsilon(args) -> tuple[dict, int]:
    ct, _ = decode_bipartite_table(_read_payload(args.input))
    eps = ri.epsilon_gap(ct)
    return {"epsilon": eps}, 0 if eps == 0.0 else 1


def _cmd_pr_demo(args) -> tuple[dict, int]:
    return ri.pr_box_demo(), 0


def _cmd_simulate(args) -> tuple[dict, int]:
    sc = decode_scenario(_read_payload(args.input))
    if sc.n_parties == 3:
        tm = qmodel.tripartite_moments(sc)
        tct = tm.to_table()
        out = {
            "scenario": "tripartite",
            "pearson_ab": tct.pearson_ab.tolist(),
            "pearson_ac": tct.pearson_ac.tolist(),
            "pearson_bc": tct.pearson_bc.tolist(),
            "variances": {
                "a": tm.vars[0].tolist(),
                "b": tm.vars[1].tolist(),
                "c": tm.vars[2].tolist(),
            },
        }
        return out, 0
    mom = qmodel._scenario_moments(sc)
    out = {
        "scenario": "bipartite",
        "means": {"a": mom.mean_a.tolist(), "b": mom.mean_b.tolist()},
        "variances": {"a": mom.var_a.tolist(), "b": mom.var_b.tolist()},
        "cov": mom.cov.tolist(),
        "pearson": mom.pearson.tolist(),
        "eta": {"a": mom.eta_a, "b": mom.eta_b},
        "nu": {"a": mom.nu_a, "b": mom.nu_b},
        "r_q": {
            "a": {"re": mom.r_q_a.real, "im": mom.r_q_a.imag},
            "b": {"re": mom.r_q_b.real, "im": mom.r_q_b.imag},
        },
        "uncertainty_check": {
            "a": qmodel.schrodinger_robertson_check(sc, "a"),
            "b": qmodel.schrodinger_robertson_check(sc, "b"),
        },
    }
    return out, 0


def _cmd_quantum_bound(args) -> tuple[dict, int]:
    sc = decode_scenario(_read_payload(args.input))
    res = qmodel.quantum_tlm_check(sc, tol=args.tol)
    res["eta_bound"] = qmodel.tsirelson_eta_bound(sc, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_chsh_r_tradeoff(args) -> tuple[dict, int]:
    sc = decode_scenario(_read_payload(args.input))
    res = qmodel.chsh_r_tradeoff_check(sc, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_monogamy(args) -> tuple[dict, int]:
    payload = _read_payload(args.input)
    if "chsh_ab" in payload:
        b_ab = _float(payload, "chsh_ab")
        b_ac = _float(payload, "chsh_ac")
    else:
        tct = decode_tripartite_table(payload)
        b_ab = chsh_combination(tct.pearson_ab)
        b_ac = chsh_combination(tct.pearson_ac)
    res = multiparty.monogamy_check(b_ab, b_ac, tol=args.tol)
    res["chsh_ab"] = b_ab
    res["chsh_ac"] = b_ac
    return res, 0 if res["pass_sq"] and res["pass_abs"] else 1


def _cmd_nparty(args) -> tuple[dict, int]:
    npc, r_prime = decode_nparty(_read_payload(args.input))
    res = multiparty.nparty_bound_check(npc, r_prime, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_zeta_bound(args) -> tuple[dict, int]:
    tct = decode_tripartite_table(_read_payload(args.input))
    ctx1 = tuple(int(x) for x in args.context.split(","))
    ctx2 = tuple(int(x) for x in args.context2.split(","))
    if len(ctx1) != 2 or len(ctx2) != 2:
        raise MalformedInputError("contexts must be 'l,k' pairs")
    res = multiparty.zeta_bound_check(tct, ctx1=ctx1, ctx2=ctx2, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_optimize(args) -> tuple[dict, int]:
    cfg = optimizer.OptConfig(
        restarts=args.restarts, max_evals=args.max_evals, seed=args.seed
    )
    res = optimizer.maximize(optimizer.chsh_objective, cfg)
    out = {
        "best_chsh": res.best_value,
        "evaluations": res.evaluations,
        "trajectory_max": res.trajectory_max,
        "trace": list(res.trace),
        "params": {
            "state_angles": res.best_params.state_angles.tolist(),
            "alice_bloch": res.best_params.alice_bloch.tolist(),
            "bob_bloch": res.best_params.bob_bloch.tolist(),
        },
    }
    return out, 0


def _cmd_eta_curve(args) -> tuple[dict, int]:
    etas = [float(x) for x in args.etas.split(",") if x.strip() != ""]
    cfg = optimizer.OptConfig(
        restarts=args.restarts, max_evals=args.max_evals, seed=args.seed
    )
    pts = optimizer.trace_eta_curve(etas, cfg)
    return {"points": pts}, 0


def _cmd_geometry(args) -> tuple[dict, int]:
    ct, _ = decode_bipartite_table(_read_payload(args.input))
    return ri.emit_geometry(ct, tol=args.tol), 0


# verb -> (handler, reads --input); the order is the --help order
_VERB_TABLE = {
    "classify": (_cmd_classify, True),
    "ri-intervals": (_cmd_ri_intervals, True),
    "tlm-check": (_cmd_tlm_check, True),
    "epsilon": (_cmd_epsilon, True),
    "pr-demo": (_cmd_pr_demo, False),
    "simulate": (_cmd_simulate, True),
    "quantum-bound": (_cmd_quantum_bound, True),
    "chsh-r-tradeoff": (_cmd_chsh_r_tradeoff, True),
    "monogamy": (_cmd_monogamy, True),
    "nparty": (_cmd_nparty, True),
    "zeta-bound": (_cmd_zeta_bound, True),
    "optimize": (_cmd_optimize, False),
    "eta-curve": (_cmd_eta_curve, False),
    "geometry": (_cmd_geometry, True),
}

VERBS = tuple(_VERB_TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellri",
        description="Classify correlation data against locality, quantum, and "
        "shared-uncertainty feasibility bounds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, needs_input) in _VERB_TABLE.items():
        p = sub.add_parser(verb)
        if needs_input:
            p.add_argument("--input", default="-", help="JSON file path, or - for stdin")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="also write the JSON result here")
        if verb in ("optimize", "eta-curve"):
            p.add_argument("--restarts", type=int, default=24)
            p.add_argument("--max-evals", type=int, default=2000, dest="max_evals")
        if verb == "eta-curve":
            p.add_argument(
                "--etas", default="0,0.25,0.5,0.7071067811865476,0.9",
                help="comma-separated targets in [0, 1]",
            )
        if verb == "zeta-bound":
            p.add_argument("--context", default="0,0", help="first (l,k) pair")
            p.add_argument("--context2", default="1,1", help="second (l,k) pair")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(json.dumps({"error": "tol must be positive and finite"}), file=sys.stderr)
        return 2
    try:
        payload, code = _VERB_TABLE[args.verb][0](args)
    except (BellRIError, ValueError, TypeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
