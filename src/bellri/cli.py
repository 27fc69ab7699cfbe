"""Command-line front end: JSON in, verdict JSON out, shell-composable verbs.

One verb per invocation. Exit status 0 means pass/feasible, 1 means
fail/infeasible, 2 means the input could not be parsed or validated. All
numeric output uses Python's shortest round-trip float representation, so
emitted JSON re-parses to bit-identical doubles.

The five table verbs share one handler, ``_cmd_table``: it prints the verb's
view of the table's one ``ri.Verdict`` and exits 0 iff it is ``ri_feasible``,
so every table verb gives the same exit code on the same table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import ri
from .correlators import (
    CorrelatorTable,
    ProbabilityTable,
    TripartiteCorrelatorTable,
    check_no_signaling,
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
    if not isinstance(payload, dict) or key not in payload:
        raise MalformedInputError(f"missing required field {key!r}")
    return payload[key]


def _no_booleans(obj, what: str = "") -> None:
    """Reject a decoded JSON value that is, or nests, true or false: NumPy and float() read true as 1.0."""
    level = [obj]
    while level:                        # one nesting level at a time
        inner = []
        for x in level:
            if type(x) is list:
                inner += x
            elif type(x) is bool:
                raise MalformedInputError(f"{what}expected numbers, got a JSON boolean")
        level = inner


def _float(payload: dict, key: str) -> float:
    """A required JSON number field as a float."""
    value = _require(payload, key)
    try:
        if isinstance(value, bool):     # float() would read true as 1.0
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:     # a JSON integer past the float range
        raise MalformedInputError(f"{key} must be a number, got {value!r}") from exc


def _numbers(text: str, kind, what: str) -> list:
    """A comma-separated command-line list, each entry read by ``kind`` (int or float); a blank
    entry among numbers is malformed, and a list of blanks alone (``","``) is empty."""
    if not text.replace(",", "").strip():
        return []
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise MalformedInputError(f"{what} must list comma-separated numbers, got {text!r}") from exc


def _float_array(obj) -> np.ndarray:
    """A JSON number or rectangular nested list as a float array."""
    import numpy as np
    _no_booleans(obj)
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(str(exc)) from exc


def decode_bipartite_table(payload: dict) -> tuple[CorrelatorTable, ProbabilityTable | None]:
    if payload.get("name") == "pr-box":
        pt = pr_box_table()
        return from_probability_table(pt), pt
    if "probabilities" in payload:
        prob = payload["probabilities"]
        fields = {key: _require(prob, key) for key in ("outcomes_a", "outcomes_b", "p")}
        _no_booleans(list(fields.values()))     # the table converts each field once
        pt = ProbabilityTable(**fields)
        return from_probability_table(pt), pt
    if "ensemble" in payload:
        from . import lhv
        weights = _require(payload["ensemble"], "weights")
        _no_booleans(weights)               # the ensemble converts the weights once
        return lhv.correlators_of(lhv.LhvEnsemble(weights)), None
    if "pearson" in payload:
        pe, variances, means = payload["pearson"], payload.get("variances"), payload.get("means")
        _no_booleans(pe)
        for key, obj in (("variances", variances), ("means", means)):
            if isinstance(obj, dict):
                _no_booleans([obj.get("a"), obj.get("b")], f"{key}: ")
        return CorrelatorTable.from_pearson(pe, variances=variances, means=means), None
    raise MalformedInputError(
        "bipartite input needs 'probabilities', 'pearson', 'ensemble', or name 'pr-box'"
    )


def decode_tripartite_table(payload: dict) -> TripartiteCorrelatorTable:
    blocks = {key: _require(payload, key) for key in ("pearson_ab", "pearson_ac", "pearson_bc")}
    _no_booleans(list(blocks.values()))
    return TripartiteCorrelatorTable(**blocks)


def _complex_array(obj, what: str) -> np.ndarray:
    import numpy as np
    if isinstance(obj, dict):
        re = _float_array(_require(obj, "re"))
        im = _float_array(obj.get("im", np.zeros_like(re)))
        if re.shape != im.shape:
            raise MalformedInputError(f"{what}: 're' and 'im' shapes differ")
        return re + 1j * im
    return _float_array(obj).astype(complex)


def decode_scenario(payload: dict) -> qmodel.QuantumScenario:
    import numpy as np
    from . import qmodel
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
    from . import multiparty
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


def _cmd_table(view, args) -> tuple[dict, int]:
    """Every table verb: the table's one verdict, the verb's ``view`` of it, exit 0 iff it is feasible."""
    ct, pt = decode_bipartite_table(_read_payload(args.input))
    ns_report = check_no_signaling(pt, tol=args.tol) if pt is not None else None
    verdict = ri.classify(ct, tol=args.tol, no_signaling=ns_report)
    return view(verdict), 0 if verdict.ri_feasible else 1


def _cmd_pr_demo(args) -> tuple[dict, int]:
    return ri.pr_box_demo(), 0


def _cmd_simulate(args) -> tuple[dict, int]:
    from . import qmodel
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
    mom = qmodel.moments(sc)
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
            "a": qmodel.schrodinger_robertson_check(sc, "a", tol=args.tol),
            "b": qmodel.schrodinger_robertson_check(sc, "b", tol=args.tol),
        },
    }
    return out, 0


def _cmd_quantum_bound(args) -> tuple[dict, int]:
    from . import qmodel
    sc = decode_scenario(_read_payload(args.input))
    res = qmodel.quantum_tlm_check(sc, tol=args.tol)
    res["eta_bound"] = qmodel.tsirelson_eta_bound(sc, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_chsh_r_tradeoff(args) -> tuple[dict, int]:
    from . import qmodel
    sc = decode_scenario(_read_payload(args.input))
    res = qmodel.chsh_r_tradeoff_check(sc, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_monogamy(args) -> tuple[dict, int]:
    from . import multiparty
    payload = _read_payload(args.input)
    if "chsh_ab" in payload:
        b_ab = _float(payload, "chsh_ab")
        b_ac = _float(payload, "chsh_ac")
    else:
        tct = decode_tripartite_table(payload)
        b_ab = float(chsh_combination(tct.pearson_ab))
        b_ac = float(chsh_combination(tct.pearson_ac))
    res = multiparty.monogamy_check(b_ab, b_ac, tol=args.tol)
    res["chsh_ab"] = b_ab
    res["chsh_ac"] = b_ac
    return res, 0 if res["pass_sq"] and res["pass_abs"] else 1


def _cmd_nparty(args) -> tuple[dict, int]:
    from . import multiparty
    npc, r_prime = decode_nparty(_read_payload(args.input))
    res = multiparty.nparty_bound_check(npc, r_prime, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _cmd_zeta_bound(args) -> tuple[dict, int]:
    from . import multiparty
    tct = decode_tripartite_table(_read_payload(args.input))
    ctx1, ctx2 = (tuple(_numbers(c, int, "contexts")) for c in (args.context, args.context2))
    if not all(len(c) == 2 and set(c) <= {0, 1} for c in (ctx1, ctx2)):
        raise MalformedInputError("contexts must be 'l,k' pairs of settings 0 or 1")
    res = multiparty.zeta_bound_check(tct, ctx1=ctx1, ctx2=ctx2, tol=args.tol)
    return res, 0 if res["pass"] else 1


def _opt_config(args):
    """``OptConfig`` from the search flags given; a flag left out keeps ``OptConfig``'s default."""
    from .optimizer import OptConfig
    return OptConfig(**{k: getattr(args, k) for k in ("restarts", "max_evals", "seed") if hasattr(args, k)})


def _cmd_optimize(args) -> tuple[dict, int]:
    from . import optimizer
    res = optimizer.maximize(optimizer.chsh_objective, _opt_config(args))
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
    from . import optimizer
    etas = _numbers(args.etas, float, "--etas")
    pts = optimizer.trace_eta_curve(etas, _opt_config(args))
    return {"points": pts}, 0


# verb -> (handler, reads a payload: takes --input and --tol); the order is the --help order
_VERB_TABLE = {
    "classify": (partial(_cmd_table, ri.Verdict.to_json_dict), True),
    "ri-intervals": (partial(_cmd_table, ri.Verdict.ri_intervals_view), True),
    "tlm-check": (partial(_cmd_table, ri.Verdict.tlm_view), True),
    "epsilon": (partial(_cmd_table, ri.Verdict.epsilon_view), True),
    "pr-demo": (_cmd_pr_demo, False),
    "simulate": (_cmd_simulate, True),
    "quantum-bound": (_cmd_quantum_bound, True),
    "chsh-r-tradeoff": (_cmd_chsh_r_tradeoff, True),
    "monogamy": (_cmd_monogamy, True),
    "nparty": (_cmd_nparty, True),
    "zeta-bound": (_cmd_zeta_bound, True),
    "optimize": (_cmd_optimize, False),
    "eta-curve": (_cmd_eta_curve, False),
    "geometry": (partial(_cmd_table, ri.Verdict.geometry_view), True),
}

VERBS = tuple(_VERB_TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellri",
        description="Classify correlation data against locality, quantum, and "
        "shared-uncertainty feasibility bounds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, reads_payload) in _VERB_TABLE.items():
        p = sub.add_parser(verb)
        if reads_payload:
            p.add_argument("--input", default="-", help="JSON file path, or - for stdin")
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None, help="also write the JSON result here")
        if verb in ("optimize", "eta-curve"):      # one default per knob: OptConfig's, in the handler
            p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
            p.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
            p.add_argument("--max-evals", type=int, default=argparse.SUPPRESS, dest="max_evals")
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
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
            raise MalformedInputError("tol must be positive and finite")
        payload, code = _VERB_TABLE[args.verb][0](args)
        text = json.dumps(payload, indent=2)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise MalformedInputError(f"cannot write output {args.out!r}: {exc}") from exc
    except BellRIError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:             # reader gone (`| head`): the rest goes to null
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return code


if __name__ == "__main__":
    sys.exit(main())
