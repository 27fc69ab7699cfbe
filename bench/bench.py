"""bellri benchmark: four seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/bench.py --workload table-triage --seed 0 --seconds 15 --trace 0
    python3 bench/bench.py --workload all --seed 0      # summary table of all four

One process drives one client; each call starts only when the previous one
returned. ``--trace 0`` measures the end-to-end metrics with nothing
installed in bellri. ``--trace 1`` runs a fixed amount of the same work
twice, untraced then traced (``tracer.py`` wraps every layer's public
functions), and reports the per-layer metrics plus the tracing overhead.

The metric names and units come from BENCHMARK.json at the repository root.
Standard output ends with a report line (context, sample counts, failed
checks, the workload-specific figures, and for each per-layer metric the
end-to-end metric it is expected to move) and then the result line.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# children cache bellri's bytecode, as an installed CLI does, whatever the caller set
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

# which end-to-end metric, on which workload, each per-layer metric should move
MOVES = {
    "linalg": "scenario-audit op_p99_ms and ops_per_s (n-party tail); cli-cold op_p99_ms and "
              "op_p90_ms (report line) via pr-demo; not table-triage or chsh-search",
    "qmodel": "scenario-audit op_p50_ms; chsh-search op_p50_ms (solve) and op_p99_ms (curve); "
              "not table-triage",
    "optimizer": "chsh-search op_p50_ms (solve), op_p99_ms (curve) and ops_per_s",
    "ri": "table-triage ops_per_s and op_p50_ms; scenario-audit op_p50_ms a little; "
          "not chsh-search or cli-cold",
    "multiparty": "scenario-audit op_p99_ms",
    "cli": "cli-cold op_p50_ms, op_p99_ms and op_p90_ms (report line); decoders also "
           "table-triage op_p50_ms",
    "trace": "nothing in bellri: the cost of the tracer itself",
}
MOVES["correlators"] = MOVES["lhv"] = MOVES["ri"]


@dataclass
class Loop:
    """Latencies and check results of one closed-loop phase.

    Latencies are kept as packed doubles, 8 bytes a call, so the benchmark's
    own bookkeeping adds little to the peak RSS when the program gets faster.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    wall: float = 0.0
    failed: int = 0
    known: int = 0
    checks: Counter = field(default_factory=Counter)
    setups: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def e2e(self, round_ops: int) -> dict:
        """Throughput and nearest-rank latency percentiles (ms), median over rounds.

        Every round of ``round_ops`` calls does the same work, so each figure
        is the median over rounds of that round's figure: a burst of stalls
        from other tenants of the machine moves a few rounds, not the result.
        Fewer calls than one round are taken as one round.
        """
        lat = np.array(self.latencies)
        n = lat.size // round_ops
        rounds = lat[: n * round_ops].reshape(n, round_ops) if n else lat[None, :]
        ops_per_s = rounds.shape[1] / float(np.median(rounds.sum(axis=1)))
        pct = np.median(np.percentile(rounds, [50, 90, 99], axis=1, method="inverted_cdf"), axis=1)
        p50, p90, p99 = (float(v) * 1e3 for v in pct)
        return {"ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": p90, "op_p99_ms": p99}

    def by_kind(self, kind_of) -> dict:
        """Share of the calls and median latency of each kind of op."""
        lat = np.array(self.latencies)
        kinds = np.array([kind_of(k) for k in range(lat.size)])
        out = {}
        for kind in sorted(set(kinds)):
            mine = lat[kinds == kind]
            out[kind] = {"share": mine.size / lat.size, "samples": mine.size,
                         "p50_ms": float(np.percentile(mine, 50, method="inverted_cdf")) * 1e3}
        return out


def run_loop(wl, *, n_ops: int | None = None, seconds: float | None = None, setup=None) -> Loop:
    """Call ``wl.run_op`` back to back for ``n_ops`` calls or about ``seconds``.

    With a time limit the loop stops only at a round end, after at least one
    round, once another round would end past the limit. ``setup``, if given,
    is called SETUP_REPEATS times between calls, spread evenly over
    ``seconds`` (any left are called at the end), so the set-up times sample
    the machine's speed over the whole run; the loop's clock stops meanwhile.
    """
    loop = Loop()
    begin = round_start = time.perf_counter()
    deadline = None if seconds is None else begin + seconds

    def set_up_while_due(until: float) -> None:
        nonlocal begin, round_start, deadline
        while setup is not None and len(loop.setups) < SETUP_REPEATS and \
                time.perf_counter() - begin >= len(loop.setups) * until / SETUP_REPEATS:
            t = time.perf_counter()
            loop.setups.append(setup())
            paused = time.perf_counter() - t
            begin, round_start, deadline = begin + paused, round_start + paused, deadline + paused

    k = 0
    while True:
        set_up_while_due(seconds)
        t0 = time.perf_counter()
        try:
            bad = wl.run_op(k)
        except Exception as exc:        # an op that crashes is a failed op; keep measuring
            if not loop.checks:
                traceback.print_exc(file=sys.stderr)
            bad = [f"raised_{type(exc).__name__}"]
        loop.latencies.append(time.perf_counter() - t0)
        if bad:
            loop.checks.update(bad)
            if set(bad) <= workloads.KNOWN_DEFECTS.keys():
                loop.known += 1
            else:
                loop.failed += 1
        k += 1
        if n_ops is not None and k >= n_ops:
            break
        if k % wl.ops_per_round == 0:
            now = time.perf_counter()
            last_round, round_start = now - round_start, now
            if deadline is not None and now + last_round > deadline:
                break
    loop.wall = time.perf_counter() - begin
    set_up_while_due(0.0)
    return loop


def context(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(wl, t: Tracer, untraced: Loop, traced: Loop, evals: int) -> tuple[dict, dict]:
    """Per-layer values, and the number of spans behind each median."""
    m, samples = {}, {}

    def median(name: str, scale: float, *keys: str) -> None:
        m[name] = t.median(*keys) * scale
        samples[name] = sum(t.count(k) for k in keys)

    for n in (3, 4, 6, 10):
        median(f"linalg.is_psd_us.n{n}", 1e6, f"linalg.is_psd.n{n}")
    m["linalg.is_psd_calls"] = sum(t.count(k) for k in t.keys_with_prefix("linalg.is_psd.n"))
    median("linalg.schur_complement_us", 1e6, "linalg.schur_complement")
    for tag in ("pure", "mixed"):
        median(f"qmodel.scenario_build_us.{tag}", 1e6, f"qmodel.scenario_build.{tag}")
        median(f"qmodel.moments_us.{tag}", 1e6, f"qmodel.moments.{tag}")
    median("qmodel.tripartite_moments_us", 1e6, "qmodel.tripartite_moments")
    bip = getattr(wl, "bipartite_ops", 0)
    m["qmodel.moments_calls_per_scenario"] = wl.bipartite_moments_calls / bip if bip else 0
    samples["qmodel.moments_calls_per_scenario"] = bip
    solve_evals = getattr(wl, "solve_evals", 0)
    m["optimizer.evals"] = evals
    median("optimizer.objective_us", 1e6, "optimizer.chsh_objective")
    m["optimizer.overhead_us_per_eval"] = (
        (wl.solve_s[-1] - wl.objective_s) / solve_evals * 1e6 if solve_evals else 0.0
    )
    samples["optimizer.overhead_us_per_eval"] = solve_evals
    m["optimizer.degenerate_hits"] = t.errors[("qmodel.moments", "DegenerateScenarioError")]
    m["optimizer.restarts_at_ceiling"] = getattr(wl, "restarts_at_ceiling", 0)
    for name, key in (("ri.classify_us", "ri.classify"),
                      ("ri.ri_feasible_us", "ri.ri_feasible_bipartite"),
                      ("ri.tlm_check_us", "ri.tlm_check"),
                      ("ri.epsilon_gap_us", "ri.epsilon_gap"),
                      ("ri.tripartite_r_intervals_us", "ri.tripartite_r_intervals"),
                      ("correlators.from_pearson_us", "correlators.from_pearson"),
                      ("correlators.from_probability_table_us", "correlators.from_probability_table"),
                      ("lhv.correlators_of_us", "lhv.correlators_of"),
                      ("lhv.is_local_us", "lhv.is_local"),
                      ("multiparty.nparty_bound_check_us", "multiparty.nparty_bound_check"),
                      ("multiparty.nparty_from_pairs_us", "multiparty.nparty_from_pairs"),
                      ("cli.build_parser_us", "cli.build_parser")):
        median(name, 1e6, key)
    m["cli.import_numpy_ms"], m["cli.import_bellri_ms"] = getattr(wl, "import_ms", (0.0, 0.0))
    median("cli.decode_us", 1e6, "cli.decode_bipartite_table", "cli.decode_tripartite_table",
           "cli.decode_scenario")
    median("cli.verb_ms.classify", 1e3, "cli.main.classify")
    median("cli.verb_ms.pr-demo", 1e3, "cli.main.pr-demo")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.self_s[layer]
        m[f"{layer}.calls"] = t.calls[layer]
    m["trace.overhead_pct"] = (traced.wall / untraced.wall - 1.0) * 100.0
    m["trace.op_p50_ms_delta"] = (traced.e2e(wl.ops_per_round)["op_p50_ms"]
                                  - untraced.e2e(wl.ops_per_round)["op_p50_ms"])
    return m, samples


def import_bellri():
    """``bellri`` and ``bellri.cli`` from the checkout's ``src``, or None if not there."""
    src = ROOT / "src"
    if not (src / "bellri" / "__init__.py").is_file():
        print(f"bench: no bellri package under {src}; run from a repository checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import bellri
    import bellri.cli

    if Path(bellri.__file__).resolve().parent != (src / "bellri").resolve():
        print(f"bench: imported bellri from {bellri.__file__}, not {src}", file=sys.stderr)
        return None
    return bellri, bellri.cli


def set_up_once(name: str, seed: int) -> int:
    """One set-up in this fresh process: import bellri, make the inputs, warm up."""
    imported = import_bellri()
    if imported is None:
        return 2
    workloads.WORKLOADS[name](*imported, ROOT, seed).warm_up()
    return 0


def setup_timer(name: str, seed: int, imported):
    """A function that times one set-up of the workload.

    A set-up is a cold start of Python and of bellri, seeded input generation
    and warm-up: the wall time of a fresh child process that does them, so
    that it can be repeated. cli-cold's set-up runs in this process: its
    warm-up is itself a fresh child that imports bellri, and a set-up child
    of its own would count in its peak RSS.
    """
    cls = workloads.WORKLOADS[name]
    if cls.warm_up_imports:
        def in_process() -> float:
            t = time.perf_counter()
            cls(*imported, ROOT, seed).warm_up()
            return time.perf_counter() - t
        return in_process

    def in_child() -> float:
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, cwd=ROOT, check=True, timeout=120,
        )
        return time.perf_counter() - t
    return in_child


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    imported = import_bellri()
    if imported is None:
        return 2
    bellri = imported[0]
    wl = workloads.WORKLOADS[name](*imported, ROOT, seed)
    wl.warm_up()
    setup = setup_timer(name, seed, imported)
    children = name == "cli-cold"

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "context": context(seed)}
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    if not trace:
        loop = run_loop(wl, seconds=seconds, setup=setup)
        setup_s = statistics.median(loop.setups)
        values = {"setup_s": setup_s, **loop.e2e(wl.ops_per_round), "peak_rss_mb": peak_rss_mb(children)}
        declared = spec["end_to_end"]
        phases = [loop]
        report["op_p90_ms"] = {"value": values["op_p90_ms"], "unit": "ms", "samples": loop.ops}
    else:
        setup_s = statistics.median(setup() for _ in range(SETUP_REPEATS))
        if children:
            wl.import_ms = wl.import_times_ms()
            wl.replay = True            # per-layer figures come from in-process replays
            run_loop(wl, n_ops=len(wl.verbs))   # first in-process calls pay one-time costs
        n_ops = wl.traced_ops()
        untraced = run_loop(wl, n_ops=n_ops)
        tracer = Tracer()
        evals_before = getattr(wl, "evals", 0)
        wl.tracer = tracer
        tracer.install(bellri)
        try:
            traced = run_loop(wl, n_ops=n_ops)
        finally:
            tracer.uninstall()
            wl.tracer = None
        values, span_counts = per_layer(wl, tracer, untraced, traced,
                                        getattr(wl, "evals", 0) - evals_before)
        samples.update(span_counts)
        declared = spec["per_layer"]
        phases = [untraced, traced]
        report["setup_s"] = {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS}
        report["untraced"] = untraced.e2e(wl.ops_per_round)
        report["traced"] = traced.e2e(wl.ops_per_round)
        report["overhead"] = {k: report["traced"][k] - report["untraced"][k] for k in report["traced"]}

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        entry = dict(metrics[m["name"]], samples=samples.get(m["name"], phases[-1].ops))
        if trace:
            entry["moves"] = MOVES[m["name"].split(".")[0]]
        report.setdefault("metrics", {})[m["name"]] = entry
    if name == "chsh-search":
        report["solve_s"] = {"value": statistics.median(wl.solve_s), "unit": "s",
                             "samples": len(wl.solve_s)}
        report["curve_s"] = {"value": statistics.median(wl.curve_s), "unit": "s",
                             "samples": len(wl.curve_s)}
        report["restarts_at_ceiling"] = {"value": wl.restarts_at_ceiling,
                                         "base": wl.solve_config.restarts}
    report["by_kind"] = phases[0].by_kind(wl.kind)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    checks = sum((p.checks for p in phases), Counter())
    report["failed_checks"] = {k: n for k, n in checks.items() if k not in workloads.KNOWN_DEFECTS}
    report["known_defects"] = {
        "ops": sum(p.known for p in phases),
        "checks": {k: {"count": n, "what": workloads.KNOWN_DEFECTS[k]}
                   for k, n in checks.items() if k in workloads.KNOWN_DEFECTS},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int, spec: dict) -> int:
    """Each workload in its own child process, one after another; prints a table."""
    print(f"{'workload':<16}{'metric':<34}{'value':>14}  unit     samples  moves")
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: failed with code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        extra = {k: report[k] for k in ("op_p90_ms", "solve_s", "curve_s") if k in report}
        for metric, e in {**report["metrics"], **extra}.items():
            print(f"{w['name']:<16}{metric:<34}{e['value']:>14.6g}  {e['unit']:<8} "
                  f"{e['samples']:>7}  {e.get('moves', '')}")
        known = {k: v["count"] for k, v in report["known_defects"]["checks"].items()}
        print(f"{w['name']:<16}{'failed/attempted':<34}{result['failed']:>7}/{result['attempted']:<6}"
              f"  checks: {report['failed_checks']}  known defects: {known}")
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return set_up_once(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, spec)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
