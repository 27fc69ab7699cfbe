"""The four benchmark workloads: seeded inputs, one closed-loop op, output checks.

Inputs are generated with NumPy alone, from the seed, before any timing
starts; bellri only ever sees the generated payloads and arrays. Every op
returns the names of the checks its outputs failed (empty when correct), and
an op with any failed check counts as failed, unless each of them is one of
the ``KNOWN_DEFECTS``.

In-process workloads call names exported from ``bellri`` plus the
``bellri.cli`` decoders the verb handlers use, looked up at call time so a
traced run sees its wrappers. ``cli-cold`` runs ``python -m bellri.cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

SQRT8 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Input generation (NumPy only)
# ---------------------------------------------------------------------------


def _schedule(rng, weights: dict, size: int) -> list[str]:
    """Kinds in exact proportion to ``weights`` (largest remainder), shuffled.

    Exact shares keep the op mix, and so the percentiles, the same across seeds.
    """
    total = sum(weights.values())
    counts = {k: size * w // total for k, w in weights.items()}
    by_remainder = sorted(weights, key=lambda k: -(size * weights[k] % total))
    for k in by_remainder[: size - sum(counts.values())]:
        counts[k] += 1
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    return kinds


def _numbered(kinds: list[str]) -> list[tuple[str, int]]:
    """Each kind with its ordinal among the ops of that kind.

    The n-th op of a kind takes the n-th entry of that kind's fixed cycle of
    sizes, so a pool holds the same sizes, in other orders, for every seed.
    """
    seen = Counter()
    numbered = []
    for kind in kinds:
        numbered.append((kind, seen[kind]))
        seen[kind] += 1
    return numbered


def _dims_cycle(top: int) -> list[tuple[int, int]]:
    """Every pair of party dims 2..top, in one fixed order for every seed."""
    pairs = [(a, b) for a in range(2, top + 1) for b in range(2, top + 1)]
    return [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]


_DIMS = {"pure": _dims_cycle(16), "mixed": _dims_cycle(8)}
# outcome counts of the probability tables: two outcomes each in 10 of 13
_PROB_SHAPES = ((2, 3), (3, 2), (3, 3)) + ((2, 2),) * 10


def _tangent_pearson(rng) -> list:
    """Pearson table whose two admissible r' intervals touch at one point.

    With rho = cos(x), cos(y) the interval of one remote setting is
    [cos(x + y), cos(x - y)]; the second setting's angles sum to |a - b|,
    so its lower end is exactly the first interval's upper end.
    """
    a, b = rng.uniform(0.0, math.pi, size=2)
    s = abs(a - b)
    x = rng.uniform(0.0, s)
    return [[math.cos(a), math.cos(x)], [math.cos(b), math.cos(s - x)]]


# each malformed payload is one a user could send; all must raise BellRIError
_MALFORMED = (
    {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1]}},
    {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1],
                       "p": [[[[0.5, 0.5], [0.5, 0.5]]] * 2] * 2}},
    {"pearson": [[1.5, 0.0], [0.0, 0.0]]},
    {"pearson": [[0.5, 0.1], [0.2, 0.3], [0.0, 0.0]]},
    {"pearson": [[0.5, 0.1], [0.2]]},
    {"pearson": [[0.5, "x"], [0.2, 0.3]]},
    {"ensemble": {"weights": [0.5] * 16}},
    {"values": [1, 2]},
    {"scenario": "tripartite", "pearson_ab": [[0.1, 0.2], [0.3, 0.4]],
     "pearson_ac": [[0.1, 0.2], [0.3, 0.4]], "pearson_bc": [[0.5, 0.0], [0.0, 0.0]]},
)

# Failed checks that are defects of bellri when the benchmark was added, each
# named in the narrow form in which it shows (three are ROADMAP item 4's). An
# op whose only failed checks are these is counted under ``known_defects`` in
# the report line, not as a failed op; any other failed check fails the op.
# When a defect is fixed its count drops to 0, and its entry can go.
KNOWN_DEFECTS = {
    "feasible_with_epsilon_above_0":
        "ROADMAP item 4: classify reports ri_feasible=True while epsilon_gap > 0 "
        "(tangent tables, epsilon about 1e-16)",
    "malformed_raises_bare_value_error":
        "ROADMAP item 4: the decoders raise a bare ValueError, not BellRIError, "
        "on a 3x2 table, a ragged row and a string entry",
    "local_but_infeasible_without_box":
        "classify reports local=True and ri_feasible=False on a table that no "
        "no-signalling +-1 box produces (it signals, or its means and correlators "
        "imply a negative probability); `local` tests only the CHSH facets of the "
        "raw correlators, and the table is accepted without a check (ROADMAP north "
        "star: verdicts never contradict each other)",
    "classify_0_epsilon_1":
        "ROADMAP item 4: `bellri epsilon` exits 1 where `bellri classify` exits 0 "
        "on the same tangent table",
}

TABLE_MIX = {
    "pearson": 30, "pearson_moments": 8, "probabilities": 14, "ensemble": 14,
    "pr_box": 2, "tangent": 14, "tripartite": 12, "malformed": 6,
}


def make_table(rng, kind: str, nth: int) -> dict:
    """The ``nth`` table of this kind, as a JSON payload."""
    if kind == "pearson":
        return {"scenario": "bipartite", "pearson": rng.uniform(-1, 1, (2, 2)).tolist()}
    if kind == "pearson_moments":
        m = rng.uniform(-0.5, 0.5, size=4)
        return {
            "pearson": rng.uniform(-1, 1, (2, 2)).tolist(),
            "means": {"a": m[:2].tolist(), "b": m[2:].tolist()},
            "variances": {"a": (1 - m[:2] ** 2).tolist(), "b": (1 - m[2:] ** 2).tolist()},
        }
    if kind == "probabilities":
        na, nb = _PROB_SHAPES[nth % len(_PROB_SHAPES)]
        oa = [-1.0, 1.0] if na == 2 else sorted(rng.uniform(-2, 2, na).tolist())
        ob = [-1.0, 1.0] if nb == 2 else sorted(rng.uniform(-2, 2, nb).tolist())
        p = rng.dirichlet(np.ones(na * nb), size=(2, 2)).reshape(2, 2, na, nb)
        return {"probabilities": {"outcomes_a": oa, "outcomes_b": ob, "p": p.tolist()}}
    if kind == "ensemble":
        return {"ensemble": {"weights": rng.dirichlet(np.full(16, rng.uniform(0.2, 2.0))).tolist()}}
    if kind == "pr_box":
        return {"scenario": "bipartite", "name": "pr-box"}
    if kind == "tangent":
        return {"scenario": "bipartite", "pearson": _tangent_pearson(rng)}
    if kind == "tripartite":
        return {
            "scenario": "tripartite",
            "pearson_ab": rng.uniform(-0.7, 0.7, (2, 2)).tolist(),
            "pearson_ac": rng.uniform(-0.7, 0.7, (2, 2)).tolist(),
            "pearson_bc": [[0.0, 0.0], [0.0, 0.0]],
        }
    if kind == "malformed":
        return _MALFORMED[nth % len(_MALFORMED)]
    raise ValueError(kind)


def _is_box(ct, pt, ns) -> bool:
    """Whether a no-signalling box with +-1 outcomes has these statistics.

    That is the premise under which ``local`` implies ``ri_feasible``.
    """
    if pt is not None and not (ns["pass"] and set(pt.outcomes_a) | set(pt.outcomes_b) <= {-1.0, 1.0}):
        return False
    ma, mb = ct.means_a[:, None], ct.means_b[None, :]
    e = ct.cov + ma * mb
    return all(np.all(1 + a * ma + b * mb + a * b * e >= -1e-9) for a in (-1, 1) for b in (-1, 1))


def _hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def _pure_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _bloch(rng) -> np.ndarray:
    """Traceless +-1 qubit observable n . sigma with a uniform random axis."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(-math.pi, math.pi)
    r = math.sqrt(1.0 - z * z)
    x, y = r * math.cos(phi), r * math.sin(phi)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]])


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _max_entangled(rng) -> np.ndarray:
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.kron(_unitary(rng, 2), _unitary(rng, 2)) @ phi


def _uncorrelated_bc_state(rng) -> np.ndarray:
    """Three-qubit density with a fully mixed Bob-Charlie marginal.

    A mix of (entangled AB) x (mixed C) and (entangled AC) x (mixed B): every
    one-party marginal is fully mixed, so traceless Bob and Charlie
    observables have zero covariance while both correlate with Alice.
    """
    ab = _max_entangled(rng)
    ac = _max_entangled(rng)
    w = rng.uniform(0.1, 0.9)
    rho_ab = np.kron(np.outer(ab, ab.conj()), np.eye(2) / 2.0)
    r = np.outer(ac, ac.conj()).reshape(2, 2, 2, 2)            # (a, c, a', c')
    rho_ac = np.einsum("acxz,bB->abcxBz", r, np.eye(2) / 2.0).reshape(8, 8)
    return w * rho_ab + (1.0 - w) * rho_ac


SCENARIO_MIX = {"pure": 60, "mixed": 30, "tripartite": 5, "nparty": 5}


def make_scenario(rng, kind: str, nth: int, max_dim: int = 16) -> dict:
    """Raw arrays for the ``nth`` audit op of this kind.

    Party dims cycle through every pair up to 16 (pure) or 8 (mixed), skipping
    pairs above ``max_dim``. The n-th n-party op composes 2 + n % 7 two-qubit
    pairs, so n cycles through 2..8.
    """
    if kind in ("pure", "mixed"):
        dims = [d for d in _DIMS[kind] if max(d) <= max_dim]
        da, db = dims[nth % len(dims)]
        state = _pure_state(rng, da * db) if kind == "pure" else _density(rng, da * db)
        return {"dims": (da, db), "state": state,
                "alice": (_hermitian(rng, da), _hermitian(rng, da)),
                "bob": (_hermitian(rng, db), _hermitian(rng, db))}
    if kind == "tripartite":
        return {"dims": (2, 2, 2), "state": _uncorrelated_bc_state(rng),
                "alice": (_bloch(rng), _bloch(rng)), "bob": (_bloch(rng), _bloch(rng)),
                "charlie": (_bloch(rng), _bloch(rng))}
    if kind == "nparty":
        return {"pairs": [
            {"dims": (2, 2), "state": _pure_state(rng, 4),
             "alice": (_bloch(rng), _bloch(rng)), "bob": (_bloch(rng), _bloch(rng))}
            for _ in range(2 + nth % 7)
        ]}
    raise ValueError(kind)


def _complex_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One closed-loop client: ``run_op(k)`` is its k-th call.

    ``ops_per_round`` calls form one round, which does the same work every
    time; a run stops only at a round end.
    ``tracer`` is set during a traced phase, for spans the benchmark records
    itself around calls into a layer.
    """

    ops_per_round = 1
    tracer = None
    warm_up_imports = False     # whether warm_up imports bellri in a fresh process

    def __init__(self, br, cli, root, seed: int):
        self.br, self.cli, self.root, self.seed = br, cli, root, seed

    def _span(self, layer: str, key: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer, key)

    def _relabel(self, key: str, tag: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.relabel(key, tag)

    def warm_up(self) -> None:
        for k in range(self.warm_up_ops):
            self.run_op(k)

    def traced_ops(self) -> int:
        """Number of calls in one traced (and one matching untraced) phase."""
        return self.pool_size

    def kind(self, k: int) -> str:
        """The kind of op of the k-th call, for the per-kind latencies."""
        return self.pool[k % self.pool_size][0]


class TableTriage(Workload):
    """Decode a JSON table and run the verb handlers' library calls on it."""

    name = "table-triage"
    pool_size = ops_per_round = 2048     # a round is one pass over the pool
    warm_up_ops = 256

    def __init__(self, br, cli, root, seed):
        super().__init__(br, cli, root, seed)
        rng = np.random.default_rng([seed, 1])
        self.pool = [(kind, json.dumps(make_table(rng, kind, nth)))
                     for kind, nth in _numbered(_schedule(rng, TABLE_MIX, self.pool_size))]

    def _bipartite(self, payload: dict) -> list[str]:
        br = self.br
        ct, pt = self.cli.decode_bipartite_table(payload)
        ns = br.check_no_signaling(pt) if pt is not None else None
        verdict = br.classify(ct, no_signaling=ns)
        feas = br.ri_feasible_bipartite(ct)
        tlm = br.tlm_check(ct)
        eps = br.epsilon_gap(ct)
        self.output = json.dumps({
            "classify": verdict.to_json_dict(),
            "ri_intervals": {"intervals": [iv.to_json_dict() for iv in feas.intervals],
                             "feasible": feas.ri_feasible},
            "tlm_check": {"pass": tlm.passed, "chsh": br.chsh(ct)},
            "epsilon": eps,
        })
        bad = []
        if verdict.local and not verdict.ri_feasible:
            bad.append("local_implies_feasible" if _is_box(ct, pt, ns)
                       else "local_but_infeasible_without_box")
        if not (verdict.ri_feasible == verdict.quantum_compatible == tlm.passed == feas.ri_feasible):
            bad.append("feasible_iff_bound")
        if (eps == 0.0) != verdict.ri_feasible:
            bad.append("feasible_with_epsilon_above_0" if verdict.ri_feasible
                       else "epsilon_zero_iff_feasible")
        return bad

    def _tripartite(self, payload: dict) -> list[str]:
        res = self.br.tripartite_r_intervals(self.cli.decode_tripartite_table(payload))
        self.output = json.dumps(res.to_json_dict())
        if res.common_r is not None and not all(iv.contains(res.common_r) for iv in res.intervals):
            return ["common_r_in_every_interval"]
        return []

    def run_op(self, k: int) -> list[str]:
        kind, text = self.pool[k % self.pool_size]
        payload = json.loads(text)
        handler = self._tripartite if payload.get("scenario") == "tripartite" else self._bipartite
        if kind != "malformed":
            return handler(payload)
        try:
            handler(payload)
        except self.br.BellRIError:
            return []
        except ValueError as exc:
            if type(exc) is ValueError:
                return ["malformed_raises_bare_value_error"]
            return ["malformed_raises_bellri_error"]
        except Exception:
            return ["malformed_raises_bellri_error"]
        return ["malformed_raises_bellri_error"]


class ScenarioAudit(Workload):
    """Build a quantum scenario from raw arrays and verify the paper's bounds on it."""

    name = "scenario-audit"
    pool_size = ops_per_round = 512     # a round is one pass over the pool
    warm_up_ops = 64

    def __init__(self, br, cli, root, seed):
        super().__init__(br, cli, root, seed)
        rng = np.random.default_rng([seed, 2])
        self.pool = [(kind, make_scenario(rng, kind, nth))
                     for kind, nth in _numbered(_schedule(rng, SCENARIO_MIX, self.pool_size))]
        self.bipartite_ops = 0
        self.bipartite_moments_calls = 0

    def _build(self, spec: dict, tag: str):
        br = self.br
        with self._span("qmodel", f"qmodel.scenario_build.{tag}"):
            obs = {
                key: tuple(br.Observable(m) for m in spec[party])
                for key, party in (("alice_obs", "alice"), ("bob_obs", "bob"), ("charlie_obs", "charlie"))
                if party in spec
            }
            return br.QuantumScenario(dims=spec["dims"], state=spec["state"], **obs)

    def _moments_calls(self) -> int:
        t = self.tracer
        return t.count("qmodel.moments.pure") + t.count("qmodel.moments.mixed")

    def run_op(self, k: int) -> list[str]:
        br = self.br
        kind, spec = self.pool[k % self.pool_size]
        if kind == "nparty":
            # the two-qubit pairs are tagged apart from the bipartite audit scenarios
            with self._relabel("qmodel.moments", "pair"):
                pairs = [br.moments(self._build(p, "pair")) for p in spec["pairs"]]
            npc, r_prime = br.nparty_from_pairs(pairs)
            return [] if br.nparty_bound_check(npc, r_prime)["pass"] else ["nparty_bound"]
        sc = self._build(spec, kind)
        if kind == "tripartite":
            tct = br.tripartite_moments(sc).to_table()
            res = br.tripartite_r_intervals(tct)
            return [] if res.common_r is not None else ["tripartite_common_r"]
        before = self._moments_calls() if self.tracer is not None else 0
        mom = br.moments(sc)
        verdict = br.classify(br.to_correlator_table(mom))
        bad = []
        if not br.quantum_tlm_check(sc)["pass"]:
            bad.append("quantum_tlm_bound")
        if not br.tsirelson_eta_bound(sc)["pass"]:
            bad.append("tsirelson_eta_bound")
        if not br.is_psd(br.quantum_cov_matrix(sc, k % 2)):
            bad.append("quantum_cov_psd")
        if not (verdict.quantum_compatible and verdict.ri_feasible):
            bad.append("quantum_data_feasible")
        if self.tracer is not None:
            self.bipartite_ops += 1
            self.bipartite_moments_calls += self._moments_calls() - before
        return bad


class ChshSearch(Workload):
    """Acceptance-01 CHSH search, then a two-target eta curve (acceptance-04 config)."""

    name = "chsh-search"
    ops_per_round = 2       # solve, then curve
    etas = (0.5, 0.9)

    def __init__(self, br, cli, root, seed):
        super().__init__(br, cli, root, seed)
        self.solve_config = br.OptConfig(24, 2500, seed)
        self.curve_config = br.OptConfig(16, 1800, seed)
        self.evals = 0
        self.solve_evals = 0
        self.solve_s = []
        self.curve_s = []
        self.restarts_at_ceiling = 0
        self.objective_s = 0.0

    def warm_up(self) -> None:
        self.br.maximize(self.br.chsh_objective, self.br.OptConfig(1, 300, self.seed))

    def traced_ops(self) -> int:
        return 2

    def kind(self, k: int) -> str:
        return "curve" if k % 2 else "solve"

    def run_op(self, k: int) -> list[str]:
        br = self.br
        start = time.perf_counter()
        if k % 2 == 0:
            obj_before = self.tracer.total("optimizer.chsh_objective") if self.tracer else 0.0
            res = br.maximize(br.chsh_objective, self.solve_config)
            self.solve_s.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.objective_s = self.tracer.total("optimizer.chsh_objective") - obj_before
            self.evals += res.evaluations
            self.solve_evals = res.evaluations
            self.restarts_at_ceiling = sum(v >= SQRT8 - 1e-6 for v in res.trace)
            bad = []
            if res.best_value < SQRT8 - 1e-6:
                bad.append("ceiling_reached")
            if res.trajectory_max > SQRT8 + 1e-9:
                bad.append("ceiling_never_crossed")
            return bad
        pts = br.trace_eta_curve(list(self.etas), self.curve_config)
        self.curve_s.append(time.perf_counter() - start)
        self.evals += sum(p["evaluations"] for p in pts)
        ok = len(pts) == len(self.etas) and all(
            p["feasible"] and abs(p["max_chsh"] - SQRT8 * math.sqrt(1.0 - p["eta"] ** 2)) <= 5e-3
            for p in pts
        )
        return [] if ok else ["eta_curve_point"]


class CliCold(Workload):
    """One fresh ``python -m bellri.cli <verb>`` child per op, verbs in rotation."""

    name = "cli-cold"
    verbs = ("classify", "epsilon", "tlm-check", "ri-intervals", "geometry",
             "simulate", "quantum-bound", "pr-demo")
    table_verbs = ("classify", "epsilon", "tlm-check", "ri-intervals", "geometry")
    rotations = 64
    replay_rotations = 4
    # eight rotations: every run has the same number of pr-demo calls, so the
    # p90 and p99, which fall among them, sit at the same ranks in every run
    ops_per_round = 8 * len(verbs)
    warm_up_imports = True

    def __init__(self, br, cli, root, seed):
        super().__init__(br, cli, root, seed)
        rng = np.random.default_rng([seed, 3])
        well_formed = {k: v for k, v in TABLE_MIX.items() if k not in ("tripartite", "malformed")}
        self.tables = [json.dumps(make_table(rng, kind, nth))
                       for kind, nth in _numbered(_schedule(rng, well_formed, self.rotations))]
        self.scenarios = []
        for kind, nth in _numbered(_schedule(rng, {"pure": 1, "mixed": 1}, self.rotations)):
            spec = make_scenario(rng, kind, nth, max_dim=4)
            self.scenarios.append(json.dumps({
                "dims": list(spec["dims"]),
                "state": _complex_json(spec["state"]),
                "alice_obs": [_complex_json(m) for m in spec["alice"]],
                "bob_obs": [_complex_json(m) for m in spec["bob"]],
            }))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.classify_code = None
        self.replay = False

    def _call(self, k: int) -> tuple[str, list[str], str | None]:
        rotation, slot = divmod(k, len(self.verbs))
        verb = self.verbs[slot]
        r = rotation % self.rotations
        if verb in self.table_verbs:
            return verb, [verb, "--input", "-"], self.tables[r]
        if verb in ("simulate", "quantum-bound"):
            return verb, [verb, "--input", "-"], self.scenarios[r]
        return verb, [verb], None

    def child(self, argv: list[str], stdin: str | None, extra=()) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *extra, "-m", "bellri.cli", *argv],
            input=stdin or "", capture_output=True, text=True,
            cwd=self.root, env=self.env, timeout=120,
        )

    def _in_process(self, argv: list[str], stdin: str | None) -> tuple[int, str]:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def warm_up(self) -> None:
        # the first child writes bellri's bytecode cache; later ones read it
        verb, argv, stdin = self._call(0)
        self.child(argv, stdin)

    def traced_ops(self) -> int:
        return self.replay_rotations * len(self.verbs)

    def kind(self, k: int) -> str:
        return self.verbs[k % len(self.verbs)]

    def run_op(self, k: int) -> list[str]:
        verb, argv, stdin = self._call(k)
        bad = []
        if self.replay:
            code, stdout = self._in_process(argv, stdin)
        else:
            proc = self.child(argv, stdin)
            code, stdout = proc.returncode, proc.stdout
            if "Traceback" in proc.stderr:
                bad.append("no_traceback")
        if code not in (0, 1, 2):
            bad.append("exit_code_0_1_2")
        elif code != 2:
            try:
                json.loads(stdout)
            except ValueError:
                bad.append("stdout_is_json")
        if verb == "classify":             # epsilon runs next, on the same table
            self.classify_code = code
        elif verb == "epsilon" and code != self.classify_code:
            bad.append("classify_0_epsilon_1" if (self.classify_code, code) == (0, 1)
                       else "classify_epsilon_same_exit_code")
        return bad

    def import_times_ms(self, repeats: int = 3) -> tuple[float, float]:
        """Median (numpy, bellri-without-numpy) cumulative import times from -X importtime."""
        numpy_ms, bellri_ms = [], []
        for _ in range(repeats):
            proc = self.child(["classify", "--input", "-"], self.tables[0], extra=("-X", "importtime"))
            cum = {}
            for line in proc.stderr.splitlines():
                if line.startswith("import time:") and line.count("|") == 2:
                    _, c, name = line.split("|")
                    if c.strip().isdigit():
                        cum[name.strip()] = int(c) / 1000.0
            numpy_ms.append(cum.get("numpy", 0.0))
            bellri_ms.append(cum.get("bellri", 0.0) - cum.get("numpy", 0.0))
        return statistics.median(numpy_ms), statistics.median(bellri_ms)


WORKLOADS = {w.name: w for w in (TableTriage, ScenarioAudit, ChshSearch, CliCold)}
