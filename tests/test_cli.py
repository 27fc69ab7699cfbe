"""CLI tests: verbs, exit codes, JSON round trips."""

import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellri
from bellri import cli, optimizer
from bellri.cli import (
    VERBS,
    _cmd_eta_curve,
    _cmd_monogamy,
    _cmd_zeta_bound,
    decode_bipartite_table,
    decode_nparty,
    decode_scenario,
    decode_tripartite_table,
    main,
)
from bellri.errors import MalformedInputError
from bellri.optimizer import OptConfig, trace_eta_curve
from bellri.qmodel import tsirelson_scenario
from bellri.ri import tripartite_r_intervals

SQRT2 = math.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def pr_box_payload():
    return {"scenario": "bipartite", "name": "pr-box"}


def tsirelson_payload():
    r = 1.0 / SQRT2
    return {"scenario": "bipartite", "pearson": [[r, r], [r, -r]]}


def scenario_payload():
    sc = tsirelson_scenario()
    def enc(m):
        return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
    return {
        "dims": [2, 2],
        "state": enc(sc.state),
        "alice_obs": [enc(o.matrix) for o in sc.alice_obs],
        "bob_obs": [enc(o.matrix) for o in sc.bob_obs],
    }


def tripartite_payload():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    z = [[1.0, 0.0], [0.0, -1.0]]
    x = [[0.0, 1.0], [1.0, 0.0]]
    return {
        "dims": [2, 2, 2],
        "state": {"re": np.real(psi).tolist(), "im": np.imag(psi).tolist()},
        "alice_obs": [{"re": z}, {"re": x}],
        "bob_obs": [{"re": x}, {"re": z}],
        "charlie_obs": [{"re": z}, {"re": x}],
    }


class TestClassify:
    def test_pr_box_infeasible_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path, "pr.json", pr_box_payload())
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 1
        assert out["local"] is False
        assert out["quantum_compatible"] is False
        assert out["ri_feasible"] is False
        assert out["epsilon"] == pytest.approx(2.0, abs=1e-12)
        assert out["no_signaling"]["pass"]

    def test_tsirelson_feasible_exit_zero(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", tsirelson_payload())
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        assert out["ri_feasible"] and out["quantum_compatible"]
        assert out["local"] is False
        assert out["witness_r"] == pytest.approx(0.0, abs=1e-9)

    def test_ensemble_input_is_local_and_feasible(self, tmp_path, capsys):
        weights = [0.0] * 16
        weights[0b0000] = 0.5
        weights[0b1111] = 0.25
        weights[0b0110] = 0.25
        path = write_json(tmp_path, "ens.json", {"ensemble": {"weights": weights}})
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        assert out["local"] is True
        assert out["ri_feasible"] is True

    @pytest.mark.parametrize("payload", [
        {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [1, 2], "p": [
            [[[1e-07, 0], [0, 0.9999999]], [[0.25, 0.25], [0.25, 0.25]]],
            [[[0.25, 0.25], [0.25, 0.25]], [[0.25, 0.25], [0.25, 0.25]]]]}},
        {"ensemble": {"weights": [0.0, 0.0, 0.0, 1.2240673206856076e-09, 1.8943298562366277e-06, 0.0,
                                  0.9983910499527956, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                  0.001607054493280928, 0.0]}},
    ])
    def test_tiny_variance_tables_are_valid(self, tmp_path, capsys, payload):
        # a context's variance near zero: E[x^2] - E[x]^2 rounds, and a derived |rho|
        # above 1 + 1e-9 used to be rejected as malformed input (exit 2)
        path = write_json(tmp_path, "t.json", payload)
        for verb in ("classify", "ri-intervals", "epsilon", "tlm-check", "geometry"):
            code, out, err = run_cli(capsys, verb, "--input", path)
            assert code in (0, 1) and out is not None and err == ""

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"pearson": [[1,')
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert out is None
        assert "line" in err and "column" in err

    def test_missing_field_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"probabilities": {"outcomes_a": [1, -1]}})
        code, _, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "outcomes_b" in err

    def test_ragged_array_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "r.json", {"pearson": [[1.0, 0.0], [0.5]]})
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert out is None and err


# each verb's arguments for one full run, on committed inputs and, for the searches, tiny budgets
FULL_RUN = {
    "classify": ["--input", str(GOLDEN / "probabilities_3x3.json")],
    "ri-intervals": ["--input", str(GOLDEN / "tangent.json")],
    "tlm-check": ["--input", str(GOLDEN / "tangent.json")],
    "epsilon": ["--input", str(GOLDEN / "tangent.json")],
    "pr-demo": [],
    "simulate": ["--input", str(GOLDEN / "simulate_pure.json")],
    "quantum-bound": ["--input", str(GOLDEN / "simulate_pure.json")],
    "chsh-r-tradeoff": ["--input", str(GOLDEN / "simulate_pure.json")],
    "monogamy": ["--input", str(GOLDEN / "monogamy.json")],
    "nparty": ["--input", str(GOLDEN / "nparty.json")],
    "zeta-bound": ["--input", str(GOLDEN / "zeta_bound.json")],
    "optimize": ["--restarts", "1", "--max-evals", "40"],
    "eta-curve": ["--restarts", "1", "--max-evals", "40", "--etas", "0.5"],
    "geometry": ["--input", str(GOLDEN / "tangent.json")],
}


class TestFlags:
    """Each verb accepts only the flags it reads: ``main`` writes ``--out``, the handler reads the rest.

    ``main``'s own check of ``--tol`` does not count as a read; the handler
    has to pass the value on.
    """

    def test_every_verb_has_a_full_run(self):
        assert list(FULL_RUN) == list(VERBS)

    @pytest.mark.parametrize("verb", VERBS)
    def test_every_accepted_flag_is_read(self, monkeypatch, capsys, verb):
        reads, handler_reads = set(), set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        build = cli.build_parser

        def recording_parser():
            parser = build()
            parse = parser.parse_args

            def parse_args(argv=None):
                args = parse(argv, namespace=Recording())
                reads.clear()               # argparse itself reads while it fills in defaults
                return args

            parser.parse_args = parse_args
            return parser

        handler, reads_payload = cli._VERB_TABLE[verb]

        def recording_handler(args):
            reads.clear()
            try:
                return handler(args)
            finally:
                handler_reads.update(reads)
                reads.clear()

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        monkeypatch.setitem(cli._VERB_TABLE, verb, (recording_handler, reads_payload))
        assert main([verb, *FULL_RUN[verb]]) in (0, 1)
        assert capsys.readouterr().err == ""
        [sub] = [a for a in build()._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {a.dest for a in sub.choices[verb]._actions if a.dest != "help"}
        assert "out" in reads
        assert accepted - handler_reads == {"out"}

    @pytest.mark.parametrize("verb", ["optimize", "eta-curve"])
    def test_search_defaults_are_optconfig_defaults(self, monkeypatch, verb):
        # the parser leaves out a search flag not given, so the OptConfig the handler
        # builds takes that knob's one default from OptConfig itself
        class Stop(Exception):
            pass

        configs = []

        def record(*args):
            configs.append(args[-1])
            raise Stop

        monkeypatch.setattr(optimizer, {"optimize": "maximize", "eta-curve": "trace_eta_curve"}[verb], record)
        for argv in ([verb], [verb, "--restarts", "3", "--seed", "5"]):
            with pytest.raises(Stop):
                cli._VERB_TABLE[verb][0](cli.build_parser().parse_args(argv))
        assert configs == [OptConfig(), OptConfig(restarts=3, seed=5)]

    @pytest.mark.parametrize("argv", [["pr-demo", "--tol", "1e-9"], ["pr-demo", "--seed", "1"],
                                      ["classify", "--seed", "1"], ["optimize", "--tol", "1e-9"],
                                      ["eta-curve", "--input", "-"]])
    def test_flags_a_verb_does_not_read_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def imported_modules(*argv, site: bool = True, codes=(0, 1)) -> set[str]:
    """The modules a fresh ``python -X importtime -m bellri.cli <argv>`` loads, from its import-time lines.

    With ``site=False`` the child runs with ``-S``: no site-packages, so NumPy cannot load, and none
    of the modules that the installation's ``.pth`` files import at startup (some import ``typing``).
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    flags = () if site else ("-S",)
    proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "bellri.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in codes and "Traceback" not in proc.stderr, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


TABLE_VERBS = ["classify", "epsilon", "tlm-check", "ri-intervals", "geometry"]
NOT_ON_THE_TABLE_ROUTE = {"numpy", "dataclasses", "inspect", "typing"}


class TestImportGuard:
    """The table verbs and ``pr-demo`` run on the standard library alone: no NumPy, ``dataclasses``,
    ``inspect`` or ``typing``, on every bipartite payload kind and on malformed tables; the
    probability route and the multiparty verbs load no scenario code."""

    @pytest.mark.parametrize("table", ["tangent", "moments"])
    @pytest.mark.parametrize("verb", TABLE_VERBS)
    def test_pearson_table_verbs_load_no_numpy(self, verb, table):
        loaded = imported_modules(verb, "--input", str(GOLDEN / f"{table}.json"), site=False)
        assert "bellri.ri" in loaded
        assert not loaded & NOT_ON_THE_TABLE_ROUTE

    def test_pr_demo_loads_no_numpy(self):
        loaded = imported_modules("pr-demo", site=False)
        assert "bellri.ri" in loaded
        assert not loaded & NOT_ON_THE_TABLE_ROUTE

    @pytest.mark.parametrize("table", ["probabilities_3x3", "ensemble", "pr_box"])
    @pytest.mark.parametrize("verb", TABLE_VERBS)
    def test_other_table_kinds_load_only_the_standard_library(self, verb, table):
        loaded = imported_modules(verb, "--input", str(GOLDEN / f"{table}.json"), site=False)
        assert "bellri.ri" in loaded
        assert not loaded & NOT_ON_THE_TABLE_ROUTE

    @pytest.mark.parametrize(
        "payload",
        [
            {"pearson": [[0.5, 0.1], [0.2, 0.3], [0.0, 0.0]]},
            {"pearson": [[0.5, 0.1], [0.2]]},
            {"ensemble": {"weights": 0.5}},
            {"ensemble": {"weights": [0.5] * 16}},
            {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[0.25] * 4] * 2] * 2}},
            {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[[0.5] * 2] * 2] * 2] * 2}},
        ],
    )
    def test_malformed_tables_load_only_the_standard_library(self, tmp_path, payload):
        # the error path names a shape or a sum without NumPy
        loaded = imported_modules("classify", "--input", write_json(tmp_path, "m.json", payload), site=False,
                                  codes=(2,))
        assert "bellri.correlators" in loaded
        assert not loaded & NOT_ON_THE_TABLE_ROUTE

    @pytest.mark.parametrize("verb", TABLE_VERBS)
    def test_probability_table_loads_no_scenario_modules(self, verb):
        # every table verb runs check_no_signaling and box_is_local on a probability table
        loaded = imported_modules(verb, "--input", str(GOLDEN / "probabilities_3x3.json"))
        assert "numpy" not in loaded
        assert not loaded & {"bellri.qmodel", "bellri.optimizer", "bellri.multiparty"}

    @pytest.mark.parametrize("verb", ["monogamy", "zeta-bound", "nparty"])
    def test_multiparty_verbs_load_no_scenario_modules(self, verb):
        # multiparty names QuantumMoments only in an annotation
        loaded = imported_modules(verb, "--input", str(GOLDEN / f"{verb.replace('-', '_')}.json"))
        assert "bellri.multiparty" in loaded
        assert not loaded & {"bellri.qmodel", "bellri.optimizer"}


# every name ``bellri`` exported when its __init__ imported each submodule eagerly, by submodule
EXPORTS = {
    "correlators": ["CorrelatorTable", "ProbabilityTable", "TripartiteCorrelatorTable", "check_no_signaling",
                    "chsh", "chsh_max", "from_probability_table", "pr_box_table"],
    "errors": ["BellRIError", "DegenerateDataError", "DegenerateScenarioError", "MalformedInputError",
               "PreconditionError"],
    "lhv": ["DeterministicStrategy", "LhvEnsemble", "correlators_of", "enumerate_vertices", "is_local",
            "product_cov_matrix", "statistics_of"],
    "linalg": ["eigenvalues_sym", "is_psd"],
    "multiparty": ["NPartyCorrelators", "ZetaArgs", "monogamy_check", "nparty_bound_check", "nparty_from_pairs",
                   "zeta", "zeta_bound_check"],
    "optimizer": ["OptConfig", "OptResult", "ScenarioParams", "chsh_objective", "eta_pinned_objective",
                  "maximize", "trace_eta_curve"],
    "qmodel": ["Observable", "QuantumMoments", "QuantumScenario", "chsh_r_tradeoff_check",
               "eta_saturating_scenario", "higher_moment_uncertainty_check", "moments", "quantum_cov_matrix",
               "quantum_tlm_check", "schrodinger_robertson_check", "to_correlator_table", "tripartite_moments",
               "truncated_oscillator_pair", "tsirelson_eta_bound", "tsirelson_scenario"],
    "ri": ["RInterval", "Verdict", "classify", "epsilon_gap", "g_theta", "pr_box_demo", "r_interval_bipartite",
           "ri_feasible_bipartite", "tlm_check", "tripartite_r_intervals"],
}


class TestLazyExports:
    """``bellri`` loads a submodule on the first access of one of its names, then serves it from its globals."""

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_export_resolves_and_stays(self, module, name):
        value = getattr(bellri, name)
        assert value is getattr(importlib.import_module(f"bellri.{module}"), name)
        # kept in the module globals: a later ``bellri.X`` (and the bench tracer) sees a plain global
        assert vars(bellri)[name] is value
        assert name in bellri.__all__

    def test_all_lists_exactly_the_exports(self):
        assert sorted(bellri.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            bellri.not_a_name

    def test_import_bellri_loads_no_submodule(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        code = "import sys, bellri; print(sorted(m for m in sys.modules if m.startswith(('bellri.', 'numpy'))))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


class TestPublicSurface:
    """Every name a module lists in ``__all__`` has a reader outside the tests: library code, the
    benchmark or the README. A name only the tests call belongs in ``tests/``."""

    def test_every_public_name_has_a_reader(self):
        src = REPO / "src" / "bellri"
        read = set()            # names src/ reads: not a definition, an import or an __all__ string
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        text = (REPO / "README.md").read_text() + "".join(p.read_text() for p in (REPO / "bench").glob("*.py"))
        unread = [f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
                  for name in getattr(importlib.import_module(f"bellri.{path.stem}"), "__all__", ())
                  if path.stem != "__init__" and name not in read and not re.search(rf"\b{name}\b", text)]
        assert unread == []


class TestTol:
    @pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf", "-inf"])
    def test_bad_tol_exit_two(self, tmp_path, capsys, tol):
        path = write_json(tmp_path, "t.json", tsirelson_payload())
        code, out, err = run_cli(capsys, "classify", "--input", path, f"--tol={tol}")
        assert code == 2
        assert out is None
        assert "tol" in json.loads(err)["error"]


class TestSimpleVerbs:
    def test_tlm_zero_table_passes(self, tmp_path, capsys):
        path = write_json(tmp_path, "z.json", {"pearson": [[0.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run_cli(capsys, "tlm-check", "--input", path)
        assert code == 0
        assert out["pass"] and out["chsh"] == 0.0
        assert out["rows"][0]["slack"] == pytest.approx(2.0)

    def test_epsilon_pr_box(self, tmp_path, capsys):
        path = write_json(tmp_path, "pr.json", pr_box_payload())
        code, out, _ = run_cli(capsys, "epsilon", "--input", path)
        assert code == 1
        assert out["epsilon"] == pytest.approx(2.0, abs=1e-12)

    def test_ri_intervals(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", tsirelson_payload())
        code, out, _ = run_cli(capsys, "ri-intervals", "--input", path)
        assert code == 0
        assert len(out["intervals"]) == 4
        labels = {iv["context"] for iv in out["intervals"]}
        assert labels == {"j=0", "j=1", "i=0", "i=1"}

    def test_pr_demo(self, capsys):
        code, out, _ = run_cli(capsys, "pr-demo")
        assert code == 0
        assert out["r_table"] == [[1.0, -1.0], [1.0, -1.0]]
        assert out["forced_pearson_ab"] == 0.0

    def test_geometry_tangent_at_origin(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", tsirelson_payload())
        code, out, _ = run_cli(capsys, "geometry", "--input", path)
        assert code == 0
        centers = sorted(c["center"] for c in out["circles"])
        assert centers == [pytest.approx(-0.5), pytest.approx(0.5)]
        assert all(c["radius"] == pytest.approx(0.5) for c in out["circles"])
        assert out["relation"] == "tangent"
        assert out["intersection_point"] == [pytest.approx(0.0, abs=1e-12), 0.0]

    def test_geometry_zero_table_overlaps(self, tmp_path, capsys):
        path = write_json(tmp_path, "z.json", {"pearson": [[0.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run_cli(capsys, "geometry", "--input", path)
        assert code == 0
        assert out["relation"] == "overlapping"
        assert all(c["radius"] == pytest.approx(1.0) for c in out["circles"])

    def test_geometry_pr_box_disjoint(self, tmp_path, capsys):
        path = write_json(tmp_path, "pr.json", pr_box_payload())
        code, out, _ = run_cli(capsys, "geometry", "--input", path)
        assert code == 1
        assert out["relation"] == "disjoint"
        assert out["gap"] == pytest.approx(2.0, abs=1e-12)


class TestGolden:
    """Default stdout pinned byte for byte on committed payloads.

    Each ``<case>.stdout`` holds what the verb printed on ``<case>.json``
    when the case was added; regenerate it only for an intended output change.
    The five table verbs share one input per table, ``<table>.json``, and
    print ``<verb>_<table>.stdout``; each table has one exit code for all five.
    ``pr_demo.stdout`` is what ``pr-demo``, which reads no input, printed;
    ``optimize.stdout`` and ``eta_curve.stdout`` pin the seeded searches.
    The scenario and multiparty cases each read ``<case>.json``; a case whose
    input is another case's ``.json`` names it in ``SHARED_INPUT``.
    """

    SHARED_INPUT = {"chsh_r_tradeoff_mixed": "quantum_bound_mixed"}

    @pytest.mark.parametrize(
        "verb, case, exit_code",
        [
            ("simulate", "simulate_pure", 0),
            ("simulate", "simulate_mixed", 0),
            ("simulate", "simulate_tripartite_mixed", 0),
            ("quantum-bound", "quantum_bound_mixed", 0),
            ("chsh-r-tradeoff", "chsh_r_tradeoff_mixed", 0),
            ("monogamy", "monogamy", 0),
            ("nparty", "nparty", 0),
            ("zeta-bound", "zeta_bound", 0),
        ],
    )
    def test_stdout_byte_identical(self, capsys, verb, case, exit_code):
        payload = GOLDEN / f"{self.SHARED_INPUT.get(case, case)}.json"
        code = main([verb, "--input", str(payload)])
        captured = capsys.readouterr()
        assert code == exit_code
        assert captured.err == ""
        assert captured.out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")

    def test_pr_demo_stdout_byte_identical(self, capsys):
        code = main(["pr-demo"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out == (GOLDEN / "pr_demo.stdout").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, case",
        [
            (["optimize", "--restarts", "3", "--max-evals", "400", "--seed", "5"], "optimize"),
            (["eta-curve", "--restarts", "2", "--max-evals", "300", "--etas", "0.3,0.8",
              "--seed", "2"], "eta_curve"),
        ],
    )
    def test_search_stdout_byte_identical(self, capsys, argv, case):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "table, exit_code",
        [("tangent", 0), ("pr_box", 1), ("tsirelson", 0), ("ensemble", 0), ("probabilities_3x3", 0),
         ("moments", 1)],
    )
    @pytest.mark.parametrize("verb", ["classify", "ri-intervals", "epsilon", "tlm-check", "geometry"])
    def test_table_verb_stdout_byte_identical(self, capsys, verb, table, exit_code):
        code = main([verb, "--input", str(GOLDEN / f"{table}.json")])
        captured = capsys.readouterr()
        assert code == exit_code
        assert captured.err == ""
        expected = GOLDEN / f"{verb.replace('-', '_')}_{table}.stdout"
        assert captured.out == expected.read_text(encoding="utf-8")


UNIFORM_P = [[[[0.25, 0.25], [0.25, 0.25]]] * 2] * 2
RAGGED_P = [[[[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.5]]], [[[0.25, 0.25], [0.25, 0.25]]] * 2]


class TestMalformedTables:
    """Decoders reject bad tables with MalformedInputError, and the CLI exits 2."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"pearson": [[0.5, 0.1], [0.2, 0.3], [0.0, 0.0]]},
            {"pearson": [[0.5, 0.1], [0.2]]},
            {"pearson": [[0.5, "x"], [0.2, 0.3]]},
            {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, [1]], "p": []}},
            {"ensemble": {"weights": [0.5, {"w": 1}]}},
            {"pearson": [[0.1, 0.2], [0.3, 0.4]], "variances": [1, 1]},
            {"pearson": [[0.1, 0.2], [0.3, 0.4]], "means": [0, 0]},
            {"pearson": [[0.1, 0.2], [0.3, 0.4]], "variances": {"a": ["x", 1]}},
            {"pearson": [[True, 0.2], [0.3, 0.4]]},
            {"pearson": [[0.5, 0.1], [0.2, 0.3]], "variances": {"a": [True, 1]}},
            {"pearson": [[0.5, 0.1], [0.2, 0.3]], "means": {"b": [0, False]}},
            {"pearson": [[0.5, 0.1], [0.2, 0.3]], "variances": {"a": [1, 1, 1]}},
            {"probabilities": {"outcomes_a": [-1, "x"], "outcomes_b": [-1, 1], "p": UNIFORM_P}},
            {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": RAGGED_P}},
            {"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[[True, 0], [0, 0]]] * 2] * 2}},
            {"pearson": [[10**400, 0.0], [0.0, 0.0]]},          # an integer past the float range
            {"ensemble": {"weights": [10**400] + [0.0] * 15}},
            {"ensemble": {"weights": [0.0625] * 15 + ["a"]}},
            {"ensemble": {"weights": "x" * 16}},
            {"ensemble": {"weights": [True] + [0.0] * 15}},
        ],
    )
    def test_bipartite_decoder(self, tmp_path, capsys, payload):
        with pytest.raises(MalformedInputError):
            decode_bipartite_table(payload)
        path = write_json(tmp_path, "b.json", payload)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2
        assert out is None and "error" in json.loads(err)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"pearson": [[0.5, 0.1], [0.2]]}, "pearson must be a 2x2 array of numbers"),
            ({"pearson": [[0.5, "x"], [0.2, 0.3]]}, "pearson must be a 2x2 array of numbers"),
            ({"pearson": [[0.5, 0.1], [0.2, 0.3], [0.0, 0.0]]}, "pearson must be 2x2, got shape (3, 2)"),
            ({"pearson": [[0.1, 0.2], [0.3, 0.4]], "variances": {"a": ["x", 1]}},
             "var_a must be a finite length-2 vector"),
            ({"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, [1]], "p": []}},
             "outcomes_b must be a rectangular array of numbers"),
            ({"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": RAGGED_P}},
             "p must be a rectangular array of numbers"),
            ({"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[[True, 0], [0, 0]]] * 2] * 2}},
             "expected numbers, got a JSON boolean"),
            ({"ensemble": {"weights": [0.5, {"w": 1}]}}, "weights must be an array of numbers in the float range"),
            ({"ensemble": {"weights": [10**400] + [0.0] * 15}}, "weights must be an array of numbers in the float range"),
            ({"ensemble": {"weights": [[0.0625] * 2] * 8}}, "weights must have length 16, got shape (8, 2)"),
            ({"ensemble": {"weights": 0.5}}, "weights must have length 16, got shape ()"),
            ({"ensemble": {"weights": [None] + [0.0625] * 15}}, "weights must be finite and nonnegative"),
            ({"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[0.25] * 4] * 2] * 2}},
             "p must have shape (2, 2, 2, 2), got (2, 2, 4)"),
            ({"probabilities": {"outcomes_a": [-1, 1], "outcomes_b": [-1, 1], "p": [[[[None, 0.5], [0.5, 0]]] * 2] * 2}},
             "probabilities must be finite and nonnegative"),
            ({"probabilities": {"outcomes_a": [[-1, 1]], "outcomes_b": [-1, 1], "p": UNIFORM_P}},
             "outcome lists must be non-empty 1-d arrays"),
        ],
    )
    def test_malformed_lists_name_the_field(self, tmp_path, capsys, payload, message):
        # ragged or non-numeric lists get a message of the table's own, not NumPy's
        with pytest.raises(MalformedInputError) as info:
            decode_bipartite_table(payload)
        assert str(info.value) == message
        code, out, err = run_cli(capsys, "classify", "--input", write_json(tmp_path, "b.json", payload))
        assert code == 2 and out is None
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize(
        "moments, message",
        [
            ({"variances": {"a": [True, 1]}}, "variances: expected numbers, got a JSON boolean"),
            ({"variances": {"b": [1, 1, 1]}}, "var_b must be a finite length-2 vector"),
            ({"means": {"a": [0.1]}}, "means_a must be a finite length-2 vector"),
        ],
    )
    def test_moment_vector_errors_name_the_field(self, moments, message):
        with pytest.raises(MalformedInputError) as info:
            decode_bipartite_table({"pearson": [[0.5, 0.1], [0.2, 0.3]], **moments})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "moments",
        [
            {"variances": {"a": [1e308, 1e308], "b": [1e308, 1e308]}},
            {"variances": {"a": [1e308, 1.0], "b": [1e308, 1.0]}, "means": {"a": [0.0, 0.0]}},
            {"means": {"a": [1e308, 1e308], "b": [1e308, 1e308]}},
        ],
    )
    def test_moments_whose_products_overflow(self, tmp_path, capsys, moments):
        # finite moments whose cov or raw correlators overflow: exit 2 from every
        # table verb, with no RuntimeWarning (the suite turns one into an error)
        path = write_json(tmp_path, "o.json", {"pearson": [[0.0, 0.1], [0.2, 0.3]], **moments})
        for verb in ("classify", "ri-intervals", "epsilon", "tlm-check", "geometry"):
            code, out, err = run_cli(capsys, verb, "--input", path)
            assert code == 2 and out is None
            assert json.loads(err) == {"error": "cov + mean_a * mean_b must be finite where pearson is defined"}

    @pytest.mark.parametrize("outcomes", [[-1e200, 1e200], [-1e78, 1.0], [0.0, float("inf")]])
    def test_outcomes_whose_moments_overflow(self, tmp_path, capsys, outcomes):
        # an outcome's square or product must stay finite: exit 2 with a message,
        # not an OverflowError traceback (nor a RuntimeWarning, an error here)
        p = np.full((2, 2, 2, 2), 0.25).tolist()
        path = write_json(tmp_path, "o.json", {"probabilities": {"outcomes_a": outcomes,
                                                                 "outcomes_b": [-1.0, 1.0], "p": p}})
        for verb in ("classify", "ri-intervals", "epsilon", "tlm-check", "geometry"):
            code, out, err = run_cli(capsys, verb, "--input", path)
            assert code == 2 and out is None
            assert json.loads(err) == {"error": "outcome values must be finite and at most 1e77 in magnitude"}

    def test_outcomes_at_the_bound_accepted(self, tmp_path, capsys):
        p = np.full((2, 2, 2, 2), 0.25).tolist()
        path = write_json(tmp_path, "o.json", {"probabilities": {"outcomes_a": [-1e77, 1e77],
                                                                 "outcomes_b": [-1e77, 1e77], "p": p}})
        for verb in ("classify", "ri-intervals", "epsilon", "tlm-check", "geometry"):
            code, out, err = run_cli(capsys, verb, "--input", path)
            assert code in (0, 1) and err == "", (verb, err)

    @pytest.mark.parametrize(
        "dims", [["two", 2], [2.5, 2], 2, [[2, 2]], [None, 2], [0, 2], [-2, 2], [1, 2], [1e18, 1e18]]
    )
    def test_scenario_dims(self, tmp_path, capsys, dims):
        payload = dict(scenario_payload(), dims=dims)
        with pytest.raises(MalformedInputError):
            decode_scenario(payload)
        path = write_json(tmp_path, "s.json", payload)
        code, out, err = run_cli(capsys, "simulate", "--input", path)
        assert code == 2
        assert out is None and "error" in json.loads(err)

    @pytest.mark.parametrize("dims", [[0, 2], [-2, 2], [1, 2], [1e18, 1e18], [2, 33]])
    def test_scenario_dims_out_of_range_named(self, dims):
        # checked before the state length, which would blame the state
        with pytest.raises(MalformedInputError, match=r"party dims must lie in 2\.\.32"):
            decode_scenario(dict(scenario_payload(), dims=dims))

    def test_scenario_whole_float_dims_accepted(self):
        assert decode_scenario(dict(scenario_payload(), dims=[2.0, 2])).dims == (2, 2)

    @pytest.mark.parametrize("scale", [1e76, 1e100, 1e160])
    @pytest.mark.parametrize("verb", ["simulate", "quantum-bound", "chsh-r-tradeoff", "simulate-tripartite"])
    def test_observables_out_of_range(self, tmp_path, capsys, verb, scale):
        # both of Alice's observables scaled: var0 var1 would overflow (a RuntimeWarning,
        # an error here) or print NaN; exit 2 with the bound's message instead
        if verb == "simulate-tripartite":
            payload, verb = tripartite_payload(), "simulate"
        else:
            payload = scenario_payload()
        payload["alice_obs"] = [{k: (scale * np.asarray(v)).tolist() for k, v in o.items()}
                                for o in payload["alice_obs"]]
        code, out, err = run_cli(capsys, verb, "--input", write_json(tmp_path, "s.json", payload))
        assert code == 2 and out is None
        assert json.loads(err)["error"].startswith("observable entries must be at most 1e75 in magnitude")

    def test_observables_at_the_bound_accepted(self, tmp_path, capsys):
        # dim 32, entries just under 1e75, spectral norms near 32e75: Alice's variances
        # near 1e152, so var0 var1 and |r_q|^2 reach 1e304 and stay finite
        d = 32
        j = np.ones((d, d))
        a1 = j + 1j * (np.triu(j, 1) - np.tril(j, -1))
        state = np.kron(np.arange(d) % 2 + 0.1 * np.eye(d)[0], [math.cos(0.3), math.sin(0.3)])
        def enc(m):
            m = np.asarray(m, dtype=complex)
            return {"re": m.real.tolist(), "im": m.imag.tolist()}
        payload = {"dims": [d, 2], "state": enc(state / np.linalg.norm(state)),
                   "alice_obs": [enc(9.99999e74 * j), enc(9.99999e74 / math.sqrt(2) * a1)],
                   "bob_obs": [enc([[1.0, 0.0], [0.0, -1.0]]), enc([[0.0, 1.0], [1.0, 0.0]])]}
        path = write_json(tmp_path, "s.json", payload)
        for verb in ("simulate", "quantum-bound", "chsh-r-tradeoff"):
            code, out, err = run_cli(capsys, verb, "--input", path)
            assert code in (0, 1) and err == "", (verb, err)
            if verb == "simulate":
                check = out["uncertainty_check"]["a"]
                assert 1e300 < check["lhs"] < math.inf and 1e300 < check["rhs"] < math.inf

    @pytest.mark.parametrize(
        "payload",
        [
            {"r_prime": "x", "experimenters": [{"first": [0, 0], "second": [0, 0]}]},
            {"r_prime": None, "experimenters": [{"first": [0, 0], "second": [0, 0]}]},
            {"r_prime": [0.5], "experimenters": [{"first": [0, 0], "second": [0, 0]}]},
            {"r_prime": 0.0, "experimenters": [5]},
            {"r_prime": 0.0, "experimenters": {"first": [0, 0], "second": [0, 0]}},
            {"r_prime": 0.0, "experimenters": "first"},
            {"r_prime": True, "experimenters": [{"first": [False, False], "second": [False, False]}]},
            {"r_prime": 0.0, "experimenters": [{"first": [False, 0], "second": [0, 0]}]},
        ],
    )
    def test_nparty_decoder(self, tmp_path, capsys, payload):
        with pytest.raises(MalformedInputError):
            decode_nparty(payload)
        path = write_json(tmp_path, "n.json", payload)
        code, out, err = run_cli(capsys, "nparty", "--input", path)
        assert code == 2
        assert out is None and "error" in json.loads(err)

    @pytest.mark.parametrize(
        "payload",
        [{"chsh_ab": "x", "chsh_ac": 0.0}, {"chsh_ab": 1.0, "chsh_ac": [1.0]},
         {"chsh_ab": None, "chsh_ac": 0.0}, {"chsh_ab": 10**400, "chsh_ac": 0.0}],
    )
    def test_monogamy_handler(self, tmp_path, capsys, payload):
        path = write_json(tmp_path, "m.json", payload)
        with pytest.raises(MalformedInputError):
            _cmd_monogamy(argparse.Namespace(input=path, tol=1e-9))
        code, out, err = run_cli(capsys, "monogamy", "--input", path)
        assert code == 2
        assert out is None and "error" in json.loads(err)

    def test_ragged_tripartite_block(self, tmp_path, capsys):
        payload = {"pearson_ab": [[0.1], [0.2, 0.3]], "pearson_ac": [[0, 0], [0, 0]],
                   "pearson_bc": [[0, 0], [0, 0]]}
        with pytest.raises(MalformedInputError) as info:
            decode_tripartite_table(payload)
        assert str(info.value) == "pearson_ab must be a finite 2x2 block"
        code, out, err = run_cli(capsys, "zeta-bound", "--input", write_json(tmp_path, "t.json", payload))
        assert code == 2 and out is None
        assert json.loads(err) == {"error": "pearson_ab must be a finite 2x2 block"}


NAN, INF = float("nan"), float("inf")


class TestMessageOrder:
    """An input with two faults at once gets the message of the rule checked first."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("state", {"re": [NAN, 1.0, 0.0]}, "state has non-finite entries"),
            ("state", {"re": [[NAN] * 3] * 3}, "state has non-finite entries"),
            ("state", {"re": [1.0, 1.0, 0.0, 0.0]}, "state vector must be normalized within 1e-12"),
            ("state", {"re": [1.0, 1.0, 0.0]}, "state vector must have length 4"),
            ("alice_obs", [{"re": [[INF, 0.0], [0.0, 1.0]]}, {"re": [[1.0, 0.0], [0.0, -1.0]]}],
             "observable has non-finite entries"),
            ("alice_obs", [{"re": [[1.0, 0.0], [0.0, -1.0]]}, {"re": [[INF, 1e80], [1e80, 1.0]]}],
             "observable has non-finite entries"),
            ("bob_obs", [{"re": [[NAN, 1e80], [1e80, 1.0]]}, {"re": [[1.0, 0.0], [0.0, -1.0]]}],
             "observable has non-finite entries"),
            ("alice_obs", [{"re": [[1e308, 0.0], [0.0, 1.0]], "im": [[1e308, 0.0], [0.0, 0.0]]},
                           {"re": [[1.0, 0.0], [0.0, -1.0]]}],
             "observable entries must be at most 1e75 in magnitude, got 1.41421e+308"),
            ("alice_obs", [{"re": [[1e76, 1.0], [0.0, 1.0]]}, {"re": [[1.0, 0.0], [0.0, -1.0]]}],
             "observable entries must be at most 1e75 in magnitude, got 1e+76"),
            ("alice_obs", [{"re": [[1.5e308, 0.0], [0.0, 1.0]], "im": [[1.5e308, 0.0], [0.0, 0.0]]},
                           {"re": [[1.0, 0.0], [0.0, -1.0]]}],
             "observable entries must be at most 1e75 in magnitude, got an entry whose modulus overflows"),
        ],
    )
    def test_scenario(self, tmp_path, capsys, field, value, message):
        payload = dict(scenario_payload(), **{field: value})
        with pytest.raises(MalformedInputError) as exc:
            decode_scenario(payload)
        assert str(exc.value) == message
        code, out, err = run_cli(capsys, "simulate", "--input", write_json(tmp_path, "s.json", payload))
        assert code == 2 and out is None
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ([NAN, 2.0], [0.0, 0.0], "rho_first must be a finite (n, 2) array"),
            ([0.5, 2.0], [NAN, 0.0], "rho_first entries must lie in [-1, 1]"),
            ([2.0, 0.0], [INF, 0.0], "rho_first entries must lie in [-1, 1]"),
            ([0.0, 0.0], [NAN, 2.0], "rho_second must be a finite (n, 2) array"),
        ],
    )
    def test_nparty(self, tmp_path, capsys, first, second, message):
        payload = {"r_prime": 0.0, "experimenters": [{"first": first, "second": second}]}
        with pytest.raises(MalformedInputError) as exc:
            decode_nparty(payload)
        assert str(exc.value) == message
        code, out, err = run_cli(capsys, "nparty", "--input", write_json(tmp_path, "n.json", payload))
        assert code == 2 and out is None
        assert json.loads(err) == {"error": message}


class TestMalformedArguments:
    """Bad options raise MalformedInputError, and the CLI exits 2 with nothing on stdout."""

    def test_zeta_bound_context_not_integers(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {
            "pearson_ab": [[0.3, -0.2], [0.1, 0.4]],
            "pearson_ac": [[0.2, 0.1], [-0.3, 0.2]],
            "pearson_bc": [[0.1, -0.1], [0.2, 0.0]],
        })
        for context in ("a,b", "0,2", "0,,1", "0,1,"):
            with pytest.raises(MalformedInputError):
                _cmd_zeta_bound(argparse.Namespace(input=path, context=context, context2="1,1", tol=1e-9))
            code, out, err = run_cli(capsys, "zeta-bound", "--input", path, "--context", context)
            assert code == 2
            assert out is None and "error" in json.loads(err)
            if context in ("0,,1", "0,1,"):             # a blank entry beside numbers is no number
                assert json.loads(err)["error"] == f"contexts must list comma-separated numbers, got {context!r}"

    def test_eta_curve_etas_not_numbers(self, capsys):
        for etas in ("x", "0.5,,0.9"):                  # a blank entry beside numbers is no number
            args = argparse.Namespace(etas=etas, restarts=1, max_evals=50, seed=0, tol=1e-9)
            with pytest.raises(MalformedInputError):
                _cmd_eta_curve(args)
            code, out, err = run_cli(capsys, "eta-curve", "--etas", etas, "--restarts", "1")
            assert code == 2
            assert out is None
            assert json.loads(err) == {"error": f"--etas must list comma-separated numbers, got {etas!r}"}

    def test_eta_curve_empty_targets(self, capsys):
        with pytest.raises(MalformedInputError, match="eta targets"):
            trace_eta_curve([])
        code, out, err = run_cli(capsys, "eta-curve", "--etas", ",", "--restarts", "1")
        assert code == 2
        assert out is None and "eta targets" in json.loads(err)["error"]

    def test_out_unwritable_path_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "classify", "--input", str(GOLDEN / "tangent.json"), "--out", str(target)
        )
        assert code == 2
        assert out is None and str(target) in json.loads(err)["error"]
        assert not target.exists()

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--seed", "-1", "--restarts", "1")
        assert code == 2
        assert out is None and "error" in json.loads(err)


class TestBrokenPipe:
    def test_closed_reader_keeps_exit_code_and_out_file(self, tmp_path, monkeypatch):
        # a stdout whose reader is gone: every write raises BrokenPipeError
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        broken = open(write_fd, "w")
        with pytest.raises(BrokenPipeError):
            broken.write("x")
            broken.flush()
        monkeypatch.setattr(sys, "stdout", broken)
        path = write_json(tmp_path, "pr.json", pr_box_payload())
        out = tmp_path / "out.json"
        code = main(["classify", "--input", path, "--out", str(out)])
        monkeypatch.undo()
        broken.close()
        assert code == 1
        assert json.loads(out.read_text())["ri_feasible"] is False


class TestQuantumVerbs:
    def test_simulate(self, tmp_path, capsys):
        path = write_json(tmp_path, "sc.json", scenario_payload())
        code, out, _ = run_cli(capsys, "simulate", "--input", path)
        assert code == 0
        pe = np.asarray(out["pearson"])
        chsh = pe[0, 0] + pe[1, 0] + pe[0, 1] - pe[1, 1]
        assert chsh == pytest.approx(2 * SQRT2, abs=1e-12)
        assert out["uncertainty_check"]["a"]["pass"]

    def test_quantum_bound(self, tmp_path, capsys):
        path = write_json(tmp_path, "sc.json", scenario_payload())
        code, out, _ = run_cli(capsys, "quantum-bound", "--input", path)
        assert code == 0
        assert out["pass"]
        assert out["eta_bound"]["bound"] == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_chsh_r_tradeoff(self, tmp_path, capsys):
        path = write_json(tmp_path, "sc.json", scenario_payload())
        code, out, _ = run_cli(capsys, "chsh-r-tradeoff", "--input", path)
        assert code == 0
        assert out["total"] == pytest.approx(1.0, abs=1e-9)

    def test_simulate_tripartite(self, tmp_path, capsys):
        path = write_json(tmp_path, "tri.json", tripartite_payload())
        code, out, _ = run_cli(capsys, "simulate", "--input", path)
        assert code == 0
        assert out["scenario"] == "tripartite"
        for key in ("pearson_ab", "pearson_ac", "pearson_bc"):
            block = np.asarray(out[key])
            assert block.shape == (2, 2) and np.all(np.abs(block) <= 1 + 1e-9)

    def test_simulate_density_matrix_state(self, tmp_path, capsys):
        # 2-d state arrays decode as density matrices
        payload = scenario_payload()
        psi = np.asarray(payload["state"]["re"]) + 1j * np.asarray(payload["state"]["im"])
        w = 0.6
        rho = w * np.outer(psi, psi.conj()) + (1 - w) * np.eye(4) / 4.0
        payload["state"] = {"re": np.real(rho).tolist(), "im": np.imag(rho).tolist()}
        path = write_json(tmp_path, "mixed.json", payload)
        code, out, _ = run_cli(capsys, "simulate", "--input", path)
        assert code == 0
        pe = np.asarray(out["pearson"])
        chsh = pe[0, 0] + pe[1, 0] + pe[0, 1] - pe[1, 1]
        assert chsh == pytest.approx(w * 2 * SQRT2, abs=1e-12)

    def test_simulate_round_trip(self, tmp_path, capsys):
        # emitted pearson must re-parse as a valid bipartite table input
        path = write_json(tmp_path, "sc.json", scenario_payload())
        _, out, _ = run_cli(capsys, "simulate", "--input", path)
        table_path = write_json(
            tmp_path, "table.json", {"scenario": "bipartite", "pearson": out["pearson"]}
        )
        code, verdict, _ = run_cli(capsys, "classify", "--input", table_path)
        assert code == 0
        assert verdict["ri_feasible"]


class TestMultipartyVerbs:
    def test_monogamy_values(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"chsh_ab": 2 * SQRT2, "chsh_ac": 0.0})
        code, out, _ = run_cli(capsys, "monogamy", "--input", path)
        assert code == 0
        assert out["sum_sq"] == pytest.approx(8.0, abs=1e-12)

    def test_monogamy_violation_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"chsh_ab": 2.5, "chsh_ac": 2.0})
        code, out, _ = run_cli(capsys, "monogamy", "--input", path)
        assert code == 1

    def test_monogamy_near_float_max_exit_one(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"chsh_ab": 1e308, "chsh_ac": 0.0})
        code, out, err = run_cli(capsys, "monogamy", "--input", path)
        assert code == 1 and err == ""
        assert out["sum_sq"] == math.inf and not out["pass_sq"]

    def test_nparty(self, tmp_path, capsys):
        payload = {
            "r_prime": 0.0,
            "experimenters": [
                {"first": [0.3, 0.3], "second": [0.3, -0.3]},
                {"first": [0.2, 0.2], "second": [0.2, -0.2]},
            ],
        }
        path = write_json(tmp_path, "np.json", payload)
        code, out, _ = run_cli(capsys, "nparty", "--input", path)
        assert code == 0
        assert out["cap"] == pytest.approx(4.0)
        assert out["sum_abs_chsh"] == pytest.approx(1.2 + 0.8)

    def test_nparty_precondition_uses_tol_as_given(self, tmp_path, capsys):
        # the first context's block has smallest eigenvalue 1 - 1.0000000004^2, about -8e-10:
        # within the default slack, outside 1e-12, with no 1e-9 floor under --tol
        path = write_json(tmp_path, "np.json", {
            "r_prime": 0, "experimenters": [{"first": [1.0000000004, 0], "second": [0, 0]}]})
        code, out, err = run_cli(capsys, "nparty", "--input", path)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, "nparty", "--input", path, "--tol", "1e-12")
        assert code == 2 and out is None
        assert "context 'first' is not PSD" in json.loads(err)["error"]

    def test_zeta_bound(self, tmp_path, capsys):
        payload = {
            "pearson_ab": [[0.3, -0.2], [0.1, 0.4]],
            "pearson_ac": [[0.2, 0.1], [-0.3, 0.2]],
            "pearson_bc": [[0.1, -0.1], [0.2, 0.0]],
        }
        path = write_json(tmp_path, "t.json", payload)
        code, out, _ = run_cli(capsys, "zeta-bound", "--input", path)
        assert code == 0
        assert out["pass"]

    def test_zeta_bound_negative_diagonal_exit_one(self, tmp_path, capsys):
        # 1 - 0.81 - 0.81 < 0 on every context: no r' fits, as tripartite_r_intervals reports
        payload = {"pearson_ab": [[0.9, 0.9], [0.9, 0.9]], "pearson_ac": [[0.9, 0.9], [0.9, 0.9]],
                   "pearson_bc": [[0.0, 0.0], [0.0, 0.0]]}
        path = write_json(tmp_path, "t.json", payload)
        assert len(tripartite_r_intervals(decode_tripartite_table(payload)).infeasible_contexts) == 4
        code, out, _ = run_cli(capsys, "zeta-bound", "--input", path)
        assert code == 1
        assert out["pass"] is False


class TestOptimizerVerbs:
    def test_optimize_small(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--restarts", "4", "--max-evals", "800", "--seed", "1"
        )
        assert code == 0
        assert out["best_chsh"] <= 2 * SQRT2 + 1e-9
        assert out["best_chsh"] > 2.7
        assert out["trajectory_max"] <= 2 * SQRT2 + 1e-9

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        path = write_json(tmp_path, "z.json", {"pearson": [[0.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run_cli(
            capsys, "tlm-check", "--input", path, "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text()) == out
