"""CLI tests: verbs, exit codes, JSON round trips."""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from bellri.cli import (
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
from bellri.optimizer import trace_eta_curve
from bellri.qmodel import tsirelson_scenario
from bellri.ri import tripartite_r_intervals

SQRT2 = math.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"


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
    """

    @pytest.mark.parametrize(
        "verb, case, exit_code",
        [
            ("simulate", "simulate_pure", 0),
            ("simulate", "simulate_mixed", 0),
            ("quantum-bound", "quantum_bound_mixed", 0),
        ],
    )
    def test_stdout_byte_identical(self, capsys, verb, case, exit_code):
        code = main([verb, "--input", str(GOLDEN / f"{case}.json")])
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

    @pytest.mark.parametrize("table, exit_code", [("tangent", 0), ("pr_box", 1), ("tsirelson", 0)])
    @pytest.mark.parametrize("verb", ["classify", "ri-intervals", "epsilon", "tlm-check", "geometry"])
    def test_table_verb_stdout_byte_identical(self, capsys, verb, table, exit_code):
        code = main([verb, "--input", str(GOLDEN / f"{table}.json")])
        captured = capsys.readouterr()
        assert code == exit_code
        assert captured.err == ""
        expected = GOLDEN / f"{verb.replace('-', '_')}_{table}.stdout"
        assert captured.out == expected.read_text(encoding="utf-8")


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
         {"chsh_ab": None, "chsh_ac": 0.0}],
    )
    def test_monogamy_handler(self, tmp_path, capsys, payload):
        path = write_json(tmp_path, "m.json", payload)
        with pytest.raises(MalformedInputError):
            _cmd_monogamy(argparse.Namespace(input=path, tol=1e-9))
        code, out, err = run_cli(capsys, "monogamy", "--input", path)
        assert code == 2
        assert out is None and "error" in json.loads(err)

    def test_ragged_tripartite_block(self):
        payload = {"pearson_ab": [[0.1], [0.2, 0.3]], "pearson_ac": [[0, 0], [0, 0]],
                   "pearson_bc": [[0, 0], [0, 0]]}
        with pytest.raises(MalformedInputError):
            decode_tripartite_table(payload)


class TestMalformedArguments:
    """Bad options raise MalformedInputError, and the CLI exits 2 with nothing on stdout."""

    def test_zeta_bound_context_not_integers(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {
            "pearson_ab": [[0.3, -0.2], [0.1, 0.4]],
            "pearson_ac": [[0.2, 0.1], [-0.3, 0.2]],
            "pearson_bc": [[0.1, -0.1], [0.2, 0.0]],
        })
        for context in ("a,b", "0,2"):
            with pytest.raises(MalformedInputError):
                _cmd_zeta_bound(argparse.Namespace(input=path, context=context, context2="1,1", tol=1e-9))
            code, out, err = run_cli(capsys, "zeta-bound", "--input", path, "--context", context)
            assert code == 2
            assert out is None and "error" in json.loads(err)

    def test_eta_curve_etas_not_numbers(self, capsys):
        args = argparse.Namespace(etas="x", restarts=1, max_evals=50, seed=0, tol=1e-9)
        with pytest.raises(MalformedInputError):
            _cmd_eta_curve(args)
        code, out, err = run_cli(capsys, "eta-curve", "--etas", "x", "--restarts", "1")
        assert code == 2
        assert out is None and "error" in json.loads(err)

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
        rng = np.random.default_rng(0)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        def enc(m):
            return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
        z = [[1.0, 0.0], [0.0, -1.0]]
        x = [[0.0, 1.0], [1.0, 0.0]]
        payload = {
            "dims": [2, 2, 2],
            "state": enc(psi),
            "alice_obs": [{"re": z}, {"re": x}],
            "bob_obs": [{"re": x}, {"re": z}],
            "charlie_obs": [{"re": z}, {"re": x}],
        }
        path = write_json(tmp_path, "tri.json", payload)
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
