"""Optimizer tests: simplex search, parameter decoding, eta-pinned curve."""

import math

import numpy as np
import pytest

from bellri import optimizer
from bellri.errors import DegenerateScenarioError, MalformedInputError
from bellri.optimizer import (
    N_PARAMS,
    ObjectiveError,
    OptConfig,
    ScenarioParams,
    _two_qubit_moments,
    chsh_objective,
    eta_pinned_objective,
    maximize,
    trace_eta_curve,
)
from bellri.qmodel import moments

SQRT8 = 2.0 * math.sqrt(2.0)


class TestParams:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-math.pi, math.pi, size=N_PARAMS)
        p = ScenarioParams.from_vector(x)
        np.testing.assert_array_equal(p.to_vector(), x)

    def test_decode_is_total_and_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = rng.uniform(-50.0, 50.0, size=N_PARAMS)
            sc = ScenarioParams.from_vector(x).decode()
            assert abs(np.linalg.norm(sc.state) - 1.0) < 1e-12
            for o in sc.alice_obs + sc.bob_obs:
                np.testing.assert_allclose(o.matrix, o.matrix.conj().T, atol=1e-15)

    def test_bad_vector_rejected(self):
        # the generic decode and the optimizer's closed-form route reject alike
        bad = [np.zeros(5)]
        for value in (np.nan, np.inf, -np.inf):
            x = np.full(N_PARAMS, 0.3)
            x[9] = value
            bad.append(x)
        for x in bad:
            with pytest.raises(MalformedInputError):
                ScenarioParams.from_vector(x)
            with pytest.raises(MalformedInputError):
                _two_qubit_moments(x)


class TestClosedFormMoments:
    """The optimizer's closed-form record against the generic moments route."""

    @pytest.mark.parametrize("half_width", [math.pi, 50.0])
    def test_matches_generic_moments(self, half_width):
        rng = np.random.default_rng(int(half_width))
        checked = 0
        for _ in range(500):
            x = rng.uniform(-half_width, half_width, size=N_PARAMS)
            ref = moments(ScenarioParams.from_vector(x).decode())
            mom = _two_qubit_moments(x)
            for name in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
                np.testing.assert_allclose(getattr(mom, name), getattr(ref, name), rtol=0, atol=1e-13)
            min_var = min(ref.var_a.min(), ref.var_b.min())
            if min_var <= 1e-6:
                continue
            # each route's variances and covariances carry a few ulps of
            # absolute rounding, and dividing by sigma_i sigma_j >= min_var
            # scales it by 1 / min_var: the bound is 1e-12 for min_var >= 1e-3
            # and widens as 1 / min_var below
            tol = max(1e-12, 8 * np.finfo(np.float64).eps / min_var)
            np.testing.assert_allclose(mom.pearson, ref.pearson, rtol=0, atol=tol)
            for name in ("eta_a", "eta_b", "nu_a", "nu_b"):
                assert abs(getattr(mom, name) - getattr(ref, name)) <= tol, name
            for name in ("r_q_a", "r_q_b"):
                assert abs(getattr(mom, name) - getattr(ref, name)) <= 1e-13, name
            checked += 1
        assert checked >= 490


class TestMaximize:
    def test_constant_objective(self):
        res = maximize(lambda mom: 3.25, OptConfig(restarts=1, max_evals=64, seed=0))
        assert res.best_value == 3.25
        assert res.trajectory_max == 3.25

    def test_nonfinite_objective_aborts_with_dump(self):
        with pytest.raises(ObjectiveError, match=r"\["):
            maximize(lambda mom: float("nan"), OptConfig(restarts=1, max_evals=64, seed=0))

    def test_bad_config_rejected(self):
        for bad in (
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"init_step": float("nan")},
            {"init_step": float("inf")},
            {"init_step": 0.0},
            {"init_step": -0.1},
            {"refine_stages": -1},
        ):
            with pytest.raises(MalformedInputError):
                OptConfig(**bad)

    def test_reproducible(self):
        cfg = OptConfig(restarts=3, max_evals=400, seed=7)
        r1 = maximize(chsh_objective, cfg)
        r2 = maximize(chsh_objective, cfg)
        assert r1.best_value == r2.best_value
        assert r1.trace == r2.trace
        assert r1.evaluations == r2.evaluations
        np.testing.assert_array_equal(r1.best_params.to_vector(), r2.best_params.to_vector())

    def test_best_value_reproduces_at_best_params(self):
        res = maximize(chsh_objective, OptConfig(restarts=4, max_evals=800, seed=3))
        assert chsh_objective(moments(res.best_params.decode())) == pytest.approx(
            res.best_value, abs=1e-12
        )

    def test_reaches_chsh_ceiling_and_never_crosses_it(self):
        res = maximize(chsh_objective, OptConfig(restarts=8, max_evals=1500, seed=0))
        assert res.best_value >= SQRT8 - 1e-6
        assert res.trajectory_max <= SQRT8 + 1e-9
        assert len(res.trace) == 8

    def test_degenerate_iterates_survive(self):
        # parameters at exact product eigenstates give zero variances; the
        # objective must absorb them as finite penalties, not crash
        x = np.zeros(N_PARAMS)
        sc = ScenarioParams.from_vector(x).decode()
        with pytest.raises(DegenerateScenarioError):
            moments(sc)
        with pytest.raises(DegenerateScenarioError):
            _two_qubit_moments(x)
        res = maximize(chsh_objective, OptConfig(restarts=1, max_evals=200, seed=11))
        assert math.isfinite(res.best_value)


class TestEtaCurve:
    def test_pinned_half_eta(self):
        res = maximize(eta_pinned_objective(0.5, 1e3), OptConfig(restarts=24, max_evals=2000, seed=0))
        mom = moments(res.best_params.decode())
        assert abs(mom.eta_a) == pytest.approx(0.5, abs=2e-3)
        chsh = chsh_objective(moments(res.best_params.decode()))
        assert chsh == pytest.approx(SQRT8 * math.sqrt(1 - 0.25), abs=5e-3)

    def test_two_point_curve(self):
        pts = trace_eta_curve([0.0, 1 / math.sqrt(2.0)], OptConfig(restarts=10, max_evals=1200, seed=0))
        assert pts[0]["feasible"] and pts[1]["feasible"]
        assert pts[0]["max_chsh"] == pytest.approx(SQRT8, abs=5e-3)
        assert pts[1]["max_chsh"] == pytest.approx(2.0, abs=5e-3)
        assert pts[0]["max_chsh"] >= pts[1]["max_chsh"]

    def test_full_pin_forces_vanishing_chsh(self):
        # ceiling at eta = 1 is zero, but it falls off as sqrt(1 - eta^2), so
        # a pin within tolerance still admits a small residual CHSH; assert
        # consistency with the ceiling at the achieved eta plus near-zero size
        pts = trace_eta_curve([1.0], OptConfig(restarts=8, max_evals=1200, seed=0))
        assert pts[0]["feasible"]
        eta_ach = pts[0]["eta_achieved"]
        ceiling = SQRT8 * math.sqrt(max(0.0, 1.0 - eta_ach**2))
        assert abs(pts[0]["max_chsh"]) <= ceiling + 5e-3
        assert abs(pts[0]["max_chsh"]) <= 0.15

    def test_bad_target_rejected(self, monkeypatch):
        with pytest.raises(MalformedInputError):
            trace_eta_curve([1.5], OptConfig(restarts=1, max_evals=64, seed=0))
        with pytest.raises(MalformedInputError):
            trace_eta_curve([float("nan")], OptConfig(restarts=1, max_evals=64, seed=0))

        # every target is checked before the first search starts
        def no_search(*args, **kwargs):
            raise AssertionError("search ran before the targets were validated")

        monkeypatch.setattr(optimizer, "maximize", no_search)
        with pytest.raises(MalformedInputError):
            trace_eta_curve([0.5, 1.5], OptConfig(restarts=1, max_evals=64, seed=0))
