"""Optimizer tests: simplex search, parameter decoding, eta-pinned curve."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from bellri import optimizer
from bellri.errors import DegenerateScenarioError, MalformedInputError
from bellri.optimizer import (
    DEGENERATE_PENALTY,
    N_PARAMS,
    _XC,
    _XE,
    _XR,
    ObjectiveError,
    OptConfig,
    ScenarioParams,
    _Evaluator,
    _lockstep,
    _two_qubit_moments,
    chsh_objective,
    eta_pinned_objective,
    maximize,
    trace_eta_curve,
)
from bellri.qmodel import moments

SQRT8 = 2.0 * math.sqrt(2.0)
TOL = OptConfig().tol
FIELDS = ("mean_a", "mean_b", "var_a", "var_b", "cov", "pearson",
          "eta_a", "eta_b", "nu_a", "nu_b", "r_q_a", "r_q_b")


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
                _two_qubit_moments(x[None])
        # a non-finite entry rejects the whole block; a bare vector is not a block
        with pytest.raises(MalformedInputError):
            _two_qubit_moments(np.vstack([np.full(N_PARAMS, 0.3), bad[1]]))
        with pytest.raises(MalformedInputError):
            _two_qubit_moments(np.full(N_PARAMS, 0.3))


class TestClosedFormMoments:
    """The optimizer's closed-form record against the generic moments route."""

    @pytest.mark.parametrize("half_width", [math.pi, 50.0])
    def test_matches_generic_moments(self, half_width):
        rng = np.random.default_rng(int(half_width))
        xs = rng.uniform(-half_width, half_width, size=(500, N_PARAMS))
        batches = [_two_qubit_moments(xs[lo:lo + 100]) for lo in range(0, 500, 100)]
        checked = 0
        for k, x in enumerate(xs):
            batch, degenerate = batches[k // 100]
            mom = SimpleNamespace(**{name: getattr(batch, name)[k % 100] for name in FIELDS})
            sc = ScenarioParams.from_vector(x).decode()
            try:
                ref = moments(sc)
            except DegenerateScenarioError:
                assert degenerate[k % 100]
                continue
            assert not degenerate[k % 100]
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

    @pytest.mark.parametrize("name", ["restarts", "max_evals", "seed", "refine_stages"])
    @pytest.mark.parametrize("value", [2.5, 400.5, 3.0, True, False, "3", None])
    def test_non_int_counts_rejected(self, name, value):
        # a float would truncate or overrun the budget, a bool would count as 0 or 1
        with pytest.raises(MalformedInputError, match=name):
            OptConfig(**{name: value})

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
        # parameters at exact product eigenstates give zero variances; the map
        # masks them and the search absorbs them as finite penalties
        x = np.zeros(N_PARAMS)
        sc = ScenarioParams.from_vector(x).decode()
        with pytest.raises(DegenerateScenarioError):
            moments(sc)
        _, degenerate = _two_qubit_moments(x[None])
        assert degenerate.tolist() == [True]
        res = maximize(chsh_objective, OptConfig(restarts=1, max_evals=200, seed=11))
        assert math.isfinite(res.best_value)

    @pytest.mark.parametrize("objective", [chsh_objective, eta_pinned_objective(0.5, 1e3)],
                             ids=["chsh", "eta-pinned"])
    def test_restarts_match_restarts_run_alone(self, objective):
        # lockstep changes no restart: each equals its one-restart run
        cfg = OptConfig(restarts=5, max_evals=600, seed=40)
        res = maximize(objective, cfg)
        alone = [maximize(objective, OptConfig(restarts=1, max_evals=600, seed=cfg.seed + r))
                 for r in range(cfg.restarts)]
        assert res.trace == tuple(a.trace[0] for a in alone)
        assert res.evaluations == sum(a.evaluations for a in alone)
        assert res.trajectory_max == max(a.trajectory_max for a in alone)
        assert res.degenerate_hits == sum(a.degenerate_hits for a in alone)
        first = max(range(cfg.restarts), key=lambda r: alone[r].best_value)
        np.testing.assert_array_equal(res.best_params.to_vector(),
                                      alone[first].best_params.to_vector())


class TestLockstep:
    """The batched map, the mask, and ``_lockstep``'s requests and per-row accounting."""

    def test_degenerate_row_masked_alone(self):
        rng = np.random.default_rng(8)
        xs = np.vstack([rng.uniform(-3, 3, N_PARAMS), np.zeros(N_PARAMS),
                        rng.uniform(-3, 3, N_PARAMS)])
        mom, degenerate = _two_qubit_moments(xs)
        assert degenerate.tolist() == [False, True, False]
        for k in (0, 2):
            alone, _ = _two_qubit_moments(xs[k:k + 1])
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(mom, name)[k], getattr(alone, name)[0])

    def test_degenerate_hits_scored_and_counted(self):
        rng = np.random.default_rng(9)
        block = np.vstack([rng.uniform(-3, 3, N_PARAMS), np.zeros(N_PARAMS)])
        received = []

        def search(pts, vals):
            pts[:2] = block
            received.append((yield slice(0, 2)))

        ev = _Evaluator(lambda mom: np.full(len(mom.eta_a), np.nan))
        with pytest.raises(ObjectiveError):
            _lockstep([(ev, search)], TOL)
        # the masked row scores the penalty whatever the objective says there
        ev = _Evaluator(chsh_objective)
        _lockstep([(ev, search)], TOL)
        assert received[-1][1] == -DEGENERATE_PENALTY
        assert (ev.count, ev.degenerate_hits) == (2, 1)
        assert ev.maximum == chsh_objective(_two_qubit_moments(block[:1])[0])[0]

    def test_nan_row_names_its_parameters(self):
        xs = np.random.default_rng(10).uniform(-3, 3, size=(4, N_PARAMS))

        def search(pts, vals):
            pts[:4] = xs
            yield slice(0, 4)

        # rows 2 and 3 are NaN: the first is named, and nothing is charged
        ev = _Evaluator(lambda m: np.where(np.arange(4) >= 2, np.nan, 1.0))
        with pytest.raises(ObjectiveError, match=re.escape(str(xs[2].tolist()))):
            _lockstep([(ev, search)], TOL)
        assert (ev.count, ev.degenerate_hits, ev.maximum) == (0, 0, -math.inf)

    def test_sort_leaves_sorted_simplex_untouched(self):
        # point requests on a sorted simplex, with tied values: _lockstep's
        # stable sort changes no bit, and each point is the classic expression
        start = np.random.default_rng(11).uniform(-3, 3, size=(N_PARAMS + 1, N_PARAMS))
        seen = []

        def search(pts, vals):
            pts[:] = start
            vals[:] = yield slice(0, N_PARAMS + 1)
            order = vals.argsort(kind="stable")
            pts[:], vals[:] = pts[order], vals[order]
            before = pts.copy(), vals.copy()
            centroid = pts[:-1].sum(axis=0) / N_PARAMS
            _, xr = yield _XR
            _, xe = yield _XE
            _, xc = yield _XC
            for point, expected in ((xr, centroid + (centroid - pts[-1])),
                                    (xe, centroid + 2.0 * (xr - centroid)),
                                    (xc, centroid + 0.5 * (pts[-1] - centroid))):
                seen.append(point.tobytes() == expected.tobytes())
            seen.append(pts.tobytes() == before[0].tobytes())
            seen.append(vals.tobytes() == before[1].tobytes())

        ev = _Evaluator(lambda mom: np.floor(4.0 * mom.eta_a))
        _lockstep([(ev, search)], 0.0)
        assert seen == [True] * 5
        assert ev.count == N_PARAMS + 4

    def test_converged_simplex_ends_without_evaluation(self):
        answers = []

        def search(pts, vals):
            pts[:] = np.random.default_rng(12).uniform(-3, 3, size=(N_PARAMS + 1, N_PARAMS))
            vals[:] = yield slice(0, N_PARAMS + 1)
            answers.append((yield _XR))

        ev = _Evaluator(lambda mom: 1.5)
        _lockstep([(ev, search)], TOL)
        assert answers == [None]
        assert ev.count == N_PARAMS + 1

    @pytest.mark.parametrize("constants", [(3.25,), (3.25, -1.5)], ids=["one", "two"])
    def test_scalar_objective_scores_every_row(self, constants):
        # a scalar broadcasts to every row of its evaluator, the masked row aside
        xs = np.random.default_rng(13).uniform(-3, 3, size=(5, N_PARAMS))
        xs[1] = 0.0
        received = {}

        def job(k):
            def search(pts, vals):
                pts[:3 + k] = xs[:3 + k]
                received[k] = (yield slice(0, 3 + k)).tolist()
            return search

        evs = [_Evaluator(lambda mom, c=c: c) for c in constants]
        _lockstep([(ev, job(k)) for k, ev in enumerate(evs)], TOL)
        for k, (c, ev) in enumerate(zip(constants, evs)):
            assert received[k] == [-c, -DEGENERATE_PENALTY] + [-c] * (1 + k)
            assert (ev.count, ev.degenerate_hits, ev.maximum) == (3 + k, 1, c)

    def test_default_degenerate_hits(self):
        res = maximize(chsh_objective, OptConfig(restarts=1, max_evals=64, seed=0))
        assert isinstance(res.degenerate_hits, int)
        fields = {f.name: f.default for f in dataclasses.fields(optimizer.OptResult)}
        assert fields["degenerate_hits"] == 0


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

    def test_targets_match_targets_traced_alone(self):
        cfg = OptConfig(restarts=3, max_evals=300, seed=2)
        pts = trace_eta_curve([0.3, 0.8], cfg)
        assert pts == [trace_eta_curve([t], cfg)[0] for t in (0.3, 0.8)]

    def test_bad_target_rejected(self, monkeypatch):
        with pytest.raises(MalformedInputError):
            trace_eta_curve([1.5], OptConfig(restarts=1, max_evals=64, seed=0))
        with pytest.raises(MalformedInputError):
            trace_eta_curve([float("nan")], OptConfig(restarts=1, max_evals=64, seed=0))

        # every target is checked before the first search starts
        def no_search(*args, **kwargs):
            raise AssertionError("search ran before the targets were validated")

        monkeypatch.setattr(optimizer, "_lockstep", no_search)
        with pytest.raises(MalformedInputError):
            trace_eta_curve([0.5, 1.5], OptConfig(restarts=1, max_evals=64, seed=0))
