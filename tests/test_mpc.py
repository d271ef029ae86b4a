"""Predictive controller: objective algebra, rollout and its stage
Jacobians, the least-squares gradient, solver, fallback."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from rampnet import mpc
from rampnet.feedback import (ALINEA_GAINS, INITIAL_RATE_VPH, RATE_MAX_VPH,
                              RATE_MIN_VPH, MeterBank)
from rampnet.mpc import (ModelBlowupError, MpcConfig, MpcController,
                         SolverSettings, bound_penalty, objective, rollout,
                         solve)
from rampnet.plant import ControlObservation, _is_planner_step
from rampnet.sysid import SparseModel, build_library, fit_derivatives


def _linear_model(a=2.0, b=3.0, seed=0):
    """Exact sparse fit of xdot = a x + b u, one state and one input."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(300, 1))
    u = rng.uniform(-2.0, 2.0, size=(300, 1))
    return fit_derivatives(x, u, (a * x[:, 0] + b * u[:, 0]).reshape(-1, 1))


def _random_model(rng, n, m):
    """A stable-ish random sparse quadratic model fit exactly from samples."""
    x = rng.uniform(0.0, 30.0, size=(600, n))
    u = rng.uniform(200.0, 1800.0, size=(600, m))
    y = np.empty((600, n))
    for i in range(n):
        j = rng.integers(m)
        k = rng.integers(n)
        y[:, i] = (rng.uniform(0.5, 2.0) * (15.0 - x[:, i])
                   + rng.uniform(1.0, 3.0) * 1e-3 * u[:, j]
                   - rng.uniform(0.5, 2.0) * 1e-3 * x[:, i] * x[:, k])
    return fit_derivatives(x, u, y)


# -- objective and penalty ---------------------------------------------------------

def test_objective_hand_value_without_rate_weight(monkeypatch):
    monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", 0.0)
    cfg = MpcConfig(horizon=2)
    states = np.array([[16.0], [14.0], [15.0]])
    plan = np.array([[1000.0], [1200.0]])
    assert objective(states, plan, [1100.0], cfg) == pytest.approx(2.0)


def test_objective_hand_value_with_rate_weight(monkeypatch):
    monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", 0.001)
    cfg = MpcConfig(horizon=2)
    states = np.array([[16.0], [14.0], [15.0]])
    plan = np.array([[1000.0], [1200.0]])
    # du = (-100, +200): 0.001 * (1e4 + 4e4) = 50 on top of the tracking 2.
    assert objective(states, plan, [1100.0], cfg) == pytest.approx(52.0)


def test_objective_rejects_mismatched_rows():
    cfg = MpcConfig(horizon=2)
    with pytest.raises(ValueError, match="one more state row"):
        objective(np.zeros((2, 1)), np.zeros((2, 1)), [0.0], cfg)


def test_bound_penalty_ignores_the_measured_stage():
    states = np.array([[-5.0], [-2.0], [90.0]])
    assert bound_penalty(states) == pytest.approx(1e3 * (4.0 + 100.0))


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        MpcConfig(horizon=0)


# -- rollout ------------------------------------------------------------------------

def test_rollout_matches_hand_iteration():
    model = _linear_model()
    states = rollout(model, [1.0], [[1.0], [1.0]])
    assert np.allclose(states.ravel(), [1.0, 6.0, 21.0], atol=1e-8)


def test_rollout_rejects_mismatched_shapes():
    model = _linear_model()
    with pytest.raises(ValueError, match="expected"):
        rollout(model, [1.0, 2.0], [[1.0]])
    with pytest.raises(ValueError, match="expected"):
        rollout(model, [1.0], [[1.0, 2.0]])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_rollout_reports_the_step_that_diverged():
    """x' = x^2 squares the state each step: 1e50 -> 1e100 -> 1e200 -> inf.
    The rollout tests finiteness once, after the last stage, and still
    names the first stage that overflowed."""
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 3.0, size=(300, 1))
    u = rng.uniform(-1.0, 1.0, size=(300, 1))
    grower = fit_derivatives(x, u, (x[:, 0] ** 2).reshape(-1, 1))
    for x0, step in ((1e200, 1), (1e100, 2), (1e50, 3)):
        with pytest.raises(ModelBlowupError) as exc:
            rollout(grower, [x0], np.full((4, 1), 0.0))
        assert exc.value.step == step


def test_prediction_keeps_the_public_states_and_jacobians():
    """The planner's workspace holds exactly the states ``rollout`` and
    ``model.evaluate`` give, and its stacked stage reads of df/dz are exactly
    what ``model.jacobian`` gives, for quadratic and linear libraries."""
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 30.0, size=(400, 3))
    u = rng.uniform(200.0, 1800.0, size=(400, 2))
    y = np.column_stack([0.5 * (15.0 - x[:, i]) + 2e-3 * u[:, i % 2]
                         - 1e-3 * x[:, i] * x[:, (i + 1) % 3] for i in range(3)])
    x0 = np.array([12.0, 18.0, 25.0])
    plan = rng.uniform(300.0, 1700.0, size=(4, 2))
    # The linear model is the least-squares fit on the constant and z
    # columns of the library, its products zero, as DMDc fits it.
    theta = build_library(x, u)
    coef = np.zeros((3, theta.shape[1]))
    coef[:, :6] = np.linalg.lstsq(theta[:, :6], y, rcond=None)[0].T
    linear = SparseModel(coefficients=coef, state_dim=3, input_dim=2)
    for model in (fit_derivatives(x, u, y), linear):
        ws = mpc._Workspace(model, MpcConfig())
        ws.start(x0, plan[0], plan)
        states = ws.cur.x
        assert np.array_equal(states, rollout(model, x0, plan))
        ws.jacobian()
        for l in range(len(plan)):
            assert np.array_equal(ws.cur.z[l], np.concatenate([states[l], plan[l]]))
            assert np.array_equal(states[l + 1], states[l] + model.evaluate(
                states[l], plan[l]))
            jac = ws.stage_jac[l]
            jac_x, jac_u = model.jacobian(states[l], plan[l])
            assert np.array_equal(jac[:, :3], jac_x)
            assert np.array_equal(jac[:, 3:], jac_u)


def test_the_residual_is_tracking_then_rate_changes():
    """The planner's residual holds the (N+1) n tracking deviations, stage by
    stage, then the N m weighted rate changes, and nothing else; the
    residual Jacobian has the same rows, with S(0) = 0 and the constant
    rate-change band: +sqrt(RATE_CHANGE_WEIGHT) on the diagonal, its
    negative one stage to the left."""
    rng = np.random.default_rng(3)
    n, m, horizon = 3, 2, 4
    model = _random_model(rng, n, m)
    cfg = MpcConfig(horizon=horizon)
    x0 = rng.uniform(5.0, 25.0, size=n)
    plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
    u_prev = rng.uniform(300.0, 1700.0, size=m)
    ws = mpc._Workspace(model, cfg)
    ws.start(x0, u_prev, plan)
    track, size = (horizon + 1) * n, horizon * m
    assert ws.cur.res.shape == ws.cand.res.shape == (track + size,)
    jac = ws.jacobian()
    assert jac.shape == (track + size, size)
    states = rollout(model, x0, plan)
    root = np.sqrt(mpc.RATE_CHANGE_WEIGHT)
    assert np.array_equal(ws.cur.res[:track],
                          (states - cfg.target_occupancy_pct).ravel())
    assert np.array_equal(ws.cur.res[track:],
                          root * np.diff(np.vstack([u_prev, plan]), axis=0).ravel())
    assert not jac[:n].any()
    assert np.array_equal(jac[track:],
                          root * (np.eye(size) - np.eye(size, k=-m)))


# -- the planner's gradient ---------------------------------------------------------

def _total_cost(model, x0, plan, u_prev, cfg):
    return objective(rollout(model, x0, plan), plan, u_prev, cfg)


def _solver_gradient(model, x0, plan, u_prev, cfg):
    """2 J'r from the solver's own residual and residual Jacobian, with
    |r|^2 checked against the objective."""
    ws = mpc._Workspace(model, cfg)
    ws.start(x0, u_prev, plan)
    states, res, jac = ws.cur.x, ws.cur.res, ws.jacobian()
    assert res @ res == pytest.approx(objective(states, plan, u_prev, cfg),
                                      rel=1e-12)
    return (2.0 * jac.T @ res).reshape(plan.shape)


def _check_gradient(model, x0, plan, u_prev, cfg, rel_tol=1e-5):
    grad = _solver_gradient(model, x0, plan, u_prev, cfg)
    eps = 1e-2
    fd = np.empty_like(plan)
    for l in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            hi = plan.copy()
            lo = plan.copy()
            hi[l, j] += eps
            lo[l, j] -= eps
            fd[l, j] = (_total_cost(model, x0, hi, u_prev, cfg)
                        - _total_cost(model, x0, lo, u_prev, cfg)) / (2 * eps)
    denom = max(float(np.linalg.norm(fd)), 1e-9)
    assert float(np.linalg.norm(grad - fd)) / denom < rel_tol


def test_least_squares_gradient_matches_finite_differences(monkeypatch):
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", float(rng.uniform(0.0, 1e-3)))
        cfg = MpcConfig(horizon=horizon)
        model = _random_model(rng, n, m)
        x0 = rng.uniform(5.0, 25.0, size=n)
        plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
        u_prev = rng.uniform(300.0, 1700.0, size=m)
        _check_gradient(model, x0, plan, u_prev, cfg)


def _adjoint_gradient(model, states, plan, u_prev, cfg):
    """Reference gradient of the objective by the backward (adjoint)
    recursion through the Euler rollout, using only the public model
    Jacobian, unit tracking weights and the rate-change weight."""
    r = mpc.RATE_CHANGE_WEIGHT

    def state_grad(x):
        return 2.0 * (x - cfg.target_occupancy_pct)

    n_steps = len(plan)
    grad = np.empty_like(plan)
    lam = state_grad(states[n_steps])
    for l in range(n_steps - 1, -1, -1):
        jac_x, jac_u = model.jacobian(states[l], plan[l])
        grad[l] = jac_u.T @ lam
        before = u_prev if l == 0 else plan[l - 1]
        grad[l] += 2.0 * r * (plan[l] - before)
        if l + 1 < n_steps:
            grad[l] -= 2.0 * r * (plan[l + 1] - plan[l])
        if l >= 1:
            lam = state_grad(states[l]) + lam + jac_x.T @ lam
    return grad


def test_residual_jacobian_gives_the_adjoint_gradient(monkeypatch):
    """The solver's least-squares form: |r|^2 is the objective and 2 J'r
    is the adjoint gradient."""
    rng = np.random.default_rng(12)
    for trial in range(24):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", float(rng.uniform(0.0, 1e-3)))
        cfg = MpcConfig(horizon=horizon)
        model = _random_model(rng, n, m)
        x0 = rng.uniform(5.0, 25.0, size=n)
        plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
        u_prev = rng.uniform(300.0, 1700.0, size=m)
        ws = mpc._Workspace(model, cfg)
        ws.start(x0, u_prev, plan)
        states, res, jac = ws.cur.x, ws.cur.res, ws.jacobian()
        assert res @ res == pytest.approx(objective(states, plan, u_prev, cfg),
                                          rel=1e-12)
        adjoint = _adjoint_gradient(model, states, plan, u_prev, cfg).ravel()
        assert np.allclose(2.0 * jac.T @ res, adjoint, rtol=1e-9,
                           atol=1e-12 * np.max(np.abs(adjoint)))


# -- solver -------------------------------------------------------------------------

def _two_corridors():
    """One corridor far above target, one nearly empty: at the optimum the
    first meter sits at the floor and the second at the ceiling for part of
    the horizon."""
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 60.0, size=(400, 2))
    u = rng.uniform(200.0, 1800.0, size=(400, 2))
    y = np.column_stack([0.2 * (15.0 - x[:, i]) + 4e-3 * (u[:, i] - 1000.0)
                         - 1e-4 * x[:, i] * x[:, 1 - i] for i in range(2)])
    return fit_derivatives(x, u, y)


def test_converged_means_the_projected_gradient_test_holds(monkeypatch):
    monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", 1e-5)
    model = _two_corridors()
    cfg = MpcConfig(horizon=4)
    x0, u_prev = [60.0, 2.0], np.array([1000.0, 1000.0])
    sol = solve(model, x0, u_prev, cfg)
    assert sol.converged
    assert sol.iterations <= 20  # against a cap of 200
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    at_bound = (sol.plan == lo) | (sol.plan == hi)
    assert at_bound.sum() >= 4
    grad = _solver_gradient(model, np.asarray(x0), sol.plan, u_prev, cfg)
    assert np.min(np.abs(grad[at_bound])) > 1e-3  # the bounds really bind
    projected = np.where(sol.plan <= lo, np.minimum(grad, 0.0),
                         np.where(sol.plan >= hi, np.maximum(grad, 0.0), grad))
    assert (np.max(np.abs(projected)) * (hi - lo)
            <= mpc.TOLERANCE * (1.0 + sol.objective))
    capped = solve(model, x0, u_prev,
                   replace(cfg, solver=SolverSettings(max_iters=2)))
    assert capped.iterations == 2 and not capped.converged


def test_the_active_set_is_the_rates_stuck_on_a_bound():
    """One iteration from a plan whose three rates all have a positive
    gradient (each wants to fall): rate 0 sits on the floor, so it is stuck
    and stays there; rate 1 sits on the ceiling, pushed inward, so it is
    free and falls; rate 2 lies a hair above the floor but inside the box,
    so it is free too. Sensor 1 reads rates 1 and 2 together, so the
    free block's Gauss-Newton step lowers rate 1 a long way and raises
    rate 2, against its own gradient; holding rate 2 would lower it."""
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    b = 0.01  # occupancy points per veh/h in one control step
    coefficients = np.zeros((3, 28))  # the library of 3 states and 3 inputs
    coefficients[:, 0] = [1.0, -15.0, -4.0]
    coefficients[0, 4] = coefficients[1, 5] = coefficients[1, 6] = b
    coefficients[2, 6] = b
    model = SparseModel(coefficients=coefficients, state_dim=3, input_dim=3)
    cfg = MpcConfig(horizon=1, solver=SolverSettings(max_iters=1))
    x0 = np.full(3, cfg.target_occupancy_pct)
    plan = np.array([[lo, hi, lo + 1e-3]])
    ws = mpc._Workspace(model, cfg)
    ws.start(x0, plan[0], plan)
    assert (ws.jacobian().T @ ws.cur.res > 0.0).all()
    sol = solve(model, x0, plan[0], cfg, warm_start=plan)
    assert sol.iterations == 1 and not sol.converged
    assert sol.plan[0, 0] == lo
    assert lo < sol.plan[0, 1] < hi - 100.0
    assert sol.plan[0, 2] > plan[0, 2] + 100.0


def test_solve_reads_the_rate_change_weight_at_call_time(monkeypatch):
    """Each solve reads the cost constants when it starts: a large
    ``RATE_CHANGE_WEIGHT`` keeps the plan near u_prev and the reported
    objective carries the rate-change term, and putting the module's
    default back gives the first plan again, bit for bit."""
    default = mpc.RATE_CHANGE_WEIGHT
    model = _two_corridors()
    cfg = MpcConfig(horizon=4)
    x0, u_prev = [60.0, 2.0], np.array([1000.0, 1000.0])

    def rate_changes(plan):
        return np.diff(np.vstack([u_prev, plan]), axis=0)

    free = solve(model, x0, u_prev, cfg)
    monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", 0.01)
    damped = solve(model, x0, u_prev, cfg)
    assert (np.abs(rate_changes(damped.plan)).sum()
            < 0.1 * np.abs(rate_changes(free.plan)).sum())
    rate_term = 0.01 * np.sum(rate_changes(damped.plan) ** 2)
    assert rate_term > 1.0
    assert damped.objective == pytest.approx(
        np.sum((damped.states - cfg.target_occupancy_pct) ** 2) + rate_term,
        rel=1e-12)
    monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", default)
    again = solve(model, x0, u_prev, cfg)
    assert np.array_equal(again.plan, free.plan)
    assert again.iterations == free.iterations


def test_a_candidate_that_diverges_is_rejected():
    """The first line-search candidate's rollout leaves the finite range at
    its third stage. The search rejects it and goes on: the plan and states
    are finite, the cost is below the start's, and ``converged`` is the
    projected-gradient test at the returned plan."""
    model = _two_corridors()
    cfg = MpcConfig(horizon=4)
    x0, u_prev = np.array([60.0, 2.0]), np.array([1000.0, 1000.0])
    read = model._f
    reads = 0

    def diverging(z):
        nonlocal reads
        reads += 1
        # reads 1-4 measure the start plan, 5-8 the first candidate
        return np.full(2, np.inf) if reads == 7 else read(z)

    model._f = diverging
    sol = solve(model, x0, u_prev, cfg)
    del model._f
    assert reads > 8
    assert np.all(np.isfinite(sol.plan)) and np.all(np.isfinite(sol.states))
    assert np.array_equal(sol.states, rollout(model, x0, sol.plan))
    start = np.tile(u_prev, (cfg.horizon, 1))
    assert sol.objective < _total_cost(model, x0, start, u_prev, cfg)
    grad = _solver_gradient(model, x0, sol.plan, u_prev, cfg)
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    projected = np.where(sol.plan <= lo, np.minimum(grad, 0.0),
                         np.where(sol.plan >= hi, np.maximum(grad, 0.0), grad))
    assert sol.converged
    assert (np.max(np.abs(projected)) * (hi - lo)
            <= mpc.TOLERANCE * (1.0 + sol.objective))


def test_returned_plans_share_no_memory_with_later_solves():
    """A solution's plan and states, and the controller's ``last_plan``,
    stay as they were while later solves run."""
    rng = np.random.default_rng(11)
    model = _random_model(rng, 2, 2)
    cfg = MpcConfig(horizon=3)
    first = solve(model, [20.0, 22.0], [900.0, 1100.0], cfg)
    plan, states = first.plan.copy(), first.states.copy()
    controller = MpcController(model, cfg)
    controller(_obs([20.0, 22.0]))
    last_plan = controller.last_plan
    kept = last_plan.copy()
    for k in range(3):
        solve(model, [10.0 + k, 25.0], [1500.0, 300.0], cfg)
        controller(_obs([12.0 + 3 * k, 28.0], time_s=60.0 + 30.0 * k))
    assert np.array_equal(first.plan, plan)
    assert np.array_equal(first.states, states)
    assert np.array_equal(last_plan, kept)
    assert not np.shares_memory(first.plan, first.states)


def test_solve_is_monotone_and_feasible():
    rng = np.random.default_rng(4)
    for trial in range(5):
        model = _random_model(rng, 2, 2)
        cfg = MpcConfig(horizon=4)
        x0 = rng.uniform(5.0, 28.0, size=2)
        u_prev = rng.uniform(200.0, 1800.0, size=2)
        start = np.tile(np.clip(u_prev, RATE_MIN_VPH, RATE_MAX_VPH),
                        (cfg.horizon, 1))
        start_total = _total_cost(model, x0, start, u_prev, cfg)
        sol = solve(model, x0, u_prev, cfg)
        assert sol.objective <= start_total + 1e-9
        assert np.all(sol.plan >= RATE_MIN_VPH)
        assert np.all(sol.plan <= RATE_MAX_VPH)
        assert sol.states.shape == (cfg.horizon + 1, 2)
        assert sol.iterations >= 1


def test_solve_with_unactuated_model_keeps_the_start_plan():
    """If the input never enters the dynamics and R = 0 the objective is flat
    in the plan, so the first gradient check should declare convergence."""
    rng = np.random.default_rng(5)
    x = rng.uniform(5.0, 25.0, size=(300, 1))
    u = rng.uniform(200.0, 1800.0, size=(300, 1))
    deaf = fit_derivatives(x, u, (0.3 * (15.0 - x[:, 0])).reshape(-1, 1))
    assert not any("u1" in label for label, _ in deaf.active_terms(0))
    sol = solve(deaf, [20.0], [900.0], MpcConfig(horizon=3))
    assert sol.converged
    assert sol.iterations == 1
    assert np.allclose(sol.plan, 900.0)


def test_solve_beats_an_exhaustive_grid():
    """Small instance where brute force is affordable: the solver must land
    within a percent of the best plan on an 11^3 rate lattice."""
    rng = np.random.default_rng(6)
    model = _random_model(rng, 1, 1)
    cfg = MpcConfig(horizon=3)
    x0, u_prev = [24.0], [1000.0]
    grid = np.linspace(RATE_MIN_VPH, RATE_MAX_VPH, 11)
    best = np.inf
    for a in grid:
        for b in grid:
            for c in grid:
                plan = np.array([[a], [b], [c]])
                best = min(best, _total_cost(model, x0, plan, u_prev, cfg))
    sol = solve(model, x0, u_prev, cfg)
    assert sol.objective <= best * 1.01 + 1e-9


def test_solve_validates_shapes():
    model = _linear_model()
    with pytest.raises(ValueError, match="u_prev"):
        solve(model, [1.0], [1.0, 2.0], MpcConfig())
    with pytest.raises(ValueError, match="warm start"):
        solve(model, [1.0], [1.0], MpcConfig(horizon=3),
              warm_start=np.zeros((2, 1)))


def test_solver_settings_cap_iterations():
    rng = np.random.default_rng(7)
    model = _random_model(rng, 2, 2)
    cfg = MpcConfig(horizon=4, solver=SolverSettings(max_iters=2))
    sol = solve(model, rng.uniform(5.0, 28.0, size=2),
                rng.uniform(200.0, 1800.0, size=2), cfg)
    assert sol.iterations <= 2


# -- receding-horizon controller ----------------------------------------------------

def _obs(occupancy, time_s=30.0):
    occupancy = np.atleast_1d(np.asarray(occupancy, dtype=float))
    return ControlObservation(time_s=time_s, occupancy=occupancy,
                              flow=np.zeros_like(occupancy),
                              speed=np.zeros_like(occupancy))


def test_controller_applies_first_action_and_remembers():
    rng = np.random.default_rng(8)
    model = _random_model(rng, 2, 2)
    controller = MpcController(model, MpcConfig(horizon=3))
    action = controller(_obs([20.0, 22.0]))
    assert action.shape == (2,)
    assert np.array_equal(controller.u_prev, action)
    assert controller.last_plan.shape == (3, 2)
    assert np.array_equal(action, controller.last_plan[0])
    entry = controller.diagnostics[0]
    assert set(entry) == {"time_s", "fallback", "objective", "iterations",
                          "converged", "capped", "solve_time_s"}
    assert entry["fallback"] is False


def test_controller_marks_only_solves_the_cap_ended_as_capped(monkeypatch):
    """``capped`` means the search spent its whole iteration cap without
    passing the optimality test: a solve cut at ``max_iters=1`` is capped; a
    converged solve and a stalled one, which stopped with iterations to
    spare, are not."""
    model = _two_corridors()
    cfg = MpcConfig(horizon=4, solver=SolverSettings(max_iters=1))
    controller = MpcController(model, cfg)
    controller(_obs([60.0, 2.0]))
    entry = controller.diagnostics[0]
    assert entry["iterations"] == 1 and not entry["converged"]
    assert entry["capped"] is True

    real_solve = mpc._solve

    def ended(converged, iterations):
        def fake(*args, **kwargs):
            return replace(real_solve(*args, **kwargs), converged=converged,
                           iterations=iterations)
        return fake

    controller = MpcController(model, MpcConfig(horizon=4))
    for converged, iterations in ((True, 200), (False, 7)):
        monkeypatch.setattr(mpc, "_solve", ended(converged, iterations))
        controller(_obs([60.0, 2.0]))
        assert controller.diagnostics[-1]["capped"] is False


def test_controller_warm_starts_with_the_shifted_plan():
    rng = np.random.default_rng(9)
    model = _random_model(rng, 1, 1)
    controller = MpcController(model, MpcConfig(horizon=4))
    controller(_obs([20.0]))
    plan = controller.last_plan.copy()
    shifted = controller._warm_start()
    assert np.array_equal(shifted[:-1], plan[1:])
    assert np.array_equal(shifted[-1], plan[-1])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_controller_falls_back_to_previous_rates_on_blowup():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.5, 3.0, size=(300, 1))
    u = rng.uniform(-1.0, 1.0, size=(300, 1))
    grower = fit_derivatives(x, u, (x[:, 0] ** 2).reshape(-1, 1))
    controller = MpcController(grower, MpcConfig(horizon=4))
    controller.u_prev = np.array([700.0])
    action = controller(_obs([1e200]))
    assert np.array_equal(action, [700.0])
    assert controller.diagnostics[0]["fallback"] is True
    assert controller.last_plan is None
    # The controller stays usable on the next, sane observation.
    second = controller(_obs([20.0], time_s=60.0))
    assert np.all(np.isfinite(second))
    assert controller.diagnostics[1]["fallback"] is False


def test_controller_hands_windows_outside_the_envelope_to_alinea(monkeypatch):
    """Outside a narrow envelope the controller applies ALINEA's rates, from
    an integrator that followed the planner's rates, makes them ``u_prev``,
    drops the plan and records a handed-over window that is not a fallback;
    back inside, the planner resumes from those rates."""
    rng = np.random.default_rng(8)
    fitted = _random_model(rng, 2, 2)
    model = SparseModel(fitted.coefficients, 2, 2,
                        envelope=([10.0, 10.0], [20.0, 20.0]))
    controller = MpcController(model, MpcConfig(horizon=3))
    planned = controller(_obs([15.0, 16.0]))
    assert controller.last_plan is not None
    assert np.array_equal(controller.alinea.rates, planned)

    outside = _obs([25.0, 16.0], time_s=60.0)
    bank = MeterBank(2, controller.config.target_occupancy_pct, *ALINEA_GAINS)
    bank.rates = planned.copy()
    action = controller(outside)
    assert np.array_equal(action, bank(outside))
    assert np.array_equal(controller.u_prev, action)
    assert controller.last_plan is None
    entry = controller.diagnostics[-1]
    assert entry == {"time_s": 60.0, "fallback": False, "handed_over": True,
                     "iterations": 0, "converged": False, "capped": False,
                     "solve_time_s": 0.0}
    assert _is_planner_step(entry)

    seen = []
    real_solve = mpc._solve

    def spy(ws, x0, u_prev, warm_start, started):
        seen.append((u_prev.copy(), warm_start))
        return real_solve(ws, x0, u_prev, warm_start, started)

    monkeypatch.setattr(mpc, "_solve", spy)
    resumed = controller(_obs([15.0, 16.0], time_s=90.0))
    (u_prev, warm_start), = seen
    assert np.array_equal(u_prev, action) and warm_start is None
    entry = controller.diagnostics[-1]
    assert "handed_over" not in entry and entry["iterations"] >= 1
    assert np.array_equal(controller.alinea.rates, resumed)
    assert [step.get("handed_over", False)
            for step in controller.diagnostics] == [False, True, False]


def test_a_solve_whose_cost_overflows_raises_and_the_controller_falls_back():
    """A constant drift of 1e155 keeps every predicted state finite, but the
    squared deviation of the first predicted stage overflows. The solve
    raises instead of reporting a NaN objective as converged, and the
    controller reapplies its rates and records a fallback."""
    coef = np.zeros((1, 1 + 2 + 3))
    coef[0, 0] = 1e155
    drifter = SparseModel(coefficients=coef, state_dim=1, input_dim=1)
    cfg = MpcConfig(horizon=2)
    assert np.isfinite(rollout(drifter, [15.0], [[1000.0], [1000.0]])).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelBlowupError) as exc:
            solve(drifter, [15.0], [1000.0], cfg)
        assert exc.value.step == 1
        controller = MpcController(drifter, cfg)
        action = controller(_obs([15.0]))
    assert np.array_equal(action, [INITIAL_RATE_VPH])
    assert controller.diagnostics == [{"time_s": 30.0, "fallback": True}]
    assert controller.last_plan is None


def _corridor_pair(quadratic: bool) -> SparseModel:
    """Two cells drawn to 30 % and pushed up by their meters, with an
    envelope up to 120 %: 130 % is outside the envelope."""
    coef = np.zeros((2, 1 + 4 + 10))
    coef[:, 0] = 0.2 * 30.0 - 0.02 * 1000.0
    coef[[0, 1], [1, 2]] = -0.2
    coef[[0, 1], [3, 4]] = 0.02
    if quadratic:
        coef[:, 1 + 4 + 1] = 1e-4  # x1 x2
    return SparseModel(coefficients=coef, state_dim=2, input_dim=2,
                       envelope=([0.0, 0.0], [120.0, 120.0]))


def test_a_reused_workspace_computes_what_a_fresh_one_does(monkeypatch):
    """One controller episode in the controller's own workspace gives the
    actions, diagnostics (apart from ``solve_time_s``) and last plan that a
    new workspace per window, as :func:`solve` makes, gives from the same
    warm starts and ``u_prev``, for a quadratic and a linear model. The
    episode hands a window over and solves again after it. The linear
    model's stage Jacobians are read once for the whole episode."""
    occupancy = [[40.0, 50.0], [110.0, 60.0], [105.0, 112.0], [130.0, 20.0],
                 [70.0, 85.0], [108.0, 30.0], [20.0, 25.0], [16.0, 14.0]]
    real_solve = mpc._solve

    def fresh(ws, *args):  # what solve() runs: a new workspace per window
        return real_solve(mpc._Workspace(ws.model, ws.cfg), *args)

    for quadratic in (True, False):
        model = _corridor_pair(quadratic)
        reads = []

        def counted(zs, out, model=model):
            reads.append(len(zs))
            return SparseModel._df_rows(model, zs, out)

        model._df_rows = counted
        runs = []
        for planner in (real_solve, fresh):
            monkeypatch.setattr(mpc, "_solve", planner)
            controller = MpcController(model, MpcConfig(horizon=3))
            actions = [controller(_obs(x, time_s=30.0 * (k + 1))).tobytes()
                       for k, x in enumerate(occupancy)]
            diagnostics = repr([{key: value for key, value in entry.items()
                                 if key != "solve_time_s"}
                                for entry in controller.diagnostics])
            runs.append((actions, diagnostics, controller.last_plan.tobytes()))
            if planner is real_solve and not quadratic:
                assert len(reads) == 1
        assert runs[0] == runs[1]
        entries = controller.diagnostics
        assert [entry.get("handed_over", False) for entry in entries].count(True) == 1
        assert not any(entry["fallback"] for entry in entries)
