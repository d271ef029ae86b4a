"""Predictive controller: objective algebra, rollout and its stage
Jacobians, the least-squares gradient, solver, fallback."""

from dataclasses import replace

import numpy as np
import pytest

from rampnet import mpc
from rampnet.feedback import ALINEA_GAINS, RATE_MAX_VPH, RATE_MIN_VPH, MeterBank
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
        ws = mpc._Workspace(model, x0, plan[0], MpcConfig(), plan)
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


def test_the_hinge_is_the_excess_over_the_occupancy_band(monkeypatch):
    """``measure`` writes the bound-penalty hinge as ``x - clip(x)``; it
    equals ``max(x - hi, 0) - max(lo - x, 0)`` on and one ulp either side of
    each bound, at -0.0 and far outside the band."""
    lo, hi = mpc.OCCUPANCY_MIN_PCT, mpc.OCCUPANCY_MAX_PCT
    x = np.array([0.0, -0.0, hi, 1e300, -1e300,
                  np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                  np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)])
    model = SparseModel(coefficients=np.zeros((len(x), 1 + 10 + 55)),
                        state_dim=len(x), input_dim=1)
    # x(1) = x(0) + (-0.0) keeps every x(0), -0.0 included, bit for bit.
    monkeypatch.setattr(model, "_f", lambda z: np.full(len(x), -0.0))
    with np.errstate(over="ignore"):  # the cost of x = 1e300 overflows
        ws = mpc._Workspace(model, x, np.array([1000.0]), MpcConfig(horizon=1),
                            np.array([[1000.0]]))
    assert ws.cur.x[1].tobytes() == x.tobytes()
    expected = np.maximum(x - hi, 0.0) - np.maximum(lo - x, 0.0)
    assert np.array_equal(ws.cur.hinge[0], ws.root_w * expected)


# -- the planner's gradient ---------------------------------------------------------

def _total_cost(model, x0, plan, u_prev, cfg):
    states = rollout(model, x0, plan)
    return objective(states, plan, u_prev, cfg) + bound_penalty(states)


def _solver_gradient(model, x0, plan, u_prev, cfg):
    """2 J'r from the solver's own residual and residual Jacobian, with
    |r|^2 checked against objective + bound penalty."""
    ws = mpc._Workspace(model, x0, u_prev, cfg, plan)
    states, res, jac = ws.cur.x, ws.cur.res, ws.jacobian()
    assert res @ res == pytest.approx(
        objective(states, plan, u_prev, cfg) + bound_penalty(states),
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


def _squeeze_band(monkeypatch, trial):
    """Band bounds that the random instances' trajectories cross: the full
    band, a ceiling below them, or a floor above them, by ``trial % 3``."""
    low, high = ((0.0, 80.0), (0.0, 10.0), (20.0, 80.0))[trial % 3]
    monkeypatch.setattr(mpc, "OCCUPANCY_MIN_PCT", low)
    monkeypatch.setattr(mpc, "OCCUPANCY_MAX_PCT", high)


def test_gradient_includes_active_bound_penalties(monkeypatch):
    """Squeeze the occupancy ceiling below, or the floor above, the
    trajectory so the penalty term carries real gradient signal; 2 J'r must
    still match central differences, and |r|^2 objective + penalty."""
    rng = np.random.default_rng(12)
    for trial in range(16):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", float(rng.uniform(0.0, 1e-3)))
        _squeeze_band(monkeypatch, 1 + trial % 2)
        cfg = MpcConfig(horizon=horizon)
        model = _random_model(rng, n, m)
        x0 = rng.uniform(5.0, 25.0, size=n)
        plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
        u_prev = rng.uniform(300.0, 1700.0, size=m)
        assert bound_penalty(rollout(model, x0, plan)) > 0.0
        _check_gradient(model, x0, plan, u_prev, cfg)


def _adjoint_gradient(model, states, plan, u_prev, cfg):
    """Reference gradient of objective + bound penalty by the backward
    (adjoint) recursion through the Euler rollout, using only the public
    model Jacobian, unit tracking weights and the cost constants."""
    r = mpc.RATE_CHANGE_WEIGHT

    def state_grad(x):
        over = np.maximum(x - mpc.OCCUPANCY_MAX_PCT, 0.0)
        under = np.maximum(mpc.OCCUPANCY_MIN_PCT - x, 0.0)
        return (2.0 * (x - cfg.target_occupancy_pct)
                + 2.0 * mpc.BOUND_PENALTY_WEIGHT * (over - under))

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
    """The solver's least-squares form: |r|^2 is objective + penalty and
    2 J'r is the adjoint gradient, with and without active penalties."""
    rng = np.random.default_rng(12)
    for trial in range(24):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", float(rng.uniform(0.0, 1e-3)))
        _squeeze_band(monkeypatch, trial)
        cfg = MpcConfig(horizon=horizon)
        model = _random_model(rng, n, m)
        x0 = rng.uniform(5.0, 25.0, size=n)
        plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
        u_prev = rng.uniform(300.0, 1700.0, size=m)
        ws = mpc._Workspace(model, x0, u_prev, cfg, plan)
        states, res, jac = ws.cur.x, ws.cur.res, ws.jacobian()
        penalty = bound_penalty(states)
        if trial % 3:
            assert penalty > 0.0
        assert res @ res == pytest.approx(
            objective(states, plan, u_prev, cfg) + penalty, rel=1e-12)
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
            <= mpc.TOLERANCE * (1.0 + sol.objective + sol.penalty))
    capped = solve(model, x0, u_prev,
                   replace(cfg, solver=SolverSettings(max_iters=2)))
    assert capped.iterations == 2 and not capped.converged


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
    assert sol.objective + sol.penalty < _total_cost(model, x0, start, u_prev, cfg)
    grad = _solver_gradient(model, x0, sol.plan, u_prev, cfg)
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    projected = np.where(sol.plan <= lo, np.minimum(grad, 0.0),
                         np.where(sol.plan >= hi, np.maximum(grad, 0.0), grad))
    assert sol.converged
    assert (np.max(np.abs(projected)) * (hi - lo)
            <= mpc.TOLERANCE * (1.0 + sol.objective + sol.penalty))


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
        assert sol.objective + sol.penalty <= start_total + 1e-9
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
    assert sol.objective + sol.penalty <= best * 1.01 + 1e-9


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
    assert set(entry) == {"time_s", "fallback", "objective", "penalty",
                          "iterations", "converged", "capped", "solve_time_s"}
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

    real_solve = mpc.solve

    def ended(converged, iterations):
        def fake(*args, **kwargs):
            return replace(real_solve(*args, **kwargs), converged=converged,
                           iterations=iterations)
        return fake

    controller = MpcController(model, MpcConfig(horizon=4))
    for converged, iterations in ((True, 200), (False, 7)):
        monkeypatch.setattr(mpc, "solve", ended(converged, iterations))
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
    real_solve = mpc.solve

    def spy(model, x0, u_prev, cfg, warm_start=None):
        seen.append((u_prev.copy(), warm_start))
        return real_solve(model, x0, u_prev, cfg, warm_start=warm_start)

    monkeypatch.setattr(mpc, "solve", spy)
    resumed = controller(_obs([15.0, 16.0], time_s=90.0))
    (u_prev, warm_start), = seen
    assert np.array_equal(u_prev, action) and warm_start is None
    entry = controller.diagnostics[-1]
    assert "handed_over" not in entry and entry["iterations"] >= 1
    assert np.array_equal(controller.alinea.rates, resumed)
    assert [step.get("handed_over", False)
            for step in controller.diagnostics] == [False, True, False]
