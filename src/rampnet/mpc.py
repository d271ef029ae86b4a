"""Coordinated predictive ramp metering on a discovered sparse model.

Every control step the controller solves, by single shooting, a short-horizon
tracking problem on the one-step Euler predictor ``x(l+1) = x(l) + h f(x, u)``:

    min over u(0..N-1) of
        sum_l [ (x(l) - target)' Q (x(l) - target) + du(l)' R du(l) ]
        + (x(N) - target)' P (x(N) - target)

with ``du(l) = u(l) - u(l-1)`` anchored at the previously applied rates,
rates boxed to the feasible meter range, and occupancy bounds enforced
through a quadratic penalty. The whole cost is a sum of squared residuals,
so the solver is projected Gauss-Newton on the rate box (Bertsekas 1982):
the residual Jacobian comes from forward sensitivities through the model's
polynomial Jacobians, which the rollout reads together with the predictions
(one model read per stage), rates within a small margin of a bound that the
gradient pushes outward are held by a diagonal step, the free rates take a
Levenberg-Marquardt step on J'J, and a search along the projection arc
accepts only a sufficient decrease. A solve reports ``converged`` only when
the projected gradient passes the optimality test. Only the first planned
action is applied; the rest warm starts the next solve.

This module plans; :mod:`rampnet.harness` runs the episodes, including the
horizon sweep.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .feedback import RATE_MAX_VPH, RATE_MIN_VPH
from .sysid import SparseModel

__all__ = [
    "ModelBlowupError",
    "SolverSettings",
    "MpcConfig",
    "MpcSolution",
    "rollout",
    "objective",
    "bound_penalty",
    "solve",
    "MpcController",
]

logger = logging.getLogger(__name__)

# Levenberg-Marquardt damping, relative to the diagonal of J'J. After a full
# step it follows the gain ratio of actual to predicted decrease (Nielsen's
# rule: down by up to 3x when the model was right, up when it was not); a
# shortened step doubles it. The floor keeps the free block nonsingular.
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-12
# Diagonal entries of J'J below this share of the largest are raised to it,
# so a rate that no residual sees still gets a finite scaled step.
_SCALE_FLOOR = 1e-12
# The eps-active margin never exceeds this share of the rate box.
_EPS_FRAC = 0.01
# Projection-arc search: sufficient-decrease factor and step halvings.
_ARMIJO = 1e-4
_ARC_HALVINGS = 30


class ModelBlowupError(RuntimeError):
    """A rollout left the finite range (model extrapolated into divergence)."""

    def __init__(self, step: int):
        super().__init__(f"model prediction diverged at rollout step {step}")
        self.step = step


@dataclass(frozen=True)
class SolverSettings:
    """Projected Gauss-Newton solver limits. Deterministic for fixed inputs.

    A solve has converged when no rate's projected gradient, times the width
    of the rate box, exceeds ``tolerance * (1 + cost)``: moving any one rate
    anywhere in its range could gain at most that much to first order.
    """

    max_iters: int = 200
    tolerance: float = 1e-7


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, bounds, and solver settings for one controller."""

    horizon: int = 4
    state_weight: float | np.ndarray = 1.0  # Q diagonal
    terminal_weight: float | np.ndarray = 1.0  # P diagonal
    rate_change_weight: float | np.ndarray = 0.0  # R diagonal
    target_occupancy_pct: float = 15.0
    occupancy_min_pct: float = 0.0
    occupancy_max_pct: float = 80.0
    rate_min_vph: float = RATE_MIN_VPH
    rate_max_vph: float = RATE_MAX_VPH
    bound_penalty_weight: float = 1e3
    step_h: float = 1.0  # Euler step, in control steps (model time units)
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.rate_min_vph >= self.rate_max_vph:
            raise ValueError("rate bounds must satisfy min < max")
        if self.occupancy_min_pct >= self.occupancy_max_pct:
            raise ValueError("occupancy bounds must satisfy min < max")

    def weights(self, n: int, m: int):
        def diag(w, size, name):
            arr = np.asarray(w, dtype=float) * np.ones(size)
            if arr.shape != (size,):
                raise ValueError(f"{name} must broadcast to shape ({size},)")
            if (arr < 0).any():
                raise ValueError(f"{name} must be nonnegative")
            return arr

        return (diag(self.state_weight, n, "state_weight"),
                diag(self.terminal_weight, n, "terminal_weight"),
                diag(self.rate_change_weight, m, "rate_change_weight"))


@dataclass(frozen=True)
class MpcSolution:
    """One solve: planned rates, predicted states, and solver diagnostics."""

    plan: np.ndarray  # (N, m) veh/h
    states: np.ndarray  # (N+1, n) predicted occupancy %
    objective: float  # exact tracking objective
    penalty: float  # occupancy bound penalty at the solution
    iterations: int
    converged: bool
    solve_time_s: float


def _predict(model: SparseModel, x0: np.ndarray, plan: np.ndarray,
             h: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Euler rollout that keeps each stage's model Jacobian.

    Returns the (N+1, n) states, row 0 being ``x0``, and the N Jacobians
    df/dz, each (n, n + m), at (x(l), u(l)): one model read per stage, with
    x and u written into one z buffer.
    """
    n = len(x0)
    if n != model.state_dim or plan.shape[1] != model.input_dim:
        raise ValueError(
            f"expected ({model.state_dim},) states and (N, {model.input_dim}) "
            f"plans, got {x0.shape} and {plan.shape}")
    states = np.empty((len(plan) + 1, n))
    states[0] = x0
    z = np.empty(n + plan.shape[1])
    jacobians = []
    x = x0
    for l in range(len(plan)):
        z[:n] = x
        z[n:] = plan[l]
        f, jac = model._read(z)
        x = x + h * f
        if not np.all(np.isfinite(x)):
            raise ModelBlowupError(l + 1)
        states[l + 1] = x
        jacobians.append(jac)
    return states, jacobians


def rollout(model: SparseModel, x0, plan, h: float = 1.0) -> np.ndarray:
    """Euler rollout of the plan; states row 0 is ``x0``.

    Raises :class:`ModelBlowupError` (carrying the step index) if any state
    stops being finite; quadratic models can diverge when pushed far outside
    the data they were fit on.
    """
    plan = np.atleast_2d(np.asarray(plan, dtype=float))
    return _predict(model, np.asarray(x0, dtype=float).reshape(-1), plan, h)[0]


def objective(states: np.ndarray, plan: np.ndarray, u_prev, cfg: MpcConfig) -> float:
    """Exact tracking objective for a rolled-out plan (no bound penalty).

    Includes the (constant) deviation of the measured state at stage 0, so
    the value is comparable across solvers that report the full cost.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    plan = np.atleast_2d(np.asarray(plan, dtype=float))
    if len(states) != len(plan) + 1:
        raise ValueError("need exactly one more state row than plan rows")
    q, p, r = cfg.weights(states.shape[1], plan.shape[1])
    dev = states - cfg.target_occupancy_pct
    du = np.diff(np.vstack([np.asarray(u_prev, dtype=float).reshape(1, -1), plan]),
                 axis=0)
    stage = float(np.sum(dev[:-1] ** 2 @ q) + np.sum(du ** 2 @ r))
    terminal = float(dev[-1] ** 2 @ p)
    return stage + terminal


def bound_penalty(states: np.ndarray, cfg: MpcConfig) -> float:
    """Quadratic penalty for occupancy bound violations at stages 1..N."""
    interior = np.atleast_2d(states)[1:]
    over = np.maximum(interior - cfg.occupancy_max_pct, 0.0)
    under = np.maximum(cfg.occupancy_min_pct - interior, 0.0)
    return float(cfg.bound_penalty_weight * np.sum(over ** 2 + under ** 2))


def _cost_roots(cfg: MpcConfig, n: int, m: int):
    """Square roots of the weights, computed once per solve.

    Returns the (N+1, n) state-weight roots for stages 0..N, the (m,)
    rate-change roots, and the constant rate-change rows of the residual
    Jacobian, (N m, N m).
    """
    q, p, r = cfg.weights(n, m)
    stage_root = np.sqrt(np.vstack([np.tile(q, (cfg.horizon, 1)), p]))
    rate_root = np.sqrt(r)
    size = cfg.horizon * m
    rate_rows = (np.tile(rate_root, cfg.horizon)[:, None]
                 * (np.eye(size) - np.eye(size, k=-m)))
    return stage_root, rate_root, rate_rows


def _residual(states: np.ndarray, plan: np.ndarray, u_prev: np.ndarray,
              cfg: MpcConfig, roots) -> np.ndarray:
    """Residual vector whose squared norm is objective + bound penalty.

    Blocks, in order: weighted tracking deviations at stages 0..N (stage 0 is
    the measured state, a constant), the bound-penalty hinge at stages 1..N,
    and the weighted rate changes.
    """
    stage_root, rate_root, _ = roots
    interior = states[1:]
    hinge = (np.maximum(interior - cfg.occupancy_max_pct, 0.0)
             - np.maximum(cfg.occupancy_min_pct - interior, 0.0))
    du = np.diff(np.vstack([u_prev, plan]), axis=0)
    return np.concatenate([
        (stage_root * (states - cfg.target_occupancy_pct)).ravel(),
        np.sqrt(cfg.bound_penalty_weight) * hinge.ravel(),
        (rate_root * du).ravel()])


def _residual_jacobian(jacobians: list[np.ndarray], states: np.ndarray,
                       cfg: MpcConfig, roots) -> np.ndarray:
    """Jacobian of :func:`_residual` with respect to the flattened plan.

    ``jacobians`` are the stage model Jacobians df/dz from :func:`_predict`.
    Forward sensitivities ``S(l) = dx(l)/du`` follow the predictor:
    ``S(l+1) = (I + h A(l)) S(l) + h B(l) E(l)``, with ``A(l), B(l)`` the
    x and u blocks of df/dz and ``E(l)`` picking u(l).
    """
    stage_root, _, rate_rows = roots
    n_steps = len(jacobians)
    n, h = states.shape[1], cfg.step_h
    m = jacobians[0].shape[1] - n
    sens = np.zeros((n_steps + 1, n, n_steps * m))
    for l, jac in enumerate(jacobians):
        sens[l + 1] = sens[l] + h * (jac[:, :n] @ sens[l])
        sens[l + 1, :, l * m:(l + 1) * m] += h * jac[:, n:]
    interior = states[1:]
    active = ((interior > cfg.occupancy_max_pct)
              | (interior < cfg.occupancy_min_pct))
    return np.vstack([
        (stage_root[:, :, None] * sens).reshape(-1, n_steps * m),
        (np.sqrt(cfg.bound_penalty_weight) * active[:, :, None]
         * sens[1:]).reshape(-1, n_steps * m),
        rate_rows])


def solve(model: SparseModel, x0, u_prev, cfg: MpcConfig,
          warm_start: np.ndarray | None = None) -> MpcSolution:
    """Minimize the tracking objective over feasible metering plans.

    Projected Gauss-Newton with Levenberg-Marquardt damping. Monotone in the
    penalized objective: an iterate is only accepted when it decreases the
    value, so the reported objective never exceeds the warm-start or
    cold-start value. ``converged`` means the projected-gradient test of
    :class:`SolverSettings` passed; a stalled search or the iteration cap
    leaves it False. Raises :class:`ModelBlowupError` only if the starting
    plan itself diverges.
    """
    t0 = time.perf_counter()
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
    if len(u_prev) != model.input_dim:
        raise ValueError(f"u_prev must have {model.input_dim} entries")
    lo, hi = cfg.rate_min_vph, cfg.rate_max_vph
    if warm_start is not None:
        plan = np.clip(np.asarray(warm_start, dtype=float), lo, hi).copy()
        if plan.shape != (cfg.horizon, model.input_dim):
            raise ValueError("warm start shape must be (horizon, input_dim)")
    else:
        plan = np.tile(np.clip(u_prev, lo, hi), (cfg.horizon, 1))
    roots = _cost_roots(cfg, len(x0), model.input_dim)

    def measure(candidate):
        try:
            states, jacobians = _predict(model, x0, candidate, cfg.step_h)
        except ModelBlowupError:
            return None, None, None, np.inf
        res = _residual(states, candidate, u_prev, cfg, roots)
        return states, jacobians, res, float(res @ res)

    states, jacobians, res, total = measure(plan)
    if states is None:
        raise ModelBlowupError(0)

    width = hi - lo
    damping = _DAMPING_START
    iterations = 0
    converged = False
    for it in range(cfg.solver.max_iters):
        iterations = it + 1
        v = plan.ravel()
        jac = _residual_jacobian(jacobians, states, cfg, roots)
        grad = 2.0 * (jac.T @ res)
        proj = np.where(v <= lo, np.minimum(grad, 0.0),
                        np.where(v >= hi, np.maximum(grad, 0.0), grad))
        if np.max(np.abs(proj)) * width <= cfg.solver.tolerance * (1.0 + total):
            converged = True
            break

        gn = 2.0 * (jac.T @ jac)
        diag = np.diag(gn)
        scale = np.maximum(diag, _SCALE_FLOOR * np.max(diag))
        # eps-active set: rates within eps of a bound that the gradient
        # pushes outward; eps shrinks with the scaled projected step.
        eps = min(_EPS_FRAC * width,
                  float(np.max(np.abs(v - np.clip(v - grad / scale, lo, hi)))))
        held = (((v <= lo + eps) & (grad > 0.0))
                | ((v >= hi - eps) & (grad < 0.0)))
        free = ~held
        step = -grad / scale
        if free.any():
            block = gn[np.ix_(free, free)] + damping * np.diag(scale[free])
            step[free] = -np.linalg.solve(block, grad[free])

        alpha = 1.0
        accepted = False
        for _ in range(_ARC_HALVINGS):
            candidate = np.clip(v + alpha * step, lo, hi)
            if np.array_equal(candidate, v):
                break
            # Sufficient decrease along the projection arc (Armijo rule of
            # Bertsekas 1982, first-order gain split into free and held rates).
            gain = (alpha * float(grad[free] @ -step[free])
                    + float(grad[held] @ (v[held] - candidate[held])))
            cand_plan = candidate.reshape(plan.shape)
            cand_states, cand_jacobians, cand_res, cand_total = measure(cand_plan)
            if cand_total < total - _ARMIJO * gain:
                move = candidate - v
                predicted = -float(grad @ move + 0.5 * move @ gn @ move)
                ratio = (total - cand_total) / predicted if predicted > 0.0 else 0.0
                plan, states, res, total = cand_plan, cand_states, cand_res, cand_total
                jacobians = cand_jacobians
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # stalled: no decrease along the arc
        if alpha < 1.0:
            damping *= 2.0
        else:
            damping = max(damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3),
                          _DAMPING_MIN)

    penalty = bound_penalty(states, cfg)
    return MpcSolution(
        plan=plan,
        states=states,
        objective=total - penalty,
        penalty=penalty,
        iterations=iterations,
        converged=converged,
        solve_time_s=time.perf_counter() - t0,
    )


class MpcController:
    """Receding-horizon metering: solve, apply the first action, remember.

    Compatible with :func:`rampnet.plant.run_episode`. Never raises out of a
    control step: if the solver cannot even evaluate its starting plan (a
    diverging model), the previous rates are reapplied and the event is
    logged and recorded in the diagnostics.
    """

    def __init__(self, model: SparseModel, config: MpcConfig | None = None,
                 initial_rate_vph: float = 1000.0):
        self.model = model
        self.config = config or MpcConfig()
        self.u_prev = np.full(model.input_dim, float(initial_rate_vph))
        self.last_plan: np.ndarray | None = None
        self.diagnostics: list[dict] = []

    def _warm_start(self) -> np.ndarray | None:
        if self.last_plan is None:
            return None
        return np.vstack([self.last_plan[1:], self.last_plan[-1:]])

    def __call__(self, observation) -> np.ndarray:
        entry: dict = {"time_s": float(observation.time_s), "fallback": False}
        try:
            sol = solve(self.model, observation.occupancy, self.u_prev,
                        self.config, warm_start=self._warm_start())
            action = sol.plan[0]
            self.last_plan = sol.plan
            entry.update(objective=sol.objective, penalty=sol.penalty,
                         iterations=sol.iterations, converged=sol.converged,
                         solve_time_s=sol.solve_time_s)
        except ModelBlowupError as exc:
            logger.warning("solve failed (%s); reapplying previous rates", exc)
            action = self.u_prev.copy()
            self.last_plan = None
            entry["fallback"] = True
        self.u_prev = np.asarray(action, dtype=float).copy()
        self.diagnostics.append(entry)
        return action
