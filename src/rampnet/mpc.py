"""Coordinated predictive ramp metering on a discovered sparse model.

Every control step the controller solves, by single shooting, a short-horizon
tracking problem on the one-step Euler predictor ``x(l+1) = x(l) + f(x, u)``:

    min over u(0..N-1) of
        sum_{l=0..N} |x(l) - target|^2 + RATE_CHANGE_WEIGHT sum_l |du(l)|^2

with ``du(l) = u(l) - u(l-1)`` anchored at the previously applied rates,
rates boxed to the plant's meter range (``feedback.RATE_MIN_VPH`` to
``RATE_MAX_VPH``), and the occupancy band ``OCCUPANCY_MIN_PCT`` to
``OCCUPANCY_MAX_PCT`` enforced through a quadratic penalty weighted by
``BOUND_PENALTY_WEIGHT``. The cost is fixed in code; a controller sets only
its horizon, its target and its solver limits. The whole cost is a sum of
squared residuals, so the solver is projected Gauss-Newton on the rate box
(Bertsekas 1982):
the residual Jacobian comes from forward sensitivities through the model's
polynomial Jacobians, which the rollout reads together with the predictions
(one model read per stage), rates within a small margin of a bound that the
gradient pushes outward are held by a diagonal step, the free rates take a
Levenberg-Marquardt step on J'J, and a search along the projection arc
accepts only a sufficient decrease. A solve reports ``converged`` only when
the projected gradient passes the optimality test. Only the first planned
action is applied; the rest warm starts the next solve.

Time convention: one model time unit is one control step. A plan row is the
rates for one control step, the predictor advances one control step per row,
and the controller applies each row for one control step.

This module plans; :mod:`rampnet.harness` runs the episodes, including the
horizon sweep.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .feedback import INITIAL_RATE_VPH, RATE_MAX_VPH, RATE_MIN_VPH
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

# The cost: unit tracking weights at every stage, the occupancy band (%) and
# the weight of the penalty on leaving it, and the weight on rate changes
# (veh/h)^-2. Rates are boxed to the range ``run_episode`` clamps to, so the
# planner never plans a rate the plant would change.
OCCUPANCY_MIN_PCT = 0.0
OCCUPANCY_MAX_PCT = 80.0
BOUND_PENALTY_WEIGHT = 1e3
RATE_CHANGE_WEIGHT = 0.0


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
    """Horizon (control steps), target occupancy (%) and solver limits for
    one controller; the rest of the cost is the module's constants."""

    horizon: int = 4
    target_occupancy_pct: float = 15.0
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


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


def _predict(model: SparseModel, x0: np.ndarray,
             plan: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
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
        x = x + f
        if not np.all(np.isfinite(x)):
            raise ModelBlowupError(l + 1)
        states[l + 1] = x
        jacobians.append(jac)
    return states, jacobians


def rollout(model: SparseModel, x0, plan) -> np.ndarray:
    """Euler rollout of the plan, one control step per row; states row 0 is
    ``x0``.

    Raises :class:`ModelBlowupError` (carrying the step index) if any state
    stops being finite; quadratic models can diverge when pushed far outside
    the data they were fit on.
    """
    plan = np.atleast_2d(np.asarray(plan, dtype=float))
    return _predict(model, np.asarray(x0, dtype=float).reshape(-1), plan)[0]


def objective(states: np.ndarray, plan: np.ndarray, u_prev, cfg: MpcConfig) -> float:
    """Exact tracking objective for a rolled-out plan (no bound penalty).

    Includes the (constant) deviation of the measured state at stage 0, so
    the value is comparable across solvers that report the full cost.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    plan = np.atleast_2d(np.asarray(plan, dtype=float))
    if len(states) != len(plan) + 1:
        raise ValueError("need exactly one more state row than plan rows")
    dev = states - cfg.target_occupancy_pct
    du = np.diff(np.vstack([np.asarray(u_prev, dtype=float).reshape(1, -1), plan]),
                 axis=0)
    return float(np.sum(dev ** 2) + RATE_CHANGE_WEIGHT * np.sum(du ** 2))


def bound_penalty(states: np.ndarray) -> float:
    """Quadratic penalty for leaving the occupancy band at stages 1..N."""
    interior = np.atleast_2d(states)[1:]
    over = np.maximum(interior - OCCUPANCY_MAX_PCT, 0.0)
    under = np.maximum(OCCUPANCY_MIN_PCT - interior, 0.0)
    return float(BOUND_PENALTY_WEIGHT * np.sum(over ** 2 + under ** 2))


def _residual(states: np.ndarray, plan: np.ndarray, u_prev: np.ndarray,
              cfg: MpcConfig) -> np.ndarray:
    """Residual vector whose squared norm is objective + bound penalty.

    Blocks, in order: tracking deviations at stages 0..N (stage 0 is the
    measured state, a constant), the bound-penalty hinge at stages 1..N, and
    the weighted rate changes.
    """
    interior = states[1:]
    hinge = (np.maximum(interior - OCCUPANCY_MAX_PCT, 0.0)
             - np.maximum(OCCUPANCY_MIN_PCT - interior, 0.0))
    du = np.diff(np.vstack([u_prev, plan]), axis=0)
    return np.concatenate([
        (states - cfg.target_occupancy_pct).ravel(),
        np.sqrt(BOUND_PENALTY_WEIGHT) * hinge.ravel(),
        np.sqrt(RATE_CHANGE_WEIGHT) * du.ravel()])


def _residual_jacobian(jacobians: list[np.ndarray],
                       states: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`_residual` with respect to the flattened plan.

    ``jacobians`` are the stage model Jacobians df/dz from :func:`_predict`.
    Forward sensitivities ``S(l) = dx(l)/du`` follow the predictor:
    ``S(l+1) = (I + A(l)) S(l) + B(l) E(l)``, with ``A(l), B(l)`` the
    x and u blocks of df/dz and ``E(l)`` picking u(l).
    """
    n_steps = len(jacobians)
    n = states.shape[1]
    m = jacobians[0].shape[1] - n
    size = n_steps * m
    sens = np.zeros((n_steps + 1, n, size))
    for l, jac in enumerate(jacobians):
        sens[l + 1] = sens[l] + jac[:, :n] @ sens[l]
        sens[l + 1, :, l * m:(l + 1) * m] += jac[:, n:]
    interior = states[1:]
    active = (interior > OCCUPANCY_MAX_PCT) | (interior < OCCUPANCY_MIN_PCT)
    return np.vstack([
        sens.reshape(-1, size),
        (np.sqrt(BOUND_PENALTY_WEIGHT) * active[:, :, None]
         * sens[1:]).reshape(-1, size),
        np.sqrt(RATE_CHANGE_WEIGHT) * (np.eye(size) - np.eye(size, k=-m))])


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
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    if warm_start is not None:
        plan = np.clip(np.asarray(warm_start, dtype=float), lo, hi).copy()
        if plan.shape != (cfg.horizon, model.input_dim):
            raise ValueError("warm start shape must be (horizon, input_dim)")
    else:
        plan = np.tile(np.clip(u_prev, lo, hi), (cfg.horizon, 1))

    def measure(candidate):
        try:
            states, jacobians = _predict(model, x0, candidate)
        except ModelBlowupError:
            return None, None, None, np.inf
        res = _residual(states, candidate, u_prev, cfg)
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
        jac = _residual_jacobian(jacobians, states)
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

    penalty = bound_penalty(states)
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

    def __init__(self, model: SparseModel, config: MpcConfig | None = None):
        self.model = model
        self.config = config or MpcConfig()
        self.u_prev = np.full(model.input_dim, INITIAL_RATE_VPH)
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
