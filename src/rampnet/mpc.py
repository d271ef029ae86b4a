"""Coordinated predictive ramp metering on a discovered sparse model.

Every control step the controller solves, by single shooting, a short-horizon
tracking problem on the one-step Euler predictor ``x(l+1) = x(l) + f(x, u)``:

    min over u(0..N-1) of
        sum_{l=0..N} |x(l) - target|^2 + RATE_CHANGE_WEIGHT sum_l |du(l)|^2

with ``du(l) = u(l) - u(l-1)`` anchored at the previously applied rates,
and rates boxed to the plant's meter range (``feedback.RATE_MIN_VPH`` to
``RATE_MAX_VPH``). The cost is fixed in code; a controller sets only its
horizon, its target and its iteration cap. The whole cost is a sum of
squared residuals, tracking then rate changes, so the solver is projected
Gauss-Newton on the rate box (Bertsekas 1982):
the residual Jacobian comes from forward sensitivities through the model's
polynomial Jacobians, rates on a bound that the gradient pushes outward
take no step, the free rates take a Levenberg-Marquardt step on their block
of J'J, and a search along the projection arc
accepts the first halving of that step that lowers the cost. A solve reports
``converged`` only when the projected gradient passes the optimality test.
Only the first planned action is applied; the rest warm starts the next
solve.

The planner trusts its model only where the model has data. In a window
where a sensor reads outside the model's envelope (the range of the data it
was fitted on), the controller hands the meters to ALINEA, a simple local law
that needs no model, and plans again once every sensor is back inside: a
simplex architecture (Sha 2001, *IEEE Software* 18(4):20). Outside the
envelope a fitted quadratic can predict anything; on the benchmark the nearly
empty corridor of the first burn-in windows lies below every training log,
the model predicts negative occupancy under every plan there, and those
solves used to spend their whole iteration cap. Planning only inside the
envelope, the planner needs no occupancy-band penalty: with the hand-over no
final plan paid one, on the acceptance seeds or on forty base seeds.

At this size numpy's cost per call, not the arithmetic, sets the speed of a
planner iteration, so the search is written to make few calls and to skip
work whose inputs have not changed. A controller makes its arrays once
(:class:`_Workspace`: both iterates, the residual Jacobian, the stage
Jacobians, the gradient and the Gauss-Newton matrix) and resets them per
solve; a :func:`solve` call makes its own. Each iteration still makes a few
small temporaries (masks, the step, LAPACK's solve). A rollout reads only
the model's prediction, one read per stage, and the stage Jacobians are read
only at accepted iterates, all N in one stacked product; a model without
product terms has the same Jacobian everywhere, so its residual Jacobian and
J'J are built once per workspace. The active-set work runs only for
iterates with a rate on a bound. Every floating-point operation that runs
keeps its operands and their order, and every stage read must stay a
matrix-vector product per row: one matrix-matrix product over the stages
sums in another order, and the closed loop would change at rounding level.

Time convention: one model time unit is one control step. A plan row is the
rates for one control step, the predictor advances one control step per row,
and the controller applies each row for one control step.

This module plans; :mod:`rampnet.harness` runs the episodes, including the
horizon sweep.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .feedback import (ALINEA_GAINS, INITIAL_RATE_VPH, RATE_MAX_VPH,
                       RATE_MIN_VPH, TARGET_OCCUPANCY_PCT, MeterBank)
from .sysid import SparseModel

__all__ = [
    "ModelBlowupError",
    "SolverSettings",
    "MpcConfig",
    "MpcSolution",
    "objective",
    "solve",
    "MpcController",
]

logger = logging.getLogger(__name__)

# Levenberg-Marquardt damping, relative to the diagonal of J'J, restarted at
# this value every solve. After a full step it follows the gain ratio of
# actual to predicted decrease (Nielsen's rule: down by up to 3x when the
# model was right, up when it was not); a shortened step doubles it. The
# rate-change rows keep the free block nonsingular on their own, and within
# the default cap of 200 iterations the damping cannot fall below
# 1e-3 / 3^200, so it needs no floor. The gain ratio stays because it keeps
# solves off the iteration cap: with fixed factors instead (x2 and a third),
# 1 acceptance solve and 6 over demo 06's forty base seeds hit it, and with
# a constant 1e-3, 2 and 6; none does with it.
_DAMPING_START = 1e-3
# Projection-arc search: the first of up to this many halvings of the step
# that lowers the cost is accepted. The damping, set by the gain ratio, keeps
# full steps sensible, so no sufficient-decrease margin is asked for (the
# Levenberg-Marquardt acceptance rule; Madsen, Nielsen & Tingleff 2004).
_ARC_HALVINGS = 30
# A solve has converged when no rate's projected gradient, times the width of
# the rate box, exceeds TOLERANCE * (1 + cost): moving any one rate anywhere
# in its range could gain at most that much to first order.
TOLERANCE = 1e-7

# The cost: unit tracking weights at every stage and the weight on rate
# changes (veh/h)^-2. Rates are boxed to the range ``run_episode`` clamps to,
# so the planner never plans a rate the plant would change. The occupancy band
# (%) and the weight of the penalty on leaving it belong to ``bound_penalty``,
# which the planner does not pay.
OCCUPANCY_MIN_PCT = 0.0
OCCUPANCY_MAX_PCT = 80.0
BOUND_PENALTY_WEIGHT = 1e3
# A 100 veh/h change costs as much as a 0.3-point occupancy error. Without
# it, rates that move almost no residual leave the Gauss-Newton block
# near-singular and solves crawl to the iteration cap; the weight gives
# every plan direction curvature (chosen on demos/06_seed_robustness.py).
RATE_CHANGE_WEIGHT = 1e-5

# ndarray.max and .min go through a Python wrapper to these reductions.
_max, _min = np.maximum.reduce, np.minimum.reduce


class ModelBlowupError(RuntimeError):
    """A rollout left the finite range, or its cost did (model extrapolated
    into divergence)."""

    def __init__(self, step: int):
        super().__init__(f"model prediction diverged at rollout step {step}")
        self.step = step

    def __reduce__(self):  # rebuilt from its field when pickled out of a worker
        return type(self), (self.step,)


@dataclass(frozen=True)
class SolverSettings:
    """Projected Gauss-Newton iteration cap. Deterministic for fixed inputs;
    the convergence test is the module's ``TOLERANCE``."""

    max_iters: int = 200


@dataclass(frozen=True)
class MpcConfig:
    """Horizon (control steps), target occupancy (%) and iteration cap for
    one controller; the rest of the cost is the module's constants."""

    horizon: int = 4
    target_occupancy_pct: float = TARGET_OCCUPANCY_PCT
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class MpcSolution:
    """One solve: planned rates, predicted states, and solver diagnostics."""

    plan: np.ndarray  # (N, m) veh/h
    states: np.ndarray  # (N+1, n) predicted occupancy %
    objective: float  # the cost the search minimized
    iterations: int
    converged: bool
    solve_time_s: float


def _check_shapes(model: SparseModel, x0: np.ndarray, plan: np.ndarray) -> None:
    if len(x0) != model.state_dim or plan.shape[1] != model.input_dim:
        raise ValueError(
            f"expected ({model.state_dim},) states and (N, {model.input_dim}) "
            f"plans, got {x0.shape} and {plan.shape}")


def _roll(read, rows: list, xs: list) -> None:
    """Euler rollout in place: ``rows`` are the z rows (x(l), u(l)) and
    ``xs`` their x blocks, as views. From x(0) and the plan it fills
    x(1..N), one model read ``read(z)`` per stage. A non-finite state
    propagates to the later stages; callers test once, at the end."""
    for z, x, x_next in zip(rows, xs, xs[1:]):
        np.add(x, read(z), out=x_next)


def _first_nonfinite(states: np.ndarray) -> int | None:
    """Index of the first stage whose state is not finite, or None."""
    bad = ~np.isfinite(states).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def rollout(model: SparseModel, x0, plan) -> np.ndarray:
    """Euler rollout of the plan, one control step per row; states row 0 is
    ``x0``.

    Raises :class:`ModelBlowupError` (carrying the step index) if any state
    stops being finite; quadratic models can diverge when pushed far outside
    the data they were fit on. The solver rolls out in its own buffers; this
    is the plain reference its predicted states are checked against.
    """
    plan = np.atleast_2d(np.asarray(plan, dtype=float))
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    _check_shapes(model, x0, plan)
    n = len(x0)
    z = np.zeros((len(plan) + 1, n + plan.shape[1]))
    z[0, :n] = x0
    z[:-1, n:] = plan
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        _roll(model._f, list(z), list(z[:, :n]))
    states = z[:, :n].copy()
    step = _first_nonfinite(states)
    if step is not None:
        raise ModelBlowupError(step)
    return states


def objective(states: np.ndarray, plan: np.ndarray, u_prev, cfg: MpcConfig) -> float:
    """Exact planner objective for a rolled-out plan.

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
    """Quadratic penalty for leaving the occupancy band at stages 1..N.

    The planner does not pay it: it plans only inside its model's envelope,
    where no plan left the band. It is not public API and stays only while
    perfbench traces it."""
    interior = np.atleast_2d(states)[1:]
    over = np.maximum(interior - OCCUPANCY_MAX_PCT, 0.0)
    under = np.maximum(OCCUPANCY_MIN_PCT - interior, 0.0)
    return float(BOUND_PENALTY_WEIGHT * np.sum(over ** 2 + under ** 2))


class _Iterate:
    """One plan and its rollout, in buffers that a workspace allocates once.

    ``z`` row l holds (x(l), u(l)), row 0's x being the measurement (row N's
    u is unused); ``u`` is u_prev followed by the flat plan ``v``; ``res`` is
    the residual whose squared norm ``total`` is the objective, with blocks,
    in order: tracking deviations at stages 0..N and the weighted rate
    changes. The other attributes are views of these, made once.
    """

    __slots__ = ("z", "rows", "x", "xs", "plan_block", "u", "v", "v_rows",
                 "u_before", "res", "track", "rate", "total")

    def __init__(self, n: int, m: int, horizon: int):
        self.z = np.zeros((horizon + 1, n + m))
        self.rows = list(self.z)
        self.x = self.z[:, :n]
        self.xs = list(self.x)
        self.plan_block = self.z[:-1, n:]
        self.u = np.empty((horizon + 1) * m)
        self.v = self.u[m:]
        self.v_rows = self.v.reshape(horizon, m)
        self.u_before = self.u[:-m]
        self.res = np.empty((horizon + 1) * n + horizon * m)
        self.track = self.res[:(horizon + 1) * n].reshape(horizon + 1, n)
        self.rate = self.res[(horizon + 1) * n:]
        self.total = np.inf


class _Workspace:
    """Every buffer of a controller's solves: the accepted iterate ``cur``,
    the line-search candidate ``cand`` (the two swap on acceptance), the
    residual Jacobian ``jac`` with respect to the flat plan, the stage model
    Jacobians it is built from, and the search's gradient, Gauss-Newton
    matrix and damped block. :meth:`start` resets it for each solve.

    The cost constants are read when the workspace is made: a
    :func:`solve` call makes one, an :class:`MpcController` one for its
    life. The constant rate-change rows of ``jac`` are filled here. A
    model without product terms has the same sensitivity rows, and so the
    same 2 J'J in ``gn``, at every plan: they are built here too. A quadratic
    model's are rebuilt in place by :meth:`jacobian` at every iterate.
    """

    def __init__(self, model: SparseModel, cfg: MpcConfig):
        n, m = model.state_dim, model.input_dim
        horizon = cfg.horizon
        size = horizon * m
        self.model = model
        self.cfg = cfg
        self.target = cfg.target_occupancy_pct
        self.root_r = np.sqrt(RATE_CHANGE_WEIGHT)
        self.cur = _Iterate(n, m, horizon)
        self.cand = _Iterate(n, m, horizon)
        # df/dz at stages 0..N-1, and its x and u blocks A(l) and B(l)
        self.stage_jac = np.empty((horizon, n, n + m))
        self.stage_a = list(self.stage_jac[:, :, :n])
        self.stage_b = list(self.stage_jac[:, :, n:])
        # Rows: the sensitivities S(l) = dx(l)/du at stages 0..N (S(0) = 0),
        # then the constant rate-change rows.
        self.jac = np.zeros(((horizon + 1) * n + size, size))
        sens = self.jac[:(horizon + 1) * n].reshape(horizon + 1, n, size)
        self.sens = list(sens)
        # u(l)'s columns of S(l+1), where B(l) enters
        self.sens_inputs = [sens[l + 1, :, l * m:(l + 1) * m] for l in range(horizon)]
        rate_rows = self.jac[(horizon + 1) * n:]
        np.fill_diagonal(rate_rows, self.root_r)
        np.fill_diagonal(rate_rows[m:], -self.root_r)
        self.grad = np.empty(size)
        self.gn = np.empty((size, size))
        self.block = np.empty((size, size))
        self.block_diagonal = self.block.reshape(-1)[::size + 1]
        # df/dz = L + (Q + Q') z is L at every z when the model has no
        # product terms (a DMDc model): read at the zero z rows, it is final.
        self.linear = not model._products
        if self.linear:
            self._linearize()

    def start(self, x0: np.ndarray, u_prev: np.ndarray, plan: np.ndarray) -> None:
        """Reset for a solve from ``x0`` and ``u_prev`` and measure ``plan``
        into ``cur``; raises :class:`ModelBlowupError` if that plan diverges."""
        _check_shapes(self.model, x0, plan)
        m = len(u_prev)
        for it in (self.cur, self.cand):
            it.x[0] = x0
            it.u[:m] = u_prev
        self.cur.v[:] = plan.ravel()
        self.measure(self.cur)

    def measure(self, it: _Iterate) -> float:
        """Roll out ``it.v`` and fill ``it.res`` and ``it.total``. Divergence
        is read once, from the total; the stage is looked up only then."""
        np.copyto(it.plan_block, it.v_rows)
        _roll(self.model._f, it.rows, it.xs)
        np.subtract(it.x, self.target, out=it.track)
        np.subtract(it.v, it.u_before, out=it.rate)
        it.rate *= self.root_r
        it.total = float(it.res.dot(it.res))
        if not math.isfinite(it.total):
            step = _first_nonfinite(it.x)
            if step is not None:
                raise ModelBlowupError(step)
        return it.total

    def jacobian(self) -> np.ndarray:
        """Residual Jacobian at ``cur``, with ``gn`` = 2 J'J formed from it.
        A quadratic model's are rebuilt here; a linear model's were built
        with the workspace."""
        if not self.linear:
            self._linearize()
        return self.jac

    def _linearize(self) -> None:
        """Sensitivity rows of ``jac`` from forward sensitivities through
        the stage model Jacobians df/dz read at ``cur``'s z rows:
        ``S(l+1) = (I + A(l)) S(l) + B(l) E(l)``, with ``A(l), B(l)`` the x and
        u blocks of df/dz and ``E(l)`` picking u(l); then ``gn``."""
        sens, inputs, stage_a, stage_b = (self.sens, self.sens_inputs,
                                          self.stage_a, self.stage_b)
        self.model._df_rows(self.cur.z[:-1], out=self.stage_jac)
        # S(0) = 0, so S(1) = 0 + B(0) E(0): B(0) in u(0)'s columns, the
        # other columns staying 0.
        np.add(stage_b[0], 0.0, out=inputs[0])
        for l in range(1, len(inputs)):
            np.dot(stage_a[l], sens[l], out=sens[l + 1])
            sens[l + 1] += sens[l]
            inputs[l] += stage_b[l]
        np.matmul(self.jac.T, self.jac, out=self.gn)
        self.gn *= 2.0

    def accept(self) -> None:
        self.cur, self.cand = self.cand, self.cur


def _first_overflow(it: _Iterate) -> int:
    """The first stage at which the running cost of ``it`` is not finite;
    for a rollout whose states are finite but whose cost overflows."""
    stage_cost = np.square(it.track).sum(axis=1)
    step = _first_nonfinite(np.cumsum(stage_cost)[:, None])
    return len(stage_cost) - 1 if step is None else step


def _search(ws: _Workspace, solver: SolverSettings) -> tuple[int, bool]:
    """Projected Gauss-Newton iterations from ``ws.cur``, which ends at the
    last accepted iterate. Returns (iterations, converged).

    The active set is exact: a rate on a bound that the gradient pushes
    against is stuck and takes no step, and every other rate is free. While
    no rate is on a bound, the projected gradient is the gradient and every
    rate is free, so the active-set work runs only for iterates with a rate
    on a bound."""
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    width = hi - lo
    damping = _DAMPING_START
    iterations = 0
    converged = False
    grad, gn, block = ws.grad, ws.gn, ws.block
    # A view of gn's diagonal, so it follows gn. Every rate has a rate-change
    # row, so each entry is at least 2 * RATE_CHANGE_WEIGHT.
    scale = gn.diagonal()
    for k in range(solver.max_iters):
        iterations = k + 1
        cur = ws.cur
        v, total = cur.v, cur.total
        jac = ws.jacobian()
        np.dot(jac.T, cur.res, out=grad)
        grad *= 2.0
        on_bound = not (_min(v) > lo and _max(v) < hi)
        if on_bound:
            # A descent step lowers the rates whose gradient is positive and
            # raises those whose gradient is negative. The projected gradient
            # is 0 at a rate on the bound its step pushes against, the
            # gradient elsewhere.
            stuck = np.where(grad > 0.0, v <= lo, (grad < 0.0) & (v >= hi))
            projected = _max(np.abs(np.where(stuck, 0.0, grad)))
        else:
            projected = _max(np.abs(grad))
        if projected * width <= TOLERANCE * (1.0 + total):
            converged = True
            break

        if on_bound and np.count_nonzero(stuck):
            # The stuck rates stay; some rate is free, or the test would
            # have passed. The free rates' block of J'J, damped on its
            # diagonal, gives their step.
            free = ~stuck
            sub = gn[free][:, free]
            sub.flat[::len(sub) + 1] += damping * scale[free]
            step = np.zeros(len(v))
            step[free] = -np.linalg.solve(sub, grad[free])
        else:
            np.copyto(block, gn)
            ws.block_diagonal += damping * scale
            step = np.linalg.solve(block, grad)
            np.negative(step, out=step)

        alpha = 1.0
        accepted = False
        cand = ws.cand
        for _ in range(_ARC_HALVINGS):
            np.multiply(step, alpha, out=cand.v)
            cand.v += v
            np.maximum(cand.v, lo, out=cand.v)
            np.minimum(cand.v, hi, out=cand.v)
            if not np.count_nonzero(cand.v != v):
                break  # the step moves no rate
            try:
                cand_total = ws.measure(cand)
            except ModelBlowupError:
                cand_total = np.inf
            if cand_total < total:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # stalled: no decrease along the arc
        ws.accept()
        if alpha < 1.0:
            damping *= 2.0
        else:
            move = cand.v - v
            predicted = -float(grad.dot(move) + 0.5 * move.dot(gn).dot(move))
            ratio = (total - cand_total) / predicted if predicted > 0.0 else 0.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
    return iterations, converged


def _solve(ws: _Workspace, x0, u_prev, warm_start, started: float) -> MpcSolution:
    """One solve (see :func:`solve`) in ``ws``'s buffers, on its model and
    config; ``solve_time_s`` counts from the ``time.perf_counter()`` reading
    ``started``."""
    model, cfg = ws.model, ws.cfg
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
    if len(u_prev) != model.input_dim:
        raise ValueError(f"u_prev must have {model.input_dim} entries")
    lo, hi = RATE_MIN_VPH, RATE_MAX_VPH
    if warm_start is not None:
        plan = np.clip(np.asarray(warm_start, dtype=float), lo, hi)
        if plan.shape != (cfg.horizon, model.input_dim):
            raise ValueError("warm start shape must be (horizon, input_dim)")
    else:
        plan = np.tile(np.clip(u_prev, lo, hi), (cfg.horizon, 1))
    # A diverging rollout is reported as ModelBlowupError (the start plan) or
    # rejected (a candidate), so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        ws.start(x0, u_prev, plan)
        if not math.isfinite(ws.cur.total):
            # Finite states whose cost overflows: no decrease can be measured.
            raise ModelBlowupError(_first_overflow(ws.cur))
        iterations, converged = _search(ws, cfg.solver)
    return MpcSolution(
        plan=ws.cur.v.reshape(plan.shape).copy(),
        states=ws.cur.x.copy(),
        objective=ws.cur.total,
        iterations=iterations,
        converged=converged,
        solve_time_s=time.perf_counter() - started,
    )


def solve(model: SparseModel, x0, u_prev, cfg: MpcConfig,
          warm_start: np.ndarray | None = None) -> MpcSolution:
    """Minimize the tracking objective over feasible metering plans.

    Projected Gauss-Newton with Levenberg-Marquardt damping. Monotone in the
    objective: an iterate is only accepted when it decreases the value, so
    the reported objective never exceeds the warm-start or cold-start
    value. ``converged`` means the projected-gradient test
    (``TOLERANCE``) passed; a stalled search or the iteration cap
    leaves it False. Raises :class:`ModelBlowupError` only if the starting
    plan itself diverges, or its states stay finite but its cost overflows.
    Each call makes its own workspace; :class:`MpcController` keeps one.
    """
    started = time.perf_counter()
    return _solve(_Workspace(model, cfg), x0, u_prev, warm_start, started)


class MpcController:
    """Receding-horizon metering: solve, apply the first action, remember.

    Compatible with :func:`rampnet.plant.run_episode`. In a window where a
    sensor reads outside the model's envelope, an ALINEA bank
    (``feedback.ALINEA_GAINS``, the planner's target) meters instead: its
    rates are applied and become ``u_prev``, and the next solve starts cold
    from them. While the planner meters, the bank's integrator follows the
    applied rates, so a hand-over continues from them. A model without an
    envelope is planned on everywhere; meter j reads sensor j, so an
    envelope needs as many states as inputs.

    Never raises out of a control step: if the solver cannot even evaluate
    its starting plan (a diverging model, or finite states whose cost
    overflows), the previous rates are reapplied and the event is logged and
    recorded in the diagnostics as a ``fallback``.

    The controller makes one :class:`_Workspace` (reading the cost
    constants then) and runs every solve in it, through the search
    :func:`solve` runs: the plans and diagnostics are those of a fresh
    :func:`solve` per window, and ``solve_time_s`` counts the whole solve.

    Each window adds one ``diagnostics`` entry: ``time_s`` and
    ``fallback``, and unless it fell back ``iterations``, ``converged``,
    ``capped`` and ``solve_time_s``; a solve adds its ``objective``. A
    handed-over window also reads ``handed_over: True``; it
    made no solve, so it reads 0 iterations in 0 s, not converged, not
    capped.
    """

    def __init__(self, model: SparseModel, config: MpcConfig | None = None):
        self.model = model
        self.config = config or MpcConfig()
        self.u_prev = np.full(model.input_dim, INITIAL_RATE_VPH)
        self.last_plan: np.ndarray | None = None
        self.diagnostics: list[dict] = []
        self.alinea = MeterBank(model.input_dim, self.config.target_occupancy_pct,
                                *ALINEA_GAINS)
        self._workspace = _Workspace(model, self.config)

    def _warm_start(self) -> np.ndarray | None:
        # The last plan, shifted one stage. With cold starts from u_prev,
        # sindyc-mpc tracks at 1.168% mean, 1.865% worst over demo 06's forty
        # base seeds (1.124%, 1.337%), and SINDYc wins 28 of 40, not 31.
        if self.last_plan is None:
            return None
        return np.vstack([self.last_plan[1:], self.last_plan[-1:]])

    def __call__(self, observation) -> np.ndarray:
        entry: dict = {"time_s": float(observation.time_s), "fallback": False}
        if not self.model.inside(observation.occupancy):
            action = self.alinea(observation).copy()
            self.u_prev = action.copy()
            self.last_plan = None
            entry.update(handed_over=True, iterations=0, converged=False,
                         capped=False, solve_time_s=0.0)
            self.diagnostics.append(entry)
            return action
        try:
            sol = _solve(self._workspace, observation.occupancy, self.u_prev,
                         self._warm_start(), time.perf_counter())
            action = sol.plan[0]
            self.last_plan = sol.plan
            # Capped: the search spent its whole iteration cap without
            # passing the optimality test.
            capped = (not sol.converged
                      and sol.iterations >= self.config.solver.max_iters)
            entry.update(objective=sol.objective, iterations=sol.iterations,
                         converged=sol.converged, capped=capped,
                         solve_time_s=sol.solve_time_s)
        except ModelBlowupError as exc:
            logger.warning("solve failed (%s); reapplying previous rates", exc)
            action = self.u_prev.copy()
            self.last_plan = None
            entry["fallback"] = True
        self.u_prev = np.asarray(action, dtype=float).copy()
        self.alinea.rates = self.u_prev.copy()
        self.diagnostics.append(entry)
        return action
