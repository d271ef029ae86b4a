"""Sparse regression of control-affine dynamics from metering logs.

The model family is ``xdot = C theta(x, u)`` where ``theta`` stacks polynomial
monomials of the joint vector z = (x, u) up to a configured order, constant
column first, then degree 1 in variable order, then each higher degree in
lexicographic combination order. For the benchmark (n = m = 8, order 2) that
is 1 + 16 + 136 = 153 columns.

Fitting runs sequential thresholded least squares (Zhang & Schaeffer 2019)
on z-scored columns and targets from one Gram matrix: a ridge screen drops a
few columns, standard-error elimination makes the model sparse, and the last
elimination fit gives the coefficients (see :func:`stls_regress`). A
linear-terms-only fit without thresholding is the baseline (DMDc-style) model.

Time convention: one model time unit is one control step, so logs built from
episode records use ``dt = 1.0`` and the one-step Euler predictor advances
``x + h * xdot`` with ``h = 1``.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrajectoryLog",
    "FeatureLibrarySpec",
    "InsufficientDataError",
    "differentiate",
    "build_library",
    "term_label",
    "stls_regress",
    "fit_derivatives",
    "discover_sindyc",
    "discover_dmdc",
    "SparseModel",
    "FitReport",
    "fit_report",
]


class InsufficientDataError(ValueError):
    """Raised when a log is too short or not finite to identify the library."""


@dataclass
class TrajectoryLog:
    """Stacked (state, input) rows from one or more episodes.

    ``episode_starts`` marks the first row of each episode; derivatives are
    never differenced across an episode boundary. ``dt`` is the row spacing
    in model time units (control steps).
    """

    states: np.ndarray  # (d, n)
    inputs: np.ndarray  # (d, m)
    dt: float = 1.0
    episode_starts: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if self.states.shape[0] != self.inputs.shape[0]:
            raise ValueError("states and inputs must have the same row count")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        starts = tuple(self.episode_starts)
        if not starts or starts[0] != 0 or list(starts) != sorted(set(starts)):
            raise ValueError("episode_starts must be sorted, unique, and begin at 0")
        if starts[-1] >= len(self.states) and len(self.states) > 0:
            raise ValueError("episode start beyond the end of the log")
        self.episode_starts = starts

    @classmethod
    def from_records(cls, records) -> "TrajectoryLog":
        """Build a log from episode records (occupancies as states, rates as
        inputs), one episode per record."""
        records = list(records)
        if not records:
            raise ValueError("no episode records given")
        starts, offset = [], 0
        for rec in records:
            starts.append(offset)
            offset += len(rec)
        return cls(
            states=np.vstack([rec.occupancy for rec in records]),
            inputs=np.vstack([rec.rates for rec in records]),
            dt=1.0,
            episode_starts=tuple(starts),
        )

    def episode_slices(self):
        bounds = list(self.episode_starts) + [len(self.states)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield slice(a, b)


def _moving_average(block: np.ndarray, window: int) -> np.ndarray:
    if window < 1 or window % 2 == 0:
        raise ValueError("smoothing window must be a positive odd integer")
    if window == 1:
        return block
    kernel = np.full(window, 1.0 / window)
    out = np.empty_like(block)
    for j in range(block.shape[1]):
        out[:, j] = np.convolve(block[:, j], kernel, mode="same")
    half = window // 2  # edges see a shorter kernel; drop them
    return out[half:len(block) - half]


def differentiate(log: TrajectoryLog, smooth_window: int | None = None):
    """Central-difference derivatives per episode.

    Returns ``(derivs, states, inputs)`` with endpoint rows of every episode
    dropped (central differences need both neighbors). With ``smooth_window``
    set, states are moving-average filtered first and the shortened edges are
    dropped as well; default is no smoothing.
    """
    derivs, xs, us = [], [], []
    for idx, sl in enumerate(log.episode_slices()):
        x = log.states[sl]
        u = log.inputs[sl]
        if smooth_window is not None:
            trimmed = _moving_average(x, smooth_window)
            half = smooth_window // 2
            u = u[half:len(x) - half]
            x = trimmed
        if len(x) < 3:
            raise InsufficientDataError(
                f"episode {idx} has {len(x)} usable rows; need at least 3 "
                "for central differences")
        derivs.append((x[2:] - x[:-2]) / (2.0 * log.dt))
        xs.append(x[1:-1])
        us.append(u[1:-1])
    return np.vstack(derivs), np.vstack(xs), np.vstack(us)


# -- polynomial feature library ---------------------------------------------------

@dataclass(frozen=True)
class FeatureLibrarySpec:
    """Monomial library up to ``polynomial_order`` in the joint (x, u) vector."""

    polynomial_order: int = 2
    include_constant: bool = True

    def __post_init__(self) -> None:
        if self.polynomial_order < 1:
            raise ValueError("polynomial_order must be >= 1")

    def terms(self, n_states: int, n_inputs: int) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors over z = (x_1..x_n, u_1..u_m), in column order."""
        nz = n_states + n_inputs
        out: list[tuple[int, ...]] = []
        if self.include_constant:
            out.append((0,) * nz)
        for degree in range(1, self.polynomial_order + 1):
            for combo in itertools.combinations_with_replacement(range(nz), degree):
                exps = [0] * nz
                for v in combo:
                    exps[v] += 1
                out.append(tuple(exps))
        return tuple(out)

    def width(self, n_states: int, n_inputs: int) -> int:
        return len(self.terms(n_states, n_inputs))


def term_label(term: tuple[int, ...], n_states: int) -> str:
    """Human-readable monomial, e.g. ``x1*u2`` or ``x3^2`` or ``1``."""
    parts = []
    for v, exp in enumerate(term):
        if exp == 0:
            continue
        name = f"x{v + 1}" if v < n_states else f"u{v - n_states + 1}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


class _FeatureMap:
    """Evaluates the monomial columns and their z-gradients for fixed terms."""

    def __init__(self, terms, nz: int):
        self.terms = tuple(tuple(t) for t in terms)
        self.nz = nz
        self.h = len(self.terms)
        const, lin_rows, lin_var = [], [], []
        quad_rows, quad_i, quad_j, higher = [], [], [], []
        for r, exps in enumerate(self.terms):
            degree = sum(exps)
            vars_ = [v for v, e in enumerate(exps) for _ in range(e)]
            if degree == 0:
                const.append(r)
            elif degree == 1:
                lin_rows.append(r)
                lin_var.append(vars_[0])
            elif degree == 2:
                quad_rows.append(r)
                quad_i.append(vars_[0])
                quad_j.append(vars_[1])
            else:
                higher.append((r, exps))
        self._const = np.array(const, dtype=int)
        self._lin_rows = np.array(lin_rows, dtype=int)
        self._lin_var = np.array(lin_var, dtype=int)
        self._quad_rows = np.array(quad_rows, dtype=int)
        self._quad_i = np.array(quad_i, dtype=int)
        self._quad_j = np.array(quad_j, dtype=int)
        self._higher = higher

    def rows(self, z: np.ndarray) -> np.ndarray:
        theta = np.empty(self.h)
        theta[self._const] = 1.0
        theta[self._lin_rows] = z[self._lin_var]
        theta[self._quad_rows] = z[self._quad_i] * z[self._quad_j]
        for r, exps in self._higher:
            theta[r] = np.prod(z ** np.asarray(exps))
        return theta

    def matrix(self, Z: np.ndarray) -> np.ndarray:
        d = Z.shape[0]
        theta = np.empty((d, self.h))
        theta[:, self._const] = 1.0
        theta[:, self._lin_rows] = Z[:, self._lin_var]
        theta[:, self._quad_rows] = Z[:, self._quad_i] * Z[:, self._quad_j]
        for r, exps in self._higher:
            theta[:, r] = np.prod(Z ** np.asarray(exps), axis=1)
        return theta

    def rows_and_grad(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = self.rows(z)
        grad = np.zeros((self.h, self.nz))
        grad[self._lin_rows, self._lin_var] = 1.0
        np.add.at(grad, (self._quad_rows, self._quad_i), z[self._quad_j])
        np.add.at(grad, (self._quad_rows, self._quad_j), z[self._quad_i])
        for r, exps in self._higher:
            for v, e in enumerate(exps):
                if e:
                    lowered = list(exps)
                    lowered[v] -= 1
                    grad[r, v] = e * np.prod(z ** np.asarray(lowered))
        return theta, grad


def build_library(states: np.ndarray, inputs: np.ndarray,
                  spec: FeatureLibrarySpec | None = None):
    """Monomial design matrix for stacked rows.

    Returns ``(theta, terms)`` where ``theta`` is (rows, h) and ``terms`` are
    the exponent vectors defining each column, in a deterministic order:
    constant, degree-1 in variable order, then higher degrees lexicographic.
    """
    spec = spec or FeatureLibrarySpec()
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if states.shape[0] != inputs.shape[0]:
        raise ValueError("states and inputs must have the same row count")
    terms = spec.terms(states.shape[1], inputs.shape[1])
    fmap = _FeatureMap(terms, states.shape[1] + inputs.shape[1])
    return fmap.matrix(np.hstack([states, inputs])), terms


# -- regression ----------------------------------------------------------------

# Relative singular-value cutoff for the elimination fits, and so for the
# final coefficients. Active sets that survive thresholding on noisy data can
# still hide near-duplicate columns (a rate and its square, say); directions
# this far below the top singular value are unidentifiable, and fitting them
# only manufactures huge cancelling coefficients that fall apart off the
# training episodes. Clean well-separated problems never get near the cutoff.
REFIT_RCOND = 3e-2

# How many standard errors a surviving coefficient must clear to be kept. The
# magnitude threshold alone cannot separate signal from sampling noise (noise
# coefficients scale with the data, the threshold does not), so survivors are
# also checked against their own estimated uncertainty. Noise-free data has
# vanishing standard errors, leaving exact recovery untouched.
SIGNIFICANCE_Z = 5.0


def _gram_fit(gram: np.ndarray, moment: np.ndarray, energy: float, d: int):
    """``lstsq(A, y, rcond=REFIT_RCOND)`` and each |coefficient| / standard
    error, from ``gram`` = A'A, ``moment`` = A'y and ``energy`` = y'y.
    Eigenvalues of A'A are squared singular values of A, hence the squared
    cutoff; standard errors use ``pinv(A'A)``'s default 1e-15 cutoff, and 0/0
    (an all-zero column) reads as infinite."""
    w, vecs = np.linalg.eigh(gram)
    keep = w > REFIT_RCOND ** 2 * w.max()
    along = vecs[:, keep].T @ moment
    fit = vecs[:, keep] @ (along / w[keep])
    sigma2 = (energy - along @ (along / w[keep])) / max(d - len(moment), 1)
    big = np.abs(w) > 1e-15 * np.abs(w).max()
    var = sigma2 * ((vecs[:, big] ** 2) @ (1.0 / w[big]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(fit) / np.sqrt(np.maximum(var, 0.0))
    return fit, np.where(np.isfinite(ratio), ratio, np.inf)


def stls_regress(theta: np.ndarray, targets: np.ndarray, ridge: float = 0.05,
                 threshold: float = 2e-4):
    """Sequential thresholded least squares, one regression per target column.

    Stages read blocks of G = theta'theta and b = theta'y, formed once. The
    ridge screen solves ``(G_aa/d + ridge I) c = b_a/d`` and drops every
    coefficient below ``threshold`` until none drops; on the benchmark logs it
    takes the centred constant and up to three columns the next stage would
    keep. Significance elimination drops the survivor with the smallest
    |coefficient| / standard error until all clear ``SIGNIFICANCE_Z``, taking
    153 columns to 3-18. The last ``REFIT_RCOND``-truncated elimination fit,
    with entries below ``threshold`` zeroed, is the result.

    Returns ``(coefficients, zero_rows)`` where ``coefficients`` is
    (targets, h) and ``zero_rows`` flags targets whose columns were all
    eliminated (their row is left at zero).
    """
    theta = np.asarray(theta, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[0] != theta.shape[0]:
        raise ValueError("theta and targets must have the same row count")
    d, h = theta.shape
    gram = theta.T @ theta
    moments = theta.T @ targets
    energies = np.sum(targets * targets, axis=0)
    coef = np.zeros((targets.shape[1], h))
    for k in range(len(coef)):
        active = np.arange(h)
        while active.size:
            # Ridge in covariance form: (A'A/d + ridge I) keeps the penalty
            # strength independent of how many rows were logged.
            lhs = gram[np.ix_(active, active)] / d + ridge * np.eye(active.size)
            rhs = moments[active, k] / d
            try:
                fit = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                fit = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            small = np.abs(fit) < threshold
            if not small.any():
                break
            active = active[~small]
        # Noise guard: backward-eliminate survivors indistinguishable from
        # zero given their own standard error, weakest first and one per
        # pass, so a collinear pair sheds one member and keeps their shared
        # signal in the other instead of losing both at once.
        while active.size:
            fit, ratios = _gram_fit(gram[np.ix_(active, active)],
                                    moments[active, k], energies[k], d)
            weakest = int(np.argmin(ratios))
            if ratios[weakest] >= SIGNIFICANCE_Z:
                break
            active = np.delete(active, weakest)
        if active.size:
            coef[k, active] = np.where(np.abs(fit) < threshold, 0.0, fit)
    return coef, ~np.any(coef, axis=1)


def _column_stats(matrix: np.ndarray, center: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-column z-score parameters ``(mean, scale)``.

    Columns that never move (the constant term, a rate pinned at a bound all
    episode) get scale 1; after centering they are numerically zero and drop
    out of the regression instead of aliasing the intercept. Without a
    constant term in the library there is nowhere to put an intercept back,
    so ``center=False`` falls back to plain RMS scaling about zero.
    """
    if center:
        mean = matrix.mean(axis=0)
        spread = matrix.std(axis=0)
    else:
        mean = np.zeros(matrix.shape[1])
        spread = np.sqrt(np.mean(matrix * matrix, axis=0))
    floor = 1e-10 * np.maximum(np.abs(mean), 1.0)
    return mean, np.where(spread > floor, spread, 1.0)


def _require_finite(states, inputs, derivs) -> None:
    if not all(np.isfinite(a).all() for a in (states, inputs, derivs)):
        raise InsufficientDataError("states, inputs and derivatives must be finite")


def fit_derivatives(states: np.ndarray, inputs: np.ndarray, derivs: np.ndarray,
                    library: FeatureLibrarySpec | None = None,
                    ridge: float = 0.05, threshold: float = 2e-4,
                    provenance: dict | None = None) -> "SparseModel":
    """Sparse fit of ``derivs = C theta(states, inputs)`` from sample triples.

    This is the regression stage shared by :func:`discover_sindyc` (which
    supplies central-difference derivatives) and synthetic oracles (which can
    supply exact ones). Columns and targets are z-scored first so one
    threshold is comparable across wildly different units (occupancies sit
    near 15, rates near 1000, their squares near a million); coefficients are
    mapped back to physical units, with the normalized form kept on the
    model.
    """
    library = library or FeatureLibrarySpec()
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
    _require_finite(states, inputs, derivs)
    theta, terms = build_library(states, inputs, library)
    d, h = theta.shape
    if d < 2 * h:
        raise InsufficientDataError(
            f"{d} samples for {h} library columns; need at least {2 * h}. "
            "Collect more or longer episodes, or lower the polynomial order.")
    const_ix = next((i for i, t in enumerate(terms) if not any(t)), None)
    col_mean, col_scale = _column_stats(theta, center=const_ix is not None)
    tgt_mean, tgt_scale = _column_stats(derivs, center=const_ix is not None)
    scaled_coef, zero_rows = stls_regress(
        (theta - col_mean) / col_scale, (derivs - tgt_mean) / tgt_scale,
        ridge=ridge, threshold=threshold)
    coef = scaled_coef * tgt_scale[:, None] / col_scale[None, :]
    if const_ix is not None:
        # Centering absorbed every offset; rebuild the physical intercept and
        # hold it to the same threshold so a fitted zero stays a zero.
        intercept = tgt_mean - coef @ col_mean
        intercept[np.abs(intercept / tgt_scale) < threshold] = 0.0
        coef[:, const_ix] = intercept
        scaled_coef[:, const_ix] = intercept / tgt_scale
        zero_rows = ~np.any(coef, axis=1)
    return SparseModel(
        terms=terms,
        coefficients=coef,
        state_dim=states.shape[1],
        input_dim=inputs.shape[1],
        library=library,
        column_means=col_mean,
        column_scales=col_scale,
        target_means=tgt_mean,
        target_scales=tgt_scale,
        scaled_coefficients=scaled_coef,
        zero_rows=tuple(bool(b) for b in zero_rows),
        provenance=dict(provenance or {}, ridge=ridge, threshold=threshold,
                        samples=d, columns=h),
    )


def discover_sindyc(log: TrajectoryLog,
                    library: FeatureLibrarySpec | None = None,
                    ridge: float = 0.05, threshold: float = 2e-4,
                    smooth_window: int | None = None,
                    provenance: dict | None = None) -> "SparseModel":
    """Identify sparse polynomial dynamics from a metering log.

    Differentiates per episode, then runs the thresholded regression. A log
    of a plant stuck at steady state yields an all-zero model; check
    ``model.zero_rows`` before trusting predictions.
    """
    derivs, xs, us = differentiate(log, smooth_window=smooth_window)
    info = dict(provenance or {}, method="sindyc", dt=log.dt,
                episodes=len(log.episode_starts))
    if smooth_window is not None:
        info["smooth_window"] = smooth_window
    return fit_derivatives(xs, us, derivs, library=library, ridge=ridge,
                           threshold=threshold, provenance=info)


def discover_dmdc(log: TrajectoryLog, provenance: dict | None = None) -> "SparseModel":
    """Linear baseline: least-squares ``xdot = A x + B u + c``, no thresholding.

    Falls back to a lightly ridged solve (with a warning) when the design
    matrix is rank deficient, e.g. an input that never moved. Non-finite
    data raises :class:`InsufficientDataError`, as in :func:`fit_derivatives`.
    """
    derivs, xs, us = differentiate(log)
    _require_finite(xs, us, derivs)
    library = FeatureLibrarySpec(polynomial_order=1, include_constant=True)
    theta, terms = build_library(xs, us, library)
    solution, _, rank, _ = np.linalg.lstsq(theta, derivs, rcond=None)
    if rank < theta.shape[1]:
        warnings.warn(
            f"linear fit is rank deficient ({rank}/{theta.shape[1]}); "
            "using a ridged solve", RuntimeWarning, stacklevel=2)
        solution = np.linalg.solve(
            theta.T @ theta + 1e-6 * np.eye(theta.shape[1]), theta.T @ derivs)
    coef = solution.T
    ones_h = np.ones(theta.shape[1])
    ones_n = np.ones(derivs.shape[1])
    return SparseModel(
        terms=terms,
        coefficients=coef,
        state_dim=xs.shape[1],
        input_dim=us.shape[1],
        library=library,
        column_means=np.zeros(theta.shape[1]),
        column_scales=ones_h,
        target_means=np.zeros(derivs.shape[1]),
        target_scales=ones_n,
        scaled_coefficients=coef.copy(),
        zero_rows=tuple(not np.any(coef[k]) for k in range(coef.shape[0])),
        provenance=dict(provenance or {}, method="dmdc", dt=log.dt,
                        episodes=len(log.episode_starts),
                        samples=theta.shape[0], columns=theta.shape[1]),
    )


# -- the model -------------------------------------------------------------------

@dataclass
class SparseModel:
    """Polynomial dynamics ``xdot = C theta(x, u)`` plus fit metadata.

    ``coefficients`` are physical units; ``scaled_coefficients`` are the
    normalized-unit values the threshold was applied to. ``terms`` are
    exponent vectors over (x, u) defining each library column.
    """

    terms: tuple[tuple[int, ...], ...]
    coefficients: np.ndarray  # (n, h)
    state_dim: int
    input_dim: int
    library: FeatureLibrarySpec
    column_means: np.ndarray  # (h,)
    column_scales: np.ndarray  # (h,)
    target_means: np.ndarray  # (n,)
    target_scales: np.ndarray  # (n,)
    scaled_coefficients: np.ndarray  # (n, h)
    zero_rows: tuple[bool, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        nz = self.state_dim + self.input_dim
        if self.coefficients.shape != (self.state_dim, len(self.terms)):
            raise ValueError("coefficient shape does not match terms/state_dim")
        self._fmap = _FeatureMap(self.terms, nz)

    # -- evaluation ------------------------------------------------------------

    def _z(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        u = np.asarray(u, dtype=float).reshape(-1)
        if len(x) != self.state_dim or len(u) != self.input_dim:
            raise ValueError(
                f"expected ({self.state_dim},) states and ({self.input_dim},) "
                f"inputs, got {x.shape} and {u.shape}")
        return np.concatenate([x, u])

    def features(self, x, u) -> np.ndarray:
        return self._fmap.rows(self._z(x, u))

    def evaluate(self, x, u) -> np.ndarray:
        """Model derivative at one (x, u) point, physical units per step."""
        return self.coefficients @ self.features(x, u)

    def evaluate_batch(self, states, inputs) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        theta = self._fmap.matrix(np.hstack([states, inputs]))
        return theta @ self.coefficients.T

    def step(self, x, u, h: float = 1.0) -> np.ndarray:
        """Forward-Euler step ``x + h * f(x, u)``; h is in control steps."""
        return np.asarray(x, dtype=float).reshape(-1) + h * self.evaluate(x, u)

    def jacobian(self, x, u) -> tuple[np.ndarray, np.ndarray]:
        """``(df/dx, df/du)`` at one point, shapes (n, n) and (n, m)."""
        _, grad = self._fmap.rows_and_grad(self._z(x, u))
        sens = self.coefficients @ grad
        return sens[:, :self.state_dim], sens[:, self.state_dim:]

    # -- introspection -----------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return len(self.terms)

    def active_count(self) -> np.ndarray:
        return np.count_nonzero(self.coefficients, axis=1)

    def active_terms(self, state_index: int):
        """(label, physical coefficient) pairs for one state dimension."""
        row = self.coefficients[state_index]
        return [(term_label(t, self.state_dim), float(c))
                for t, c in zip(self.terms, row) if c != 0.0]

    # -- persistence --------------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "state_dim": self.state_dim,
            "input_dim": self.input_dim,
            "library": {
                "polynomial_order": self.library.polynomial_order,
                "include_constant": self.library.include_constant,
            },
            "terms": [list(t) for t in self.terms],
            "coefficients": self.coefficients.tolist(),
            "column_means": self.column_means.tolist(),
            "column_scales": self.column_scales.tolist(),
            "target_means": self.target_means.tolist(),
            "target_scales": self.target_scales.tolist(),
            "scaled_coefficients": self.scaled_coefficients.tolist(),
            "zero_rows": list(self.zero_rows),
            "provenance": self.provenance,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "SparseModel":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            terms=tuple(tuple(t) for t in doc["terms"]),
            coefficients=np.array(doc["coefficients"], dtype=float),
            state_dim=int(doc["state_dim"]),
            input_dim=int(doc["input_dim"]),
            library=FeatureLibrarySpec(**doc["library"]),
            column_means=np.array(doc["column_means"], dtype=float),
            column_scales=np.array(doc["column_scales"], dtype=float),
            target_means=np.array(doc["target_means"], dtype=float),
            target_scales=np.array(doc["target_scales"], dtype=float),
            scaled_coefficients=np.array(doc["scaled_coefficients"], dtype=float),
            zero_rows=tuple(bool(b) for b in doc["zero_rows"]),
            provenance=doc.get("provenance", {}),
        )


# -- reporting ----------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Holdout accuracy of a model's derivative predictions."""

    rmse: np.ndarray  # (n,) per state dimension
    r2: np.ndarray  # (n,)
    active: np.ndarray  # (n,) nonzero coefficients per dimension
    samples: int

    @property
    def mean_r2(self) -> float:
        return float(self.r2.mean())

    def summary(self) -> str:
        lines = [f"samples: {self.samples}"]
        for k in range(len(self.rmse)):
            lines.append(
                f"x{k + 1}: R2 {self.r2[k]:+.4f}  rmse {self.rmse[k]:.5f}  "
                f"terms {int(self.active[k])}")
        lines.append(f"mean R2: {self.mean_r2:+.4f}")
        return "\n".join(lines)


def fit_report(model: SparseModel, log: TrajectoryLog,
               smooth_window: int | None = None) -> FitReport:
    """Score a model against a (held-out) log's numerical derivatives."""
    derivs, xs, us = differentiate(log, smooth_window=smooth_window)
    pred = model.evaluate_batch(xs, us)
    resid = pred - derivs
    rmse = np.sqrt(np.mean(resid ** 2, axis=0))
    centered = derivs - derivs.mean(axis=0)
    ss_tot = np.sum(centered ** 2, axis=0)
    ss_res = np.sum(resid ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - ss_res / ss_tot
    r2 = np.where(ss_tot > 1e-300, r2, np.where(ss_res <= 1e-12, 1.0, -np.inf))
    return FitReport(rmse=rmse, r2=r2, active=model.active_count(),
                     samples=len(xs))
