"""Sparse regression of control-affine dynamics from metering logs.

The model family is ``xdot = C theta(x, u)`` where ``theta`` stacks the
monomials of degree 1 or 2 of the joint vector z = (x, u) in one layout: the
constant column first, then z in variable order, then the products
``z_i * z_j`` for i <= j in lexicographic order. For the benchmark
(n = m = 8, order 2) that is 1 + 16 + 136 = 153 columns. A model is its
coefficient matrix: with nz = n + m, a width of 1 + nz columns is the linear
library and 1 + nz + nz(nz + 1)/2 the quadratic one, so the order and the
column exponents (``terms``) follow from the width and are never stored.
Fitting reads the library matrix; a fitted model reads f and its Jacobian at
one point from the quadratic form ``f = c + L z + z'Q z`` (Q upper
triangular) built once from the coefficients.

Fitting runs sequential thresholded least squares (Zhang & Schaeffer 2019)
on central-difference derivatives, with z-scored columns and targets, from
one Gram matrix in two stages: a ridge screen drops a few columns, and
standard-error elimination makes the model sparse and gives the coefficients
(see :func:`stls_regress`). The recipe is fixed: ``RIDGE``, ``THRESHOLD``,
``REFIT_RCOND`` and ``SIGNIFICANCE_Z`` below. A linear-terms-only fit without
thresholding is the baseline (DMDc-style) model.

Fits and scores take ``episodes``: one ``(states, inputs)`` array pair per
logged episode, differenced one episode at a time and stacked. The module
names nothing of the plant; the caller says which columns are states and
which are inputs.

Time convention: one model time unit is one control step. Log rows are one
control step apart, ``xdot`` is the change per control step, and the
planner's predictor advances ``x + xdot`` per step.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
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
    """Raised when the episodes are missing, too short or not finite to
    identify the library."""


def differentiate(episodes):
    """Central-difference derivatives per control step, one episode at a time.

    ``episodes`` holds one ``(states, inputs)`` array pair per episode, with
    rows one control step apart. Each pair is differenced on its own, so no
    difference crosses two episodes, and loses its two endpoint rows (central
    differences need both neighbors). Returns the stacked
    ``(derivs, states, inputs)``.
    """
    derivs, xs, us = [], [], []
    for idx, (x, u) in enumerate(episodes):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if len(x) != len(u):
            raise ValueError(f"episode {idx} has {len(x)} state rows but "
                             f"{len(u)} input rows")
        if len(x) < 3:
            raise InsufficientDataError(
                f"episode {idx} has {len(x)} usable rows; need at least 3 "
                "for central differences")
        derivs.append((x[2:] - x[:-2]) / 2.0)
        xs.append(x[1:-1])
        us.append(u[1:-1])
    if not derivs:
        raise InsufficientDataError("no episodes given; a fit needs at least one")
    return np.vstack(derivs), np.vstack(xs), np.vstack(us)


# -- polynomial feature library ---------------------------------------------------

def _width(nz: int, order: int) -> int:
    """Column count of the library of ``order`` (1 or 2) over nz variables."""
    return 1 + nz + (nz * (nz + 1) // 2 if order == 2 else 0)


def _terms(nz: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors over z = (x_1..x_n, u_1..u_m), in column order."""
    eye = np.eye(nz, dtype=int)
    blocks = [np.zeros_like(eye[:1]), eye]
    if order == 2:
        i, j = np.triu_indices(nz)
        blocks.append(eye[i] + eye[j])
    return tuple(tuple(int(e) for e in row) for row in np.vstack(blocks))


def term_label(term: tuple[int, ...], n_states: int) -> str:
    """Human-readable monomial, e.g. ``x1*u2`` or ``x3^2`` or ``1``."""
    parts = []
    for v, exp in enumerate(term):
        if exp == 0:
            continue
        name = f"x{v + 1}" if v < n_states else f"u{v - n_states + 1}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def _library_matrix(z: np.ndarray, order: int) -> np.ndarray:
    """Columns ``[1, z, z_i * z_j for i <= j]`` for rows of z, in the order of
    ``_terms`` (``triu_indices`` is row-major, as the terms are)."""
    blocks = [np.ones((len(z), 1)), z]
    if order == 2:
        i, j = np.triu_indices(z.shape[1])
        blocks.append(z[:, i] * z[:, j])
    return np.hstack(blocks)


def build_library(states: np.ndarray, inputs: np.ndarray, order: int = 2):
    """Monomial design matrix of degree ``order`` (1 or 2) for stacked rows.

    Returns ``(theta, terms)`` where ``theta`` is (rows, h) and ``terms`` are
    the exponent vectors defining each column, in a deterministic order:
    constant, degree 1 in variable order, then for order 2 the products
    ``z_i * z_j`` with i <= j, lexicographic.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if states.shape[0] != inputs.shape[0]:
        raise ValueError("states and inputs must have the same row count")
    terms = _terms(states.shape[1] + inputs.shape[1], order)
    return _library_matrix(np.hstack([states, inputs]), order), terms


# -- regression ----------------------------------------------------------------

# The screen's ridge, in covariance form (A'A/d + RIDGE I), and the magnitude
# below which the screen drops a normalized coefficient (and the rebuilt
# intercept counts as zero). With RIDGE > 0 every
# eigenvalue of the screen's matrix is at least RIDGE, so its solve cannot
# fail.
RIDGE = 0.05
THRESHOLD = 2e-4

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
# also checked against their own estimated uncertainty. On noise-free data the
# residual is at rounding level, so true terms clear the bar by orders of
# magnitude while rounding-level coefficients do not, and exact recovery
# holds.
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
    # On noise-free data y'y - b'G+b rounds to zero or below, and a zero
    # standard error would make a rounding-level coefficient look infinitely
    # significant. No residual is known better than machine epsilon of y'y,
    # so that is its floor; it lets noise-free fits shed rounding-level
    # terms, and on noisy data the residual is far above it.
    resid = max(energy - along @ (along / w[keep]), np.finfo(float).eps * energy)
    sigma2 = resid / max(d - len(moment), 1)
    big = np.abs(w) > 1e-15 * np.abs(w).max()
    var = sigma2 * ((vecs[:, big] ** 2) @ (1.0 / w[big]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(fit) / np.sqrt(np.maximum(var, 0.0))
    return fit, np.where(np.isfinite(ratio), ratio, np.inf)


def stls_regress(theta: np.ndarray, targets: np.ndarray):
    """Sequential thresholded least squares, one regression per target column.

    Stages read blocks of G = theta'theta and b = theta'y, formed once. The
    ridge screen solves ``(G_aa/d + RIDGE I) c = b_a/d`` and drops every
    coefficient below ``THRESHOLD`` until none drops; on the benchmark logs it
    takes the centred constant and up to three columns the next stage would
    keep. Significance elimination drops the survivor with the smallest
    |coefficient| / standard error until all clear ``SIGNIFICANCE_Z``, taking
    153 columns to 3-18. The last ``REFIT_RCOND``-truncated elimination fit
    is the result; nothing is zeroed after it.

    Returns the (targets, h) coefficient matrix; a target whose columns
    were all eliminated keeps a zero row.
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
            # Ridge in covariance form: (A'A/d + RIDGE I) keeps the penalty
            # strength independent of how many rows were logged.
            lhs = gram[np.ix_(active, active)] / d + RIDGE * np.eye(active.size)
            fit = np.linalg.solve(lhs, moments[active, k] / d)
            small = np.abs(fit) < THRESHOLD
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
            coef[k, active] = fit
    return coef


def _column_stats(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column z-score parameters ``(mean, scale)``.

    Columns that never move (the constant term, a rate pinned at a bound all
    episode) get scale 1; after centering they are numerically zero and drop
    out of the regression instead of aliasing the intercept.
    """
    mean = matrix.mean(axis=0)
    spread = matrix.std(axis=0)
    floor = 1e-10 * np.maximum(np.abs(mean), 1.0)
    return mean, np.where(spread > floor, spread, 1.0)


def _require_data(states, inputs, derivs, order: int) -> None:
    """Every fit needs finite data and at least two rows per library column."""
    if not all(np.isfinite(a).all() for a in (states, inputs, derivs)):
        raise InsufficientDataError("states, inputs and derivatives must be finite")
    d, h = len(states), _width(states.shape[1] + inputs.shape[1], order)
    if d < 2 * h:
        raise InsufficientDataError(
            f"{d} samples for {h} library columns; need at least {2 * h}. "
            "Collect more or longer episodes.")


def fit_derivatives(states: np.ndarray, inputs: np.ndarray, derivs: np.ndarray,
                    provenance: dict | None = None) -> "SparseModel":
    """Sparse fit of ``derivs = C theta(states, inputs)`` on the quadratic
    library, from sample triples.

    This is the regression stage shared by :func:`discover_sindyc` (which
    supplies central-difference derivatives) and synthetic oracles (which can
    supply exact ones). Columns and targets are z-scored first so one
    threshold is comparable across wildly different units (occupancies sit
    near 15, rates near 1000, their squares near a million); coefficients are
    mapped back to physical units.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
    _require_data(states, inputs, derivs, 2)
    theta, _ = build_library(states, inputs)
    col_mean, col_scale = _column_stats(theta)
    tgt_mean, tgt_scale = _column_stats(derivs)
    scaled = stls_regress((theta - col_mean) / col_scale,
                          (derivs - tgt_mean) / tgt_scale)
    coef = scaled * tgt_scale[:, None] / col_scale[None, :]
    # Centering absorbed every offset; rebuild the physical intercept in the
    # constant column and hold it to the same threshold so a fitted zero
    # stays a zero.
    intercept = tgt_mean - coef @ col_mean
    intercept[np.abs(intercept / tgt_scale) < THRESHOLD] = 0.0
    coef[:, 0] = intercept
    return SparseModel(
        coefficients=coef,
        state_dim=states.shape[1],
        input_dim=inputs.shape[1],
        provenance=dict(provenance or {}, samples=theta.shape[0],
                        columns=theta.shape[1]),
    )


def discover_sindyc(episodes, provenance: dict | None = None) -> "SparseModel":
    """Identify sparse quadratic dynamics from ``(states, inputs)`` episodes.

    Differentiates per episode, then runs the thresholded regression. Logs
    of a plant stuck at steady state yield an all-zero model; check
    ``model.zero_rows`` before trusting predictions.
    """
    derivs, xs, us = differentiate(episodes)
    info = dict(provenance or {}, method="sindyc", episodes=len(episodes))
    return fit_derivatives(xs, us, derivs, provenance=info)


def discover_dmdc(episodes, provenance: dict | None = None) -> "SparseModel":
    """Linear baseline: least-squares ``xdot = A x + B u + c``, no thresholding.

    When the design matrix is rank deficient, e.g. an input that never moved,
    the result is ``lstsq``'s minimum-norm solution, with a warning.
    Non-finite data or fewer than two rows per column raise
    :class:`InsufficientDataError`, as in :func:`fit_derivatives`.
    """
    derivs, xs, us = differentiate(episodes)
    _require_data(xs, us, derivs, 1)
    theta, _ = build_library(xs, us, order=1)
    solution, _, rank, _ = np.linalg.lstsq(theta, derivs, rcond=None)
    if rank < theta.shape[1]:
        warnings.warn(
            f"linear fit is rank deficient ({rank}/{theta.shape[1]}); "
            "using the minimum-norm solution", RuntimeWarning, stacklevel=2)
    return SparseModel(
        coefficients=solution.T,
        state_dim=xs.shape[1],
        input_dim=us.shape[1],
        provenance=dict(provenance or {}, method="dmdc", episodes=len(episodes),
                        samples=theta.shape[0], columns=theta.shape[1]),
    )


# -- the model -------------------------------------------------------------------

@dataclass
class SparseModel:
    """Polynomial dynamics ``xdot = C theta(x, u)`` plus fit provenance.

    ``coefficients`` are physical units per control step, one column per
    library term, in the library's order. Their width is the library: with
    nz = n + m, 1 + nz columns are the linear library and
    1 + nz + nz(nz + 1)/2 the quadratic one; any other shape is refused.
    Point reads use the quadratic form ``f = c + (L + Q z) z`` compiled from
    the coefficients on creation.
    """

    coefficients: np.ndarray  # (n, h)
    state_dim: int
    input_dim: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        n, nz = self.state_dim, self.state_dim + self.input_dim
        shapes = {(n, _width(nz, order)): order for order in (1, 2)}
        if self.coefficients.shape not in shapes:
            raise ValueError(f"coefficients have shape {self.coefficients.shape}; "
                             f"the library needs one of {list(shapes)}")
        self._order = shapes[self.coefficients.shape]
        # f = offset + (L + Q z) z with Q upper triangular; df/dz = L + (Q + Q') z.
        # A linear library has no Q, so its reads are offset + L z and L. L is
        # a contiguous copy: L z on a strided view of the coefficients rounds
        # differently, while on a copy it matches (L + 0 z) z bit for bit.
        self._offset = self.coefficients[:, 0]
        self._linear = np.ascontiguousarray(self.coefficients[:, 1:1 + nz])
        self._quad = self._quad_sym = None
        if self._order == 2:
            i, j = np.triu_indices(nz)
            self._quad = np.zeros((n, nz, nz))
            self._quad[:, i, j] = self.coefficients[:, 1 + nz:]
            self._quad_sym = self._quad + self._quad.transpose(0, 2, 1)

    # -- evaluation ------------------------------------------------------------

    def _z(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        u = np.asarray(u, dtype=float).reshape(-1)
        if len(x) != self.state_dim or len(u) != self.input_dim:
            raise ValueError(
                f"expected ({self.state_dim},) states and ({self.input_dim},) "
                f"inputs, got {x.shape} and {u.shape}")
        return np.concatenate([x, u])

    def _f(self, z: np.ndarray) -> np.ndarray:
        """``f`` at one stacked point ``z = (x, u)``, shape (n,). The planner
        calls it with a row of its z buffer."""
        if self._quad is None:
            return self._offset + self._linear @ z
        return self._offset + (self._linear + self._quad @ z) @ z

    def _df(self, z: np.ndarray) -> np.ndarray:
        """``df/dz`` at one stacked point, shape (n, n + m). Read-only: a
        linear library returns its stored coefficient block."""
        if self._quad_sym is None:
            return self._linear
        return self._linear + self._quad_sym @ z

    def evaluate(self, x, u) -> np.ndarray:
        """Model derivative at one (x, u) point, physical units per step."""
        return self._f(self._z(x, u))

    def evaluate_batch(self, states, inputs) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        theta = _library_matrix(np.hstack([states, inputs]), self._order)
        return theta @ self.coefficients.T

    def jacobian(self, x, u) -> tuple[np.ndarray, np.ndarray]:
        """``(df/dx, df/du)`` at one point, shapes (n, n) and (n, m)."""
        sens = self._df(self._z(x, u))
        return sens[:, :self.state_dim].copy(), sens[:, self.state_dim:].copy()

    # -- introspection -----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors over (x, u) of the coefficient columns."""
        return _terms(self.state_dim + self.input_dim, self._order)

    @property
    def n_columns(self) -> int:
        return self.coefficients.shape[1]

    @property
    def zero_rows(self) -> tuple[bool, ...]:
        """Per state, whether every coefficient is zero (a flat prediction)."""
        return tuple(bool(b) for b in ~self.coefficients.any(axis=1))

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
            "coefficients": self.coefficients.tolist(),
            "provenance": self.provenance,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "SparseModel":
        """Read a file written by :meth:`save`. Keys that older files carry
        (``library``, ``terms``, the column and target statistics and
        ``scaled_coefficients``) are ignored."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            coefficients=np.array(doc["coefficients"], dtype=float),
            state_dim=int(doc["state_dim"]),
            input_dim=int(doc["input_dim"]),
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


def fit_report(model: SparseModel, episodes) -> FitReport:
    """Score a model against the numerical derivatives of (held-out)
    ``(states, inputs)`` episodes."""
    derivs, xs, us = differentiate(episodes)
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
