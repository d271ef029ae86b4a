"""Sparse regression of control-affine dynamics from metering logs.

The model family is ``xdot = C theta(x, u)`` where ``theta`` stacks the
monomials of degree 0 to 2 of the joint vector z = (x, u) in one layout: the
constant column first, then z in variable order, then the products
``z_i * z_j`` for i <= j in lexicographic order. For the benchmark
(n = m = 8) that is 1 + 16 + 136 = 153 columns. A model is its coefficient
matrix, always of that width, so the column exponents (``terms``) follow
from the state and input counts and are never stored. Fitting reads the
library matrix; a fitted model reads f and its Jacobian at one point from
the quadratic form ``f = c + L z + z'Q z`` (Q upper triangular) built once
from the coefficients.

Fitting runs sequential thresholded least squares (Zhang & Schaeffer 2019)
on central-difference derivatives, with z-scored columns and targets, each
state its own regression on its own block of columns, in two stages: a
ridge screen drops a few columns, and standard-error elimination makes the
model sparse and gives the coefficients (see :func:`stls_regress`). The
recipe is fixed: ``RIDGE``, ``THRESHOLD``, ``REFIT_RCOND`` and
``SIGNIFICANCE_Z`` below. A state's block is the whole library or, given one
mask per state over the variables of z, its sub-library: the columns whose
monomials use only its masked variables (see :func:`fit_derivatives`). The
baseline (DMDc-style) model is an unthresholded least-squares fit on the
constant and z columns alone; its product columns are zero.

The whole regression runs with the OpenBLAS bundled with numpy held to one
thread, so the coefficients do not depend on that library's thread count.
The states' regressions are independent jobs on up to two threads (see
:func:`stls_regress`), and the same bit for bit on any number of threads.

Both discovery fits record the envelope of their data on the model: each
state's smallest and largest fitted value. The planner trusts the model only
inside it (see :class:`rampnet.mpc.MpcController`).

Fits and scores take ``episodes``: one ``(states, inputs)`` array pair per
logged episode, differenced one episode at a time and stacked. The module
names nothing of the plant; the caller says which columns are states and
which are inputs.

Time convention: one model time unit is one control step. Log rows are one
control step apart, ``xdot`` is the change per control step, and the
planner's predictor advances ``x + xdot`` per step.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import _is_int, _is_number, _list_of

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

def _width(nz: int) -> int:
    """Column count of the library over nz variables."""
    return 1 + nz + nz * (nz + 1) // 2


def _terms(nz: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors over z = (x_1..x_n, u_1..u_m), in column order."""
    eye = np.eye(nz, dtype=int)
    i, j = np.triu_indices(nz)
    rows = np.vstack([np.zeros_like(eye[:1]), eye, eye[i] + eye[j]])
    return tuple(tuple(int(e) for e in row) for row in rows)


def term_label(term: tuple[int, ...], n_states: int) -> str:
    """Human-readable monomial, e.g. ``x1*u2`` or ``x3^2`` or ``1``."""
    parts = []
    for v, exp in enumerate(term):
        if exp == 0:
            continue
        name = f"x{v + 1}" if v < n_states else f"u{v - n_states + 1}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def build_library(states: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Design matrix ``[1, z, z_i * z_j for i <= j]`` of z = (x, u) for
    stacked rows, shape (rows, 1 + nz + nz(nz + 1)/2), in the column order of
    :attr:`SparseModel.terms` (``triu_indices`` is row-major, as the terms
    are)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if states.shape[0] != inputs.shape[0]:
        raise ValueError("states and inputs must have the same row count")
    z = np.hstack([states, inputs])
    i, j = np.triu_indices(z.shape[1])
    return np.hstack([np.ones((len(z), 1)), z, z[:, i] * z[:, j]])


# -- regression ----------------------------------------------------------------

# The screen's ridge, in covariance form (A'A/d + RIDGE I), and the magnitude
# below which the screen drops a normalized coefficient (and the rebuilt
# intercept counts as zero). With RIDGE > 0 every eigenvalue of the screen's
# matrix is at least RIDGE, so its one solve, over every column and target at
# once, cannot fail.
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


# -- one job per target ----------------------------------------------------------

_BLAS_LOCK = threading.Lock()


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS bundled with numpy,
    or None when there is no such library (another BLAS, another platform)."""
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the bundled OpenBLAS to one thread for the block and yield True,
    or yield False when it cannot be found. The count is process-wide: the
    lock keeps a second fit from taking this one's 1 for the count to
    restore."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get, put = blas
    with _BLAS_LOCK:
        before = get()
        put(1)
        try:
            yield True
        finally:
            put(before)


def _usable_cpus() -> int:
    """CPUs this process may run on: the fit's job threads and
    ``harness.run_scenarios``'s worker processes are both sized by it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Each thread that runs jobs keeps its own allocator arena and BLAS buffers,
# 1.6-2.4 MB of peak RSS apiece on the benchmark fit (46 MB on one thread):
# perfbench's discovery peak read +5% with two workers, +8% with three and
# +12% with four, against a 10% bound (CPU count patched, on 2 vCPUs).
_MAX_WORKERS = 2


def _run_jobs(job, count: int, parallel: bool) -> None:
    """``job(k)`` for each k in ``range(count)``, from one shared iterator:
    on the calling thread and, when ``parallel`` (OpenBLAS held to one
    thread), helpers up to one worker per usable CPU and ``_MAX_WORKERS`` in
    all. A job's exception is raised here, after every helper has stopped.
    The calling thread works rather than waits: two helpers beside an idle
    calling thread read +8% peak RSS, like three workers."""
    jobs = iter(range(count))  # one next() at a time under the GIL

    def work():
        for k in jobs:
            job(k)

    helpers = min(count, _usable_cpus(), _MAX_WORKERS) - 1 if parallel else 0
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()


def stls_regress(theta: np.ndarray, targets: np.ndarray, blocks=None):
    """Sequential thresholded least squares, one regression per target column
    on its own block of theta's columns.

    ``blocks`` holds one array of column indices per target; None gives every
    target every column. Each distinct block A of theta's columns is copied,
    and its Gram G = A'A formed, once before the jobs start. Target k's
    regression is one job on its block and its column y: it forms b = A'y
    and y'y, and two stages read them with G.
    The ridge screen, one solve of ``(G/d + RIDGE I) c = b/d``, keeps the
    columns whose coefficient clears ``THRESHOLD``; on the benchmark logs it
    drops the centred constant and up to three columns the next stage would
    keep, and a second pass would drop no more. Significance elimination
    drops the survivor with the smallest |coefficient| / standard error until
    all clear ``SIGNIFICANCE_Z``, taking 153 columns to 3-18 and the 15-45 of
    a neighbourhood block to 3-10. The last ``REFIT_RCOND``-truncated
    elimination fit, on the block's columns, is the result; nothing is
    zeroed after it.

    The bundled OpenBLAS is held to one thread for every job, then restored,
    so the coefficients do not depend on its thread count: G formed on two
    BLAS threads differs from G on one at rounding level (up to 1.4e-13 on
    one benchmark seed's logs), and the fit with it; the shared blocks and
    Grams are formed on that one thread too. A job writes only its
    own coefficient row. The calling thread and, given a second usable CPU,
    one helper thread share the jobs; a third and fourth worker would each
    add about 2 MB of peak RSS (see ``_MAX_WORKERS``). The elimination is a
    thousand-odd ``eigh`` calls on blocks of at most 153 columns: two threads
    replaying them got 0.54-0.68x the throughput of one thread under
    OpenBLAS's default two threads, and 1.80-2.02x on one BLAS thread each
    (2 vCPUs). Without that OpenBLAS the calling thread runs every job. A job
    computes the same on any thread, so the coefficients are bit for bit the
    same.

    Returns the (targets, h) coefficient matrix; a target whose columns
    were all eliminated keeps a zero row.
    """
    theta = np.asarray(theta, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[0] != theta.shape[0]:
        raise ValueError("theta and targets must have the same row count")
    d, h = theta.shape
    coef = np.zeros((targets.shape[1], h))
    # Every block is a copy, the whole library's too: A'y on a view of theta
    # sums in another order, and None would not be all-true masks bit for bit.
    blocks = [np.arange(h)] * len(coef) if blocks is None else blocks
    keys = [tuple(np.asarray(cols).tolist()) for cols in blocks]
    shared = {}  # (block, Gram) of each distinct block

    def regress(k: int) -> None:
        (block, gram), y = shared[keys[k]], targets[:, k:k + 1]
        moment = block.T @ y
        energy = np.sum(y * y, axis=0)[0]
        # Ridge in covariance form: (A'A/d + RIDGE I) keeps the penalty
        # strength independent of how many rows were logged.
        screen = np.linalg.solve(gram / d + RIDGE * np.eye(len(gram)), moment / d)
        active = np.flatnonzero(np.abs(screen[:, 0]) >= THRESHOLD)
        # Noise guard: backward-eliminate survivors indistinguishable from
        # zero given their own standard error, weakest first and one per
        # pass, so a collinear pair sheds one member and keeps their shared
        # signal in the other instead of losing both.
        while active.size:
            fit, ratios = _gram_fit(gram[np.ix_(active, active)],
                                    moment[active, 0], energy, d)
            weakest = int(np.argmin(ratios))
            if ratios[weakest] >= SIGNIFICANCE_Z:
                break
            active = np.delete(active, weakest)
        if active.size:
            coef[k, blocks[k][active]] = fit

    with _one_blas_thread() as parallel:
        for key, cols in zip(keys, blocks):
            if key not in shared:
                block = theta[:, cols]
                shared[key] = block, block.T @ block
        _run_jobs(regress, len(coef), parallel)
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


def _require_data(states, inputs, derivs, columns: int) -> None:
    """Every fit needs finite data and at least two rows per fitted column."""
    if not all(np.isfinite(a).all() for a in (states, inputs, derivs)):
        raise InsufficientDataError("states, inputs and derivatives must be finite")
    if len(states) < 2 * columns:
        raise InsufficientDataError(
            f"{len(states)} samples for {columns} library columns; need at least "
            f"{2 * columns}. Collect more or longer episodes.")


def _mask_columns(masks, n: int, nz: int) -> list[np.ndarray]:
    """Library columns of each state's sub-library: the columns whose
    monomials use only the variables its mask row marks (the constant
    always). ``masks`` is (n, nz) of bools; anything else is refused."""
    masks = np.asarray(masks)
    if masks.shape != (n, nz) or masks.dtype != bool:
        raise ValueError(f"masks must be {(n, nz)} bools, one row per state "
                         f"over the variables of z; got {masks.dtype} "
                         f"{masks.shape}")
    uses = np.array(_terms(nz)).T > 0  # (nz, h): column h uses variable v
    return [np.flatnonzero(~uses[~row].any(axis=0)) for row in masks]


def fit_derivatives(states: np.ndarray, inputs: np.ndarray, derivs: np.ndarray,
                    provenance: dict | None = None,
                    masks=None) -> "SparseModel":
    """Sparse fit of ``derivs = C theta(states, inputs)`` on the quadratic
    library, from sample triples: the regression stage of
    :func:`discover_sindyc` (central-difference derivatives) and of synthetic
    oracles (exact ones). Columns and targets are z-scored first so one
    threshold is comparable across wildly different units (occupancies sit
    near 15, rates near 1000, their squares near a million); coefficients are
    mapped back to physical units.

    One :func:`stls_regress` call fits every state, each on its block of the
    z-scored library: the whole library when ``masks`` is None, else its
    sub-library's columns, with zero coefficients outside them. ``masks`` is
    (n, n + m) bools, one row per state over the variables of z = (x, u), as
    :func:`rampnet.network.neighbourhood_masks` gives.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
    n, nz = states.shape[1], states.shape[1] + inputs.shape[1]
    blocks = None if masks is None else _mask_columns(masks, n, nz)
    _require_data(states, inputs, derivs, _width(nz))
    theta = build_library(states, inputs)
    col_mean, col_scale = _column_stats(theta)
    tgt_mean, tgt_scale = _column_stats(derivs)
    columns = (theta - col_mean) / col_scale
    targets = (derivs - tgt_mean) / tgt_scale
    scaled = stls_regress(columns, targets, blocks)
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


def _envelope(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state (min, max) of the fitted rows."""
    return states.min(axis=0), states.max(axis=0)


def discover_sindyc(episodes, provenance: dict | None = None,
                    masks=None) -> "SparseModel":
    """Identify sparse quadratic dynamics from ``(states, inputs)`` episodes.

    Differentiates per episode, then runs :func:`fit_derivatives` on
    ``masks``. The model's ``envelope`` is the per-state range of the fitted
    rows. Logs of a plant stuck at steady state yield an all-zero model; a
    state whose ``model.active_count()`` is 0 predicts no change.
    """
    derivs, xs, us = differentiate(episodes)
    info = dict(provenance or {}, method="sindyc", episodes=len(episodes))
    model = fit_derivatives(xs, us, derivs, provenance=info, masks=masks)
    model.envelope = _envelope(xs)
    return model


def discover_dmdc(episodes, provenance: dict | None = None) -> "SparseModel":
    """Linear baseline: least-squares ``xdot = A x + B u + c``, no thresholding.

    The fit is ``lstsq`` on the library's first 1 + nz columns (the constant
    and z), built without the product columns, which the returned model
    holds as zeros. When those columns are rank deficient, e.g. an input
    that never moved, the result is ``lstsq``'s minimum-norm solution, with
    a warning. The model's ``envelope`` is the per-state range of the fitted
    rows. Non-finite data or fewer than two rows per fitted column raise
    :class:`InsufficientDataError`, as in :func:`fit_derivatives`.
    """
    derivs, xs, us = differentiate(episodes)
    linear = 1 + xs.shape[1] + us.shape[1]
    _require_data(xs, us, derivs, linear)
    theta = np.hstack([np.ones((len(xs), 1)), xs, us])
    solution, _, rank, _ = np.linalg.lstsq(theta, derivs, rcond=None)
    if rank < linear:
        warnings.warn(
            f"linear fit is rank deficient ({rank}/{linear}); "
            "using the minimum-norm solution", RuntimeWarning, stacklevel=2)
    coef = np.zeros((xs.shape[1], _width(linear - 1)))
    coef[:, :linear] = solution.T
    return SparseModel(
        coefficients=coef,
        state_dim=xs.shape[1],
        input_dim=us.shape[1],
        provenance=dict(provenance or {}, method="dmdc", episodes=len(episodes),
                        samples=len(xs), columns=linear),
        envelope=_envelope(xs),
    )


# -- the model -------------------------------------------------------------------

@dataclass
class SparseModel:
    """Polynomial dynamics ``xdot = C theta(x, u)`` plus fit provenance.

    ``coefficients`` are physical units per control step, one column per
    library term, in the library's order: with nz = n + m, the constant, z
    and the nz(nz + 1)/2 products, 1 + nz + nz(nz + 1)/2 columns. A linear
    (DMDc) model is this matrix with zero products. Any other shape, and any
    coefficient that is not finite, is refused.
    Point reads use the quadratic form ``f = c + (L + Q z) z`` compiled from
    the coefficients on creation.

    ``envelope`` is ``(low, high)``, each (n,): the range of every state in
    the data the model was fitted on, which the planner trusts it within.
    None, as for a hand-built model or an older file, means unbounded.
    """

    coefficients: np.ndarray  # (n, h)
    state_dim: int
    input_dim: int
    provenance: dict = field(default_factory=dict)
    envelope: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        n, nz = self.state_dim, self.state_dim + self.input_dim
        if self.coefficients.shape != (n, _width(nz)):
            raise ValueError(f"coefficients have shape {self.coefficients.shape}; "
                             f"the library needs {(n, _width(nz))}")
        if not np.isfinite(self.coefficients).all():
            raise ValueError("coefficients must be finite")
        if self.envelope is not None:
            low, high = (np.asarray(b, dtype=float) for b in self.envelope)
            if (low.shape != (n,) or high.shape != (n,)
                    or not (np.isfinite(low).all() and np.isfinite(high).all())
                    or (low > high).any()):
                raise ValueError(f"envelope must be finite (low, high) bounds "
                                 f"of shape ({n},) with low <= high")
            self.envelope = (low, high)
        # f = offset + (L + Q z) z with Q upper triangular; df/dz = L + (Q + Q') z.
        # On a model with zero products, L + Q z is L bit for bit, so the
        # reads are c + L z and L, and ``_f`` then skips the product block.
        # L is a contiguous copy: the add in every read takes 0.4 us on it
        # against 0.9 us on a strided view. The n product blocks are kept
        # flat, (n nz, nz): row k nz + i is row i of state k's block, so Q z
        # for every state is one matrix-vector product.
        i, j = np.triu_indices(nz)
        self._offset = self.coefficients[:, 0]
        self._linear = np.ascontiguousarray(self.coefficients[:, 1:1 + nz])
        quad = np.zeros((n, nz, nz))
        quad[:, i, j] = self.coefficients[:, 1 + nz:]
        self._quad = quad.reshape(n * nz, nz)
        self._products = bool(quad.any())
        self._quad_sym = (quad + quad.transpose(0, 2, 1)).reshape(n * nz, nz)

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
        if not self._products:
            return self._offset + self._linear.dot(z)
        return self._offset + (self._linear
                               + self._quad.dot(z).reshape(self._linear.shape)).dot(z)

    def _df(self, z: np.ndarray) -> np.ndarray:
        """``df/dz`` at one stacked point, shape (n, n + m)."""
        return self._linear + self._quad_sym.dot(z).reshape(self._linear.shape)

    def _df_rows(self, zs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``df/dz`` at each row of ``zs`` (k, n + m) into ``out``
        (k, n, n + m), each equal to ``_df`` at that row bit for bit.

        numpy runs the stacked product as one matrix-vector product per row,
        as ``_df`` does; one matrix-matrix product over all rows would sum in
        another order and differ from ``_df`` at rounding level."""
        np.matmul(self._quad_sym, zs[:, :, None], out=out.reshape(len(zs), -1, 1))
        out += self._linear
        return out

    def evaluate(self, x, u) -> np.ndarray:
        """Model derivative at one (x, u) point, physical units per step."""
        return self._f(self._z(x, u))

    def evaluate_batch(self, states, inputs) -> np.ndarray:
        return build_library(states, inputs) @ self.coefficients.T

    def jacobian(self, x, u) -> tuple[np.ndarray, np.ndarray]:
        """``(df/dx, df/du)`` at one point, shapes (n, n) and (n, m)."""
        sens = self._df(self._z(x, u))
        return sens[:, :self.state_dim].copy(), sens[:, self.state_dim:].copy()

    # -- introspection -----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors over (x, u) of the coefficient columns."""
        return _terms(self.state_dim + self.input_dim)

    @property
    def n_columns(self) -> int:
        return self.coefficients.shape[1]

    def active_count(self) -> np.ndarray:
        return np.count_nonzero(self.coefficients, axis=1)

    def inside(self, x) -> bool:
        """Whether every state of ``x`` lies within the envelope (always,
        without one)."""
        if self.envelope is None:
            return True
        low, high = self.envelope
        return bool(((x >= low) & (x <= high)).all())

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
        if self.envelope is not None:
            doc["envelope"] = [bound.tolist() for bound in self.envelope]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "SparseModel":
        """Read a file written by :meth:`save`. An older linear (DMDc) file,
        with 1 + n + m coefficient columns, is widened with zero products,
        and a file without an ``envelope`` loads unbounded. A dimension that
        is not a JSON integer, or coefficients or an envelope that are not
        lists of lists of JSON numbers, is refused with ``ValueError``. Keys
        that older files carry (``library``, ``terms``, the column and target
        statistics and ``scaled_coefficients``) are ignored."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # Only what save writes: int() would read a state_dim of "1", 1.9 or
        # true as 1, and numpy a coefficient of "0" or true as a number.
        n, m = doc["state_dim"], doc["input_dim"]
        for key, value in (("state_dim", n), ("input_dim", m)):
            if not _is_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("coefficients", "envelope"):
            if key in doc and not _list_of(_list_of(_is_number))(doc[key]):
                raise ValueError(f"{key} must be lists of numbers")
        coef = np.array(doc["coefficients"], dtype=float)
        if coef.shape == (n, 1 + n + m):
            coef = np.hstack([coef, np.zeros((n, _width(n + m) - coef.shape[1]))])
        return cls(coefficients=coef, state_dim=n, input_dim=m,
                   provenance=doc.get("provenance", {}),
                   envelope=tuple(doc["envelope"]) if "envelope" in doc else None)


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
