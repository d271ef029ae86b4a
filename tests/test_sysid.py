"""Differentiation, library construction, sparse regression, model behavior."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from rampnet import sysid
from rampnet.mpc import rollout
from rampnet.sysid import (REFIT_RCOND, SIGNIFICANCE_Z, InsufficientDataError,
                           SparseModel, _column_stats,
                           _gram_fit, build_library, differentiate,
                           discover_dmdc, discover_sindyc, fit_derivatives,
                           fit_report, stls_regress, term_label)

THRESHOLD = 2e-4


# -- episodes ----------------------------------------------------------------------

def test_differentiate_names_a_mismatched_episode_and_refuses_none():
    good = (np.zeros((5, 2)), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="episode 1 has 5 state rows but 4 "
                       "input rows"):
        differentiate([good, (np.zeros((5, 2)), np.zeros((4, 1)))])
    with pytest.raises(InsufficientDataError, match="no episodes"):
        differentiate([])


def test_fits_and_scores_take_state_input_pairs():
    episodes = (_linear_recursion_log(np.array([[-0.5]]), np.array([[0.4]]),
                                      np.zeros(1), 40, seed=9)
                + _linear_recursion_log(np.array([[-0.5]]), np.array([[0.4]]),
                                        np.zeros(1), 40, seed=10))
    for discover in (discover_sindyc, discover_dmdc):
        model = discover(episodes)
        assert model.provenance["episodes"] == 2
        assert model.provenance["samples"] == 76
        assert fit_report(model, episodes).samples == 76
        with pytest.raises(InsufficientDataError, match="no episodes"):
            discover([])
        with pytest.raises(InsufficientDataError, match="no episodes"):
            fit_report(model, [])


def test_central_differences_are_exact_on_quadratics():
    t = np.arange(8.0)
    derivs, xs, us = differentiate([((t ** 2).reshape(-1, 1), np.zeros((8, 1)))])
    assert np.array_equal(derivs.ravel(), 2.0 * t[1:-1])
    assert np.array_equal(xs.ravel(), (t ** 2)[1:-1])
    assert len(us) == 6


def test_differentiation_never_crosses_episode_boundaries():
    """Two stacked episodes with a big level jump between them: a cross-episode
    difference would show up as a spurious huge derivative."""
    a = np.arange(5.0).reshape(-1, 1)
    b = (1000.0 + np.arange(5.0)).reshape(-1, 1)
    derivs, xs, _ = differentiate([(a, np.zeros((5, 1))), (b, np.zeros((5, 1)))])
    assert np.allclose(derivs, 1.0)
    assert len(xs) == 6  # both episodes lose their two endpoint rows


def test_too_short_episode_is_an_error():
    with pytest.raises(InsufficientDataError, match="at least 3"):
        differentiate([(np.zeros((2, 1)), np.zeros((2, 1)))])


# -- feature library --------------------------------------------------------------

def test_library_census_two_states_one_input():
    theta = build_library(np.zeros((1, 2)), np.zeros((1, 1)))
    labels = [term_label(t, 2) for t in sysid._terms(3)]
    assert labels == ["1", "x1", "x2", "u1",
                      "x1^2", "x1*x2", "x1*u1", "x2^2", "x2*u1", "u1^2"]
    assert theta.shape == (1, 10)


def test_library_column_values_match_their_labels():
    x = np.array([[2.0, 3.0]])
    u = np.array([[5.0]])
    theta = build_library(x, u)
    assert theta[0].tolist() == [1.0, 2.0, 3.0, 5.0,
                                 4.0, 6.0, 10.0, 9.0, 15.0, 25.0]


def test_library_is_deterministic():
    rng = np.random.default_rng(17)
    x, u = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    assert np.array_equal(build_library(x, u), build_library(x, u))
    assert build_library(x, u).shape == (4, 153)
    assert sysid._terms(16) == sysid._terms(16)


def test_library_order_one_and_no_constant():
    """There is one library layout, the constant column first: neither an
    order-1 library nor one without the constant can be asked for."""
    x, u = np.zeros((1, 3)), np.zeros((1, 2))
    assert build_library(x, u).shape == (1, 21)
    assert sysid._terms(5)[0] == (0,) * 5
    with pytest.raises(TypeError):
        build_library(x, u, include_constant=False)
    for order in (1, 2):
        with pytest.raises(TypeError):
            build_library(x, u, order=order)


def test_build_library_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row count"):
        build_library(np.zeros((3, 2)), np.zeros((4, 1)))


# -- sparse regression --------------------------------------------------------------

def test_stls_recovers_two_terms_to_machine_precision():
    """The canonical check: two active terms, noise-free data, unbiased refit."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(400, 1))
    u = rng.uniform(-1.0, 1.0, size=(400, 1))
    theta, terms = build_library(x, u), sysid._terms(2)
    labels = [term_label(t, 1) for t in terms]
    y = 0.7 * x[:, 0] - 1.2 * x[:, 0] * u[:, 0]
    coefs = stls_regress(theta, y.reshape(-1, 1))
    zero_rows = ~coefs.any(axis=1)
    expected = np.zeros(len(terms))
    expected[labels.index("x1")] = 0.7
    expected[labels.index("x1*u1")] = -1.2
    assert not zero_rows[0]
    assert np.max(np.abs(coefs[0] - expected)) < 1e-6


def test_stls_zeroes_a_target_with_no_signal():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(300, 1))
    u = rng.uniform(-1.0, 1.0, size=(300, 1))
    theta = build_library(x, u)
    targets = np.column_stack([0.5 * x[:, 0], np.zeros(300)])
    coefs = stls_regress(theta, targets)
    zero_rows = ~coefs.any(axis=1)
    assert zero_rows.tolist() == [False, True]
    assert not coefs[1].any()


def test_stls_significance_guard_prunes_pure_noise_terms():
    """With noisy targets the magnitude threshold alone keeps spurious terms;
    the standard-error check has to cut them while keeping the real ones."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, size=(500, 2))
    u = rng.uniform(-1.0, 1.0, size=(500, 1))
    theta = build_library(x, u)
    labels = [term_label(t, 2) for t in sysid._terms(3)]
    clean = 0.9 * x[:, 0] - 0.6 * x[:, 1] * u[:, 0]
    y = clean + rng.normal(0.0, 0.05, size=500)
    coefs = stls_regress(theta, y.reshape(-1, 1))
    active = {labels[i] for i in np.flatnonzero(coefs[0])}
    assert {"x1", "x2*u1"} <= active
    assert len(active) <= 4  # a handful of survivors, not half the library


# -- one job per target ---------------------------------------------------------

def _four_targets():
    """A quadratic library and four noisy targets: four jobs."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=(300, 2))
    u = rng.uniform(-1.0, 1.0, size=(300, 1))
    theta = build_library(x, u)
    targets = np.column_stack([(k + 1) * x[:, 0] - 0.5 * x[:, 1] * u[:, 0]
                               for k in range(4)])
    return theta, targets + rng.normal(0.0, 0.05, size=targets.shape)


def _blas():
    blas = sysid._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    return blas


def test_fit_holds_blas_to_one_thread_and_restores_the_count(monkeypatch):
    """Every elimination pass runs with OpenBLAS on one thread, and the
    count set before the fit (here one more than the process had) is back
    afterwards."""
    get, put = _blas()
    seen = []

    def spy(*args):
        seen.append(get())
        return _gram_fit(*args)

    monkeypatch.setattr(sysid, "_gram_fit", spy)
    before = get()
    put(before + 1)
    try:
        assert get() == before + 1
        stls_regress(*_four_targets())
        assert get() == before + 1
    finally:
        put(before)
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("where", ["calling thread", "helper thread"])
def test_a_failing_target_reaches_the_caller_and_restores_blas(where, monkeypatch):
    """One target's elimination raises, on the calling thread or on a
    helper; the exception reaches the caller, no thread is left running and
    the OpenBLAS thread count is back."""
    get, _ = _blas()
    if where == "helper thread" and sysid._usable_cpus() < 2:
        pytest.skip("one usable CPU: the fit starts no helper thread")
    failed, lock = [], threading.Lock()

    def fail_once(*args):
        time.sleep(0.005)  # so every worker takes a job
        on_main = threading.current_thread() is threading.main_thread()
        with lock:
            first = on_main == (where == "calling thread") and not failed
            if first:
                failed.append(threading.get_ident())
        if first:
            raise RuntimeError(f"one target failed on the {where}")
        return _gram_fit(*args)

    monkeypatch.setattr(sysid, "_gram_fit", fail_once)
    before, threads = get(), threading.active_count()
    with pytest.raises(RuntimeError, match=f"failed on the {where}"):
        stls_regress(*_four_targets())
    assert len(failed) == 1
    assert get() == before
    assert threading.active_count() == threads


def test_a_helper_that_cannot_start_restores_blas(monkeypatch):
    get, _ = _blas()
    if sysid._usable_cpus() < 2:
        pytest.skip("one usable CPU: the fit starts no helper thread")

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = get()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        stls_regress(*_four_targets())
    assert get() == before


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_targets_run_on_at_most_two_threads(cpus, monkeypatch):
    """Slowed jobs spread over one thread per usable CPU (the calling thread
    included) up to ``_MAX_WORKERS``, and never over more, however many CPUs
    there are; no thread outlives the fit."""
    _blas()
    monkeypatch.setattr(sysid, "_usable_cpus", lambda: cpus)
    idents, counts = set(), []

    def slow(*args):
        idents.add(threading.get_ident())
        counts.append(threading.active_count())
        time.sleep(0.005)
        return _gram_fit(*args)

    monkeypatch.setattr(sysid, "_gram_fit", slow)
    threads = threading.active_count()
    stls_regress(*_four_targets())
    assert threading.active_count() == threads
    workers = min(cpus, 2)
    assert sysid._MAX_WORKERS == 2
    assert threading.get_ident() in idents
    assert len(idents) == workers
    assert max(counts) == threads + workers - 1


def test_every_job_runs_once_on_more_threads_than_cpus(monkeypatch):
    """Stress: 8 workers and a short switch interval on 20000 jobs; a job
    taken twice or lost shows in the tally."""
    _blas()
    monkeypatch.setattr(sysid, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(sysid, "_MAX_WORKERS", 8)
    done = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with sysid._one_blas_thread() as parallel:
            sysid._run_jobs(lambda k: done.append(k), 20000, parallel)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(20000))


def test_each_target_is_its_own_regression_on_its_block():
    """Row k of a blocked regression is, byte for byte, target k regressed
    alone on its block's columns, with zeros elsewhere; ``blocks=None`` is
    the blocks of all-true masks, every target on every column."""
    theta, targets = _four_targets()
    h = theta.shape[1]
    blocks = [np.arange(h), np.array([0, 1, 3, 6]), np.array([1, 2, 5, 8, 9]),
              np.arange(0, h, 2)]
    coef = stls_regress(theta, targets, blocks)
    for k, cols in enumerate(blocks):
        alone = stls_regress(theta[:, cols], targets[:, k:k + 1])
        assert coef[k, cols].tobytes() == alone[0].tobytes()
        assert not np.delete(coef[k], cols).any()
    every = sysid._mask_columns(np.ones((4, 3), dtype=bool), 4, 3)
    assert all(np.array_equal(cols, np.arange(h)) for cols in every)
    assert (stls_regress(theta, targets).tobytes()
            == stls_regress(theta, targets, every).tobytes())


def test_gram_fit_matches_lstsq_and_pinv():
    """One eigendecomposition of A'A gives the truncated lstsq fit and the
    pinv standard errors; a near-duplicate pair puts a singular value under
    the cutoff, and an all-zero column (like the centred constant) has 0/0."""
    rng = np.random.default_rng(6)
    cols = rng.normal(size=(300, 6))
    cols[:, 0] = 0.0
    cols[:, 5] = cols[:, 4] + 1e-3 * rng.normal(size=300)
    y = cols @ np.array([0.0, 1.0, -0.5, 0.02, 0.8, 0.3])
    y += 0.1 * rng.normal(size=300)
    sv = np.linalg.svd(cols[:, 1:], compute_uv=False)
    assert sv[-1] < REFIT_RCOND * sv[0]
    fit, ratios = _gram_fit(cols.T @ cols, cols.T @ y, y @ y, len(y))
    ref = np.linalg.lstsq(cols, y, rcond=REFIT_RCOND)[0]
    assert np.max(np.abs(fit - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert not np.allclose(ref, np.linalg.lstsq(cols, y, rcond=None)[0])
    sigma2 = np.sum((y - cols @ ref) ** 2) / (len(y) - cols.shape[1])
    se = np.sqrt(sigma2 * np.diag(np.linalg.pinv(cols.T @ cols, hermitian=True)))
    assert ratios[0] == np.inf
    assert np.allclose(ratios[1:], np.abs(ref[1:]) / se[1:], rtol=1e-9, atol=0)


def test_gram_fit_floors_an_exact_fits_residual():
    """An exact fit leaves y'y - b'G+b at zero, and a zero standard error
    would make every coefficient look infinitely significant. With the
    residual floored at machine epsilon of y'y the ratios stay finite, and
    a zero coefficient reads 0, so elimination drops it."""
    fit, ratios = _gram_fit(np.eye(2), np.array([1.0, 0.0]), 1.0, 3)
    assert fit.tolist() == [1.0, 0.0]
    assert ratios.tolist() == [1.0 / np.sqrt(np.finfo(float).eps), 0.0]
    assert ratios[1] < SIGNIFICANCE_Z <= ratios[0]


def test_fit_rejects_non_finite_data():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 30.0, size=(100, 1))
    u = rng.uniform(200.0, 1800.0, size=(100, 1))
    y = 0.3 * (15.0 - x)
    for arrays in ((np.where(x > 29.0, np.nan, x), u, y),
                   (x, np.where(u > 1700.0, np.inf, u), y),
                   (x, u, np.where(x > 29.0, np.nan, y))):
        with pytest.raises(InsufficientDataError, match="finite"):
            fit_derivatives(*arrays)


def test_fit_derivatives_threshold_invariant_under_noise():
    """Every normalized coefficient is either exactly zero or clears the
    threshold, including the reconstructed intercept."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 30.0, size=(600, 2))
    u = rng.uniform(200.0, 1800.0, size=(600, 1))
    y = np.column_stack([
        0.3 * (15.0 - x[:, 0]) + 1e-3 * u[:, 0],
        -0.05 * x[:, 0] * x[:, 1] / 30.0 + 0.8,
    ]) + rng.normal(0.0, 0.2, size=(600, 2))
    model = fit_derivatives(x, u, y)
    theta = build_library(x, u)
    _, col_scale = _column_stats(theta)
    _, tgt_scale = _column_stats(y)
    # Normalized units: column spread over target spread. The constant
    # column never moves, so its scale is 1 and the intercept reads
    # intercept / target spread.
    scaled = np.abs(model.coefficients * col_scale / tgt_scale[:, None])
    assert np.all((scaled == 0.0) | (scaled >= THRESHOLD))


def test_fit_is_idempotent_on_its_own_predictions():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 30.0, size=(500, 2))
    u = rng.uniform(200.0, 1800.0, size=(500, 1))
    y = np.column_stack([
        2.0 + 0.4 * x[:, 0] - 0.002 * u[:, 0],
        0.01 * x[:, 0] * x[:, 1] - 0.5 * x[:, 1],
    ])
    first = fit_derivatives(x, u, y)
    again = fit_derivatives(x, u, first.evaluate_batch(x, u))
    assert np.array_equal(first.coefficients != 0, again.coefficients != 0)
    assert np.allclose(first.coefficients, again.coefficients,
                       rtol=1e-9, atol=1e-12)


def test_fit_is_invariant_to_state_units():
    """Rescaling the state (and its derivative) by 1000 must give the same
    model expressed in the new units; z-scoring is what buys this."""
    rng = np.random.default_rng(5)
    x = rng.uniform(5.0, 25.0, size=(500, 1))
    u = rng.uniform(200.0, 1800.0, size=(500, 1))
    y = (3.0 - 0.2 * x[:, 0] + 0.001 * u[:, 0]).reshape(-1, 1)
    scale = 1000.0
    base = fit_derivatives(x, u, y)
    scaled = fit_derivatives(x * scale, u, y * scale)
    probe_x = rng.uniform(5.0, 25.0, size=(50, 1))
    probe_u = rng.uniform(200.0, 1800.0, size=(50, 1))
    assert np.allclose(scaled.evaluate_batch(probe_x * scale, probe_u),
                       base.evaluate_batch(probe_x, probe_u) * scale,
                       rtol=1e-9)


def test_fit_requires_twice_as_many_rows_as_columns():
    x = np.zeros((100, 8))
    u = np.zeros((100, 8))
    with pytest.raises(InsufficientDataError, match="need at least 306"):
        fit_derivatives(x, u, np.zeros((100, 8)))
    # DMDc goes through the same check: 12 usable rows for 17 linear columns.
    rng = np.random.default_rng(16)
    episodes = [(rng.uniform(0.0, 30.0, size=(14, 8)),
                 rng.uniform(200.0, 1800.0, size=(14, 8)))]
    with pytest.raises(InsufficientDataError, match="12 samples for 17 library "
                       "columns; need at least 34"):
        discover_dmdc(episodes)


# -- neighbourhood masks -------------------------------------------------------------

def _block_masks():
    """States 0-1 on (x1, x2, u1, u2), states 2-3 on (x3, x4, u3, u4)."""
    low = [True, True, False, False] * 2
    high = [False, False, True, True] * 2
    return np.array([low, low, high, high])


def test_masked_fit_recovers_a_block_structured_quadratic_oracle():
    """Each state's true terms use only its block's variables; fitted on
    matching masks, every support is exact and every coefficient right to
    rounding, and no coefficient lands outside a state's sub-library."""
    rng = np.random.default_rng(31)
    masks = _block_masks()
    exponents = np.array(SparseModel(np.zeros((4, 45)), 4, 4).terms)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=(800, 4))
        u = rng.uniform(-1.0, 1.0, size=(800, 4))
        true = np.zeros((4, 45))
        for i, row in enumerate(masks):
            inside = np.flatnonzero(~exponents[:, ~row].any(axis=1))
            assert len(inside) == 1 + 4 + 10  # the sub-library over 4 variables
            cols = rng.choice(inside[1:], size=3, replace=False)
            true[i, cols] = (rng.uniform(0.1, 2.0, size=3)
                             * rng.choice([-1.0, 1.0], size=3))
        model = fit_derivatives(x, u, build_library(x, u) @ true.T, masks=masks)
        assert np.array_equal(model.coefficients != 0.0, true != 0.0)
        assert np.max(np.abs(model.coefficients - true)) < 1e-9
    # Swapped masks hold each state to the other block: whatever it fits,
    # nothing lands outside the sub-library its mask allows.
    swapped = fit_derivatives(x, u, build_library(x, u) @ true.T,
                              masks=masks[::-1])
    for row, coef in zip(masks[::-1], swapped.coefficients):
        assert not coef[exponents[:, ~row].any(axis=1)].any()


def test_masks_must_be_one_bool_row_per_state():
    rng = np.random.default_rng(32)
    x = rng.uniform(-1.0, 1.0, size=(800, 4))
    u = rng.uniform(-1.0, 1.0, size=(800, 4))
    for bad in (_block_masks()[:3], _block_masks()[:, :7],
                _block_masks().astype(int)):
        with pytest.raises(ValueError, match="masks must be"):
            fit_derivatives(x, u, x, masks=bad)


# -- discovery on logs ---------------------------------------------------------------

def _linear_recursion_log(A, B, c, rows, seed):
    """One episode whose central difference at row k is exactly
    Ax_k+Bu_k+c."""
    rng = np.random.default_rng(seed)
    n, m = A.shape[0], B.shape[1]
    u = rng.uniform(-1.0, 1.0, size=(rows, m))
    x = np.empty((rows, n))
    x[0] = rng.uniform(-1.0, 1.0, size=n)
    x[1] = rng.uniform(-1.0, 1.0, size=n)
    for k in range(1, rows - 1):
        x[k + 1] = x[k - 1] + 2.0 * (A @ x[k] + B @ u[k] + c)
    return [(x, u)]


def test_dmdc_recovers_a_linear_system_exactly():
    A = np.array([[-0.4, 0.1], [0.0, -0.3]])
    B = np.array([[0.5], [-0.2]])
    c = np.array([0.05, -0.02])
    model = discover_dmdc(_linear_recursion_log(A, B, c, 60, seed=6))
    labels = [term_label(t, 2) for t in model.terms]
    assert labels[:4] == ["1", "x1", "x2", "u1"]
    assert model.n_columns == 10 and not model.coefficients[:, 4:].any()
    recovered_A = model.coefficients[:, 1:3]
    recovered_B = model.coefficients[:, 3:4]
    assert np.allclose(recovered_A, A, atol=1e-8)
    assert np.allclose(recovered_B, B, atol=1e-8)
    assert np.allclose(model.coefficients[:, 0], c, atol=1e-8)


def test_dmdc_warns_when_an_input_never_moves():
    log = _linear_recursion_log(np.array([[-0.5]]), np.array([[0.0]]),
                                np.zeros(1), 40, seed=7)
    (x, u), = log
    frozen = [(x, np.full_like(u, 1000.0))]
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        model = discover_dmdc(frozen)
    assert np.all(np.isfinite(model.coefficients))
    # The result is lstsq's minimum-norm solution on the constant and z
    # columns, not a re-solve, and the product columns are zero.
    derivs, xs, us = differentiate(frozen)
    theta = build_library(xs, us)
    solution = np.linalg.lstsq(theta[:, :3], derivs, rcond=None)[0]
    assert np.array_equal(model.coefficients[:, :3], solution.T)
    assert model.n_columns == 6 and not model.coefficients[:, 3:].any()


def test_sindyc_on_a_quadratic_system_beats_the_linear_fit():
    """Many short episodes keep the centered recursion from drifting while
    still sampling enough curvature to make x1^2 identifiable."""
    rng = np.random.default_rng(8)
    dt, ep_rows, episodes = 0.05, 20, 20
    log = []
    for _ in range(episodes):
        u = rng.uniform(-1.0, 1.0, size=(ep_rows, 1))
        x = np.empty((ep_rows, 1))
        x[0] = rng.uniform(0.0, 1.0)
        x[1] = x[0] + rng.uniform(-0.02, 0.02)
        for k in range(1, ep_rows - 1):
            x[k + 1] = x[k - 1] + 2.0 * dt * (-0.4 * x[k] + 0.3 * x[k] ** 2
                                              + 0.2 * u[k])
        log.append((x, u))
    quad = discover_sindyc(log)
    linear = discover_dmdc(log)
    assert fit_report(quad, log).mean_r2 > fit_report(linear, log).mean_r2
    active = {term_label(t, 1) for t, c
              in zip(quad.terms, quad.coefficients[0]) if c != 0.0}
    assert "x1^2" in active


def test_steady_state_log_yields_the_zero_model():
    log = [(np.full((50, 2), 15.0), np.full((50, 1), 900.0))]
    model = discover_sindyc(log)
    assert model.active_count().tolist() == [0, 0]
    assert not model.coefficients.any()
    # The zero model predicts the all-zero derivatives perfectly.
    assert fit_report(model, log).mean_r2 == 1.0


def test_discovery_records_the_envelope_of_the_rows_it_fitted():
    """Both fits keep each state's range over the rows they regressed on:
    central differences drop every episode's first and last row."""
    log = (_linear_recursion_log(np.array([[-0.4, 0.1], [0.0, -0.3]]),
                                 np.array([[0.5], [-0.2]]), np.zeros(2), 30, seed=3)
           + _linear_recursion_log(np.array([[-0.4, 0.1], [0.0, -0.3]]),
                                   np.array([[0.5], [-0.2]]), np.zeros(2), 30,
                                   seed=4))
    rows = np.vstack([x[1:-1] for x, _ in log])
    for discover in (discover_sindyc, discover_dmdc):
        low, high = discover(log).envelope
        assert np.array_equal(low, rows.min(axis=0))
        assert np.array_equal(high, rows.max(axis=0))
    model = _hand_model()
    assert model.envelope is None and model.inside(np.array([1e9]))


def test_discovery_provenance_records_the_fit_recipe():
    log = _linear_recursion_log(np.array([[-0.5]]), np.array([[0.4]]),
                                np.zeros(1), 40, seed=9)
    model = discover_sindyc(log, provenance={"campaign": "unit"})
    assert model.provenance["campaign"] == "unit"
    assert model.provenance["method"] == "sindyc"
    assert model.provenance["samples"] == 38
    assert set(model.provenance) == {"campaign", "method", "episodes",
                                     "samples", "columns"}


# -- the model object -----------------------------------------------------------------

def _hand_model():
    """Exact fit of xdot = 2 x + 3 u so evaluations are hand checkable."""
    rng = np.random.default_rng(10)
    x = rng.uniform(-2.0, 2.0, size=(300, 1))
    u = rng.uniform(-2.0, 2.0, size=(300, 1))
    y = (2.0 * x[:, 0] + 3.0 * u[:, 0]).reshape(-1, 1)
    return fit_derivatives(x, u, y)


def test_evaluate_and_step_hand_values():
    """The planner's Euler step is x + f(x, u), one control step per row."""
    model = _hand_model()
    assert model.evaluate([2.0], [1.0])[0] == pytest.approx(7.0, abs=1e-9)
    assert rollout(model, [2.0], [[1.0]])[1, 0] == \
        pytest.approx(7.0 + 2.0, abs=1e-9)


def _dense_model(linear=False, n=3, m=2, seed=13):
    """Every column of the library active with a random coefficient, so
    squares and cross terms of states and inputs all enter f; with
    ``linear``, only the constant and z columns, the products zero, as in a
    DMDc fit."""
    coef = np.random.default_rng(seed).normal(size=(n, len(sysid._terms(n + m))))
    if linear:
        coef[:, 1 + n + m:] = 0.0
    return SparseModel(coefficients=coef, state_dim=n, input_dim=m)


KINDS = pytest.mark.parametrize("linear", [False, True], ids=("quadratic", "linear"))


def test_jacobian_matches_finite_differences():
    model = _hand_model()
    eps = 1e-6
    jx, ju = model.jacobian([1.5], [0.5])
    fx = (model.evaluate([1.5 + eps], [0.5])
          - model.evaluate([1.5 - eps], [0.5])) / (2 * eps)
    fu = (model.evaluate([1.5], [0.5 + eps])
          - model.evaluate([1.5], [0.5 - eps])) / (2 * eps)
    assert np.allclose(jx[0], fx, atol=1e-6)
    assert np.allclose(ju[0], fu, atol=1e-6)


@KINDS
def test_jacobian_of_a_dense_model_matches_finite_differences(linear):
    """Central differences are exact on a quadratic up to rounding, so the
    squares' doubled diagonal and both halves of each cross term must show."""
    model = _dense_model(linear)
    rng = np.random.default_rng(14)
    eps = 1e-5
    for _ in range(5):
        z = rng.uniform(-2.0, 2.0, size=5)
        jac = np.hstack(model.jacobian(z[:3], z[3:]))
        fd = np.empty_like(jac)
        for v in range(5):
            step = eps * np.eye(5)[v]
            fd[:, v] = (model.evaluate((z + step)[:3], (z + step)[3:])
                        - model.evaluate((z - step)[:3], (z - step)[3:])) / (2 * eps)
        assert np.allclose(jac, fd, rtol=1e-7, atol=1e-7)


@KINDS
def test_point_reads_match_the_library_matrix(linear):
    model = _dense_model(linear)
    rng = np.random.default_rng(15)
    states = rng.uniform(0.0, 40.0, size=(50, 3))
    inputs = rng.uniform(200.0, 1800.0, size=(50, 2))
    batch = model.evaluate_batch(states, inputs)
    for x, u, row in zip(states, inputs, batch):
        assert np.max(np.abs(model.evaluate(x, u) - row)) <= 1e-12 * np.max(np.abs(row))


@KINDS
def test_terms_and_batch_read_follow_from_the_library(linear):
    """Three states and two inputs: a quadratic and a linear model alike
    have the library's 21 columns, and their terms and batch read are the
    library's."""
    model = _dense_model(linear)
    assert model.n_columns == 21
    rng = np.random.default_rng(16)
    states, inputs = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    assert model.terms == sysid._terms(5)
    assert max(map(sum, model.terms)) == 2
    assert np.array_equal(model.evaluate_batch(states, inputs),
                          build_library(states, inputs) @ model.coefficients.T)


def test_an_older_linear_model_file_loads_widened(tmp_path):
    """A file with the 1 + n + m columns of an older DMDc fit loads with
    zero products, and its point reads are c + L z and L bit for bit."""
    rng = np.random.default_rng(18)
    coef = rng.normal(size=(3, 6))
    path = tmp_path / "dmdc.json"
    path.write_text(json.dumps({"state_dim": 3, "input_dim": 2,
                                "coefficients": coef.tolist(),
                                "provenance": {"method": "dmdc", "columns": 6}}))
    model = SparseModel.load(path)
    assert model.n_columns == 21
    assert np.array_equal(model.coefficients[:, :6], coef)
    assert not model.coefficients[:, 6:].any()
    c, linear = coef[:, 0], np.ascontiguousarray(coef[:, 1:])
    for _ in range(5):
        z = rng.uniform(-2.0, 40.0, size=5)
        assert np.array_equal(model._f(z), c + linear @ z)
        assert np.array_equal(model._df(z), linear)
        assert np.array_equal(np.hstack(model.jacobian(z[:3], z[3:])), linear)
    # The width is widened at the file boundary only: the constructor and a
    # file short of the state rows still refuse it.
    with pytest.raises(ValueError, match="library needs"):
        SparseModel(coefficients=coef, state_dim=3, input_dim=2)
    path.write_text(json.dumps({"state_dim": 3, "input_dim": 2,
                                "coefficients": coef[:2].tolist()}))
    with pytest.raises(ValueError, match="library needs"):
        SparseModel.load(path)


def test_an_envelope_survives_a_save_load_round_trip(tmp_path):
    """A saved envelope loads with the same bounds, a file without one loads
    unbounded, and bounds that are not one finite (low, high) pair per state
    are refused."""
    model = _hand_model()
    bounded = SparseModel(model.coefficients, 1, 1, envelope=([-0.5], [1.5]))
    path = tmp_path / "model.json"
    bounded.save(path)
    back = SparseModel.load(path)
    assert [b.tolist() for b in back.envelope] == [[-0.5], [1.5]]
    assert back.inside(np.array([1.5])) and not back.inside(np.array([1.6]))
    assert not back.inside(np.array([-0.6]))
    doc = json.loads(path.read_text())
    del doc["envelope"]
    path.write_text(json.dumps(doc))
    assert SparseModel.load(path).envelope is None
    for bad in (([1.0], [0.0]), ([0.0, 1.0], [2.0, 3.0]), ([np.nan], [1.0])):
        with pytest.raises(ValueError, match="envelope must be"):
            SparseModel(model.coefficients, 1, 1, envelope=bad)


def test_model_file_values_of_the_wrong_type_do_not_load(tmp_path):
    """A dimension must be a JSON integer and a coefficient or envelope bound
    a JSON number, never a bool or a string: a state_dim of "1", 1.9 or
    true, or a coefficient of "0" or true, is refused, not read as 1 or 0."""
    model = _hand_model()
    path = tmp_path / "model.json"
    SparseModel(model.coefficients, 1, 1, envelope=([-0.5], [1.5])).save(path)
    doc = json.loads(path.read_text())
    assert SparseModel.load(path).state_dim == 1

    def coefficient(value):
        return [[value] + doc["coefficients"][0][1:]]
    for key, value in (("state_dim", "1"), ("state_dim", 1.9), ("state_dim", True),
                       ("input_dim", True), ("coefficients", coefficient("0")),
                       ("coefficients", coefficient(True)),
                       ("envelope", [["-0.5"], [1.5]]),
                       ("envelope", [[False], [1.5]])):
        path.write_text(json.dumps(dict(doc, **{key: value})))
        with pytest.raises(ValueError, match=f"{key} must be"):
            SparseModel.load(path)


def test_model_rejects_terms_that_are_not_the_library_layout():
    """The columns are the library's terms, so the coefficient shape is the
    one layout check: a column short (the library without the constant), one
    too many, the constant and z alone (an older linear layout, widened only
    by ``load``), or a state row missing."""
    model = _dense_model()
    fields = {k: getattr(model, k) for k in ("state_dim", "input_dim")}
    coef = model.coefficients
    for wrong in (coef[:, :-1], np.hstack([coef, coef[:, :1]]), coef[:, :5],
                  coef[:, :6], coef[:, :7], coef[:2]):
        with pytest.raises(ValueError, match="library needs"):
            SparseModel(coefficients=wrong, **fields)


def test_model_rejects_coefficients_that_are_not_finite(tmp_path):
    """A NaN or infinite coefficient is refused on creation, and so when a
    model file carrying one is loaded: a planner on such a model could only
    fall back at every step."""
    model = _dense_model()
    fields = {k: getattr(model, k) for k in ("state_dim", "input_dim")}
    for bad in (np.nan, np.inf, -np.inf):
        coef = model.coefficients.copy()
        coef[1, 4] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SparseModel(coefficients=coef, **fields)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["coefficients"][0][0] = float("nan")
    path.write_text(json.dumps(doc))  # written as NaN, which json reads back
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SparseModel.load(path)


def test_model_rejects_wrong_input_sizes():
    model = _hand_model()
    with pytest.raises(ValueError, match="expected"):
        model.evaluate([1.0, 2.0], [1.0])


def test_model_json_round_trip(tmp_path):
    model = _hand_model()
    path = tmp_path / "model.json"
    model.save(path)
    back = SparseModel.load(path)
    assert back.terms == model.terms
    assert np.array_equal(back.coefficients, model.coefficients)
    assert back.provenance == model.provenance
    probe = (np.array([0.7]), np.array([-0.3]))
    assert np.array_equal(back.evaluate(*probe), model.evaluate(*probe))
    # A zero_rows key, which older files derived from the coefficients, is
    # ignored.
    doc = json.loads(path.read_text())
    assert set(doc) == {"state_dim", "input_dim", "coefficients", "provenance"}
    path.write_text(json.dumps(dict(doc, zero_rows=[True])))
    assert np.array_equal(SparseModel.load(path).coefficients, model.coefficients)


def test_model_file_holds_exactly_what_load_reads(tmp_path, monkeypatch):
    """``save`` writes no key that ``load`` ignores and ``load`` reads no key
    that ``save`` leaves out."""
    path = tmp_path / "model.json"
    _hand_model().save(path)
    written = json.loads(path.read_text())

    class Recorder(dict):
        def __init__(self, pairs):
            super().__init__(pairs)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    docs = []

    def recording_load(fh):
        docs.append(json.loads(fh.read(), object_hook=Recorder))
        return docs[-1]

    monkeypatch.setattr(json, "load", recording_load)
    SparseModel.load(path)
    (doc,) = docs
    assert doc.read == set(written)


def test_model_files_with_the_older_layout_keys(tmp_path):
    """Files that still carry ``library`` (of either order), ``terms``,
    ``include_constant: true``, the column and target statistics and
    ``scaled_coefficients`` load to the same model; ``load`` ignores those
    keys, even when their shapes are wrong."""
    model = _hand_model()
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    h = model.n_columns
    older = [
        {"library": {"polynomial_order": 2}},
        {"library": {"polynomial_order": 1}},
        {"terms": [list(t) for t in model.terms],
         "library": {"polynomial_order": 2, "include_constant": True},
         "column_means": [0.0], "column_scales": [1.0] * h,
         "target_means": [0.0, 0.0], "target_scales": [1.0],
         "scaled_coefficients": [[0.0] * 3] * 8},
    ]
    probe = (np.array([0.7]), np.array([-0.3]))
    for keys in older:
        path.write_text(json.dumps(dict(doc, **keys)))
        back = SparseModel.load(path)
        assert np.array_equal(back.coefficients, model.coefficients)
        assert back.terms == model.terms
        assert np.array_equal(back.evaluate(*probe), model.evaluate(*probe))
        assert all(np.array_equal(a, b) for a, b in zip(back.jacobian(*probe),
                                                         model.jacobian(*probe)))


def test_model_file_without_the_constant_column_does_not_load(tmp_path):
    """The benchmark's 8 states and 8 inputs without the constant column:
    152 coefficient columns against the library's 153."""
    path = tmp_path / "model.json"
    _dense_model(n=8, m=8).save(path)
    doc = json.loads(path.read_text())
    short = dict(doc, coefficients=[row[1:] for row in doc["coefficients"]],
                 library={"polynomial_order": 2, "include_constant": False})
    assert len(short["coefficients"][0]) == 152
    path.write_text(json.dumps(short))
    with pytest.raises(ValueError, match="library needs"):
        SparseModel.load(path)


def test_active_terms_lists_labels_and_physical_coefficients():
    model = _hand_model()
    pairs = dict(model.active_terms(0))
    assert set(pairs) == {"x1", "u1"}
    assert pairs["x1"] == pytest.approx(2.0, abs=1e-9)


def test_fit_report_counts_and_summary():
    model = _hand_model()
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, size=(40, 1))
    u = rng.uniform(-1.0, 1.0, size=(40, 1))
    report = fit_report(model, [(x[:20], u[:20]), (x[20:], u[20:])])
    assert report.samples == 36  # two episodes each lose their endpoints
    assert report.rmse.shape == (1,)
    assert report.r2[0] <= 1.0
    assert "mean R2" in report.summary()
