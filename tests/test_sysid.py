"""Differentiation, library construction, sparse regression, model behavior."""

import json

import numpy as np
import pytest

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
    theta, terms = build_library(np.zeros((1, 2)), np.zeros((1, 1)))
    labels = [term_label(t, 2) for t in terms]
    assert labels == ["1", "x1", "x2", "u1",
                      "x1^2", "x1*x2", "x1*u1", "x2^2", "x2*u1", "u1^2"]
    assert theta.shape == (1, 10)


def test_library_column_values_match_their_labels():
    x = np.array([[2.0, 3.0]])
    u = np.array([[5.0]])
    theta, _ = build_library(x, u)
    assert theta[0].tolist() == [1.0, 2.0, 3.0, 5.0,
                                 4.0, 6.0, 10.0, 9.0, 15.0, 25.0]


def test_library_is_deterministic():
    x, u = np.zeros((1, 8)), np.zeros((1, 8))
    assert build_library(x, u)[1] == build_library(x, u)[1]
    assert build_library(x, u)[0].shape == (1, 153)


def test_library_order_one_and_no_constant():
    x, u = np.zeros((1, 3)), np.zeros((1, 2))
    theta, terms = build_library(x, u, order=1)
    assert theta.shape == (1, 6) and len(terms) == 6
    # Every library starts with the constant column; there is no other layout.
    assert terms[0] == (0,) * 5
    with pytest.raises(TypeError):
        build_library(x, u, include_constant=False)
    for order in (0, 3):
        with pytest.raises(ValueError, match="1 or 2"):
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
    theta, terms = build_library(x, u)
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
    theta, _ = build_library(x, u)
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
    theta, terms = build_library(x, u)
    labels = [term_label(t, 2) for t in terms]
    clean = 0.9 * x[:, 0] - 0.6 * x[:, 1] * u[:, 0]
    y = clean + rng.normal(0.0, 0.05, size=500)
    coefs = stls_regress(theta, y.reshape(-1, 1))
    active = {labels[i] for i in np.flatnonzero(coefs[0])}
    assert {"x1", "x2*u1"} <= active
    assert len(active) <= 4  # a handful of survivors, not half the library


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
    theta, _ = build_library(x, u)
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
    assert labels == ["1", "x1", "x2", "u1"]
    recovered_A = model.coefficients[:, 1:3]
    recovered_B = model.coefficients[:, 3:]
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
    # The result is lstsq's minimum-norm solution, not a re-solve.
    derivs, xs, us = differentiate(frozen)
    theta, _ = build_library(xs, us, order=1)
    solution = np.linalg.lstsq(theta, derivs, rcond=None)[0]
    assert np.array_equal(model.coefficients, solution.T)


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
    assert model.zero_rows == (True, True)
    assert not model.coefficients.any()
    # The zero model predicts the all-zero derivatives perfectly.
    assert fit_report(model, log).mean_r2 == 1.0


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


def _dense_model(order, n=3, m=2, seed=13):
    """Every column of the library of ``order`` active with a random
    coefficient, so squares and cross terms of states and inputs all enter f."""
    _, terms = build_library(np.zeros((1, n)), np.zeros((1, m)), order)
    coef = np.random.default_rng(seed).normal(size=(n, len(terms)))
    return SparseModel(coefficients=coef, state_dim=n, input_dim=m)


ORDERS = pytest.mark.parametrize("order", [2, 1], ids=("quadratic", "linear"))


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


@ORDERS
def test_jacobian_of_a_dense_model_matches_finite_differences(order):
    """Central differences are exact on a quadratic up to rounding, so the
    squares' doubled diagonal and both halves of each cross term must show."""
    model = _dense_model(order)
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


@ORDERS
def test_point_reads_match_the_library_matrix(order):
    model = _dense_model(order)
    rng = np.random.default_rng(15)
    states = rng.uniform(0.0, 40.0, size=(50, 3))
    inputs = rng.uniform(200.0, 1800.0, size=(50, 2))
    batch = model.evaluate_batch(states, inputs)
    for x, u, row in zip(states, inputs, batch):
        assert np.max(np.abs(model.evaluate(x, u) - row)) <= 1e-12 * np.max(np.abs(row))


@ORDERS
def test_model_order_follows_from_the_coefficient_width(order):
    """Three states and two inputs: 6 columns are the linear library and 21
    the quadratic one; the terms and the batch read follow from the width."""
    model = _dense_model(order)
    assert model.n_columns == {1: 6, 2: 21}[order]
    rng = np.random.default_rng(16)
    states, inputs = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    theta, terms = build_library(states, inputs, order)
    assert model.terms == terms
    assert max(map(sum, model.terms)) == order
    assert np.array_equal(model.evaluate_batch(states, inputs),
                          theta @ model.coefficients.T)


def test_model_rejects_terms_that_are_not_the_library_layout():
    """The columns are the library's terms, so the coefficient shape is the
    one layout check: a column short of either library (without the
    constant), one too many, a width between the two, or a state row
    missing."""
    model = _dense_model(2)
    fields = {k: getattr(model, k) for k in ("state_dim", "input_dim")}
    coef = model.coefficients
    for wrong in (coef[:, :-1], np.hstack([coef, coef[:, :1]]), coef[:, :5],
                  coef[:, :7], coef[:2]):
        with pytest.raises(ValueError, match="library needs"):
            SparseModel(coefficients=wrong, **fields)


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
    assert back.zero_rows == model.zero_rows
    assert back.provenance == model.provenance
    probe = (np.array([0.7]), np.array([-0.3]))
    assert np.array_equal(back.evaluate(*probe), model.evaluate(*probe))
    # zero_rows is derived from the coefficients: not written, and ignored
    # in files that still carry it.
    doc = json.loads(path.read_text())
    assert set(doc) == {"state_dim", "input_dim", "coefficients", "provenance"}
    path.write_text(json.dumps(dict(doc, zero_rows=[True])))
    assert SparseModel.load(path).zero_rows == (False,)


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
    _dense_model(2, n=8, m=8).save(path)
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
