"""Differentiation, library construction, sparse regression, model behavior."""

import numpy as np
import pytest

from rampnet.sysid import (FeatureLibrarySpec, InsufficientDataError,
                           SparseModel, TrajectoryLog, build_library,
                           differentiate, discover_dmdc, discover_sindyc,
                           fit_derivatives, fit_report, stls_regress,
                           term_label)

THRESHOLD = 2e-4


# -- trajectory logs ------------------------------------------------------------

def test_log_validates_shapes_and_starts():
    with pytest.raises(ValueError, match="row count"):
        TrajectoryLog(states=np.zeros((5, 2)), inputs=np.zeros((4, 1)))
    with pytest.raises(ValueError, match="dt"):
        TrajectoryLog(states=np.zeros((5, 2)), inputs=np.zeros((5, 1)), dt=0.0)
    with pytest.raises(ValueError, match="episode_starts"):
        TrajectoryLog(states=np.zeros((5, 2)), inputs=np.zeros((5, 1)),
                      episode_starts=(1,))
    with pytest.raises(ValueError, match="beyond the end"):
        TrajectoryLog(states=np.zeros((5, 2)), inputs=np.zeros((5, 1)),
                      episode_starts=(0, 7))


def test_central_differences_are_exact_on_quadratics():
    t = np.arange(8.0)
    log = TrajectoryLog(states=(t ** 2).reshape(-1, 1),
                        inputs=np.zeros((8, 1)))
    derivs, xs, us = differentiate(log)
    assert np.array_equal(derivs.ravel(), 2.0 * t[1:-1])
    assert np.array_equal(xs.ravel(), (t ** 2)[1:-1])
    assert len(us) == 6


def test_differentiation_never_crosses_episode_boundaries():
    """Two stacked episodes with a big level jump between them: a cross-episode
    difference would show up as a spurious huge derivative."""
    a = np.arange(5.0).reshape(-1, 1)
    b = (1000.0 + np.arange(5.0)).reshape(-1, 1)
    log = TrajectoryLog(states=np.vstack([a, b]), inputs=np.zeros((10, 1)),
                        episode_starts=(0, 5))
    derivs, xs, _ = differentiate(log)
    assert np.allclose(derivs, 1.0)
    assert len(xs) == 6  # both episodes lose their two endpoint rows


def test_differentiate_respects_dt():
    t = np.arange(6.0)
    log = TrajectoryLog(states=(3.0 * t).reshape(-1, 1),
                        inputs=np.zeros((6, 1)), dt=0.5)
    derivs, _, _ = differentiate(log)
    assert np.allclose(derivs, 6.0)


def test_too_short_episode_is_an_error():
    log = TrajectoryLog(states=np.zeros((2, 1)), inputs=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="at least 3"):
        differentiate(log)


def test_smoothing_drops_edges_and_keeps_linear_trends():
    t = np.arange(10.0)
    log = TrajectoryLog(states=(4.0 * t).reshape(-1, 1),
                        inputs=t.reshape(-1, 1))
    derivs, xs, us = differentiate(log, smooth_window=3)
    assert len(xs) == 6  # 10 rows - 2 smoothing edges - 2 difference endpoints
    assert np.allclose(derivs, 4.0)
    assert np.array_equal(us.ravel(), t[2:8])


def test_smoothing_window_must_be_odd_and_positive():
    log = TrajectoryLog(states=np.zeros((10, 1)), inputs=np.zeros((10, 1)))
    for bad in (0, 2, -3):
        with pytest.raises(ValueError, match="odd"):
            differentiate(log, smooth_window=bad)


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
    spec = FeatureLibrarySpec()
    assert spec.terms(8, 8) == spec.terms(8, 8)
    assert spec.width(8, 8) == 153


def test_library_order_one_and_no_constant():
    spec = FeatureLibrarySpec(polynomial_order=1)
    assert spec.width(3, 2) == 6
    bare = FeatureLibrarySpec(polynomial_order=2, include_constant=False)
    assert bare.width(2, 1) == 9
    with pytest.raises(ValueError):
        FeatureLibrarySpec(polynomial_order=0)


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
    coefs, zero_rows = stls_regress(theta, y.reshape(-1, 1))
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
    coefs, zero_rows = stls_regress(theta, targets)
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
    coefs, _ = stls_regress(theta, y.reshape(-1, 1))
    active = {labels[i] for i in np.flatnonzero(coefs[0])}
    assert {"x1", "x2*u1"} <= active
    assert len(active) <= 4  # a handful of survivors, not half the library


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
    scaled = np.abs(model.scaled_coefficients)
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


# -- discovery on logs ---------------------------------------------------------------

def _linear_recursion_log(A, B, c, rows, seed):
    """States built so the central difference at row k is exactly Ax_k+Bu_k+c."""
    rng = np.random.default_rng(seed)
    n, m = A.shape[0], B.shape[1]
    u = rng.uniform(-1.0, 1.0, size=(rows, m))
    x = np.empty((rows, n))
    x[0] = rng.uniform(-1.0, 1.0, size=n)
    x[1] = rng.uniform(-1.0, 1.0, size=n)
    for k in range(1, rows - 1):
        x[k + 1] = x[k - 1] + 2.0 * (A @ x[k] + B @ u[k] + c)
    return TrajectoryLog(states=x, inputs=u)


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
    frozen = TrajectoryLog(states=log.states,
                           inputs=np.full_like(log.inputs, 1000.0))
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        model = discover_dmdc(frozen)
    assert np.all(np.isfinite(model.coefficients))


def test_sindyc_on_a_quadratic_system_beats_the_linear_fit():
    """Many short episodes keep the centered recursion from drifting while
    still sampling enough curvature to make x1^2 identifiable."""
    rng = np.random.default_rng(8)
    dt, ep_rows, episodes = 0.05, 20, 20
    states, inputs, starts = [], [], []
    for _ in range(episodes):
        u = rng.uniform(-1.0, 1.0, size=(ep_rows, 1))
        x = np.empty((ep_rows, 1))
        x[0] = rng.uniform(0.0, 1.0)
        x[1] = x[0] + rng.uniform(-0.02, 0.02)
        for k in range(1, ep_rows - 1):
            x[k + 1] = x[k - 1] + 2.0 * dt * (-0.4 * x[k] + 0.3 * x[k] ** 2
                                              + 0.2 * u[k])
        starts.append(len(states) * ep_rows)
        states.append(x)
        inputs.append(u)
    log = TrajectoryLog(states=np.vstack(states), inputs=np.vstack(inputs),
                        dt=dt, episode_starts=tuple(starts))
    quad = discover_sindyc(log)
    linear = discover_dmdc(log)
    assert fit_report(quad, log).mean_r2 > fit_report(linear, log).mean_r2
    active = {term_label(t, 1) for t, c
              in zip(quad.terms, quad.coefficients[0]) if c != 0.0}
    assert "x1^2" in active


def test_steady_state_log_yields_the_zero_model():
    log = TrajectoryLog(states=np.full((50, 2), 15.0),
                        inputs=np.full((50, 1), 900.0))
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
    assert model.provenance["threshold"] == THRESHOLD


# -- the model object -----------------------------------------------------------------

def _hand_model():
    """Exact fit of xdot = 2 x + 3 u so evaluations are hand checkable."""
    rng = np.random.default_rng(10)
    x = rng.uniform(-2.0, 2.0, size=(300, 1))
    u = rng.uniform(-2.0, 2.0, size=(300, 1))
    y = (2.0 * x[:, 0] + 3.0 * u[:, 0]).reshape(-1, 1)
    return fit_derivatives(x, u, y)


def test_evaluate_and_step_hand_values():
    model = _hand_model()
    assert model.evaluate([2.0], [1.0])[0] == pytest.approx(7.0, abs=1e-9)
    assert model.step([2.0], [1.0], h=0.5)[0] == \
        pytest.approx(3.5 + 2.0, abs=1e-9)


def test_euler_steps_do_not_compose():
    """One full Euler step differs from two half steps on curved dynamics;
    h is a unit choice, not a refinement knob."""
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 3.0, size=(300, 1))
    u = rng.uniform(-1.0, 1.0, size=(300, 1))
    model = fit_derivatives(x, u, (x[:, 0] ** 2).reshape(-1, 1))
    full = model.step([2.0], [0.0], h=1.0)
    halves = model.step(model.step([2.0], [0.0], h=0.5), [0.0], h=0.5)
    assert abs(full[0] - halves[0]) > 1.0


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
    assert np.array_equal(back.scaled_coefficients, model.scaled_coefficients)
    assert np.array_equal(back.column_means, model.column_means)
    assert back.zero_rows == model.zero_rows
    assert back.provenance == model.provenance
    probe = (np.array([0.7]), np.array([-0.3]))
    assert np.array_equal(back.evaluate(*probe), model.evaluate(*probe))


def test_active_terms_lists_labels_and_physical_coefficients():
    model = _hand_model()
    pairs = dict(model.active_terms(0))
    assert set(pairs) == {"x1", "u1"}
    assert pairs["x1"] == pytest.approx(2.0, abs=1e-9)


def test_fit_report_counts_and_summary():
    model = _hand_model()
    rng = np.random.default_rng(12)
    log = TrajectoryLog(states=rng.uniform(-1.0, 1.0, size=(40, 1)),
                        inputs=rng.uniform(-1.0, 1.0, size=(40, 1)),
                        episode_starts=(0, 20))
    report = fit_report(model, log)
    assert report.samples == 36  # two episodes each lose their endpoints
    assert report.rmse.shape == (1,)
    assert report.r2[0] <= 1.0
    assert "mean R2" in report.summary()
