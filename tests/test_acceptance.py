"""Release acceptance suite.

Ten checks that gate a release, one test per criterion. The expensive ones
share a session fixture that runs the full pipeline exactly the way the CLI
does: collect excitation logs, fit both models from the CSV artifacts, score
them on held-out episodes, then run the five-scenario comparison. Each test
prints a PASS line with its measured numbers so a verbose run doubles as a
release report.
"""

import hashlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

from rampnet import harness, mpc, sysid
from rampnet.feedback import (GREEN_DURATION_S, RATE_MAX_VPH, RATE_MIN_VPH,
                              green_percentage, rate_to_red_duration)
from rampnet.mpc import MpcConfig, objective, rollout, solve
from rampnet.network import benchmark_config_path, load_config
from rampnet.sysid import (build_library, discover_sindyc, fit_derivatives,
                           fit_report, term_label)

TRAIN_SEEDS = (1, 2, 3, 4)
HOLDOUT_SEEDS = (11, 12, 13)
EVAL_SEEDS = (21, 22, 23)


def _pass(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS - {message}")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One full artifact-path pipeline run, timed stage by stage."""
    root = tmp_path_factory.mktemp("pipeline")
    config = load_config(benchmark_config_path())
    t = {}

    t0 = time.perf_counter()
    harness.collect(config, "alinea", TRAIN_SEEDS, root / "logs")
    t["collect_train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    log = harness.load_logs(root / "logs", config)
    sindyc = harness.fit(config, log, "sindyc")
    dmdc = harness.fit(config, log, "dmdc")
    t["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    harness.collect(config, "alinea", HOLDOUT_SEEDS, root / "holdout")
    holdout = harness.load_logs(root / "holdout")
    sindyc_report = fit_report(sindyc, holdout)
    dmdc_report = fit_report(dmdc, holdout)
    t["holdout"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = harness.run_scenarios(config, sindyc, dmdc, EVAL_SEEDS)
    t["run"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    harness.report(results, root / "report", config,
                   models={"sindyc": sindyc, "dmdc": dmdc})
    t["report"] = time.perf_counter() - t0
    t["total"] = sum(t.values())

    return SimpleNamespace(
        root=root, config=config, sindyc=sindyc, dmdc=dmdc,
        sindyc_holdout=sindyc_report, dmdc_holdout=dmdc_report,
        results=results, by_name={r.scenario: r for r in results},
        timings=t)


def test_criterion_01_metering_formula_is_exact():
    """The rate-to-signal conversion must be algebraically exact at the rails
    and respect the hard minimum green share, instantly."""
    t0 = time.perf_counter()
    assert rate_to_red_duration(1800.0) == 0.0
    assert rate_to_red_duration(200.0) == 16.0
    floor = green_percentage([[200.0]])[0]
    assert floor == pytest.approx(100.0 * GREEN_DURATION_S / 18.0, abs=1e-12)
    assert round(floor, 1) == 11.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"red(1800)=0 s, red(200)=16 s, green floor {floor:.4f} % "
             f"in {elapsed * 1e3:.1f} ms")


def _oracle_systems():
    """Criterion 2's 50 random sparse quadratic systems (4 states, 4 inputs,
    1-3 active terms per row, 1000 samples), as ``(x, u, derivs, true)``."""
    rng = np.random.default_rng(2024)
    h = build_library(np.zeros((1, 4)), np.zeros((1, 4))).shape[1]
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=(1000, 4))
        u = rng.uniform(-1.0, 1.0, size=(1000, 4))
        theta = build_library(x, u)
        true = np.zeros((4, h))
        for i in range(4):
            k = int(rng.integers(1, 4))
            cols = rng.choice(np.arange(1, h), size=k, replace=False)
            true[i, cols] = (rng.uniform(0.1, 2.0, size=k)
                             * rng.choice([-1.0, 1.0], size=k))
        yield x, u, theta @ true.T, true


def test_criterion_02_sparse_regression_oracle():
    """On 50 random sparse quadratic systems (4 states, 4 inputs, at most 3
    active terms per row, noise free, 1000 samples) the regression must find
    the exact support with coefficients right to 1e-3 at least 48 times."""
    t0 = time.perf_counter()
    successes = 0
    worst = 0.0
    for x, u, derivs, true in _oracle_systems():
        model = fit_derivatives(x, u, derivs)
        support_ok = np.array_equal(model.coefficients != 0.0, true != 0.0)
        err = float(np.max(np.abs(model.coefficients - true)))
        worst = max(worst, err)
        if support_ok and err < 1e-3:
            successes += 1
    elapsed = time.perf_counter() - t0
    assert successes >= 48
    assert elapsed < 60.0
    _pass(2, f"{successes}/50 exact recoveries, worst coefficient error "
             f"{worst:.2e}, in {elapsed:.1f} s")


def test_criterion_03_library_census():
    """The quadratic library on 8 sensors and 8 meters has exactly 153
    deterministic, individually documented columns."""
    theta = build_library(np.zeros((2, 8)), np.zeros((2, 8)))
    terms = sysid.SparseModel(coefficients=np.zeros((8, 153)), state_dim=8,
                              input_dim=8).terms
    assert len(terms) == 153
    assert theta.shape == (2, 153)
    assert terms == sysid.SparseModel(coefficients=np.ones((8, 153)), state_dim=8,
                                      input_dim=8).terms
    labels = [term_label(t, 8) for t in terms]
    assert len(set(labels)) == 153
    assert labels[0] == "1"
    assert labels[1:9] == [f"x{i}" for i in range(1, 9)]
    assert labels[9:17] == [f"u{j}" for j in range(1, 9)]
    assert all("*" in lab or "^2" in lab for lab in labels[17:])
    _pass(3, "153 columns: 1 constant + 16 linear + 136 quadratic, "
             "stable order, unique labels")


def _fd_gradient(model, x0, plan, u_prev, cfg, eps=1e-2):
    def total(p):
        return objective(rollout(model, x0, p), p, u_prev, cfg)

    fd = np.empty_like(plan)
    for l in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            hi = plan.copy()
            lo = plan.copy()
            hi[l, j] += eps
            lo[l, j] -= eps
            fd[l, j] = (total(hi) - total(lo)) / (2.0 * eps)
    return fd


def _random_mpc_model(rng, n, m):
    x = rng.uniform(0.0, 30.0, size=(600, n))
    u = rng.uniform(200.0, 1800.0, size=(600, m))
    y = np.empty((600, n))
    for i in range(n):
        j = int(rng.integers(m))
        k = int(rng.integers(n))
        y[:, i] = (rng.uniform(0.5, 2.0) * (15.0 - x[:, i])
                   + rng.uniform(1.0, 3.0) * 1e-3 * u[:, j]
                   - rng.uniform(0.5, 2.0) * 1e-3 * x[:, i] * x[:, k])
    return fit_derivatives(x, u, y)


def test_criterion_04_planner_gradient_matches_finite_differences(monkeypatch):
    """The gradient the planner steps on, 2 J'r from its own residual and
    residual Jacobian, agrees with central differences of the objective to a
    relative 1e-5 on 100 random small instances, each with its own nonzero
    rate-change weight."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        monkeypatch.setattr(mpc, "RATE_CHANGE_WEIGHT", float(rng.uniform(0.0, 1e-3)))
        cfg = MpcConfig(horizon=horizon)
        model = _random_mpc_model(rng, n, m)
        x0 = rng.uniform(5.0, 25.0, size=n)
        plan = rng.uniform(300.0, 1700.0, size=(horizon, m))
        u_prev = rng.uniform(300.0, 1700.0, size=m)
        ws = mpc._Workspace(model, cfg)
        ws.start(x0, u_prev, plan)
        res, jac = ws.cur.res, ws.jacobian()
        grad = (2.0 * jac.T @ res).reshape(plan.shape)
        fd = _fd_gradient(model, x0, plan, u_prev, cfg)
        rel = (float(np.linalg.norm(grad - fd))
               / max(float(np.linalg.norm(fd)), 1e-9))
        worst = max(worst, rel)
        assert rel < 1e-5
    _pass(4, f"100/100 instances, worst relative gradient error {worst:.2e}")


def test_criterion_05_planner_beats_an_exhaustive_grid():
    """On a one-meter instance with horizon 3, the solver's cost lands within
    1% of the best plan on the full 21x21x21 rate lattice, in under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    model = _random_mpc_model(rng, 1, 1)
    cfg = MpcConfig(horizon=3)
    x0, u_prev = [24.0], [1000.0]

    def total(plan):
        return objective(rollout(model, x0, plan), plan, u_prev, cfg)

    grid = np.linspace(RATE_MIN_VPH, RATE_MAX_VPH, 21)
    best = np.inf
    for a in grid:
        for b in grid:
            for c in grid:
                best = min(best, total(np.array([[a], [b], [c]])))
    sol = solve(model, x0, u_prev, cfg)
    achieved = sol.objective
    elapsed = time.perf_counter() - t0
    assert achieved <= best * 1.01 + 1e-9
    assert elapsed < 10.0
    _pass(5, f"solver {achieved:.6f} vs grid best {best:.6f} "
             f"({achieved / best - 1.0:+.2%}), in {elapsed:.1f} s")


def test_criterion_06_heldout_prediction_quality(pipeline):
    """On held-out feedback episodes the sparse quadratic model explains at
    least 80% of the measured occupancy derivative variance on average and
    beats the linear baseline, with collection plus fitting under 5 min."""
    r2_sparse = pipeline.sindyc_holdout.mean_r2
    r2_linear = pipeline.dmdc_holdout.mean_r2
    budget = (pipeline.timings["collect_train"] + pipeline.timings["fit"]
              + pipeline.timings["holdout"])
    assert r2_sparse >= 0.8
    assert r2_sparse > r2_linear
    assert budget < 300.0
    _pass(6, f"held-out mean R2 {r2_sparse:.4f} (quadratic) vs "
             f"{r2_linear:.4f} (linear), pipeline share {budget:.0f} s")


def test_criterion_07_tracking_order(pipeline):
    """Averaged over the evaluation seeds, predictive control tracks the
    occupancy target strictly better than local feedback, which beats leaving
    the meters open; the sparse model is at least as good as the linear one."""
    dev = {name: res.average_deviation for name, res in pipeline.by_name.items()}
    assert dev["sindyc-mpc"] < dev["alinea"] < dev["no-control"]
    assert dev["sindyc-mpc"] <= dev["dmd-mpc"]
    _pass(7, "mean |occ - target|: " + ", ".join(
        f"{name} {dev[name]:.3f} %" for name in harness.SCENARIOS)
        + f"; sindyc-mpc ahead of dmd-mpc by "
          f"{dev['dmd-mpc'] - dev['sindyc-mpc']:.4f} points")


def test_criterion_08_throughput_improvements(pipeline):
    """Every controller moves more vehicles than no control, and predictive
    control on the sparse model gains the most."""
    base = pipeline.by_name["no-control"].average_flow
    gains = {name: pipeline.by_name[name].average_flow - base
             for name in harness.SCENARIOS if name != "no-control"}
    assert all(gain > 0.0 for gain in gains.values())
    assert gains["sindyc-mpc"] == max(gains.values())
    assert all(gains["sindyc-mpc"] > gain
               for name, gain in gains.items() if name != "sindyc-mpc")
    _pass(8, "flow gain vs no-control: " + ", ".join(
        f"{name} {gain:+.1f} veh/h" for name, gain in gains.items()))


def test_criterion_09_green_time_is_not_sacrificed(pipeline):
    """The predictive controller's throughput does not come from simply
    holding ramps red: its average green share matches or beats the feedback
    baseline's."""
    sparse = pipeline.by_name["sindyc-mpc"].average_green_pct
    baseline = pipeline.by_name["alinea"].average_green_pct
    assert sparse >= baseline
    _pass(9, f"average green {sparse:.2f} % (sindyc-mpc) vs "
             f"{baseline:.2f} % (alinea)")


def test_criterion_10_reproducible_and_fast(pipeline, tmp_path):
    """A second independent pipeline run reproduces the first bit for bit
    (logs, models, closed-loop trajectories); one full pass stays under 15
    minutes and every planner solve under 30 s."""
    assert pipeline.timings["total"] < 900.0

    solve_times = []
    for name in ("dmd-mpc", "sindyc-mpc"):
        for record in pipeline.by_name[name].records:
            solve_times += [step["solve_time_s"] for step in record.solver_steps
                            if "solve_time_s" in step]
    assert solve_times and max(solve_times) < 30.0

    harness.collect(pipeline.config, "alinea", TRAIN_SEEDS, tmp_path / "logs")
    for seed in TRAIN_SEEDS:
        name = f"alinea-seed{seed}.csv"
        assert ((tmp_path / "logs" / name).read_bytes()
                == (pipeline.root / "logs" / name).read_bytes())

    log = harness.load_logs(tmp_path / "logs", pipeline.config)
    sindyc = harness.fit(pipeline.config, log, "sindyc")
    dmdc = harness.fit(pipeline.config, log, "dmdc")
    assert np.array_equal(sindyc.coefficients, pipeline.sindyc.coefficients)
    assert np.array_equal(dmdc.coefficients, pipeline.dmdc.coefficients)

    rerun = harness.run_scenarios(pipeline.config, sindyc, dmdc, EVAL_SEEDS)
    for first, second in zip(pipeline.results, rerun):
        assert first.scenario == second.scenario
        for rec_a, rec_b in zip(first.records, second.records):
            assert np.array_equal(rec_a.occupancy, rec_b.occupancy)
            assert np.array_equal(rec_a.rates, rec_b.rates)
            assert np.array_equal(rec_a.flow, rec_b.flow)

    _pass(10, f"pipeline {pipeline.timings['total']:.0f} s, "
              f"solves mean {1e3 * np.mean(solve_times):.0f} ms / "
              f"max {1e3 * np.max(solve_times):.0f} ms, "
              "second run bit-identical")


# The benchmark fit (train seeds 1-4, read from their exact CSV logs, so it
# is the fit of the in-memory episodes), pinned: SINDYc's support per state and
# sha256 digests of the fitted matrices, for the pipeline's fit on each
# sensor's road neighbourhood and for the fit without masks, every sensor on
# the whole library (the one perfbench times). A change to the fit's
# arithmetic that moves any coefficient by one rounding step fails here,
# before it shows up as a closed-loop difference. The
# digests also depend on the numpy and LAPACK/BLAS build (eigh, solve,
# lstsq): they were recorded with numpy 2.4 on OpenBLAS 0.3.31, and a numpy
# or BLAS upgrade that fails this test without a fit change needs them
# recorded again; the supports should not move. The DMDc digest is of its
# constant and z columns, (8, 17), as fitted; its 136 product columns must be
# zero.
PINNED_MASKED_SUPPORT = (
    (0, 9, 18, 25, 33, 117),
    (0, 10, 17, 25, 33, 54, 125),
    (0, 33, 41, 49, 55, 56, 68, 69, 125, 132),
    (0, 62, 63, 70, 82, 138, 139, 143),
    (0, 63, 70, 71, 75, 82, 83, 143),
    (0, 75, 84, 87, 94, 95, 108, 114, 143, 147),
    (0, 98, 106),
    (0, 7, 15, 16, 87, 89, 98, 152),
)
PINNED_MASKED_DIGEST = (
    "d3ad31f609311f1b5ebcd37c721dbcbc6de8b248c917ae8fff26aca6d6eaaaff")
PINNED_SUPPORT = (
    (0, 21, 25),
    (0, 17, 25, 33, 40, 51, 55, 65, 68, 94, 101, 110, 125, 129, 130, 137, 145, 149),
    (0, 33, 42, 56, 64, 68, 69, 97, 111, 116, 125, 132),
    (0, 62, 70, 74, 142),
    (0, 22, 27, 64, 70, 76, 110, 111, 113, 118, 120, 131, 138),
    (0, 34, 45, 59, 64, 72, 87, 95, 110, 114, 129, 147),
    (0, 43, 98, 106, 138),
    (0, 60, 66, 69, 98, 111, 116, 152),
)
PINNED_DIGESTS = {
    "sindyc.coefficients":
        "aa9e6f0015f6d9f9fc30bf856edeca48500887fcee434539c6933951cec271cf",
    "dmdc.coefficients":
        "0db67245bf3616bccba9052f3d084004c81c20b5c683b905ed382740cd146c7d",
}


def _support(model):
    return tuple(tuple(int(i) for i in np.flatnonzero(row))
                 for row in model.coefficients)


def _digest(coef) -> str:
    return hashlib.sha256(np.ascontiguousarray(
        coef, dtype=np.float64).tobytes()).hexdigest()


def test_benchmark_fit_is_pinned(pipeline):
    """The pipeline's fits: SINDYc on each sensor's road neighbourhood, and
    DMDc."""
    assert _support(pipeline.sindyc) == PINNED_MASKED_SUPPORT
    assert _digest(pipeline.sindyc.coefficients) == PINNED_MASKED_DIGEST
    assert (_digest(pipeline.dmdc.coefficients[:, :17])
            == PINNED_DIGESTS["dmdc.coefficients"])
    assert pipeline.dmdc.n_columns == 153
    assert not pipeline.dmdc.coefficients[:, 17:].any()


def test_benchmark_fit_from_csv_logs_is_the_in_memory_fit(pipeline):
    """The logs hold every value exactly, so both fits from the CSV logs have
    the bytes of the fits from the episodes themselves, read in the same
    (file-name) order."""
    alinea, = harness.run_scenarios(pipeline.config, None, None, TRAIN_SEEDS,
                                    scenarios=("alinea",))
    records = sorted(alinea.records, key=lambda r: f"alinea-seed{r.seed}.csv")
    log = [(record.occupancy, record.rates) for record in records]
    for method, model in (("sindyc", pipeline.sindyc), ("dmdc", pipeline.dmdc)):
        assert (harness.fit(pipeline.config, log, method).coefficients.tobytes()
                == model.coefficients.tobytes()), method


def test_unmasked_benchmark_fit_keeps_its_pins(pipeline):
    """Without masks every sensor is its own regression on the whole
    library: the fit perfbench times."""
    full = discover_sindyc(harness.load_logs(pipeline.root / "logs"))
    assert _support(full) == PINNED_SUPPORT
    assert _digest(full.coefficients) == PINNED_DIGESTS["sindyc.coefficients"]


def test_benchmark_dmdc_reads_are_its_linear_block(pipeline):
    """On the benchmark's DMDc fit the quadratic form with zero products
    reads ``c + L z`` and ``L`` bit for bit, at every row of the holdout
    logs: the planner sees what a linear-only model would give it."""
    coef = pipeline.dmdc.coefficients
    c, linear = coef[:, 0], np.ascontiguousarray(coef[:, 1:17])
    for states, inputs in harness.load_logs(pipeline.root / "holdout"):
        for z in np.hstack([states, inputs]):
            assert np.array_equal(pipeline.dmdc._f(z), c + linear @ z)
            assert np.array_equal(pipeline.dmdc._df(z), linear)


def test_benchmark_stacked_stage_reads_are_the_point_reads(pipeline):
    """The planner reads df/dz at all its stages in one stacked product
    (``_df_rows``). At every row of the holdout logs, for both fits, the
    stacked read has the bytes of ``_df`` at that row: numpy runs it as one
    matrix-vector product per row, as ``_df`` does, so the closed loop does
    not depend on how many stages are read at once."""
    for model in (pipeline.sindyc, pipeline.dmdc):
        n, nz = model.state_dim, model.state_dim + model.input_dim
        for states, inputs in harness.load_logs(pipeline.root / "holdout"):
            zs = np.hstack([states, inputs])
            stacked = model._df_rows(zs, out=np.empty((len(zs), n, nz)))
            for z, jac in zip(zs, stacked):
                assert jac.tobytes() == model._df(z).tobytes()


def test_one_worker_fits_the_same_bytes(pipeline, monkeypatch):
    """The fit has one path: every state is one job on its block of library
    columns, and the jobs share two threads when two CPUs are usable. They
    give the same coefficients, bit for bit, when the calling thread runs
    them all (no OpenBLAS found): on the benchmark's training logs, for the
    pipeline's fit and the fit without masks, and on criterion 2's oracle
    systems."""
    parallel = [fit_derivatives(x, u, derivs).coefficients
                for x, u, derivs, _ in _oracle_systems()]
    log = harness.load_logs(pipeline.root / "logs")
    full = discover_sindyc(log).coefficients.tobytes()
    monkeypatch.setattr(sysid, "_openblas_threads", lambda: None)
    assert discover_sindyc(log).coefficients.tobytes() == full
    assert (harness.fit(pipeline.config, log, "sindyc").coefficients.tobytes()
            == pipeline.sindyc.coefficients.tobytes())
    for (x, u, derivs, _), coef in zip(_oracle_systems(), parallel):
        assert fit_derivatives(x, u, derivs).coefficients.tobytes() == coef.tobytes()


def test_the_fit_does_not_depend_on_blas_threads(tmp_path):
    """The whole regression, Gram matrix included, runs on one OpenBLAS
    thread, so a fit has the same bytes whatever count the process set: on
    base seed 6's training logs (seeds 7-10) a Gram matrix formed on two
    threads differs from one formed on one at rounding level."""
    blas = sysid._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    get, put = blas
    harness.collect(load_config(benchmark_config_path()), "alinea",
                    (7, 8, 9, 10), tmp_path)
    log = harness.load_logs(tmp_path)
    before, fits = get(), []
    try:
        for threads in (2, 1):
            put(threads)
            fits.append(discover_sindyc(log).coefficients.tobytes())
    finally:
        put(before)
    assert fits[0] == fits[1]


# The benchmark closed loop (train seeds 1-4, eval seeds 21-23), pinned: sha256
# digests of each MPC scenario's applied rates and measured occupancies over
# the three episodes, stacked in seed order, and its total solver iterations.
# A planner change that moves any applied rate by one rounding step, or takes
# one iteration more or less, fails here. Recorded with the rate-change
# weight at 1e-5 (veh/h)^-2, the neighbourhood fit and ALINEA metering the
# windows outside each model's envelope; earlier pins read 2773 and 9764
# iterations at weight 0, 2232 and 7098 at 1e-5 on the full-library fit
# without the hand-over, 2169 and 6444 on a fit from logs rounded to 12
# significant digits, with these occupancies, and 2169 and 6437 while the
# residual still carried the all-zero occupancy-band rows, with other
# sindyc-mpc rates and the same occupancies. Like the
# fit pin, the digests also depend on the numpy and LAPACK/BLAS build (the
# fit, and the planner's matrix products and solves): they were recorded with
# numpy 2.4 on OpenBLAS 0.3.31, and a numpy or BLAS upgrade that fails this
# test without a planner change needs them recorded again.
PINNED_CLOSED_LOOP = {
    "dmd-mpc.rates":
        "2a50d5fe9add71b9c38199908d48aa911938a140af49748886ae8b0ab633b7be",
    "dmd-mpc.occupancy":
        "b628b99546ff668e2a9b726957cf1b295ed2401e869a2c830cb6f572d2d403cb",
    "sindyc-mpc.rates":
        "e178ea59af3c0dc3eaec610e19f7a2f6e9cc94f65ff34789ba8d7d5be3433d7e",
    "sindyc-mpc.occupancy":
        "b06084205f76dfeb3a3766d6deb2e1bc55e395ada6e6d512551ccfde576e14d5",
}
PINNED_ITERATIONS = {"dmd-mpc": 2169, "sindyc-mpc": 6416}


def test_benchmark_closed_loop_is_pinned(pipeline):
    digests = {
        f"{name}.{field}": hashlib.sha256(np.ascontiguousarray(
            np.vstack([getattr(r, field) for r in pipeline.by_name[name].records]),
            dtype=np.float64).tobytes()).hexdigest()
        for name in PINNED_ITERATIONS for field in ("rates", "occupancy")}
    assert digests == PINNED_CLOSED_LOOP
    iterations = {
        name: sum(step["iterations"]
                  for record in pipeline.by_name[name].records
                  for step in record.solver_steps if not step["fallback"])
        for name in PINNED_ITERATIONS}
    assert iterations == PINNED_ITERATIONS


def test_no_recorded_solve_hits_the_iteration_cap(pipeline):
    """With the rate-change weight every plan direction has curvature, so on
    the acceptance seeds every planner solve of the recorded hour stops at the
    optimality test or a stall, never at the 200-iteration cap. Every
    recorded window is a solve or handed over to ALINEA, outside the model's
    envelope; with the hand-over no burn-in solve is capped either."""
    for name in ("dmd-mpc", "sindyc-mpc"):
        health = pipeline.by_name[name].solver_health()
        recorded = health["recorded"]
        assert recorded["solves"] + recorded["handed_over"] == 3 * 120
        assert recorded["capped"] == health["burn_in"]["capped"] == 0, name
