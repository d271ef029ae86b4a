"""Experiment harness: collection, scenario runs, reports, reload paths."""

import csv
import hashlib
import inspect
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rampnet import harness, plant, sysid
from rampnet.feedback import TARGET_OCCUPANCY_PCT
from rampnet.harness import (FEEDBACK_CONTROLLERS, SCENARIOS, UsageError,
                             collect, horizon_sweep, load_logs,
                             load_raw_results, make_controller, report,
                             results_from_records, run_scenarios)
from rampnet.mpc import ModelBlowupError, MpcConfig, MpcController, SolverSettings
from rampnet.network import (CellParams, Highway, NetworkConfig, RampSpec,
                             serialize_config)
from rampnet.plant import (ConservationError, ControlObservation, EpisodeRecord,
                           run_episode)
from rampnet.sysid import fit_derivatives


def _tiny_network():
    cell = CellParams(length_km=0.5, lanes=3, free_flow_kmh=100.0,
                      capacity_vphl=2000.0, jam_density_vkml=160.0)
    return NetworkConfig(
        highways=(Highway("H1", (cell,) * 3, 3000.0),),
        ramps=(RampSpec("H1-R1", "H1", 1, "H1-S1", 1200.0),),
        sim_step_s=1.0,
        control_step_s=30.0,
        burn_in_s=60.0,
        horizon_duration_s=240.0,
    )


def _tiny_models():
    """A pair of simple stable single-sensor models for the MPC scenarios."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 30.0, size=(400, 1))
    u = rng.uniform(200.0, 1800.0, size=(400, 1))
    y = (0.3 * (15.0 - x[:, 0]) + 1e-3 * (u[:, 0] - 1000.0)).reshape(-1, 1)
    sindyc = fit_derivatives(x, u, y, provenance={"method": "sindyc"})
    dmdc = fit_derivatives(x, u, y, provenance={"method": "dmdc"})
    return sindyc, dmdc


def _record(seed, occupancy, flow, rates):
    occupancy = np.asarray(occupancy, dtype=float)
    d, n = occupancy.shape
    rates = np.asarray(rates, dtype=float)
    return EpisodeRecord(
        seed=seed, control_step_s=30.0,
        sensor_ids=tuple(f"S{i}" for i in range(n)),
        ramp_ids=tuple(f"R{j}" for j in range(rates.shape[1])),
        times=30.0 * (1 + np.arange(d)),
        occupancy=occupancy,
        flow=np.asarray(flow, dtype=float),
        speed=np.full((d, n), 80.0),
        rates=rates,
        green_seconds=np.zeros(rates.shape[1]),
    )


# -- controller factory ------------------------------------------------------------

def test_factory_rejects_unknown_scenarios_and_missing_models():
    with pytest.raises(UsageError, match="unknown controller"):
        make_controller("lqr", 4)
    for name in ("dmd-mpc", "sindyc-mpc"):
        with pytest.raises(UsageError, match="needs its model"):
            make_controller(name, 4)


def test_factory_builds_each_scenario():
    sindyc, dmdc = _tiny_models()
    obs = ControlObservation(time_s=30.0, occupancy=np.array([20.0]),
                             flow=np.array([4000.0]), speed=np.array([80.0]))
    pinned = make_controller("no-control", 1)
    assert np.array_equal(pinned(obs), [1800.0])
    for name in FEEDBACK_CONTROLLERS:
        rates = make_controller(name, 1)(obs)
        assert rates.shape == (1,)
    assert isinstance(make_controller("sindyc-mpc", 1, sindyc=sindyc),
                      MpcController)
    assert isinstance(make_controller("dmd-mpc", 1, dmdc=dmdc),
                      MpcController)


def test_factory_refuses_two_different_targets():
    """The planner would steer to one target while the regulators and the
    scored results use the other."""
    sindyc, _ = _tiny_models()
    for name in ("alinea", "sindyc-mpc"):
        with pytest.raises(UsageError, match="two targets"):
            make_controller(name, 1, 15.0, sindyc=sindyc,
                            mpc_config=MpcConfig(target_occupancy_pct=18.0))
    same = make_controller("sindyc-mpc", 1, 18.0, sindyc=sindyc,
                           mpc_config=MpcConfig(target_occupancy_pct=18.0))
    assert same.config.target_occupancy_pct == 18.0


def test_every_default_target_is_the_one_constant():
    """The regulators, the planner and the scoring default to one target, so
    a planner config built without one never meets a second default."""
    assert MpcConfig().target_occupancy_pct is TARGET_OCCUPANCY_PCT
    for func in (make_controller, results_from_records, load_raw_results):
        default = inspect.signature(func).parameters["target_occupancy_pct"].default
        assert default is TARGET_OCCUPANCY_PCT, func.__name__


# -- collection ----------------------------------------------------------------------

def test_collect_only_accepts_feedback_controllers(tmp_path):
    config = _tiny_network()
    for name in ("no-control", "sindyc-mpc"):
        with pytest.raises(UsageError, match="feedback controller"):
            collect(config, name, [1], tmp_path)
    with pytest.raises(UsageError, match="at least one"):
        collect(config, "alinea", [], tmp_path)
    # Episode files are named by seed: a repeat is refused before any is run.
    with pytest.raises(UsageError, match="only once"):
        collect(config, "alinea", [1, 1], tmp_path)
    assert not any(tmp_path.iterdir())


def test_collect_writes_one_named_csv_per_seed(tmp_path):
    paths = collect(_tiny_network(), "alinea", [3, 7], tmp_path / "logs")
    assert [p.name for p in paths] == ["alinea-seed3.csv", "alinea-seed7.csv"]
    assert all(p.exists() for p in paths)


def test_collect_is_byte_reproducible(tmp_path):
    config = _tiny_network()
    first = collect(config, "pi-alinea", [5], tmp_path / "a")
    second = collect(config, "pi-alinea", [5], tmp_path / "b")
    assert first[0].read_bytes() == second[0].read_bytes()


def test_load_logs_reads_one_pair_per_episode_in_name_order(tmp_path):
    config = _tiny_network()
    paths = collect(config, "alinea", [2, 1], tmp_path / "logs")
    episodes = load_logs(tmp_path / "logs")
    rows = int(config.horizon_duration_s / config.control_step_s)
    assert len(episodes) == 2
    for (states, inputs), path in zip(episodes, sorted(paths)):
        assert states.shape == (rows, 1)
        assert inputs.shape == (rows, 1)
        record = EpisodeRecord.from_csv(path)
        assert np.array_equal(states, record.occupancy)
        assert np.array_equal(inputs, record.rates)


def test_load_logs_complains_about_an_empty_directory(tmp_path):
    with pytest.raises(UsageError, match="no episode CSVs"):
        load_logs(tmp_path / "nothing-here")


def test_collect_writes_what_a_report_writes_to_raw(tmp_path):
    """One writer: ``collect``'s CSVs and sidecars are byte for byte the
    ``raw/`` files of a report on ``run_scenarios`` of the same feedback
    scenario and seeds."""
    config = _tiny_network()
    for name in FEEDBACK_CONTROLLERS:
        logs = collect(config, name, [4, 2], tmp_path / name / "logs")
        raw = report(run_scenarios(config, None, None, [4, 2], scenarios=(name,)),
                     tmp_path / name / "report", config)["raw"]
        assert [p.name for p in logs] == [p.name for p in raw] == [
            f"{name}-seed4.csv", f"{name}-seed2.csv"]
        for log, rp in zip(logs, raw):
            assert log.read_bytes() == rp.read_bytes()
            assert (EpisodeRecord.sidecar_path(log).read_bytes()
                    == EpisodeRecord.sidecar_path(rp).read_bytes())


def test_load_logs_refuses_episodes_of_two_control_steps(tmp_path):
    """The same ids at another control step are another network: the rows
    would be differentiated on two time bases. (Two sets of ids are refused
    the same way; see ``test_fit_refuses_logs_of_two_networks``.)"""
    config = _tiny_network()
    collect(config, "alinea", [1], tmp_path / "logs")
    collect(replace(config, control_step_s=60.0), "alinea", [2], tmp_path / "logs")
    with pytest.raises(UsageError, match=r"alinea-seed1\.csv has .* 30\.0 s control "
                                         r"step; alinea-seed2\.csv has .* 60\.0 s"):
        load_logs(tmp_path / "logs")


# -- metric aggregation ----------------------------------------------------------------

def test_results_from_records_hand_values():
    rec1 = _record(1, [[14.0], [16.0]], [[100.0], [200.0]],
                   [[1800.0], [200.0]])
    rec2 = _record(2, [[15.0], [19.0]], [[300.0], [400.0]],
                   [[1800.0], [1800.0]])
    result = results_from_records("alinea", [1, 2], [rec1, rec2])
    assert result.mean_abs_deviation[0] == pytest.approx(1.5)  # (1+1+0+4)/4
    assert result.mean_flow[0] == pytest.approx(250.0)
    # Greens: 1800 veh/h holds green, 200 veh/h gives 2 s per 18 s cycle.
    assert result.green_pct[0] == pytest.approx((50.0 + 50.0 / 9.0 + 100.0) / 2)
    assert result.average_deviation == pytest.approx(1.5)
    assert result.average_flow == pytest.approx(250.0)
    assert result.seeds == (1, 2)


# -- scenario runs -----------------------------------------------------------------------

def test_run_scenarios_rejects_bad_arguments():
    sindyc, dmdc = _tiny_models()
    config = _tiny_network()
    with pytest.raises(UsageError, match="unknown scenario"):
        run_scenarios(config, sindyc, dmdc, [1], scenarios=("alinea", "mystery"))
    with pytest.raises(UsageError, match="no seeds given"):
        run_scenarios(config, sindyc, dmdc, [])
    with pytest.raises(UsageError, match="only once"):
        run_scenarios(config, sindyc, dmdc, [1, 1])
    # A model sized for another network is refused before any episode runs.
    rng = np.random.default_rng(1)
    x, u = rng.uniform(0.0, 30.0, size=(200, 2)), rng.uniform(200.0, 1800.0, size=(200, 2))
    wide = fit_derivatives(x, u, 0.3 * (15.0 - x))
    for models in ((wide, dmdc), (sindyc, wide)):
        with pytest.raises(UsageError, match="2 states and 2 inputs"):
            run_scenarios(config, *models, [1], scenarios=("no-control",))


def test_run_scenarios_covers_the_standard_comparison(tmp_path):
    sindyc, dmdc = _tiny_models()
    results = run_scenarios(_tiny_network(), sindyc, dmdc, [0])
    assert [r.scenario for r in results] == list(SCENARIOS)
    by_name = {r.scenario: r for r in results}
    assert by_name["no-control"].green_pct[0] == pytest.approx(100.0)
    for name in ("dmd-mpc", "sindyc-mpc"):
        (record,) = by_name[name].records
        assert record.solver_steps
        assert all("solve_time_s" in step or step["fallback"]
                   for step in record.solver_steps)
    assert by_name["alinea"].records[0].solver_steps is None


def test_run_scenarios_times_each_scenario_on_its_own():
    """Each time_split_s sums one scenario's own episode time splits, and
    each episode's split fits inside the wall clock of the whole call.
    Episodes may run side by side in worker processes, so the splits of all
    scenarios together can exceed that wall clock."""
    sindyc, dmdc = _tiny_models()
    started = time.perf_counter()
    results = run_scenarios(_tiny_network(), sindyc, dmdc, [0, 1])
    wall = time.perf_counter() - started
    for r in results:
        split = r.time_split_s
        assert set(split) == {"plant", "controller", "rest"}
        assert min(split.values()) > 0.0
        assert split == {part: sum(rec.time_split_s[part] for rec in r.records)
                         for part in split}
        for record in r.records:
            assert sum(record.time_split_s.values()) <= wall


# -- the pooled loop ----------------------------------------------------------------


@pytest.mark.parametrize("error, field", [(ConservationError(1.5e-3), "residual_veh"),
                                          (ModelBlowupError(3), "step")])
def test_typed_errors_survive_a_pickle_round_trip(error, field):
    """A worker's exception reaches the caller pickled: it comes back with
    its type, its message and its field."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert getattr(back, field) == getattr(error, field)


def _without_timing(record):
    """A record's fields apart from the wall times it measured."""
    steps = [{key: value for key, value in step.items() if key != "solve_time_s"}
             for step in record.solver_steps or ()]
    return (record.seed, record.occupancy.tolist(), record.flow.tolist(),
            record.rates.tolist(), record.green_seconds.tolist(),
            record.dropped_veh, record.clamp_events, steps)


def _episodes_run_here(monkeypatch):
    """A list that gains one entry per episode this process runs itself."""
    here = []
    episode = harness.run_episode

    def counted(*args, **kwargs):
        here.append(1)
        return episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", counted)
    return here


def test_worker_processes_change_no_output(monkeypatch):
    """The same call on one CPU and on two gives the same records, in the
    same scenario-then-seed order; on two, workers run every episode, and
    none of them outlives the call."""
    sindyc, dmdc = _tiny_models()
    runs = {}
    for cpus, expected_here in ((1, 10), (2, 0)):
        monkeypatch.setattr(sysid, "_usable_cpus", lambda: cpus)
        here = _episodes_run_here(monkeypatch)
        runs[cpus] = run_scenarios(_tiny_network(), sindyc, dmdc, [3, 1])
        assert len(here) == expected_here
        assert multiprocessing.active_children() == []
    for one, two in zip(runs[1], runs[2], strict=True):
        assert (one.scenario, one.seeds) == (two.scenario, two.seeds)
        assert ([_without_timing(r) for r in one.records]
                == [_without_timing(r) for r in two.records])
    assert [r.scenario for r in runs[2]] == list(SCENARIOS)
    assert any(r.solver_steps for res in runs[2] for r in res.records)


def test_episodes_run_here_while_another_thread_runs(monkeypatch):
    """A fork copies only the calling thread, so with a second thread alive
    the episodes run in the calling process."""
    monkeypatch.setattr(sysid, "_usable_cpus", lambda: 2)
    here = _episodes_run_here(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        run_scenarios(_tiny_network(), None, None, [0, 1], scenarios=("alinea",))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(here) == 2


def test_a_worker_episode_error_reaches_the_caller_typed(monkeypatch):
    """An episode that fails its vehicle audit in a worker process raises
    ConservationError in the caller, and no worker outlives the call."""
    monkeypatch.setattr(sysid, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(plant, "CONSERVATION_TOL_VEH", -1.0)  # every audit fails
    with pytest.raises(ConservationError) as exc:
        run_scenarios(_tiny_network(), None, None, [0, 1], scenarios=("alinea",))
    assert isinstance(exc.value.residual_veh, float)
    assert multiprocessing.active_children() == []


# Two ALINEA episodes on the benchmark, on two CPUs, with a sindyc model that
# cannot be pickled; prints the record count and the live child processes.
_UNPICKLABLE_RUN = """
import multiprocessing
import numpy as np
from rampnet import harness, network, sysid
sysid._usable_cpus = lambda: 2
config = network.load_config(network.benchmark_config_path())
model = sysid.SparseModel(np.zeros((8, 153)), 8, 8, provenance={"f": lambda: 0})
result, = harness.run_scenarios(config, model, None, [0, 1], scenarios=("alinea",))
print(len(result.records), len(multiprocessing.active_children()))
"""


def test_a_job_that_does_not_pickle_runs_here_and_returns():
    """No worker process could receive a job whose model's provenance holds
    a lambda, so its episodes run in the calling process: the call returns
    and leaves no child. It runs in a process group of its own under a
    timeout, so that a hang fails the test and whatever is left is
    killed."""
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", _UNPICKLABLE_RUN], env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        out = "hung"
    try:  # anything still in its process group outlived the call
        os.killpg(proc.pid, signal.SIGKILL)
        left = True
    except ProcessLookupError:
        left = False
    proc.wait()
    assert out.split() == ["2", "0"]
    assert not left


def test_horizon_sweep_reports_one_row_per_horizon():
    sindyc, _ = _tiny_models()
    config = _tiny_network()
    rows = horizon_sweep(sindyc, config, horizons=(2, 3), seeds=(0, 1))
    assert [row["horizon"] for row in rows] == [2, 3]
    for row in rows:
        assert set(row) == {"horizon", "mean_abs_deviation_pct",
                            "mean_flow_vph", "mean_solve_ms", "runtime_s"}
        assert row["mean_abs_deviation_pct"] >= 0.0
        assert row["mean_flow_vph"] > 0.0
        assert row["mean_solve_ms"] > 0.0
        assert row["runtime_s"] > 0.0
    # Each row is the sindyc-mpc scenario at that horizon.
    result, = run_scenarios(config, sindyc, None, (0, 1),
                            scenarios=("sindyc-mpc",), horizon=3)
    assert rows[1]["mean_abs_deviation_pct"] == result.average_deviation
    assert rows[1]["mean_flow_vph"] == result.average_flow


# -- reports ------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def standard_report(tmp_path_factory):
    sindyc, dmdc = _tiny_models()
    config = _tiny_network()
    results = run_scenarios(config, sindyc, dmdc, [0])
    out_dir = tmp_path_factory.mktemp("report")
    paths = report(results, out_dir, config,
                   models={"sindyc": sindyc, "dmdc": dmdc})
    return config, results, out_dir, paths


def test_report_writes_the_expected_inventory(standard_report):
    """A report is its three tables, its summary and its raw episodes."""
    _, _, out_dir, paths = standard_report
    for key in ("deviation_table", "flow_improvement_table",
                "green_percentage_table", "summary"):
        assert paths[key].exists()
    assert set(paths) == {"deviation_table", "flow_improvement_table",
                          "green_percentage_table", "raw", "summary"}
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "deviation_table.csv", "flow_improvement_table.csv",
        "green_percentage_table.csv", "raw", "summary.json"]
    assert sorted(p.name for p in paths["raw"]) == sorted(
        f"{name}-seed0.csv" for name in SCENARIOS)
    # The planner's steps live in each MPC episode's sidecar, and only there.
    for name in SCENARIOS:
        sidecar = json.loads((out_dir / "raw" / f"{name}-seed0.json").read_text())
        assert ("solver_steps" in sidecar) == name.endswith("-mpc")


def test_a_smaller_report_leaves_no_file_of_an_absent_scenario(standard_report,
                                                               tmp_path):
    """Five scenarios, then two, into one directory: no file name and no
    table column names a scenario the second report does not hold."""
    config, results, _, _ = standard_report
    out_dir = tmp_path / "run"
    report(results, out_dir, config)
    kept = results[:2]
    report(kept, out_dir, config)
    absent = [r.scenario for r in results[2:]]
    names = [str(p.relative_to(out_dir)) for p in out_dir.rglob("*")]
    assert names and not [n for n in names
                          if any(scenario in n for scenario in absent)]
    for table in out_dir.glob("*.csv"):
        with open(table, encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert set(header[1:]) <= {r.scenario for r in kept}, table.name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["scenarios"]) == {r.scenario for r in kept}


def test_report_tables_end_with_an_average_row(standard_report):
    _, _, out_dir, _ = standard_report
    for name in ("deviation_table", "flow_improvement_table",
                 "green_percentage_table"):
        with open(out_dir / f"{name}.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "average"


def test_report_flow_table_is_relative_to_no_control(standard_report, tmp_path):
    """Flow gains over no-control; without that baseline no table, and an
    earlier report's table in the same directory is deleted."""
    config, results, out_dir, _ = standard_report
    by_name = {r.scenario: r for r in results}
    with open(out_dir / "flow_improvement_table.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert "no-control" not in header
    alinea_col = header.index("alinea")
    expected = (by_name["alinea"].mean_flow[0]
                - by_name["no-control"].mean_flow[0])
    assert float(rows[1][alinea_col]) == pytest.approx(expected, rel=1e-9)
    assert "flow_improvement_table" in report(results, tmp_path, config,
                                              write_raw=False)
    paths = report(results[1:], tmp_path, config, write_raw=False)
    assert "flow_improvement_table" not in paths
    assert not (tmp_path / "flow_improvement_table.csv").exists()


def test_report_summary_contents(standard_report):
    config, results, out_dir, _ = standard_report
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert set(summary) == {"config_sha256", "seeds", "scenarios",
                            "time_split_s", "solver", "models"}
    assert summary["seeds"] == [0]
    assert set(summary["scenarios"]) == set(SCENARIOS)
    block = summary["scenarios"]["sindyc-mpc"]
    assert set(block) == {"mean_abs_deviation_pct", "average_deviation_pct",
                          "mean_flow_vph", "average_flow_vph", "green_pct",
                          "average_green_pct", "measured_green_pct",
                          "dropped_veh", "clamp_events"}
    for res in results:
        (record,) = res.records
        assert summary["scenarios"][res.scenario]["clamp_events"] == [
            record.clamp_events]
        measured = summary["scenarios"][res.scenario]["measured_green_pct"]
        assert measured == pytest.approx(
            100.0 * record.green_seconds / (len(record) * config.control_step_s))
        assert all(0.0 < share <= 100.0 for share in measured)
    assert summary["models"]["sindyc"]["method"] == "sindyc"
    assert len(summary["config_sha256"]) == 64


def test_report_config_sha256_is_the_digest_of_the_config_yaml(tmp_path):
    """The digest is kept once per config; a report keys its summary by the
    SHA-256 of the config's YAML, and a changed config by another."""
    config = _tiny_network()
    record = replace(_record(1, [[14.0]], [[100.0]], [[900.0]]),
                     sensor_ids=("H1-S1",), ramp_ids=("H1-R1",))
    results = [results_from_records("alinea", [1], [record])]
    for cfg in (config, replace(config, control_step_s=60.0), config):
        summary = json.loads(report(results, tmp_path, cfg, write_raw=False)
                             ["summary"].read_text())
        assert summary["config_sha256"] == hashlib.sha256(
            serialize_config(cfg).encode()).hexdigest()


def test_report_summary_carries_solver_health(standard_report):
    config, results, out_dir, _ = standard_report
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["solver"]) == {"dmd-mpc", "sindyc-mpc"}
    steps_per_seed = round((config.burn_in_s + config.horizon_duration_s)
                           / config.control_step_s)
    by_name = {r.scenario: r for r in results}
    for name, health in summary["solver"].items():
        assert set(health) == {"solves", "converged_frac", "iterations",
                               "solve_ms", "fallbacks", "burn_in", "recorded"}
        steps = by_name[name].records[0].solver_steps
        assert health["solves"] == len(steps) == steps_per_seed
        # The split follows the episode record: burn-in windows, then the
        # recorded ones, with every solve's iterations and time in one of them.
        burn_in, recorded = health["burn_in"], health["recorded"]
        assert burn_in["solves"] == round(config.burn_in_s / config.control_step_s)
        assert recorded["solves"] == len(by_name[name].records[0])
        assert burn_in["iterations"] + recorded["iterations"] == sum(
            step["iterations"] for step in steps)
        assert burn_in["capped"] + recorded["capped"] == sum(
            step["capped"] for step in steps)
        assert recorded["iterations"] == sum(
            step["iterations"] for step in steps[burn_in["solves"]:])
        assert burn_in["solve_s"] + recorded["solve_s"] == pytest.approx(
            sum(step["solve_time_s"] for step in steps))
        for window in (burn_in, recorded):
            assert window["us_per_iteration"] == pytest.approx(
                1e6 * window["solve_s"] / window["iterations"])
        assert health["fallbacks"] == 0
        assert health["converged_frac"] == pytest.approx(
            np.mean([step["converged"] for step in steps]))
        iterations = [step["iterations"] for step in steps]
        assert health["iterations"] == pytest.approx({
            "p50": np.percentile(iterations, 50),
            "p95": np.percentile(iterations, 95), "max": max(iterations)})
        ms = health["solve_ms"]
        assert ms["max"] == pytest.approx(
            1e3 * max(step["solve_time_s"] for step in steps))
        assert 0.0 < ms["p50"] <= ms["p95"] <= ms["max"]
    assert by_name["alinea"].solver_health() is None


def test_solver_health_counts_capped_solves_in_each_window():
    """A planner held to one iteration hits its cap whenever the warm start
    does not already pass the optimality test; each such solve is counted in
    the burn-in or the recorded windows, wherever it ran."""
    sindyc, _ = _tiny_models()
    config = _tiny_network()
    controller = make_controller(
        "sindyc-mpc", config.n_ramps, sindyc=sindyc,
        mpc_config=MpcConfig(horizon=2, solver=SolverSettings(max_iters=1)))
    record = run_episode(config, controller, seed=0)
    steps = record.solver_steps = controller.diagnostics
    health = results_from_records("sindyc-mpc", [0], [record]).solver_health()
    burn_in = round(config.burn_in_s / config.control_step_s)
    assert health["burn_in"]["capped"] == sum(
        step["capped"] for step in steps[:burn_in])
    assert health["recorded"]["capped"] == sum(
        step["capped"] for step in steps[burn_in:])
    assert health["burn_in"]["capped"] >= 1
    assert all(step["capped"] == (not step["converged"]) for step in steps)


def test_solver_health_gives_planner_time_per_iteration_in_each_window():
    """Microseconds per iteration are each window's solve seconds over its
    iterations; fallbacks count in neither, and a window without solves has
    none."""
    record = _record(1, [[14.0], [16.0]], [[100.0], [200.0]],
                     [[900.0], [900.0]])

    def step(time_s, iterations, solve_time_s):
        return {"time_s": time_s, "fallback": False, "iterations": iterations,
                "converged": iterations < 200, "capped": iterations == 200,
                "solve_time_s": solve_time_s}

    record.solver_steps = [step(0.0, 200, 0.05), step(30.0, 4, 5e-4),
                           {"time_s": 45.0, "fallback": True},
                           step(60.0, 6, 7e-4)]
    health = results_from_records("sindyc-mpc", [1], [record]).solver_health()
    assert health["burn_in"]["us_per_iteration"] == pytest.approx(250.0)
    assert health["recorded"]["us_per_iteration"] == pytest.approx(120.0)
    record.solver_steps = record.solver_steps[1:]
    health = results_from_records("sindyc-mpc", [1], [record]).solver_health()
    assert health["burn_in"]["us_per_iteration"] is None
    assert health["recorded"]["us_per_iteration"] == pytest.approx(120.0)


def _solve_step(time_s):
    return {"time_s": time_s, "fallback": False, "iterations": 4,
            "converged": True, "capped": False, "solve_time_s": 1e-3,
            "objective": 2.0}


def _handed_step(time_s):
    return {"time_s": time_s, "fallback": False, "handed_over": True,
            "iterations": 0, "converged": False, "capped": False,
            "solve_time_s": 0.0}


def _planner_steps():
    """Burn-in (before 30 s): a hand-over and a solve; recorded: two
    hand-overs, a solve and a fallback."""
    return [_handed_step(0.0), _solve_step(15.0), _handed_step(30.0),
            _handed_step(45.0), _solve_step(60.0),
            {"time_s": 75.0, "fallback": True}]


def test_solver_health_counts_hand_overs(tmp_path):
    """Windows handed over to ALINEA are counted in their own window apart
    from the solves, and take no part in the solve figures. A solve that
    stopped neither converged nor capped counts as stalled. A record read
    back from its CSV and sidecar gives the same figures."""
    record = _record(1, [[14.0], [16.0]], [[100.0], [200.0]],
                     [[900.0], [900.0]])
    stalled = dict(_solve_step(90.0), iterations=9, converged=False)
    record.solver_steps = _planner_steps() + [stalled]
    health = results_from_records("sindyc-mpc", [1], [record]).solver_health()
    assert health["solves"] == 3
    assert health["converged_frac"] == pytest.approx(2 / 3)
    assert health["iterations"]["p50"] == 4.0 and health["fallbacks"] == 1
    for window, counts in (("burn_in", (1, 1, 4, 0, 0)),
                           ("recorded", (2, 2, 13, 0, 1))):
        figures = health[window]
        assert (figures["solves"], figures["handed_over"], figures["iterations"],
                figures["capped"], figures["stalled"]) == counts
    path = tmp_path / "sindyc-mpc-seed1.csv"
    record.to_csv(path)
    back = results_from_records("sindyc-mpc", [1], [EpisodeRecord.from_csv(path)])
    assert back.solver_health() == health


def test_a_sidecar_with_band_penalties_still_loads(tmp_path):
    """Episodes written while the planner paid a band penalty carry a
    ``penalty`` number in each solve step. They load through ``from_csv``
    and rebuild the solves, hand-overs and iterations of the same steps
    without it; a ``penalty`` that is not a number is still refused."""
    record = _record(1, [[14.0], [16.0]], [[100.0], [200.0]],
                     [[900.0], [900.0]])
    record.solver_steps = _planner_steps()
    current = results_from_records("sindyc-mpc", [1], [record]).solver_health()
    old = record.solver_steps = _planner_steps()
    old[1]["penalty"], old[4]["penalty"] = 3.5, 0  # the two solves
    path = tmp_path / "sindyc-mpc-seed1.csv"
    record.to_csv(path)
    sidecar = EpisodeRecord.sidecar_path(path)
    assert json.loads(sidecar.read_text())["solver_steps"] == old
    assert EpisodeRecord.from_csv(path).solver_steps == old
    rebuilt, = load_raw_results(tmp_path)
    assert rebuilt.scenario == "sindyc-mpc"
    assert rebuilt.solver_health() == current
    meta = json.loads(sidecar.read_text())
    meta["solver_steps"][1]["penalty"] = "3.5"
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="solver_steps is not a list"):
        EpisodeRecord.from_csv(path)


def test_a_rebuilt_report_keeps_the_hand_over_counts(tmp_path):
    """A model whose envelope the corridor leaves hands windows to ALINEA;
    ``report`` on the raw episodes rebuilds the same solver section."""
    sindyc, dmdc = _tiny_models()
    narrow = replace(sindyc, envelope=([12.0], [18.0]))
    config = _tiny_network()
    results = run_scenarios(config, narrow, dmdc, [0, 1],
                            scenarios=("dmd-mpc", "sindyc-mpc"))
    first = json.loads(report(results, tmp_path / "run", config)["summary"]
                       .read_text())
    again = json.loads(report(load_raw_results(tmp_path / "run" / "raw"),
                              tmp_path / "rebuilt", config, write_raw=False)
                       ["summary"].read_text())
    assert again["solver"] == first["solver"]
    handed = first["solver"]["sindyc-mpc"]
    assert handed["burn_in"]["handed_over"] + handed["recorded"]["handed_over"] > 0
    assert handed["recorded"]["solves"] > 0
    unbounded = first["solver"]["dmd-mpc"]
    assert unbounded["burn_in"]["handed_over"] == unbounded["recorded"]["handed_over"] == 0


def test_report_summary_splits_each_scenarios_time(standard_report):
    _, results, out_dir, _ = standard_report
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["time_split_s"]) == set(SCENARIOS)
    for res in results:
        split = summary["time_split_s"][res.scenario]
        assert split == res.time_split_s
        health = res.solver_health()
        if health is not None:
            # Every solve runs inside a controller call.
            solve_s = health["burn_in"]["solve_s"] + health["recorded"]["solve_s"]
            assert split["controller"] >= solve_s


def test_raw_episodes_rebuild_the_same_metrics(standard_report):
    _, results, out_dir, _ = standard_report
    rebuilt = load_raw_results(out_dir / "raw")
    assert [r.scenario for r in rebuilt] == [r.scenario for r in results]
    for a, b in zip(results, rebuilt):
        assert np.array_equal(a.mean_abs_deviation, b.mean_abs_deviation)
        assert np.array_equal(a.mean_flow, b.mean_flow)
        assert np.array_equal(a.green_pct, b.green_pct)


def test_report_rebuilt_from_raw_episodes_matches_the_summary(tmp_path):
    # Ramp demand far above the top metering rate overflows a short queue, so
    # dropped_veh is nonzero and has to survive the raw-episode round trip.
    config = replace(_tiny_network(), ramps=(
        RampSpec("H1-R1", "H1", 1, "H1-S1", 3000.0, queue_capacity_veh=5.0),))
    _, dmdc = _tiny_models()
    results = run_scenarios(config, None, dmdc, [0, 1],
                            scenarios=("no-control", "alinea", "dmd-mpc"))
    # Neither regulator leaves the rate box; a clamp count stands in for a
    # controller that did, and has to survive the round trip as well.
    results[1].records[1].clamp_events = 3
    first = report(results, tmp_path / "run", config)["summary"]
    rebuilt = report(load_raw_results(tmp_path / "run" / "raw"),
                     tmp_path / "rebuilt", config, write_raw=False)["summary"]
    original = json.loads(first.read_text())
    again = json.loads(rebuilt.read_text())
    assert min(original["scenarios"]["no-control"]["dropped_veh"]) > 0.0
    assert again["scenarios"]["alinea"]["clamp_events"] == [0, 3]
    # A meter pinned at the top rate never shows red; a rebuild that lost the
    # sidecar's green seconds would read 0.
    assert again["scenarios"]["no-control"]["measured_green_pct"] == [100.0]
    # Episode timing describes the original run; raw episodes do not carry it.
    assert set(original["time_split_s"]) == {"no-control", "alinea", "dmd-mpc"}
    assert again["time_split_s"] == {}
    # The planner's steps, solve times included, travel in the sidecars, and
    # the CSVs hold every value's bits, so the rest is rebuilt exactly.
    assert original["solver"]["dmd-mpc"]["solves"] > 0
    assert again.keys() == original.keys()
    del again["time_split_s"], original["time_split_s"]
    assert again == original


def test_report_requires_results():
    with pytest.raises(UsageError, match="no scenario results"):
        report([], "unused", _tiny_network())


def test_report_refuses_episodes_of_another_network(tmp_path):
    """Rows are labelled from the config and averaged over the records'
    sensors, so the two must be the same network."""
    config = _tiny_network()
    records = [_record(1, [[14.0, 16.0]], [[100.0, 200.0]], [[900.0, 900.0]])]
    results = [results_from_records("alinea", [1], records)]
    with pytest.raises(UsageError, match=r"\['S0', 'S1'\].*\['H1-S1'\]"):
        report(results, tmp_path / "out", config)
    assert not (tmp_path / "out").exists()
    # The right sensor under another ramp id is refused too.
    record = _record(1, [[14.0]], [[100.0]], [[900.0]])
    record = replace(record, sensor_ids=("H1-S1",))
    with pytest.raises(UsageError, match=r"ramps \['R0'\]"):
        report([results_from_records("alinea", [1], [record])], tmp_path / "out",
               config)


def test_load_raw_results_requires_csvs(tmp_path):
    with pytest.raises(UsageError, match="no episode CSVs"):
        load_raw_results(tmp_path)


def _raw_dir(tmp_path):
    config = _tiny_network()
    out_dir = tmp_path / "run"
    report(run_scenarios(config, None, None, [1, 2], scenarios=("alinea",)),
           out_dir, config)
    return out_dir / "raw"


def _rename(csv_path, name):
    """Move an episode CSV and its sidecar to a new CSV name."""
    EpisodeRecord.sidecar_path(csv_path).rename(
        EpisodeRecord.sidecar_path(csv_path.with_name(name)))
    csv_path.rename(csv_path.with_name(name))


def test_load_raw_results_refuses_an_unknown_scenario_name(tmp_path):
    """A misspelt copy is refused, not left out of the rebuilt results."""
    raw = _raw_dir(tmp_path)
    _rename(raw / "alinea-seed1.csv", "alinae-seed1.csv")
    with pytest.raises(UsageError, match=r"alinae-seed1\.csv holds seed 1; "
                                         r"expected <scenario>-seed1\.csv"):
        load_raw_results(raw)


def test_load_raw_results_refuses_a_name_of_another_seed(tmp_path):
    """The seed in the name must be the seed in the sidecar."""
    raw = _raw_dir(tmp_path)
    _rename(raw / "alinea-seed2.csv", "alinea-seed9.csv")
    with pytest.raises(UsageError, match=r"alinea-seed9\.csv holds seed 2"):
        load_raw_results(raw)


def test_a_report_replaces_the_raw_episodes_of_an_earlier_one(tmp_path):
    # Two reports into one directory: a rebuild from raw/ must read the
    # second run alone, not the union of both.
    config = _tiny_network()
    out_dir = tmp_path / "run"
    report(run_scenarios(config, None, None, [1, 2],
                         scenarios=("no-control", "alinea")), out_dir, config)
    second = report(run_scenarios(config, None, None, [3], scenarios=("alinea",)),
                    out_dir, config)["summary"]
    assert sorted(p.name for p in (out_dir / "raw").iterdir()) == [
        "alinea-seed3.csv", "alinea-seed3.json"]
    rebuilt = report(load_raw_results(out_dir / "raw"), tmp_path / "rebuilt",
                     config, write_raw=False)["summary"]
    original = json.loads(second.read_text())
    again = json.loads(rebuilt.read_text())
    assert again["seeds"] == original["seeds"] == [3]
    assert again["scenarios"].keys() == original["scenarios"].keys() == {"alinea"}
    for key, value in original["scenarios"]["alinea"].items():
        assert again["scenarios"]["alinea"][key] == pytest.approx(value, rel=1e-9)
