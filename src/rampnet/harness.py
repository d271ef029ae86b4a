"""End-to-end experiment harness: collect logs, run scenarios, write reports.

The standard experiment compares five metering scenarios on identical demand
realizations (same seeds, and the plant draws arrivals independently of
control): no control (meters pinned wide open), the two local feedback
regulators, and predictive control on the linear and on the sparse
polynomial model. Reports are plain CSV tables plus per-scenario time series
and a summary JSON keyed by a hash of the exact network config. The horizon
sweep runs the sparse-model planner through the same scenario loop.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .feedback import (AlineaController, FixedRateController, MeterBank,
                       PiAlineaController, RATE_MAX_VPH, green_percentage)
from .mpc import MpcConfig, MpcController
from .network import NetworkConfig, serialize_config
from .plant import EpisodeRecord, run_episode
from .sysid import SparseModel, TrajectoryLog

__all__ = [
    "SCENARIOS",
    "FEEDBACK_CONTROLLERS",
    "UsageError",
    "ScenarioResult",
    "make_controller",
    "collect",
    "load_logs",
    "run_scenarios",
    "horizon_sweep",
    "results_from_records",
    "load_raw_results",
    "report",
]

SCENARIOS = ("no-control", "alinea", "pi-alinea", "dmd-mpc", "sindyc-mpc")
FEEDBACK_CONTROLLERS = ("alinea", "pi-alinea")

#: plot series are smoothed with a trailing moving average this many steps wide
SERIES_SMOOTH_STEPS = 5


class UsageError(ValueError):
    """A caller asked for something the harness cannot honor."""


def make_controller(name: str, n_ramps: int, target_occupancy_pct: float = 15.0,
                    sindyc: SparseModel | None = None,
                    dmdc: SparseModel | None = None,
                    mpc_config: MpcConfig | None = None):
    """Controller factory keyed by scenario name."""
    if name == "no-control":
        return MeterBank.uniform(lambda: FixedRateController(RATE_MAX_VPH), n_ramps)
    if name == "alinea":
        return MeterBank.uniform(
            lambda: AlineaController(target_occupancy_pct=target_occupancy_pct),
            n_ramps)
    if name == "pi-alinea":
        return MeterBank.uniform(
            lambda: PiAlineaController(target_occupancy_pct=target_occupancy_pct),
            n_ramps)
    if name in ("dmd-mpc", "sindyc-mpc"):
        model = dmdc if name == "dmd-mpc" else sindyc
        if model is None:
            raise UsageError(f"scenario '{name}' needs its model; none was given")
        cfg = mpc_config or MpcConfig(target_occupancy_pct=target_occupancy_pct)
        return MpcController(model, cfg)
    raise UsageError(f"unknown controller '{name}'; pick one of {SCENARIOS}")


def collect(config: NetworkConfig, controller_name: str, seeds,
            out_dir) -> list[Path]:
    """Run excitation episodes under a feedback regulator and write one CSV
    per seed. Only the feedback controllers are valid for collection."""
    if controller_name not in FEEDBACK_CONTROLLERS:
        raise UsageError(
            f"collection needs a feedback controller {FEEDBACK_CONTROLLERS}, "
            f"got '{controller_name}'")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise UsageError("no seeds given; collection needs at least one episode")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in seeds:
        controller = make_controller(controller_name, config.n_ramps)
        record = run_episode(config, controller, seed=seed)
        path = out_dir / f"{controller_name}-seed{seed}.csv"
        record.to_csv(path)
        paths.append(path)
    return paths


def load_logs(log_dir) -> TrajectoryLog:
    """Stack every episode CSV under a directory into one trajectory log."""
    paths = sorted(Path(log_dir).glob("*.csv"))
    if not paths:
        raise UsageError(f"no episode CSVs found under {log_dir}")
    try:
        return TrajectoryLog.from_records(EpisodeRecord.from_csv(p) for p in paths)
    except ValueError as exc:
        raise UsageError(f"unusable episode logs under {log_dir}: {exc}") from exc


@dataclass
class ScenarioResult:
    """Per-scenario metrics aggregated over seeds, plus the raw episodes."""

    scenario: str
    seeds: tuple[int, ...]
    records: list[EpisodeRecord]
    mean_abs_deviation: np.ndarray  # (n,) % per sensor
    mean_flow: np.ndarray  # (n,) veh/h per sensor
    green_pct: np.ndarray  # (m,) per ramp, from the commanded rates
    runtime_s: float = 0.0
    solver_diagnostics: list | None = None  # one list per seed, MPC only

    @property
    def average_deviation(self) -> float:
        return float(self.mean_abs_deviation.mean())

    @property
    def average_flow(self) -> float:
        return float(self.mean_flow.mean())

    @property
    def average_green_pct(self) -> float:
        return float(self.green_pct.mean())

    @property
    def measured_green_pct(self) -> np.ndarray:
        """(m,) share of recorded time (%) each meter showed green in the
        plant. Rates latch at the next signal cycle, so this trails
        ``green_pct``, which is derived from the commanded rates."""
        green = np.sum([r.green_seconds for r in self.records], axis=0)
        recorded_s = sum(len(r) * r.control_step_s for r in self.records)
        return 100.0 * green / recorded_s

    def solver_health(self) -> dict | None:
        """Planner figures over every control step of every seed, or None
        for a scenario without a planner: converged share of the solves,
        iteration and solve-time percentiles (p50/p95/max), and fallbacks."""
        if self.solver_diagnostics is None:
            return None
        steps = [step for diag in self.solver_diagnostics for step in diag or ()]
        solved = [step for step in steps if not step["fallback"]]

        def spread(values):
            if not values:
                return {"p50": None, "p95": None, "max": None}
            return {"p50": float(np.percentile(values, 50)),
                    "p95": float(np.percentile(values, 95)),
                    "max": float(np.max(values))}

        return {
            "solves": len(solved),
            "converged_frac": (sum(step["converged"] for step in solved) / len(solved)
                               if solved else None),
            "iterations": spread([step["iterations"] for step in solved]),
            "solve_ms": spread([1e3 * step["solve_time_s"] for step in solved]),
            "fallbacks": len(steps) - len(solved),
        }


def results_from_records(scenario: str, seeds, records,
                         target_occupancy_pct: float = 15.0,
                         runtime_s: float = 0.0,
                         solver_diagnostics=None) -> ScenarioResult:
    records = list(records)
    occ = np.vstack([r.occupancy for r in records])
    flow = np.vstack([r.flow for r in records])
    green = np.vstack([green_percentage(r.rates) for r in records])
    return ScenarioResult(
        scenario=scenario,
        seeds=tuple(int(s) for s in seeds),
        records=records,
        mean_abs_deviation=np.mean(np.abs(occ - target_occupancy_pct), axis=0),
        mean_flow=flow.mean(axis=0),
        green_pct=green.mean(axis=0),
        runtime_s=runtime_s,
        solver_diagnostics=solver_diagnostics,
    )


def run_scenarios(config: NetworkConfig, sindyc: SparseModel,
                  dmdc: SparseModel, seeds, scenarios=SCENARIOS,
                  target_occupancy_pct: float = 15.0,
                  mpc_config: MpcConfig | None = None) -> list[ScenarioResult]:
    """Run every scenario on every seed and aggregate the standard metrics.

    Episodes are independent (own plant, own RNG, own controller); each
    scenario's ``runtime_s`` covers its own episodes only.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise UsageError("no evaluation seeds given")
    scenarios = tuple(scenarios)
    for name in scenarios:
        if name not in SCENARIOS:
            raise UsageError(f"unknown scenario '{name}'; pick from {SCENARIOS}")

    results = []
    for scenario in scenarios:
        started = time.perf_counter()
        records, diags = [], []
        for seed in seeds:
            controller = make_controller(
                scenario, config.n_ramps, target_occupancy_pct,
                sindyc=sindyc, dmdc=dmdc, mpc_config=mpc_config)
            records.append(run_episode(config, controller, seed=seed))
            diags.append(getattr(controller, "diagnostics", None))
        results.append(results_from_records(
            scenario, seeds, records, target_occupancy_pct,
            runtime_s=time.perf_counter() - started,
            solver_diagnostics=diags if any(d is not None for d in diags) else None,
        ))
    return results


def horizon_sweep(model: SparseModel, config: NetworkConfig,
                  horizons=range(3, 8), seeds=(0,),
                  mpc_config: MpcConfig | None = None) -> list[dict]:
    """Run the ``sindyc-mpc`` scenario on ``model`` at each horizon.

    Returns one dict per horizon with the mean absolute occupancy deviation,
    mean sensor flow, mean per-solve time, and the scenario's runtime over
    the given seeds.
    """
    base = mpc_config or MpcConfig()
    rows = []
    for n in horizons:
        result, = run_scenarios(config, model, None, seeds,
                                scenarios=("sindyc-mpc",),
                                target_occupancy_pct=base.target_occupancy_pct,
                                mpc_config=replace(base, horizon=int(n)))
        solve_ms = [1e3 * step["solve_time_s"]
                    for diag in result.solver_diagnostics for step in diag
                    if not step["fallback"]]
        rows.append({
            "horizon": int(n),
            "mean_abs_deviation_pct": result.average_deviation,
            "mean_flow_vph": result.average_flow,
            "mean_solve_ms": float(np.mean(solve_ms)) if solve_ms else float("nan"),
            "runtime_s": result.runtime_s,
        })
    return rows


def load_raw_results(raw_dir, target_occupancy_pct: float = 15.0) -> list[ScenarioResult]:
    """Rebuild scenario results from raw episode CSVs written by ``report``.

    Every CSV needs its JSON sidecar: green seconds, drops and clamp events
    live only there, and a summary without them would be wrong.
    """
    raw_dir = Path(raw_dir)
    groups: dict[str, list[tuple[int, EpisodeRecord]]] = {}
    for path in sorted(raw_dir.glob("*-seed*.csv")):
        scenario, seed_part = path.stem.rsplit("-seed", 1)
        try:
            record = EpisodeRecord.from_csv(path, seed=int(seed_part))
        except ValueError as exc:
            raise UsageError(f"unusable raw episode {path}: {exc}") from exc
        sidecar = EpisodeRecord.sidecar_path(path)
        if not sidecar.exists():
            raise UsageError(
                f"raw episode {path} has no sidecar {sidecar}; its green "
                f"seconds, drops and clamp events cannot be rebuilt")
        groups.setdefault(scenario, []).append((int(seed_part), record))
    if not groups:
        raise UsageError(f"no raw episode CSVs under {raw_dir}")
    results = []
    for scenario in SCENARIOS:
        if scenario not in groups:
            continue
        pairs = sorted(groups[scenario])
        results.append(results_from_records(
            scenario, [s for s, _ in pairs], [r for _, r in pairs],
            target_occupancy_pct))
    return results


# -- report files -----------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _write_table(path: Path, row_labels, columns: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location"] + list(columns))
        for i, label in enumerate(row_labels):
            writer.writerow([label] + [_fmt(col[i]) for col in columns.values()])
        writer.writerow(["average"]
                        + [_fmt(np.mean(col)) for col in columns.values()])


def _smooth(series: np.ndarray, width: int = SERIES_SMOOTH_STEPS) -> np.ndarray:
    out = np.empty_like(series, dtype=float)
    for k in range(len(series)):
        out[k] = series[max(0, k - width + 1):k + 1].mean()
    return out


def _write_series(path: Path, result: ScenarioResult, sensor_ids) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "time_s", "sensor", "occupancy_pct",
                         "flow_vph", "occupancy_smooth_pct", "flow_smooth_vph"])
        for seed, record in zip(result.seeds, result.records):
            occ_s = np.column_stack(
                [_smooth(record.occupancy[:, j]) for j in range(len(sensor_ids))])
            flow_s = np.column_stack(
                [_smooth(record.flow[:, j]) for j in range(len(sensor_ids))])
            for j, sensor in enumerate(sensor_ids):
                for k in range(len(record)):
                    writer.writerow([
                        seed, _fmt(record.times[k]), sensor,
                        _fmt(record.occupancy[k, j]), _fmt(record.flow[k, j]),
                        _fmt(occ_s[k, j]), _fmt(flow_s[k, j])])


def report(results: list[ScenarioResult], out_dir, config: NetworkConfig,
           models: dict | None = None, write_raw: bool = True) -> dict:
    """Write the comparison tables, per-scenario series, and summary JSON.

    Returns a dict naming everything written. Flow improvements are relative
    to the no-control scenario when it is present. Raw episode CSVs go under
    ``raw/`` so the tables can be rebuilt later without re-simulating.
    """
    if not results:
        raise UsageError("no scenario results to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sensor_ids = [s.id for s in config.sensors]
    ramp_ids = [r.id for r in config.ramps if r.metered]
    by_name = {res.scenario: res for res in results}

    paths: dict[str, object] = {}
    dev_path = out_dir / "deviation_table.csv"
    _write_table(dev_path, sensor_ids,
                 {res.scenario: res.mean_abs_deviation for res in results})
    paths["deviation_table"] = dev_path

    flow_path = out_dir / "flow_improvement_table.csv"
    baseline = by_name.get("no-control")
    if baseline is not None:
        improvements = {
            res.scenario: res.mean_flow - baseline.mean_flow
            for res in results if res.scenario != "no-control"}
    else:
        improvements = {res.scenario: res.mean_flow for res in results}
    _write_table(flow_path, sensor_ids, improvements)
    paths["flow_improvement_table"] = flow_path

    green_path = out_dir / "green_percentage_table.csv"
    _write_table(green_path, ramp_ids,
                 {res.scenario: res.green_pct for res in results})
    paths["green_percentage_table"] = green_path

    series_paths = []
    for res in results:
        sp = out_dir / f"series_{res.scenario}.csv"
        _write_series(sp, res, sensor_ids)
        series_paths.append(sp)
    paths["series"] = series_paths

    diag_paths = []
    for res in results:
        if res.solver_diagnostics is None:
            continue
        dp = out_dir / f"solver_{res.scenario}.json"
        with open(dp, "w", encoding="utf-8") as fh:
            json.dump({"scenario": res.scenario,
                       "episodes": [
                           {"seed": seed, "steps": diag}
                           for seed, diag in zip(res.seeds, res.solver_diagnostics)
                       ]}, fh, indent=1)
        diag_paths.append(dp)
    if diag_paths:
        paths["solver_diagnostics"] = diag_paths

    if write_raw:
        raw_dir = out_dir / "raw"
        raw_dir.mkdir(exist_ok=True)
        raw_paths = []
        for res in results:
            for seed, record in zip(res.seeds, res.records):
                rp = raw_dir / f"{res.scenario}-seed{seed}.csv"
                record.to_csv(rp)
                raw_paths.append(rp)
        paths["raw"] = raw_paths

    summary = {
        "config_sha256": hashlib.sha256(
            serialize_config(config).encode()).hexdigest(),
        "seeds": sorted({int(s) for res in results for s in res.seeds}),
        "scenarios": {
            res.scenario: {
                "mean_abs_deviation_pct": res.mean_abs_deviation.tolist(),
                "average_deviation_pct": res.average_deviation,
                "mean_flow_vph": res.mean_flow.tolist(),
                "average_flow_vph": res.average_flow,
                "green_pct": res.green_pct.tolist(),
                "average_green_pct": res.average_green_pct,
                "measured_green_pct": res.measured_green_pct.tolist(),
                "dropped_veh": [r.dropped_veh for r in res.records],
                "clamp_events": [r.clamp_events for r in res.records],
            } for res in results
        },
        "runtime_s": {res.scenario: res.runtime_s for res in results},
        "solver": {res.scenario: res.solver_health() for res in results
                   if res.solver_diagnostics is not None},
        "models": {name: model.provenance
                   for name, model in (models or {}).items()},
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    paths["summary"] = summary_path
    return paths
