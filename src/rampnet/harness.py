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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .feedback import (ALINEA_GAINS, NO_CONTROL_GAINS, PI_ALINEA_GAINS,
                       RATE_MAX_VPH, MeterBank, green_percentage)
from .mpc import MpcConfig, MpcController
from .network import NetworkConfig, serialize_config
from .plant import EpisodeRecord, run_episode
from .sysid import SparseModel

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
# (kp, ki) of the local law in each feedback-metered scenario
_LOCAL_GAINS = {"no-control": NO_CONTROL_GAINS, "alinea": ALINEA_GAINS,
                "pi-alinea": PI_ALINEA_GAINS}

#: plot series are smoothed with a trailing moving average this many steps wide
SERIES_SMOOTH_STEPS = 5


class UsageError(ValueError):
    """A caller asked for something the harness cannot honor."""


def make_controller(name: str, n_ramps: int, target_occupancy_pct: float = 15.0,
                    sindyc: SparseModel | None = None,
                    dmdc: SparseModel | None = None,
                    mpc_config: MpcConfig | None = None):
    """Controller factory keyed by scenario name. An ``mpc_config`` must
    steer to ``target_occupancy_pct``, the target the regulators use and the
    results are scored against."""
    if (mpc_config is not None
            and mpc_config.target_occupancy_pct != target_occupancy_pct):
        raise UsageError(
            f"two targets: {target_occupancy_pct} % for the scenario and "
            f"{mpc_config.target_occupancy_pct} % in the planner's config")
    if name in _LOCAL_GAINS:
        bank = MeterBank(n_ramps, target_occupancy_pct, *_LOCAL_GAINS[name])
        if name == "no-control":
            bank.rates[:] = RATE_MAX_VPH  # wide open, and zero gains keep it so
        return bank
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


def load_logs(log_dir) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read every episode CSV under a directory, in name order, as the
    ``(occupancy, rates)`` pairs that :mod:`rampnet.sysid` fits as
    ``(states, inputs)``, one pair per episode."""
    paths = sorted(Path(log_dir).glob("*.csv"))
    if not paths:
        raise UsageError(f"no episode CSVs found under {log_dir}")
    try:
        records = [EpisodeRecord.from_csv(p) for p in paths]
    except ValueError as exc:
        raise UsageError(f"unusable episode logs under {log_dir}: {exc}") from exc
    return [(r.occupancy, r.rates) for r in records]


@dataclass
class ScenarioResult:
    """Per-scenario metrics aggregated over seeds, plus the raw episodes."""

    scenario: str
    seeds: tuple[int, ...]
    records: list[EpisodeRecord]
    mean_abs_deviation: np.ndarray  # (n,) % per sensor
    mean_flow: np.ndarray  # (n,) veh/h per sensor
    green_pct: np.ndarray  # (m,) per ramp, from the commanded rates
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
    def time_split_s(self) -> dict | None:
        """Wall seconds of the scenario's episodes in plant, controller and
        rest (see ``run_episode``), summed over seeds; None for episodes
        read back from CSV, which do not carry the split."""
        splits = [r.time_split_s for r in self.records]
        if any(split is None for split in splits):
            return None
        return {part: sum(split[part] for split in splits) for part in splits[0]}

    @property
    def runtime_s(self) -> float | None:
        """Wall seconds of the scenario's episodes, the sum of
        ``time_split_s``; None for episodes read back from CSV."""
        split = self.time_split_s
        return None if split is None else sum(split.values())

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
        iteration and solve-time percentiles (p50/p95/max), fallbacks, and
        the solves, total iterations and solve seconds of the burn-in and of
        the recorded windows apart."""
        if self.solver_diagnostics is None:
            return None
        burn_in, recorded, fallbacks = [], [], 0
        for diag, record in zip(self.solver_diagnostics, self.records):
            for step in diag or ():
                if step["fallback"]:
                    fallbacks += 1
                elif step["time_s"] >= record.times[0]:
                    recorded.append(step)
                else:
                    burn_in.append(step)
        solved = burn_in + recorded

        def spread(values):
            if not values:
                return {"p50": None, "p95": None, "max": None}
            return {"p50": float(np.percentile(values, 50)),
                    "p95": float(np.percentile(values, 95)),
                    "max": float(np.max(values))}

        def totals(window):
            return {"solves": len(window),
                    "iterations": sum(step["iterations"] for step in window),
                    "solve_s": sum(step["solve_time_s"] for step in window)}

        return {
            "solves": len(solved),
            "converged_frac": (sum(step["converged"] for step in solved) / len(solved)
                               if solved else None),
            "iterations": spread([step["iterations"] for step in solved]),
            "solve_ms": spread([1e3 * step["solve_time_s"] for step in solved]),
            "fallbacks": fallbacks,
            "burn_in": totals(burn_in),
            "recorded": totals(recorded),
        }


def results_from_records(scenario: str, seeds, records,
                         target_occupancy_pct: float = 15.0,
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
        solver_diagnostics=solver_diagnostics,
    )


def run_scenarios(config: NetworkConfig, sindyc: SparseModel,
                  dmdc: SparseModel, seeds, scenarios=SCENARIOS,
                  horizon: int = MpcConfig.horizon) -> list[ScenarioResult]:
    """Run every scenario on every seed and aggregate the standard metrics.

    Episodes are independent (own plant, own RNG, own controller); the
    planners look ``horizon`` control steps ahead, and every controller steers
    to the default target. Each scenario's ``runtime_s`` is the sum of its own
    episodes' time split. A model whose state or input count is not the
    network's ramp count is refused before any episode runs.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise UsageError("no evaluation seeds given")
    scenarios = tuple(scenarios)
    for name in scenarios:
        if name not in SCENARIOS:
            raise UsageError(f"unknown scenario '{name}'; pick from {SCENARIOS}")
    for name, model in (("sindyc", sindyc), ("dmdc", dmdc)):
        if model is not None and (model.state_dim, model.input_dim) != (
                config.n_ramps, config.n_ramps):
            raise UsageError(
                f"the {name} model has {model.state_dim} states and "
                f"{model.input_dim} inputs, but the network's {config.n_ramps} "
                f"ramps need {config.n_ramps} of each")

    mpc_config = MpcConfig(horizon=horizon)
    results = []
    for scenario in scenarios:
        records, diags = [], []
        for seed in seeds:
            controller = make_controller(scenario, config.n_ramps, sindyc=sindyc,
                                         dmdc=dmdc, mpc_config=mpc_config)
            records.append(run_episode(config, controller, seed=seed))
            diags.append(getattr(controller, "diagnostics", None))
        results.append(results_from_records(
            scenario, seeds, records,
            solver_diagnostics=diags if any(d is not None for d in diags) else None,
        ))
    return results


def horizon_sweep(model: SparseModel, config: NetworkConfig,
                  horizons=range(3, 8), seeds=(0,)) -> list[dict]:
    """Run the ``sindyc-mpc`` scenario on ``model`` at each horizon.

    Returns one dict per horizon with the mean absolute occupancy deviation,
    mean sensor flow, mean per-solve time, and the scenario's runtime over
    the given seeds.
    """
    rows = []
    for n in horizons:
        result, = run_scenarios(config, model, None, seeds,
                                scenarios=("sindyc-mpc",), horizon=int(n))
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
    """Rebuild scenario results from raw episode CSVs written by ``report``,
    each with its JSON sidecar (see :meth:`EpisodeRecord.from_csv`)."""
    raw_dir = Path(raw_dir)
    groups: dict[str, list[EpisodeRecord]] = {}
    for path in sorted(raw_dir.glob("*-seed*.csv")):
        try:
            record = EpisodeRecord.from_csv(path)
        except ValueError as exc:
            raise UsageError(f"unusable raw episode {path}: {exc}") from exc
        groups.setdefault(path.stem.rsplit("-seed", 1)[0], []).append(record)
    if not groups:
        raise UsageError(f"no raw episode CSVs under {raw_dir}")
    results = []
    for scenario in SCENARIOS:
        if scenario not in groups:
            continue
        records = sorted(groups[scenario], key=lambda r: r.seed)
        results.append(results_from_records(
            scenario, [r.seed for r in records], records, target_occupancy_pct))
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
    """Trailing moving average along axis 0: row k is the mean of rows
    k - width + 1 .. k, or of rows 0 .. k while there are fewer.

    numpy adds fewer than eight terms in order, so up to width 7 each row
    equals ``series[max(0, k - width + 1):k + 1].mean(axis=0)`` bit for bit.
    """
    out = np.empty_like(series, dtype=float)
    head = min(width - 1, len(series))
    for k in range(head):
        out[k] = series[:k + 1].mean(axis=0)
    if len(series) >= width:
        out[head:] = sliding_window_view(series, width, axis=0).mean(axis=-1)
    return out


def _write_series(path: Path, result: ScenarioResult, sensor_ids) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "time_s", "sensor", "occupancy_pct",
                         "flow_vph", "occupancy_smooth_pct", "flow_smooth_vph"])
        for seed, record in zip(result.seeds, result.records):
            occ_s = _smooth(record.occupancy)
            flow_s = _smooth(record.flow)
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
    ``raw/`` so the tables can be rebuilt later without re-simulating; the
    episodes an earlier report left there are deleted first. Every episode
    must carry the config's sensor and ramp ids, in order; otherwise
    :class:`UsageError` names both lists.
    """
    if not results:
        raise UsageError("no scenario results to report")
    sensor_ids = [r.sensor_id for r in config.ramps]
    ramp_ids = [r.id for r in config.ramps]
    for res in results:
        for record in res.records:
            if (list(record.sensor_ids) != sensor_ids
                    or list(record.ramp_ids) != ramp_ids):
                raise UsageError(
                    f"{res.scenario} episode (seed {record.seed}) has sensors "
                    f"{list(record.sensor_ids)} and ramps {list(record.ramp_ids)}; "
                    f"the config has sensors {sensor_ids} and ramps {ramp_ids}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        # An earlier report's episodes would join this one's on a rebuild.
        for stale in raw_dir.glob("*-seed*.csv"):
            EpisodeRecord.sidecar_path(stale).unlink(missing_ok=True)
            stale.unlink()
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
        "runtime_s": {res.scenario: res.runtime_s for res in results
                      if res.runtime_s is not None},
        "time_split_s": {res.scenario: res.time_split_s for res in results
                         if res.time_split_s is not None},
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
