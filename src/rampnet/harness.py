"""End-to-end experiment harness: collect logs, fit, run scenarios, report.

The standard experiment compares five metering scenarios on identical demand
realizations (same seeds, and the plant draws arrivals independently of
control): no control (meters pinned wide open), the two local feedback
regulators, and predictive control on the linear and on the sparse
polynomial model. ``pipeline`` runs the whole experiment through its files,
as the CLI does. ``run_scenarios`` is the one episode loop: collection and
the horizon sweep run through it too. Where the fork start method exists it
runs the episodes in worker processes forked from the caller, one per usable
CPU; each episode is computed as it would be in the caller, so every byte of
every result is the same. A report is three CSV tables, a
summary JSON keyed by a hash of the exact network config, and the raw
episodes, each with a JSON sidecar that also holds its planner steps; the
summary can be rebuilt from them. One writer names collected and raw episode
files alike, and one reader refuses a directory of two networks.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sysid
from .feedback import (ALINEA_GAINS, NO_CONTROL_GAINS, PI_ALINEA_GAINS,
                       RATE_MAX_VPH, TARGET_OCCUPANCY_PCT, MeterBank,
                       green_percentage)
from .mpc import MpcConfig, MpcController
from .network import NetworkConfig, neighbourhood_masks, serialize_config
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
    "fit",
    "run_scenarios",
    "horizon_sweep",
    "pipeline",
    "results_from_records",
    "load_raw_results",
    "report",
]

SCENARIOS = ("no-control", "alinea", "pi-alinea", "dmd-mpc", "sindyc-mpc")
FEEDBACK_CONTROLLERS = ("alinea", "pi-alinea")
# (kp, ki) of the local law in each feedback-metered scenario
_LOCAL_GAINS = {"no-control": NO_CONTROL_GAINS, "alinea": ALINEA_GAINS,
                "pi-alinea": PI_ALINEA_GAINS}


class UsageError(ValueError):
    """A caller asked for something the harness cannot honor."""


def make_controller(name: str, n_ramps: int,
                    target_occupancy_pct: float = TARGET_OCCUPANCY_PCT,
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
    """Run one excitation episode per seed under a feedback regulator and
    write each as a report's ``raw/`` does; only feedback regulators collect."""
    if controller_name not in FEEDBACK_CONTROLLERS:
        raise UsageError(
            f"collection needs a feedback controller {FEEDBACK_CONTROLLERS}, "
            f"got '{controller_name}'")
    results = run_scenarios(config, None, None, seeds, scenarios=(controller_name,))
    return _write_episodes(results, Path(out_dir))


def load_logs(log_dir, config: NetworkConfig | None = None
              ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read every episode CSV under a directory, in name order, as the
    ``(occupancy, rates)`` pairs that :mod:`rampnet.sysid` fits as
    ``(states, inputs)``, one pair per episode, all of one network. Given a
    ``config``, episodes whose sensor or ramp ids are not the config's, in
    order, are refused with :class:`UsageError`."""
    episodes = _read_episodes(log_dir)
    if config is not None:
        _check_ids(config, [(path.name, record) for path, record in episodes])
    return [(r.occupancy, r.rates) for _, r in episodes]


def fit(config: NetworkConfig, log, method: str,
        provenance: dict | None = None) -> SparseModel:
    """The pipeline's ``method`` ("sindyc" or "dmdc") model of ``log`` on
    ``config``'s network: SINDYc fits each sensor on the sensors and meters
    of its road neighbourhood, DMDc is the linear baseline."""
    if method == "sindyc":
        return sysid.discover_sindyc(log, provenance,
                                     masks=neighbourhood_masks(config))
    if method == "dmdc":
        return sysid.discover_dmdc(log, provenance)
    raise UsageError(f"unknown fit method '{method}'; pick 'sindyc' or 'dmdc'")


def _check_ids(config: NetworkConfig, episodes) -> None:
    """:class:`UsageError` naming the first ``(label, record)`` whose sensor
    or ramp ids differ from ``config``'s, and both lists."""
    sensor_ids = [r.sensor_id for r in config.ramps]
    ramp_ids = [r.id for r in config.ramps]
    for label, record in episodes:
        if (list(record.sensor_ids) != sensor_ids
                or list(record.ramp_ids) != ramp_ids):
            raise UsageError(
                f"{label} has sensors {list(record.sensor_ids)} and ramps "
                f"{list(record.ramp_ids)}; the config has sensors {sensor_ids} "
                f"and ramps {ramp_ids}")


# The one file-name rule of an episode directory: ``collect``'s logs and a
# report's ``raw/`` are written by it, and ``load_raw_results`` checks it.
def _episode_name(scenario: str, seed: int) -> str:
    return f"{scenario}-seed{seed}.csv"


def _write_episodes(results, directory: Path) -> list[Path]:
    """Write every episode of ``results`` under ``directory``, CSV and
    sidecar, named by its scenario and its own seed."""
    directory.mkdir(parents=True, exist_ok=True)
    episodes = [(directory / _episode_name(res.scenario, record.seed), record)
                for res in results for record in res.records]
    for path, record in episodes:
        record.to_csv(path)
    return [path for path, _ in episodes]


def _read_episodes(directory) -> list[tuple[Path, EpisodeRecord]]:
    """Every episode CSV under ``directory`` with its path, in file-name
    order. They must share sensor ids, ramp ids and control step."""
    paths = sorted(Path(directory).glob("*.csv"))
    if not paths:
        raise UsageError(f"no episode CSVs found under {directory}")
    try:
        episodes = [(path, EpisodeRecord.from_csv(path)) for path in paths]
    except ValueError as exc:
        raise UsageError(f"unusable episode under {directory}: {exc}") from exc

    def network(record):
        return (f"sensors {list(record.sensor_ids)}, ramps {list(record.ramp_ids)}"
                f" and a {record.control_step_s} s control step")

    (first, head), *rest = episodes
    for path, record in rest:
        if network(record) != network(head):
            raise UsageError(f"two networks under {directory}: {first.name} has "
                             f"{network(head)}; {path.name} has {network(record)}")
    return episodes


@dataclass
class ScenarioResult:
    """Per-scenario metrics aggregated over seeds, plus the raw episodes."""

    scenario: str
    seeds: tuple[int, ...]
    records: list[EpisodeRecord]
    mean_abs_deviation: np.ndarray  # (n,) % per sensor
    mean_flow: np.ndarray  # (n,) veh/h per sensor
    green_pct: np.ndarray  # (m,) per ramp, from the commanded rates

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
        read back from CSV, which do not carry the split. Each episode
        measures its own wall time, while other episodes may run beside it,
        so the sum can exceed the time the call took."""
        splits = [r.time_split_s for r in self.records]
        if any(split is None for split in splits):
            return None
        return {part: sum(split[part] for split in splits) for part in splits[0]}

    @property
    def measured_green_pct(self) -> np.ndarray:
        """(m,) share of recorded time (%) each meter showed green in the
        plant. Rates latch at the next signal cycle, so this trails
        ``green_pct``, which is derived from the commanded rates."""
        green = np.sum([r.green_seconds for r in self.records], axis=0)
        recorded_s = sum(len(r) * r.control_step_s for r in self.records)
        return 100.0 * green / recorded_s

    def solver_health(self) -> dict | None:
        """Planner figures over the records' ``solver_steps``, or None for a
        scenario without a planner. One pass classifies every control step
        of every seed once: a fallback, a hand-over to ALINEA (outside the
        model's envelope, no solve) or a solve, in the burn-in or the
        recorded windows. Over all solves: the converged share, iteration
        and solve-time percentiles (p50/p95/max), and the fallbacks; of the
        burn-in and of the recorded windows apart: the solves, the
        hand-overs, capped solves (the iteration cap ended them, not the
        optimality test), stalled solves (they stopped with iterations to
        spare, neither converged nor capped: no halving of the step lowered
        the cost), total iterations, solve seconds and planner microseconds
        per iteration (solve seconds over iterations, None without one)."""
        if all(record.solver_steps is None for record in self.records):
            return None
        solves = {"burn_in": [], "recorded": []}
        handed_over = {"burn_in": 0, "recorded": 0}
        fallbacks = 0
        for record in self.records:
            for step in record.solver_steps or ():
                window = ("recorded" if step["time_s"] >= record.times[0]
                          else "burn_in")
                if step["fallback"]:
                    fallbacks += 1
                elif step.get("handed_over", False):
                    handed_over[window] += 1
                else:
                    solves[window].append(step)
        solved = solves["burn_in"] + solves["recorded"]

        def spread(values):
            if not values:
                return {"p50": None, "p95": None, "max": None}
            return {"p50": float(np.percentile(values, 50)),
                    "p95": float(np.percentile(values, 95)),
                    "max": float(np.max(values))}

        def totals(window, handed_over):
            iterations = sum(step["iterations"] for step in window)
            solve_s = sum(step["solve_time_s"] for step in window)
            return {"solves": len(window),
                    "handed_over": handed_over,
                    "capped": sum(step["capped"] for step in window),
                    "stalled": sum(not (step["converged"] or step["capped"])
                                   for step in window),
                    "iterations": iterations,
                    "solve_s": solve_s,
                    "us_per_iteration": (1e6 * solve_s / iterations
                                         if iterations else None)}

        return {
            "solves": len(solved),
            "converged_frac": (sum(step["converged"] for step in solved) / len(solved)
                               if solved else None),
            "iterations": spread([step["iterations"] for step in solved]),
            "solve_ms": spread([1e3 * step["solve_time_s"] for step in solved]),
            "fallbacks": fallbacks,
            "burn_in": totals(solves["burn_in"], handed_over["burn_in"]),
            "recorded": totals(solves["recorded"], handed_over["recorded"]),
        }


def results_from_records(scenario: str, seeds, records,
                         target_occupancy_pct: float = TARGET_OCCUPANCY_PCT
                         ) -> ScenarioResult:
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
    )


def run_scenarios(config: NetworkConfig, sindyc: SparseModel,
                  dmdc: SparseModel, seeds, scenarios=SCENARIOS,
                  horizon: int = MpcConfig.horizon) -> list[ScenarioResult]:
    """Run every scenario on every seed and aggregate the standard metrics.

    Episodes are independent (own plant, own RNG, own controller), so each
    ``(scenario, seed)`` pair is one job, and the jobs run in forked worker
    processes (see ``_map_episodes``); results come back in scenario order,
    and each scenario's episodes run and come back in ascending seed order,
    the order in which a report lists them and ``load_raw_results`` reads
    them back. The planners look ``horizon`` control steps ahead, and every
    controller steers to ``feedback.TARGET_OCCUPANCY_PCT``. Each scenario's
    ``time_split_s`` sums its own episodes' time split, each measured in the
    process that ran the episode, and each planner episode's record carries
    the planner's diagnostics as its ``solver_steps``. A model whose state or
    input count is not the network's ramp count, or a seed or scenario given
    twice (its episode files would share a name), is refused before any
    episode runs; an episode's exception is raised here, typed as it was
    raised.
    """
    seeds = sorted(int(s) for s in seeds)
    if not seeds:
        raise UsageError("no seeds given; at least one episode is needed")
    _refuse_repeats("seed", seeds)
    scenarios = tuple(scenarios)
    _refuse_repeats("scenario", scenarios)
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

    jobs = [(scenario, seed) for scenario in scenarios for seed in seeds]
    episode = functools.partial(_episode, config, sindyc, dmdc,
                                MpcConfig(horizon=horizon))
    records = _map_episodes(episode, jobs)
    return [results_from_records(scenario, seeds,
                                 records[k * len(seeds):(k + 1) * len(seeds)])
            for k, scenario in enumerate(scenarios)]


def _refuse_repeats(kind: str, values) -> None:
    """:class:`UsageError` if a seed or scenario appears twice in ``values``:
    its episode files, named by both, would overwrite each other."""
    if len(set(values)) != len(values):
        raise UsageError(f"{kind}s {list(values)} repeat; a {kind} may appear "
                         f"only once (its episode files are named by {kind})")


def _episode(config, sindyc, dmdc, mpc_config, job) -> EpisodeRecord:
    """One ``(scenario, seed)`` job of ``run_scenarios``: a fresh controller,
    its episode, and the planner's diagnostics as the record's
    ``solver_steps``, in whichever process takes the job. It calls
    ``run_episode`` through this module's global, so a wrapper set on
    ``harness.run_episode`` (perfbench's tracer) sees the episodes that run
    in the calling process."""
    scenario, seed = job
    controller = make_controller(scenario, config.n_ramps, sindyc=sindyc,
                                 dmdc=dmdc, mpc_config=mpc_config)
    record = run_episode(config, controller, seed=seed)
    record.solver_steps = getattr(controller, "diagnostics", None)
    return record


def _map_episodes(episode, jobs) -> list[EpisodeRecord]:
    """``episode`` over ``jobs``, results in job order, run by worker
    processes forked from this one, one per usable CPU up to one per job.
    They run here in turn instead with one CPU or one job, without the fork
    start method, when ``episode`` does not pickle (no worker could receive
    it; the pool would wait forever), or while another thread runs here (a
    fork copies only the calling thread, so a lock another thread holds
    would stay held in the worker). Fork, not spawn: a spawned worker would
    import numpy and rampnet again; a forked one inherits the log handlers.
    A job's exception is raised here, after every worker has exited."""
    workers = min(len(jobs), sysid._usable_cpus())
    try:
        pickle.dumps(episode)
    except (pickle.PicklingError, TypeError, AttributeError):
        workers = 1
    if workers > 1 and threading.active_count() == 1:
        # Imported here, not with the module: +1.2 MB of peak RSS that a
        # process which never pools (a regulator-only run) would carry.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(episode, jobs))
            finally:
                pool.shutdown(cancel_futures=True)
    return list(map(episode, jobs))


def horizon_sweep(model: SparseModel, config: NetworkConfig,
                  horizons, seeds) -> list[dict]:
    """Run the ``sindyc-mpc`` scenario on ``model`` at each horizon.

    Returns one dict per horizon with the mean absolute occupancy deviation,
    mean sensor flow, mean per-solve time (the solve seconds of
    ``solver_health`` over its solves; NaN without one), and the scenario's
    runtime over the given seeds, the sum of its time split (episode wall
    seconds, which overlap when the seeds' episodes run side by side).
    Each horizon is one ``run_scenarios`` call, so only its seeds share the
    worker processes.
    """
    rows = []
    for n in horizons:
        result, = run_scenarios(config, model, None, seeds,
                                scenarios=("sindyc-mpc",), horizon=int(n))
        health = result.solver_health()
        solve_s = health["burn_in"]["solve_s"] + health["recorded"]["solve_s"]
        rows.append({
            "horizon": int(n),
            "mean_abs_deviation_pct": result.average_deviation,
            "mean_flow_vph": result.average_flow,
            "mean_solve_ms": (1e3 * solve_s / health["solves"] if health["solves"]
                              else float("nan")),
            "runtime_s": sum(result.time_split_s.values()),
        })
    return rows


def load_raw_results(raw_dir, target_occupancy_pct: float = TARGET_OCCUPANCY_PCT
                     ) -> list[ScenarioResult]:
    """Rebuild scenario results from raw episode CSVs written by ``report``,
    each with its JSON sidecar (see :meth:`EpisodeRecord.from_csv`). A CSV not
    named ``<scenario>-seed<N>.csv``, N its sidecar's seed, is refused."""
    groups: dict[str, list[EpisodeRecord]] = {name: [] for name in SCENARIOS}
    for path, record in sorted(_read_episodes(raw_dir), key=lambda e: e[1].seed):
        scenario = path.stem.rsplit("-seed", 1)[0]
        if scenario not in groups or path.name != _episode_name(scenario, record.seed):
            raise UsageError(f"raw episode {path} holds seed {record.seed}; expected "
                             f"<scenario>-seed{record.seed}.csv, scenario in {SCENARIOS}")
        groups[scenario].append(record)
    return [results_from_records(name, [r.seed for r in group], group,
                                 target_occupancy_pct)
            for name, group in groups.items() if group]


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


@functools.lru_cache(maxsize=8)
def _config_sha256(config: NetworkConfig) -> str:
    """SHA-256 of the config's YAML, once per config: serialising it is most
    of a small report's time."""
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def report(results: list[ScenarioResult], out_dir, config: NetworkConfig,
           models: dict | None = None, write_raw: bool = True) -> dict:
    """Write the comparison tables, the raw episodes and the summary JSON.

    Returns a dict naming everything written. The flow improvement table,
    relative to the no-control scenario, is written only when that scenario
    is among the results; otherwise one an earlier report left is deleted.
    Raw episode CSVs go under ``raw/``, each with its sidecar (planner steps
    included), so the tables and the summary, apart from ``time_split_s`` and
    ``models``, can be rebuilt later without re-simulating; the episodes an
    earlier report left there are deleted first. Every episode must carry
    the config's sensor and ramp ids, in order; otherwise :class:`UsageError`
    names both lists. A scenario may appear only once among the results;
    both checks run before anything is written.
    """
    if not results:
        raise UsageError("no scenario results to report")
    _refuse_repeats("scenario", [res.scenario for res in results])
    _check_ids(config, [(f"{res.scenario} episode (seed {record.seed})", record)
                        for res in results for record in res.records])
    sensor_ids = [r.sensor_id for r in config.ramps]
    ramp_ids = [r.id for r in config.ramps]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    paths: dict[str, object] = {}
    dev_path = out_dir / "deviation_table.csv"
    _write_table(dev_path, sensor_ids,
                 {res.scenario: res.mean_abs_deviation for res in results})
    paths["deviation_table"] = dev_path

    flow_path = out_dir / "flow_improvement_table.csv"
    baseline = next((res for res in results if res.scenario == "no-control"),
                    None)
    if baseline is None:
        flow_path.unlink(missing_ok=True)  # an earlier report's gains
    else:
        _write_table(flow_path, sensor_ids, {
            res.scenario: res.mean_flow - baseline.mean_flow
            for res in results if res.scenario != "no-control"})
        paths["flow_improvement_table"] = flow_path

    green_path = out_dir / "green_percentage_table.csv"
    _write_table(green_path, ramp_ids,
                 {res.scenario: res.green_pct for res in results})
    paths["green_percentage_table"] = green_path

    if write_raw:
        raw_dir = out_dir / "raw"
        # An earlier report's episodes would join this one's on a rebuild.
        for stale in raw_dir.glob("*-seed*.csv"):
            EpisodeRecord.sidecar_path(stale).unlink(missing_ok=True)
            stale.unlink()
        paths["raw"] = _write_episodes(results, raw_dir)

    summary = {
        "config_sha256": _config_sha256(config),
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
        "time_split_s": {res.scenario: res.time_split_s for res in results
                         if res.time_split_s is not None},
        "solver": {res.scenario: health for res in results
                   if (health := res.solver_health()) is not None},
        "models": {name: model.provenance
                   for name, model in (models or {}).items()},
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    paths["summary"] = summary_path
    return paths


# -- the whole pipeline -----------------------------------------------------------

def pipeline(config: NetworkConfig, train_seeds, holdout_seeds, eval_seeds,
             root) -> tuple[dict, dict, list[ScenarioResult], dict]:
    """The whole experiment through its files, as the CLI runs it: ALINEA
    logs of ``train_seeds`` under ``root/"logs"``, both fits on them, their
    scores on ALINEA logs of ``holdout_seeds`` under ``root/"holdout"`` (none
    without holdout seeds), the five scenarios on ``eval_seeds`` and their
    report under ``root/"report"``; every log is read with ``config``'s id
    check. Returns the models and the fit reports, each keyed "sindyc" and
    "dmdc", the results, and the wall seconds of the phases
    ``collect_train``, ``fit``, ``holdout`` (with holdout seeds), ``run`` and
    ``report``. ``load_logs`` reads every episode CSV of a directory, so a
    root whose ``logs/`` or ``holdout/`` already holds one is refused with
    :class:`UsageError` before anything runs: its fit and scores would mix
    in episodes of other seeds. So are holdout seeds that are training
    seeds: their scores would be of logs the fit trained on. No file is
    deleted."""
    shared = sorted(set(map(int, train_seeds)) & set(map(int, holdout_seeds)))
    if shared:
        raise UsageError(f"holdout seeds {shared} are training seeds too; a "
                         f"holdout score must be of logs the fit never saw")
    root = Path(root)
    for directory in (root / "logs", root / "holdout"):
        stale = sorted(directory.glob("*.csv"))
        if stale:
            raise UsageError(f"{directory} already holds episode CSVs "
                             f"({stale[0].name} first); pipeline fits and "
                             f"scores only the logs it collects, so give it "
                             f"a fresh root")
    seconds, clock = {}, [time.perf_counter()]

    def lap(phase):
        clock.append(time.perf_counter())
        seconds[phase] = clock[-1] - clock[-2]

    collect(config, "alinea", train_seeds, root / "logs")
    lap("collect_train")
    log = load_logs(root / "logs", config)
    models = {method: fit(config, log, method) for method in ("sindyc", "dmdc")}
    lap("fit")
    fit_reports = {}
    if holdout_seeds:
        collect(config, "alinea", holdout_seeds, root / "holdout")
        holdout = load_logs(root / "holdout", config)
        fit_reports = {name: sysid.fit_report(model, holdout)
                       for name, model in models.items()}
        lap("holdout")
    results = run_scenarios(config, models["sindyc"], models["dmdc"], eval_seeds)
    lap("run")
    report(results, root / "report", config, models=models)
    lap("report")
    return models, fit_reports, results, seconds
