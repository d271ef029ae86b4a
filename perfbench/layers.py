"""Per-layer metrics of a traced run, and the solver statistics they share
with the untraced run's printout.

Conventions: ``<fn>.calls`` counts calls per traced unit; ``<fn>.us`` is the
mean self time per call; a ``_ms`` or ``_s`` suffix on a function name is its
mean inclusive duration per call. ``share.<layer>`` is the layer's self time
over the traced units' wall time. Solve times and solver health come from
``MpcController.diagnostics`` of the untraced units.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import SpanTable

# name -> unit; the order is the order of the JSON line and BENCHMARK.json.
PER_LAYER = {
    "mpc.solve.calls": "count",
    "mpc.solve_ms.p50.sindyc": "ms",
    "mpc.solve_ms.p90.sindyc": "ms",
    "mpc.solve_ms.p50.dmdc": "ms",
    "mpc.solve_ms.p90.dmdc": "ms",
    "mpc.solve.self_ms": "ms",
    "mpc.rollout.calls": "count",
    "mpc.rollout.us": "us",
    "mpc.objective.calls": "count",
    "mpc.objective.us": "us",
    "mpc.bound_penalty.calls": "count",
    "mpc.bound_penalty.us": "us",
    "mpc.iterations.p50": "count",
    "mpc.iterations.p95": "count",
    "mpc.iterations.max": "count",
    "mpc.converged_frac": "1",
    "mpc.at_cap_frac": "1",
    "mpc.fallbacks": "count",
    "mpc.rollouts_per_iter": "1",
    "sysid.evaluate.calls": "count",
    "sysid.evaluate.us": "us",
    "sysid.jacobian.calls": "count",
    "sysid.jacobian.us": "us",
    "sysid.model_read_share": "1",
    "sysid.discover_sindyc_s": "s",
    "sysid.stls_regress_s": "s",
    "sysid.build_library_ms": "ms",
    "sysid.differentiate_ms": "ms",
    "sysid.discover_dmdc_ms": "ms",
    "sysid.fit_report_ms": "ms",
    "sysid.save_load_ms": "ms",
    "sysid.rows": "count",
    "sysid.columns": "count",
    "sysid.active_terms": "count",
    "sysid.holdout_r2": "1",
    "plant.run_episode.calls": "count",
    "plant.step.calls": "count",
    "plant.us_per_sim_s": "us/s",
    "plant.read_window.us": "us",
    "plant.episode_self_s": "s",
    "plant.dropped_veh": "veh",
    "plant.clamp_events": "count",
    "feedback.controller.calls": "count",
    "feedback.controller.us": "us",
    "harness.report_ms": "ms",
    "harness.report_bytes": "B",
    "harness.load_raw_results_ms": "ms",
    "harness.load_logs_ms": "ms",
    "harness.collect_s": "s",
    "network.load_config_ms": "ms",
    "share.mpc": "1",
    "share.sysid_read": "1",
    "share.sysid_fit": "1",
    "share.plant": "1",
    "share.feedback": "1",
    "share.harness": "1",
    "share.unattributed": "1",
    "trace_overhead_frac": "1",
}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def solver_health(episodes) -> dict:
    """Iteration, convergence and fallback figures from controller diagnostics."""
    entries = [(d, ep.max_iters) for ep in episodes for d in ep.diagnostics or ()]
    solved = [(d, cap) for d, cap in entries if not d["fallback"]]
    iters = [d["iterations"] for d, _ in solved]
    n = len(solved)
    return {
        "iterations.p50": pct(iters, 50),
        "iterations.p95": pct(iters, 95),
        "iterations.max": float(max(iters, default=0)),
        "converged_frac": sum(d["converged"] for d, _ in solved) / n if n else 0.0,
        "at_cap_frac": sum(d["iterations"] == cap for d, cap in solved) / n if n else 0.0,
        "fallbacks": float(len(entries) - n),
        "iterations_total": float(sum(iters)),
    }


def solve_ms(episodes, scenario=None) -> list[float]:
    return [1e3 * d["solve_time_s"] for ep in episodes
            if scenario is None or ep.scenario == scenario
            for d in ep.diagnostics or () if not d["fallback"]]


def holdout_r2(units) -> list[float]:
    return [u.holdout_r2["sindyc"] for u in units if "sindyc" in u.holdout_r2]


def episode_minus_controller(table: SpanTable) -> float:
    """Mean episode time less the controller calls made inside it (s)."""
    episodes = table.mask("plant.run_episode")
    if not episodes.any():
        return 0.0
    ctrl = table.mask("feedback.controller") | table.mask("mpc.solve")
    in_ctrl = np.bincount(table.parent[ctrl], weights=table.duration[ctrl],
                          minlength=len(table.duration))
    return float(np.mean(table.duration[episodes] - in_ctrl[episodes]))


def per_layer(run) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced run (0 where a layer is idle)."""
    table = SpanTable(run.tracer)
    body = table.inside("benchmark.unit")
    n_units = len(run.traced_units)
    wall = table.total("benchmark.unit")
    episodes = [ep for out in run.units for ep in out.episodes]
    traced_episodes = [ep for out in run.traced_units for ep in out.episodes]

    def per_unit(name):
        return table.calls(name, body) / n_units

    def mean_ms(name):
        return 1e3 * table.mean(name)

    def self_us(name):
        return 1e6 * table.mean(name, body, self_only=True)

    m: dict[str, float] = {}
    n_solve = table.calls("mpc.solve", body)
    solve_total = table.total("mpc.solve", body)
    m["mpc.solve.calls"] = per_unit("mpc.solve")
    for scenario, tag in (("sindyc-mpc", "sindyc"), ("dmd-mpc", "dmdc")):
        times = solve_ms(episodes, scenario)
        m[f"mpc.solve_ms.p50.{tag}"] = pct(times, 50)
        m[f"mpc.solve_ms.p90.{tag}"] = pct(times, 90)
    m["mpc.solve.self_ms"] = (1e3 * table.total("mpc.solve", body, self_only=True)
                              / n_solve if n_solve else 0.0)
    for fn in ("rollout", "objective", "bound_penalty"):
        m[f"mpc.{fn}.calls"] = per_unit(f"mpc.{fn}")
        m[f"mpc.{fn}.us"] = self_us(f"mpc.{fn}")
    health = solver_health(episodes)
    for key in ("iterations.p50", "iterations.p95", "iterations.max",
                "converged_frac", "at_cap_frac", "fallbacks"):
        m[f"mpc.{key}"] = health[key]
    traced_iters = solver_health(traced_episodes)["iterations_total"]
    m["mpc.rollouts_per_iter"] = (table.calls("mpc.rollout", body) / traced_iters
                                  if traced_iters else 0.0)

    reads = 0.0
    for fn in ("evaluate", "jacobian"):
        m[f"sysid.{fn}.calls"] = per_unit(f"sysid.{fn}")
        m[f"sysid.{fn}.us"] = self_us(f"sysid.{fn}")
        reads += table.total(f"sysid.{fn}", body, self_only=True)
    m["sysid.model_read_share"] = reads / solve_total if solve_total else 0.0
    m["sysid.discover_sindyc_s"] = table.mean("sysid.discover_sindyc")
    m["sysid.stls_regress_s"] = table.mean("sysid.stls_regress")
    m["sysid.build_library_ms"] = mean_ms("sysid.build_library")
    m["sysid.differentiate_ms"] = mean_ms("sysid.differentiate")
    m["sysid.discover_dmdc_ms"] = mean_ms("sysid.discover_dmdc")
    m["sysid.fit_report_ms"] = mean_ms("sysid.fit_report")
    m["sysid.save_load_ms"] = mean_ms("sysid.save_load")
    models = [run.setup.models] + [u.models for u in run.units]
    sindyc = next((ms["sindyc"] for ms in models if "sindyc" in ms), None)
    m["sysid.rows"] = float(sindyc.provenance.get("samples", 0) if sindyc else 0)
    m["sysid.columns"] = float(sindyc.n_columns if sindyc else 0)
    m["sysid.active_terms"] = float(sindyc.active_count().sum() if sindyc else 0)
    r2 = holdout_r2(run.units)
    m["sysid.holdout_r2"] = float(np.mean(r2)) if r2 else 0.0

    steps = table.calls("plant.step")
    sim_s = steps * run.setup.config.sim_step_s
    m["plant.run_episode.calls"] = per_unit("plant.run_episode")
    m["plant.step.calls"] = per_unit("plant.step")
    m["plant.us_per_sim_s"] = (1e6 * table.total("plant.step", self_only=True) / sim_s
                               if steps else 0.0)
    m["plant.read_window.us"] = 1e6 * table.mean("plant.read_window", self_only=True)
    m["plant.episode_self_s"] = episode_minus_controller(table)
    m["plant.dropped_veh"] = (float(np.mean([ep.record.dropped_veh for ep in episodes]))
                              if episodes else 0.0)
    m["plant.clamp_events"] = float(sum(ep.record.clamp_events for ep in episodes))
    m["feedback.controller.calls"] = per_unit("feedback.controller")
    m["feedback.controller.us"] = self_us("feedback.controller")

    m["harness.report_ms"] = mean_ms("harness.report")
    m["harness.report_bytes"] = float(max((u.report_bytes for u in run.units), default=0))
    m["harness.load_raw_results_ms"] = mean_ms("harness.load_raw_results")
    m["harness.load_logs_ms"] = mean_ms("harness.load_logs")
    m["harness.collect_s"] = table.total("harness.collect", ~body)
    m["network.load_config_ms"] = mean_ms("network.load_config")

    shares = table.layer_self(body)
    for layer in ("mpc", "sysid_read", "sysid_fit", "plant", "feedback", "harness"):
        m[f"share.{layer}"] = shares.get(layer, 0.0) / wall
    m["share.unattributed"] = shares.get("benchmark", 0.0) / wall
    m["trace_overhead_frac"] = (statistics.median(run.traced_s)
                                / statistics.median(run.unit_s) - 1.0)
    return m
