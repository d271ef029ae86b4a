#!/usr/bin/env python3
"""Watch a single receding-horizon solve, stage by stage.

Fits a sparse model from three quick excitation episodes, drops the planner
into a congested measurement, and prints the plan it chooses: the metering
rates over the horizon, the occupancies the model predicts under them, and
the solver's own diagnostics.
"""

import numpy as np

from rampnet.harness import make_controller
from rampnet.mpc import MpcConfig, solve
from rampnet.network import benchmark_config_path, load_config
from rampnet.plant import run_episode
from rampnet.sysid import discover_sindyc


def main():
    config = load_config(benchmark_config_path())
    print("fitting a sparse model from three ALINEA episodes...")
    records = [run_episode(config, make_controller("alinea", config.n_ramps),
                           seed=seed) for seed in (1, 2, 3)]
    model = discover_sindyc([(r.occupancy, r.rates) for r in records])

    # A congested but in-envelope snapshot: the first recorded step of an
    # ALINEA episode, where burn-in congestion is still being worked off.
    snapshot = records[0].occupancy[0]
    u_prev = records[0].rates[0]
    cfg = MpcConfig()
    print(f"\nmeasured occupancy: "
          f"{np.array2string(snapshot, precision=1, floatmode='fixed')}")
    print(f"previously applied rates: "
          f"{np.array2string(u_prev, precision=0, floatmode='fixed')}, "
          f"target {cfg.target_occupancy_pct:.0f}%")

    sol = solve(model, snapshot, u_prev, cfg)
    print(f"\nsolver: {sol.iterations} iterations, "
          f"objective {sol.objective:.1f}, bound penalty {sol.penalty:.3g}, "
          f"{1e3 * sol.solve_time_s:.0f} ms")
    for l, rates in enumerate(sol.plan):
        print(f"  stage {l}: "
              f"{np.array2string(rates, precision=0, floatmode='fixed')}")

    print("\npredicted mean occupancy along the horizon: "
          + " -> ".join(f"{row.mean():.1f}%" for row in sol.states))
    print("\nThe planner cuts hardest at the meters feeding the densest "
          "cells and lets the rest run; each stage is one 30 s control step, "
          "and only stage 0 is ever applied before replanning.")


if __name__ == "__main__":
    main()
