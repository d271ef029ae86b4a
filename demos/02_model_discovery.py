#!/usr/bin/env python3
"""Discover the corridor's dynamics from metering logs, read the model, plan.

Collects three ALINEA excitation episodes, fits the sparse quadratic model
and the linear baseline from the same log, scores both on three held-out
episodes, and prints what the sparse regression kept. The interesting terms
are the x*u products: admitted ramp flow braking the merge cell it lands on,
which no linear model can separate from plain relaxation.

Then it drops the planner, on that sparse model, into the first recorded
step of the first training episode and prints the plan it chooses: the
metering rates over the horizon, the occupancies the model predicts under
them, and the solver's own diagnostics.
"""

import numpy as np

from rampnet.network import benchmark_config_path, load_config
from rampnet.harness import fit, run_scenarios
from rampnet.mpc import MpcConfig, solve
from rampnet.sysid import fit_report

TRAIN_SEEDS = (1, 2, 3)
HOLDOUT_SEEDS = (11, 12, 13)


def collect(config, seeds):
    print(f"collecting {len(seeds)} ALINEA episodes "
          f"(seeds {', '.join(map(str, seeds))})...")
    return run_scenarios(config, None, None, seeds, scenarios=("alinea",))[0].records


def main():
    config = load_config(benchmark_config_path())
    records = collect(config, TRAIN_SEEDS)
    log = [(r.occupancy, r.rates) for r in records]
    print(f"log: {sum(len(r) for r in records)} control steps, "
          f"{records[0].occupancy.shape[1]} sensors, "
          f"{records[0].rates.shape[1]} meters")

    # each sensor's library spans its road neighbourhood only
    sparse = fit(config, log, "sindyc")
    linear = fit(config, log, "dmdc")
    holdout = [(r.occupancy, r.rates) for r in collect(config, HOLDOUT_SEEDS)]
    scores = {"sparse quadratic": fit_report(sparse, holdout),
              "linear baseline": fit_report(linear, holdout)}
    for name, score in scores.items():
        print(f"\n{name} fit, held out: {score.summary()}")
    print(f"active terms per sensor: {sparse.active_count().tolist()} "
          f"out of {sparse.n_columns} columns")

    sensor = 0
    print(f"\nwhat drives sensor {config.ramps[sensor].sensor_id}:")
    for label, coef in sorted(sparse.active_terms(sensor),
                              key=lambda lc: -abs(lc[1])):
        print(f"  {coef:+12.6g} * {label}")
    print("\nThe x1*u1 product is the admission braking: the same metered "
          "inflow costs the merge cell more discharge when it already runs "
          "dense. The linear baseline has to smear that interaction across "
          "its 17 fixed columns, which is where its held-out accuracy goes: "
          f"mean R2 {scores['linear baseline'].mean_r2:.3f} against "
          f"{scores['sparse quadratic'].mean_r2:.3f}.")

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

    sol = solve(sparse, snapshot, u_prev, cfg)
    print(f"\nsolver: {sol.iterations} iterations, objective {sol.objective:.1f}, "
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
