#!/usr/bin/env python3
"""Discover the corridor's dynamics from metering logs, then read the model.

Collects three ALINEA excitation episodes, fits the sparse quadratic model
and the linear baseline from the same log, scores both on three held-out
episodes, and prints what the sparse regression kept. The interesting terms are the x*u products: admitted ramp
flow braking the merge cell it lands on, which no linear model can separate
from plain relaxation.
"""

from rampnet.network import benchmark_config_path, load_config
from rampnet.plant import run_episode
from rampnet.harness import make_controller
from rampnet.sysid import discover_dmdc, discover_sindyc, fit_report

TRAIN_SEEDS = (1, 2, 3)
HOLDOUT_SEEDS = (11, 12, 13)


def collect(config, seeds):
    print(f"collecting {len(seeds)} ALINEA episodes "
          f"(seeds {', '.join(map(str, seeds))})...")
    return [run_episode(config, make_controller("alinea", config.n_ramps),
                        seed=seed) for seed in seeds]


def main():
    config = load_config(benchmark_config_path())
    records = collect(config, TRAIN_SEEDS)
    log = [(r.occupancy, r.rates) for r in records]
    print(f"log: {sum(len(r) for r in records)} control steps, "
          f"{records[0].occupancy.shape[1]} sensors, "
          f"{records[0].rates.shape[1]} meters")

    sparse = discover_sindyc(log)
    linear = discover_dmdc(log)
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


if __name__ == "__main__":
    main()
