#!/usr/bin/env python3
"""How far ahead is worth planning: horizon length versus cost and payoff.

Fits the sparse model once, then runs full closed-loop episodes at several
planning horizons. Replanning every 30 s forgives short sight, so tracking
changes only marginally with N while the solve cost grows with every extra
stage.
"""

from rampnet.harness import horizon_sweep, make_controller
from rampnet.network import benchmark_config_path, load_config
from rampnet.plant import run_episode
from rampnet.sysid import discover_sindyc

HORIZONS = (2, 3, 4, 5, 6)
SEED = 21


def main():
    config = load_config(benchmark_config_path())
    print("fitting the sparse model from four excitation episodes...")
    records = [run_episode(config, make_controller("alinea", config.n_ramps),
                           seed=seed) for seed in (1, 2, 3, 4)]
    model = discover_sindyc([(r.occupancy, r.rates) for r in records])

    print(f"sweeping horizons {HORIZONS} on evaluation seed {SEED}...\n")
    rows = horizon_sweep(model, config, horizons=HORIZONS, seeds=(SEED,))
    print(f"{'N':>3} {'|occ-15%| %':>12} {'flow veh/h':>11} "
          f"{'solve ms':>9} {'episode s':>10}")
    for row in rows:
        print(f"{row['horizon']:>3} {row['mean_abs_deviation_pct']:12.3f} "
              f"{row['mean_flow_vph']:11.1f} {row['mean_solve_ms']:9.1f} "
              f"{row['runtime_s']:10.1f}")

    devs = [row["mean_abs_deviation_pct"] for row in rows]
    first, last = rows[0], rows[-1]
    print(f"\nTracking moves by {max(devs) - min(devs):.3f} points across the "
          f"sweep ({min(devs):.3f}-{max(devs):.3f} %), while the mean solve "
          f"takes {first['mean_solve_ms']:.1f} ms at N={first['horizon']} and "
          f"{last['mean_solve_ms']:.1f} ms at N={last['horizon']}.")


if __name__ == "__main__":
    main()
