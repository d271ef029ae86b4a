#!/usr/bin/env python3
"""Does the closed-loop ranking hold across seeds? Ten base seeds.

For each base seed b, one ``harness.pipeline`` call runs ALINEA excitation
episodes on seeds b+1..b+4, fits SINDYc and DMDc from their CSV logs as the
CLI does (the logs hold every value exactly, so these are the fits of the
episodes themselves) and runs the five scenarios on evaluation seed b+21
(b+21..b+23 with ``--three-eval``).

Per base seed and scenario it prints tracking (mean |occupancy - 15 %|),
sensor flow, the flow gain over no-control, the green share of the commanded
rates, ALINEA's tracking on the same seed, and the planner's iterations and
capped solves (the 200-iteration cap ended them, not the optimality test).
A summary per planner follows; it also counts stalled solves (stopped with
iterations to spare, not converged) and the windows handed over to ALINEA,
where a sensor read outside the model's envelope. Base seed 0 alone is the
headline five-way comparison: training seeds 1-4, evaluation seed 21.

    python3 demos/06_seed_robustness.py                  # base seeds 0-9
    python3 demos/06_seed_robustness.py --base-seeds 0   # the headline run
    python3 demos/06_seed_robustness.py --base-seeds 0-39
    python3 demos/06_seed_robustness.py --base-seeds 0,5,7-9 --three-eval
"""

import argparse
import tempfile

import numpy as np

from rampnet.harness import SCENARIOS, pipeline
from rampnet.network import benchmark_config_path, load_config

TRAIN_OFFSETS = (1, 2, 3, 4)
EVAL_OFFSET = 21
PLANNERS = ("dmd-mpc", "sindyc-mpc")
COUNTS = ("iterations", "capped", "stalled", "handed_over")  # planner totals


def parse_base_seeds(text):
    """Base seeds from comma separated seeds and inclusive ranges: "0-39",
    "0,5,7-9"."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        first = int(first)
        last = int(last) if dash else first
        if last < first:
            raise ValueError(f"empty range {part}")
        seeds += range(first, last + 1)
    return seeds


def _figures(result):
    figures = {"dev": result.average_deviation, "flow": result.average_flow,
               "green": result.average_green_pct}
    health = result.solver_health()
    if health is not None:
        windows = (health["burn_in"], health["recorded"])
        figures.update({key: sum(w[key] for w in windows) for key in COUNTS},
                       controller_s=result.time_split_s["controller"])
    return figures


def run_base_seed(config, base, eval_seeds):
    """One base seed: {scenario: figures}."""
    with tempfile.TemporaryDirectory() as root:
        _, _, results, _ = pipeline(config, [base + k for k in TRAIN_OFFSETS],
                                    (), eval_seeds, root)
    return {res.scenario: _figures(res) for res in results}


def _summary(name, rows, alinea, bases):
    devs = np.array([row["dev"] for row in rows])
    worst = int(np.argmax(devs))
    worse = int(np.sum(devs > alinea))
    counts = "  ".join(f"{key.replace('_', ' ')} {sum(r[key] for r in rows)}"
                       for key in COUNTS)
    print(f"{name:>11}: mean {devs.mean():.3f} %  median "
          f"{np.median(devs):.3f} %  worst {devs[worst]:.3f} % (base "
          f"{bases[worst]})  worse than ALINEA on {worse}/{len(devs)}  flow "
          f"{np.mean([r['flow'] for r in rows]):.1f} veh/h  {counts}  controller "
          f"{sum(r['controller_s'] for r in rows):.1f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base-seeds", type=parse_base_seeds,
                        default=list(range(10)),
                        help="comma separated base seeds and ranges such as "
                             "0-39 or 0,5,7-9 (default 0-9)")
    parser.add_argument("--three-eval", action="store_true",
                        help="evaluate on b+21..b+23 instead of b+21 alone")
    args = parser.parse_args(argv)
    bases = args.base_seeds
    eval_count = 3 if args.three_eval else 1
    config = load_config(benchmark_config_path())

    print(f"{'base':>4} {'scenario':>11} {'|occ-15| %':>10} {'flow veh/h':>10} "
          f"{'gain veh/h':>10} {'green %':>7} {'alinea %':>8} {'iterations':>10} "
          f"{'capped':>6}")
    tables = []
    for base in bases:
        eval_seeds = [base + EVAL_OFFSET + k for k in range(eval_count)]
        table = run_base_seed(config, base, eval_seeds)
        tables.append(table)
        for name in SCENARIOS:
            row = table[name]
            planner = (f"{row['iterations']:>10} {row['capped']:>6}"
                       if name in PLANNERS else f"{'-':>10} {'-':>6}")
            gain = ("-" if name == "no-control" else
                    f"{row['flow'] - table['no-control']['flow']:+.1f}")
            print(f"{base:>4} {name:>11} {row['dev']:10.3f} {row['flow']:10.1f} "
                  f"{gain:>10} {row['green']:7.2f} {table['alinea']['dev']:8.3f} "
                  f"{planner}")

    print()
    alinea = np.array([t["alinea"]["dev"] for t in tables])
    for name in PLANNERS:
        _summary(name, [t[name] for t in tables], alinea, bases)
    wins = sum(t["sindyc-mpc"]["dev"] < t["dmd-mpc"]["dev"] for t in tables)
    print(f"SINDYc beats DMDc on {wins}/{len(tables)} base seeds")


if __name__ == "__main__":
    main()
