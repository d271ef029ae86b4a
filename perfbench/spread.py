"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload regulate --seeds 0-9
    python3 perfbench/spread.py --workload closed-loop --seeds 0-4 --save s.json

Runs ``run.py`` once per seed, one after another, and prints for every metric
its median, quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the bound that
BENCHMARK.json fixes for it. Exits 1 if any run fails or reports incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results, ok = [], True
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= bool(result["correct"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if not results:
        return 1

    summary = {}
    for name in results[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in results])
        s, bound = summary[name], bounds.get(name)
        print(f"{name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
              + (f"  bound {bound} ({s['spread'] / bound:.2f} of it)" if bound else ""))
    if args.save:
        args.save.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
             "trace": args.trace, "metrics": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
