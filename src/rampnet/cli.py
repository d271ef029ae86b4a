"""Command line front end: collect, fit, run, sweep, report."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import harness, network, sysid
from .sysid import SparseModel


def _parse_seeds(text: str) -> list[int]:
    seeds = [s.strip() for s in text.split(",") if s.strip() != ""]
    if not all(s.isdecimal() for s in seeds):
        raise harness.UsageError(
            f"bad seed list '{text}'; expected non-negative seeds, e.g. 1,2,3")
    values = [int(s) for s in seeds]
    if len(set(values)) != len(values):
        raise harness.UsageError(
            f"bad seed list '{text}'; a seed may appear only once (its episode "
            f"files are named by seed)")
    return values


def _parse_horizons(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            horizons = list(range(int(lo), int(hi) + 1))
        else:
            horizons = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        horizons = []
    if not horizons or min(horizons) < 1:
        raise harness.UsageError(
            f"bad horizon list '{text}'; expected horizons of at least 1, "
            f"e.g. 3:7 or 3,5,7")
    return horizons


def _load_config(path: str | None) -> network.NetworkConfig:
    if path is None:
        return network.load_config(network.benchmark_config_path())
    return network.load_config(path)


def _load_model(path: str) -> SparseModel:
    try:
        return SparseModel.load(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise harness.UsageError(f"unusable model file {path}: {exc!r}") from exc


def _check_out(path: str, directory: bool = False) -> None:
    """Refuse an ``--out`` that cannot be written, before any work: a fit
    takes seconds, and a run or a sweep minutes of episodes. A file's
    directory must exist; a report directory is made with its missing
    parents, so its nearest existing ancestor must be a directory."""
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise harness.UsageError(
            f"--out {out} is a directory; name a file" if out.is_dir()
            else f"--out {out} is not a directory; name a report directory")
    home = out.absolute().parent
    while directory and not home.exists():
        home = home.parent
    if not home.is_dir():
        raise harness.UsageError(
            f"--out {out}: directory {home} does not exist" if not home.exists()
            else f"--out {out}: {home} is not a directory")


def _cmd_collect(args) -> int:
    config = _load_config(args.config)
    paths = harness.collect(config, args.controller, _parse_seeds(args.seeds),
                            args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_fit(args) -> int:
    _check_out(args.out)
    config = _load_config(args.config)
    log = harness.load_logs(args.logs, config)
    model = harness.fit(config, log, args.method, {"logs": str(args.logs)})
    model.save(args.out)
    print(f"{args.method} model -> {args.out}")
    print(f"columns: {model.provenance['columns']}, "
          f"active per state: {model.active_count().tolist()}")
    print(sysid.fit_report(model, log).summary())
    return 0


def _cmd_run(args) -> int:
    if args.horizon < 1:
        raise harness.UsageError(f"bad horizon {args.horizon}; it must be at least 1")
    seeds = _parse_seeds(args.seeds)
    _check_out(args.out, directory=True)
    config = _load_config(args.config)
    sindyc = _load_model(args.sindyc_model)
    dmdc = _load_model(args.dmdc_model)
    results = harness.run_scenarios(config, sindyc, dmdc, seeds,
                                    horizon=args.horizon)
    paths = harness.report(results, args.out, config,
                           models={"sindyc": sindyc, "dmdc": dmdc})
    for res in results:
        print(f"{res.scenario:>11}: |occ-target| {res.average_deviation:7.3f} %   "
              f"flow {res.average_flow:7.1f} veh/h   "
              f"green {res.average_green_pct:5.1f} %")
        split = res.time_split_s
        print(f"{'':>13}time: plant {split['plant']:.2f} s   controller "
              f"{split['controller']:.2f} s   rest {split['rest']:.2f} s")
        health = res.solver_health()
        if health is not None and health["solves"]:
            its, ms = health["iterations"], health["solve_ms"]
            print(f"{'':>13}solver {100 * health['converged_frac']:5.1f} % converged   "
                  f"iterations {its['p50']:.0f}/{its['p95']:.0f}/{its['max']:.0f}   "
                  f"solve {ms['p50']:.1f}/{ms['p95']:.1f}/{ms['max']:.1f} ms "
                  f"(p50/p95/max)   fallbacks {health['fallbacks']}")
            print(f"{'':>13}" + "   ".join(
                f"{label} {w['solves']} solves ({w['capped']} capped), "
                f"{w['handed_over']} handed over, {w['iterations']} "
                f"iterations, {w['solve_s']:.2f} s"
                + (f", {w['us_per_iteration']:.0f} us/iteration"
                   if w["us_per_iteration"] is not None else "")
                for label, w in (("burn-in", health["burn_in"]),
                                 ("recorded", health["recorded"]))))
        elif health is not None:
            handed = health["burn_in"]["handed_over"] + health["recorded"]["handed_over"]
            print(f"{'':>13}solver: no solve; {health['fallbacks']} windows fell "
                  f"back, {handed} handed over")
    print(f"report -> {paths['summary']}")
    return 0


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    config = _load_config(args.config)
    model = _load_model(args.model)
    rows = harness.horizon_sweep(model, config, _parse_horizons(args.horizons),
                                 seeds=_parse_seeds(args.seeds))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(f"N={row['horizon']}: deviation {row['mean_abs_deviation_pct']:.3f} %  "
              f"flow {row['mean_flow_vph']:.1f} veh/h  "
              f"solve {row['mean_solve_ms']:.1f} ms  "
              f"episodes {row['runtime_s']:.1f} s")
    print(f"sweep -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    config = _load_config(args.config)
    results = harness.load_raw_results(args.results)
    paths = harness.report(results, args.out, config, write_raw=False)
    print(f"report -> {paths['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampnet",
        description="Ramp metering lab: simulate, identify, control, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run excitation episodes, write CSV logs")
    p.add_argument("--config", help="network config (default: shipped benchmark)")
    p.add_argument("--controller", default="alinea",
                   choices=harness.FEEDBACK_CONTROLLERS)
    p.add_argument("--seeds", required=True, help="comma separated, e.g. 1,2,3,4")
    p.add_argument("--out", required=True, help="directory for episode CSVs")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("fit", help="identify a model from collected logs")
    p.add_argument("--config", help="network config the logs were collected "
                   "on (default: shipped benchmark)")
    p.add_argument("--logs", required=True, help="directory of episode CSVs")
    p.add_argument("--method", default="sindyc", choices=("sindyc", "dmdc"))
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("run", help="run the five-scenario comparison")
    p.add_argument("--config")
    p.add_argument("--sindyc-model", required=True)
    p.add_argument("--dmdc-model", required=True)
    p.add_argument("--seeds", required=True, help="evaluation seeds, e.g. 5,6,7")
    p.add_argument("--horizon", type=int, default=4, help="MPC horizon length")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="evaluate a range of MPC horizons")
    p.add_argument("--config")
    p.add_argument("--model", required=True, help="model JSON to control with")
    p.add_argument("--horizons", default="3:7", help="range lo:hi or list 3,5,7")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="rebuild report tables from raw episodes")
    p.add_argument("--config")
    p.add_argument("--results", required=True, help="raw/ directory from a run")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.UsageError, network.ConfigError,
            sysid.InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
