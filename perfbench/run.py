"""rampnet benchmark: one workload, one base seed, one JSON line.

    python3 perfbench/run.py --workload closed-loop --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.

A run sets up its workload several times (``setup_s`` is the median), then
runs whole units of the timed body one after another until ``--seconds`` have
passed (``wall_ref_s`` is the median unit time). Because the machine's own
speed drifts, each unit's time is rescaled to a fixed reference speed with
the factor a speed probe (``speed.py``) measured during that unit, and the
set-up times with the factor measured during all set-ups; the raw wall times
are printed beside them. With ``--trace 1`` it instead
sets up once, traced, and runs pairs of one traced and one untraced unit on
the same seed; the traced units give the per-layer metrics and the pairs give
the tracing overhead. Every run checks the program's outputs and compares
sha256 digests of everything it computed twice. Human-readable lines come
first; the last line is the JSON result. A detailed results file, with the environment, goes
to ``perfbench/out/``.

Exit codes: 0 when every check passed, 1 when an output or rerun-digest
check failed (the JSON line still says so), 2 when the program's source or
the arguments are missing or invalid (no JSON line).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from checks import (DigestBook, check_record, check_sindyc, model_digest,
                    record_digest, tail_percentile)
from layers import PER_LAYER, holdout_r2, pct, per_layer, solve_ms, solver_health
from speed import SpeedProbe
from tracing import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("closed-loop", "discovery", "regulate")

# name -> unit; the order is the order of the JSON line and BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
    "flow_vph": "veh/h",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="base seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole units until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- environment ------------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    site = Path(numpy.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the run ------------------------------------------------------------------------

class Checker:
    """Output checks and rerun digests over everything a run produces."""

    def __init__(self):
        self.book = DigestBook()
        self.problems: list[str] = []
        self.lines: list[str] = []

    def _digest(self, key: str, digest: str) -> None:
        if self.book.note(key, digest):
            self.lines.append(f"digest {key} sha256={digest}")

    def records(self, labelled) -> None:
        for label, record in labelled:
            self.problems += check_record(record, label)
            self._digest(f"episode {label}", record_digest(record))

    def models(self, models) -> None:
        for name, model in models.items():
            if name == "sindyc":
                self.problems += check_sindyc(model)
            self._digest(f"model {name}", model_digest(model))

    def setup(self, setup) -> None:
        from rampnet.network import serialize_config

        text = serialize_config(setup.config).encode()
        self._digest("config", hashlib.sha256(text).hexdigest())
        self.records(setup.episodes())
        self.models(setup.models)

    def unit(self, out) -> None:
        self.records((f"{ep.scenario}-seed{ep.seed}", ep.record)
                     for ep in out.episodes)
        self.models(out.models)
        self.problems += out.problems
        for name, r2 in out.holdout_r2.items():
            if not (math.isfinite(r2) and r2 <= 1.0):
                self.problems.append(f"{name} holdout R2 {r2} is not a valid R2")

    @property
    def failures(self) -> list[str]:
        return self.problems + self.book.mismatches


@dataclass
class Run:
    setup: object = None
    setup_s: list[float] = field(default_factory=list)
    units: list = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)
    tracer: Tracer | None = None
    traced_units: list = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    # Reference speed / measured speed while setting up and in each unit
    # (untraced runs; see speed.py).
    setup_speed: float = 1.0
    unit_speed: list[float] = field(default_factory=list)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run_untraced(wl, seconds: float, checker: Checker) -> Run:
    run = Run()
    setups = []
    with SpeedProbe(wl.reference) as probe:
        for k in range(wl.setup_repeats):
            run.setup, took, during = probe.timed(wl.setup, k)
            run.setup_s.append(took)
            setups.append(during)
            checker.setup(run.setup)
        started = time.perf_counter()
        while not run.units or time.perf_counter() - started < seconds:
            out, took, during = probe.timed(wl.unit, run.setup, len(run.units))
            run.units.append(out)
            run.unit_s.append(took)
            run.unit_speed.append(probe.factor(during))
            checker.unit(out)
    run.setup_speed = probe.factor(*setups)  # set-ups can be too short alone
    return run


def run_traced(wl, seconds: float, checker: Checker) -> Run:
    run = Run(tracer=Tracer())
    with installed(run.tracer):
        run.setup, took = timed(wl.setup, 0)
    run.setup_s.append(took)
    checker.setup(run.setup)
    started = time.perf_counter()
    while not run.units or time.perf_counter() - started < seconds:
        i = len(run.units)
        # Alternate which half of a pair runs first. The first unit of a
        # process runs cold, so a single pair starts traced and overstates
        # rather than hides the tracing cost.
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with installed(run.tracer), run.tracer.region("benchmark.unit"):
                    out, took = timed(wl.unit, run.setup, i, run.tracer.region)
                run.traced_units.append(out)
                run.traced_s.append(took)
            else:
                out, took = timed(wl.unit, run.setup, i)
                run.units.append(out)
                run.unit_s.append(took)
            checker.unit(out)  # same seed in both halves: digests must match
    return run


def end_to_end(run: Run, flow_vph: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s) * run.setup_speed,
        "wall_ref_s": statistics.median([s * f for s, f in
                                         zip(run.unit_s, run.unit_speed)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flow_vph": flow_vph,
    }


def human_lines(wl, run: Run, tracking: float, metrics: dict, units: dict) -> list[str]:
    episodes = [ep for out in run.units for ep in out.episodes]
    lines = [f"{wl.name}: {len(run.units)} unit(s) "
             f"{'untraced+traced ' if run.tracer else ''}in the timed body, "
             f"{len(episodes)} episode(s), {sum(u.fits for u in run.units)} fit(s)"]
    times = solve_ms(episodes)
    if times:
        lines.append(f"solve_ms_p50 = {pct(times, 50):.4f} ms (n={len(times)} solves)")
        tail = tail_percentile(len(times))
        if tail is not None:
            lines.append(f"solve_ms_p{tail:g} = {pct(times, tail):.4f} ms "
                         f"(highest percentile with >=10 solves beyond it)")
        h = solver_health(episodes)
        lines.append(f"solver: iterations p50 {h['iterations.p50']:.0f} "
                     f"p95 {h['iterations.p95']:.0f} max {h['iterations.max']:.0f}; "
                     f"converged {h['converged_frac']:.3f}; "
                     f"at cap {h['at_cap_frac']:.3f}; fallbacks {h['fallbacks']:.0f}")
    lines.append(f"tracking_dev_pct = {tracking:.6g} %")
    if not run.tracer:
        lines.append(f"raw wall clock: setup {statistics.median(run.setup_s):.6g} s, "
                     f"unit {statistics.median(run.unit_s):.6g} s; speed factors "
                     f"(reference / this run's speed): set-up {run.setup_speed:.4f}, "
                     f"units {' '.join(f'{f:.4f}' for f in run.unit_speed)}")
    r2 = holdout_r2(run.units)
    if r2:
        lines.append(f"holdout_r2 = {statistics.mean(r2):.6f} 1 (sindyc, holdout seeds)")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    return lines


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "rampnet" / "__init__.py").is_file():
        print(f"error: no rampnet source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    checker = Checker()
    try:
        run = (run_traced if args.trace else run_untraced)(wl, args.seconds, checker)
        tracking, flow = wl.quality(run.setup, run.units)  # reads set-up CSVs
        if args.trace:
            metrics, units = per_layer(run), PER_LAYER
            run.tracer.save(OUT / f"spans-{args.workload}.npz")
        else:
            metrics, units = end_to_end(run, flow), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs = run.units + run.traced_units
    episodes = [ep for out in outputs for ep in out.episodes]
    failures = checker.failures
    attempted = sum(ep.calls for ep in episodes) + sum(u.fits for u in outputs)
    failed = sum(ep.failed for ep in episodes) + len(failures)

    for line in checker.lines + human_lines(wl, run, tracking, metrics, units):
        print(line)
    print(f"rerun-digest check: {checker.book.repeats} repeat(s), "
          f"{len(checker.book.mismatches)} mismatch(es)")
    print(f"failed_frac = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} controller calls and fits)")
    for problem in failures:
        print(f"CHECK FAILED: {problem}")

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = dict(result, environment=env, setup_speed_factor=run.setup_speed,
                  unit_speed_factors=run.unit_speed,
                  setup_s_samples=run.setup_s,
                  unit_s_samples=run.unit_s, traced_unit_s_samples=run.traced_s,
                  problems=failures, digests=checker.book.first)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"result-{args.workload}-seed{args.seed}{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
