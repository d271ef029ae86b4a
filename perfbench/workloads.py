"""The three workloads: how each sets up, and one unit of its timed body.

Every workload derives its inputs from one base seed: training seeds
base+1..4, holdout seeds base+11..13 and evaluation seeds base+21..23, so
base 0 reproduces the acceptance suite. Episodes run one after another on
one thread, each driven through ``harness.make_controller`` and
``plant.run_episode``; the program only ever sees generated configs and seeds.

All calls into the program go through module attributes (``plant.run_episode``
rather than a name imported from it) so that the traced run's wrappers see
them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rampnet import harness, network, plant, sysid
from rampnet.mpc import MpcConfig

from checks import RATE_MAX_VPH, RATE_MIN_VPH

TARGET_PCT = 15.0
HORIZON = 4
MPC_SCENARIOS = ("sindyc-mpc", "dmd-mpc")
REGULATE_SCENARIOS = ("no-control", "alinea", "pi-alinea")


def no_region(name: str):
    return contextlib.nullcontext()


class Counted:
    """Controller proxy counting calls, and calls whose rates leave the box."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.out_of_box = 0

    def __call__(self, observation):
        rates = self.inner(observation)
        self.calls += 1
        arr = np.asarray(rates, dtype=float)
        if not (np.all(np.isfinite(arr)) and arr.min() >= RATE_MIN_VPH
                and arr.max() <= RATE_MAX_VPH):
            self.out_of_box += 1
        return rates


@dataclass
class Episode:
    scenario: str
    seed: int
    record: object
    calls: int
    failed: int  # out-of-box calls plus MPC fallbacks
    diagnostics: list | None = None
    max_iters: int = 0


@dataclass
class Setup:
    config: object
    dirs: dict[str, Path] = field(default_factory=dict)
    models: dict = field(default_factory=dict)

    def episodes(self) -> list[tuple[str, object]]:
        """Episode CSVs the set-up wrote, read back for checks and digests."""
        return [(p.stem, plant.EpisodeRecord.from_csv(p))
                for d in self.dirs.values() for p in sorted(Path(d).glob("*.csv"))]


@dataclass
class UnitOutput:
    episodes: list[Episode] = field(default_factory=list)
    models: dict = field(default_factory=dict)
    fits: int = 0
    holdout_r2: dict = field(default_factory=dict)
    report_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def drive(config, scenario: str, seed: int, models: dict) -> Episode:
    """One episode, timed by the caller, with its controller's health."""
    controller = harness.make_controller(
        scenario, config.n_ramps, TARGET_PCT,
        sindyc=models.get("sindyc"), dmdc=models.get("dmdc"),
        mpc_config=MpcConfig(horizon=HORIZON, target_occupancy_pct=TARGET_PCT))
    counted = Counted(controller)
    record = plant.run_episode(config, counted, seed=seed)
    diagnostics = getattr(controller, "diagnostics", None)
    fallbacks = sum(bool(d["fallback"]) for d in diagnostics or ())
    max_iters = controller.config.solver.max_iters if diagnostics is not None else 0
    return Episode(scenario, seed, record, counted.calls,
                   counted.out_of_box + fallbacks, diagnostics, max_iters)


def load_benchmark_config():
    return network.load_config(network.benchmark_config_path())


class Workload:
    name = ""
    setup_repeats = 1
    reference = "python"  # the speed probe's reference slice (speed.py)

    def __init__(self, base_seed: int, work: Path):
        self.base = int(base_seed)
        self.train = [self.base + s for s in (1, 2, 3, 4)]
        self.holdout = [self.base + s for s in (11, 12, 13)]
        self.eval = [self.base + s for s in (21, 22, 23)]
        self.work = work

    def setup(self, k: int) -> Setup:
        raise NotImplementedError

    def unit(self, setup: Setup, i: int, region=no_region) -> UnitOutput:
        raise NotImplementedError

    def quality_records(self, setup: Setup, units) -> list:
        """Episodes that tracking and flow are measured over: the controlled
        (not no-control) episodes of the first unit, so that the figure does
        not depend on how many units fit into a run."""
        return [ep.record for ep in units[0].episodes if ep.scenario != "no-control"]

    def quality(self, setup: Setup, units) -> tuple[float, float]:
        """(mean |occupancy - target| %, mean sensor flow veh/h)."""
        records = self.quality_records(setup, units)
        occ = np.vstack([r.occupancy for r in records])
        flow = np.vstack([r.flow for r in records])
        return float(np.mean(np.abs(occ - TARGET_PCT))), float(np.mean(flow))


class ClosedLoop(Workload):
    name = "closed-loop"
    setup_repeats = 2  # each set-up collects 4 episodes and fits (~10 s)

    def setup(self, k):
        config = load_benchmark_config()
        logs = self.work / f"setup{k}" / "train"
        harness.collect(config, "alinea", self.train, logs)
        log = harness.load_logs(logs)
        models = {"sindyc": sysid.discover_sindyc(log),
                  "dmdc": sysid.discover_dmdc(log)}
        return Setup(config, {"train": logs}, models)

    def unit(self, setup, i, region=no_region):
        # One (sindyc-mpc, dmd-mpc) pair per unit; units cycle the eval seeds.
        seed = self.eval[i % len(self.eval)]
        return UnitOutput(episodes=[drive(setup.config, s, seed, setup.models)
                                    for s in MPC_SCENARIOS])


class Discovery(Workload):
    name = "discovery"
    setup_repeats = 2  # each set-up collects 7 episodes (~5 s)
    reference = "blas"  # the body is the fit's lstsq calls

    def setup(self, k):
        config = load_benchmark_config()
        root = self.work / f"setup{k}"
        harness.collect(config, "alinea", self.train, root / "train")
        harness.collect(config, "alinea", self.holdout, root / "holdout")
        return Setup(config, {"train": root / "train", "holdout": root / "holdout"})

    def unit(self, setup, i, region=no_region):
        out = UnitOutput()
        log = harness.load_logs(setup.dirs["train"])
        holdout = harness.load_logs(setup.dirs["holdout"])
        out.models = {"sindyc": sysid.discover_sindyc(log),
                      "dmdc": sysid.discover_dmdc(log)}
        out.fits = 2
        for name, model in out.models.items():
            out.holdout_r2[name] = sysid.fit_report(model, holdout).mean_r2
        models_dir = self.work / f"models{i}"
        models_dir.mkdir(parents=True, exist_ok=True)
        with region("sysid.save_load"):
            for name, model in out.models.items():
                path = models_dir / f"{name}.json"
                model.save(path)
                back = sysid.SparseModel.load(path)
                if (back.terms != model.terms
                        or not np.array_equal(back.coefficients, model.coefficients)):
                    out.problems.append(f"{name} model changed in a save/load round trip")
        return out

    def quality_records(self, setup, units):
        """The ALINEA episodes the body fits from and scores on."""
        return [rec for _, rec in setup.episodes()]


class Regulate(Workload):
    name = "regulate"
    setup_repeats = 150  # set-up is a config load (~25 ms); repeats span ~4 s

    def setup(self, k):
        return Setup(load_benchmark_config())

    def unit(self, setup, i, region=no_region):
        out = UnitOutput()
        for scenario in REGULATE_SCENARIOS:
            for seed in self.eval:
                out.episodes.append(drive(setup.config, scenario, seed, {}))
        results = [harness.results_from_records(
            scenario, self.eval,
            [ep.record for ep in out.episodes if ep.scenario == scenario],
            TARGET_PCT) for scenario in REGULATE_SCENARIOS]
        report_dir = self.work / f"report{i}"
        harness.report(results, report_dir, setup.config, write_raw=True)
        reloaded = harness.load_raw_results(report_dir / "raw", TARGET_PCT)
        out.report_bytes = sum(p.stat().st_size for p in report_dir.rglob("*")
                               if p.is_file())
        if [r.scenario for r in reloaded] != list(REGULATE_SCENARIOS):
            out.problems.append("load_raw_results lost a scenario")
        for orig, back in zip(results, reloaded):
            if not (np.allclose(orig.mean_abs_deviation, back.mean_abs_deviation,
                                rtol=1e-9, atol=1e-9)
                    and np.allclose(orig.mean_flow, back.mean_flow,
                                    rtol=1e-9, atol=1e-9)):
                out.problems.append(
                    f"{orig.scenario}: rebuilt report differs from the original")
        return out


WORKLOADS = {w.name: w for w in (ClosedLoop, Discovery, Regulate)}
