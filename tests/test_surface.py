"""Import surface: every exported name resolves and is used by program code,
the package root re-exports nothing, every demo imports and runs, the README
lists the demos, the planner stays below the episode runners, the harness
has one episode loop and one pipeline, and every function the traced
benchmark patches is where it looks for it."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import rampnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(rampnet.__path__))
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Program code: the package, the demos and the benchmark, but not tests.
PROGRAM = [path for path in (*sorted((ROOT / "src" / "rampnet").glob("*.py")),
                             *DEMOS, *sorted((ROOT / "perfbench").glob("*.py")))
           if not path.name.startswith("test_") and path.name != "conftest.py"]


def _load_by_path(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"rampnet.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"rampnet.{name}.__all__ lists missing '{attr}'"


def test_package_root_defines_only_its_submodules():
    """The CLI, the demos and the benchmark import modules
    (``from rampnet import harness``), so the package root re-exports
    nothing."""
    public = {attr for attr, value in vars(rampnet).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert not public, sorted(public)


def _names_read_by_program() -> set[str]:
    """Every name and attribute read in the package, the demos or the
    benchmark."""
    used = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_by_program_code():
    """A name in a module's ``__all__`` is read somewhere in the package, the
    demos or the benchmark, as a name or an attribute; one that only tests
    reach is not public API."""
    used = _names_read_by_program()
    unused = {name: sorted(set(getattr(importlib.import_module(f"rampnet.{name}"),
                                       "__all__", ())) - used)
              for name in MODULES}
    assert not any(unused.values()), unused


def test_every_public_member_is_used_by_program_code():
    """A public method or property of a class in a module's ``__all__`` is
    read by program code or wrapped by the traced benchmark (``TRACED``);
    one that only tests reach is not public API."""
    used = _names_read_by_program()
    tracing = _load_by_path(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    traced = {(owner, attr) for owner, attr, _ in tracing.TRACED}
    members = (types.FunctionType, property, classmethod, staticmethod)
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"rampnet.{name}")
        for cls_name in getattr(module, "__all__", ()):
            cls = getattr(module, cls_name)
            if not isinstance(cls, type):
                continue
            unused += [f"{name}.{cls_name}.{attr}"
                       for attr, value in vars(cls).items()
                       if not attr.startswith("_") and isinstance(value, members)
                       and attr not in used
                       and (f"{name}:{cls_name}", attr) not in traced]
    assert not unused, unused


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_cleanly(path):
    """Loading a demo runs only its imports and definitions; main() waits
    behind its ``__main__`` guard."""
    assert callable(_load_by_path(path, f"demo_{path.stem}").main)


def test_demos_are_the_readme_demo_list():
    """The README's Demos section names every script under ``demos/`` once,
    and no other, and counts them in words."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\d\d_\w+\.py)`", section)
    assert sorted(listed) == [path.name for path in DEMOS]
    words = ("One", "Two", "Three", "Four", "Five", "Six")
    assert section.lstrip().startswith(f"{words[len(DEMOS) - 1]} narrative scripts")


def test_corridor_demo_runs_end_to_end(capsys):
    """Demo 01 prints one row per sensor and an average for both scenarios,
    and its closing note repeats each scenario's dropped vehicles."""
    from rampnet.network import benchmark_config_path, load_config

    sensors = [ramp.sensor_id for ramp in load_config(benchmark_config_path()).ramps]
    _load_by_path(ROOT / "demos" / "01_congested_corridor.py", "demo_run_01").main()
    lines = capsys.readouterr().out.splitlines()
    dropped = {}
    for name in ("no-control", "alinea"):
        head = next(k for k, line in enumerate(lines)
                    if line.startswith(f"{name}: dropped "))
        dropped[name] = int(lines[head].split()[2])
        rows = [line.split() for line in lines[head + 2:head + 3 + len(sensors)]]
        assert [row[0] for row in rows] == [*sensors, "average"]
        assert all(len(row) == 4 for row in rows)
    assert dropped["no-control"] > 0 and dropped["alinea"] > 0
    assert (f"drops {dropped['alinea']} ramp vehicles against "
            f"{dropped['no-control']} with open meters") in lines[-1]


def test_model_discovery_demo_runs_end_to_end(capsys):
    """Demo 02 on benchmark episodes: records to ``(states, inputs)`` pairs,
    both fits and ``fit_report``, then one solve on the sparse fit with its
    solver line, one line per plan stage and the predicted-occupancy chain
    from the snapshot through every stage."""
    from rampnet.mpc import MpcConfig

    _load_by_path(ROOT / "demos" / "02_model_discovery.py", "demo_run_02").main()
    out = capsys.readouterr().out
    assert "log: 360 control steps, 8 sensors, 8 meters" in out
    assert out.count("samples: 354") == 2  # three episodes lose two rows each
    sparse, linear = (float(line.split()[-1]) for line in out.splitlines()
                      if line.startswith("mean R2:"))
    assert sparse > linear
    assert "what drives sensor" in out
    horizon = MpcConfig().horizon
    solver = re.findall(r"^solver: (\d+) iterations, objective \d+\.\d, "
                        r"\d+ ms$", out, re.M)
    assert len(solver) == 1 and int(solver[0]) > 0
    stages = re.findall(r"^  stage (\d+): \[", out, re.M)
    assert stages == [str(l) for l in range(horizon)]
    chain, = (line for line in out.splitlines()
              if line.startswith("predicted mean occupancy along the horizon: "))
    assert chain.count("%") == horizon + 1 and chain.count(" -> ") == horizon


def test_seed_robustness_demo_runs_on_one_base_seed(capsys):
    """Demo 06 on base seed 0, the headline comparison: one row per scenario
    with its flow gain over no-control and green share, the planners' rows
    with iterations and capped solves, then the summary, which counts
    stalled solves and hand-overs and no band penalty; both planners track
    better than ALINEA on that seed."""
    demo = _load_by_path(ROOT / "demos" / "06_seed_robustness.py", "demo_run_06")
    demo.main(["--base-seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[1]: line.split() for line in lines[1:6]}
    assert list(rows) == list(demo.SCENARIOS)
    base_flow = float(rows["no-control"][3])
    for name, row in rows.items():
        assert row[0] == "0" and len(row) == 9
        dev, flow, green, alinea = map(float, (row[2], row[3], row[5], row[6]))
        assert alinea == float(rows["alinea"][2])
        assert 0.0 < green <= 100.0
        if name == "no-control":
            assert row[4] == "-"
        else:
            assert float(row[4]) == pytest.approx(flow - base_flow, abs=0.11)
        if name in demo.PLANNERS:
            iterations, capped = map(float, row[7:])
            assert iterations > 0 and 0 <= capped <= iterations
            assert dev < alinea
        else:
            assert row[7:] == ["-"] * 2
    summary = "\n".join(lines[6:])
    assert summary.count("worse than ALINEA on 0/1") == 2
    assert summary.count("  handed over ") == 2 and "penalty" not in summary
    assert len(re.findall(r"  capped \d+  stalled \d+  ", summary)) == 2
    assert "SINDYc beats DMDc on " in summary


def test_seed_robustness_demo_reads_base_seed_ranges(capsys):
    """``--base-seeds`` takes seeds and inclusive ranges; a reversed range
    or a word is refused before any episode runs."""
    demo = _load_by_path(ROOT / "demos" / "06_seed_robustness.py", "demo_seeds_06")
    assert demo.parse_base_seeds("0-39") == list(range(40))
    assert demo.parse_base_seeds("0,5,7-9") == [0, 5, 7, 8, 9]
    assert demo.parse_base_seeds("3") == [3]
    for bad in ("9-7", "x", "1,,2", "0-"):
        with pytest.raises(SystemExit):
            demo.main(["--base-seeds", bad])
        assert "--base-seeds" in capsys.readouterr().err


def test_planner_imports_neither_the_plant_nor_the_harness():
    """The planner plans; the harness runs episodes. An import anywhere in
    ``rampnet.mpc``, at module level or inside a function, counts."""
    tree = ast.parse((ROOT / "src" / "rampnet" / "mpc.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"plant", "harness"}, sorted(imported)


def test_traced_benchmark_targets_are_defined_where_it_patches_them():
    """The traced benchmark wraps each ``TRACED`` (owner, attribute) found in
    that module's or class's own ``__dict__``; a refactor that moves one to a
    helper or a base class would break only the traced run."""
    tracing = _load_by_path(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    missing = [(owner, attr) for owner, attr, _ in tracing.TRACED
               if attr not in vars(tracing._resolve(owner))]
    assert tracing.TRACED and not missing, missing


def _parameters(*modules):
    """{qualified name: parameter names} of every function, and every method
    of a class, defined in the given modules."""
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = ([v for v in vars(obj).values() if inspect.isfunction(v)]
                       if isinstance(obj, type) else [obj])
            for fn in filter(inspect.isfunction, members):
                found[f"{module.__name__}.{fn.__qualname__}"] = set(
                    inspect.signature(fn).parameters)
    return found


def test_fit_recipe_and_model_time_unit_are_fixed_in_code():
    """The fit's ridge and threshold are module constants and one model time
    unit is one control step, so no function, method or config field in the
    identification and planning layers takes them, and ``rampnet fit`` has
    no recipe flags: its ``--config`` names the network, whose road
    neighbourhoods the SINDYc fit is masked to."""
    from rampnet import cli, mpc, sysid

    fixed = {"ridge", "threshold", "dt", "step_h", "h"}
    taken = {name: sorted(params & fixed)
             for name, params in _parameters(sysid, mpc).items() if params & fixed}
    assert not taken, taken
    assert "library" not in inspect.signature(sysid.discover_sindyc).parameters
    fit = cli.build_parser()._subparsers._group_actions[0].choices["fit"]
    flags = {opt for action in fit._actions for opt in action.option_strings}
    assert flags == {"-h", "--help", "--config", "--logs", "--method", "--out"}


def test_a_model_is_its_coefficients():
    """Every model has the one quadratic library's coefficient width (a
    linear model's products are zero), so no library spec is exported, no
    function or method of the identification and planning layers takes a
    library, a spec or an order, and a model's fields are its coefficients,
    its dimensions, its provenance and the envelope of its data."""
    from rampnet import mpc, sysid

    assert not hasattr(rampnet, "FeatureLibrarySpec")
    assert not hasattr(sysid, "FeatureLibrarySpec")
    knobs = {"library", "spec", "order"}
    taken = {name: sorted(params & knobs)
             for name, params in _parameters(sysid, mpc).items() if params & knobs}
    assert not taken, taken
    assert {f.name for f in dataclasses.fields(sysid.SparseModel)} == {
        "coefficients", "state_dim", "input_dim", "provenance", "envelope"}


def test_planner_cost_is_fixed_in_code():
    """Tracking weights, occupancy band, penalty and rate-change weights are
    constants of ``rampnet.mpc`` and the rate box is the plant's, so
    ``MpcConfig`` keeps only the horizon, the target and the solver limits,
    and no function or method of the planner takes a cost parameter."""
    from rampnet import mpc

    assert {f.name for f in dataclasses.fields(mpc.MpcConfig)} == {
        "horizon", "target_occupancy_pct", "solver"}
    cost = re.compile(r"weight|roots|bound|band|box|occupancy_m|rate_m")
    taken = {name: sorted(filter(cost.search, params))
             for name, params in _parameters(mpc).items()
             if any(map(cost.search, params))}
    assert not taken, taken
    assert not hasattr(mpc.MpcConfig, "weights")
    assert not hasattr(mpc, "_cost_roots")


def test_knobs_no_caller_sets_are_gone():
    """The solver's tolerance is a constant of ``rampnet.mpc``, so the
    planner's settable values are the horizon, the target and the iteration
    cap; the scenario runner and the sweep set only the horizon; and a
    scenario's runtime is the sum of its episodes' time split."""
    from rampnet import harness, mpc

    assert {f.name for f in dataclasses.fields(mpc.SolverSettings)} == {"max_iters"}
    assert "mpc_config" not in inspect.signature(harness.horizon_sweep).parameters
    run = inspect.signature(harness.run_scenarios).parameters
    assert not {"target_occupancy_pct", "mpc_config"} & set(run)
    assert run["horizon"].default == mpc.MpcConfig().horizon
    assert "runtime_s" not in inspect.signature(
        harness.results_from_records).parameters


def test_a_log_is_its_episodes():
    """Fits and scores take one ``(states, inputs)`` pair per episode, as
    ``harness.load_logs`` returns them, so the identification layer has no
    log class."""
    from rampnet import sysid

    assert not hasattr(sysid, "TrajectoryLog")
    for fn in (sysid.differentiate, sysid.discover_sindyc, sysid.discover_dmdc,
               sysid.fit_report):
        assert "episodes" in inspect.signature(fn).parameters, fn.__name__


def test_one_local_law_and_one_episode_start():
    """Every meter, regulator and planner starts at
    ``feedback.INITIAL_RATE_VPH`` and every episode names its seed, so no
    function or method takes a starting rate, the config carries no seed,
    ``run_episode``'s seed has no default, and the local scenarios differ
    only in the gains of one ``MeterBank``."""
    from rampnet import feedback, harness, mpc, network, plant

    taken = sorted(name for name, params
                   in _parameters(plant, mpc, feedback, harness).items()
                   if "initial_rate_vph" in params)
    assert not taken, taken
    assert "rng_seed" not in {f.name for f in dataclasses.fields(network.NetworkConfig)}
    seed = inspect.signature(plant.run_episode).parameters["seed"]
    assert seed.default is inspect.Parameter.empty
    classes = [name for name in feedback.__all__
               if isinstance(getattr(feedback, name), type)]
    assert classes == ["MeterBank"]


def _calls(tree, name):
    """The call nodes of ``name`` (as a name or an attribute) in a tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_one_episode_loop():
    """``run_episode`` has one caller in the harness, the job function that
    ``run_scenarios`` maps over its episodes, and nothing else reaches that
    job; so collection, the sweep and the demos share its controllers and
    its solver steps, and no demo runs an episode of its own."""
    tree = ast.parse((ROOT / "src" / "rampnet" / "harness.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    callers = [name for name, node in functions.items()
               if _calls(node, "run_episode")]
    assert len(_calls(tree, "run_episode")) == len(callers) == 1
    job, = callers
    readers = [name for name, node in functions.items() if any(
        isinstance(use, ast.Name) and use.id == job for use in ast.walk(node))]
    assert readers == ["run_scenarios"]
    elsewhere = [path.name for path in PROGRAM if path.name != "harness.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if job in (getattr(node, "id", None), getattr(node, "name", None))
                 or (isinstance(node, ast.Attribute) and node.attr == job
                     and getattr(node.value, "id", None) == "harness")]
    assert not elsewhere, elsewhere
    demos = {path.name: len(_calls(ast.parse(path.read_text()), "run_episode"))
             for path in DEMOS}
    assert not any(demos.values()), demos


def _reads(tree, name):
    """The nodes that read ``name``, as a name or an attribute, in a tree."""
    return [node for node in ast.walk(tree)
            if name in (getattr(node, "id", None), getattr(node, "attr", None))]


def test_one_pipeline_fit():
    """``harness.fit`` alone picks the fit's masks: among the package, the
    demos and the acceptance pipeline (its fixture and criterion 10's
    rerun), no other function reads ``neighbourhood_masks`` or
    ``discover_sindyc``; the acceptance pipeline is ``harness.pipeline``
    calls, and ``pipeline`` reaches the fit only through ``harness.fit``.
    perfbench is left out: its set-ups still time the fit without masks
    until the benchmark measures the pipeline's fit (ROADMAP item 9)."""
    policy = ("neighbourhood_masks", "discover_sindyc")
    harness_tree = ast.parse((ROOT / "src" / "rampnet" / "harness.py").read_text())
    functions = {node.name: node for node in harness_tree.body
                 if isinstance(node, ast.FunctionDef)}
    fit, pipeline = functions["fit"], functions["pipeline"]
    assert all(_reads(fit, name) for name in policy)
    assert _calls(pipeline, "fit")
    assert not any(_reads(pipeline, name)
                   for name in (*policy, "discover_dmdc", "fit_derivatives"))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    runs = [node for node in acceptance.body
            if isinstance(node, ast.FunctionDef) and node.name in (
                "pipeline", "test_criterion_10_reproducible_and_fast")]
    assert len(runs) == 2
    assert all(_calls(node, "pipeline") for node in runs)
    readers = {("acceptance", node.name): node for node in runs}
    readers.update({(path.name, "module"): ast.parse(path.read_text())
                    for path in PROGRAM if path.parent.name != "perfbench"})
    reads = {where: sum(len(_reads(tree, name)) for name in policy)
             for where, tree in readers.items()}
    assert reads.pop(("harness.py", "module")) == sum(
        len(_reads(fit, name)) for name in policy)
    assert not any(reads.values()), {k: v for k, v in reads.items() if v}


def test_one_pipeline():
    """In the package and the demos, ``harness.pipeline`` is the only
    function that calls ``load_logs``, ``fit`` and ``run_scenarios``
    together, itself or through functions of its own module: no other
    builds the chain from logs to results by hand."""
    chain = {"load_logs", "fit", "run_scenarios"}
    recipes = []
    for path in PROGRAM:
        if path.parent.name == "perfbench":
            continue
        calls = {node.name: {getattr(call.func, "id", None)
                             or getattr(call.func, "attr", None)
                             for call in ast.walk(node) if isinstance(call, ast.Call)}
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
        for _ in calls:  # close each set over the module's own functions
            for names in calls.values():
                names.update(*(calls[name] for name in names & calls.keys()))
        recipes += [(path.name, name) for name, names in calls.items()
                     if chain <= names]
    assert recipes == [("harness.py", "pipeline")], recipes
