"""Import surface: every exported name resolves, every demo imports, the
planner stays below the episode runners, and every function the traced
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


def test_package_exports_come_from_module_surfaces():
    exported = set()
    for name in MODULES:
        exported.update(getattr(importlib.import_module(f"rampnet.{name}"),
                                "__all__", ()))
    public = {attr for attr, value in vars(rampnet).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= exported, sorted(public - exported)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_cleanly(path):
    """Loading a demo runs only its imports and definitions; main() waits
    behind its ``__main__`` guard."""
    assert callable(_load_by_path(path, f"demo_{path.stem}").main)


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
    no recipe flags."""
    from rampnet import cli, mpc, sysid

    fixed = {"ridge", "threshold", "dt", "step_h", "h"}
    taken = {name: sorted(params & fixed)
             for name, params in _parameters(sysid, mpc).items() if params & fixed}
    assert not taken, taken
    assert "library" not in inspect.signature(sysid.discover_sindyc).parameters
    fit = cli.build_parser()._subparsers._group_actions[0].choices["fit"]
    flags = {opt for action in fit._actions for opt in action.option_strings}
    assert flags == {"-h", "--help", "--logs", "--method", "--out"}


def test_a_model_is_its_coefficients():
    """A model's library order follows from its coefficient width, so no
    library spec is exported, no function or method of the identification
    and planning layers takes a library or a spec, and a model's fields are
    its coefficients, its dimensions and its provenance."""
    from rampnet import mpc, sysid

    assert not hasattr(rampnet, "FeatureLibrarySpec")
    assert not hasattr(sysid, "FeatureLibrarySpec")
    knobs = {"library", "spec"}
    taken = {name: sorted(params & knobs)
             for name, params in _parameters(sysid, mpc).items() if params & knobs}
    assert not taken, taken
    assert {f.name for f in dataclasses.fields(sysid.SparseModel)} == {
        "coefficients", "state_dim", "input_dim", "provenance"}


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
