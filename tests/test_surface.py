"""Import surface: every exported name resolves, every demo imports, the
planner stays below the episode runners, and every function the traced
benchmark patches is where it looks for it."""

import ast
import importlib
import importlib.util
import pkgutil
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
