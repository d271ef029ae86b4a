"""Import surface: every exported name resolves and every demo imports."""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import rampnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(rampnet.__path__))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
