"""The package's public names."""

import importlib
import pkgutil

import flowcde


def test_every_name_in_each_all_exists():
    modules = [flowcde] + [
        importlib.import_module(f"flowcde.{info.name}")
        for info in pkgutil.iter_modules(flowcde.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
