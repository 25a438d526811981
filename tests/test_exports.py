"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import perpetua


def test_every_exported_name_resolves():
    modules = [perpetua] + [
        importlib.import_module(f"perpetua.{info.name}")
        for info in pkgutil.iter_modules(perpetua.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
