"""Every name a module lists in __all__ exists in that module."""

import importlib
import pkgutil

import fas_extremes


def test_every_exported_name_resolves():
    missing = []
    exporting = 0
    for info in pkgutil.iter_modules(fas_extremes.__path__):
        module = importlib.import_module(f"fas_extremes.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        exporting += 1
        missing += [f"{info.name}.{name}" for name in names if not hasattr(module, name)]
    assert exporting > 0
    assert missing == []
