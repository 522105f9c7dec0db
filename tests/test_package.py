import importlib
import pkgutil

import diqkd


def test_every_exported_name_exists():
    # a stale __all__ entry makes `from module import *` raise
    names = ["diqkd"] + [f"diqkd.{m.name}" for m in pkgutil.iter_modules(diqkd.__path__) if m.name != "__main__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert "diqkd.protocol" in names
    assert missing == []
