"""Package surface: every name a module exports must exist."""

import importlib
import pkgutil

import diffloc


def test_every_all_entry_resolves():
    # A dangling __all__ entry breaks `from module import *`; catch it here
    # rather than in a user's import.
    names = [info.name for info in pkgutil.walk_packages(diffloc.__path__, "diffloc.")]
    modules = [diffloc, *(importlib.import_module(name) for name in names)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert {m.__name__ for m in exporting} >= {
        "diffloc.autodiff",
        "diffloc.mixture",
        "diffloc.operators",
        "diffloc.harness.cli",
        "diffloc.harness.tasks",
    }
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}, which the module does not define"
        exec(f"from {module.__name__} import *", {})
