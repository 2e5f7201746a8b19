"""Package surface: every name a module exports must exist, and importing the
package loads nothing heavy that a run may never use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

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


# The benchmark's worker calls diffloc by name, and a name it calls that
# diffloc no longer has shows only as a failed benchmark run.  The worker
# keeps these harness modules as attributes of its workload objects.
# perfbench/tracing.py patches targets of its own and is not checked here.
_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
_WORKER_MODULES = ("metrics", "model", "tasks", "training", "suites")


def _resolves(module_name: str, name: str) -> bool:
    """Whether `from module_name import name` finds name, as an attribute
    or as a submodule."""
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_worker_calls_resolves():
    imported, called = set(), set()
    for node in ast.walk(ast.parse(_WORKER.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diffloc":
            imported.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
            and node.value.attr in _WORKER_MODULES
        ):
            called.add((f"diffloc.harness.{node.value.attr}", node.attr))
    # The parse found what the worker is known to use, so an empty check
    # cannot pass.
    assert ("diffloc.harness", "training") in imported
    assert {module for module, _ in called} == {f"diffloc.harness.{name}" for name in _WORKER_MODULES}
    missing = sorted(f"{module}.{name}" for module, name in imported | called if not _resolves(module, name))
    assert not missing, f"perfbench/worker.py uses {missing}, which diffloc does not define"


# Runs in a fresh interpreter: this test session has scipy.special loaded
# already, since test_mixture imports scipy.stats.  The script also checks
# that importing the package loads neither concurrent.futures nor logging,
# which would add their import time to every run's set-up.
_SCIPY_ON_FIRST_GAUSSIAN_CDF = textwrap.dedent(
    """
    import sys

    import numpy as np

    import diffloc, diffloc.harness.cli
    from diffloc.harness.tasks import SyntheticTask
    from diffloc.harness.training import RunConfig, evaluate, train
    from diffloc.mixture import MixtureSpec, Support, basis_sample_all

    heavy = sorted({"concurrent.futures", "logging"} & set(sys.modules))
    assert not heavy, f"importing diffloc loaded {heavy}"

    def loaded():
        return sorted(name for name in sys.modules if name.startswith("scipy.special"))

    small = dict(train_count=16, val_count=8, test_count=8, seed=1)
    task = SyntheticTask("signal1d", **small)
    model, _ = train(RunConfig(task=task, loss="samp", basis="triangular", epochs=1))
    evaluate(model, task)
    train(RunConfig(task=SyntheticTask("scatter3d", size=32, **small), loss="soft-dr", epochs=1))
    assert not loaded(), f"loaded before any gaussian cdf: {loaded()}"
    basis_sample_all(MixtureSpec("gaussian"), Support.regular_grid(4), np.full((4, 1), 0.25))
    assert "scipy.special" in sys.modules, "the gaussian inverse cdf ran without scipy.special"
    """
)


def test_scipy_special_loads_on_the_first_gaussian_cdf():
    src = os.path.dirname(os.path.dirname(diffloc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_ON_FIRST_GAUSSIAN_CDF], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
