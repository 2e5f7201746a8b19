"""The golden outputs: 49 files whose bytes every change to the engine must
keep, and the manifest that pins their sha256 digests.

They are the history, model and eval files of the five objectives on the
three task kinds (3 epochs, 64 training examples, scatter3d size 64), the
gradcheck rows at 2 seeds, the default varcompare rows and the two distcheck
files of 2 maps at 20 017 draws.  Each is made by the command line, in this
process.  The bits depend on numpy, Python and the BLAS kernel, so the
manifest records those too.

    PYTHONPATH=src python tests/golden_outputs.py

rewrites tests/golden/manifest.json from the code as it stands and prints
each file whose digest moved, or "no digest moved".  A change that means to
move bits runs it and says which digests moved and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from diffloc.harness.cli import main as diffloc
from diffloc.harness.tasks import TASK_KINDS
from diffloc.harness.training import LOSSES

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"


def commands() -> dict[str, list[str]]:
    """Each golden file -> the diffloc arguments that make it, with the
    file's own name as its output path; the calls run in this order."""
    calls = {}
    for kind in TASK_KINDS:
        size = ["--task-size", "64"] if kind == "scatter3d" else []
        for loss in LOSSES:
            stem = f"{kind}-{loss}"
            calls[f"{stem}-history.csv"] = [
                "train", "--task", kind, *size, "--loss", loss, "--epochs", "3", "--train-count", "64",
                "--out", f"{stem}-history.csv", "--model-out", f"{stem}-model.npz",
            ]
            calls[f"{stem}-model.npz"] = calls[f"{stem}-history.csv"]
            calls[f"{stem}-eval.csv"] = ["eval", "--model", f"{stem}-model.npz", "--out", f"{stem}-eval.csv"]
    calls["gradcheck.csv"] = ["gradcheck", "--seeds", "2", "--out", "gradcheck.csv"]
    calls["varcompare.csv"] = ["varcompare", "--out", "varcompare.csv"]
    calls["distcheck.csv"] = ["distcheck", "--maps", "2", "--draws", "20017", "--out", "distcheck.csv"]
    calls["distcheck_relaxed.csv"] = calls["distcheck.csv"]
    return calls


def environment() -> dict[str, str]:
    """Python, numpy and the loaded BLAS, its kernel included."""
    env = {"python": platform.python_version(), "numpy": np.__version__, "blas": "unknown"}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*.so*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, name):
                config = getattr(lib, name)
                config.argtypes, config.restype = [], ctypes.c_char_p
                env["blas"] = " ".join(config().decode().split())
                break
    return env


def generate(directory: Path) -> dict[str, str]:
    """Make every golden file in `directory`; each file's sha256."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        done = set()
        for args in commands().values():
            if tuple(args) not in done:
                done.add(tuple(args))
                with contextlib.redirect_stdout(io.StringIO()):
                    status = diffloc(args)
                if status != 0:
                    raise RuntimeError(f"diffloc {' '.join(args)} exited with {status}")
    finally:
        os.chdir(previous)
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in commands()}


def write_manifest(directory: Path) -> list[str]:
    """Rewrite the manifest from the files made in `directory`; the names
    whose digest differs from the manifest's before, or that it lacked."""
    old = json.loads(MANIFEST.read_text())["files"] if MANIFEST.exists() else {}
    digests = generate(directory)
    calls = commands()
    files = {name: {"sha256": digests[name], "command": "diffloc " + " ".join(calls[name])} for name in calls}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"environment": environment(), "files": files}, indent=1) + "\n")
    return [name for name in files if old.get(name, {}).get("sha256") != digests[name]]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        moved = write_manifest(Path(tmp))
    print(f"wrote {MANIFEST}", file=sys.stderr)
    print("\n".join(f"moved: {name}" for name in moved) or "no digest moved")
