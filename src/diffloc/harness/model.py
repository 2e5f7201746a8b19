"""Two-layer MLP from flattened observations to per-point logits."""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .tasks import SyntheticTask

__all__ = ["MLPModel"]


class MLPModel:
    """relu MLP; downstream code softmaxes the logits into a probability map."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, seed: int = 0, _init: bool = True):
        self.in_dim = int(in_dim)
        self.hidden_dim = int(hidden_dim)
        self.out_dim = int(out_dim)
        if _init:
            rng = np.random.default_rng([int(seed), 7310])
            w1 = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, hidden_dim))
            w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), (hidden_dim, out_dim))
            self.w1 = Tensor(w1, requires_grad=True)
            self.b1 = Tensor(np.zeros(hidden_dim), requires_grad=True)
            self.w2 = Tensor(w2, requires_grad=True)
            self.b2 = Tensor(np.zeros(out_dim), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def logits(self, obs: np.ndarray) -> Tensor:
        """(batch, in_dim) observations to (batch, out_dim) logits."""
        x = np.asarray(obs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (batch, {self.in_dim}) observations, got {x.shape}")
        hidden = ad.matrix_multiply(Tensor(x), self.w1, self.b1, relu=True)
        return ad.matrix_multiply(hidden, self.w2, self.b2)

    def logit_values(self, obs: np.ndarray) -> np.ndarray:
        """Forward pass without recording; identical numbers to logits()."""
        with ad.no_grad():
            return self.logits(obs).values

    def save(self, path, task: SyntheticTask) -> None:
        """Write the weights and, in the `meta` entry, the task they were trained on."""
        meta = {"in_dim": self.in_dim, "hidden_dim": self.hidden_dim, "out_dim": self.out_dim,
                "task": dataclasses.asdict(task)}
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            w1=self.w1.values,
            b1=self.b1.values,
            w2=self.w2.values,
            b2=self.b2.values,
        )

    @classmethod
    def load(cls, path) -> tuple["MLPModel", SyntheticTask]:
        """The model save() wrote to `path` and its task.  OSError when the file
        cannot be opened; ValueError naming the fault when it is not such a
        model, or when reading the archive fails."""
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not an .npz archive")
            fh.seek(0)
            try:
                with np.load(fh) as data:
                    if "meta" not in data.files:
                        raise ValueError("no meta entry")
                    try:
                        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                    except ValueError:
                        meta = None
                    if not isinstance(meta, dict):
                        raise ValueError("meta is not a JSON object")
                    missing = [key for key in ("in_dim", "hidden_dim", "out_dim") if key not in meta]
                    if missing:
                        raise ValueError(f"meta lacks {', '.join(missing)}")
                    if "task" not in meta:
                        raise ValueError("meta holds no task; the model predates saving it, so retrain it")
                    try:
                        task = SyntheticTask(**meta["task"])
                    except (TypeError, ValueError) as exc:
                        raise ValueError(f"meta's task is not valid: {exc}") from None
                    i, h, o = meta["in_dim"], meta["hidden_dim"], meta["out_dim"]
                    weights = {}
                    for name, shape in {"w1": (i, h), "b1": (h,), "w2": (h, o), "b2": (o,)}.items():
                        if name not in data.files:
                            raise ValueError(f"no {name} entry")
                        weights[name] = values = data[name]
                        if values.shape != shape:
                            raise ValueError(f"{name} has shape {values.shape}, but meta says {shape}")
                        if values.dtype.kind not in "fiu" or not np.isfinite(values).all():
                            raise ValueError(f"{name} holds values that are not finite numbers")
            except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError) as exc:
                # A member that fails its CRC check, will not inflate, ends
                # early, whose header names a method zipfile lacks, or whose
                # header offset points before the start of the file.
                raise ValueError(f"damaged archive: {str(exc) or 'a member ends early'}") from None
        model = cls(i, h, o, _init=False)
        for name, values in weights.items():
            setattr(model, name, Tensor(values, requires_grad=True))
        return model, task
