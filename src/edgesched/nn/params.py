"""Named-tensor parameter sets, the Adam optimizer, and checkpoint files.

Parameters are plain dicts of float64 arrays wrapped in a :class:`ParamSet`.
:meth:`Adam.step` updates a set's tensors in place, so a view that must stay
frozen while training continues (a policy snapshot handed to the agents) is
taken with :meth:`ParamSet.copy`.
"""

from __future__ import annotations

import json

import numpy as np

from .. import jsonl
from ..errors import GradientError, ParseError


class ParamSet:
    """A bundle of named float64 tensors, owned by one optimizer.

    Float64 arrays are taken without a copy, so pass arrays nothing else
    holds: the optimizer writes into them.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {k: np.asarray(v, dtype=float) for k, v in tensors.items()}

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __len__(self) -> int:
        return len(self.tensors)

    def size(self) -> int:
        """Total scalar parameter count."""
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self.tensors.items()})

    def flat(self) -> np.ndarray:
        """All entries concatenated in sorted-name order."""
        return np.concatenate([self.tensors[k].ravel() for k in self.names()])


class Adam:
    """Adam with per-tensor moments, updating parameters and moments in place."""

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ParamSet, grads: dict[str, np.ndarray]) -> None:
        """One update of ``params``' tensors in place.

        Every gradient is checked (present and finite) before any tensor or
        moment changes, so a rejected step leaves all state as it was.
        """
        missing = set(params.tensors) - set(grads)
        if missing:
            raise KeyError(f"gradients missing for tensors: {sorted(missing)}")
        for name in params.names():
            if not np.all(np.isfinite(grads[name])):
                raise GradientError(
                    f"non-finite gradient in tensor {name!r}; step aborted"
                )
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name in params.names():
            g = np.asarray(grads[name], dtype=float)
            m = self._m.get(name)
            if m is None:
                # asarray: numpy returns a scalar, not an array, for 0-d g.
                m = self._m[name] = np.asarray((1.0 - b1) * g)
                v = self._v[name] = np.asarray((1.0 - b2) * g * g)
            else:
                v = self._v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
            step = self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            params.tensors[name] -= step


_CHECKPOINT_FORMAT = "edgesched-params"


def save_params(path, params: ParamSet) -> None:
    """Write a parameter set as JSON lines (header + one line per tensor)."""
    with open(path, "w") as fh:
        header = {"format": _CHECKPOINT_FORMAT, "count": len(params)}
        fh.write(json.dumps(header) + "\n")
        for name in params.names():
            t = params[name]
            row = {
                "name": name,
                "shape": list(t.shape),
                "data": [float(x) for x in t.ravel()],
            }
            fh.write(json.dumps(row) + "\n")


def load_params(path) -> ParamSet:
    """Read a checkpoint written by :func:`save_params`.

    Header keys other than ``format`` and ``count`` are ignored, so files
    that still carry the old ``version`` field load too.
    """
    _, header, body = jsonl.with_header(
        path, _CHECKPOINT_FORMAT, "parameter checkpoint"
    )
    tensors = {}
    for where, row in body:
        name = jsonl.text(where, row, "name")
        data = jsonl.vector(where, row, "data")
        shape = row.get("shape")
        try:
            if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
                raise ValueError
            tensors[name] = data.reshape(shape)  # numpy checks the product
        except ValueError:
            raise ParseError(
                f"{where}: shape: expected a list of integers >= 0 "
                f"with product {data.size}"
            ) from None
    if len(tensors) != header.get("count"):
        raise ParseError(
            f"{path}: header promises {header.get('count')} tensors, "
            f"found {len(tensors)}"
        )
    return ParamSet(tensors)
