"""Named-tensor parameter sets and the Adam optimizer.

Parameters are plain dicts of float64 arrays wrapped in a :class:`ParamSet`.
:meth:`Adam.step` updates a set's tensors in place, so a view that must stay
frozen while training continues (a policy snapshot handed to the agents) is
taken with :meth:`ParamSet.copy`.
"""

from __future__ import annotations

import numpy as np

from ..errors import GradientError

# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
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
        b1, b2 = BETA1, BETA2
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
            step = self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
            params.tensors[name] -= step
