"""Network assemblies: the patch-attention feature encoder and MLP heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import layers
from .params import ParamSet


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the question-vector encoder.

    The input vector is cut into ``num_patches`` contiguous patches which are
    embedded, tagged with sinusoidal positions, passed through residual
    self-attention blocks, mean-pooled, and projected to ``feature_dim``.
    """

    input_dim: int
    num_patches: int = 8
    num_blocks: int = 2
    num_heads: int = 4
    model_dim: int = 64
    feature_dim: int = 32
    use_positional: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ConfigError("encoder dims must be >= 1")
        if self.num_patches < 1 or self.input_dim % self.num_patches:
            raise ConfigError(
                f"input_dim {self.input_dim} must divide into "
                f"{self.num_patches} equal patches"
            )
        if self.num_heads < 1 or self.model_dim % self.num_heads:
            raise ConfigError(
                f"model_dim {self.model_dim} must divide across "
                f"{self.num_heads} heads"
            )
        if self.num_blocks < 0:
            raise ConfigError("num_blocks must be >= 0")

    @property
    def patch_size(self) -> int:
        return self.input_dim // self.num_patches


class FeatureEncoder:
    """Patch + self-attention encoder mapping (B, input_dim) -> (B, feature_dim)."""

    prefix = "enc"  # of every parameter name

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.positions = layers.sinusoidal_positions(cfg.num_patches, cfg.model_dim)

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        cfg, pre = self.cfg, self.prefix
        out = layers.dense_params(rng, cfg.patch_size, cfg.model_dim, f"{pre}.embed")
        for i in range(cfg.num_blocks):
            out.update(layers.attention_params(rng, cfg.model_dim, f"{pre}.block{i}"))
        out.update(layers.dense_params(rng, cfg.model_dim, cfg.feature_dim, f"{pre}.out"))
        return out

    def forward(
        self, params: ParamSet | dict, x: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        cfg, pre = self.cfg, self.prefix
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ConfigError(
                f"encoder input shape {x.shape} != (batch, {cfg.input_dim})"
            )
        patches = x.reshape(x.shape[0], cfg.num_patches, cfg.patch_size)
        h = layers.dense_forward(patches, params[f"{pre}.embed.w"], params[f"{pre}.embed.b"])
        if cfg.use_positional:
            h = h + self.positions[None, :, :]
        embedded = h
        blocks = []
        for i in range(cfg.num_blocks):
            a, cache = layers.attention_forward(h, params, cfg.num_heads, f"{pre}.block{i}")
            h = h + a  # residual
            blocks.append(cache)
        pooled = h.mean(axis=1)
        feats = layers.dense_forward(pooled, params[f"{pre}.out.w"], params[f"{pre}.out.b"])
        cache = {"patches": patches, "embedded": embedded, "blocks": blocks, "pooled": pooled}
        return feats, cache

    def backward(
        self, params: ParamSet | dict, cache: dict, dfeats: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        cfg, pre = self.cfg, self.prefix
        grads: dict[str, np.ndarray] = {}
        dpooled, dw, db = layers.dense_backward(
            dfeats, cache["pooled"], params[f"{pre}.out.w"]
        )
        grads[f"{pre}.out.w"] = dw
        grads[f"{pre}.out.b"] = db
        dh = np.repeat(dpooled[:, None, :], cfg.num_patches, axis=1) / cfg.num_patches
        for i in reversed(range(cfg.num_blocks)):
            dx_attn, attn_grads = layers.attention_backward(
                dh, cache["blocks"][i], params, f"{pre}.block{i}"
            )
            grads.update(attn_grads)
            dh = dh + dx_attn  # residual: gradient flows through both branches
        dpatches, dw, db = layers.dense_backward(
            dh, cache["patches"], params[f"{pre}.embed.w"]
        )
        grads[f"{pre}.embed.w"] = dw
        grads[f"{pre}.embed.b"] = db
        dx = dpatches.reshape(dpatches.shape[0], cfg.input_dim)
        return dx, grads


class MlpNet:
    """Small tanh MLP; the final layer can start at zero for neutral outputs."""

    def __init__(
        self,
        in_dim: int,
        hidden: tuple[int, ...],
        out_dim: int,
        prefix: str,
        zero_final: bool = True,
    ):
        if in_dim < 1 or out_dim < 1 or any(h < 1 for h in hidden):
            raise ConfigError("MLP dims must be >= 1")
        self.in_dim = in_dim
        self.hidden = tuple(hidden)
        self.out_dim = out_dim
        self.prefix = prefix
        self.zero_final = zero_final

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        out = {}
        prev = self.in_dim
        for i, h in enumerate(self.hidden):
            out.update(layers.dense_params(rng, prev, h, f"{self.prefix}.h{i}"))
            prev = h
        out.update(
            layers.dense_params(
                rng, prev, self.out_dim, f"{self.prefix}.out", zero=self.zero_final
            )
        )
        return out

    def forward(
        self, params: ParamSet | dict, x: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ConfigError(
                f"{self.prefix} input shape {x.shape} != (batch, {self.in_dim})"
            )
        acts = []
        h = x
        for i in range(len(self.hidden)):
            z = layers.dense_forward(
                h, params[f"{self.prefix}.h{i}.w"], params[f"{self.prefix}.h{i}.b"]
            )
            a = layers.tanh_forward(z)
            acts.append((h, a))
            h = a
        y = layers.dense_forward(
            h, params[f"{self.prefix}.out.w"], params[f"{self.prefix}.out.b"]
        )
        return y, {"acts": acts, "last": h}

    def backward(
        self, params: ParamSet | dict, cache: dict, dy: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        grads: dict[str, np.ndarray] = {}
        dh, dw, db = layers.dense_backward(
            dy, cache["last"], params[f"{self.prefix}.out.w"]
        )
        grads[f"{self.prefix}.out.w"] = dw
        grads[f"{self.prefix}.out.b"] = db
        for i in reversed(range(len(self.hidden))):
            x_in, a = cache["acts"][i]
            dz = layers.tanh_backward(dh, a)
            dh, dw, db = layers.dense_backward(
                dz, x_in, params[f"{self.prefix}.h{i}.w"]
            )
            grads[f"{self.prefix}.h{i}.w"] = dw
            grads[f"{self.prefix}.h{i}.b"] = db
        return dh, grads


class PolicyNet:
    """Action-probability head: MLP trunk plus a softmax over two actions."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...] = (128, 128)):
        self.mlp = MlpNet(in_dim, hidden, 2, prefix="pi", zero_final=True)
        self.in_dim = in_dim

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return self.mlp.init_params(rng)

    def forward(self, params, x: np.ndarray) -> tuple[np.ndarray, dict]:
        logits, cache = self.mlp.forward(params, x)
        probs = layers.softmax(logits)
        cache["probs"] = probs
        return probs, cache

    def backward(self, params, cache: dict, dprobs: np.ndarray):
        dlogits = layers.softmax_backward(dprobs, cache["probs"])
        return self.mlp.backward(params, cache, dlogits)


class ValueNet:
    """Scalar state-value head over the concatenated global observation."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...] = (128, 128)):
        self.mlp = MlpNet(in_dim, hidden, 1, prefix="vf", zero_final=True)
        self.in_dim = in_dim

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return self.mlp.init_params(rng)

    def forward(self, params, x: np.ndarray) -> tuple[np.ndarray, dict]:
        y, cache = self.mlp.forward(params, x)
        return y[:, 0], cache

    def backward(self, params, cache: dict, dv: np.ndarray):
        return self.mlp.backward(params, cache, dv[:, None])
