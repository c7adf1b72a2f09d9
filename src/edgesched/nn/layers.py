"""Functional layer primitives with explicit backward passes.

Every forward returns whatever the matching backward needs as an opaque
cache.  All math is float64 so finite-difference gradient checks hold to
tight tolerances.

Every forward and backward returns arrays it allocated itself, never a
view of an input or of a cache entry, and never writes a cache after
returning.  So a caller may write a returned array in place (the encoder's
residual adds do), and the kernels do their elementwise work in place on
their own fresh arrays: each keeps the operation order of the plain
formula, so the results are the same float64 bits.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(
    rng: np.random.Generator, n_in: int, n_out: int
) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def dense_params(
    rng: np.random.Generator, n_in: int, n_out: int, prefix: str, zero: bool = False
) -> dict[str, np.ndarray]:
    w = np.zeros((n_in, n_out)) if zero else glorot_uniform(rng, n_in, n_out)
    return {f"{prefix}.w": w, f"{prefix}.b": np.zeros(n_out)}


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def dense_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for y = x @ w + b with arbitrary leading batch dims."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = dy @ w.T
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    return dx, dw, db


def tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = y * y
    np.subtract(1.0, out, out=out)
    out *= dy
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis."""
    # A running maximum over the last axis' slices: exact in any order, and
    # far cheaper than ``z.max(axis=-1)`` over a handful of tokens.
    top = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j : j + 1], out=top)
    e = z - top
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Backward through softmax given dL/dp and the probabilities p."""
    out = dp * p
    inner = out.sum(axis=-1, keepdims=True)
    np.subtract(dp, inner, out=out)
    out *= p
    return out


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic alternating sin/cos positional table, shape (length, dim)."""
    if dim % 2:
        raise ValueError(f"positional dim must be even, got {dim}")
    pos = np.arange(length)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    out = np.zeros((length, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


# -- multi-head self-attention ---------------------------------------------


def attention_params(
    rng: np.random.Generator, dim: int, prefix: str
) -> dict[str, np.ndarray]:
    out = {}
    for proj in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{proj}"] = glorot_uniform(rng, dim, dim)
        out[f"{prefix}.{proj[-1]}b"] = np.zeros(dim)
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merged_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over (batch, heads, tokens, ·) operands, written straight
    into the merged (batch, tokens, heads · cols) layout."""
    bsz, heads, tokens, _ = a.shape
    out = np.empty((bsz, tokens, heads * b.shape[-1]))
    np.matmul(a, b, out=out.reshape(bsz, tokens, heads, -1).transpose(0, 2, 1, 3))
    return out


def attention_forward(
    x: np.ndarray, params: dict[str, np.ndarray], heads: int, prefix: str
) -> tuple[np.ndarray, dict]:
    """Multi-head self-attention over x of shape (batch, tokens, dim)."""
    p = params
    q = dense_forward(x, p[f"{prefix}.wq"], p[f"{prefix}.qb"])
    k = dense_forward(x, p[f"{prefix}.wk"], p[f"{prefix}.kb"])
    v = dense_forward(x, p[f"{prefix}.wv"], p[f"{prefix}.vb"])
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    probs = softmax(scores)
    ctx = _merged_matmul(probs, vh)
    out = dense_forward(ctx, p[f"{prefix}.wo"], p[f"{prefix}.ob"])
    cache = {
        "x": x,
        "qh": qh,
        "kh": kh,
        "vh": vh,
        "probs": probs,
        "ctx": ctx,
        "scale": scale,
        "heads": heads,
    }
    return out, cache


def attention_backward(
    dout: np.ndarray, cache: dict, params: dict[str, np.ndarray], prefix: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backward for :func:`attention_forward`; returns (dx, grads)."""
    p = params
    heads = cache["heads"]
    x, qh, kh, vh = cache["x"], cache["qh"], cache["kh"], cache["vh"]
    probs, ctx, scale = cache["probs"], cache["ctx"], cache["scale"]

    dctx, dwo, dob = dense_backward(dout, ctx, p[f"{prefix}.wo"])
    dctx_h = _split_heads(dctx, heads)
    dprobs = dctx_h @ vh.transpose(0, 1, 3, 2)
    dv = _merged_matmul(probs.transpose(0, 1, 3, 2), dctx_h)
    dscores = softmax_backward(dprobs, probs)
    dscores *= scale
    dq = _merged_matmul(dscores, kh)
    dk = _merged_matmul(dscores.transpose(0, 1, 3, 2), qh)

    dx, dwq, dqb = dense_backward(dq, x, p[f"{prefix}.wq"])
    dx_k, dwk, dkb = dense_backward(dk, x, p[f"{prefix}.wk"])
    dx_v, dwv, dvb = dense_backward(dv, x, p[f"{prefix}.wv"])
    grads = {
        f"{prefix}.wo": dwo,
        f"{prefix}.ob": dob,
        f"{prefix}.wq": dwq,
        f"{prefix}.qb": dqb,
        f"{prefix}.wk": dwk,
        f"{prefix}.kb": dkb,
        f"{prefix}.wv": dwv,
        f"{prefix}.vb": dvb,
    }
    dx += dx_k
    dx += dx_v
    return dx, grads
