import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched.errors import ConfigError, GradientError
from edgesched.nn import (
    Adam,
    EncoderConfig,
    FeatureEncoder,
    MlpNet,
    ParamSet,
    PolicyNet,
    ValueNet,
    finite_difference_grads,
    gradient_relative_error,
)
from edgesched.nn.layers import (
    attention_backward,
    attention_forward,
    attention_params,
    dense_forward,
    sinusoidal_positions,
    softmax,
    softmax_backward,
    tanh_backward,
)

GRAD_TOL = 1e-7  # float64 central differences are far tighter than this


class TestLayers:
    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(5, 3))
        p = softmax(z)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-14)
        assert np.all(p > 0)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(p, 0.5)
        p = softmax(np.array([[1e308, 0.0]]))
        assert np.isfinite(p).all()

    def test_softmax_backward_matches_jacobian(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=4)
        p = softmax(z[None, :])[0]
        dp = rng.normal(size=4)
        jac = np.diag(p) - np.outer(p, p)
        assert np.allclose(softmax_backward(dp[None, :], p[None, :])[0], jac @ dp)

    def test_sinusoidal_positions_values(self):
        pe = sinusoidal_positions(4, 6)
        assert pe.shape == (4, 6)
        assert np.allclose(pe[0, 0::2], 0.0)  # sin(0)
        assert np.allclose(pe[0, 1::2], 1.0)  # cos(0)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-15)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-15)
        assert pe[2, 2] == pytest.approx(np.sin(2.0 / 10000.0 ** (2.0 / 6.0)), abs=1e-15)

    def test_sinusoidal_positions_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sinusoidal_positions(4, 5)

    def test_attention_shapes(self):
        rng = np.random.default_rng(2)
        params = attention_params(rng, 8, "att")
        x = rng.normal(size=(3, 5, 8))
        y, cache = attention_forward(x, params, heads=2, prefix="att")
        assert y.shape == x.shape
        # attention rows are distributions over tokens
        assert np.allclose(cache["probs"].sum(axis=-1), 1.0)

    def test_attention_gradcheck(self):
        rng = np.random.default_rng(3)
        raw = attention_params(rng, 4, "att")
        x = rng.normal(size=(2, 3, 4))
        target = rng.normal(size=(2, 3, 4))
        params = ParamSet(raw)

        def loss(ps):
            y, _ = attention_forward(x, ps.tensors, heads=2, prefix="att")
            return float(((y - target) ** 2).sum())

        y, cache = attention_forward(x, params.tensors, heads=2, prefix="att")
        _, grads = attention_backward(2.0 * (y - target), cache, params.tensors, "att")
        fd = finite_difference_grads(loss, params)
        assert gradient_relative_error(grads, fd) < GRAD_TOL

    def test_attention_input_gradient(self):
        rng = np.random.default_rng(4)
        raw = attention_params(rng, 4, "att")
        x = rng.normal(size=(1, 3, 4))
        y, cache = attention_forward(x, raw, heads=2, prefix="att")
        dx, _ = attention_backward(np.ones_like(y), cache, raw, "att")
        # numeric check entry by entry
        fd = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += eps
            hi = attention_forward(xp, raw, heads=2, prefix="att")[0].sum()
            xp[idx] -= 2 * eps
            lo = attention_forward(xp, raw, heads=2, prefix="att")[0].sum()
            fd[idx] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(dx - fd)) < 1e-6


class TestMlp:
    def test_forward_shapes_and_zero_final(self):
        net = MlpNet(6, (5,), 2, prefix="m", zero_final=True)
        params = net.init_params(np.random.default_rng(0))
        y, _ = net.forward(params, np.random.default_rng(1).normal(size=(7, 6)))
        assert y.shape == (7, 2)
        assert np.all(y == 0.0)  # zeroed final layer: neutral start

    def test_bad_input_shape(self):
        net = MlpNet(6, (5,), 2, prefix="m")
        params = net.init_params(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            net.forward(params, np.zeros((3, 4)))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        net = MlpNet(4, (6, 5), 3, prefix="m", zero_final=False)
        params = ParamSet(net.init_params(rng))
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 3))

        def loss(ps):
            y, _ = net.forward(ps, x)
            return float(((y - target) ** 2).mean())

        y, cache = net.forward(params, x)
        _, grads = net.backward(params, cache, 2.0 * (y - target) / y.size)
        fd = finite_difference_grads(loss, params)
        assert gradient_relative_error(grads, fd) < GRAD_TOL


class TestEncoder:
    def small_cfg(self, **kw):
        base = dict(
            input_dim=16,
            num_patches=4,
            num_blocks=1,
            num_heads=2,
            model_dim=6,
            feature_dim=5,
        )
        base.update(kw)
        return EncoderConfig(**base)

    def test_forward_shape(self):
        enc = FeatureEncoder(self.small_cfg())
        params = enc.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(9, 16))
        feats, _ = enc.forward(params, x)
        assert feats.shape == (9, 5)

    def test_positionals_change_output(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 16))
        with_pe = FeatureEncoder(self.small_cfg(use_positional=True))
        without = FeatureEncoder(self.small_cfg(use_positional=False))
        params = with_pe.init_params(np.random.default_rng(3))
        a, _ = with_pe.forward(params, x)
        b, _ = without.forward(params, x)
        assert not np.allclose(a, b)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            self.small_cfg(input_dim=15)  # not divisible into 4 patches
        with pytest.raises(ConfigError):
            self.small_cfg(model_dim=7)  # not divisible across 2 heads
        with pytest.raises(ConfigError):
            self.small_cfg(num_blocks=-1)
        with pytest.raises(ConfigError, match="model_dim"):
            self.small_cfg(num_heads=3, model_dim=9)  # odd: no sin/cos pairs
        FeatureEncoder(self.small_cfg(num_heads=3, model_dim=9, use_positional=False))

    def test_bad_input_shape(self):
        enc = FeatureEncoder(self.small_cfg())
        params = enc.init_params(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            enc.forward(params, np.zeros((2, 17)))

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        enc = FeatureEncoder(self.small_cfg())
        params = ParamSet(enc.init_params(rng))
        x = rng.normal(size=(2, 16))
        target = rng.normal(size=(2, 5))

        def loss(ps):
            y, _ = enc.forward(ps, x)
            return float(((y - target) ** 2).sum())

        y, cache = enc.forward(params, x)
        _, grads = enc.backward(params, cache, 2.0 * (y - target))
        fd = finite_difference_grads(loss, params)
        assert gradient_relative_error(grads, fd) < GRAD_TOL


class TestHeads:
    def test_policy_starts_uniform(self):
        net = PolicyNet(6, hidden=(8,))
        params = net.init_params(np.random.default_rng(0))
        probs, _ = net.forward(params, np.random.default_rng(1).normal(size=(4, 6)))
        assert np.allclose(probs, 0.5)

    def test_policy_log_prob_gradcheck(self):
        rng = np.random.default_rng(7)
        net = PolicyNet(5, hidden=(6,))
        raw = net.init_params(rng)
        # perturb away from the zeroed final layer so probs are non-trivial
        for k in raw:
            raw[k] = raw[k] + 0.3 * rng.normal(size=raw[k].shape)
        params = ParamSet(raw)
        x = rng.normal(size=(4, 5))
        taken = rng.integers(0, 2, size=4)

        def loss(ps):
            p, _ = net.forward(ps, x)
            return float(np.log(p[np.arange(4), taken]).mean())

        p, cache = net.forward(params, x)
        dprobs = np.zeros_like(p)
        dprobs[np.arange(4), taken] = 1.0 / (4 * p[np.arange(4), taken])
        _, grads = net.backward(params, cache, dprobs)
        fd = finite_difference_grads(loss, params)
        assert gradient_relative_error(grads, fd) < GRAD_TOL

    def test_value_starts_at_zero(self):
        net = ValueNet(6, hidden=(8,))
        params = net.init_params(np.random.default_rng(0))
        v, _ = net.forward(params, np.random.default_rng(1).normal(size=(4, 6)))
        assert v.shape == (4,)
        assert np.all(v == 0.0)

    def test_value_mse_gradcheck(self):
        rng = np.random.default_rng(8)
        net = ValueNet(5, hidden=(6,))
        raw = net.init_params(rng)
        for k in raw:
            raw[k] = raw[k] + 0.3 * rng.normal(size=raw[k].shape)
        params = ParamSet(raw)
        x = rng.normal(size=(4, 5))
        returns = rng.normal(size=4)

        def loss(ps):
            v, _ = net.forward(ps, x)
            return float(((v - returns) ** 2).mean())

        v, cache = net.forward(params, x)
        _, grads = net.backward(params, cache, 2.0 * (v - returns) / 4)
        fd = finite_difference_grads(loss, params)
        assert gradient_relative_error(grads, fd) < GRAD_TOL


# -- the plain formulas the in-place kernels must reproduce bit for bit -------


def ref_dense_forward(x, w, b):
    return x @ w + b


def ref_tanh_backward(dy, y):
    return dy * (1.0 - y * y)


def ref_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_softmax_backward(dp, p):
    inner = (dp * p).sum(axis=-1, keepdims=True)
    return p * (dp - inner)


def ref_dense_backward(dy, x, w):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


def _split(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def ref_attention_forward(x, p, heads, pre):
    q = ref_dense_forward(x, p[f"{pre}.wq"], p[f"{pre}.qb"])
    k = ref_dense_forward(x, p[f"{pre}.wk"], p[f"{pre}.kb"])
    v = ref_dense_forward(x, p[f"{pre}.wv"], p[f"{pre}.vb"])
    qh, kh, vh = (_split(a, heads) for a in (q, k, v))
    scale = 1.0 / np.sqrt(qh.shape[-1])
    probs = ref_softmax((qh @ kh.transpose(0, 1, 3, 2)) * scale)
    ctx = _merge(probs @ vh)
    out = ref_dense_forward(ctx, p[f"{pre}.wo"], p[f"{pre}.ob"])
    cache = {"x": x, "qh": qh, "kh": kh, "vh": vh, "probs": probs, "ctx": ctx,
             "scale": scale, "heads": heads}
    return out, cache


def ref_attention_backward(dout, c, p, pre):
    dctx, dwo, dob = ref_dense_backward(dout, c["ctx"], p[f"{pre}.wo"])
    dctx_h = _split(dctx, c["heads"])
    dprobs = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
    dvh = c["probs"].transpose(0, 1, 3, 2) @ dctx_h
    dscores = ref_softmax_backward(dprobs, c["probs"]) * c["scale"]
    dqh = dscores @ c["kh"]
    dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]
    dq, dk, dv = (_merge(a) for a in (dqh, dkh, dvh))
    dx_q, dwq, dqb = ref_dense_backward(dq, c["x"], p[f"{pre}.wq"])
    dx_k, dwk, dkb = ref_dense_backward(dk, c["x"], p[f"{pre}.wk"])
    dx_v, dwv, dvb = ref_dense_backward(dv, c["x"], p[f"{pre}.wv"])
    grads = {f"{pre}.wo": dwo, f"{pre}.ob": dob, f"{pre}.wq": dwq, f"{pre}.qb": dqb,
             f"{pre}.wk": dwk, f"{pre}.kb": dkb, f"{pre}.wv": dwv, f"{pre}.vb": dvb}
    return dx_q + dx_k + dx_v, grads


def ref_encoder_forward(enc, p, x):
    cfg, pre = enc.cfg, enc.prefix
    patches = x.reshape(x.shape[0], cfg.num_patches, cfg.patch_size)
    h = ref_dense_forward(patches, p[f"{pre}.embed.w"], p[f"{pre}.embed.b"])
    if cfg.use_positional:
        h = h + enc.positions[None, :, :]
    embedded = h
    blocks = []
    for i in range(cfg.num_blocks):
        a, cache = ref_attention_forward(h, p, cfg.num_heads, f"{pre}.block{i}")
        h = h + a
        blocks.append(cache)
    pooled = h.mean(axis=1)
    feats = ref_dense_forward(pooled, p[f"{pre}.out.w"], p[f"{pre}.out.b"])
    return feats, {"patches": patches, "embedded": embedded, "blocks": blocks,
                   "pooled": pooled}


def ref_encoder_backward(enc, p, cache, dfeats):
    cfg, pre = enc.cfg, enc.prefix
    dpooled, dw, db = ref_dense_backward(dfeats, cache["pooled"], p[f"{pre}.out.w"])
    grads = {f"{pre}.out.w": dw, f"{pre}.out.b": db}
    dh = np.repeat(dpooled[:, None, :], cfg.num_patches, axis=1) / cfg.num_patches
    for i in reversed(range(cfg.num_blocks)):
        dx_attn, attn_grads = ref_attention_backward(
            dh, cache["blocks"][i], p, f"{pre}.block{i}"
        )
        grads.update(attn_grads)
        dh = dh + dx_attn
    dpatches, dw, db = ref_dense_backward(dh, cache["patches"], p[f"{pre}.embed.w"])
    grads[f"{pre}.embed.w"] = dw
    grads[f"{pre}.embed.b"] = db
    return dpatches.reshape(dpatches.shape[0], cfg.input_dim), grads


def assert_bits_equal(got, want):
    """Same structure, and every array the same shape and float64 bits."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_bits_equal(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


_TOKENS = st.sampled_from([1, 2, 7, 8, 9])
_HEADS = st.sampled_from([1, 2, 4])
# Two or more columns per head.  With one, the plain formula's head merge is
# a strided view rather than a copy, so a bias gradient sums its rows in
# another order and only the last bits differ.
_HEAD_DIM = st.integers(2, 5)


class TestKernelsMatchPlainFormulas:
    """The in-place kernels give the plain formulas' float64 bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 70),
        tokens=_TOKENS,
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_elementwise_kernels(self, batch, tokens, width, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, tokens, width))
        w = rng.normal(size=(width, 5))
        b = rng.normal(size=5)
        assert_bits_equal(dense_forward(x, w, b), ref_dense_forward(x, w, b))
        z = rng.normal(scale=10.0, size=(batch, 3, tokens))
        p = softmax(z)
        assert_bits_equal(p, ref_softmax(z))
        dp = rng.normal(size=z.shape)
        assert_bits_equal(softmax_backward(dp, p), ref_softmax_backward(dp, p))
        y = np.tanh(x)
        assert_bits_equal(tanh_backward(x, y), ref_tanh_backward(x, y))

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 70),
        tokens=_TOKENS,
        heads=_HEADS,
        head_dim=_HEAD_DIM,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_attention(self, batch, tokens, heads, head_dim, seed):
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        params = {
            k: v + rng.normal(scale=0.3, size=v.shape)
            for k, v in attention_params(rng, dim, "att").items()
        }
        x = rng.normal(size=(batch, tokens, dim))
        y, cache = attention_forward(x, params, heads, "att")
        want_y, want_cache = ref_attention_forward(x, params, heads, "att")
        assert_bits_equal(y, want_y)
        assert_bits_equal(cache, want_cache)
        kept = copy.deepcopy(cache)
        y += 1.0  # the encoder's residual writes into a block's output
        assert_bits_equal(cache, kept)
        dout = rng.normal(size=x.shape)
        dx, grads = attention_backward(dout, cache, params, "att")
        want_dx, want_grads = ref_attention_backward(dout, want_cache, params, "att")
        assert_bits_equal(dx, want_dx)
        assert_bits_equal(grads, want_grads)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 70),
        tokens=_TOKENS,
        heads=_HEADS,
        head_dim=_HEAD_DIM,
        patch=st.integers(1, 3),
        blocks=st.integers(0, 2),
        positional=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_encoder(self, batch, tokens, heads, head_dim, patch, blocks, positional, seed):
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        enc = FeatureEncoder(EncoderConfig(
            input_dim=tokens * patch,
            num_patches=tokens,
            num_blocks=blocks,
            num_heads=heads,
            model_dim=dim,
            feature_dim=3,
            use_positional=positional and dim % 2 == 0,
        ))
        params = {
            k: v + rng.normal(scale=0.3, size=v.shape)
            for k, v in enc.init_params(rng).items()
        }
        x = rng.normal(size=(batch, tokens * patch))
        feats, cache = enc.forward(params, x)
        want_feats, want_cache = ref_encoder_forward(enc, params, x)
        assert_bits_equal(feats, want_feats)
        assert_bits_equal(cache, want_cache)
        kept = copy.deepcopy(cache)
        feats += 1.0
        assert_bits_equal(cache, kept)
        dfeats = rng.normal(size=feats.shape)
        dx, grads = enc.backward(params, cache, dfeats)
        want_dx, want_grads = ref_encoder_backward(enc, params, want_cache, dfeats)
        assert_bits_equal(dx, want_dx)
        assert_bits_equal(grads, want_grads)
        assert_bits_equal(cache, kept)  # backward reads its cache only


class TestParamSet:
    def test_copy_is_independent(self):
        ps = ParamSet({"a": np.array([1.0])})
        cp = ps.copy()
        cp.tensors["a"][0] = 9.0
        assert ps["a"][0] == 1.0


def reference_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The functional Adam formula: new arrays every step, inputs untouched.

    Returns the final tensors and the raw first and second moments.
    """
    params = dict(params)
    m, v = {}, {}
    for t, grads in enumerate(grads_seq, start=1):
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for name in sorted(params):
            g = grads[name]
            m[name] = (
                (1.0 - beta1) * g if t == 1 else beta1 * m[name] + (1.0 - beta1) * g
            )
            v[name] = (
                (1.0 - beta2) * g * g
                if t == 1
                else beta2 * v[name] + (1.0 - beta2) * g * g
            )
            step = lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
            params[name] = params[name] - step
    return params, m, v


_SHAPES = st.lists(
    st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
    min_size=1,
    max_size=3,
)


class TestAdam:
    def test_single_step_hand_computed(self):
        params = ParamSet({"w": np.array([1.0])})
        opt = Adam(lr=0.1)
        g = 2.0
        assert opt.step(params, {"w": np.array([g])}) is None
        # first step: m-hat = g, v-hat = g^2, so the update is lr * g/(|g| + eps)
        expected = 1.0 - 0.1 * g / (np.sqrt(g * g) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_two_steps_hand_computed(self):
        params = ParamSet({"w": np.array([0.0])})
        opt = Adam(lr=0.5)
        opt.step(params, {"w": np.array([1.0])})
        w1 = params["w"][0]
        opt.step(params, {"w": np.array([-1.0])})
        m = 0.9 * 0.1 * 1.0 + 0.1 * (-1.0)  # raw first moment after 2 steps
        v = 0.999 * 0.001 * 1.0 + 0.001 * 1.0
        mhat = m / (1.0 - 0.9**2)
        vhat = v / (1.0 - 0.999**2)
        expected = w1 - 0.5 * mhat / (np.sqrt(vhat) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=_SHAPES,
        steps=st.integers(1, 5),
        lr=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_step_matches_functional_formula(self, shapes, steps, lr, seed):
        rng = np.random.default_rng(seed)
        start = {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        grads_seq = [
            {k: rng.normal(scale=10.0 ** rng.integers(-3, 3), size=a.shape)
             for k, a in start.items()}
            for _ in range(steps)
        ]
        want, want_m, want_v = reference_adam(start, grads_seq, lr)
        params = ParamSet({k: a.copy() for k, a in start.items()})
        tensors = dict(params.tensors)
        opt = Adam(lr=lr)
        for grads in grads_seq:
            opt.step(params, grads)
        for name in start:
            assert params[name] is tensors[name]  # updated in place
            assert np.array_equal(params[name], want[name])
            assert np.array_equal(opt._m[name], want_m[name])
            assert np.array_equal(opt._v[name], want_v[name])
        assert opt.t == steps

    def test_non_finite_gradient_rejected(self):
        params = ParamSet({"u": np.array([1.0]), "w": np.array([1.0])})
        opt = Adam(lr=0.1)
        opt.step(params, {"u": np.array([0.5]), "w": np.array([-0.5])})
        before = params.copy()
        m = {k: a.copy() for k, a in opt._m.items()}
        v = {k: a.copy() for k, a in opt._v.items()}
        # the bad tensor sorts last, after "u" could already have moved
        with pytest.raises(GradientError, match="'w'"):
            opt.step(params, {"u": np.array([1.0]), "w": np.array([np.nan])})
        assert opt.t == 1
        for name in ("u", "w"):
            assert np.array_equal(params[name], before[name])
            assert np.array_equal(opt._m[name], m[name])
            assert np.array_equal(opt._v[name], v[name])

    def test_missing_gradient_rejected(self):
        params = ParamSet({"w": np.array([1.0]), "u": np.array([1.0])})
        with pytest.raises(KeyError, match="u"):
            Adam(lr=0.1).step(params, {"w": np.array([1.0])})
        assert params["w"][0] == 1.0

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)

    def test_converges_on_quadratic(self):
        params = ParamSet({"w": np.array([5.0])})
        opt = Adam(lr=0.2)
        for _ in range(300):
            opt.step(params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-3


class TestCheckpoints:
    # A policy checkpoint is an in-memory ParamSet.copy (Trainer.snapshot):
    # it must give back every tensor bit for bit, in memory of its own.
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(9)
        ps = ParamSet({
            "a.w": rng.normal(size=(3, 2)),
            "a.b": np.array([-0.0, 5e-324, np.nan]),
            "c": np.array(0.5),
        })
        back = ps.copy()
        assert back.names() == ps.names()
        for name in ps.names():
            assert back[name].shape == ps[name].shape
            assert back[name].dtype == np.float64
            assert back[name].tobytes() == ps[name].tobytes()
            assert not np.shares_memory(back[name], ps[name])
