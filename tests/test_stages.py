"""Gradient and invariant checks for the individual pipeline stages.

Every backward pass is compared against a central finite-difference oracle
computed here in the test, element by element, using the relative-error form
|analytic - fd| / (|analytic| + 1e-8) at epsilon 1e-5.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.stages import AttentionStage, ConvStage, HeadStage, LstmStage, relu, sigmoid, softmax

EPS = 1e-5
TOL = 1e-4


def central_diff(fn, arr: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of the scalar fn() wrt arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = fn()
        flat[i] = old - eps
        fm = fn()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd) / (np.abs(analytic) + 1e-8)))


class TestActivations:
    def test_sigmoid_midpoint_and_limits(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        big = sigmoid(np.array([1000.0, -1000.0]))
        assert np.all(np.isfinite(big))
        assert big[0] == pytest.approx(1.0)
        assert big[1] == pytest.approx(0.0)

    def test_sigmoid_bytes_match_the_piecewise_form(self):
        def piecewise(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
        edges = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf]
        edges += [np.nan, -np.nan, payload_nan, -payload_nan]
        z = np.concatenate([np.random.default_rng(0).normal(0.0, 30.0, 100_000), edges])
        assert sigmoid(z).tobytes() == piecewise(z).tobytes()
        grid = z[:4096].reshape(64, 64)  # LSTM pre-activation shape, and its column slices
        assert sigmoid(grid).tobytes() == piecewise(grid).tobytes()
        assert sigmoid(grid[:, 48:]).tobytes() == piecewise(grid[:, 48:]).tobytes()

    def test_sigmoid_symmetry(self):
        z = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid(-z), 1.0 - sigmoid(z), atol=1e-12)

    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_softmax_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(7)), np.full(7, 1.0 / 7.0))

    def test_softmax_shift_invariance(self):
        z = np.array([1.0, -3.0, 2.5, 0.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.0), atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_softmax_rows_are_simplex(self, logits):
        p = softmax(np.array(logits))
        assert np.all(p >= 0)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-6)


class TestConvStage:
    def test_output_shape_halves_per_block(self):
        gen = np.random.default_rng(0)
        stage = ConvStage(1, (2, 3), gen)
        out, _ = stage.forward(gen.standard_normal((2, 1, 8, 8)))
        assert out.shape == (2, 3, 2, 2)

    def test_gradients_match_finite_differences(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            stage = ConvStage(1, (2,), gen)
            x = gen.standard_normal((2, 1, 4, 4))
            out, cache = stage.forward(x)
            r = gen.standard_normal(out.shape)

            def loss():
                return float(np.sum(stage.forward(x)[0] * r))

            dx, grads = stage.backward(r, cache)
            for name, param in stage.params():
                fd = central_diff(loss, param)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
            assert max_rel_err(dx, central_diff(loss, x)) < TOL, f"dx seed {seed}"

    def test_two_block_gradients_match_finite_differences(self):
        for seed in range(3):
            gen = np.random.default_rng(100 + seed)
            stage = ConvStage(1, (2, 3), gen)
            x = gen.standard_normal((1, 1, 8, 8))
            out, cache = stage.forward(x)
            r = gen.standard_normal(out.shape)

            def loss():
                return float(np.sum(stage.forward(x)[0] * r))

            dx, grads = stage.backward(r, cache)
            for name, param in stage.params():
                fd = central_diff(loss, param)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
            assert max_rel_err(dx, central_diff(loss, x)) < TOL

    def test_maxpool_tie_routes_to_first_position(self):
        # equal maxima in one window: the earliest flat index wins
        x = np.array([[[[5.0, 5.0], [3.0, 1.0]]]])
        out, arg = ConvStage._maxpool(x)
        assert out[0, 0, 0, 0] == 5.0
        assert [bool(r[0, 0, 0, 0]) for r in arg] == [True, False, False, False]
        dx = ConvStage._maxpool_backward(np.ones((1, 1, 1, 1)), arg, x.shape)
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_pool_rejects_collapsed_spatial_size(self):
        with pytest.raises(ValueError, match="too small"):
            ConvStage._maxpool(np.ones((1, 1, 1, 1)))

    def test_rejects_wrong_channel_count(self):
        stage = ConvStage(3, (2,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="^input channels 1 != 3$"):
            stage.forward(np.zeros((2, 1, 8, 8)))

    @pytest.mark.parametrize("plan", [(4, 8, 16), (2, 3, 4)])
    @pytest.mark.parametrize("size", [(8, 8), (9, 11), (16, 16)])
    def test_cache_holds_each_padded_input(self, plan, size):
        gen = np.random.default_rng(7)
        stage = ConvStage(3, plan, gen)
        x = gen.standard_normal((5, 3) + size)
        _, cache = stage.forward(x)
        assert len(cache) == len(plan)
        for (xp, *_), w, b in zip(cache, stage.weights, stage.biases):
            b_n, c, h, wd = x.shape
            assert xp.shape == (b_n, c, h + 2, wd + 2)
            np.testing.assert_array_equal(xp[:, :, 1:-1, 1:-1], x)
            border = np.ones(xp.shape, dtype=bool)
            border[:, :, 1:-1, 1:-1] = False
            assert not xp[border].any()
            x = ConvStage._maxpool(relu(reference_conv3x3(xp, w) + b[None, :, None, None]))[0]


# The conv stage as it was written with np.tensordot and an argmax pool, kept
# verbatim as the oracle: ConvStage must reproduce its output and gradients
# byte for byte, so that trained weights and every artifact built from them
# stay byte-identical.
def reference_maxpool(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b_n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = (
        x[:, :, : h2 * 2, : w2 * 2]
        .reshape(b_n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b_n, c, h2, w2, 4)
    )
    arg = win.argmax(axis=-1)  # first max wins; deterministic routing
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, arg


def reference_maxpool_backward(dout: np.ndarray, arg: np.ndarray, in_shape: tuple) -> np.ndarray:
    b_n, c, h, w = in_shape
    h2, w2 = h // 2, w // 2
    dwin = np.zeros((b_n, c, h2, w2, 4))
    np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
    dx = np.zeros(in_shape)
    dx[:, :, : h2 * 2, : w2 * 2] = (
        dwin.reshape(b_n, c, h2, w2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b_n, c, h2 * 2, w2 * 2)
    )
    return dx


def reference_conv3x3(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    # xp: padded input (B, C, H+2, W+2); w: (O, C, 3, 3) -> (B, O, H, W)
    b_n, _, hp, wp = xp.shape
    h, wd = hp - 2, wp - 2
    acc = np.zeros((b_n, h, wd, w.shape[0]))
    for di in range(3):
        for dj in range(3):
            xs = xp[:, :, di : di + h, dj : dj + wd]
            acc += np.tensordot(xs, w[:, :, di, dj], axes=([1], [1]))
    return np.ascontiguousarray(acc.transpose(0, 3, 1, 2))


def reference_forward(stage: ConvStage, x: np.ndarray) -> tuple[np.ndarray, list]:
    cache = []
    for w, b in zip(stage.weights, stage.biases):
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        pre = reference_conv3x3(xp, w) + b[None, :, None, None]
        act = relu(pre)
        out, arg = reference_maxpool(act)
        cache.append((xp, pre > 0, act.shape, arg))
        x = out
    return x, cache


def reference_backward(stage: ConvStage, dout: np.ndarray, cache: list) -> tuple[np.ndarray, dict]:
    grads: dict[str, np.ndarray] = {}
    for i in range(len(stage.weights) - 1, -1, -1):
        xp, mask, act_shape, arg = cache[i]
        dact = reference_maxpool_backward(dout, arg, act_shape)
        dpre = dact * mask
        w = stage.weights[i]
        h, wd = dpre.shape[2], dpre.shape[3]
        dw = np.zeros_like(w)
        dxp = np.zeros_like(xp)
        for di in range(3):
            for dj in range(3):
                xs = xp[:, :, di : di + h, dj : dj + wd]
                # dW[o,c] = sum_bhw dpre[b,o,h,w] * xs[b,c,h,w]
                dw[:, :, di, dj] = np.tensordot(dpre, xs, axes=([0, 2, 3], [0, 2, 3]))
                contrib = np.tensordot(dpre, w[:, :, di, dj], axes=([1], [0]))
                dxp[:, :, di : di + h, dj : dj + wd] += contrib.transpose(0, 3, 1, 2)
        grads[f"conv{i}.w"] = dw
        grads[f"conv{i}.b"] = dpre.sum(axis=(0, 2, 3))
        dout = dxp[:, :, 1:-1, 1:-1]
    return dout, grads


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    # np.array_equal cannot tell -0.0 from +0.0; the trained weights can
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConvBitIdentity:
    # batch 1 catches a weight slice copied to a contiguous array (dx moves);
    # 256 is the inference chunk, 9x11 an odd size the pool crops
    @pytest.mark.parametrize("plan", [(4, 8, 16), (2, 3, 4)])
    @pytest.mark.parametrize("size", [(8, 8), (9, 11), (16, 16)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 17, 64, 256])
    def test_matches_the_tensordot_conv_bit_for_bit(self, batch, channels, size, plan):
        gen = np.random.default_rng(1000 * batch + 10 * channels + size[1])
        stage = ConvStage(channels, plan, gen)
        for b in stage.biases:
            b[:] = 0.1 * gen.standard_normal(b.shape)
        x = gen.standard_normal((batch, channels) + size)
        out, cache = stage.forward(x)
        ref_out, ref_cache = reference_forward(stage, x)
        assert same_bytes(out, ref_out)
        for got, want in zip(cache, ref_cache):
            assert same_bytes(got[0], want[0])
        r = gen.standard_normal(out.shape)
        dx, grads = stage.backward(r, cache)
        ref_dx, ref_grads = reference_backward(stage, r, ref_cache)
        assert same_bytes(dx, ref_dx)
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert same_bytes(grads[name], ref_grads[name]), name
        no_dx, param_grads = stage.backward(r, cache, input_grad=False)
        assert no_dx is None
        assert list(param_grads) == list(ref_grads)
        for name in param_grads:
            assert same_bytes(param_grads[name], ref_grads[name]), name

    def test_pool_routes_like_argmax_on_ties(self):
        # many exact ties, including windows of zeros as ReLU leaves them
        gen = np.random.default_rng(5)
        x = np.maximum(gen.integers(-2, 3, (3, 4, 10, 7)).astype(np.float64), 0.0)
        out, routes = ConvStage._maxpool(x)
        ref_out, arg = reference_maxpool(x)
        assert same_bytes(out, ref_out)
        for k, route in enumerate(routes):
            assert np.array_equal(route, arg == k), k
        dout = gen.standard_normal(out.shape)
        assert same_bytes(
            ConvStage._maxpool_backward(dout, routes, x.shape),
            reference_maxpool_backward(dout, arg, x.shape),
        )


class TestLstmStage:
    def test_gradients_match_finite_differences(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            stage = LstmStage(3, 4, gen)
            x = gen.standard_normal((2, 3, 3))
            out, cache = stage.forward(x)
            r = gen.standard_normal(out.shape)

            def loss():
                return float(np.sum(stage.forward(x)[0] * r))

            dx, grads = stage.backward(r, cache)
            for name, param in stage.params():
                fd = central_diff(loss, param)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
            assert max_rel_err(dx, central_diff(loss, x)) < TOL, f"dx seed {seed}"

    def test_forget_gate_bias_starts_open(self):
        stage = LstmStage(3, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(stage.b[4:8], np.ones(4))
        assert np.all(stage.b[:4] == 0) and np.all(stage.b[8:] == 0)

    def test_single_step_sequence_shape(self):
        gen = np.random.default_rng(1)
        stage = LstmStage(5, 6, gen)
        hs, _ = stage.forward(gen.standard_normal((3, 1, 5)))
        assert hs.shape == (3, 1, 6)

    def test_rejects_wrong_feature_size(self):
        stage = LstmStage(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="feature size"):
            stage.forward(np.zeros((2, 3, 7)))


class TestAttentionStage:
    # The key bias is a gauge direction: adding a constant to every key shifts
    # each score row uniformly, and softmax is row-shift invariant, so the true
    # gradient wrt bk is identically zero. Both sides are compared to zero at
    # the finite-difference noise floor instead of by the relative-error form,
    # whose denominator breaks down at an exactly-zero gradient.
    GAUGE_FLOOR = 1e-9

    def _check(self, stage, x, seed):
        out, cache = stage.forward(x)
        gen = np.random.default_rng(seed + 10_000)
        r = gen.standard_normal(out.shape)

        def loss():
            return float(np.sum(stage.forward(x)[0] * r))

        dx, grads = stage.backward(r, cache)
        for name, param in stage.params():
            fd = central_diff(loss, param)
            if name == "attn.bk":
                assert float(np.max(np.abs(grads[name]))) < self.GAUGE_FLOOR
                assert float(np.max(np.abs(fd))) < self.GAUGE_FLOOR
            else:
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
        assert max_rel_err(dx, central_diff(loss, x)) < TOL, f"dx seed {seed}"

    def test_gradients_match_finite_differences(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            stage = AttentionStage(4, gen)
            self._check(stage, gen.standard_normal((2, 3, 4)), seed)

    def test_attention_rows_sum_to_one(self):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            stage = AttentionStage(8, gen)
            _, cache = stage.forward(gen.standard_normal((3, 5, 8)))
            attn = cache[4]
            assert attn.shape == (3, 5, 5)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_single_position_weight_is_exactly_one(self):
        gen = np.random.default_rng(3)
        stage = AttentionStage(4, gen)
        _, cache = stage.forward(gen.standard_normal((2, 1, 4)))
        attn = cache[4]
        assert attn.shape == (2, 1, 1)
        assert np.all(attn == 1.0)


# The attention stage as it was when it took a head count, at one head: the
# (B, T, D) projections are viewed as (B, 1, T, D) for the products and
# copied back to (B, T, D) after them. The single-head stage must match it
# bit for bit, so trained weights do not move.


def _split_heads(x: np.ndarray) -> np.ndarray:
    b_n, t_len, d = x.shape
    return x.reshape(b_n, t_len, 1, d).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b_n, _, t_len, d = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b_n, t_len, d)


def reference_attention_forward(stage: AttentionStage, hs: np.ndarray):
    q = _split_heads(hs @ stage.wq + stage.bq)
    k = _split_heads(hs @ stage.wk + stage.bk)
    v = _split_heads(hs @ stage.wv + stage.bv)
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(stage.width)
    attn = softmax(scores, axis=-1)
    ctx = _merge_heads(attn @ v)
    return ctx @ stage.wo + stage.bo, (hs, q, k, v, attn, ctx)


def reference_attention_backward(stage: AttentionStage, dout: np.ndarray, cache: tuple):
    hs, q, k, v, attn, ctx = cache
    flat = lambda a: a.reshape(-1, a.shape[-1])
    dwo = flat(ctx).T @ flat(dout)
    dbo = dout.sum(axis=(0, 1))
    dctx = _split_heads(dout @ stage.wo.T)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= np.sqrt(stage.width)
    dq = _merge_heads(dscores @ k)
    dk = _merge_heads(dscores.transpose(0, 1, 3, 2) @ q)
    dv = _merge_heads(dv)
    grads = {
        "attn.wq": flat(hs).T @ flat(dq), "attn.bq": dq.sum(axis=(0, 1)),
        "attn.wk": flat(hs).T @ flat(dk), "attn.bk": dk.sum(axis=(0, 1)),
        "attn.wv": flat(hs).T @ flat(dv), "attn.bv": dv.sum(axis=(0, 1)),
        "attn.wo": dwo, "attn.bo": dbo,
    }
    return dq @ stage.wq.T + dk @ stage.wk.T + dv @ stage.wv.T, grads


class TestAttentionBitIdentity:
    # T = 1 is the default model's sequence; 256 is the inference chunk
    @pytest.mark.parametrize("t_len", [1, 4, 9])
    @pytest.mark.parametrize("batch", [1, 2, 17, 64, 256])
    @pytest.mark.parametrize("width", [8, 16])
    def test_matches_the_head_split_attention_bit_for_bit(self, batch, t_len, width):
        gen = np.random.default_rng(100 * batch + 10 * t_len + width)
        stage = AttentionStage(width, gen)
        for name, param in stage.params():
            if name.startswith("attn.b"):
                param[:] = 0.1 * gen.standard_normal(param.shape)
        hs = gen.standard_normal((batch, t_len, width))
        out, cache = stage.forward(hs)
        ref_out, ref_cache = reference_attention_forward(stage, hs)
        assert same_bytes(out, ref_out)
        assert same_bytes(cache[4], ref_cache[4].reshape(cache[4].shape))
        r = gen.standard_normal(out.shape)
        dx, grads = stage.backward(r, cache)
        ref_dx, ref_grads = reference_attention_backward(stage, r, ref_cache)
        assert same_bytes(dx, ref_dx)
        assert list(grads) == [name for name, _ in stage.params()]
        for name in grads:
            assert same_bytes(grads[name], ref_grads[name]), name


class TestHeadStage:
    def test_gradients_match_finite_differences(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            stage = HeadStage(4, 3, gen)
            x = gen.standard_normal((3, 4))
            out, cache = stage.forward(x)
            r = gen.standard_normal(out.shape)

            def loss():
                return float(np.sum(stage.forward(x)[0] * r))

            dx, grads = stage.backward(r, cache)
            for name, param in stage.params():
                fd = central_diff(loss, param)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
            assert max_rel_err(dx, central_diff(loss, x)) < TOL, f"dx seed {seed}"

    def test_gradients_with_fixed_dropout_mask(self):
        for seed in range(3):
            gen = np.random.default_rng(300 + seed)
            stage = HeadStage(4, 3, gen)
            x = gen.standard_normal((3, 4))
            # inverted-dropout mask at p = 0.5: entries are 0 or 1/(1-p)
            mask = (gen.random((3, 4)) >= 0.5) * 2.0
            out, cache = stage.forward(x, mask)
            r = gen.standard_normal(out.shape)

            def loss():
                return float(np.sum(stage.forward(x, mask)[0] * r))

            dx, grads = stage.backward(r, cache)
            for name, param in stage.params():
                fd = central_diff(loss, param)
                assert max_rel_err(grads[name], fd) < TOL, f"{name} seed {seed}"
            assert max_rel_err(dx, central_diff(loss, x)) < TOL

    def test_all_dropped_leaves_only_final_bias(self):
        gen = np.random.default_rng(4)
        stage = HeadStage(4, 3, gen)
        logits, _ = stage.forward(gen.standard_normal((2, 4)), np.zeros((2, 4)))
        np.testing.assert_allclose(logits, np.broadcast_to(stage.b2, (2, 3)), atol=1e-12)
