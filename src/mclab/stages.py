"""Differentiable stages of the staged classifier, with manual backprop.

Every stage works on float64 batches and exposes:

    forward(x)            -> (output, cache)
    backward(dout, cache) -> (dx, grads)
    params() / grads keys -> ordered (name, array) pairs

Gradients are exact analytic derivatives of the forward pass; the test suite
checks each stage (and the composed model) against central finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AttentionStage",
    "ConvStage",
    "HeadStage",
    "LstmStage",
    "relu",
    "sigmoid",
    "softmax",
]


def sigmoid(z: np.ndarray) -> np.ndarray:
    # One branch-free pass: exp(min(z, -z)) = exp(-|z|) never overflows, and
    # picks the same operands per sign as the piecewise 1/(1+exp(-z)),
    # exp(z)/(1+exp(z)), so every bit matches it; min (not -abs) keeps NaN's sign.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class ConvStage:
    """Stacked conv(3x3, stride 1, pad 1) + ReLU + maxpool(2x2, stride 2) blocks.

    Summation contract: each 3x3 conv is nine GEMMs, one per kernel offset
    (di, dj), each a (B*H*W, C) . (C, O) product through ``np.dot``, summed in
    (di, dj) order into a zeroed (B*H*W, O) accumulator. The left operand is
    the offset's window of the zero-padded input, copied once into a reused
    C-contiguous buffer; the right one is the strided weight view
    ``w[:, :, di, dj].T``. Backward issues the matching products: dW from
    ``dpre`` as (O, B*H*W) times the same window copy, dX from ``dpre`` as
    (B*H*W, O) times ``w[:, :, di, dj]``, added into an NHWC accumulator;
    each ``dpre`` operand is built once per layer. These are the products,
    operand layouts and summation order that ``np.tensordot`` builds (the
    tests keep that form as an oracle), so every float matches it bit for
    bit and trained weights stay byte-identical. The bias gradient sums the
    NCHW ``dpre`` itself; a transposed view sums in another order. The
    buffers of one conv live only inside ``_conv3x3`` and
    ``_conv3x3_backward``, so the stage's peak memory is that of the
    ``tensordot`` form. Measured and not taken: ``np.matmul`` is ~5x slower
    than ``np.dot`` at K = 1 (the first layer); copying weight slices to
    contiguous arrays changes dX bits at batch 1; stacking the nine offsets
    in one temporary raises peak memory ~15% and slows 50k-row inference;
    one GEMM with K = 9*C (im2col) is faster still but reorders the sums, so
    trained weights move.

    Pooling contract: the 2x2 pool reads the four window positions as strided
    views in window order (0,0), (0,1), (1,0), (1,1); its output is their
    elementwise max, and routing goes to the first position holding the max
    (the order ``argmax`` used, which the tests keep as an oracle). Backward
    writes ``dout`` into each position's view of a zeroed array where it
    routes and exact +0.0 elsewhere, then applies the ReLU mask. With
    ``input_grad=False`` (what ``StagedModel`` asks for) the first layer
    computes dW and the bias gradient only. Measured and not taken:
    ``np.copyto(..., where=route)`` on the views is no faster than the
    ``argmax`` pool; pooling the pre-activation and applying ReLU afterwards
    is no faster than the boolean routes; ``dout * route`` gives -0.0 where
    ``dout`` < 0 does not route, so the bytes of dX change.
    """

    def __init__(self, in_channels: int, plan: tuple[int, ...], gen: np.random.Generator):
        self.in_channels = int(in_channels)
        self.plan = tuple(int(c) for c in plan)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        ci = self.in_channels
        for co in self.plan:
            scale = 1.0 / np.sqrt(ci * 9)
            self.weights.append(gen.standard_normal((co, ci, 3, 3)) * scale)
            self.biases.append(np.zeros(co))
            ci = co

    def params(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"conv{i}.w", w))
            out.append((f"conv{i}.b", b))
        return out

    @staticmethod
    def _quadrants(x: np.ndarray, h2: int, w2: int) -> list[np.ndarray]:
        """Strided views of the four 2x2 window positions, in window order."""
        return [x[:, :, di : 2 * h2 : 2, dj : 2 * w2 : 2] for di in (0, 1) for dj in (0, 1)]

    @classmethod
    def _maxpool(cls, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        h2, w2 = x.shape[2] // 2, x.shape[3] // 2
        if h2 == 0 or w2 == 0:
            raise ValueError(f"spatial size {x.shape[2]}x{x.shape[3]} too small to pool")
        v0, v1, v2, v3 = cls._quadrants(x, h2, w2)
        out = np.maximum(np.maximum(v0, v1), np.maximum(v2, v3))
        # first max wins: a position routes if it holds the max and no earlier one does
        r0 = v0 == out
        r1 = (v1 == out) & ~r0
        taken = r0 | r1
        r2 = (v2 == out) & ~taken
        taken |= r2
        return out, (r0, r1, r2, ~taken)

    @classmethod
    def _maxpool_backward(
        cls, dout: np.ndarray, routes: tuple[np.ndarray, ...], in_shape: tuple
    ) -> np.ndarray:
        dx = np.zeros(in_shape)
        for view, route in zip(cls._quadrants(dx, *dout.shape[2:]), routes):
            view[...] = np.where(route, dout, 0.0)
        return dx

    @staticmethod
    def _windows(xp: np.ndarray):
        """Yield (di, dj, cols) per offset in (di, dj) order; cols is one reused
        C-contiguous (B*H*W, C) buffer holding that offset's window of xp."""
        b_n, c, hp, wp = xp.shape
        h, wd = hp - 2, wp - 2
        xt = xp.transpose(0, 2, 3, 1)
        win = np.empty((b_n, h, wd, c))
        cols = win.reshape(-1, c)
        for di in range(3):
            for dj in range(3):
                win[...] = xt[:, di : di + h, dj : dj + wd]
                yield di, dj, cols

    @classmethod
    def _conv3x3(cls, xp: np.ndarray, w: np.ndarray) -> np.ndarray:
        # xp: padded input (B, C, H+2, W+2); w: (O, C, 3, 3) -> (B, O, H, W)
        b_n, _, hp, wp = xp.shape
        h, wd = hp - 2, wp - 2
        acc = np.zeros((b_n * h * wd, w.shape[0]))
        for di, dj, cols in cls._windows(xp):
            acc += np.dot(cols, w[:, :, di, dj].T)
        return np.ascontiguousarray(acc.reshape(b_n, h, wd, -1).transpose(0, 3, 1, 2))

    @classmethod
    def _conv3x3_backward(
        cls, xp: np.ndarray, w: np.ndarray, dpre: np.ndarray, input_grad: bool
    ) -> tuple[np.ndarray | None, np.ndarray]:
        # dW[o,c] = sum_bhw dpre[b,o,h,w] * xs[b,c,h,w]; dX[b,h,w,c] = sum_o dpre[b,o,h,w] * w[o,c]
        b_n, c, hp, wp = xp.shape
        o, h, wd = w.shape[0], hp - 2, wp - 2
        dpre_oc = dpre.transpose(1, 0, 2, 3).reshape(o, -1)
        dw = np.zeros_like(w)
        if input_grad:
            dpre_rows = dpre.transpose(0, 2, 3, 1).reshape(-1, o)
            dxt = np.zeros((b_n, hp, wp, c))
        for di, dj, cols in cls._windows(xp):
            dw[:, :, di, dj] = np.dot(dpre_oc, cols)
            if input_grad:
                dxt[:, di : di + h, dj : dj + wd] += np.dot(dpre_rows, w[:, :, di, dj]).reshape(
                    b_n, h, wd, c
                )
        if not input_grad:
            return None, dw
        return dxt[:, 1:-1, 1:-1].transpose(0, 3, 1, 2), dw

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        if x.shape[1] != self.in_channels:
            raise ValueError(f"input channels {x.shape[1]} != {self.in_channels}")
        cache = []
        for w, b in zip(self.weights, self.biases):
            b_n, c, h, wd = x.shape
            xp = np.zeros((b_n, c, h + 2, wd + 2))
            xp[:, :, 1:-1, 1:-1] = x
            pre = self._conv3x3(xp, w)
            pre += b[None, :, None, None]
            act = relu(pre)
            out, routes = self._maxpool(act)
            cache.append((xp, pre > 0, act.shape, routes))
            x = out
        return x, cache

    def backward(
        self, dout: np.ndarray, cache: list, input_grad: bool = True
    ) -> tuple[np.ndarray | None, dict]:
        """Gradients of the weights and biases, and of the input unless
        ``input_grad`` is false (then the first element is None)."""
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.weights) - 1, -1, -1):
            xp, mask, act_shape, routes = cache[i]
            dpre = self._maxpool_backward(dout, routes, act_shape)
            dpre *= mask
            dout, grads[f"conv{i}.w"] = self._conv3x3_backward(
                xp, self.weights[i], dpre, input_grad or i > 0
            )
            grads[f"conv{i}.b"] = dpre.sum(axis=(0, 2, 3))
        return dout, grads


class LstmStage:
    """Single LSTM cell unrolled over the sequence axis.

    Combined gate weights in (input, forget, cell, output) order; the forget
    gate bias starts at 1 so early gradients flow through the cell state.
    """

    def __init__(self, input_size: int, hidden_size: int, gen: np.random.Generator):
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        d, h = self.input_size, self.hidden_size
        self.wx = gen.standard_normal((d, 4 * h)) / np.sqrt(d)
        self.wh = gen.standard_normal((h, 4 * h)) / np.sqrt(h)
        self.b = np.zeros(4 * h)
        self.b[h : 2 * h] = 1.0

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [("lstm.wx", self.wx), ("lstm.wh", self.wh), ("lstm.b", self.b)]

    def forward(self, seq: np.ndarray) -> tuple[np.ndarray, list]:
        b_n, t_len, d = seq.shape
        if d != self.input_size:
            raise ValueError(f"sequence feature size {d} != {self.input_size}")
        h_n = self.hidden_size
        h = np.zeros((b_n, h_n))
        c = np.zeros((b_n, h_n))
        hs = np.empty((b_n, t_len, h_n))
        cache = []
        for t in range(t_len):
            x_t = seq[:, t]
            z = x_t @ self.wx + h @ self.wh + self.b
            s = sigmoid(z)  # one call for the three sigmoid gates; the cell slice is unused
            i, f, o = s[:, :h_n], s[:, h_n : 2 * h_n], s[:, 3 * h_n :]
            g = np.tanh(z[:, 2 * h_n : 3 * h_n])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            cache.append((x_t, h, c, i, f, g, o, tc))
            h, c = h_new, c_new
            hs[:, t] = h
        return hs, cache

    def backward(self, dhs: np.ndarray, cache: list) -> tuple[np.ndarray, dict]:
        b_n, t_len, _ = dhs.shape
        h_n = self.hidden_size
        dwx = np.zeros_like(self.wx)
        dwh = np.zeros_like(self.wh)
        db = np.zeros_like(self.b)
        dseq = np.empty((b_n, t_len, self.input_size))
        dh_next = np.zeros((b_n, h_n))
        dc_next = np.zeros((b_n, h_n))
        for t in range(t_len - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tc = cache[t]
            dh = dhs[:, t] + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dwx += x_t.T @ dz
            dwh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dseq[:, t] = dz @ self.wx.T
            dh_next = dz @ self.wh.T
        return dseq, {"lstm.wx": dwx, "lstm.wh": dwh, "lstm.b": db}


class AttentionStage:
    """Single-head scaled dot-product self-attention with one output projection.

    Works on (B, T, D) arrays. The attention weights for each query position
    form a probability distribution over the T key positions.
    """

    def __init__(self, width: int, gen: np.random.Generator):
        self.width = int(width)
        d = self.width
        scale = 1.0 / np.sqrt(d)
        self.wq = gen.standard_normal((d, d)) * scale
        self.wk = gen.standard_normal((d, d)) * scale
        self.wv = gen.standard_normal((d, d)) * scale
        self.wo = gen.standard_normal((d, d)) * scale
        self.bq = np.zeros(d)
        self.bk = np.zeros(d)
        self.bv = np.zeros(d)
        self.bo = np.zeros(d)

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("attn.wq", self.wq), ("attn.bq", self.bq),
            ("attn.wk", self.wk), ("attn.bk", self.bk),
            ("attn.wv", self.wv), ("attn.bv", self.bv),
            ("attn.wo", self.wo), ("attn.bo", self.bo),
        ]

    def forward(self, hs: np.ndarray) -> tuple[np.ndarray, tuple]:
        q = hs @ self.wq + self.bq
        k = hs @ self.wk + self.bk
        v = hs @ self.wv + self.bv
        attn = softmax((q @ k.transpose(0, 2, 1)) / np.sqrt(self.width), axis=-1)
        ctx = attn @ v
        out = ctx @ self.wo + self.bo
        return out, (hs, q, k, v, attn, ctx)

    def backward(self, dout: np.ndarray, cache: tuple) -> tuple[np.ndarray, dict]:
        hs, q, k, v, attn, ctx = cache
        flat = lambda a: a.reshape(-1, a.shape[-1])

        dctx = dout @ self.wo.T
        dattn = dctx @ v.transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(self.width)
        dq = dscores @ k
        dk = dscores.transpose(0, 2, 1) @ q

        grads = {
            "attn.wq": flat(hs).T @ flat(dq), "attn.bq": dq.sum(axis=(0, 1)),
            "attn.wk": flat(hs).T @ flat(dk), "attn.bk": dk.sum(axis=(0, 1)),
            "attn.wv": flat(hs).T @ flat(dv), "attn.bv": dv.sum(axis=(0, 1)),
            "attn.wo": flat(ctx).T @ flat(dout), "attn.bo": dout.sum(axis=(0, 1)),
        }
        dhs = dq @ self.wq.T + dk @ self.wk.T + dv @ self.wv.T
        return dhs, grads


class HeadStage:
    """Classifier head: linear -> ReLU -> dropout -> linear."""

    def __init__(self, width: int, n_classes: int, gen: np.random.Generator):
        self.width = int(width)
        self.n_classes = int(n_classes)
        self.w1 = gen.standard_normal((width, width)) / np.sqrt(width)
        self.b1 = np.zeros(width)
        self.w2 = gen.standard_normal((width, n_classes)) / np.sqrt(width)
        self.b2 = np.zeros(n_classes)

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("head.w1", self.w1), ("head.b1", self.b1),
            ("head.w2", self.w2), ("head.b2", self.b2),
        ]

    def forward(
        self, x: np.ndarray, dropout_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple]:
        z1 = x @ self.w1 + self.b1
        act = relu(z1)
        dropped = act * dropout_mask if dropout_mask is not None else act
        logits = dropped @ self.w2 + self.b2
        return logits, (x, z1 > 0, act, dropped, dropout_mask)

    def backward(self, dlogits: np.ndarray, cache: tuple) -> tuple[np.ndarray, dict]:
        x, mask1, act, dropped, dropout_mask = cache
        dw2 = dropped.T @ dlogits
        db2 = dlogits.sum(axis=0)
        ddropped = dlogits @ self.w2.T
        dact = ddropped * dropout_mask if dropout_mask is not None else ddropped
        dz1 = dact * mask1
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        dx = dz1 @ self.w1.T
        return dx, {"head.w1": dw1, "head.b1": db1, "head.w2": dw2, "head.b2": db2}
