import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from santil import tensor
from santil.tensor import (
    Parameter,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    conv2d,
    flatten,
    leading_columns,
    linear,
    maxpool2d,
    mul,
    orthogonality_penalty,
    relu,
    reshape,
    scale,
    slice_rows,
    softmax_cross_entropy,
    tsum,
)


def t(data, dtype=np.float32, grad=False):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


# ---------------------------------------------------------------------------
# independent oracles (naive loops, no shared code with the implementation)


def use_workers(monkeypatch, k):
    """Let conv2d split a call over ``k`` threads, on a pool made for them."""
    monkeypatch.setattr(tensor, "_WORKERS", k)
    monkeypatch.setattr(tensor, "_POOL", None)


def traced_peak(fn):
    """Run ``fn()`` with tracemalloc on: (its result, the peak bytes traced
    during the call, numpy's buffers included)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def fail_a_helper_in_the_next_split(monkeypatch, skip=0):
    """Let ``skip`` calls of ``_split`` run as they are, then make the next
    one, over three threads, fail in one helper.

    Each thread takes its first chunk and holds it at a barrier; then one
    helper raises at once, without running its chunk, and the other runs
    its first chunk late. Returns a list that gets, as each chunk ends,
    whether the caller ran it.
    """
    split = tensor._split
    caller = threading.get_ident()
    barrier = threading.Barrier(3, timeout=10)
    lock = threading.Lock()
    helpers, finished = [], []
    skipped = 0

    def failing_split(chunks, workers, piece):
        nonlocal skipped
        if skipped < skip:
            skipped += 1
            return split(chunks, workers, piece)
        monkeypatch.setattr(tensor, "_split", split)

        def failing_piece(take):
            me = threading.get_ident()
            first = True

            def take_one():
                nonlocal first
                if not first:
                    finished.append(me == caller)  # the chunk it took before has ended
                    return take()
                first = False
                sl = take()
                barrier.wait()
                if me != caller:
                    with lock:
                        helpers.append(me)
                        first_helper = len(helpers) == 1
                    if first_helper:
                        raise RuntimeError("helper failed")
                    time.sleep(0.2)
                return sl

            piece(take_one)

        split(chunks, workers, failing_piece)

    monkeypatch.setattr(tensor, "_split", failing_split)
    return finished


def conv_oracle(x, w, b, stride, pad):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for nn in range(n):
        for oo in range(cout):
            for yy in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for cc in range(cin):
                        for ii in range(kh):
                            for jj in range(kw):
                                acc += xp[nn, cc, yy * stride + ii, xx * stride + jj] * w[oo, cc, ii, jj]
                    out[nn, oo, yy, xx] = acc + b[oo]
    return out


def one_shot_conv(x, w, b, g, stride, pad, need_gx, need_gw, block=None, relu=False):
    """The unchunked im2col algorithm: np.pad, one batch-sized patch matrix,
    batched GEMMs and a windowed scatter. The per-sample weight gradients are
    summed in sample order within blocks of ``block`` samples (conv2d's
    ``_WEIGHT_BLOCK`` by default), then block by block. With ``relu``, out is
    clamped at 0 and g gated by out > 0 for the whole batch at once. Returns
    out, gx, gw, gb for the upstream gradient g; chunked conv2d must equal it
    bit for bit."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = xp.shape[2:]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = np.empty((n, cin, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols = cols.reshape(n, cin * kh * kw, ho * wo)
    out = np.matmul(w.reshape(cout, -1), cols).reshape(n, cout, ho, wo)
    out += b.reshape(1, cout, 1, 1)
    if relu:
        g = g * (out > 0)
        out = np.maximum(out, 0)
    gl = g.reshape(n, cout, ho * wo)
    gb = g.sum(axis=(0, 2, 3))
    gw = None
    if need_gw:
        per_sample = np.matmul(gl, cols.transpose(0, 2, 1))
        block = block or tensor._WEIGHT_BLOCK
        partials = [per_sample[s : s + block].sum(axis=0) for s in range(0, n, block)]
        gw = np.stack(partials).sum(axis=0).reshape(w.shape)
    gx = None
    if need_gx:
        gwin = np.matmul(w.reshape(cout, -1).T, gl).reshape(n, cin, kh, kw, ho, wo)
        gxp = np.zeros((n, cin, hp, wp), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gwin[:, :, i, j]
        gx = gxp[:, :, pad : pad + h, pad : pad + wd]
    return out, gx, gw, gb


def sample_order_sum(g):
    """g:[N,C,H,W] summed over H*W a sample, then the samples added in order."""
    rows = g.reshape(g.shape[0], g.shape[1], -1).sum(axis=2)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def maxpool_oracle(x, k):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // k, w // k), dtype=x.dtype)
    for nn in range(n):
        for cc in range(c):
            for yy in range(h // k):
                for xx in range(w // k):
                    out[nn, cc, yy, xx] = max(
                        x[nn, cc, yy * k + i, xx * k + j] for i in range(k) for j in range(k)
                    )
    return out


def maxpool_grad_oracle(x, g, k):
    """g routed, window by window, to the first cell in row-major order that
    equals maxpool_oracle's maximum; a NaN maximum equals no cell."""
    out = maxpool_oracle(x, k)
    gx = np.zeros_like(x)
    n, c, ho, wo = out.shape
    for nn in range(n):
        for cc in range(c):
            for yy in range(ho):
                for xx in range(wo):
                    for i, j in ((i, j) for i in range(k) for j in range(k)):
                        if x[nn, cc, yy * k + i, xx * k + j] == out[nn, cc, yy, xx]:
                            gx[nn, cc, yy * k + i, xx * k + j] = g[nn, cc, yy, xx]
                            break
    return gx


def matmul_oracle(x, w, b):
    n, din = x.shape
    dout = w.shape[0]
    out = np.zeros((n, dout), dtype=np.float64)
    for i in range(n):
        for o in range(dout):
            acc = 0.0
            for j in range(din):
                acc += x[i, j] * w[o, j]
            out[i, o] = acc + b[o]
    return out


def ce_oracle(z, labels):
    # direct exp/normalize at float64, no stabilization
    total = 0.0
    for i, y in enumerate(labels):
        probs = np.exp(z[i]) / np.exp(z[i]).sum()
        total += -np.log(probs[y])
    return total / len(labels)


def ortho_oracle(a):
    d = a.shape[0]
    aat = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            aat[i, j] = sum(a[i, k] * a[j, k] for k in range(d))
    total = 0.0
    for i in range(d):
        for j in range(d):
            r = (1.0 if i == j else 0.0) - aat[i, j]
            total += r * r
    return total


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_1x1_kernel_scales(self):
        x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = conv2d(x, t([[[[2.0]]]]), t([0.0]))
        assert out.data.tolist() == [[[[2.0, 4.0], [6.0, 8.0]]]]

    def test_all_ones_sums_kernel_support(self):
        x = t(np.ones((1, 1, 3, 3)))
        out = conv2d(x, t(np.ones((1, 1, 2, 2))), t([0.0]))
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out.data == 4.0)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(t(x, np.float64), t(w, np.float64), t(b, np.float64), 1, 1)
        assert np.abs(out.data - conv_oracle(x, w, b, 1, 1)).max() < 1e-6

    def test_shape_law_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            h, w = rng.integers(4, 11, size=2)
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 3))
            if k > h + 2 * pad or k > w + 2 * pad:
                continue
            x = rng.normal(size=(1, 2, h, w))
            wt = rng.normal(size=(3, 2, k, k))
            b = rng.normal(size=3)
            out = conv2d(t(x, np.float64), t(wt, np.float64), t(b, np.float64), stride, pad)
            ho = (h + 2 * pad - k) // stride + 1
            wo = (w + 2 * pad - k) // stride + 1
            assert out.shape == (1, 3, ho, wo)
            assert np.abs(out.data - conv_oracle(x, wt, b, stride, pad)).max() < 1e-6

    def test_channel_mismatch_rejected_with_shapes(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))), t(np.zeros(1)))

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ShapeError, match="kernel"):
            conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 5, 5))), t(np.zeros(1)))

    # x shape, Cout, kernel, stride, padding, dtype, samples per chunk (None: the
    # module's budget), x needs grad, w trainable
    ONE_SHOT_CASES = [
        ((11, 32, 32, 32), 8, 3, 1, 1, np.float32, None, True, True),  # one sample a chunk
        ((70, 16, 14, 14), 16, 3, 1, 1, np.float32, None, True, True),  # 9 a chunk, 7 left
        ((9, 4, 11, 11), 5, 5, 2, 0, np.float32, 2, True, True),
        ((9, 4, 11, 11), 5, 5, 2, 2, np.float32, 4, True, True),
        ((9, 4, 11, 11), 5, 3, 1, 1, np.float32, 100, True, True),  # one chunk
        ((13, 8, 16, 16), 6, 3, 1, 1, np.float64, None, True, True),
        ((70, 16, 14, 14), 16, 3, 1, 1, np.float32, None, False, True),
        ((70, 16, 14, 14), 16, 3, 1, 1, np.float32, None, True, False),
        ((5, 64, 16, 16), 64, 3, 1, 1, np.float32, None, True, True),
        ((3, 32, 32, 32), 64, 3, 1, 1, np.float32, None, True, True),
        # float32: at this shape this OpenBLAS build's dgemm gives other bits
        # for the input gradient's row-pitch GEMM width than for Ho*Wo
        ((12, 16, 14, 14), 16, 5, 1, 2, np.float32, None, True, True),
    ]

    @pytest.mark.parametrize("case", ONE_SHOT_CASES)
    def test_chunked_bitwise_equals_one_shot(self, monkeypatch, case):
        self.assert_bitwise_equals_one_shot(monkeypatch, case)

    # a one-shot case, then: workers, _CHUNK_BYTES (None: as the case says),
    # bias trainable
    GATED_CASES = [
        (ONE_SHOT_CASES[1], 2, None, True),  # 70 samples: 8 blocks and 6 left
        (ONE_SHOT_CASES[3], 2, None, True),  # stride 2, 4 samples a chunk
        (ONE_SHOT_CASES[1], 1, None, True),
        (ONE_SHOT_CASES[1], 8, None, True),
        (ONE_SHOT_CASES[1], 2, 1, True),  # one sample a chunk in both passes
        (ONE_SHOT_CASES[5], 2, None, True),  # float64
        (ONE_SHOT_CASES[6], 1, None, True),  # weight only
        (ONE_SHOT_CASES[6], 2, None, True),
        (ONE_SHOT_CASES[6], 8, None, True),
        (ONE_SHOT_CASES[6], 2, None, False),  # weight only, bias frozen
        (ONE_SHOT_CASES[7], 2, None, True),  # input and bias: the whole batch is gated
        (ONE_SHOT_CASES[7], 1, None, False),  # input only: its pass gates alone
        (ONE_SHOT_CASES[7], 8, None, False),
    ]

    @pytest.mark.parametrize("case", GATED_CASES)
    def test_relu_gated_gradient_bitwise_equals_one_shot(self, monkeypatch, case):
        # a gradient gated upstream (signed zeros) into a plain conv, and the
        # fused conv's own gate, block by block and chunk by chunk
        conv_case, workers, chunk_bytes, bias_grad = case
        use_workers(monkeypatch, workers)
        for relu in (False, True):
            self.assert_bitwise_equals_one_shot(
                monkeypatch, conv_case, gated=True, relu=relu, chunk_bytes=chunk_bytes, bias_grad=bias_grad
            )

    @staticmethod
    def assert_bitwise_equals_one_shot(monkeypatch, case, gated=False, relu=False, chunk_bytes=None, bias_grad=True):
        shape, cout, k, stride, pad, dtype, per_chunk, need_gx, need_gw = case
        n, cin, h, wd = shape
        ho = (h + 2 * pad - k) // stride + 1
        wo = (wd + 2 * pad - k) // stride + 1
        sample_bytes = cin * k * k * ho * wo * np.dtype(dtype).itemsize
        if per_chunk is None:
            per_chunk = max(1, tensor._CHUNK_BYTES // sample_bytes)
            assert 1 <= per_chunk < n, "case should span several chunks"
        else:
            monkeypatch.setattr(tensor, "_CHUNK_BYTES", per_chunk * sample_bytes)
        if chunk_bytes is not None:
            monkeypatch.setattr(tensor, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(3)
        xd = rng.normal(size=shape).astype(dtype)
        wdata = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        bd = rng.normal(size=cout).astype(dtype)
        g = rng.normal(size=(n, cout, ho, wo)).astype(dtype)
        if gated:
            # as from a ReLU's backward: gated entries are zeros of g's sign
            g *= rng.random(size=g.shape) < 0.5
            zeros = g[g == 0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        x, w, b = t(xd, dtype, grad=need_gx), t(wdata, dtype, grad=need_gw), t(bd, dtype, grad=bias_grad)
        with Tape():
            out = conv2d(x, w, b, stride, pad, relu=relu)
            backward(tsum(mul(out, t(g, dtype))))
        expected = list(one_shot_conv(xd, wdata, bd, g, stride, pad, need_gx, need_gw, relu=relu))
        if relu:
            assert 0 < (expected[0] > 0).mean() < 1
        if not bias_grad:
            expected[3] = None
        for got, want in zip((out.data, x.grad, w.grad, b.grad), expected):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    # x shape, Cout, kernel, stride, padding, dtype: shapes at which this
    # OpenBLAS build's input gradient differs from one_shot_conv's in the last
    # bits, because BLAS picks other kernels for GEMM widths Ho*Wo and rows*Wp
    CHUNK_ONLY_CASES = [
        ((8, 1, 8, 8), 64, 1, 2, 1, np.float32),
        ((6, 32, 19, 12), 16, 3, 1, 1, np.float64),
    ]

    @pytest.mark.parametrize("case", CHUNK_ONLY_CASES)
    def test_bits_do_not_depend_on_chunk_size(self, monkeypatch, case):
        shape, cout, k, stride, pad, dtype = case
        n, cin, h, wd = shape
        ho = (h + 2 * pad - k) // stride + 1
        wo = (wd + 2 * pad - k) // stride + 1
        sample_bytes = cin * k * k * ho * wo * np.dtype(dtype).itemsize
        rng = np.random.default_rng(8)
        xd = rng.normal(size=shape).astype(dtype)
        wdata = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        bd = rng.normal(size=cout).astype(dtype)
        g = rng.normal(size=(n, cout, ho, wo)).astype(dtype)
        results = []
        for per_chunk in (1, n):
            monkeypatch.setattr(tensor, "_CHUNK_BYTES", per_chunk * sample_bytes)
            x, w, b = t(xd, dtype, grad=True), t(wdata, dtype, grad=True), t(bd, dtype, grad=True)
            with Tape():
                out = conv2d(x, w, b, stride, pad)
                backward(tsum(mul(out, t(g, dtype))))
            results.append((out.data, x.grad, w.grad, b.grad))
        one_sample, whole_batch = results
        assert [a.tobytes() for a in one_sample] == [a.tobytes() for a in whole_batch]
        tol = 1e-5 if dtype == np.float32 else 1e-12
        expected = one_shot_conv(xd, wdata, bd, g, stride, pad, True, True)
        for got, want in zip(one_sample, expected):
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("case", [ONE_SHOT_CASES[0], ONE_SHOT_CASES[1], ONE_SHOT_CASES[5]])
    def test_fused_relu_bitwise_equals_relu_of_conv(self, case):
        # one sample a chunk, 9 a chunk with a remainder, float64
        shape, cout, k, stride, pad, dtype, _, _, _ = case
        n, cin, h, wd = shape
        ho = (h + 2 * pad - k) // stride + 1
        wo = (wd + 2 * pad - k) // stride + 1
        rng = np.random.default_rng(9)
        xd = rng.normal(size=shape).astype(dtype)
        wdata = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        bd = rng.normal(size=cout).astype(dtype)
        # channels whose pre-activation is exactly 0 everywhere
        wdata[:2] = 0
        bd[:2] = 0
        g = rng.normal(size=(n, cout, ho, wo)).astype(dtype)
        g *= rng.random(size=g.shape) < 0.5
        zeros = g[g == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        results = []
        for fused in (True, False):
            x, w, b = t(xd, dtype, grad=True), t(wdata, dtype, grad=True), t(bd, dtype, grad=True)
            with Tape() as tape:
                if fused:
                    out = conv2d(x, w, b, stride, pad, relu=True)
                else:
                    out = relu(conv2d(x, w, b, stride, pad))
                records = len(tape)
                backward(tsum(mul(out, t(g, dtype))))
            results.append((records, [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]))
        (fused_records, fused_bits), (pair_records, pair_bits) = results
        assert (fused_records, pair_records) == (1, 2)
        assert fused_bits == pair_bits

    def test_recorded_conv_keeps_no_batch_sized_patch_matrix(self):
        # tracemalloc sees numpy's buffers; the tape must hold the inputs and
        # the output, not the [N, Cin*kh*kw, Ho*Wo] patch matrix (18 MiB here)
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(16, 32, 32, 32)), grad=True)
        w = t(rng.normal(size=(32, 32, 3, 3)), grad=True)
        b = t(np.zeros(32), grad=True)
        patch_bytes = 16 * (32 * 3 * 3) * (32 * 32) * 4

        def record():
            with Tape() as tape:
                out = conv2d(x, w, b, 1, 1)
            # what the tape and the output hold once the op has returned
            return tape, out, tracemalloc.get_traced_memory()[0]

        (tape, out, held), _ = traced_peak(record)
        assert len(tape) == 1 and out.shape == (16, 32, 32, 32)
        assert held < patch_bytes / 4

    def test_weight_gradient_keeps_no_per_sample_stack(self):
        # the weight gradient is summed sample by sample into one [Cout, K]
        # array, never through an [N, Cout, K] stack of per-sample gradients
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(64, 32, 16, 16)))
        w = t(rng.normal(size=(64, 32, 3, 3)), grad=True)
        b = t(np.zeros(64), grad=True)
        g = rng.normal(size=(64, 64, 16, 16)).astype(np.float32)
        stack_bytes = 64 * 64 * (32 * 3 * 3) * 4
        with Tape() as tape:
            conv2d(x, w, b, 1, 1)
        (record,) = tape._records
        (gx, gw, _), peak = traced_peak(lambda: record.grad_fn(g))
        assert gx is None and gw.shape == (64, 32, 3, 3)
        assert peak < stack_bytes / 2

    def test_input_gradient_keeps_no_window_stack(self):
        # the input gradient is gathered chunk by chunk, never through an
        # [N, Cin*kh*kw, Ho*Wo] stack of per-window gradients
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(64, 32, 16, 16)), grad=True)
        w = t(rng.normal(size=(64, 32, 3, 3)))
        b = t(np.zeros(64))
        g = rng.normal(size=(64, 64, 16, 16)).astype(np.float32)
        stack_bytes = 64 * (32 * 3 * 3) * (16 * 16) * 4
        with Tape() as tape:
            conv2d(x, w, b, 1, 1)
        (record,) = tape._records
        (gx, gw, gb), peak = traced_peak(lambda: record.grad_fn(g))
        assert gw is None and gb is None and gx.shape == (64, 32, 16, 16)
        assert peak < stack_bytes / 2

    def test_fused_relu_backward_keeps_no_gated_copy_of_the_gradient(self):
        # backward gates g by out > 0 a block or chunk at a time, inside the
        # weight and input passes: a batch-sized gated g (and its mask) would
        # take the peak past gx plus half of g
        rng = np.random.default_rng(18)
        x = t(rng.normal(size=(64, 32, 32, 32)), grad=True)
        w = t(rng.normal(size=(64, 32, 3, 3)), grad=True)
        b = t(rng.normal(size=64), grad=True)
        g = rng.normal(size=(64, 64, 32, 32)).astype(np.float32)
        with Tape() as tape:
            out = conv2d(x, w, b, 1, 1, relu=True)
        assert 0 < (out.data > 0).mean() < 1
        (record,) = tape._records
        (gx, gw, gb), peak = traced_peak(lambda: record.grad_fn(g))
        assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == b.shape
        assert peak < gx.nbytes + g.nbytes / 2

    def test_input_gradient_buffers_do_not_grow_with_worker_count(self, monkeypatch):
        # three samples' patches fit a chunk: two threads hold a chunk of
        # three samples each, eight workers cut them to six one-sample chunks
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(64, 32, 16, 16)), grad=True)
        w = t(rng.normal(size=(64, 32, 3, 3)))
        b = t(np.zeros(64))
        g = rng.normal(size=(64, 64, 16, 16)).astype(np.float32)
        peaks = []
        for workers in (2, 8):
            use_workers(monkeypatch, workers)
            with Tape() as tape:
                conv2d(x, w, b, 1, 1)
            (record,) = tape._records
            peaks.append(traced_peak(lambda: record.grad_fn(g))[1])
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.parametrize(
        "bound_test",
        [
            "test_recorded_conv_keeps_no_batch_sized_patch_matrix",
            "test_weight_gradient_keeps_no_per_sample_stack",
            "test_input_gradient_keeps_no_window_stack",
            "test_fused_relu_backward_keeps_no_gated_copy_of_the_gradient",
        ],
    )
    def test_memory_bounds_hold_at_eight_workers(self, monkeypatch, bound_test):
        # a call's buffers must not grow with the CPU count
        use_workers(monkeypatch, 8)
        getattr(self, bound_test)()

    @pytest.mark.parametrize(
        "case", [ONE_SHOT_CASES[0], ONE_SHOT_CASES[1], ONE_SHOT_CASES[5], ONE_SHOT_CASES[6], ONE_SHOT_CASES[7]]
    )
    @pytest.mark.parametrize("fused", [True, False])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, case, fused):
        # several chunks a call, float64, w-only and x-only gradients
        shape, cout, k, stride, pad, dtype, _, need_gx, need_gw = case
        n, cin, h, wd = shape
        ho = (h + 2 * pad - k) // stride + 1
        wo = (wd + 2 * pad - k) // stride + 1
        rng = np.random.default_rng(10)
        xd = rng.normal(size=shape).astype(dtype)
        wdata = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        bd = rng.normal(size=cout).astype(dtype)
        g = rng.normal(size=(n, cout, ho, wo)).astype(dtype)
        im2col = tensor._im2col
        caller = threading.get_ident()
        helped = threading.Event()

        def im2col_after_a_helper(*args):
            # the caller's forward chunks wait until a helper has taken one
            if threading.get_ident() != caller:
                helped.set()
            elif tensor._WORKERS > 1:
                assert helped.wait(10)
            return im2col(*args)

        monkeypatch.setattr(tensor, "_im2col", im2col_after_a_helper)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            results = []
            for workers in (1, 2, 3):
                use_workers(monkeypatch, workers)
                helped.clear()
                x = t(xd, dtype, grad=need_gx)
                w, b = t(wdata, dtype, grad=need_gw), t(bd, dtype, grad=True)
                with Tape():
                    out = conv2d(x, w, b, stride, pad, relu=fused)
                    backward(tsum(mul(out, t(g, dtype))))
                results.append([None if a is None else a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)])
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    def test_failing_helper_error_reaches_the_caller_after_every_piece_ends(self, monkeypatch):
        # nine one-sample chunks and three workers: each thread holds its
        # first chunk at the barrier, then one helper raises at once and the
        # other finishes its first chunk late
        x = t(np.ones((9, 2, 5, 5)), grad=True)
        w, b = t(np.ones((3, 2, 3, 3)), grad=True), t(np.zeros(3), grad=True)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * 2 * 9 * 25 * 4)
        use_workers(monkeypatch, 3)
        im2col = tensor._im2col
        caller = threading.get_ident()
        barrier = threading.Barrier(3, timeout=10)
        lock = threading.Lock()
        started, helpers, finished = set(), [], []

        def failing_im2col(*args):
            me = threading.get_ident()
            with lock:
                first_chunk = me not in started
                started.add(me)
            if first_chunk:
                barrier.wait()
                if me != caller:
                    with lock:
                        helpers.append(me)
                        first_helper = len(helpers) == 1
                    if first_helper:
                        raise RuntimeError("helper failed")
                    time.sleep(0.2)
            cols = im2col(*args)
            finished.append(me == caller)
            return cols

        monkeypatch.setattr(tensor, "_im2col", failing_im2col)
        with Tape() as tape:
            with pytest.raises(RuntimeError, match="helper failed"):
                conv2d(x, w, b, 1, 1)
            assert len(tape) == 0
        # eight chunks ran, the late helper's first among them
        assert len(finished) == 8 and False in finished
        monkeypatch.setattr(tensor, "_im2col", im2col)
        with Tape():
            out = conv2d(x, w, b, 1, 1)
        use_workers(monkeypatch, 1)
        assert out.data.tobytes() == conv2d(x, w, b, 1, 1).data.tobytes()

    def test_failing_input_gradient_helper_error_reaches_the_caller_after_every_piece_ends(self, monkeypatch):
        # nine one-sample chunks and three workers; the weight gradient's
        # split runs first, as it is, then a helper of the input gradient's fails
        rng = np.random.default_rng(13)
        xd = rng.normal(size=(9, 2, 5, 5)).astype(np.float32)
        wdata = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        bd = rng.normal(size=3).astype(np.float32)
        g = rng.normal(size=(9, 3, 5, 5)).astype(np.float32)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * 2 * 9 * 25 * 4)
        use_workers(monkeypatch, 3)

        def conv_pass():
            x, w, b = t(xd, grad=True), t(wdata, grad=True), t(bd, grad=True)
            with Tape() as tape:
                out = conv2d(x, w, b, 1, 1)
                loss = tsum(mul(out, t(g)))
            return tape, loss, (out, x, w, b)

        tape, loss, _ = conv_pass()
        finished = fail_a_helper_in_the_next_split(monkeypatch, skip=1)
        with pytest.raises(RuntimeError, match="helper failed"):
            backward(loss)
        # eight chunks ran, the late helper's first among them
        assert len(finished) == 8 and False in finished
        assert len(tape) == 0
        with pytest.raises(TapeError, match="already replayed"):
            backward(loss)
        _, loss, tensors = conv_pass()
        backward(loss)
        got = [tensors[0].data] + [a.grad for a in tensors[1:]]
        for have, want in zip(got, one_shot_conv(xd, wdata, bd, g, 1, 1, True, True)):
            assert have.tobytes() == want.tobytes()

    def test_failing_weight_block_helper_error_reaches_the_caller_after_every_piece_ends(self, monkeypatch):
        # nine weight-gradient blocks and three workers; x needs no gradient,
        # so the blocks' split is the backward's only one
        block = tensor._WEIGHT_BLOCK
        rng = np.random.default_rng(14)
        xd = rng.normal(size=(9 * block, 2, 5, 5)).astype(np.float32)
        wdata = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        bd = rng.normal(size=3).astype(np.float32)
        g = rng.normal(size=(9 * block, 3, 5, 5)).astype(np.float32)
        # two samples' patches and gradients fit a chunk
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * 2 * 9 * (25 + 3) * 4)
        use_workers(monkeypatch, 3)

        def conv_pass():
            w, b = t(wdata, grad=True), t(bd, grad=True)
            with Tape() as tape:
                loss = tsum(mul(conv2d(t(xd), w, b, 1, 1), t(g)))
            return tape, loss, w

        tape, loss, w = conv_pass()
        finished = fail_a_helper_in_the_next_split(monkeypatch)
        with pytest.raises(RuntimeError, match="helper failed"):
            backward(loss)
        # eight blocks ran, the late helper's first among them
        assert len(finished) == 8 and False in finished
        assert len(tape) == 0 and w.grad is None
        with pytest.raises(TapeError, match="already replayed"):
            backward(loss)
        grads = []
        for workers in (3, 1):
            use_workers(monkeypatch, workers)
            _, loss, w = conv_pass()
            backward(loss)
            grads.append(w.grad.tobytes())
        assert grads[0] == grads[1] == one_shot_conv(xd, wdata, bd, g, 1, 1, False, True)[2].tobytes()

    def test_weight_only_backward_is_shared_with_a_helper(self, monkeypatch):
        # x needs no gradient, as for the first conv of F_t in a later san
        # task: the caller's blocks wait until a helper has taken one
        rng = np.random.default_rng(15)
        xd = rng.normal(size=(70, 16, 14, 14)).astype(np.float32)
        wdata = rng.normal(size=(16, 16, 3, 3)).astype(np.float32)
        bd = rng.normal(size=16).astype(np.float32)
        g = rng.normal(size=(70, 16, 14, 14)).astype(np.float32)
        im2col = tensor._im2col
        caller = threading.get_ident()
        helped = threading.Event()

        def im2col_after_a_helper(*args):
            if threading.get_ident() != caller:
                helped.set()
            elif tensor._WORKERS > 1:
                assert helped.wait(10)
            return im2col(*args)

        grads = []
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            w, b = t(wdata, grad=True), t(bd, grad=True)
            with Tape():
                loss = tsum(mul(conv2d(t(xd), w, b, 1, 1), t(g)))
            helped.clear()
            monkeypatch.setattr(tensor, "_im2col", im2col_after_a_helper)
            backward(loss)
            monkeypatch.setattr(tensor, "_im2col", im2col)
            assert helped.is_set() == (workers > 1)
            grads.append(w.grad.tobytes())
        assert grads[0] == grads[1] == one_shot_conv(xd, wdata, bd, g, 1, 1, False, True)[2].tobytes()

    @pytest.mark.parametrize("n", [1, 5, tensor._WEIGHT_BLOCK])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_of_one_block_sums_its_weight_gradient_in_sample_order(self, monkeypatch, n, workers):
        # up to _WEIGHT_BLOCK samples, the blocks change no bit: the weight
        # gradient is the plain sample-order sum, over chunks of one sample
        rng = np.random.default_rng(16)
        xd = rng.normal(size=(n, 8, 9, 9)).astype(np.float32)
        wdata = rng.normal(size=(6, 8, 3, 3)).astype(np.float32)
        bd = rng.normal(size=6).astype(np.float32)
        g = rng.normal(size=(n, 6, 9, 9)).astype(np.float32)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 1)
        use_workers(monkeypatch, workers)
        x, w, b = t(xd, grad=True), t(wdata, grad=True), t(bd, grad=True)
        with Tape():
            backward(tsum(mul(conv2d(x, w, b, 1, 1), t(g))))
        plain = one_shot_conv(xd, wdata, bd, g, 1, 1, True, True, block=n)[2]
        assert w.grad.tobytes() == plain.tobytes()

    @pytest.mark.parametrize(
        "shape", [(64, 64, 32, 32), (64, 16, 28, 28), (37, 8, 5, 7), (70, 16, 14, 14), (9, 3, 1, 1)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_batch_bias_sum_runs_in_sample_order(self, shape, dtype):
        # conv2d's bias gradient has one_shot_conv's g.sum(axis=(0, 2, 3))
        # bits only while numpy's reduction takes this order: a pairwise sum
        # over Ho*Wo a sample, the samples added in order
        rng = np.random.default_rng(19)
        g = rng.normal(size=shape).astype(dtype)
        g *= rng.random(size=shape) < 0.5  # signed zeros, as from a ReLU gate
        assert g.sum(axis=(0, 2, 3)).tobytes() == sample_order_sum(g).tobytes()

    @pytest.mark.parametrize("need_gw", [True, False])
    @pytest.mark.parametrize("cout", [1, 6])
    def test_bias_gradient_adds_per_sample_sums_in_sample_order(self, monkeypatch, cout, need_gw):
        # in the weight pass, or gated whole when there is none; at Cout = 1
        # numpy's whole-batch sum is one pairwise sum, and conv2d's is not
        n = 70
        rng = np.random.default_rng(20)
        xd = rng.normal(size=(n, 3, 9, 9)).astype(np.float32)
        wdata = rng.normal(size=(cout, 3, 3, 3)).astype(np.float32)
        bd = rng.normal(size=cout).astype(np.float32)
        g = rng.normal(size=(n, cout, 9, 9)).astype(np.float32)
        use_workers(monkeypatch, 2)
        w, b = t(wdata, grad=need_gw), t(bd, grad=True)
        with Tape():
            out = conv2d(t(xd), w, b, 1, 1, relu=True)
            backward(tsum(mul(out, t(g))))
        assert b.grad.tobytes() == sample_order_sum(g * (out.data > 0)).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_weight_gradient_peak_is_its_partials_and_two_chunks(self, monkeypatch, workers):
        # 256 samples: the only batch-sized buffer is one [K, Cout] partial a
        # block; the threads share two chunks, each at most _CHUNK_BYTES of
        # patches and per-sample gradients plus its samples' padded input,
        # whatever the worker count
        n, cin, hw, cout = 256, 64, 8, 64
        k = cin * 3 * 3
        use_workers(monkeypatch, workers)
        rng = np.random.default_rng(17)
        x = t(rng.normal(size=(n, cin, hw, hw)))
        w = t(rng.normal(size=(cout, cin, 3, 3)), grad=True)
        b = t(np.zeros(cout))
        g = rng.normal(size=(n, cout, hw, hw)).astype(np.float32)
        with Tape() as tape:
            conv2d(x, w, b, 1, 1)
        (record,) = tape._records
        (gx, gw, gb), peak = traced_peak(lambda: record.grad_fn(g))
        assert gx is None and gb is None and gw.shape == (cout, cin, 3, 3)
        blocks = -(-n // tensor._WEIGHT_BLOCK)
        fit = tensor._CHUNK_BYTES // (k * (hw * hw + cout) * 4)
        chunk = tensor._CHUNK_BYTES + fit * cin * (hw + 2) ** 2 * 4
        assert peak < blocks * k * cout * 4 + 2 * chunk


# ---------------------------------------------------------------------------
# maxpool2d


class TestMaxPool2d:
    def test_single_window(self):
        out = maxpool2d(t([[[[1.0, 2.0], [3.0, 4.0]]]]), 2)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.item() == 4.0

    def test_tie_break_routes_one_cell_per_window(self):
        x = t(np.ones((1, 1, 4, 4)), grad=True)
        with Tape():
            out = maxpool2d(x, 2)
            backward(tsum(out))
        assert np.all(out.data == 1.0)
        per_window = x.grad.reshape(2, 2, 2, 2).sum(axis=(1, 3))
        assert np.all(per_window == 1.0)
        # first cell in row-major window order wins the tie
        assert x.grad[0, 0, 0, 0] == 1.0 and x.grad[0, 0, 0, 1] == 0.0

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        out = maxpool2d(t(x), 2)
        assert np.array_equal(out.data, maxpool_oracle(x, 2))

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            maxpool2d(t(np.zeros((1, 1, 5, 4))), 2)

    @staticmethod
    def tied_input_with_nan_windows(shape, k, dtype):
        # few distinct values, so most windows hold ties; NaN opens some
        # windows, where the oracle's max() and np.maximum agree on NaN
        rng = np.random.default_rng(11)
        x = rng.integers(-2, 3, size=shape).astype(dtype)
        x[::3, :, ::k, ::k][:, :, ::2, ::3] = np.nan
        g = rng.normal(size=(shape[0], shape[1], shape[2] // k, shape[3] // k)).astype(dtype)
        return x, g

    @staticmethod
    def pool_bits(x, g, k):
        xt = t(x, x.dtype, grad=True)
        with Tape():
            out = maxpool2d(xt, k)
            backward(tsum(mul(out, t(g, g.dtype))))
        return out.data.tobytes(), xt.grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, dtype):
        # two samples a chunk: seven samples leave a remainder chunk, and
        # three workers cut the chunks to one sample
        k = 2
        x, g = self.tied_input_with_nan_windows((7, 3, 8, 8), k, dtype)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * x[0].nbytes)
        window_max = tensor._window_max
        caller = threading.get_ident()
        helped = threading.Event()

        def window_max_after_a_helper(*args):
            # the caller's forward chunks wait until a helper has taken one
            if threading.get_ident() != caller:
                helped.set()
            elif tensor._WORKERS > 1:
                assert helped.wait(10)
            return window_max(*args)

        monkeypatch.setattr(tensor, "_window_max", window_max_after_a_helper)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            results = []
            for workers in (1, 2, 3):
                use_workers(monkeypatch, workers)
                helped.clear()
                results.append(self.pool_bits(x, g, k))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]
        out = np.frombuffer(results[0][0], dtype=dtype).reshape(7, 3, 4, 4)
        gx = np.frombuffer(results[0][1], dtype=dtype).reshape(x.shape)
        assert np.isnan(out).any()
        assert np.array_equal(out, maxpool_oracle(x, k), equal_nan=True)
        assert np.array_equal(gx, maxpool_grad_oracle(x, g, k))

    def test_bits_do_not_depend_on_chunk_size(self, monkeypatch):
        use_workers(monkeypatch, 2)
        x, g = self.tied_input_with_nan_windows((9, 4, 6, 6), 3, np.float32)
        results = [self.pool_bits(x, g, 3)]
        for chunk_bytes in (x[0].nbytes, x.nbytes):
            monkeypatch.setattr(tensor, "_CHUNK_BYTES", chunk_bytes)
            results.append(self.pool_bits(x, g, 3))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_backward_temporaries_are_chunk_sized(self, monkeypatch, workers):
        # beside gx itself, backward holds chunk-sized masks and values, not
        # batch-sized ones (a batch-sized np.where result alone is gx/4)
        use_workers(monkeypatch, workers)
        rng = np.random.default_rng(12)
        x = t(rng.normal(size=(64, 64, 32, 32)), grad=True)
        g = rng.normal(size=(64, 64, 16, 16)).astype(np.float32)
        with Tape() as tape:
            maxpool2d(x, 2)
        (record,) = tape._records
        (gx,), peak = traced_peak(lambda: record.grad_fn(g))
        assert gx.shape == x.shape
        assert peak < 1.25 * gx.nbytes

    def test_failing_helper_error_reaches_the_caller_after_every_piece_ends(self, monkeypatch):
        # nine one-sample chunks and three workers: each thread holds its
        # first chunk at the barrier, then one helper raises at once and the
        # other finishes its first chunk late
        x = t(np.arange(9 * 2 * 4 * 4).reshape(9, 2, 4, 4), grad=True)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * x.data[0].nbytes)
        use_workers(monkeypatch, 3)
        window_max = tensor._window_max
        caller = threading.get_ident()
        barrier = threading.Barrier(3, timeout=10)
        lock = threading.Lock()
        started, helpers, finished = set(), [], []

        def failing_window_max(*args):
            me = threading.get_ident()
            with lock:
                first_chunk = me not in started
                started.add(me)
            if first_chunk:
                barrier.wait()
                if me != caller:
                    with lock:
                        helpers.append(me)
                        first_helper = len(helpers) == 1
                    if first_helper:
                        raise RuntimeError("helper failed")
                    time.sleep(0.2)
            window_max(*args)
            finished.append(me == caller)

        monkeypatch.setattr(tensor, "_window_max", failing_window_max)
        with Tape() as tape:
            with pytest.raises(RuntimeError, match="helper failed"):
                maxpool2d(x, 2)
            assert len(tape) == 0
        # eight chunks ran, the late helper's first among them
        assert len(finished) == 8 and False in finished
        monkeypatch.setattr(tensor, "_window_max", window_max)
        with Tape():
            out = maxpool2d(x, 2)
        assert np.array_equal(out.data, maxpool_oracle(x.data, 2))

    def test_failing_routing_helper_error_reaches_the_caller_after_every_piece_ends(self, monkeypatch):
        # nine one-sample chunks and three workers
        x, g = self.tied_input_with_nan_windows((9, 2, 4, 4), 2, np.float32)
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", 2 * x[0].nbytes)
        use_workers(monkeypatch, 3)
        xt = t(x, grad=True)
        with Tape() as tape:
            loss = tsum(mul(maxpool2d(xt, 2), t(g)))
        finished = fail_a_helper_in_the_next_split(monkeypatch)
        with pytest.raises(RuntimeError, match="helper failed"):
            backward(loss)
        # eight chunks ran, the late helper's first among them
        assert len(finished) == 8 and False in finished
        assert len(tape) == 0
        with pytest.raises(TapeError, match="already replayed"):
            backward(loss)
        out, gx = self.pool_bits(x, g, 2)
        assert out == maxpool_oracle(x, 2).tobytes()
        assert gx == maxpool_grad_oracle(x, g, 2).tobytes()


# ---------------------------------------------------------------------------
# relu


class TestRelu:
    def test_clamps_negatives(self):
        assert relu(t([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]

    def test_all_negative_zero_grad(self):
        x = t(-np.ones((3, 3)), grad=True)
        with Tape():
            backward(tsum(relu(x)))
        assert np.all(relu(x).data == 0.0)
        assert np.all(x.grad == 0.0)

    def test_relu_plus_mirrored_is_abs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        combined = relu(t(x)).data + relu(t(-x)).data
        assert np.array_equal(combined, np.abs(x))


# ---------------------------------------------------------------------------
# linear


class TestLinear:
    def test_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = linear(t(x), t(np.eye(3)), t(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_hand_arithmetic(self):
        out = linear(t([[1.0, 2.0]]), t([[3.0, 4.0], [5.0, 6.0]]), t([1.0, -1.0]))
        assert out.data.tolist() == [[12.0, 16.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(7, 5))
        b = rng.normal(size=7)
        out = linear(t(x, np.float64), t(w, np.float64), t(b, np.float64))
        assert np.abs(out.data - matmul_oracle(x, w, b)).max() < 1e-6

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linear(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(4)))


# ---------------------------------------------------------------------------
# flatten / reshape


class TestFlatten:
    def test_preserves_row_major_values(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 1, 1, 3)
        out = flatten(t(x))
        assert out.shape == (2, 3)
        assert np.array_equal(out.data, x.reshape(2, 3))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 4, 5)).astype(np.float32)
        flat = flatten(t(x))
        back = reshape(flat, (1, 3, 4, 5))
        assert np.array_equal(back.data, x)

    def test_idempotent_on_2d(self):
        x = t(np.ones((4, 6)))
        assert np.array_equal(flatten(flatten(x)).data, flatten(x).data)

    def test_needs_batch_axis(self):
        with pytest.raises(ShapeError):
            flatten(t(np.zeros(3)))


# ---------------------------------------------------------------------------
# softmax cross-entropy


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        out = softmax_cross_entropy(t(np.zeros((3, 10))), [0, 5, 9])
        assert abs(out.item() - np.log(10)) < 1e-6

    def test_huge_logits_do_not_overflow(self):
        out = softmax_cross_entropy(t([[1000.0, 0.0]]), [0])
        assert np.isfinite(out.data)
        assert out.item() < 1e-6

    def test_matches_unstabilized_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        out = softmax_cross_entropy(t(z, np.float64), labels)
        assert abs(out.item() - ce_oracle(z, labels)) < 1e-6

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(t(np.zeros((2, 3))), [0, 3])

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        base = softmax_cross_entropy(t(z, np.float64), labels).item()
        for c in (-100.0, -1.0, 0.5, 1e3):
            shifted = softmax_cross_entropy(t(z + c, np.float64), labels).item()
            assert abs(shifted - base) < 1e-6


# ---------------------------------------------------------------------------
# orthogonality penalty


class TestOrthogonalityPenalty:
    def test_identity_is_zero(self):
        for d in (1, 3, 8):
            assert orthogonality_penalty(t(np.eye(d), np.float64)).item() == 0.0

    def test_two_i_at_d64(self):
        out = orthogonality_penalty(t(2 * np.eye(64), np.float64))
        assert abs(out.item() - 576.0) < 1e-8

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        out = orthogonality_penalty(t(a, np.float64))
        assert abs(out.item() - ortho_oracle(a)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            orthogonality_penalty(t(np.zeros((3, 4))))

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            assert orthogonality_penalty(t(a, np.float64)).item() >= 0.0


# ---------------------------------------------------------------------------
# backward and the tape


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = t(np.zeros((2, 3, 4)), grad=True)
        with Tape():
            backward(tsum(x))
        assert np.all(x.grad == 1.0)

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        z = t([[0.0, 0.0]], grad=True)
        with Tape():
            backward(softmax_cross_entropy(z, [0]))
        assert np.allclose(z.grad, [[-0.5, 0.5]])

    def test_consumed_twice_accumulates(self):
        x = t([1.0, 2.0], grad=True)
        with Tape():
            backward(tsum(add(x, x)))
        assert np.all(x.grad == 2.0)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(3, 3))

        def grad_of(fn):
            x = t(data, np.float64, grad=True)
            with Tape():
                backward(fn(x))
            return x.grad

        gf = grad_of(lambda x: tsum(x))
        gg = grad_of(lambda x: softmax_cross_entropy(x, [0, 1, 2]))
        combined = grad_of(
            lambda x: add(scale(tsum(x), 2.5), scale(softmax_cross_entropy(x, [0, 1, 2]), -1.25))
        )
        assert np.abs(combined - (2.5 * gf - 1.25 * gg)).max() < 1e-10

    def test_non_scalar_rejected(self):
        x = t(np.zeros((2, 2)), grad=True)
        with Tape():
            y = relu(x)
            with pytest.raises(ShapeError, match="scalar"):
                backward(y)

    def test_untaped_loss_rejected(self):
        x = t(np.zeros((2, 2)), grad=True)
        y = tsum(x)  # no active tape
        with pytest.raises(TapeError):
            backward(y)

    def test_ops_off_the_loss_path_get_no_gradient(self):
        a = t(np.ones((2, 2)), grad=True)
        b = t(np.ones((2, 2)), grad=True)
        with Tape() as tape:
            loss = tsum(relu(a))
            relu(b)  # recorded but unused by the loss
            assert len(tape) == 3
            backward(loss)
        assert np.all(a.grad == 1.0)
        assert b.grad is None

    def test_tape_isolation_between_passes(self):
        x = t(np.ones(3), grad=True)
        with Tape():
            backward(tsum(x))
        first = x.grad.copy()
        x.grad = None
        with Tape():
            backward(tsum(x))
        assert np.array_equal(x.grad, first)  # no leakage from the first tape

    def test_frozen_params_get_no_gradient_and_are_not_recorded(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(4, 3)))
        w1 = Parameter(rng.normal(size=(5, 3)).astype(np.float32), "frozen.weight")
        b1 = Parameter(rng.normal(size=5).astype(np.float32), "frozen.bias")
        w1.frozen = b1.frozen = True
        assert not w1.requires_grad and not b1.requires_grad

        head_w = rng.normal(size=(3, 5)).astype(np.float32)

        def head_grads(mask_rows):
            # an extended classifier: old rows masked out, the parameter itself not frozen
            w2 = Parameter(head_w.copy(), "head.weight")
            b2 = Parameter(np.zeros(3, dtype=np.float32), "head.bias")
            if mask_rows:
                w2.trainable_mask = np.zeros(w2.data.shape, dtype=bool)
                w2.trainable_mask[2:] = True
                b2.trainable_mask = np.arange(3) >= 2
            assert not w2.frozen and w2.trainable_count() == (5 if mask_rows else 15)
            with Tape() as tape:
                h = relu(linear(x, w1, b1))
                assert len(tape) == 0  # every input is a constant
                loss = softmax_cross_entropy(linear(h, w2, b2), [0, 1, 2, 0])
                assert len(tape) == 2
                backward(loss)
            return w2.grad, b2.grad

        gw, gb = head_grads(True)
        ref_w, ref_b = head_grads(False)
        assert w1.grad is None and b1.grad is None
        # the mask restricts updates, not the gradient: masked rows get theirs too
        assert gw.tobytes() == ref_w.tobytes() and gb.tobytes() == ref_b.tobytes()
        assert np.any(gw[:2]) and np.all(gb[:2] != 0)

    def test_replay_frees_each_record_once_its_gradient_is_passed_on(self):
        # eight same-size ops on a 4 MiB tensor: replay holds what the tape
        # saved plus a few gradients, never all eight at once
        x = t(np.random.default_rng(13).normal(size=(1024, 1024)), grad=True)
        buf = x.data.nbytes
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            with Tape():
                h = x
                for i in range(4):
                    h = relu(scale(h, 1.0 + i))
                loss = tsum(h)
                saved = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.reset_peak()
                backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert saved >= 8 * buf
        assert peak <= saved + 4 * buf
        assert x.grad.shape == x.shape

    def test_held_intermediate_keeps_its_gradient(self):
        x = t([[1.0, -2.0], [3.0, 4.0]], grad=True)
        with Tape() as tape:
            mid = relu(scale(x, 2.0))
            backward(tsum(scale(mid, 3.0)))
        assert len(tape) == 0
        assert np.array_equal(mid.grad, np.full((2, 2), 3.0, dtype=np.float32))
        assert np.array_equal(x.grad, [[6.0, 0.0], [6.0, 6.0]])

    def test_replay_that_raises_cannot_be_replayed(self, monkeypatch):
        # a second pass over what is left would add the gradients that
        # already arrived a second time
        x = t([1.0, -2.0, 3.0], grad=True)

        def failing_grad_fn(g):
            raise FloatingPointError("injected")

        with Tape() as tape:
            loss = tsum(scale(relu(scale(x, 2.0)), 3.0))
            monkeypatch.setattr(tape._records[1], "grad_fn", failing_grad_fn)  # relu's
            with pytest.raises(FloatingPointError, match="injected"):
                backward(loss)
            with pytest.raises(TapeError, match="already replayed"):
                backward(loss)
        assert x.grad is None

    def test_loss_without_trainable_ancestor_backprops_as_noop(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32), "w")
        p.frozen = True
        x = t(np.full((2, 2), 3.0))
        with Tape() as tape:
            loss = tsum(relu(add(p, x)))
            assert len(tape) == 0
            backward(loss)
        assert p.grad is None and x.grad is None and loss.grad is None


class TestParameter:
    def test_parameter_is_the_tensor_ops_take(self):
        p = Parameter(np.array([[1.0, -2.0]], dtype=np.float32), "w")
        assert isinstance(p, Tensor) and p.requires_grad and not p.frozen
        assert not hasattr(p, "value")
        p.frozen = True
        assert not p.requires_grad and p.trainable_count() == 0
        p.frozen = False
        with Tape():
            backward(tsum(relu(p)))
        assert np.array_equal(p.grad, [[1.0, 0.0]])


class TestLeadingColumns:
    def test_gather_and_scatter(self):
        x = t(np.arange(12).reshape(3, 4), np.float64, grad=True)
        c = np.random.default_rng(14).normal(size=(3, 2))
        with Tape() as tape:
            out = leading_columns(x, 2)
            assert len(tape) == 1
            backward(tsum(mul(out, t(c, np.float64))))
        assert np.array_equal(out.data, x.data[:, :2])
        assert not np.shares_memory(out.data, x.data)
        expected = np.zeros((3, 4))
        expected[:, :2] = c
        assert np.array_equal(x.grad, expected)

    def test_full_width_is_the_tensor_itself(self):
        x = t(np.ones((2, 3)), grad=True)
        with Tape() as tape:
            assert leading_columns(x, 3) is x
            assert len(tape) == 0

    def test_out_of_range_rejected(self):
        x = t(np.zeros((2, 3)))
        for k in (0, 4):
            with pytest.raises(ShapeError):
                leading_columns(x, k)
        with pytest.raises(ShapeError):
            leading_columns(t(np.zeros(3)), 1)


class TestSliceRows:
    def test_slice_and_scatter(self):
        x = t(np.arange(8, dtype=np.float64).reshape(4, 2), grad=True)
        with Tape():
            backward(tsum(slice_rows(x, 1, 3)))
        expected = np.zeros((4, 2))
        expected[1:3] = 1.0
        assert np.array_equal(x.grad, expected)


class TestIndexGradients:
    """Row slices return index gradients that backward adds in place.

    Every expectation is the dense sum the slice's zero-filled scatter
    would give, built here with plain numpy.
    """

    @staticmethod
    def weights(shape, seed):
        return np.random.default_rng(seed).normal(size=shape)

    @pytest.mark.parametrize("via", ["add", "reshape"])
    def test_gradient_aliasing_another_tensor_is_not_mutated(self, via):
        x = t(self.weights((4, 3), 0), np.float64, grad=True)
        y = t(self.weights((4, 3), 1), np.float64, grad=True)
        c = self.weights((4, 3), 2)
        with Tape():
            s = slice_rows(x, 0, 2)  # recorded first, so its gradient arrives last
            if via == "add":
                z = add(x, y)  # backward hands x and y one and the same array
            else:
                z = reshape(x, (3, 4))  # backward hands x a view of z's gradient
            dense = tsum(mul(z, t(c.reshape(z.shape), np.float64)))
            backward(add(dense, tsum(mul(s, s))))
        expected_x = c.copy()
        expected_x[0:2] += 2 * x.data[0:2]
        assert np.array_equal(x.grad, expected_x)
        if via == "add":
            assert np.array_equal(y.grad, c)
        else:
            assert np.array_equal(z.grad, c.reshape(3, 4))

    def test_overlapping_slices_accumulate(self):
        x = t(self.weights((4, 3), 3), np.float64, grad=True)
        ca, cb = self.weights((3, 3), 4), self.weights((3, 3), 5)
        with Tape():
            a = slice_rows(x, 0, 3)
            b = slice_rows(x, 1, 4)
            backward(add(tsum(mul(a, t(ca, np.float64))), tsum(mul(b, t(cb, np.float64)))))
        expected = np.zeros((4, 3))
        expected[1:4] += cb
        expected[0:3] += ca
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("gather_first", [True, False])
    def test_dense_and_gather_consumers_of_one_tensor(self, gather_first):
        x = t(self.weights((5, 3), 6), np.float64, grad=True)
        cd, cg = self.weights((5, 3), 7), self.weights((2, 3), 8)
        with Tape():
            if gather_first:
                g = slice_rows(x, 1, 3)
                d = mul(x, t(cd, np.float64))
            else:
                d = mul(x, t(cd, np.float64))
                g = slice_rows(x, 1, 3)
            backward(add(tsum(d), tsum(mul(g, t(cg, np.float64)))))
        expected = cd.copy()
        expected[1:3] += cg
        assert np.array_equal(x.grad, expected)

    def test_stale_gradient_is_copied_not_mutated(self):
        x = t(self.weights((4, 2), 9), np.float64, grad=True)
        stale = self.weights((4, 2), 10)
        before = stale.copy()
        x.grad = stale  # left from an earlier pass, possibly referenced elsewhere
        with Tape():
            backward(tsum(slice_rows(x, 1, 3)))
        assert np.array_equal(stale, before)
        expected = before.copy()
        expected[1:3] += 1.0
        assert np.array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# determinism and finiteness


def test_forward_backward_bit_deterministic():
    rng = np.random.default_rng(11)
    x_data = rng.normal(size=(4, 1, 6, 6)).astype(np.float32)
    w_data = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
    b_data = rng.normal(size=2).astype(np.float32)

    def run():
        x = t(x_data, grad=True)
        w = t(w_data, grad=True)
        b = t(b_data, grad=True)
        with Tape():
            out = maxpool2d(relu(conv2d(x, w, b, 1, 1)), 2)
            loss = softmax_cross_entropy(flatten(out), [0, 1, 0, 1])
            backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()

    first = run()
    second = run()
    for a, b_ in zip(first, second):
        assert a.tobytes() == b_.tobytes()


def test_values_stay_finite_through_random_graph():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = t(rng.normal(size=(3, 2, 8, 8)) * 10, grad=True)
        w = t(rng.normal(size=(4, 2, 3, 3)), grad=True)
        b = t(rng.normal(size=4), grad=True)
        with Tape():
            h = maxpool2d(relu(conv2d(x, w, b, 1, 1)), 2)
            loss = softmax_cross_entropy(flatten(h), rng.integers(0, 64, size=3))
            backward(loss)
        for arr in (h.data, loss.data, x.grad, w.grad, b.grad):
            assert np.all(np.isfinite(arr))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "OMP_NUM_THREADS")


def test_blas_threads_follow_the_blas_variables(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    assert tensor._blas_threads(8) == 8  # unset: BLAS takes every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert tensor._blas_threads(8) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # BLAS's own variable first
    assert tensor._blas_threads(8) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not a thread count
    assert tensor._blas_threads(8) == 2


def numpy_blas_name():
    return str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])


@pytest.mark.parametrize(
    "env, threads",
    [
        ({"MKL_NUM_THREADS": "1"}, 8),  # not OpenBLAS's variable
        ({"GOTO_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}, 1),
    ],
)
def test_blas_threads_read_only_openblas_variables_on_an_openblas_build(monkeypatch, env, threads):
    if "openblas" not in numpy_blas_name().lower():
        pytest.skip(f"numpy links {numpy_blas_name()}, not OpenBLAS")
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert tensor._blas_threads(8) == threads


def test_blas_thread_variables_follow_the_library():
    assert tensor._blas_thread_vars("scipy-openblas") == (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
    )
    assert tensor._blas_thread_vars("mkl-sdl") == ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
    assert tensor._blas_thread_vars("blis") == ("BLIS_NUM_THREADS", "OMP_NUM_THREADS")
    assert tensor._blas_thread_vars("accelerate") == (
        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "OMP_NUM_THREADS"
    )


@pytest.mark.parametrize("pinned", [False, True])
def test_workers_are_the_cpus_over_the_blas_threads(pinned):
    # with BLAS on every CPU conv2d does not split; with BLAS pinned to one
    # thread it splits over every CPU
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = "from santil import tensor; print(tensor._WORKERS, tensor._CPUS)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    workers, cpus = map(int, proc.stdout.split())
    assert workers == (cpus if pinned else 1)


def test_import_and_help_start_no_thread():
    # conv2d's worker pool starts on the first call that splits, not before
    code = """
import threading
import numpy as np
import santil
from santil import tensor
from santil.cli import main
counts = [threading.active_count()]
try:
    main(["--help"])
except SystemExit:
    pass
counts.append(threading.active_count())
tensor._WORKERS = 2
x = tensor.Tensor(np.ones((2, 1, 4, 4), np.float32))
w, b = tensor.Tensor(np.ones((1, 1, 3, 3), np.float32)), tensor.Tensor(np.zeros(1, np.float32))
tensor.conv2d(x, w, b)
counts.append(threading.active_count())
tensor._CHUNK_BYTES = 1
tensor.conv2d(x, w, b)
counts.append(threading.active_count())
print(counts)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[1, 1, 1, 2]"


def test_dtype_mismatch_rejected():
    with pytest.raises(ShapeError, match="dtypes"):
        add(t(np.zeros(3), np.float32), t(np.zeros(3), np.float64))
