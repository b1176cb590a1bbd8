import numpy as np
import pytest

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
    linear,
    maxpool2d,
    orthogonality_penalty,
    relu,
    reshape,
    scale,
    select_columns,
    slice_rows,
    softmax_cross_entropy,
    tsum,
)


def t(data, dtype=np.float32, grad=False):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


# ---------------------------------------------------------------------------
# independent oracles (naive loops, no shared code with the implementation)


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
        assert not w1.value.requires_grad and not b1.value.requires_grad

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
                h = relu(linear(x, w1.value, b1.value))
                assert len(tape) == 0  # every input is a constant
                loss = softmax_cross_entropy(linear(h, w2.value, b2.value), [0, 1, 2, 0])
                assert len(tape) == 2
                backward(loss)
            return w2.grad, b2.grad

        gw, gb = head_grads(True)
        ref_w, ref_b = head_grads(False)
        assert w1.grad is None and b1.grad is None
        # the mask restricts updates, not the gradient: masked rows get theirs too
        assert gw.tobytes() == ref_w.tobytes() and gb.tobytes() == ref_b.tobytes()
        assert np.any(gw[:2]) and np.all(gb[:2] != 0)

    def test_loss_without_trainable_ancestor_backprops_as_noop(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32), "w")
        p.frozen = True
        x = t(np.full((2, 2), 3.0))
        with Tape() as tape:
            loss = tsum(relu(add(p.value, x)))
            assert len(tape) == 0
            backward(loss)
        assert p.grad is None and x.grad is None and loss.grad is None


class TestSelectColumns:
    def test_gather_and_scatter(self):
        x = t(np.arange(12, dtype=np.float64).reshape(3, 4), grad=True)
        with Tape():
            out = select_columns(x, [2, 0])
            backward(tsum(out))
        assert np.array_equal(out.data, x.data[:, [2, 0]])
        expected = np.zeros((3, 4))
        expected[:, [0, 2]] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_duplicate_or_out_of_range_rejected(self):
        x = t(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            select_columns(x, [0, 0])
        with pytest.raises(ShapeError):
            select_columns(x, [3])


class TestSliceRows:
    def test_slice_and_scatter(self):
        x = t(np.arange(8, dtype=np.float64).reshape(4, 2), grad=True)
        with Tape():
            backward(tsum(slice_rows(x, 1, 3)))
        expected = np.zeros((4, 2))
        expected[1:3] = 1.0
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


def test_dtype_mismatch_rejected():
    with pytest.raises(ShapeError, match="dtypes"):
        add(t(np.zeros(3), np.float32), t(np.zeros(3), np.float64))
