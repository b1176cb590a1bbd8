"""Minimal reverse-mode automatic differentiation over numpy buffers.

Operations evaluate eagerly on float32/float64 arrays. While a ``Tape`` is
active (as a context manager), every differentiable op whose inputs require
gradients appends a record of (output, inputs, gradient function); an op
whose inputs are all constants (frozen parameters included) is evaluated
but not recorded. ``backward`` replays those records in reverse execution
order, so each recorded op is visited exactly once and a tensor consumed k
times receives the sum of its k gradient contributions. Without an active
tape the same ops work as plain evaluation.

Training runs in float32; gradient checking builds float64 graphs so that
central-difference comparisons are meaningful.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes (or dtypes) are incompatible with the operation."""


class TapeError(RuntimeError):
    """backward() was called on a tensor that no active tape recorded."""


_TLS = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Record:
    __slots__ = ("out", "inputs", "grad_fn")

    def __init__(self, out, inputs, grad_fn):
        self.out = out
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tape:
    """Execution-ordered record of one forward pass.

    A tape is confined to the thread that opened it and spans exactly one
    forward+backward pair: replaying consumes the records, which promptly
    releases the saved activations (tensors and tapes otherwise form
    reference cycles that only the cycle collector would reclaim).
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)


class Tensor:
    """Dense float array with an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        return float(self.data.item())

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


class Parameter:
    """Trainable tensor with a dotted-path name and freeze controls.

    ``frozen`` is the negation of ``value.requires_grad``: a frozen
    parameter is a constant to the tape, so it never gets a gradient, ops
    fed only by constants are not recorded, and the optimizer skips it.
    ``trainable_mask`` (bool array, True = trainable entry) restricts
    updates to a subset; the parameter is not frozen and keeps its full
    gradient. Classifier extension uses it so appended output rows can
    train while the original rows stay bit-identical.
    """

    def __init__(self, data: np.ndarray, name: str):
        self.value = Tensor(np.asarray(data), requires_grad=True)
        self.name = name
        self.trainable_mask: np.ndarray | None = None

    @property
    def frozen(self) -> bool:
        return not self.value.requires_grad

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self.value.requires_grad = not value

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> np.ndarray | None:
        return self.value.grad

    def trainable_count(self) -> int:
        if self.frozen:
            return 0
        if self.trainable_mask is not None:
            return int(self.trainable_mask.sum())
        return int(self.value.data.size)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.data.shape)}, frozen={self.frozen})"


def _record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None:
        # an unrecorded output still belongs to the tape, so a loss with no
        # trainable ancestor backprops as a no-op instead of raising
        out.tape = tape
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            tape._records.append(_Record(out, inputs, grad_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad on every recorded tensor that influenced ``loss``.

    Visits each recorded op exactly once, in reverse execution order, then
    consumes the tape. A loss made under a tape from constants alone has
    nothing to differentiate, so its backward writes no gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss was not produced under an active Tape")
    if tape._consumed:
        raise TapeError("tape already replayed; open a new Tape for another pass")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape._records):
        gout = rec.out.grad
        if gout is None:
            continue
        for t, gin in zip(rec.inputs, rec.grad_fn(gout)):
            if gin is None or not t.requires_grad:
                continue
            t.grad = gin if t.grad is None else t.grad + gin
    tape._records.clear()
    tape._consumed = True


def _check_same_dtype(op: str, *tensors: Tensor) -> None:
    d0 = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != d0:
            raise ShapeError(f"{op}: mixed dtypes {d0.name} and {t.data.dtype.name}")


# ---------------------------------------------------------------------------
# elementwise / structural ops


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0))

    def grad_fn(g):
        return (g * (x.data > 0),)

    return _record(out, (x,), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    _check_same_dtype("add", a, b)
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        return (g, g)

    return _record(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    _check_same_dtype("mul", a, b)
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return (ga, gb)

    return _record(out, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def grad_fn(g):
        return (g * c,)

    return _record(out, (x,), grad_fn)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum())

    def grad_fn(g):
        return (g * np.ones(x.data.shape, dtype=g.dtype),)

    return _record(out, (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out_data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {exc}") from None
    out = Tensor(out_data)

    def grad_fn(g):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), grad_fn)


def flatten(x: Tensor) -> Tensor:
    """Collapse all trailing axes: [N, ...] -> [N, D], row-major order kept."""
    if x.data.ndim < 2:
        raise ShapeError(f"flatten expects a batch axis, got shape {x.data.shape}")
    return reshape(x, (x.data.shape[0], -1))


def select_columns(x: Tensor, columns: Sequence[int]) -> Tensor:
    """Gather columns of a 2-D tensor; backward scatters into zeros."""
    if x.data.ndim != 2:
        raise ShapeError(f"select_columns expects 2-D input, got {x.data.shape}")
    cols = np.asarray(columns, dtype=np.int64)
    if cols.ndim != 1 or cols.size == 0:
        raise ShapeError("select_columns needs a non-empty index list")
    if len(np.unique(cols)) != cols.size:
        raise ShapeError("select_columns indices must be unique")
    if cols.min() < 0 or cols.max() >= x.data.shape[1]:
        raise ShapeError(f"column index out of range for width {x.data.shape[1]}")
    out = Tensor(x.data[:, cols])

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, cols] = g
        return (gx,)

    return _record(out, (x,), grad_fn)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"row slice [{start}:{stop}] invalid for {n} rows")
    out = Tensor(x.data[start:stop].copy())

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _record(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# dense / convolutional ops


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w.T + b for x:[N,Din], w:[Dout,Din], b:[Dout]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"linear expects x:[N,Din], w:[Dout,Din], b:[Dout]; got "
            f"{x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[1] or b.data.shape[0] != w.data.shape[0]:
        raise ShapeError(
            f"linear: inner dims disagree (x {x.data.shape}, w {w.data.shape}, b {b.data.shape})"
        )
    _check_same_dtype("linear", x, w, b)
    out = Tensor(x.data @ w.data.T + b.data)

    def grad_fn(g):
        gx = g @ w.data if x.requires_grad else None
        gw = g.T @ x.data if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return (gx, gw, gb)

    return _record(out, (x, w, b), grad_fn)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    # [N,C,Hp,Wp] -> [N, C*kh*kw, Ho*Wo] patch matrix via kh*kw slice writes
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        ys = slice(i, i + stride * ho, stride)
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, ys, slice(j, j + stride * wo, stride)]
    return cols.reshape(n, c * kh * kw, ho * wo)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2-D cross-correlation with zero padding.

    x:[N,Cin,H,W], w:[Cout,Cin,kh,kw], b:[Cout]. Output extents follow
    floor((H + 2*padding - kh)/stride) + 1 (likewise for W). The forward
    pass runs as one im2col matmul; backward recomputes padded input
    slices instead of holding the patch matrix.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError(
            f"conv2d expects x:[N,C,H,W], w:[Cout,Cin,kh,kw], b:[Cout]; got "
            f"{x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ShapeError("conv2d stride must be positive")
    if padding < 0:
        raise ShapeError("conv2d padding must be non-negative")
    n, cin, h, wd = x.data.shape
    cout, cw, kh, kw = w.data.shape
    if cin != cw:
        raise ShapeError(
            f"conv2d: input has {cin} channels but weight expects {cw} "
            f"(input {x.data.shape}, weight {w.data.shape})"
        )
    if b.data.shape[0] != cout:
        raise ShapeError(f"conv2d: bias has {b.data.shape[0]} entries for {cout} filters")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    _check_same_dtype("conv2d", x, w, b)

    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data, pad_spec) if padding else x.data
    cols = _im2col(xp, kh, kw, stride, ho, wo)  # saved for backward; freed with the tape
    out_data = np.matmul(w.data.reshape(cout, -1), cols).reshape(n, cout, ho, wo)
    out_data += b.data.reshape(1, cout, 1, 1)
    out = Tensor(out_data)

    def grad_fn(g):
        gl = g.reshape(n, cout, ho * wo)
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        gw = None
        if w.requires_grad:
            # batched GEMM against a transposed view, summed over the batch
            gw = np.matmul(gl, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape)
        gx = None
        if x.requires_grad:
            gcols = np.matmul(w.data.reshape(cout, -1).T, gl)
            gwin = gcols.reshape(n, cin, kh, kw, ho, wo)
            gxp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
            for i in range(kh):
                ys = slice(i, i + stride * ho, stride)
                for j in range(kw):
                    gxp[:, :, ys, slice(j, j + stride * wo, stride)] += gwin[:, :, i, j]
            gx = gxp[:, :, padding : padding + h, padding : padding + wd] if padding else gxp
        return (gx, gw, gb)

    return _record(out, (x, w, b), grad_fn)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling.

    Gradient is routed to the first maximum per window, counting in
    row-major window order, so tie handling is deterministic.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects [N,C,H,W], got {x.data.shape}")
    k = int(k)
    n, c, h, w = x.data.shape
    if k < 1 or h % k or w % k:
        raise ShapeError(f"maxpool2d: extents {h}x{w} not divisible by window {k}")
    ho, wo = h // k, w // k
    # pairwise maxima over slice views beat a strided multi-axis reduction
    xw = x.data.reshape(n, c, h, wo, k)
    mw = xw[..., 0].copy()
    for j in range(1, k):
        np.maximum(mw, xw[..., j], out=mw)
    xh = mw.reshape(n, c, ho, k, wo)
    mh = xh[:, :, :, 0].copy()
    for i in range(1, k):
        np.maximum(mh, xh[:, :, :, i], out=mh)
    out = Tensor(mh)

    def grad_fn(g):
        # route g to the first window cell (row-major) equal to the max
        xv = x.data.reshape(n, c, ho, k, wo, k)
        gx = np.zeros((n, c, ho, k, wo, k), dtype=g.dtype)
        taken = np.zeros((n, c, ho, wo), dtype=bool)
        for i in range(k):
            for j in range(k):
                hit = (xv[:, :, :, i, :, j] == out.data) & ~taken
                gx[:, :, :, i, :, j] = np.where(hit, g, 0)
                taken |= hit
        return (gx.reshape(n, c, h, w),)

    return _record(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over the batch.

    Computed with max-subtracted log-sum-exp so large logits cannot
    overflow; gradient is (softmax - onehot) / N.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N,K] logits, got {z.shape}")
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != z.shape[0]:
        raise ShapeError(
            f"labels must be a flat list of length {z.shape[0]}, got shape {lab.shape}"
        )
    if lab.size == 0:
        raise ShapeError("softmax_cross_entropy needs at least one sample")
    lab = lab.astype(np.int64)
    if lab.min() < 0 or lab.max() >= z.shape[1]:
        raise ValueError(
            f"label out of range [0, {z.shape[1]}): saw {int(lab.min())}..{int(lab.max())}"
        )
    n = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (z - m) - np.log(sez)
    out = Tensor(-logp[np.arange(n), lab].mean())

    def grad_fn(g):
        gz = ez / sez
        gz[np.arange(n), lab] -= 1
        return (gz * (float(g) / n),)

    return _record(out, (logits,), grad_fn)


def orthogonality_penalty(a: Tensor) -> Tensor:
    """Squared Frobenius norm of (I - A @ A.T); zero exactly when A is orthogonal."""
    m = a.data
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"orthogonality penalty needs a square matrix, got {m.shape}")
    r = np.eye(m.shape[0], dtype=m.dtype) - m @ m.T
    out = Tensor((r * r).sum())

    def grad_fn(g):
        return ((-2.0 * float(g)) * ((r + r.T) @ m),)

    return _record(out, (a,), grad_fn)
