"""Minimal reverse-mode automatic differentiation over numpy buffers.

Operations evaluate eagerly on float32/float64 arrays. While a ``Tape`` is
active (as a context manager), every differentiable op whose inputs require
gradients appends a record of (output, inputs, gradient function); an op
whose inputs are all constants (frozen parameters included) is evaluated
but not recorded. ``backward`` replays those records in reverse execution
order, so each recorded op is visited exactly once and a tensor consumed k
times receives the sum of its k gradient contributions. Replay pops each
record as it goes, so once an op's gradient has reached its inputs, its
output, gradient function and saved arrays are freed, unless the caller
still holds the output. A step therefore holds its saved activations plus
the gradients of the ops being replayed, not every gradient of the pass.
Without an active tape the same ops work as plain evaluation.

``slice_rows`` returns an ``IndexGrad``: the gradient's values on the sliced
rows, zero elsewhere. ``backward`` gives such a tensor one zeroed buffer and
adds each later ``IndexGrad`` into it in place, so k row slices of an [N, D]
tensor cost O(k*D), not O(k*N*D). It mutates only buffers it allocated in
that call: a ``.grad`` that may alias another tensor's gradient (``add``
hands both inputs the same array, ``reshape`` hands back a view) or that is
left from an earlier pass is copied first.

Training runs in float32; gradient checking builds float64 graphs so that
central-difference comparisons are meaningful.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes (or dtypes) are incompatible with the operation."""


class TapeError(RuntimeError):
    """backward() was called on a tensor that no tape recorded, or twice."""


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
    forward+backward pair. Replay removes each record from the tape as it
    visits it, which releases that op's saved arrays at once (tensors and
    tapes otherwise form reference cycles that only the cycle collector
    would reclaim). The tape is marked consumed before the first record is
    visited, so a replay that raises part-way cannot be run a second time.
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

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


class Parameter(Tensor):
    """Trainable tensor with a dotted-path name and freeze controls.

    Ops take a parameter as they take any tensor. ``frozen`` is the
    negation of ``requires_grad``: a frozen parameter is a constant to the
    tape, so it never gets a gradient, ops fed only by constants are not
    recorded, and the optimizer refuses it.
    """

    __slots__ = ("name",)

    def __init__(self, data: np.ndarray, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    @property
    def frozen(self) -> bool:
        return not self.requires_grad

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self.requires_grad = not value

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.data.shape)}, frozen={self.frozen})"


class IndexGrad:
    """A row-slice gradient: zero outside rows ``index``, ``values`` on them."""

    __slots__ = ("index", "values")

    def __init__(self, index, values: np.ndarray):
        self.index = index
        self.values = values


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

    Visits each recorded op exactly once, in reverse execution order, and
    pops it off the tape once its gradient has been passed to its inputs;
    the tape ends empty and consumed. Tensors the caller still holds keep
    their ``.grad``. A loss made under a tape from constants alone has
    nothing to differentiate, so its backward writes no gradient. An
    ``IndexGrad`` is added in place, and only into a buffer this call
    allocated for that tensor.
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
    records = tape._records
    tape._consumed = True  # also when a grad_fn raises part-way
    # no id here is reused: backward makes no Tensor and each one still to visit is alive
    owned: set[int] = set()  # ids of tensors whose .grad this call allocated
    while records:
        rec = records.pop()  # released, with what it saved, once this iteration ends
        gout = rec.out.grad
        if gout is None:
            continue
        for t, gin in zip(rec.inputs, rec.grad_fn(gout)):
            if gin is None or not t.requires_grad:
                continue
            if isinstance(gin, IndexGrad):
                if id(t) not in owned:
                    t.grad = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    owned.add(id(t))
                t.grad[gin.index] += gin.values
            elif t.grad is None:
                t.grad = gin
            else:
                t.grad = t.grad + gin
                owned.add(id(t))


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


def leading_columns(x: Tensor, k: int) -> Tensor:
    """The first k columns of a 2-D tensor; x itself when k is its width.

    A narrower slice is a copy, and its gradient is the upstream gradient
    zero-padded back to x's width.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"leading_columns expects 2-D input, got {x.data.shape}")
    width = x.data.shape[1]
    if not 1 <= k <= width:
        raise ShapeError(f"leading_columns: {k} columns out of range for width {width}")
    if k == width:
        return x
    out = Tensor(x.data[:, :k].copy())

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, :k] = g
        return (gx,)

    return _record(out, (x,), grad_fn)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) as a copy; the gradient is an ``IndexGrad`` on them."""
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"row slice [{start}:{stop}] invalid for {n} rows")
    out = Tensor(x.data[start:stop].copy())

    def grad_fn(g):
        return (IndexGrad(slice(start, stop), g),)

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


# Budget for one chunk of samples: conv2d's patch matrix, maxpool2d's input.
# Above a few MiB the chunk's buffers stop fitting in cache and the gain over
# one batch-sized pass goes.
_CHUNK_BYTES = 1 << 20

# Samples in one block of conv2d's weight gradient: each block's per-sample
# gradients add into one partial, and the partials add in block order. A
# constant, so the bits depend on neither _CHUNK_BYTES nor _WORKERS.
_WEIGHT_BLOCK = 8


def _blas_thread_vars(blas: str) -> tuple[str, ...]:
    """The variables the BLAS library named ``blas`` reads its thread count
    from at start-up, in the order it reads them."""
    blas = blas.lower()
    if "openblas" in blas:
        return ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "mkl" in blas:
        return ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
    if "blis" in blas:
        return ("BLIS_NUM_THREADS", "OMP_NUM_THREADS")
    return ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    """Threads a GEMM of numpy's BLAS runs on, read from the variables that
    library reads; with none of them set, BLAS takes every CPU."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = ""
    for var in _blas_thread_vars(str(blas)):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


# Threads one conv2d or maxpool2d call may split its chunks over, the
# caller included: the process's CPUs over BLAS's threads, so the two do not
# oversubscribe the CPUs. _POOL holds the helpers behind them (see _split).
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = max(1, _CPUS // _blas_threads(_CPUS))
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _chunks(n: int, sample_bytes: int) -> tuple[int, int, list[slice]]:
    """How one call walks a batch of ``n`` samples of ``sample_bytes`` each:
    (samples a chunk, threads, the chunks in order).

    A chunk holds the samples that fit ``_CHUNK_BYTES``, at least one. The
    threads of a call share two chunks' budget, so that two threads split
    it at full chunks and a call's buffers hold at most two chunks, whatever
    the CPU count; no more threads run than there are chunks or ``_WORKERS``.
    """
    fit = max(1, _CHUNK_BYTES // sample_bytes)
    workers = max(1, min(_WORKERS, -(-n // fit), 2 * fit))
    step = max(1, min(n, fit, 2 * fit // workers))
    return step, workers, [slice(s, min(s + step, n)) for s in range(0, n, step)]


def _split(
    chunks: list[slice], workers: int, piece: Callable[[Callable[[], slice | None]], None]
) -> None:
    """Run ``piece(take)`` on ``workers`` threads, the caller included.

    ``take()`` hands out ``chunks`` in order, one per call from any thread,
    and None once they are gone. Each piece has its own buffers and loops
    on ``take``, writing only the rows of the chunk it took, so a stalled
    thread holds up one chunk, not a fixed share. With one worker
    everything runs on the caller and the pool is not touched. Otherwise
    the helpers run on ``_POOL``, made with ``_WORKERS - 1`` threads on the
    first call that splits, never at import, which starts a thread only
    when no idle one is left; numpy releases the interpreter lock in its
    GEMMs, copies and ufuncs. The caller waits for every helper, then
    raises the first error, its own first. Pieces do not record on the tape
    (it is thread-local anyway); an op records after its split returns, so
    a forward that raises records nothing.
    """
    global _POOL
    it = iter(chunks)
    lock = threading.Lock()

    def take() -> slice | None:
        with lock:
            return next(it, None)

    if workers > 1:
        with _POOL_LOCK:
            if _POOL is None:
                _POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="santil")
    futures = []
    try:
        for _ in range(workers - 1):
            futures.append(_POOL.submit(piece, take))
        piece(take)
    finally:
        errors = [f.exception() for f in futures]  # waits for each
    for err in errors:
        if err is not None:
            raise err


def _patch_buffers(samples, c, h, w, k, dtype):
    """``_im2col``'s (rows, cols) for chunks of up to ``samples`` [c, h, w]
    samples and a k x k kernel; (None, None) for k = 1, which needs none.

    ``rows`` is flat and zero: each channel's h rows at pitch w between
    (k-1)/2 zero rows above and below, after a guard of (k-1)/2 elements,
    with as many after the last. ``cols`` is [samples, c, k, k, h, w].
    """
    if k == 1:
        return None, None
    rows = np.zeros(samples * c * (h + k - 1) * w + k - 1, dtype=dtype)
    return rows, np.empty((samples, c, k, k, h, w), dtype=dtype)


def _windows(rows, m, c, h, w, k) -> np.ndarray:
    """The read-only [m, c, k, k, h*w] view of ``rows`` (see ``_patch_buffers``)
    whose window (i, j) of a channel is the h*w run that starts at its
    padded row i, shifted by j - (k-1)/2. Where a shifted row crosses its
    end, the run reads the neighbouring row's edge (or a guard). The guards
    keep the view inside ``rows``, whose last element it reads at m =
    samples; ``np.ndarray`` refuses a view that would reach past it."""
    hp, e = h + k - 1, rows.itemsize
    strides = (c * hp * w * e, hp * w * e, w * e, e, e)
    view = np.ndarray((m, c, k, k, h * w), rows.dtype, buffer=rows, strides=strides)
    view.flags.writeable = False
    return view


def _im2col(x, k, rows, cols) -> np.ndarray:
    """Same-size patches of x:[m,C,H,W] as an [m, C*k*k, H*W] matrix.

    For k = 1 that is x itself, reshaped. Otherwise the samples go into the
    interior rows of ``rows``, whose pad rows stay zero, and one copy of
    ``_windows`` fills ``cols``, both from ``_patch_buffers``. The cells
    where a window's run crossed a row end are the horizontal zero padding,
    so they are set to 0 after. Each patch value is copied, never computed,
    so the matrix holds the bits of the naive zero-padded windows.
    """
    m, c, h, w = x.shape
    if k == 1:
        return x.reshape(m, c, h * w)
    pad, hp = k // 2, h + k - 1
    rows[pad : pad + m * c * hp * w].reshape(m, c, hp, w)[:, :, pad : pad + h] = x
    cols = cols[:m]
    np.copyto(cols.reshape(m, c, k, k, h * w), _windows(rows, m, c, h, w, k))
    for j in range(pad):
        cols[:, :, :, j, :, : pad - j] = 0
        cols[:, :, :, k - 1 - j, :, max(0, w - pad + j) :] = 0
    return cols.reshape(m, c * k * k, h * w)


def conv2d(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Batched same-size 2-D cross-correlation, optionally followed by ReLU.

    x:[N,Cin,H,W], w:[Cout,Cin,k,k], b:[Cout], for an odd k. Each output
    cell is the window centred on the same input cell, the input zero-padded
    by (k-1)/2 on every side, so the output is [N,Cout,H,W]; an even or
    non-square kernel is refused.

    The batch is walked in chunks of samples whose patch matrix (im2col) is
    about ``_CHUNK_BYTES``. Every chunk of a call reuses one patch buffer and
    one input buffer with zero rows above and below each channel, from which
    ``_im2col`` fills the patches with one strided copy (a 1x1 kernel's
    patches are the chunk itself). Values are only moved, so the patch
    matrix holds exactly the bits of the naive zero-padded windows. Each
    chunk's patches are multiplied straight into its slice of the output,
    which then gets the bias (and, with ``relu``, is clamped at 0 in place)
    while it is still in cache. The tape keeps only the op's inputs and
    output, never a batch-sized patch matrix: backward rebuilds each chunk's
    patches and takes each sample's weight gradient as patches @ grad^T.
    For the input gradient, grad is zero-padded to the padded input's
    extents and the GEMM's rows are taken window by window, so each kernel
    window, over all channels, adds onto the flattened padded input as one
    contiguous run, in row-major window order.

    With ``relu`` the op is ``relu(conv2d(...))`` in one tape record: backward
    gates grad by ``out > 0``, which holds exactly where the pre-activation
    is positive (both are False for NaN), so the pre-activation is never
    kept. The gate is applied piece by piece, never to the whole batch at
    once: the weight pass gates each block into its thread's own block
    buffer, and the input pass gates each chunk as it pads it. Forward and
    backward do the same elementwise arithmetic as the two ops, so the bits
    are those of the pair.

    The bias gradient is each sample's sum over Ho*Wo (taken in the weight
    pass, so a trainable bias on a frozen weight is refused), added in
    sample order. For more than one output channel that is the order of
    numpy's ``g.sum(axis=(0, 2, 3))``; for one, numpy's sum is a single
    pairwise sum over the batch and may differ in the last bits.

    Forward and the input gradient share their chunks among threads as
    ``_chunks`` and ``_split`` say. The weight gradient is shared in fixed
    blocks of ``_WEIGHT_BLOCK`` samples instead: a thread takes a block,
    rebuilds its patches at most a chunk at a time (a chunk here budgets
    each sample's patches and gradient) and adds the block's per-sample
    gradients, in sample order, into the block's own [K, Cout] partial; the
    caller then adds the partials in block order. A batch of at most
    ``_WEIGHT_BLOCK`` samples is thus summed in plain sample order.

    Each sample is one GEMM in both directions, whichever chunk or thread
    runs it, and the block size is a constant, so for a given BLAS build
    and thread count the bits depend on neither the chunk size nor the
    worker count. They equal those of one batched im2col GEMM with a
    windowed scatter only where BLAS picks the same kernel for the GEMM
    widths Ho*Wo and Hp*Wp (the padded extents); elsewhere the input
    gradient may differ from it in the last bits.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError(
            f"conv2d expects x:[N,C,H,W], w:[Cout,Cin,kh,kw], b:[Cout]; got "
            f"{x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    n, cin, h, wd = x.data.shape
    cout, cw, kh, kw = w.data.shape
    if 0 in (cin, h, wd):
        raise ShapeError(f"conv2d: input {x.data.shape} has an empty channel, height or width extent")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} is not square with an odd side")
    if cin != cw:
        raise ShapeError(
            f"conv2d: input has {cin} channels but weight expects {cw} "
            f"(input {x.data.shape}, weight {w.data.shape})"
        )
    if b.data.shape[0] != cout:
        raise ShapeError(f"conv2d: bias has {b.data.shape[0]} entries for {cout} filters")
    if b.requires_grad and not w.requires_grad:
        names = getattr(b, "name", "b"), getattr(w, "name", "w")
        raise ValueError("conv2d: bias %r is trainable but weight %r is frozen" % names)
    _check_same_dtype("conv2d", x, w, b)

    padding = kh // 2
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = h, wd
    dtype = x.data.dtype
    k = cin * kh * kw
    step, workers, chunks = _chunks(n, k * ho * wo * dtype.itemsize)

    def patch_builder(samples):
        # one chunk's buffers, reused by every chunk of one piece of a pass
        rows, cols = _patch_buffers(samples, cin, h, wd, kh, dtype)
        return lambda sl: _im2col(x.data[sl], kh, rows, cols)

    wm = w.data.reshape(cout, k)
    bias = b.data.reshape(cout, 1)
    out_data = np.empty((n, cout, ho * wo), dtype=dtype)

    def forward(take):
        chunk_patches = patch_builder(step)
        while (sl := take()) is not None:
            o = out_data[sl]
            np.matmul(wm, chunk_patches(sl), out=o)
            o += bias
            if relu:
                np.maximum(o, 0, out=o)

    _split(chunks, workers, forward)
    out_data = out_data.reshape(n, cout, ho, wo)
    out = Tensor(out_data)

    def grad_fn(g):
        gw = gx = None
        # each sample's bias gradient (its sum over Ho*Wo), added in sample order
        brows = np.empty((n, cout), dtype=dtype) if b.requires_grad else None
        if w.requires_grad:
            gl = g.reshape(n, cout, ho * wo)
            ol = out_data.reshape(n, cout, ho * wo)
            blocks = [slice(s, min(s + _WEIGHT_BLOCK, n)) for s in range(0, n, _WEIGHT_BLOCK)]
            partials = np.empty((len(blocks), k, cout), dtype=dtype)
            # a sample's patches and its gradient share the chunk budget here
            wstep, wworkers, _ = _chunks(n, k * (ho * wo + cout) * dtype.itemsize)
            # each thread's buffers are made here, on the caller, so the memory
            # goes back to the caller's heap, not to a helper's malloc arena;
            # with relu, a block's gated gradient and its mask are among them
            block_shape = (_WEIGHT_BLOCK, cout, ho * wo)
            buffers = [
                (
                    patch_builder(wstep),
                    np.empty((wstep, k, cout), dtype=dtype),
                    np.empty(block_shape, dtype=dtype) if relu else None,
                    np.empty(block_shape, dtype=bool) if relu else None,
                )
                for _ in range(max(1, min(wworkers, len(blocks))))
            ]

            def weight_grad(take):
                chunk_patches, gws, gblk, mask = buffers.pop()
                while (blk := take()) is not None:
                    if relu:
                        size = blk.stop - blk.start
                        np.greater(ol[blk], 0, out=mask[:size])
                        gblock = np.multiply(gl[blk], mask[:size], out=gblk[:size])
                    else:
                        gblock = gl[blk]
                    if brows is not None:
                        gblock.sum(axis=2, out=brows[blk])
                    partial = partials[blk.start // _WEIGHT_BLOCK]
                    for s in range(blk.start, blk.stop, wstep):
                        sl = slice(s, min(s + wstep, blk.stop))
                        m = sl.stop - sl.start
                        gsl = gblock[s - blk.start : s - blk.start + m]
                        np.matmul(chunk_patches(sl), gsl.transpose(0, 2, 1), out=gws[:m])
                        for i, gs in enumerate(gws[:m], s):
                            if i == blk.start:
                                partial[...] = gs
                            else:
                                partial += gs

            _split(blocks, len(buffers), weight_grad)
            # a copy, so the gradient does not hold every block's partial
            gw = partials[0].copy() if blocks else np.zeros(partials.shape[1:], dtype=dtype)
            for partial in partials[1:]:
                gw += partial
            del partials  # before the input gradient's buffers are made
            gw = gw.T.reshape(w.data.shape)

        if x.requires_grad:
            # g as [Cout, hp, wp] a sample, zero outside [ho, wo], and the
            # GEMM's rows in (i, j, c) order: window (i, j) of every channel is
            # one run, landing on the padded input from offset i*wp + j
            span = (cin - 1) * hp * wp + (ho - 1) * wp + wo
            wt = np.ascontiguousarray(w.data.transpose(0, 2, 3, 1)).reshape(cout, -1).T
            gx = np.empty((n, cin, h, wd), dtype=dtype)

            def input_grad(take):
                gpad = np.zeros((step, cout, hp, wp), dtype=dtype)
                gwin = np.empty((step, kh, kw, cin * hp * wp), dtype=dtype)
                acc = np.empty((step, cin, hp, wp), dtype=dtype)
                while (sl := take()) is not None:
                    m = sl.stop - sl.start
                    if relu:
                        np.multiply(g[sl], out_data[sl] > 0, out=gpad[:m, :, :ho, :wo])
                    else:
                        gpad[:m, :, :ho, :wo] = g[sl]
                    np.matmul(wt, gpad[:m].reshape(m, cout, -1), out=gwin[:m].reshape(m, -1, hp * wp))
                    acc[:m].fill(0)
                    flat = acc[:m].reshape(m, -1)
                    for i in range(kh):
                        for j in range(kw):
                            off = i * wp + j
                            flat[:, off : off + span] += gwin[:m, i, j, :span]
                    gx[sl] = acc[:m, :, padding : padding + h, padding : padding + wd]

            _split(chunks, workers, input_grad)
        gb = None
        if brows is not None:
            # accumulate adds each row onto the sum of the rows before it
            gb = np.add.accumulate(brows)[-1].copy() if n else np.zeros(cout, dtype=dtype)
        return (gx, gw, gb)

    return _record(out, (x, w, b), grad_fn)


def _window_max(x, k, mw, out) -> None:
    """Max of each k x k window of x:[m,C,H,W] into out:[m,C,H/k,W/k].

    Pairwise maxima over slice views (they beat a strided multi-axis
    reduction): first across each window's columns into ``mw``, an
    [>=m, C, H, W/k] buffer, then across its rows into ``out``.
    """
    m, c, h, w = x.shape
    xw = x.reshape(m, c, h, w // k, k)
    mw = mw[:m]
    np.copyto(mw, xw[..., 0])
    for j in range(1, k):
        np.maximum(mw, xw[..., j], out=mw)
    xh = mw.reshape(m, c, h // k, k, w // k)
    np.copyto(out, xh[:, :, :, 0])
    for i in range(1, k):
        np.maximum(out, xh[:, :, :, i], out=out)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling.

    Gradient is routed to the first maximum per window, counting in
    row-major window order, so tie handling is deterministic; a window
    holding a NaN pools to NaN and passes no gradient.

    Forward and backward walk the batch in chunks of about ``_CHUNK_BYTES``
    of input, shared among threads as ``_chunks`` and ``_split`` say, so
    backward's masks and temporaries are chunk-sized and stay in cache.
    Each sample's arithmetic is the same whichever chunk or thread runs it,
    so the bits depend on neither the chunk size nor the worker count.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects [N,C,H,W], got {x.data.shape}")
    k = int(k)
    n, c, h, w = x.data.shape
    if 0 in (c, h, w):
        raise ShapeError(f"maxpool2d: input {x.data.shape} has an empty channel, height or width extent")
    if k < 1 or h % k or w % k:
        raise ShapeError(f"maxpool2d: extents {h}x{w} not divisible by window {k}")
    ho, wo = h // k, w // k
    dtype = x.data.dtype
    step, workers, chunks = _chunks(n, c * h * w * dtype.itemsize)
    out_data = np.empty((n, c, ho, wo), dtype=dtype)

    def forward(take):
        mw = np.empty((step, c, h, wo), dtype=dtype)
        while (sl := take()) is not None:
            _window_max(x.data[sl], k, mw, out_data[sl])

    _split(chunks, workers, forward)
    out = Tensor(out_data)

    def grad_fn(g):
        # route g to the first window cell (row-major) equal to the max. Every
        # cell of a window is written, so gx needs no zero fill. A cell gets
        # g's bits times the hit mask, as unsigned integers: g where hit, +0.0
        # elsewhere, the values np.where(hit, g, 0) gives, without its branches
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        bits = np.dtype(f"u{g.dtype.itemsize}")

        def route(take):
            taken = np.empty((step, c, ho, wo), dtype=bool)
            while (sl := take()) is not None:
                m = sl.stop - sl.start
                xv = x.data[sl].reshape(m, c, ho, k, wo, k)
                gv = gx[sl].view(bits).reshape(m, c, ho, k, wo, k)
                mx, gs, seen = out_data[sl], g[sl].view(bits), taken[:m]
                seen.fill(False)
                for i in range(k):
                    for j in range(k):
                        hit = (xv[:, :, :, i, :, j] == mx) & ~seen
                        np.multiply(gs, hit, out=gv[:, :, :, i, :, j])
                        seen |= hit

        _split(chunks, workers, route)
        return (gx,)

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
