"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import ShapeError, Tape, Tensor, backward


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``f`` maps the given tensors to a scalar tensor. Inputs must be
    C-contiguous float64 with requires_grad set; each coordinate is bumped
    by +/- eps and the numeric derivative (f(x+eps) - f(x-eps)) / (2 eps)
    is compared against the analytic gradient using the denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    inputs = list(inputs)
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        if not t.requires_grad:
            raise ValueError("grad_check inputs must have requires_grad=True")
        if not t.data.flags["C_CONTIGUOUS"]:
            raise ValueError("grad_check inputs must be C-contiguous")
        t.grad = None

    with Tape():
        out = f(*inputs)
        if out.data.size != 1:
            raise ShapeError(f"grad_check needs a scalar-valued function, got shape {out.data.shape}")
        backward(out)

    worst = 0.0
    for t in inputs:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = float(flat[i])
            flat[i] = orig + eps
            fp = float(f(*inputs).data)
            flat[i] = orig - eps
            fm = float(f(*inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = float(aflat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
    return worst


def _away_from_zero(arr: np.ndarray, margin: float = 0.05) -> np.ndarray:
    # keep kinked ops (relu, maxpool ties) off their non-smooth points
    return arr + margin * np.sign(arr) + (arr == 0) * margin


def gradient_suite(instances: int = 20, seed: int = 0) -> dict[str, float]:
    """Max relative gradient error per differentiable op over random cases.

    Shared by the test suite and the `grad-check` CLI subcommand. Every op
    is exercised `instances` times at float64; the composed three-part
    network runs once per call, first with every part trainable, then with
    the backbone and classifier frozen as in SAN's later tasks.
    """
    from . import tensor as T
    from .layers import Conv, Dense, Flatten, MaxPool, Relu, build_block, freeze

    rng = np.random.default_rng(seed)

    def t64(arr):
        return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)

    worst: dict[str, float] = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(instances):
        x = t64(_away_from_zero(rng.normal(size=(4, 5))))
        track("relu", grad_check(lambda a: T.tsum(T.relu(a)), [x]))

        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(3, 4)))
        track("add", grad_check(lambda u, v: T.tsum(T.add(u, v)), [a, b]))
        track("mul", grad_check(lambda u, v: T.tsum(T.mul(u, v)), [t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(3, 4)))]))
        track("scale", grad_check(lambda u: T.tsum(T.scale(u, 1.7)), [t64(rng.normal(size=(3, 4)))]))
        track("sum", grad_check(lambda u: T.tsum(u), [t64(rng.normal(size=(2, 3, 2)))]))
        track(
            "reshape",
            grad_check(lambda u: T.tsum(T.relu(T.reshape(u, (6, 2)))), [t64(_away_from_zero(rng.normal(size=(3, 4))))]),
        )
        track(
            "flatten",
            grad_check(lambda u: T.tsum(T.relu(T.flatten(u))), [t64(_away_from_zero(rng.normal(size=(2, 2, 3))))]),
        )
        track(
            "select_columns",
            grad_check(lambda u: T.tsum(T.select_columns(u, [3, 0, 2])), [t64(rng.normal(size=(3, 5)))]),
        )
        track(
            "slice_rows",
            grad_check(lambda u: T.tsum(T.slice_rows(u, 1, 3)), [t64(rng.normal(size=(4, 3)))]),
        )

        xl = t64(rng.normal(size=(3, 5)))
        wl = t64(rng.normal(size=(4, 5)) * 0.5)
        bl = t64(rng.normal(size=4) * 0.5)
        track(
            "linear",
            grad_check(lambda xx, ww, bb: T.tsum(T.relu(T.linear(xx, ww, bb))), [xl, wl, bl]),
        )

        stride, padding = (1, 1) if rng.random() < 0.5 else (2, 0)
        xc = t64(rng.normal(size=(2, 2, 5, 5)))
        wc = t64(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        bc = t64(rng.normal(size=3) * 0.5)
        track(
            "conv2d",
            grad_check(
                lambda xx, ww, bb: T.tsum(T.conv2d(xx, ww, bb, stride, padding)), [xc, wc, bc]
            ),
        )

        xm = t64(rng.normal(size=(2, 2, 4, 4)))
        track("maxpool2d", grad_check(lambda u: T.tsum(T.maxpool2d(u, 2)), [xm]))

        zl = t64(rng.normal(size=(4, 6)))
        labels = rng.integers(0, 6, size=4)
        track(
            "softmax_cross_entropy",
            grad_check(lambda zz: T.softmax_cross_entropy(zz, labels), [zl]),
        )

        am = t64(rng.normal(size=(4, 4)) * 0.5)
        track("orthogonality_penalty", grad_check(T.orthogonality_penalty, [am]))

    # composed graph: 1-conv backbone, 1-conv adjustment, 3-layer classifier
    backbone = build_block((Conv(2, 3, 1, 1), Relu(), MaxPool(2)), (1, 8, 8), 11, "gb", dtype=np.float64)
    adjust = build_block((Conv(2, 3, 1, 1), Relu()), backbone.output_shape, 12, "ga", dtype=np.float64)
    classifier = build_block(
        (Flatten(), Dense(8), Relu(), Dense(4), Relu(), Dense(2)),
        adjust.output_shape,
        13,
        "gc",
        dtype=np.float64,
    )
    x_in = t64(rng.uniform(0.1, 0.9, size=(2, 1, 8, 8)))
    labels = np.array([0, 1])
    net_params = [
        p.value for blk in (backbone, adjust, classifier) for p in blk.parameters()
    ]

    def composed(*_):
        logits = classifier.forward(adjust.forward(backbone.forward(x_in)))
        return T.softmax_cross_entropy(logits, labels)

    worst["composed_network"] = grad_check(composed, [x_in] + net_params)

    # SAN's later tasks: B and C frozen, the input a constant. Only F's path
    # is recorded, so C's linears compute input gradients alone and F's conv
    # skips its input gradient.
    ends = backbone.parameters() + classifier.parameters()
    freeze(backbone)
    freeze(classifier)
    x_in.requires_grad = False
    for p in ends:
        p.value.grad = None
    worst["composed_frozen_ends"] = grad_check(composed, [p.value for p in adjust.parameters()])
    stale = [p.name for p in ends if p.grad is not None]
    if stale:
        raise RuntimeError(f"frozen parameters received gradients: {stale}")
    return worst
