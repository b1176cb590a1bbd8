"""Declarative layer stacks, the three-part network builder, and head bookkeeping.

Every network here is backbone -> adjustment -> classifier. Blocks are
built from layer specs against a declared input shape, with He-uniform
weights and zero biases drawn deterministically from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    conv2d,
    flatten,
    linear,
    maxpool2d,
    relu,
)

# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1


@dataclass(frozen=True)
class MaxPool:
    k: int = 2


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Dense:
    out_features: int


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Union[Conv, MaxPool, Relu, Dense, Flatten]


def _shape_after(spec: LayerSpec, shape: tuple[int, ...], index: int) -> tuple[int, ...]:
    if isinstance(spec, Conv):
        if len(shape) != 3:
            raise ShapeError(f"layer {index}: conv needs a (C,H,W) input, got {shape}")
        c, h, w = shape
        hp, wp = h + 2 * spec.padding, w + 2 * spec.padding
        if spec.kernel > hp or spec.kernel > wp:
            raise ShapeError(
                f"layer {index}: kernel {spec.kernel} exceeds padded extent {hp}x{wp}"
            )
        ho = (hp - spec.kernel) // spec.stride + 1
        wo = (wp - spec.kernel) // spec.stride + 1
        return (spec.out_channels, ho, wo)
    if isinstance(spec, MaxPool):
        if len(shape) != 3:
            raise ShapeError(f"layer {index}: maxpool needs a (C,H,W) input, got {shape}")
        c, h, w = shape
        if h % spec.k or w % spec.k:
            raise ShapeError(
                f"layer {index}: extents {h}x{w} not divisible by pool window {spec.k}"
            )
        return (c, h // spec.k, w // spec.k)
    if isinstance(spec, Relu):
        return shape
    if isinstance(spec, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(spec, Dense):
        if len(shape) != 1:
            raise ShapeError(f"layer {index}: dense needs a flat input, got {shape}")
        return (spec.out_features,)
    raise TypeError(f"layer {index}: unknown layer spec {spec!r}")


def output_shape(specs: Sequence[LayerSpec], input_shape: Sequence[int]) -> tuple[int, ...]:
    """Type-check a stack against an input shape (no batch axis)."""
    shape = tuple(int(v) for v in input_shape)
    for i, spec in enumerate(specs):
        shape = _shape_after(spec, shape, i)
    return shape


# ---------------------------------------------------------------------------
# runtime layers and blocks


class _ConvLayer:
    def __init__(self, weight: Parameter, bias: Parameter, stride: int, padding: int):
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight.value, self.bias.value, self.stride, self.padding)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class _DenseLayer:
    def __init__(self, weight: Parameter, bias: Parameter):
        self.weight = weight
        self.bias = bias

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight.value, self.bias.value)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class _ReluLayer:
    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

    def parameters(self) -> list[Parameter]:
        return []


class _MaxPoolLayer:
    def __init__(self, k: int):
        self.k = k

    def forward(self, x: Tensor) -> Tensor:
        return maxpool2d(x, self.k)

    def parameters(self) -> list[Parameter]:
        return []


class _FlattenLayer:
    def forward(self, x: Tensor) -> Tensor:
        return flatten(x)

    def parameters(self) -> list[Parameter]:
        return []


class ModelBlock:
    """A named stack of layers plus its parameters; one of the three network parts."""

    def __init__(self, name: str, layers, input_shape, out_shape):
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(out_shape)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def __repr__(self) -> str:
        return f"ModelBlock({self.name!r}, {self.input_shape} -> {self.output_shape})"


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def build_block(
    specs: Sequence[LayerSpec],
    input_shape: Sequence[int],
    seed: int,
    name: str = "block",
    dtype=np.float32,
) -> ModelBlock:
    """Instantiate a layer stack with He-uniform weights and zero biases.

    Deterministic for a fixed seed; rejects shape-incompatible stacks with
    the offending layer index. An empty spec list is a passthrough block.
    """
    out_shape = output_shape(specs, input_shape)
    rng = np.random.default_rng(seed)
    layers = []
    shape = tuple(int(v) for v in input_shape)
    for i, spec in enumerate(specs):
        if isinstance(spec, Conv):
            cin = shape[0]
            fan_in = cin * spec.kernel * spec.kernel
            w = Parameter(
                _he_uniform(rng, (spec.out_channels, cin, spec.kernel, spec.kernel), fan_in, dtype),
                f"{name}.{i}.weight",
            )
            b = Parameter(np.zeros(spec.out_channels, dtype=dtype), f"{name}.{i}.bias")
            layers.append(_ConvLayer(w, b, spec.stride, spec.padding))
        elif isinstance(spec, Dense):
            fan_in = shape[0]
            w = Parameter(
                _he_uniform(rng, (spec.out_features, fan_in), fan_in, dtype),
                f"{name}.{i}.weight",
            )
            b = Parameter(np.zeros(spec.out_features, dtype=dtype), f"{name}.{i}.bias")
            layers.append(_DenseLayer(w, b))
        elif isinstance(spec, Relu):
            layers.append(_ReluLayer())
        elif isinstance(spec, MaxPool):
            layers.append(_MaxPoolLayer(spec.k))
        elif isinstance(spec, Flatten):
            layers.append(_FlattenLayer())
        shape = _shape_after(spec, shape, i)
    return ModelBlock(name, layers, input_shape, out_shape)


# ---------------------------------------------------------------------------
# freezing and snapshots


def freeze(block: ModelBlock) -> None:
    for p in block.parameters():
        p.frozen = True


def snapshot_block(block: ModelBlock) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in block.parameters()}


def assert_frozen(
    blocks: Sequence[ModelBlock], snapshot: dict[str, np.ndarray]
) -> tuple[bool, str | None]:
    """Bitwise comparison against a snapshot; returns (ok, first differing path).

    Parameters absent from the snapshot are not frozen and are skipped. A
    parameter widened since its snapshot (an extended classifier) is
    compared on the snapshotted slice; the appended rows are new.
    """
    for block in blocks:
        for p in block.parameters():
            ref = snapshot.get(p.name)
            if ref is None:
                continue
            cur = p.data[tuple(slice(0, n) for n in ref.shape)]
            if ref.dtype != cur.dtype or ref.shape != cur.shape or ref.tobytes() != cur.tobytes():
                return False, p.name
    return True, None


# ---------------------------------------------------------------------------
# classifier head bookkeeping


@dataclass(frozen=True)
class HeadMap:
    """Assignment of a task's classes to classifier output neurons.

    Local class i (the i-th entry of class_ids) maps to neuron neurons[i].
    ``extra_needed`` > 0 signals that the classifier must first be widened
    by that many outputs; it is a signal, not an error.
    """

    class_ids: tuple[int, ...]
    neurons: tuple[int, ...]
    extra_needed: int = 0

    def local_labels(self, labels: np.ndarray) -> np.ndarray:
        """Map dataset class ids to local indices 0..len(class_ids)-1."""
        labels = np.asarray(labels, dtype=np.int64)
        lut = np.full(max(self.class_ids) + 1, -1, dtype=np.int64)
        for i, cid in enumerate(self.class_ids):
            lut[cid] = i
        if labels.size and (labels.max() >= lut.size or (lut[labels] < 0).any()):
            bad = sorted(set(int(v) for v in labels) - set(self.class_ids))
            raise ValueError(f"labels {bad} do not belong to this task")
        return lut[labels]

    def covers_width(self, width: int) -> bool:
        """True when the map uses every neuron of a width-sized head in order."""
        return self.neurons == tuple(range(width))


def map_task_classes(task_classes: Sequence[int], base_classes: int) -> HeadMap:
    """Map local class i to neuron i, leaving surplus neurons unused.

    When the task brings more classes than the head is wide, the map
    carries an extension-required signal instead of raising.
    """
    ids = tuple(int(c) for c in task_classes)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate class ids in task: {ids}")
    n = len(ids)
    return HeadMap(ids, tuple(range(n)), extra_needed=max(0, n - int(base_classes)))


def extend_classifier(classifier: ModelBlock, extra: int, seed: int) -> ModelBlock:
    """Widen the final linear layer by ``extra`` freshly initialized rows.

    The returned block shares every earlier layer (and its parameters) with
    the input block. Original output rows keep their exact values and are
    masked out of optimizer updates; only the appended rows are trainable.
    """
    if extra < 1:
        raise ValueError("extend_classifier needs extra >= 1")
    if not classifier.layers or not isinstance(classifier.layers[-1], _DenseLayer):
        raise ShapeError("classifier must end with a linear layer to be extended")
    last = classifier.layers[-1]
    old_w = last.weight.data
    old_b = last.bias.data
    rng = np.random.default_rng(seed)
    new_rows = _he_uniform(rng, (extra, old_w.shape[1]), old_w.shape[1], old_w.dtype)
    w = np.concatenate([old_w, new_rows], axis=0)
    b = np.concatenate([old_b, np.zeros(extra, dtype=old_b.dtype)])
    wp = Parameter(w, last.weight.name)
    bp = Parameter(b, last.bias.name)
    wp.trainable_mask = np.zeros(w.shape, dtype=bool)
    wp.trainable_mask[old_w.shape[0] :] = True
    bp.trainable_mask = np.zeros(b.shape, dtype=bool)
    bp.trainable_mask[old_b.shape[0] :] = True
    layers = list(classifier.layers[:-1]) + [_DenseLayer(wp, bp)]
    return ModelBlock(classifier.name, layers, classifier.input_shape, (w.shape[0],))


def model_size(blocks: Sequence[ModelBlock]) -> tuple[int, float]:
    """(total stored parameters, megabytes) under the 4-bytes-per-value convention."""
    seen: set[int] = set()
    count = 0
    for block in blocks:
        for p in block.parameters():
            if id(p) in seen:
                continue
            seen.add(id(p))
            count += int(p.data.size)
    return count, count * 4 / 1e6


# ---------------------------------------------------------------------------
# architecture specs and presets


@dataclass(frozen=True)
class ArchitectureSpec:
    """Declarative three-part network: backbone, adjustment, classifier."""

    input_shape: tuple[int, int, int]
    backbone: tuple[LayerSpec, ...]
    adjustment: tuple[LayerSpec, ...]
    classifier: tuple[LayerSpec, ...]
    base_classes: int

    def validate(self) -> None:
        if not self.classifier or not isinstance(self.classifier[-1], Dense):
            raise ShapeError("classifier must end with a linear layer")
        if self.classifier[-1].out_features != self.base_classes:
            raise ShapeError(
                f"classifier width {self.classifier[-1].out_features} "
                f"!= base_classes {self.base_classes}"
            )
        shape = output_shape(self.backbone, self.input_shape)
        shape = output_shape(self.adjustment, shape)
        output_shape(self.classifier, shape)


def _same_pad(kernel: int) -> int:
    if kernel < 1 or kernel % 2 == 0:
        raise ShapeError(f"adjustment kernel must be odd and positive, got {kernel}")
    return (kernel - 1) // 2


def mnist_small(input_shape=(1, 28, 28), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """One-conv backbone, one-conv adjustment, three-layer perceptron head."""
    pad = _same_pad(adjust_kernel)
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(16, 3, 1, 1), Relu(), MaxPool(2)),
        adjustment=(Conv(16, adjust_kernel, 1, pad), Relu()),
        classifier=(Flatten(), Dense(100), Relu(), Dense(50), Relu(), Dense(base_classes)),
        base_classes=base_classes,
    )


def cifar_small(input_shape=(3, 32, 32), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """Three-conv backbone, four-conv adjustment, three-layer perceptron head."""
    pad = _same_pad(adjust_kernel)
    adj: tuple[LayerSpec, ...] = ()
    for _ in range(4):
        adj += (Conv(64, adjust_kernel, 1, pad), Relu())
    adj += (MaxPool(2),)
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(32, 3, 1, 1), Relu(), Conv(32, 3, 1, 1), Relu(), Conv(64, 3, 1, 1), Relu(), MaxPool(2)),
        adjustment=adj,
        classifier=(Flatten(), Dense(512), Relu(), Dense(256), Relu(), Dense(base_classes)),
        base_classes=base_classes,
    )


def tiny(input_shape=(1, 8, 8), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """Small stack for synthetic-data tests and smoke runs."""
    pad = _same_pad(adjust_kernel)
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(6, 3, 1, 1), Relu(), MaxPool(2)),
        adjustment=(Conv(8, adjust_kernel, 1, pad), Relu()),
        classifier=(Flatten(), Dense(24), Relu(), Dense(12), Relu(), Dense(base_classes)),
        base_classes=base_classes,
    )


PRESETS = {
    "mnist-small": mnist_small,
    "cifar-small": cifar_small,
    "tiny": tiny,
}
