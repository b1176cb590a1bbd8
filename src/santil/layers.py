"""Layer kinds, the three-part network builder, freezing and snapshots.

Every network here is backbone -> adjustment -> classifier. Each layer kind
is one spec dataclass that states its output shape (sizes >= 1), its
initial parameter arrays and its op; an ``ArchitectureSpec`` is checked
when it is made. Every conv centres its odd kernel on each input cell and
zero-pads, so it keeps its input's height and width. A block is a list of
(spec, parameters) pairs built against a declared input shape, with
He-uniform weights and zero biases drawn deterministically from a seed.

The ops are looked up as this module's globals when a layer runs, so a
wrapper installed on ``layers.conv2d`` (and the like) sees every call.
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
# layer kinds
#
# out_shape(shape) -> the output shape (no batch axis), or ShapeError
# init(shape, rng, dtype) -> {role: initial array}, in parameter order
# apply(x, params) -> the output, given the Parameters made from init's arrays


def _weight_and_bias(rng: np.random.Generator, weight_shape, dtype) -> dict[str, np.ndarray]:
    """He-uniform weights over the fan-in (every axis but the first), zero biases."""
    bound = math.sqrt(6.0 / math.prod(weight_shape[1:]))
    return {
        "weight": rng.uniform(-bound, bound, size=weight_shape).astype(dtype),
        "bias": np.zeros(weight_shape[0], dtype=dtype),
    }


class _Parameterless:
    def init(self, shape, rng, dtype) -> dict[str, np.ndarray]:
        return {}


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int = 3

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.out_channels < 1 or self.kernel < 1 or self.kernel % 2 == 0:
            raise ShapeError(f"conv out_channels must be positive and kernel odd and positive, got {self}")
        if len(shape) != 3:
            raise ShapeError(f"conv needs a (C,H,W) input, got {shape}")
        return (self.out_channels, *shape[1:])

    def init(self, shape, rng, dtype) -> dict[str, np.ndarray]:
        return _weight_and_bias(rng, (self.out_channels, shape[0], self.kernel, self.kernel), dtype)

    def apply(self, x: Tensor, params, relu: bool = False) -> Tensor:
        weight, bias = params
        return conv2d(x, weight, bias, relu)


@dataclass(frozen=True)
class MaxPool(_Parameterless):
    k: int = 2

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.k < 1:
            raise ShapeError(f"maxpool window must be positive, got {self}")
        if len(shape) != 3:
            raise ShapeError(f"maxpool needs a (C,H,W) input, got {shape}")
        c, h, w = shape
        if h % self.k or w % self.k:
            raise ShapeError(f"extents {h}x{w} not divisible by pool window {self.k}")
        return (c, h // self.k, w // self.k)

    def apply(self, x: Tensor, params) -> Tensor:
        return maxpool2d(x, self.k)


@dataclass(frozen=True)
class Relu(_Parameterless):
    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return shape

    def apply(self, x: Tensor, params) -> Tensor:
        return relu(x)


@dataclass(frozen=True)
class Dense:
    out_features: int

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.out_features < 1:
            raise ShapeError(f"dense out_features must be positive, got {self}")
        if len(shape) != 1:
            raise ShapeError(f"dense needs a flat input, got {shape}")
        return (self.out_features,)

    def init(self, shape, rng, dtype) -> dict[str, np.ndarray]:
        return _weight_and_bias(rng, (self.out_features, shape[0]), dtype)

    def apply(self, x: Tensor, params) -> Tensor:
        weight, bias = params
        return linear(x, weight, bias)


@dataclass(frozen=True)
class Flatten(_Parameterless):
    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(shape)),)

    def apply(self, x: Tensor, params) -> Tensor:
        return flatten(x)


LayerSpec = Union[Conv, MaxPool, Relu, Dense, Flatten]


def output_shape(specs: Sequence[LayerSpec], input_shape: Sequence[int]) -> tuple[int, ...]:
    """Type-check a stack against an input shape (no batch axis)."""
    shape = tuple(int(v) for v in input_shape)
    for i, spec in enumerate(specs):
        try:
            shape = spec.out_shape(shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {i}: {exc}") from None
    return shape


# ---------------------------------------------------------------------------
# blocks


class ModelBlock:
    """A named stack of (layer spec, parameters) pairs; one of the three network parts."""

    def __init__(self, name: str, layers, input_shape, out_shape):
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(out_shape)

    def forward(self, x: Tensor) -> Tensor:
        """The layers in order; a Conv followed by a Relu runs as one fused conv2d.

        The fused op has the pair's bits, and its tape record keeps the
        activation only, not the pre-activation as well.
        """
        layers = self.layers
        i = 0
        while i < len(layers):
            spec, params = layers[i]
            fuse = isinstance(spec, Conv) and i + 1 < len(layers) and isinstance(layers[i + 1][0], Relu)
            x = spec.apply(x, params, relu=True) if fuse else spec.apply(x, params)
            i += 2 if fuse else 1
        return x

    def parameters(self) -> list[Parameter]:
        return [p for _, params in self.layers for p in params]

    def __repr__(self) -> str:
        return f"ModelBlock({self.name!r}, {self.input_shape} -> {self.output_shape})"


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
        arrays = spec.init(shape, rng, dtype)
        layers.append((spec, tuple(Parameter(a, f"{name}.{i}.{role}") for role, a in arrays.items())))
        shape = spec.out_shape(shape)
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

    Parameters absent from the snapshot are not frozen and are skipped.
    """
    for block in blocks:
        for p in block.parameters():
            ref = snapshot.get(p.name)
            if ref is None:
                continue
            if ref.dtype != p.data.dtype or ref.shape != p.data.shape or ref.tobytes() != p.data.tobytes():
                return False, p.name
    return True, None


def model_size(blocks: Sequence[ModelBlock]) -> tuple[int, float]:
    """(total stored parameters, megabytes) under the 4-bytes-per-value convention."""
    count = sum(int(p.data.size) for block in blocks for p in block.parameters())
    return count, count * 4 / 1e6


# ---------------------------------------------------------------------------
# architecture specs and presets


@dataclass(frozen=True)
class ArchitectureSpec:
    """Backbone, adjustment, classifier; made only if the parts fit and the classifier ends in linear."""

    input_shape: tuple[int, int, int]
    backbone: tuple[LayerSpec, ...]
    adjustment: tuple[LayerSpec, ...]
    classifier: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.classifier or not isinstance(self.classifier[-1], Dense):
            raise ShapeError("classifier: must end with a linear layer")
        shape = self.input_shape
        for part in ("backbone", "adjustment", "classifier"):
            try:
                shape = output_shape(getattr(self, part), shape)
            except ShapeError as exc:
                raise ShapeError(f"{part}: {exc}") from None

    @property
    def base_classes(self) -> int:  # every head's width, shared or per task
        return self.classifier[-1].out_features


def mnist_small(input_shape=(1, 28, 28), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """One-conv backbone, one-conv adjustment, three-layer perceptron head."""
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(16, 3), Relu(), MaxPool(2)),
        adjustment=(Conv(16, adjust_kernel), Relu()),
        classifier=(Flatten(), Dense(100), Relu(), Dense(50), Relu(), Dense(base_classes)),
    )


def cifar_small(input_shape=(3, 32, 32), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """Three-conv backbone, four-conv adjustment, three-layer perceptron head."""
    adj: tuple[LayerSpec, ...] = ()
    for _ in range(4):
        adj += (Conv(64, adjust_kernel), Relu())
    adj += (MaxPool(2),)
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(32, 3), Relu(), Conv(32, 3), Relu(), Conv(64, 3), Relu(), MaxPool(2)),
        adjustment=adj,
        classifier=(Flatten(), Dense(512), Relu(), Dense(256), Relu(), Dense(base_classes)),
    )


def tiny(input_shape=(1, 8, 8), base_classes: int = 2, adjust_kernel: int = 3) -> ArchitectureSpec:
    """Small stack for synthetic-data tests and smoke runs."""
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=(Conv(6, 3), Relu(), MaxPool(2)),
        adjustment=(Conv(8, adjust_kernel), Relu()),
        classifier=(Flatten(), Dense(24), Relu(), Dense(12), Relu(), Dense(base_classes)),
    )


PRESETS = {
    "mnist-small": mnist_small,
    "cifar-small": cifar_small,
    "tiny": tiny,
}
