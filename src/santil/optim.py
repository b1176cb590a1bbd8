"""Bias-corrected Adam, aware of parameter freezing.

Frozen parameters are constants to the tape and get no gradient, so Adam
skips them. A masked parameter (an extended classifier) keeps its full
gradient; Adam zeroes it outside the mask before the update.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter


class MissingGradientError(RuntimeError):
    """A trainable parameter reached step() without a gradient."""


class Adam(object):
    """Adam over a fixed parameter list.

    Frozen parameters are skipped entirely and never get moment buffers.
    A parameter with a trainable_mask has its gradient zeroed outside the
    mask, so masked entries keep moments at zero and values bit-identical.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        # update = lr * (m/bc1) / (sqrt(v/bc2) + eps), folded to reuse buffers
        step_size = self.lr * (bc2**0.5) / bc1
        denom_eps = self.eps * (bc2**0.5)
        for p in self.params:
            if p.frozen:
                continue
            g = p.grad
            if g is None:
                raise MissingGradientError(f"no gradient for trainable parameter '{p.name}'")
            if p.trainable_mask is not None:
                g = np.where(p.trainable_mask, g, 0)
            key = id(p)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self._m[key] = m
                self._v[key] = v
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v)
            denom += denom_eps
            np.divide(m, denom, out=denom)
            denom *= step_size
            p.data -= denom

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
