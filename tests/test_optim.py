import numpy as np
import pytest

from santil.optim import Adam, MissingGradientError
from santil.tensor import Parameter


def make_param(value, name="p"):
    return Parameter(np.asarray(value, dtype=np.float32), name)


def test_zero_gradient_never_moves_parameter():
    p = make_param([1.5, -2.0])
    opt = Adam([p])
    before = p.data.tobytes()
    for _ in range(25):
        p.grad = np.zeros_like(p.data)
        opt.step()
    assert p.data.tobytes() == before


def test_single_step_matches_hand_computed_update():
    # m=0.1, v=0.001, mhat=vhat=1 -> update = lr / (1 + eps)
    p = make_param([0.0])
    p.grad = np.array([1.0], dtype=np.float32)
    Adam([p], lr=0.001).step()
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert abs(float(p.data[0]) - expected) < 1e-9


def test_bias_correction_across_steps_matches_reference():
    # reference Adam written out longhand, float64
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    grads = [0.3, -1.2, 0.7, 0.05]
    theta, m, v = 0.5, 0.0, 0.0
    for step, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)

    p = make_param([0.5])
    opt = Adam([p], lr=lr)
    for g in grads:
        p.grad = np.array([g], dtype=np.float32)
        opt.step()
    assert abs(float(p.data[0]) - theta) < 1e-6


def test_frozen_parameter_refused_by_name():
    # a frozen parameter gets no gradient; the engine hands Adam only trainable ones
    live, frozen = make_param([0.0], "a.weight"), make_param([[1.0, 2.0]], "b.bias")
    frozen.frozen = True
    with pytest.raises(ValueError, match=r"^Adam: parameter 'b\.bias' is frozen$"):
        Adam([live, frozen])
    assert frozen.data.tobytes() == np.array([[1.0, 2.0]], dtype=np.float32).tobytes()


def test_missing_gradient_rejected():
    p = make_param([1.0])
    with pytest.raises(MissingGradientError, match="p"):
        Adam([p]).step()


def test_step_count_strictly_increases():
    p = make_param([0.0])
    opt = Adam([p])
    counts = []
    for _ in range(3):
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        counts.append(opt.step_count)
    assert counts == [1, 2, 3]


def test_zero_grad_clears_gradients():
    p = make_param([0.0])
    p.grad = np.array([1.0], dtype=np.float32)
    opt = Adam([p])
    opt.zero_grad()
    assert p.grad is None
