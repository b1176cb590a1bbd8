import numpy as np
import pytest

from santil.gradcheck import grad_check, gradient_suite
from santil.tensor import ShapeError, Tensor, mul, orthogonality_penalty, scale, tsum


def f64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def test_sum_of_squares_is_nearly_exact():
    x = f64(np.random.default_rng(0).normal(size=(3, 4)))
    err = grad_check(lambda v: tsum(mul(v, v)), [x])
    assert err <= 1e-7


def test_orthogonality_penalty_within_1e5():
    a = f64(np.random.default_rng(1).normal(size=(4, 4)) * 0.5)
    assert grad_check(orthogonality_penalty, [a]) <= 1e-5


def test_every_op_below_1e4_over_20_instances():
    errors = gradient_suite(instances=20, seed=0)
    assert len(errors) >= 14
    for name, err in errors.items():
        assert err <= 1e-4, f"{name} gradient error {err:.3e}"


def test_composed_network_below_1e4():
    errors = gradient_suite(instances=1, seed=3)
    assert errors["composed_network"] <= 1e-4
    assert errors["composed_frozen_ends"] <= 1e-4


def test_eps_bounds_enforced():
    x = f64(np.ones(3))
    with pytest.raises(ValueError):
        grad_check(tsum, [x], eps=1e-7)
    with pytest.raises(ValueError):
        grad_check(tsum, [x], eps=1e-2)


def test_float32_inputs_rejected():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(tsum, [x])


def test_non_scalar_function_rejected():
    x = f64(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        grad_check(lambda v: scale(v, 2.0), [x])
