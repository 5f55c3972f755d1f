"""Autograd core: op semantics, broadcasting, and gradient checks.

Finite-difference checks (the ``gradcheck`` marker, also run by ``make
gradcheck``) pin every differentiable op against central differences;
the unmarked tests pin forward semantics, dtype discipline, and the
tape's structural behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, assert_gradients_match, softmax
from repro.utils.rng import stream

_RNG = stream("test.nn.tensor")


def _t(shape, scale=1.0, offset=0.0):
    """A requires-grad tensor of smooth, kink-free values."""
    data = (_RNG.standard_normal(shape) * scale + offset).astype(np.float32)
    return Tensor(data, requires_grad=True)


# -- forward semantics -------------------------------------------------


def test_tensor_is_float32_everywhere():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.data.dtype == np.float32
    out = (t * 2.5 + 1.0).exp().sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert t.grad is None  # requires_grad defaults to False


def test_item_extracts_any_single_element_shape():
    # regression: item() on a [1, 1] tensor used to fail — it must
    # accept every single-element shape, like ndarray.item().
    assert Tensor([[3.0]]).item() == 3.0
    assert Tensor(3.0).item() == 3.0
    assert Tensor([3.0]).item() == 3.0
    assert isinstance(Tensor([[3.0]]).item(), float)
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_backward_accumulates_and_zero_on_detached():
    x = _t((3,))
    y = x * np.float32(2.0) + x * np.float32(3.0)
    y.sum().backward()
    assert np.allclose(x.grad, 5.0)


def test_backward_requires_scalar():
    x = _t((2, 2))
    with pytest.raises(ValueError):
        (x * x).backward()


def test_as_tensor_passthrough_and_wrap():
    t = _t((2,))
    assert as_tensor(t) is t
    w = as_tensor([1.0, 2.0])
    assert isinstance(w, Tensor) and not w.requires_grad


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        _t((3,)) @ _t((3,))


def test_softmax_rows_sum_to_one_and_handle_large_logits():
    x = Tensor(np.array([[1e4, 0.0, -1e4], [3.0, 2.0, 1.0]], dtype=np.float32))
    p = softmax(x, axis=-1)
    assert np.allclose(p.data.sum(axis=-1), 1.0)
    assert np.isfinite(p.data).all()
    assert p.data[0, 0] == pytest.approx(1.0)


def test_sigmoid_is_overflow_free():
    """softplus's gradient is the logistic sigmoid; at extreme inputs it
    must saturate to 0 / 1 without overflowing exp."""
    x = Tensor(np.array([-100.0, 0.0, 100.0], dtype=np.float32), requires_grad=True)
    out = x.softplus()
    out.sum().backward()
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    assert x.grad[0] == pytest.approx(0.0) and x.grad[1] == pytest.approx(0.5)
    assert x.grad[2] == pytest.approx(1.0)


def test_grad_tape_not_built_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a @ b + a
    assert not out.requires_grad and out._parents == ()


# -- gradient checks ---------------------------------------------------


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn",
    [
        ("add_broadcast", lambda a, b: (a + b.reshape(1, 3)).sum()),
        ("sub", lambda a, b: (a - b.reshape(1, 3)).mean()),
        ("mul_broadcast", lambda a, b: (a * b.reshape(1, 3)).sum()),
        ("div", lambda a, b: (a / (b.reshape(1, 3) + np.float32(4.0))).sum()),
        ("pow", lambda a, b: ((a * a + np.float32(1.0)) ** 1.5).sum() + b.sum()),
        ("neg_rsub", lambda a, b: (np.float32(1.0) - (-a)).sum() + b.sum()),
    ],
)
def test_gradcheck_arithmetic(name, fn):
    a, b = _t((2, 3)), _t((3,))
    assert_gradients_match(lambda: fn(a, b), [a, b])


@pytest.mark.gradcheck
def test_gradcheck_matmul_batched():
    a, b = _t((2, 3, 4), scale=0.5), _t((4, 5), scale=0.5)
    assert_gradients_match(lambda: ((a @ b) ** 2).mean(), [a, b])


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn",
    [
        ("sum_axis", lambda x: (x.sum(axis=0) ** 2).sum()),
        ("mean_keepdims", lambda x: ((x - x.mean(axis=1, keepdims=True)) ** 2).sum()),
        ("reshape", lambda x: (x.reshape(6) * np.float32(2.0)).sum()),
        ("transpose", lambda x: (x.transpose((1, 0)) @ x).sum()),
        ("getitem", lambda x: (x[np.array([1, 0, 1])] ** 2).sum()),
    ],
)
def test_gradcheck_shape_ops(name, fn):
    x = _t((2, 3))
    assert_gradients_match(lambda: fn(x), [x])


@pytest.mark.gradcheck
@pytest.mark.parametrize(
    "name, fn, offset",
    [
        ("exp", lambda x: x.exp().sum(), 0.0),
        # relu gradcheck needs inputs away from the kink at 0.
        ("relu", lambda x: (x.relu() * np.float32(2.0)).sum(), 3.0),
        ("softplus", lambda x: x.softplus().sum(), 0.0),
    ],
)
def test_gradcheck_elementwise(name, fn, offset):
    x = _t((3, 2), scale=0.8, offset=offset)
    assert_gradients_match(lambda: fn(x), [x])


@pytest.mark.gradcheck
def test_gradcheck_softmax():
    x = _t((2, 4), scale=0.7)
    assert_gradients_match(lambda: (softmax(x, axis=-1) ** 2).sum(), [x])
