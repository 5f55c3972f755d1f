"""Reverse-mode autograd over float32 ndarrays (DESIGN.md §3).

The PyTorch substitute's core: a :class:`Tensor` wraps one
``np.float32`` ndarray and records, per operation, a backward closure
plus its parent tensors.  ``backward()`` topologically sorts the tape
and accumulates gradients into every ``requires_grad`` leaf.  The op
set is exactly what the TLP model (Fig. 7) and its losses need —
broadcasted arithmetic, batched matmul, reductions, shape moves,
indexed gather, and the stable nonlinearities — each with an analytic
gradient that the finite-difference checks in ``repro.nn.gradcheck``
pin to < 1e-3 relative error.

Everything stays float32 end to end (DESIGN.md §7, enforced by
lint rule SC103); gradients are plain ndarrays, not tensors, so the
tape never grows through optimizer steps.

Inference never builds a tape: ``TLPModel.predict`` and
``MTLTLPModel.predict`` run the fused ndarray kernels of
:mod:`repro.nn.functional` instead.  So there is no grad-mode switch
here: an op records its tape exactly when a parent requires grad.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

TensorLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _f32(value: object) -> np.ndarray:
    return np.asarray(value, dtype=np.float32)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad


def as_tensor(value: TensorLike) -> "Tensor":
    """Wrap ``value`` as a constant (non-grad) tensor if it isn't one."""
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    """A float32 ndarray with a reverse-mode autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: TensorLike, requires_grad: bool = False):
        self.data = _f32(data.data if isinstance(data, Tensor) else data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        # reshape(()) keeps this exact on any size-1 array of any ndim;
        # float() on an ndim > 0 array is deprecated on modern numpy.
        return self.data.reshape(()).item()

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    # -- tape ------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = _f32(grad).copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor to every reachable leaf."""
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def _track(self, data: np.ndarray, parents: Sequence["Tensor"],
               backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- broadcasted arithmetic ------------------------------------------

    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(g, other.data.shape))

        return self._track(self.data + other.data, (self, other), backward)

    def __radd__(self, other: TensorLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(-g, other.data.shape))

        return self._track(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return self._track(self.data * other.data, (self, other), backward)

    def __rmul__(self, other: TensorLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
            )

        return self._track(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return self._track(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = self.data ** np.float32(exponent)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** np.float32(exponent - 1.0))

        return self._track(out_data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul needs operands with ndim >= 2")

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape))
            other._accumulate(_unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape))

        return self._track(self.data @ other.data, (self, other), backward)

    # -- reductions ------------------------------------------------------

    def _expand_reduced(self, g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
        if axis is None:
            return np.broadcast_to(g, self.data.shape)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        if not keepdims:
            for a in sorted(a % self.data.ndim for a in axes):
                g = np.expand_dims(g, a)
        return np.broadcast_to(g, self.data.shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(self._expand_reduced(g, axis, keepdims))

        return self._track(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else (
            np.prod([self.data.shape[a] for a in
                     ((axis,) if isinstance(axis, int) else tuple(axis))])
        )
        inv = np.float32(1.0 / float(count))

        def backward(g: np.ndarray) -> None:
            self._accumulate(self._expand_reduced(g, axis, keepdims) * inv)

        return self._track(
            self.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32), (self,), backward
        )

    # -- shape moves -----------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.data.shape))

        return self._track(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return self._track(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad)

        return self._track(self.data[index], (self,), backward)

    # -- nonlinearities --------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return self._track(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        positive = self.data > 0

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * positive)

        return self._track(np.where(positive, self.data, np.float32(0.0)), (self,), backward)

    def softplus(self) -> "Tensor":
        # Stable log(1 + exp(x)): max(x, 0) + log1p(exp(-|x|)).
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * _sigmoid(self.data))

        return self._track(_f32(out_data), (self,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic on float32 arrays."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, max-shifted for stability.

    The shift is a detached constant: softmax is invariant to it, so the
    gradient is exact without differentiating through the max.
    """
    shifted = x - x.data.max(axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


__all__ = ["Tensor", "TensorLike", "as_tensor", "softmax"]
