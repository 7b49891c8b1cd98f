"""Minimal reverse-mode automatic differentiation on numpy buffers.

A :class:`Tensor` wraps a float64 array plus an optional gradient buffer.
An operation with at least one input that needs a gradient records its
inputs and a backward closure on the result, so the implicit tape is just
the DAG of live tensors; ``backward()`` on a scalar walks it once in
reverse topological order. An operation on constants records nothing, and
a backward closure forms no gradient for an input that needs none. Only
the handful of op kinds the forecasters need exist here - dense affine
maps, ReLU, elementwise arithmetic with broadcasting, reshapes, axis
swaps and concatenation, the softmax-gated mixture of experts after its
fused first layer (:func:`mixture`, one op), the (fixed, linear) wavelet
analysis/synthesis pair, the mean squared error (one op), and a scalar
whose gradients were summed outside the tape (:func:`presummed`: the
linear variants' train step, whose block loop lives in ``model``).

Gradients accumulate by addition so shared subexpressions are handled.
The first gradient a tensor receives is kept as handed over, and a later
one is added into a new array, so a buffer the closures share is never
written. The tape is single-threaded per forward/backward pass, while
distinct model instances may run concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import wavelet
from .exceptions import NonFiniteInputError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A float64 array with an optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[Array], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def _accumulate(self, g: Array) -> None:
        # Kept without a copy and never added to in place: closures may hand
        # one buffer, or views of it, to several tensors.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar result, accumulating into ``.grad``."""
        if self.data.size != 1:
            raise ShapeMismatchError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A tensor outside the tape (no gradient ever flows into it)."""
    return Tensor(data)


def _record(data, parents: tuple[Tensor, ...], backward: Callable[[Array], None]) -> Tensor:
    """An op's result: on the tape only if some input needs a gradient."""
    for p in parents:
        if p.requires_grad or p._parents:
            return Tensor(data, _parents=parents, _backward=backward)
    return Tensor(data)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g: Array) -> None:
        if a._needs_grad():
            a._accumulate(_unbroadcast(g, a.shape))
        if b._needs_grad():
            b._accumulate(_unbroadcast(g, b.shape))

    return _record(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g: Array) -> None:
        if a._needs_grad():
            a._accumulate(_unbroadcast(g, a.shape))
        if b._needs_grad():
            b._accumulate(_unbroadcast(-g, b.shape))

    return _record(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g: Array) -> None:
        if a._needs_grad():
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b._needs_grad():
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _record(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g: Array) -> None:
        if a._needs_grad():
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b._needs_grad():
            b._accumulate(_unbroadcast(-g * out_data / b.data, b.shape))

    return _record(out_data, (a, b), backward)


def matmul(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w`` with ``x`` of shape (..., Din) and ``w`` of shape (Din, Dout).

    The leading axes of ``x`` are flattened, so a batch runs as one
    (rows, Din) product rather than as one product per leading index.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"cannot matmul {x.shape} with {w.shape}")
    flat_x = x.data.reshape(-1, x.shape[-1])
    out_data = (flat_x @ w.data).reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g: Array) -> None:
        flat_g = g.reshape(-1, w.shape[1])
        if x._needs_grad():
            x._accumulate((flat_g @ w.data.T).reshape(x.shape))
        if w._needs_grad():
            w._accumulate(flat_x.T @ flat_g)

    return _record(out_data, (x, w), backward)


def presummed(value: float, inputs: tuple[Tensor, ...], grads: tuple[Array, ...]) -> Tensor:
    """A scalar ``value`` whose gradients with respect to ``inputs`` were
    summed outside the tape into ``grads`` (one array of each input's
    shape), as one op: backward adds ``g * grad`` to each input that needs one."""

    def backward(g: Array) -> None:
        for t, grad in zip(inputs, grads):
            if t._needs_grad():
                t._accumulate(g * grad)

    return _record(value, inputs, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` broadcast over leading axes."""
    if bias.shape != (weight.shape[-1],):
        raise ShapeMismatchError(f"bias shape {bias.shape} does not match {weight.shape}")
    return add(matmul(x, weight), bias)


def relu(x: Tensor) -> Tensor:
    if not np.isfinite(x.data).all():
        raise NonFiniteInputError("relu input contains non-finite values")
    mask = x.data > 0

    def backward(g: Array) -> None:
        x._accumulate(g * mask)

    return _record(np.where(mask, x.data, 0.0), (x,), backward)


def _softmax(logits: Array) -> Array:
    """Row-stable softmax over the last axis (max-subtraction): the mixture's gate."""
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def mixture(pre: Tensor, w2: Tensor, b2: Tensor, num: int) -> Tensor:
    """``num`` gated two-layer experts after their fused first layer's output
    ``pre`` (..., E + E*H), as one op: the gate ``p`` is the softmax of the
    first E columns, the units ``h`` (..., E, H) the ReLU of the rest, and
    the output ``(p * h) @ w2 + p @ B`` for the stacked second-layer weights
    ``w2`` (E*H, S) and the joined biases ``b2`` (E*S,) as ``B`` (E, S).
    Backward, with ``d = g @ w2^T`` as (..., E, H): ``dw2 = (p * h)^T g``,
    ``dB = p^T g``, ``dh = p * d`` where ``h > 0``, ``dp = sum_H(d * h) +
    g @ B^T`` and ``dlogits = (dp - sum_E(dp * p)) * p``.
    """
    hidden, out_dim = w2.shape[0] // num, w2.shape[1]
    if pre.shape[-1] != num * (1 + hidden) or w2.shape[0] != num * hidden or b2.shape != (num * out_dim,):
        raise ShapeMismatchError(f"cannot mix {pre.shape} with {w2.shape} and {b2.shape} over {num} experts")
    if not np.isfinite(pre.data).all():
        raise NonFiniteInputError("mixture input contains non-finite values")
    flat_probs, bias = _softmax(pre.data[..., :num]).reshape(-1, num), b2.data.reshape(num, out_dim)
    mask = (pre.data[..., num:] > 0).reshape(-1, num, hidden)
    units = np.where(mask, pre.data[..., num:].reshape(mask.shape), 0.0)
    scaled = (units * flat_probs[..., None]).reshape(-1, num * hidden)
    out_data = (scaled @ w2.data + flat_probs @ bias).reshape(pre.shape[:-1] + (out_dim,))

    def backward(g: Array) -> None:
        flat_g = g.reshape(-1, out_dim)
        if w2._needs_grad():
            w2._accumulate(scaled.T @ flat_g)
        if b2._needs_grad():
            b2._accumulate((flat_probs.T @ flat_g).reshape(b2.shape))
        if pre._needs_grad():
            d_units = (flat_g @ w2.data.T).reshape(units.shape)
            d_probs = (d_units * units).sum(axis=-1) + flat_g @ bias.T
            grad = np.empty((len(flat_g), pre.shape[-1]))
            grad[:, :num] = (d_probs - (d_probs * flat_probs).sum(axis=-1, keepdims=True)) * flat_probs
            grad[:, num:] = (d_units * flat_probs[..., None] * mask).reshape(len(flat_g), -1)
            pre._accumulate(grad.reshape(pre.shape))

    return _record(out_data, (pre, w2, b2), backward)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences as one op; gradient is 2*(pred-target)/count.

    The difference is formed once, and backward scales it in one pass.
    """
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred.data - target.data

    def backward(g: Array) -> None:
        scaled = diff * (2.0 * float(g) / diff.size)
        if pred._needs_grad():
            pred._accumulate(scaled)
        if target._needs_grad():
            target._accumulate(-scaled)

    return _record(np.square(diff).mean(), (pred, target), backward)


def swap_last2(x: Tensor) -> Tensor:
    """Transpose the trailing two axes."""
    if x.ndim < 2:
        raise ShapeMismatchError("need at least 2 axes to swap")

    def backward(g: Array) -> None:
        x._accumulate(np.swapaxes(g, -1, -2))

    return _record(np.swapaxes(x.data, -1, -2), (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x`` with a new shape of the same size, e.g. (N,) -> (N, 1) to broadcast per row."""

    def backward(g: Array) -> None:
        x._accumulate(g.reshape(x.shape))

    return _record(x.data.reshape(shape), (x,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Join tensors along ``axis``; each input's gradient is its slice of the result's."""
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g: Array) -> None:
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            if t._needs_grad():
                t._accumulate(part)

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def dwt_pair(x: Tensor, bank: wavelet.FilterBank) -> tuple[Tensor, Tensor]:
    """Differentiable one-level analysis on the last axis.

    The transform is orthogonal, so the vector-Jacobian product of each
    band is the synthesis of that band alone.
    """
    approx_data, detail_data = wavelet.dwt_arrays(x.data, bank)

    def backward_approx(g: Array) -> None:
        x._accumulate(wavelet.synthesize_band(g, bank.low_pass))

    def backward_detail(g: Array) -> None:
        x._accumulate(wavelet.synthesize_band(g, bank.high_pass))

    return _record(approx_data, (x,), backward_approx), _record(detail_data, (x,), backward_detail)


def idwt_pair(approx: Tensor, detail: Tensor, bank: wavelet.FilterBank) -> Tensor:
    """Differentiable one-level synthesis; adjoint of :func:`dwt_pair`."""
    out_data = wavelet.idwt_arrays(approx.data, detail.data, bank)

    def backward(g: Array) -> None:
        g_approx, g_detail = wavelet.dwt_arrays(g, bank)
        if approx._needs_grad():
            approx._accumulate(g_approx)
        if detail._needs_grad():
            detail._accumulate(g_detail)

    return _record(out_data, (approx, detail), backward)
