"""Minimal reverse-mode automatic differentiation on numpy buffers.

A :class:`Tensor` wraps a float64 array plus an optional gradient buffer.
An operation with at least one input that needs a gradient records its
inputs and a backward closure on the result, so the implicit tape is just
the DAG of live tensors; ``backward()`` on a scalar walks it once in
reverse topological order. An operation on constants records nothing, and
a backward closure forms no gradient for an input that needs none. Only
the handful of op kinds the forecasters need exist here - dense affine
maps, the folded linear forecast (one shared matrix applied on the left
of the lookback, centred one cache-sized block of windows at a time,
plus its mean and scaled offset, as one op), ReLU, softmax, elementwise
arithmetic with broadcasting, reshapes, axis swaps, slices and
concatenation (the fused mixture-of-experts layers), the (fixed, linear)
wavelet analysis/synthesis pair, and the mean squared error (one op).

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


# Bytes of lookback one block of :func:`folded_forecast` centres at a time:
# about one L2 cache, so a block's centred values are still cached when the
# matmul reads them. A window wider than this is a block of its own.
_BLOCK_BYTES = 2 * 1024 * 1024

# ``stats(block, out=buffer)``: a lookback block's mean, std and centred
# values, the latter written into ``buffer``; ``model.forward`` passes
# ``revin.compute_stats``.
Stats = Callable[..., tuple[Array, Array, Array]]


def folded_forecast(weight: Tensor, offset: Tensor, lookback: Array, stats: Stats) -> Tensor:
    """The folded linear forecast ``weight @ (x - mean) + mean + std * offset``.

    One (S, L) matrix ``weight`` is applied to every window of the
    (B, L, N) ``lookback`` after centring it; ``offset`` is (S, N) or
    (S, 1). The batch is walked in blocks of ``_BLOCK_BYTES // (L * N * 8)``
    windows (at least one): ``stats`` centres a block into one reused
    buffer and gives its mean and std, the matmul writes that block's
    slice of the output, and the mean and then ``std * offset`` are added
    in place, one (S, N) slice at a time. Backward recentres each block
    from the lookback and the saved mean and adds ``g_b @ centred_b^T``
    window by window into one (S, L) weight gradient; the offset gradient
    is ``std * g`` summed over the batch. No batch-sized centred copy or
    product stack is formed. The lookback is data: it gets no gradient.
    """
    lookback = np.asarray(lookback, dtype=np.float64)
    if weight.ndim != 2 or lookback.ndim != 3 or lookback.shape[1] != weight.shape[1]:
        raise ShapeMismatchError(f"cannot apply a {weight.shape} weight to {lookback.shape}")
    batch, length, channels = lookback.shape
    horizon = weight.shape[0]
    if offset.ndim != 2 or offset.shape[0] != horizon or offset.shape[1] not in (1, channels):
        raise ShapeMismatchError(f"offset shape {offset.shape} does not fit ({horizon}, {channels})")
    block = max(1, _BLOCK_BYTES // (length * channels * lookback.itemsize))
    blocks = [slice(start, min(start + block, batch)) for start in range(0, batch, block)]
    # Reused by every block, so a block's buffers stay allocated and cached.
    centred = np.empty((min(block, batch), length, channels))
    scaled = np.empty((horizon, channels))
    out_data = np.empty((batch, horizon, channels))
    mean, std = np.empty((batch, channels)), np.empty((batch, channels))
    for rows in blocks:
        block_centred = centred[: rows.stop - rows.start]
        mean[rows], std[rows], _ = stats(lookback[rows], out=block_centred)
        np.matmul(weight.data, block_centred, out=out_data[rows])
        for out_b, mean_b, std_b in zip(out_data[rows], mean[rows], std[rows]):
            out_b += mean_b
            out_b += np.multiply(std_b, offset.data, out=scaled)

    def backward(g: Array) -> None:
        if weight._needs_grad():
            grad, product = np.zeros(weight.shape), np.empty(weight.shape)
            for rows in blocks:
                block_centred = centred[: rows.stop - rows.start]
                np.subtract(lookback[rows], mean[rows, None, :], out=block_centred)  # as compute_stats centres
                for g_b, centred_b in zip(g[rows], block_centred):
                    grad += np.matmul(g_b, centred_b.T, out=product)
            weight._accumulate(grad)
        if offset._needs_grad():
            offset._accumulate(_unbroadcast(g * std[:, None, :], offset.shape))

    return _record(out_data, (weight, offset), backward)


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


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis (max-subtraction)."""
    if not np.isfinite(x.data).all():
        raise NonFiniteInputError("softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g: Array) -> None:
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        x._accumulate((g - inner) * out_data)

    return _record(out_data, (x,), backward)


def mean(x: Tensor) -> Tensor:
    """Mean over all elements, as a scalar tensor."""
    size = x.data.size

    def backward(g: Array) -> None:
        x._accumulate(np.full_like(x.data, float(g) / size))

    return _record(x.data.mean(), (x,), backward)


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


def slice_lastdim(x: Tensor, start: int, stop: int | None = None) -> Tensor:
    """Keep-dims slice ``x[..., start:stop]``; ``stop`` defaults to ``start + 1``."""
    stop = start + 1 if stop is None else stop

    def backward(g: Array) -> None:
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        x._accumulate(full)

    return _record(x.data[..., start:stop], (x,), backward)


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
