"""Reversible per-instance, per-channel normalization of the lookback.

Statistics (population mean and std, eps under the square root) are
computed from the lookback window only, so no future value can leak into
them; predictions are denormalized with the same statistics. The optional
affine pair (gain, bias) is learnable and serializes with the model; a
model without it passes the identity, gain one and bias zero, as
constants. :func:`compute_stats` is the one definition of the
statistics: the fold path and the band path both call it.

The band path normalizes the lookback with :func:`revin_forward`, which
reads no parameter and returns it channel-major for the transform, so a
block worker can run it ahead of the train step (``model.band_prologue``);
the heads apply the affine, one ``(gain, bias)`` pair of (N,) tensors. Every
supported low-pass sums to sqrt(2) with equal even and odd halves and the
high-pass sums to zero, so the transform of a constant c is (sqrt(2)*c, 0),
and the affine of the time-domain ``gain * x_n + bias`` is
``(gain * A_n + sqrt(2) * bias, gain * D_n)`` on the bands of ``x_n``. It
commutes with a head's first layer:

  (gain * A_n + sqrt(2) * bias) @ W + b = gain * (A_n @ W) + sqrt(2) * bias (x) colsum(W) + b
  (gain * D_n) @ W + b                  = gain * (D_n @ W) + b

:func:`affine_linear` computes the right-hand sides, so the affine acts on
the (B, N, H) first-layer output, and backward forms no band-sized
gradient and no input gradient for the band. It is the one place the
affine meets the bands: M's gate diagnostics use it too. The linear
variants never transform the batch: ``model.fold`` puts the affine inside
the folded offset, and ``model.folded_forecast`` and ``model.folded_mse``
call :func:`compute_stats` on one cache-sized block of windows at a time,
in each block worker's workspace.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, add, constant, div, matmul, mul, reshape, sub
from .exceptions import DegenerateWindowError, ZeroGainError

DEFAULT_EPS = 1e-5

_SQRT2 = math.sqrt(2.0)


def compute_stats(
    values: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and (eps-stabilized, population) std over the time axis of (B, L, N),
    plus the centred values they were taken from (written into ``out`` if given).

    Two-pass: the lookback is centred once, and the variance sums the
    squares of the centred values, so large offsets cost no precision.
    """
    length = values.shape[1]
    if length < 2:
        raise DegenerateWindowError(f"need at least 2 time steps, got {length}")
    mean = values.mean(axis=1)
    centered = np.subtract(values, mean[:, None, :], out=out)
    var = np.einsum("bln,bln->bn", centered, centered) / length
    return mean, np.sqrt(var + DEFAULT_EPS), centered


def check_gain(gain: np.ndarray) -> None:
    """Reject an affine gain too close to zero to divide by."""
    if np.min(np.abs(gain)) < 1e-12:
        raise ZeroGainError("affine gain too close to zero to invert")


def revin_forward(lookback: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize a (B, L, N) lookback batch into a (B, N, L) array (``out`` if
    given, else a new one), centred in place by :func:`compute_stats` and divided
    by the std, so the lookback is never written; returns it with the (B, N) mean
    and std (eps included), the statistics :func:`revin_inverse` reads; the
    affine is applied after a head's first layer by :func:`affine_linear`."""
    normalized = np.empty(np.swapaxes(lookback, 1, 2).shape) if out is None else out
    normalized[...] = np.swapaxes(lookback, 1, 2)
    time_major = np.swapaxes(normalized, 1, 2)  # (B, L, N) view of the copy
    mean, std, _ = compute_stats(time_major, out=time_major)
    normalized /= std[..., None]
    return normalized, mean, std


def _column(param: Tensor) -> Tensor:
    return reshape(param, param.shape + (1,))  # (N, 1) broadcasts over (B, N, D)


def affine_linear(x: Tensor, weight: Tensor, bias: Tensor, affine: tuple[Tensor, Tensor], approx: bool) -> Tensor:
    """A head's first layer on the affine-mapped band: ``(gain * x + shift) @ weight + bias``.

    ``x`` is a (B, N, Din) band of a lookback normalized by :func:`revin_forward` and
    ``affine`` is RevIN's ``(gain, bias)``; the shift is ``sqrt(2) * bias`` on the
    approximation band (``approx``) and zero on the detail band. The affine is applied to the (B, N, Dout)
    output, ``gain * (x @ weight) + shift (x) colsum(weight) + bias``.
    """
    gain, affine_bias = affine
    out = mul(matmul(x, weight), _column(gain))
    if approx:
        colsum = matmul(constant(np.ones((1, weight.shape[0]))), weight)  # (1, Dout)
        bias = add(mul(_column(affine_bias), mul(colsum, constant(_SQRT2))), bias)  # (N, Dout)
    return add(out, bias)


def revin_inverse(y: Tensor, mean: np.ndarray, std: np.ndarray, affine: tuple[Tensor, Tensor]) -> Tensor:
    """Exact algebraic inverse on (B, S, N): x = (y - bias)/gain * std + mean, with
    :func:`revin_forward`'s (B, N) ``mean`` and ``std`` and the ``(gain, bias)`` pair."""
    gain, bias = affine
    check_gain(gain.data)
    out = mul(div(sub(y, bias), gain), constant(std[:, None, :]))
    return add(out, constant(mean[:, None, :]))
