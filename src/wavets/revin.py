"""Reversible per-instance, per-channel normalization, applied to wavelet bands.

Statistics (population mean and std, eps under the square root) are
computed from the lookback window only, so no future value can leak into
them; predictions are denormalized with the same statistics. The optional
affine pair (gain, bias) is learnable and serializes with the model.

The forward pass works on the one-level orthonormal periodic DWT of the
lookback rather than on the lookback itself. Every supported low-pass sums
to sqrt(2) with equal even and odd halves and the high-pass sums to zero,
so the transform of a constant c is (sqrt(2)*c, 0), and Parseval gives the
statistics from the bands alone:

  mean = sqrt(2) * sum(A) / L
  var  = (sum((A - sqrt(2)*mean)^2) + sum(D^2)) / L

(the two-pass form: the mean is taken out before squaring).
:func:`revin_forward` returns the normalized bands as constants and leaves
the per-channel affine to the heads. The affine of the time-domain
``gain * x_n + bias`` is ``(gain * A_n + sqrt(2) * bias, gain * D_n)`` on
the bands, and it commutes with a head's first layer:

  (gain * A_n + sqrt(2) * bias) @ W + b = gain * (A_n @ W) + sqrt(2) * bias (x) colsum(W) + b
  (gain * D_n) @ W + b                  = gain * (D_n @ W) + b

:func:`affine_linear` computes the right-hand sides, so the affine acts on
the (B, N, H) first-layer output, and backward forms no band-sized
gradient and no input gradient for the band. :func:`compute_stats` keeps
the time-domain definition. The linear variants train and forecast
through ``model.fold``, which never transforms the batch:
``autodiff.folded_forecast`` calls :func:`compute_stats` on one
cache-sized block of lookback windows at a time, with a reused buffer
for the centred values, and the affine sits inside the folded offset.
So only the band path (M, an MLP low-pass head, a per-channel delta)
calls :func:`revin_forward` and :func:`revin_inverse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, constant, div, linear, matmul, mul, reshape, sub
from .exceptions import DegenerateWindowError, ZeroGainError

DEFAULT_EPS = 1e-5

_SQRT2 = math.sqrt(2.0)


@dataclass
class RevinState:
    """Per-(instance, channel) statistics captured by a forward pass."""

    mean: np.ndarray  # (B, N)
    std: np.ndarray   # (B, N); already includes eps under the sqrt
    gain: Tensor | None
    bias: Tensor | None


def compute_stats(
    values: np.ndarray, eps: float = DEFAULT_EPS, out: np.ndarray | None = None
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
    return mean, np.sqrt(var + eps), centered


def check_gain(gain: np.ndarray) -> None:
    """Reject an affine gain too close to zero to divide by."""
    if np.min(np.abs(gain)) < 1e-12:
        raise ZeroGainError("affine gain too close to zero to invert")


def revin_forward(
    bands: tuple[Tensor | np.ndarray, Tensor | np.ndarray],
    gain: Tensor | None = None,
    bias: Tensor | None = None,
    eps: float = DEFAULT_EPS,
) -> tuple[tuple[Tensor, Tensor], RevinState]:
    """Normalize the (approx, detail) bands, each (B, N, L/2), of a lookback.

    Returns the normalized bands as constants and the state: the
    time-domain statistics plus the affine, which :func:`affine_linear`
    applies after a head's first layer and :func:`revin_inverse` undoes.
    """
    approx, detail = (b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64) for b in bands)
    length = 2 * approx.shape[-1]
    if length < 2:
        raise DegenerateWindowError(f"need at least 2 time steps, got {length}")
    mean = _SQRT2 * approx.sum(axis=-1) / length
    centered = approx - _SQRT2 * mean[..., None]
    var = (np.square(centered).sum(axis=-1) + np.square(detail).sum(axis=-1)) / length
    std = np.sqrt(var + eps)
    bands_n = constant(centered / std[..., None]), constant(detail / std[..., None])
    return bands_n, RevinState(mean=mean, std=std, gain=gain, bias=bias)


def _column(param: Tensor) -> Tensor:
    return reshape(param, param.shape + (1,))  # (N, 1) broadcasts over (B, N, D)


def affine_linear(x: Tensor, weight: Tensor, bias: Tensor, state: RevinState, approx: bool) -> Tensor:
    """A head's first layer on the affine-mapped band: ``(gain * x + shift) @ weight + bias``.

    ``x`` is a normalized (B, N, Din) band from :func:`revin_forward`; the
    shift is ``sqrt(2) * bias`` on the approximation band (``approx``) and
    zero on the detail band. The affine is applied to the (B, N, Dout)
    output, ``gain * (x @ weight) + shift (x) colsum(weight) + bias``.
    Without the affine this is :func:`linear`.
    """
    if state.gain is None and state.bias is None:
        return linear(x, weight, bias)
    out = matmul(x, weight)
    if state.gain is not None:
        out = mul(out, _column(state.gain))
    if approx and state.bias is not None:
        colsum = matmul(constant(np.ones((1, weight.shape[0]))), weight)  # (1, Dout)
        bias = add(mul(_column(state.bias), mul(colsum, constant(_SQRT2))), bias)  # (N, Dout)
    return add(out, bias)


def affine_approx(approx: np.ndarray, state: RevinState) -> np.ndarray:
    """The affine-mapped approximation band ``gain * A_n + sqrt(2) * bias`` as an
    array: the band whose first layer :func:`affine_linear` computes."""
    if state.gain is not None:
        approx = approx * state.gain.data[:, None]
    if state.bias is not None:
        approx = approx + state.bias.data[:, None] * _SQRT2
    return approx


def revin_inverse(y: Tensor | np.ndarray, state: RevinState) -> Tensor:
    """Exact algebraic inverse on (B, S, N): x = (y - bias)/gain * std + mean."""
    out = y if isinstance(y, Tensor) else constant(y)
    if state.bias is not None:
        out = sub(out, state.bias)
    if state.gain is not None:
        check_gain(state.gain.data)
        out = div(out, state.gain)
    out = mul(out, constant(state.std[:, None, :]))
    return add(out, constant(state.mean[:, None, :]))
