"""Single- and multi-level orthonormal discrete wavelet transforms.

One decomposition level splits a length-L signal into a half-length
approximation (low-frequency) band and a detail (high-frequency) band by
correlating the signal with a paired low/high-pass filter at stride 2.
Periodic (circular) extension keeps every band at exactly L/2 samples for
all supported filter lengths, which in turn makes the transform an
orthogonal map: perfect reconstruction and per-row energy conservation
hold to float64 precision.

Conventions (frozen):
  * approx[n] = sum_k g[k] * x[(2n + k) mod L]
  * detail[n] = sum_k h[k] * x[(2n + k) mod L]
  * h[k] = (-1)^k * g[K-1-k]   (quadrature mirror of the low-pass)
  * Haar low-pass is [a, a] with a = 1/sqrt(2), so detail[n] is
    a*(x[2n] - x[2n+1]).

All functions are pure and operate on the last axis of arbitrarily
batched float64 arrays; they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DepthTooLargeError,
    FilterTooLongError,
    InvalidConfigError,
    OddLengthError,
    ShapeMismatchError,
)

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT7 = math.sqrt(7.0)


@dataclass(frozen=True)
class FilterBank:
    """An orthonormal analysis filter pair.

    ``low_pass`` and ``high_pass`` have the same even length K, unit
    energy, and satisfy the quadrature-mirror relation; the high-pass
    sums to zero (it annihilates constants).
    """

    name: str
    low_pass: np.ndarray
    high_pass: np.ndarray

    @property
    def length(self) -> int:
        return len(self.low_pass)

    @classmethod
    def from_low_pass(cls, name: str, low_pass: np.ndarray) -> "FilterBank":
        """Derive the high-pass by the quadrature-mirror rule h[k] = (-1)^k g[K-1-k]."""
        g = np.asarray(low_pass, dtype=np.float64)
        signs = np.where(np.arange(len(g)) % 2 == 0, 1.0, -1.0)
        h = signs * g[::-1]
        g.setflags(write=False)
        h.setflags(write=False)
        return cls(name=name, low_pass=g, high_pass=h)


def _haar_low_pass() -> np.ndarray:
    a = 1.0 / _SQRT2
    return np.array([a, a])


def _d4_low_pass() -> np.ndarray:
    # Daubechies 4-tap scaling filter, exact radicals.
    return np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2)


def _sym4_low_pass() -> np.ndarray:
    # Least-asymmetric 8-tap scaling filter. No compact radical form exists;
    # these are correctly rounded doubles from a 60-digit spectral
    # factorization (commonly printed tables are only ~1e-13 accurate, which
    # breaks machine-precision constant annihilation).
    return np.array(
        [
            0.032223100604051466,
            -0.012603967262031304,
            -0.099219543576633530,
            0.297857795605306060,
            0.803738751805132100,
            0.497618667632775000,
            -0.029635527646002493,
            -0.075765714789502210,
        ]
    )


def _coif1_low_pass() -> np.ndarray:
    # Coiflet 6-tap scaling filter, exact radicals.
    return (_SQRT2 / 32.0) * np.array(
        [
            1.0 - _SQRT7,
            5.0 + _SQRT7,
            14.0 + 2.0 * _SQRT7,
            14.0 - 2.0 * _SQRT7,
            1.0 - _SQRT7,
            -3.0 + _SQRT7,
        ]
    )


FILTER_BANKS: dict[str, FilterBank] = {
    "haar": FilterBank.from_low_pass("haar", _haar_low_pass()),
    "d4": FilterBank.from_low_pass("d4", _d4_low_pass()),
    "sym4": FilterBank.from_low_pass("sym4", _sym4_low_pass()),
    "coif1": FilterBank.from_low_pass("coif1", _coif1_low_pass()),
}

BANK_NAMES = tuple(FILTER_BANKS)


def get_bank(name: str | FilterBank) -> FilterBank:
    """Look a bank up by name (case-insensitive); passes FilterBank through."""
    if isinstance(name, FilterBank):
        return name
    try:
        return FILTER_BANKS[name.lower()]
    except KeyError:
        raise InvalidConfigError(
            f"unknown filter bank {name!r}; choose from {', '.join(BANK_NAMES)}"
        ) from None


def dwt_arrays(x: np.ndarray, bank: str | FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level on the last axis; returns (approx, detail) arrays."""
    bank = get_bank(bank)
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[-1]
    taps = bank.length
    if length % 2:
        raise OddLengthError(f"signal length {length} is odd")
    if taps > length:
        raise FilterTooLongError(f"filter has {taps} taps but signal only {length} samples")
    windows = np.lib.stride_tricks.sliding_window_view(x, taps, axis=-1)[..., ::2, :]
    if taps == 2:
        return windows @ bank.low_pass, windows @ bank.high_pass
    # Periodic extension: the last (K-2)/2 windows reach K-2 samples past the end. They and
    # the one before are read from a tail (the last K samples, then the first K-2), so the
    # signal is never copied. No part is one window: numpy sums a one-row matmul otherwise.
    inner = (length - taps) // 2
    inner *= inner > 1
    tail = np.concatenate([x[..., 2 * inner :], x[..., : taps - 2]], axis=-1)
    parts = windows[..., :inner, :], np.lib.stride_tricks.sliding_window_view(tail, taps, axis=-1)[..., ::2, :]
    bands = np.empty(x.shape[:-1] + (length // 2,)), np.empty(x.shape[:-1] + (length // 2,))
    for band, filt in zip(bands, (bank.low_pass, bank.high_pass)):
        np.matmul(parts[0], filt, out=band[..., :inner])
        np.matmul(parts[1], filt, out=band[..., inner:])
    return bands


def synthesize_band(coeffs: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Upsample-and-filter one coefficient band back to full length.

    Tap k scatters coefficient n to position (2n + k) mod L, i.e. the
    parity-(k % 2) slots rolled by k // 2. The roll is two slice adds, so
    the fixed cost stays small on the (S, L/2) head weights of the fold.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    half = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (2 * half,))
    for k in range(len(taps)):
        slots, shift = out[..., k % 2 :: 2], k // 2 % max(half, 1)
        slots[..., shift:] += coeffs[..., : half - shift] * taps[k]
        if shift:
            slots[..., :shift] += coeffs[..., half - shift :] * taps[k]
    return out


def idwt_arrays(approx: np.ndarray, detail: np.ndarray, bank: str | FilterBank) -> np.ndarray:
    """Exact inverse of :func:`dwt_arrays` for orthonormal banks."""
    bank = get_bank(bank)
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ShapeMismatchError(
            f"band shapes differ: {approx.shape} vs {detail.shape}"
        )
    return synthesize_band(approx, bank.low_pass) + synthesize_band(detail, bank.high_pass)


def dwt_multi(
    x: np.ndarray, bank: str | FilterBank, levels: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Iterate the decomposition ``levels`` times on the approximation band.

    Returns one (approx, detail) pair per level, shallow to deep; detail
    coefficients of every level plus the final approximation hold exactly
    L values total.
    """
    x = np.asarray(x, dtype=np.float64)
    if levels < 1:
        raise InvalidConfigError(f"levels must be >= 1, got {levels}")
    length = x.shape[-1]
    if length % (2**levels):
        raise DepthTooLargeError(
            f"signal length {length} is not divisible by 2^{levels}"
        )
    out = []
    for _ in range(levels):
        out.append(dwt_arrays(x, bank))
        x = out[-1][0]
    return out


def idwt_multi(bands: list[tuple[np.ndarray, np.ndarray]], bank: str | FilterBank) -> np.ndarray:
    """Invert a :func:`dwt_multi` chain back to the original signal."""
    if not bands:
        raise InvalidConfigError("empty band list")
    current = bands[-1][0]
    for _, detail in reversed(bands):
        current = idwt_arrays(current, detail, bank)
    return current
