"""WaveTS model family: variants assembled from the transform, RevIN,
the autodiff ops, and (for the M variant) the mixture of experts.

All variants are defined by one pipeline, :func:`band_forward`:
per-window normalization of each channel's lookback (RevIN), a
one-level wavelet split of the normalized lookback, half-length heads
with RevIN's affine applied after each head's first layer, a
delta-weighted fusion of the high-frequency prediction, and inverse
normalization. The split and the normalized bands are fixed
functions of the input, so they stay off the autodiff tape: backward
stops at the first layers' weights and never forms a band-sized
gradient. Variants differ only in which heads exist and how their
outputs are fused; :data:`LAYOUTS` is the one table of that.

An option that is off is a constant, not a branch: without RevIN's
affine its gain and bias are the constants one and zero, and a fixed
delta is the scalar ``delta_init``.

M's gate and experts run as one fused first layer and one mixture op
(see :mod:`wavets.moe`). The gate diagnostics, :func:`gate_probabilities`,
run the mixture's softmax on that same first layer's gate columns.

With ``lf_hidden=0`` and no learnable per-channel delta, everything
between RevIN and its inverse in B, S, LF, HF and I is linear, so
:func:`fold` collapses the model into one (S, L) matrix shared by all
channels plus an (S, N) offset. The fold is built on the tape from the
weights, and one block runner here applies it to cache-sized blocks of
lookback windows, on the CPUs BLAS leaves idle (:func:`_blocks`): for
training, :func:`batch_loss` runs those variants through
:func:`folded_mse` (one op on the tape); for validation, evaluation and
inference, :func:`forward` hands the fold's arrays to
:func:`folded_forecast`, off the tape. Either way the transform runs on
the (S, L) weights rather than on the (B, N, L) batch. The other
variants run :func:`band_forward`, which is also the reference the fold
is tested against.

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint format stay oblivious to the architecture.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial, reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import checkpoint as ckpt
from . import moe as moe_mod
from .atomic import write_json
from .autodiff import (
    Tensor,
    add,
    constant,
    div,
    dwt_pair,
    idwt_pair,
    linear,
    matmul,
    mse_loss,
    mul,
    presummed,
    relu,
    reshape,
    sub,
    swap_last2,
)
from .data import check_origins, take_windows
from .exceptions import ConfigMismatchError, InvalidConfigError, ParseError, ShapeMismatchError, check_fields
from .moe import FirstLayer
from .revin import (
    RevinState,
    affine_linear,
    check_gain,
    compute_stats,
    revin_forward,
    revin_inverse,
)
from .wavelet import get_bank


class Layout(NamedTuple):
    """A variant's heads: the low-band head (``"lf"``, ``"moe"`` or None),
    whether a delta-weighted high-band head exists, and whether the heads
    emit half-horizon bands fused by the inverse transform (else added)."""

    low: str | None
    high: bool
    synthesize: bool


# The one table of each variant's heads: everything that depends on the
# variant reads it.
LAYOUTS = {
    "B": Layout("lf", True, False),  # linear low head + delta * linear high head
    "S": Layout("lf", False, False),  # low head only, no delta
    "M": Layout("moe", True, False),  # mixture-of-experts low head + delta * high head
    "I": Layout("lf", True, True),  # half-horizon heads fused by the inverse transform
    "LF": Layout("lf", False, False),  # S under its ablation name
    "HF": Layout(None, True, False),  # delta * high head only
}
VARIANTS = tuple(LAYOUTS)

# Leaf names of the weight matrices: init_params draws them uniformly, and
# evaluation.count_macs counts Din*Dout multiply-accumulates for each.
WEIGHT_LEAVES = ("weight", "w1", "w2")


@dataclass(frozen=True)
class ModelConfig:
    """One model, one config: a field the model never reads takes its default. S and
    LF (no delta) take the default delta fields, a fixed delta (one scalar) takes
    ``delta_per_channel=False``; ``bank`` becomes its bank's name and ``delta_init`` a
    float. ``lf_hidden`` or ``moe`` on a variant without that head is an error."""

    variant: str
    lookback: int
    horizon: int
    channels: int
    bank: str = "haar"
    delta_mode: str = "learnable"  # or "fixed"
    delta_init: float = 1.0
    delta_per_channel: bool = False
    revin_affine: bool = True
    lf_hidden: int = 0  # 0 keeps the low-pass head a single linear map
    moe: moe_mod.MoEConfig | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.moe is not None and not isinstance(self.moe, moe_mod.MoEConfig):
            raise InvalidConfigError(f"moe must be an MoEConfig, got {self.moe!r}")
        if self.variant not in VARIANTS:
            raise InvalidConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.lookback < 2 or self.lookback % 2:
            raise InvalidConfigError(f"lookback must be even and >= 2, got {self.lookback}")
        if self.horizon < 1:
            raise InvalidConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.channels < 1:
            raise InvalidConfigError(f"channels must be >= 1, got {self.channels}")
        layout = self.layout
        if layout.synthesize and self.horizon % 2:
            raise InvalidConfigError(f"variant {self.variant} needs an even horizon (heads emit S/2 each)")
        if (layout.low == "moe") != (self.moe is not None):
            need = "requires" if self.moe is None else "must not carry"
            raise InvalidConfigError(f"variant {self.variant} {need} an MoE config")
        if self.delta_mode not in ("learnable", "fixed"):
            raise InvalidConfigError(f"delta_mode must be learnable or fixed, got {self.delta_mode!r}")
        if self.lf_hidden < 0:
            raise InvalidConfigError(f"lf_hidden must be >= 0, got {self.lf_hidden}")
        if self.lf_hidden and (layout.low != "lf" or layout.synthesize):
            raise InvalidConfigError("lf_hidden only applies to variants B, S and LF")
        taps = get_bank(self.bank).length  # raises on unknown names
        if taps > self.lookback:
            raise InvalidConfigError(
                f"bank {self.bank} has {taps} taps but the lookback is only {self.lookback}"
            )
        # Synthesizing the horizon makes training analyse S-length gradients.
        if layout.synthesize and taps > self.horizon:
            raise InvalidConfigError(
                f"variant {self.variant} with bank {self.bank} needs a horizon of at least {taps}, "
                f"got {self.horizon}"
            )
        canonical = {"bank": get_bank(self.bank).name, "delta_init": float(self.delta_init)}
        if not layout.high:
            canonical.update((f.name, f.default) for f in fields(self) if f.name.startswith("delta_"))
        elif self.delta_mode == "fixed":
            canonical["delta_per_channel"] = False
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    @property
    def layout(self) -> Layout:
        return LAYOUTS[self.variant]

    @property
    def half(self) -> int:
        return self.lookback // 2

    @property
    def head(self) -> int:
        """The length of each head's output: the horizon, or half of it when synthesized."""
        return self.horizon // 2 if self.layout.synthesize else self.horizon

    def has_delta(self) -> bool:
        return self.layout.high and self.delta_mode == "learnable"

    def to_dict(self) -> dict:
        """Every field as plain JSON values; ``moe`` only when it is set."""
        return {name: value for name, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The inverse of :meth:`to_dict`; a malformed dict raises InvalidConfigError."""
        try:
            data = dict(data)
            moe_cfg = data.pop("moe", None)
            if moe_cfg is not None:
                moe_cfg = moe_mod.MoEConfig(**moe_cfg)
            return cls(moe=moe_cfg, **data)
        except (TypeError, ValueError) as exc:  # unknown or missing keys, wrong value types
            raise InvalidConfigError(f"invalid model config: {exc}") from exc


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Learnable parameter names and shapes, in deterministic init order."""
    half, head, channels, layout = cfg.half, cfg.head, cfg.channels, cfg.layout
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.lf_hidden:  # only a full-horizon "lf" head may have one
        shapes.update({"lf.w1": (half, cfg.lf_hidden), "lf.b1": (cfg.lf_hidden,)})
        shapes.update({"lf.w2": (cfg.lf_hidden, head), "lf.b2": (head,)})
    elif layout.low == "lf":
        shapes.update({"lf.weight": (half, head), "lf.bias": (head,)})
    if layout.high:
        shapes.update({"hf.weight": (half, head), "hf.bias": (head,)})
    if layout.low == "moe":
        shapes.update(moe_mod.param_shapes(cfg.moe, half, head))
    if cfg.has_delta():
        shapes["delta"] = (channels, 1) if cfg.delta_per_channel else ()
    if cfg.revin_affine:
        shapes.update({"revin.gain": (channels,), "revin.bias": (channels,)})
    return shapes


def init_params(cfg: ModelConfig, seed: int | np.random.Generator = 0) -> dict[str, Tensor]:
    """Seeded init: weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases zero,
    delta at its configured start, affine gain one."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in WEIGHT_LEAVES:
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        elif name == "delta":
            data = np.full(shape, cfg.delta_init)
        elif leaf == "gain":
            data = np.ones(shape)
        else:  # bias, b1, b2
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _check_params(cfg: ModelConfig, params: dict[str, Tensor]) -> None:
    expected = param_shapes(cfg)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise ConfigMismatchError(
            f"parameter set does not match config (missing={missing}, unexpected={extra})"
        )
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise ConfigMismatchError(
                f"parameter {name!r} has shape {params[name].shape}, config expects {shape}"
            )


def _delta(cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """The learnable delta, or a fixed one as the scalar ``delta_init``."""
    return params["delta"] if cfg.has_delta() else constant(cfg.delta_init)


def _affine(cfg: ModelConfig, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """RevIN's (gain, bias): the learnable pair, or the identity (one, zero) as constants."""
    if cfg.revin_affine:
        return params["revin.gain"], params["revin.bias"]
    return constant(np.ones(cfg.channels)), constant(np.zeros(cfg.channels))


def _low_head(cfg: ModelConfig, params: dict[str, Tensor], band: Tensor, first_layer: FirstLayer) -> Tensor:
    if cfg.layout.low == "moe":
        return moe_mod.moe_forward(params, cfg.moe, band, first_layer=first_layer)
    if cfg.lf_hidden:
        hidden = relu(first_layer(band, params["lf.w1"], params["lf.b1"]))
        return linear(hidden, params["lf.w2"], params["lf.b2"])
    return first_layer(band, params["lf.weight"], params["lf.bias"])


def _lookback(cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """A (B, L, N) lookback batch as a float64 array; raises on any other shape."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] != cfg.lookback or x.shape[2] != cfg.channels:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match (B, {cfg.lookback}, {cfg.channels})"
        )
    return x.astype(np.float64, copy=False)


def _prologue(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> tuple[Tensor, Tensor, RevinState]:
    """The (B, N, L/2) bands of a normalized (B, L, N) lookback batch, as
    constants, plus the RevIN state that carries the affine.

    RevIN normalizes a channel-major copy of the lookback, which is then
    split off the tape.
    """
    x = _lookback(cfg, x)
    _check_params(cfg, params)
    normalized, state = revin_forward(x, *_affine(cfg, params))
    approx, detail = dwt_pair(constant(normalized), get_bank(cfg.bank))
    return approx, detail, state


def band_forward(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> Tensor:
    """Predict (B, S, N) from a lookback batch (B, L, N) through the bands.

    Every variant can run here; :func:`forward` sends M, ``lf_hidden > 0``
    and a learnable per-channel delta here, and the tests use it as the
    reference for the folded variants. The heads follow the variant's
    :data:`LAYOUTS` entry: the low-band head, then delta times the
    high-band head, then their sum or their synthesis. Each head's first
    layer is :func:`~wavets.revin.affine_linear`, which applies RevIN's
    affine to its output, so the bands stay constants.
    """
    approx, detail, state = _prologue(cfg, params, x)
    layout, heads = cfg.layout, []
    if layout.low:
        heads.append(_low_head(cfg, params, approx, partial(affine_linear, state=state, approx=True)))
    if layout.high:
        high = affine_linear(detail, params["hf.weight"], params["hf.bias"], state, approx=False)
        heads.append(mul(_delta(cfg, params), high))
    fused = idwt_pair(*heads, get_bank(cfg.bank)) if layout.synthesize else reduce(add, heads)
    return revin_inverse(swap_last2(fused), state)


def fold(cfg: ModelConfig, params: dict[str, Tensor]) -> tuple[Tensor, Tensor] | None:
    """A linear variant as ``(weight (S, L), offset (S, N))`` on the tape; None for the rest.

    Per channel, with RevIN's lookback mean and std (eps included), the
    model forecasts ``weight @ (x - mean) + mean + std * offset``. With the
    head weights taken to the horizon domain (``la``, ``ld`` of shape
    (L/2, S), delta inside ``ld``, and the fused head bias ``f0``):

      weight = idwt(la^T, ld^T)
      offset = (sqrt(2) * bias * sum_i la[i] + f0 - bias) / gain

    Without the affine, gain and bias are the constants one and zero. Both
    are functions of the parameters alone, so the transform runs on the
    weights rather than on the batch, and backward reaches every parameter
    through them. M, an MLP low-pass head (``lf_hidden > 0``) and a per-channel
    delta (always learnable: see :class:`ModelConfig`) are not one shared map,
    so they return None and keep :func:`band_forward`.
    """
    layout = cfg.layout
    if layout.low == "moe" or cfg.lf_hidden or cfg.delta_per_channel:
        return None
    _check_params(cfg, params)
    bank = get_bank(cfg.bank)
    zero_w, zero_b = constant(np.zeros((cfg.half, cfg.head))), constant(np.zeros(cfg.head))
    low_w, low_b = (params["lf.weight"], params["lf.bias"]) if layout.low else (zero_w, zero_b)
    high_w, high_b = zero_w, zero_b
    if layout.high:
        delta = _delta(cfg, params)
        high_w, high_b = mul(delta, params["hf.weight"]), mul(delta, params["hf.bias"])
    if layout.synthesize:  # the heads emit horizon bands: synthesize them along the horizon
        la, ld = idwt_pair(low_w, zero_w, bank), idwt_pair(zero_w, high_w, bank)
        f0 = idwt_pair(low_b, high_b, bank)
    else:
        la, ld, f0 = low_w, high_w, add(low_b, high_b)
    la_t = swap_last2(la)  # (S, L/2)
    weight = idwt_pair(la_t, swap_last2(ld), bank)
    gain, bias = _affine(cfg, params)
    check_gain(gain.data)
    la_sum = matmul(la_t, constant(np.ones((cfg.half, 1))))  # (S, 1)
    lifted = mul(mul(la_sum, constant(math.sqrt(2.0))), bias)  # (S, N)
    offset = div(sub(add(lifted, reshape(f0, (cfg.horizon, 1))), bias), gain)
    return weight, offset


# Bytes of lookback one block of the folded forecast centres at a time:
# about one L2 cache, so a block's centred values are still cached when
# the matmuls read them. A window wider than this is a block of its own.
_BLOCK_BYTES = 2 * 1024 * 1024


def blas_threads() -> tuple[str, int] | None:
    """The first BLAS thread variable set to a positive count, as ``(name,
    count)``; None when neither is, and BLAS threads over every CPU.

    These are the variables BLAS reads its thread count from when it
    loads, in the order it reads them.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return name, int(value)
    return None


def _block_workers() -> int:
    """How many threads run the fold's blocks: the CPUs this process may
    use over BLAS's threads, at least one.

    With no BLAS thread count set, BLAS already threads over every CPU and
    the blocks run inline: block threads on top of it oversubscribe the
    CPUs (0.5-0.8x the inline speed at N=321).
    """
    setting = blas_threads()
    if setting is None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cpus // setting[1])


def _blocks(lookback: np.ndarray, rows: np.ndarray | None, weight: np.ndarray, offset: np.ndarray, finish):
    """Forecast windows ``rows`` of the (W, L, N) ``lookback`` (all W in
    order if None) one cache-sized block at a time, and yield
    ``finish(positions, centred, std, forecast)`` for each block, in block
    order.

    A block is ``_BLOCK_BYTES // (L * N * 8)`` windows (at least one).
    ``compute_stats`` reads its windows (a view when they are consecutive)
    and writes them centred into a reused (L, b, N) buffer, so that
    ``centred.reshape(L, b * N)`` is one matrix with every window's
    channels side by side. The (S, b, N) forecasts ``weight @ centred +
    mean + std * offset`` are one GEMM into another reused buffer, with
    the mean and then the scaled offset added in place. ``finish`` then
    runs while the block is still cached; the ``positions`` slice picks
    the block from ``rows``, and the buffers are reused once it returns.

    The blocks run on :func:`_block_workers` threads of a pool made for
    this call, each thread with its own buffers and at most one block
    queued beyond them; with one worker (or one block) they run inline on
    the calling thread. A block's arithmetic does not depend on the
    thread that runs it and the results come back in block order, so
    whatever the caller sums from them is bit-identical for any worker
    count. An exception in a block cancels the blocks not yet started and
    is raised here once the running ones finish; no thread outlives the
    call.
    """
    count, (length, channels) = len(lookback if rows is None else rows), lookback.shape[1:]
    size = max(1, min(_BLOCK_BYTES // (length * channels * 8), count))
    horizon = weight.shape[0]
    starts = range(0, count, size)
    local = threading.local()

    def view(buffer: np.ndarray, height: int, block: int) -> np.ndarray:
        return buffer[: height * block * channels].reshape(height, block, channels)

    def run(start: int):
        if not hasattr(local, "buffers"):
            # One allocation holds a thread's three reused buffers (centred
            # lookback, forecasts, scaled offset): with three, an evaluation
            # at N=7, L=720, S=96 took over three times as many page faults.
            local.buffers = np.split(
                np.empty((length + 2 * horizon) * size * channels),
                np.cumsum([length, horizon]) * size * channels,
            )
        centred_buffer, forecast_buffer, scaled_buffer = local.buffers
        positions = slice(start, min(start + size, count))
        block = positions.stop - start
        windows = lookback[positions] if rows is None else take_windows(lookback, rows[positions])
        centred = view(centred_buffer, length, block)
        mean, std, _ = compute_stats(windows, out=centred.transpose(1, 0, 2))
        forecast = view(forecast_buffer, horizon, block)
        np.matmul(weight, centred.reshape(length, -1), out=forecast.reshape(horizon, -1))
        forecast += mean
        forecast += np.multiply(std, offset[:, None, :], out=view(scaled_buffer, horizon, block))
        return finish(positions, centred, std, forecast)

    workers = min(_block_workers(), len(starts))
    if workers <= 1:
        yield from map(run, starts)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for start in starts:
            pending.append(pool.submit(run, start))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def folded_forecast(weight: np.ndarray, offset: np.ndarray, lookback: np.ndarray) -> np.ndarray:
    """The folded linear forecast ``weight @ (x - mean) + mean + std * offset``
    of every window of the (B, L, N) ``lookback``, as a (B, S, N) array.

    ``weight`` (S, L) and ``offset`` (S, N) are the arrays :func:`fold`
    builds; the batch is walked in cache-sized blocks
    (:func:`_blocks`), off the tape, and each block writes its own
    windows' slice of the output.
    """
    out = np.empty((len(lookback), weight.shape[0], lookback.shape[2]))

    def place(positions: slice, centred: np.ndarray, std: np.ndarray, forecast: np.ndarray) -> None:
        out[positions] = forecast.transpose(1, 0, 2)

    for _ in _blocks(lookback, None, weight, offset, place):
        pass
    return out


def folded_mse(
    weight: Tensor, offset: Tensor, lookback: np.ndarray, target: np.ndarray, rows: np.ndarray
) -> Tensor:
    """The MSE of :func:`folded_forecast` on windows ``rows`` against their targets, as one op.

    ``lookback`` (W, L, N) and ``target`` (W, S, N) are read-only window
    sources, such as a sampler's sliding views of the series, and ``rows``
    picks the batch from them, so the batch is never gathered. Per block
    (:func:`_blocks`) the targets are subtracted from the forecasts in
    place, and while the block is still cached its squared error, its
    ``diff @ centred^T`` and its ``sum(diff * std)`` are formed. The
    calling thread adds them in block order to the loss, the (S, L)
    weight gradient and the offset gradient, so the sums do not depend on
    the number of block workers. Scaled by ``2 / count``, they reach the
    tape through :func:`~wavets.autodiff.presummed`.
    """
    (horizon, length), channels = weight.shape, lookback.shape[2]
    weight_grad, offset_grad = np.zeros(weight.shape), np.zeros((horizon, channels))
    total = 0.0

    def block_sums(positions: slice, centred: np.ndarray, std: np.ndarray, diff: np.ndarray):
        diff -= take_windows(target, rows[positions]).transpose(1, 0, 2)
        return (
            np.vdot(diff, diff),
            diff.reshape(horizon, -1) @ centred.reshape(length, -1).T,
            np.einsum("sbn,bn->sn", diff, std),
        )

    for squares, block_weight_grad, block_offset_grad in _blocks(
        lookback, rows, weight.data, offset.data, block_sums
    ):
        total += squares
        weight_grad += block_weight_grad
        offset_grad += block_offset_grad
    count = rows.size * horizon * channels
    scale = 2.0 / count
    return presummed(total / count, (weight, offset), (weight_grad * scale, offset_grad * scale))


def forward(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """Forecasts (B, S, N) from a lookback batch (B, L, N), as a plain array.

    The linear variants build :func:`fold` from the live parameters and
    hand its arrays to :func:`folded_forecast`, so the batch is never
    transformed. The other variants return the values of
    :func:`band_forward`. Nothing backpropagates through a forecast:
    training runs :func:`batch_loss`, which has the same branch.
    """
    x = _lookback(cfg, x)
    folded = fold(cfg, params)
    if folded is None:
        # Real parameters, not constant copies: those made an M evaluation refault the heap over 20x as often.
        return band_forward(cfg, params, x).data
    weight, offset = folded
    return folded_forecast(weight.data, offset.data, x)


def batch_loss(
    cfg: ModelConfig, params: dict[str, Tensor], lookback: np.ndarray, target: np.ndarray, rows: np.ndarray
) -> Tensor:
    """The MSE of windows ``rows`` of the (W, L, N) ``lookback`` against the
    (W, S, N) ``target``, on the tape.

    This is the one check of a training batch: both sources' shapes and
    window counts, and ``rows`` by :func:`~wavets.data.check_origins`.
    The sources may be read-only sliding views of a series: the linear
    variants run through :func:`fold` and :func:`folded_mse`, which never
    gathers the batch. The other variants take the windows (a view when
    ``rows`` are consecutive) through :func:`band_forward` and ``mse_loss``.
    """
    lookback = _lookback(cfg, lookback)
    target = np.asarray(target, dtype=np.float64)
    if target.shape[1:] != (cfg.horizon, cfg.channels) or len(target) != len(lookback):
        raise ShapeMismatchError(f"target shape {target.shape} does not fit lookback {lookback.shape}")
    rows = check_origins(rows, len(lookback))
    folded = fold(cfg, params)
    if folded is None:
        x, y = take_windows(lookback, rows), take_windows(target, rows)
        return mse_loss(band_forward(cfg, params, x), constant(y))
    weight, offset = folded
    return folded_mse(weight, offset, lookback, target, rows)


def predict(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """Forecasts (B, S, N) from a lookback batch (B, L, N) as a plain array:
    :func:`forward`'s.

    The fold is rebuilt on every call, so it always matches the parameters
    (the optimizer updates them in place).
    """
    return forward(cfg, params, x)


def gate_probabilities(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """M's (B, N, E) gate probabilities on a lookback batch (B, L, N), from the
    first layer :func:`band_forward` gives the mixture; used for gate diagnostics."""
    approx, _, state = _prologue(cfg, params, x)
    return moe_mod.gate(params, approx, first_layer=partial(affine_linear, state=state, approx=True))


def config_sidecar_path(checkpoint_path: str | Path) -> Path:
    path = Path(checkpoint_path)
    return path.with_name(path.stem + ".config.json")


def save_model(cfg: ModelConfig, params: dict[str, Tensor], checkpoint_path: str | Path) -> None:
    """Write the checkpoint plus its model-config sidecar, each atomically."""
    ckpt.save_params(params, checkpoint_path)
    write_json(config_sidecar_path(checkpoint_path), cfg.to_dict())


def load_model(checkpoint_path: str | Path) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Load checkpoint + sidecar; every parameter name and shape is checked
    against the config before returning.

    The checkpoint is read first, so a missing one is named in the error,
    not its sidecar.
    """
    raw = ckpt.load_params(checkpoint_path)
    sidecar = config_sidecar_path(checkpoint_path)
    try:
        raw_cfg = json.loads(sidecar.read_text())
    except ValueError as exc:  # also an int literal past the 4300-digit limit
        raise ParseError(f"invalid model config file {sidecar}: {exc}") from exc
    cfg = ModelConfig.from_dict(raw_cfg)
    params = {name: Tensor(values, requires_grad=True) for name, values in raw.items()}
    _check_params(cfg, params)
    return cfg, params
