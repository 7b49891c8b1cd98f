"""WaveTS model family: variants assembled from the transform, RevIN,
the autodiff ops, and (for the M variant) the mixture of experts.

All variants are defined by one pipeline, :func:`band_forward`:
per-window normalization of each channel's lookback (RevIN), a
one-level wavelet split of the normalized lookback, half-length heads
with RevIN's affine applied after each head's first layer, a
delta-weighted fusion of the high-frequency prediction, and inverse
normalization. The normalized bands and their statistics,
:func:`band_prologue`, read no parameter: they stay off the autodiff
tape, so backward stops at the first layers' weights and never forms a
band-sized gradient, and they can be made ahead on another thread.
Variants differ only in which heads exist and how their outputs are
fused; :data:`LAYOUTS` is the one table of that.

An option that is off is a constant, not a branch: without RevIN's
affine its gain and bias are the constants one and zero, and a fixed
delta is the scalar ``delta_init``. M's gate and experts run as one
fused first layer and one mixture op (see :mod:`wavets.moe`); the gate
diagnostics, :func:`gate_probabilities`, run its softmax on that layer.

With ``lf_hidden=0`` and no learnable per-channel delta, everything
between RevIN and its inverse in B, S, LF, HF and I is linear, so
:func:`fold` collapses the model into one (S, L) matrix shared by all
channels plus an (S, N) offset, built on the tape from the weights, and
:func:`batch_loss` trains it through :func:`folded_mse` (one op on the
tape). The other variants, the band path, run :func:`band_forward`,
which is also the reference the fold is tested against.

One block runner, :func:`_blocks`, is the only place that makes threads:
it runs blocks on the CPUs BLAS leaves idle. Validation, evaluation and
inference share :func:`forecast_batches`, where a fold block is a
cache-sized slice of a batch, so the transform runs on the (S, L)
weights rather than on the (B, N, L) batch, and a band block is a whole
batch; :func:`forward` is the one-batch case. Training takes every batch
from :func:`train_batches`, the one check of a training batch; the band
path's blocks gather each batch and run its prologue on one worker fewer
while the calling thread runs the heads, backward and Adam.

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
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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


class Bands(NamedTuple):
    """A (B, L, N) lookback batch's (B, N, L/2) bands, as constants, and RevIN's (B, N) mean and std."""

    approx: Tensor
    detail: Tensor
    mean: np.ndarray
    std: np.ndarray


def band_prologue(cfg: ModelConfig, x: np.ndarray, local=None) -> Bands:
    """The :class:`Bands` of a (B, L, N) lookback batch: RevIN normalizes a channel-major
    copy, which the transform splits into new arrays. It reads no parameter. The copy goes
    into the buffer of a block runner's thread namespace ``local`` (see :func:`_blocks`),
    grown when it is missing or too small; with no runner it is allocated fresh."""
    x = _lookback(cfg, x)
    buffer = getattr(local, "channel_major", np.empty(0))
    if buffer.size < x.size:
        buffer = np.empty(x.size)
        if local is not None:
            local.channel_major = buffer
    normalized, mean, std = revin_forward(x, buffer[: x.size].reshape(len(x), cfg.channels, cfg.lookback))
    return Bands(*dwt_pair(constant(normalized), get_bank(cfg.bank)), mean, std)


def _prologue(cfg: ModelConfig, params: dict[str, Tensor], bands: Bands) -> tuple[Tensor, Tensor, RevinState]:
    """A batch's bands plus the RevIN state that carries the affine."""
    _check_params(cfg, params)
    return bands.approx, bands.detail, RevinState(bands.mean, bands.std, *_affine(cfg, params))


def band_forward(cfg: ModelConfig, params: dict[str, Tensor], bands: Bands) -> Tensor:
    """Predict (B, S, N) from a lookback batch's :class:`Bands` (:func:`band_prologue`).

    Every variant can run here; the band path does, and the tests use it
    as the reference for the folded variants. The heads follow the variant's
    :data:`LAYOUTS` entry: the low-band head, then delta times the
    high-band head, then their sum or their synthesis. Each head's first
    layer is :func:`~wavets.revin.affine_linear`, which applies RevIN's
    affine to its output, so the bands stay constants.
    """
    approx, detail, state = _prologue(cfg, params, bands)
    layout, heads = cfg.layout, []
    if layout.low:
        heads.append(_low_head(cfg, params, approx, partial(affine_linear, state=state, approx=True)))
    if layout.high:
        high = affine_linear(detail, params["hf.weight"], params["hf.bias"], state, approx=False)
        heads.append(mul(_delta(cfg, params), high))
    fused = idwt_pair(*heads, get_bank(cfg.bank)) if layout.synthesize else reduce(add, heads)
    return revin_inverse(swap_last2(fused), state)


def _on_band_path(cfg: ModelConfig) -> bool:  # M, an MLP low head or a learnable per-channel delta
    return cfg.layout.low == "moe" or bool(cfg.lf_hidden) or cfg.delta_per_channel


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
    if _on_band_path(cfg):
        return None
    _check_params(cfg, params)
    layout = cfg.layout
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
    """How many threads run the blocks of a call: the CPUs this process may
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


def _blocks(run, blocks: Iterable, caller_works: bool = False):
    """Yield ``run(local, block)`` for each of ``blocks``, in block order:
    the one runner of per-block tasks, and the only place that makes threads.

    The blocks run on :func:`_block_workers` threads of a pool made for this call (one
    fewer when the caller works between results, inline when no thread would overlap
    anything), with at most one block queued beyond them, read only as they are queued.
    ``local`` is the running thread's own namespace, for reused buffers.
    Results do not depend on the thread, so whatever the caller sums from
    them is bit-identical for any worker count. An exception in a block,
    or closing the generator, cancels the blocks not yet started and
    returns once the running ones finish; no thread outlives the call.
    """
    local, blocks = threading.local(), iter(blocks)
    task = partial(run, local)
    head = list(islice(blocks, _block_workers() - caller_works))
    if not head or (len(head) == 1 and not caller_works):
        yield from map(task, chain(head, blocks))
        return
    pool = ThreadPoolExecutor(len(head))
    try:
        pending = deque(pool.submit(task, block) for block in head)
        for block in blocks:
            pending.append(pool.submit(task, block))
            yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _slices(start: int, stop: int, size: int) -> Iterator[slice]:
    return (slice(first, min(first + size, stop)) for first in range(start, stop, size))


def _block_size(windows: int, length: int, channels: int) -> int:  # at least one, at most ``windows``
    return max(1, min(_BLOCK_BYTES // (length * channels * 8), windows))


def _fold_block(local, windows: np.ndarray, weight: np.ndarray, offset: np.ndarray, size: int):
    """The centred (L, b, N) windows, their (b, N) std and their (S, b, N)
    forecasts ``weight @ centred + mean + std * offset`` of one block of b <=
    ``size`` windows, off the tape, in the thread's buffers on ``local``.

    ``compute_stats`` writes the windows centred into the (L, b, N) buffer,
    so ``centred.reshape(L, b * N)`` is one matrix with every window's
    channels side by side, and the forecasts are one GEMM, with the mean and
    the scaled offset added in place. The thread's next block reuses them.
    """
    (block, length, channels), horizon = windows.shape, weight.shape[0]
    if not hasattr(local, "buffers"):
        # One allocation holds a thread's three reused buffers (centred
        # lookback, forecasts, scaled offset): with three, an evaluation
        # at N=7, L=720, S=96 took over three times as many page faults.
        sizes = np.cumsum([length, horizon]) * size * channels
        local.buffers = np.split(np.empty((length + 2 * horizon) * size * channels), sizes)

    def view(buffer: np.ndarray, height: int) -> np.ndarray:
        return buffer[: height * block * channels].reshape(height, block, channels)

    centred_buffer, forecast_buffer, scaled_buffer = local.buffers
    centred = view(centred_buffer, length)
    mean, std, _ = compute_stats(windows, out=centred.transpose(1, 0, 2))
    forecast = view(forecast_buffer, horizon)
    np.matmul(weight, centred.reshape(length, -1), out=forecast.reshape(horizon, -1))
    forecast += mean
    forecast += np.multiply(std, offset[:, None, :], out=view(scaled_buffer, horizon))
    return centred, std, forecast


def folded_forecast(weight: np.ndarray, offset: np.ndarray, lookbacks: np.ndarray, batch_size: int):
    """Yield the folded forecast ``weight @ (x - mean) + mean + std * offset``
    of each consecutive batch of ``batch_size`` windows of the (W, L, N)
    ``lookbacks``, as (B, S, N) arrays, from :func:`fold`'s (S, L) and (S, N) arrays.

    A block is a cache-sized slice of one batch (:func:`_fold_block`). A
    batch's output is made when its first block is queued, each block
    writes its own windows into it, and it is yielded with its last block.
    """
    (count, length, channels), horizon = lookbacks.shape, weight.shape[0]
    size = _block_size(min(batch_size, count), length, channels)

    def blocks():
        for batch in _slices(0, count, batch_size):
            out = np.empty((batch.stop - batch.start, horizon, channels))
            for block in _slices(batch.start, batch.stop, size):
                yield out, batch.start, block, block.stop == batch.stop

    def place(local, task) -> np.ndarray | None:
        out, first, block, last = task
        forecast = _fold_block(local, lookbacks[block], weight, offset, size)[2]
        out[block.start - first : block.stop - first] = forecast.transpose(1, 0, 2)
        return out if last else None

    return (out for out in _blocks(place, blocks()) if out is not None)


def folded_mse(
    weight: Tensor, offset: Tensor, lookback: np.ndarray, target: np.ndarray, rows: np.ndarray
) -> Tensor:
    """The MSE of the folded forecast on windows ``rows`` against their targets, as one op.

    ``lookback`` (W, L, N) and ``target`` (W, S, N) are read-only window
    sources, such as a sampler's sliding views of the series, and ``rows``
    picks the batch from them, so the batch is never gathered. Per block
    (:func:`_fold_block`) the targets are subtracted from the forecasts in
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
    size = _block_size(rows.size, length, channels)

    def block_sums(local, block: slice):
        windows = take_windows(lookback, rows[block])
        centred, std, diff = _fold_block(local, windows, weight.data, offset.data, size)
        diff -= take_windows(target, rows[block]).transpose(1, 0, 2)
        return (
            np.vdot(diff, diff),
            diff.reshape(horizon, -1) @ centred.reshape(length, -1).T,
            np.einsum("sbn,bn->sn", diff, std),
        )

    for squares, block_weight_grad, block_offset_grad in _blocks(block_sums, _slices(0, rows.size, size)):
        total += squares
        weight_grad += block_weight_grad
        offset_grad += block_offset_grad
    count = rows.size * horizon * channels
    scale = 2.0 / count
    return presummed(total / count, (weight, offset), (weight_grad * scale, offset_grad * scale))


def forecast_batches(cfg: ModelConfig, params: dict[str, Tensor], lookbacks: np.ndarray, batch_size: int):
    """Yield the (B, S, N) forecast of each consecutive batch of ``batch_size``
    windows of a (W, L, N) window source, in order: the one serving path.

    What depends only on the parameters is made once per call, from their
    ``constant`` views, on which no op records a tape: the linear variants'
    :func:`fold`, whose arrays :func:`folded_forecast` applies in cache-sized
    blocks, or the views themselves, which :func:`band_forward` reads on the
    band path (M, ``lf_hidden > 0``, a learnable per-channel delta), one batch
    per block (its :func:`band_prologue` in the worker's reused buffer). One
    :func:`_blocks` runner serves the call. Training runs :func:`batch_loss`.
    """
    lookbacks = _lookback(cfg, lookbacks)
    if batch_size < 1:
        raise InvalidConfigError(f"batch_size must be >= 1, got {batch_size}")
    # Constant views: a tape on the live parameters made a 2000-window M evaluation at N=7 1.2x slower, 4 MiB larger.
    views = {name: constant(p.data) for name, p in params.items()}
    folded = fold(cfg, views)
    if folded is not None:
        yield from folded_forecast(folded[0].data, folded[1].data, lookbacks, batch_size)
        return
    batches = _slices(0, len(lookbacks), batch_size)
    yield from _blocks(lambda local, batch: band_forward(cfg, views, band_prologue(cfg, lookbacks[batch], local)).data, batches)


def forward(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """Forecasts (B, S, N) from a lookback batch (B, L, N), as a plain array:
    the one batch of :func:`forecast_batches`, which checks it (a batch of
    ``np.size(x)`` windows holds every window of any input)."""
    forecasts = list(forecast_batches(cfg, params, x, max(1, np.size(x))))
    return forecasts[0] if forecasts else np.empty((0, cfg.horizon, cfg.channels))


def train_batches(cfg: ModelConfig, lookback: np.ndarray, target: np.ndarray, batches: Iterable[np.ndarray]):
    """Yield ``(rows, batch)`` for each of ``batches``, origins into the (W, L, N) ``lookback``
    and (W, S, N) ``target`` sources, in order: the one maker and the one check of the
    batches :func:`batch_loss` reads. Both sources' shapes are checked once per call, and
    each batch's ``rows`` by :func:`~wavets.data.check_origins` on the calling thread as it
    is queued, so before any block worker reads them.

    A linear variant's ``batch`` is ``(lookback, target, rows)``: :func:`folded_mse` reads
    the sources (a sampler's read-only sliding views) by row and never gathers the batch.
    The band path's is the batch's :class:`Bands` and targets, one block of a :func:`_blocks`
    call that keeps a CPU for the caller's heads, backward and Adam. The blocks read no
    parameter, so no update can reach them.
    """
    lookback = _lookback(cfg, lookback)
    target = np.asarray(target, dtype=np.float64)
    if target.shape[1:] != (cfg.horizon, cfg.channels) or len(target) != len(lookback):
        raise ShapeMismatchError(f"target shape {target.shape} does not fit lookback {lookback.shape}")
    checked = (check_origins(rows, len(lookback)) for rows in batches)
    if not _on_band_path(cfg):
        return ((rows, (lookback, target, rows)) for rows in checked)

    def prepare(local, rows: np.ndarray):
        return rows, (band_prologue(cfg, take_windows(lookback, rows), local), take_windows(target, rows))

    return _blocks(prepare, checked, caller_works=True)


def batch_loss(cfg: ModelConfig, params: dict[str, Tensor], batch: tuple) -> Tensor:
    """The MSE of one :func:`train_batches` batch, on the tape: the linear variants'
    ``(lookback, target, rows)`` through :func:`fold` and :func:`folded_mse`, the band
    path's ``(bands, targets)`` through :func:`band_forward` and ``mse_loss``."""
    folded = fold(cfg, params)
    if folded is None:
        bands, target = batch
        return mse_loss(band_forward(cfg, params, bands), constant(target))
    return folded_mse(*folded, *batch)


def predict(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """:func:`forward`'s forecasts, with the fold (or the band path's parameter views) made
    again on every call, so it always matches the parameters that Adam updates in place."""
    return forward(cfg, params, x)


def gate_probabilities(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """M's (B, N, E) gate probabilities on a lookback batch (B, L, N), from the
    first layer :func:`band_forward` gives the mixture; used for gate diagnostics."""
    approx, _, state = _prologue(cfg, params, band_prologue(cfg, x))
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
