"""WaveTS model family: variants assembled from the transform, RevIN,
the autodiff ops, and (for the M variant) the mixture of experts.

All variants are defined by one pipeline, :func:`band_forward`: a
one-level wavelet split of each channel's lookback, per-window
normalization of the two bands (statistics from the bands by Parseval),
half-length heads with RevIN's affine applied after each head's first
layer, a delta-weighted fusion of the high-frequency prediction, and
inverse normalization. The split and the normalized bands are fixed
functions of the input, so they stay off the autodiff tape: backward
stops at the first layers' weights and never forms a band-sized
gradient. Variants differ only in which heads exist and how the
low-frequency band is mapped:

  B   low-pass linear head + delta * high-pass linear head
  S   low-pass head only (no delta parameter)
  LF  ablation alias of S
  HF  delta * high-pass head only
  M   mixture-of-experts low-pass head + delta * high-pass head
  I   half-horizon heads per band fused by the inverse transform

M's gate and experts run as one fused first layer and one stacked second
layer (see :mod:`wavets.moe`).

With ``lf_hidden=0`` and a shared delta, everything between RevIN and its
inverse in B, S, LF, HF and I is linear, so :func:`fold` collapses the
model into one (S, L) matrix shared by all channels plus an (S, N)
offset. The fold is built on the tape from the weights, and
:func:`forward` runs those variants through it for training, validation,
evaluation and inference alike: the transform then runs on the (S, L)
weights rather than on the (B, N, L) batch. The other variants run
:func:`band_forward`, which is also the reference the fold is tested
against.

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint format stay oblivious to the architecture.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from . import moe as moe_mod
from .atomic import atomic_write
from .autodiff import (
    Tensor,
    add,
    constant,
    div,
    dwt_pair,
    folded_forecast,
    idwt_pair,
    linear,
    matmul,
    mse_loss,
    mul,
    relu,
    reshape,
    sub,
    swap_last2,
)
from .exceptions import ConfigMismatchError, InvalidConfigError, ParseError, ShapeMismatchError
from .revin import (
    RevinState,
    affine_approx,
    affine_linear,
    check_gain,
    compute_stats,
    revin_forward,
    revin_inverse,
)
from .wavelet import get_bank

VARIANTS = ("B", "S", "M", "I", "LF", "HF")

# A head's first layer: (band, weight, bias) -> output, RevIN's affine included.
FirstLayer = Callable[[Tensor, Tensor, Tensor], Tensor]

# Leaf names of the weight matrices: init_params draws them uniformly, and
# evaluation.count_macs counts Din*Dout multiply-accumulates for each.
WEIGHT_LEAVES = ("weight", "w1", "w2")

# Which variants carry a high-frequency weighting parameter at all.
_DELTA_VARIANTS = ("B", "M", "I", "HF")

# The Python types a scalar config field accepts, by its annotation; a bool
# is no int here, and an int is a float.
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass(frozen=True)
class ModelConfig:
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
        for f in fields(self):
            value, accepted = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            bool_as_number = isinstance(value, bool) and f.type != "bool"
            if accepted and (bool_as_number or not isinstance(value, accepted)):
                raise InvalidConfigError(f"{f.name} must be a {f.type}, got {value!r}")
        if not math.isfinite(self.delta_init):
            raise InvalidConfigError(f"delta_init must be finite, got {self.delta_init}")
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
        if self.variant == "I" and self.horizon % 2:
            raise InvalidConfigError("variant I needs an even horizon (heads emit S/2 each)")
        if self.variant == "M" and self.moe is None:
            raise InvalidConfigError("variant M requires an MoE config")
        if self.variant != "M" and self.moe is not None:
            raise InvalidConfigError(f"variant {self.variant} must not carry an MoE config")
        if self.delta_mode not in ("learnable", "fixed"):
            raise InvalidConfigError(f"delta_mode must be learnable or fixed, got {self.delta_mode!r}")
        if self.lf_hidden < 0:
            raise InvalidConfigError(f"lf_hidden must be >= 0, got {self.lf_hidden}")
        if self.lf_hidden and self.variant not in ("B", "S", "LF"):
            raise InvalidConfigError("lf_hidden only applies to variants B, S and LF")
        taps = get_bank(self.bank).length  # raises on unknown names
        if taps > self.lookback:
            raise InvalidConfigError(
                f"bank {self.bank} has {taps} taps but the lookback is only {self.lookback}"
            )
        # Variant I synthesizes the horizon, so training analyses S-length gradients.
        if self.variant == "I" and taps > self.horizon:
            raise InvalidConfigError(
                f"variant I with bank {self.bank} needs a horizon of at least {taps}, got {self.horizon}"
            )

    @property
    def half(self) -> int:
        return self.lookback // 2

    def has_delta(self) -> bool:
        return self.variant in _DELTA_VARIANTS and self.delta_mode == "learnable"

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
    half, horizon, channels = cfg.half, cfg.horizon, cfg.channels
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.variant in ("B", "S", "LF"):
        if cfg.lf_hidden:
            shapes["lf.w1"] = (half, cfg.lf_hidden)
            shapes["lf.b1"] = (cfg.lf_hidden,)
            shapes["lf.w2"] = (cfg.lf_hidden, horizon)
            shapes["lf.b2"] = (horizon,)
        else:
            shapes["lf.weight"] = (half, horizon)
            shapes["lf.bias"] = (horizon,)
    if cfg.variant in ("B", "M", "HF"):
        shapes["hf.weight"] = (half, horizon)
        shapes["hf.bias"] = (horizon,)
    if cfg.variant == "I":
        shapes["lf.weight"] = (half, horizon // 2)
        shapes["lf.bias"] = (horizon // 2,)
        shapes["hf.weight"] = (half, horizon // 2)
        shapes["hf.bias"] = (horizon // 2,)
    if cfg.variant == "M":
        assert cfg.moe is not None
        for name, shape in moe_mod.param_shapes(cfg.moe, half, horizon).items():
            shapes[f"moe.{name}"] = shape
    if cfg.has_delta():
        shapes["delta"] = (channels, 1) if cfg.delta_per_channel else ()
    if cfg.revin_affine:
        shapes["revin.gain"] = (channels,)
        shapes["revin.bias"] = (channels,)
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
    if cfg.has_delta():
        return params["delta"]
    if cfg.delta_per_channel:
        return constant(np.full((cfg.channels, 1), cfg.delta_init))
    return constant(cfg.delta_init)


def _lf_head(cfg: ModelConfig, params: dict[str, Tensor], band: Tensor, first_layer: FirstLayer) -> Tensor:
    if cfg.lf_hidden:
        hidden = relu(first_layer(band, params["lf.w1"], params["lf.b1"]))
        return linear(hidden, params["lf.w2"], params["lf.b2"])
    return first_layer(band, params["lf.weight"], params["lf.bias"])


def _lookback(cfg: ModelConfig, x: Tensor | np.ndarray) -> np.ndarray:
    """A (B, L, N) lookback batch as a float64 array; raises on any other shape."""
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.lookback or x.shape[2] != cfg.channels:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match (B, {cfg.lookback}, {cfg.channels})"
        )
    return x


def _prologue(
    cfg: ModelConfig, params: dict[str, Tensor], x: Tensor | np.ndarray
) -> tuple[Tensor, Tensor, RevinState]:
    """Normalized (B, N, L/2) bands of a (B, L, N) lookback batch, as constants,
    plus the RevIN state that carries the affine.

    The lookback is copied channel-major once and split off the tape.
    """
    x = _lookback(cfg, x)
    _check_params(cfg, params)
    per_channel = constant(np.ascontiguousarray(np.swapaxes(x, 1, 2)))  # (B, N, L)
    bands = dwt_pair(per_channel, get_bank(cfg.bank))
    (approx, detail), state = revin_forward(bands, params.get("revin.gain"), params.get("revin.bias"))
    return approx, detail, state


def band_forward(cfg: ModelConfig, params: dict[str, Tensor], x: Tensor | np.ndarray) -> Tensor:
    """Predict (B, S, N) from a lookback batch (B, L, N) through the bands.

    Every variant can run here; :func:`forward` sends M, ``lf_hidden > 0``
    and a per-channel delta here, and the tests use it as the reference
    for the folded variants. Each head's first layer is
    :func:`~wavets.revin.affine_linear`, which applies RevIN's affine to
    its output, so the bands stay constants.
    """
    approx, detail, state = _prologue(cfg, params, x)
    low_layer = partial(affine_linear, state=state, approx=True)
    high_layer = partial(affine_linear, state=state, approx=False)

    if cfg.variant in ("S", "LF"):
        fused = _lf_head(cfg, params, approx, low_layer)
    elif cfg.variant == "B":
        low = _lf_head(cfg, params, approx, low_layer)
        high = high_layer(detail, params["hf.weight"], params["hf.bias"])
        fused = add(low, mul(_delta(cfg, params), high))
    elif cfg.variant == "HF":
        high = high_layer(detail, params["hf.weight"], params["hf.bias"])
        fused = mul(_delta(cfg, params), high)
    elif cfg.variant == "M":
        assert cfg.moe is not None
        low = moe_mod.moe_forward(params, cfg.moe, approx, prefix="moe.", first_layer=low_layer)
        high = high_layer(detail, params["hf.weight"], params["hf.bias"])
        fused = add(low, mul(_delta(cfg, params), high))
    else:  # variant I: predict per band at half horizon, fuse by synthesis
        low = low_layer(approx, params["lf.weight"], params["lf.bias"])
        high = high_layer(detail, params["hf.weight"], params["hf.bias"])
        fused = idwt_pair(low, mul(_delta(cfg, params), high), get_bank(cfg.bank))

    return revin_inverse(swap_last2(fused), state)


def fold(cfg: ModelConfig, params: dict[str, Tensor]) -> tuple[Tensor, Tensor] | None:
    """A linear variant as ``(weight (S, L), offset)`` on the tape; None for the rest.

    Per channel, with RevIN's lookback mean and std (eps included), the
    model forecasts ``weight @ (x - mean) + mean + std * offset``. With the
    head weights taken to the horizon domain (``la``, ``ld`` of shape
    (L/2, S), delta inside ``ld``, and the fused head bias ``f0``):

      weight = idwt(la^T, ld^T)
      offset = (sqrt(2) * bias * sum_i la[i] + f0 - bias) / gain

    The offset is (S, N), or (S, 1) without the affine. Both are functions
    of the parameters alone, so the transform runs on the weights rather
    than on the batch, and backward reaches every parameter through them.
    M, an MLP low-pass head (``lf_hidden > 0``) and a per-channel delta are
    not one shared map, so they return None and keep :func:`band_forward`.
    """
    if cfg.variant == "M" or cfg.lf_hidden or cfg.delta_per_channel:
        return None
    _check_params(cfg, params)
    bank = get_bank(cfg.bank)
    head = cfg.horizon // 2 if cfg.variant == "I" else cfg.horizon
    zero_w, zero_b = constant(np.zeros((cfg.half, head))), constant(np.zeros(head))
    low_w, low_b = (params["lf.weight"], params["lf.bias"]) if "lf.weight" in params else (zero_w, zero_b)
    high_w, high_b = zero_w, zero_b
    if "hf.weight" in params:
        delta = _delta(cfg, params)
        high_w, high_b = mul(delta, params["hf.weight"]), mul(delta, params["hf.bias"])
    if cfg.variant == "I":  # the heads emit horizon bands: synthesize them along the horizon
        la, ld = idwt_pair(low_w, zero_w, bank), idwt_pair(zero_w, high_w, bank)
        f0 = idwt_pair(low_b, high_b, bank)
    else:
        la, ld, f0 = low_w, high_w, add(low_b, high_b)
    la_t = swap_last2(la)  # (S, L/2)
    weight = idwt_pair(la_t, swap_last2(ld), bank)
    offset = reshape(f0, (cfg.horizon, 1))
    if cfg.revin_affine:
        gain, bias = params["revin.gain"], params["revin.bias"]
        check_gain(gain.data)
        la_sum = matmul(la_t, constant(np.ones((cfg.half, 1))))  # (S, 1)
        lifted = mul(mul(la_sum, constant(math.sqrt(2.0))), bias)  # (S, N)
        offset = div(sub(add(lifted, offset), bias), gain)
    return weight, offset


def forward(cfg: ModelConfig, params: dict[str, Tensor], x: Tensor | np.ndarray) -> Tensor:
    """Predict (B, S, N) from a lookback batch (B, L, N) on the tape.

    The linear variants run through :func:`fold` and one
    :func:`~wavets.autodiff.folded_forecast` op, which takes the lookback
    and ``compute_stats`` (autodiff cannot import revin) and centres,
    applies the shared matrix and adds the mean and the scaled offset one
    cache-sized block of windows at a time. The batch is never
    transformed and gets no gradient. The other variants run
    :func:`band_forward`.
    """
    x = _lookback(cfg, x)
    folded = fold(cfg, params)
    if folded is None:
        return band_forward(cfg, params, x)
    weight, offset = folded
    return folded_forecast(weight, offset, x, compute_stats)


def predict(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """Forecasts (B, S, N) from a lookback batch (B, L, N) as a plain array.

    The fold is rebuilt on every call, so it always matches the parameters
    (the optimizer updates them in place).
    """
    return forward(cfg, params, x).data


def low_frequency_band(cfg: ModelConfig, params: dict[str, Tensor], x: np.ndarray) -> np.ndarray:
    """The affine-mapped (B, N, L/2) approximation band, ``gain * A_n + sqrt(2) * bias``:
    the band whose gate and expert first layers M computes; used for gate diagnostics."""
    approx, _, state = _prologue(cfg, params, x)
    return affine_approx(approx.data, state)


def loss_and_grads(
    cfg: ModelConfig,
    params: dict[str, Tensor],
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """MSE against the horizon plus gradients for every learnable tensor."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3 or y.shape[1] != cfg.horizon or y.shape[2] != cfg.channels:
        raise ShapeMismatchError(
            f"target shape {y.shape} does not match (B, {cfg.horizon}, {cfg.channels})"
        )
    for p in params.values():
        p.zero_grad()
    loss = mse_loss(forward(cfg, params, x), constant(y))
    loss.backward()
    grads = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    return loss.item(), grads


def config_sidecar_path(checkpoint_path: str | Path) -> Path:
    path = Path(checkpoint_path)
    return path.with_name(path.stem + ".config.json")


def save_model(cfg: ModelConfig, params: dict[str, Tensor], checkpoint_path: str | Path) -> None:
    """Write the checkpoint plus its model-config sidecar, each atomically."""
    ckpt.save_params(params, checkpoint_path)
    with atomic_write(config_sidecar_path(checkpoint_path)) as fh:
        json.dump(cfg.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(checkpoint_path: str | Path) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Load checkpoint + sidecar; every parameter name and shape is checked
    against the config before returning."""
    sidecar = config_sidecar_path(checkpoint_path)
    try:
        raw_cfg = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model config file {sidecar}: {exc}") from exc
    cfg = ModelConfig.from_dict(raw_cfg)
    raw = ckpt.load_params(checkpoint_path)
    params = {name: Tensor(values, requires_grad=True) for name, values in raw.items()}
    _check_params(cfg, params)
    return cfg, params
