"""Flat run configuration: JSON file, CLI flags, and merge rules.

A run is described by one flat key/value mapping. Values come from three
layers, later layers winning: dataclass defaults, an optional ``--config``
JSON file, then explicit CLI flags. Unknown keys in the file are errors
(they are almost always typos). Every resolved config serializes next to
its outputs so a run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .exceptions import InvalidConfigError
from .model import LAYOUTS, ModelConfig
from .moe import MoEConfig
from .training import TrainSettings


@dataclass(frozen=True)
class RunConfig:
    # model
    variant: str = "S"
    lookback: int = 96
    horizon: int = 24
    bank: str = "haar"
    delta_mode: str = "learnable"
    delta_init: float = 1.0
    delta_per_channel: bool = False
    revin_affine: bool = True
    lf_hidden: int = 0
    moe_experts: int = 4
    moe_hidden: int = 64
    # data: a CSV path or "synth:<kind>" (sine_mix, trend_sine, noise_walk)
    data: str = ""
    split: str = "ratio"
    train_frac: float = 0.7
    val_frac: float = 0.1
    standardize: bool = True
    synth_length: int = 4000
    synth_channels: int = 4
    synth_seed: int = 0
    # optimizer
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 3
    # run control
    seed: int = 0
    seeds: str = ""  # comma-separated list; overrides `seed` when non-empty
    out: str = "runs"

    def seed_list(self) -> list[int]:
        """The seeds to train: ``seeds`` when set, else ``seed``. A list that
        names no seed, or one seed twice, raises InvalidConfigError."""
        if not self.seeds.strip():
            return [self.seed]
        try:
            seeds = [int(tok) for tok in self.seeds.split(",") if tok.strip()]
        except ValueError:
            raise InvalidConfigError(f"seeds must be a comma-separated int list, got {self.seeds!r}") from None
        if not seeds or len(set(seeds)) != len(seeds):
            raise InvalidConfigError(f"seeds must name at least one seed, each once, got {self.seeds!r}")
        return seeds

    def _shared(self, cls: type) -> dict:
        """This config's values for the fields of ``cls`` that share a name with one of ours."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(cls) if f.name in _FIELDS}

    def train_settings(self) -> TrainSettings:
        return TrainSettings(**self._shared(TrainSettings))

    def model_config(self, channels: int) -> ModelConfig:
        layout = LAYOUTS.get(self.variant)  # an unknown variant fails in ModelConfig
        moe = MoEConfig(self.moe_experts, self.moe_hidden) if layout and layout.low == "moe" else None
        return ModelConfig(channels=channels, moe=moe, **self._shared(ModelConfig))

    def with_model(self, mcfg: ModelConfig) -> "RunConfig":
        """This config with ``mcfg``'s model keys, the inverse of :meth:`model_config`."""
        moe = {"moe_experts": mcfg.moe.num_experts, "moe_hidden": mcfg.moe.hidden} if mcfg.moe else {}
        return dataclasses.replace(self, **{name: getattr(mcfg, name) for name in self._shared(ModelConfig)}, **moe)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value, target_type: type):
    if isinstance(value, target_type) and not (target_type is int and isinstance(value, bool)):
        return value
    if target_type is bool:
        if isinstance(value, str):
            low = value.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
        raise InvalidConfigError(f"key {name!r}: expected a boolean, got {value!r}")
    try:
        return target_type(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the float range
        raise InvalidConfigError(
            f"key {name!r}: expected {target_type.__name__}, got {value!r}"
        ) from None


def apply_overrides(base: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields of ``base``; unknown keys are configuration errors."""
    unknown = sorted(set(overrides) - set(_FIELDS))
    if unknown:
        raise InvalidConfigError(f"unknown config key(s): {', '.join(unknown)}")
    coerced = {
        name: _coerce(name, value, type(_FIELDS[name].default))
        for name, value in overrides.items()
    }
    return dataclasses.replace(base, **coerced)


def load_config_file(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # also an int literal past the 4300-digit limit
        raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config file {path} must hold a flat JSON object")
    return raw


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """One ``--key`` flag per RunConfig field (flags win over the file)."""
    parser.add_argument("--config", default=None, help="flat JSON config file")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.type == "bool" or isinstance(field.default, bool):
            parser.add_argument(
                flag,
                dest=field.name,
                action=argparse.BooleanOptionalAction,
                default=None,
                help=f"(default: {field.default})",
            )
        else:
            parser.add_argument(
                flag,
                dest=field.name,
                default=None,
                help=f"(default: {field.default})",
            )


def given_settings(args: argparse.Namespace) -> dict:
    """The keys set by the config file and the CLI flags, flags winning; values uncoerced."""
    settings = load_config_file(args.config) if getattr(args, "config", None) else {}
    settings.update(
        {name: getattr(args, name) for name in _FIELDS if getattr(args, name, None) is not None}
    )
    return settings


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- CLI flags."""
    return apply_overrides(RunConfig(), given_settings(args))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha1(canonical.encode()).hexdigest()[:8]
