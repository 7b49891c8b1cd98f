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

from .data import SplitSpec
from .exceptions import InvalidConfigError, check_fields
from .model import LAYOUTS, ModelConfig
from .moe import MoEConfig
from .training import TrainSettings


@dataclass(frozen=True)
class RunConfig:
    # model
    variant: str = "S"
    lookback: int = 96
    horizon: int = 24
    bank: str = ModelConfig.bank
    delta_mode: str = ModelConfig.delta_mode
    delta_init: float = ModelConfig.delta_init
    delta_per_channel: bool = ModelConfig.delta_per_channel
    revin_affine: bool = ModelConfig.revin_affine
    lf_hidden: int = ModelConfig.lf_hidden
    moe_experts: int = MoEConfig.num_experts
    moe_hidden: int = MoEConfig.hidden
    # data: a CSV path or "synth:<kind>" (sine_mix, trend_sine, noise_walk)
    data: str = ""
    split: str = SplitSpec.scheme
    train_frac: float = SplitSpec.train_frac
    val_frac: float = SplitSpec.val_frac
    standardize: bool = True
    synth_length: int = 4000
    synth_channels: int = 4
    synth_seed: int = 0
    # optimizer
    lr: float = TrainSettings.lr
    beta1: float = TrainSettings.beta1
    beta2: float = TrainSettings.beta2
    eps: float = TrainSettings.eps
    batch_size: int = TrainSettings.batch_size
    max_epochs: int = TrainSettings.max_epochs
    patience: int = TrainSettings.patience
    # run control
    seed: int = 0
    seeds: str = ""  # comma-separated list; overrides `seed` when non-empty
    out: str = "runs"

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("seed", "synth_seed"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    def seed_list(self) -> list[int]:
        """The seeds to train: ``seeds`` when set, else ``seed``. A list that
        names no seed, one seed twice, or a negative seed, raises InvalidConfigError."""
        if not self.seeds.strip():
            return [self.seed]
        try:
            seeds = [int(tok) for tok in self.seeds.split(",") if tok.strip()]
        except ValueError:
            raise InvalidConfigError(f"seeds must be a comma-separated int list, got {self.seeds!r}") from None
        if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
            raise InvalidConfigError(f"seeds must name at least one seed, each once and >= 0, got {self.seeds!r}")
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
    """Parse a string (a flag value, or a string in the file) into the key's type, and widen an
    int to a float for a float key, so ``config.json`` and its hash record ``3.0`` for ``3``.
    Every other value passes unchanged to RunConfig's ``check_fields``: nothing is truncated."""
    if target_type is str or not (isinstance(value, str) or (target_type is float and type(value) is int)):
        return value
    if target_type is bool:
        low = value.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise InvalidConfigError(f"key {name!r}: expected a boolean, got {value!r}")
    try:
        return target_type(value)
    except (ValueError, OverflowError):  # OverflowError: an int past the float range
        raise InvalidConfigError(
            f"key {name!r}: expected {target_type.__name__}, got {value!r}"
        ) from None


def apply_overrides(base: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields of ``base``; unknown keys are configuration errors."""
    unknown = sorted(set(overrides) - set(_FIELDS))
    if unknown:
        raise InvalidConfigError(f"unknown config key(s): {', '.join(unknown)}")
    coerced = {name: _coerce(name, value, type(_FIELDS[name].default)) for name, value in overrides.items()}
    return dataclasses.replace(base, **coerced)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise InvalidConfigError(f"key {key!r} is given more than once")
    return dict(pairs)


def load_config_file(path: str | Path) -> dict:
    """The file's flat JSON object; a key given twice in one object is refused, not resolved."""
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also an int literal past the 4300-digit limit
        raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config file {path} must hold a flat JSON object")
    return raw


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# The flags of add_config_arguments that take a value.
_VALUE_FLAGS = {"--config", *(_flag(f.name) for f in dataclasses.fields(RunConfig) if f.type != "bool")}


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """One ``--key`` flag per RunConfig field (flags win over the file)."""
    parser.add_argument("--config", default=None, help="flat JSON config file")
    for field in dataclasses.fields(RunConfig):
        action = argparse.BooleanOptionalAction if field.type == "bool" else "store"
        parser.add_argument(_flag(field.name), dest=field.name, action=action, default=None, help=f"(default: {field.default})")


def join_flag_values(argv: list[str]) -> list[str]:
    """``argv`` with every ``--key value`` of a value-taking config flag written ``--key=value``,
    so that argparse reads a value starting with ``-`` (``--seeds -1,2``) as the value."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def given_settings(args: argparse.Namespace) -> dict:
    """The keys set by the config file and the CLI flags, flags winning; values uncoerced."""
    settings = load_config_file(args.config) if getattr(args, "config", None) else {}
    settings.update({name: getattr(args, name) for name in _FIELDS if getattr(args, name, None) is not None})
    return settings


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- CLI flags."""
    return apply_overrides(RunConfig(), given_settings(args))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha1(canonical.encode()).hexdigest()[:8]
