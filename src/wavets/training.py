"""Training loop: Adam with early stopping on validation MSE.

Fully seeded (init and batch shuffling draw from separate child streams of the
run seed), so identical settings yield bit-identical parameters and metrics for
any CPU count. Every train batch comes from :func:`wavets.model.train_batches`,
which checks it. Worker threads (:func:`wavets.model._blocks`) run the fold's
blocks, the batches validation and :func:`evaluate_model` serve, and the band
path's next train batch (gathered, normalized and split while this thread trains
on the last one); results come back in block order."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .data import Series, WindowSampler
from .evaluation import accumulate_errors
from .exceptions import InvalidConfigError, check_fields
from .model import ModelConfig, batch_loss, forecast_batches, init_params, train_batches
from .model import forward  # noqa: F401 (perfbench wraps training.forward)
from .optim import Adam, check_hyperparameters


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 3

    def __post_init__(self) -> None:
        check_fields(self)
        check_hyperparameters(self.lr, self.beta1, self.beta2, self.eps)
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float
    seconds: float


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def epochs_trained(self) -> int:
        return len(self.history)

    @property
    def mean_epoch_seconds(self) -> float | None:
        if not self.history:
            return None
        return float(np.mean([h.seconds for h in self.history]))


def _score(cfg: ModelConfig, params: dict[str, Tensor], sampler: WindowSampler, batch_size: int) -> dict:
    """The errors over every window of the sampler: :func:`~wavets.model.forecast_batches`
    of its lookbacks zipped with its target batches, closed on return."""
    targets = (batch.y for batch in sampler.batches(batch_size))
    with closing(forecast_batches(cfg, params, sampler.lookbacks, batch_size)) as forecasts:
        return accumulate_errors(zip(forecasts, targets))


def evaluate_mse(
    cfg: ModelConfig,
    params: dict[str, Tensor],
    sampler: WindowSampler,
    batch_size: int,
) -> float:
    """Window-weighted MSE over every window of the sampler."""
    return _score(cfg, params, sampler, batch_size)["mse"]


def train_step(cfg: ModelConfig, params: dict[str, Tensor], optimizer: Adam, batch: tuple) -> float:
    """One optimizer update on one :func:`~wavets.model.train_batches` batch;
    returns the batch MSE before the update."""
    loss = batch_loss(cfg, params, batch)
    # Zeroed after the forward, so the last step's gradients are freed only
    # once this step's forward has allocated: glibc then reuses the heap
    # rather than trimming and refaulting it (an M/d4 epoch at N=7 took
    # 3.7x fewer page faults).
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


def train_model(
    cfg: ModelConfig,
    train_split: Series,
    val_split: Series,
    settings: TrainSettings,
    seed: int = 0,
) -> TrainResult:
    """Fit ``cfg`` on the train split, early-stopping on validation MSE.

    Returns the parameters of the best validation epoch, with no gradients.
    """
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    init_rng = np.random.default_rng([seed, 101])
    shuffle_rng = np.random.default_rng([seed, 202])
    params = init_params(cfg, init_rng)
    optimizer = Adam(params, lr=settings.lr, betas=(settings.beta1, settings.beta2), eps=settings.eps)
    train_sampler = WindowSampler(train_split, cfg.lookback, cfg.horizon)
    lookbacks, targets = train_sampler.lookbacks, train_sampler.targets
    val_sampler = WindowSampler(val_split, cfg.lookback, cfg.horizon)

    result = TrainResult(params=params)
    best_val = np.inf
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    stale = 0
    for epoch in range(1, settings.max_epochs + 1):
        start = time.perf_counter()
        batch_losses = []
        origins = train_sampler.batch_origins(settings.batch_size, shuffle=shuffle_rng)
        with closing(train_batches(cfg, lookbacks, targets, origins)) as batches:  # no helper outlives a failed step
            for rows, batch in batches:
                loss = train_step(cfg, params, optimizer, batch)
                batch_losses.append(loss * len(rows))
        train_mse = float(np.sum(batch_losses) / len(train_sampler))
        val_mse = evaluate_mse(cfg, params, val_sampler, settings.batch_size)
        result.history.append(
            EpochStats(
                epoch=epoch,
                train_mse=train_mse,
                val_mse=val_mse,
                seconds=time.perf_counter() - start,
            )
        )
        if val_mse < best_val:
            best_val = val_mse
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
            result.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= settings.patience:
                break
    optimizer.zero_grad()  # the last batch's gradients would outlive the run
    for name, p in params.items():
        p.data = best_snapshot[name]
    return result


def evaluate_model(
    cfg: ModelConfig,
    params: dict[str, Tensor],
    test_split: Series,
    batch_size: int = 32,
) -> dict:
    """Test-set metrics plus the per-horizon-step breakdown."""
    sampler = WindowSampler(test_split, cfg.lookback, cfg.horizon)
    return _score(cfg, params, sampler, batch_size)
