"""Metrics, parameter and MAC accounting, timing, and run reports.

Parameter counts are the model's own parameter shapes, summed per block.
MAC accounting uses the usual reporting convention for lightweight
forecasters: one multiply-accumulate per multiply, forward pass only,
batch 32 for headline numbers. The headline ``macs`` figure covers the
linear layers (the model's learnable compute); the fixed wavelet
transform is tracked separately as ``transform`` and included in
``total``.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .atomic import write_csv
from .data import WindowBatch
from .exceptions import InvalidConfigError, ShapeMismatchError
from .model import WEIGHT_LEAVES, ModelConfig, _block_workers, blas_threads, param_shapes
from .wavelet import get_bank


def accumulate_errors(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Stream (prediction, target) batches of shape (B, S, N) into the errors.

    Per-step squared and absolute error sums accumulate batch by batch, so
    no prediction outlives its batch (wide datasets would otherwise cost
    gigabytes). Every batch must have the first one's (S, N). Returns the
    window-weighted MSE and MAE, their per-horizon-step breakdown and the
    window count.
    """
    sq_sum = abs_sum = 0.0
    windows = 0
    step_shape = None  # (S, N) of the first batch
    for pred, true in pairs:
        if pred.shape != true.shape:
            raise ShapeMismatchError(f"shapes differ: {pred.shape} vs {true.shape}")
        if step_shape is None:
            step_shape = true.shape[1:]
        elif true.shape[1:] != step_shape:
            raise ShapeMismatchError(f"a batch of shape {true.shape} follows batches of (S, N) = {step_shape}")
        diff = pred - true
        sq_sum = sq_sum + (diff**2).sum(axis=(0, 2))
        abs_sum = abs_sum + np.abs(diff).sum(axis=(0, 2))
        windows += true.shape[0]
    if not windows:
        raise InvalidConfigError("no windows to score")
    channels = step_shape[1]
    step_mse = sq_sum / (windows * channels)
    step_mae = abs_sum / (windows * channels)
    return {
        "mse": float(step_mse.mean()),
        "mae": float(step_mae.mean()),
        "per_horizon_mse": [float(v) for v in step_mse],
        "per_horizon_mae": [float(v) for v in step_mae],
        "windows": windows,
    }


def persistence_baseline(batch: WindowBatch) -> np.ndarray:
    """Repeat each window's last lookback value across the horizon."""
    horizon = batch.y.shape[1]
    return np.repeat(batch.x[:, -1:, :], horizon, axis=1)


@dataclass(frozen=True)
class ParamCount:
    total: int
    breakdown: dict[str, int]


# Parameter-name prefix -> accounting block.
_PARAM_BLOCKS = (
    ("lf.", "lf_head"),
    ("hf.", "hf_head"),
    ("moe.gate.", "moe_gate"),
    ("moe.expert", "moe_experts"),
    ("delta", "delta"),
    ("revin.", "revin_affine"),
)


def count_params(cfg: ModelConfig) -> ParamCount:
    """Learnable parameter count of ``param_shapes(cfg)``, summed by block."""
    breakdown: dict[str, int] = {}
    for name, shape in param_shapes(cfg).items():
        block = next(block for prefix, block in _PARAM_BLOCKS if name.startswith(prefix))
        breakdown[block] = breakdown.get(block, 0) + math.prod(shape)
    return ParamCount(total=sum(breakdown.values()), breakdown=breakdown)


@dataclass(frozen=True)
class MacCount:
    """Forward-pass multiply-accumulates per sample and per batch."""

    linear_per_sample: int
    transform_per_sample: int
    batch_size: int

    @property
    def total_per_sample(self) -> int:
        return self.linear_per_sample + self.transform_per_sample

    @property
    def linear_per_batch(self) -> int:
        return self.linear_per_sample * self.batch_size

    @property
    def total_per_batch(self) -> int:
        return self.total_per_sample * self.batch_size


def count_macs(cfg: ModelConfig, batch_size: int = 32) -> MacCount:
    """Closed-form MACs: Din*Dout per weight matrix of ``param_shapes(cfg)``
    per (sample, channel); the analysis transform adds K*(L/2) per channel
    (plus K*(S/2) for the synthesis step of variant I)."""
    if batch_size < 1:
        raise InvalidConfigError(f"batch_size must be >= 1, got {batch_size}")
    linear = sum(
        math.prod(shape)
        for name, shape in param_shapes(cfg).items()
        if name.rsplit(".", 1)[-1] in WEIGHT_LEAVES
    )
    taps = get_bank(cfg.bank).length
    transform = taps * cfg.half
    if cfg.layout.synthesize:
        transform += taps * cfg.head
    return MacCount(
        linear_per_sample=linear * cfg.channels,
        transform_per_sample=transform * cfg.channels,
        batch_size=batch_size,
    )


def hardware_note() -> str:
    """The platform, the versions, and how many threads the fold's blocks
    run on next to the BLAS thread setting that count was read from."""
    setting = blas_threads()
    blas = "BLAS threads unset" if setting is None else f"{setting[0]}={setting[1]}"
    return (
        f"{platform.system()} {platform.machine()}, "
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"cpu: {platform.processor() or 'unknown'}, "
        f"fold block workers: {_block_workers()} ({blas})"
    )


def time_mean(fn: Callable[[], object], repeats: int) -> float:
    """Mean wall-clock seconds of ``fn`` over ``repeats`` calls."""
    if repeats < 1:
        raise InvalidConfigError("repeats must be >= 1")
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


@dataclass
class RunReport:
    """One train/eval run: one row of ``report.csv`` and of the grid CSVs.

    ``macs_per_sample``/``macs_per_batch`` are the headline (linear-layer)
    figures; the fixed-transform share is reported separately. Timing
    fields stay None when nothing was measured - they are wall-clock and
    are excluded from determinism comparisons.
    """

    dataset: str
    variant: str
    lookback: int
    horizon: int
    channels: int
    bank: str
    seed: int
    mse: float
    mae: float
    param_count: int
    macs_per_sample: int
    macs_per_batch: int
    transform_macs_per_sample: int
    epochs_trained: int = 0
    epoch_time_s: float | None = None
    infer_time_ms: float | None = None


RunReport.CSV_FIELDS = tuple(f.name for f in fields(RunReport))  # the CSV columns, in field order


def write_reports_csv(reports: Sequence[RunReport], path: str | Path) -> None:
    write_csv(path, RunReport.CSV_FIELDS, ([getattr(r, name) for name in RunReport.CSV_FIELDS] for r in reports))


def read_reports_csv(path: str | Path) -> list[dict[str, str]]:
    import csv as _csv

    with open(path, newline="") as fh:
        return list(_csv.DictReader(fh))
