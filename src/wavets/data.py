"""CSV ingestion, chronological splits, window sampling, and synthetic series.

Leakage rules enforced here: standardization statistics come from the train
split only, and every lookback/horizon window is cut at stride 1 with the
horizon immediately following the lookback. Validation and test views may
carry lookback context from before their boundary so the first horizon
row of each split is predictable, but window targets never cross back.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .atomic import atomic_write
from .exceptions import (
    EmptyFileError,
    InvalidConfigError,
    NonFiniteInputError,
    ParseError,
    SeriesTooShortError,
    SpecOutOfRangeError,
)

log = logging.getLogger(__name__)

_TIMESTAMP_NAMES = {"date", "time", "timestamp", "datetime"}


@dataclass
class Series:
    """A T x N multivariate series plus channel labels."""

    values: np.ndarray
    channel_names: list[str]
    timestep: str = ""

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def _parse_cell(cell: str, row: int, col: int, name: str) -> float:
    text = cell.strip()
    if text == "" or text.lower() in ("nan", "na", "null"):
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column {col} ({name!r}): cannot parse {cell!r} as a number"
        ) from None


def _parse_fast(path: Path, start: int, columns: int) -> np.ndarray | None:
    """Vectorized parse of a plain numeric CSV; None when it does not apply.

    Anything loadtxt chokes on (empty cells, quoting, ragged rows) falls
    back to the per-cell parser, which reports exact error locations.
    """
    try:
        values = np.loadtxt(
            path,
            delimiter=",",
            skiprows=1,
            usecols=range(start, start + columns),
            ndmin=2,
        )
    except (ValueError, IndexError):
        return None
    return values


def _read_rows(path: Path, limit: int | None = None) -> tuple[list[str], list[list[str]]]:
    """The header and up to ``limit`` data rows (all of them by default)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path} is empty") from None
        return header, list(itertools.islice(reader, limit))


def load_csv(path: str | Path, timestep: str = "") -> Series:
    """Load a header-ed CSV; a leading timestamp column is dropped.

    Rows containing any NaN are dropped and counted in the log, matching
    the Series invariant that ingested values are finite; an infinite
    value fails the load with its row and column. Only the header and the
    first data row go through the csv module unless the vectorized parse
    fails.
    """
    path = Path(path)
    header, first = _read_rows(path, limit=1)
    if not first:
        raise EmptyFileError(f"{path} has a header but no data rows")

    drop_first = False
    if header and header[0].strip().lower() in _TIMESTAMP_NAMES:
        drop_first = True
    else:
        # No recognized name: drop the first column only if it is not numeric.
        try:
            float(first[0][0])
        except (ValueError, IndexError):
            drop_first = True
    start = 1 if drop_first else 0
    names = [h.strip() for h in header[start:]]
    if not names:
        raise ParseError(f"{path} has no numeric columns")

    values = _parse_fast(path, start, len(names))
    if values is None:
        _, rows = _read_rows(path)
        values = np.empty((len(rows), len(names)))
        for i, row in enumerate(rows):
            if len(row) - start != len(names):
                raise ParseError(
                    f"row {i + 2}: expected {len(names)} value columns, found {len(row) - start}"
                )
            for j, cell in enumerate(row[start:]):
                values[i, j] = _parse_cell(cell, i + 2, j + start + 1, names[j])

    finite = np.isfinite(values)
    if not finite.all():
        infinite = np.argwhere(~finite & ~np.isnan(values))
        if len(infinite):
            row, col = infinite[0]
            raise NonFiniteInputError(
                f"{path}: row {row + 2}, column {col + start + 1} ({names[col]!r}): "
                f"{values[row, col]} is not a finite number"
            )
        nan_rows = ~finite.all(axis=1)
        log.warning("%s: dropped %d rows containing NaN", path.name, int(nan_rows.sum()))
        values = values[~nan_rows]
    if values.shape[0] == 0:
        raise EmptyFileError(f"{path}: no rows left after dropping NaNs")
    return Series(values=values, channel_names=names, timestep=timestep)


def save_csv(series: Series, path: str | Path) -> None:
    """Write a Series, atomically, in the shape load_csv reads: a leading
    ``time`` column holding the row index, then one column per channel.

    load_csv drops that column, so every channel survives the round trip,
    also one named like a timestamp column.
    """
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *series.channel_names])
        for index, row in enumerate(series.values):
            writer.writerow([index, *(repr(float(v)) for v in row)])


SPLIT_SCHEMES = ("ratio", "ett_hours", "ett_minutes")

# Fixed row budgets for the ETT protocol splits (12/4/4 months).
_ETT_SIZES = {"ett_hours": (8640, 2880, 2880), "ett_minutes": (34560, 11520, 11520)}


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test boundaries for a length-T series."""

    scheme: str = "ratio"
    train_frac: float = 0.7
    val_frac: float = 0.1

    def boundaries(self, length: int) -> tuple[int, int, int]:
        if self.scheme == "ratio":
            b1 = int(length * self.train_frac)
            b2 = int(length * (self.train_frac + self.val_frac))
            b3 = length
        elif self.scheme in _ETT_SIZES:
            n_train, n_val, n_test = _ETT_SIZES[self.scheme]
            b1, b2, b3 = n_train, n_train + n_val, n_train + n_val + n_test
        else:
            raise InvalidConfigError(
                f"unknown split scheme {self.scheme!r}; choose from {SPLIT_SCHEMES}"
            )
        if not (0 < b1 < b2 <= b3 <= length):
            raise SpecOutOfRangeError(
                f"split boundaries ({b1}, {b2}, {b3}) do not fit series of length {length}"
            )
        return b1, b2, b3


def split(series: Series, spec: SplitSpec, lookback: int = 0) -> tuple[Series, Series, Series]:
    """Chronological train/val/test views.

    ``lookback`` rows of context are prepended to the val/test views so a
    window sampler's first target lands exactly on the boundary; horizon
    values therefore never come from a different split.
    """
    b1, b2, b3 = spec.boundaries(series.length)
    if lookback < 0 or lookback > b1:
        raise SpecOutOfRangeError(f"lookback {lookback} exceeds the train split ({b1} rows)")

    def view(start: int, stop: int) -> Series:
        return Series(
            values=series.values[start:stop],
            channel_names=series.channel_names,
            timestep=series.timestep,
        )

    return (
        view(0, b1),
        view(b1 - lookback, b2),
        view(b2 - lookback, b3),
    )


@dataclass(frozen=True)
class Standardizer:
    """Per-channel z-score fitted on the train split only."""

    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray  # channels whose train std was ~0 (left unscaled)

    @classmethod
    def fit(cls, train: Series) -> "Standardizer":
        mean = train.values.mean(axis=0)
        std = train.values.std(axis=0)
        degenerate = std <= 1e-12
        if degenerate.any():
            log.warning(
                "standardize: %d channel(s) have ~zero train variance; using std=1",
                int(degenerate.sum()),
            )
        return cls(mean=mean, std=np.where(degenerate, 1.0, std), degenerate=degenerate)

    def transform(self, series: Series) -> Series:
        return Series(
            values=(series.values - self.mean) / self.std,
            channel_names=series.channel_names,
            timestep=series.timestep,
        )

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def standardize(train: Series, *others: Series) -> tuple[Standardizer, list[Series]]:
    """Fit on train, apply to train plus any other splits."""
    scaler = Standardizer.fit(train)
    return scaler, [scaler.transform(s) for s in (train, *others)]


@dataclass
class WindowBatch:
    """Paired lookback/horizon tensors plus their origin row indices."""

    x: np.ndarray  # (B, L, N)
    y: np.ndarray  # (B, S, N)
    origins: np.ndarray  # (B,)


def _is_run(origins: np.ndarray, count: int) -> bool:
    """Whether ``origins`` is one ascending run ``o, o+1, ...`` of in-range window indices."""
    return (
        origins.ndim == 1
        and origins.size > 0
        and np.issubdtype(origins.dtype, np.integer)
        and 0 <= origins[0]
        and origins[-1] < count
        and bool((np.diff(origins) == 1).all())
    )


class WindowSampler:
    """Stride-1 sliding windows over a series.

    Exactly ``T - L - S + 1`` windows exist; batches are cut from a
    zero-copy sliding view, in deterministic order unless a shuffle
    generator is supplied. An unshuffled batch is a run of consecutive
    origins, so it comes back as read-only views of the series.
    """

    def __init__(self, series: Series, lookback: int, horizon: int):
        total = series.length
        if total < lookback + horizon:
            raise SeriesTooShortError(
                f"need at least {lookback + horizon} rows, series has {total}"
            )
        self.lookback = lookback
        self.horizon = horizon
        self.values = series.values
        self.origins = np.arange(total - lookback - horizon + 1)
        # Read-only (T - L - S + 1, L + S, N) view; row t is values[t : t + L + S].
        self._windows = np.lib.stride_tricks.sliding_window_view(
            series.values, lookback + horizon, axis=0
        ).transpose(0, 2, 1)

    def __len__(self) -> int:
        return len(self.origins)

    def gather(self, origins: np.ndarray) -> WindowBatch:
        """The windows starting at ``origins``.

        One ascending run of consecutive origins is a slice of the sliding
        view: ``x`` and ``y`` are then read-only views that share memory
        with the series, and nothing is copied. Any other set of origins
        (a shuffled batch, gaps, repeats) is fancy-indexed, which gives
        fresh C-contiguous copies.
        """
        origins = np.asarray(origins)
        if _is_run(origins, len(self._windows)):
            picked = self._windows[origins[0] : origins[-1] + 1]
            x, y = picked[:, : self.lookback], picked[:, self.lookback :]
        else:
            x, y = self._windows[origins, : self.lookback], self._windows[origins, self.lookback :]
        return WindowBatch(x=x, y=y, origins=origins)

    def batches(
        self,
        batch_size: int,
        shuffle: np.random.Generator | None = None,
    ) -> Iterator[WindowBatch]:
        order = self.origins
        if shuffle is not None:
            order = shuffle.permutation(order)
        for start in range(0, len(order), batch_size):
            yield self.gather(order[start : start + batch_size])


SYNTH_KINDS = ("sine_mix", "trend_sine", "noise_walk")


def sine_mix_params(channels: int, seed: int, length: int) -> list[list[tuple[int, float, float]]]:
    """Per-channel (dft_bin, amplitude, phase) triples for :func:`synth`.

    Frequencies sit on exact DFT bins so periodogram peaks are sharp; the
    2-3 bins per channel are drawn without harmonic relations.
    """
    rng = np.random.default_rng([seed, 0])
    low, high = 3, max(4, length // 8)
    per_channel = []
    for _ in range(channels):
        count = int(rng.integers(2, 4))
        bins: list[int] = []
        while len(bins) < count:
            candidate = int(rng.integers(low, high))
            if any(candidate == b or candidate % b == 0 or b % candidate == 0 for b in bins):
                continue
            bins.append(candidate)
        per_channel.append(
            [
                (b, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0, 2 * np.pi)))
                for b in bins
            ]
        )
    return per_channel


def synth(kind: str, length: int, channels: int, seed: int) -> Series:
    """Deterministic synthetic series for tests and CLI experiments."""
    if length < 1 or channels < 1:
        raise InvalidConfigError("length and channels must be positive")
    t = np.arange(length)
    values = np.empty((length, channels))
    if kind == "sine_mix":
        for n, components in enumerate(sine_mix_params(channels, seed, length)):
            wave = np.zeros(length)
            for dft_bin, amp, phase in components:
                wave += amp * np.sin(2 * np.pi * dft_bin * t / length + phase)
            values[:, n] = wave
    elif kind == "trend_sine":
        rng = np.random.default_rng([seed, 1])
        for n in range(channels):
            slope = float(rng.uniform(0.001, 0.01))
            period = float(rng.uniform(24, 96))
            amp = float(rng.uniform(0.5, 1.5))
            values[:, n] = slope * t + amp * np.sin(2 * np.pi * t / period)
    elif kind == "noise_walk":
        rng = np.random.default_rng([seed, 2])
        steps = rng.normal(scale=0.1, size=(length, channels))
        values = np.cumsum(steps, axis=0)
    else:
        raise InvalidConfigError(f"unknown synthetic kind {kind!r}; choose from {SYNTH_KINDS}")
    names = [f"ch{n}" for n in range(channels)]
    return Series(values=values, channel_names=names, timestep="synthetic")
