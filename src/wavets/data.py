"""CSV ingestion, chronological splits, window sampling, and synthetic series.

Leakage rules enforced here: standardization statistics come from the train
split only, and every lookback/horizon window is cut at stride 1 with the
horizon immediately following the lookback. Validation and test views may
carry lookback context from before their boundary so the first horizon
row of each split is predictable, but window targets never cross back.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .atomic import write_csv
from .exceptions import (
    EmptyFileError,
    InvalidConfigError,
    NonFiniteInputError,
    ParseError,
    SeriesTooShortError,
    ShapeMismatchError,
    SpecOutOfRangeError,
    check_fields,
)

log = logging.getLogger(__name__)

_TIMESTAMP_NAMES = {"date", "time", "timestamp", "datetime"}


@dataclass
class Series:
    """A T x N multivariate series plus channel labels."""

    values: np.ndarray
    channel_names: list[str]

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


def _parse_fast(path: Path, start: int, columns: int, skip: int = 1) -> np.ndarray | None:
    """The values the per-cell parse reads, in one vectorized loadtxt call; None when it does not apply.

    loadtxt reads every line after the ``skip`` lines up to the header's end
    as ``start`` opaque one-byte fields and ``columns`` numbers. So it fails,
    and the per-cell parser reports the exact row and column, on any row of
    another width and on any value cell that is not a plain number: an
    empty, quoted, ``#`` or ``na`` cell. A dropped first cell that opens a
    quote may hide a comma or a line break from loadtxt, so it steps aside
    too. The values are a strided view of loadtxt's table, not a copy.

    loadtxt gets the path (read in chunks, faster) unless it would decompress that name.
    """
    fields = [("stamp", "S1")] * start + [("values", float, (columns,))]
    compressed = path.suffix in (".gz", ".bz2", ".xz", ".lzma")  # names loadtxt would decompress
    try:
        with open(path, newline="") if compressed else contextlib.nullcontext(path) as source:
            table = np.loadtxt(source, dtype=fields, delimiter=",", comments=None, skiprows=skip, ndmin=1)
    except ValueError:
        return None
    if start and (table["stamp"] == b'"').any():
        return None
    return table["values"]


def load_csv(path: str | Path) -> Series:
    """Load a header-ed CSV; a leading timestamp column is dropped.

    One csv reader gives the rows. A blank line is no row and takes no row
    number (the header is row 1), and there is no comment syntax. The first
    column is dropped when its header names a timestamp or the first data
    row's cell there is no number, and every row must hold as many cells
    as the header. Rows containing any NaN are dropped and counted in the
    log, matching the Series invariant that ingested values are finite; an
    infinite value fails the load with its row and column. Only the header
    and the first data row go through the csv module unless
    :func:`_parse_fast` steps aside. A file that does not decode as text,
    such as a compressed one, is a ParseError.
    """
    path = Path(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not a text CSV: {exc}") from None


def _read_csv(path: Path) -> Series:
    with open(path, newline="") as fh:
        taken = itertools.count()  # the next value is the number of lines the reader has taken
        rows = filter(None, csv.reader(line for line, _ in zip(fh, taken)))
        header = next(rows, None)
        if header is None:
            raise EmptyFileError(f"{path} is empty")
        skip = next(taken)
        first = next(rows, None)
        if first is None:
            raise EmptyFileError(f"{path} has a header but no data rows")

        start = 1 if header[0].strip().lower() in _TIMESTAMP_NAMES else 0
        try:
            _parse_cell(first[0], 2, 1, header[0])
        except ParseError:
            start = 1
        names = [h.strip() for h in header[start:]]
        if not names:
            raise ParseError(f"{path} has no numeric columns")

        values = _parse_fast(path, start, len(names), skip)
        if values is None:
            rows = [first, *rows]
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
    return Series(values=values, channel_names=names)


def save_csv(series: Series, path: str | Path) -> None:
    """Write a Series, atomically, in the shape load_csv reads: a leading
    ``time`` column holding the row index, then one column per channel.

    load_csv drops that column, so every channel survives the round trip,
    also one named like a timestamp column.
    """
    rows = ([index, *row.tolist()] for index, row in enumerate(series.values))
    write_csv(path, ["time", *series.channel_names], rows)


SPLIT_SCHEMES = ("ratio", "ett_hours", "ett_minutes")

# Fixed row budgets for the ETT protocol splits (12/4/4 months).
_ETT_SIZES = {"ett_hours": (8640, 2880, 2880), "ett_minutes": (34560, 11520, 11520)}


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test boundaries for a length-T series."""

    scheme: str = "ratio"
    train_frac: float = 0.7
    val_frac: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self)

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
        return Series(values=series.values[start:stop], channel_names=series.channel_names)

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
        return Series(values=(series.values - self.mean) / self.std, channel_names=series.channel_names)


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


def check_origins(origins, count: int) -> np.ndarray:
    """``origins`` as an array, checked to be a non-empty 1-D integer array of
    window indices in [0, ``count``); anything else raises ShapeMismatchError."""
    origins = np.asarray(origins)
    if origins.ndim != 1 or origins.size == 0 or not np.issubdtype(origins.dtype, np.integer):
        raise ShapeMismatchError(f"origins must be a non-empty 1-D integer array, got {origins!r}")
    if origins.min() < 0 or origins.max() >= count:
        raise ShapeMismatchError(f"origins must lie in [0, {count})")
    return origins


def take_windows(source: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Rows ``origins`` of a window stack such as :attr:`WindowSampler.lookbacks`,
    for origins that passed :func:`check_origins`.

    One ascending run of consecutive origins is a slice, so a view of
    ``source`` comes back and nothing is copied. Any other set of origins
    (shuffled, with gaps or repeats) is fancy-indexed, which gives a fresh
    C-contiguous copy.
    """
    if (np.diff(origins) == 1).all():
        return source[origins[0] : origins[-1] + 1]
    return source[origins]


class WindowSampler:
    """Stride-1 sliding windows over a series.

    Exactly ``T - L - S + 1`` windows exist. :attr:`lookbacks` and
    :attr:`targets` are read-only zero-copy sliding views of the series:
    row t is the lookback ``values[t : t + L]`` and the target
    ``values[t + L : t + L + S]``. Batches of origins come in
    deterministic order unless a shuffle generator is supplied; an
    unshuffled batch is a run of consecutive origins, so
    :meth:`gather` gives it back as read-only views of the series.
    """

    def __init__(self, series: Series, lookback: int, horizon: int):
        total = series.length
        if total < lookback + horizon:
            raise SeriesTooShortError(
                f"need at least {lookback + horizon} rows, series has {total}"
            )
        self.origins = np.arange(total - lookback - horizon + 1)
        # Read-only (T - L - S + 1, L + S, N) view; row t is values[t : t + L + S].
        windows = np.lib.stride_tricks.sliding_window_view(
            series.values, lookback + horizon, axis=0
        ).transpose(0, 2, 1)
        self.lookbacks = windows[:, :lookback]  # (T - L - S + 1, L, N)
        self.targets = windows[:, lookback:]  # (T - L - S + 1, S, N)

    def __len__(self) -> int:
        return len(self.origins)

    def gather(self, origins: np.ndarray) -> WindowBatch:
        """The windows starting at ``origins``, taken by :func:`take_windows`:
        read-only views of the series for one ascending run, copies otherwise.
        Origins that fail :func:`check_origins` raise ShapeMismatchError."""
        origins = check_origins(origins, len(self))
        return WindowBatch(
            x=take_windows(self.lookbacks, origins), y=take_windows(self.targets, origins), origins=origins
        )

    def batch_origins(
        self,
        batch_size: int,
        shuffle: np.random.Generator | None = None,
    ) -> Iterator[np.ndarray]:
        """The origins of each batch, in order or permuted by ``shuffle``."""
        if batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {batch_size}")
        order = self.origins
        if shuffle is not None:
            order = shuffle.permutation(order)
        for start in range(0, len(order), batch_size):
            yield order[start : start + batch_size]

    def batches(
        self,
        batch_size: int,
        shuffle: np.random.Generator | None = None,
    ) -> Iterator[WindowBatch]:
        """:meth:`gather` of each of :meth:`batch_origins`."""
        return (self.gather(origins) for origins in self.batch_origins(batch_size, shuffle))


SYNTH_KINDS = ("sine_mix", "trend_sine", "noise_walk")


def sine_mix_params(channels: int, seed: int, length: int) -> list[list[tuple[int, float, float]]]:
    """Per-channel (dft_bin, amplitude, phase) triples for :func:`synth`.

    Frequencies sit on exact DFT bins so periodogram peaks are sharp; the
    2-3 bins per channel are drawn without harmonic relations. A series too
    short to hold the next bin is a config error, found before that draw.
    """
    rng = np.random.default_rng([seed, 0])
    low, high = 3, max(4, length // 8)

    def unrelated(candidate: int, bins: list[int]) -> bool:
        return all(candidate % b and b % candidate for b in bins)

    per_channel = []
    for _ in range(channels):
        count = int(rng.integers(2, 4))
        bins: list[int] = []
        while len(bins) < count:
            if not any(unrelated(c, bins) for c in range(low, high)):
                raise InvalidConfigError(
                    f"sine_mix needs {count} unrelated DFT bins in [{low}, {high}); length {length} is too short"
                )
            candidate = int(rng.integers(low, high))
            while not unrelated(candidate, bins):
                candidate = int(rng.integers(low, high))
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
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
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
    return Series(values=values, channel_names=names)
