"""Seeded synthetic inputs shaped like the public ETTh1 and Electricity files.

The public CSVs are not part of the repository, so every workload reads a
file generated here from the workload seed: the same seed gives the same
bytes. Per-channel amplitudes, noise levels and scales are fixed schedules
that the seed only reorders; the seed draws phases and noise. That keeps
the forecasting difficulty, and so the test MSE, nearly the same from seed
to seed while the values themselves differ.

Run as a script to write one file:

    python3 perfbench/inputs.py electricity 7 26304 321 out.csv
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

ETTH1_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
STYLES = ("electricity", "etth1")
_START = {"electricity": "2016-07-01T02:00:00", "etth1": "2016-07-01T00:00:00"}


def _schedule(order: np.ndarray, low: float, high: float, log: bool = False) -> np.ndarray:
    grid = np.geomspace(low, high, len(order)) if log else np.linspace(low, high, len(order))
    return grid[order]


def values(style: str, seed: int, rows: int, channels: int) -> np.ndarray:
    """A (rows, channels) float64 array with daily and weekly seasonality.

    Electricity-style values are non-negative whole kW with two to five
    digits; ETTh1-style values are loads and an oil temperature with
    three decimals, as in the public files.
    """
    if style not in STYLES:
        raise ValueError(f"unknown input style {style!r}; choose from {STYLES}")
    rng = np.random.default_rng([seed, 7])
    t = np.arange(rows)[:, None]
    # One permutation for every schedule: each seed has the same set of
    # channels, in another order.
    order = rng.permutation(channels)
    daily = _schedule(order, 0.2, 0.5)
    weekly = _schedule(order, 0.05, 0.2)
    noise = _schedule(order, 0.05, 0.25)
    shape = (
        1.0
        + daily * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi, channels))
        + weekly * np.sin(2 * np.pi * t / 168 + rng.uniform(0, 2 * np.pi, channels))
        + noise * rng.standard_normal((rows, channels))
    )
    if style == "electricity":
        level = _schedule(order, 20.0, 20000.0, log=True)
        return np.rint(np.maximum(level * shape, 0.0))
    level = _schedule(order, 1.0, 30.0, log=True)
    return np.round(level * shape, 3)


def header(style: str, channels: int) -> list[str]:
    if style == "etth1" and channels == len(ETTH1_COLUMNS):
        return ["date", *ETTH1_COLUMNS]
    return ["date", *(str(n) for n in range(channels - 1)), "OT"]


def write_csv(style: str, seed: int, rows: int, channels: int, path: Path) -> None:
    """Write the CSV atomically, so an interrupted run leaves no partial file."""
    table = values(style, seed, rows, channels)
    start = np.datetime64(_START[style])
    dates = np.datetime_as_string(start + np.arange(rows).astype("timedelta64[h]"), unit="s")
    cell = str if style == "electricity" else "{:.3f}".format
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        fh.write(",".join(header(style, channels)) + "\n")
        for lo in range(0, rows, 2048):
            block = table[lo : lo + 2048].tolist()
            fh.writelines(
                date.replace("T", " ") + "," + ",".join(map(cell, row)) + "\n"
                for date, row in zip(dates[lo : lo + 2048], block)
            )
    os.replace(tmp, path)


if __name__ == "__main__":
    style, seed, rows, channels, out = sys.argv[1:]
    write_csv(style, int(seed), int(rows), int(channels), Path(out))
