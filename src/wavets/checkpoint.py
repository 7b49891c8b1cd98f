"""Parameter checkpoints: a JSON manifest of float32 buffers.

Each entry is ``{"name", "shape", "values"}`` with values stored row-major.
float32 values survive the JSON round trip bit-exactly because Python's
shortest-repr float serialization is lossless for doubles, and every
float32 is exactly representable as a double. Saving, loading, and saving
again therefore yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor
from .exceptions import NonFiniteInputError, ParseError

FORMAT_NAME = "wavets.checkpoint"
FORMAT_VERSION = 1
_NOT_FINITE = "{}: parameter {!r} has a value that is not a finite float32"


def _buffer(value) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d scalars to 1-d; asarray keeps rank.
    data = value.data if isinstance(value, Tensor) else np.asarray(value)
    return np.asarray(data, dtype=np.float32)


def save_params(params: dict[str, Tensor | np.ndarray], path: str | Path) -> None:
    """Write parameters to ``path`` atomically, sorted by name for stable bytes."""
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "params": [
            {
                "name": name,
                "shape": list(_buffer(params[name]).shape),
                "values": [float(x) for x in _buffer(params[name]).ravel()],
            }
            for name in sorted(params)
        ],
    }
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as float32 arrays keyed by parameter name.

    Anything but a well-formed manifest of this format and version, with
    each name once, raises :class:`ParseError`; a NaN, an infinity or a value
    past the float32 range raises :class:`NonFiniteInputError`.
    """
    try:
        manifest = json.loads(Path(path).read_text())
    except ValueError as exc:  # also an int literal past the 4300-digit limit
        raise ParseError(f"invalid checkpoint file {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ParseError(f"{path} is not a {FORMAT_NAME} file")
    if manifest.get("version") != FORMAT_VERSION:
        raise ParseError(
            f"{path} has checkpoint version {manifest.get('version')!r}; expected {FORMAT_VERSION}"
        )
    entries = manifest.get("params")
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'params' must be a list of parameter entries")
    out: dict[str, np.ndarray] = {}
    for index, entry in enumerate(entries):
        try:
            name, shape = entry["name"], entry["shape"]
            try:
                values = np.asarray(entry["values"], dtype=np.float64)
            except OverflowError:  # an int past the float64 range
                raise NonFiniteInputError(_NOT_FINITE.format(path, name)) from None
            expected = int(np.prod(shape)) if shape else 1
            if values.size != expected:
                raise ParseError(f"parameter {name!r}: {values.size} values for shape {shape}")
            if name in out:
                raise ParseError(f"{path}: parameter {name!r} appears more than once")
            if not (np.abs(values) <= np.finfo(np.float32).max).all():  # NaN, infinite or past float32
                raise NonFiniteInputError(_NOT_FINITE.format(path, name))
            out[name] = values.astype(np.float32).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed parameter entry {index}: {exc!r}") from exc
    return out
