"""Error types raised across the library, and :func:`check_fields`, the one type rule
that every config class runs first; config modules import it here without a cycle.

Every exception carries a short machine-parsable ``reason`` tag that the CLI
prints on failure (``config``, ``data``, ``numeric``, ``shape`` or ``depth``).
"""

import dataclasses
import sys


class WavetsError(Exception):
    """Base class for all library errors."""

    reason = "error"


class InvalidConfigError(WavetsError):
    reason = "config"


_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def check_fields(config) -> None:
    """Every field of the dataclass ``config`` annotated ``str``, ``int``, ``float``
    or ``bool`` holds that type, else InvalidConfigError. A bool is no number and an
    int is a float; a float must be finite, so an int past the float range fails too."""
    for f in dataclasses.fields(config):
        kind, value = getattr(f.type, "__name__", f.type), getattr(config, f.name)
        if kind not in _FIELD_TYPES:
            continue
        if not isinstance(value, _FIELD_TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
            raise InvalidConfigError(f"{f.name} must be {'an' if kind == 'int' else 'a'} {kind}, got {value!r}")
        if kind == "float" and not abs(value) <= sys.float_info.max:  # NaN, infinite, or an int too large
            raise InvalidConfigError(f"{f.name} must be a finite float, got {value!r}")


class ConfigMismatchError(WavetsError):
    """Parameters were built for a different model configuration."""

    reason = "config"


class ShapeMismatchError(WavetsError):
    reason = "shape"


class OddLengthError(WavetsError):
    """Transform input length must be even."""

    reason = "data"


class FilterTooLongError(WavetsError):
    """Filter has more taps than the signal has samples."""

    reason = "data"


class DepthTooLargeError(WavetsError):
    """Requested decomposition depth does not divide the signal length."""

    reason = "depth"


class NonFiniteInputError(WavetsError):
    reason = "numeric"


class NonFiniteGradientError(WavetsError):
    reason = "numeric"


class DegenerateWindowError(WavetsError):
    """Normalization window too short to compute statistics."""

    reason = "data"


class ZeroGainError(WavetsError):
    """Affine gain too close to zero to invert."""

    reason = "numeric"


class ParseError(WavetsError):
    reason = "data"


class EmptyFileError(WavetsError):
    reason = "data"


class SpecOutOfRangeError(WavetsError):
    """Split boundaries do not fit the series."""

    reason = "data"


class SeriesTooShortError(WavetsError):
    """Series shorter than one lookback+horizon window."""

    reason = "data"


class ReconstructionError(WavetsError):
    """Inverse transform failed to reproduce the input within tolerance."""

    reason = "numeric"
