"""WaveTS: lightweight wavelet-domain time-series forecasters.

The package is organized by responsibility:

* :mod:`wavets.wavelet` - orthonormal filter banks and the (multi-level)
  discrete wavelet transform with periodic extension.
* :mod:`wavets.autodiff` / :mod:`wavets.optim` - a minimal reverse-mode
  tape over numpy buffers plus Adam.
* :mod:`wavets.revin` - reversible per-instance normalization.
* :mod:`wavets.moe` - the soft channel-clustering mixture of experts.
* :mod:`wavets.model` - the forecaster variants (B, S, M, I, LF, HF).
* :mod:`wavets.data` - CSV ingestion, splits, windows, synthetic series.
* :mod:`wavets.evaluation` - metrics, parameter/MAC accounting, reports.
* :mod:`wavets.training` - the seeded training loop.
* :mod:`wavets.cli` - the ``wavets`` command-line entry point.
"""

from .model import ModelConfig, forward, init_params, predict
from .moe import MoEConfig
from .wavelet import FilterBank, dwt_arrays, dwt_multi, idwt_arrays, idwt_multi

__version__ = "0.1.0"

__all__ = [
    "FilterBank",
    "ModelConfig",
    "MoEConfig",
    "__version__",
    "dwt_arrays",
    "dwt_multi",
    "forward",
    "idwt_arrays",
    "idwt_multi",
    "init_params",
    "predict",
]
