"""Soft channel-clustering mixture of experts for the low-frequency band.

A softmax gate maps each channel's coefficients to a probability vector
over experts; every expert is a two-layer ReLU MLP and the mixture is the
dense gate-weighted sum of all expert outputs (no top-k sparsification).

:func:`moe_forward` runs the gate and all E experts as one matmul and one
op. The matmul takes the gate's and every expert's first-layer weights,
concatenated on the tape into one (Din, E + E*H) matrix. Then
:func:`~wavets.autodiff.mixture` forms the gate and the ReLU units, and
contracts the units, each scaled by its gate probability, with the
experts' second-layer weights stacked into one (E*H, S) matrix, so that
the contraction over E*H is the gate-weighted sum:

  sum_e p_e * (h_e @ w2_e + b2_e) = (p * h) @ [w2_0; ...; w2_{E-1}] + p @ [b2_0; ...; b2_{E-1}]

Checkpoints keep one tensor per expert and layer; the concatenation is
rebuilt from them on every call, so the optimizer updates them in place.
The expert order is fixed, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import write_csv
from .autodiff import Tensor, _softmax, concat, linear, mixture
from .exceptions import InvalidConfigError, check_fields


@dataclass(frozen=True)
class MoEConfig:
    num_experts: int = 4
    hidden: int = 64

    def __post_init__(self) -> None:
        check_fields(self)
        if self.num_experts < 1:
            raise InvalidConfigError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.hidden < 1:
            raise InvalidConfigError(f"hidden must be >= 1, got {self.hidden}")


def param_shapes(cfg: MoEConfig, in_dim: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """Gate plus per-expert parameter shapes, keyed by their model names."""
    shapes: dict[str, tuple[int, ...]] = {
        "moe.gate.weight": (in_dim, cfg.num_experts),
        "moe.gate.bias": (cfg.num_experts,),
    }
    for e in range(cfg.num_experts):
        shapes[f"moe.expert{e}.w1"] = (in_dim, cfg.hidden)
        shapes[f"moe.expert{e}.b1"] = (cfg.hidden,)
        shapes[f"moe.expert{e}.w2"] = (cfg.hidden, out_dim)
        shapes[f"moe.expert{e}.b2"] = (out_dim,)
    return shapes


# A first layer: (x, weight, bias) -> output; model.band_forward's applies RevIN's affine.
FirstLayer = Callable[[Tensor, Tensor, Tensor], Tensor]


def gate(params: dict[str, Tensor], x: Tensor, first_layer: FirstLayer = linear) -> np.ndarray:
    """Per-channel expert probabilities as an array: the mixture's softmax of
    first_layer(x, Wg, bg) over the last axis."""
    return _softmax(first_layer(x, params["moe.gate.weight"], params["moe.gate.bias"]).data)


def moe_forward(
    params: dict[str, Tensor],
    cfg: MoEConfig,
    x: Tensor,
    first_layer: FirstLayer = linear,
) -> Tensor:
    """Dense mixture: sum_e gate[..., e] * expert_e(x), from one fused first
    layer and :func:`~wavets.autodiff.mixture`.

    ``first_layer(x, weight, bias)`` applies the concatenated first layer.
    """
    num = cfg.num_experts

    def joined(leaf: str, first: tuple[str, ...] = (), axis: int = -1) -> Tensor:
        names = [*first, *(f"moe.expert{e}.{leaf}" for e in range(num))]
        return concat([params[name] for name in names], axis=axis)

    pre = first_layer(x, joined("w1", ("moe.gate.weight",)), joined("b1", ("moe.gate.bias",)))  # (..., E + E*H)
    return mixture(pre, joined("w2", axis=0), joined("b2"), num)  # w2 (E*H, S), b2 (E*S,)


def gate_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of probability rows over the last axis."""
    p = np.clip(probabilities, 1e-300, None)
    return -(probabilities * np.log(p)).sum(axis=-1)


def gate_report(probs: np.ndarray, channel_names: list[str] | None = None) -> list[dict]:
    """Per-channel gate diagnostics over (B, N, E) gate probabilities.

    Each row holds the batch-mean gate vector, its argmax expert, and its
    entropy; mean vectors still sum to one because softmax rows do.
    """
    mean_probs = probs.mean(axis=0)  # (N, E)
    rows = []
    for n in range(mean_probs.shape[0]):
        row = {
            "channel": channel_names[n] if channel_names else str(n),
            "argmax": int(np.argmax(mean_probs[n])),
            "entropy": float(gate_entropy(mean_probs[n])),
        }
        for e in range(mean_probs.shape[1]):
            row[f"expert_{e}"] = float(mean_probs[n, e])
        rows.append(row)
    return rows


def write_gate_report_csv(rows: list[dict], path: str | Path, num_experts: int) -> None:
    header = ["channel"] + [f"expert_{e}" for e in range(num_experts)] + ["argmax", "entropy"]
    write_csv(path, header, ([row[k] for k in header] for row in rows))
