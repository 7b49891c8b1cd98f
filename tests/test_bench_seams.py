"""The names the benchmark's tracer wraps must stay where it looks for them.

``perfbench/workloads.py::install`` reads each wrapped name with
``owner.__dict__[attr]``, so a refactor that moves or renames one fails
here, in the regular test run, rather than in a later ``--trace 1`` run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH_DIR)]

import workloads  # noqa: E402
from tracing import NAME, Tracer  # noqa: E402

from wavets import training  # noqa: E402
from wavets.data import Series, synth  # noqa: E402
from wavets.model import ModelConfig  # noqa: E402
from wavets.moe import MoEConfig  # noqa: E402


SPLIT = ((0, 120), (100, 160), (140, 200))


def _assert_train_and_eval_spans(cfg):
    series = synth("sine_mix", 200, 3, seed=0)
    train, val, test = (Series(series.values[a:b], series.channel_names) for a, b in SPLIT)
    tracer = Tracer()
    workloads.install(tracer)
    try:
        result = training.train_model(cfg, train, val, training.TrainSettings(max_epochs=1), seed=0)
        metrics = training.evaluate_model(cfg, result.params, test)
    finally:
        tracer.uninstall()
    assert np.isfinite(metrics["mse"])
    recorded = {span[NAME] for span in tracer.spans}
    for name in ("training.validation", "model.forward", "training.evaluate_model", "optim.step"):
        assert name in recorded, name
    assert training.forward.__module__ == "wavets.model"  # the originals are back


def test_tracer_hooks_record_train_and_eval_spans():
    _assert_train_and_eval_spans(ModelConfig("M", 16, 4, 3, bank="d4", moe=MoEConfig(num_experts=2, hidden=3)))


def test_tracer_hooks_record_fold_training_spans():
    """B trains through the fold, which the same spans must still attribute."""
    _assert_train_and_eval_spans(ModelConfig("B", 16, 4, 3, bank="haar"))
