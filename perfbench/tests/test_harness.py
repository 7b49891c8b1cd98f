"""Fast self-test of the benchmark harness at tiny shapes.

    python3 -m pytest -q perfbench/tests

Each workload runs through ``run.main`` with its shapes shrunk, so the
command's output format, metric names and units are checked against
``BENCHMARK.json`` without the reference-shape cost.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from wavets import model  # noqa: E402
from wavets.data import SplitSpec  # noqa: E402
from wavets.moe import MoEConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: workloads.Workload) -> workloads.Workload:
    cfg = workload.model
    channels = 7 if workload.style == "etth1" else 3
    moe = MoEConfig(num_experts=2, hidden=4) if cfg.moe else None
    small = dataclasses.replace(cfg, lookback=16, horizon=8, channels=channels, moe=moe)
    return dataclasses.replace(
        workload,
        rows=400,
        model=small,
        split=SplitSpec("ratio", 0.7, 0.1),
        train_windows=None if workload.train_windows is None else 40,
        test_windows=None if workload.test_windows is None else 40,
    )


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", {k: _tiny(w) for k, w in workloads.WORKLOADS.items()})


def _run(capsys, name: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert "env" in json.loads(lines[-2])
    return code, json.loads(lines[-1])


# Per-layer metrics that must be nonzero on each workload: the layers it
# runs. A wrap that stops matching its target would read 0 here.
TRAINING_LAYERS = (
    "data.load_csv.s",
    "data.load_csv.peak_mb",
    "data.standardize.s",
    "wavelet.dwt.calls",
    "wavelet.dwt.self_s",
    "wavelet.synthesize_band.calls",
    "wavelet.synthesize_band.self_s",
    "autodiff.ops_per_step",
    "autodiff.backward.self_s",
    "optim.step.calls",
    "optim.step.self_s",
    "training.train_model.s",
    "training.validation.s",
    "training.train_model.peak_mb",
)
COMMON_LAYERS = (
    "data.gather.calls",
    "data.gather.mb",
    "revin.forward.self_s",
    "revin.inverse.self_s",
    "model.forward.calls",
    "model.forward.s",
    "model.heads.self_s",
    "training.evaluate_model.self_s",
    "model.load_model.s",
    "checkpoint.load_params.s",
    "wavelet.macs",
    "model.linear_macs",
    "wavelet.gmacs_per_s",
    "model.heads.gmacs_per_s",
)
RUNS_LAYERS = {
    "electricity_b": TRAINING_LAYERS + COMMON_LAYERS,
    "etth1_m": TRAINING_LAYERS
    + COMMON_LAYERS
    + ("moe.forward.s", "moe.forward.self_s", "moe.linear.self_s"),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == workloads.END_TO_END


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(tiny, capsys, name, trace):
    code, result = _run(capsys, name, trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert [k for k in RUNS_LAYERS[name] if not result["metrics"][k]["value"] > 0] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly(tiny, capsys):
    counted = ("autodiff.ops_per_step", "wavelet.macs", "model.linear_macs")
    first, second = ([_run(capsys, "etth1_m", 1)[1]["metrics"][k]["value"] for k in counted] for _ in range(2))
    assert first == second
    assert first[0] == int(first[0]) > 0


def test_same_seed_same_test_mse(tiny, capsys):
    first = _run(capsys, "electricity_b", 0, seed=5)[1]["metrics"]["test_mse"]["value"]
    again = _run(capsys, "electricity_b", 0, seed=5)[1]["metrics"]["test_mse"]["value"]
    other = _run(capsys, "electricity_b", 0, seed=6)[1]["metrics"]["test_mse"]["value"]
    assert first == again != other


def test_failed_check_fails_the_command(tiny, capsys, monkeypatch):
    real = model.predict
    monkeypatch.setattr(model, "predict", lambda cfg, params, x: real(cfg, params, x) * np.nan)
    code, result = _run(capsys, "electricity_b", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "etth1_m", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
