"""Checkpoints, sidecars, configs, reports, gate reports and grid CSVs are written atomically."""

import csv
import dataclasses
import os

import numpy as np
import pytest

from wavets import checkpoint as ckpt
from wavets import cli
from wavets import evaluation as ev
from wavets import model as model_mod
from wavets import moe as moe_mod
from wavets.atomic import atomic_write
from wavets.autodiff import Tensor
from wavets.config import RunConfig, write_config
from wavets.model import ModelConfig, init_params


class Unserializable:
    pass


def _unchanged_after(path, fails, exc=TypeError):
    """Run ``fails``, which must raise; ``path`` keeps its bytes and no temp file is left."""
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    with pytest.raises(exc):
        fails()
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing


def test_failed_block_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def fails():
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")

    _unchanged_after(path, fails, RuntimeError)
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


def test_new_file_gets_the_default_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    with atomic_write(tmp_path / "atomic.txt") as fh:
        fh.write("x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


def test_checkpoint_serialization_error_keeps_the_previous_checkpoint(tmp_path):
    path = tmp_path / "ckpt.json"
    ckpt.save_params({"w": Tensor(np.arange(3.0))}, path)
    # the name is written after the manifest header, so the failure is mid-file
    _unchanged_after(path, lambda: ckpt.save_params({b"w": Tensor(np.arange(3.0))}, path))


def test_sidecar_serialization_error_keeps_the_previous_sidecar(tmp_path, monkeypatch):
    cfg = ModelConfig("S", 8, 4, 2)
    params = init_params(cfg, 0)
    path = tmp_path / "model.json"
    model_mod.save_model(cfg, params, path)
    monkeypatch.setattr(ModelConfig, "to_dict", lambda self: {"bank": "haar", "variant": Unserializable()})
    _unchanged_after(model_mod.config_sidecar_path(path), lambda: model_mod.save_model(cfg, params, path))


def test_config_serialization_error_keeps_the_previous_config(tmp_path, monkeypatch):
    cfg = RunConfig()
    path = tmp_path / "config.json"
    write_config(cfg, path)
    monkeypatch.setattr(RunConfig, "to_dict", lambda self: {"a": 1, "z": Unserializable()})
    _unchanged_after(path, lambda: write_config(cfg, path))


def test_report_serialization_error_keeps_the_previous_report(tmp_path):
    report = ev.RunReport(
        dataset="toy", variant="S", lookback=16, horizon=4, channels=2, bank="haar", seed=0,
        mse=0.125, mae=0.25, param_count=40, macs_per_sample=32, macs_per_batch=1024,
        transform_macs_per_sample=16,
    )
    path = tmp_path / "report.csv"
    ev.write_reports_csv([report], path)

    class Broken:
        def csv_row(self):
            raise TypeError("cannot serialize")

    other = dataclasses.replace(report, seed=1)
    _unchanged_after(path, lambda: ev.write_reports_csv([other, Broken()], path))


def test_gate_report_error_mid_write_keeps_the_previous_report(tmp_path):
    rows = [
        {"channel": f"ch{n}", "expert_0": 0.25, "expert_1": 0.75, "argmax": 1, "entropy": 0.56}
        for n in range(2)
    ]
    path = tmp_path / "gates.csv"
    moe_mod.write_gate_report_csv(rows, path, num_experts=2)
    assert path.read_text().splitlines()[0] == "channel,expert_0,expert_1,argmax,entropy"
    broken = [dict(rows[0], expert_0=0.5), {"channel": "ch1"}]  # the second row lacks its values
    _unchanged_after(path, lambda: moe_mod.write_gate_report_csv(broken, path, num_experts=2), KeyError)


def test_grid_csv_error_mid_write_keeps_the_previous_grid(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    write_config(RunConfig(), run_dir / "config.json")  # the grid rewrites it before its cells
    path = run_dir / "sweep.csv"
    path.write_text("L,status\n16,ok\n")
    monkeypatch.setattr(cli, "make_run_dir", lambda cfg: run_dir)

    def writerows(self, rows):  # the header is out; fail after the first row
        self.writerow(rows[0])
        raise RuntimeError("interrupted")

    monkeypatch.setattr(csv.DictWriter, "writerows", writerows)
    args = [
        "sweep", "--lengths", "15,17",  # odd lookbacks fail their cells at once
        "--data", "synth:sine_mix", "--synth-length", "400", "--synth-channels", "2",
        "--horizon", "4", "--out", str(tmp_path),
    ]
    _unchanged_after(path, lambda: cli.main(args), RuntimeError)
