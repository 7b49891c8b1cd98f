"""Checkpoints, sidecars, configs, reports, gate reports and grid CSVs are written atomically,
and every CSV cell by one rule."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from wavets import checkpoint as ckpt
from wavets import cli
from wavets import evaluation as ev
from wavets import model as model_mod
from wavets import moe as moe_mod
from wavets.atomic import atomic_write, write_csv
from wavets.autodiff import Tensor
from wavets.config import RunConfig
from wavets.model import ModelConfig, init_params


class Unserializable:
    """Neither JSON nor a CSV cell can hold it."""

    def __str__(self):
        raise TypeError("cannot serialize")


REPORT = ev.RunReport(
    dataset="toy", variant="S", lookback=16, horizon=4, channels=2, bank="haar", seed=0,
    mse=0.125, mae=0.25, param_count=40, macs_per_sample=32, macs_per_batch=1024,
    transform_macs_per_sample=16,
)


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
    """benchmark rewrites the config beside its output (a run's goes to a fresh directory)."""
    argv = [
        "benchmark", "--variants", "S", "--channels", "2", "--lookback", "16", "--horizon", "4",
        "--output", str(tmp_path / "eff.csv"),
    ]
    assert cli.main(argv) == 0
    monkeypatch.setattr(RunConfig, "to_dict", lambda self: {"a": 1, "z": Unserializable()})
    _unchanged_after(tmp_path / "eff.config.json", lambda: cli.main(argv))


def test_report_serialization_error_keeps_the_previous_report(tmp_path):
    path = tmp_path / "report.csv"
    ev.write_reports_csv([REPORT], path)
    other = dataclasses.replace(REPORT, seed=1)
    broken = dataclasses.replace(REPORT, dataset=Unserializable())
    _unchanged_after(path, lambda: ev.write_reports_csv([other, broken], path))


def test_gate_report_error_mid_write_keeps_the_previous_report(tmp_path):
    rows = [
        {"channel": f"ch{n}", "expert_0": 0.25, "expert_1": 0.75, "argmax": 1, "entropy": 0.56}
        for n in range(2)
    ]
    path = tmp_path / "gates.csv"
    moe_mod.write_gate_report_csv(rows, path, num_experts=2)
    assert path.read_text().splitlines()[0] == "channel,expert_0,expert_1,argmax,entropy"
    broken = [dict(rows[0], expert_0=0.5), dict(rows[1], channel=Unserializable())]
    _unchanged_after(path, lambda: moe_mod.write_gate_report_csv(broken, path, num_experts=2))


def test_grid_csv_error_mid_write_keeps_the_previous_grid(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = run_dir / "sweep.csv"
    path.write_text("L,status\n16,ok\n")
    monkeypatch.setattr(cli, "make_run_dir", lambda cfg: run_dir)
    # the second cell trains to a report that no cell can hold, so its row fails after the first's
    broken = dataclasses.replace(REPORT, bank=Unserializable())
    monkeypatch.setattr(cli, "run_one_seed", lambda *args: (broken, {}, {}))
    args = [
        "sweep", "--lengths", "15,16",  # an odd lookback fails its cell at once
        "--data", "synth:sine_mix", "--synth-length", "400", "--synth-channels", "2",
        "--horizon", "4", "--out", str(tmp_path),
    ]
    _unchanged_after(path, lambda: cli.main(args))


def test_one_cell_rule_quotes_and_round_trips(tmp_path):
    """None is an empty cell, a float its shortest repr (which reads back to the
    same float), anything else str; the csv module quotes what needs it."""
    floats = [0.1, 1 / 3, -0.0, 1e-300, 2.5e17, float(np.float64(0.7)), math.pi]
    texts = ["a,b", 'say "hi"', "two\nlines", ""]
    path = tmp_path / "cells.csv"
    header = ["none", "int", *(f"f{i}" for i in range(len(floats))), *(f"s{i}" for i in range(len(texts)))]
    rows = [[None, -3, *floats, *texts], (value for value in [None, 12, *floats, *texts])]  # any iterable
    write_csv(path, header, rows)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 2 + len(floats) + len(texts) and len(rows) == 2
    for row, integer in zip(rows, ["-3", "12"]):
        assert row[:2] == ["", integer]
        assert [float(cell) for cell in row[2 : 2 + len(floats)]] == floats
        assert row[2 : 2 + len(floats)] == [repr(value) for value in floats]
        assert row[2 + len(floats) :] == texts
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3 and b',"a,b","say ""hi""","two\nlines",\r\n' in raw
