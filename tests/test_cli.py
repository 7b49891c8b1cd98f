import json
from pathlib import Path

import numpy as np
import pytest

from wavets import data
from wavets.cli import main, make_run_dir
from wavets.config import RunConfig
from wavets.evaluation import read_reports_csv

TINY_TRAIN = [
    "train",
    "--data", "synth:sine_mix",
    "--synth-length", "600",
    "--synth-channels", "2",
    "--variant", "S",
    "--lookback", "16",
    "--horizon", "4",
    "--max-epochs", "2",
    "--seed", "0",
]


def run_dirs(out):
    return sorted(p for p in Path(out).iterdir() if p.is_dir())


def test_same_second_runs_get_separate_directories(tmp_path, monkeypatch):
    monkeypatch.setattr("time.strftime", lambda fmt: "20260101-000000")
    cfg = RunConfig(out=str(tmp_path / "runs"))
    first, second, third = (make_run_dir(cfg) for _ in range(3))
    assert len({first, second, third}) == 3
    assert run_dirs(tmp_path / "runs") == sorted([first, second, third])
    assert first.name.startswith("20260101-000000-")
    assert second.name == first.name + "-1" and third.name == first.name + "-2"


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    for name in ("config.json", "report.csv", "checkpoint.json", "checkpoint.config.json", "details.json"):
        assert (run_dir / name).exists(), name
    rows = read_reports_csv(run_dir / "report.csv")
    assert len(rows) == 1
    assert rows[0]["variant"] == "S"
    assert float(rows[0]["mse"]) >= 0.0
    assert rows[0]["epochs_trained"] == "2"
    details = json.loads((run_dir / "details.json").read_text())
    assert details["runs"][0]["persistence"]["mse"] > 0.0
    config = json.loads((run_dir / "config.json").read_text())
    assert config["lookback"] == 16  # replayable config snapshot


def test_train_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*TINY_TRAIN, "--out", str(out_a)]) == 0
    assert main([*TINY_TRAIN, "--out", str(out_b)]) == 0
    (dir_a,), (dir_b,) = run_dirs(out_a), run_dirs(out_b)
    rows_a = read_reports_csv(dir_a / "report.csv")
    rows_b = read_reports_csv(dir_b / "report.csv")
    timing = {"epoch_time_s", "infer_time_ms"}
    for row_a, row_b in zip(rows_a, rows_b):
        det_a = {k: v for k, v in row_a.items() if k not in timing}
        det_b = {k: v for k, v in row_b.items() if k not in timing}
        assert det_a == det_b
    assert (dir_a / "checkpoint.json").read_bytes() == (dir_b / "checkpoint.json").read_bytes()


def test_train_multi_seed_summary(tmp_path, capsys):
    out = tmp_path / "runs"
    args = [*TINY_TRAIN, "--out", str(out), "--seeds", "0,1"]
    assert main(args) == 0
    (run_dir,) = run_dirs(out)
    rows = read_reports_csv(run_dir / "report.csv")
    assert [r["seed"] for r in rows] == ["0", "1"]
    assert (run_dir / "checkpoint_seed0.json").exists()
    assert (run_dir / "checkpoint_seed1.json").exists()
    details = json.loads((run_dir / "details.json").read_text())
    assert "mse_mean" in details["summary"]
    assert "±" in capsys.readouterr().out


def test_train_missing_csv_reports_data_reason(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r")])
    assert code != 0
    assert "error data" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"variant": "S", "lookbak": 16}))
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code != 0
    err = capsys.readouterr().err
    assert "error config" in err
    assert "lookbak" in err


def test_eval_subcommand(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    capsys.readouterr()
    code = main([
        "eval",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--data", "synth:sine_mix",
        "--synth-length", "600",
        "--synth-channels", "2",
    ])
    assert code == 0
    assert "test mse" in capsys.readouterr().out


def _trained_run(tmp_path, capsys, *extra):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out), "--split", "ratio", "--train-frac", "0.6", *extra]) == 0
    (run_dir,) = run_dirs(out)
    capsys.readouterr()
    return run_dir


def test_eval_takes_the_protocol_from_the_run_config(tmp_path, capsys):
    """With no data flags, eval scores the run's own test split."""
    run_dir = _trained_run(tmp_path, capsys)
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.json")]) == 0
    (row,) = read_reports_csv(run_dir / "report.csv")
    assert f"test mse {float(row['mse']):.6f} " in capsys.readouterr().out


def test_eval_rejects_a_flag_that_disagrees_with_the_run_config(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--split", "ett_hours"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: split='ett_hours' disagrees with "), err


def test_eval_accepts_flags_that_match_the_run_config(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    code = main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--split", "ratio", "--train-frac", "0.60", "--synth-channels", "2", "--standardize",
    ])
    assert code == 0
    (row,) = read_reports_csv(run_dir / "report.csv")
    assert f"test mse {float(row['mse']):.6f} " in capsys.readouterr().out


def test_eval_of_a_malformed_checkpoint_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    checkpoint = run_dir / "checkpoint.json"
    sidecar = run_dir / "checkpoint.config.json"
    good = {path: path.read_text() for path in (checkpoint, sidecar)}
    manifest = json.loads(good[checkpoint])
    config = json.loads(good[sidecar])
    cases = [
        (checkpoint, json.dumps({**manifest, "version": 7}), "data"),
        (checkpoint, json.dumps({k: v for k, v in manifest.items() if k != "params"}), "data"),
        (checkpoint, json.dumps(manifest["params"]), "data"),
        (sidecar, good[sidecar][:-5], "data"),
        (sidecar, json.dumps({**config, "lookbak": 16}), "config"),
    ]
    for path, text, reason in cases:
        path.write_text(text)
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(checkpoint),
            "--data", "synth:sine_mix", "--synth-length", "600", "--synth-channels", "2",
        ])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1, text
        assert len(err) == 1 and err[0].startswith(f"error {reason}: "), err
        path.write_text(good[path])


def test_decompose_constant_column_and_reconstruct(tmp_path):
    csv_path = tmp_path / "input.csv"
    rng = np.random.default_rng(0)
    rows = ["steady,wiggly"]
    wiggly = rng.normal(size=32)
    rows += [f"4.25,{float(wiggly[i])!r}" for i in range(32)]
    csv_path.write_text("\n".join(rows) + "\n")

    bands_path = tmp_path / "bands.csv"
    recon_path = tmp_path / "recon.csv"
    code = main([
        "decompose",
        "--input", str(csv_path),
        "--output", str(bands_path),
        "--bank", "d4",
        "--levels", "2",
        "--reconstruct", str(recon_path),
    ])
    assert code == 0
    lines = bands_path.read_text().strip().splitlines()
    assert lines[0] == "channel,band,index,value"
    steady_details = [
        float(line.split(",")[3])
        for line in lines[1:]
        if line.startswith("steady,detail")
    ]
    assert steady_details and max(abs(v) for v in steady_details) < 1e-12
    original = data.load_csv(csv_path)
    recon = data.load_csv(recon_path)
    assert np.max(np.abs(recon.values - original.values)) < 1e-8


def test_decompose_depth_error(tmp_path, capsys):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text("a\n" + "\n".join(str(float(i)) for i in range(12)) + "\n")
    code = main([
        "decompose",
        "--input", str(csv_path),
        "--output", str(tmp_path / "bands.csv"),
        "--levels", "3",
    ])
    assert code != 0
    assert "error depth" in capsys.readouterr().err


def test_benchmark_headline_row(tmp_path, capsys):
    code = main([
        "benchmark",
        "--variants", "B,S,M",
        "--channels", "321",
        "--lookback", "720",
        "--horizon", "96",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[0].split(",")
    rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in out[1:]}
    assert rows["B"]["param_count"] == "69955"
    assert rows["B"]["macs_per_batch"] == "710000640"
    assert rows["S"]["macs_per_batch"] == "355000320"
    assert rows["B"]["epoch_time_s"] == ""  # not measured -> absent, not zero


def test_benchmark_unknown_variant(capsys):
    assert main(["benchmark", "--variants", "Q", "--channels", "4"]) != 0
    assert "error config" in capsys.readouterr().err


def test_ablate_empty_grid_is_noop(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "ablate", "--grid", "",
        "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "2",
        "--lookback", "16", "--horizon", "4", "--max-epochs", "1",
        "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "ablation.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_ablate_small_grid(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "ablate", "--grid", "S,HF,delta-fixed",
        "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "2",
        "--variant", "B", "--lookback", "16", "--horizon", "4",
        "--max-epochs", "1", "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    rows = list(read_reports_csv(run_dir / "ablation.csv"))
    assert [r["cell"] for r in rows] == ["S", "HF", "delta-fixed"]
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["variant"] == "S"
    assert rows[2]["variant"] == "B"  # delta-fixed keeps the base variant


def test_sweep_single_length(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "sweep", "--lengths", "16",
        "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "2",
        "--horizon", "4", "--max-epochs", "1", "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    rows = list(read_reports_csv(run_dir / "sweep.csv"))
    assert len(rows) == 1
    assert rows[0]["L"] == "16"
    assert rows[0]["status"] == "ok"


def test_sweep_failed_cell_writes_error_row(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "sweep", "--lengths", "15,16",
        "--data", "synth:sine_mix",
        "--synth-length", "400", "--synth-channels", "2",
        "--horizon", "4", "--max-epochs", "1", "--out", str(out),
    ])
    assert code == 0  # recorded per cell, the sweep goes on
    (run_dir,) = run_dirs(out)
    rows = list(read_reports_csv(run_dir / "sweep.csv"))
    assert [(r["L"], r["status"]) for r in rows] == [("15", "error:config"), ("16", "ok")]
    assert rows[0]["mse"] == rows[0]["mae"] == ""
    assert rows[1]["lookback"] == "16" and float(rows[1]["mse"]) > 0.0


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--seeds", "0,1", "--variant", "M", "--moe-experts", "2", "--moe-hidden", "4"],
        ["ablate", "--grid", "S,B"],
        ["sweep", "--lengths", "16,32"],
    ],
    ids=["train", "ablate", "sweep"],
)
def test_each_command_parses_its_csv_once(tmp_path, monkeypatch, command):
    path = tmp_path / "series.csv"
    data.save_csv(data.synth("sine_mix", 400, 3, seed=1), path)
    calls = []
    load_csv = data.load_csv

    def counting_load_csv(*args, **kwargs):
        calls.append(args)
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(data, "load_csv", counting_load_csv)
    out = tmp_path / "runs"
    assert main([
        *command, "--data", str(path), "--lookback", "16", "--horizon", "4",
        "--max-epochs", "1", "--out", str(out),
    ]) == 0
    assert len(calls) == 1
    (run_dir,) = run_dirs(out)
    if command[0] == "train":
        assert (run_dir / "gates_seed0.csv").exists() and (run_dir / "gates_seed1.csv").exists()


def test_synth_roundtrip(tmp_path):
    out_csv = tmp_path / "series.csv"
    assert main([
        "synth", "--kind", "trend_sine", "--length", "128", "--channels", "3",
        "--seed", "9", "--output", str(out_csv),
    ]) == 0
    series = data.load_csv(out_csv)
    assert series.values.shape == (128, 3)
    want = data.synth("trend_sine", 128, 3, seed=9)
    assert np.max(np.abs(series.values - want.values)) < 1e-15


def test_table_grid(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out)]) == 0
    assert main([*TINY_TRAIN, "--variant", "LF", "--out", str(out)]) == 0
    capsys.readouterr()
    table_csv = tmp_path / "table.csv"
    assert main(["table", "--runs", str(out), "--output", str(table_csv)]) == 0
    text = capsys.readouterr().out
    assert "# synth:sine_mix" in text
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "horizon,LF,S"
    cells = lines[1].split(",")
    assert cells[0] == "4"
    assert "/" in cells[1] and "/" in cells[2]  # mse/mae pairs
    assert table_csv.read_text() == text


def test_decompose_is_idempotent(tmp_path):
    csv_path = tmp_path / "input.csv"
    series = data.synth("sine_mix", 64, 2, seed=4)
    data.save_csv(series, csv_path)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (first, second):
        assert main(["decompose", "--input", str(csv_path), "--output", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_ablate_bank_grid_completes_with_timings(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "ablate", "--grid", "haar,d4,sym4,coif1",
        "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "2",
        "--variant", "S", "--lookback", "16", "--horizon", "4",
        "--max-epochs", "1", "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    rows = list(read_reports_csv(run_dir / "ablation.csv"))
    assert [r["cell"] for r in rows] == ["haar", "d4", "sym4", "coif1"]
    assert all(r["status"] == "ok" for r in rows)
    # epoch times are recorded per bank so speed orderings can be compared
    assert all(float(r["epoch_time_s"]) > 0 for r in rows)


def test_sweep_longer_lookback_helps_periodic_data(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "sweep", "--lengths", "96,336,720",
        "--data", "synth:sine_mix",
        "--synth-length", "4000", "--synth-channels", "4",
        "--variant", "S", "--horizon", "24",
        "--max-epochs", "12", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    rows = list(read_reports_csv(run_dir / "sweep.csv"))
    mses = [float(r["mse"]) for r in rows]
    assert [r["L"] for r in rows] == ["96", "336", "720"]
    assert mses[0] >= mses[1] >= mses[2]  # more history helps periodic data


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the load fails before standardize sees the inf
def test_train_numeric_failure_reported(tmp_path, capsys):
    # an overflowing literal parses to inf, which load_csv rejects
    bad = tmp_path / "inf.csv"
    rows = ["a,b"] + [f"{i}.0,{i}.5" for i in range(60)]
    rows[10] = "1e400,3.0"
    bad.write_text("\n".join(rows) + "\n")
    code = main([
        "train", "--data", str(bad),
        "--lookback", "8", "--horizon", "2", "--max-epochs", "1",
        "--out", str(tmp_path / "r"),
    ])
    assert code != 0
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error numeric: ") and "row 11, column 1 ('a')" in line
    assert not (tmp_path / "r").exists()


def test_train_unknown_synth_kind(tmp_path, capsys):
    code = main(["train", "--data", "synth:bogus", "--out", str(tmp_path / "r")])
    assert code != 0
    assert "error config" in capsys.readouterr().err


def test_train_moe_variant_roundtrip(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "train", "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "3",
        "--variant", "M", "--moe-experts", "2", "--moe-hidden", "4",
        "--lookback", "16", "--horizon", "4", "--max-epochs", "2",
        "--out", str(out),
    ])
    assert code == 0
    (run_dir,) = run_dirs(out)
    rows = read_reports_csv(run_dir / "report.csv")
    assert rows[0]["variant"] == "M"
    from wavets.model import load_model

    cfg, params = load_model(run_dir / "checkpoint.json")
    assert cfg.moe is not None and cfg.moe.num_experts == 2
    assert any(name.startswith("moe.expert1") for name in params)
    gates = (run_dir / "gates.csv").read_text().strip().splitlines()
    assert gates[0] == "channel,expert_0,expert_1,argmax,entropy"
    assert len(gates) == 1 + 3  # one row per channel


def test_benchmark_output_carries_config(tmp_path):
    out_csv = tmp_path / "eff.csv"
    assert main([
        "benchmark", "--variants", "S", "--channels", "8",
        "--lookback", "32", "--horizon", "8", "--output", str(out_csv),
    ]) == 0
    sidecar = tmp_path / "eff.config.json"
    assert sidecar.exists()
    assert json.loads(sidecar.read_text())["lookback"] == 32
