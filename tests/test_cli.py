import gzip
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from wavets import cli, data
from wavets import training as training_mod
from wavets.cli import main, make_run_dir
from wavets.config import RunConfig, apply_overrides, config_hash
from wavets.evaluation import read_reports_csv
from wavets.model import ModelConfig
from wavets.training import TrainSettings

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
    assert "block workers: " in details["runs"][0]["hardware"]
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


@pytest.mark.parametrize("seeds", [",", " , ", "3,3", "0,1,0"])
def test_train_rejects_a_seed_list_with_no_seed_or_a_repeat(tmp_path, capsys, seeds):
    out = tmp_path / "runs"
    code = main([*TINY_TRAIN, "--out", str(out), "--seeds", seeds])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: seeds must name at least one seed, each once"), err
    assert not out.exists()


def test_train_missing_csv_reports_data_reason(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r")])
    assert code != 0
    assert "error data" in capsys.readouterr().err


def test_a_compressed_csv_is_one_data_error(tmp_path, capsys):
    csv_path = tmp_path / "real.csv.gz"
    csv_path.write_bytes(gzip.compress(b"date,a\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(40))))
    code = main(["train", "--data", str(csv_path), "--lookback", "8", "--horizon", "4", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error data: ") and "is not a text CSV" in err[0], err


@pytest.mark.parametrize(
    "digits, message",
    [(400, "key 'delta_init': expected float, got 1000"), (5000, "config file ")],  # json's int limit is 4300 digits
)
def test_an_int_past_the_float_range_is_a_config_error(tmp_path, capsys, digits, message):
    big = tmp_path / "big.json"
    big.write_text('{"delta_init": 1' + "0" * digits + "}")
    out = tmp_path / "runs"
    code = main([*TINY_TRAIN, "--config", str(big), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error config: {message}"), err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "train_flags, eval_flags, message",
    [
        (["--variant", "B"], ["--horizon", "4", "--lookback", "8", "--variant", "M", "--bank", "d4"], "variant='M'"),
        (["--variant", "B"], ["--lookback", "8"], "lookback=8"),
        (["--variant", "B"], ["--bank", "d4"], "bank='d4'"),
        (["--variant", "B"], ["--delta-mode", "fixed"], "delta_mode='fixed'"),
        (["--variant", "B"], ["--no-revin-affine"], "revin_affine=False"),
        (["--variant", "M", "--moe-experts", "2", "--moe-hidden", "4"], ["--moe-experts", "3"], "moe_experts=3"),
    ],
    ids=["variant", "lookback", "bank", "delta_mode", "revin_affine", "moe_experts"],
)
def test_eval_rejects_a_model_flag_that_disagrees_with_the_checkpoint(
    tmp_path, capsys, train_flags, eval_flags, message
):
    """A model key must describe the checkpoint's model; eval scores nothing otherwise."""
    run_dir = _trained_run(tmp_path, capsys, *train_flags)
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"), *eval_flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = captured.err.strip().splitlines()
    expected = f"error config: {message} disagrees with {run_dir / 'checkpoint.config.json'}, which has "
    assert len(err) == 1 and err[0].startswith(expected), err


def test_eval_rejects_a_key_it_does_not_read(tmp_path, capsys):
    """eval reads no optimizer, epoch, seed or output key: one given off the run's
    config.json, or off the default with no config.json, is an error and scores
    nothing. The run's own config.json still evaluates."""
    run_dir = _trained_run(tmp_path, capsys, "--lr", "0.01")
    checkpoint, run_file = str(run_dir / "checkpoint.json"), run_dir / "config.json"
    out, elsewhere = tmp_path / "runs", tmp_path / "elsewhere"
    cases = [
        (["--lr", "5"], f"lr=5.0 disagrees with {run_file}, which has 0.01"),
        (["--max-epochs", "9"], f"max_epochs=9 disagrees with {run_file}, which has 2"),
        (["--seeds", "1,2"], f"seeds='1,2' disagrees with {run_file}, which has ''"),
        (["--out", str(elsewhere)], f"out={str(elsewhere)!r} disagrees with {run_file}, which has {str(out)!r}"),
    ]
    for flags, message in cases:
        code = main(["eval", "--checkpoint", checkpoint, *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.strip().splitlines() == [f"error config: {message}"]
    assert not elsewhere.exists()
    assert main(["eval", "--checkpoint", checkpoint, "--config", str(run_file)]) == 0
    (row,) = read_reports_csv(run_dir / "report.csv")
    assert f"test mse {float(row['mse']):.6f} " in capsys.readouterr().out
    run_file.unlink()
    code = main(["eval", "--checkpoint", checkpoint, "--data", "synth:sine_mix", "--lr", "0.01"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and err == ["error config: lr=0.01 disagrees with the default run config, which has 0.001"]


def test_eval_accepts_model_flags_the_checkpoint_ignores(tmp_path, capsys):
    """S reads no delta field and no MoE size, so these flags still name its model."""
    run_dir = _trained_run(tmp_path, capsys)
    settings = tmp_path / "eval.json"
    settings.write_text(json.dumps({"variant": "S", "moe_experts": 7, "delta_init": 3}))
    code = main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--config", str(settings),
        "--delta-per-channel", "--delta-mode", "fixed", "--bank", "HAAR", "--lookback", "16",
    ])
    assert code == 0
    (row,) = read_reports_csv(run_dir / "report.csv")
    assert f"test mse {float(row['mse']):.6f} " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train", "eval"])
def test_zero_batch_size_is_a_config_error(tmp_path, capsys, command):
    if command == "train":
        argv = [*TINY_TRAIN, "--out", str(tmp_path / "runs")]
    else:
        argv = ["eval", "--checkpoint", str(_trained_run(tmp_path, capsys) / "checkpoint.json")]
    code = main([*argv, "--batch-size", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: batch_size must be >= 1"), err


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "0"), ("--variant", "Q"), ("--lookback", "7"), ("--bank", "foo"), ("--batch-size", "0"), ("--max-epochs", "0")],
)
def test_config_error_leaves_no_run_directory(tmp_path, capsys, flag, value):
    out = tmp_path / "runs"
    code = main([*TINY_TRAIN, "--out", str(out), flag, value])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: "), err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--train-frac", "nan"], ["--train-frac", "inf"], ["--lr", "nan"], ["--lr", "inf"], ["--eps", "inf"],
        ["--seed", "-1"], ["--seeds=-1,2"], ["--synth-seed", "-5"], ["--lookback", "16.9"], ["--max-epochs", "2.5"],
        ["--config", "{bad}"],
    ],
    ids=" ".join,
)
def test_a_non_finite_fractional_or_negative_value_fails_before_any_output(tmp_path, capsys, flags):
    """Nothing is truncated, every float is finite and every seed >= 0: one config line, no run directory."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lookback": 16.9, "max_epochs": True}))
    # TINY_TRAIN without --lookback and --max-epochs, which would override the file's keys
    argv = ["train", "--data", "synth:sine_mix", "--synth-length", "600", "--synth-channels", "2", "--horizon", "4"]
    out = tmp_path / "runs"
    code = main([*argv, "--out", str(out), *(flag.format(bad=bad) for flag in flags)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: "), err
    assert not out.exists()



@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "-1,2"], "error config: seeds must name at least one seed, each once and >= 0, got '-1,2'"),
        (["--data", "-x.csv"], "error data: dataset file not found: -x.csv"),
    ],
    ids=["seeds", "data"],
)
def test_a_flag_value_starting_with_a_dash_reads_as_the_value(tmp_path, capsys, flags, message):
    """``--key value`` behaves like ``--key=value``: one error line, not argparse's usage text."""
    out = tmp_path / "runs"
    for argv in (flags, [f"{flags[0]}={flags[1]}"]):
        code = main([*TINY_TRAIN, "--out", str(out), *argv])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [message]
        assert not out.exists()

def test_synth_refuses_a_negative_seed(tmp_path, capsys):
    output = tmp_path / "s.csv"
    assert main(["synth", "--seed", "-1", "--output", str(output)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error config: seed must be >= 0, got -1"]
    assert not output.exists()


def test_an_int_for_a_float_key_is_recorded_as_a_float_under_the_same_hash(tmp_path, capsys):
    given = tmp_path / "given.json"
    given.write_text('{"delta_init": 3}')
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--variant", "B", "--config", str(given), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    recorded = json.loads((run_dir / "config.json").read_text())
    assert '"delta_init": 3.0' in (run_dir / "config.json").read_text()
    assert run_dir.name.endswith("-" + config_hash(RunConfig(**recorded)))
    # Pinned: the hash of this request, as every earlier config.json recorded it.
    assert config_hash(apply_overrides(RunConfig(), {"delta_init": 3, "variant": "B"})) == "d50da2a3"


def test_sub_configs_carry_every_shared_run_field():
    """Every RunConfig field that ModelConfig or TrainSettings also has is set
    off its default in one of two runs and must reach the derived config.

    A fixed delta is one scalar, so its model config drops a per-channel
    flag: the learnable per-channel run carries delta_per_channel, the
    fixed run delta_mode, and each leaves the other at its default."""
    learnable = RunConfig(
        variant="B", lookback=64, horizon=12, bank="d4", delta_init=0.5,
        delta_per_channel=True, revin_affine=False, lf_hidden=8,
        lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6, batch_size=8, max_epochs=5, patience=2,
    )
    fixed = replace(learnable, delta_mode="fixed", delta_per_channel=False)
    shared = {f.name for cls in (ModelConfig, TrainSettings) for f in fields(cls)} - {"channels", "moe"}
    assert shared <= {f.name for f in fields(RunConfig)}
    off_default = set()
    for run in (learnable, fixed):
        for derived in (run.model_config(3), run.train_settings()):
            for name in shared & {f.name for f in fields(derived)}:
                assert getattr(derived, name) == getattr(run, name), name
                if getattr(run, name) != getattr(RunConfig(), name):
                    off_default.add(name)
    assert off_default == shared, shared - off_default
    moe = replace(learnable, variant="M", lf_hidden=0, moe_experts=3, moe_hidden=5).model_config(3).moe
    assert (moe.num_experts, moe.hidden) == (3, 5)


def test_eval_of_a_missing_checkpoint_names_it(tmp_path, capsys):
    """The error names the checkpoint that was given, not its config sidecar."""
    missing = tmp_path / "nope.json"
    assert main(["eval", "--checkpoint", str(missing)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error data: [Errno 2] No such file or directory: '{missing}'"]


def test_eval_of_a_malformed_checkpoint_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([*TINY_TRAIN, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    checkpoint = run_dir / "checkpoint.json"
    sidecar = run_dir / "checkpoint.config.json"
    good = {path: path.read_text() for path in (checkpoint, sidecar)}
    manifest = json.loads(good[checkpoint])
    config = json.loads(good[sidecar])
    first, *rest = manifest["params"]
    values = first["values"][1:]
    nan = {**first, "values": [float("nan"), *values]}
    cases = [
        (checkpoint, json.dumps({**manifest, "params": [nan, *rest]}), "numeric"),
        (checkpoint, json.dumps({**manifest, "version": 7}), "data"),
        (checkpoint, json.dumps({k: v for k, v in manifest.items() if k != "params"}), "data"),
        (checkpoint, json.dumps(manifest["params"]), "data"),
        (sidecar, good[sidecar][:-5], "data"),
        (sidecar, json.dumps({**config, "lookbak": 16}), "config"),
        (sidecar, json.dumps({**config, "delta_init": 10**400}), "config"),
        (checkpoint, json.dumps({**manifest, "params": [{**first, "values": [10**400, *values]}, *rest]}), "numeric"),
        (checkpoint, good[checkpoint].replace("[", "[1" + "0" * 5000 + ",", 1), "data"),  # past json's int limit
        (sidecar, good[sidecar].replace("{", '{"x": 1' + "0" * 5000 + ",", 1), "data"),
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


def test_benchmark_measure_rejects_a_bad_optimizer_setting(capsys):
    """The timed epochs run the configured optimizer, so its settings are checked."""
    code = main([
        "benchmark", "--variants", "B", "--channels", "2", "--lookback", "16", "--horizon", "4",
        "--beta1", "2", "--measure", "--bench-windows", "8",
    ])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: betas must lie in (0, 1)"), err
    assert captured.out == ""


BENCH_TINY = ["benchmark", "--channels", "2", "--lookback", "16", "--horizon", "4"]


def test_benchmark_times_exactly_the_requested_windows(monkeypatch, capsys):
    """--measure times train_model's own epochs: three of exactly
    --bench-windows windows, and reports their mean epoch seconds."""
    epochs, results = [], []
    real_step, real_train = training_mod.train_step, cli.train_model

    def counted(cfg, params, optimizer, batch):
        epochs.append(len(batch[2]))  # B's batch: (lookback, target, rows)
        return real_step(cfg, params, optimizer, batch)

    def kept(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training_mod, "train_step", counted)
    monkeypatch.setattr(cli, "train_model", kept)
    assert main([*BENCH_TINY, "--variants", "B", "--measure", "--bench-windows", "5", "--batch-size", "2"]) == 0
    assert epochs == [2, 2, 1] * 3  # three timed epochs of 5 windows each
    (result,) = results
    assert result.epochs_trained == 3
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert float(row["epoch_time_s"]) == result.mean_epoch_seconds


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--variants", "B", "--measure", "--bench-windows", "-5"], "error config: --bench-windows must be >= 1"),
        (["--variants", "B", "--bench-windows", "0"], "error config: --bench-windows must be >= 1"),
        (["--variants", " , "], "error config: --variants names no variant"),
    ],
    ids=["negative-windows", "zero-windows", "no-variants"],
)
def test_benchmark_rejects_bad_arguments(capsys, flags, message):
    code = main([*BENCH_TINY, *flags])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(message), err
    assert captured.out == ""


@pytest.mark.parametrize("command, grid", [("ablate", ["--grid", "B,S"]), ("sweep", ["--lengths", "16"])])
def test_grid_with_a_bad_train_setting_leaves_no_run_directory(tmp_path, capsys, command, grid):
    out = tmp_path / "runs"
    code = main([
        command, *grid,
        "--data", "synth:sine_mix", "--synth-length", "600", "--synth-channels", "2",
        "--lookback", "16", "--horizon", "4", "--lr", "0", "--out", str(out),
    ])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error config: learning rate must be positive"), err
    assert not out.exists()


def _assert_grid_list_rejected(tmp_path, capsys, grid, message):
    """The grid command exits 1 with one ``message`` line and leaves nothing under --out."""
    out = tmp_path / "runs"
    code = main([
        *grid,
        "--data", "synth:sine_mix",
        "--synth-length", "600", "--synth-channels", "2",
        "--lookback", "16", "--horizon", "4", "--max-epochs", "1",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(message), err
    assert captured.out == ""
    assert not out.exists()


def test_ablate_empty_grid_is_noop(tmp_path, capsys):
    """An empty grid runs nothing and writes nothing: one config error line."""
    _assert_grid_list_rejected(tmp_path, capsys, ["ablate", "--grid", ""], "error config: --grid names no cell")


@pytest.mark.parametrize(
    "grid, message",
    [
        (["ablate", "--grid", " , "], "error config: --grid names no cell"),
        (["sweep", "--lengths", ""], "error config: --lengths names no length"),
        (["sweep", "--lengths", "16,abc"], "error config: --lengths must be integers"),
        (["ablate", "--grid", "B,S", "--seeds", "3,4"], "error config: a grid trains one seed, set by seed"),
        (["sweep", "--lengths", "16", "--seeds", "3,4"], "error config: a grid trains one seed, set by seed"),
    ],
    ids=["blank-grid", "empty-lengths", "non-integer-length", "ablate-seeds", "sweep-seeds"],
)
def test_bad_grid_list_is_a_config_error(tmp_path, capsys, grid, message):
    _assert_grid_list_rejected(tmp_path, capsys, grid, message)


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


def test_a_dataset_name_with_a_comma_keeps_its_report_row_and_table_block(tmp_path, capsys):
    path = tmp_path / "a,b.csv"
    data.save_csv(data.synth("sine_mix", 400, 2, seed=1), path)
    out = tmp_path / "runs"
    assert main([
        "train", "--data", str(path), "--variant", "S", "--lookback", "16", "--horizon", "4",
        "--max-epochs", "1", "--out", str(out),
    ]) == 0
    (run_dir,) = run_dirs(out)
    (row,) = read_reports_csv(run_dir / "report.csv")
    assert (row["dataset"], row["variant"], row["horizon"]) == ("a,b", "S", "4")
    capsys.readouterr()
    assert main(["table", "--runs", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# a,b (cells: mse/mae, mean over seeds)", "horizon,S"]
    assert lines[2] == f"4,{float(row['mse']):.3f}/{float(row['mae']):.3f}"


@pytest.mark.parametrize(
    "report, message",
    [
        ("variant,horizon,mse,mae\nS,4,0.5,0.4\n", "no 'dataset' column"),
        ("dataset,variant,horizon,mse,mae\nd,S,4,,0.4\n", "could not convert string to float"),
    ],
    ids=["no-dataset-column", "empty-mse"],
)
def test_table_rejects_a_malformed_report(tmp_path, capsys, report, message):
    path = tmp_path / "runs" / "one" / "report.csv"
    path.parent.mkdir(parents=True)
    path.write_text(report)
    assert main(["table", "--runs", str(tmp_path / "runs")]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error data: {path}: ") and message in err[0], err
    assert captured.out == ""


def test_table_runs_directory_must_exist(tmp_path, capsys):
    assert main(["table", "--runs", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error data: "), err
    (tmp_path / "empty").mkdir()
    assert main(["table", "--runs", str(tmp_path / "empty")]) == 0
    assert "no report rows under" in capsys.readouterr().out


def test_table_of_header_only_reports_finds_no_rows(tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.csv").write_text("dataset,variant,horizon,mse,mae\n")
    assert main(["table", "--runs", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"no report rows under {tmp_path}\n" and captured.err == ""


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
