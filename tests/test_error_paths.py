"""Small checks for the less-traveled error branches."""

import dataclasses
import json

import numpy as np
import pytest

from wavets import checkpoint as ckpt
from wavets import data
from wavets import evaluation as ev
from wavets import wavelet as wv
from wavets.autodiff import Tensor, swap_last2
from wavets.cli import main
from wavets.config import RunConfig, apply_overrides, load_config_file
from wavets.exceptions import (
    InvalidConfigError,
    ParseError,
    ShapeMismatchError,
)
from wavets.model import ModelConfig
from wavets.moe import MoEConfig
from wavets.optim import Adam
from wavets.training import TrainSettings, train_model


def test_swap_needs_two_axes():
    with pytest.raises(ShapeMismatchError):
        swap_last2(Tensor([1.0, 2.0]))


def test_checkpoint_size_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format": ckpt.FORMAT_NAME,
        "version": 1,
        "params": [{"name": "w", "shape": [2, 2], "values": [1.0, 2.0, 3.0]}],
    }))
    with pytest.raises(ParseError):
        ckpt.load_params(path)


def test_checkpoint_repeated_name(tmp_path):
    """A later entry of the same name must not silently replace the first."""
    path = tmp_path / "twice.json"
    entry = {"name": "w", "shape": [2], "values": [1.0, 2.0]}
    path.write_text(json.dumps({
        "format": ckpt.FORMAT_NAME,
        "version": 1,
        "params": [entry, {"name": "b", "shape": [], "values": [0.5]}, {**entry, "values": [3.0, 4.0]}],
    }))
    with pytest.raises(ParseError, match="'w' appears more than once"):
        ckpt.load_params(path)


def test_train_requires_data_source(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) != 0
    assert "error config" in capsys.readouterr().err


def test_eval_channel_mismatch(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([
        "train", "--data", "synth:sine_mix", "--synth-length", "400",
        "--synth-channels", "2", "--lookback", "16", "--horizon", "4",
        "--max-epochs", "1", "--out", str(out),
    ]) == 0
    (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
    (run_dir / "config.json").unlink()  # else the run's protocol would reject the flag first
    capsys.readouterr()
    code = main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--data", "synth:sine_mix", "--synth-length", "400", "--synth-channels", "3",
    ])
    assert code != 0
    assert "error config" in capsys.readouterr().err


def test_ablate_rejects_unknown_grid_cell(tmp_path, capsys):
    code = main([
        "ablate", "--grid", "Z9",
        "--data", "synth:sine_mix", "--synth-length", "400", "--synth-channels", "2",
        "--lookback", "16", "--horizon", "4", "--max-epochs", "1",
        "--out", str(tmp_path / "runs"),
    ])
    assert code == 0  # recorded per-cell, run continues
    (run_dir,) = [p for p in (tmp_path / "runs").iterdir() if p.is_dir()]
    rows = ev.read_reports_csv(run_dir / "ablation.csv")
    assert rows[0]["status"] == "error:config"
    assert "unknown grid cell" in capsys.readouterr().err


def test_config_error_branches(tmp_path):
    with pytest.raises(InvalidConfigError):
        RunConfig(seeds="1,two").seed_list()
    with pytest.raises(InvalidConfigError):
        apply_overrides(RunConfig(), {"revin_affine": "maybe"})
    with pytest.raises(InvalidConfigError):
        apply_overrides(RunConfig(), {"lookback": "twelve"})
    for too_large in ({"delta_init": 10**400}, {"lookback": float("inf")}):  # OverflowError in float() / int()
        with pytest.raises(InvalidConfigError):
            apply_overrides(RunConfig(), too_large)
    with pytest.raises(InvalidConfigError):
        ModelConfig.from_dict({**ModelConfig("B", 8, 4, 2).to_dict(), "delta_init": 10**400})
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfigError):
        load_config_file(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(InvalidConfigError):
        load_config_file(listy)



def test_a_config_file_refuses_a_key_given_twice(tmp_path):
    """The later value does not silently win: the file is refused, naming the key."""
    twice = tmp_path / "twice.json"
    twice.write_text('{"lr": 0.1, "lr": 5}')
    with pytest.raises(InvalidConfigError, match="key 'lr' is given more than once"):
        apply_overrides(RunConfig(), load_config_file(twice))

def test_csv_without_numeric_columns(tmp_path):
    path = tmp_path / "dates.csv"
    path.write_text("date\n2020-01-01\n2020-01-02\n")
    with pytest.raises(ParseError):
        data.load_csv(path)


def test_csv_all_rows_nan(tmp_path):
    path = tmp_path / "nans.csv"
    path.write_text("a\nnan\nnan\n")
    with pytest.raises(data.EmptyFileError):
        data.load_csv(path)


def test_model_config_range_checks():
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 8, 0, 2)
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 8, 4, 0)
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 0, 4, 2)


def test_accounting_argument_checks():
    cfg = ModelConfig("S", 8, 4, 2)
    with pytest.raises(InvalidConfigError):
        ev.count_macs(cfg, batch_size=0)
    with pytest.raises(InvalidConfigError):
        ev.time_mean(lambda: None, repeats=0)


def test_batch_and_epoch_settings_checks():
    sampler = data.WindowSampler(data.synth("noise_walk", 40, 2, seed=0), 8, 4)
    for batch_size in (0, -4):
        with pytest.raises(InvalidConfigError):
            next(sampler.batches(batch_size))
    for name in ("batch_size", "max_epochs", "patience", "lr", "eps"):
        with pytest.raises(InvalidConfigError):
            TrainSettings(**{name: 0})
    for name in ("beta1", "beta2"):
        for value in (0.0, 1.0):
            with pytest.raises(InvalidConfigError):
                TrainSettings(**{name: value})


def test_adam_eps_check():
    with pytest.raises(InvalidConfigError):
        Adam({"w": Tensor(np.zeros(2), requires_grad=True)}, eps=0.0)


@pytest.mark.parametrize("name", ["lr", "eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_adam_refuses_a_non_finite_lr_or_eps(name, value):
    with pytest.raises(InvalidConfigError, match="must be positive and finite"):
        Adam({"w": Tensor(np.zeros(2), requires_grad=True)}, **{name: value})


# A value of the wrong type for each scalar annotation: a bool for a number, a
# fraction for an int, a non-finite float (or an int past the float range), and
# a number or None for a str.
_WRONG = {
    "int": [True, 2.5, float("nan"), float("inf"), "3", None],
    "float": [True, float("nan"), float("inf"), -float("inf"), 10**400, "0.5", None],
    "bool": [1, 0.0, "true", None],
    "str": [5, 2.5, True, None],
}


@pytest.mark.parametrize(
    "config",
    [ModelConfig("B", 8, 4, 2), MoEConfig(), TrainSettings(), data.SplitSpec(), RunConfig()],
    ids=lambda config: type(config).__name__,
)
def test_every_config_class_refuses_a_value_of_the_wrong_type(config):
    """Every str, int, float or bool field of each config class is checked by one rule, with one message."""
    cases = [(f.name, f.type, value) for f in dataclasses.fields(config) for value in _WRONG.get(f.type, [])]
    assert len(cases) >= 10  # the annotations read as the four type names
    for name, kind, value in cases:
        with pytest.raises(InvalidConfigError) as err:
            dataclasses.replace(config, **{name: value})
        article = "an" if kind == "int" else "a"
        finite = kind == "float" and isinstance(value, (int, float)) and not isinstance(value, bool)
        expected = f"{name} must be a finite float" if finite else f"{name} must be {article} {kind}, got {value!r}"
        assert str(err.value).startswith(expected), (name, value, str(err.value))


def test_train_model_refuses_a_negative_seed():
    series = data.synth("noise_walk", 40, 2, seed=0)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
        train_model(ModelConfig("B", 8, 4, 2), series, series, TrainSettings(max_epochs=1), seed=-1)


def test_wavelet_level_checks():
    with pytest.raises(InvalidConfigError):
        wv.dwt_multi(np.ones(8), "haar", 0)
    with pytest.raises(InvalidConfigError):
        wv.idwt_multi([], "haar")
