import os
from dataclasses import fields

import numpy as np
import pytest

from wavets import evaluation as ev
from wavets import model as model_mod
from wavets.data import WindowBatch, WindowSampler, synth
from wavets.exceptions import ConfigMismatchError, InvalidConfigError, ShapeMismatchError, ZeroGainError
from wavets.model import ModelConfig, band_forward, init_params
from wavets.moe import MoEConfig
from wavets.training import TrainResult, TrainSettings, evaluate_model, evaluate_mse, train_model


def _one_batch(pred, true):
    return ev.accumulate_errors([(pred, true)])


def test_metric_examples():
    zero = np.zeros((1, 3, 1))
    assert _one_batch(zero, zero)["mse"] == 0.0
    assert _one_batch(zero, zero)["mae"] == 0.0
    assert _one_batch(np.full((1, 1, 1), 3.0), np.ones((1, 1, 1)))["mse"] == 4.0
    assert _one_batch(np.full((1, 1, 1), 3.0), np.ones((1, 1, 1)))["mae"] == 2.0
    with pytest.raises(ShapeMismatchError):
        _one_batch(np.zeros((1, 3, 1)), np.zeros((1, 4, 1)))
    with pytest.raises(ShapeMismatchError):  # a later batch is checked too
        ev.accumulate_errors([(zero, zero), (np.zeros((2, 3, 1)), np.zeros((2, 3, 2)))])


def test_batches_must_share_the_first_batchs_horizon_and_channels():
    first = np.zeros((2, 3, 2))
    for later in (np.ones((4, 3, 1)), np.ones((4, 2, 2))):  # fewer channels, a shorter horizon
        with pytest.raises(ShapeMismatchError):
            ev.accumulate_errors([(first, first), (later, later * 2)])
    assert ev.accumulate_errors([(first, first), (np.ones((5, 3, 2)),) * 2])["windows"] == 7


def test_metric_aggregation_and_permutation_invariance():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(10, 4, 3))
    true = rng.normal(size=(10, 4, 3))
    whole = _one_batch(pred, true)
    per_window = [_one_batch(pred[i : i + 1], true[i : i + 1])["mse"] for i in range(10)]
    assert abs(whole["mse"] - np.mean(per_window)) < 1e-12
    assert abs(whole["mse"] - np.mean((pred - true) ** 2)) < 1e-12
    assert abs(whole["mae"] - np.mean(np.abs(pred - true))) < 1e-12
    order = rng.permutation(10)
    shuffled = _one_batch(pred[order], true[order])
    assert abs(shuffled["mse"] - whole["mse"]) < 1e-15
    assert abs(shuffled["mae"] - whole["mae"]) < 1e-15
    streamed = ev.accumulate_errors([(pred[:3], true[:3]), (pred[3:], true[3:])])
    assert streamed["windows"] == 10
    assert abs(streamed["mse"] - whole["mse"]) < 1e-15


def test_per_horizon_errors():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(6, 5, 2))
    true = rng.normal(size=(6, 5, 2))
    metrics = _one_batch(pred, true)
    step_mse, step_mae = np.array(metrics["per_horizon_mse"]), np.array(metrics["per_horizon_mae"])
    assert step_mse.shape == (5,)
    assert np.max(np.abs(step_mse - ((pred - true) ** 2).mean(axis=(0, 2)))) < 1e-12
    assert np.max(np.abs(step_mae - np.abs(pred - true).mean(axis=(0, 2)))) < 1e-12
    assert abs(step_mse.mean() - metrics["mse"]) < 1e-12
    assert abs(step_mae.mean() - metrics["mae"]) < 1e-12


def test_no_windows_is_rejected():
    with pytest.raises(InvalidConfigError):
        ev.accumulate_errors([])


def test_persistence_baseline():
    x = np.arange(12, dtype=float).reshape(1, 6, 2)
    batch = WindowBatch(x=x, y=np.zeros((1, 4, 2)), origins=np.array([0]))
    pred = ev.persistence_baseline(batch)
    assert pred.shape == (1, 4, 2)
    assert np.all(pred[0, :, 0] == 10.0)
    assert np.all(pred[0, :, 1] == 11.0)
    constant = WindowBatch(
        x=np.full((2, 6, 1), 5.0), y=np.full((2, 3, 1), 5.0), origins=np.arange(2)
    )
    assert _one_batch(ev.persistence_baseline(constant), constant.y)["mse"] == 0.0


def _reference_metrics(cfg, params, split):
    """Metrics from every test window stacked into one array, predicted on the band path."""
    sampler = WindowSampler(split, cfg.lookback, cfg.horizon)
    batch = sampler.gather(sampler.origins)
    diff = band_forward(cfg, params, batch.x).data - batch.y
    return (diff**2).mean(), np.abs(diff).mean(), (diff**2).mean(axis=(0, 2)), np.abs(diff).mean(axis=(0, 2))


# The folded linear variants and one that keeps the band path.
EVAL_CONFIGS = {
    "B": ModelConfig("B", 16, 6, 3, bank="haar"),
    "I": ModelConfig("I", 16, 6, 3, bank="d4"),
    "M": ModelConfig("M", 16, 6, 3, bank="d4", moe=MoEConfig(num_experts=2, hidden=3)),
}


def _perturbed_params(cfg, seed):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    return params


def test_evaluate_model_matches_stacked_reference_at_any_batch_size():
    series = synth("sine_mix", 300, 3, seed=2)
    for name, cfg in EVAL_CONFIGS.items():
        params = _perturbed_params(cfg, 4)
        mse, mae, step_mse, step_mae = _reference_metrics(cfg, params, series)
        by_batch = {size: evaluate_model(cfg, params, series, batch_size=size) for size in (7, 32)}
        for metrics in by_batch.values():
            assert metrics["windows"] == 300 - 16 - 6 + 1
            assert abs(metrics["mse"] - mse) < 1e-10, name
            assert abs(metrics["mae"] - mae) < 1e-10, name
            assert np.max(np.abs(np.array(metrics["per_horizon_mse"]) - step_mse)) < 1e-10, name
            assert np.max(np.abs(np.array(metrics["per_horizon_mae"]) - step_mae)) < 1e-10, name
        for key in ("mse", "mae"):
            assert abs(by_batch[7][key] - by_batch[32][key]) < 1e-12, name
        assert np.max(np.abs(np.subtract(by_batch[7]["per_horizon_mse"], by_batch[32]["per_horizon_mse"]))) < 1e-12


@pytest.mark.parametrize("variant", EVAL_CONFIGS)
def test_linear_variants_never_run_the_band_path(monkeypatch, variant):
    """B and I train, validate and evaluate through the fold; M through the bands."""
    cfg = EVAL_CONFIGS[variant]
    series = synth("sine_mix", 120, 3, seed=3)
    params = _perturbed_params(cfg, 5)
    calls = []
    real = model_mod.band_forward

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(model_mod, "band_forward", counted)
    train_model(cfg, series, series, TrainSettings(batch_size=32, max_epochs=1))
    evaluate_model(cfg, params, series, batch_size=32)
    evaluate_mse(cfg, params, WindowSampler(series, cfg.lookback, cfg.horizon), 32)
    if variant == "M":
        assert len(calls) > 0
    else:
        assert calls == []


@pytest.mark.parametrize("variant", EVAL_CONFIGS)
def test_evaluate_model_raises_what_predict_raises(variant):
    cfg = EVAL_CONFIGS[variant]
    series = synth("sine_mix", 60, 3, seed=4)
    params = init_params(cfg, 0)
    with pytest.raises(ShapeMismatchError):
        evaluate_model(cfg, params, synth("sine_mix", 60, 2, seed=4))
    other = init_params(EVAL_CONFIGS["I" if variant == "B" else "B"], 0)
    with pytest.raises(ConfigMismatchError):
        evaluate_model(cfg, other, series)
    params["revin.gain"].data[:] = 0.0
    with pytest.raises(ZeroGainError):
        evaluate_model(cfg, params, series)


def test_count_params_headline_figures():
    big_b = ModelConfig("B", 720, 96, 321)
    assert ev.count_params(big_b).total == 69955
    assert abs(ev.count_params(big_b).total - 69000) / 69000 < 0.02
    big_s = ModelConfig("S", 720, 96, 321)
    assert ev.count_params(big_s).total == 35298
    assert abs(ev.count_params(big_s).total - 40000) / 40000 < 0.20  # known discrepancy
    big_m = ModelConfig("M", 720, 96, 321, moe=MoEConfig())
    assert abs(ev.count_params(big_m).total - 157000) / 157000 < 0.10
    minimal = ModelConfig("S", 2, 1, 1)
    assert ev.count_params(minimal).total == 4  # 1*1 + 1 + 2N


def _random_config(rng):
    variant = rng.choice(["B", "S", "M", "I", "LF", "HF"])
    lookback = 2 * int(rng.integers(2, 40))
    horizon = 2 * int(rng.integers(1, 20))
    channels = int(rng.integers(1, 12))
    moe = None
    lf_hidden = 0
    if variant == "M":
        moe = MoEConfig(num_experts=int(rng.integers(1, 5)), hidden=int(rng.integers(1, 16)))
    elif variant in ("B", "S", "LF") and rng.random() < 0.3:
        lf_hidden = int(rng.integers(1, 16))
    return ModelConfig(
        variant=variant,
        lookback=lookback,
        horizon=horizon,
        channels=channels,
        delta_per_channel=bool(rng.random() < 0.3),
        delta_mode="fixed" if rng.random() < 0.2 else "learnable",
        revin_affine=bool(rng.random() < 0.8),
        lf_hidden=lf_hidden,
        moe=moe,
    )


def count_params_oracle(cfg):
    """Closed-form per-block parameter count, written out independently of
    ``param_shapes`` so that ``count_params`` (which sums those shapes) has
    something to be checked against."""
    half, horizon, channels = cfg.half, cfg.horizon, cfg.channels
    breakdown = {}
    if cfg.variant in ("B", "S", "LF"):
        if cfg.lf_hidden:
            breakdown["lf_head"] = (
                half * cfg.lf_hidden + cfg.lf_hidden + cfg.lf_hidden * horizon + horizon
            )
        else:
            breakdown["lf_head"] = half * horizon + horizon
    if cfg.variant in ("B", "M", "HF"):
        breakdown["hf_head"] = half * horizon + horizon
    if cfg.variant == "I":
        breakdown["lf_head"] = half * (horizon // 2) + horizon // 2
        breakdown["hf_head"] = half * (horizon // 2) + horizon // 2
    if cfg.variant == "M":
        experts, hidden = cfg.moe.num_experts, cfg.moe.hidden
        breakdown["moe_experts"] = experts * (half * hidden + hidden + hidden * horizon + horizon)
        breakdown["moe_gate"] = half * experts + experts
    if cfg.has_delta():
        breakdown["delta"] = channels if cfg.delta_per_channel else 1
    if cfg.revin_affine:
        breakdown["revin_affine"] = 2 * channels
    return breakdown


def test_count_params_matches_live_enumeration_50_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cfg = _random_config(rng)
        live = sum(p.data.size for p in init_params(cfg, 0).values())
        counted = ev.count_params(cfg)
        oracle = count_params_oracle(cfg)
        assert counted.breakdown == oracle, cfg
        assert counted.total == sum(oracle.values()) == live, cfg


def test_count_macs_headline_figures():
    macs_b = ev.count_macs(ModelConfig("B", 720, 96, 321), batch_size=32)
    assert abs(macs_b.linear_per_batch - 0.710e9) / 0.710e9 < 0.005
    macs_s = ev.count_macs(ModelConfig("S", 720, 96, 321), batch_size=32)
    assert abs(macs_s.linear_per_batch - 0.355e9) / 0.355e9 < 0.005
    # the fixed transform is accounted separately: K*(L/2) per channel
    assert macs_b.transform_per_sample == 2 * 360 * 321
    tiny = ev.count_macs(ModelConfig("S", 2, 1, 1), batch_size=1)
    assert tiny.linear_per_sample == 1
    assert tiny.transform_per_sample == 2
    assert tiny.total_per_sample == 3


@pytest.mark.parametrize(
    "variant, kwargs, linear, transform",
    [
        ("B", {"bank": "haar"}, 384, 48),
        ("S", {"bank": "d4"}, 192, 96),
        ("LF", {"bank": "haar"}, 192, 48),
        ("HF", {"bank": "sym4"}, 192, 192),
        ("I", {"bank": "d4"}, 192, 144),
        ("M", {"bank": "d4", "moe": MoEConfig(num_experts=3, hidden=5)}, 984, 96),
        ("S", {"bank": "haar", "lf_hidden": 5}, 240, 48),
        ("B", {"bank": "haar", "lf_hidden": 5}, 432, 48),
        ("B", {"bank": "coif1", "delta_per_channel": True}, 384, 144),
    ],
)
def test_count_macs_pinned(variant, kwargs, linear, transform):
    """Per-sample MACs at L=16, S=8, N=3, pinned to the closed form's values."""
    macs = ev.count_macs(ModelConfig(variant, 16, 8, 3, **kwargs), batch_size=32)
    assert macs.linear_per_sample == linear
    assert macs.transform_per_sample == transform


def test_count_macs_batch_scaling_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = _random_config(rng)
        batch = int(rng.integers(1, 100))
        macs = ev.count_macs(cfg, batch)
        assert macs.linear_per_batch == macs.linear_per_sample * batch
        assert macs.total_per_batch == macs.total_per_sample * batch


def test_timing_stability_and_scaling():
    # stability: consecutive measurements of the same warmed-up workload agree
    # to <50% on an idle machine; retry a couple of times to ride out
    # scheduler noise from co-tenants
    work = lambda: np.linalg.norm(np.random.default_rng(0).normal(size=(400, 400)))
    work()
    gaps = []
    for _ in range(3):
        t1 = ev.time_mean(work, repeats=5)
        t2 = ev.time_mean(work, repeats=5)
        gaps.append(abs(t1 - t2) / max(t1, t2))
        if gaps[-1] < 0.5:
            break
    assert min(gaps) < 0.5

    # rough linear scaling in channel count at fixed L, S
    from wavets.model import predict

    def forward_time(channels):
        cfg = ModelConfig("S", 64, 8, channels)
        params = init_params(cfg, 0)
        x = np.random.default_rng(1).normal(size=(8, 64, channels))
        predict(cfg, params, x)  # warm up
        return min(ev.time_mean(lambda: predict(cfg, params, x), repeats=20) for _ in range(3))

    # 10x channels should cost clearly more; like the stability half, retry
    # so that one burst of host load during the small run cannot fail it
    ratios = []
    for _ in range(3):
        small, large = forward_time(16), forward_time(160)
        ratios.append(large / small)
        if ratios[-1] > 2.0:
            break
    assert max(ratios) > 2.0, ratios


def test_zero_epoch_run_reports_no_timing():
    """Settings cannot ask for a run with no epochs, and a result without
    epochs reports its epoch time as absent, not zero."""
    with pytest.raises(InvalidConfigError):
        TrainSettings(max_epochs=0)
    result = TrainResult(params={})
    assert result.epochs_trained == 0
    assert result.mean_epoch_seconds is None  # absent, not zero


def test_run_report_roundtrip(tmp_path):
    report = ev.RunReport(
        dataset="toy",
        variant="S",
        lookback=16,
        horizon=4,
        channels=2,
        bank="haar",
        seed=0,
        mse=0.125,
        mae=0.25,
        param_count=40,
        macs_per_sample=32,
        macs_per_batch=1024,
        transform_macs_per_sample=16,
        epochs_trained=3,
        epoch_time_s=None,
        infer_time_ms=None,
    )
    path = tmp_path / "report.csv"
    ev.write_reports_csv([report], path)
    rows = ev.read_reports_csv(path)
    assert len(rows) == 1 and list(rows[0]) == [f.name for f in fields(ev.RunReport)]  # every field is a column
    assert rows[0]["mse"] == "0.125"
    assert rows[0]["epoch_time_s"] == ""  # None stays absent


def test_hardware_note_reports_the_block_workers_and_the_blas_setting(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert ev.hardware_note().endswith(", fold block workers: 1 (BLAS threads unset)")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert ev.hardware_note().endswith(", fold block workers: 2 (OPENBLAS_NUM_THREADS=2)")
