import itertools
import os
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from wavets import autodiff as ad
from wavets import evaluation as ev
from wavets import model as model_mod
from wavets import training as training_mod
from wavets.data import WindowBatch, WindowSampler, synth
from wavets.exceptions import (
    ConfigMismatchError,
    InvalidConfigError,
    NonFiniteGradientError,
    ShapeMismatchError,
    ZeroGainError,
)
from wavets.model import ModelConfig, band_forward, init_params
from wavets.moe import MoEConfig
from wavets.training import TrainResult, TrainSettings, evaluate_model, evaluate_mse, train_model

from reference import copied_prologue


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


# The band path's configs: M, an MLP low head and a learnable per-channel delta.
BAND_CONFIGS = {
    "M/d4": EVAL_CONFIGS["M"],
    "B/lf_hidden": ModelConfig("B", 16, 6, 3, lf_hidden=4),
    "B/delta": ModelConfig("B", 16, 6, 3, delta_per_channel=True),
}


@pytest.mark.parametrize("name", BAND_CONFIGS)
def test_band_path_serving_is_bit_identical_for_any_worker_count(monkeypatch, name):
    """evaluate_model and evaluate_mse equal the errors of band_forward on
    each batch, bit for bit, and with a two-epoch train_model (whose
    validation serves through the same runner) they are bit-identical on
    one, two and three block workers; with more than one, no batch of an
    evaluation runs on the calling thread."""
    cfg = BAND_CONFIGS[name]
    series = synth("sine_mix", 160, 3, seed=9)  # 139 windows: the last batch of 8 has 3
    params = _perturbed_params(cfg, 6)
    sampler = WindowSampler(series, cfg.lookback, cfg.horizon)
    reference = ev.accumulate_errors((band_forward(cfg, params, b.x).data, b.y) for b in sampler.batches(8))
    on_main = []
    real = model_mod.band_forward

    def spy(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(model_mod, "band_forward", spy)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
        on_main.clear()
        assert evaluate_model(cfg, params, series, batch_size=8) == reference
        assert evaluate_mse(cfg, params, sampler, 8) == reference["mse"]
        assert len(on_main) == 2 * 18 and set(on_main) == {workers == 1}
        trained = train_model(cfg, series, series, TrainSettings(batch_size=8, max_epochs=2), seed=5)
        runs.append([
            *(p.data for p in trained.params.values()),
            np.array([(e.train_mse, e.val_mse) for e in trained.history]),
        ])
    for other in runs[1:]:
        for a, b in zip(runs[0], other, strict=True):
            assert np.array_equal(a, b)


def _trained(cfg, series, seed=5):
    """A two-epoch train_model's parameters and per-epoch losses, as arrays."""
    trained = train_model(cfg, series, series, TrainSettings(batch_size=8, max_epochs=2), seed=seed)
    return [*(p.data for p in trained.params.values()), np.array([(e.train_mse, e.val_mse) for e in trained.history])]


@pytest.mark.parametrize("name", BAND_CONFIGS)
def test_band_path_training_prepares_its_batches_off_the_calling_thread(monkeypatch, name):
    """train_model takes the band path's batches from train_batches: with two
    or more block workers no prologue runs on the calling thread and the
    train batches' run on one worker fewer (the calling thread runs the
    heads, backward and Adam), with one every prologue runs inline, and two
    epochs are bit-identical on one, two and three workers."""
    cfg = BAND_CONFIGS[name]
    series = synth("sine_mix", 160, 3, seed=9)  # 139 windows: 18 batches of 8, the last of 3
    threads = []
    real = model_mod.band_prologue

    def spy(*args):
        threads.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(model_mod, "band_prologue", spy)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a read of a parameter mid-update would show
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
            threads.clear()
            runs.append(_trained(cfg, series))
            # Per epoch, the 18 train batches, then the 18 validation batches.
            assert len(threads) == 2 * (18 + 18)
            assert {thread is threading.main_thread() for thread in threads} == {workers == 1}
            for epoch in (0, 36):
                assert len({thread.name for thread in threads[epoch : epoch + 18]}) <= max(1, workers - 1)
    finally:
        sys.setswitchinterval(interval)
    for other in runs[1:]:
        for a, b in zip(runs[0], other, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", BAND_CONFIGS)
def test_the_band_prologue_is_the_copied_prologue_bit_for_bit(name):
    """band_prologue's bands and statistics equal a fresh channel-major copy
    of each batch through the whole-signal transform, bit for bit, also for
    a short batch after a full one in the same thread's reused buffer, which
    leaves the first batch's bands as they were; _prologue adds the affine."""
    cfg = BAND_CONFIGS[name]
    params = _perturbed_params(cfg, 8)
    lookbacks = WindowSampler(synth("noise_walk", 60, 3, seed=4), cfg.lookback, cfg.horizon).lookbacks
    local = threading.local()
    full = model_mod.band_prologue(cfg, lookbacks[[5, 0, 30, 17]], local)
    kept = [full.approx.data.copy(), full.detail.data.copy()]
    short = model_mod.band_prologue(cfg, lookbacks[[9, 2]], local)
    for bands, rows in ((full, [5, 0, 30, 17]), (short, [9, 2])):
        for got, expected in zip((bands.approx.data, bands.detail.data, bands.mean, bands.std),
                                 copied_prologue(cfg, lookbacks[rows]), strict=True):
            assert np.array_equal(got, expected)
    assert np.array_equal(full.approx.data, kept[0]) and np.array_equal(full.detail.data, kept[1])
    assert not np.shares_memory(short.approx.data, local.channel_major)
    approx, detail, state = model_mod._prologue(cfg, params, short)
    assert approx is short.approx and detail is short.detail and state.mean is short.mean
    assert state.gain is params["revin.gain"] and state.bias is params["revin.bias"]
    assert np.array_equal(band_forward(cfg, params, short).data, band_forward(cfg, params, lookbacks[[9, 2]]).data)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", BAND_CONFIGS)
def test_a_failing_train_step_stops_the_look_ahead_and_leaves_no_thread(monkeypatch, name, workers):
    """A non-finite gradient in the third step of a band-path epoch: train_model
    raises Adam's NonFiniteGradientError, at most two batches beyond the
    failing one were prepared, every helper thread has ended, and the next
    train_model call trains as one that never failed."""
    cfg = BAND_CONFIGS[name]
    series = synth("sine_mix", 160, 3, seed=9)
    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    expected = _trained(cfg, series)
    threads = threading.active_count()
    steps, prepared = itertools.count(), itertools.count()
    real_loss, real_prologue = training_mod.batch_loss, model_mod.band_prologue

    def failing_loss(*args):
        loss = real_loss(*args)
        return ad.mul(loss, ad.constant(np.nan)) if next(steps) == 2 else loss

    def counted_prologue(*args):
        next(prepared)
        return real_prologue(*args)

    monkeypatch.setattr(training_mod, "batch_loss", failing_loss)
    monkeypatch.setattr(model_mod, "band_prologue", counted_prologue)
    with pytest.raises(NonFiniteGradientError):
        _trained(cfg, series)
    assert 3 <= next(prepared) <= 3 + 2  # the failing third batch, then two at most
    assert threading.active_count() == threads
    monkeypatch.setattr(training_mod, "batch_loss", real_loss)
    for a, b in zip(_trained(cfg, series), expected, strict=True):
        assert np.array_equal(a, b)


def test_the_fold_is_built_once_per_evaluation_call(monkeypatch):
    """One fold serves every batch of an evaluate_model or evaluate_mse call;
    a batch size below one is a config error."""
    cfg = EVAL_CONFIGS["B"]
    series = synth("sine_mix", 120, 3, seed=3)
    params = _perturbed_params(cfg, 5)
    calls = []
    real = model_mod.fold

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(model_mod, "fold", counted)
    assert evaluate_model(cfg, params, series, batch_size=7)["windows"] == 99  # 15 batches
    assert len(calls) == 1
    evaluate_mse(cfg, params, WindowSampler(series, cfg.lookback, cfg.horizon), 7)
    assert len(calls) == 2
    with pytest.raises(InvalidConfigError):
        evaluate_model(cfg, params, series, batch_size=0)


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
