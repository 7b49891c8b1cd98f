import itertools
import json
import os
import threading
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavets import autodiff as ad
from wavets import model as model_mod
from wavets import moe as moe_mod
from wavets import training as training_mod
from wavets import wavelet as wv
from wavets.data import WindowSampler, synth
from wavets.exceptions import (
    ConfigMismatchError,
    InvalidConfigError,
    ShapeMismatchError,
    ZeroGainError,
)
from wavets.model import (
    ModelConfig,
    VARIANTS,
    band_forward,
    batch_loss,
    fold,
    forward,
    init_params,
    load_model,
    param_shapes,
    predict,
    save_model,
)
from wavets.moe import MoEConfig
from wavets.optim import Adam
from wavets.revin import DEFAULT_EPS, compute_stats
from wavets.training import TrainSettings, evaluate_model, train_model, train_step

from conftest import max_rel_err, numeric_grad
from reference import (
    banded_forward,
    composed_folded_forecast,
    composed_mse,
    loss_and_grads,
    mean,
    reference_forward,
    train_batch,
)

TINY = dict(lookback=8, horizon=4, channels=2)


def tiny_config(variant, **overrides):
    moe = MoEConfig(num_experts=2, hidden=3) if variant == "M" else None
    return ModelConfig(variant=variant, moe=moe, **{**TINY, **overrides})


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ModelConfig("X", 8, 4, 2)
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 7, 4, 2)  # odd lookback
    with pytest.raises(InvalidConfigError):
        ModelConfig("I", 8, 3, 2)  # odd horizon for I
    with pytest.raises(InvalidConfigError):
        ModelConfig("M", 8, 4, 2)  # missing moe
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 8, 4, 2, moe=MoEConfig())
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 8, 4, 2, bank="nope")
    with pytest.raises(InvalidConfigError):
        ModelConfig("HF", 8, 4, 2, lf_hidden=16)
    with pytest.raises(InvalidConfigError):
        ModelConfig("B", 8, 4, 2, delta_mode="frozen")
    # S reads no delta field, but its values are still checked before they are dropped.
    with pytest.raises(InvalidConfigError):
        ModelConfig("S", 8, 4, 2, delta_mode="frozen")
    with pytest.raises(InvalidConfigError):
        ModelConfig("S", 8, 4, 2, delta_per_channel=1)


@st.composite
def model_configs(draw):
    """Valid ModelConfigs over every variant, bank and option."""
    variant = draw(st.sampled_from(VARIANTS))
    bank = draw(st.sampled_from(wv.BANK_NAMES))
    taps = wv.get_bank(bank).length
    if draw(st.booleans()):
        bank = bank.upper()
    horizon = draw(st.integers(1, 48))
    if variant == "I":
        horizon = max(2 * (horizon // 2), taps)
    return ModelConfig(
        variant=variant,
        lookback=2 * draw(st.integers(taps // 2, 64)),
        horizon=horizon,
        channels=draw(st.integers(1, 400)),
        bank=bank,
        delta_mode=draw(st.sampled_from(["learnable", "fixed"])),
        delta_init=draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-1000, 1000))),
        delta_per_channel=draw(st.booleans()),
        revin_affine=draw(st.booleans()),
        lf_hidden=draw(st.integers(0, 32)) if variant in ("B", "S", "LF") else 0,
        moe=MoEConfig(draw(st.integers(1, 8)), draw(st.integers(1, 128))) if variant == "M" else None,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=model_configs())
def test_config_dict_round_trips(cfg):
    """A config round-trips through its dict and its sidecar JSON, and
    normalizing it again changes nothing, not even a float's type."""
    sidecar = json.dumps(cfg.to_dict(), sort_keys=True)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert ModelConfig.from_dict(json.loads(sidecar)) == cfg
    assert json.dumps(ModelConfig.from_dict(cfg.to_dict()).to_dict(), sort_keys=True) == sidecar
    assert cfg.bank in wv.BANK_NAMES and type(cfg.delta_init) is float


# Every variant with the fields it ignores set off their defaults (an
# upper-case bank, an int delta_init, a fixed per-channel delta), and the
# normalized dict that config must give.
_IGNORED = dict(bank="HAAR", delta_mode="fixed", delta_init=3, delta_per_channel=True)
_NO_DELTA = {"delta_mode": "learnable", "delta_init": 1.0, "delta_per_channel": False}
_FIXED = {"delta_mode": "fixed", "delta_init": 3.0, "delta_per_channel": False}
_TINY_DICT = {"bank": "haar", "channels": 2, "horizon": 4, "lf_hidden": 0, "lookback": 8, "revin_affine": True}
NORMALIZED = {
    "B": {**_TINY_DICT, **_FIXED, "variant": "B"},
    "S": {**_TINY_DICT, **_NO_DELTA, "variant": "S"},
    "M": {**_TINY_DICT, **_FIXED, "variant": "M", "moe": {"num_experts": 2, "hidden": 3}},
    "I": {**_TINY_DICT, **_FIXED, "variant": "I"},
    "LF": {**_TINY_DICT, **_NO_DELTA, "variant": "LF"},
    "HF": {**_TINY_DICT, **_FIXED, "variant": "HF"},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_fields_a_variant_ignores_take_their_defaults(tmp_path, variant):
    """One model, one config: the config with ignored fields equals the
    canonical one, gives the pinned dict, and writes the same sidecar."""
    cfg = tiny_config(variant, **_IGNORED)
    assert cfg.to_dict() == NORMALIZED[variant]
    assert type(cfg.delta_init) is float
    canonical = ModelConfig.from_dict(NORMALIZED[variant])
    assert cfg == canonical and hash(cfg) == hash(canonical)
    for name, config in (("ignored", cfg), ("canonical", canonical)):
        save_model(config, init_params(config, 0), tmp_path / f"{name}.json")
    for suffix in (".json", ".config.json"):
        assert (tmp_path / f"ignored{suffix}").read_bytes() == (tmp_path / f"canonical{suffix}").read_bytes()


def test_a_learnable_per_channel_delta_is_kept():
    cfg = tiny_config("B", bank="D4", delta_init=2, delta_per_channel=True)
    assert (cfg.bank, cfg.delta_mode, cfg.delta_init, cfg.delta_per_channel) == ("d4", "learnable", 2.0, True)


# Sidecars as earlier versions wrote them, with the fields the model ignores
# kept as given.
_OLD_SIDECARS = {
    "S": """{
 "bank": "HAAR",
 "channels": 2,
 "delta_init": 3,
 "delta_mode": "fixed",
 "delta_per_channel": true,
 "horizon": 4,
 "lf_hidden": 0,
 "lookback": 8,
 "revin_affine": true,
 "variant": "S"
}
""",
    "B": """{
 "bank": "Haar",
 "channels": 2,
 "delta_init": 3,
 "delta_mode": "fixed",
 "delta_per_channel": true,
 "horizon": 4,
 "lf_hidden": 0,
 "lookback": 8,
 "revin_affine": true,
 "variant": "B"
}
""",
}


@pytest.mark.parametrize("variant", sorted(_OLD_SIDECARS))
def test_an_old_sidecar_with_ignored_fields_loads_as_the_canonical_config(tmp_path, variant):
    canonical = ModelConfig.from_dict(NORMALIZED[variant])
    save_model(canonical, init_params(canonical, 0), tmp_path / "canonical.json")
    save_model(canonical, init_params(canonical, 0), tmp_path / "old.json")
    (tmp_path / "old.config.json").write_text(_OLD_SIDECARS[variant])
    cfg, params = load_model(tmp_path / "old.json")
    assert cfg == canonical
    save_model(cfg, params, tmp_path / "again.json")
    for suffix in (".json", ".config.json"):
        assert (tmp_path / f"again{suffix}").read_bytes() == (tmp_path / f"canonical{suffix}").read_bytes()


_WRONG_TYPES = {
    "variant": [5, None, ["B"]],
    "lookback": ["16", 16.0, True, None],
    "horizon": [4.0, "4", False],
    "channels": [2.5, True, [2]],
    "bank": [5, None],
    "delta_mode": [1, None],
    "delta_init": ["1.0", None, True, float("nan"), float("inf"), 10**400],
    "delta_per_channel": [1, "false", None],
    "revin_affine": [0, "yes"],
    "lf_hidden": [1.0, "0", None],
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=model_configs(), data=st.data())
def test_malformed_config_dicts_raise_invalid_config(cfg, data):
    raw = cfg.to_dict()
    kind = data.draw(st.sampled_from(["missing", "unknown", "type", "moe", "not a dict"]))
    if kind == "missing":
        del raw[data.draw(st.sampled_from(["variant", "lookback", "horizon", "channels"]))]
    elif kind == "unknown":
        raw[data.draw(st.sampled_from(["lookbak", "experts", "Variant"]))] = 1
    elif kind == "type":
        key = data.draw(st.sampled_from(sorted(_WRONG_TYPES)))
        raw[key] = data.draw(st.sampled_from(_WRONG_TYPES[key]))
    elif kind == "moe":
        raw["moe"] = data.draw(
            st.sampled_from([[4, 64], 4, "moe", {"num_experts": 2.0, "hidden": 4}, {"num_experts": 2, "hiden": 4}])
        )
    else:
        raw = data.draw(st.sampled_from([list(raw.items())[:1], None, "B"]))
    with pytest.raises(InvalidConfigError):
        ModelConfig.from_dict(raw)


def test_bank_longer_than_window_rejected_at_config():
    with pytest.raises(InvalidConfigError):
        ModelConfig("S", 4, 2, 1, bank="sym4")  # 8 taps > lookback 4
    with pytest.raises(InvalidConfigError):
        ModelConfig("I", 16, 6, 3, bank="sym4")  # I synthesizes the 6-step horizon
    cfg = ModelConfig("I", 16, 8, 3, bank="sym4")
    rng = np.random.default_rng(5)
    loss, grads = loss_and_grads(cfg, init_params(cfg, 0), rng.normal(size=(2, 16, 3)), rng.normal(size=(2, 8, 3)))
    assert np.isfinite(loss)
    assert all(np.isfinite(g).all() for g in grads.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_output_shape(variant):
    cfg = tiny_config(variant)
    params = init_params(cfg, 0)
    out = predict(cfg, params, np.random.default_rng(0).normal(size=(5, 8, 2)))
    assert out.shape == (5, 4, 2)


def test_zero_network_variant_s_predicts_lookback_mean():
    cfg = tiny_config("S")
    params = init_params(cfg, 0)
    params["lf.weight"].data[:] = 0.0
    params["lf.bias"].data[:] = 0.0
    x = np.random.default_rng(1).normal(size=(4, 8, 2)) * 3 + 5
    out = predict(cfg, params, x)
    want = np.repeat(x.mean(axis=1, keepdims=True), 4, axis=1)
    assert np.max(np.abs(out - want)) < 1e-12


def test_variant_b_with_zero_delta_is_bitwise_variant_s():
    cfg_b = tiny_config("B")
    cfg_s = tiny_config("S")
    params_b = init_params(cfg_b, 3)
    params_s = init_params(cfg_s, 4)
    for key in ("lf.weight", "lf.bias", "revin.gain", "revin.bias"):
        params_s[key].data = params_b[key].data.copy()
    params_b["delta"].data = np.array(0.0)
    x = np.random.default_rng(2).normal(size=(3, 8, 2))
    assert np.array_equal(predict(cfg_b, params_b, x), predict(cfg_s, params_s, x))


def test_golden_trace_variant_b():
    # Frozen from an independent hand/numpy pipeline trace:
    # x=[1,2,4,3,5,7,6,8], Haar, gamma=1, beta=0, delta=0.5,
    # W_A=[[1,0],[0,1],[.5,0],[0,.5]], b_A=[.1,-.2],
    # W_D=[[.25,0],[0,.25],[0,0],[.25,.25]], b_D=[0,.3]
    cfg = ModelConfig("B", 8, 2, 1)
    params = init_params(cfg, 0)
    params["lf.weight"].data = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 0.5]])
    params["lf.bias"].data = np.array([0.1, -0.2])
    params["hf.weight"].data = np.array([[0.25, 0.0], [0.0, 0.25], [0.0, 0.0], [0.25, 0.25]])
    params["hf.bias"].data = np.array([0.0, 0.3])
    params["delta"].data = np.array(0.5)
    x = np.array([1.0, 2.0, 4.0, 3.0, 5.0, 7.0, 6.0, 8.0]).reshape(1, 8, 1)
    out = predict(cfg, params, x)
    assert np.allclose(out.ravel(), [1.2819834446811602, 4.650600541462166], atol=1e-12)


def test_single_expert_linear_moe_matches_lf_path():
    half, horizon = 4, 4
    cfg_m = ModelConfig("M", 8, horizon, 2, moe=MoEConfig(num_experts=1, hidden=half))
    cfg_s = tiny_config("S")
    params_s = init_params(cfg_s, 5)
    params_m = init_params(cfg_m, 6)
    # emulate the linear head with one ReLU expert: keep the unit active via a
    # large hidden offset and cancel it in the output bias
    offset = 1e3
    w = params_s["lf.weight"].data
    b = params_s["lf.bias"].data
    params_m["moe.expert0.w1"].data = np.eye(half)
    params_m["moe.expert0.b1"].data = np.full(half, offset)
    params_m["moe.expert0.w2"].data = w.copy()
    params_m["moe.expert0.b2"].data = b - offset * w.sum(axis=0)
    params_m["hf.weight"].data[:] = 0.0
    params_m["hf.bias"].data[:] = 0.0
    params_m["delta"].data = np.array(0.0)
    for key in ("revin.gain", "revin.bias"):
        params_m[key].data = params_s[key].data.copy()
    x = np.random.default_rng(7).normal(size=(3, 8, 2))
    assert np.max(np.abs(predict(cfg_m, params_m, x) - predict(cfg_s, params_s, x))) < 1e-6


def test_overfit_single_batch():
    cfg = tiny_config("B")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 8, 2))
    y = rng.normal(size=(4, 4, 2)) * 0.5
    optimizer = Adam(params, lr=1e-2)
    batch = train_batch(cfg, x, y)
    loss = np.inf
    for _ in range(500):
        loss = train_step(cfg, params, optimizer, batch)
    assert loss < 1e-3


@pytest.mark.parametrize("variant, bank", [("B", "haar"), ("I", "d4"), ("M", "d4")])
def test_forward_serves_a_plain_array_and_leaves_no_gradient(variant, bank):
    """forward returns the band path's forecast as an ndarray, through the
    fold (B, I) or the bands (M), and no parameter gets a gradient."""
    cfg = tiny_config(variant, lookback=16, horizon=6, channels=3, bank=bank)
    rng = np.random.default_rng(34)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(5, 16, 3)) * 2.0 + 4.0
    out = forward(cfg, params, x)
    assert isinstance(out, np.ndarray) and out.shape == (5, 6, 3)
    assert np.max(np.abs(out - banded_forward(cfg, params, x).data)) < 1e-10
    assert all(p.grad is None for p in params.values())


def test_all_zero_params_zero_data():
    cfg = tiny_config("B", revin_affine=False)
    params = init_params(cfg, 0)
    for p in params.values():
        p.data[...] = 0.0
    loss, grads = loss_and_grads(cfg, params, np.zeros((2, 8, 2)), np.zeros((2, 4, 2)))
    assert loss == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_delta_gradient_matches_finite_differences():
    cfg = tiny_config("B")
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    x = rng.normal(size=(3, 8, 2))
    y = rng.normal(size=(3, 4, 2))
    _, grads = loss_and_grads(cfg, params, x, y)

    def f():
        loss, _ = loss_and_grads(cfg, params, x, y)
        return loss

    (num,) = numeric_grad(f, [params["delta"].data])
    assert max_rel_err(grads["delta"], num) < 1e-4


@pytest.mark.parametrize("variant", VARIANTS)
def test_end_to_end_gradients(variant):
    cfg = tiny_config(variant, bank="d4")
    rng = np.random.default_rng(10)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    x = rng.normal(size=(3, 8, 2))
    y = rng.normal(size=(3, 4, 2))
    _, grads = loss_and_grads(cfg, params, x, y)

    def f():
        loss, _ = loss_and_grads(cfg, params, x, y)
        return loss

    for name, p in params.items():
        (num,) = numeric_grad(f, [p.data])
        assert max_rel_err(grads[name], num) < 1e-4, name


def test_horizon_values_cannot_leak_into_predictions():
    cfg = tiny_config("B")
    params = init_params(cfg, 11)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 8, 2))
    y1 = rng.normal(size=(2, 4, 2))
    y2 = y1 + 100.0
    loss1, _ = loss_and_grads(cfg, params, x, y1)
    loss2, _ = loss_and_grads(cfg, params, x, y2)
    assert np.array_equal(predict(cfg, params, x), predict(cfg, params, x))
    assert loss1 != loss2  # losses differ, predictions do not


def test_shape_and_config_mismatch_errors():
    cfg = tiny_config("B")
    params = init_params(cfg, 0)
    with pytest.raises(ShapeMismatchError):
        predict(cfg, params, np.zeros((2, 6, 2)))
    with pytest.raises(ShapeMismatchError):
        loss_and_grads(cfg, params, np.zeros((2, 8, 2)), np.zeros((2, 3, 2)))
    other = init_params(tiny_config("S"), 0)
    with pytest.raises(ConfigMismatchError):
        predict(cfg, other, np.zeros((2, 8, 2)))
    bigger = init_params(tiny_config("B", horizon=6), 0)
    with pytest.raises(ConfigMismatchError):
        predict(cfg, bigger, np.zeros((2, 8, 2)))


def test_per_channel_delta():
    cfg = tiny_config("B", delta_per_channel=True)
    params = init_params(cfg, 0)
    assert params["delta"].shape == (2, 1)
    out = predict(cfg, params, np.random.default_rng(13).normal(size=(2, 8, 2)))
    assert out.shape == (2, 4, 2)


def test_fixed_delta_has_no_parameter():
    cfg = tiny_config("B", delta_mode="fixed", delta_init=1.0)
    params = init_params(cfg, 0)
    assert "delta" not in params
    # fixed delta=1 reproduces the learnable model at delta=1
    cfg_learn = tiny_config("B")
    params_learn = init_params(cfg_learn, 0)
    for key in params:
        params_learn[key].data = params[key].data.copy()
    params_learn["delta"].data = np.array(1.0)
    x = np.random.default_rng(14).normal(size=(2, 8, 2))
    assert np.array_equal(predict(cfg, params, x), predict(cfg_learn, params_learn, x))


def test_lf_hidden_mlp_head():
    cfg = tiny_config("S", lf_hidden=5)
    params = init_params(cfg, 0)
    assert set(param_shapes(cfg)) == {"lf.w1", "lf.b1", "lf.w2", "lf.b2", "revin.gain", "revin.bias"}
    out = predict(cfg, params, np.random.default_rng(15).normal(size=(2, 8, 2)))
    assert out.shape == (2, 4, 2)


def test_zero_gain_propagates():
    cfg = tiny_config("S")
    params = init_params(cfg, 0)
    params["revin.gain"].data[:] = 0.0
    with pytest.raises(ZeroGainError):
        predict(cfg, params, np.random.default_rng(16).normal(size=(1, 8, 2)))


def test_save_load_roundtrip(tmp_path):
    cfg = tiny_config("M")
    params = init_params(cfg, 17)
    path = tmp_path / "checkpoint.json"
    save_model(cfg, params, path)
    loaded_cfg, loaded_params = load_model(path)
    assert loaded_cfg == cfg
    assert set(loaded_params) == set(params)
    for name, p in params.items():
        assert np.array_equal(loaded_params[name].data, p.data.astype(np.float32).astype(np.float64))
    # float32 truncation keeps predictions close
    x = np.random.default_rng(18).normal(size=(2, 8, 2))
    assert np.max(np.abs(predict(cfg, params, x) - predict(loaded_cfg, loaded_params, x))) < 1e-5


@pytest.mark.parametrize(
    "cfg, fixture",
    [
        (ModelConfig("B", 16, 8, 3, delta_per_channel=True, lf_hidden=5, delta_init=0.5), "sidecar_b.config.json"),
        (ModelConfig("M", 16, 8, 3, bank="d4", moe=MoEConfig(num_experts=2, hidden=3)), "sidecar_m.config.json"),
    ],
)
def test_save_model_writes_the_pinned_sidecar(tmp_path, cfg, fixture):
    """The model-config sidecar's bytes are part of the checkpoint format."""
    save_model(cfg, init_params(cfg, 0), tmp_path / "checkpoint.json")
    expected = (Path(__file__).parent / "fixtures" / fixture).read_bytes()
    assert (tmp_path / "checkpoint.config.json").read_bytes() == expected


def test_load_rejects_mismatched_sidecar(tmp_path):
    cfg = tiny_config("B")
    params = init_params(cfg, 0)
    path = tmp_path / "checkpoint.json"
    save_model(cfg, params, path)
    sidecar = tmp_path / "checkpoint.config.json"
    tampered = tiny_config("B", horizon=6)
    import json

    sidecar.write_text(json.dumps(tampered.to_dict()))
    with pytest.raises(ConfigMismatchError):
        load_model(path)


def test_variant_hf_matches_independent_trace():
    cfg = tiny_config("HF", revin_affine=False)
    rng = np.random.default_rng(20)
    params = init_params(cfg, rng)
    params["delta"].data = np.array(0.75)
    x = rng.normal(size=(3, 8, 2))

    # independent numpy pipeline: normalize, split, head, fuse, denormalize
    mean = x.mean(axis=1, keepdims=True)
    std = np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    normalized = np.swapaxes((x - mean) / std, 1, 2)  # (B, N, L)
    alpha = 1 / np.sqrt(2)
    detail = alpha * (normalized[..., 0::2] - normalized[..., 1::2])
    head = detail @ params["hf.weight"].data + params["hf.bias"].data
    want = np.swapaxes(0.75 * head, 1, 2) * std + mean

    assert np.max(np.abs(predict(cfg, params, x) - want)) < 1e-12


def test_variant_i_matches_independent_trace():
    cfg = tiny_config("I", revin_affine=False)
    rng = np.random.default_rng(21)
    params = init_params(cfg, rng)
    params["delta"].data = np.array(0.5)
    x = rng.normal(size=(2, 8, 2))

    mean = x.mean(axis=1, keepdims=True)
    std = np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    normalized = np.swapaxes((x - mean) / std, 1, 2)
    alpha = 1 / np.sqrt(2)
    approx = alpha * (normalized[..., 0::2] + normalized[..., 1::2])
    detail = alpha * (normalized[..., 0::2] - normalized[..., 1::2])
    low = approx @ params["lf.weight"].data + params["lf.bias"].data    # (B, N, S/2)
    high = 0.5 * (detail @ params["hf.weight"].data + params["hf.bias"].data)
    # synthesis interleaves: out[2n] = alpha*(low+high)[n], out[2n+1] = alpha*(low-high)[n]
    fused = np.empty(low.shape[:-1] + (2 * low.shape[-1],))
    fused[..., 0::2] = alpha * (low + high)
    fused[..., 1::2] = alpha * (low - high)
    want = np.swapaxes(fused, 1, 2) * std + mean

    assert np.max(np.abs(predict(cfg, params, x) - want)) < 1e-12


def _loss_and_grads(forward_fn, cfg, params, x, y):
    """Prediction, loss and gradients of ``forward_fn`` on the tape."""
    for p in params.values():
        p.zero_grad()
    pred = forward_fn(cfg, params, x)
    loss = ad.mse_loss(pred, ad.constant(y))
    loss.backward()
    return pred.data, loss.item(), {name: p.grad for name, p in params.items()}


@pytest.mark.parametrize("bank", wv.BANK_NAMES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_band_prologue_matches_time_domain_prologue(variant, bank):
    """band_forward, with the bands of the normalized lookback as constants
    and RevIN's affine after each head's first layer, matches the
    reference, which maps the lookback on the tape before the transform."""
    cfg = tiny_config(variant, lookback=16, horizon=8, channels=3, bank=bank)
    rng = np.random.default_rng(30)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(4, 16, 3)) * 3.0 + 20.0
    y = rng.normal(size=(4, 8, 3)) * 3.0 + 20.0

    pred, loss, grads = _loss_and_grads(banded_forward, cfg, params, x, y)
    pred_ref, loss_ref, grads_ref = _loss_and_grads(reference_forward, cfg, params, x, y)

    assert np.max(np.abs(pred - pred_ref)) < 1e-10
    assert abs(loss - loss_ref) < 1e-10
    for name, grad in grads_ref.items():
        assert np.any(grad != 0), name
        assert np.max(np.abs(grads[name] - grad)) < 1e-10, name


@pytest.mark.parametrize(
    "variant, overrides",
    [
        ("S", dict(lf_hidden=3)),
        ("B", dict(lf_hidden=3, delta_per_channel=True)),
        ("I", dict(delta_per_channel=True)),
        ("HF", dict(delta_per_channel=True, revin_affine=False)),
    ],
)
def test_unfoldable_heads_match_the_reference_forward(variant, overrides):
    """The MLP low-pass head and a per-channel delta, which forward sends to
    band_forward, match the reference in prediction, loss and gradients."""
    cfg = tiny_config(variant, lookback=16, horizon=8, channels=3, bank="d4", **overrides)
    assert fold(cfg, init_params(cfg, 0)) is None
    rng = np.random.default_rng(33)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(4, 16, 3)) * 3.0 - 7.0
    y = rng.normal(size=(4, 8, 3)) * 3.0 - 7.0

    pred_ref, loss_ref, grads_ref = _loss_and_grads(reference_forward, cfg, params, x, y)
    assert np.max(np.abs(predict(cfg, params, x) - pred_ref)) < 1e-10
    loss, grads = loss_and_grads(cfg, params, x, y)
    assert abs(loss - loss_ref) < 1e-10
    for name, grad in grads_ref.items():
        assert np.any(grad != 0), name
        assert np.max(np.abs(grads[name] - grad)) < 1e-10, name


# Every variant's parameter names and shapes, in order, for each option:
# init_params draws the parameters in this order and checkpoints list them
# in it. Each entry is ``name:shape`` with the dims joined by ``x``, at
# lookback 12, horizon 4, two channels, ``lf_hidden=5`` and two experts of
# three hidden units. ``lf_hidden`` applies to B, S and LF only.
SHAPE_OPTIONS = {
    "default": {},
    "lf_hidden": dict(lf_hidden=5),
    "affine_off": dict(revin_affine=False),
    "learnable_per_channel": dict(delta_per_channel=True),
    "fixed_per_channel": dict(delta_mode="fixed", delta_per_channel=True),
}
PINNED_SHAPES = {
    ("B", "default"): "lf.weight:6x4 lf.bias:4 hf.weight:6x4 hf.bias:4 delta:() revin.gain:2 revin.bias:2",
    ("B", "lf_hidden"): (
        "lf.w1:6x5 lf.b1:5 lf.w2:5x4 lf.b2:4 hf.weight:6x4 hf.bias:4 delta:() revin.gain:2 "
        "revin.bias:2"
    ),
    ("B", "affine_off"): "lf.weight:6x4 lf.bias:4 hf.weight:6x4 hf.bias:4 delta:()",
    ("B", "learnable_per_channel"): (
        "lf.weight:6x4 lf.bias:4 hf.weight:6x4 hf.bias:4 delta:2x1 revin.gain:2 revin.bias:2"
    ),
    ("B", "fixed_per_channel"): "lf.weight:6x4 lf.bias:4 hf.weight:6x4 hf.bias:4 revin.gain:2 revin.bias:2",
    ("S", "default"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("S", "lf_hidden"): "lf.w1:6x5 lf.b1:5 lf.w2:5x4 lf.b2:4 revin.gain:2 revin.bias:2",
    ("S", "affine_off"): "lf.weight:6x4 lf.bias:4",
    ("S", "learnable_per_channel"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("S", "fixed_per_channel"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("M", "default"): (
        "hf.weight:6x4 hf.bias:4 moe.gate.weight:6x2 moe.gate.bias:2 moe.expert0.w1:6x3 "
        "moe.expert0.b1:3 moe.expert0.w2:3x4 moe.expert0.b2:4 moe.expert1.w1:6x3 moe.expert1.b1:3 "
        "moe.expert1.w2:3x4 moe.expert1.b2:4 delta:() revin.gain:2 revin.bias:2"
    ),
    ("M", "affine_off"): (
        "hf.weight:6x4 hf.bias:4 moe.gate.weight:6x2 moe.gate.bias:2 moe.expert0.w1:6x3 "
        "moe.expert0.b1:3 moe.expert0.w2:3x4 moe.expert0.b2:4 moe.expert1.w1:6x3 moe.expert1.b1:3 "
        "moe.expert1.w2:3x4 moe.expert1.b2:4 delta:()"
    ),
    ("M", "learnable_per_channel"): (
        "hf.weight:6x4 hf.bias:4 moe.gate.weight:6x2 moe.gate.bias:2 moe.expert0.w1:6x3 "
        "moe.expert0.b1:3 moe.expert0.w2:3x4 moe.expert0.b2:4 moe.expert1.w1:6x3 moe.expert1.b1:3 "
        "moe.expert1.w2:3x4 moe.expert1.b2:4 delta:2x1 revin.gain:2 revin.bias:2"
    ),
    ("M", "fixed_per_channel"): (
        "hf.weight:6x4 hf.bias:4 moe.gate.weight:6x2 moe.gate.bias:2 moe.expert0.w1:6x3 "
        "moe.expert0.b1:3 moe.expert0.w2:3x4 moe.expert0.b2:4 moe.expert1.w1:6x3 moe.expert1.b1:3 "
        "moe.expert1.w2:3x4 moe.expert1.b2:4 revin.gain:2 revin.bias:2"
    ),
    ("I", "default"): "lf.weight:6x2 lf.bias:2 hf.weight:6x2 hf.bias:2 delta:() revin.gain:2 revin.bias:2",
    ("I", "affine_off"): "lf.weight:6x2 lf.bias:2 hf.weight:6x2 hf.bias:2 delta:()",
    ("I", "learnable_per_channel"): (
        "lf.weight:6x2 lf.bias:2 hf.weight:6x2 hf.bias:2 delta:2x1 revin.gain:2 revin.bias:2"
    ),
    ("I", "fixed_per_channel"): "lf.weight:6x2 lf.bias:2 hf.weight:6x2 hf.bias:2 revin.gain:2 revin.bias:2",
    ("LF", "default"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("LF", "lf_hidden"): "lf.w1:6x5 lf.b1:5 lf.w2:5x4 lf.b2:4 revin.gain:2 revin.bias:2",
    ("LF", "affine_off"): "lf.weight:6x4 lf.bias:4",
    ("LF", "learnable_per_channel"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("LF", "fixed_per_channel"): "lf.weight:6x4 lf.bias:4 revin.gain:2 revin.bias:2",
    ("HF", "default"): "hf.weight:6x4 hf.bias:4 delta:() revin.gain:2 revin.bias:2",
    ("HF", "affine_off"): "hf.weight:6x4 hf.bias:4 delta:()",
    ("HF", "learnable_per_channel"): "hf.weight:6x4 hf.bias:4 delta:2x1 revin.gain:2 revin.bias:2",
    ("HF", "fixed_per_channel"): "hf.weight:6x4 hf.bias:4 revin.gain:2 revin.bias:2",
}


def test_param_shapes_are_pinned_for_every_variant_and_option():
    for variant, option in itertools.product(VARIANTS, SHAPE_OPTIONS):
        overrides = SHAPE_OPTIONS[option]
        if (variant, option) not in PINNED_SHAPES:
            with pytest.raises(InvalidConfigError):
                tiny_config(variant, lookback=12, **overrides)
            continue
        expected = [
            (name, tuple(int(d) for d in dims.split("x")) if dims != "()" else ())
            for name, dims in (item.split(":") for item in PINNED_SHAPES[variant, option].split())
        ]
        assert list(param_shapes(tiny_config(variant, lookback=12, **overrides)).items()) == expected, (
            variant, option
        )


@pytest.mark.parametrize(
    "variant, overrides",
    [
        ("S", dict(delta_per_channel=True)),
        ("LF", dict(delta_per_channel=True, revin_affine=False)),
        ("B", dict(delta_mode="fixed", delta_per_channel=True)),
        ("HF", dict(delta_mode="fixed", delta_per_channel=True, revin_affine=False)),
        ("I", dict(delta_mode="fixed", delta_per_channel=True)),
    ],
)
def test_a_per_channel_delta_that_is_not_learned_folds(monkeypatch, variant, overrides):
    """S and LF have no delta, and a fixed delta is one scalar whatever
    delta_per_channel says, so these configs run through the fold, never
    band_forward, and match the reference in prediction, loss and gradients."""
    cfg = tiny_config(variant, lookback=16, horizon=8, channels=3, bank="d4", delta_init=0.7, **overrides)
    rng = np.random.default_rng(37)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    assert fold(cfg, params) is not None
    x = rng.normal(size=(4, 16, 3)) * 3.0 - 7.0
    y = rng.normal(size=(4, 8, 3)) * 3.0 - 7.0

    pred_ref, loss_ref, grads_ref = _loss_and_grads(reference_forward, cfg, params, x, y)
    monkeypatch.setattr(model_mod, "band_forward", None)  # the fold must not need it
    assert np.max(np.abs(predict(cfg, params, x) - pred_ref)) < 1e-10
    loss, grads = loss_and_grads(cfg, params, x, y)
    assert abs(loss - loss_ref) < 1e-10
    assert set(grads) == set(grads_ref)
    for name, grad in grads_ref.items():
        assert np.any(grad != 0), name
        assert np.max(np.abs(grads[name] - grad)) < 1e-10, name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bank=st.sampled_from(wv.BANK_NAMES),
    affine=st.booleans(),
    delta_mode=st.sampled_from(["learnable", "fixed"]),
    per_channel=st.booleans(),
    experts=st.integers(1, 3),
    hidden=st.integers(1, 5),
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    half=st.integers(1, 10),
    horizon=st.integers(1, 8),
    offset_ratio=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    spread=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_m_matches_the_reference_forward(
    bank, affine, delta_mode, per_channel, experts, hidden, batch, channels, half, horizon,
    offset_ratio, spread, seed,
):
    """M's prediction, loss and every gradient match the reference forward."""
    lookback = 2 * max(half, wv.get_bank(bank).length // 2)
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        "M", lookback, horizon, channels, bank=bank, revin_affine=affine, delta_mode=delta_mode,
        delta_per_channel=per_channel, delta_init=float(rng.normal()),
        moe=MoEConfig(num_experts=experts, hidden=hidden),
    )
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    if affine:  # gains of either sign, away from zero
        params["revin.gain"].data = rng.choice([-1.0, 1.0], channels) * rng.uniform(0.5, 2.0, channels)
    x = offset_ratio * spread + spread * rng.normal(size=(batch, lookback, channels))
    y = offset_ratio * spread + spread * rng.normal(size=(batch, horizon, channels))

    pred_ref, loss_ref, grads_ref = _loss_and_grads(reference_forward, cfg, params, x, y)
    assert np.max(np.abs(predict(cfg, params, x) - pred_ref)) < 1e-10
    loss, grads = loss_and_grads(cfg, params, x, y)
    assert abs(loss - loss_ref) < 1e-10
    assert set(grads) == set(grads_ref)
    for name, grad in grads_ref.items():
        assert np.max(np.abs(grads[name] - grad)) < 1e-10, name


def test_m_train_step_forms_no_band_sized_gradient(monkeypatch):
    """The bands are constants: no tensor in an M train step gets a gradient
    shaped like a (B, N, L/2) band or the (B, N, L) lookback."""
    cfg = ModelConfig("M", 20, 6, 3, bank="d4", moe=MoEConfig(num_experts=2, hidden=3))
    rng = np.random.default_rng(32)
    params = init_params(cfg, rng)
    x, y = rng.normal(size=(5, 20, 3)), rng.normal(size=(5, 6, 3))
    shapes = []
    real = ad.Tensor._accumulate

    def spy(self, g):
        shapes.append(np.shape(g))
        real(self, g)

    monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
    train_step(cfg, params, Adam(params), train_batch(cfg, x, y))
    assert (5, 3, cfg.half) not in shapes
    assert (5, 3, cfg.lookback) not in shapes
    assert (5, 3, 8) in shapes  # the spy saw the fused first layer's (B, N, E + E*H) gradient


@pytest.mark.parametrize("writable", [True, False])
@pytest.mark.parametrize("variant", ["M", "B"])
def test_forecasts_leave_the_lookback_unchanged(variant, writable):
    """predict and loss_and_grads never write the caller's lookback, also with
    one channel, where the channel-major layout is the lookback itself."""
    cfg = tiny_config(variant, lookback=16, horizon=4, channels=1, bank="d4")
    rng = np.random.default_rng(35)
    params = init_params(cfg, rng)
    x = rng.normal(size=(3, 16, 1)) * 2.0 + 5.0
    y = rng.normal(size=(3, 4, 1))
    if not writable:  # a read-only view, as unshuffled batches are
        x = x[:]
        x.flags.writeable = False
    before = x.copy()
    first = predict(cfg, params, x)
    loss_and_grads(cfg, params, x, y)
    assert np.array_equal(x, before)
    assert np.array_equal(predict(cfg, params, x), first)


def test_b_train_step_forms_no_batch_sized_gradient(monkeypatch):
    """The forecast and the MSE are one fused op that holds its gradient
    sums: a B train step on shuffled, repeated rows of a window source
    forms no (B, S, N) forecast gradient and no (B, L, N) lookback one,
    and the fold's (S, L) weight gets its gradient."""
    cfg = ModelConfig("B", 16, 6, 3)
    rng = np.random.default_rng(33)
    params = init_params(cfg, rng)
    lookback, target = rng.normal(size=(9, 16, 3)), rng.normal(size=(9, 6, 3))
    rows = np.array([4, 0, 7, 7, 2])
    shapes = []
    real = ad.Tensor._accumulate

    def spy(self, g):
        shapes.append(np.shape(g))
        real(self, g)

    monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
    train_step(cfg, params, Adam(params), train_batch(cfg, lookback, target, rows))
    for batch in (5, 9):
        assert (batch, 6, 3) not in shapes
        assert (batch, 16, 3) not in shapes
    assert (6, 16) in shapes


def test_fold_centres_at_most_one_block_of_windows(monkeypatch):
    """With a block budget of two windows, no compute_stats call of a B
    train step or predict sees more than two windows: no batch-sized
    centred copy is made."""
    cfg = ModelConfig("B", 16, 6, 3)
    rng = np.random.default_rng(34)
    params = init_params(cfg, rng)
    x, y = rng.normal(size=(5, 16, 3)), rng.normal(size=(5, 6, 3))
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 2 * 16 * 3 * 8)
    seen = []
    real = model_mod.compute_stats

    def spy(values, **kwargs):
        seen.append(len(values))
        return real(values, **kwargs)

    monkeypatch.setattr(model_mod, "compute_stats", spy)
    train_step(cfg, params, Adam(params), train_batch(cfg, x, y))
    assert sorted(seen) == [1, 2, 2]  # block workers may centre the blocks in any order
    predict(cfg, params, x)
    assert sorted(seen) == [1, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("variant", ["B", "M"])
def test_train_model_returns_parameters_without_gradients(variant):
    cfg = tiny_config(variant, lookback=16, horizon=6, channels=3, bank="d4")
    series = synth("sine_mix", 80, 3, seed=2)
    result = train_model(cfg, series, series, TrainSettings(batch_size=8, max_epochs=2))
    assert all(p.grad is None for p in result.params.values())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["B", "S", "LF", "HF", "I"]),
    bank=st.sampled_from(wv.BANK_NAMES),
    affine=st.booleans(),
    delta_mode=st.sampled_from(["learnable", "fixed"]),
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    half=st.integers(1, 12),
    horizon=st.integers(1, 12),
    offset_ratio=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    spread=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_fold_matches_tape_forward(
    variant, bank, affine, delta_mode, batch, channels, half, horizon, offset_ratio, spread, seed
):
    """The fold's prediction, loss and every gradient match the band path."""
    taps = wv.get_bank(bank).length
    lookback = 2 * max(half, taps // 2)
    if variant == "I":  # even horizon of at least the bank's length
        horizon = 2 * max((horizon + 1) // 2, taps // 2)
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        variant, lookback, horizon, channels, bank=bank, revin_affine=affine,
        delta_mode=delta_mode, delta_init=float(rng.normal()),
    )
    params = init_params(cfg, rng)
    for name, p in params.items():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    if affine:  # gains of either sign, away from zero
        params["revin.gain"].data = rng.choice([-1.0, 1.0], channels) * rng.uniform(0.5, 2.0, channels)
    x = offset_ratio * spread + spread * rng.normal(size=(batch, lookback, channels))
    y = offset_ratio * spread + spread * rng.normal(size=(batch, horizon, channels))

    weight, offset = fold(cfg, params)
    assert weight.shape == (horizon, lookback)
    assert offset.shape == (horizon, channels)
    if not affine:  # the identity affine's offset is the same for every channel
        assert np.array_equal(offset.data, np.repeat(offset.data[:, :1], channels, axis=1))
    assert np.max(np.abs(predict(cfg, params, x) - banded_forward(cfg, params, x).data)) < 1e-10
    loss, grads = loss_and_grads(cfg, params, x, y)
    _, loss_ref, grads_ref = _loss_and_grads(banded_forward, cfg, params, x, y)
    assert abs(loss - loss_ref) < 1e-10
    for name, grad in grads_ref.items():
        assert np.max(np.abs(grads[name] - grad)) < 1e-10, name

    for other in (
        ModelConfig("M", lookback, horizon, channels, bank=bank, moe=MoEConfig(num_experts=2, hidden=3)),
        ModelConfig("S", lookback, horizon, channels, bank=bank, lf_hidden=3),
        ModelConfig("B", lookback, horizon, channels, bank=bank, delta_per_channel=True),
    ):
        assert fold(other, init_params(other, 0)) is None


@pytest.mark.parametrize("variant", ["B", "I", "M"])
def test_training_never_synthesizes(monkeypatch, variant):
    """Training never runs the transform, forward or backward, on batch data.

    M trains on the band path: it splits each batch but never runs the
    transform's backward. B and I train through the fold, which analyses
    and synthesizes only weight-sized arrays: no call may see an array
    with a batch-sized leading dimension.
    """
    calls = {"dwt_arrays": [], "synthesize_band": []}
    for name in calls:
        real = getattr(wv, name)

        def counted(*args, _real=real, _seen=calls[name]):
            _seen.append(np.shape(args[0]))
            return _real(*args)

        monkeypatch.setattr(wv, name, counted)
    # the counters see the transform, forward and backward, whenever it runs
    x = ad.Tensor(np.ones((1, 4)), requires_grad=True)
    mean(ad.dwt_pair(x, wv.get_bank("haar"))[0]).backward()
    assert calls == {"dwt_arrays": [(1, 4)], "synthesize_band": [(1, 2)]}

    calls["dwt_arrays"].clear()
    calls["synthesize_band"].clear()
    # batches of 5 (and a last one of 4) differ from every model dimension
    cfg = tiny_config(variant, lookback=16, horizon=6, bank="d4")
    series = synth("sine_mix", 80, cfg.channels, seed=0)
    settings = TrainSettings(batch_size=5, max_epochs=1)
    result = train_model(cfg, series, series, settings)
    assert result.epochs_trained == 1
    if variant == "M":
        assert calls["synthesize_band"] == []
        return
    weight_dims = (cfg.lookback, cfg.half, cfg.horizon, cfg.horizon // 2)
    for name, shapes in calls.items():
        assert shapes, name
        for shape in shapes:  # never a (B, N, L/2) band nor a (B, ...) flattening
            assert len(shape) <= 2 and shape[0] in weight_dims, (name, shape)


@pytest.mark.parametrize("variant, bank", [("B", "haar"), ("I", "d4"), ("M", "d4")])
def test_train_model_matches_the_band_path(monkeypatch, variant, bank):
    """Several epochs through the fold (B, I) or through band_forward (M)
    land where the reference forward lands."""
    cfg = tiny_config(variant, lookback=16, horizon=6, channels=3, bank=bank)
    series = synth("sine_mix", 260, 3, seed=6)
    train, val, test = series, synth("sine_mix", 90, 3, seed=7), synth("sine_mix", 90, 3, seed=8)
    settings = TrainSettings(batch_size=16, max_epochs=4, patience=10)

    def run():
        result = train_model(cfg, train, val, settings, seed=3)
        return result, evaluate_model(cfg, result.params, test)

    fast, fast_metrics = run()
    # the reference trains, validates and evaluates on the time-domain band path,
    # from each batch's gathered windows and targets
    reference_steps = []

    def gathered(cfg, lookback, target, batches):
        return ((rows, (lookback[rows], target[rows])) for rows in batches)

    def reference_loss(cfg, params, batch):
        x, y = batch
        reference_steps.append(len(x))
        return composed_mse(reference_forward(cfg, params, x), ad.constant(y))

    def reference_values(cfg, params, x):
        return reference_forward(cfg, params, x).data

    monkeypatch.setattr(training_mod, "train_batches", gathered)
    monkeypatch.setattr(training_mod, "batch_loss", reference_loss)
    monkeypatch.setattr(training_mod, "forward", reference_values)
    monkeypatch.setattr(model_mod, "forward", reference_values)
    banded, banded_metrics = run()

    assert sum(reference_steps) == 4 * (len(series.values) - 16 - 6 + 1)  # every train window, every epoch
    assert fast.epochs_trained == banded.epochs_trained == 4
    assert fast.best_epoch == banded.best_epoch
    for name, p in banded.params.items():  # relative to each tensor's largest entry
        assert np.max(np.abs(fast.params[name].data - p.data)) <= 1e-9 * np.max(np.abs(p.data)), name
    for key in ("mse", "mae"):
        assert abs(fast_metrics[key] - banded_metrics[key]) <= 1e-9 * abs(banded_metrics[key]), key


def test_gate_probabilities_are_the_gate_the_mixture_sees(monkeypatch):
    """The diagnostics' gate probabilities are the softmax of the gate logits
    of M's fused first layer, which applies RevIN's affine after the matmul."""
    cfg = tiny_config("M", bank="d4")
    rng = np.random.default_rng(31)
    params = init_params(cfg, rng)
    params["revin.gain"].data = rng.uniform(0.5, 2.0, size=2)
    params["revin.bias"].data = rng.normal(size=2)
    x = rng.normal(size=(3, 8, 2)) + 5.0
    seen = []
    real = moe_mod.moe_forward

    def spy(params, cfg, band, first_layer=ad.linear):
        seen.append((band, first_layer))
        return real(params, cfg, band, first_layer=first_layer)

    monkeypatch.setattr(moe_mod, "moe_forward", spy)
    predict(cfg, params, x)
    ((band, first_layer),) = seen
    logits = first_layer(band, params["moe.gate.weight"], params["moe.gate.bias"]).data
    softmax = np.exp(logits - logits.max(axis=-1, keepdims=True))
    softmax /= softmax.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(model_mod.gate_probabilities(cfg, params, x) - softmax)) < 1e-12


def test_an_empty_batch_has_empty_bands_forecasts_and_gates():
    """A (0, L, N) batch, with no runner or in a fresh thread namespace, has
    (0, N, L/2) bands, a (0, S, N) forecast and (0, N, E) gate probabilities."""
    cfg = tiny_config("M", bank="d4")
    params = init_params(cfg, 0)
    x = np.zeros((0, 8, 2))
    for local in (None, threading.local()):
        bands = model_mod.band_prologue(cfg, x, local)
        assert bands.approx.shape == bands.detail.shape == (0, 2, 4)
        assert band_forward(cfg, params, bands).shape == (0, 4, 2)
    assert model_mod.gate_probabilities(cfg, params, x).shape == (0, 2, 2)


@pytest.mark.parametrize("variant, bank", [("B", "haar"), ("I", "d4")])
def test_serving_folds_constant_views_of_the_parameters(monkeypatch, variant, bank):
    """predict and evaluate_model build the fold from constant views of the
    parameters, so no parameter it sees requires a gradient and it records
    no tape, and their forecasts are the live parameters' fold bit for bit."""
    cfg = tiny_config(variant, lookback=16, horizon=6, channels=3, bank=bank)
    rng = np.random.default_rng(36)
    params = init_params(cfg, rng)
    x = rng.normal(size=(5, 16, 3))
    expected = _folded_forecast(*(t.data for t in fold(cfg, params)), x)
    seen = []
    real = model_mod.fold

    def spy(cfg, params):
        folded = real(cfg, params)
        seen.extend(t.requires_grad or bool(t._parents) for t in (*params.values(), *folded))
        return folded

    monkeypatch.setattr(model_mod, "fold", spy)
    assert np.array_equal(predict(cfg, params, x), expected)
    evaluate_model(cfg, params, synth("sine_mix", 60, 3, seed=1))
    assert len(seen) == 2 * (len(params) + 2) and not any(seen)


def _folded_forecast(weight, offset, lookback):
    """model_mod.folded_forecast of a non-empty lookback as one batch."""
    (out,) = model_mod.folded_forecast(weight, offset, lookback, len(lookback))
    return out


def _fold_inputs(rng, batch, length, horizon, channels, offset_channels):
    """Random (weight, offset, lookback) for the folded ops: the weight and
    offset as tensors, and the lookback as a plain array."""
    weight = ad.Tensor(rng.normal(size=(horizon, length)), requires_grad=True)
    offset = ad.Tensor(rng.normal(size=(horizon, offset_channels)), requires_grad=True)
    lookback = rng.normal(size=(batch, length, channels)) * rng.uniform(0.5, 2.0, size=channels) + 3.0
    return weight, offset, lookback


def test_folded_forecast_shape_errors():
    """The block loop's output shapes, for an (S, N) and an (S, 1) offset and
    an empty batch; a lookback of the wrong shape, or a Tensor, fails at the
    ``forward`` boundary, since ``fold`` builds the weight and offset."""

    def forecast(weight, offset, lookback):
        return list(model_mod.folded_forecast(np.ones(weight), np.ones(offset), np.ones(lookback), 5))

    assert [out.shape for out in forecast((2, 3), (2, 4), (5, 3, 4))] == [(5, 2, 4)]
    assert [out.shape for out in forecast((2, 3), (2, 1), (7, 3, 4))] == [(5, 2, 4), (2, 2, 4)]
    assert forecast((2, 3), (2, 4), (0, 3, 4)) == []  # an empty source has no batch
    cfg = ModelConfig("B", 4, 2, 3)
    params = init_params(cfg, 0)
    assert forward(cfg, params, np.ones((0, 4, 3))).shape == (0, 2, 3)
    bad = [
        np.ones((5, 2, 3)),  # lookback length
        np.ones((4, 3)),  # no batch axis
        np.ones((2, 5, 4, 3)),  # two batch axes
        np.ones((5, 4, 2)),  # channels
        ad.constant(np.ones((5, 4, 3))),  # a Tensor
    ]
    for lookback in bad:
        with pytest.raises(ShapeMismatchError):
            forward(cfg, params, lookback)


def test_folded_forecast_matches_the_per_window_formula():
    rng = np.random.default_rng(3)
    for offset_channels in (4, 1):  # a per-channel offset, and one shared by the channels
        weight, offset, x = _fold_inputs(rng, 3, 5, 2, 4, offset_channels)
        w, offset = weight.data, offset.data
        out = _folded_forecast(w, offset, x)
        mean, std, centred = compute_stats(x)
        expected = [w @ x_b + m_b + s_b * offset for x_b, m_b, s_b in zip(centred, mean, std)]
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, np.stack(expected))


@pytest.mark.parametrize(
    "batch_shape, length, horizon, channels, offset_channels",
    [((5,), 6, 3, 5, 5), ((5,), 6, 3, 5, 1), ((6,), 4, 2, 3, 3), ((1,), 6, 4, 2, 2), ((1,), 2, 1, 1, 1)],
)
def test_folded_forecast_matches_its_composition(monkeypatch, batch_shape, length, horizon, channels, offset_channels):
    """The blocked forecast against compute_stats on the whole batch plus
    left_matmul + add + mul + add, with one window per block, two (a ragged
    last block when the batch is odd) and the whole batch as one block:
    bit for bit, from a read-only lookback."""
    (batch,) = batch_shape
    for per_block in (1, 2, batch):
        rng = np.random.default_rng(11)
        weight, offset, x = _fold_inputs(rng, batch, length, horizon, channels, offset_channels)
        x.flags.writeable = False
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", per_block * length * channels * 8)
        seen = []

        def spy(values, **kwargs):
            seen.append(len(values))
            return compute_stats(values, **kwargs)

        monkeypatch.setattr(model_mod, "compute_stats", spy)
        out = _folded_forecast(weight.data, offset.data, x)
        mean, std, centred = compute_stats(x)
        ref = composed_folded_forecast(weight, offset, *(ad.constant(a) for a in (centred, mean, std)))
        assert sorted(seen) == sorted(min(per_block, batch - start) for start in range(0, batch, per_block))
        assert np.array_equal(out, ref.data)


def _fused_inputs(rng, windows, length, horizon, channels, offset_channels):
    """Random (weight, offset, lookback, target) for :func:`model_mod.folded_mse`:
    the lookback and target are (W, ., N) window sources, read-only like a
    sampler's sliding views."""
    weight, offset, lookback = _fold_inputs(rng, windows, length, horizon, channels, offset_channels)
    target = rng.normal(size=(windows, horizon, channels)) * 2.0 + 3.0
    for source in (lookback, target):
        source.flags.writeable = False
    return weight, offset, lookback, target


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    batch=st.integers(1, 9),
    extra=st.integers(0, 4),
    length=st.integers(2, 8),
    horizon=st.integers(1, 5),
    channels=st.integers(1, 4),
    per_block=st.integers(1, 4),
    order=st.sampled_from(["run", "shuffled", "repeated"]),
    seed=st.integers(0, 2**16),
)
def test_folded_mse_matches_its_composition(batch, extra, length, horizon, channels, per_block, order, seed):
    """The fused op against compute_stats on the gathered batch plus
    composed_folded_forecast + composed_mse: the loss and both gradients
    within 1e-10, for one to four channels, blocks of one to four windows
    (a partial last block whenever the block does not divide the batch)
    and rows in a run, shuffled or repeated."""
    rng = np.random.default_rng(seed)
    windows = batch + extra
    weight, offset, lookback, target = _fused_inputs(rng, windows, length, horizon, channels, channels)
    if order == "run":
        rows = np.arange(extra, windows)
    elif order == "shuffled":
        rows = rng.permutation(windows)[:batch]
    else:
        rows = rng.integers(0, min(windows, 3), size=batch)
    composed = tuple(ad.Tensor(t.data.copy(), requires_grad=True) for t in (weight, offset))
    seen = []

    def spy(values, **kwargs):
        seen.append(len(values))
        return compute_stats(values, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_mod, "_BLOCK_BYTES", per_block * length * channels * 8)
        patch.setattr(model_mod, "compute_stats", spy)
        loss = model_mod.folded_mse(weight, offset, lookback, target, rows)
    assert sorted(seen) == sorted(min(per_block, batch - start) for start in range(0, batch, per_block))
    mean, std, centred = compute_stats(lookback[rows])
    pred = composed_folded_forecast(*composed, *(ad.constant(a) for a in (centred, mean, std)))
    ref = composed_mse(pred, ad.constant(target[rows]))
    assert abs(loss.item() - ref.item()) <= 1e-10 * max(1.0, abs(ref.item()))
    loss.backward()
    ref.backward()
    for a, b in zip((weight, offset), composed):
        assert a.grad.shape == b.grad.shape
        assert np.max(np.abs(a.grad - b.grad)) <= 1e-10 * max(1.0, np.max(np.abs(b.grad)))


def test_folded_mse_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for channels in (4, 1):
        w, offset, lookback, target = _fused_inputs(rng, 6, 5, 2, channels, channels)
        rows = np.array([5, 1, 1, 3])
        loss = model_mod.folded_mse(w, offset, lookback, target, rows)
        loss.backward()
        mean, std, centred = compute_stats(lookback[rows])

        def f():
            pred = w.data @ centred + mean[:, None, :] + std[:, None, :] * offset.data
            return float(np.mean((pred - target[rows]) ** 2))

        assert abs(loss.item() - f()) <= 1e-12 * f()
        numeric = numeric_grad(f, [w.data, offset.data])
        for tensor, num in zip((w, offset), numeric):
            assert tensor.grad.shape == tensor.shape
            assert max_rel_err(tensor.grad, num) < 1e-4


def test_fold_is_bit_identical_for_any_worker_count(monkeypatch):
    """With several blocks per batch, the forecasts, the fused loss and both
    its gradients, and a two-epoch train_model of B (parameters and every
    epoch's losses) are bit-identical on one, two and three block workers;
    with more than one, no block runs on the calling thread."""
    rng = np.random.default_rng(41)
    weight, offset, lookback, target = _fused_inputs(rng, 23, 8, 3, 4, 4)
    rows = rng.permutation(23)[:17]
    cfg = ModelConfig("B", 16, 6, 3)
    series = synth("sine_mix", 160, 3, seed=9)  # 139 windows: the last batch of 8 has 3
    # two windows per block of the folded ops, one per block of train_model's
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 2 * 8 * 4 * 8)
    on_main = []

    def spy(values, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return compute_stats(values, **kwargs)

    monkeypatch.setattr(model_mod, "compute_stats", spy)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
        on_main.clear()
        w, o = (ad.Tensor(t.data.copy(), requires_grad=True) for t in (weight, offset))
        loss = model_mod.folded_mse(w, o, lookback, target, rows)
        loss.backward()
        trained = train_model(cfg, series, series, TrainSettings(batch_size=8, max_epochs=2), seed=5)
        assert set(on_main) == {workers == 1}
        runs.append([
            _folded_forecast(weight.data, offset.data, lookback),
            np.array(loss.item()),
            w.grad,
            o.grad,
            *(p.data for p in trained.params.values()),
            np.array([(e.train_mse, e.val_mse) for e in trained.history]),
        ])
    for other in runs[1:]:
        for a, b in zip(runs[0], other, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_block_cancels_the_rest_and_leaves_no_thread(monkeypatch, workers):
    """compute_stats raising on the third of twelve blocks: folded_forecast
    and folded_mse raise that exception, the blocks not yet started never
    start, every worker thread has ended, and the next call succeeds."""
    rng = np.random.default_rng(43)
    weight, offset, lookback, target = _fused_inputs(rng, 12, 8, 3, 4, 4)
    rows = np.arange(12)
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 8 * 4 * 8)  # one window per block
    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    calls = [
        lambda: _folded_forecast(weight.data, offset.data, lookback),
        lambda: model_mod.folded_mse(weight, offset, lookback, target, rows).data,
    ]
    expected = [call() for call in calls]
    threads = threading.active_count()
    failure = RuntimeError("the third block fails")
    for call, result in zip(calls, expected):
        started = itertools.count()

        def failing(values, **kwargs):
            if next(started) == 2:
                raise failure
            return compute_stats(values, **kwargs)

        monkeypatch.setattr(model_mod, "compute_stats", failing)
        with pytest.raises(RuntimeError) as raised:
            call()
        assert raised.value is failure
        assert next(started) <= 3 + 2 * workers < 12  # later blocks were cancelled
        assert threading.active_count() == threads
        monkeypatch.setattr(model_mod, "compute_stats", compute_stats)
        assert np.array_equal(call(), result)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_batch_of_the_band_path_cancels_the_rest_and_leaves_no_thread(monkeypatch, workers):
    """band_forward raising on the third of twelve batches of an M
    evaluation: evaluate_model raises that exception, no batch beyond the
    runner's look-ahead starts, every worker thread has ended, and the next
    call succeeds."""
    cfg = tiny_config("M", lookback=16, horizon=6, channels=3, bank="d4")
    series = synth("noise_walk", 12 * 4 + 16 + 6 - 1, 3, seed=7)  # twelve batches of four windows
    params = init_params(cfg, 0)
    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    expected = evaluate_model(cfg, params, series, batch_size=4)
    threads = threading.active_count()
    failure = RuntimeError("the third batch fails")
    started = itertools.count()
    real = model_mod.band_forward

    def failing(*args):
        if next(started) == 2:
            raise failure
        return real(*args)

    queued = []
    real_slices = model_mod._slices

    def counted(*args):
        for batch in real_slices(*args):
            queued.append(batch)
            yield batch

    monkeypatch.setattr(model_mod, "band_forward", failing)
    monkeypatch.setattr(model_mod, "_slices", counted)
    with pytest.raises(RuntimeError) as raised:
        evaluate_model(cfg, params, series, batch_size=4)
    assert raised.value is failure
    # Read up to the third batch: the workers' batches plus one queued, at most.
    assert next(started) <= len(queued) <= 3 + workers < 12
    assert threading.active_count() == threads
    monkeypatch.setattr(model_mod, "band_forward", real)
    monkeypatch.setattr(model_mod, "_slices", real_slices)
    assert evaluate_model(cfg, params, series, batch_size=4) == expected


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("variant", ["B", "M"])
def test_closing_the_served_batches_early_leaves_no_thread(monkeypatch, variant, workers):
    """Closing forecast_batches after its first of twelve batches, of the fold
    (one window per block) or of the band path, leaves no worker thread."""
    cfg = tiny_config(variant, lookback=16, horizon=6, channels=3, bank="d4")
    params = init_params(cfg, 0)
    lookbacks = WindowSampler(synth("noise_walk", 12 * 4 + 16 + 6 - 1, 3, seed=7), 16, 6).lookbacks
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 16 * 3 * 8)
    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    threads = threading.active_count()
    with closing(model_mod.forecast_batches(cfg, params, lookbacks, 4)) as batches:
        first = next(batches)
    assert threading.active_count() == threads
    assert np.array_equal(first, forward(cfg, params, lookbacks[:4]))


def test_block_workers_share_the_cpus_with_blas(monkeypatch):
    """The BLAS thread count comes from OPENBLAS_NUM_THREADS, then
    OMP_NUM_THREADS (a count below one is not set, as BLAS reads it), and
    the blocks get the CPUs it leaves; with neither set, they run inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert model_mod.blas_threads() is None
    assert model_mod._block_workers() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    assert model_mod.blas_threads() == ("OMP_NUM_THREADS", 2)
    assert model_mod._block_workers() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert model_mod.blas_threads() == ("OPENBLAS_NUM_THREADS", 1)
    assert model_mod._block_workers() == 5
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert model_mod._block_workers() == 1


def test_folded_mse_shape_errors():
    """train_batches is the one check of a training batch: a mismatched target,
    a lookback of the wrong length, and rows that are not a non-empty 1-D
    integer array in [0, W) all fail before the fold runs."""
    cfg = ModelConfig("B", 4, 2, 3)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(6)
    _, _, lookback, target = _fused_inputs(rng, 5, 4, 2, 3, 3)
    assert np.isfinite(batch_loss(cfg, params, train_batch(cfg, lookback, target, np.array([4, 0]))).item())
    bad = [
        (lookback, target[:, :1], [0]),  # target horizon
        (lookback, target[:4], [0]),  # target window count
        (lookback, target[..., :2], [0]),  # target channels
        (lookback[:, :3], target, [0]),  # lookback length
        (lookback, target, []),  # no rows
        (lookback, target, [[0, 1]]),  # rows rank
        (lookback, target, [0.0, 1.0]),  # rows dtype
        (lookback, target, [0, 5]),  # past the last window
        (lookback, target, [-1]),  # negative
    ]
    for source, goal, rows in bad:
        with pytest.raises(ShapeMismatchError):
            train_batch(cfg, source, goal, np.array(rows))


@pytest.mark.parametrize("variant, bank", [("M", "d4"), ("B", "haar")])
def test_batch_loss_rejects_rows_outside_the_sources(variant, bank):
    """train_batches rejects the same rows for both branches, the fold's and the band path's."""
    cfg = tiny_config(variant, lookback=8, horizon=4, channels=2, bank=bank)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(12)
    lookback, target = rng.normal(size=(6, 8, 2)), rng.normal(size=(6, 4, 2))
    assert np.isfinite(batch_loss(cfg, params, train_batch(cfg, lookback, target, np.array([5, 0]))).item())
    for rows in (np.array([-1]), np.array([6]), np.array([], dtype=np.int64), np.array([0.0, 1.0])):
        with pytest.raises(ShapeMismatchError):
            train_batch(cfg, lookback, target, rows)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("variant, bank", [("M", "d4"), ("B", "haar")])
def test_train_batches_checks_each_batch_before_any_thread_reads_it(monkeypatch, variant, bank, workers):
    """A batch of origins past the last window or below zero, after two good
    ones, raises train_batches' ShapeMismatchError, every batch's origins are
    checked on the calling thread, and no take_windows or band_prologue call
    on any thread sees the bad ones; no thread outlives the call."""
    cfg = tiny_config(variant, lookback=8, horizon=4, channels=2, bank=bank)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(13)
    lookback, target = rng.normal(size=(6, 8, 2)), rng.normal(size=(6, 4, 2))
    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    taken, prologues, checked_on_main = [], [], set()
    real_check, real_take, real_prologue = model_mod.check_origins, model_mod.take_windows, model_mod.band_prologue

    def check(rows, count):
        checked_on_main.add(threading.current_thread() is threading.main_thread())
        return real_check(rows, count)

    def take(source, rows):
        taken.append(np.asarray(rows).tolist())
        return real_take(source, rows)

    def prologue(cfg, x, local=None):
        prologues.append(len(x))
        return real_prologue(cfg, x, local)

    monkeypatch.setattr(model_mod, "check_origins", check)
    monkeypatch.setattr(model_mod, "take_windows", take)
    monkeypatch.setattr(model_mod, "band_prologue", prologue)
    threads = threading.active_count()
    for bad in ([6 + 5, 3], [-1, 0]):
        taken.clear()
        prologues.clear()
        batches = [np.array([4, 1]), np.array([2, 3]), np.array(bad), np.array([0, 5])]
        with pytest.raises(ShapeMismatchError):
            with closing(model_mod.train_batches(cfg, lookback, target, batches)) as made:
                for _, batch in made:
                    batch_loss(cfg, params, batch)
        assert checked_on_main == {True}
        assert taken and all(0 <= row < 6 for rows in taken for row in rows)
        # At most the two good batches' prologues ran before the runner cancelled the rest.
        assert set(prologues) <= ({2} if variant == "M" else set()) and len(prologues) <= 2
        assert threading.active_count() == threads


def test_folded_mse_full_batch_gradient_identity(monkeypatch):
    """Over one unshuffled epoch at a fixed weight, the window-weighted sum of
    the per-batch weight gradients is the full-batch least-squares gradient
    ``(2/n) * (W @ sum(x_c x_c^T) + sum((mean + std * offset - y) x_c^T))``,
    its sums taken window by window and channel by channel from the series."""
    length, horizon, batch_size = 8, 3, 6
    series = synth("noise_walk", 30, 2, seed=9)
    values = series.values
    sampler = WindowSampler(series, length, horizon)
    rng = np.random.default_rng(10)
    weight = ad.Tensor(rng.normal(size=(horizon, length)), requires_grad=True)
    offset = ad.Tensor(rng.normal(size=(horizon, 2)), requires_grad=True)
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 2 * length * 2 * 8)  # several blocks per batch

    summed = np.zeros(weight.shape)
    for rows in sampler.batch_origins(batch_size):
        weight.zero_grad()
        model_mod.folded_mse(weight, offset, sampler.lookbacks, sampler.targets, rows).backward()
        summed += weight.grad * len(rows) / len(sampler)

    gram, cross = np.zeros((length, length)), np.zeros((horizon, length))
    for t in range(len(sampler)):
        for n in range(values.shape[1]):
            x = values[t : t + length, n]
            y = values[t + length : t + length + horizon, n]
            x_c = x - x.mean()
            std = np.sqrt(np.mean(x_c**2) + DEFAULT_EPS)
            gram += np.outer(x_c, x_c)
            cross += np.outer(x.mean() + std * offset.data[:, n] - y, x_c)
    count = len(sampler) * horizon * values.shape[1]
    expected = 2.0 / count * (weight.data @ gram + cross)
    assert len(sampler) % batch_size  # a partial last batch
    assert np.max(np.abs(summed - expected)) <= 1e-10


def test_folded_mse_on_constants_records_no_parents():
    rng = np.random.default_rng(7)
    weight, offset = ad.constant(rng.normal(size=(3, 4))), ad.constant(np.ones((3, 1)))
    out = model_mod.folded_mse(weight, offset, rng.normal(size=(1, 4, 2)), np.ones((1, 3, 2)), np.array([0]))
    assert out._parents == () and out._backward is None
    assert not out.requires_grad
