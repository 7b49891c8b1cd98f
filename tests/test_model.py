import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavets import autodiff as ad
from wavets import model as model_mod
from wavets import moe as moe_mod
from wavets import training as training_mod
from wavets import wavelet as wv
from wavets.data import WindowBatch, synth
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
    fold,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    param_shapes,
    predict,
    save_model,
)
from wavets.moe import MoEConfig
from wavets.optim import Adam
from wavets.training import TrainSettings, evaluate_model, train_model, train_step

from conftest import max_rel_err, numeric_grad
from reference import reference_forward

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


@st.composite
def model_configs(draw):
    """Valid ModelConfigs over every variant, bank and option."""
    variant = draw(st.sampled_from(VARIANTS))
    bank = draw(st.sampled_from(wv.BANK_NAMES))
    taps = wv.get_bank(bank).length
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
        delta_init=draw(st.floats(allow_nan=False, allow_infinity=False)),
        delta_per_channel=draw(st.booleans()),
        revin_affine=draw(st.booleans()),
        lf_hidden=draw(st.integers(0, 32)) if variant in ("B", "S", "LF") else 0,
        moe=MoEConfig(draw(st.integers(1, 8)), draw(st.integers(1, 128))) if variant == "M" else None,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=model_configs())
def test_config_dict_round_trips(cfg):
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg  # as a sidecar


_WRONG_TYPES = {
    "variant": [5, None, ["B"]],
    "lookback": ["16", 16.0, True, None],
    "horizon": [4.0, "4", False],
    "channels": [2.5, True, [2]],
    "bank": [5, None],
    "delta_mode": [1, None],
    "delta_init": ["1.0", None, True, float("nan"), float("inf")],
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
    loss = np.inf
    from wavets.autodiff import constant, mse_loss

    for _ in range(500):
        optimizer.zero_grad()
        out = mse_loss(forward(cfg, params, x), constant(y))
        out.backward()
        optimizer.step()
        loss = out.item()
    assert loss < 1e-3


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
    """band_forward, with constant bands and RevIN's affine after each head's
    first layer, matches the reference, which normalizes and maps the
    lookback on the tape before the transform."""
    cfg = tiny_config(variant, lookback=16, horizon=8, channels=3, bank=bank)
    rng = np.random.default_rng(30)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(4, 16, 3)) * 3.0 + 20.0
    y = rng.normal(size=(4, 8, 3)) * 3.0 + 20.0

    pred, loss, grads = _loss_and_grads(band_forward, cfg, params, x, y)
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
    batch = WindowBatch(x=rng.normal(size=(5, 20, 3)), y=rng.normal(size=(5, 6, 3)), origins=np.arange(5))
    shapes = []
    real = ad.Tensor._accumulate

    def spy(self, g):
        shapes.append(np.shape(g))
        real(self, g)

    monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
    train_step(cfg, params, Adam(params), batch)
    assert (5, 3, cfg.half) not in shapes
    assert (5, 3, cfg.lookback) not in shapes
    assert (5, 3, 8) in shapes  # the spy saw the fused first layer's (B, N, E + E*H) gradient


def test_b_train_step_forms_one_horizon_sized_gradient(monkeypatch):
    """The MSE and the folded forecast are one op each: the only (B, S, N)
    gradient in a B train step is the one the MSE hands the forecast, and
    no tensor gets a (B, L, N) lookback gradient."""
    cfg = ModelConfig("B", 16, 6, 3)
    rng = np.random.default_rng(33)
    params = init_params(cfg, rng)
    batch = WindowBatch(x=rng.normal(size=(5, 16, 3)), y=rng.normal(size=(5, 6, 3)), origins=np.arange(5))
    shapes = []
    real = ad.Tensor._accumulate

    def spy(self, g):
        shapes.append(np.shape(g))
        real(self, g)

    monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
    train_step(cfg, params, Adam(params), batch)
    assert shapes.count((5, 6, 3)) == 1
    assert (5, 16, 3) not in shapes
    assert (6, 16) in shapes  # the fold's (S, L) weight got its gradient


def test_fold_centres_at_most_one_block_of_windows(monkeypatch):
    """With a block budget of two windows, no compute_stats call of a B
    train step or predict sees more than two windows: no batch-sized
    centred copy is made."""
    cfg = ModelConfig("B", 16, 6, 3)
    rng = np.random.default_rng(34)
    params = init_params(cfg, rng)
    batch = WindowBatch(x=rng.normal(size=(5, 16, 3)), y=rng.normal(size=(5, 6, 3)), origins=np.arange(5))
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 16 * 3 * 8)
    seen = []
    real = model_mod.compute_stats

    def spy(values, **kwargs):
        seen.append(len(values))
        return real(values, **kwargs)

    monkeypatch.setattr(model_mod, "compute_stats", spy)
    train_step(cfg, params, Adam(params), batch)
    assert seen == [2, 2, 1]
    predict(cfg, params, batch.x)
    assert seen == [2, 2, 1] * 2


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
    assert offset.shape == (horizon, channels if affine else 1)
    assert np.max(np.abs(predict(cfg, params, x) - band_forward(cfg, params, x).data)) < 1e-10
    loss, grads = loss_and_grads(cfg, params, x, y)
    _, loss_ref, grads_ref = _loss_and_grads(band_forward, cfg, params, x, y)
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
    ad.mean(ad.dwt_pair(x, wv.get_bank("haar"))[0]).backward()
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
    # the reference trains, validates and evaluates on the time-domain band path
    monkeypatch.setattr(training_mod, "forward", reference_forward)
    monkeypatch.setattr(model_mod, "forward", reference_forward)
    banded, banded_metrics = run()

    assert fast.epochs_trained == banded.epochs_trained == 4
    assert fast.best_epoch == banded.best_epoch
    for name, p in banded.params.items():  # relative to each tensor's largest entry
        assert np.max(np.abs(fast.params[name].data - p.data)) <= 1e-9 * np.max(np.abs(p.data)), name
    for key in ("mse", "mae"):
        assert abs(fast_metrics[key] - banded_metrics[key]) <= 1e-9 * abs(banded_metrics[key]), key


def test_low_frequency_band_is_the_band_the_gate_sees(monkeypatch):
    """The gate's logits on the diagnostics band are the logits of M's fused
    first layer, which applies RevIN's affine after the matmul."""
    cfg = tiny_config("M", bank="d4")
    rng = np.random.default_rng(31)
    params = init_params(cfg, rng)
    params["revin.gain"].data = rng.uniform(0.5, 2.0, size=2)
    params["revin.bias"].data = rng.normal(size=2)
    x = rng.normal(size=(3, 8, 2)) + 5.0
    seen = []
    real = moe_mod.moe_forward

    def spy(params, cfg, band, prefix="", first_layer=None):
        seen.append((band, first_layer))
        return real(params, cfg, band, prefix=prefix, first_layer=first_layer)

    monkeypatch.setattr(moe_mod, "moe_forward", spy)
    predict(cfg, params, x)
    ((band, first_layer),) = seen
    weight, bias = params["moe.gate.weight"], params["moe.gate.bias"]
    logits = first_layer(band, weight, bias).data
    diagnostics = ad.linear(ad.constant(model_mod.low_frequency_band(cfg, params, x)), weight, bias).data
    assert np.max(np.abs(logits - diagnostics)) < 1e-12
