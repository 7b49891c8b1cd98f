import math

import numpy as np
import pytest

from wavets import moe
from wavets.autodiff import Tensor, constant, mixture, mse_loss, mul
from wavets.data import synth
from wavets.exceptions import InvalidConfigError, NonFiniteInputError, ShapeMismatchError
from wavets.wavelet import dwt_arrays, get_bank

from conftest import max_rel_err, numeric_grad
from reference import expert_forward, mean, mixture_loop


def make_params(cfg, in_dim, out_dim, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)
        for name, shape in moe.param_shapes(cfg, in_dim, out_dim).items()
    }


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        moe.MoEConfig(num_experts=0)
    with pytest.raises(InvalidConfigError):
        moe.MoEConfig(hidden=0)


def test_uniform_gate_when_weights_zero():
    cfg = moe.MoEConfig(num_experts=3, hidden=2)
    params = make_params(cfg, 4, 2)
    params["moe.gate.weight"].data[:] = 0.0
    params["moe.gate.bias"].data[:] = 0.0
    probs = moe.gate(params, Tensor(np.random.default_rng(0).normal(size=(2, 5, 4))))
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-12


def test_gate_bias_dominates():
    cfg = moe.MoEConfig(num_experts=3, hidden=2)
    params = make_params(cfg, 4, 2)
    params["moe.gate.weight"].data[:] = 0.0
    params["moe.gate.bias"].data = np.array([10.0, 0.0, 0.0])
    probs = moe.gate(params, Tensor(np.zeros((1, 2, 4))))
    expected = np.exp([10.0, 0.0, 0.0])
    expected = expected / expected.sum()
    assert np.max(np.abs(probs - expected)) < 1e-12
    assert np.allclose(probs[0, 0], [0.99990, 0.00005, 0.00005], atol=1e-5)


def test_gate_rows_sum_to_one():
    cfg = moe.MoEConfig(num_experts=5, hidden=2)
    params = make_params(cfg, 6, 3, seed=1, scale=2.0)
    x = np.random.default_rng(2).normal(size=(3, 7, 6)) * 5
    probs = moe.gate(params, Tensor(x))
    assert probs.shape == (3, 7, 5)
    assert np.all(probs >= 0)
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12


def test_gate_shape_check():
    cfg = moe.MoEConfig(num_experts=2, hidden=2)
    params = make_params(cfg, 4, 2)
    with pytest.raises(ShapeMismatchError):
        moe.gate(params, Tensor(np.zeros((1, 2, 5))))


def test_expert_constant_output_with_zero_weights():
    cfg = moe.MoEConfig(num_experts=1, hidden=3)
    params = make_params(cfg, 4, 2)
    for key in ("moe.expert0.w1", "moe.expert0.b1", "moe.expert0.w2"):
        params[key].data[:] = 0.0
    params["moe.expert0.b2"].data = np.array([0.7, -1.2])
    out = expert_forward(params, 0, Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))).data
    assert np.allclose(out, np.broadcast_to([0.7, -1.2], (2, 3, 2)), atol=1e-15)


def test_expert_hand_traced_h1():
    cfg = moe.MoEConfig(num_experts=1, hidden=1)
    params = make_params(cfg, 2, 3)
    params["moe.expert0.w1"].data = np.array([[0.5], [-0.25]])
    params["moe.expert0.b1"].data = np.array([0.1])
    params["moe.expert0.w2"].data = np.array([[2.0, -1.0, 0.5]])
    params["moe.expert0.b2"].data = np.array([0.3, 0.0, -0.2])
    x = np.array([[[1.0, 2.0]]])
    # hidden = relu(0.5*1 - 0.25*2 + 0.1) = 0.1
    want = 0.1 * np.array([2.0, -1.0, 0.5]) + np.array([0.3, 0.0, -0.2])
    out = expert_forward(params, 0, Tensor(x)).data
    assert np.allclose(out.ravel(), want, atol=1e-15)


def test_expert_gradients_match_finite_differences():
    cfg = moe.MoEConfig(num_experts=1, hidden=3)
    params = make_params(cfg, 4, 2, seed=3)
    x = np.random.default_rng(4).normal(size=(2, 3, 4))
    target = np.random.default_rng(5).normal(size=(2, 3, 2))

    from wavets.autodiff import constant, mse_loss

    loss = mse_loss(expert_forward(params, 0, Tensor(x)), constant(target))
    loss.backward()

    def f():
        h = np.maximum(x @ params["moe.expert0.w1"].data + params["moe.expert0.b1"].data, 0.0)
        out = h @ params["moe.expert0.w2"].data + params["moe.expert0.b2"].data
        return float(np.mean((out - target) ** 2))

    keys = [f"moe.expert0.{leaf}" for leaf in ("w1", "b1", "w2", "b2")]
    numeric = numeric_grad(f, [params[k].data for k in keys])
    for key, num in zip(keys, numeric):
        assert max_rel_err(params[key].grad, num) < 1e-4, key


def test_single_expert_mixture_is_identity():
    cfg = moe.MoEConfig(num_experts=1, hidden=4)
    params = make_params(cfg, 6, 3, seed=6)
    x = Tensor(np.random.default_rng(7).normal(size=(2, 4, 6)))
    mixture = moe.moe_forward(params, cfg, x).data
    solo = expert_forward(params, 0, x).data
    assert np.max(np.abs(mixture - solo)) < 1e-6


@pytest.mark.parametrize("experts", [1, 3])
def test_fused_mixture_matches_the_per_expert_loop(experts):
    """The fused first layer and the mixture op match sum_e gate_e * expert_e(x),
    in value and in every gradient, the input's included."""
    cfg = moe.MoEConfig(num_experts=experts, hidden=4)

    def run(mixed):
        params = make_params(cfg, 5, 3, seed=10, scale=0.8)
        x = Tensor(np.random.default_rng(11).normal(size=(2, 4, 5)), requires_grad=True)
        out = mixed(params, x)
        mean(mul(out, out)).backward()
        return out.data, {name: p.grad for name, p in [*params.items(), ("x", x)]}

    fused, fused_grads = run(lambda params, x: moe.moe_forward(params, cfg, x))
    looped, looped_grads = run(lambda params, x: mixture_loop(params, experts, x))
    assert np.max(np.abs(fused - looped)) < 1e-12
    for name, grad in looped_grads.items():
        assert np.max(np.abs(fused_grads[name] - grad)) < 1e-12, name


@pytest.mark.parametrize("experts", [1, 4])
@pytest.mark.parametrize("saturated", [False, True])
def test_mixture_gradients_match_finite_differences(experts, saturated):
    """The op's hand-derived backward against central differences of a plain
    numpy mixture, with gate logits at +-1000 (a one-hot gate) when
    ``saturated``; ``pre`` keeps clear of the ReLU kink."""
    hidden, out_dim = 3, 2
    rng = np.random.default_rng(20 + experts)
    shape = (2, 3, experts * hidden)
    units = rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    logits = rng.normal(size=(2, 3, experts))
    if saturated:
        logits = 1000.0 * rng.choice([-1.0, 1.0], size=logits.shape)
    pre = Tensor(np.concatenate([logits, units], axis=-1), requires_grad=True)
    w2 = Tensor(rng.normal(size=(experts * hidden, out_dim)), requires_grad=True)
    b2 = Tensor(rng.normal(size=experts * out_dim), requires_grad=True)
    target = rng.normal(size=(2, 3, out_dim))

    def f():
        gate = np.exp(pre.data[..., :experts] - pre.data[..., :experts].max(axis=-1, keepdims=True))
        gate /= gate.sum(axis=-1, keepdims=True)
        h = np.maximum(pre.data[..., experts:], 0.0).reshape(2, 3, experts, hidden)
        per_expert = np.einsum("bneh,eho->bneo", h, w2.data.reshape(experts, hidden, out_dim))
        out = np.einsum("bne,bneo->bno", gate, per_expert + b2.data.reshape(experts, out_dim))
        return float(np.mean((out - target) ** 2))

    mse_loss(mixture(pre, w2, b2, experts), constant(target)).backward()
    for tensor, num in zip((pre, w2, b2), numeric_grad(f, [pre.data, w2.data, b2.data])):
        assert max_rel_err(tensor.grad, num) < 1e-5

    # an input that needs no gradient gets none, and the others still do
    frozen = Tensor(pre.data)
    w2.zero_grad()
    mse_loss(mixture(frozen, w2, b2, experts), constant(target)).backward()
    assert frozen.grad is None and w2.grad is not None


def test_mixture_rejects_non_finite_and_mismatched_input():
    w2, b2 = Tensor(np.ones((4, 3))), Tensor(np.ones(6))
    for bad in (np.inf, np.nan):
        for column in (0, 3):  # a gate logit and a unit
            pre = np.zeros((2, 6))
            pre[1, column] = bad
            with pytest.raises(NonFiniteInputError):
                mixture(Tensor(pre, requires_grad=True), w2, b2, 2)
    for pre, w, b in (((2, 7), (4, 3), (6,)), ((2, 6), (5, 3), (6,)), ((2, 6), (4, 3), (3,))):
        with pytest.raises(ShapeMismatchError):
            mixture(Tensor(np.zeros(pre)), Tensor(np.ones(w)), Tensor(np.ones(b)), 2)


def test_identical_experts_ignore_gate():
    cfg = moe.MoEConfig(num_experts=2, hidden=4)
    params = make_params(cfg, 6, 3, seed=8, scale=1.0)
    for leaf in ("w1", "b1", "w2", "b2"):
        params[f"moe.expert1.{leaf}"].data = params[f"moe.expert0.{leaf}"].data.copy()
    x = Tensor(np.random.default_rng(9).normal(size=(3, 5, 6)))
    mixture = moe.moe_forward(params, cfg, x).data
    solo = expert_forward(params, 0, x).data
    assert np.max(np.abs(mixture - solo)) < 1e-9


def test_hand_mixture_quarter_three_quarters():
    cfg = moe.MoEConfig(num_experts=2, hidden=1)
    params = make_params(cfg, 2, 2)
    # constant experts o1, o2
    for e, out_value in ((0, np.array([1.0, -2.0])), (1, np.array([3.0, 5.0]))):
        params[f"moe.expert{e}.w1"].data[:] = 0.0
        params[f"moe.expert{e}.b1"].data[:] = 0.0
        params[f"moe.expert{e}.w2"].data[:] = 0.0
        params[f"moe.expert{e}.b2"].data = out_value
    params["moe.gate.weight"].data[:] = 0.0
    params["moe.gate.bias"].data = np.log(np.array([0.25, 0.75]))  # softmax(log p) = p
    out = moe.moe_forward(params, cfg, Tensor(np.zeros((1, 1, 2)))).data
    want = 0.25 * np.array([1.0, -2.0]) + 0.75 * np.array([3.0, 5.0])
    assert np.allclose(out.ravel(), want, atol=1e-12)


def test_mixture_stays_in_expert_convex_hull():
    cfg = moe.MoEConfig(num_experts=3, hidden=4)
    params = make_params(cfg, 8, 5, seed=10, scale=0.8)
    x = Tensor(np.random.default_rng(11).normal(size=(4, 6, 8)))
    mixture = moe.moe_forward(params, cfg, x).data
    stack = np.stack([expert_forward(params, e, x).data for e in range(3)], axis=-1)
    low, high = stack.min(axis=-1), stack.max(axis=-1)
    assert np.all(mixture >= low - 1e-9)
    assert np.all(mixture <= high + 1e-9)


def test_logit_shift_leaves_mixture_unchanged():
    cfg = moe.MoEConfig(num_experts=3, hidden=4)
    params = make_params(cfg, 8, 5, seed=12)
    x = Tensor(np.random.default_rng(13).normal(size=(2, 6, 8)))
    before = moe.moe_forward(params, cfg, x).data
    params["moe.gate.bias"].data = params["moe.gate.bias"].data + 11.5
    after = moe.moe_forward(params, cfg, x).data
    assert np.max(np.abs(before - after)) < 1e-9


def test_entropy_bounds():
    assert abs(moe.gate_entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12
    assert moe.gate_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    rng = np.random.default_rng(14)
    probs = rng.dirichlet(np.ones(6), size=50)
    ent = moe.gate_entropy(probs)
    assert np.all(ent >= 0.0)
    assert np.all(ent <= math.log(6) + 1e-12)


def test_gate_report_traffic_scale(tmp_path):
    # synthetic batch at Traffic's channel count, gated on the low band
    channels = 862
    cfg = moe.MoEConfig(num_experts=4, hidden=2)
    series = synth("sine_mix", 256, channels, seed=0)
    window = series.values[:64].T[None, :, :]  # (1, N, 64)
    band, _ = dwt_arrays(window, get_bank("haar"))
    params = make_params(cfg, band.shape[-1], 8, seed=15)
    probs = moe.gate(params, Tensor(band))  # (1, N, 4)
    rows = moe.gate_report(probs, channel_names=series.channel_names)
    assert len(rows) == channels
    for row in rows:
        total = sum(row[f"expert_{e}"] for e in range(4))
        assert abs(total - 1.0) < 1e-9
        assert 0.0 <= row["entropy"] <= math.log(4) + 1e-12
        assert 0 <= row["argmax"] < 4
    out = tmp_path / "gates.csv"
    moe.write_gate_report_csv(rows, out, num_experts=4)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "channel,expert_0,expert_1,expert_2,expert_3,argmax,entropy"
    assert len(lines) == channels + 1
