import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavets import autodiff as ad
from wavets import checkpoint as ckpt
from wavets import wavelet as wv
from wavets.data import WindowSampler, synth
from wavets.exceptions import (
    InvalidConfigError,
    NonFiniteGradientError,
    NonFiniteInputError,
    ParseError,
    ShapeMismatchError,
)
from wavets.optim import Adam
from wavets.revin import DEFAULT_EPS, compute_stats

from conftest import max_rel_err, numeric_grad
from reference import composed_folded_forecast, composed_mse


def test_linear_identity():
    x = ad.Tensor([[1.0, 2.0]])
    out = ad.linear(x, ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_sum_plus_bias():
    x = ad.Tensor([[1.0, 2.0]])
    out = ad.linear(x, ad.Tensor([[1.0], [1.0]]), ad.Tensor([3.0]))
    assert np.array_equal(out.data, [[6.0]])


def test_linear_shape_errors():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeMismatchError):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones(3)))


def _fold_inputs(rng, batch, length, horizon, channels, offset_channels):
    """Random (weight, offset, lookback) for the folded ops: the weight and
    offset as tensors, and the lookback as a plain array."""
    weight = ad.Tensor(rng.normal(size=(horizon, length)), requires_grad=True)
    offset = ad.Tensor(rng.normal(size=(horizon, offset_channels)), requires_grad=True)
    lookback = rng.normal(size=(batch, length, channels)) * rng.uniform(0.5, 2.0, size=channels) + 3.0
    return weight, offset, lookback


def test_folded_forecast_shape_errors():
    def fold(weight, offset, lookback):
        return ad.folded_forecast(np.ones(weight), np.ones(offset), np.ones(lookback), compute_stats)

    assert fold((2, 3), (2, 4), (5, 3, 4)).shape == (5, 2, 4)
    assert fold((2, 3), (2, 1), (5, 3, 4)).shape == (5, 2, 4)
    assert fold((2, 3), (2, 4), (0, 3, 4)).shape == (0, 2, 4)  # an empty batch
    bad = [
        ((2, 3), (2, 3), (4, 2, 3)),  # lookback length
        ((2, 3), (2, 4), (3, 4)),  # no batch axis
        ((2, 3), (2, 4), (2, 5, 3, 4)),  # two batch axes
        ((2, 3, 1), (2, 4), (5, 3, 4)),  # weight rank
        ((2, 3), (3, 4), (5, 3, 4)),  # offset horizon
        ((2, 3), (2, 2), (5, 3, 4)),  # offset channels
        ((2, 3), (2, 4, 1), (5, 3, 4)),  # offset rank
    ]
    for shapes in bad:
        with pytest.raises(ShapeMismatchError):
            fold(*shapes)


def test_folded_forecast_matches_the_per_window_formula():
    rng = np.random.default_rng(3)
    for offset_channels in (4, 1):  # a per-channel offset, and one shared by the channels
        weight, offset, x = _fold_inputs(rng, 3, 5, 2, 4, offset_channels)
        w, offset = weight.data, offset.data
        out = ad.folded_forecast(w, offset, x, compute_stats)
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
        monkeypatch.setattr(ad, "_BLOCK_BYTES", per_block * length * channels * 8)
        seen = []

        def spy(values, **kwargs):
            seen.append(len(values))
            return compute_stats(values, **kwargs)

        out = ad.folded_forecast(weight.data, offset.data, x, spy)
        mean, std, centred = compute_stats(x)
        ref = composed_folded_forecast(weight, offset, *(ad.constant(a) for a in (centred, mean, std)))
        assert seen == [min(per_block, batch - start) for start in range(0, batch, per_block)]
        assert np.array_equal(out, ref.data)


def _fused_inputs(rng, windows, length, horizon, channels, offset_channels):
    """Random (weight, offset, lookback, target) for :func:`ad.folded_mse`:
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
    shared_offset=st.booleans(),
    per_block=st.integers(1, 4),
    order=st.sampled_from(["run", "shuffled", "repeated"]),
    seed=st.integers(0, 2**16),
)
def test_folded_mse_matches_its_composition(
    batch, extra, length, horizon, channels, shared_offset, per_block, order, seed
):
    """The fused op against compute_stats on the gathered batch plus
    composed_folded_forecast + composed_mse: the loss and both gradients
    within 1e-10, for an (S, 1) and an (S, N) offset, one channel, blocks
    of one to four windows (a partial last block whenever the block does
    not divide the batch) and rows in a run, shuffled or repeated."""
    rng = np.random.default_rng(seed)
    windows = batch + extra
    weight, offset, lookback, target = _fused_inputs(
        rng, windows, length, horizon, channels, 1 if shared_offset else channels
    )
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
        patch.setattr(ad, "_BLOCK_BYTES", per_block * length * channels * 8)
        loss = ad.folded_mse(weight, offset, lookback, target, rows, spy)
    assert seen == [min(per_block, batch - start) for start in range(0, batch, per_block)]
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
    for offset_channels in (4, 1):  # a per-channel offset, and one shared by the channels
        w, offset, lookback, target = _fused_inputs(rng, 6, 5, 2, 4, offset_channels)
        rows = np.array([5, 1, 1, 3])
        loss = ad.folded_mse(w, offset, lookback, target, rows, compute_stats)
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


def test_folded_mse_shape_errors():
    rng = np.random.default_rng(6)
    weight, offset, lookback, target = _fused_inputs(rng, 5, 4, 2, 3, 3)
    assert np.isfinite(ad.folded_mse(weight, offset, lookback, target, np.array([4, 0]), compute_stats).item())
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
            ad.folded_mse(weight, offset, source, goal, np.array(rows), compute_stats)


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
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * length * 2 * 8)  # several blocks per batch

    summed = np.zeros(weight.shape)
    for rows in sampler.batch_origins(batch_size):
        weight.zero_grad()
        ad.folded_mse(weight, offset, sampler.lookbacks, sampler.targets, rows, compute_stats).backward()
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


def test_linear_gradients_match_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        target = rng.normal(size=(3, 2))

        loss = ad.mse_loss(ad.linear(x, w, b), ad.constant(target))
        loss.backward()

        def f():
            return float(np.mean((x.data @ w.data + b.data - target) ** 2))

        num_x, num_w, num_b = numeric_grad(f, [x.data, w.data, b.data])
        assert max_rel_err(x.grad, num_x) < 1e-4
        assert max_rel_err(w.grad, num_w) < 1e-4
        assert max_rel_err(b.grad, num_b) < 1e-4


def test_relu_values_and_rejection():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    with pytest.raises(NonFiniteInputError):
        ad.relu(ad.Tensor([np.nan, 1.0]))
    with pytest.raises(NonFiniteInputError):
        ad.softmax_lastdim(ad.Tensor([np.inf, 1.0]))


def test_softmax_uniform_and_stability():
    out = ad.softmax_lastdim(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    big = ad.softmax_lastdim(ad.Tensor([1000.0, 1000.0, 999.0]))
    assert np.isfinite(big.data).all()
    assert abs(big.data.sum() - 1.0) < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6, 5)) * 3
    out = ad.softmax_lastdim(ad.Tensor(logits)).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    shifted = ad.softmax_lastdim(ad.Tensor(logits + 7.25)).data
    assert np.max(np.abs(out - shifted)) < 1e-12


def test_mse_examples():
    assert ad.mse_loss(ad.Tensor([0.0, 0.0]), ad.Tensor([1.0, 1.0])).item() == 1.0
    t = ad.Tensor([1.0, 2.0, 3.0])
    assert ad.mse_loss(t, ad.Tensor([1.0, 2.0, 3.0])).item() == 0.0
    loss = ad.mse_loss(ad.Tensor([1.0, 2.0, 3.0]), ad.Tensor([2.0, 2.0, 2.0]))
    assert abs(loss.item() - 2.0 / 3.0) < 1e-12
    with pytest.raises(ShapeMismatchError):
        ad.mse_loss(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))


@pytest.mark.parametrize("shape", [(3,), (4, 5), (2, 3, 4), ()])
def test_mse_loss_matches_its_composition(shape):
    """One op against sub, mul and mean: the loss and both gradients bit for bit,
    also when the loss is scaled before backward."""
    rng = np.random.default_rng(5)
    pred, target = rng.normal(size=shape) * 3.0, rng.normal(size=shape)
    for scale in (1.0, 0.37, -2.5):
        fused = ad.Tensor(pred.copy(), requires_grad=True), ad.Tensor(target.copy(), requires_grad=True)
        composed = ad.Tensor(pred.copy(), requires_grad=True), ad.Tensor(target.copy(), requires_grad=True)
        out, ref = ad.mse_loss(*fused), composed_mse(*composed)
        assert out.data == ref.data
        ad.mul(out, ad.constant(scale)).backward()
        ad.mul(ref, ad.constant(scale)).backward()
        for a, b in zip(fused, composed):
            assert np.array_equal(a.grad, b.grad)


def test_mse_target_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    pred = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    target = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ad.mse_loss(pred, target).backward()

    def f():
        return float(np.mean((pred.data - target.data) ** 2))

    num_pred, num_target = numeric_grad(f, [pred.data, target.data])
    assert max_rel_err(pred.grad, num_pred) < 1e-6
    assert max_rel_err(target.grad, num_target) < 1e-6


def test_mse_gradient_closed_form():
    pred = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    target = np.array([2.0, 2.0, 2.0])
    ad.mse_loss(pred, ad.constant(target)).backward()
    assert np.allclose(pred.grad, 2.0 * (pred.data - target) / 3.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_elementwise_op_gradients(seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4,)) + 2.0, requires_grad=True)  # keep divisor away from 0
    weights = rng.normal(size=(3, 4))

    def run():
        out = ad.div(ad.mul(ad.add(a, b), ad.sub(a, b)), b)
        return ad.mean(ad.mul(out, ad.constant(weights)))

    loss = run()
    loss.backward()

    def f():
        out = (a.data + b.data) * (a.data - b.data) / b.data
        return float(np.mean(out * weights))

    num_a, num_b = numeric_grad(f, [a.data, b.data])
    assert max_rel_err(a.grad, num_a) < 1e-4
    assert max_rel_err(b.grad, num_b) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_softmax_relu_swap_slice_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    weights = rng.normal(size=(2, 4, 3))

    def run():
        out = ad.swap_last2(ad.softmax_lastdim(ad.relu(x)))
        out = ad.mul(out, ad.constant(weights))
        return ad.mean(ad.add(out, ad.slice_lastdim(out, 1)))

    run().backward()

    def f():
        h = np.where(x.data > 0, x.data, 0.0)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        out = np.swapaxes(s, -1, -2) * weights
        return float(np.mean(out + out[..., 1:2]))

    (num_x,) = numeric_grad(f, [x.data])
    assert max_rel_err(x.grad, num_x) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_concat_and_slice_range_gradients(seed):
    rng = np.random.default_rng(300 + seed)
    a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.constant(rng.normal(size=(3, 1)))
    c = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    d = ad.Tensor(rng.normal(size=(2, 7)), requires_grad=True)
    weights = rng.normal(size=(5, 4))

    def run():
        joined = ad.concat([ad.concat([a, b, c]), d], axis=0)  # (5, 7)
        out = ad.mul(ad.slice_lastdim(joined, 2, 6), ad.constant(weights))
        return ad.mean(ad.mul(out, ad.slice_lastdim(joined, 1, 5)))

    run().backward()
    assert b.grad is None

    def f():
        joined = np.concatenate([np.concatenate([a.data, b.data, c.data], axis=-1), d.data])
        return float(np.mean(joined[:, 2:6] * weights * joined[:, 1:5]))

    for tensor, num in zip((a, c, d), numeric_grad(f, [a.data, c.data, d.data])):
        assert max_rel_err(tensor.grad, num) < 1e-4


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("bank_name", ["haar", "d4"])
def test_transform_op_gradients(seed, bank_name):
    bank = wv.get_bank(bank_name)
    rng = np.random.default_rng(200 + seed)
    x = ad.Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    wa = rng.normal(size=(2, 4))
    wd = rng.normal(size=(2, 4))

    def run():
        approx, detail = ad.dwt_pair(x, bank)
        recon = ad.idwt_pair(ad.mul(approx, ad.constant(wa)), ad.mul(detail, ad.constant(wd)), bank)
        return ad.mean(ad.mul(recon, recon))

    run().backward()

    def f():
        a, d = wv.dwt_arrays(x.data, bank)
        recon = wv.idwt_arrays(a * wa, d * wd, bank)
        return float(np.mean(recon * recon))

    (num_x,) = numeric_grad(f, [x.data])
    assert max_rel_err(x.grad, num_x) < 1e-4


def test_gradient_accumulates_through_shared_subexpression():
    x = ad.Tensor([3.0], requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2 -> dy/dx = 4x
    ad.mean(y).backward()
    assert np.allclose(x.grad, [12.0], atol=1e-12)


def test_gradient_shared_between_inputs_is_not_overwritten():
    # add hands one buffer to both inputs; a's later gradient must not leak into b's
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([3.0, 5.0], requires_grad=True)
    ad.mean(ad.add(ad.add(a, b), ad.mul(a, a))).backward()
    assert np.array_equal(b.grad, [0.5, 0.5])
    assert np.allclose(a.grad, (1.0 + 2.0 * a.data) / 2.0, atol=1e-15)


def test_ops_on_constants_record_no_parents():
    rng = np.random.default_rng(7)
    a, b = ad.constant(rng.normal(size=(2, 4))), ad.constant(rng.normal(size=(2, 4)) + 3.0)
    w = ad.constant(rng.normal(size=(4, 3)))
    bank = wv.get_bank("d4")
    results = [
        ad.add(a, b), ad.sub(a, b), ad.mul(a, b), ad.div(a, b),
        ad.matmul(a, w),
        ad.folded_mse(ad.swap_last2(w), ad.constant(np.ones((3, 1))), b.data.T[None], np.ones((1, 3, 2)), np.array([0]), compute_stats),
        ad.linear(a, w, ad.constant(np.zeros(3))), ad.relu(a),
        ad.softmax_lastdim(a), ad.mean(a), ad.mse_loss(a, b), ad.swap_last2(a),
        ad.reshape(a, (4, 2)), ad.slice_lastdim(a, 1), ad.slice_lastdim(a, 1, 3),
        ad.concat([a, b]), *ad.dwt_pair(a, bank),
        ad.idwt_pair(a, b, bank),
    ]
    for out in results:
        assert out._parents == () and out._backward is None
        assert not out.requires_grad


def test_constant_inputs_get_no_gradient():
    rng = np.random.default_rng(8)
    x = ad.constant(rng.normal(size=(2, 4)))
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    gain = ad.Tensor(rng.normal(size=2), requires_grad=True)
    scaled = ad.mul(x, ad.reshape(gain, (2, 1)))
    ad.mean(ad.matmul(scaled, w)).backward()
    assert x.grad is None
    assert w.grad is not None and gain.grad is not None
    # d/dgain_i mean(diag(gain) x w) = sum_j (x w)[i, j] / size
    assert np.allclose(gain.grad, (x.data @ w.data).sum(axis=1) / 6, atol=1e-15)


def test_backward_requires_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        ad.mul(x, x).backward()


# --- Adam ---


def test_adam_first_step_is_lr_times_sign():
    theta = ad.Tensor(np.array(0.0), requires_grad=True)
    opt = Adam({"theta": theta}, lr=1e-3)
    theta.grad = np.array(2.0)
    opt.step()
    # first-step closed form: lr * m_hat / (sqrt(v_hat) + eps) = lr * g/|g|
    assert abs(theta.data + 1e-3) < 1e-9
    assert opt.state.step == 1


def test_adam_zero_gradient_is_identity():
    theta = ad.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = Adam({"theta": theta})
    before = theta.data.copy()
    for _ in range(5):
        theta.grad = np.zeros(2)
        opt.step()
    assert np.array_equal(theta.data, before)


def test_adam_converges_on_quadratic():
    theta = ad.Tensor(np.array(1.0), requires_grad=True)
    opt = Adam({"theta": theta}, lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        loss = ad.mul(theta, theta)
        ad.mean(loss).backward()
        opt.step()
    assert abs(float(theta.data)) < 0.05


def test_adam_rejects_nonfinite_gradient_and_bad_hyperparams():
    theta = ad.Tensor(np.array(0.0), requires_grad=True)
    opt = Adam({"theta": theta})
    theta.grad = np.array(np.nan)
    with pytest.raises(NonFiniteGradientError):
        opt.step()
    with pytest.raises(InvalidConfigError):
        Adam({"theta": theta}, lr=-1.0)
    with pytest.raises(InvalidConfigError):
        Adam({"theta": theta}, betas=(1.5, 0.9))


# --- checkpoints ---


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "lf.weight": ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True),
        "delta": ad.Tensor(np.array(0.125), requires_grad=True),
    }
    first = tmp_path / "ckpt.json"
    second = tmp_path / "ckpt2.json"
    ckpt.save_params(params, first)
    loaded = ckpt.load_params(first)
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert np.array_equal(loaded[name], p.data.astype(np.float32))
    ckpt.save_params(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all{")
    with pytest.raises(ParseError):
        ckpt.load_params(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else", "params": []}))
    with pytest.raises(ParseError):
        ckpt.load_params(wrong)
    entry = {"name": "w", "shape": [2], "values": [1.0, 2.0]}
    head = {"format": ckpt.FORMAT_NAME, "version": ckpt.FORMAT_VERSION}
    for manifest in (
        [entry],  # a top-level list
        head,  # no params
        {**head, "version": 7, "params": [entry]},
        {"format": ckpt.FORMAT_NAME, "params": [entry]},  # no version
        {**head, "params": {"w": entry}},
        {**head, "params": [{**entry, "values": ["x", 2.0]}]},  # a non-numeric value
        {**head, "params": [{"name": "w", "values": [1.0]}]},  # no shape
        {**head, "params": [[1.0, 2.0]]},
        {**head, "params": [{**entry, "shape": ["2"]}]},
    ):
        wrong.write_text(json.dumps(manifest))
        with pytest.raises(ParseError):
            ckpt.load_params(wrong)
    wrong.write_text(json.dumps({**head, "params": [entry]}))
    assert np.array_equal(ckpt.load_params(wrong)["w"], [1.0, 2.0])
