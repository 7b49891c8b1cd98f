import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavets import wavelet as wv
from wavets.autodiff import Tensor, mul, swap_last2
from wavets.exceptions import DegenerateWindowError, ZeroGainError
from wavets.revin import (
    RevinState,
    affine_linear,
    compute_stats,
    revin_forward,
    revin_inverse,
)

from reference import mean


def _unit_affine(channels):
    gain = Tensor(np.ones(channels), requires_grad=True)
    bias = Tensor(np.zeros(channels), requires_grad=True)
    return gain, bias


def _forward(x, gain, bias):
    """revin_forward's normalized lookback, with the state that adds the affine."""
    normalized, mean_, std = revin_forward(x)
    return normalized, RevinState(mean=mean_, std=std, gain=gain, bias=bias)


def _bands(normalized, bank="haar"):
    """(approx, detail), each (B, N, L/2), of a (B, N, L) array from revin_forward."""
    return tuple(Tensor(band) for band in wv.dwt_arrays(normalized, wv.get_bank(bank)))


def _time_domain(bands, bank="haar"):
    """Back to (B, L, N) from a (B, N, L/2) band pair."""
    return np.swapaxes(wv.idwt_arrays(bands[0].data, bands[1].data, wv.get_bank(bank)), 1, 2)


def _mapped(bands, state):
    """The affine-mapped bands, from affine_linear with an identity first layer."""
    half = bands[0].shape[-1]
    eye, zero = Tensor(np.eye(half)), Tensor(np.zeros(half))
    return tuple(affine_linear(band, eye, zero, state, approx) for band, approx in zip(bands, (True, False)))


def test_hand_computed_four_points():
    # Haar bands of [1, 2, 3, 4]: A = [3, 7]/sqrt2, D = [-1, -1]/sqrt2.
    # Four points is the smallest even window whose normalized approximation
    # band is not identically zero.
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    normalized, state = _forward(x, *_unit_affine(1))
    approx, detail = _bands(normalized)
    # mean 2.5, population variance 5/4; the 1e-5 eps shifts values by ~1e-5 at most
    assert np.allclose(normalized.ravel(), [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-4)
    assert np.allclose(approx.data.ravel(), [-1.2649, 1.2649], atol=1e-4)
    assert np.allclose(detail.data.ravel(), [-0.6325, -0.6325], atol=1e-4)
    assert abs(state.mean[0, 0] - 2.5) < 1e-12
    assert abs(state.std[0, 0] - np.sqrt(1.25 + 1e-5)) < 1e-12


def test_constant_channel_maps_to_zero():
    x = np.full((1, 8, 1), 5.0)
    normalized, _ = _forward(x, *_unit_affine(1))
    assert np.max(np.abs(normalized)) < 1e-12
    for bank in wv.BANK_NAMES:
        for band in _bands(normalized, bank):
            assert np.max(np.abs(band.data)) < 1e-12, bank


def test_output_statistics_random():
    rng = np.random.default_rng(0)
    # variance well above eps so normalized variance is 1 within 1e-6
    x = rng.normal(scale=6.0, size=(4, 64, 3))
    normalized, _ = _forward(x, *_unit_affine(3))
    assert normalized.shape == (4, 3, 64)
    assert np.max(np.abs(normalized.mean(axis=-1))) < 1e-6
    assert np.max(np.abs(normalized.var(axis=-1) - 1.0)) < 1e-6
    assert np.max(np.abs(_time_domain(_bands(normalized)) - np.swapaxes(normalized, 1, 2))) < 1e-12


def test_degenerate_window_rejected():
    with pytest.raises(DegenerateWindowError):
        compute_stats(np.ones((2, 1, 3)))
    with pytest.raises(DegenerateWindowError):
        revin_forward(np.ones((2, 1, 3)))


@pytest.mark.parametrize("writable", [True, False])
@pytest.mark.parametrize("batch, channels", [(1, 1), (3, 1), (2, 3)])
def test_forward_leaves_the_lookback_unchanged(batch, channels, writable):
    """The normalized values go into a new array, also where the channel-major
    layout of the lookback is the lookback itself (one channel)."""
    x = np.random.default_rng(6).normal(size=(batch, 8, channels)) * 3.0 + 2.0
    if not writable:
        x = x[:]
        x.flags.writeable = False
    before = x.copy()
    normalized, _ = _forward(x, *_unit_affine(channels))
    assert np.array_equal(x, before)
    assert not np.shares_memory(normalized, x)


def test_roundtrip_float64():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 8, 3)) * 4 + 1.5
    gain = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    normalized, state = _forward(x, gain, bias)
    back = revin_inverse(_time_domain(_mapped(_bands(normalized), state)), state)
    assert np.max(np.abs(back.data - x)) < 1e-12


def test_identity_state():
    y = np.random.default_rng(2).normal(size=(1, 4, 2))
    state = RevinState(
        mean=np.zeros((1, 2)), std=np.ones((1, 2)),
        gain=Tensor(np.ones(2)), bias=Tensor(np.zeros(2)),
    )
    assert np.allclose(revin_inverse(y, state).data, y, atol=1e-15)


def test_inverse_of_forward_example():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    normalized, state = _forward(x, *_unit_affine(1))
    assert np.allclose(revin_inverse(np.swapaxes(normalized, 1, 2), state).data, x, atol=1e-12)


def test_zero_gain_rejected():
    x = np.random.default_rng(3).normal(size=(1, 4, 2))
    gain = Tensor(np.array([1.0, 0.0]))
    normalized, state = _forward(x, gain, Tensor(np.zeros(2)))
    with pytest.raises(ZeroGainError):
        revin_inverse(np.swapaxes(normalized, 1, 2), state)


def test_statistics_use_lookback_only():
    # same lookback, different "future": identical stats and outputs
    rng = np.random.default_rng(4)
    lookback = rng.normal(size=(2, 16, 3))
    windows = [np.concatenate([lookback, scale * rng.normal(size=(2, 8, 3))], axis=1) for scale in (1.0, 1e3)]
    (out_a, state_a), (out_b, state_b) = (_forward(w[:, :16], *_unit_affine(3)) for w in windows)
    assert np.array_equal(state_a.mean, state_b.mean)
    assert np.array_equal(state_a.std, state_b.std)
    assert np.array_equal(out_a, out_b)


def test_affine_parameters_receive_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8, 3))
    gain, bias = _unit_affine(3)
    normalized, state = _forward(x, gain, bias)
    bands = _bands(normalized)
    per_step = swap_last2(_mapped(bands, state)[0])  # (B, L/2, N), shaped like a forecast
    restored = revin_inverse(mul(per_step, per_step), state)
    mean(restored).backward()
    assert gain.grad is not None and np.any(gain.grad != 0)
    assert bias.grad is not None and np.any(bias.grad != 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bank=st.sampled_from(wv.BANK_NAMES),
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    half=st.integers(4, 24),
    offset_ratio=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    spread=st.floats(0.05, 50.0),
    seed=st.integers(0, 2**16),
)
def test_band_domain_matches_time_domain(bank, batch, channels, half, offset_ratio, spread, seed):
    """The affine applied on the bands matches the time-domain normalize-plus-affine.

    The affine rides in the state: affine_linear with an identity first
    layer, on the bands of revin_forward's output, gives the bands of the
    mapped lookback. The large offsets check that
    the statistics lose no precision."""
    rng = np.random.default_rng(seed)
    x = offset_ratio * spread + spread * rng.normal(size=(batch, 2 * half, channels))
    gain = Tensor(rng.uniform(0.5, 2.0, size=channels))
    bias = Tensor(rng.normal(size=channels))

    normalized, state = _forward(x, gain, bias)
    bands = _bands(normalized, bank)
    approx, detail = _mapped(bands, state)

    mean_ref = x.mean(axis=1)
    std_ref = np.sqrt(((x - mean_ref[:, None, :]) ** 2).mean(axis=1) + 1e-5)
    affine = (x - mean_ref[:, None, :]) / std_ref[:, None, :] * gain.data + bias.data
    approx_ref, detail_ref = (band.data for band in _bands(np.swapaxes(affine, 1, 2), bank))
    assert np.max(np.abs(approx.data - approx_ref)) < 1e-10
    assert np.max(np.abs(detail.data - detail_ref)) < 1e-10
    assert np.max(np.abs(state.mean - mean_ref)) <= 1e-10 * np.max(np.abs(x))
    assert np.max(np.abs(state.std / std_ref - 1.0)) < 1e-10
