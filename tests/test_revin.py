import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavets import wavelet as wv
from wavets.autodiff import Tensor, mean, mul, swap_last2
from wavets.exceptions import DegenerateWindowError, ZeroGainError
from wavets.revin import (
    RevinState,
    affine_approx,
    affine_linear,
    compute_stats,
    revin_forward,
    revin_inverse,
)


def _unit_affine(channels):
    gain = Tensor(np.ones(channels), requires_grad=True)
    bias = Tensor(np.zeros(channels), requires_grad=True)
    return gain, bias


def _bands(x, bank="haar"):
    """(approx, detail), each (B, N, L/2), of a (B, L, N) lookback batch."""
    return wv.dwt_arrays(np.swapaxes(x, 1, 2), wv.get_bank(bank))


def _time_domain(out, bank="haar"):
    """Back to (B, L, N) from a band pair returned by revin_forward."""
    return np.swapaxes(wv.idwt_arrays(out[0].data, out[1].data, wv.get_bank(bank)), 1, 2)


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
    (approx, detail), state = revin_forward(_bands(x), *_unit_affine(1))
    # mean 2.5, population variance 5/4; the 1e-5 eps shifts values by ~1e-5 at most
    assert np.allclose(approx.data.ravel(), [-1.2649, 1.2649], atol=1e-4)
    assert np.allclose(detail.data.ravel(), [-0.6325, -0.6325], atol=1e-4)
    assert abs(state.mean[0, 0] - 2.5) < 1e-12
    assert abs(state.std[0, 0] - np.sqrt(1.25 + 1e-5)) < 1e-12


def test_constant_channel_maps_to_zero():
    x = np.full((1, 8, 1), 5.0)
    for bank in wv.BANK_NAMES:
        out, _ = revin_forward(_bands(x, bank), *_unit_affine(1))
        assert np.max(np.abs(out[0].data)) < 1e-12, bank
        assert np.max(np.abs(out[1].data)) < 1e-12, bank


def test_output_statistics_random():
    rng = np.random.default_rng(0)
    # variance well above eps so normalized variance is 1 within 1e-6
    x = rng.normal(scale=6.0, size=(4, 64, 3))
    out, _ = revin_forward(_bands(x), *_unit_affine(3))
    normalized = _time_domain(out)
    assert np.max(np.abs(normalized.mean(axis=1))) < 1e-6
    assert np.max(np.abs(normalized.var(axis=1) - 1.0)) < 1e-6


def test_degenerate_window_rejected():
    with pytest.raises(DegenerateWindowError):
        compute_stats(np.ones((2, 1, 3)))
    empty = np.ones((2, 3, 0))
    with pytest.raises(DegenerateWindowError):
        revin_forward((empty, empty))


def test_roundtrip_float64():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 8, 3)) * 4 + 1.5
    gain = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    out, state = revin_forward(_bands(x), gain, bias)
    back = revin_inverse(_time_domain(_mapped(out, state)), state)
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
    out, state = revin_forward(_bands(x), *_unit_affine(1))
    assert np.allclose(revin_inverse(_time_domain(out), state).data, x, atol=1e-12)


def test_zero_gain_rejected():
    x = np.random.default_rng(3).normal(size=(1, 4, 2))
    gain = Tensor(np.array([1.0, 0.0]))
    out, state = revin_forward(_bands(x), gain, Tensor(np.zeros(2)))
    with pytest.raises(ZeroGainError):
        revin_inverse(_time_domain(out), state)


def test_statistics_use_lookback_only():
    # same lookback, different "future": identical stats and outputs
    rng = np.random.default_rng(4)
    lookback = rng.normal(size=(2, 16, 3))
    out_a, state_a = revin_forward(_bands(lookback), *_unit_affine(3))
    out_b, state_b = revin_forward(_bands(lookback.copy()), *_unit_affine(3))
    assert np.array_equal(state_a.mean, state_b.mean)
    assert np.array_equal(state_a.std, state_b.std)
    for band_a, band_b in zip(out_a, out_b):
        assert np.array_equal(band_a.data, band_b.data)


def test_affine_parameters_receive_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8, 3))
    gain, bias = _unit_affine(3)
    bands, state = revin_forward(_bands(x), gain, bias)
    assert all(not band.requires_grad and not band._parents for band in bands)  # constants
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
    """Bands of the time-domain normalize-plus-affine, statistics from compute_stats.

    The affine rides in the state: affine_linear with an identity first
    layer and affine_approx both give the bands of the mapped lookback."""
    rng = np.random.default_rng(seed)
    x = offset_ratio * spread + spread * rng.normal(size=(batch, 2 * half, channels))
    gain = Tensor(rng.uniform(0.5, 2.0, size=channels))
    bias = Tensor(rng.normal(size=channels))

    bands, state = revin_forward(_bands(x, bank), gain, bias)
    approx, detail = _mapped(bands, state)

    mean_ref, std_ref, _ = compute_stats(x)
    affine = (x - mean_ref[:, None, :]) / std_ref[:, None, :] * gain.data + bias.data
    approx_ref, detail_ref = _bands(affine, bank)
    assert np.max(np.abs(approx.data - approx_ref)) < 1e-10
    assert np.max(np.abs(detail.data - detail_ref)) < 1e-10
    assert np.max(np.abs(affine_approx(bands[0].data, state) - approx_ref)) < 1e-10
    assert np.max(np.abs(state.mean - mean_ref)) <= 1e-10 * np.max(np.abs(x))
    assert np.max(np.abs(state.std / std_ref - 1.0)) < 1e-10
