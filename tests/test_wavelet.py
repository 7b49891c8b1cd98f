import math

import numpy as np
import pytest

from wavets import wavelet as wv
from wavets.exceptions import (
    DepthTooLargeError,
    FilterTooLongError,
    InvalidConfigError,
    OddLengthError,
    ShapeMismatchError,
)

from conftest import analysis_matrix
from reference import concatenated_dwt

SQRT2 = math.sqrt(2.0)
ALL_BANKS = list(wv.BANK_NAMES)


@pytest.mark.parametrize("name", ALL_BANKS)
def test_bank_invariants(name):
    bank = wv.get_bank(name)
    g, h = bank.low_pass, bank.high_pass
    assert len(g) == len(h) == bank.length
    assert bank.length % 2 == 0
    assert abs(g @ g - 1.0) < 1e-10
    assert abs(h @ h - 1.0) < 1e-10
    assert abs(h.sum()) < 1e-10
    # quadrature mirror: h[k] = (-1)^k g[K-1-k]
    K = bank.length
    for k in range(K):
        assert abs(h[k] - (-1.0) ** k * g[K - 1 - k]) < 1e-10


def test_haar_is_alpha_pair():
    bank = wv.get_bank("haar")
    alpha = 1.0 / SQRT2
    assert np.allclose(bank.low_pass, [alpha, alpha], atol=1e-15)
    assert np.allclose(bank.high_pass, [alpha, -alpha], atol=1e-15)


def test_get_bank_unknown_name():
    with pytest.raises(InvalidConfigError):
        wv.get_bank("db9000")


def test_dwt_constant_signal_haar():
    approx, detail = wv.dwt_arrays(np.ones(4), "haar")
    assert np.allclose(approx, [SQRT2, SQRT2], atol=1e-12)
    assert np.all(detail == 0.0)


def test_dwt_haar_hand_computed():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    approx, detail = wv.dwt_arrays(x, "haar")
    alpha = 1.0 / SQRT2
    want_a = [alpha * (1 + 2), alpha * (3 + 4)]
    want_d = [alpha * (1 - 2), alpha * (3 - 4)]
    assert np.allclose(approx, want_a, atol=1e-12)
    assert np.allclose(detail, want_d, atol=1e-12)
    assert np.allclose(approx, [2.12132, 4.94975], atol=1e-5)
    assert np.allclose(detail, [-0.70711, -0.70711], atol=1e-5)


@pytest.mark.parametrize("name", ALL_BANKS)
def test_dwt_matches_matrix_oracle(name):
    bank = wv.get_bank(name)
    rng = np.random.default_rng(11)
    for length in (8, 16, 30):
        mat = analysis_matrix(bank, length)
        # the matrix itself must be orthogonal for these banks
        assert np.max(np.abs(mat @ mat.T - np.eye(length))) < 1e-10
        x = rng.normal(size=length)
        coeffs = mat @ x
        approx, detail = wv.dwt_arrays(x, bank)
        assert np.max(np.abs(approx - coeffs[: length // 2])) < 1e-12
        assert np.max(np.abs(detail - coeffs[length // 2 :])) < 1e-12


def test_dwt_d4_eight_samples():
    x = np.arange(1.0, 9.0)
    approx, detail = wv.dwt_arrays(x, "d4")
    assert approx.shape == (4,)
    assert detail.shape == (4,)
    energy = (approx**2).sum() + (detail**2).sum()
    assert abs(energy - 204.0) < 1e-10  # sum of squares of 1..8
    assert np.max(np.abs(wv.idwt_arrays(approx, detail, "d4") - x)) < 1e-10


def test_dwt_errors():
    with pytest.raises(OddLengthError):
        wv.dwt_arrays(np.ones(5), "haar")
    with pytest.raises(FilterTooLongError):
        wv.dwt_arrays(np.ones(4), "sym4")  # 8 taps > 4 samples


def test_idwt_roundtrip_simple():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(wv.idwt_arrays(*wv.dwt_arrays(x, "haar"), "haar"), x, atol=1e-12)


def test_idwt_constant_inverse():
    assert np.allclose(wv.idwt_arrays([SQRT2, SQRT2], np.zeros(2), "haar"), np.ones(4), atol=1e-12)


def test_idwt_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        wv.idwt_arrays(np.zeros(4), np.zeros(3), "haar")


def test_idwt_coif1_random_roundtrips():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=64)
        approx, detail = wv.dwt_arrays(x, "coif1")
        assert np.max(np.abs(wv.idwt_arrays(approx, detail, "coif1") - x)) < 1e-10


def test_multi_level_one_equals_single():
    x = np.random.default_rng(5).normal(size=16)
    multi = wv.dwt_multi(x, "haar", 1)
    single = wv.dwt_arrays(x, "haar")
    assert len(multi) == 1
    assert np.array_equal(multi[0][0], single[0])
    assert np.array_equal(multi[0][1], single[1])


def test_multi_level_full_depth_haar():
    x = np.arange(1.0, 9.0)
    bands = wv.dwt_multi(x, "haar", 3)
    # full-depth approximation of an orthonormal chain is sum(x)/sqrt(L)
    deepest = bands[-1][0]
    assert deepest.shape == (1,)
    assert abs(deepest[0] - 36.0 / math.sqrt(8.0)) < 1e-10
    assert abs(deepest[0] - 12.7279) < 1e-4
    total = sum(detail.shape[-1] for _, detail in bands) + deepest.shape[-1]
    assert total == 8


def test_multi_level_roundtrip_d4():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 32))
    bands = wv.dwt_multi(x, "d4", 2)
    assert np.max(np.abs(wv.idwt_multi(bands, "d4") - x)) < 1e-9


def test_multi_level_depth_error():
    with pytest.raises(DepthTooLargeError):
        wv.dwt_multi(np.ones(12), "haar", 3)  # 12 not divisible by 8


@pytest.mark.parametrize("name", ALL_BANKS)
def test_perfect_reconstruction_random(name):
    rng = np.random.default_rng(17)
    for length in (8, 10, 34, 128, 720):
        x = rng.normal(size=(4, length))
        approx, detail = wv.dwt_arrays(x, name)
        assert approx.shape[-1] == length // 2
        assert np.max(np.abs(wv.idwt_arrays(approx, detail, name) - x)) < 1e-10


@pytest.mark.parametrize("name", ALL_BANKS)
def test_energy_conservation_random(name):
    rng = np.random.default_rng(23)
    for length in (8, 64, 720):
        x = rng.normal(size=(5, length))
        approx, detail = wv.dwt_arrays(x, name)
        before = (x**2).sum(axis=-1)
        after = (approx**2).sum(axis=-1) + (detail**2).sum(axis=-1)
        assert np.max(np.abs(after - before) / before) < 1e-8


@pytest.mark.parametrize("name", ALL_BANKS)
def test_linearity(name):
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(2, 32))
    a, b = 2.5, -1.25
    mixed = wv.dwt_arrays(a * x + b * y, name)
    px, py = wv.dwt_arrays(x, name), wv.dwt_arrays(y, name)
    for band in (0, 1):
        assert np.max(np.abs(mixed[band] - (a * px[band] + b * py[band]))) < 1e-10


@pytest.mark.parametrize("name", ALL_BANKS)
def test_constant_annihilation(name):
    _, detail = wv.dwt_arrays(np.full((3, 24), 7.5), name)
    assert np.max(np.abs(detail)) < 1e-12


def test_batched_leading_dims():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 5, 16))
    approx, detail = wv.dwt_arrays(x, "sym4")
    assert approx.shape == (3, 5, 8)
    assert np.max(np.abs(wv.idwt_arrays(approx, detail, "sym4") - x)) < 1e-10


@pytest.mark.parametrize("name", ALL_BANKS)
@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("channels", [1, 7, 321])
def test_dwt_reads_the_wrap_from_a_tail_bit_for_bit(name, batch, channels):
    """dwt_arrays reads the periodic extension from a short tail and gives the
    bands of the whole extended signal bit for bit: at L=720, and at every
    length from the filter's own up, where one side of the split may hold
    no window or (before the guard) a single one."""
    rng = np.random.default_rng(channels + batch)
    taps = wv.get_bank(name).length
    for length in [720, *range(taps, taps + 8, 2)]:
        x = rng.normal(size=(batch, channels, length))
        for band, expected in zip(wv.dwt_arrays(x, name), concatenated_dwt(x, name), strict=True):
            assert band.shape == expected.shape and np.array_equal(band, expected), length
