import gzip
import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wavets import data
from wavets.exceptions import (
    EmptyFileError,
    InvalidConfigError,
    NonFiniteInputError,
    ParseError,
    SeriesTooShortError,
    ShapeMismatchError,
    SpecOutOfRangeError,
)


def write(tmp_path, text, name="toy.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_toy(tmp_path):
    path = write(tmp_path, "date,a,b\n2020-01-01,1,4\n2020-01-02,2,5\n2020-01-03,3,6\n")
    series = data.load_csv(path)
    assert series.length == 3
    assert series.channels == 2
    assert series.channel_names == ["a", "b"]
    assert np.array_equal(series.values, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_load_csv_numeric_first_column_kept(tmp_path):
    path = write(tmp_path, "a,b\n1,4\n2,5\n")
    series = data.load_csv(path)
    assert series.channels == 2


def test_load_csv_drops_nan_rows(tmp_path, caplog):
    path = write(tmp_path, "a,b\n1,4\n,5\n3,nan\n7,8\n")
    with caplog.at_level(logging.WARNING):
        series = data.load_csv(path)
    assert series.length == 2
    assert np.array_equal(series.values, [[1.0, 4.0], [7.0, 8.0]])
    assert "dropped 2 rows" in caplog.text


@pytest.mark.parametrize(
    "text, fast, location",
    [
        ("a,b\n1,4\ninf,5\n3,-inf\n", True, "row 3, column 1 ('a')"),  # loadtxt parses it
        ("a,b\n1,4\n,5\n3,-Infinity\n", False, "row 4, column 2 ('b')"),  # the empty cell sends it cell by cell
        ("date,a,b\nd1,1,4\nd2,nan,1e400\n", True, "row 3, column 3 ('b')"),  # an overflowing literal, beside a NaN
    ],
    ids=["loadtxt", "per_cell", "overflow_beside_nan"],
)
def test_load_csv_rejects_infinite_values(tmp_path, text, fast, location):
    path = write(tmp_path, text)
    start = 1 if text.startswith("date") else 0
    assert (data._parse_fast(path, start, 2) is not None) == fast
    with pytest.raises(NonFiniteInputError) as err:
        data.load_csv(path)
    assert location in str(err.value)


def test_load_csv_parse_error_reports_location(tmp_path):
    path = write(tmp_path, "a,b\n1,4\n2,oops\n")
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert "row 3" in str(err.value)
    assert "'b'" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(ParseError):
        data.load_csv(path)


@pytest.mark.parametrize("text", ["a,b\n1,2,3\n4,5,6\n", "date,a,b\nx,1,2,3\ny,4,5,6\n"])
def test_load_csv_refuses_a_first_row_wider_than_its_header(tmp_path, text):
    with pytest.raises(ParseError, match="row 2: expected 2 value columns, found 3"):
        data.load_csv(write(tmp_path, text))



@pytest.mark.parametrize("text", ["a,b\n1,2\n3,4,5\n", "date,a,b\nx,1,2\ny,3,4,5\n"])
def test_load_csv_refuses_a_wider_row_further_down(tmp_path, text):
    with pytest.raises(ParseError, match="row 3: expected 2 value columns, found 3"):
        data.load_csv(write(tmp_path, text))


def test_load_csv_blank_lines_are_no_rows(tmp_path, caplog):
    """A blank line, right after the header or at the end, is skipped and takes no row number."""
    assert np.array_equal(data.load_csv(write(tmp_path, "a,b\n\n1,2\n3,4\n")).values, [[1, 2], [3, 4]])
    with caplog.at_level(logging.WARNING):
        series = data.load_csv(write(tmp_path, "date,a,b\n2020,1,2\n2021,,4\n2022,5,6\n\n"))
    assert series.channel_names == ["a", "b"]
    assert np.array_equal(series.values, [[1, 2], [5, 6]])
    assert "dropped 1 rows" in caplog.text
    with pytest.raises(ParseError, match=r"row 3, column 1 \('a'\)"):
        data.load_csv(write(tmp_path, "a,b\n\n1,2\n\nx,4\n"))
    # The header is the first row, after any blank lines, also when its names read as numbers.
    series = data.load_csv(write(tmp_path, "\n\ndate,1,2\nx,3,4\n"))
    assert series.channel_names == ["1", "2"]
    assert np.array_equal(series.values, [[3, 4]])


@pytest.mark.parametrize(
    "text, location",
    [("a,b\n1,2#3\n4,5\n", r"row 2, column 2 \('b'\)"), ("a,b\n1,2\n#3,4\n5,6\n", r"row 3, column 1 \('a'\)")],
    ids=["inside_a_cell", "leading_a_row"],
)
def test_load_csv_has_no_comment_syntax(tmp_path, text, location):
    with pytest.raises(ParseError, match=location):
        data.load_csv(write(tmp_path, text))


def test_load_csv_a_quoted_timestamp_may_span_lines(tmp_path):
    """The csv reader reads one row from the first two lines; loadtxt would read two."""
    series = data.load_csv(write(tmp_path, 'date,a\n"x,1\ny",2\nd,3\n'))
    assert np.array_equal(series.values, [[2], [3]])

@pytest.mark.parametrize("missing", ["", "na", "null"])
def test_load_csv_a_missing_first_value_is_no_timestamp(tmp_path, caplog, missing):
    with caplog.at_level(logging.WARNING):
        series = data.load_csv(write(tmp_path, f"a,b\n{missing},2\n3,4\n"))
    assert series.channel_names == ["a", "b"]
    assert np.array_equal(series.values, [[3, 4]])
    assert "dropped 1 rows" in caplog.text


def _loaded(path):
    """load_csv's channel names and values, or its exception's type and message."""
    try:
        series = data.load_csv(path)
    except Exception as exc:
        return type(exc), str(exc)
    return series.channel_names, series.values


_NUMBERS = st.integers(-999, 999).map(str) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELLS = (
    _NUMBERS
    | _NUMBERS
    | st.sampled_from(["", " ", "nan", "NaN", "na", "null", "inf", "-inf", "1e400", "#", "2#3", "x", "2020-01-01"])
    | _NUMBERS.map('"{}"'.format)
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    dated=st.booleans(),
    columns=st.integers(1, 4),
    data_=st.data(),
)
def test_load_csv_reads_the_same_with_or_without_the_vectorized_parse(tmp_path_factory, dated, columns, data_):
    """_parse_fast is a shortcut: whatever the file, load_csv gives the per-cell parse's
    names and values, or its exception, with the shortcut live or stepping aside."""
    header = ["date"] * dated + [f"c{j}" for j in range(columns)]
    clean = st.lists(_NUMBERS, min_size=columns, max_size=columns)
    if dated:
        # Quoted stamps, also hiding a comma, a line break or both from loadtxt.
        stamps = st.sampled_from(["2020-01-01", "1", '"2020-01-01 00:00"', '"x,1"', '"x\ny"', '"x,1\ny"'])
        clean = st.builds(lambda day, cells: [day, *cells], stamps, clean)
    width = st.integers(len(header) - 1, len(header) + 1)
    messy = width.flatmap(lambda w: st.lists(_CELLS, min_size=w, max_size=w))
    rows = data_.draw(st.lists(clean, min_size=1, max_size=6))
    for i in data_.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows[i] = data_.draw(messy)
    lines = [",".join(header), *(",".join(row) for row in rows)]
    blanks = data_.draw(st.lists(st.integers(0, 2), min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "".join("\n" * blank + line + "\n" for blank, line in zip(blanks, lines)) + "\n" * blanks[-1]
    path = tmp_path_factory.mktemp("csv") / "fuzz.csv"
    path.write_text(text.replace("\n", data_.draw(st.sampled_from(["\n", "\r\n"]))), newline="")
    fast = _loaded(path)
    with mock.patch.object(data, "_parse_fast", return_value=None):
        per_cell = _loaded(path)
    assert fast[0] == per_cell[0]
    if isinstance(fast[1], np.ndarray):
        assert np.array_equal(fast[1], per_cell[1])
    else:
        assert fast[1] == per_cell[1]


def test_load_csv_empty_inputs(tmp_path):
    with pytest.raises(EmptyFileError):
        data.load_csv(write(tmp_path, "", name="empty.csv"))
    with pytest.raises(EmptyFileError):
        data.load_csv(write(tmp_path, "a,b\n", name="header_only.csv"))


DATED = "date,a,b\n" + "".join(f"2020-01-{d:02d},{d}.5,{-d}\n" for d in range(1, 29))


@pytest.mark.parametrize("case", ["header", "row 20", "gzip"])
def test_load_csv_a_file_that_is_no_text_is_a_parse_error(tmp_path, case):
    """A byte that does not decode, in the header or further down, and a
    gzip-compressed CSV fail the load with one ParseError naming the file."""
    raw = DATED.encode()
    if case == "header":
        raw = raw.replace(b"a", b"\xff", 1)
    elif case == "row 20":
        raw = raw.replace(b"20.5", b"20\xff5")
    else:
        raw = gzip.compress(raw)
    path = tmp_path / ("x.csv.gz" if case == "gzip" else "x.csv")
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="is not a text CSV"):
        data.load_csv(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_load_csv_reads_a_plain_csv_by_a_compressed_name(tmp_path, suffix):
    """numpy decompresses a path by its name; a plain-text CSV so named
    still loads, through the vectorized parse, as it does as ``.csv``."""
    plain = data.load_csv(write(tmp_path, DATED, name="x.csv"))
    path = write(tmp_path, DATED, name="x" + suffix)
    named = data.load_csv(path)
    assert named.channel_names == plain.channel_names == ["a", "b"]
    assert np.array_equal(named.values, plain.values)
    assert np.array_equal(data._parse_fast(path, 1, 2), plain.values)


def test_load_csv_reads_only_header_and_first_row_of_a_clean_file(tmp_path, monkeypatch):
    path = write(tmp_path, "date,a,b\n" + "".join(f"2020-01-{d:02d},{d},{-d}\n" for d in range(1, 29)))
    yielded = []
    real = data.csv.reader

    def counted(*args, **kwargs):
        for row in real(*args, **kwargs):
            yielded.append(row)
            yield row

    monkeypatch.setattr(data.csv, "reader", counted)
    series = data.load_csv(path)
    assert series.length == 28
    assert len(yielded) <= 2


def test_save_load_roundtrip(tmp_path):
    series = data.synth("noise_walk", 50, 3, seed=2)
    path = tmp_path / "walk.csv"
    data.save_csv(series, path)
    back = data.load_csv(path)
    assert back.channel_names == series.channel_names
    assert np.array_equal(back.values, series.values)


def test_split_ratio_70_10_20():
    series = data.Series(np.arange(200).reshape(100, 2).astype(float), ["a", "b"])
    train, val, test = data.split(series, data.SplitSpec("ratio"))
    assert (train.length, val.length, test.length) == (70, 10, 20)
    assert train.values[0, 0] == 0.0
    assert val.values[0, 0] == 140.0
    assert test.values[0, 0] == 160.0


def test_split_ett_hours_fixed_sizes():
    series = data.Series(np.zeros((17420, 1)), ["oil"])
    train, val, test = data.split(series, data.SplitSpec("ett_hours"))
    assert (train.length, val.length, test.length) == (8640, 2880, 2880)  # remainder unused


def test_split_too_short_for_ett():
    series = data.Series(np.zeros((10, 1)), ["a"])
    with pytest.raises(SpecOutOfRangeError):
        data.split(series, data.SplitSpec("ett_hours"))


def test_split_unknown_scheme():
    series = data.Series(np.zeros((100, 1)), ["a"])
    with pytest.raises(InvalidConfigError):
        data.split(series, data.SplitSpec("monthly"))


def test_split_lookback_context_alignment():
    total, lookback, horizon = 100, 10, 5
    series = data.Series(np.arange(total, dtype=float).reshape(-1, 1), ["a"])
    train, val, test = data.split(series, data.SplitSpec("ratio"), lookback=lookback)
    assert val.length == 10 + lookback
    assert test.length == 20 + lookback
    # first val window's target rows start exactly at the train boundary
    sampler = data.WindowSampler(val, lookback, horizon)
    first = sampler.gather(sampler.origins[:1])
    assert first.y[0, 0, 0] == 70.0
    # and all targets stay inside the val rows [70, 80)
    last = sampler.gather(sampler.origins[-1:])
    assert last.y[0, -1, 0] == 79.0
    with pytest.raises(SpecOutOfRangeError):
        data.split(series, data.SplitSpec("ratio"), lookback=71)


def test_standardize_hand_case():
    train = data.Series(np.array([[0.0], [2.0]]), ["a"])
    scaler, (scaled,) = data.standardize(train)
    assert scaler.mean[0] == 1.0
    assert scaler.std[0] == 1.0
    assert np.array_equal(scaled.values, [[-1.0], [1.0]])


def test_standardize_refit_is_noop():
    rng = np.random.default_rng(0)
    series = data.Series(rng.normal(size=(500, 2)), ["a", "b"])
    scaler, (scaled,) = data.standardize(series)
    refit = data.Standardizer.fit(scaled)
    assert np.max(np.abs(refit.mean)) < 1e-12
    assert np.max(np.abs(refit.std - 1.0)) < 1e-12


def test_standardize_uses_train_statistics_only():
    train = data.Series(np.array([[0.0], [2.0]]), ["a"])
    test = data.Series(np.array([[10.0], [12.0]]), ["a"])
    _, (_, scaled_test) = data.standardize(train, test)
    # transformed with train's mean=1, std=1 - not its own statistics
    assert np.array_equal(scaled_test.values, [[9.0], [11.0]])


def test_standardize_degenerate_channel():
    train = data.Series(np.array([[1.0, 5.0], [2.0, 5.0]]), ["a", "b"])
    scaler, (scaled,) = data.standardize(train)
    assert scaler.degenerate.tolist() == [False, True]
    assert np.array_equal(scaled.values[:, 1], [0.0, 0.0])


def test_standardize_roundtrip():
    rng = np.random.default_rng(1)
    series = data.Series(rng.normal(size=(64, 3)) * 7 + 2, ["a", "b", "c"])
    scaler, (scaled,) = data.standardize(series)
    assert np.max(np.abs(scaled.values * scaler.std + scaler.mean - series.values)) < 1e-10


def test_window_counts():
    series = data.Series(np.arange(100, dtype=float).reshape(-1, 1), ["a"])
    assert len(data.WindowSampler(series, 10, 5)) == 86
    short = data.Series(np.arange(15, dtype=float).reshape(-1, 1), ["a"])
    assert len(data.WindowSampler(short, 10, 5)) == 1
    too_short = data.Series(np.arange(14, dtype=float).reshape(-1, 1), ["a"])
    with pytest.raises(SeriesTooShortError):
        data.WindowSampler(too_short, 10, 5)


def test_windows_are_contiguous_pairs():
    series = data.Series(np.arange(40, dtype=float).reshape(-1, 1), ["a"])
    batches = list(data.WindowSampler(series, lookback=6, horizon=3).batches(8))
    batch = batches[0]
    assert batch.x.shape == (8, 6, 1)
    assert batch.y.shape == (8, 3, 1)
    for i, origin in enumerate(batch.origins):
        assert batch.x[i, 0, 0] == float(origin)
        assert batch.y[i, 0, 0] == float(origin + 6)  # horizon starts right after
    total = sum(b.x.shape[0] for b in batches)
    assert total == 40 - 6 - 3 + 1
    # Each gather is one C-contiguous copy per side, equal to direct slices.
    values = np.random.default_rng(0).normal(size=(40, 3))
    sampler = data.WindowSampler(data.Series(values, ["a", "b", "c"]), lookback=6, horizon=3)
    batch = sampler.gather(np.array([5, 0, 31]))
    for arr in (batch.x, batch.y):
        assert arr.flags["C_CONTIGUOUS"] and arr.flags["OWNDATA"]
    for i, origin in enumerate(batch.origins):
        assert np.array_equal(batch.x[i], values[origin : origin + 6])
        assert np.array_equal(batch.y[i], values[origin + 6 : origin + 9])


def test_consecutive_origins_gather_read_only_views():
    values = np.random.default_rng(1).normal(size=(40, 3))
    sampler = data.WindowSampler(data.Series(values, ["a", "b", "c"]), lookback=6, horizon=3)

    def check(batch, view):
        for arr in (batch.x, batch.y):
            assert np.shares_memory(arr, values) == view
            assert arr.flags["WRITEABLE"] != view
            assert view or (arr.flags["C_CONTIGUOUS"] and arr.flags["OWNDATA"])
        for i, origin in enumerate(batch.origins):
            assert np.array_equal(batch.x[i], values[origin : origin + 6])
            assert np.array_equal(batch.y[i], values[origin + 6 : origin + 9])

    for origins in (np.arange(4, 12), sampler.origins[:1], sampler.origins[-3:], sampler.origins):
        check(sampler.gather(origins), view=True)
    for batch in sampler.batches(8):  # validation, evaluation and eval order
        check(batch, view=True)
    for batch in sampler.batches(8, shuffle=np.random.default_rng(4)):
        check(batch, view=False)
    for origins in ([3, 2, 1], [0, 2, 3], [4, 4, 5], [7]):
        check(sampler.gather(np.array(origins)), view=origins == [7])


def test_gather_rejects_origins_outside_the_windows():
    """Origin -1 is no alias of the last window, and origin W no bare
    IndexError: both, like an empty or non-integer batch, raise the
    ShapeMismatchError that batch_loss raises for the same rows."""
    values = np.random.default_rng(1).normal(size=(40, 3))
    sampler = data.WindowSampler(data.Series(values, ["a", "b", "c"]), lookback=6, horizon=3)
    assert len(sampler) == 32
    assert np.array_equal(sampler.gather(np.array([0, 31])).origins, [0, 31])
    for origins in ([-1], [-2, -1], [32], [31, 32], [], [0.0, 1.0], [[0, 1]]):
        with pytest.raises(ShapeMismatchError):
            sampler.gather(np.array(origins))


def test_forecasts_from_views_match_forecasts_from_copies():
    from wavets.model import ModelConfig, init_params, predict

    series = data.synth("noise_walk", 300, 5, seed=3)
    sampler = data.WindowSampler(series, 32, 8)
    for cfg in (ModelConfig("B", 32, 8, 5), ModelConfig("I", 32, 8, 5, bank="d4", delta_per_channel=True)):
        params = init_params(cfg, 0)
        for batch in sampler.batches(50):
            assert not batch.x.flags["WRITEABLE"]
            copied = np.ascontiguousarray(batch.x)
            assert np.array_equal(predict(cfg, params, batch.x), predict(cfg, params, copied))


def test_window_shuffle_determinism():
    series = data.Series(np.arange(30, dtype=float).reshape(-1, 1), ["a"])
    full = data.WindowSampler(series, 4, 2)
    a = [b.origins.tolist() for b in full.batches(7, shuffle=np.random.default_rng(9))]
    b = [b.origins.tolist() for b in full.batches(7, shuffle=np.random.default_rng(9))]
    assert a == b
    flat = [o for chunk in a for o in chunk]
    assert sorted(flat) == list(range(25))


def test_synth_deterministic():
    a = data.synth("sine_mix", 1000, 2, seed=7)
    b = data.synth("sine_mix", 1000, 2, seed=7)
    assert np.array_equal(a.values, b.values)
    c = data.synth("sine_mix", 1000, 2, seed=8)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("kind", data.SYNTH_KINDS)
def test_synth_refuses_a_negative_seed(kind):
    with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
        data.synth(kind, 100, 2, seed=-1)


def test_sine_mix_periodogram_peaks():
    length = 1024
    series = data.synth("sine_mix", length, 3, seed=5)
    params = data.sine_mix_params(3, 5, length)
    for channel, components in enumerate(params):
        spectrum = np.abs(np.fft.rfft(series.values[:, channel]))
        configured = sorted(bin_ for bin_, _, _ in components)
        top = sorted(np.argsort(spectrum)[-len(configured):])
        assert top == configured


def test_sine_mix_too_short_for_its_tones_is_a_config_error(tmp_path):
    """Seed 0 draws 3 bins for its first channel, but [3, 5) holds only 2
    unrelated ones. Run in a subprocess with a timeout, so a draw loop that
    never ends fails the test instead of hanging the suite."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "s.csv"
    argv = ["synth", "--kind", "sine_mix", "--length", "40", "--channels", "2", "--output", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "wavets", *argv], capture_output=True, text=True, timeout=30, env=env
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error config: sine_mix needs 3 unrelated DFT bins in [3, 5); length 40 is too short"
    ]
    assert not out.exists()


def test_sine_mix_params_pinned():
    """The too-short check draws no random numbers, so a series long enough
    for its tones keeps these bins, amplitudes and phases."""
    assert data.sine_mix_params(2, 7, 1000) == [
        [(79, 1.2756856902451936, 1.4150185072200883),
         (86, 0.8001662849112254, 5.488698173149897),
         (112, 0.5052653045655747, 5.159930332220927)],
        [(100, 0.8030324268193135, 1.7493997150940617),
         (17, 0.7548695876541246, 2.796496905695612)],
    ]


def test_trend_sine_first_difference_matches_drift():
    length = 4000
    series = data.synth("trend_sine", length, 4, seed=3)
    diffs = np.diff(series.values, axis=0).mean(axis=0)
    rng = np.random.default_rng([3, 1])
    for n in range(4):
        slope = float(rng.uniform(0.001, 0.01))
        rng.uniform(24, 96)
        rng.uniform(0.5, 1.5)
        assert abs(diffs[n] - slope) < 5e-4


def test_noise_walk_and_unknown_kind():
    walk = data.synth("noise_walk", 128, 2, seed=1)
    assert walk.values.shape == (128, 2)
    with pytest.raises(InvalidConfigError):
        data.synth("brownian", 10, 1, seed=0)


def test_etth1_shape_matches_published_table(etth1_path):
    series = data.load_csv(etth1_path)
    assert series.length == 17420
    assert series.channels == 7


def test_electricity_shape_matches_published_table():
    import os
    from pathlib import Path

    path = Path(os.environ.get("WAVETS_DATA_DIR", "data")) / "Electricity.csv"
    if not path.exists():
        pytest.skip("Electricity.csv not available; set WAVETS_DATA_DIR")
    series = data.load_csv(path)
    assert series.length == 26304
    assert series.channels == 321


# Names load_csv drops in a first column are fine for a channel: save_csv
# writes its own leading time column.
_CHANNEL_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True) | st.sampled_from(
    sorted(data._TIMESTAMP_NAMES)
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    dated=st.booleans(),
    data_=st.data(),
)
def test_save_csv_load_csv_round_trip(tmp_path_factory, values, dated, data_):
    """Finite values and channel names, timestamp-like ones included, survive
    save_csv -> load_csv bit for bit; a date column written in place of the
    time column is dropped too, and every row holding a NaN is dropped."""
    rows, channels = values.shape
    names = data_.draw(st.lists(_CHANNEL_NAMES, min_size=channels, max_size=channels, unique=True))
    nan_rows = np.array(data_.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    written = values.copy()
    for row in np.flatnonzero(nan_rows):
        written[row, data_.draw(st.integers(0, channels - 1))] = np.nan
    path = tmp_path_factory.mktemp("csv") / "series.csv"
    data.save_csv(data.Series(written, names), path)
    header, *lines = path.read_text().splitlines()
    assert header.split(",") == ["time", *names]
    assert [line.split(",", 1)[0] for line in lines] == [str(i) for i in range(rows)]
    if dated:
        dated_lines = [f"2020-01-{i + 1:02d},{line.split(',', 1)[1]}" for i, line in enumerate(lines)]
        path.write_text("\n".join([f"date,{header.split(',', 1)[1]}", *dated_lines]) + "\n")
    if nan_rows.all():
        with pytest.raises(EmptyFileError):
            data.load_csv(path)
        return
    loaded = data.load_csv(path)
    kept = values[~nan_rows]
    assert loaded.channel_names == names
    assert loaded.values.shape == kept.shape
    assert np.array_equal(loaded.values, kept)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(kept))
