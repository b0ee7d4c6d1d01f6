"""Ingestion, features, windows, splits, and synthetic series with truth."""

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dva.data import (
    FEATURE_DIM,
    R_INDEX,
    SynthSpec,
    build_dataset,
    chronological_split,
    featurize,
    load_ohlcv,
    load_tickers,
    make_windows,
    split_sizes,
    synth_generate,
    train_volume_stats,
    write_ohlcv,
    write_truth,
)
from dva.data import OHLCV_HEADER, Prices
from dva.errors import ConfigError, ContractError, DataError, DvaError, ParseError


def history(rows):
    """A price history of (o, h, l, c, v) rows on consecutive days."""
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(rows))]
    return Prices(dates, np.array(rows, dtype=float).reshape(-1, 5))


def constant_bars(n, price=100.0):
    return history([(price, price, price, price, 1000.0)] * n)


# ---------------------------------------------------------------------------
# load_ohlcv
# ---------------------------------------------------------------------------


def test_load_empty_after_header(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text("date,open,high,low,close,volume\n")
    dates, ohlcv = load_ohlcv(f)
    assert dates == [] and ohlcv.shape == (0, 5)


def test_load_rejects_low_above_high(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text("date,open,high,low,close,volume\n2020-01-02,10,9,11,10,5\n")
    with pytest.raises(DataError, match="2020-01-02"):
        load_ohlcv(f)


def test_load_reports_line_number_for_bad_row(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text(
        "date,open,high,low,close,volume\n"
        "2020-01-02,10,11,9,10,5\n"
        "2020-01-03,ten,11,9,10,5\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        load_ohlcv(f)


def test_load_rejects_duplicate_dates(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text(
        "date,open,high,low,close,volume\n"
        "2020-01-02,10,11,9,10,5\n"
        "2020-01-02,10,11,9,10,5\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        load_ohlcv(f)


def test_load_rejects_wrong_header(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text("open,close\n")
    with pytest.raises(ParseError, match="line 1"):
        load_ohlcv(f)


def test_load_sorts_by_date(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text(
        "date,open,high,low,close,volume\n"
        "2020-01-03,10,11,9,10,5\n"
        "2020-01-02,10,11,9,10,5\n"
    )
    dates, _ = load_ohlcv(f)
    assert [d.isoformat() for d in dates] == ["2020-01-02", "2020-01-03"]


def test_load_roundtrip_756_bars(tmp_path):
    prices, _ = synth_generate(SynthSpec(length=756, noise_scale=0.01), seed=5)
    f = tmp_path / "SYN.csv"
    write_ohlcv(f, prices)
    dates, ohlcv = load_ohlcv(f)
    assert len(dates) == 756 and ohlcv.shape == (756, 5)
    assert dates == prices.dates
    assert dates == sorted(dates)
    np.testing.assert_allclose(ohlcv, prices.ohlcv, rtol=1e-9)


def test_load_by_ticker_from_directory(tmp_path):
    write_ohlcv(tmp_path / "ABC.csv", constant_bars(5))
    assert len(load_ohlcv(tmp_path, "ABC").dates) == 5
    with pytest.raises(DataError):
        load_ohlcv(tmp_path, "MISSING")


@dataclass(frozen=True)
class ReferenceBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self, where):
        """``where`` names the file and line: ``price file <path>: line N: ``."""
        if min(self.open, self.high, self.low, self.close) <= 0.0:
            raise DataError(f"{where}{self.date}: prices must be positive")
        if self.volume < 0.0:
            raise DataError(f"{where}{self.date}: volume must be >= 0")
        if self.low > min(self.open, self.close):
            raise DataError(f"{where}{self.date}: low exceeds open/close")
        if self.high < max(self.open, self.close):
            raise DataError(f"{where}{self.date}: high below open/close")
        return self


def reference_read_ohlcv(p):
    """The reader as it was: one validated bar object per row, in file order;
    a fault names the price file and the row's line."""
    bars = []
    seen = set()
    where = f"price file {p}"
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip().lower() for h in header] != OHLCV_HEADER:
            got = ",".join(header) or "nothing"
            raise ParseError(where, 1, f"header must be {','.join(OHLCV_HEADER)}, got {got}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 6:
                raise ParseError(where, lineno, f"expected 6 fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[0].strip())
                o, h, l, c, v = (float(x) for x in row[1:])
            except ValueError as exc:
                raise ParseError(where, lineno, str(exc)) from None
            if not all(map(math.isfinite, (o, h, l, c, v))):
                raise ParseError(where, lineno, "non-finite value")
            if date in seen:
                raise DataError(f"{where}: line {lineno}: {date}: duplicate date")
            seen.add(date)
            bars.append(ReferenceBar(date, o, h, l, c, v).validate(f"{where}: line {lineno}: "))
    bars.sort(key=lambda b: b.date)
    dates = [b.date for b in bars]
    ohlcv = np.array([(b.open, b.high, b.low, b.close, b.volume) for b in bars])
    return dates, ohlcv.reshape(-1, 5)


def outcome(read, path):
    try:
        dates, ohlcv = read(path)
    except DvaError as err:
        return type(err), str(err)
    return dates, ohlcv.shape, ohlcv.view(np.int64).tolist()


# a valid bar from its low, open and close above it, high above both, volume
BARS = st.tuples(
    st.floats(1e-3, 1e4), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.floats(0.0, 1e9),
)
FAULTS = [
    "header", "fields", "date", "float", "non-finite", "duplicate",
    "positive", "volume", "low", "high",
]


@settings(deadline=None, max_examples=120)
@given(
    days=st.lists(
        st.dates(dt.date(1990, 1, 1), dt.date(2040, 1, 1)), unique=True, min_size=2, max_size=10
    ),
    fault=st.sampled_from([None] + FAULTS),
    data=st.data(),
)
def test_load_matches_row_reference(tmp_path_factory, days, fault, data):
    rows = []
    for day in days:
        low, a, b, d, v = data.draw(BARS)
        o, c = low * (1.0 + a), low * (1.0 + b)
        high = max(o, c) * (1.0 + d)
        rows.append([f" {day.isoformat()}"] + [repr(x) for x in (o, high, low, c, v)])
    header = ",".join(OHLCV_HEADER)
    k = data.draw(st.integers(0, len(rows) - 1))
    o, c = float(rows[k][1]), float(rows[k][4])
    if fault == "header":
        header = "date,open,high,low,close"
    elif fault == "fields":
        del rows[k][data.draw(st.integers(0, 5))]
    elif fault == "date":
        rows[k][0] = "2021-02-30"
    elif fault == "float":
        rows[k][data.draw(st.integers(1, 5))] = "1.2.3"
    elif fault == "non-finite":
        rows[k][data.draw(st.integers(1, 5))] = data.draw(st.sampled_from(["inf", "-inf", "nan"]))
    elif fault == "duplicate":
        rows[k][0] = rows[k - 1][0]
    elif fault == "positive":
        rows[k][data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(["0", "-0.0", "-2.5"]))
    elif fault == "volume":
        rows[k][5] = "-1e-9"
    elif fault == "low":
        rows[k][3] = repr(min(o, c) * 1.5)
    elif fault == "high":
        rows[k][2] = repr(max(o, c) * 0.5)
    lines = [header] + [",".join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 2))):  # blank lines are skipped
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(["", " "])))
    f = tmp_path_factory.mktemp("ohlcv") / "X.csv"
    f.write_text("\n".join(lines) + "\n")
    want = outcome(reference_read_ohlcv, f)
    assert outcome(load_ohlcv, f) == want
    assert (fault is None) == (len(want) == 3)


def test_load_tickers(tmp_path):
    f = tmp_path / "tickers.txt"
    f.write_text("AAA\n# comment\n\nBBB\n")
    assert load_tickers(f) == ["AAA", "BBB"]
    f.write_text("BRK.B\n.A\nA..\n")
    assert load_tickers(f) == ["BRK.B", ".A", "A.."]


def test_load_tickers_refuses_a_repeated_name(tmp_path):
    f = tmp_path / "tickers.txt"
    f.write_text("AAA\n# AAA\nBBB\n AAA \n")
    want = rf"^tickers file {re.escape(str(f))}: line 4: 'AAA' repeats line 1$"
    with pytest.raises(ConfigError, match=want):
        load_tickers(f)


@pytest.mark.parametrize("text", ["", "\n\n", "# none yet\n"])
def test_load_tickers_refuses_an_empty_list(tmp_path, text):
    f = tmp_path / "tickers.txt"
    f.write_text(text)
    want = rf"^tickers file {re.escape(str(f))} lists no ticker$"
    with pytest.raises(ConfigError, match=want):
        load_tickers(f)


@pytest.mark.parametrize("name", ["B\0B", "../AAA", "A/B", "A\\B", ".", ".."])
def test_load_tickers_refuses_a_name_that_is_not_one_file_name(tmp_path, name):
    f = tmp_path / "tickers.txt"
    f.write_text(f"AAA\n# comment\n{name}\n")
    with pytest.raises(ConfigError, match=rf"^tickers file {re.escape(str(f))}: line 3: "):
        load_tickers(f)


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_featurize_hand_example():
    prices = history([(100, 100, 100, 100, 1000), (102, 105, 99, 101, 1000)])
    dates, feats = featurize(prices, volume_stats=(0.0, 1.0))
    o, h, l, _, delta, r = feats[0]
    assert dates == [prices.dates[1]]
    assert (o, h, l, r) == pytest.approx((1.02, 1.05, 0.99, 1.01))
    assert delta == pytest.approx(1.0)


def test_featurize_drops_first_bar():
    dates, feats = featurize(constant_bars(2))
    assert len(dates) == 1 and feats.shape == (1, FEATURE_DIM)
    with pytest.raises(ContractError):
        featurize(constant_bars(1))


def test_featurize_constant_series():
    _, feats = featurize(constant_bars(6))
    assert np.all(feats[:, R_INDEX] == 1.0) and np.all(feats[:, 4] == 0.0)


def test_featurize_volume_zscore():
    prices = history([(100, 100, 100, 100, 100 + i) for i in range(5)])
    _, feats = featurize(prices)  # stats over its own rows
    vs = feats[:, 3]
    assert vs.mean() == pytest.approx(0.0, abs=1e-12)
    assert vs.std() == pytest.approx(1.0, abs=1e-12)


def test_featurize_constant_volume_maps_to_zero():
    _, feats = featurize(constant_bars(4))
    assert np.all(feats[:, 3] == 0.0)


def test_feature_row_invariants_hold():
    prices, _ = synth_generate(SynthSpec(length=50), seed=9)
    for o, h, l, _, _, r in featurize(prices)[1]:
        assert l <= min(o, r) + 1e-12
        assert h >= max(o, r) - 1e-12
        assert min(o, h, l, r) > 0


def test_featurize_matches_per_row_float_arithmetic():
    prices, _ = synth_generate(SynthSpec(length=60, noise_scale=0.03), seed=12)
    v_mean, v_std = 1.1e6, 2.3e5
    rows = prices.ohlcv.tolist()
    want = [
        (o / pc, h / pc, l / pc, (v - v_mean) / v_std, c - pc, c / pc)
        for (_, _, _, pc, _), (o, h, l, c, v) in zip(rows, rows[1:])
    ]
    _, feats = featurize(prices, volume_stats=(v_mean, v_std))
    assert np.array_equal(feats, np.array(want))


def test_featurize_rejects_zero_close():
    prices = history([(1, 1, 1, 1, 1000), (1, 1, 0, 0, 1000), (1, 1, 1, 1, 1000)])
    with pytest.raises(DataError, match=str(prices.dates[1])):
        featurize(prices)


# ---------------------------------------------------------------------------
# make_windows / chronological_split
# ---------------------------------------------------------------------------


def test_window_count_formula():
    dates, feats = featurize(constant_bars(756))  # 755 feature rows
    assert len(make_windows(dates, feats, 10, 10)) == 736


def test_window_count_boundary():
    dates, feats = featurize(constant_bars(20))  # 19 rows < T + T'
    windows = make_windows(dates, feats, 10, 10)
    assert len(windows) == 0 and windows.x.shape == (0, FEATURE_DIM, 10)


def test_window_targets_follow_anchor():
    dates, feats = featurize(history([(100 + i,) * 4 + (1000,) for i in range(12)]))
    pairs = make_windows(dates, feats, 3, 2)
    first = pairs[0]
    assert first.anchor_index == 2
    assert first.anchor_date == dates[2]
    assert first.y[0] == feats[3, R_INDEX]
    assert first.y[1] == feats[4, R_INDEX]
    assert np.array_equal(first.x[-1], feats[2])


def reference_windows(dates, features, t_in, t_out):
    """Windows as make_windows once built them: one copied (x, y, anchor
    date, anchor row) per anchor."""
    r_col = features[:, R_INDEX]
    return [
        (features[a - t_in + 1 : a + 1].copy(), r_col[a + 1 : a + 1 + t_out].copy(), dates[a], a)
        for a in range(t_in - 1, len(features) - t_out)
    ]


@settings(deadline=None, max_examples=40)
@given(
    length=st.integers(2, 60),
    t_in=st.integers(1, 12),
    t_out=st.integers(1, 12),
    seed=st.integers(0, 3),
)
@example(length=20, t_in=10, t_out=10, seed=0)  # 19 feature rows: no window
def test_windows_match_per_anchor_slicing(length, t_in, t_out, seed):
    dates, feats = featurize(synth_generate(SynthSpec(length=length), seed=seed)[0])
    windows = make_windows(dates, feats, t_in, t_out)
    want = reference_windows(dates, feats, t_in, t_out)
    n = len(want)
    assert len(windows) == n
    assert windows.x.shape == (n, FEATURE_DIM, t_in) and windows.y.shape == (n, t_out)
    if n:  # stacked as the model reads them, features as channels
        assert np.array_equal(windows.x, np.stack([x.T for x, _, _, _ in want]))
        assert np.array_equal(windows.y, np.stack([y for _, y, _, _ in want]))
    assert windows.anchors == [d for _, _, d, _ in want]
    for i, (x, y, d, a) in enumerate(want):
        pair = windows[i]
        assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)
        assert (pair.anchor_date, pair.anchor_index) == (d, a)


def test_windows_sequence_contract():
    split = build_dataset(synth_generate(SynthSpec(length=120), seed=3)[0], 10, 10)
    test = split.test
    n = len(test)
    assert n == len(test.x) == len(test.anchors) > 2
    for i in (0, np.int64(n - 1), -1):
        pair = test[i]
        assert pair.x.shape == (10, FEATURE_DIM)
        assert np.array_equal(pair.x.T, test.x[i])
        assert np.array_equal(pair.y, test.y[i])
        assert pair.anchor_date == test.anchors[i]
    assert test[np.int64(2)].anchor_index == test.start + 2
    assert split.validation[0].anchor_index == split.train[-1].anchor_index + 1
    for i in (n, np.int64(n), -n - 1):
        with pytest.raises(IndexError):
            test[i]
    assert [p.anchor_date for p in test] == test.anchors


def test_split_sizes_frozen_examples():
    assert split_sizes(100) == (70, 10, 20)
    assert split_sizes(736) == (515, 74, 147)


def test_split_is_chronological_partition():
    dates, feats = featurize(constant_bars(120))
    split = chronological_split(make_windows(dates, feats, 5, 3))
    n = sum(split.counts())
    assert n == len(make_windows(dates, feats, 5, 3))
    last_train = split.train[-1].anchor_index
    first_val = split.validation[0].anchor_index
    last_val = split.validation[-1].anchor_index
    first_test = split.test[0].anchor_index
    assert last_train < first_val <= last_val < first_test


def test_split_requires_ten_pairs():
    dates, feats = featurize(constant_bars(15))
    with pytest.raises(ConfigError):
        chronological_split(make_windows(dates, feats, 3, 3))


@pytest.mark.parametrize("bars", [0, 1, 15])
def test_history_too_short_to_split_is_a_data_error(bars):
    # 3 + 3 + 10 bars make exactly 10 windows; fewer is the data's fault
    prices = constant_bars(bars)
    for fn in (train_volume_stats, build_dataset):
        with pytest.raises(DataError, match=f"^AAA.csv: {bars} bars, .* need at least 16 "):
            fn(prices, 3, 3, "AAA.csv")
    assert sum(build_dataset(constant_bars(16), 3, 3).counts()) == 10


@settings(deadline=None, max_examples=40)
@given(n=st.integers(10, 5000))
def test_split_sizes_sum_and_stay_near_ratio(n):
    tr, va, te = split_sizes(n)
    assert tr + va + te == n
    assert abs(tr - 0.7 * n) < 1.0
    assert abs(te - 0.2 * n) < 1.0
    assert abs(va - 0.1 * n) < 2.0


def test_windows_tile_with_stride_t_out():
    prices, _ = synth_generate(SynthSpec(length=100), seed=2)
    dates, feats = featurize(prices)
    t_in, t_out = 5, 4
    tiled = make_windows(dates, feats, t_in, t_out).y[::t_out].ravel()
    r_seq = feats[:, R_INDEX]
    start = t_in  # first target index
    assert np.array_equal(tiled, r_seq[start : start + len(tiled)])


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synth_noiseless_constant_drift():
    spec = SynthSpec(process="ar1", noise_scale=0.0, ar_coeff=0.0, drift=0.001, length=50)
    prices, r_true = synth_generate(spec, seed=0)
    assert np.all(r_true == 1.001)
    closes = prices.ohlcv[:, 3]
    realized = closes[1:] / closes[:-1]
    assert np.allclose(realized, 1.001, atol=1e-12)


def test_synth_same_seed_is_identical():
    spec = SynthSpec(length=60)
    (a_dates, a_ohlcv), a_truth = synth_generate(spec, seed=42)
    (b_dates, b_ohlcv), b_truth = synth_generate(spec, seed=42)
    assert a_dates == b_dates
    assert np.array_equal(a_ohlcv, b_ohlcv)
    assert np.array_equal(a_truth, b_truth)


def test_synth_return_variance_tracks_noise_scale():
    spec = SynthSpec(process="random_walk", noise_scale=0.02, drift=0.0, length=10_001)
    prices, _ = synth_generate(spec, seed=3)
    closes = prices.ohlcv[:, 3]
    r = closes[1:] / closes[:-1]
    assert abs(r.var() - 0.02**2) < 0.05 * 0.02**2


def test_synth_rejects_bad_config():
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(noise_scale=-0.1), seed=0)
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(process="brownian"), seed=0)


def test_synth_bars_satisfy_ohlc_invariants():
    (dates, ohlcv), _ = synth_generate(SynthSpec(length=300, noise_scale=0.03), seed=8)
    o, h, l, c, v = ohlcv.T
    assert np.all(ohlcv[:, :4] > 0.0) and np.all(v >= 0.0)
    assert np.all(l <= np.minimum(o, c)) and np.all(h >= np.maximum(o, c))
    assert dates == sorted(dates)
    assert all(d.weekday() < 5 for d in dates)


def test_synth_sinusoid_truth_matches_signal():
    spec = SynthSpec(process="sinusoid", amplitude=0.02, period=40.0, noise_scale=0.0, length=90)
    prices, r_true = synth_generate(spec, seed=1)
    t = np.arange(1, 90)
    want = 1.0 + 0.02 * np.sin(2.0 * np.pi * t / 40.0)
    assert np.allclose(r_true, want, atol=1e-15)
    closes = prices.ohlcv[:, 3]
    realized = closes[1:] / closes[:-1]
    assert np.allclose(realized, want, atol=1e-12)


def test_truth_sidecar_roundtrip(tmp_path):
    prices, r_true = synth_generate(SynthSpec(length=40), seed=6)
    f = tmp_path / "syn.truth.csv"
    write_truth(f, prices, r_true)
    with open(f, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["date", "r_true"]
    assert [dt.date.fromisoformat(d) for d, _ in rows] == prices.dates[1:]
    assert np.allclose([float(r) for _, r in rows], r_true, atol=1e-12)


# ---------------------------------------------------------------------------
# pipeline invariants
# ---------------------------------------------------------------------------


def test_close_reconstructs_from_returns():
    prices, _ = synth_generate(SynthSpec(length=200, noise_scale=0.02), seed=4)
    r = featurize(prices)[1][:, R_INDEX]
    recon = prices.ohlcv[0, 3] * np.cumprod(r)
    closes = prices.ohlcv[1:, 3]
    assert np.max(np.abs(recon - closes) / closes) < 1e-12


def test_build_dataset_volume_stats_exclude_test_region():
    prices, _ = synth_generate(SynthSpec(length=120), seed=10)
    t_in, t_out = 5, 3
    mean, std = train_volume_stats(prices, t_in, t_out)
    split = build_dataset(prices, t_in, t_out)
    n_train = len(split.train)
    train_vols = prices.ohlcv[1 : 1 + n_train + t_in - 1, 4]
    assert mean == pytest.approx(train_vols.mean())
    assert std == pytest.approx(train_vols.std())
    # z-scoring with these stats centers exactly the train-visible rows
    zs = (train_vols - mean) / std
    assert zs.mean() == pytest.approx(0.0, abs=1e-12)


def test_build_dataset_deterministic():
    prices, _ = synth_generate(SynthSpec(length=150), seed=11)
    a = build_dataset(prices, 6, 4)
    b = build_dataset(prices, 6, 4)
    assert a.counts() == b.counts()
    for wa, wb in zip((a.train, a.validation, a.test), (b.train, b.validation, b.test)):
        assert np.array_equal(wa.x, wb.x)
        assert np.array_equal(wa.y, wb.y)
        assert wa.anchors == wb.anchors
