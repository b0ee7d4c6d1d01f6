"""Ingestion, features, windows, splits, and synthetic series with truth."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.data import (
    FEATURE_DIM,
    R_INDEX,
    PriceBar,
    SynthSpec,
    build_dataset,
    chronological_split,
    featurize,
    load_ohlcv,
    load_tickers,
    load_truth,
    make_windows,
    split_sizes,
    stack_windows,
    synth_generate,
    train_volume_stats,
    write_ohlcv,
    write_truth,
)
from dva.errors import ConfigError, ContractError, DataError, ParseError


def bar(day, o, h, l, c, v=1000.0):
    return PriceBar(dt.date(2020, 1, 1) + dt.timedelta(days=day), o, h, l, c, v)


def constant_bars(n, price=100.0):
    return [bar(i, price, price, price, price) for i in range(n)]


# ---------------------------------------------------------------------------
# load_ohlcv
# ---------------------------------------------------------------------------


def test_load_empty_after_header(tmp_path):
    f = tmp_path / "X.csv"
    f.write_text("date,open,high,low,close,volume\n")
    assert load_ohlcv(f) == []


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
    bars = load_ohlcv(f)
    assert [b.date.isoformat() for b in bars] == ["2020-01-02", "2020-01-03"]


def test_load_roundtrip_756_bars(tmp_path):
    bars, _ = synth_generate(SynthSpec(length=756, noise_scale=0.01), seed=5)
    f = tmp_path / "SYN.csv"
    write_ohlcv(f, bars)
    loaded = load_ohlcv(f)
    assert len(loaded) == 756
    assert all(a.date == b.date for a, b in zip(loaded, bars))
    assert loaded == sorted(loaded, key=lambda b: b.date)


def test_load_by_ticker_from_directory(tmp_path):
    bars = constant_bars(5)
    write_ohlcv(tmp_path / "ABC.csv", bars)
    assert len(load_ohlcv(tmp_path, "ABC")) == 5
    with pytest.raises(DataError):
        load_ohlcv(tmp_path, "MISSING")


def test_load_tickers(tmp_path):
    f = tmp_path / "tickers.txt"
    f.write_text("AAA\n# comment\n\nBBB\n")
    assert load_tickers(f) == ["AAA", "BBB"]


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_featurize_hand_example():
    bars = [bar(0, 100, 100, 100, 100), bar(1, 102, 105, 99, 101)]
    dates, feats = featurize(bars, volume_stats=(0.0, 1.0))
    o, h, l, _, delta, r = feats[0]
    assert dates == [bars[1].date]
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
    bars = [bar(i, 100, 100, 100, 100, v=float(100 + i)) for i in range(5)]
    _, feats = featurize(bars)  # stats over its own rows
    vs = feats[:, 3]
    assert vs.mean() == pytest.approx(0.0, abs=1e-12)
    assert vs.std() == pytest.approx(1.0, abs=1e-12)


def test_featurize_constant_volume_maps_to_zero():
    _, feats = featurize(constant_bars(4))
    assert np.all(feats[:, 3] == 0.0)


def test_feature_row_invariants_hold():
    bars, _ = synth_generate(SynthSpec(length=50), seed=9)
    for o, h, l, _, _, r in featurize(bars)[1]:
        assert l <= min(o, r) + 1e-12
        assert h >= max(o, r) - 1e-12
        assert min(o, h, l, r) > 0


def test_featurize_matches_per_row_float_arithmetic():
    bars, _ = synth_generate(SynthSpec(length=60, noise_scale=0.03), seed=12)
    v_mean, v_std = 1.1e6, 2.3e5
    want = [
        (
            b.open / p.close,
            b.high / p.close,
            b.low / p.close,
            (b.volume - v_mean) / v_std,
            b.close - p.close,
            b.close / p.close,
        )
        for p, b in zip(bars, bars[1:])
    ]
    _, feats = featurize(bars, volume_stats=(v_mean, v_std))
    assert np.array_equal(feats, np.array(want))


def test_featurize_rejects_zero_close():
    bars = [bar(0, 1, 1, 1, 1), bar(1, 1, 1, 1, 1), bar(2, 1, 1, 1, 1)]
    bars[1] = PriceBar(bars[1].date, 1.0, 1.0, 0.0, 0.0, 1000.0)
    with pytest.raises(DataError, match=str(bars[1].date)):
        featurize(bars)


# ---------------------------------------------------------------------------
# make_windows / chronological_split
# ---------------------------------------------------------------------------


def test_window_count_formula():
    dates, feats = featurize(constant_bars(756))  # 755 feature rows
    assert len(make_windows(dates, feats, 10, 10)) == 736


def test_window_count_boundary():
    dates, feats = featurize(constant_bars(20))  # 19 rows < T + T'
    assert make_windows(dates, feats, 10, 10) == []


def test_window_targets_follow_anchor():
    bars = [bar(i, 100 + i, 100 + i, 100 + i, 100 + i) for i in range(12)]
    dates, feats = featurize(bars)
    pairs = make_windows(dates, feats, 3, 2)
    first = pairs[0]
    assert first.anchor_index == 2
    assert first.anchor_date == dates[2]
    assert first.y[0] == feats[3, R_INDEX]
    assert first.y[1] == feats[4, R_INDEX]
    assert np.array_equal(first.x[-1], feats[2])


def test_stack_windows_layout():
    bars, _ = synth_generate(SynthSpec(length=40), seed=5)
    pairs = make_windows(*featurize(bars), 6, 4)
    x, y = stack_windows(pairs)
    assert x.shape == (len(pairs), FEATURE_DIM, 6) and y.shape == (len(pairs), 4)
    for i, p in enumerate(pairs):
        assert np.array_equal(x[i], p.x.T) and np.array_equal(y[i], p.y)


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


@settings(deadline=None, max_examples=40)
@given(n=st.integers(10, 5000))
def test_split_sizes_sum_and_stay_near_ratio(n):
    tr, va, te = split_sizes(n)
    assert tr + va + te == n
    assert abs(tr - 0.7 * n) < 1.0
    assert abs(te - 0.2 * n) < 1.0
    assert abs(va - 0.1 * n) < 2.0


def test_windows_tile_with_stride_t_out():
    bars, _ = synth_generate(SynthSpec(length=100), seed=2)
    dates, feats = featurize(bars)
    t_in, t_out = 5, 4
    pairs = make_windows(dates, feats, t_in, t_out)[::t_out]
    tiled = np.concatenate([p.y for p in pairs])
    r_seq = feats[:, R_INDEX]
    start = t_in  # first target index
    assert np.array_equal(tiled, r_seq[start : start + len(tiled)])


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synth_noiseless_constant_drift():
    spec = SynthSpec(process="ar1", noise_scale=0.0, ar_coeff=0.0, drift=0.001, length=50)
    bars, r_true = synth_generate(spec, seed=0)
    assert np.all(r_true == 1.001)
    realized = np.array([b2.close / b1.close for b1, b2 in zip(bars, bars[1:])])
    assert np.allclose(realized, 1.001, atol=1e-12)


def test_synth_same_seed_is_identical():
    spec = SynthSpec(length=60)
    a_bars, a_truth = synth_generate(spec, seed=42)
    b_bars, b_truth = synth_generate(spec, seed=42)
    assert a_bars == b_bars
    assert np.array_equal(a_truth, b_truth)


def test_synth_return_variance_tracks_noise_scale():
    spec = SynthSpec(process="random_walk", noise_scale=0.02, drift=0.0, length=10_001)
    bars, _ = synth_generate(spec, seed=3)
    r = np.array([b2.close / b1.close for b1, b2 in zip(bars, bars[1:])])
    assert abs(r.var() - 0.02**2) < 0.05 * 0.02**2


def test_synth_rejects_bad_config():
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(noise_scale=-0.1), seed=0)
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(process="brownian"), seed=0)


def test_synth_bars_satisfy_ohlc_invariants():
    bars, _ = synth_generate(SynthSpec(length=300, noise_scale=0.03), seed=8)
    for b in bars:
        b.validate()
    dates = [b.date for b in bars]
    assert dates == sorted(dates)
    assert all(d.weekday() < 5 for d in dates)


def test_synth_sinusoid_truth_matches_signal():
    spec = SynthSpec(process="sinusoid", amplitude=0.02, period=40.0, noise_scale=0.0, length=90)
    bars, r_true = synth_generate(spec, seed=1)
    t = np.arange(1, 90)
    want = 1.0 + 0.02 * np.sin(2.0 * np.pi * t / 40.0)
    assert np.allclose(r_true, want, atol=1e-15)
    realized = np.array([b2.close / b1.close for b1, b2 in zip(bars, bars[1:])])
    assert np.allclose(realized, want, atol=1e-12)


def test_truth_sidecar_roundtrip(tmp_path):
    bars, r_true = synth_generate(SynthSpec(length=40), seed=6)
    f = tmp_path / "syn.truth.csv"
    write_truth(f, bars, r_true)
    dates, values = load_truth(f)
    assert dates == [b.date for b in bars[1:]]
    assert np.allclose(values, r_true, atol=1e-12)


# ---------------------------------------------------------------------------
# pipeline invariants
# ---------------------------------------------------------------------------


def test_close_reconstructs_from_returns():
    bars, _ = synth_generate(SynthSpec(length=200, noise_scale=0.02), seed=4)
    r = featurize(bars)[1][:, R_INDEX]
    recon = bars[0].close * np.cumprod(r)
    closes = np.array([b.close for b in bars[1:]])
    assert np.max(np.abs(recon - closes) / closes) < 1e-12


def test_build_dataset_volume_stats_exclude_test_region():
    bars, _ = synth_generate(SynthSpec(length=120), seed=10)
    t_in, t_out = 5, 3
    mean, std = train_volume_stats(bars, t_in, t_out)
    split = build_dataset(bars, t_in, t_out)
    n_train = len(split.train)
    train_vols = np.array([b.volume for b in bars[1 : 1 + n_train + t_in - 1]])
    assert mean == pytest.approx(train_vols.mean())
    assert std == pytest.approx(train_vols.std())
    # z-scoring with these stats centers exactly the train-visible rows
    zs = (train_vols - mean) / std
    assert zs.mean() == pytest.approx(0.0, abs=1e-12)


def test_build_dataset_deterministic():
    bars, _ = synth_generate(SynthSpec(length=150), seed=11)
    a = build_dataset(bars, 6, 4)
    b = build_dataset(bars, 6, 4)
    assert a.counts() == b.counts()
    for pa, pb in zip(a.train + a.validation + a.test, b.train + b.validation + b.test):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.y, pb.y)
