"""OHLCV ingestion, feature construction, windowing, splits, synthetic data.

Features per trading day t (all relative to the previous close c_{t-1}):
open/high/low ratios, z-scored volume, absolute close change, and the gross
return r_t = c_t / c_{t-1}. A window pairs T consecutive feature rows with
the following T_out returns.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, ParseError

__all__ = [
    "FEATURE_DIM",
    "R_INDEX",
    "SPLIT_RATIO",
    "PriceBar",
    "WindowPair",
    "DatasetSplit",
    "SynthSpec",
    "load_ohlcv",
    "load_tickers",
    "write_ohlcv",
    "featurize",
    "make_windows",
    "stack_windows",
    "chronological_split",
    "split_sizes",
    "train_volume_stats",
    "build_dataset",
    "synth_generate",
    "write_truth",
    "load_truth",
]

OHLCV_HEADER = ["date", "open", "high", "low", "close", "volume"]
TRUTH_HEADER = ["date", "r_true"]
FEATURE_DIM = 6
R_INDEX = 5  # column of the gross return r in the features [o, h, l, v, delta, r]
SPLIT_RATIO = (7, 1, 2)  # train : validation : test windows


@dataclass(frozen=True)
class PriceBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> "PriceBar":
        if min(self.open, self.high, self.low, self.close) <= 0.0:
            raise DataError(f"{self.date}: prices must be positive")
        if self.volume < 0.0:
            raise DataError(f"{self.date}: volume must be >= 0")
        if self.low > min(self.open, self.close):
            raise DataError(f"{self.date}: low exceeds open/close")
        if self.high < max(self.open, self.close):
            raise DataError(f"{self.date}: high below open/close")
        return self


@dataclass(frozen=True)
class WindowPair:
    """T input rows ending at the anchor date, targets for the next T_out days."""

    x: np.ndarray  # (T, 6)
    y: np.ndarray  # (T_out,)
    anchor_date: dt.date
    anchor_index: int  # row of the anchor within the feature array


@dataclass(frozen=True)
class DatasetSplit:
    train: list[WindowPair]
    validation: list[WindowPair]
    test: list[WindowPair]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def load_ohlcv(path, ticker: str | None = None) -> list[PriceBar]:
    """Read one price history; ``path`` may be the CSV itself or a directory
    holding ``<TICKER>.csv``."""
    p = Path(path)
    if p.is_dir():
        if ticker is None:
            raise ContractError("a ticker is required when path is a directory")
        p = p / f"{ticker}.csv"
    if not p.exists():
        raise DataError(f"no such price file: {p}")
    try:
        return _read_ohlcv(p)
    except UnicodeDecodeError:
        raise not_utf8(p) from None


def not_utf8(path: Path) -> ParseError:
    """The error for a text file holding bytes that are not UTF-8: it names
    the file and the line of the first such byte."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
        start = len(raw)
    except UnicodeDecodeError as err:
        start = err.start
    return ParseError(f"{path} is not UTF-8 text", line=raw.count(b"\n", 0, start) + 1)


def _read_ohlcv(p: Path) -> list[PriceBar]:
    bars: list[PriceBar] = []
    seen: set[dt.date] = set()
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header", line=1) from None
        if [h.strip().lower() for h in header] != OHLCV_HEADER:
            raise ParseError(
                f"header must be {','.join(OHLCV_HEADER)}, got {','.join(header)}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 6:
                raise ParseError(f"expected 6 fields, got {len(row)}", line=lineno)
            try:
                date = dt.date.fromisoformat(row[0].strip())
                o, h, l, c, v = (float(x) for x in row[1:])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not all(map(math.isfinite, (o, h, l, c, v))):
                raise ParseError("non-finite value", line=lineno)
            if date in seen:
                raise DataError(f"{date}: duplicate date")
            seen.add(date)
            bars.append(PriceBar(date, o, h, l, c, v).validate())
    bars.sort(key=lambda b: b.date)
    return bars


def write_ohlcv(path, bars: list[PriceBar]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(OHLCV_HEADER)
        for b in bars:
            w.writerow(
                [b.date.isoformat()]
                + [f"{x:.10g}" for x in (b.open, b.high, b.low, b.close, b.volume)]
            )


def load_tickers(path) -> list[str]:
    """Newline-separated ticker symbols; blanks and '#' comments skipped."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read tickers file {path}: {err.strerror}") from None
    out = []
    for line in text.splitlines():
        name = line.strip()
        if name and not name.startswith("#"):
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# Features and windows
# ---------------------------------------------------------------------------


def featurize(
    bars: list[PriceBar], volume_stats: tuple[float, float] | None = None
) -> tuple[list[dt.date], np.ndarray]:
    """Drop the first bar (it anchors the normalization) and return the dates
    of the L remaining days with their (L, 6) features [o, h, l, v, delta, r].
    Volume is z-scored with ``volume_stats`` = (mean, std); when omitted, the
    stats of this series' own rows are used."""
    if len(bars) < 2:
        raise ContractError(f"featurize needs >= 2 bars, got {len(bars)}")
    # rows open, high, low, close, volume; contiguous, so that the volume
    # statistics sum exactly as over a freshly built array
    cols = np.array([(b.open, b.high, b.low, b.close, b.volume) for b in bars]).T.copy()
    prev = cols[3, :-1]
    zero = np.flatnonzero(prev == 0.0)
    if zero.size:
        raise DataError(f"{bars[zero[0]].date}: zero close cannot normalize the next day")
    raw_v = cols[4, 1:]
    if volume_stats is None:
        volume_stats = (float(raw_v.mean()), float(raw_v.std()))
    v_mean, v_std = volume_stats
    features = np.empty((len(bars) - 1, FEATURE_DIM))
    features[:, :3] = (cols[:3, 1:] / prev).T
    features[:, 3] = (raw_v - v_mean) / v_std if v_std > 0.0 else 0.0
    features[:, 4] = cols[3, 1:] - prev
    features[:, R_INDEX] = cols[3, 1:] / prev
    return [b.date for b in bars[1:]], features


def make_windows(
    dates: list[dt.date], features: np.ndarray, t_in: int, t_out: int
) -> list[WindowPair]:
    """Sliding (X, y) pairs, one per anchor row: max(0, L - T - T' + 1) of them."""
    if t_in < 1 or t_out < 1:
        raise ContractError(f"window lengths must be >= 1, got ({t_in}, {t_out})")
    r_col = features[:, R_INDEX]
    return [
        WindowPair(
            x=features[anchor - t_in + 1 : anchor + 1].copy(),
            y=r_col[anchor + 1 : anchor + 1 + t_out].copy(),
            anchor_date=dates[anchor],
            anchor_index=anchor,
        )
        for anchor in range(t_in - 1, len(features) - t_out)
    ]


def stack_windows(pairs: list[WindowPair]) -> tuple[np.ndarray, np.ndarray]:
    """Model inputs x (N, 6, t_in), features as channels, and targets y (N, t_out)."""
    x = np.stack([p.x.T for p in pairs])
    y = np.stack([p.y for p in pairs])
    return x, y


def split_sizes(n: int) -> tuple[int, int, int]:
    """Floor the train and test shares of ``SPLIT_RATIO``; validation takes
    the remainder.

    For 736 pairs this yields 515/74/147.
    """
    total = sum(SPLIT_RATIO)
    n_train = math.floor(n * SPLIT_RATIO[0] / total)
    n_test = math.floor(n * SPLIT_RATIO[2] / total)
    return n_train, n - n_train - n_test, n_test


def chronological_split(pairs: list[WindowPair]) -> DatasetSplit:
    """Contiguous prefix/middle/suffix partition in anchor order."""
    if len(pairs) < 10:
        raise ConfigError(f"need at least 10 windows to split, got {len(pairs)}")
    anchors = [p.anchor_index for p in pairs]
    if anchors != sorted(anchors):
        raise ContractError("windows must be sorted by anchor before splitting")
    n_train, n_val, _ = split_sizes(len(pairs))
    return DatasetSplit(
        train=pairs[:n_train],
        validation=pairs[n_train : n_train + n_val],
        test=pairs[n_train + n_val :],
    )


def train_volume_stats(bars: list[PriceBar], t_in: int, t_out: int) -> tuple[float, float]:
    """Volume mean/std over exactly the rows a training window can see.

    Train inputs cover feature rows [0, n_train + t_in - 1); using only these
    keeps validation/test volumes out of the normalization.
    """
    n_rows = len(bars) - 1
    n_windows = max(0, n_rows - t_in - t_out + 1)
    n_train, _, _ = split_sizes(n_windows) if n_windows >= 10 else (n_windows, 0, 0)
    vols = np.array([b.volume for b in bars[1 : 1 + n_train + t_in - 1]])
    if vols.size == 0:
        raise ConfigError("series too short to compute train volume statistics")
    return float(vols.mean()), float(vols.std())


def build_dataset(bars: list[PriceBar], t_in: int, t_out: int) -> DatasetSplit:
    """featurize -> window -> split, with leakage-free volume normalization."""
    stats = train_volume_stats(bars, t_in, t_out)
    dates, features = featurize(bars, volume_stats=stats)
    return chronological_split(make_windows(dates, features, t_in, t_out))


# ---------------------------------------------------------------------------
# Synthetic series with stored ground truth
# ---------------------------------------------------------------------------

PROCESSES = ("sinusoid", "ar1", "random_walk")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic price history with a known return signal.

    The close follows c_t = c_{t-1} * (1 + mu_t + noise_scale * eps_t) where
    mu_t is the deterministic (or one-step-predictable) component stored as
    ground truth r_true_t = 1 + mu_t.
    """

    process: str = "sinusoid"
    length: int = 800
    noise_scale: float = 0.01
    amplitude: float = 0.02
    period: float = 40.0
    phase: float = 0.0
    ar_coeff: float = 0.5
    drift: float = 0.0005
    start_price: float = 100.0
    base_volume: float = 1e6
    volume_noise: float = 0.1
    intraday_scale: float = 0.005
    start_date: dt.date = dt.date(2020, 1, 1)

    def validate(self) -> "SynthSpec":
        if self.process not in PROCESSES:
            raise ConfigError(f"process must be one of {PROCESSES}, got {self.process!r}")
        if self.noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if self.start_price <= 0.0:
            raise ConfigError("start_price must be positive")
        if not -1.0 < self.ar_coeff < 1.0:
            raise ConfigError("ar_coeff must lie in (-1, 1)")
        return self


def _trading_days(start: dt.date, count: int) -> list[dt.date]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def synth_generate(spec: SynthSpec, seed: int) -> tuple[list[PriceBar], np.ndarray]:
    """Generate bars plus the noiseless gross-return series r_true.

    r_true has one entry per bar from the second onward, aligned with the r
    feature of the same date.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    n = spec.length
    dates = _trading_days(spec.start_date, n)

    mu = np.empty(n)  # mu[0] unused; returns start at t=1
    mu[0] = 0.0
    eps = rng.normal(size=n)
    realized = np.empty(n)
    realized[0] = 0.0
    for t in range(1, n):
        if spec.process == "sinusoid":
            mu[t] = spec.amplitude * math.sin(2.0 * math.pi * t / spec.period + spec.phase)
        elif spec.process == "random_walk":
            mu[t] = spec.drift
        else:  # ar1: conditional mean given yesterday's realized return
            prev = realized[t - 1] if t > 1 else spec.drift
            mu[t] = spec.drift + spec.ar_coeff * (prev - spec.drift)
        realized[t] = mu[t] + spec.noise_scale * eps[t]

    closes = np.empty(n)
    closes[0] = spec.start_price
    for t in range(1, n):
        growth = max(1.0 + realized[t], 1e-6)  # guard absurd negative draws
        closes[t] = closes[t - 1] * growth

    jitter = np.abs(rng.normal(size=n)) * spec.intraday_scale
    vol_z = rng.normal(size=n)
    bars = []
    for t in range(n):
        prev_close = closes[t - 1] if t > 0 else closes[0]
        open_ = 0.5 * (prev_close + closes[t])
        hi = max(open_, closes[t]) * (1.0 + jitter[t])
        lo = min(open_, closes[t]) * max(1.0 - jitter[t], 1e-6)
        volume = spec.base_volume * math.exp(spec.volume_noise * vol_z[t])
        bars.append(
            PriceBar(dates[t], open_, hi, lo, closes[t], volume).validate()
        )
    r_true = 1.0 + mu[1:]
    return bars, r_true


def write_truth(path, bars: list[PriceBar], r_true: np.ndarray) -> None:
    """Sidecar with one row per bar from the second onward: date,r_true."""
    if len(r_true) != len(bars) - 1:
        raise ContractError(
            f"r_true length {len(r_true)} != bars - 1 = {len(bars) - 1}"
        )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRUTH_HEADER)
        for bar, r in zip(bars[1:], r_true):
            w.writerow([bar.date.isoformat(), f"{r:.12g}"])


def load_truth(path) -> tuple[list[dt.date], np.ndarray]:
    dates, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != TRUTH_HEADER:
            raise ParseError(f"truth header must be {','.join(TRUTH_HEADER)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                dates.append(dt.date.fromisoformat(row[0].strip()))
                values.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), line=lineno) from None
    return dates, np.array(values)
