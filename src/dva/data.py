"""OHLCV ingestion, feature construction, windowing, splits, synthetic data.

A price history is ``Prices(dates, ohlcv)``: its sorted trading days and
one (L, 5) float64 array whose columns are open, high, low, close, volume.

Features per trading day t (all relative to the previous close c_{t-1}):
open/high/low ratios, z-scored volume, absolute close change, and the gross
return r_t = c_t / c_{t-1}. A window pairs T consecutive feature rows with
the following T_out returns.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open, read_utf8
from .errors import ConfigError, ContractError, DataError, ParseError

__all__ = [
    "FEATURE_DIM",
    "R_INDEX",
    "SPLIT_RATIO",
    "Prices",
    "WindowPair",
    "Windows",
    "DatasetSplit",
    "SynthSpec",
    "price_file",
    "load_ohlcv",
    "load_tickers",
    "write_tickers",
    "write_ohlcv",
    "featurize",
    "make_windows",
    "chronological_split",
    "split_sizes",
    "train_volume_stats",
    "build_dataset",
    "synth_generate",
    "write_truth",
]

OHLCV_HEADER = ["date", "open", "high", "low", "close", "volume"]
TRUTH_HEADER = ["date", "r_true"]
FEATURE_DIM = 6
R_INDEX = 5  # column of the gross return r in the features [o, h, l, v, delta, r]
SPLIT_RATIO = (7, 1, 2)  # train : validation : test windows


class Prices(NamedTuple):
    """Sorted trading days and their (L, 5) open, high, low, close, volume."""

    dates: list[dt.date]
    ohlcv: np.ndarray


@dataclass(frozen=True)
class WindowPair:
    """T input rows ending at the anchor date, targets for the next T_out days."""

    x: np.ndarray  # (T, 6)
    y: np.ndarray  # (T_out,)
    anchor_date: dt.date
    anchor_index: int  # row of the anchor within the feature array


@dataclass(frozen=True)
class Windows:
    """N windows: inputs ``x`` (N, 6, T), features as channels, targets ``y``
    (N, T_out) and anchor dates; item i is window i, anchored at feature row
    ``start + i``, as a ``WindowPair`` of views."""

    x: np.ndarray
    y: np.ndarray
    anchors: list[dt.date]
    start: int

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i) -> WindowPair:
        i = range(len(self))[i]  # IndexError past either end
        return WindowPair(self.x[i].T, self.y[i], self.anchors[i], self.start + i)

    def part(self, lo: int, hi: int) -> "Windows":
        """Windows lo..hi-1."""
        return Windows(self.x[lo:hi], self.y[lo:hi], self.anchors[lo:hi], self.start + lo)


@dataclass(frozen=True)
class DatasetSplit:
    train: Windows
    validation: Windows
    test: Windows

    def counts(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def price_file(path, ticker: str | None = None) -> Path:
    """``path`` itself, or ``<TICKER>.csv`` in it when it is a directory."""
    p = Path(path)
    if p.is_dir():
        if ticker is None:
            raise ContractError("a ticker is required when path is a directory")
        p = p / f"{ticker}.csv"
    return p


def load_ohlcv(path, ticker: str | None = None) -> Prices:
    """Read one price history, sorted by date; ``path`` may be the CSV itself
    or a directory holding ``<TICKER>.csv``. A fault names file and line."""
    p = price_file(path, ticker)
    where = f"price file {p}"
    reader = csv.reader(io.StringIO(read_utf8(p, "price file")))
    header = next(reader, [])
    if [h.strip().lower() for h in header] != OHLCV_HEADER:
        got = ",".join(header) or "nothing"
        raise ParseError(where, 1, f"header must be {','.join(OHLCV_HEADER)}, got {got}")
    dates: list[dt.date] = []
    values: list[float] = []
    lines: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 6:
            raise ParseError(where, lineno, f"expected 6 fields, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
            bar = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise ParseError(where, lineno, str(exc)) from None
        if not all(map(math.isfinite, bar)):
            raise ParseError(where, lineno, "non-finite value")
        dates.append(date)
        values += bar
        lines.append(lineno)
    ohlcv = np.array(values).reshape(-1, 5)
    order = sorted(range(len(dates)), key=dates.__getitem__)
    # the sort keeps rows of one date in file order: all but the first repeat
    repeated = np.zeros(len(dates), dtype=bool)
    repeated[order[1:]] = [dates[i] == dates[j] for i, j in zip(order, order[1:])]
    _check_bars(dates, ohlcv, repeated, where, lines)
    return Prices([dates[i] for i in order], ohlcv[order])


def _check_bars(
    dates: list[dt.date], ohlcv: np.ndarray, repeated: np.ndarray, where=None, lines=()
) -> None:
    """Reject repeated dates and impossible bars: the error names the date
    of the first offending row and its first broken rule, after ``where``
    (the price file) and the row's entry of ``lines`` if given."""
    o, h, l, c, v = ohlcv.T
    rules = [
        (repeated, "duplicate date"),
        (np.minimum(np.minimum(o, h), np.minimum(l, c)) <= 0.0, "prices must be positive"),
        (v < 0.0, "volume must be >= 0"),
        (l > np.minimum(o, c), "low exceeds open/close"),
        (h < np.maximum(o, c), "high below open/close"),
    ]
    faults = [(int(np.argmax(mask)), text) for mask, text in rules if mask.any()]
    if faults:  # the first row at fault; on a tie, the first rule
        k, text = min(faults, key=lambda fault: fault[0])
        at = f"{where}: line {lines[k]}: " if where else ""
        raise DataError(f"{at}{dates[k]}: {text}")


def write_ohlcv(path, prices: Prices) -> None:
    """The CSV ``load_ohlcv`` reads, written whole or not at all; values keep
    10 significant digits. The bytes equal ``csv.writer``'s."""
    dates, ohlcv = prices
    row = "{},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g}\r\n".format
    text = ",".join(OHLCV_HEADER) + "\r\n" + "".join(
        row(d.isoformat(), *bar) for d, bar in zip(dates, ohlcv.tolist())
    )
    with atomic_open(path) as fh:
        fh.write(text.encode())


def load_tickers(path) -> list[str]:
    """Newline-separated ticker symbols; blanks and '#' comments skipped.
    A name becomes a file name under the data and output directories, so it
    must be one path component: no NUL, no path separator, not . or ..; and
    it names one stock, so it appears once. An empty list is refused."""
    names = {}
    for line_no, line in enumerate(read_utf8(path, "tickers file", ConfigError).split("\n"), 1):
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        if "\0" in name or "/" in name or "\\" in name or name in (".", ".."):
            raise ConfigError(
                f"tickers file {path}: line {line_no}: {name!r} is not a single file name"
            )
        if name in names:
            raise ConfigError(
                f"tickers file {path}: line {line_no}: {name!r} repeats line {names[name]}"
            )
        names[name] = line_no
    if not names:
        raise ConfigError(f"tickers file {path} lists no ticker")
    return list(names)


def write_tickers(path, names: list[str]) -> None:
    """One ticker per line, written whole or not at all."""
    with atomic_open(path) as fh:
        fh.write("".join(f"{name}\n" for name in names).encode())


# ---------------------------------------------------------------------------
# Features and windows
# ---------------------------------------------------------------------------


def featurize(
    prices: Prices, volume_stats: tuple[float, float] | None = None
) -> tuple[list[dt.date], np.ndarray]:
    """Drop the first bar (it anchors the normalization) and return the dates
    of the L remaining days with their (L, 6) features [o, h, l, v, delta, r].
    Volume is z-scored with ``volume_stats`` = (mean, std); when omitted, the
    stats of this series' own rows are used."""
    dates, ohlcv = prices
    if len(dates) < 2:
        raise ContractError(f"featurize needs >= 2 bars, got {len(dates)}")
    # rows open, high, low, close, volume; contiguous, so that the volume
    # statistics sum exactly as over a freshly built array
    cols = np.ascontiguousarray(ohlcv.T)
    prev = cols[3, :-1]
    zero = np.flatnonzero(prev == 0.0)
    if zero.size:
        raise DataError(f"{dates[zero[0]]}: zero close cannot normalize the next day")
    raw_v = cols[4, 1:]
    if volume_stats is None:
        volume_stats = (float(raw_v.mean()), float(raw_v.std()))
    v_mean, v_std = volume_stats
    features = np.empty((len(dates) - 1, FEATURE_DIM))
    features[:, :3] = (cols[:3, 1:] / prev).T
    features[:, 3] = (raw_v - v_mean) / v_std if v_std > 0.0 else 0.0
    features[:, 4] = cols[3, 1:] - prev
    features[:, R_INDEX] = cols[3, 1:] / prev
    return dates[1:], features


def make_windows(dates: list[dt.date], features: np.ndarray, t_in: int, t_out: int) -> Windows:
    """Sliding windows, one per anchor row: max(0, L - T - T' + 1) of them.
    Window i takes feature rows i..i+T-1 as input and the returns of the
    T' rows after them as targets."""
    if t_in < 1 or t_out < 1:
        raise ContractError(f"window lengths must be >= 1, got ({t_in}, {t_out})")
    n = max(0, len(features) - t_in - t_out + 1)
    first = np.arange(n)[:, None]  # window i starts at feature row i
    # x keeps each window's rows in time order in memory: the model's sums
    # follow x's strides, and a C-ordered copy moves forecasts in the last bit
    x = features[first + np.arange(t_in)].transpose(0, 2, 1)
    y = features[t_in:, R_INDEX][first + np.arange(t_out)]
    return Windows(x, y, dates[t_in - 1 : t_in - 1 + n], t_in - 1)


def split_sizes(n: int) -> tuple[int, int, int]:
    """Floor the train and test shares of ``SPLIT_RATIO``; validation takes
    the remainder.

    For 736 pairs this yields 515/74/147.
    """
    total = sum(SPLIT_RATIO)
    n_train = math.floor(n * SPLIT_RATIO[0] / total)
    n_test = math.floor(n * SPLIT_RATIO[2] / total)
    return n_train, n - n_train - n_test, n_test


def chronological_split(windows: Windows) -> DatasetSplit:
    """Contiguous prefix/middle/suffix partition in anchor order."""
    if len(windows) < 10:
        raise ConfigError(f"need at least 10 windows to split, got {len(windows)}")
    n_train, n_val, _ = split_sizes(len(windows))
    return DatasetSplit(
        train=windows.part(0, n_train),
        validation=windows.part(n_train, n_train + n_val),
        test=windows.part(n_train + n_val, len(windows)),
    )


def train_volume_stats(
    prices: Prices, t_in: int, t_out: int, source: str = "price history"
) -> tuple[float, float]:
    """Volume mean/std over exactly the rows a training window can see.

    Train inputs cover feature rows [0, n_train + t_in - 1); using only these
    keeps validation/test volumes out of the normalization. A history too
    short to split into 10 windows is a ``DataError`` naming ``source``.
    """
    need = t_in + t_out + 10  # the first bar anchors the features
    if len(prices.dates) < need:
        raise DataError(
            f"{source}: {len(prices.dates)} bars, but t_in={t_in} and t_out={t_out}"
            f" need at least {need} to split into 10 windows"
        )
    n_train, _, _ = split_sizes(len(prices.dates) - t_in - t_out)
    # contiguous, as in featurize
    vols = np.ascontiguousarray(prices.ohlcv[1 : n_train + t_in, 4])
    return float(vols.mean()), float(vols.std())


def build_dataset(
    prices: Prices, t_in: int, t_out: int, source: str = "price history"
) -> DatasetSplit:
    """featurize -> window -> split, with leakage-free volume normalization."""
    stats = train_volume_stats(prices, t_in, t_out, source)
    dates, features = featurize(prices, volume_stats=stats)
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
    """The first ``count`` weekdays from ``start`` on."""
    return np.busday_offset(start, np.arange(count), roll="forward").tolist()


def synth_generate(spec: SynthSpec, seed: int) -> tuple[Prices, np.ndarray]:
    """Generate a price history plus the noiseless gross-return series r_true.

    r_true has one entry per bar from the second onward, aligned with the r
    feature of the same date.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    n = spec.length
    dates = _trading_days(spec.start_date, n)

    mu = np.zeros(n)  # mu[0] unused; returns start at t=1
    eps = rng.normal(size=n)
    realized = np.zeros(n)
    for t in range(1, n):
        if spec.process == "sinusoid":
            mu[t] = spec.amplitude * math.sin(2.0 * math.pi * t / spec.period + spec.phase)
        elif spec.process == "random_walk":
            mu[t] = spec.drift
        else:  # ar1: conditional mean given yesterday's realized return
            prev = realized[t - 1] if t > 1 else spec.drift
            mu[t] = spec.drift + spec.ar_coeff * (prev - spec.drift)
        realized[t] = mu[t] + spec.noise_scale * eps[t]

    growth = np.maximum(1.0 + realized[1:], 1e-6)  # guard absurd negative draws
    closes = np.cumprod(np.concatenate([[spec.start_price], growth]))

    jitter = np.abs(rng.normal(size=n)) * spec.intraday_scale
    vol_z = rng.normal(size=n)
    ohlcv = np.empty((n, 5))
    ohlcv[:, 0] = 0.5 * (np.concatenate([closes[:1], closes[:-1]]) + closes)
    ohlcv[:, 1] = np.maximum(ohlcv[:, 0], closes) * (1.0 + jitter)
    ohlcv[:, 2] = np.minimum(ohlcv[:, 0], closes) * np.maximum(1.0 - jitter, 1e-6)
    ohlcv[:, 3] = closes
    # libm's exp, which numpy's vectorised exp may differ from in the last bit
    ohlcv[:, 4] = [spec.base_volume * math.exp(spec.volume_noise * z) for z in vol_z.tolist()]
    _check_bars(dates, ohlcv, np.zeros(n, dtype=bool))
    r_true = 1.0 + mu[1:]
    return Prices(dates, ohlcv), r_true


def write_truth(path, prices: Prices, r_true: np.ndarray) -> None:
    """Sidecar with one row per bar from the second onward: date,r_true;
    written whole or not at all."""
    dates = prices.dates
    if len(r_true) != len(dates) - 1:
        raise ContractError(
            f"r_true length {len(r_true)} != bars - 1 = {len(dates) - 1}"
        )
    text = ",".join(TRUTH_HEADER) + "\r\n" + "".join(
        f"{d.isoformat()},{r:.12g}\r\n" for d, r in zip(dates[1:], r_true.tolist())
    )
    with atomic_open(path) as fh:
        fh.write(text.encode())
