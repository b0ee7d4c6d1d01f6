"""JSON run configuration binding data, training, and portfolio settings.

One file drives the whole pipeline. The top level is a flat superset of the
training configuration (every training field may appear by name) plus data
locations, the output directory, the run count, and a nested ``portfolio``
object. Unknown keys anywhere are errors: a silently ignored typo is the
easiest way to believe you ran an experiment you did not run.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import math
from dataclasses import dataclass, field

from .atomic import read_utf8
from .data import SynthSpec
from .errors import ConfigError
from .model import config_hash
from .portfolio import DEFAULT_GAMMA_GRID
from .training import TrainConfig

__all__ = [
    "RUN_CONFIG_SCHEMA_VERSION",
    "SYNTH_SCHEMA_VERSION",
    "PortfolioOptions",
    "RunConfig",
    "SynthUniverse",
    "load_run_config",
    "load_synth_spec",
]

RUN_CONFIG_SCHEMA_VERSION = 1
SYNTH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PortfolioOptions:
    """Backtest settings: penalty, risk aversion (fixed or tuned on a grid)."""

    regularize: bool = True
    lam: float = 0.1
    gamma_risk: float | None = None  # None: tune on the validation grid
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID

    def validate(self) -> "PortfolioOptions":
        if self.lam < 0:
            raise ConfigError(f"portfolio.lambda must be >= 0, got {self.lam}")
        if self.gamma_risk is not None and self.gamma_risk <= 0:
            raise ConfigError(
                f"portfolio.gamma_risk must be > 0, got {self.gamma_risk}"
            )
        if not self.gamma_grid:
            raise ConfigError("portfolio.gamma_grid must not be empty")
        if any(g <= 0 for g in self.gamma_grid):
            raise ConfigError(
                f"portfolio.gamma_grid entries must be > 0, got {list(self.gamma_grid)}"
            )
        return self

    def effective_lambda(self) -> float | None:
        return self.lam if self.regularize else None


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation depends on besides CLI flags."""

    data_dir: str
    tickers_file: str
    out_dir: str | None = None
    runs: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    portfolio: PortfolioOptions = field(default_factory=PortfolioOptions)

    def validate(self) -> "RunConfig":
        if not self.data_dir:
            raise ConfigError("data_dir must be a non-empty path")
        if not self.tickers_file:
            raise ConfigError("tickers_file must be a non-empty path")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        self.train.validate()
        self.portfolio.validate()
        return self

    def as_dict(self) -> dict:
        """The canonical JSON form: training fields flattened to the top."""
        out = {
            "schema_version": RUN_CONFIG_SCHEMA_VERSION,
            "data_dir": self.data_dir,
            "tickers_file": self.tickers_file,
            "out_dir": self.out_dir,
            "runs": self.runs,
            "portfolio": {
                "regularize": self.portfolio.regularize,
                "lambda": self.portfolio.lam,
                "gamma_risk": self.portfolio.gamma_risk,
                "gamma_grid": list(self.portfolio.gamma_grid),
            },
        }
        out.update(dataclasses.asdict(self.train))
        return out

    def hash(self) -> str:
        return config_hash(self.as_dict())


_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
_PORTFOLIO_KEYS = ("regularize", "lambda", "gamma_risk", "gamma_grid")
_RUN_KEYS = ("schema_version", "data_dir", "tickers_file", "out_dir", "runs", "portfolio")


def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}: missing field: {key}")
    return raw[key]


def _check_schema_version(raw: dict, expected: int, where: str) -> None:
    version = _require(raw, "schema_version", where)
    if version != expected:
        raise ConfigError(
            f"{where}: schema_version {version!r} unsupported, expected {expected}"
        )


def _typed(value, want: type, key: str, where: str):
    """JSON-to-field coercion; bool is not an int here, and a number must be
    finite (Python's json reads NaN and Infinity)."""
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: field {key} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer literal past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{where}: field {key} must be finite, got {number!r}")
        return number
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: field {key} must be an integer, got {value!r}")
        return value
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: field {key} must be true or false, got {value!r}")
        return value
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: field {key} must be a string, got {value!r}")
        return value
    raise ConfigError(f"{where}: field {key} has unsupported type {want}")  # pragma: no cover


def _validated(config, where: str):
    """``config.validate()``, with a fault prefixed by the file it came from."""
    try:
        return config.validate()
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


def _load_json_object(path, kind: str) -> dict:
    where = f"{kind} {path}"
    try:
        raw = json.loads(read_utf8(path, kind, ConfigError))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{where}: invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    return raw


def _annotation_type(f: dataclasses.Field) -> type:
    # every module has postponed annotations, so f.type is the annotation's text
    return {"int": int, "float": float, "bool": bool, "str": str}.get(f.type, str)


_FIELD_TYPES = {name: _annotation_type(f) for name, f in _TRAIN_FIELDS.items()}


def _train_config_from(raw: dict, where: str) -> TrainConfig:
    kwargs = {key: _typed(value, _FIELD_TYPES[key], key, where) for key, value in raw.items()}
    try:
        return TrainConfig(**kwargs)
    except TypeError as err:  # pragma: no cover - guarded by key filtering
        raise ConfigError(f"{where}: {err}") from None


def load_run_config(path) -> RunConfig:
    where = f"run config {path}"
    raw = _load_json_object(path, "run config")
    _check_schema_version(raw, RUN_CONFIG_SCHEMA_VERSION, where)

    unknown = sorted(set(raw) - set(_RUN_KEYS) - set(_TRAIN_FIELDS))
    if unknown:
        raise ConfigError(f"{where}: unknown config keys: {unknown}")

    data_dir = _typed(_require(raw, "data_dir", where), str, "data_dir", where)
    tickers_file = _typed(_require(raw, "tickers_file", where), str, "tickers_file", where)
    out_dir = raw.get("out_dir")
    if out_dir is not None:
        out_dir = _typed(out_dir, str, "out_dir", where)
    runs = _typed(raw.get("runs", 5), int, "runs", where)

    train = _train_config_from(
        {k: v for k, v in raw.items() if k in _TRAIN_FIELDS}, where
    )

    praw = raw.get("portfolio", {})
    if not isinstance(praw, dict):
        raise ConfigError(f"{where}: portfolio must be an object")
    punknown = sorted(set(praw) - set(_PORTFOLIO_KEYS))
    if punknown:
        raise ConfigError(f"{where}: unknown portfolio keys: {punknown}")
    gamma_risk = praw.get("gamma_risk")
    if gamma_risk is not None:
        gamma_risk = _typed(gamma_risk, float, "portfolio.gamma_risk", where)
    grid = praw.get("gamma_grid", list(DEFAULT_GAMMA_GRID))
    if not isinstance(grid, list):
        raise ConfigError(f"{where}: portfolio.gamma_grid must be a list")
    portfolio = PortfolioOptions(
        regularize=_typed(praw.get("regularize", True), bool, "portfolio.regularize", where),
        lam=_typed(praw.get("lambda", 0.1), float, "portfolio.lambda", where),
        gamma_risk=gamma_risk,
        gamma_grid=tuple(
            _typed(g, float, f"portfolio.gamma_grid[{i}]", where) for i, g in enumerate(grid)
        ),
    )
    config = RunConfig(
        data_dir=data_dir,
        tickers_file=tickers_file,
        out_dir=out_dir,
        runs=runs,
        train=train,
        portfolio=portfolio,
    )
    return _validated(config, where)


# ---------------------------------------------------------------------------
# Synthetic-universe spec files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthUniverse:
    """A set of named synthetic price histories sharing one base seed.

    Ticker k (in sorted name order) is generated with ``seed + k`` so the
    universe is reproducible as a whole while the series stay independent.
    """

    seed: int
    tickers: tuple[tuple[str, SynthSpec], ...]  # sorted by ticker name

    def validate(self) -> "SynthUniverse":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.tickers:
            raise ConfigError("tickers must not be empty")
        for name, spec in self.tickers:
            if not name or not all(c.isalnum() or c == "_" for c in name):
                raise ConfigError(
                    f"ticker name {name!r} must be alphanumeric/underscore"
                )
            try:
                spec.validate()
            except ConfigError as err:
                raise ConfigError(f"ticker {name}: {err}") from None
        return self


_SYNTH_FIELDS = {f.name: f for f in dataclasses.fields(SynthSpec)}
_SYNTH_TYPES = {name: _annotation_type(f) for name, f in _SYNTH_FIELDS.items()}


def _synth_spec_from(raw: dict, where: str) -> SynthSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: ticker spec must be an object")
    unknown = sorted(set(raw) - set(_SYNTH_FIELDS))
    if unknown:
        raise ConfigError(f"{where}: unknown spec keys: {unknown}")
    kwargs = {}
    for key, value in raw.items():
        if key == "start_date":
            if not isinstance(value, str):
                raise ConfigError(f"{where}: start_date must be an ISO date string")
            try:
                kwargs[key] = dt.date.fromisoformat(value)
            except ValueError as err:
                raise ConfigError(f"{where}: start_date: {err}") from None
        else:
            kwargs[key] = _typed(value, _SYNTH_TYPES[key], key, where)
    return SynthSpec(**kwargs)


def load_synth_spec(path) -> SynthUniverse:
    where = f"synth spec {path}"
    raw = _load_json_object(path, "synth spec")
    _check_schema_version(raw, SYNTH_SCHEMA_VERSION, where)
    unknown = sorted(set(raw) - {"schema_version", "seed", "tickers"})
    if unknown:
        raise ConfigError(f"{where}: unknown config keys: {unknown}")
    seed = _typed(_require(raw, "seed", where), int, "seed", where)
    tickers_raw = _require(raw, "tickers", where)
    if not isinstance(tickers_raw, dict) or not tickers_raw:
        raise ConfigError(f"{where}: tickers must be a non-empty object")
    tickers = tuple(
        (name, _synth_spec_from(tickers_raw[name], f"{where}: ticker {name}"))
        for name in sorted(tickers_raw)
    )
    return _validated(SynthUniverse(seed=seed, tickers=tickers), where)
