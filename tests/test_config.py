"""Run-config and synth-spec JSON loading: strictness and round trips."""

import dataclasses
import datetime as dt
import json

import pytest

from dva.config import (
    RUN_CONFIG_SCHEMA_VERSION,
    PortfolioOptions,
    RunConfig,
    load_run_config,
    load_synth_spec,
)
from dva.errors import ConfigError
from dva.portfolio import DEFAULT_GAMMA_GRID
from dva.training import TrainConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return path


def minimal(**extra):
    base = {"schema_version": 1, "data_dir": "data", "tickers_file": "data/tickers.txt"}
    base.update(extra)
    return base


class TestLoadRunConfig:
    def test_minimal_defaults(self, tmp_path):
        rc = load_run_config(write_json(tmp_path / "c.json", minimal()))
        assert rc.data_dir == "data"
        assert rc.tickers_file == "data/tickers.txt"
        assert rc.out_dir is None
        assert rc.runs == 5
        assert rc.train == TrainConfig()
        assert rc.portfolio == PortfolioOptions()
        assert rc.portfolio.gamma_grid == DEFAULT_GAMMA_GRID

    def test_flattened_train_fields(self, tmp_path):
        rc = load_run_config(
            write_json(
                tmp_path / "c.json",
                minimal(zeta=0.7, epochs=3, denoiser=False, seed=42, lr=1e-3),
            )
        )
        assert rc.train.zeta == 0.7
        assert rc.train.epochs == 3
        assert rc.train.denoiser is False
        assert rc.train.seed == 42
        assert rc.train.lr == 1e-3

    def test_portfolio_options(self, tmp_path):
        rc = load_run_config(
            write_json(
                tmp_path / "c.json",
                minimal(
                    portfolio={
                        "regularize": False,
                        "lambda": 0.3,
                        "gamma_risk": 2.0,
                        "gamma_grid": [1, 2.5],
                    }
                ),
            )
        )
        assert rc.portfolio.regularize is False
        assert rc.portfolio.lam == 0.3
        assert rc.portfolio.effective_lambda() is None  # regularization off
        assert rc.portfolio.gamma_risk == 2.0
        assert rc.portfolio.gamma_grid == (1.0, 2.5)

    def test_effective_lambda_on(self):
        assert PortfolioOptions(regularize=True, lam=0.2).effective_lambda() == 0.2

    @pytest.mark.parametrize(
        "payload,needle",
        [
            ({"data_dir": "d", "tickers_file": "t"}, "schema_version"),
            (minimal(schema_version=99), "schema_version"),
            ({"schema_version": 1, "tickers_file": "t"}, "data_dir"),
            ({"schema_version": 1, "data_dir": "d"}, "tickers_file"),
            (minimal(zeta_typo=1.0), "zeta_typo"),
            (minimal(portfolio={"lam": 0.1}), "lam"),
            (minimal(epochs="five"), "epochs"),
            (minimal(epochs=True), "epochs"),
            (minimal(epochs=2.0), "epochs"),
            (minimal(denoiser=1), "denoiser"),
            (minimal(data_dir=7), "data_dir"),
            (minimal(runs=0), "runs"),
            (minimal(portfolio={"lambda": -0.1}), "lambda"),
            (minimal(portfolio={"gamma_risk": 0.0}), "gamma_risk"),
            (minimal(portfolio={"gamma_grid": []}), "gamma_grid"),
            (minimal(portfolio={"gamma_grid": [1.0, -2.0]}), "gamma_grid"),
            (minimal(portfolio=[1, 2]), "portfolio"),
            (minimal(out_dir=3), "out_dir"),
            (minimal(zeta=-0.5), "zeta"),
            (minimal(epochs=0), "epochs must be >= 1, got 0"),
            (minimal(lr=float("nan")), "field lr must be finite, got nan"),
            (minimal(zeta=float("inf")), "field zeta must be finite, got inf"),
            (minimal(portfolio={"lambda": float("nan")}), "portfolio.lambda must be finite"),
            (
                minimal(portfolio={"gamma_grid": [1.0, float("-inf")]}),
                r"gamma_grid\[1\] must be finite",
            ),
            (minimal(s_out=10**400), "field s_out must be finite, got inf"),
        ],
    )
    def test_rejections_name_the_field(self, tmp_path, payload, needle):
        # every fault reads "run config <path>: ...", its text after the prefix
        path = write_json(tmp_path / "c.json", payload)
        with pytest.raises(ConfigError, match=needle) as err:
            load_run_config(path)
        assert str(err.value).startswith(f"run config {path}: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read: No such file or directory"):
            load_run_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="object"):
            load_run_config(path)

    def test_as_dict_round_trip(self, tmp_path):
        rc = load_run_config(
            write_json(
                tmp_path / "a.json",
                minimal(
                    runs=2,
                    out_dir="somewhere",
                    zeta=0.9,
                    portfolio={"gamma_risk": 1.5},
                ),
            )
        )
        again = load_run_config(write_json(tmp_path / "b.json", rc.as_dict()))
        assert again == rc
        assert again.hash() == rc.hash()

    def test_as_dict_is_flat_superset_of_train(self, tmp_path):
        rc = load_run_config(write_json(tmp_path / "c.json", minimal()))
        d = rc.as_dict()
        assert d["schema_version"] == RUN_CONFIG_SCHEMA_VERSION
        for f in dataclasses.fields(TrainConfig):
            assert f.name in d

    def test_hash_ignores_key_order(self, tmp_path):
        a = minimal(zeta=0.7, runs=2)
        b = dict(reversed(list(a.items())))
        ha = load_run_config(write_json(tmp_path / "a.json", a)).hash()
        hb = load_run_config(write_json(tmp_path / "b.json", b)).hash()
        assert ha == hb

    def test_hash_is_pinned(self):
        # metrics.json, report.json and portfolio.json record this hash
        assert RunConfig(data_dir="d", tickers_file="t").hash() == "d015db32b677483d"

    def test_hash_sensitive_to_values(self, tmp_path):
        ha = load_run_config(write_json(tmp_path / "a.json", minimal())).hash()
        hb = load_run_config(
            write_json(tmp_path / "b.json", minimal(runs=3))
        ).hash()
        assert ha != hb

    def test_train_validation_still_applies(self, tmp_path):
        path = write_json(tmp_path / "c.json", minimal(n_steps=0))
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestLoadSynthSpec:
    def good(self):
        return {
            "schema_version": 1,
            "seed": 7,
            "tickers": {
                "BBB": {"length": 120, "amplitude": 0.4, "start_date": "2021-03-01"},
                "AAA": {"process": "ar1"},
            },
        }

    def test_happy_path_sorted(self, tmp_path):
        u = load_synth_spec(write_json(tmp_path / "s.json", self.good()))
        assert u.seed == 7
        assert [name for name, _ in u.tickers] == ["AAA", "BBB"]
        specs = dict(u.tickers)
        assert specs["BBB"].length == 120
        assert specs["BBB"].amplitude == 0.4
        assert specs["BBB"].start_date == dt.date(2021, 3, 1)
        assert specs["AAA"].process == "ar1"
        assert specs["AAA"].length == 800  # default applies

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda p: p.pop("seed"), "seed"),
            (lambda p: p.pop("tickers"), "tickers"),
            (lambda p: p.pop("schema_version"), "schema_version"),
            (lambda p: p.update(tickers={}), "tickers"),
            (lambda p: p.update(tickers={"AAA": []}), "object"),
            (lambda p: p.update(extra=1), "extra"),
            (lambda p: p["tickers"].update(AAA={"amplitud": 2}), "amplitud"),
            (lambda p: p["tickers"].update(AAA={"start_date": "03/01/2021"}), "start_date"),
            (lambda p: p["tickers"].update(AAA={"start_date": 20210301}), "start_date"),
            (lambda p: p["tickers"].update({"A B": {}}), "A B"),
            (lambda p: p["tickers"].update(AAA={"length": 1}), "length"),
            (lambda p: p["tickers"].update(AAA={"noise_scale": -1.0}), "noise_scale"),
            (lambda p: p.update(seed=-1), "seed"),
            (lambda p: p.update(seed="x"), "seed"),
            (
                lambda p: p["tickers"].update(AAA={"length": "long"}),
                "ticker AAA: field length must be an integer, got 'long'",
            ),
            (
                lambda p: p["tickers"].update(AAA={"noise_scale": float("nan")}),
                "ticker AAA: field noise_scale must be finite, got nan",
            ),
            (lambda p: p["tickers"].update(BBB={"length": 1}), "ticker BBB: length must be >= 2"),
        ],
    )
    def test_rejections(self, tmp_path, mutate, needle):
        payload = self.good()
        mutate(payload)
        path = write_json(tmp_path / "s.json", payload)
        with pytest.raises(ConfigError, match=needle) as err:
            load_synth_spec(path)
        assert str(err.value).startswith(f"synth spec {path}: ")

    def test_underscore_names_allowed(self, tmp_path):
        payload = self.good()
        payload["tickers"]["C_1"] = {}
        u = load_synth_spec(write_json(tmp_path / "s.json", payload))
        assert [name for name, _ in u.tickers] == ["AAA", "BBB", "C_1"]
