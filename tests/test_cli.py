"""End-to-end command-line pipeline: artifacts, determinism, error JSON."""

import csv
import dataclasses
import json
import shutil
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dva.atomic
import dva.cli
from dva.cli import DEFAULT_WEIGHT_GRID, _persistence_report, main
from dva.config import load_run_config
from dva.data import R_INDEX, build_dataset, load_ohlcv
from dva.evaluation import load_predictions

LENGTH = 160


def synth_payload(seed=11):
    base = {
        "process": "sinusoid",
        "length": LENGTH,
        "noise_scale": 0.01,
        "amplitude": 0.05,
        "period": 8.0,
        "start_price": 1.0,
        "volume_noise": 0.0,
        "intraday_scale": 0.0,
    }
    return {
        "schema_version": 1,
        "seed": seed,
        "tickers": {"AAA": dict(base), "BBB": dict(base, phase=2.0)},
    }


def run_payload(data_dir, out_dir, **extra):
    payload = {
        "schema_version": 1,
        "data_dir": str(data_dir),
        "tickers_file": str(data_dir / "tickers.txt"),
        "out_dir": str(out_dir),
        "runs": 2,
        "t_in": 8,
        "t_out": 4,
        "epochs": 1,
        "batch_size": 8,
        "channels": 4,
        "latent": 2,
        "se_reduction": 2,
        "energy_hidden": 6,
        "portfolio": {"lambda": 0.05, "gamma_grid": [0.5, 2.0]},
    }
    payload.update(extra)
    return payload


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data, out = root / "data", root / "out"
    spec = write_json(root / "synth.json", synth_payload())
    cfg = write_json(root / "run.json", run_payload(data, out))

    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["predict", "--config", str(cfg), "--force"]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["portfolio", "--config", str(cfg)]) == 0
    assert (
        main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--zeta-grid",
                "0.5",
                "--eta-grid",
                "1.0",
            ]
        )
        == 0
    )
    return SimpleNamespace(root=root, data=data, out=out, cfg=cfg, spec=spec)


def read_stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def unclosed_npy_header(raw: bytes) -> bytes:
    """The archive with its first .npy header's closing brace blanked."""
    end = raw.index(b"}", raw.index(b"\x93NUMPY"))
    return raw[:end] + b" " + raw[end + 1 :]


def encrypted_first_member(raw: bytes) -> bytes:
    """The archive with the encryption bit set in the general-purpose flags
    of its first central directory entry (signature PK\\1\\2, flags at +8)."""
    flags = raw.index(b"PK\x01\x02") + 8
    return raw[:flags] + bytes([raw[flags] | 1]) + raw[flags + 1 :]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class TestSynth:
    def test_row_counts(self, pipeline):
        lines = (pipeline.data / "AAA.csv").read_text().splitlines()
        assert len(lines) == LENGTH + 1  # header + one row per day
        truth = (pipeline.data / "AAA.truth.csv").read_text().splitlines()
        assert len(truth) == LENGTH  # header + length-1 returns
        assert (pipeline.data / "tickers.txt").read_text() == "AAA\nBBB\n"

    def test_deterministic(self, pipeline, tmp_path):
        for sub in ("x", "y"):
            assert (
                main(
                    ["synth", "--spec", str(pipeline.spec), "--out", str(tmp_path / sub)]
                )
                == 0
            )
        for name in ("AAA.csv", "AAA.truth.csv", "BBB.csv", "tickers.txt"):
            assert (tmp_path / "x" / name).read_bytes() == (
                tmp_path / "y" / name
            ).read_bytes()

    def test_seed_override_changes_data(self, pipeline, tmp_path):
        assert (
            main(
                [
                    "synth",
                    "--spec",
                    str(pipeline.spec),
                    "--out",
                    str(tmp_path / "z"),
                    "--seed",
                    "99",
                ]
            )
            == 0
        )
        assert (tmp_path / "z" / "AAA.csv").read_bytes() != (
            pipeline.data / "AAA.csv"
        ).read_bytes()

    def test_refuses_overwrite_then_force(self, pipeline, capsys):
        assert main(["synth", "--spec", str(pipeline.spec), "--out", str(pipeline.data)]) == 2
        payload = read_stderr_json(capsys)
        assert payload["error"] == "ConfigError"
        assert "--force" in payload["message"]
        assert (
            main(
                [
                    "synth",
                    "--spec",
                    str(pipeline.spec),
                    "--out",
                    str(pipeline.data),
                    "--force",
                ]
            )
            == 0
        )

    def test_missing_spec_field_named(self, tmp_path, capsys):
        payload = synth_payload()
        del payload["seed"]
        spec = write_json(tmp_path / "s.json", payload)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "seed" in read_stderr_json(capsys)["message"]


# ---------------------------------------------------------------------------
# ingest-check
# ---------------------------------------------------------------------------


class TestIngestCheck:
    def test_reports_shapes(self, pipeline, capsys):
        assert main(["ingest-check", "--config", str(pipeline.cfg)]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["ok"] is True
        info = out["tickers"]["AAA"]
        assert info["rows"] == LENGTH
        split = info["split"]
        assert split["train"] + split["val"] + split["test"] == info["windows"]

    def test_missing_data_dir(self, pipeline, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", run_payload(tmp_path / "nodata", tmp_path / "o")
        )
        (tmp_path / "nodata").mkdir()
        (tmp_path / "nodata" / "tickers.txt").write_text("AAA\n")
        assert main(["ingest-check", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys)["error"] == "DataError"

    def test_repeated_ticker_exits_2(self, pipeline, tmp_path, capsys):
        # a repeated name was once folded into the report's dict silently
        tickers = tmp_path / "tickers.txt"
        tickers.write_text("AAA\nBBB\nAAA\n")
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(pipeline.data, tmp_path / "o", tickers_file=str(tickers)),
        )
        assert main(["ingest-check", "--config", str(cfg)]) == 2
        assert read_stderr_json(capsys) == {
            "error": "ConfigError",
            "message": f"tickers file {tickers}: line 3: 'AAA' repeats line 1",
        }


# ---------------------------------------------------------------------------
# train / predict
# ---------------------------------------------------------------------------


class TestTrain:
    def test_metrics_contents(self, pipeline):
        metrics = json.loads((pipeline.out / "metrics.json").read_text())
        assert metrics["partial"] is False
        assert sorted(metrics["per_stock"]) == ["AAA", "BBB"]
        for entry in metrics["per_stock"].values():
            assert len(entry["runs"]) == 2
        assert metrics["run_config"]["data_dir"] == str(pipeline.data)
        assert metrics["run_config_hash"]
        assert (pipeline.out / "run_info.json").exists()

    def test_metrics_replaced_once_with_run_config(self, pipeline, tmp_path, monkeypatch):
        real_replace = dva.atomic.os.replace
        written = []

        def record(src, dst):
            if Path(dst).name == "metrics.json":
                written.append(json.loads(Path(src).read_text()))
            real_replace(src, dst)

        monkeypatch.setattr(dva.atomic.os, "replace", record)
        out = tmp_path / "o"
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out, runs=1))
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(written) == 1
        assert written[0]["run_config"] == load_run_config(cfg).as_dict()
        assert written[0]["run_config_hash"] == load_run_config(cfg).hash()
        assert written[0] == json.loads((out / "metrics.json").read_text())

    def test_checkpoints_and_predictions(self, pipeline):
        for ticker in ("AAA", "BBB"):
            for run in (0, 1):
                assert (pipeline.out / "checkpoints" / f"{ticker}_run{run}.npz").exists()
                y_hat, y_true, dates, _ = load_predictions(
                    pipeline.out / "predictions" / f"{ticker}_run{run}.csv"
                )
                assert len(y_hat) == len(y_true) == len(dates)

    def test_refuses_overwrite(self, pipeline, capsys):
        assert main(["train", "--config", str(pipeline.cfg)]) == 2
        assert "--force" in read_stderr_json(capsys)["message"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bad.json",
            dict(run_payload(tmp_path, tmp_path / "o"), epochz=3),
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "epochz" in read_stderr_json(capsys)["message"]

    @pytest.mark.parametrize(
        "key, value", [("step_embedding", False), ("target_alpha_source", "prime")]
    )
    def test_removed_config_key(self, tmp_path, capsys, key, value):
        # the model always reads the six features and the primed target
        # chain; a config written for the old toggles fails, not silently runs
        cfg = write_json(
            tmp_path / "old.json",
            dict(run_payload(tmp_path, tmp_path / "o"), **{key: value}),
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in read_stderr_json(capsys)["message"]

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_missing_tickers_file(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "c.json", run_payload(tmp_path, tmp_path / "o"))
        assert main([command, "--config", str(cfg)]) == 2
        err = read_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert str(tmp_path / "tickers.txt") in err["message"]

    def test_jobs_below_one_refused_before_clearing(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "metrics.json").write_text("{}\n")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["train", "--config", str(cfg), "--force", "--jobs", "0"]) == 2
        assert read_stderr_json(capsys) == {
            "error": "ConfigError", "message": "--jobs must be >= 1, got 0"
        }
        assert (out / "metrics.json").read_text() == "{}\n"

    def test_force_clears_stale_validation_predictions(self, pipeline, tmp_path, capsys):
        # the old models' validation forecasts must not outlive them: refused
        # without --force, cleared with it, so gamma is not tuned on them
        out = tmp_path / "o"
        out.mkdir()
        shutil.copytree(pipeline.out / "predictions_val", out / "predictions_val")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "predictions_val" in read_stderr_json(capsys)["message"]
        assert main(["train", "--config", str(cfg), "--force", "--seed", "7"]) == 0
        assert not (out / "predictions_val").exists()
        assert main(["portfolio", "--config", str(cfg)]) == 2
        assert "run `dva predict` first" in read_stderr_json(capsys)["message"]

    def test_config_flag_required(self, capsys):
        assert main(["train"]) == 2
        assert "--config" in read_stderr_json(capsys)["message"]

    @pytest.mark.parametrize("kind", ["tickers", "run config", "synth spec"])
    def test_non_utf8_config_input_is_a_config_error(self, pipeline, tmp_path, capsys, kind):
        tickers = tmp_path / "tickers.txt"
        tickers.write_text("AAA\nBBB\n")
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(pipeline.data, tmp_path / "o", tickers_file=str(tickers)),
        )
        spec = write_json(tmp_path / "synth.json", synth_payload())
        bad = {"tickers": tickers, "run config": cfg, "synth spec": spec}[kind]
        lines = bad.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        if kind == "synth spec":
            argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]
        else:
            argv = ["ingest-check", "--config", str(cfg)]
        assert main(argv) == 2
        where = {"tickers": "tickers file"}.get(kind, kind)
        assert read_stderr_json(capsys) == {
            "error": "ConfigError",
            "message": f"{where} {bad}: line 2: not UTF-8 text",
        }


class TestPredict:
    def test_validation_predictions_exist(self, pipeline):
        for ticker in ("AAA", "BBB"):
            for run in (0, 1):
                path = pipeline.out / "predictions_val" / f"{ticker}_run{run}.csv"
                y_hat, y_true, dates, _ = load_predictions(path)
                assert len(y_hat) > 0

    def test_regeneration_is_byte_identical(self, pipeline):
        target = pipeline.out / "predictions" / "AAA_run0.csv"
        before = target.read_bytes()
        assert main(["predict", "--config", str(pipeline.cfg), "--force"]) == 0
        assert target.read_bytes() == before

    def test_empty_ticker_list_exits_2(self, pipeline, tmp_path, capsys):
        # predict once exited 0 here, writing empty prediction directories
        # that evaluate and portfolio then refused
        tickers = tmp_path / "tickers.txt"
        tickers.write_text("# no tickers\n\n")
        out = tmp_path / "o"
        cfg = write_json(
            tmp_path / "c.json", run_payload(pipeline.data, out, tickers_file=str(tickers))
        )
        assert main(["predict", "--config", str(cfg)]) == 2
        assert read_stderr_json(capsys) == {
            "error": "ConfigError",
            "message": f"tickers file {tickers} lists no ticker",
        }
        assert not out.exists()

    def test_missing_checkpoints(self, pipeline, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", run_payload(pipeline.data, tmp_path / "empty")
        )
        assert main(["predict", "--config", str(cfg)]) == 3
        ckpt = tmp_path / "empty" / "checkpoints" / "AAA_run0.npz"
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": f"checkpoint {ckpt}: cannot read: No such file or directory",
        }

    def test_malformed_checkpoint_metadata(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        ckpt = out / "checkpoints" / "AAA_run0.npz"
        with np.load(ckpt) as f:
            arrays = {k: f[k] for k in f.files}
        del arrays["__meta__"]
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["predict", "--config", str(cfg)]) == 3
        assert str(ckpt) in read_stderr_json(capsys)["message"]


    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"\x00\x01 not an archive" * 8,
            lambda raw: raw[: len(raw) // 2],
            # np.load's own parsers raise outside its documented errors:
            # tokenize.TokenError for a .npy header whose dict never closes,
            unclosed_npy_header,
            # SyntaxError for a dtype string numpy cannot parse, TypeError
            # for a header key that is bytes,
            lambda raw: raw.replace(b"'descr': '<", b"'descr': ',", 1),
            lambda raw: raw.replace(b" 'shape'", b"b'shape'", 1),
            # and zipfile's RuntimeError for a member marked encrypted
            encrypted_first_member,
        ],
        ids=[
            "garbage", "truncated", "npy-header-unclosed", "npy-descr", "npy-bytes-key",
            "encrypted",
        ],
    )
    def test_unreadable_checkpoint_is_a_data_error(self, pipeline, tmp_path, capsys, corrupt):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        ckpt = out / "checkpoints" / "AAA_run0.npz"
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["predict", "--config", str(cfg)]) == 3
        err = read_stderr_json(capsys)
        assert err["error"] == "DataError"
        assert err["message"].startswith(f"checkpoint {ckpt}: not a readable .npz archive")

    def test_checkpoint_without_values_is_a_data_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        ckpt = out / "checkpoints" / "AAA_run0.npz"
        with np.load(ckpt) as f:
            meta = f["__meta__"]
        with open(ckpt, "wb") as fh:
            np.savez(fh, __meta__=meta)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["predict", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": f"checkpoint {ckpt}: missing array values",
        }

    def test_non_utf8_price_file_is_a_parse_error(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline.data, data)
        prices = data / "BBB.csv"
        lines = prices.read_bytes().split(b"\n")
        lines[3] = lines[3][:4] + b"\xff" + lines[3][4:]
        prices.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        cfg = write_json(tmp_path / "c.json", run_payload(data, out))
        assert main(["predict", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "ParseError",
            "message": f"price file {prices}: line 4: not UTF-8 text",
        }

    def test_version_1_checkpoint_is_a_config_error(self, pipeline, tmp_path, capsys):
        # a checkpoint of one array per key, as version 1 wrote them
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        ckpt = out / "checkpoints" / "AAA_run0.npz"
        with np.load(ckpt) as f:
            meta = json.loads(str(f["__meta__"]))
            values = f["values"]
        arrays, offset = {}, 0
        for key, shape in meta.pop("layout"):
            size = int(np.prod(shape))
            arrays[key] = values[offset:offset + size].reshape(shape)
            offset += size
        meta["version"] = 1
        with open(ckpt, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["predict", "--config", str(cfg)]) == 2
        assert read_stderr_json(capsys) == {
            "error": "ConfigError",
            "message": f"checkpoint {ckpt}: unsupported version 1",
        }


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_report_and_uncertainty(self, pipeline):
        report = json.loads((pipeline.out / "report.json").read_text())
        assert report["kind"] == "evaluation_report"
        assert report["baseline"] == "persistence"
        assert sorted(report["report"]["per_stock"]) == ["AAA", "BBB"]
        agg = report["report"]["aggregate"]
        assert agg["mean_of_stock_means"] > 0
        with open(pipeline.out / "uncertainty.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["stock", "sd_before", "pct_mse_change"]
        assert len(rows) == 3
        sds = [float(r[1]) for r in rows[1:]]
        assert sds == sorted(sds)

    @pytest.mark.parametrize("t_out", [1, 3, 7])
    def test_persistence_matches_per_window_reference(self, pipeline, t_out):
        rc = load_run_config(pipeline.cfg)
        rc = dataclasses.replace(rc, train=dataclasses.replace(rc.train, t_out=t_out))
        report = _persistence_report(rc, ["AAA", "BBB"])
        for stock, entry in report["per_stock"].items():
            test = build_dataset(load_ohlcv(pipeline.data, stock), 8, t_out).test
            errs = [
                float(np.mean((np.full(t_out, p.x[-1, R_INDEX]) - p.y) ** 2)) for p in test
            ]
            assert entry["runs"] == [sum(errs) / len(errs)]

    def test_missing_predictions(self, pipeline, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", run_payload(pipeline.data, tmp_path / "empty")
        )
        assert main(["evaluate", "--config", str(cfg)]) == 3
        assert "missing artifact" in read_stderr_json(capsys)["message"]

    def test_ragged_prediction_file_rejected(self, pipeline, tmp_path, capsys):
        # evaluate reads predictions as portfolio does: whole horizons only
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "predictions", out / "predictions")
        path = out / "predictions" / "AAA_run0.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["evaluate", "--config", str(cfg)]) == 3
        assert "ragged" in read_stderr_json(capsys)["message"]

    def test_huge_forecast_is_a_data_error_naming_the_file(self, pipeline, tmp_path, capsys):
        # a finite y_hat whose square overflows: no numpy warning, and the
        # fault is the prediction file's, not a broken invariant
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "predictions", out / "predictions")
        path = out / "predictions" / "AAA_run0.csv"
        lines = path.read_text().splitlines(keepends=True)
        date, step, _, y_true = lines[1].rstrip("\r\n").split(",")
        lines[1] = f"{date},{step},1e308,{y_true}\r\n"
        path.write_text("".join(lines))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": f"prediction file {path}: the forecast errors have no finite MSE",
        }

    def test_explicit_baseline_metrics(self, pipeline, tmp_path):
        out2 = tmp_path / "o2"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(cfg),
                    "--baseline",
                    str(pipeline.out / "metrics.json"),
                ]
            )
            == 0
        )
        report = json.loads((out2 / "report.json").read_text())
        assert report["baseline"] == str(pipeline.out / "metrics.json")
        with open(out2 / "uncertainty.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # the baseline is this run's own metrics: zero change, real SDs
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_tickers_file_with_fewer_stocks_is_a_data_error(self, pipeline, tmp_path, capsys):
        out2 = tmp_path / "o4"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        tickers = tmp_path / "tickers.txt"
        tickers.write_text("AAA\n")
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(pipeline.data, out2, tickers_file=str(tickers)),
        )
        assert main(["evaluate", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": "predictions and baseline persistence cover different stocks:"
            " predictions lack [], the baseline lacks ['BBB']",
        }
        assert not (out2 / "report.json").exists()

    def test_baseline_with_other_stocks_is_a_data_error(self, pipeline, tmp_path, capsys):
        out2 = tmp_path / "o5"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        metrics = json.loads((pipeline.out / "metrics.json").read_text())
        metrics["per_stock"]["CCC"] = metrics["per_stock"].pop("BBB")
        baseline = write_json(tmp_path / "metrics.json", metrics)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        argv = ["evaluate", "--config", str(cfg), "--baseline", str(baseline)]
        assert main(argv) == 3
        assert read_stderr_json(capsys)["message"] == (
            f"predictions and baseline {baseline} cover different stocks:"
            " predictions lack ['CCC'], the baseline lacks ['BBB']"
        )

    @pytest.mark.parametrize(
        "text, error, cause",
        [
            (b'{"per_stock": {', "DataError", ": invalid JSON: "),
            (b'{"per_stock": {"AAA": {"mean": 0.1}}}', "DataError", ": per_stock must list"),
            (b'{"per_stock": {"AAA": {"runs": [0.1, null]}}}', "DataError", ": per_stock must list"),
            (b'[0.1]', "DataError", ": no per-stock results"),
            (b'{\n"per_stock": \xff}', "ParseError", ": line 2: not UTF-8 text"),
        ],
        ids=["bad-json", "no-runs", "null-run", "not-an-object", "not-utf8"],
    )
    def test_malformed_baseline_is_a_data_error(
        self, pipeline, tmp_path, capsys, text, error, cause
    ):
        out2 = tmp_path / "o6"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        baseline = tmp_path / "metrics.json"
        baseline.write_bytes(text)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        argv = ["evaluate", "--config", str(cfg), "--baseline", str(baseline)]
        assert main(argv) == 3
        err = read_stderr_json(capsys)
        assert err["error"] == error
        assert err["message"].startswith(f"metrics file {baseline}{cause}")
        assert not (out2 / "report.json").exists()

    @pytest.mark.parametrize("value", ["NaN", "-0.5", "1e400", "Infinity", "0.0", "true"])
    def test_bad_baseline_mse_is_a_data_error(self, pipeline, tmp_path, capsys, value):
        # one run MSE of the baseline's stock AAA, as the JSON text gives it
        out2 = tmp_path / "o7"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        metrics = json.loads((pipeline.out / "metrics.json").read_text())
        metrics["per_stock"]["AAA"]["runs"][0] = "VALUE"
        baseline = tmp_path / "metrics.json"
        baseline.write_text(json.dumps(metrics).replace('"VALUE"', value))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        argv = ["evaluate", "--config", str(cfg), "--baseline", str(baseline)]
        assert main(argv) == 3
        err = read_stderr_json(capsys)
        assert err["error"] == "DataError"
        assert err["message"].startswith(f"metrics file {baseline}: per_stock.AAA.runs[0]")
        assert not (out2 / "report.json").exists()

    def test_missing_baseline_file(self, pipeline, tmp_path, capsys):
        out2 = tmp_path / "o3"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(cfg),
                    "--baseline",
                    str(tmp_path / "absent.json"),
                ]
            )
            == 3
        )
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": f"metrics file {tmp_path / 'absent.json'}: cannot read: No such file or directory",
        }


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------


class TestPortfolio:
    def test_report_and_weights(self, pipeline):
        report = json.loads((pipeline.out / "portfolio.json").read_text())
        assert report["kind"] == "portfolio_report"
        assert report["gamma_tuned_on_validation"] is True
        assert report["gamma_risk"] in (0.5, 2.0)
        assert report["lambda"] == 0.05
        assert sorted(report["runs"]) == ["0", "1"]
        for run_key, entry in report["runs"].items():
            csv_path = pipeline.out / "weights" / f"weights_run{run_key}.csv"
            with open(csv_path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["period_start", "ticker", "weight"]
            assert len(rows) == 1 + 2 * len(entry["periods"])
            weights = [float(r[2]) for r in rows[1:]]
            assert all(w >= 0 for w in weights)

    def test_fixed_gamma_skips_tuning(self, pipeline, tmp_path):
        out2 = tmp_path / "o"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(
                pipeline.data,
                out2,
                portfolio={"lambda": 0.05, "gamma_risk": 1.0},
            ),
        )
        assert main(["portfolio", "--config", str(cfg)]) == 0
        report = json.loads((out2 / "portfolio.json").read_text())
        assert report["gamma_tuned_on_validation"] is False
        assert report["gamma_risk"] == 1.0

    def test_tuned_gamma_at_grid_edge_warns(self, pipeline):
        # a two-point grid puts every tuned gamma on one of its edges
        report = json.loads((pipeline.out / "portfolio.json").read_text())
        edge = [w for w in report["warnings"] if "edge of gamma_grid" in w]
        assert edge == [
            f"tuned gamma_risk {report['gamma_risk']!r} is at the"
            f" {'lower' if report['gamma_risk'] == 0.5 else 'upper'} edge of"
            " gamma_grid [0.5, 2.0]; the validation Sharpe may still be"
            " improving past it"
        ]

    @pytest.mark.parametrize(
        "options",
        [
            {"lambda": 0.05, "gamma_grid": [1.0]},
            {"lambda": 0.05, "gamma_risk": 1.0},
        ],
        ids=["one_point_grid", "fixed_gamma"],
    )
    def test_no_edge_warning_without_a_grid_to_leave(self, pipeline, tmp_path, options):
        out2 = tmp_path / "o"
        out2.mkdir()
        for sub in ("predictions", "predictions_val"):
            shutil.copytree(pipeline.out / sub, out2 / sub)
        cfg = write_json(
            tmp_path / "c.json", run_payload(pipeline.data, out2, portfolio=options)
        )
        assert main(["portfolio", "--config", str(cfg)]) == 0
        report = json.loads((out2 / "portfolio.json").read_text())
        assert report["gamma_risk"] == 1.0
        assert not any("edge of gamma_grid" in w for w in report["warnings"])

    def test_periods_carry_solver_counts(self, pipeline):
        report = json.loads((pipeline.out / "portfolio.json").read_text())
        for entry in report["runs"].values():
            for period in entry["periods"]:
                assert isinstance(period["qp_iterations"], int)
                assert period["qp_iterations"] >= 1
                assert isinstance(period["lasso_sweeps"], int)
                assert period["lasso_sweeps"] >= 1

    def test_tuning_needs_validation_predictions(self, pipeline, tmp_path, capsys):
        out2 = tmp_path / "o"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out2))
        assert main(["portfolio", "--config", str(cfg)]) == 2
        assert "gamma_risk" in read_stderr_json(capsys)["message"]

    def test_non_utf8_prediction_file_is_a_parse_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        for kind in ("predictions", "predictions_val"):
            shutil.copytree(pipeline.out / kind, out / kind)
        bad = out / "predictions" / "BBB_run1.csv"
        lines = bad.read_bytes().split(b"\n")
        lines[2] = b"\xfe" + lines[2]
        bad.write_bytes(b"\n".join(lines))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["portfolio", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "ParseError",
            "message": f"prediction file {bad}: line 3: not UTF-8 text",
        }

    def test_failed_forced_rerun_leaves_no_stale_report(self, pipeline, tmp_path, capsys):
        # --force clears the old report with its weights, so a rerun that
        # fails leaves neither behind
        out = tmp_path / "o"
        out.mkdir()
        for kind in ("predictions", "predictions_val"):
            shutil.copytree(pipeline.out / kind, out / kind)
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["portfolio", "--config", str(cfg)]) == 0
        bad = out / "predictions" / "BBB_run1.csv"
        bad.write_bytes(b"\xfe" + bad.read_bytes())
        assert main(["portfolio", "--config", str(cfg), "--force"]) == 3
        assert read_stderr_json(capsys)["error"] == "ParseError"
        assert not (out / "portfolio.json").exists()
        assert not (out / "weights").exists()

    @pytest.mark.parametrize("huge", ["1e200", "1e308"])
    def test_huge_forecast_is_a_data_error_naming_the_file(
        self, pipeline, tmp_path, capsys, huge
    ):
        # a finite y_hat whose variance overflows: no numpy warning and no
        # lasso on NaN, but the fault of the file that holds it
        out = tmp_path / "o"
        out.mkdir()
        for kind in ("predictions", "predictions_val"):
            shutil.copytree(pipeline.out / kind, out / kind)
        path = out / "predictions" / "AAA_run0.csv"
        lines = path.read_text().splitlines(keepends=True)
        date, step, _, y_true = lines[1].rstrip("\r\n").split(",")
        lines[1] = f"{date},{step},{huge},{y_true}\r\n"
        path.write_text("".join(lines))
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["portfolio", "--config", str(cfg)]) == 3
        assert read_stderr_json(capsys) == {
            "error": "DataError",
            "message": f"prediction file {path}: line 2: the forecasts have no finite"
            f" mean and covariance in period {date} of run 0",
        }

    def test_regularization_off_records_null_lambda(self, pipeline, tmp_path):
        out2 = tmp_path / "o"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(
                pipeline.data,
                out2,
                portfolio={"regularize": False, "gamma_risk": 1.0},
            ),
        )
        assert main(["portfolio", "--config", str(cfg)]) == 0
        report = json.loads((out2 / "portfolio.json").read_text())
        assert report["lambda"] is None
        for entry in report["runs"].values():
            assert all(p["lasso_sweeps"] is None for p in entry["periods"])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_single_cell_matches_train(self, pipeline):
        with open(pipeline.out / "sweep" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["zeta", "eta", "mean_of_stock_means", "mean_of_stock_sds", "partial"]
        assert len(rows) == 2
        assert rows[1][0] == "0.5" and rows[1][1] == "1.0"
        cell = json.loads(
            (pipeline.out / "sweep" / "zeta0.5_eta1" / "metrics.json").read_text()
        )
        train = json.loads((pipeline.out / "metrics.json").read_text())
        assert cell["per_stock"] == train["per_stock"]
        assert cell["aggregate"] == train["aggregate"]
        assert float(rows[1][2]) == train["aggregate"]["mean_of_stock_means"]

    def test_grid_cells_and_inclusion(self, pipeline, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            run_payload(pipeline.data, tmp_path / "o", runs=1),
        )
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(cfg),
                    "--zeta-grid",
                    "0.5,0.6",
                    "--eta-grid",
                    "0.9,1.0",
                ]
            )
            == 0
        )
        with open(tmp_path / "o" / "sweep" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5
        cells = {(r[0], r[1]) for r in rows[1:]}
        assert ("0.5", "1.0") in cells

    def test_jobs_below_one_refused_before_clearing(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "sweep").mkdir(parents=True)
        (out / "sweep" / "summary.csv").write_text("zeta\n")
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, out))
        assert main(["sweep", "--config", str(cfg), "--force", "--jobs", "-1"]) == 2
        assert read_stderr_json(capsys) == {
            "error": "ConfigError", "message": "--jobs must be >= 1, got -1"
        }
        assert (out / "sweep" / "summary.csv").read_text() == "zeta\n"

    def test_default_grid_covers_paper_cell(self):
        assert len(DEFAULT_WEIGHT_GRID) == 10
        assert 0.5 in DEFAULT_WEIGHT_GRID and 1.0 in DEFAULT_WEIGHT_GRID

    @pytest.mark.parametrize("grid", ["", "0.5,0.5", "-0.1", "abc", "nan", "0.5,inf"])
    def test_grid_parse_errors(self, pipeline, tmp_path, grid, capsys):
        cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, tmp_path / "o"))
        assert (
            main(["sweep", "--config", str(cfg), "--zeta-grid", grid]) == 2
        )
        err = read_stderr_json(capsys)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("--zeta-grid: ")
        assert not (tmp_path / "o").exists()  # refused before any cell trains


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class TestShortPriceFile:
    """A price file too short to split is the data's fault, in every command
    that splits it: the error names the price file and its bars."""

    def cut(self, pipeline, tmp_path, bars=14):
        data = tmp_path / "data"
        shutil.copytree(pipeline.data, data)
        path = data / "BBB.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: 1 + bars]))
        out = tmp_path / "out"
        shutil.copytree(pipeline.out / "checkpoints", out / "checkpoints")
        shutil.copytree(pipeline.out / "predictions", out / "predictions")
        cfg = write_json(tmp_path / "c.json", run_payload(data, out))
        message = (
            f"price file {path}: 14 bars, but t_in=8 and t_out=4"
            " need at least 22 to split into 10 windows"
        )
        return cfg, out, message

    @pytest.mark.parametrize("command", ["ingest-check", "predict", "evaluate"])
    def test_exits_3_naming_the_file(self, pipeline, tmp_path, capsys, command):
        cfg, _, message = self.cut(pipeline, tmp_path)
        argv = [command, "--config", str(cfg)] + (["--force"] if command == "predict" else [])
        assert main(argv) == 3
        assert read_stderr_json(capsys) == {"error": "DataError", "message": message}

    def test_train_records_it_as_the_stock_failure(self, pipeline, tmp_path, capsys):
        cfg, out, message = self.cut(pipeline, tmp_path)
        assert main(["train", "--config", str(cfg), "--force"]) == 3
        assert read_stderr_json(capsys)["error"] == "DataError"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["partial"] is True
        assert sorted(metrics["per_stock"]) == ["AAA"]
        assert [(f["stock"], f["error"]) for f in metrics["failures"]] == [
            ("BBB", message),
            ("BBB", message),
        ]
        assert {f["error_type"] for f in metrics["failures"]} == {"DataError"}


@pytest.mark.parametrize(
    "failed, code, error",
    [
        (["TrainingAbort"], 5, "TrainingAbort"),
        (["TrainingAbort", "DataError"], 3, "DataError"),
        (["ParseError", "ConfigError", "TrainingAbort"], 2, "ConfigError"),
        (["DvaError", "TrainingAbort"], 5, "TrainingAbort"),
        (["DvaError"], 1, "DvaError"),
    ],
)
def test_train_exits_with_the_smallest_code_of_its_failures(
    pipeline, tmp_path, capsys, monkeypatch, failed, code, error
):
    def run_experiment(tickers, data_dir, cfg, out, runs, jobs):
        failures = [
            {"stock": "AAA", "run": r, "seed": r, "error": "x", "error_type": name}
            for r, name in enumerate(failed)
        ]
        return {"failures": failures, "partial": True}

    monkeypatch.setattr(dva.cli, "run_experiment", run_experiment)
    cfg = write_json(tmp_path / "c.json", run_payload(pipeline.data, tmp_path / "o"))
    assert main(["train", "--config", str(cfg)]) == code
    payload = read_stderr_json(capsys)
    assert payload["error"] == error
    assert f"{len(failed)} training runs failed" in payload["message"]


class TestPlumbing:
    def test_no_out_dir_anywhere(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DVA_OUT", raising=False)
        payload = run_payload(pipeline.data, tmp_path)
        del payload["out_dir"]
        cfg = write_json(tmp_path / "c.json", payload)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "DVA_OUT" in read_stderr_json(capsys)["message"]

    def test_dva_out_fallback(self, pipeline, tmp_path, monkeypatch):
        out2 = tmp_path / "env_out"
        out2.mkdir()
        shutil.copytree(pipeline.out / "predictions", out2 / "predictions")
        monkeypatch.setenv("DVA_OUT", str(out2))
        payload = run_payload(pipeline.data, tmp_path)
        del payload["out_dir"]
        cfg = write_json(tmp_path / "c.json", payload)
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert (out2 / "report.json").exists()

    @pytest.mark.parametrize(
        "case, code, error",
        [
            ("run config", 2, "ConfigError"),
            ("synth spec", 2, "ConfigError"),
            ("baseline", 3, "DataError"),
            ("prediction file", 3, "DataError"),
            ("price file", 3, "DataError"),
        ],
    )
    def test_directory_in_place_of_a_file(self, pipeline, tmp_path, capsys, case, code, error):
        out = tmp_path / "o"
        shutil.copytree(pipeline.out / "predictions", out / "predictions")
        data = tmp_path / "data"
        shutil.copytree(pipeline.data, data)
        cfg = write_json(tmp_path / "c.json", run_payload(data, out))
        bad = {
            "run config": tmp_path / "run.json",
            "synth spec": tmp_path / "synth.json",
            "baseline": tmp_path / "metrics.json",
            "prediction file": out / "predictions" / "AAA_run0.csv",
            "price file": data / "AAA.csv",
        }[case]
        bad.unlink(missing_ok=True)
        bad.mkdir()
        argv = {
            "run config": ["ingest-check", "--config", str(bad)],
            "synth spec": ["synth", "--spec", str(bad), "--out", str(tmp_path / "d")],
            "baseline": ["evaluate", "--config", str(cfg), "--baseline", str(bad)],
            "prediction file": ["evaluate", "--config", str(cfg)],
            "price file": ["ingest-check", "--config", str(cfg)],
        }[case]
        assert main(argv) == code
        err = read_stderr_json(capsys)
        assert err["error"] == error
        assert str(bad) in err["message"] and "Is a directory" in err["message"]

    def test_success_stdout_is_json(self, pipeline, capsys):
        assert main(["ingest-check", "--config", str(pipeline.cfg)]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["ok"] is True

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["train", "--nonsense"])
