"""Corrupt input bytes fail inside the exit-code taxonomy: every input kind,
with bytes flipped or cut off, makes ``dva`` exit 0, 2, 3, 4 or 5 and name a
``DvaError`` subclass on stderr, never exit 1 with a stray exception."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dva.errors
from dva.cli import main
from dva.config import load_run_config
from dva.model import ModelParams, save_params

SYNTH = {
    "schema_version": 1,
    "seed": 11,
    "tickers": {
        name: {"process": "sinusoid", "length": 120, "noise_scale": 0.01, "phase": phase}
        for name, phase in (("AAA", 0.0), ("BBB", 2.0))
    },
}


def run_payload(root):
    return {
        "schema_version": 1,
        "data_dir": str(root / "data"),
        "tickers_file": str(root / "data" / "tickers.txt"),
        "out_dir": str(root / "out"),
        "runs": 1,
        "t_in": 8,
        "t_out": 4,
        "channels": 4,
        "latent": 2,
        "se_reduction": 2,
        "energy_hidden": 6,
        "portfolio": {"lambda": 0.05, "gamma_risk": 1.0},
    }


def write_inputs(root):
    """The two JSON inputs, whose paths point into ``root``."""
    (root / "synth.json").write_text(json.dumps(SYNTH, indent=2))
    (root / "run.json").write_text(json.dumps(run_payload(root), indent=2))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Price data, untrained checkpoints and their predictions."""
    root = tmp_path_factory.mktemp("pristine")
    write_inputs(root)
    assert main(["synth", "--spec", str(root / "synth.json"), "--out", str(root / "data")]) == 0
    config = load_run_config(root / "run.json").train.model_config()
    (root / "out" / "checkpoints").mkdir(parents=True)
    for k, name in enumerate(("AAA", "BBB")):
        save_params(ModelParams.init(config, seed=k), root / "out" / "checkpoints" / f"{name}_run0.npz")
    assert main(["predict", "--config", str(root / "run.json")]) == 0
    return root


# input kind: (the file corrupted, the commands that read it)
INPUTS = {
    "run config": ("run.json", [["ingest-check"]]),
    "synth spec": ("synth.json", [["synth", "--spec", "{root}/synth.json", "--out", "{root}/s"]]),
    "tickers": ("data/tickers.txt", [["ingest-check"]]),
    "OHLCV": ("data/AAA.csv", [["ingest-check"], ["predict", "--force"]]),
    "predictions": ("out/predictions/AAA_run0.csv", [["evaluate"], ["portfolio"]]),
    "checkpoint": ("out/checkpoints/AAA_run0.npz", [["predict", "--force"]]),
}

# a byte position as a share of the file's length
share = st.floats(0.0, 1.0, exclude_max=True)
corruptions = st.one_of(
    st.tuples(st.just("truncate"), share),
    st.tuples(st.just("flip"), st.lists(st.tuples(share, st.integers(1, 255)), min_size=1, max_size=3)),
)


def corrupt(data: bytes, how) -> bytes:
    kind, arg = how
    if kind == "truncate":
        return data[: int(arg * len(data))]
    out = bytearray(data)
    for pos, mask in arg:
        out[int(pos * len(out))] ^= mask
    return bytes(out)


def dva_error_names():
    names, todo = set(), [dva.errors.DvaError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names - {"DvaError"}


@pytest.mark.parametrize("kind", sorted(INPUTS))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(how=corruptions)
def test_corrupt_input_exits_inside_the_taxonomy(pristine, tmp_path_factory, kind, how):
    root = tmp_path_factory.mktemp("corrupt")
    for sub in ("data", "out"):
        shutil.copytree(pristine / sub, root / sub)
    write_inputs(root)
    name, commands = INPUTS[kind]
    target = root / name
    target.write_bytes(corrupt(target.read_bytes(), how))
    for command in commands:
        argv = [arg.format(root=root) for arg in command]
        if argv[0] != "synth":
            argv += ["--config", str(root / "run.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4, 5), stderr.getvalue()
        if code:
            assert json.loads(stderr.getvalue())["error"] in dva_error_names()


def _set(col, value):
    def edit(rows):
        rows[1][col] = value
    return edit


def _swap_steps(rows):
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]


def _steps_all_one(rows):
    for row in rows:
        row[1] = "1"


# edit of the data rows (fields as strings), the error, where it points
BAD_PREDICTIONS = {
    "inf y_hat": (_set(2, "inf"), "DataError", "line 3"),
    "nan y_true": (_set(3, "nan"), "DataError", "line 3"),
    "swapped steps": (_swap_steps, "ParseError", "line 2"),
    "steps all 1": (_steps_all_one, "ParseError", "line 3"),
}


@pytest.mark.parametrize("command", ["evaluate", "portfolio"])
@pytest.mark.parametrize("bad", sorted(BAD_PREDICTIONS))
def test_bad_prediction_rows_exit_3_naming_file_and_line(pristine, tmp_path, command, bad):
    # a non-finite value or a misnumbered step would otherwise reach the
    # covariance (exit 4) or pair the days wrongly across stocks (exit 0)
    edit, error, where = BAD_PREDICTIONS[bad]
    for sub in ("data", "out"):
        shutil.copytree(pristine / sub, tmp_path / sub)
    write_inputs(tmp_path)
    target = tmp_path / "out" / "predictions" / "AAA_run0.csv"
    header, *lines = target.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    target.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(tmp_path / "run.json")])
    err = json.loads(stderr.getvalue())
    assert (code, err["error"]) == (3, error)
    assert str(target) in err["message"] and where in err["message"]
