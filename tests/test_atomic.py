"""Every artifact is written whole or not at all, and only through
``dva.atomic``; every input is read only through it, and a fault in one
names its kind, path and line."""

import ast
import datetime as dt
import errno
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dva.atomic
from dva.atomic import atomic_open, write_csv, write_json
from dva.cli import _report_from_metrics
from dva.config import load_run_config, load_synth_spec
from dva.data import (
    FEATURE_DIM,
    SynthSpec,
    WindowPair,
    synth_generate,
    write_ohlcv,
    load_ohlcv,
    load_tickers,
    write_tickers,
    write_truth,
)
from dva.errors import ConfigError, DataError, DvaError, ParseError
from dva.evaluation import (
    UncertaintyRow,
    load_predictions,
    write_predictions,
    write_uncertainty_csv,
)
from dva.model import ModelConfig, ModelParams, load_params, save_params
from dva.portfolio import BacktestReport, PeriodResult, RunBacktest, write_weights_csv

TINY = ModelConfig(t_in=8, t_out=4, channels=4, latent=2, se_reduction=2, energy_hidden=6)


def fills_up_after(limit):
    """An ``open`` whose files may extend to ``limit`` bytes, then fail as a
    full disk. Space is the file's extent, not the bytes written: rewriting
    bytes in place (as zipfile does to a member header) takes none."""

    class Full(io.FileIO):
        def write(self, b):
            data = bytes(b)
            room = limit - self.tell()
            if len(data) > room:
                super().write(data[: max(room, 0)])
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    return lambda path, mode: Full(path, mode.replace("b", ""))


def write_checkpoint(path):
    save_params(ModelParams.init(TINY, seed=3), path)


def write_prediction_file(path):
    pairs = [
        WindowPair(x=np.zeros((1, FEATURE_DIM)), y=np.linspace(0.9, 1.1, 4),
                   anchor_date=dt.date(2021, 1, 15) + dt.timedelta(days=i), anchor_index=0)
        for i in range(5)
    ]
    write_predictions(path, pairs, np.random.default_rng(4).normal(size=(5, 4)))


def write_weights_file(path):
    periods = tuple(
        PeriodResult(
            period_start=dt.date(2021, 2, 1) + dt.timedelta(days=7 * k),
            sharpe=0.5, equal_weight_sharpe=0.4,
            weights={"AAA": 0.1 * k, "BBB": 1.0 - 0.1 * k},
            qp_iterations=3, lasso_sweeps=None,
        )
        for k in range(6)
    )
    run = RunBacktest(run=0, periods=periods, avg_sharpe=0.5, avg_equal_weight_sharpe=0.4)
    report = BacktestReport(
        gamma_risk=1.0, lam=None, runs=(run,), avg_sharpe=0.5, avg_equal_weight_sharpe=0.4
    )
    write_weights_csv(path, report, 0)


PRICES, R_TRUE = synth_generate(SynthSpec(length=30), seed=2)
PAYLOAD = {"kind": "metrics", "per_stock": {"AAA": {"runs": [0.25, 1e-300]}}, "ok": True}
WRITERS = {
    "ck.npz": write_checkpoint,
    "p.csv": write_prediction_file,
    "AAA.csv": lambda path: write_ohlcv(path, PRICES),
    "AAA.truth.csv": lambda path: write_truth(path, PRICES, R_TRUE),
    "tickers.txt": lambda path: write_tickers(path, ["AAA", "BBB"]),
    "metrics.json": lambda path: write_json(path, PAYLOAD),
    "summary.csv": lambda path: write_csv(path, ["a", "b"], [["1,5", 'say "x"'], ["", "2"]]),
    "uncertainty.csv": lambda path: write_uncertainty_csv(
        path, [UncertaintyRow("AAA", 0.125, -3.5), UncertaintyRow("BBB", 0.5, 12.0)]
    ),
    "weights_run0.csv": write_weights_file,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
@settings(max_examples=25, deadline=None)
@given(share=st.floats(0.0, 1.2), existed=st.booleans())
def test_failed_write_leaves_no_partial_artifact_or_temp_file(
    tmp_path_factory, name, share, existed
):
    # the disk fills after ``share`` of the artifact's bytes
    d = tmp_path_factory.mktemp("atomic")
    path = d / name
    if existed:
        path.write_bytes(b"previous")
    full_size = len(_complete_bytes(tmp_path_factory, name))
    limit = int(share * full_size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dva.atomic, "open", fills_up_after(limit), raising=False)
        if limit < full_size:
            with pytest.raises(OSError, match="No space left"):
                WRITERS[name](path)
        else:
            WRITERS[name](path)
    files = sorted(p.name for p in d.iterdir())
    if limit >= full_size:
        assert files == [name]
        assert path.read_bytes() == _complete_bytes(tmp_path_factory, name)
    elif existed:
        assert files == [name]
        assert path.read_bytes() == b"previous"
    else:
        assert files == []


def _complete_bytes(tmp_path_factory, name):
    path = tmp_path_factory.mktemp("whole") / name
    WRITERS[name](path)
    return path.read_bytes()


def test_complete_writes_read_back(tmp_path):
    write_checkpoint(tmp_path / "ck.npz")
    write_prediction_file(tmp_path / "p.csv")
    assert load_params(tmp_path / "ck.npz").config == TINY
    assert load_predictions(tmp_path / "p.csv")[0].shape == (20,)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz", "p.csv"]


@pytest.mark.parametrize("name", ["AAA_run0.csv", "AAA_run0.npz"])
def test_temp_name_matches_no_artifact_pattern(tmp_path, name):
    with atomic_open(tmp_path / name) as fh:
        (temp,) = [p.name for p in tmp_path.iterdir()]
        fh.write(b"x")
    assert temp.endswith(".tmp") and not temp.endswith((".csv", ".npz"))
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_helpers_write_the_bytes_of_json_dump_and_csv_writer(tmp_path):
    import csv
    import json

    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(PAYLOAD, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [["1,5", 'say "x"'], ["", "2"], ["line\nbreak", "3"]]
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b"])
        writer.writerows(rows)
    write_json(tmp_path / "m.json", PAYLOAD)
    write_csv(tmp_path / "m.csv", ["a", "b"], iter(rows))
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# one writer: no module but dva/atomic.py opens a file for writing
# ---------------------------------------------------------------------------

FILE_TAKERS = {"json.dump": 1, "np.save": 0, "np.savez": 0, "np.savez_compressed": 0,
               "csv.writer": 0}


def _is_write_mode(node) -> bool:
    """A mode argument that writes, appends or creates; one the code works
    out at run time counts, since it may."""
    if not isinstance(node, ast.Constant):
        return True
    text = node.value
    return isinstance(text, str) and set(text) <= set("rwxabt+") and bool(set(text) & set("wxa+"))


def _open_modes(node, func: str) -> list:
    """The mode arguments of an ``open`` call: open(path, mode) and
    os.open(path, flags) take it second, Path.open(mode) first."""
    modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
    modes += node.args[1:2] if isinstance(node.func, ast.Name) or func in (
        "io.open", "os.open") else node.args[:1]
    return modes


def write_faults(source: str) -> list[str]:
    tree = ast.parse(source)
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and ast.unparse(item.context_expr.func) in ("atomic_open", "dva.atomic.atomic_open")
        and isinstance(item.optional_vars, ast.Name)
    }
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        name = func.rsplit(".", 1)[-1]
        where = f"line {node.lineno}: {func}"
        if name == "open":
            if any(_is_write_mode(m) for m in _open_modes(node, func)):
                faults.append(where)
        elif name in ("write_text", "write_bytes"):
            faults.append(where)
        elif func in FILE_TAKERS:
            k = FILE_TAKERS[func]
            target = node.args[k] if len(node.args) > k else None
            if not (isinstance(target, ast.Name) and target.id in handles):
                faults.append(where)
    return faults


@pytest.mark.parametrize(
    "source",
    [
        'open(p, "w")',
        'open(p, mode="ab")',
        'open(p, "r+")',
        'open(p, m)',
        'Path(p).open("x")',
        'os.open(p, os.O_WRONLY)',
        'p.write_text("x")',
        'p.write_bytes(b"x")',
        'json.dump(d, p)',
        'with open(p, "w") as fh:\n    json.dump(d, fh)',
        'np.save(p, a)',
        'np.savez(p, a=a)',
        'csv.writer(fh)',
    ],
)
def test_guard_finds_each_kind_of_write(source):
    assert write_faults(source)


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        'open(p, "rb")',
        'open(p, newline="", encoding="utf-8")',
        'zf.open("values.npy")',
        'with atomic_open(p) as fh:\n    np.savez(fh, a=a)\n    json.dump(d, fh)',
    ],
)
def test_guard_passes_reads_and_atomic_handles(source):
    assert write_faults(source) == []


def test_only_dva_atomic_writes_files():
    src = Path(dva.atomic.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    faults = {
        m.name: write_faults(m.read_text(encoding="utf-8"))
        for m in modules
        if m.name != "atomic.py"
    }
    assert {name: f for name, f in faults.items() if f} == {}


# ---------------------------------------------------------------------------
# one reader: no module but dva/atomic.py reads a file
# ---------------------------------------------------------------------------

FILE_READERS = {"np.load", "numpy.load", "json.load", "np.fromfile", "np.loadtxt",
                "np.genfromtxt"}


def _is_read_mode(node) -> bool:
    """A mode argument that reads: one with ``r`` or ``+``, one the code
    works out at run time, or anything that is not a mode at all (as the
    member name of ``ZipFile.open``)."""
    if not isinstance(node, ast.Constant):
        return True
    text = node.value
    is_mode = isinstance(text, str) and set(text) <= set("rwxabt+")
    return not is_mode or bool(set(text) & set("r+"))


def read_faults(source: str) -> list[str]:
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        name = func.rsplit(".", 1)[-1]
        where = f"line {node.lineno}: {func}"
        if name == "open":
            modes = _open_modes(node, func)
            if not modes or any(_is_read_mode(m) for m in modes):
                faults.append(where)
        elif isinstance(node.func, ast.Attribute) and name in ("read_text", "read_bytes"):
            faults.append(where)
        elif func in FILE_READERS:
            faults.append(where)
    return faults


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        'open(p, "rb")',
        'open(p, mode="r", encoding="utf-8")',
        'open(p, "r+")',
        "open(p, m)",
        'io.open(p, newline="")',
        "os.open(p, os.O_RDONLY)",
        "Path(p).open()",
        'zf.open("values.npy")',
        'p.read_text(encoding="utf-8")',
        "Path(p).read_bytes()",
        "np.load(p, allow_pickle=False)",
        "json.load(fh)",
        "np.loadtxt(p)",
    ],
)
def test_read_guard_finds_each_kind_of_read(source):
    assert read_faults(source)


@pytest.mark.parametrize(
    "source",
    [
        'open(p, "w")',
        'open(p, mode="ab")',
        "json.loads(text)",
        'read_utf8(p, "price file")',
        'dva.atomic.read_npz(p, "checkpoint")',
        'with atomic_open(p) as fh:\n    fh.write(b"x")',
    ],
)
def test_read_guard_passes_writes_and_the_readers_of_dva_atomic(source):
    assert read_faults(source) == []


def test_only_dva_atomic_reads_files():
    src = Path(dva.atomic.__file__).parent
    faults = {
        m.name: read_faults(m.read_text(encoding="utf-8"))
        for m in sorted(src.glob("*.py"))
        if m.name != "atomic.py"
    }
    assert len(faults) > 10
    assert {name: f for name, f in faults.items() if f} == {}


# ---------------------------------------------------------------------------
# one form for a fault in any input: <kind> <path>: [line N: ]...
# ---------------------------------------------------------------------------

# input kind: (its reader, the class of a missing or unreadable file, the
# class of a byte that is not UTF-8; None for a binary input)
INPUT_READERS = {
    "run config": (load_run_config, ConfigError, ConfigError),
    "synth spec": (load_synth_spec, ConfigError, ConfigError),
    "tickers file": (load_tickers, ConfigError, ConfigError),
    # by ticker, as the commands read it: a directory given itself is no file
    "price file": (lambda path: load_ohlcv(path.parent, "input"), DataError, ParseError),
    "prediction file": (load_predictions, DataError, ParseError),
    "metrics file": (_report_from_metrics, DataError, ParseError),
    "checkpoint": (load_params, DataError, None),
}


@pytest.mark.parametrize(
    "kind, fault",
    [
        (kind, fault)
        for kind, (_, _, not_utf8) in sorted(INPUT_READERS.items())
        for fault in ["missing", "directory"] + ["not-utf8"] * (not_utf8 is not None)
    ],
)
def test_every_input_names_its_kind_path_and_line(tmp_path, kind, fault):
    read, missing, not_utf8 = INPUT_READERS[kind]
    path = tmp_path / "input.csv"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        path.write_bytes(b"first line\nsecond \xff line\n")
    with pytest.raises(DvaError) as err:
        read(path)
    text = {
        "missing": "cannot read: No such file or directory",
        "directory": "cannot read: Is a directory",
        "not-utf8": "line 2: not UTF-8 text",
    }[fault]
    assert type(err.value) is (not_utf8 if fault == "not-utf8" else missing)
    assert str(err.value) == f"{kind} {path}: {text}"
