"""Checkpoints, prediction files and synthetic inputs are written whole or
not at all."""

import datetime as dt
import errno
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dva.atomic
from dva.atomic import atomic_open
from dva.data import (
    FEATURE_DIM,
    SynthSpec,
    WindowPair,
    synth_generate,
    write_ohlcv,
    write_tickers,
    write_truth,
)
from dva.evaluation import load_predictions, write_predictions
from dva.model import ModelConfig, ModelParams, load_params, save_params

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


PRICES, R_TRUE = synth_generate(SynthSpec(length=30), seed=2)
WRITERS = {
    "ck.npz": write_checkpoint,
    "p.csv": write_prediction_file,
    "AAA.csv": lambda path: write_ohlcv(path, PRICES),
    "AAA.truth.csv": lambda path: write_truth(path, PRICES, R_TRUE),
    "tickers.txt": lambda path: write_tickers(path, ["AAA", "BBB"]),
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
