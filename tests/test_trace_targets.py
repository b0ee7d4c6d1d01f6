"""Every name the benchmark's trace mode wraps still exists, and is run.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``TARGETS`` with ``getattr``/``setattr``; a function deleted or renamed in
``dva`` would crash ``perfbench/run.py --trace 1`` at start-up, and one that
the commands no longer call through that name would read 0 in every trace.
"""

import functools
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SITES = [site for sites in tracing.TARGETS.values() for site in sites]


@pytest.mark.parametrize("path, attr", SITES, ids=[f"{p}.{a}" for p, a in SITES])
def test_trace_target_resolves(path, attr):
    assert callable(getattr(tracing._owner(path), attr, None))



def test_every_traced_name_is_reached(tmp_path, monkeypatch):
    # a span whose functions no command calls reads 0 in every trace; this
    # runs a tiny train -> predict -> portfolio with each site counting calls
    from dva.cli import main

    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, sites in tracing.TARGETS.items():
        for path, attr in sites:
            owner = tracing._owner(path)
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    data, spec = tmp_path / "data", tmp_path / "spec.json"
    wave = {"process": "sinusoid", "length": 120, "amplitude": 0.05, "period": 8.0}
    spec.write_text(json.dumps(
        {"schema_version": 1, "seed": 3, "tickers": {"AAA": wave, "BBB": dict(wave, phase=2.0)}}
    ))
    run = {
        "schema_version": 1, "data_dir": str(data), "tickers_file": str(data / "tickers.txt"),
        "out_dir": str(tmp_path / "out"), "runs": 1, "t_in": 8, "t_out": 4, "epochs": 1,
        "batch_size": 16, "channels": 4, "latent": 2, "se_reduction": 2, "energy_hidden": 6,
        "portfolio": {"lambda": 0.05, "gamma_grid": [0.5, 2.0]},
    }
    (tmp_path / "run.json").write_text(json.dumps(run))
    cfg = ["--config", str(tmp_path / "run.json")]
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", *cfg, "--jobs", "1"]) == 0
    assert main(["predict", *cfg, "--force"]) == 0
    assert main(["portfolio", *cfg]) == 0

    # train_stock waits for the benchmark to trace train_runs, which the
    # train command calls instead
    unreached = set(tracing.TARGETS) - set(calls) - {"training.train_stock"}
    assert not unreached, sorted(unreached)
