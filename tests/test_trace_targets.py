"""Every name the benchmark's trace mode wraps still exists.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``TARGETS`` with ``getattr``/``setattr``; a function deleted or renamed in
``dva`` would crash ``perfbench/run.py --trace 1`` at start-up.
"""

import importlib.util
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

