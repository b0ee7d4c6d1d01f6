"""The small synthetic pipeline writes the artifacts it wrote when the
digests in ``artifact_digests.json`` were recorded, byte for byte.

The run is ``scripts/same_artifacts.py``'s: ``run_synthetic_pipeline.py``
with its ``SMALL`` settings and a relative work directory, every file
hashed but ``run_info.json``. A change that moves floats or artifacts
fails here until it records new digests, with ``python
tests/test_artifact_digests.py``, and says why in CHANGES.md. The last
bits depend on numpy's version and the CPU, so on a machine unlike the
recorded one the test skips, naming both.
"""

import importlib.util
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"


def load_same_artifacts():
    path = ROOT / "scripts" / "same_artifacts.py"
    spec = importlib.util.spec_from_file_location("same_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    here = {"numpy": np.__version__, "machine": platform.machine()}
    there = {k: recorded[k] for k in here}
    if here != there:
        pytest.skip(f"digests recorded with {there}; this machine runs {here}")
    digests = load_same_artifacts().run_pipeline(ROOT, tmp_path)
    want = recorded["artifacts"]
    differ = sorted(k for k in want.keys() | digests.keys() if want.get(k) != digests.get(k))
    assert differ == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = load_same_artifacts().run_pipeline(ROOT, Path(tmp))
    record = {"numpy": np.__version__, "machine": platform.machine(), "artifacts": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
