#!/usr/bin/env python3
"""Check that another source tree writes the same artifacts as this one.

Runs ``scripts/run_synthetic_pipeline.py`` with small settings from the
tree given by ``--parent``, then from this tree, each with the relative
work directory ``work``: the JSON artifacts record the paths they were
given, and the run-config hash covers them, so a relative path keeps both
free of where the run happened. Every file a run leaves is hashed (sha256)
except ``run_info.json``, the timing sidecar. Prints the files that differ,
or exist on one side only, as one JSON line, and exits 1 if any do.

Example:
    python3 scripts/same_artifacts.py --parent ../dva-parent
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SMALL = ["--tickers", "2", "--length", "200", "--runs", "2", "--epochs", "2", "--seed", "3"]


def run_pipeline(tree: Path, root: Path) -> dict[str, str]:
    """sha256 of every file the pipeline of ``tree``, run in ``root``, writes
    under ``root / "work"``, keyed by path relative to it, ``run_info.json``
    left out."""
    work = root / "work"
    if work.exists():
        shutil.rmtree(work)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    script = tree / "scripts" / "run_synthetic_pipeline.py"
    done = subprocess.run(
        [sys.executable, str(script), "--workdir", "work", *SMALL],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"the pipeline of {tree} exited {done.returncode}")
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.name != "run_info.json"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the other source tree")
    args = parser.parse_args()

    root = Path(tempfile.mkdtemp(prefix="same_artifacts_"))
    try:
        parent = run_pipeline(Path(args.parent).resolve(), root)
        this = run_pipeline(HERE, root)
    finally:
        shutil.rmtree(root)
    differ = sorted(k for k in parent.keys() | this.keys() if parent.get(k) != this.get(k))
    print(json.dumps({"files": len(this), "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
