"""Every function of ``src/dva`` runs under a ``dva`` command, or the
allowlist below names it with a reason.

``scripts/traffic.py`` runs a fixed mix of commands under ``sys.settrace``
and reports each function that the mix never called. A new function that no
command calls fails this test, and so does an allowlist entry that a
command now calls or that no longer exists: the list can only shrink.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAFFIC = ROOT / "scripts" / "traffic.py"

ALLOWLIST = {
    # error paths: every command of the mix succeeds
    "cli._fail": "reports a failed command on stderr",
    "errors.ConvergenceError.__init__": "raised when a solver does not converge",
    "errors.ParseError.__init__": "raised on an input line that does not parse",
    "errors.TrainingAbort.__init__": "raised on a non-finite training loss",
    "evaluation._read_rows": "names the bad line of a prediction file the column parser refuses",
    "portfolio._degenerate": "names a period whose realized returns are degenerate",
    "training._experiment_job.failed": "records a training run that failed",
    # reached by the benchmark's harness, not by a command
    "training.train_stock": "perfbench/tracing.py wraps it",
    "data.Windows.__getitem__": "perfbench/checks.py indexes a split's windows",
    "autodiff.Tape.__len__": "perfbench/tracing.py and bench_train_runs.py count tape entries",
}


def load_traffic():
    spec = importlib.util.spec_from_file_location("traffic", TRAFFIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def never_called(found: dict) -> set[str]:
    """``module.function`` of each function a traffic report lists as never
    called."""
    return {
        f"{module.removesuffix('.py')}.{name}"
        for module, functions in found.items()
        for name, lines in functions.items()
        if lines == "never called"
    }


def gate_faults(uncalled: set[str], allowlist: dict) -> list[str]:
    """What the gate refuses: a function no command calls that the allowlist
    does not name, and an allowlist entry for one that is called or gone."""
    return [
        f"{name}: no command calls it; delete it, or allowlist it with a reason"
        for name in sorted(uncalled - allowlist.keys())
    ] + [
        f"{name}: allowlisted, but a command calls it or it is gone"
        for name in sorted(allowlist.keys() - uncalled)
    ]


def test_every_function_runs_under_a_command_or_is_allowlisted():
    assert all(reason and "\n" not in reason for reason in ALLOWLIST.values())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TRAFFIC)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert gate_faults(never_called(json.loads(done.stdout)), ALLOWLIST) == []


def test_a_function_no_command_calls_fails_the_gate(tmp_path):
    module = tmp_path / "extra.py"
    module.write_text(
        "def used():\n"              # line 1
        "    return 1\n"
        "\n"
        "\n"
        "def unused():\n"            # line 5
        "    return 2\n"
        "\n"
        "\n"
        "class Box:\n"               # line 9
        "    def __len__(self):\n"
        "        return 0\n"
    )
    found = load_traffic().report(module, hit={1, 2, 5, 9, 10}, called={1})
    assert found == {"unused": "never called", "Box.__len__": "never called"}
    uncalled = never_called({"extra.py": found})
    allowed = {"extra.Box.__len__": "a harness counts with it"}
    assert gate_faults(uncalled, allowed) == [
        "extra.unused: no command calls it; delete it, or allowlist it with a reason"
    ]
    # an entry for a function that runs, or that is gone, fails too
    stale = dict(allowed, **{"extra.unused": "x", "extra.used": "y", "extra.gone": "z"})
    assert gate_faults(uncalled, stale) == [
        "extra.gone: allowlisted, but a command calls it or it is gone",
        "extra.used: allowlisted, but a command calls it or it is gone",
    ]
