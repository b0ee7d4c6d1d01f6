"""One benchmark round in a fresh process: one timed ``dva`` command,
optionally traced, then the workload's set-up, timed and repeated.

Set-up repetitions ride along with every command, so that ``setup_s`` samples
the machine over the whole run rather than over its first seconds.

Usage: python3 perfbench/child.py <request.json>

The result is written as JSON to the request's ``result`` path, so that
whatever ``dva`` prints cannot mix with it.
``run.py`` starts this process with the BLAS thread count pinned to 1 and
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path


def time_setups(req: dict, main) -> list[float]:
    """Build the workload's inputs ``reps`` times into fresh directories
    under ``req["dir"]``; return the seconds each took."""
    from workloads import WORKLOADS

    workload = WORKLOADS[req["workload"]]
    times = []
    for k in range(req["reps"]):
        d = Path(req["dir"]) / f"rep{k}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(main, d, req["seed"])
        times.append(time.perf_counter() - start)
        if not req["keep"]:
            shutil.rmtree(d)
    return times


def run(req: dict) -> dict:
    """Time the command in ``req["argv"]`` (if any), optionally traced, then
    the set-up repetitions. Peak RSS is read before the set-ups run."""
    from dva.cli import main

    result = {}
    if req["argv"]:
        timed = main
        tracer = None
        if req["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            timed = tracer.span(tracing.ROOT, main)
        start = time.perf_counter()
        result["code"] = timed(req["argv"])
        result["elapsed"] = time.perf_counter() - start
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            Path(req["trace"]).write_text(json.dumps(tracer.dump()))
    result["setup_times"] = time_setups(req, main)
    return result


def main(argv: list[str]) -> int:
    req = json.loads(Path(argv[0]).read_text())
    Path(req["result"]).write_text(json.dumps(run(req)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
