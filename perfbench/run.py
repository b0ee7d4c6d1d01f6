"""Benchmark for dva: one workload, one seed, one line of JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

The run synthesises the workload's inputs from ``--seed`` (the set-up,
repeated and timed), then runs the workload's ``dva`` command through
``dva.cli.main`` again and again for ``--seconds`` seconds, each time in a
fresh process with the BLAS thread count pinned to 1, and checks every
command's outputs. The rounds stop at the one that ends nearest the
deadline. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (means or medians
over the run); with ``--trace 1`` every traced function records spans and
the metrics are the per-layer ones. Each round's times go to standard
error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT_S = 120
MIN_ROUNDS = 3


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "items_per_s": "items/s"}


def per_layer_units() -> dict[str, str]:
    import tracing

    units = tracing.metric_units()
    units.update({"work.items": "count", "portfolio.precision_nonzero_share": "share"})
    return units


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(work: Path, src: Path, req: dict, tag: str) -> dict:
    """Run child.py on one request in a fresh process and return its result."""
    req = dict(req, result=str(work / f"{tag}.result.json"))
    req_path = work / f"{tag}.request.json"
    req_path.write_text(json.dumps(req))
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    log = work / f"{tag}.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(req_path)],
                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=work,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from None
    result = Path(req["result"])
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    return json.loads(result.read_text())


def measure(workload, args, work: Path, src: Path, trace_dir: Path) -> dict:
    import checks
    import tracing

    base = {"workload": workload.name, "seed": args.seed}
    first = run_child(
        work, src, dict(base, argv=None, trace=None, dir=str(work / "inputs"), reps=1, keep=True),
        "setup",
    )
    d = work / "inputs" / "rep0"
    setup_times = first["setup_times"]

    attempted = failed = 0
    correct = True
    elapsed, rss, traces = [], [], []
    digests: set[str] = set()
    facts: dict = {}
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        attempted += 1
        trace = work / f"trace{attempted}.json" if args.trace else None
        res = run_child(
            work, src,
            dict(base, argv=workload.argv(d), trace=str(trace) if trace else None,
                 dir=str(work / f"round{attempted}"), keep=False,
                 reps=0 if args.trace else workload.setup_reps),
            f"round{attempted}",
        )
        setup_times += res["setup_times"]
        if res["code"] != 0:
            failed += 1
        else:
            elapsed.append(res["elapsed"])
            rss.append(res["maxrss_kib"] / 1024.0)
            print(
                f"round {attempted}: command {res['elapsed']:.4f} s, set-up "
                + " ".join(f"{t:.4f}" for t in res["setup_times"]) + " s",
                file=sys.stderr,
            )
            if trace:
                traces.append(json.loads(trace.read_text()))
            # the first outputs are checked in full; later commands must
            # write the same bytes
            outputs = checks.digest(workload.outputs(d))
            if not digests:
                try:
                    facts = workload.check(d)
                except checks.CheckFailed as err:
                    print(f"{workload.name}: check failed: {err}", file=sys.stderr)
                    correct = False
                    break
            digests.add(outputs)
        # stop where the run ends nearest its deadline: before a round that
        # would overrun it by more than half its length
        now = time.monotonic()
        if attempted >= MIN_ROUNDS and now + (now - start) / attempted / 2 >= deadline:
            break
    if len(digests) > 1:
        print(f"{workload.name}: outputs differ between commands", file=sys.stderr)
        correct = False
    if not elapsed:
        raise BenchError(f"{workload.name}: no command succeeded")

    if args.trace:
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{workload.name}-s{args.seed}.json").write_text(json.dumps(traces))
        units = per_layer_units()
        values = tracing.summarise(traces)
        values["work.items"] = workload.items()
        values["portfolio.precision_nonzero_share"] = facts.get("precision_nonzero_share", 0.0)
    else:
        # the mean, not the median: the host's speed switches between
        # phases within a run, and the median of a two-phase sample jumps
        # to whichever phase holds more than half of it
        wall = statistics.fmean(elapsed)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(rss),
            "items_per_s": workload.items() / wall,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    # pinned before this process imports numpy for the checks
    os.environ.update(PINNED_ENV)
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    root = Path.cwd()
    src = root / "src"
    if not (src / "dva" / "cli.py").is_file():
        print(f"no dva sources under {src}: run from the root of a dva checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args, work, src, root / ".perfbench_traces")
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
