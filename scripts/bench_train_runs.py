"""Time training with R runs of one stock in one tape, in one process.

Prints one JSON object: for each R, the median ms per optimiser step (batch
draws, forward, backward and Adam, timed between consecutive Adam steps of
``train_runs``), the median ms of ``backward`` and of ``Adam.step`` alone,
the median s per epoch of ``train_runs`` (steps, the batch-norm refresh and
validation) and the tape entries per step, on a clean sinusoid stock with
the default ``TrainConfig``.

With ``--parent`` it times a checkout of the parent commit against this
tree instead: ``--pairs`` alternating pairs of fresh processes, one per
side, each as above; reported are the medians over pairs of each side's
figures and the pairs the change wins. With ``--perfbench-pairs N`` it also
runs ``perfbench/run.py`` on the workloads given by ``--workloads`` in both
checkouts, alternating, one seed per pair from ``--seed0``, as
``bench_portfolio.py`` does; both checkouts must sit at paths of equal
length. ``--pairs 0`` skips the in-process pairs, for a change that records
perfbench pairs alone.

Usage: PYTHONPATH=src python scripts/bench_train_runs.py [--runs 1 2 5] [--repeats 5]
       python scripts/bench_train_runs.py --parent PATH_TO_PARENT_CHECKOUT [--pairs 5]
           [--runs 1 2 5] [--repeats 3] [--perfbench-pairs 10]
           [--workloads train forecast] [--seconds 15] [--seed0 1001]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from pairing import compare, order, perfbench_pairs, spawn  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("ms_per_step", "backward_ms_per_step", "adam_ms_per_step", "s_per_epoch")


def machine() -> str:
    import numpy as np

    return (
        f"{platform.machine()}, {os.cpu_count()} CPUs, numpy {np.__version__}, BLAS on one thread"
    )


def worker(runs: list[int], repeats: int) -> dict:
    """Time ``train_runs`` with the ``dva`` on ``sys.path``; one JSON object."""
    import numpy as np

    from dva import training
    from dva.data import SynthSpec, build_dataset, synth_generate
    from dva.optim import Adam
    from dva.training import TrainConfig, train_runs

    prices, _ = synth_generate(
        SynthSpec(process="sinusoid", length=300, amplitude=0.9, period=10.0, start_price=1.0),
        seed=1,
    )
    cfg = TrainConfig(epochs=1)
    split = build_dataset(prices, cfg.t_in, cfg.t_out)

    stamps: list[float] = []
    adam_s: list[float] = []
    adam_step = Adam.step

    def stamped(self, grads):
        t0 = time.perf_counter()
        adam_step(self, grads)
        stamps.append(time.perf_counter())
        adam_s.append(stamps[-1] - t0)

    Adam.step = stamped
    entries: list[int] = []
    backward_s: list[float] = []
    backward = training.backward

    def counted(tape, loss, params=()):
        entries.append(len(tape))
        t0 = time.perf_counter()
        grads = backward(tape, loss, params)
        backward_s.append(time.perf_counter() - t0)
        return grads

    training.backward = counted
    out = {
        "machine": machine(),
        "train_windows": len(split.train),
        "batch_size": cfg.batch_size,
    }
    for r in runs:
        epochs, steps = [], []
        entries.clear()
        backward_s.clear()
        adam_s.clear()
        for _ in range(repeats):
            stamps.clear()
            t0 = time.perf_counter()
            train_runs(split, cfg, range(r))
            epochs.append(time.perf_counter() - t0)
            steps.extend(np.diff(stamps))  # one epoch: consecutive steps only
        out[f"R{r}"] = {
            "ms_per_step": round(1e3 * float(np.median(steps)), 3),
            "backward_ms_per_step": round(1e3 * float(np.median(backward_s)), 3),
            "adam_ms_per_step": round(1e3 * float(np.median(adam_s)), 3),
            "s_per_epoch": round(float(np.median(epochs)), 4),
            "tape_entries_per_step": int(np.median(entries)),
        }
    return out


def paired(trees: dict[str, Path], pairs: int, runs: list[int], repeats: int) -> dict:
    """Both sides' figures per R over alternating pairs of fresh processes."""
    args = ["--worker", "--repeats", str(repeats), "--runs", *map(str, runs)]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(pairs):
        for side in order(k):
            results[side].append(spawn(Path(__file__).resolve(), trees[side], args))
    out = {"pairs": pairs, "repeats": repeats}
    for r in runs:
        key = f"R{r}"
        row = {
            f"tape_entries_per_step_{side}": results[side][0][key]["tape_entries_per_step"]
            for side in ("parent", "change")
        }
        for metric in METRICS:
            row[metric] = compare(
                *([res[key][metric] for res in results[side]] for side in ("parent", "change")),
                "lower",
            )
        out[key] = row
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, nargs="+", default=[1, 2, 5])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--perfbench-pairs", type=int, default=0)
    ap.add_argument("--workloads", nargs="+", default=["train", "forecast"])
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--seed0", type=int, default=1001)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.runs, args.repeats)))
    elif args.parent is None:
        print(json.dumps(worker(args.runs, args.repeats), indent=2))
    else:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
        out = {"machine": machine(), "pairs": 0}
        if args.pairs:
            out.update(paired(trees, args.pairs, args.runs, args.repeats))
        if args.perfbench_pairs:
            out["perfbench"] = perfbench_pairs(
                trees, args.workloads, args.perfbench_pairs, args.seed0, args.seconds
            )
        print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
