"""Time training with R runs of one stock in one tape, in one process.

Prints one JSON object: for each R, the median ms per optimiser step (batch
draws, forward, backward and Adam, timed between consecutive Adam steps of
``train_runs``), the median ms of ``backward`` and of ``Adam.step`` alone,
the median s per epoch of ``train_runs`` (steps, the batch-norm refresh and
validation) and the tape entries per step, on a clean sinusoid stock with
the default ``TrainConfig``.

Usage: PYTHONPATH=src python scripts/bench_train_runs.py [--runs 1 2 5] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from dva.data import SynthSpec, build_dataset, synth_generate  # noqa: E402
from dva import training  # noqa: E402
from dva.optim import Adam  # noqa: E402
from dva.training import TrainConfig, train_runs  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, nargs="+", default=[1, 2, 5])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

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
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, numpy {np.__version__},"
        " BLAS on one thread",
        "train_windows": len(split.train),
        "batch_size": cfg.batch_size,
    }
    for r in args.runs:
        cfgs = [replace(cfg, seed=s) for s in range(r)]
        epochs, steps = [], []
        entries.clear()
        backward_s.clear()
        adam_s.clear()
        for _ in range(args.repeats):
            stamps.clear()
            t0 = time.perf_counter()
            train_runs(split, cfgs)
            epochs.append(time.perf_counter() - t0)
            steps.extend(np.diff(stamps))  # one epoch: consecutive steps only
        out[f"R{r}"] = {
            "ms_per_step": round(1e3 * float(np.median(steps)), 3),
            "backward_ms_per_step": round(1e3 * float(np.median(backward_s)), 3),
            "adam_ms_per_step": round(1e3 * float(np.median(adam_s)), 3),
            "s_per_epoch": round(float(np.median(epochs)), 4),
            "tape_entries_per_step": int(np.median(entries)),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
