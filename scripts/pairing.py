"""Parent-against-change pairing shared by the benchmark scripts.

Each side runs in its own process from its own source tree, and the sides
alternate which goes first: the parent on even pair indices, the change on
odd ones. ``perfbench_pairs`` runs ``perfbench/run.py`` the same way, one
seed per pair, and summarises each end-to-end metric by its median and
quartiles per side and the pairs the change wins; it takes the two trees
only at resolved paths of equal length.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("setup_s", "lower"), ("wall_s", "lower"), ("peak_rss_mb", "lower"),
              ("items_per_s", "higher"))


def order(k: int) -> tuple[str, str]:
    """The sides of pair k in the order they run."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def spawn(script: Path, tree: Path, args: list[str]) -> dict:
    """Run ``script`` with ``args`` against ``tree``'s sources, BLAS on one
    thread; the last line of its output, parsed as JSON."""
    env = dict(os.environ, **PINNED, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> list[float]:
    """[median, first quartile, third quartile], rounded to 5 places."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(med, 5), round(q1, 5), round(q3, 5)]


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' median and quartiles, the ratio of the medians and the
    pairs the change wins."""
    sign = 1 if better == "lower" else -1
    return {
        "better": better,
        "parent_median_q1_q3": quartiles(parent),
        "change_median_q1_q3": quartiles(change),
        "change_over_parent_median": round(statistics.median(change) / statistics.median(parent), 4),
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench_pairs(
    trees: dict[str, Path], workloads: list[str], pairs: int, seed0: int, seconds: int
) -> dict:
    """``pairs`` alternating perfbench runs per workload, seeds ``seed0``,
    ``seed0 + 1``, ...: every run and a summary per workload. The trees'
    resolved paths must be of equal length: ``peak_rss_mb`` moves with the
    length of the checkout's path by more than its bound."""
    paths = {side: str(tree.resolve()) for side, tree in trees.items()}
    if len({len(path) for path in paths.values()}) > 1:
        raise ValueError(
            "perfbench pairs need checkouts at paths of equal length, got "
            + " and ".join(f"{side} {path} ({len(path)})" for side, path in paths.items())
        )
    runs, summary = [], {}
    for w in workloads:
        for k in range(pairs):
            for side in order(k):
                result = perfbench(trees[side], w, seed0 + k, seconds)
                runs.append({"side": side, "workload": w, "seed": seed0 + k,
                             "first": order(k)[0], "result": result})
        mine = [r for r in runs if r["workload"] == w]
        summary[w] = {"correct": all(r["result"]["correct"] for r in mine)}
        for metric, better in END_TO_END:
            values = {
                side: [r["result"]["metrics"][metric]["value"] for r in mine if r["side"] == side]
                for side in ("parent", "change")
            }
            summary[w][metric] = compare(values["parent"], values["change"], better)
    return {"seconds": seconds, "summary": summary, "pairs": runs}
