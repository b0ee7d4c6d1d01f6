"""Spans around the program's layers, recorded from outside the program.

``install`` replaces each traced function at the names where its callers
look it up (``dva.training.total_loss``, ``dva.model.batch_norm``,
``dva.cli.backtest``, ...) with a wrapper that records a span
``[name, start, end, parent]`` in memory. ``summarise`` turns the spans and
counts of one or more commands into the per-layer metrics: inclusive and
self time per call, calls per command, tape entries per optimiser step and
the share of distinct covariances among graphical-lasso calls.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> the (module, attribute) pairs through which callers reach it.
# A module name ending in a class name patches the method on that class.
TARGETS = {
    "autodiff.backward": [("dva.training", "backward")],
    "autodiff.conv1d": [("dva.layers", "conv1d"), ("dva.model", "conv1d")],
    "autodiff.depthwise_conv1d": [("dva.layers", "depthwise_conv1d")],
    "layers.batch_norm": [("dva.model", "batch_norm")],
    "layers.separable_conv1d": [("dva.model", "separable_conv1d")],
    "layers.se_gate": [("dva.model", "se_gate")],
    "model.encode": [("dva.training", "encode")],
    "model.generate": [("dva.training", "generate")],
    "model.output_kl": [("dva.training", "output_kl")],
    "model.dsm_loss": [("dva.training", "dsm_loss")],
    "model.denoise_jump": [("dva.training", "denoise_jump")],
    "model.load_params": [("dva.cli", "load_params")],
    "model.save_params": [("dva.training", "save_params")],
    "training.train_stock": [("dva.training", "train_stock")],
    "training.make_batch": [("dva.training", "make_batch")],
    "training.total_loss": [("dva.training", "total_loss")],
    "training.refresh_norm_stats": [("dva.training", "refresh_norm_stats")],
    "training.evaluate_mse": [("dva.training", "evaluate_mse")],
    "training.predict": [("dva.training", "predict"), ("dva.cli", "predict")],
    "optim.adam_step": [("dva.optim.Adam", "step")],
    "data.load_ohlcv": [("dva.training", "load_ohlcv"), ("dva.cli", "load_ohlcv")],
    "data.build_dataset": [("dva.training", "build_dataset"), ("dva.cli", "build_dataset")],
    "evaluation.write_predictions": [
        ("dva.training", "write_predictions"),
        ("dva.cli", "write_predictions"),
    ],
    "evaluation.load_predictions": [("dva.portfolio", "load_predictions")],
    "portfolio.load_prediction_frames": [("dva.cli", "load_prediction_frames")],
    "portfolio.by_anchor": [("dva.portfolio.PredictionFrame", "by_anchor")],
    "portfolio.prediction_moments": [("dva.portfolio", "prediction_moments")],
    "portfolio.graphical_lasso": [("dva.portfolio", "graphical_lasso")],
    "portfolio.mean_variance_weights": [("dva.portfolio", "mean_variance_weights")],
    "portfolio.tune_gamma": [("dva.cli", "tune_gamma")],
    "portfolio.backtest": [("dva.cli", "backtest"), ("dva.portfolio", "backtest")],
}
ROOT = "cli.command"

# Per-layer metrics, as BENCHMARK.json lists them.
TIMED = [name for name in TARGETS if name != "portfolio.by_anchor"] + [ROOT]
SELF_TIMED = [
    "layers.separable_conv1d",
    "model.encode",
    "model.generate",
    "training.train_stock",
    "training.total_loss",
    "training.predict",
    "portfolio.load_prediction_frames",
    "portfolio.backtest",
    "portfolio.tune_gamma",
    ROOT,
]
CALLS = [
    "portfolio.by_anchor",
    "portfolio.graphical_lasso",
    "portfolio.mean_variance_weights",
]


class Tracer:
    """Spans and counts of one command, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sigmas: set[str] = set()

    def span(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct_sigmas": len(self.sigmas),
        }


def _count_tape(tracer: Tracer, args, kwargs) -> None:
    tape = args[0] if args else kwargs["tape"]
    tracer.counts["tape_entries"] += len(tape)


def _hash_sigma(tracer: Tracer, args, kwargs) -> None:
    sigma = np.ascontiguousarray(args[0] if args else kwargs["sigma"], dtype=np.float64)
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    tracer.sigmas.add(hashlib.sha1(sigma.tobytes() + repr(lam).encode()).hexdigest())


HOOKS = {"autodiff.backward": _count_tape, "portfolio.graphical_lasso": _hash_sigma}


def _owner(path: str):
    import importlib

    module, _, cls = path.rpartition(".")
    if cls[:1].isupper():
        return getattr(importlib.import_module(module), cls)
    return importlib.import_module(path)


def install(tracer: Tracer) -> None:
    """Wrap every target, once per name through which it is reached."""
    for name, sites in TARGETS.items():
        for path, attr in sites:
            owner = _owner(path)
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), HOOKS.get(name)))


def summarise(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traces of whole commands."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    distinct = 0
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - covered
        counts.update(dump["counts"])
        distinct += dump["distinct_sigmas"]
    commands = max(len(dumps), 1)

    def per_call(total: dict, name: str) -> float:
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    metrics = {f"{n}_ms": per_call(inclusive, n) for n in TIMED}
    metrics.update({f"{n}_self_ms": per_call(own, n) for n in SELF_TIMED})
    metrics.update({f"{n}_calls": calls[n] / commands for n in CALLS})
    steps = calls["optim.adam_step"]
    metrics["training.steps"] = steps / commands
    metrics["autodiff.tape_entries"] = counts["tape_entries"] / steps if steps else 0.0
    glasso = calls["portfolio.graphical_lasso"]
    metrics["portfolio.graphical_lasso_distinct_share"] = distinct / glasso if glasso else 0.0
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every metric ``summarise`` returns."""
    units = {f"{n}_ms": "ms" for n in TIMED}
    units.update({f"{n}_self_ms": "ms" for n in SELF_TIMED})
    units.update({f"{n}_calls": "count" for n in CALLS})
    units.update(
        {
            "training.steps": "count",
            "autodiff.tape_entries": "count",
            "portfolio.graphical_lasso_distinct_share": "share",
        }
    )
    return units
