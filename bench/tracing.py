"""Spans around the package's public functions, for the traced run.

`patched(tracer)` swaps each traced function for a wrapper on its module
(and on every module or table that captured it at import), and puts the
originals back on exit. A span's self time is its duration minus the time
of the spans it caused. Spans are folded into per-name totals as they
close, because one round makes millions of cell spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass
from unittest import mock

from frictioncast import (cells, experiments, metrics, missingness, network,
                          timeseries, training)


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-name span totals plus counters tallied from traced results."""

    def __init__(self):
        self.spans: dict[str, SpanTotals] = {}
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span

    def span(self, name: str) -> SpanTotals:
        return self.spans.setdefault(name, SpanTotals())

    def wrap(self, name: str, fn, tally=None):
        """`fn` recording a span `name`; `tally(tracer, args, result, dur)`
        may add counters from the call's result."""
        totals = self.span(name)
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                totals.calls += 1
                totals.total_s += dur
                totals.self_s += dur - children[0]
                if stack:
                    stack[-1][0] += dur
            if tally is not None:
                tally(self, args, result, dur)
            return result
        return traced


def _tally_train(tracer: Tracer, args, result, dur: float) -> None:
    model, report = result
    variant = model.spec.variant
    tracer.counts["training.epochs"] += report.epochs_run
    tracer.counts["training.best_epochs"] += report.best_epoch
    tracer.counts[f"training.epochs.{variant}"] += report.epochs_run
    tracer.counts[f"training.train_s.{variant}"] += dur


def _tally_rows(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["timeseries.ingest_rows"] += sum(len(s.values)
                                                   for s in result.values())


def _tally_windows(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["timeseries.windows"] += len(result)


# (module, attribute, span name, tally); every traced function of the package
TARGETS = [
    (cells, "gru_step", "cells.gru.fwd", None),
    (cells, "gru_step_backward", "cells.gru.bwd", None),
    (cells, "grud_step", "cells.gru-d.fwd", None),
    (cells, "grud_step_backward", "cells.gru-d.bwd", None),
    (cells, "lstm_step", "cells.lstm.fwd", None),
    (cells, "lstm_step_backward", "cells.lstm.bwd", None),
    (cells, "dense_step", "cells.dense.fwd", None),
    (cells, "dense_step_backward", "cells.dense.bwd", None),
    (network, "forward", "network.forward", None),
    (network, "backward", "network.backward", None),
    (network, "gradient_check", "network.gradient_check", None),
    (network, "save_model", "network.save_model", None),
    (network, "load_model", "network.load_model", None),
    (training, "train", "training.train", _tally_train),
    (training, "evaluate", "training.evaluate", None),
    (training, "adam_step", "training.adam_step", None),
    (missingness, "impute_average", "missingness.impute_average", None),
    (missingness, "impute_last", "missingness.impute_last", None),
    (missingness, "impute_simple", "missingness.impute_simple", None),
    (missingness, "compute_intervals", "missingness.compute_intervals", None),
    (missingness, "empirical_mean", "missingness.empirical_mean", None),
    (timeseries, "ingest_csv", "timeseries.ingest_csv", _tally_rows),
    (timeseries, "window", "timeseries.window", _tally_windows),
    (timeseries, "inject_missing", "timeseries.inject_missing", None),
    (timeseries, "split", "timeseries.split", None),
    (timeseries, "synthesize", "timeseries.synthesize", None),
    (experiments, "run_single", "experiments.run_single", None),
    (experiments, "write_results_csv", "experiments.write_csv", None),
    (experiments, "write_aggregates_csv", "experiments.write_csv", None),
    (experiments, "export_loss_curves", "experiments.write_csv", None),
    (experiments, "write_decay_curve_csv", "experiments.write_csv", None),
    (metrics, "compute_metrics", "metrics.compute_metrics", None),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every call of the TARGETS through `tracer` while active."""
    modules = (cells, experiments, metrics, missingness, network, timeseries,
               training)
    with contextlib.ExitStack() as stack:
        for module, attr, name, tally in TARGETS:
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, tally)
            # Modules that bound the function by name at import time (such
            # as `training.compute_metrics`) and the `training.IMPUTATIONS`
            # table hold their own references to it.
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    stack.enter_context(
                        mock.patch.object(holder, attr, wrapper))
            for key, fn in training.IMPUTATIONS.items():
                if fn is original:
                    stack.enter_context(mock.patch.dict(
                        training.IMPUTATIONS, {key: wrapper}))
        yield tracer


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from `rounds` traced rounds: (value, unit) by name.

    A per-call figure of a function that never ran reads 0.
    """
    spans, counts = tracer.spans, tracer.counts

    def per_call(name, scale, field="total_s"):
        s = spans.get(name, SpanTotals())
        return getattr(s, field) * scale / s.calls if s.calls else 0.0

    def calls_per_round(name):
        return spans.get(name, SpanTotals()).calls / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for kind in ("gru", "gru-d", "lstm", "dense"):
        for way in ("fwd", "bwd"):
            name = f"cells.{kind}.{way}"
            out[f"{name}_us"] = (per_call(name, 1e6), "us")
            out[f"{name}_calls"] = (calls_per_round(name), "count")
    out["network.forward.self_us"] = (
        per_call("network.forward", 1e6, "self_s"), "us")
    out["network.backward.self_us"] = (
        per_call("network.backward", 1e6, "self_s"), "us")
    for name in ("gradient_check", "save_model", "load_model"):
        out[f"network.{name}_ms"] = (per_call(f"network.{name}", 1e3), "ms")
    out["training.adam_step_us"] = (per_call("training.adam_step", 1e6), "us")
    out["training.adam_calls"] = (calls_per_round("training.adam_step"),
                                  "count")
    out["training.train.self_s"] = (
        per_call("training.train", 1.0, "self_s"), "s")
    out["training.evaluate.self_ms"] = (
        per_call("training.evaluate", 1e3, "self_s"), "ms")
    out["training.epochs"] = (counts["training.epochs"] / rounds, "count")
    out["training.useful_epoch_ratio"] = (
        ratio(counts["training.best_epochs"], counts["training.epochs"]),
        "ratio")
    for variant in ("gru-d", "gru", "lstm", "ffnn"):
        out[f"training.epoch_ms.{variant}"] = (
            1e3 * ratio(counts[f"training.train_s.{variant}"],
                        counts[f"training.epochs.{variant}"]), "ms")
    for imp in ("average", "last", "simple"):
        out[f"missingness.impute_{imp}_us"] = (
            per_call(f"missingness.impute_{imp}", 1e6), "us")
    out["missingness.compute_intervals_us"] = (
        per_call("missingness.compute_intervals", 1e6), "us")
    out["missingness.compute_intervals_calls"] = (
        calls_per_round("missingness.compute_intervals"), "count")
    out["missingness.empirical_mean_ms"] = (
        per_call("missingness.empirical_mean", 1e3), "ms")
    ingest = spans.get("timeseries.ingest_csv", SpanTotals())
    out["timeseries.ingest_csv_rows_per_s"] = (
        ratio(counts["timeseries.ingest_rows"], ingest.total_s), "rows/s")
    out["timeseries.window_us"] = (
        1e6 * ratio(spans.get("timeseries.window", SpanTotals()).total_s,
                    counts["timeseries.windows"]), "us")
    out["timeseries.inject_missing_us"] = (
        per_call("timeseries.inject_missing", 1e6), "us")
    out["timeseries.split_ms"] = (per_call("timeseries.split", 1e3), "ms")
    out["timeseries.synthesize_ms"] = (
        per_call("timeseries.synthesize", 1e3), "ms")
    out["experiments.run_single.self_ms"] = (
        per_call("experiments.run_single", 1e3, "self_s"), "ms")
    out["experiments.jobs"] = (calls_per_round("experiments.run_single"),
                               "count")
    out["experiments.write_csv_ms"] = (
        per_call("experiments.write_csv", 1e3), "ms")
    out["metrics.compute_metrics_us"] = (
        per_call("metrics.compute_metrics", 1e6), "us")
    return out


def layer_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time of each module's spans as a share of the traced wall time;
    "untraced" is what no span covers (the benchmark's own code and the
    package's private helpers called from it)."""
    shares = Counter()
    for name, s in tracer.spans.items():
        shares[name.split(".")[0]] += s.self_s / wall_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(shares)
