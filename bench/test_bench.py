"""Fast self-test of the benchmark, with no assertion on timings.

Runs every workload at a tiny size, checks the result line against
BENCHMARK.json, and shows that every output check rejects a deliberately
corrupted output, naming its workload and check.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "grid": wl.GridSize(n_days=20, n_seeds=1, max_epochs=4, patience=2),
    "variants": wl.VariantsSize(n_days=24, max_epochs=2, hidden_size=3,
                                n_compare=3),
    "forecast": wl.ForecastSize(n_segments=3, n_days=24, hidden_size=4),
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert set(TINY) == set(wl.WORKLOADS)


# per-layer metrics that must read above 0 (True) or exactly 0 (False)
LAYERS_RUN = {
    "grid": {"cells.gru-d.bwd_calls": True, "training.adam_calls": True,
             "timeseries.synthesize_ms": True, "experiments.jobs": True,
             "missingness.impute_simple_us": True,
             "cells.lstm.fwd_calls": False},
    "variants": {"cells.lstm.bwd_calls": True, "cells.dense.fwd_calls": True,
                 "network.gradient_check_ms": True,
                 "network.save_model_ms": True,
                 "network.load_model_ms": True,
                 "timeseries.ingest_csv_rows_per_s": True,
                 "training.epoch_ms.ffnn": True},
    "forecast": {"cells.gru-d.fwd_calls": True,
                 "missingness.impute_last_us": True,
                 "metrics.compute_metrics_us": True,
                 "cells.gru.bwd_calls": False, "training.adam_calls": False},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_result_line_schema(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=trace,
                     size=TINY[workload], runs_dir=tmp_path, log=io.StringIO())
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in line["metrics"].values())
    if trace:
        for name, ran in LAYERS_RUN[workload].items():
            assert (line["metrics"][name]["value"] > 0) == ran, name
    # the traced functions are the package's own again
    assert not any(hasattr(getattr(module, attr), "__wrapped__")
                   for module, attr, _, _ in tracing.TARGETS)
    assert not any(hasattr(fn, "__wrapped__")
                   for fn in wl.training.IMPUTATIONS.values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_rate_uses_every_unit(workload, tmp_path):
    """Every timed unit of a round counts in the rate, and the rate is the
    round's samples over their total time."""
    cls, _ = wl.WORKLOADS[workload]
    bench = cls(4, tmp_path, TINY[workload])
    rnd = bench.run_round()
    assert rnd.failed == 0 and rnd.units
    one_second_each = {unit: 1.0 for unit in rnd.units}
    if workload != "grid":
        assert bench.rate(one_second_each) == pytest.approx(
            rnd.samples / len(rnd.units))
    for unit in rnd.units:
        slower = {**one_second_each, unit: 2.0}
        assert bench.rate(slower) < bench.rate(one_second_each)


def rejects(check, fn, *args):
    with pytest.raises(wl.CheckFailed) as info:
        fn(*args)
    assert info.value.check == check
    assert str(info.value).startswith(f"workload {info.value.workload}: "
                                      f"check {check} failed")
    return info.value


def edit_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows = edit(rows) or rows
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def first_round(name, tmp_path):
    cls, _ = wl.WORKLOADS[name]
    bench = cls(5, tmp_path, TINY[name])
    rnd = bench.run_round()
    assert rnd.failed == 0
    bench.check(rnd)
    return bench, rnd


# --- grid ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    bench, _ = first_round("grid", tmp_path_factory.mktemp("grid"))
    return (bench.size, (bench.out / "results.csv").read_text(),
            (bench.out / "aggregates.csv").read_text())


def _set(row, **fields):
    row.update({k: str(v) for k, v in fields.items()})


GRID_CORRUPTIONS = {
    "one_row_per_job": lambda rows: rows[:-1],
    "finite_metrics": lambda rows: _set(rows[0], mape_percent="nan"),
    "mse_ge_mae_squared": lambda rows: _set(rows[0], mse=0.0),
    "epoch_bounds": lambda rows: _set(rows[0], epochs_run=5, best_epoch=5),
    "early_stop": lambda rows: _set(rows[0], epochs_run=2, best_epoch=1),
}


@pytest.mark.parametrize("check", sorted(GRID_CORRUPTIONS))
def test_grid_check_rejects_corrupted_results(grid, check):
    size, results, aggregates = grid
    bad = edit_csv(results, GRID_CORRUPTIONS[check])
    assert rejects(check, wl.check_grid, size, bad, aggregates,
                   None).workload == "grid"


def test_grid_rows_equal_one_run_benchmark(grid, tmp_path):
    """Job by job, the grid gives the rows of one `run_benchmark` call."""
    size, results, _ = grid
    config = wl.experiments.config_from_json(wl.Grid(5, tmp_path, size).doc)
    table = wl.experiments.run_benchmark(config, threads=1)
    wl.experiments.write_results_csv(table, tmp_path / "results.csv")
    assert (tmp_path / "results.csv").read_text() == results


def test_grid_check_rejects_corrupted_aggregates(grid):
    size, results, aggregates = grid
    bad = edit_csv(aggregates, lambda rows: _set(rows[0], mae_mean=1.0))
    rejects("aggregates", wl.check_grid, size, results, bad, None)


def test_grid_check_rejects_a_changed_rerun(grid):
    size, results, aggregates = grid
    wl.check_grid(size, results, aggregates, results)
    rejects("deterministic", wl.check_grid, size, results, aggregates,
            results.replace("\n", "\r\n", 1))


# --- variants -----------------------------------------------------------------

@pytest.fixture(scope="module")
def variants(tmp_path_factory):
    bench, rnd = first_round("variants", tmp_path_factory.mktemp("variants"))
    label, _, imputation, _, out = bench.jobs[0]
    texts = {name: (out / name).read_text() for name in
             ("results.csv", "loss_curves.csv", "model.json",
              "decay_curve.csv")}
    return bench, rnd.outputs[label], texts


def check_variant(bench, result, texts, first_model=None):
    wl.check_variant("gru-d", None, bench.size, result, texts,
                     bench.windows, first_model)


def _perturbed(model):
    model = copy.deepcopy(model)
    model.head_b[0] += 1e-9
    return model


VARIANT_RESULT_CORRUPTIONS = {
    "cli_exit": lambda r: {**r, "decay_exit": 1},
    "gradient_check": lambda r: {**r, "gradient_error": 2e-5},
    "reload_predictions": lambda r: {**r, "loaded": _perturbed(r["loaded"])},
}


@pytest.mark.parametrize("check", sorted(VARIANT_RESULT_CORRUPTIONS))
def test_variant_check_rejects_corrupted_result(variants, check):
    bench, result, texts = variants
    error = rejects(check, check_variant, bench,
                    VARIANT_RESULT_CORRUPTIONS[check](result), texts)
    assert error.workload == "variants"


def _gamma_above_one(rows):
    _set(rows[0], gamma_x=1.5)


def _gamma_off_formula(rows):
    _set(rows[-1], gamma_x=float(rows[-1]["gamma_x"]) * (1 + 1e-9))


VARIANT_TEXT_CORRUPTIONS = [
    ("loss_curve_rows", "loss_curves.csv", lambda rows: rows[:-1]),
    ("decay_curve", "decay_curve.csv", _gamma_above_one),
    ("decay_curve", "decay_curve.csv", _gamma_off_formula),
    ("decay_curve", "decay_curve.csv", lambda rows: rows[:-1]),
]


@pytest.mark.parametrize("check,name,edit", VARIANT_TEXT_CORRUPTIONS)
def test_variant_check_rejects_corrupted_file(variants, check, name, edit):
    bench, result, texts = variants
    bad = {**texts, name: edit_csv(texts[name], edit)}
    rejects(check, check_variant, bench, result, bad)


def test_variant_check_rejects_a_changed_rerun(variants):
    bench, result, texts = variants
    check_variant(bench, result, texts, texts["model.json"])
    rejects("deterministic", check_variant, bench, result, texts,
            texts["model.json"] + " ")


# --- forecast -----------------------------------------------------------------

@pytest.fixture(scope="module")
def forecast(tmp_path_factory):
    bench, rnd = first_round("forecast", tmp_path_factory.mktemp("forecast"))
    return bench, rnd.outputs


def _segment(outputs, **changes):
    """A copy of `outputs` whose first scored segment has `changes`."""
    seg = next(iter(outputs["scored"]))
    scored = dict(outputs["scored"])
    scored[seg] = {**scored[seg], **changes}
    return {**outputs, "scored": scored}, scored[seg]


def _first_missing(out):
    for k, w in enumerate(out["masked"]):
        idx = np.argwhere(w.m == 0.0)
        if len(idx):
            return k, tuple(idx[0])
    raise AssertionError("no missing entry in the tiny forecast")


def _with_window(out, key, k, **fields):
    windows = list(out[key])
    windows[k] = replace(windows[k], **fields)
    return windows


def corrupt_ingest(outputs):
    series = dict(outputs["series"])
    seg = next(iter(series))
    values = series[seg].values.copy()
    values[-1] += 1e-12
    series[seg] = replace(series[seg], values=values)
    return {**outputs, "series": series}


def corrupt_windows(outputs):
    _, out = _segment(outputs)
    return _segment(outputs, masked=_with_window(
        out, "masked", 0, y=out["masked"][0].y + 0.1))[0]


def corrupt_observed(outputs):
    _, out = _segment(outputs)
    k = next(k for k, w in enumerate(out["masked"]) if np.any(w.m == 1.0))
    w = out["masked"][k]
    x = np.where(w.m == 1.0, w.x + 0.01, w.x)
    return _segment(outputs, masked=_with_window(out, "masked", k, x=x))[0]


def corrupt_intervals(outputs):
    _, out = _segment(outputs)
    w = out["masked"][0]
    delta = w.delta.copy()
    delta[-1] += 1.0
    return _segment(outputs, masked=_with_window(out, "masked", 0,
                                                 delta=delta))[0]


def corrupt_stats(outputs):
    _, out = _segment(outputs)
    stats = replace(out["stats"], mean=out["stats"].mean * (1 + 1e-9))
    return _segment(outputs, stats=stats)[0]


def corrupt_imputer(outputs):
    _, out = _segment(outputs)
    k, idx = _first_missing(out)
    filled = [f.copy() for f in out["filled"]["last"]]
    filled[k][idx] += 1e-3
    return _segment(outputs, filled={**out["filled"], "last": filled})[0]


def corrupt_predictions(outputs):
    _, out = _segment(outputs)
    preds = list(out["predictions"]["gru-d"])
    preds[0] *= 1 + 1e-7
    return _segment(outputs, predictions={**out["predictions"],
                                          "gru-d": preds})[0]


def corrupt_evaluate(outputs):
    _, out = _segment(outputs)
    ev = replace(out["evaluate"]["simple"],
                 mae=out["evaluate"]["simple"].mae * (1 + 1e-7))
    return _segment(outputs, evaluate={**out["evaluate"], "simple": ev})[0]


FORECAST_CORRUPTIONS = {
    "ingest_segments": corrupt_ingest,
    "windows": corrupt_windows,
    "observed_unaltered": corrupt_observed,
    "intervals": corrupt_intervals,
    "train_stats": corrupt_stats,
    "imputers": corrupt_imputer,
    "predictions": corrupt_predictions,
    "evaluate": corrupt_evaluate,
}


@pytest.mark.parametrize("check", sorted(FORECAST_CORRUPTIONS))
def test_forecast_check_rejects_corrupted_output(forecast, check):
    bench, outputs = forecast
    wl.check_forecast(bench.segments, bench.tensors, outputs)
    bad = FORECAST_CORRUPTIONS[check](outputs)
    error = rejects(check, wl.check_forecast, bench.segments, bench.tensors,
                    bad)
    assert error.workload == "forecast"


def test_forecast_check_rejects_a_one_sided_rectifier(forecast):
    bench, outputs = forecast
    tensors = dict(bench.tensors["gru-d"])
    tensors["layers.0.b_decay_h"] = np.full_like(
        tensors["layers.0.b_decay_h"], 100.0)
    delta = np.array([[1.0], [4.0]])
    wl.check_rectifier(bench.tensors["gru-d"], np.array([[0.0], [30.0]]))
    rejects("rectifier_both_sides", wl.check_rectifier, tensors, delta)
