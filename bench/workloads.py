"""The benchmark's workloads: inputs made from a seed, one timed round of
calls into the package, and checks of each round's outputs.

A workload object is built once per process (the set-up: input generation
and nothing else) and then runs whole rounds of the same operations until
the run's time is up. Every check failure names its workload and check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference
from frictioncast import (cli, experiments, missingness, network, timeseries,
                          training)

T = 7  # window length of every workload, the package's default


class CheckFailed(Exception):
    def __init__(self, workload: str, check: str, detail: str):
        super().__init__(f"workload {workload}: check {check} failed: {detail}")
        self.workload = workload
        self.check = check


def require(ok: bool, workload: str, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(workload, check, detail)


def close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1e-300)))


def same(a, b) -> bool:
    """Bitwise-equal arrays, NaN equal to NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a)
                                                          & np.isnan(b))))


@dataclass
class Round:
    outputs: object
    attempted: int
    failed: int
    samples: int  # training samples (grid, variants) or scored windows
    units: dict[str, float]  # seconds of each timed unit of the round


def timed(units: dict[str, float], key: str, fn, *args, **kwargs):
    """Call `fn` and record its wall time as unit `key` of the round."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        units[key] = time.perf_counter() - start


def n_train(n_windows: int) -> int:
    """Training-split size under the 7:2:1 rule (round half up)."""
    return math.floor(0.7 * n_windows + 0.5)


def failed_operation(workload: str) -> None:
    print(f"workload {workload}: operation failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def friction_series(rng: np.random.Generator, days: np.ndarray) -> np.ndarray:
    """A friction-like daily series: a base level, a winter dip, multi-day
    weather spells and measurement noise, clipped to [0.05, 1]."""
    base = rng.uniform(0.6, 0.85)
    depth = rng.uniform(0.2, 0.5)
    center = rng.uniform(0.3, 0.7) * days[-1]
    width = rng.uniform(0.1, 0.25) * (days[-1] + 1)
    spells = np.zeros(len(days))
    for t in range(1, len(days)):
        spells[t] = 0.8 * spells[t - 1] + 0.05 * rng.standard_normal()
    values = (base - depth * np.exp(-0.5 * ((days - center) / width) ** 2)
              + spells + 0.02 * rng.standard_normal(len(days)))
    return np.clip(values, 0.05, 1.0)


def write_series_csv(path: Path, segments: dict, rng) -> None:
    """`segment_id,day_index,friction` rows in shuffled order; values are
    written with repr, so they read back bit for bit."""
    rows = [(seg, day, val) for seg, (days, values) in segments.items()
            for day, val in zip(days, values)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["segment_id", "day_index", "friction"])
        for i in rng.permutation(len(rows)):
            seg, day, val = rows[i]
            w.writerow([seg, repr(float(day)), repr(float(val))])


def check_results_rows(workload: str, rows: list[dict], expected_keys: set,
                       max_epochs: int, patience: int | None) -> None:
    """`results.csv` rows: one per job, finite metrics with mse >= mae^2,
    and epoch counts that an early stop with `patience` can produce."""
    keys = [(r["model"], r["imputation"], float(r["missing_rate"]),
             int(r["seed"])) for r in rows]
    require(len(keys) == len(set(keys)) and set(keys) == expected_keys,
            workload, "one_row_per_job",
            f"rows {sorted(keys)} != jobs {sorted(expected_keys)}")
    for r in rows:
        mae, mse, mape = (float(r[k]) for k in ("mae", "mse", "mape_percent"))
        epochs, best = int(r["epochs_run"]), int(r["best_epoch"])
        where = f"row {r['model']}+{r['imputation']} seed {r['seed']}"
        require(all(map(math.isfinite, (mae, mse, mape))), workload,
                "finite_metrics", f"{where}: mae {mae} mse {mse} mape {mape}")
        require(mse >= mae * mae * (1.0 - 1e-12), workload,
                "mse_ge_mae_squared",
                f"{where}: mse {mse!r} < mae^2 {mae * mae!r}")
        require(1 <= best <= epochs <= max_epochs, workload, "epoch_bounds",
                f"{where}: best {best}, run {epochs}, max {max_epochs}")
        if patience is not None:
            require(epochs == max_epochs or epochs - best == patience,
                    workload, "early_stop",
                    f"{where}: stopped at {epochs} with best {best}, "
                    f"patience {patience}, max {max_epochs}")


# --- grid ---------------------------------------------------------------------

@dataclass(frozen=True)
class GridSize:
    n_days: int = 20
    n_seeds: int = 3
    max_epochs: int = 80
    patience: int = 10


GRID_MODELS = [{"variant": "gru-d"},
               {"variant": "gru", "imputation": "average"},
               {"variant": "gru", "imputation": "last"},
               {"variant": "gru", "imputation": "simple"}]


class Grid:
    """The paper's headline comparison in criterion 7's shape, fewer seeds.

    The grid runs job by job through `experiments.run_single`, the function
    `run_benchmark` maps over its jobs, so that each job is a timed unit;
    the rows are those one `run_benchmark` call over all four models gives.
    Where each job stops early is a property of the seed, and a gru-d epoch
    costs about 1.6 gru epochs, so the plain samples per second would move
    with the seed's mix of gru-d and gru epochs. The rate weights the
    shapes as the grid does, one gru-d job per three gru jobs (see `rate`).
    """

    name = "grid"

    def __init__(self, seed: int, run_dir: Path, size: GridSize = GridSize()):
        self.size = size
        self.doc = {
            "data": {"synth": {"n_days": size.n_days}},
            "T": T,
            "models": GRID_MODELS,
            "missing_rates": [0.8],
            "n_seeds": size.n_seeds,
            "hidden_size": 8,
            "train": {"learning_rate": 3e-3, "max_epochs": size.max_epochs,
                      "patience": size.patience},
            "seed": seed,
        }
        self.config_path = run_dir / "grid.json"
        self.config_path.write_text(json.dumps(self.doc, indent=1))
        self.out = run_dir / "grid_out"
        self.out.mkdir()
        self.jobs = len(GRID_MODELS) * size.n_seeds
        self.n_train = n_train(size.n_days - T)
        self.epochs: dict[str, int] = {}  # epochs run by each job's unit
        self.first_results: str | None = None

    def run_round(self) -> Round:
        units, rows = {}, []
        try:
            with open(self.config_path, encoding="utf-8") as f:
                config = experiments.config_from_json(json.load(f))
            for entry in config.models:
                for rate in config.missing_rates:
                    for s in range(config.n_seeds):
                        key = f"{entry.label}/{rate}/{s}"
                        row = timed(units, key, experiments.run_single,
                                    config, entry, rate, s)[0]
                        self.epochs[key] = row.epochs_run
                        rows.append(row)
            table = experiments.ResultsTable(
                sorted(rows, key=experiments.ResultRow.sort_key))
            timed(units, "write_csv", self._write, table)
        except Exception:
            failed_operation(self.name)
            return Round(None, self.jobs, self.jobs, 0, units)
        epochs = sum(r.epochs_run for r in table.rows)
        return Round(self.out, self.jobs, 0, epochs * self.n_train, units)

    def _write(self, table) -> None:
        experiments.write_results_csv(table, self.out / "results.csv")
        experiments.write_aggregates_csv(table, self.out / "aggregates.csv")

    def rate(self, seconds: dict[str, float]) -> float:
        """Training samples per second at the grid's mix of shapes:
        seconds per sample of each shape (gru-d; gru with its imputers),
        weighted by the shape's share of the jobs, plus the CSV writers'
        seconds spread over all samples."""
        per_sample = seconds["write_csv"] / (sum(self.epochs.values())
                                             * self.n_train)
        for shape in ("gru-d", "gru+"):
            keys = [k for k in self.epochs if k.startswith(shape)]
            per_sample += (len(keys) / len(self.epochs)
                           * sum(seconds[k] for k in keys)
                           / (sum(self.epochs[k] for k in keys)
                              * self.n_train))
        return 1.0 / per_sample

    def check(self, rnd: Round) -> None:
        if rnd.outputs is None:
            return
        results = (self.out / "results.csv").read_text(encoding="utf-8")
        aggregates = (self.out / "aggregates.csv").read_text(encoding="utf-8")
        check_grid(self.size, results, aggregates, self.first_results)
        self.first_results = self.first_results or results


def check_grid(size: GridSize, results: str, aggregates: str,
               first_results: str | None) -> None:
    rows = list(csv.DictReader(io.StringIO(results)))
    expected = {(m["variant"], m.get("imputation", "none"), 0.8, s)
                for m in GRID_MODELS for s in range(size.n_seeds)}
    check_results_rows("grid", rows, expected, size.max_epochs, size.patience)
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r["model"], r["imputation"]), []).append(
            float(r["mae"]))
    aggs = list(csv.DictReader(io.StringIO(aggregates)))
    require(len(aggs) == len(groups), "grid", "aggregates",
            f"{len(aggs)} aggregate rows for {len(groups)} configs")
    for a in aggs:
        maes = groups.get((a["model"], a["imputation"]), [])
        require(int(a["n_seeds"]) == len(maes) == size.n_seeds
                and close(float(a["mae_mean"]), np.mean(maes), 1e-12),
                "grid", "aggregates",
                f"{a['model']}+{a['imputation']}: n_seeds {a['n_seeds']}, "
                f"mae_mean {a['mae_mean']} vs rows {maes}")
    require(first_results is None or results == first_results, "grid",
            "deterministic", "results.csv differs from the first round's")


# --- variants -----------------------------------------------------------------

@dataclass(frozen=True)
class VariantsSize:
    n_days: int = 48
    max_epochs: int = 8
    hidden_size: int = 8
    n_compare: int = 16  # windows on which reloaded predictions are compared


# (variant, imputation); the three imputers are spread over the baselines
VARIANT_JOBS = [("gru-d", None), ("gru", "simple"), ("lstm", "last"),
                ("ffnn", "average")]
RATE = 0.8
DELTA_MAX = 35.0  # the decay-curve command's default range


class Variants:
    """One `frictioncast train` job per cell kind, each with its checks."""

    name = "variants"

    def __init__(self, seed: int, run_dir: Path,
                 size: VariantsSize = VariantsSize()):
        self.size = size
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        days = np.arange(size.n_days, dtype=np.float64)
        self.values = friction_series(rng, days)
        csv_path = run_dir / "variants.csv"
        write_series_csv(csv_path, {"road-0": (days, self.values)}, rng)
        self.jobs = []
        for variant, imputation in VARIANT_JOBS:
            label = variant if imputation is None else f"{variant}+{imputation}"
            out = run_dir / label
            out.mkdir()
            entry = {"variant": variant}
            if imputation is not None:
                entry["imputation"] = imputation
            doc = {"data": {"csv": str(csv_path)}, "T": T, "models": [entry],
                   "missing_rates": [RATE], "hidden_size": size.hidden_size,
                   "train": {"max_epochs": size.max_epochs,
                             "patience": size.max_epochs - 1}}
            config = out / "config.json"
            config.write_text(json.dumps(doc, indent=1))
            self.jobs.append((label, variant, imputation, config, out))
        # masked windows for the gradient check and the reload comparison
        starts = rng.choice(size.n_days - T, size.n_compare, replace=False)
        s = np.tile(np.arange(T, dtype=np.float64), (size.n_compare, 1))
        m = (rng.random((size.n_compare, T, 1)) >= RATE).astype(np.float64)
        x = np.stack([self.values[i:i + T, None] for i in starts])
        self.windows = [
            timeseries.TimeSeriesSample(
                x=np.where(m[k] > 0.5, x[k], np.nan), s=s[k], m=m[k],
                delta=reference.intervals(s[k:k + 1], m[k:k + 1])[0],
                y=float(self.values[i + T]))
            for k, i in enumerate(starts)]
        self.n_train = n_train(size.n_days - T)
        self.first_models: dict[str, str] = {}

    def run_round(self) -> Round:
        outputs, units, failed = {}, {}, 0
        for label, variant, imputation, config, out in self.jobs:
            try:
                outputs[label] = self._job(label, variant, imputation, config,
                                           out, units)
            except Exception:
                failed_operation(self.name)
                failed += 1
        epochs = self.size.max_epochs * (len(self.jobs) - failed)
        return Round(outputs, len(self.jobs), failed, epochs * self.n_train,
                     units)

    def rate(self, seconds: dict[str, float]) -> float:
        samples = self.size.max_epochs * len(self.jobs) * self.n_train
        return samples / sum(seconds.values())

    def _job(self, label, variant, imputation, config, out, units) -> dict:
        argv = ["train", "--config", str(config), "--out", str(out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(sys.stderr), kept_models() as saved:
            result = timed(units, f"train:{label}", self._train, variant,
                           argv, out)
        result["trained"] = saved[-1]
        model = network.load_model(out / "model.json")
        impute = None if imputation is None else getattr(
            missingness, f"impute_{imputation}")
        sample = prepared(self.windows[0], model.train_stats, impute)
        result["gradient_error"] = network.gradient_check(model, sample)
        result["loaded"] = model
        return result

    @staticmethod
    def _train(variant, argv, out) -> dict:
        result = {"train_exit": cli.main(argv)}
        if variant == "gru-d":
            result["decay_exit"] = cli.main(
                ["decay-curve", "--model", str(out / "model.json"),
                 "--out", str(out)])
        return result

    def check(self, rnd: Round) -> None:
        for label, variant, imputation, config, out in self.jobs:
            if label not in rnd.outputs:
                continue
            result = rnd.outputs[label]
            texts = {name: (out / name).read_text(encoding="utf-8")
                     for name in ("results.csv", "loss_curves.csv",
                                  "model.json")}
            if variant == "gru-d":
                texts["decay_curve.csv"] = (out / "decay_curve.csv").read_text(
                    encoding="utf-8")
            check_variant(label, imputation, self.size, result, texts,
                          self.windows, self.first_models.get(label))
            self.first_models.setdefault(label, texts["model.json"])


@contextlib.contextmanager
def kept_models():
    """Keep each model the CLI saves, to compare with the reloaded file."""
    saved = []
    save = network.save_model

    def save_and_keep(model, path):
        saved.append(model)
        return save(model, path)

    network.save_model = save_and_keep
    try:
        yield saved
    finally:
        network.save_model = save


def prepared(sample, stats, impute):
    """The window as the model takes it: raw for gru-d (`impute` None), else
    imputed with the model's frozen training statistics."""
    if impute is None:
        return sample
    ones = np.ones_like(sample.m)
    return replace(sample, x=impute(sample.view(), stats), m=ones,
                   delta=reference.intervals(sample.s[None], ones[None])[0])


def check_variant(label: str, imputation, size: VariantsSize, result: dict,
                  texts: dict, windows, first_model: str | None) -> None:
    w = "variants"
    for step in ("train_exit", "decay_exit"):
        require(result.get(step, 0) == 0, w, "cli_exit",
                f"{label}: {step} {result.get(step)}")
    err = result["gradient_error"]
    require(err < 1e-5, w, "gradient_check",
            f"{label}: worst relative error {err!r} >= 1e-5")
    rows = list(csv.DictReader(io.StringIO(texts["results.csv"])))
    variant = label.split("+")[0]
    check_results_rows(w, rows, {(variant, imputation or "none", RATE, 0)},
                       size.max_epochs, None)
    curve = list(csv.DictReader(io.StringIO(texts["loss_curves.csv"])))
    require([int(r["epoch"]) for r in curve]
            == list(range(1, size.max_epochs + 1))
            and all(math.isfinite(float(r[k])) for r in curve
                    for k in ("train_loss", "val_loss")),
            w, "loss_curve_rows",
            f"{label}: {len(curve)} loss-curve rows for "
            f"{size.max_epochs} epochs")
    trained, loaded = result["trained"], result["loaded"]
    stats = trained.train_stats
    impute = None if imputation is None else reference.IMPUTERS[imputation]
    for k, sample in enumerate(windows):
        if impute is not None:
            filled = impute(sample.x[None], sample.m[None], sample.delta[None],
                            stats.mean, stats.max_interval)[0]
            sample = replace(sample, x=filled)
        a = network.forward(trained, sample)[0]
        b = network.forward(loaded, sample)[0]
        require(a == b, w, "reload_predictions",
                f"{label}: window {k}: in-memory {a!r} vs reloaded {b!r}")
    if variant == "gru-d":
        check_decay_curve(label, texts["decay_curve.csv"],
                          json.loads(texts["model.json"]))
    require(first_model is None or texts["model.json"] == first_model, w,
            "deterministic", f"{label}: model.json differs from the first "
            "round's")


def check_decay_curve(label: str, text: str, model_doc: dict) -> None:
    """The exported curve is exp(-max(0, w * delta + b)) of the saved
    input-decay weights, sampled every 0.5 up to DELTA_MAX."""
    tensors = model_doc["tensors"]
    wx = tensors["layers.0.w_decay_x"]["data"][0]
    bx = tensors["layers.0.b_decay_x"]["data"][0]
    rows = list(csv.DictReader(io.StringIO(text)))
    delta = np.array([float(r["delta"]) for r in rows])
    gamma = np.array([float(r["gamma_x"]) for r in rows])
    expected_delta = 0.5 * np.arange(int(DELTA_MAX / 0.5) + 1)
    require(same(delta, expected_delta), "variants", "decay_curve",
            f"{label}: deltas {delta[:3]}... do not step 0.5 to {DELTA_MAX}")
    require(bool(np.all((gamma > 0.0) & (gamma <= 1.0))), "variants",
            "decay_curve", f"{label}: gamma outside (0, 1]: "
            f"{gamma[(gamma <= 0.0) | (gamma > 1.0)]}")
    want = np.exp(-np.maximum(wx * delta + bx, 0.0))
    require(close(gamma, want, 1e-12), "variants", "decay_curve",
            f"{label}: gamma {gamma} != exp(-max(0, {wx!r} * delta + {bx!r}))")


# --- forecast -----------------------------------------------------------------

@dataclass(frozen=True)
class ForecastSize:
    n_segments: int = 16
    n_days: int = 24
    drop_rate: float = 0.2  # share of whole days missing from the CSV
    missing_rate: float = 0.5
    hidden_size: int = 16


MODEL_SEED = 20191101  # the forecast models do not depend on the workload seed
IMPUTATIONS = ("average", "last", "simple")


def forecast_models(hidden: int):
    """A GRU-D and a GRU with fixed weights. The decay draws put the
    rectifier's kink inside the range of intervals the data has (1 to about
    10 days), so both of its sides are exercised."""
    rng = np.random.Generator(np.random.PCG64(MODEL_SEED))
    grud = network.build_model(network.ModelSpec("gru-d", hidden_size=hidden),
                               rng)
    p = grud.layers[0]
    for v in (p.v_r, p.v_z, p.v_c):
        v[...] = 0.5 * rng.standard_normal(v.shape)
    p.w_decay_x[...] = rng.uniform(0.2, 0.6, p.w_decay_x.shape)
    p.b_decay_x[...] = rng.uniform(-2.5, -0.5, p.b_decay_x.shape)
    p.w_decay_h[...] = rng.uniform(-0.3, 0.6, p.w_decay_h.shape)
    p.b_decay_h[...] = rng.uniform(-2.0, 1.0, p.b_decay_h.shape)
    gru = network.build_model(network.ModelSpec("gru", hidden_size=hidden),
                              rng)
    return grud, gru


class Forecast:
    """Forward-only scoring of a many-segment CSV with irregular days."""

    name = "forecast"

    def __init__(self, seed: int, run_dir: Path,
                 size: ForecastSize = ForecastSize()):
        self.size = size
        rng = np.random.default_rng([seed, 2])
        self.segments = {}
        for k in range(size.n_segments):
            all_days = np.arange(size.n_days, dtype=np.float64)
            keep = rng.random(size.n_days) >= size.drop_rate
            keep[0] = True
            days = all_days[keep]
            self.segments[f"road-{k:03d}"] = (
                days, friction_series(rng, all_days)[keep])
        self.csv_path = run_dir / "forecast.csv"
        write_series_csv(self.csv_path, self.segments, rng)
        self.mask_seeds = {
            seg: [int(v) for v in np.random.SeedSequence(
                [seed, k]).generate_state(len(days) - T, dtype=np.uint64)]
            for k, (seg, (days, _)) in enumerate(self.segments.items())}
        self.grud, self.gru = forecast_models(size.hidden_size)
        self.tensors = {
            "gru-d": {n: t.copy() for n, t in
                      self.grud.named_tensors().items()},
            "gru": {n: t.copy() for n, t in self.gru.named_tensors().items()},
        }

    def run_round(self) -> Round:
        units = {}
        try:
            series = timed(units, "ingest", timeseries.ingest_csv,
                           self.csv_path)
        except Exception:
            failed_operation(self.name)
            return Round(None, len(self.segments), len(self.segments), 0,
                         units)
        scored, failed = {}, 0
        for seg in self.segments:
            try:
                scored[seg] = timed(units, seg, self._score, series[seg],
                                    self.mask_seeds[seg])
            except Exception:
                failed_operation(self.name)
                failed += 1
        windows = sum(len(out["masked"]) for out in scored.values())
        return Round({"series": series, "scored": scored},
                     len(self.segments), failed, windows, units)

    def rate(self, seconds: dict[str, float]) -> float:
        windows = sum(len(days) - T for days, _ in self.segments.values())
        return windows / sum(seconds.values())

    def _score(self, series, mask_seeds) -> dict:
        windows = timeseries.window(series, T)
        masked = [timeseries.inject_missing(w, self.size.missing_rate, k)
                  for w, k in zip(windows, mask_seeds)]
        stats = missingness.empirical_mean([w.view() for w in masked])
        out = {"windows": windows, "masked": masked, "stats": stats,
               "filled": {}, "predictions": {}, "evaluate": {}}
        network.set_train_stats(self.grud, stats)
        out["evaluate"]["gru-d"] = training.evaluate(self.grud, masked, None)
        out["predictions"]["gru-d"] = [network.forward(self.grud, w)[0]
                                       for w in masked]
        network.set_train_stats(self.gru, stats)
        for imp in IMPUTATIONS:
            impute = getattr(missingness, f"impute_{imp}")
            out["evaluate"][imp] = training.evaluate(self.gru, masked, imp)
            filled = [impute(w.view(), stats) for w in masked]
            out["filled"][imp] = filled
            out["predictions"][imp] = [
                network.forward(self.gru, replace(w, x=f))[0]
                for w, f in zip(masked, filled)]
        return out

    def check(self, rnd: Round) -> None:
        if rnd.outputs is None:
            return
        check_forecast(self.segments, self.tensors, rnd.outputs)


def check_forecast(segments: dict, tensors: dict, outputs: dict) -> None:
    w = "forecast"
    series = outputs["series"]
    require(sorted(series) == sorted(segments), w, "ingest_segments",
            f"ingested {sorted(series)} != generated {sorted(segments)}")
    deltas = []
    for seg, (days, values) in segments.items():
        got = series[seg]
        require(same(got.timestamps, days) and same(got.values, values), w,
                "ingest_segments",
                f"{seg}: days or values differ from the generated series")
        if seg not in outputs["scored"]:
            continue
        out = outputs["scored"][seg]
        n = len(days) - T
        windows, masked = out["windows"], out["masked"]
        require(len(windows) == n == len(masked), w, "windows",
                f"{seg}: {len(windows)} windows from {len(days)} days, T={T}")
        s = np.stack([days[i:i + T] - days[i] for i in range(n)])
        x0 = np.stack([values[i:i + T] for i in range(n)])[:, :, None]
        y = values[T:]
        for k, win in enumerate(masked):
            require(same(win.s, s[k]) and win.y == y[k]
                    and same(windows[k].s, s[k]) and windows[k].y == y[k],
                    w, "windows", f"{seg}: window {k} times or target differ "
                    f"from days {days[k:k + T + 1]}")
        x = np.stack([win.x for win in masked])
        m = np.stack([win.m for win in masked])
        delta = np.stack([win.delta for win in masked])
        obs = m == 1.0
        require(bool(np.all(obs | (m == 0.0))) and same(
            x, np.where(obs, x0, np.nan))
            and same(np.stack([win.x for win in windows]), x0), w,
            "observed_unaltered", f"{seg}: windowing or masking changed an "
            "observed value")
        require(same(delta, reference.intervals(s, m)), w, "intervals",
                f"{seg}: intervals differ from the recurrence on timestamps")
        stats = out["stats"]
        mean, max_interval = reference.train_stats(x, m, delta)
        require(close(stats.mean, mean, 1e-12)
                and same(stats.max_interval, max_interval), w, "train_stats",
                f"{seg}: mean {stats.mean} / max interval "
                f"{stats.max_interval} vs {mean} / {max_interval}")
        filled_ref = {}
        for imp in IMPUTATIONS:
            got = np.stack(out["filled"][imp])
            want = reference.IMPUTERS[imp](x, m, delta, stats.mean,
                                           stats.max_interval)
            # The blend of the simple imputer may be rounded differently by
            # an equal rearrangement; the others only select values.
            ok = close(got, want, 1e-12) if imp == "simple" else same(got, want)
            require(ok and same(got[obs], x[obs]), w, "imputers",
                    f"{seg}: impute_{imp} differs from the reference")
            filled_ref[imp] = reference.IMPUTERS[imp](x, m, delta, mean,
                                                      max_interval)
        preds = {"gru-d": reference.grud_predict(tensors["gru-d"], mean,
                                                 x, m, delta)}
        for imp in IMPUTATIONS:
            preds[imp] = reference.gru_predict(tensors["gru"], filled_ref[imp])
        for key, want in preds.items():
            got = np.array(out["predictions"][key])
            require(close(got, want, 1e-9), w, "predictions",
                    f"{seg}: {key} forward {got} differs from the reference "
                    f"{want}")
            ev = out["evaluate"][key]
            mae, mse = reference.mae_mse(y, want)
            require(ev.n == n and close(ev.mae, mae, 1e-9)
                    and close(ev.mse, mse, 1e-9), w, "evaluate",
                    f"{seg}: {key} evaluate mae {ev.mae!r} mse {ev.mse!r} "
                    f"n {ev.n} vs reference {mae!r} {mse!r} {n}")
        deltas.append(delta.reshape(-1, delta.shape[-1]))
    if deltas:
        check_rectifier(tensors["gru-d"], np.concatenate(deltas))


def check_rectifier(tensors: dict, delta: np.ndarray) -> None:
    """Both sides of the decay rectifier occur on the scored intervals."""
    pre = {"input": delta * tensors["layers.0.w_decay_x"]
           + tensors["layers.0.b_decay_x"],
           "hidden": delta @ tensors["layers.0.w_decay_h"].T
           + tensors["layers.0.b_decay_h"]}
    for name, a in pre.items():
        require(bool(np.any(a > 0) and np.any(a < 0)), "forecast",
                "rectifier_both_sides",
                f"{name} decay pre-activations never change sign")


WORKLOADS = {"grid": (Grid, GridSize), "variants": (Variants, VariantsSize),
             "forecast": (Forecast, ForecastSize)}
