"""Experiment harness: benchmark grid, missing-rate sweep, curve exports.

Every grid cell (model, imputation, missing rate, seed) is an independent
job whose sub-seeds (series, split, masks, parameters, shuffling) are all
derived from the master seed with `SeedSequence`, so any row is reproducible
from the configuration alone. Rows are sorted before writing, which keeps
output files byte-identical across reruns and across worker counts.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cells, network, timeseries, training
from .errors import ConfigError, DataError
from .linalg import new_rng
from .training import TrainConfig, TrainReport

RESULT_COLUMNS = ["model", "imputation", "missing_rate", "seed",
                  "mae", "mse", "mape_percent", "epochs_run", "best_epoch"]
AGG_COLUMNS = ["model", "imputation", "missing_rate", "n_seeds",
               "mae_mean", "mae_se", "mse_mean", "mse_se",
               "mape_mean", "mape_se"]
DECAY_CURVE_STEP = 0.5  # days between the points of a decay curve
MAX_DECAY_CURVE_POINTS = 10**6


@dataclass(frozen=True)
class ModelEntry:
    variant: str
    imputation: str | None = None

    @property
    def label(self) -> str:
        return self.variant if self.imputation is None \
            else f"{self.variant}+{self.imputation}"


@dataclass(frozen=True)
class ExperimentConfig:
    synth: timeseries.SynthConfig | None = None
    csv_path: str | None = None
    window_len: int = 7
    models: tuple[ModelEntry, ...] = (
        ModelEntry("gru-d"),
        ModelEntry("gru", "average"),
        ModelEntry("gru", "last"),
        ModelEntry("gru", "simple"),
    )
    missing_rates: tuple[float, ...] = (0.8,)
    n_seeds: int = 3
    hidden_size: int = 16
    recurrent_depth: int = 1
    ffnn_hidden_layers: int = 2
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.window_len < 2:
            raise ConfigError("window_len (T) must be >= 2: a one-step window "
                              "has no interval between observations")
        if not self.models:
            raise ConfigError("at least one model entry is required")
        if not self.missing_rates or any(not 0.0 <= r < 1.0
                                         for r in self.missing_rates):
            raise ConfigError("missing_rates must hold one or more rates "
                              "in [0, 1)")
        # a repeated entry would run the same jobs again, counted as seeds
        for i, entry in enumerate(self.models):
            if entry.variant == "gru-d" and entry.imputation is not None:
                raise ConfigError(f"models[{i}].imputation: gru-d reads the "
                                  f"raw windows and imputes nothing, so it "
                                  f"takes no imputation")
            if entry in self.models[:i]:
                raise ConfigError(f"models[{i}] repeats "
                                  f"models[{self.models.index(entry)}]")
        for i, rate in enumerate(self.missing_rates):
            if rate in self.missing_rates[:i]:
                raise ConfigError(f"missing_rates[{i}] repeats {rate}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.synth is not None and self.csv_path is not None:
            raise ConfigError("data.csv and data.synth exclude each other: "
                              "a CSV run would ignore the synth block")
        if self.synth is None and self.csv_path is None:
            object.__setattr__(self, "synth", timeseries.SynthConfig())


_INT_KEYS = {"T": "window_len", "n_seeds": "n_seeds",
             "hidden_size": "hidden_size", "recurrent_depth": "recurrent_depth",
             "ffnn_hidden_layers": "ffnn_hidden_layers", "seed": "seed"}
_CONFIG_KEYS = (*_INT_KEYS, "data", "models", "missing_rates", "train")
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list"}


def _checked(value, kind: type, key: str):
    """`value` unchanged if it is a JSON value of `kind`; an integer is a valid
    number, a bool is nothing but a bool, and NaN or an infinity (which
    Python's json reads) is none."""
    valid = isinstance(value, (int, float) if kind is float else kind)
    if isinstance(value, bool) or not valid:
        raise ConfigError(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    return value


def _object(value, where: str, keys) -> dict:
    """`value` if it is a JSON object with no key outside `keys`; `where` is
    its dotted path in the document, empty at the top level."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'the configuration'} must be a JSON "
                          f"object, got {value!r}")
    for key in value:
        if key not in keys:
            path = f"{where}.{key}" if where else key
            raise ConfigError(f"unknown key {path!r}; expected one of "
                              f"{', '.join(keys)}")
    return value


def _dataclass_from(cls, value, where: str):
    """A config dataclass from a JSON object, each value typed as the field's
    default."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    doc = _object(value, where, tuple(kinds))
    values = {k: _checked(v, kinds[k], f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**values)
    except ConfigError as exc:  # a range check, opening with the field name
        raise ConfigError(f"{where}.{exc}") from exc


def _model_entry(value, where: str) -> ModelEntry:
    entry = _object(value, where, ("variant", "imputation"))
    if "variant" not in entry:
        raise ConfigError(f"{where}: missing key 'variant'")
    variant = _checked(entry["variant"], str, f"{where}.variant")
    if variant not in network.VARIANTS:
        raise ConfigError(f"{where}.variant: unknown variant {variant!r}; "
                          f"one of {', '.join(network.VARIANTS)}")
    imputation = entry.get("imputation")
    if imputation is not None:
        _checked(imputation, str, f"{where}.imputation")
        if imputation not in training.IMPUTATIONS:
            raise ConfigError(f"{where}.imputation: unknown imputation "
                              f"{imputation!r}; one of "
                              f"{', '.join(training.IMPUTATIONS)}")
    return ModelEntry(variant, imputation)


def config_from_json(doc: dict, seed: int | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON document (CLI `--config` payload).
    An unknown key or a value of the wrong JSON type raises ConfigError
    naming the key."""
    _object(doc, "", _CONFIG_KEYS)
    kwargs = {name: _checked(doc[key], int, key)
              for key, name in _INT_KEYS.items() if key in doc}
    data = _object(doc.get("data", {}), "data", ("csv", "synth"))
    if "csv" in data:
        kwargs["csv_path"] = _checked(data["csv"], str, "data.csv")
    if "synth" in data:
        kwargs["synth"] = _dataclass_from(timeseries.SynthConfig, data["synth"],
                                          "data.synth")
    if "models" in doc:
        kwargs["models"] = tuple(
            _model_entry(m, f"models[{i}]")
            for i, m in enumerate(_checked(doc["models"], list, "models")))
    if "missing_rates" in doc:
        rates = _checked(doc["missing_rates"], list, "missing_rates")
        kwargs["missing_rates"] = tuple(
            float(_checked(r, float, f"missing_rates[{i}]"))
            for i, r in enumerate(rates))
    if "train" in doc:
        kwargs["train"] = _dataclass_from(TrainConfig, doc["train"], "train")
    if seed is not None:
        kwargs["seed"] = seed
    return ExperimentConfig(**kwargs)


def config_to_json(config: ExperimentConfig) -> dict:
    """The config under its JSON keys, which `config_from_json` reads back."""
    doc = {key: getattr(config, name) for key, name in _INT_KEYS.items()}
    doc["data"] = ({"csv": config.csv_path} if config.synth is None
                   else {"synth": dataclasses.asdict(config.synth)})
    doc["models"] = [{"variant": m.variant, "imputation": m.imputation}
                     for m in config.models]
    doc["missing_rates"] = list(config.missing_rates)
    doc["train"] = dataclasses.asdict(config.train)
    return doc


@dataclass(frozen=True)
class ResultRow:
    model: str
    imputation: str
    missing_rate: float
    seed: int
    mae: float
    mse: float
    mape_percent: float
    epochs_run: int
    best_epoch: int

    def sort_key(self):
        return (self.model, self.imputation, self.missing_rate, self.seed)


@dataclass
class ResultsTable:
    rows: list[ResultRow]

    def aggregates(self) -> list[dict]:
        """Mean and standard error per (model, imputation, rate) group."""
        groups: dict[tuple, list[ResultRow]] = {}
        for r in self.rows:
            groups.setdefault((r.model, r.imputation, r.missing_rate), []).append(r)
        out = []
        for (model, imputation, rate), rows in sorted(groups.items()):
            n = len(rows)
            agg = {"model": model, "imputation": imputation,
                   "missing_rate": rate, "n_seeds": n}
            for col, attr in (("mae", "mae"), ("mse", "mse"),
                              ("mape", "mape_percent")):
                vals = np.array([getattr(r, attr) for r in rows])
                agg[f"{col}_mean"] = float(np.mean(vals))
                agg[f"{col}_se"] = (float(np.std(vals, ddof=1) / math.sqrt(n))
                                    if n > 1 else 0.0)
            out.append(agg)
        return out


def _seed_for(master: int, *tags: int) -> int:
    """Stable 64-bit sub-seed derived from the master seed and integer tags."""
    ss = np.random.SeedSequence(entropy=[master, *tags])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# tag namespaces for sub-seed derivation
_TAG_SERIES, _TAG_SPLIT, _TAG_MASK, _TAG_PARAMS, _TAG_TRAIN = range(5)


@dataclass(frozen=True)
class _Job:
    entry: ModelEntry
    rate: float
    seed: int
    config: ExperimentConfig
    series: list | None  # the run's CSV segments, parsed once; None on synth


def csv_series(config: ExperimentConfig) -> list[timeseries.SegmentSeries] | None:
    """The configured CSV's segments, or None for synthetic data."""
    if config.csv_path is None:
        return None
    return list(timeseries.ingest_csv(config.csv_path).values())


def synth_series(config: ExperimentConfig, seed: int) -> timeseries.SegmentSeries:
    """The synthetic series the grid trains on for `seed`."""
    return timeseries.synthesize(config.synth,
                                 _seed_for(config.seed, _TAG_SERIES, seed))


def _series_for(config: ExperimentConfig, seed: int) -> list[timeseries.SegmentSeries]:
    if config.csv_path is not None:
        return csv_series(config)
    return [synth_series(config, seed)]


def _model_spec(config: ExperimentConfig, entry: ModelEntry) -> network.ModelSpec:
    depth = config.recurrent_depth
    if entry.variant == "lstm":
        depth = max(depth, 2)  # baseline runs with two recurrent layers
    return network.ModelSpec(
        variant=entry.variant, input_dim=1, hidden_size=config.hidden_size,
        recurrent_depth=depth, ffnn_hidden_layers=config.ffnn_hidden_layers,
        window_len=config.window_len,
    )


def run_single(config: ExperimentConfig, entry: ModelEntry, rate: float,
               seed: int, series: list | None = None
               ) -> tuple[ResultRow, TrainReport, network.Model]:
    """One grid cell: build data, train, evaluate. Fully seed-determined.
    `series` passes the CSV's segments (`csv_series`) parsed once per run;
    without it the job reads its own data."""
    master = config.seed
    reports = []
    metrics_rows = []
    model = None
    if series is None:
        series = _series_for(config, seed)
    for seg_idx, segment in enumerate(series):
        samples = timeseries.window(segment, config.window_len)
        splits = timeseries.split(
            samples, _seed_for(master, _TAG_SPLIT, seed, seg_idx))
        if rate > 0.0:
            def mask(split_samples, which):
                return timeseries.mask_windows(
                    split_samples, rate,
                    [_seed_for(master, _TAG_MASK, seed, seg_idx, which, i)
                     for i in range(len(split_samples))])
            splits = timeseries.DatasetSplit(
                train=mask(splits.train, 0),
                validation=mask(splits.validation, 1),
                test=mask(splits.test, 2),
            )
        spec = _model_spec(config, entry)
        model = network.build_model(
            spec, new_rng(_seed_for(master, _TAG_PARAMS, seed, seg_idx)))
        model, report = training.train(
            model, splits, entry.imputation, config.train,
            _seed_for(master, _TAG_TRAIN, seed, seg_idx))
        ev = training.evaluate(model, splits.test, entry.imputation)
        reports.append(report)
        metrics_rows.append((ev.mae, ev.mse, ev.mape_percent))
    mae, mse, mape = (float(np.mean([m[i] for m in metrics_rows]))
                      for i in range(3))
    row = ResultRow(
        model=entry.variant, imputation=entry.imputation or "none",
        missing_rate=rate, seed=seed, mae=mae, mse=mse, mape_percent=mape,
        epochs_run=max(r.epochs_run for r in reports),
        best_epoch=max(r.best_epoch for r in reports),
    )
    return row, reports[-1], model


def _run_job(job: _Job) -> ResultRow:
    return run_single(job.config, job.entry, job.rate, job.seed, job.series)[0]


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> ResultsTable:
    """Full (model x imputation x rate x seed) grid; a CSV is parsed once
    and its segments handed to every job, in a worker process too."""
    series = csv_series(config)
    jobs = [_Job(entry, rate, seed, config, series)
            for entry in config.models
            for rate in config.missing_rates
            for seed in range(config.n_seeds)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_run_job, jobs))
    else:
        rows = [_run_job(j) for j in jobs]
    rows.sort(key=ResultRow.sort_key)
    return ResultsTable(rows=rows)


def sweep_missing_rates(config: ExperimentConfig, threads: int = 1) -> ResultsTable:
    """Benchmark across the configured missing rates; decay model required."""
    if not any(m.variant == "gru-d" for m in config.models):
        raise ConfigError("the missing-rate sweep requires a gru-d model entry")
    return run_benchmark(config, threads=threads)


def export_decay_curve(model: network.Model,
                       delta_max: float) -> list[tuple[float, float]]:
    """Learned input-decay rate as (interval, rate) pairs, one variable."""
    if model.spec.variant != "gru-d":
        raise ConfigError("decay curves exist only for the gru-d variant")
    if not 0 < delta_max < math.inf:
        raise ConfigError(f"delta_max must be positive and finite, "
                          f"got {delta_max}")
    n = int(math.floor(delta_max / DECAY_CURVE_STEP + 1e-9)) + 1
    if n > MAX_DECAY_CURVE_POINTS:
        raise ConfigError(f"delta_max {delta_max:g} gives a curve of {n} "
                          f"points, more than {MAX_DECAY_CURVE_POINTS}")
    p = model.layers[0]
    deltas = np.arange(n) * DECAY_CURVE_STEP
    gammas = cells.decay_rate(p.w_decay_x[:1], p.b_decay_x[:1], deltas)
    return list(zip(deltas.tolist(), gammas.tolist()))


# --- file outputs -------------------------------------------------------------

def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_results_csv(table: ResultsTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(RESULT_COLUMNS)
        for r in table.rows:
            w.writerow([r.model, r.imputation, _fmt(r.missing_rate), r.seed,
                        _fmt(r.mae), _fmt(r.mse), _fmt(r.mape_percent),
                        r.epochs_run, r.best_epoch])


def write_aggregates_csv(table: ResultsTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(AGG_COLUMNS)
        for a in table.aggregates():
            w.writerow([a["model"], a["imputation"], _fmt(a["missing_rate"]),
                        a["n_seeds"],
                        _fmt(a["mae_mean"]), _fmt(a["mae_se"]),
                        _fmt(a["mse_mean"]), _fmt(a["mse_se"]),
                        _fmt(a["mape_mean"]), _fmt(a["mape_se"])])


def export_loss_curves(reports: list[tuple[str, TrainReport]], path) -> None:
    """Long-format `label,epoch,train_loss,val_loss` CSV."""
    if not reports:
        raise DataError("no training reports to export")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["label", "epoch", "train_loss", "val_loss"])
        for label, report in reports:
            for epoch, tl, vl in report.csv_rows():
                w.writerow([label, epoch, _fmt(tl), _fmt(vl)])


def write_decay_curve_csv(curve: list[tuple[float, float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["delta", "gamma_x"])
        for d, gamma in curve:
            w.writerow([_fmt(d), _fmt(gamma)])


def write_manifest(path, command: str, **inputs) -> None:
    """A command's `run_manifest.json`: its name and what it ran from."""
    doc = {"command": command, **inputs}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_series_csv(series_list: list[timeseries.SegmentSeries], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(timeseries.CSV_HEADER)
        for series in series_list:
            for day, val in zip(series.timestamps, series.values):
                w.writerow([series.segment_id, _fmt(float(day)), _fmt(float(val))])
