import csv
import json
import math

import numpy as np
import pytest

from frictioncast import cli, experiments as ex, network, timeseries
from frictioncast.errors import ConfigError
from frictioncast.linalg import new_rng

TINY = {
    "data": {"synth": {"n_days": 40, "winter_depth": 0.2, "noise_std": 0.03}},
    "n_seeds": 2,
    "hidden_size": 3,
    "models": [{"variant": "gru-d"}, {"variant": "gru", "imputation": "last"}],
    "missing_rates": [0.5],
    "train": {"max_epochs": 3, "patience": 2},
}


def tiny_config(seed=1, **over):
    doc = dict(TINY)
    doc.update(over)
    return ex.config_from_json(doc, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        ex.config_from_json({"models": []})
    with pytest.raises(ConfigError):
        ex.config_from_json({"missing_rates": [1.0]})
    with pytest.raises(ConfigError):
        ex.config_from_json({"n_seeds": 0})
    with pytest.raises(ConfigError):
        ex.config_from_json({"missing_rates": []})
    with pytest.raises(ConfigError, match=r"window_len \(T\) must be >= 2"):
        ex.config_from_json({"T": 1})


def test_config_defaults_to_synthetic_source():
    cfg = ex.config_from_json({})
    assert cfg.synth is not None
    assert cfg.window_len == 7


def test_benchmark_rows_and_determinism():
    a = ex.run_benchmark(tiny_config())
    b = ex.run_benchmark(tiny_config())
    assert len(a.rows) == 4  # 2 models x 1 rate x 2 seeds
    assert a.rows == b.rows


def test_benchmark_rows_reproducible_individually():
    cfg = tiny_config()
    table = ex.run_benchmark(cfg)
    row = table.rows[-1]
    entry = next(m for m in cfg.models
                 if m.variant == row.model
                 and (m.imputation or "none") == row.imputation)
    again, _, _ = ex.run_single(cfg, entry, row.missing_rate, row.seed)
    assert again == row


def test_aggregates_recomputable_from_rows():
    table = ex.run_benchmark(tiny_config())
    for agg in table.aggregates():
        rows = [r for r in table.rows
                if (r.model, r.imputation, r.missing_rate)
                == (agg["model"], agg["imputation"], agg["missing_rate"])]
        vals = np.array([r.mae for r in rows])
        assert agg["mae_mean"] == pytest.approx(float(np.mean(vals)), abs=1e-12)
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        assert agg["mae_se"] == pytest.approx(se, abs=1e-12)


def test_sweep_requires_decay_model():
    cfg = tiny_config(models=[{"variant": "gru", "imputation": "last"}])
    with pytest.raises(ConfigError):
        ex.sweep_missing_rates(cfg)


def test_sweep_rate_zero_matches_clean_benchmark():
    cfg = tiny_config(models=[{"variant": "gru-d"}], missing_rates=[0.0, 0.5])
    table = ex.sweep_missing_rates(cfg)
    clean = ex.run_benchmark(tiny_config(models=[{"variant": "gru-d"}],
                                         missing_rates=[0.0]))
    zero_rows = [r for r in table.rows if r.missing_rate == 0.0]
    assert zero_rows == clean.rows


def test_sweep_aggregate_row_count(tmp_path):
    cfg = tiny_config(models=[{"variant": "gru-d"}],
                      missing_rates=[0.0, 0.3, 0.5])
    table = ex.sweep_missing_rates(cfg)
    assert len(table.aggregates()) == 3
    path = tmp_path / "agg.csv"
    ex.write_aggregates_csv(table, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 4  # header + one aggregate per rate


# --- decay curve -------------------------------------------------------------

def test_decay_curve_untrained_zero_params_is_flat_one():
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3),
                                new_rng(0), x_mean=np.array([0.5]))
    model.layers[0].w_decay_x[...] = 0.0
    model.layers[0].b_decay_x[...] = 0.0
    curve = ex.export_decay_curve(model, delta_max=35.0)
    assert len(curve) == 71  # 0 .. 35 at step 0.5
    assert all(g == 1.0 for _, g in curve)


def test_decay_curve_range_and_monotonicity():
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3),
                                new_rng(1), x_mean=np.array([0.5]))
    model.layers[0].w_decay_x[...] = 0.08
    model.layers[0].b_decay_x[...] = 0.2
    curve = ex.export_decay_curve(model, delta_max=35.0)
    gammas = [g for _, g in curve]
    assert all(0 < g <= 1 for g in gammas)
    # positive decay weight means non-increasing in the interval
    assert all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))


def test_decay_curve_wrong_variant():
    model = network.build_model(network.ModelSpec("gru", hidden_size=3),
                                new_rng(0))
    with pytest.raises(ConfigError):
        ex.export_decay_curve(model, delta_max=10.0)


# --- loss curves -------------------------------------------------------------

def test_export_loss_curves(tmp_path):
    from frictioncast.training import TrainReport
    report = TrainReport(train_losses=[0.5, 0.4, 0.3, 0.25, 0.2],
                         val_losses=[0.6, 0.45, 0.35, 0.37, 0.36],
                         epochs_run=5, best_epoch=3)
    path = tmp_path / "loss_curves.csv"
    ex.export_loss_curves([("gru-d", report)], path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert rows[0]["label"] == "gru-d"
    # epochs-to-best is recomputable from the rows
    vals = [(int(r["epoch"]), float(r["val_loss"])) for r in rows]
    best = min(vals, key=lambda p: p[1])[0]
    assert best == report.best_epoch


# --- imputation completeness -------------------------------------------------

def test_grid_inputs_have_no_sentinels_after_imputation():
    from frictioncast import training
    cfg = tiny_config()
    series = ex._series_for(cfg, 0)[0]
    samples = timeseries.window(series, cfg.window_len)
    samples = [timeseries.inject_missing(s, 0.5, seed=i)
               for i, s in enumerate(samples)]
    splits = timeseries.split(samples, seed=0)
    from frictioncast.missingness import empirical_mean
    stats = empirical_mean([s.view() for s in splits.train])
    gru, grud = (network.build_model(network.ModelSpec(v, hidden_size=3),
                                     new_rng(0), x_mean=stats.mean)
                 for v in ("gru", "gru-d"))
    prepared = training._prepare_inputs(gru, splits.train, "last", stats)
    assert not np.any(np.isnan(prepared))
    # the decay cell reads the raw windows: their mask still has gaps
    raw = training._prepare_inputs(grud, splits.train, None, stats)
    assert np.array_equal(raw[:, 0], [s.m for s in splits.train])
    assert np.any(raw[:, 0] == 0.0)


# --- CLI ---------------------------------------------------------------------

def write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cli_synth_roundtrip(tmp_path):
    cfgp = write_config(tmp_path, {"data": {"synth": {"n_days": 30}},
                                   "n_seeds": 2})
    rc = cli.main(["synth", "--config", cfgp, "--out", str(tmp_path),
                   "--seed", "3"])
    assert rc == 0
    series = timeseries.ingest_csv(tmp_path / "synthetic.csv")
    assert len(series) == 2
    assert all(len(s.values) == 30 for s in series.values())
    assert (tmp_path / "run_manifest.json").exists()


def test_cli_synth_follows_the_master_seed_and_the_grid(tmp_path):
    # synth used to ignore --seed: seeds 5 and 6 wrote the same file
    doc = {"data": {"synth": {"n_days": 30}}, "n_seeds": 3}
    cfgp = write_config(tmp_path, doc)
    written = {}
    for name, seed in (("a", "5"), ("b", "6"), ("c", "5")):
        assert cli.main(["synth", "--config", cfgp, "--out",
                         str(tmp_path / name), "--seed", seed]) == 0
        written[name] = (tmp_path / name / "synthetic.csv").read_bytes()
    assert written["a"] != written["b"]
    assert written["a"] == written["c"]
    # segment i is the series the grid trains on for seed i
    segments = list(timeseries.ingest_csv(tmp_path / "a" / "synthetic.csv")
                    .values())
    config = ex.config_from_json(doc, seed=5)
    assert len(segments) == 3
    for i, segment in enumerate(segments):
        grid = ex._series_for(config, i)[0]
        assert np.array_equal(segment.values, grid.values)
        assert np.array_equal(segment.timestamps, grid.timestamps)


def test_cli_synth_rejects_a_csv_config(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"data": {"csv": "observations.csv"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config.json" in err and "data.csv" in err
    assert not (out / "synthetic.csv").exists()


def test_cli_benchmark_outputs_and_byte_determinism(tmp_path):
    cfgp = write_config(tmp_path, TINY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["benchmark", "--config", cfgp, "--out", str(out1),
                     "--seed", "5"]) == 0
    assert cli.main(["benchmark", "--config", cfgp, "--out", str(out2),
                     "--seed", "5"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "aggregates.csv").exists()
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["command"] == "benchmark"
    assert manifest["config"]["seed"] == 5
    # the per-job seeds are derived, not settings
    assert "seed" not in manifest["config"]["train"]
    assert "seed" not in manifest["config"]["data"]["synth"]


@pytest.mark.parametrize("source", ["synth", "csv"])
def test_cli_train_manifest_config_feeds_back_as_config(tmp_path, source):
    """A `train` manifest's config, fed back as `--config` without `--seed`,
    reruns the job: the same config and results.csv byte for byte."""
    doc = dict(TINY, models=[{"variant": "gru-d"}])
    if source == "csv":
        csv_path = tmp_path / "one.csv"
        ex.write_series_csv([ex.synth_series(tiny_config(), 0)], csv_path)
        doc["data"] = {"csv": str(csv_path)}
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", write_config(tmp_path, doc),
                     "--out", str(out1), "--seed", "3"]) == 0
    fed_back = json.loads((out1 / "run_manifest.json").read_text())["config"]
    (tmp_path / "fed_back.json").write_text(json.dumps(fed_back))
    assert cli.main(["train", "--config", str(tmp_path / "fed_back.json"),
                     "--out", str(out2)]) == 0
    assert ex.config_from_json(fed_back) == ex.config_from_json(doc, seed=3)
    assert ((out1 / "results.csv").read_bytes()
            == (out2 / "results.csv").read_bytes())
    assert ((out1 / "run_manifest.json").read_bytes()
            == (out2 / "run_manifest.json").read_bytes())


def test_cli_train_writes_model_and_curves(tmp_path):
    doc = dict(TINY)
    doc["models"] = [{"variant": "gru-d"}]
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfgp, "--out", str(tmp_path),
                     "--seed", "2"]) == 0
    model = network.load_model(tmp_path / "model.json")
    assert model.spec.variant == "gru-d"
    assert (tmp_path / "loss_curves.csv").exists()
    rc = cli.main(["decay-curve", "--model", str(tmp_path / "model.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "decay_curve.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 71
    assert all(0 < float(r["gamma_x"]) <= 1 for r in rows)


def test_cli_gradcheck_passes(tmp_path):
    assert cli.main(["gradcheck", "--seed", "0", "--draws", "2"]) == 0


def test_cli_structured_error_exit_code(tmp_path):
    cfgp = write_config(tmp_path, {"missing_rates": [2.0]})
    assert cli.main(["benchmark", "--config", cfgp, "--out",
                     str(tmp_path)]) == 1


def test_cli_threads_match_sequential(tmp_path):
    cfgp = write_config(tmp_path, TINY)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert cli.main(["benchmark", "--config", cfgp, "--out", str(out1),
                     "--seed", "4"]) == 0
    assert cli.main(["benchmark", "--config", cfgp, "--out", str(out2),
                     "--seed", "4", "--threads", "2"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_cli_train_rejects_multi_segment_csv(tmp_path, capsys):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("segment_id,day_index,friction\n" + "".join(
        f"{seg},{d},0.{5 + d % 3}\n" for seg in ("a", "b") for d in range(20)))
    doc = dict(TINY, data={"csv": str(csv_path)}, models=[{"variant": "gru-d"}])
    out = tmp_path / "out"
    assert cli.main(["train", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "two.csv" in err and "2 segments" in err
    assert "Traceback" not in err
    assert not (out / "model.json").exists()


def test_csv_is_parsed_once_per_run(tmp_path, monkeypatch):
    # every grid job used to parse the CSV again, and `train` parsed it twice
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("segment_id,day_index,friction\n" + "".join(
        f"a,{d},0.{5 + d % 3}{d % 7}\n" for d in range(40)))
    doc = dict(TINY, data={"csv": str(csv_path)}, models=[{"variant": "gru-d"}],
               n_seeds=3)
    calls = []
    ingest = timeseries.ingest_csv

    def counted(path):
        calls.append(path)
        return ingest(path)
    monkeypatch.setattr(timeseries, "ingest_csv", counted)
    table = ex.run_benchmark(ex.config_from_json(doc, seed=1))
    assert len(table.rows) == 3 and len(calls) == 1
    calls.clear()
    assert cli.main(["train", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1
    # the parsed segments reach worker processes unchanged
    parallel = ex.run_benchmark(ex.config_from_json(doc, seed=1), threads=2)
    assert parallel.rows == table.rows


@pytest.mark.parametrize("command", ["train", "synth"])
def test_cli_threads_only_on_grid_commands(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2


# --- fail-closed configuration and files -------------------------------------

BAD_CONFIGS = [
    ({"hiden_size": 4}, "hiden_size"),
    ({"data": {"synth": {"n_dayz": 30}}}, "data.synth.n_dayz"),
    ({"data": {"cvs": "x.csv"}}, "data.cvs"),
    ({"train": {"lr": 0.01}}, "train.lr"),
    ({"models": [{"variant": "gru", "imputaton": "last"}]},
     "models[0].imputaton"),
    ({"models": [{"imputation": "last"}]}, "variant"),
    ({"models": [{"variant": "gru", "imputation": ["last"]}]},
     "models[0].imputation"),
    ({"models": "gru-d"}, "models"),
    ({"n_seeds": "x"}, "n_seeds"),
    ({"hidden_size": 4.5}, "hidden_size"),
    ({"missing_rates": [0.5, "high"]}, "missing_rates[1]"),
    ({"train": {"max_epochs": "many"}}, "train.max_epochs"),
    ({"T": 1, "models": [{"variant": "gru", "imputation": "average"}],
      "missing_rates": [0.0]}, "T"),
    # settings that used to be overwritten or dropped without a word
    ({"train": {"seed": 5}}, "train.seed"),
    ({"data": {"synth": {"seed": 1}}}, "data.synth.seed"),
    ({"data": {"csv": "x.csv", "synth": {"n_days": 30}}}, "data.csv"),
    ({"seed": -1}, "seed"),
    # numbers out of range, and the NaN and infinities json reads
    ({"train": {"learning_rate": math.nan}}, "train.learning_rate"),
    ({"data": {"synth": {"noise_std": math.nan}}}, "data.synth.noise_std"),
    ({"data": {"synth": {"winter_width": math.inf}}},
     "data.synth.winter_width"),
    ({"missing_rates": [-math.inf]}, "missing_rates[0]"),
    ({"train": {"beta1": 1.5}}, "train.beta1"),
    ({"train": {"beta2": 1}}, "train.beta2"),
    # a repeated entry used to run its jobs again, counted as more seeds
    ({"models": [{"variant": "gru-d"}, {"variant": "gru", "imputation": "last"},
                 {"variant": "gru", "imputation": "last"}]},
     "models[2] repeats models[1]"),
    ({"missing_rates": [0.5, 0.2, 0.5]}, "missing_rates[2] repeats 0.5"),
    # gru-d reads raw windows: an imputation was written to its rows and
    # labels, and ran its jobs again beside the plain gru-d entry
    ({"models": [{"variant": "gru-d"}, {"variant": "gru-d",
                                         "imputation": "last"}]},
     "models[1].imputation"),
]


@pytest.mark.parametrize("doc,key", BAD_CONFIGS,
                         ids=[key for _, key in BAD_CONFIGS])
def test_cli_rejects_bad_config_naming_the_key(tmp_path, capsys, doc, key):
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfgp,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key in err and "config.json" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_cli_rejects_unknown_model_names_before_training(tmp_path, capsys,
                                                         monkeypatch):
    # a bad second entry used to fail only when its first job ran, after the
    # first entry's jobs had trained, with a message naming no file or key
    trained = []
    monkeypatch.setattr(ex.training, "train",
                        lambda *a, **k: trained.append(a) or None)
    for entry, key in (({"variant": "gru", "imputation": "lats"},
                        "models[1].imputation"),
                       ({"variant": "gur"}, "models[1].variant")):
        doc = dict(TINY, models=[{"variant": "gru-d"}, entry])
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["benchmark", "--config", cfgp,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert key in err and "config.json" in err
        assert "Traceback" not in err
    assert trained == []
    assert not (tmp_path / "out" / "results.csv").exists()


def _missing_config(tmp_path):
    return ["train", "--config", str(tmp_path / "absent.json")], "absent.json"


def _malformed_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"n_seeds": 2,', encoding="utf-8")
    return ["train", "--config", str(p)], "broken.json"


def _missing_model(tmp_path):
    return ["decay-curve", "--model", str(tmp_path / "absent-model.json"),
            "--out", str(tmp_path)], "absent-model.json"


def _out_is_a_file(tmp_path):
    p = tmp_path / "taken.txt"
    p.write_text("not a directory", encoding="utf-8")
    return ["synth", "--out", str(p)], "taken.txt"


@pytest.mark.parametrize("case", [_missing_config, _malformed_config,
                                  _missing_model, _out_is_a_file],
                         ids=lambda f: f.__name__.strip("_"))
def test_cli_file_errors_exit_1_naming_the_path(tmp_path, capsys, case):
    argv, name = case(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["benchmark", "--threads", "0"], ["benchmark", "--threads", "-3"],
    ["sweep", "--threads", "0"], ["gradcheck", "--draws", "0"],
    ["gradcheck", "--draws", "-1"],
    *([command, "--seed", "-1"] for command in
      ("synth", "train", "benchmark", "sweep", "gradcheck"))], ids=" ".join)
def test_cli_rejects_counts_below_one_as_usage_errors(capsys, argv):
    # a negative seed used to end in a numpy traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    low = 0 if "--seed" in argv else 1
    assert f"must be >= {low}" in capsys.readouterr().err


@pytest.mark.parametrize("delta_max", ["nan", "inf", "-inf"])
def test_cli_decay_curve_rejects_a_non_finite_delta_max(tmp_path, capsys,
                                                        delta_max):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay-curve", "--model", str(tmp_path / "model.json"),
                  "--out", str(tmp_path), f"--delta-max={delta_max}"])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_decay_curve_rejects_too_many_points_before_allocating(
        tmp_path, capsys):
    # 1e300 used to end in "Maximum allowed size exceeded", and 1e9 would
    # have allocated 2e9 points
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3),
                                new_rng(0), x_mean=np.array([0.5]))
    network.save_model(model, tmp_path / "model.json")
    for delta_max in ("1e300", "1e9"):
        assert cli.main(["decay-curve", "--model", str(tmp_path / "model.json"),
                         "--out", str(tmp_path), "--delta-max", delta_max]) == 1
        err = capsys.readouterr().err
        assert "delta_max" in err and "Traceback" not in err
    assert not (tmp_path / "decay_curve.csv").exists()


def test_cli_decay_curve_writes_a_manifest_naming_its_inputs(tmp_path):
    # decay-curve used to leave only decay_curve.csv
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3),
                                new_rng(0), x_mean=np.array([0.5]))
    path = str(tmp_path / "model.json")
    network.save_model(model, path)
    out = tmp_path / "dc"
    assert cli.main(["decay-curve", "--model", path, "--out", str(out),
                     "--delta-max", "4"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest == {"command": "decay-curve", "model": path,
                        "delta_max": 4.0}
