"""End-to-end acceptance gates for the forecasting harness.

Each test prints one `[criterion N] name: PASS/FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them as they complete).
Criterion 10 is a soft learning-efficiency report: it prints PASS or WARN
and never fails the suite.

The directional criteria (7, 8, 10) share one frozen benchmark setup:
hidden size 8, learning rate 3e-3, at most 80 epochs with patience 10,
10 seeds per configuration, master seed 42, default synthetic data.
"""

import statistics
import time

import numpy as np
import pytest

from frictioncast import cells, cli, experiments as ex, network, timeseries
from frictioncast.linalg import new_rng
from frictioncast.metrics import compute_metrics
from frictioncast.missingness import (MaskedView, TrainStats, compute_intervals,
                                      compute_mask, impute_average, impute_last,
                                      impute_simple)
from test_cells import grud_from_gru
from test_missingness import last_observation_oracle
from test_network import make_sample


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


# --- 1. gradient exactness ----------------------------------------------------

def test_criterion_1_gradient_exactness():
    rng = new_rng(2024)
    t0 = time.perf_counter()
    worst = {}
    for variant in ("gru", "gru-d", "lstm", "ffnn"):
        errs = []
        for _ in range(20):
            spec = network.ModelSpec(variant, hidden_size=4, window_len=7)
            model = network.build_model(spec, rng)
            if variant == "gru-d":
                model.layers[0].x_mean = rng.random(1)
                model.layers[0].w_decay_x[...] = 0.5 * rng.standard_normal(1)
                model.layers[0].b_decay_x[...] = 0.5 * rng.standard_normal(1)
                model.layers[0].w_decay_h[...] = 0.5 * rng.standard_normal((4, 1))
                model.layers[0].b_decay_h[...] = 0.5 * rng.standard_normal(4)
            sample = make_sample(rng, missing=0.5 if variant == "gru-d" else 0.0)
            errs.append(network.gradient_check(model, sample))
        worst[variant] = max(errs)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{v} {e:.2e}" for v, e in worst.items())
    check(1, "gradient exactness",
          max(worst.values()) < 1e-5 and elapsed < 60.0,
          f"max rel err per variant: {detail}; {elapsed:.1f}s")


# --- 2. decay cell reduces to the plain cell ----------------------------------

def test_criterion_2_decay_cell_reduction():
    rng = new_rng(11)
    worst = 0.0
    for _ in range(100):
        d, h, t_len = 1, 4, 7
        gru = cells.init_gru(d, h, rng)
        grud = grud_from_gru(gru, d, h, x_mean=rng.random(d))
        draws = [(rng.random(d), rng.random(d) * 3.0) for _ in range(t_len)]
        x = np.array([x_t for x_t, _ in draws])[None]
        delta = np.array([delta_t for _, delta_t in draws])[None]
        hg, _ = cells.gru_layer(gru, x)  # the state after every step
        hd, _ = cells.grud_layer(grud, x, np.ones_like(x), delta)
        worst = max(worst, float(np.max(np.abs(hg - hd))))
    check(2, "decay cell reduces to plain cell on observed input",
          worst < 1e-12, f"max |h_gru - h_grud| = {worst:.2e} over 100 draws")


# --- 3. interval recurrence vs last-observation oracle -------------------------

def test_criterion_3_interval_oracle():
    rng = new_rng(3)
    ok = True
    for _ in range(1000):
        t_len = int(rng.integers(2, 21))
        gaps = rng.random(t_len - 1) * 4.9 + 0.1
        s = np.concatenate([[0.0], np.cumsum(gaps)])
        m = rng.integers(0, 2, size=(t_len, 1)).astype(float)
        got = compute_intervals(s, m)[:, 0]
        want = last_observation_oracle(s, m[:, 0])
        ok = ok and np.allclose(got, want, atol=1e-9, rtol=0.0)
    fix_s = np.array([0.0, 2.0, 5.0, 6.0, 10.0, 12.0, 13.0, 18.0])
    fix_m = np.array([1.0, 1, 0, 0, 1, 1, 0, 1])[:, None]
    fix_delta = compute_intervals(fix_s, fix_m)[:, 0]
    fixture_ok = np.array_equal(fix_delta, [0.0, 2, 3, 4, 8, 2, 1, 6])
    check(3, "interval recurrence matches oracle",
          ok and fixture_ok,
          f"1000 random instances ok={ok}, fixture delta={fix_delta.tolist()}")


# --- 4. decay rate range -------------------------------------------------------

def test_criterion_4_decay_range():
    rng = new_rng(4)
    n = 100_000
    w = rng.standard_normal(n)
    b = rng.standard_normal(n)
    delta = np.abs(rng.standard_normal(n)) * 20.0
    gamma = cells.decay_rate(w, b, delta)
    pre = w * delta + b
    in_range = bool(np.all(gamma > 0.0) and np.all(gamma <= 1.0))
    unit_at_rest = bool(np.array_equal(gamma == 1.0, pre <= 0.0))
    check(4, "decay rate in (0, 1], exactly 1 when pre-activation <= 0",
          in_range and unit_at_rest,
          f"{n} draws, min gamma {gamma.min():.3e}")


# --- 5. imputation fixtures ----------------------------------------------------

def test_criterion_5_imputation_fixtures():
    x = np.array([0.8, 0.7, np.nan, np.nan, 0.6, 0.5, np.nan, 0.4])[:, None]
    s = np.array([0.0, 2.0, 5.0, 6.0, 10.0, 12.0, 13.0, 18.0])
    m = compute_mask(x)
    view = MaskedView(x=x, m=m, s=s, delta=compute_intervals(s, m))
    stats = TrainStats(mean=np.array([0.6]), max_interval=np.array([8.0]))

    avg_ok = np.array_equal(impute_average(view, stats)[:, 0],
                            [0.8, 0.7, 0.6, 0.6, 0.6, 0.5, 0.6, 0.4])
    last_ok = np.array_equal(impute_last(view, stats)[:, 0],
                             [0.8, 0.7, 0.7, 0.7, 0.6, 0.5, 0.5, 0.4])
    d_hat = np.array([3.0 / 8.0, 4.0 / 8.0, 1.0 / 8.0])
    want_simple = d_hat * np.array([0.7, 0.7, 0.5]) + (1.0 - d_hat) * 0.6
    got_simple = impute_simple(view, stats)[:, 0]
    simple_ok = (np.array_equal(got_simple[[2, 3, 6]], want_simple)
                 and np.array_equal(got_simple[[0, 1, 4, 5, 7]],
                                    [0.8, 0.7, 0.6, 0.5, 0.4]))

    full = np.arange(1.0, 6.0)[:, None] / 10.0
    full_view = MaskedView(x=full, m=compute_mask(full), s=np.arange(5.0),
                           delta=compute_intervals(np.arange(5.0),
                                                   compute_mask(full)))
    identity_ok = all(np.array_equal(impute(full_view, stats), full)
                      for impute in (impute_average, impute_last, impute_simple))
    check(5, "imputation fixtures reproduce hand-derived values exactly",
          avg_ok and last_ok and simple_ok and identity_ok,
          f"average={avg_ok} last={last_ok} simple={simple_ok} "
          f"identity={identity_ok}")


# --- 6. metrics fixtures ---------------------------------------------------------

def test_criterion_6_metrics_fixtures():
    a = compute_metrics([2.0, 4.0], [1.0, 5.0])
    b = compute_metrics([0.5], [0.4])
    ok = (abs(a.mae - 1.0) < 1e-12 and abs(a.mse - 1.0) < 1e-12
          and abs(a.mape_percent - 37.5) < 1e-12
          and abs(b.mae - 0.1) < 1e-12 and abs(b.mse - 0.01) < 1e-12
          and abs(b.mape_percent - 20.0) < 1e-12)
    check(6, "metrics fixtures within 1e-12",
          ok,
          f"({a.mae}, {a.mse}, {a.mape_percent}) and "
          f"({b.mae}, {b.mse}, {b.mape_percent})")


# --- 7/10. shared frozen benchmark ----------------------------------------------

BENCH_DOC = {
    "models": [
        {"variant": "gru-d"},
        {"variant": "gru", "imputation": "average"},
        {"variant": "gru", "imputation": "last"},
        {"variant": "gru", "imputation": "simple"},
    ],
    "missing_rates": [0.8],
    "n_seeds": 10,
    "hidden_size": 8,
    "train": {"learning_rate": 3e-3, "max_epochs": 80, "patience": 10},
}


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = ex.config_from_json(BENCH_DOC, seed=42)
    t0 = time.perf_counter()
    table = ex.run_benchmark(cfg)
    return table, time.perf_counter() - t0


def _median_by_group(table, metric):
    out = {}
    for row in table.rows:
        out.setdefault((row.model, row.imputation), []).append(
            getattr(row, metric))
    return {k: statistics.median(v) for k, v in out.items()}


def test_criterion_7_benchmark_ordering(benchmark_run):
    table, elapsed = benchmark_run
    med = _median_by_group(table, "mape_percent")
    grud = med[("gru-d", "none")]
    baselines = {imp: med[("gru", imp)] for imp in ("average", "last", "simple")}
    ordered = all(grud <= v for v in baselines.values())
    detail = (f"median MAPE: gru-d {grud:.2f}% vs "
              + ", ".join(f"gru+{k} {v:.2f}%" for k, v in baselines.items())
              + f"; {elapsed:.0f}s")
    check(7, "decay model median MAPE beats every imputation baseline",
          ordered and elapsed < 900.0, detail)


def test_criterion_8_missing_rate_sweep():
    doc = dict(BENCH_DOC)
    doc["models"] = [{"variant": "gru-d"}]
    doc["missing_rates"] = [0.0, 0.5]
    cfg = ex.config_from_json(doc, seed=42)
    table = ex.sweep_missing_rates(cfg)
    by_rate = {}
    for row in table.rows:
        by_rate.setdefault(row.missing_rate, []).append(row.mae)
    med0 = statistics.median(by_rate[0.0])
    med5 = statistics.median(by_rate[0.5])
    check(8, "median MAE non-decreasing from 0% to 50% missing",
          med0 <= med5,
          f"median MAE {med0:.4f} at rate 0.0 vs {med5:.4f} at rate 0.5")


# --- 9. CLI byte-level determinism ----------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    import json as _json
    doc = {
        "data": {"synth": {"n_days": 60}},
        "models": [{"variant": "gru-d"}, {"variant": "gru",
                                          "imputation": "last"}],
        "missing_rates": [0.5],
        "n_seeds": 2,
        "hidden_size": 4,
        "train": {"max_epochs": 5, "patience": 3},
    }
    cfgp = tmp_path / "config.json"
    cfgp.write_text(_json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli.main(["benchmark", "--config", str(cfgp), "--out", str(out1),
                    "--seed", "9"])
    rc2 = cli.main(["benchmark", "--config", str(cfgp), "--out", str(out2),
                    "--seed", "9"])
    identical = ((out1 / "results.csv").read_bytes()
                 == (out2 / "results.csv").read_bytes())
    check(9, "CLI rerun yields byte-identical results.csv",
          rc1 == 0 and rc2 == 0 and identical,
          f"exit codes ({rc1}, {rc2}), identical={identical}")


# --- 10. learning efficiency (soft) ----------------------------------------------

def test_criterion_10_learning_efficiency_soft(benchmark_run):
    table, _ = benchmark_run
    med = _median_by_group(table, "best_epoch")
    grud = med[("gru-d", "none")]
    baseline = med[("gru", "average")]
    ok = grud <= baseline
    detail = (f"median epochs-to-best: gru-d {grud} vs gru+average {baseline}")
    status = "PASS" if ok else "WARN (soft criterion, not a failure)"
    print(f"[criterion 10] learning efficiency: {status} — {detail}")
