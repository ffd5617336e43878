import copy

import numpy as np
import pytest

from frictioncast import network, timeseries, training
from frictioncast.errors import ConfigError, DataError
from frictioncast.linalg import new_rng
from frictioncast.training import AdamState, TrainConfig


def small_split(noise=0.0, n_days=60, seed=0, missing=0.0, depth=0.2):
    cfg = timeseries.SynthConfig(n_days=n_days, noise_std=noise,
                                 winter_depth=depth, episode_std=0.0)
    samples = timeseries.window(timeseries.synthesize(cfg, seed), 7)
    if missing > 0:
        samples = [timeseries.inject_missing(s, missing, seed=1000 + i)
                   for i, s in enumerate(samples)]
    return timeseries.split(samples, seed=seed)


def fresh_model(variant="gru", hidden=4, seed=0):
    return network.build_model(
        network.ModelSpec(variant, hidden_size=hidden, window_len=7),
        new_rng(seed))


# --- Adam --------------------------------------------------------------------

def test_adam_zero_grads_leave_params_unchanged():
    model = fresh_model()
    before = model.theta.copy()
    state = AdamState.for_model(model)
    training.adam_step(model.theta, np.zeros_like(model.theta), state,
                       TrainConfig())
    assert np.array_equal(model.theta, before)
    assert state.t == 1


def test_adam_first_step_closed_form():
    # single scalar with unit gradient: bias corrections cancel at t=1
    theta = np.array([0.0])
    state = AdamState(m=np.zeros(1), v=np.zeros(1))
    cfg = TrainConfig(learning_rate=1e-3)
    training.adam_step(theta, np.array([1.0]), state, cfg)
    assert theta[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_deterministic():
    results = []
    for _ in range(2):
        theta = np.array([0.3, -0.2])
        state = AdamState(m=np.zeros(2), v=np.zeros(2))
        g = np.array([0.5, -1.0])
        for _ in range(5):
            training.adam_step(theta, g, state, TrainConfig())
        results.append(theta.copy())
    assert np.array_equal(results[0], results[1])


def test_adam_shape_mismatch():
    theta = np.zeros(2)
    state = AdamState(m=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ConfigError):
        training.adam_step(theta, np.zeros(3), state, TrainConfig())


def test_adam_on_a_deepcopy_leaves_the_original_unchanged():
    model = fresh_model(variant="gru-d")
    before = model.theta.copy()
    twin = copy.deepcopy(model)
    state = AdamState.for_model(twin)
    training.adam_step(twin.theta, np.ones_like(twin.theta), state,
                       TrainConfig())
    assert np.array_equal(model.theta, before)
    assert not np.array_equal(twin.theta, before)
    assert np.array_equal(twin.named_tensors()["head.b"], twin.head_b)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=50, max_epochs=50)


# --- training loop -----------------------------------------------------------

def test_train_learns_constant_target():
    splits = small_split(noise=0.0, depth=0.0)  # constant series at 0.75
    model = fresh_model()
    cfg = TrainConfig(max_epochs=50, patience=49, learning_rate=5e-3)
    model, report = training.train(model, splits, None, cfg, seed=1)
    assert min(report.val_losses) < 1e-4


def test_train_early_stop_on_noise():
    splits = small_split(noise=0.2, depth=0.0, seed=3)
    model = fresh_model(seed=3)
    cfg = TrainConfig(max_epochs=100, patience=1)
    _, report = training.train(model, splits, None, cfg, seed=3)
    assert report.epochs_run < 20


def test_train_deterministic():
    reports = []
    finals = []
    for _ in range(2):
        splits = small_split(noise=0.05, seed=5)
        model = fresh_model(seed=5)
        cfg = TrainConfig(max_epochs=8, patience=7)
        model, report = training.train(model, splits, None, cfg, seed=5)
        reports.append(report)
        finals.append({n: t.copy() for n, t in model.named_tensors().items()})
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].val_losses == reports[1].val_losses
    for n in finals[0]:
        assert np.array_equal(finals[0][n], finals[1][n])


def test_train_restores_best_epoch_params():
    splits = small_split(noise=0.05, seed=7)
    model = fresh_model(seed=7)
    cfg = TrainConfig(max_epochs=15, patience=14)
    model, report = training.train(model, splits, None, cfg, seed=7)
    best_val = report.val_losses[report.best_epoch - 1]
    assert best_val == min(report.val_losses)
    assert training._mean_loss(model, splits.validation) == pytest.approx(
        best_val, abs=1e-12)


def test_early_stop_window_invariant():
    splits = small_split(noise=0.1, seed=9)
    model = fresh_model(seed=9)
    cfg = TrainConfig(max_epochs=60, patience=3)
    _, report = training.train(model, splits, None, cfg, seed=9)
    assert report.epochs_run - report.best_epoch <= cfg.patience + 1


def test_train_requires_imputation_for_missing_data():
    splits = small_split(missing=0.5)
    model = fresh_model()
    with pytest.raises(ConfigError, match="imputation"):
        training.train(model, splits, None, TrainConfig(max_epochs=2, patience=1),
                       seed=0)


def test_train_rejects_unknown_imputation():
    splits = small_split(missing=0.5)
    with pytest.raises(ConfigError, match="unknown imputation"):
        training.train(fresh_model(), splits, "magic",
                       TrainConfig(max_epochs=2, patience=1), seed=0)


def test_train_empty_split_rejected():
    splits = small_split()
    empty = timeseries.DatasetSplit(train=[], validation=splits.validation,
                                    test=splits.test)
    with pytest.raises(DataError):
        training.train(fresh_model(), empty, None,
                       TrainConfig(max_epochs=2, patience=1), seed=0)


def test_grud_trains_on_missing_data():
    splits = small_split(missing=0.6, n_days=80)
    model = fresh_model("gru-d")
    cfg = TrainConfig(max_epochs=5, patience=4)
    model, report = training.train(model, splits, None, cfg, seed=2)
    assert len(report.val_losses) == report.epochs_run
    assert model.train_stats is not None
    assert np.array_equal(model.layers[0].x_mean, model.train_stats.mean)


# --- evaluation --------------------------------------------------------------

def test_evaluate_perfect_model():
    splits = small_split(noise=0.0, depth=0.0)  # constant series
    model = fresh_model()
    cfg = TrainConfig(max_epochs=60, patience=59, learning_rate=5e-3)
    model, _ = training.train(model, splits, None, cfg, seed=1)
    report = training.evaluate(model, splits.test, None)
    assert report.mae < 0.02
    assert report.n == len(splits.test)


def test_evaluate_constant_predictor_closed_form():
    splits = small_split(noise=0.05, seed=11)
    model = fresh_model()
    model, _ = training.train(model, splits, None,
                              TrainConfig(max_epochs=2, patience=1), seed=11)
    # freeze a constant prediction by zeroing everything except the head bias
    for t in model.named_tensors().values():
        t[...] = 0.0
    const = float(model.train_stats.mean[0])
    model.head_b[0] = const
    got = training.evaluate(model, splits.test, None)
    y = np.array([s.y for s in splits.test])
    assert got.mae == pytest.approx(float(np.mean(np.abs(y - const))), abs=1e-12)
    assert got.mse == pytest.approx(float(np.mean((y - const) ** 2)), abs=1e-12)
    assert got.mape_percent == pytest.approx(
        float(100 * np.mean(np.abs((y - const) / y))), abs=1e-10)


def test_evaluate_requires_nonempty_and_stats():
    model = fresh_model()
    with pytest.raises(DataError):
        training.evaluate(model, [], None)
    with pytest.raises(ConfigError, match="train"):
        training.evaluate(model, small_split().test, None)


# --- input preparation -------------------------------------------------------

def irregular_windows(rng, n=9, t_len=6, d=2, missing=0.5):
    """Windows on irregular timestamps with i.i.d. missing entries."""
    from frictioncast import missingness
    out = []
    for _ in range(n):
        s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 4.0, t_len - 1))])
        m = (rng.random((t_len, d)) >= missing).astype(float)
        x = np.where(m > 0.5, rng.random((t_len, d)), np.nan)
        out.append(timeseries.TimeSeriesSample(
            x=x, s=s, m=m, delta=missingness.compute_intervals(s, m),
            y=float(rng.random())))
    return out


@pytest.mark.parametrize("imputation", sorted(training.IMPUTATIONS))
def test_prepare_inputs_equals_the_per_window_path(imputation):
    """One imputer call over the stacked split and the timestamp gaps as
    intervals give, bit for bit, what imputing each window and recomputing
    its intervals gives."""
    from frictioncast import missingness
    rng = new_rng(50)
    samples = irregular_windows(rng)
    stats = missingness.empirical_mean([s.view() for s in samples])
    got = training._prepare_inputs(samples, "gru", imputation, stats)
    impute = training.IMPUTATIONS[imputation]
    assert len(got) == len(samples)
    for g, s in zip(got, samples):
        assert np.array_equal(g.x, impute(s.view(), stats))
        assert np.array_equal(g.m, np.ones_like(s.m))
        assert np.array_equal(g.delta, missingness.compute_intervals(
            s.s, np.ones_like(s.m)))
        assert np.array_equal(g.s, s.s) and g.y == s.y
        assert not np.any(np.isnan(g.x))


def test_prepare_inputs_rejects_windows_that_do_not_stack_or_increase():
    from frictioncast import missingness
    from frictioncast.errors import ShapeError
    rng = new_rng(51)
    samples = irregular_windows(rng)
    stats = missingness.empirical_mean([s.view() for s in samples])
    short = irregular_windows(rng, n=1, t_len=4)
    with pytest.raises(ShapeError):
        training._prepare_inputs(samples + short, "gru", "last", stats)
    stalled = samples[0]
    stalled = timeseries.TimeSeriesSample(
        x=stalled.x, s=np.concatenate([[0.0, 0.0], stalled.s[2:]]),
        m=stalled.m, delta=stalled.delta, y=stalled.y)
    with pytest.raises(DataError, match="strictly increasing"):
        training._prepare_inputs([stalled] + samples, "gru", "last", stats)
