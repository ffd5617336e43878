import copy
import math
from dataclasses import replace

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
    y_hat = network.predict(model, splits.validation)
    assert training._mean_loss(y_hat, [s.y for s in splits.validation]) == (
        pytest.approx(best_val, abs=1e-12))


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


def test_a_dead_decay_unit_stays_dead_through_training():
    """Decay pre-activations w * delta + b <= 0 on every step give a decay
    rate of exactly 1 and a zero gradient, so Adam leaves the four decay
    tensors bit-equal over two epochs while the rest of the model trains."""
    splits = small_split(missing=0.5)
    model = fresh_model("gru-d", hidden=3)
    layer = model.layers[0]
    layer.w_decay_x[...] = 0.01
    layer.b_decay_x[...] = -1.0
    layer.w_decay_h[...] = 0.01
    layer.b_decay_h[...] = -1.0
    names = ("w_decay_x", "b_decay_x", "w_decay_h", "b_decay_h")
    start = {k: getattr(layer, k).copy() for k in names}
    theta = model.theta.copy()
    cfg = TrainConfig(max_epochs=2, patience=1)
    model, report = training.train(model, splits, None, cfg, seed=0)
    assert report.epochs_run == 2
    for k in names:
        assert np.array_equal(getattr(layer, k), start[k]), k
    assert not np.array_equal(model.theta, theta)  # the gates did train
    for s in splits.train:  # dead on every training step
        cache = network.forward(model, s)[1].caches[0]
        assert np.any(s.m == 0.0)
        assert np.all(cache["pre_x"] <= 0.0) and np.all(cache["pre_h"] <= 0.0)
        assert np.all(cache["gamma_x"] == 1.0)


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


def window_model(rng, d=2):
    return network.build_model(network.ModelSpec("gru", input_dim=d,
                                                 hidden_size=3), rng)


@pytest.mark.parametrize("imputation", sorted(training.IMPUTATIONS))
def test_prepare_inputs_equals_the_per_window_path(imputation):
    """One imputer call over the stacked split gives, bit for bit, what
    imputing each window gives, as the gru's stacked first-layer input."""
    from frictioncast import missingness
    rng = new_rng(50)
    samples = irregular_windows(rng)
    stats = missingness.empirical_mean([s.view() for s in samples])
    got = training._prepare_inputs(window_model(rng), samples, imputation,
                                   stats)
    impute = training.IMPUTATIONS[imputation]
    assert got.shape == (len(samples), *samples[0].x.shape)
    for g, s in zip(got, samples):
        assert np.array_equal(g, impute(s.view(), stats))
    assert not np.any(np.isnan(got))


def test_prepare_inputs_rejects_windows_that_do_not_stack_or_increase():
    from frictioncast import missingness
    from frictioncast.errors import ShapeError
    rng = new_rng(51)
    samples = irregular_windows(rng)
    stats = missingness.empirical_mean([s.view() for s in samples])
    short = irregular_windows(rng, n=1, t_len=4)
    model = window_model(rng)
    with pytest.raises(ShapeError):
        training._prepare_inputs(model, samples + short, "last", stats)
    stalled = samples[0]
    stalled = timeseries.TimeSeriesSample(
        x=stalled.x, s=np.concatenate([[0.0, 0.0], stalled.s[2:]]),
        m=stalled.m, delta=stalled.delta, y=stalled.y)
    with pytest.raises(DataError, match="strictly increasing"):
        training._prepare_inputs(model, [stalled] + samples, "last", stats)


# --- the step plan -----------------------------------------------------------

def one_off_train(model, splits, imputation, config, seed):
    """`training.train`'s loop through one-off calls: a fresh forward and
    backward for every window and a fresh predict for every validation."""
    from frictioncast import missingness
    stats = missingness.empirical_mean([s.view() for s in splits.train])
    network.set_train_stats(model, stats)

    def prepared(samples):  # each window imputed on its own
        if model.spec.variant == "gru-d":
            return samples
        return [replace(s, x=training.IMPUTATIONS[imputation](s.view(), stats))
                for s in samples]

    train_set, val_set = prepared(splits.train), prepared(splits.validation)
    state = AdamState.for_model(model)
    report = training.TrainReport()
    best_val, best_theta, stale = math.inf, None, 0
    for epoch in range(1, config.max_epochs + 1):
        order = new_rng(seed * 1_000_003 + epoch).permutation(len(train_set))
        epoch_loss = 0.0
        for i in order:
            sample = train_set[i]
            y_hat, trace = network.forward(model, sample)
            epoch_loss += network.loss_mse(y_hat, sample.y)
            training.adam_step(model.theta,
                               network.backward(model, trace, sample.y),
                               state, config)
        val_loss = training._mean_loss(network.predict(model, val_set),
                                       [s.y for s in val_set])
        report.train_losses.append(epoch_loss / len(train_set))
        report.val_losses.append(val_loss)
        report.epochs_run = epoch
        if val_loss < best_val:
            best_val, report.best_epoch = val_loss, epoch
            best_theta, stale = model.theta.copy(), 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.theta[...] = best_theta
    return model, report


@pytest.mark.parametrize("variant,depth,imputation",
                         [("gru", 1, "last"), ("gru", 2, "simple"),
                          ("gru-d", 1, None), ("gru-d", 2, None),
                          ("lstm", 2, "last"), ("ffnn", 1, "average")])
def test_training_on_the_plan_equals_one_off_calls(variant, depth,
                                                   imputation):
    """The job's step plan, laid out once, trains to the same theta, report
    and loss curve as fresh one-off forward, backward and predict calls, bit
    for bit, over 3 epochs on windows with missing entries."""
    splits = small_split(noise=0.05, seed=13, missing=0.4)
    spec = network.ModelSpec(variant, hidden_size=5, recurrent_depth=depth,
                             window_len=7)
    config = TrainConfig(max_epochs=3, patience=2, learning_rate=3e-3)
    got = training.train(network.build_model(spec, new_rng(13)), splits,
                         imputation, config, seed=13)
    want = one_off_train(network.build_model(spec, new_rng(13)), splits,
                         imputation, config, seed=13)
    assert np.array_equal(got[0].theta, want[0].theta)
    assert np.array_equal(np.signbit(got[0].theta), np.signbit(want[0].theta))
    assert got[1] == want[1]
    assert got[1].csv_rows() == want[1].csv_rows()
    assert got[1].epochs_run == 3


def test_a_one_off_trace_outlives_later_forwards():
    """A trace from a one-off forward keeps its caches, and gives the same
    gradient, after later forwards of the same model."""
    rng = new_rng(14)
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=4,
                                                  recurrent_depth=2), rng,
                                x_mean=np.array([0.5]))
    samples = small_split(seed=14, missing=0.5).train[:3]
    y_hat, trace = network.forward(model, samples[0])
    caches = [{k: v.copy() for k, v in c.items()} for c in trace.caches]
    grad = network.backward(model, trace, samples[0].y).copy()
    for sample in samples[1:]:
        network.backward(model, network.forward(model, sample)[1], sample.y)
    for cache, want in zip(trace.caches, caches):
        for key, value in cache.items():
            assert np.array_equal(value, want[key], equal_nan=True), key
    assert trace.y_hat[0] == y_hat
    assert np.array_equal(network.backward(model, trace, samples[0].y), grad)


def test_train_rejects_an_unimputed_window_reaching_a_gru():
    """A window whose mask says observed but whose input holds NaN passes
    the imputation step untouched; the stacked split's check stops it."""
    from frictioncast.errors import UnimputedValueError
    splits = small_split(seed=15)
    bad = splits.train[4]
    x = bad.x.copy()
    x[2] = np.nan
    train = list(splits.train)
    train[4] = timeseries.TimeSeriesSample(x=x, s=bad.s, m=bad.m,
                                           delta=bad.delta, y=bad.y)
    splits = timeseries.DatasetSplit(train, splits.validation, splits.test)
    with pytest.raises(UnimputedValueError, match="unimputed"):
        training.train(fresh_model(), splits, "last",
                       TrainConfig(max_epochs=2, patience=1), seed=15)
