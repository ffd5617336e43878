"""Adam optimization, the early-stopping training loop, and evaluation.

Updates are per-sample (stochastic). Each epoch reshuffles the training set
from a seed derived deterministically from the master seed, so a fixed seed
reproduces the whole run bit for bit. The best-validation parameters are
restored when early stopping fires.

Each split reaches the model as its first-layer input, stacked and checked
once on one path (`_prepare_inputs`): the split is stacked, imputed by one
imputer call only when a model other than the decay model gets missing
entries, then formed by `network.layer_inputs`. A job lays out its training
step once (`train`): a `network.Plan` holds the forward and backward of one
training window and another the forward of the validation split, and
Adam's state holds its scratch. Each window's forward (`Plan.run`),
backward and Adam update then only compute, into the same buffers, as
one-off calls would, bit for bit. `evaluate` scores a split in one pass on
the model's kept batch plan (`network.predict_inputs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import missingness, network
from .errors import ConfigError, DataError, DivergenceError
from .linalg import new_rng
from .metrics import EvalReport, compute_metrics
from .timeseries import DatasetSplit, TimeSeriesSample

IMPUTATIONS = {
    "average": missingness.impute_average,
    "last": missingness.impute_last,
    "simple": missingness.impute_simple,
}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    max_epochs: int = 200
    patience: int = 10

    def __post_init__(self):
        for name in ("learning_rate", "eps_adam", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got "
                                  f"{getattr(self, name)}")
        if self.patience >= self.max_epochs:
            raise ConfigError("patience must be smaller than max_epochs")


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, in theta's layout
    v: np.ndarray
    t: int = 0
    # two vectors of scratch for the update, in the same layout
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, *self.m.shape))

    @classmethod
    def for_model(cls, model: network.Model) -> "AdamState":
        return cls(m=np.zeros_like(model.theta), v=np.zeros_like(model.theta))


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = 0

    def csv_rows(self) -> list[tuple[int, float, float]]:
        return [(e + 1, tl, vl) for e, (tl, vl)
                in enumerate(zip(self.train_losses, self.val_losses))]


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              config: TrainConfig) -> None:
    """Standard bias-corrected Adam update of `theta`, applied in place."""
    if grad.shape != theta.shape:
        raise ConfigError(f"gradient shape {grad.shape} != theta {theta.shape}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v, (step, den) = state.m, state.v, state.work
    m *= b1
    np.multiply(grad, 1.0 - b1, step)
    m += step
    v *= b2
    np.multiply(grad, 1.0 - b2, step)
    step *= grad
    v += step
    # lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, step)
    step *= config.learning_rate
    np.divide(v, bc2, den)
    np.sqrt(den, den)
    den += config.eps_adam
    step /= den
    theta -= step


def _prepare_inputs(model: network.Model, samples: list[TimeSeriesSample],
                    imputation: str | None,
                    stats: missingness.TrainStats) -> np.ndarray:
    """The model's first-layer input for a split (`network.layer_inputs`),
    stacked and checked once: the decay model reads the raw windows, the
    others windows with their missing entries imputed by one imputer call
    over the stacked split (the imputers are elementwise)."""
    x, m, stamps, delta = network.stack_windows(samples, "x", "m", "s", "delta")
    variant = model.spec.variant
    if variant != "gru-d" and not (m > 0.5).all():
        if imputation is None:
            raise ConfigError(f"{variant} model requires an imputation "
                              f"choice on missing data")
        if imputation not in IMPUTATIONS:
            raise ConfigError(f"unknown imputation {imputation!r}; "
                              f"one of {sorted(IMPUTATIONS)}")
        missingness.check_increasing(stamps)
        x = IMPUTATIONS[imputation](
            missingness.MaskedView(x=x, m=m, s=stamps, delta=delta), stats)
    return network.layer_inputs(model, x, m, delta)


def _mean_loss(y_hat: np.ndarray, y: list[float]) -> float:
    """Mean squared error of predictions against targets, summed in sample
    order."""
    total = 0.0
    for a, b in zip(y_hat.tolist(), y):
        total += network.loss_mse(a, b)
    return total / len(y)


def train(model: network.Model, splits: DatasetSplit,
          imputation: str | None, config: TrainConfig, seed: int):
    """Optimize until validation loss stalls; returns (best model, report)."""
    if not splits.train or not splits.validation:
        raise DataError("train and validation sets must be non-empty")

    stats = missingness.empirical_mean([s.view() for s in splits.train])
    network.set_train_stats(model, stats)

    # the job's step plan: both splits stacked and checked once, a plan for
    # one training window (its backward is laid out by the first
    # `network.backward`) and one for the validation split, and Adam's state
    windows = list(_prepare_inputs(model, splits.train, imputation,
                                   stats)[:, None])
    targets = [s.y for s in splits.train]
    step = network.Plan(model, np.empty_like(windows[0]))
    val = network.Plan(model, _prepare_inputs(model, splits.validation,
                                              imputation, stats))
    val_targets = [s.y for s in splits.validation]
    state = AdamState.for_model(model)
    report = TrainReport()
    best_val = math.inf
    best_theta = None
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = new_rng(seed * 1_000_003 + epoch).permutation(len(windows))
        epoch_loss = 0.0
        for i in order.tolist():
            y_hat = float(step.run(windows[i])[0])
            loss = network.loss_mse(y_hat, targets[i])
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss
            grad = network.backward(model, step, targets[i])
            adam_step(model.theta, grad, state, config)
        val_loss = _mean_loss(val.run(), val_targets)
        if not math.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        report.train_losses.append(epoch_loss / len(windows))
        report.val_losses.append(val_loss)
        report.epochs_run = epoch
        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            best_theta = model.theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.theta[...] = best_theta
    return model, report


def evaluate(model: network.Model, test_set: list[TimeSeriesSample],
             imputation: str | None) -> EvalReport:
    """Metrics over a held-out set, using the model's frozen training stats."""
    if not test_set:
        raise DataError("test set must be non-empty")
    if model.train_stats is None:
        raise ConfigError("model has no training statistics; train it first")
    inputs = _prepare_inputs(model, test_set, imputation, model.train_stats)
    y_pred = network.predict_inputs(model, inputs).tolist()
    return compute_metrics([s.y for s in test_set], y_pred)
