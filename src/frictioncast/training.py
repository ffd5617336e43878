"""Adam optimization, the early-stopping training loop, and evaluation.

Updates are per-sample (stochastic). Each epoch reshuffles the training set
from a seed derived deterministically from the master seed, so a fixed seed
reproduces the whole run bit for bit. The best-validation parameters are
restored when early stopping fires.
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
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    theta -= config.learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2)
                                                       + config.eps_adam)


def _prepare_inputs(samples: list[TimeSeriesSample], variant: str,
                    imputation: str | None,
                    stats: missingness.TrainStats) -> list[TimeSeriesSample]:
    """Impute for non-decay models; the decay model consumes samples raw."""
    if variant == "gru-d":
        return samples
    if all(s.fully_observed for s in samples):
        return samples
    if imputation is None:
        raise ConfigError(
            f"{variant} model requires an imputation choice on missing data"
        )
    if imputation not in IMPUTATIONS:
        raise ConfigError(f"unknown imputation {imputation!r}; "
                          f"one of {sorted(IMPUTATIONS)}")
    # the imputers are elementwise: one call fills the stacked split, and
    # the filled windows' intervals are their timestamp gaps
    x, m, stamps, delta = network.stack_windows(samples, "x", "m", "s", "delta")
    filled = IMPUTATIONS[imputation](
        missingness.MaskedView(x=x, m=m, s=stamps, delta=delta), stats)
    gaps = missingness.observed_intervals(stamps, x.shape[2])
    ones = np.ones(x.shape)
    return [TimeSeriesSample(x=filled[i], s=sample.s, m=ones[i],
                             delta=gaps[i], y=sample.y)
            for i, sample in enumerate(samples)]


def _mean_loss(model: network.Model, samples: list[TimeSeriesSample]) -> float:
    """Mean squared error over `samples`, summed in sample order."""
    total = 0.0
    for y_hat, s in zip(network.predict(model, samples).tolist(), samples):
        total += network.loss_mse(y_hat, s.y)
    return total / len(samples)


def train(model: network.Model, splits: DatasetSplit,
          imputation: str | None, config: TrainConfig, seed: int):
    """Optimize until validation loss stalls; returns (best model, report)."""
    if not splits.train or not splits.validation:
        raise DataError("train and validation sets must be non-empty")

    stats = missingness.empirical_mean([s.view() for s in splits.train])
    network.set_train_stats(model, stats)
    variant = model.spec.variant
    train_set = _prepare_inputs(splits.train, variant, imputation, stats)
    val_set = _prepare_inputs(splits.validation, variant, imputation, stats)

    state = AdamState.for_model(model)
    report = TrainReport()
    best_val = math.inf
    best_theta = None
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = new_rng(seed * 1_000_003 + epoch).permutation(len(train_set))
        epoch_loss = 0.0
        for i in order:
            sample = train_set[i]
            y_hat, trace = network.forward(model, sample)
            loss = network.loss_mse(y_hat, sample.y)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss
            grad = network.backward(model, trace, sample.y)
            adam_step(model.theta, grad, state, config)
        val_loss = _mean_loss(model, val_set)
        if not math.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        report.train_losses.append(epoch_loss / len(train_set))
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
    prepared = _prepare_inputs(test_set, model.spec.variant, imputation,
                               model.train_stats)
    y_true = [s.y for s in prepared]
    y_pred = network.predict(model, prepared).tolist()
    return compute_metrics(y_true, y_pred)
