"""Masking vectors, the time-interval recurrence, and baseline imputers.

All per-step arrays are shaped [T, D]: rows are time steps, columns are
variables. Missing entries are stored as NaN and exposed through the mask;
the imputers (`impute_average`, `impute_last`, `impute_simple`) return a new
value array with the sentinels filled in. They are elementwise, so a view
of stacked windows [B, T, D] imputes them all in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class MaskedView:
    """Read-only bundle of one window's values, mask, timestamps, intervals."""

    x: np.ndarray      # [T, D], NaN where missing
    m: np.ndarray      # [T, D], entries in {0, 1}
    s: np.ndarray      # [T], strictly increasing timestamps
    delta: np.ndarray  # [T, D], time since last observation


@dataclass(frozen=True)
class TrainStats:
    """Per-variable statistics frozen from the training split."""

    mean: np.ndarray          # empirical mean of observed values, [D]
    max_interval: np.ndarray  # largest interval seen in training, [D]


def compute_mask(values: np.ndarray) -> np.ndarray:
    """1 where a value is present, 0 where it is the NaN sentinel."""
    return np.where(np.isnan(values), 0.0, 1.0)


def observed_intervals(s: np.ndarray, d: int) -> np.ndarray:
    """Intervals [..., T, d] of fully observed windows with timestamps
    s [..., T] (any leading batch axes): each step's gap since the step
    before, 0 at the first step. This is `compute_intervals` on a mask of
    ones, without its carry."""
    gaps = np.diff(s, axis=-1)
    if np.any(gaps <= 0):
        raise DataError("timestamps must be strictly increasing")
    delta = np.zeros((*s.shape, d), dtype=np.float64)
    delta[..., 1:, :] = gaps[..., None]
    return delta


def compute_intervals(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elapsed time since the last observation, per step and variable.

    delta[0] = 0; for t > 0 the gap s[t] - s[t-1] is extended by delta[t-1]
    whenever step t-1 was itself missing.
    """
    s = np.asarray(s, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if s.ndim != 1 or m.ndim != 2 or m.shape[0] != s.shape[0]:
        raise DataError(f"timestamps {s.shape} do not match mask {m.shape}")
    delta = observed_intervals(s, m.shape[1])
    # only a step that follows a missing entry carries an interval over;
    # elsewhere the gap stands alone (gap + 0.0 == gap for a gap > 0)
    for t in np.flatnonzero(np.any(m[:-1] == 0.0, axis=1)) + 1:
        delta[t] += np.where(m[t - 1] == 0.0, delta[t - 1], 0.0)
    return delta


def empirical_mean(views: list[MaskedView]) -> TrainStats:
    """Mean of observed values and the largest interval, from training data only."""
    if not views:
        raise DataError("no training data")
    d = views[0].x.shape[1]
    value_sum = np.zeros(d)
    count = np.zeros(d)
    max_interval = np.zeros(d)
    for v in views:
        obs = v.m > 0.5
        value_sum += np.sum(np.where(obs, v.x, 0.0), axis=0)
        count += np.sum(obs, axis=0)
        max_interval = np.maximum(max_interval, np.max(v.delta, axis=0))
    if np.any(count == 0):
        raise DataError("a variable has no observed values in the training data")
    if np.any(max_interval <= 0):
        raise DataError("training data carries no positive interval")
    return TrainStats(mean=value_sum / count, max_interval=max_interval)


def last_observed(x: np.ndarray, m: np.ndarray,
                  mean: np.ndarray) -> np.ndarray:
    """Most recent observed value strictly before each step, along the time
    axis of x and m ([..., T, D], any leading batch axes); `mean` [D] before
    any observation. Pure selection by index accumulation, so exact."""
    *lead, t_steps, d = x.shape
    choices = np.empty((*lead, t_steps + 1, d))  # row 0 the mean, k + 1 step k
    choices[..., 0, :] = mean
    choices[..., 1:, :] = x
    # the row of the latest observation before each step: a running maximum
    # of 1 + the observed steps, shifted one step later; 0 before any
    rows = np.zeros(choices.shape, dtype=np.intp)
    rows[..., 1:, :] = np.where(m > 0.5, np.arange(1, t_steps + 1)[:, None], 0)
    np.maximum.accumulate(rows, axis=-2, out=rows)
    return np.take_along_axis(choices, rows[..., :-1, :], axis=-2)


def impute_average(view: MaskedView, stats: TrainStats) -> np.ndarray:
    """Fill missing slots with the training-set empirical mean."""
    obs = view.m > 0.5
    return np.where(obs, view.x, stats.mean)


def impute_last(view: MaskedView, stats: TrainStats) -> np.ndarray:
    """Carry the last observation forward; empirical mean before any observation."""
    obs = view.m > 0.5
    return np.where(obs, view.x, last_observed(view.x, view.m, stats.mean))


def impute_simple(view: MaskedView, stats: TrainStats) -> np.ndarray:
    """Interval-weighted blend of the last observation and the empirical mean.

    The interval is normalized by the largest training interval and clamped
    to [0, 1], so each filled slot is a convex combination of the two anchors.
    The normalized interval weights the last observation.
    """
    obs = view.m > 0.5
    d_hat = np.minimum(view.delta / stats.max_interval, 1.0)
    last = last_observed(view.x, view.m, stats.mean)
    filled = d_hat * last + (1.0 - d_hat) * stats.mean
    return np.where(obs, view.x, filled)
