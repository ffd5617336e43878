"""Data model: CSV ingestion, synthetic series, windowing, splits, missingness.

One segment's record is a daily friction series. Windows of length T feed the
models; the step after each window is the regression target, which is never
masked. Missing inputs are NaN sentinels paired with a {0,1} mask and the
recomputed interval matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import missingness
from .errors import ConfigError, DataError
from .linalg import new_rng

CSV_HEADER = ["segment_id", "day_index", "friction"]


@dataclass(frozen=True)
class SegmentSeries:
    segment_id: str
    values: np.ndarray      # [L] friction, nominally in [0, 1]
    timestamps: np.ndarray  # [L] days since first record, strictly increasing

    def __post_init__(self):
        if len(self.values) != len(self.timestamps) or len(self.values) < 1:
            raise DataError("values and timestamps must have equal length >= 1")
        if np.any(np.diff(self.timestamps) <= 0):
            raise DataError("timestamps must be strictly increasing")


@dataclass(frozen=True)
class TimeSeriesSample:
    """One training window: T input steps plus the observed next-step target."""

    x: np.ndarray      # [T, D], NaN where missing
    s: np.ndarray      # [T] timestamps, rebased to start at 0
    m: np.ndarray      # [T, D] mask
    delta: np.ndarray  # [T, D] intervals, delta[0] = 0
    y: float           # target value at step T+1, always observed

    def view(self) -> missingness.MaskedView:
        return missingness.MaskedView(x=self.x, m=self.m, s=self.s,
                                      delta=self.delta)

    @property
    def fully_observed(self) -> bool:
        return bool((self.m > 0.5).all())


@dataclass(frozen=True)
class DatasetSplit:
    train: list[TimeSeriesSample]
    validation: list[TimeSeriesSample]
    test: list[TimeSeriesSample]


@dataclass(frozen=True)
class SynthConfig:
    n_days: int = 446
    base_friction: float = 0.75
    winter_depth: float = 0.45
    winter_center_day: float = 330.0
    winter_width: float = 40.0
    noise_std: float = 0.02
    episode_std: float = 0.09
    episode_corr: float = 0.85

    def __post_init__(self):
        if self.n_days < 2:
            raise ConfigError("n_days must be >= 2")
        if not 0.0 <= self.base_friction <= 1.0:
            raise ConfigError("base_friction must lie in [0, 1]")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.episode_std < 0:
            raise ConfigError("episode_std must be >= 0")
        if not 0.0 <= self.episode_corr < 1.0:
            raise ConfigError("episode_corr must lie in [0, 1)")


def ingest_csv(path) -> dict[str, SegmentSeries]:
    """Read `segment_id,day_index,friction` rows into per-segment series."""
    rows_by_seg: dict[str, dict[float, float]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            seg = row[0].strip()
            try:
                day = float(row[1])
                friction = float(row[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric field") from None
            if not (math.isfinite(day) and math.isfinite(friction)):
                raise DataError(f"{path}:{lineno}: non-finite field")
            if day < 0:
                raise DataError(f"{path}:{lineno}: negative day_index")
            seg_rows = rows_by_seg.setdefault(seg, {})
            if day in seg_rows:
                raise DataError(
                    f"{path}:{lineno}: duplicate (segment, day) pair ({seg}, {row[1]})"
                )
            seg_rows[day] = friction
    if not rows_by_seg:
        raise DataError(f"{path}: no data rows")
    out = {}
    for seg, seg_rows in rows_by_seg.items():
        days = sorted(seg_rows)
        out[seg] = SegmentSeries(
            segment_id=seg,
            values=np.array([seg_rows[d] for d in days]),
            timestamps=np.array(days, dtype=np.float64),
        )
    return out


def window(series: SegmentSeries, t_len: int) -> list[TimeSeriesSample]:
    """Slide a length-T window over the series; the next step is the target."""
    length = len(series.values)
    if length <= t_len:
        raise DataError(
            f"series too short: length {length} needs more than T={t_len} steps"
        )
    starts = np.arange(length - t_len)
    steps = starts[:, None] + np.arange(t_len)
    s = series.timestamps[steps] - series.timestamps[starts, None]
    x = series.values[steps][..., None]
    delta = missingness.observed_intervals(s, 1)
    m = np.ones(x.shape)
    return [TimeSeriesSample(x=x[i], s=s[i], m=m[i], delta=delta[i],
                             y=float(series.values[i + t_len]))
            for i in starts.tolist()]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(samples: list[TimeSeriesSample], seed: int) -> DatasetSplit:
    """Deterministic shuffled 7:2:1 split (round-half-up, remainder to test)."""
    n = len(samples)
    if n < 10:
        raise DataError(f"need at least 10 samples to split, got {n}")
    order = new_rng(seed).permutation(n)
    n_train = _round_half_up(0.7 * n)
    n_val = _round_half_up(0.2 * n)
    shuffled = [samples[i] for i in order]
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def _winter_bump(day: np.ndarray, center: float, width: float) -> np.ndarray:
    """Smooth annual-period well, 1 at the winter center, ~0 in summer."""
    if width <= 0:
        return np.zeros_like(day)
    offset = np.mod(day - center, 365.0)
    dist = np.minimum(offset, 365.0 - offset)
    return np.exp(-0.5 * (dist / width) ** 2)


def _weather_episodes(rng, n: int, std: float, corr: float) -> np.ndarray:
    """Stationary AR(1) deviations: multi-day wet/icy spells around the base."""
    if std == 0.0:
        return np.zeros(n)
    shocks = std * np.sqrt(1.0 - corr**2) * rng.standard_normal(n)
    episodes = np.empty(n)
    episodes[0] = std * rng.standard_normal()
    for t in range(1, n):
        episodes[t] = corr * episodes[t - 1] + shocks[t]
    return episodes


def synthesize(config: SynthConfig, seed: int) -> SegmentSeries:
    """Daily friction-like series: a base level minus a winter well, overlaid
    with persistent weather episodes and day-to-day measurement noise."""
    rng = new_rng(seed)
    days = np.arange(config.n_days, dtype=np.float64)
    values = (config.base_friction
              - config.winter_depth * _winter_bump(days, config.winter_center_day,
                                                   config.winter_width)
              + _weather_episodes(rng, config.n_days, config.episode_std,
                                  config.episode_corr)
              + config.noise_std * rng.standard_normal(config.n_days))
    values = np.clip(values, 0.05, 1.0)
    return SegmentSeries(segment_id=f"synth-{seed}", values=values,
                         timestamps=days)


def mask_windows(samples: list[TimeSeriesSample], rate: float,
                 seeds: list[int]) -> list[TimeSeriesSample]:
    """Mask each input step of fully observed, same-shape windows i.i.d.
    with probability `rate`, window i from its own seed `seeds[i]`; targets
    untouched. The intervals of all windows come from one recurrence."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"missing rate must lie in [0, 1), got {rate}")
    for i, sample in enumerate(samples):
        if not sample.fully_observed:
            raise DataError(f"mask_windows expects fully observed windows; "
                            f"window {i} has missing entries")
    if rate == 0.0:
        return list(samples)
    x = np.array([np.where(new_rng(seed).random(sample.x.shape) < rate,
                           np.nan, sample.x)
                  for sample, seed in zip(samples, seeds, strict=True)])
    m = missingness.compute_mask(x)
    delta = missingness.compute_intervals(
        np.array([sample.s for sample in samples]), m)
    return [TimeSeriesSample(x=x[i], s=sample.s, m=m[i], delta=delta[i],
                             y=sample.y)
            for i, sample in enumerate(samples)]


def inject_missing(sample: TimeSeriesSample, rate: float,
                   seed: int) -> TimeSeriesSample:
    """Mask each input step i.i.d. with probability `rate`; target untouched.
    The one-window case of `mask_windows`."""
    return mask_windows([sample], rate, [seed])[0]
