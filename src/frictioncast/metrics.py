"""Evaluation measurements: MAE, MSE and MAPE over a prediction set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAPE_GUARD = 1e-6


@dataclass(frozen=True)
class EvalReport:
    mae: float
    mse: float
    mape_percent: float
    n: int
    mape_excluded: int = 0  # targets below MAPE_GUARD in magnitude


def _mean(a: np.ndarray) -> float:
    """`np.mean` of a float vector, the same sum and division without its
    dispatch, which costs more than the arithmetic on a scored split."""
    return float(np.add.reduce(a)) / a.size


def compute_metrics(y_true, y_pred) -> EvalReport:
    """MAE, MSE and MAPE (in percent) of predictions against targets.

    Targets with |y| < MAPE_GUARD are excluded from the MAPE term only;
    the exclusion count is surfaced on the report.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise DataError(f"length mismatch: {yt.shape} vs {yp.shape}")
    if yt.size == 0:
        raise DataError("empty prediction set")
    err = yt - yp
    mae = _mean(np.abs(err))
    mse = _mean(np.square(err))
    ok = np.abs(yt) >= MAPE_GUARD
    excluded = yt.size - np.count_nonzero(ok)
    if excluded == yt.size:
        raise DataError("all targets below the MAPE magnitude guard")
    mape = 100.0 * _mean(np.abs(err[ok] / yt[ok]))
    return EvalReport(mae=mae, mse=mse, mape_percent=mape, n=int(yt.size),
                      mape_excluded=excluded)
