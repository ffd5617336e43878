"""Plain-numpy reference that the benchmark's output checks compare against.

Written from the model equations (the decay cell of Che et al. 2018,
"Recurrent Neural Networks for Multivariate Time Series with Missing
Values"), not from the package: it imports nothing from `frictioncast`.
Every function works on a batch of windows at once, shaped [n, T, D], so
that checking a whole round costs a few matrix products.

Model weights are read from a flat mapping of tensor names to arrays, the
names the package persists in `model.json` ("layers.0.w_r", "head.w", ...).
"""

from __future__ import annotations

import numpy as np


def sigmoid(a: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def decay(w: np.ndarray, b: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """gamma = exp(-max(0, w * delta + b)); diagonal map for 1-D `w`."""
    pre = delta * w + b if w.ndim == 1 else delta @ w.T + b
    return np.exp(-np.maximum(pre, 0.0))


def intervals(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Time since the last observation: delta_0 = 0 and
    delta_t = s_t - s_{t-1} + (1 - m_{t-1}) * delta_{t-1}.

    `s` is [n, T] timestamps, `m` is [n, T, D]; returns [n, T, D].
    """
    delta = np.zeros(m.shape)
    for t in range(1, m.shape[1]):
        gap = (s[:, t] - s[:, t - 1])[:, None]
        delta[:, t] = gap + (1.0 - m[:, t - 1]) * delta[:, t - 1]
    return delta


def train_stats(x: np.ndarray, m: np.ndarray,
                delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the observed values and the largest interval, per variable."""
    obs = m > 0.5
    mean = np.where(obs, x, 0.0).sum(axis=(0, 1)) / obs.sum(axis=(0, 1))
    return mean, delta.max(axis=(0, 1))


def last_observed(x: np.ndarray, m: np.ndarray,
                  mean: np.ndarray) -> np.ndarray:
    """The last value observed strictly before each step; `mean` before any."""
    out = np.empty(x.shape)
    last = np.broadcast_to(mean, x[:, 0].shape)
    for t in range(x.shape[1]):
        out[:, t] = last
        last = np.where(m[:, t] > 0.5, x[:, t], last)
    return out


def impute_average(x, m, delta, mean, max_interval):
    return np.where(m > 0.5, x, mean)


def impute_last(x, m, delta, mean, max_interval):
    return np.where(m > 0.5, x, last_observed(x, m, mean))


def impute_simple(x, m, delta, mean, max_interval):
    """Missing slots blend the last observation and the mean; the interval,
    scaled by the largest training interval and capped at 1, weights the
    last observation."""
    w = np.minimum(delta / max_interval, 1.0)
    return np.where(m > 0.5, x,
                    w * last_observed(x, m, mean) + (1.0 - w) * mean)


IMPUTERS = {"average": impute_average, "last": impute_last,
            "simple": impute_simple}


def _gru_gates(p: dict, x: np.ndarray, h: np.ndarray,
               extra: dict | None = None) -> np.ndarray:
    """r, z, candidate and the new state of a gated recurrent unit.

    `extra` adds one more input term per gate (the mask channels of GRU-D).
    """
    def pre(gate, hidden):
        a = x @ p[f"w_{gate}"].T + hidden @ p[f"u_{gate}"].T + p[f"b_{gate}"]
        return a if extra is None else a + extra[gate]
    r = sigmoid(pre("r", h))
    z = sigmoid(pre("z", h))
    c = np.tanh(pre("c", r * h))
    return (1.0 - z) * h + z * c


def _layer(tensors: dict, i: int) -> dict:
    prefix = f"layers.{i}."
    return {k[len(prefix):]: v for k, v in tensors.items()
            if k.startswith(prefix)}


def _head(tensors: dict, h: np.ndarray) -> np.ndarray:
    return h @ tensors["head.w"] + tensors["head.b"][0]


def gru_predict(tensors: dict, x: np.ndarray) -> np.ndarray:
    """Stacked GRU over fully observed windows [n, T, D] -> predictions [n]."""
    n, t_len, _ = x.shape
    layers = []
    while f"layers.{len(layers)}.w_r" in tensors:
        layers.append(_layer(tensors, len(layers)))
    states = [np.zeros((n, p["u_r"].shape[0])) for p in layers]
    for t in range(t_len):
        inp = x[:, t]
        for li, p in enumerate(layers):
            states[li] = _gru_gates(p, inp, states[li])
            inp = states[li]
    return _head(tensors, states[-1])


def grud_predict(tensors: dict, x_mean: np.ndarray, x: np.ndarray,
                 m: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """One-layer GRU-D over masked windows -> predictions [n].

    x_hat = m x + (1 - m)(gamma_x x_last + (1 - gamma_x) x_mean),
    h_hat = gamma_h h, and the mask enters every gate through V m.
    """
    p = _layer(tensors, 0)
    n, t_len, _ = x.shape
    h = np.zeros((n, p["u_r"].shape[0]))
    x_last = last_observed(x, m, x_mean)
    for t in range(t_len):
        mt, dt = m[:, t], delta[:, t]
        gamma_x = decay(p["w_decay_x"], p["b_decay_x"], dt)
        gamma_h = decay(p["w_decay_h"], p["b_decay_h"], dt)
        x_obs = np.where(mt > 0.5, x[:, t], 0.0)
        x_hat = mt * x_obs + (1.0 - mt) * (gamma_x * x_last[:, t]
                                           + (1.0 - gamma_x) * x_mean)
        extra = {g: mt @ p[f"v_{g}"].T for g in ("r", "z", "c")}
        h = _gru_gates(p, x_hat, gamma_h * h, extra)
    return _head(tensors, h)


def mae_mse(y: np.ndarray, y_hat: np.ndarray) -> tuple[float, float]:
    err = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    return float(np.mean(np.abs(err))), float(np.mean(err * err))
