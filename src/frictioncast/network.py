"""Sequence models with a scalar regression head, exact BPTT, persistence.

A model is a stack of cells (depth-1 by default) plus a linear readout on the
final hidden state; its trainable tensors are views into one flat vector,
each layer's fields in declaration order (`cells._Params.lay_out`), then the
head. The named tensors, `unflatten` and `model.json` name a gated layer's
block rows per gate (`layers.0.w_r`, ...). The decay variant consumes the
raw mask/interval channels of a sample; every other variant requires fully
observed (or pre-imputed) input.

The forward pass runs layer by layer over a batch of same-length windows
(`cells` holds the layers). `predict` scores B windows in one call; its entry
b equals `forward` on window b alone bit for bit, because every product in
the pass rounds per row. `forward` runs one window and keeps its trace, each
layer's cache of [T, ·] arrays, for `backward`, which returns the loss
gradient in the parameter vector's layout, layer by layer too: a time loop
of step kernels fills the layer's gate-gradient buffer, then stacked
products over the window give its weight and input gradients.
`gradient_check` compares it against central finite differences.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import cells
from .errors import (ConfigError, ShapeError, UnimputedValueError,
                     read_json_object)
from .missingness import TrainStats
from .timeseries import TimeSeriesSample

VARIANTS = ("gru", "gru-d", "lstm", "ffnn")

MODEL_FORMAT = "frictioncast-model"
MODEL_FORMAT_VERSION = 1
GRADCHECK_EPS = 1e-5  # the finite-difference step of `gradient_check`


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    input_dim: int = 1
    hidden_size: int = 16
    recurrent_depth: int = 1
    ffnn_hidden_layers: int = 2
    window_len: int = 7  # T; only the feed-forward variant needs it up front

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        for f in fields(self)[1:]:  # the sizes and counts
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {value}")


@dataclass
class Model:
    """Trainable values live in one float64 vector, `theta`; the layers'
    tensors and the head are rebound as views into it on construction."""
    spec: ModelSpec
    layers: list            # cell params per layer
    head_w: np.ndarray      # [H]
    head_b: np.ndarray      # [1]
    train_stats: TrainStats | None = None
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = [0, *itertools.accumulate(
            sum(t.size for t in layer.tensors().values()) for layer in self.layers)]
        self._layer_spans = tuple(zip(bounds, bounds[1:]))
        head = bounds[-1]
        self.theta = np.empty(head + self.head_w.size + 1)
        for layer, (lo, hi) in zip(self.layers, self._layer_spans):
            layer.bind(self.theta[lo:hi])
        self.theta[head:] = np.concatenate([self.head_w, self.head_b])
        self.head_w, self.head_b = self.theta[head:-1], self.theta[-1:]

    def __deepcopy__(self, memo) -> "Model":
        # views copied one by one lose theta; the constructor relinks them
        return Model(spec=self.spec, layers=copy.deepcopy(self.layers, memo),
                     head_w=self.head_w.copy(), head_b=self.head_b.copy(),
                     train_stats=copy.deepcopy(self.train_stats, memo))

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views into a vector in theta's layout, keyed by dotted path: each
        layer's `tensors`, then the head."""
        views = {f"layers.{i}.{name}": t
                 for i, (layer, (lo, hi)) in enumerate(zip(self.layers,
                                                           self._layer_spans))
                 for name, t in layer.tensors(vec[lo:hi]).items()}
        head = self._layer_spans[-1][1]
        return views | {"head.w": vec[head:-1], "head.b": vec[-1:]}

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Trainable tensors keyed by a stable dotted path (views, mutable)."""
        return self.unflatten(self.theta)


def build_model(spec: ModelSpec, rng,
                x_mean: np.ndarray | None = None) -> Model:
    """Initialize a model; weights N(0, 1/fan_in), biases zero, decay weights
    at the small positive constant that keeps the rectifier trainable."""
    d, h = spec.input_dim, spec.hidden_size
    layers = []
    if spec.variant == "ffnn":
        d_in = spec.window_len * d
        for _ in range(spec.ffnn_hidden_layers):
            layers.append(cells.init_dense(d_in, h, rng))
            d_in = h
    elif spec.variant == "gru-d":
        layers.append(cells.init_grud(d, h, rng, x_mean=x_mean))
        for _ in range(spec.recurrent_depth - 1):
            layers.append(cells.init_gru(h, h, rng))
    else:
        init = cells.init_gru if spec.variant == "gru" else cells.init_lstm
        d_in = d
        for _ in range(spec.recurrent_depth):
            layers.append(init(d_in, h, rng))
            d_in = h
    head_w = rng.standard_normal(h) / np.sqrt(h)
    return Model(spec=spec, layers=layers, head_w=head_w, head_b=np.zeros(1))


def set_train_stats(model: Model, stats: TrainStats) -> None:
    """Attach frozen training statistics; feeds the decay cell's mean."""
    model.train_stats = stats
    if model.spec.variant == "gru-d":
        model.layers[0].x_mean = stats.mean.copy()


def _layer_kind(spec: ModelSpec, layer_idx: int) -> str:
    if spec.variant == "ffnn":
        return "dense"
    if spec.variant == "gru-d":
        return "gru-d" if layer_idx == 0 else "gru"
    return spec.variant


def stack_windows(samples: list[TimeSeriesSample],
                  *keys: str) -> tuple[np.ndarray, ...]:
    """The fields `keys` of same-shape windows, each stacked on a leading
    batch axis."""
    try:
        return tuple(np.array([getattr(s, k) for s in samples]) for k in keys)
    except ValueError as exc:
        raise ShapeError(f"windows of different shapes in one batch: {exc}"
                         ) from exc


def _run(model: Model, x: np.ndarray, m: np.ndarray, delta: np.ndarray):
    """The forward pass over B same-length windows (inputs, mask and
    intervals, each [B, T, D]), layer by layer: (predictions [B], each
    layer's cache of [B, ·] arrays, h_final [B, H])."""
    spec = model.spec
    if x.ndim != 3 or x.shape[2] != spec.input_dim:
        raise ShapeError(
            f"sample has {x.shape[-1]} variables, model expects {spec.input_dim}"
        )
    if spec.variant != "gru-d" and np.isnan(x).any():
        raise UnimputedValueError(
            f"unimputed missing value reaching a {spec.variant} model"
        )

    caches = []
    if spec.variant == "ffnn":
        v = x.reshape(len(x), -1)
        if v.shape[1] != model.layers[0].w.shape[1]:
            raise ShapeError(
                f"window length {x.shape[1]} does not match the configured "
                f"feed-forward input size"
            )
        for layer in model.layers:
            v, cache = cells.dense_step(layer, v)
            caches.append(cache)
        h_final = v
    else:
        v = x
        for li, layer in enumerate(model.layers):
            kind = _layer_kind(spec, li)
            if kind == "gru-d":
                v, cache = cells.grud_layer(layer, x, m, delta)
            elif kind == "gru":
                v, cache = cells.gru_layer(layer, v)
            else:  # lstm
                v, cache = cells.lstm_layer(layer, v)
            caches.append(cache)
        h_final = v[:, -1]
    y_hat = (model.head_w @ h_final[..., None])[..., 0] + model.head_b[0]
    return y_hat, caches, h_final


def forward(model: Model, sample: TimeSeriesSample):
    """Unroll the model over one window; returns (prediction, trace), the
    trace holding each layer's cache for `backward` ([T, ·] arrays)."""
    y_hat, caches, h_final = _run(model, sample.x[None], sample.m[None],
                                  sample.delta[None])
    trace = {"caches": [{k: v[0] for k, v in cache.items()}
                        for cache in caches],
             "h_final": h_final[0], "y_hat": float(y_hat[0])}
    return trace["y_hat"], trace


def predict(model: Model, samples: list[TimeSeriesSample]) -> np.ndarray:
    """Predictions [B] of B same-length windows in one forward pass; entry b
    equals `forward(model, samples[b])[0]` bit for bit."""
    return _run(model, *stack_windows(samples, "x", "m", "delta"))[0]


def loss_mse(y_hat: float, y: float) -> float:
    return (y_hat - y) ** 2


def _weight_rows(kind: str, layer, bw: dict, n: int) -> np.ndarray:
    """Per-step weight-gradient rows [T, n] of one recurrent layer in its
    layout (`cells._Params.lay_out`), from one window's `backward_cache`
    once the step kernels have filled its gate-gradient buffer [T, G, H]:
    one broadcast product per field, each row of it a per-step outer
    product of a gate factor and an operand the forward cached."""
    da = bw["da"]
    x, h = bw["x"], bw["h_hat" if kind == "gru-d" else "h_prev"]  # x: x_hat
    rows = np.empty((len(da), n))
    w, u, b, *decay = layer.lay_out(rows)
    np.multiply(da[..., None], x[:, None, None], out=w)
    if kind == "lstm":
        np.multiply(da[..., None], h[:, None, None], out=u)
    else:  # the candidate's U acts on r * h_prev
        np.multiply(da[:, :2, :, None], h[:, None, None], out=u[:, :2])
        np.multiply(da[:, 2, :, None], (bw["rz"][:, 0] * h)[:, None],
                    out=u[:, 2])
    b[...] = da
    if kind == "gru-d":
        v, w_decay_x, b_decay_x, w_decay_h, b_decay_h = decay
        np.multiply(da[..., None], bw["m"][:, None, None], out=v)
        da_x, da_h = cells.grud_decay_backward(layer, bw)
        delta = bw["delta"]
        np.multiply(da_x, delta, out=w_decay_x)
        b_decay_x[...] = da_x
        np.multiply(da_h[..., None], delta[:, None], out=w_decay_h)
        b_decay_h[...] = da_h
    return rows


def backward(model: Model, trace: dict, y: float) -> np.ndarray:
    """Exact gradient of (y_hat - y)^2 w.r.t. theta, in theta's layout.

    Layer by layer from the top, each time loop runs only the recurrence:
    the step kernels read the layer's `cells.backward_cache` by step and
    fill its gate-gradient buffer. From the full buffer follow the weight
    gradients (`_weight_rows`) and the input gradient that the layer below
    adds at each step (`cells.window_input_grad`)."""
    spec = model.spec
    grad = np.zeros_like(model.theta)
    dy = 2.0 * (trace["y_hat"] - y)
    head = grad[model._layer_spans[-1][1]:]  # head.w, then head.b
    head[:-1] += dy * trace["h_final"]
    head[-1:] += dy
    dh_final = dy * model.head_w

    if spec.variant == "ffnn":
        dv = dh_final
        for li in range(len(model.layers) - 1, -1, -1):
            # the bottom layer's input gradient feeds nothing
            start, stop = model._layer_spans[li]
            dv = cells.dense_step_backward(model.layers[li], trace["caches"][li],
                                           dv, grad[start:stop],
                                           input_grad=li > 0)
        return grad

    d_above = None  # the input gradient [T, H] of the layer above
    for li in range(len(model.layers) - 1, -1, -1):
        kind, layer = _layer_kind(spec, li), model.layers[li]
        bw = cells.backward_cache(kind, trace["caches"][li])
        dh = dh_final if d_above is None else np.zeros(spec.hidden_size)
        dc = np.zeros(spec.hidden_size)
        for t in range(len(bw["da"]) - 1, -1, -1):
            d_out = dh if d_above is None else dh + d_above[t]
            if kind == "lstm":
                dh, dc = cells.lstm_step_backward(layer, bw, t, d_out, dc)[1:]
            elif kind == "gru-d":
                dh = cells.grud_step_backward(layer, bw, t, d_out)[1]
            else:
                dh = cells.gru_step_backward(layer, bw, t, d_out)[1]
        start, stop = model._layer_spans[li]
        # the rows in reverse time order, one after another from 0.0: the
        # kept axis is wide, so numpy adds them in turn, not pairwise
        np.add.reduce(_weight_rows(kind, layer, bw, stop - start)[::-1],
                      axis=0, initial=0.0, out=grad[start:stop])
        if li > 0:  # the bottom layer's input gradient feeds nothing
            d_above = cells.window_input_grad(layer, bw)
    return grad


def _kink_excluded(model: Model, trace: dict) -> np.ndarray:
    """Mask over theta of the decay-tensor elements whose rectifier sits too
    close to its kink: finite differences straddle the kink there, so the
    comparison is meaningless."""
    excluded = np.zeros(model.theta.size, dtype=bool)
    if model.spec.variant != "gru-d":
        return excluded
    cache = trace["caches"][0]
    max_delta = float(np.max(cache["delta"])) if cache["delta"].size else 0.0
    tol = 10.0 * GRADCHECK_EPS * (1.0 + max_delta)
    near_x = np.any(np.abs(cache["pre_x"]) < tol, axis=0)
    near_h = np.any(np.abs(cache["pre_h"]) < tol, axis=0)
    views = model.unflatten(excluded)
    views["layers.0.w_decay_x"][near_x] = True
    views["layers.0.b_decay_x"][near_x] = True
    views["layers.0.w_decay_h"][near_h] = True  # every column of a near row
    views["layers.0.b_decay_h"][near_h] = True
    return excluded


def gradient_check(model: Model, sample: TimeSeriesSample) -> float:
    """Worst relative error of analytic gradients vs central differences."""
    eps = GRADCHECK_EPS
    y = sample.y
    y_hat, trace = forward(model, sample)
    analytic = backward(model, trace, y)
    excluded = _kink_excluded(model, trace)

    # Central differences carry cancellation noise of roughly
    # macheps * |loss| / (2 * eps) in absolute terms, so components whose
    # magnitude sits within 1e5x of that floor cannot be certified to a
    # relative accuracy of 1e-5 no matter how exact the analytic gradient
    # is.  Skip them; the remaining components dominate the gradient and
    # would expose any systematic error in the backward pass.
    base_loss = loss_mse(y_hat, y)
    fd_floor = 1e5 * np.finfo(float).eps * (1.0 + abs(base_loss)) / (2.0 * eps)

    worst = 0.0
    theta = model.theta
    for k in np.flatnonzero(~excluded):
        orig = theta[k]
        theta[k] = orig + eps
        lp = loss_mse(forward(model, sample)[0], y)
        theta[k] = orig - eps
        lm = loss_mse(forward(model, sample)[0], y)
        theta[k] = orig
        numeric = (lp - lm) / (2.0 * eps)
        a = analytic[k]
        if max(abs(a), abs(numeric)) < fd_floor:
            continue
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


# --- persistence --------------------------------------------------------------

def _tensor_doc(t: np.ndarray) -> dict:
    return {"shape": list(t.shape), "data": t.reshape(-1).tolist()}


def _tensor_from_doc(doc, path, key: str, shape: tuple) -> np.ndarray:
    """A saved tensor checked against the `shape` the model expects."""
    try:
        saved = tuple(doc["shape"])
        data = np.array(doc["data"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {key}: malformed tensor ({exc})") from exc
    if saved != shape:
        raise ConfigError(f"{path}: {key} has shape {list(saved)}, "
                          f"the model expects {list(shape)}")
    if data.ndim != 1 or data.size != math.prod(shape):
        raise ConfigError(f"{path}: {key}: {data.size} values do not fill "
                          f"shape {list(shape)}")
    if not np.isfinite(data).all():  # JSON null reads as NaN
        raise ConfigError(f"{path}: {key} holds a non-finite value")
    return data.reshape(shape)


def save_model(model: Model, path) -> None:
    """Versioned JSON document; float64 round-trip is exact (repr formatting)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "tensors": {n: _tensor_doc(t) for n, t in model.named_tensors().items()},
    }
    if model.spec.variant == "gru-d" and model.layers[0].x_mean is not None:
        doc["x_mean"] = _tensor_doc(model.layers[0].x_mean)
    if model.train_stats is not None:
        doc["train_stats"] = {
            "mean": _tensor_doc(model.train_stats.mean),
            "max_interval": _tensor_doc(model.train_stats.max_interval),
        }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_model(path) -> Model:
    """Read a saved model; a document that does not fit the layout of its
    spec (a tensor missing, unknown or misshapen) raises ConfigError."""
    doc = read_json_object(path, "model")
    if doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model document")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported model format version")
    try:
        spec = ModelSpec(**doc["spec"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad model spec: {exc}") from exc
    from .linalg import new_rng
    model = build_model(spec, new_rng(0))
    views = model.named_tensors()
    saved = doc.get("tensors")
    if not isinstance(saved, dict):
        raise ConfigError(f"{path}: no tensors object")
    if unknown := sorted(saved.keys() - views.keys()):
        raise ConfigError(f"{path}: unknown tensor {unknown[0]!r}")
    for name, view in views.items():
        if name not in saved:
            raise ConfigError(f"{path}: missing tensor {name!r}")
        view[...] = _tensor_from_doc(saved[name], path, name, view.shape)
    d = (spec.input_dim,)
    if "x_mean" in doc:
        model.layers[0].x_mean = _tensor_from_doc(doc["x_mean"], path,
                                                  "x_mean", d)
    if "train_stats" in doc:
        stats = doc["train_stats"]
        if not isinstance(stats, dict):
            raise ConfigError(f"{path}: train_stats must be an object")
        model.train_stats = TrainStats(*(
            _tensor_from_doc(stats.get(k), path, f"train_stats.{k}", d)
            for k in ("mean", "max_interval")))
        if np.any(model.train_stats.max_interval <= 0.0):
            raise ConfigError(f"{path}: train_stats.max_interval must be > 0")
    return model
