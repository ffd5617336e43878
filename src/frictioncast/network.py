"""Sequence models with a scalar regression head, exact BPTT, persistence.

A model is a stack of cells (depth-1 by default) plus a linear readout on the
final hidden state; its trainable tensors are views into one flat vector,
each layer's fields in declaration order (`cells._Params.lay_out`), then the
head. The named tensors, `unflatten` and `model.json` name a gated layer's
block rows per gate (`layers.0.w_r`, ...). The decay variant consumes the
raw mask/interval channels of a sample; every other variant requires fully
observed (or pre-imputed) input.

The forward and the backward run on a `Plan`: each layer's plan (`cells`)
laid out once for B same-length windows of the first layer's input and the
head's. `layer_inputs` is the one place that forms and checks that input,
from stacked windows (`stack_inputs` stacks a list of them first). The
first `backward` on a one-window plan lays out its backward, down to the
gradient vector. `Plan.run(rows)` copies rows of first-layer input in and
runs the forward. A training job lays out its plans once and runs them
(`training.train`).

The one-off calls `forward(model, sample)`, `predict(model, samples)` and
`predict_inputs(model, inputs)` run on plans the model keeps, at most two:
one for one window and one for a batch (the last batch shape it scored).
A call reuses the kept plan of its kind when it has the call's shape and
no live trace holds it; otherwise it lays out a fresh plan, which is kept
in its place. `forward` runs the one-window plan on its window's
`layer_inputs`, as `predict_inputs` runs the batch plan, and returns a
`Trace` of it, for `backward`: while the caller holds the trace, no later
call runs on that plan, so the trace's caches, prediction and gradient
stay those of its window. The model tells by a weak reference to the last
trace it lent, so nothing rests on reference counts. `predict` returns a
copy of the plan's predictions; its entry b equals `forward` on window b
alone bit for bit, because every product in the pass rounds per row.

`backward` returns the loss gradient in the parameter vector's layout,
layer by layer too: a time loop of step kernels fills the layer's
gate-gradient buffer, then stacked products over the window give its weight
and input gradients. `gradient_check` compares it against central finite
differences, all its forwards on one plan.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
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
    # the plans of one-off calls (`_free_plan`): for one window (True) and
    # for a batch (False), each with a weak reference to its trace, if lent
    _plans: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

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

    def __reduce__(self):
        # copied and pickled through the constructor: views copied one by
        # one lose theta, which it relinks, and the kept plans stay behind
        return Model, (self.spec, self.layers, self.head_w, self.head_b,
                       self.train_stats)

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
    at a small positive constant, so the decay rectifier starts active (it
    may still end dead after training, `cells.DECAY_WEIGHT_INIT`)."""
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


def layer_inputs(model: Model, x: np.ndarray, m: np.ndarray | None = None,
                 delta: np.ndarray | None = None) -> np.ndarray:
    """The input of the model's first layer for B same-length windows x
    [B, T, D] (m and delta, their mask and intervals, are read by the decay
    cell only), formed and checked once: the windows [B, T, D] for gru and
    lstm, the decay cell's inputs [B, 6, T, D] (`cells.grud_inputs`) for
    gru-d and the flattened windows [B, T * D] for ffnn (views of x, where
    no copy is needed); only the decay cell may read a missing (NaN)
    value. An empty batch, or a gru-d call without m or delta, raises
    ShapeError."""
    spec = model.spec
    if not len(x):
        raise ShapeError("an empty batch: there are no windows to run")
    if x.ndim != 3 or x.shape[2] != spec.input_dim:
        raise ShapeError(f"windows of shape {x.shape}: the model expects "
                         f"[B, T, {spec.input_dim}]")
    if spec.variant == "gru-d":
        if m is None or delta is None:
            raise ShapeError("the decay cell reads each window's mask m and "
                             "intervals delta, and none were given")
        return cells.grud_inputs(model.layers[0], x, m, delta)
    b, t_len, d = shape = x.shape
    if spec.variant == "ffnn":
        shape = (b, t_len * d)
        if shape[1] != model.layers[0].w.shape[1]:
            raise ShapeError(f"window length {t_len} does not match the "
                             f"configured feed-forward input size")
    if np.isnan(x).any():
        raise UnimputedValueError(
            f"unimputed missing value reaching a {spec.variant} model"
        )
    return np.asarray(x.reshape(shape), dtype=np.float64)


def stack_inputs(model: Model, samples: list[TimeSeriesSample]) -> np.ndarray:
    """`layer_inputs` of same-length windows, stacked once."""
    keys = ("x", "m", "delta") if model.spec.variant == "gru-d" else ("x",)
    return layer_inputs(model, *stack_windows(samples, *keys))


LAYERS = {"gru": cells.GruLayer, "gru-d": cells.GrudLayer,
          "lstm": cells.LstmLayer, "dense": cells.DenseLayer}


class Plan:
    """A model's forward pass laid out once for B same-length windows: the
    buffer `inputs` of the first layer's input (`layer_inputs`), each
    layer's plan (`cells`) and the head's; for B = 1, the first `backward`
    adds the backward's buffers and the gradient vector. Running it makes
    no array, dict or view; it computes into the same buffers every time,
    so it holds the caches of the windows it ran last, as a trace for
    `backward`."""

    def __init__(self, model: Model, inputs: np.ndarray):
        self.inputs = inputs
        self.layers = []
        v = inputs
        for li, layer in enumerate(model.layers):
            self.layers.append(LAYERS[_layer_kind(model.spec, li)](layer, v))
            v = self.layers[-1].out
        self.h_final = v if model.spec.variant == "ffnn" else v[:, -1]
        self.y_hat = np.empty(len(inputs))
        self.head = (model.head_w, self.h_final[..., None], self.y_hat[:, None],
                     model.head_b)
        self.grad = None

    @property
    def caches(self) -> list[dict]:
        """Each layer's cache of [B, T, ·] arrays."""
        return [layer.cache for layer in self.layers]

    def lay_out_backward(self, model: Model) -> None:
        """The backward's buffers, layer by layer from the top: each layer's
        input gradient is the grad arriving at the outputs of the layer
        below, and its weight gradients fill its slice of `grad`."""
        if len(self.inputs) != 1:
            raise ShapeError(f"the backward runs on one window, the plan "
                             f"holds {len(self.inputs)}")
        self.grad = np.zeros_like(model.theta)
        head = model._layer_spans[-1][1]
        dh_final = np.empty(model.spec.hidden_size)
        above = dh_final
        for li in range(len(self.layers) - 1, -1, -1):
            # the bottom layer's input gradient feeds nothing
            start, stop = model._layer_spans[li]
            self.layers[li].lay_out_backward(self.grad[start:stop], above,
                                             input_grad=li > 0)
            above = self.layers[li].dx
        self.down = self.layers[::-1]
        self.head_grad = (self.h_final[0], self.grad[head:-1],
                          self.grad[-1:], model.head_w, dh_final)

    def run(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The forward over the windows in `inputs`, after copying `rows` of
        first-layer input (same shape) into it when given: predictions [B]
        (the plan's buffer)."""
        if rows is not None:
            self.inputs[...] = rows
        for layer in self.layers:
            layer.forward()
        w, h, y_hat, b = self.head
        np.matmul(w, h, y_hat)
        y_hat += b
        return self.y_hat


class Trace:
    """A one-off `forward`'s hold on the plan it ran on, which it stands
    for: every attribute is the plan's. While the trace lives, no later
    one-off call runs on its plan, so the plan keeps the traced window's
    caches and prediction for `backward`."""

    __slots__ = ("plan", "__weakref__")

    def __init__(self, plan: Plan):
        self.plan = plan

    def __getattr__(self, name: str):
        return getattr(self.plan, name)


def _free_plan(model: Model, shape: tuple) -> Plan:
    """A plan for first-layer inputs of `shape` that no live trace holds:
    the model's kept one-window (B = 1) or batch plan when it has this
    shape and its trace, if it lent one, is gone; else a fresh plan, kept
    in its place."""
    one = shape[0] == 1
    kept = model._plans.get(one)
    if kept is not None:
        plan, lent = kept
        if plan.inputs.shape == shape and (lent is None or lent() is None):
            return plan
    plan = Plan(model, np.empty(shape))
    model._plans[one] = plan, None
    return plan


def forward(model: Model, sample: TimeSeriesSample):
    """Unroll the model over one window, its `layer_inputs` run on the
    model's one-window plan (`_free_plan`); returns (prediction, trace),
    the trace holding that plan, with each layer's cache, for `backward`:
    it stays as it is while the caller holds it."""
    inputs = layer_inputs(model, sample.x[None], sample.m[None],
                          sample.delta[None])
    plan = _free_plan(model, inputs.shape)
    y_hat = float(plan.run(inputs)[0])
    trace = Trace(plan)
    model._plans[True] = plan, weakref.ref(trace)
    return y_hat, trace


def predict_inputs(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Predictions [B] (a copy) of B windows given as their stacked
    first-layer input (`layer_inputs`), in one forward pass on a plan the
    model keeps."""
    return _free_plan(model, inputs.shape).run(inputs).copy()


def predict(model: Model, samples: list[TimeSeriesSample]) -> np.ndarray:
    """Predictions [B] of B same-length windows in one forward pass
    (`predict_inputs`); entry b equals `forward(model, samples[b])[0]` bit
    for bit, because every product rounds per row."""
    return predict_inputs(model, stack_inputs(model, samples))


def loss_mse(y_hat: float, y: float) -> float:
    return (y_hat - y) ** 2


def backward(model: Model, trace: Plan | Trace, y: float) -> np.ndarray:
    """Exact gradient of (y_hat - y)^2 w.r.t. theta, in theta's layout, for
    the window the trace (a one-window plan, or `forward`'s `Trace` of one)
    ran last; the first call on a plan lays out its backward. The result is
    the plan's gradient buffer: it stays as it is while the trace lives.

    Layer by layer from the top, each layer's time loop runs only the
    recurrence, and its weight and input gradients follow from the filled
    gate-gradient buffer (`cells`)."""
    if trace.grad is None:
        trace.lay_out_backward(model)
    h_final, g_w, g_b, head_w, dh_final = trace.head_grad
    dy = 2.0 * (trace.y_hat[0] - y)
    np.multiply(h_final, dy, g_w)
    g_w += 0.0  # as a sum from zero: a -0.0 product gives +0.0
    g_b.fill(0.0 + dy)
    np.multiply(head_w, dy, dh_final)
    for layer in trace.down:
        layer.backward()
    return trace.grad


def _kink_excluded(model: Model, trace: Plan) -> np.ndarray:
    """Mask over theta of the decay-tensor elements whose rectifier sits too
    close to its kink: finite differences straddle the kink there, so the
    comparison is meaningless."""
    excluded = np.zeros(model.theta.size, dtype=bool)
    if model.spec.variant != "gru-d":
        return excluded
    cache = {k: v[0] for k, v in trace.caches[0].items()}
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
    trace = Plan(model, stack_inputs(model, [sample]))
    y_hat = float(trace.run()[0])
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
        lp = loss_mse(float(trace.run()[0]), y)
        theta[k] = orig - eps
        lm = loss_mse(float(trace.run()[0]), y)
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
        x_mean = _tensor_from_doc(doc["x_mean"], path, "x_mean", d)
        if spec.variant != "gru-d":
            raise ConfigError(f"{path}: x_mean is the decay cell's training "
                              f"mean; a {spec.variant} model has none")
        model.layers[0].x_mean = x_mean
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
