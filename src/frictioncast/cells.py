"""Single-step forward/backward kernels for the recurrent cells.

Implements the plain gated recurrent cell, its decay-mechanism variant for
missing data, a standard LSTM step for the baseline, and a dense layer for
the feed-forward baseline. Both gated recurrent cells share one private gate
update and its backward pass; the decay cell is a preamble over it that
decays the input and the carried state and adds the mask terms V·m to each
gate. Every forward step returns a write-once cache holding exactly the
intermediates the matching backward step needs; backward passes are exact
reverse-mode, gradient-checked against finite differences.

The recurrent backward steps do only what the recurrence needs: they return
the gate pre-activation gradients, not weight gradients. A weight's gradient
at a step is the outer product of a gate gradient and an operand the forward
step cached; the caller forms those once per window (`network.backward`),
and `grud_decay_backward` runs the decay path over a whole window.

Conventions: x is the input vector [D], h the hidden state [H]. The decay
rate is exp(-max(0, w·delta + b)), so it lives in (0, 1] and its gradient is
zero wherever the rectifier is inactive (subgradient 0 at the kink).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ShapeError
from .linalg import sigmoid

class _Params:
    def tensors(self) -> dict[str, np.ndarray]:
        """Trainable tensors by field name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("trained", True)}


@dataclass
class GruParams(_Params):
    w_r: np.ndarray  # [H, D]
    u_r: np.ndarray  # [H, H]
    b_r: np.ndarray  # [H]
    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_c: np.ndarray  # candidate-state weights
    u_c: np.ndarray
    b_c: np.ndarray


@dataclass
class GrudParams(GruParams):
    v_r: np.ndarray        # [H, D] mask weights
    v_z: np.ndarray
    v_c: np.ndarray
    w_decay_x: np.ndarray  # [D] diagonal per-variable input decay
    b_decay_x: np.ndarray  # [D]
    w_decay_h: np.ndarray  # [H, D] hidden decay
    b_decay_h: np.ndarray  # [H]
    # [D] frozen training mean; a buffer, not a trainable tensor
    x_mean: np.ndarray = field(default=None, metadata={"trained": False})


@dataclass
class LstmParams(_Params):
    w_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_i: np.ndarray
    u_i: np.ndarray
    b_i: np.ndarray
    w_o: np.ndarray
    u_o: np.ndarray
    b_o: np.ndarray
    w_g: np.ndarray
    u_g: np.ndarray
    b_g: np.ndarray


@dataclass
class DenseParams(_Params):
    w: np.ndarray  # [out, in]
    b: np.ndarray  # [out]
    # "tanh" or "identity"
    activation: str = field(default="tanh", metadata={"trained": False})


def _decay(w: np.ndarray, b: np.ndarray, delta: np.ndarray):
    """Pre-activation and rate of the rectified exponential decay."""
    pre = (w * delta if w.ndim == 1 else w @ delta) + b
    return pre, np.exp(-np.maximum(pre, 0.0))


def decay_rate(w: np.ndarray, b: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """exp(-max(0, w·delta + b)); diagonal (1-D w) or full (2-D w) map."""
    return _decay(w, b, delta)[1]


def _decay_backward(pre, gamma, dgamma):
    """Gradient at the decay pre-activation; zero where the rectifier is off."""
    return np.where(pre > 0.0, -gamma * dgamma, 0.0)


def _check(name: str, got, want) -> None:
    if got.shape != tuple(want):
        raise ShapeError(f"{name}: expected shape {tuple(want)}, got {got.shape}")


# --- shared gate update -------------------------------------------------------

def _gates(p: GruParams, x: np.ndarray, h_prev: np.ndarray, extra=None):
    """Gates, candidate and new state; `extra` holds the decay cell's V·m term
    per gate (r, z, c), added before the bias; the plain cell has none."""
    a_r = p.w_r @ x + p.u_r @ h_prev
    a_z = p.w_z @ x + p.u_z @ h_prev
    if extra is not None:
        a_r += extra[0]
        a_z += extra[1]
    h_dim = h_prev.shape[0]
    rz = sigmoid(np.concatenate((a_r + p.b_r, a_z + p.b_z)))
    r, z = rz[:h_dim], rz[h_dim:]
    a_c = p.w_c @ x + p.u_c @ (r * h_prev)
    if extra is not None:
        a_c += extra[2]
    c = np.tanh(a_c + p.b_c)
    h = (1.0 - z) * h_prev + z * c
    return h, r, z, c


def _gates_backward(p: GruParams, h_prev, cache: dict, dh, input_grad: bool):
    """Backward of `_gates` at state `h_prev`: the gate pre-activation grads
    {r, z, c}, the state grad and the input grad (None unless `input_grad`)."""
    r, z, c = cache["r"], cache["z"], cache["c"]
    dz = dh * (c - h_prev)
    dc = dh * z
    dh_prev = dh * (1.0 - z)

    da_c = dc * (1.0 - c * c)
    d_rh = p.u_c.T @ da_c
    dr = d_rh * h_prev
    dh_prev = dh_prev + d_rh * r

    da_r = dr * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    dh_prev = dh_prev + p.u_r.T @ da_r + p.u_z.T @ da_z
    dx = None
    if input_grad:
        dx = p.w_c.T @ da_c + p.w_r.T @ da_r + p.w_z.T @ da_z
    return {"r": da_r, "z": da_z, "c": da_c}, dh_prev, dx


# --- plain gated recurrent cell ---------------------------------------------

def gru_step(p: GruParams, x: np.ndarray, h_prev: np.ndarray):
    h_dim, d = p.w_r.shape
    _check("x", x, (d,))
    _check("h_prev", h_prev, (h_dim,))
    h, r, z, c = _gates(p, x, h_prev)
    cache = {"x": x, "h_prev": h_prev, "r": r, "z": z, "c": c}
    return h, cache


def gru_step_backward(p: GruParams, cache: dict, dh: np.ndarray,
                      input_grad: bool = True):
    """(gate pre-activation grads {r, z, c}, dh_prev, dx); the weight grads
    are the outer products of those with the step's x, h_prev and r*h_prev,
    formed once per window by the caller. `dx` is None unless `input_grad`."""
    return _gates_backward(p, cache["h_prev"], cache, dh, input_grad)


# --- decay-mechanism cell ----------------------------------------------------

def grud_step(p: GrudParams, x: np.ndarray, m: np.ndarray, delta: np.ndarray,
              x_last: np.ndarray, h_prev: np.ndarray):
    """One step of the decay cell on possibly-missing input: the decay
    preamble (x_hat, h_hat) plus the shared gate update with V·m terms.

    `x_last` is the most recent observed value per variable before this step
    (the frozen training mean before any observation). Missing entries of `x`
    may be NaN; they are never read.
    """
    if p.x_mean is None:
        raise ShapeError("x_mean is unset on the decay cell parameters")
    h_dim, d = p.w_r.shape
    _check("x", x, (d,))
    _check("m", m, (d,))
    _check("delta", delta, (d,))
    _check("x_last", x_last, (d,))
    _check("h_prev", h_prev, (h_dim,))

    x_obs = np.where(m > 0.5, x, 0.0)  # sanitize sentinels before arithmetic
    pre_x, gamma_x = _decay(p.w_decay_x, p.b_decay_x, delta)
    pre_h, gamma_h = _decay(p.w_decay_h, p.b_decay_h, delta)

    x_hat = m * x_obs + (1.0 - m) * (gamma_x * x_last + (1.0 - gamma_x) * p.x_mean)
    h_hat = gamma_h * h_prev

    h, r, z, c = _gates(p, x_hat, h_hat, (p.v_r @ m, p.v_z @ m, p.v_c @ m))
    cache = {"x_obs": x_obs, "m": m, "delta": delta, "x_last": x_last,
             "h_prev": h_prev, "pre_x": pre_x, "gamma_x": gamma_x,
             "pre_h": pre_h, "gamma_h": gamma_h, "x_hat": x_hat,
             "h_hat": h_hat, "r": r, "z": z, "c": c}
    return h, cache


def grud_step_backward(p: GrudParams, cache: dict, dh: np.ndarray):
    """(gate pre-activation grads {r, z, c}, dh_prev, dh_hat, dx_hat): the
    gate grads act on x_hat, h_hat and the mask m; `dh_hat` and `dx_hat`, the
    grads at the decayed state and input, feed `grud_decay_backward`."""
    gates, dh_hat, dx_hat = _gates_backward(p, cache["h_hat"], cache, dh, True)
    return gates, dh_hat * cache["gamma_h"], dh_hat, dx_hat


def stack_steps(caches: list[dict], key: str) -> np.ndarray:
    """One cached quantity over a window of steps' caches, [T, ·]."""
    return np.array([cache[key] for cache in caches])


def grud_decay_backward(p: GrudParams, caches: list[dict], dh_hat: np.ndarray,
                        dx_hat: np.ndarray):
    """Grads at the decay pre-activations over a window of decay-cell steps:
    (da_x [T, D], da_h [T, H]) from the steps' caches and their `dh_hat`
    [T, H] and `dx_hat` [T, D]; zero where the rectifier is off."""
    pre_h, gamma_h, h_prev, m, x_last, pre_x, gamma_x = (
        stack_steps(caches, key) for key in
        ("pre_h", "gamma_h", "h_prev", "m", "x_last", "pre_x", "gamma_x"))
    # hidden decay path: h_hat = gamma_h * h_prev
    da_h = _decay_backward(pre_h, gamma_h, dh_hat * h_prev)
    # input decay path: x_hat mixes x_last and the frozen mean on missing slots
    dgamma_x = dx_hat * (1.0 - m) * (x_last - p.x_mean)
    da_x = _decay_backward(pre_x, gamma_x, dgamma_x)
    return da_x, da_h


# --- LSTM baseline -----------------------------------------------------------

def lstm_step(p: LstmParams, x: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray):
    h_dim, d = p.w_f.shape
    _check("x", x, (d,))
    _check("h_prev", h_prev, (h_dim,))
    _check("c_prev", c_prev, (h_dim,))
    fio = sigmoid(np.concatenate((p.w_f @ x + p.u_f @ h_prev + p.b_f,
                                  p.w_i @ x + p.u_i @ h_prev + p.b_i,
                                  p.w_o @ x + p.u_o @ h_prev + p.b_o)))
    f, i, o = fio[:h_dim], fio[h_dim:2 * h_dim], fio[2 * h_dim:]
    gc = np.tanh(p.w_g @ x + p.u_g @ h_prev + p.b_g)
    c = f * c_prev + i * gc
    tc = np.tanh(c)
    h = o * tc
    cache = {"x": x, "h_prev": h_prev, "c_prev": c_prev, "f": f, "i": i,
             "o": o, "gc": gc, "c": c, "tc": tc}
    return h, c, cache


def lstm_step_backward(p: LstmParams, cache: dict, dh: np.ndarray,
                       dc_in: np.ndarray, input_grad: bool = True):
    """(gate pre-activation grads {f, i, o, g}, dh_prev, dc_prev, dx); the
    weight grads are their outer products with the step's x and h_prev. `dx`
    is None unless `input_grad`."""
    c_prev = cache["c_prev"]
    f, i, o, gc, tc = cache["f"], cache["i"], cache["o"], cache["gc"], cache["tc"]

    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    df = dc * c_prev
    di = dc * gc
    dgc = dc * i
    dc_prev = dc * f

    da_f = df * f * (1.0 - f)
    da_i = di * i * (1.0 - i)
    da_o = do * o * (1.0 - o)
    da_g = dgc * (1.0 - gc * gc)
    # each sum starts from 0.0, which turns an all -0.0 result into +0.0
    dh_prev = (0.0 + p.u_f.T @ da_f + p.u_i.T @ da_i + p.u_o.T @ da_o
               + p.u_g.T @ da_g)
    dx = None
    if input_grad:
        dx = (0.0 + p.w_f.T @ da_f + p.w_i.T @ da_i + p.w_o.T @ da_o
              + p.w_g.T @ da_g)
    return {"f": da_f, "i": da_i, "o": da_o, "g": da_g}, dh_prev, dc_prev, dx


# --- dense layer (feed-forward baseline) -------------------------------------

def dense_step(p: DenseParams, x: np.ndarray):
    if p.w.shape[1] != x.shape[0]:
        raise ShapeError(f"dense: weights {p.w.shape} vs input {x.shape}")
    a = p.w @ x + p.b
    y = np.tanh(a) if p.activation == "tanh" else a
    return y, {"x": x, "y": y}


def dense_step_backward(p: DenseParams, cache: dict, dy: np.ndarray):
    x, y = cache["x"], cache["y"]
    da = dy * (1.0 - y * y) if p.activation == "tanh" else dy
    g = {"w": np.outer(da, x), "b": da.copy()}
    dx = p.w.T @ da
    return g, dx


# --- initialization -----------------------------------------------------------

def _weight(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def init_gru(d: int, h: int, rng) -> GruParams:
    return GruParams(
        w_r=_weight(rng, h, d), u_r=_weight(rng, h, h), b_r=np.zeros(h),
        w_z=_weight(rng, h, d), u_z=_weight(rng, h, h), b_z=np.zeros(h),
        w_c=_weight(rng, h, d), u_c=_weight(rng, h, h), b_c=np.zeros(h),
    )


# Zero-initialized decay weights would sit exactly on the rectifier kink,
# where the subgradient is 0, leaving the decay mechanism untrainable. A small
# positive weight keeps the rectifier active so the decay rates can learn.
DECAY_WEIGHT_INIT = 0.1


def init_grud(d: int, h: int, rng, x_mean: np.ndarray | None = None) -> GrudParams:
    base = init_gru(d, h, rng)
    return GrudParams(
        **base.tensors(),
        # mask weights start at zero: the cell begins as a plain gated cell on
        # the decayed input and learns how much the mask channels matter
        v_r=np.zeros((h, d)), v_z=np.zeros((h, d)), v_c=np.zeros((h, d)),
        w_decay_x=np.full(d, DECAY_WEIGHT_INIT),
        b_decay_x=np.zeros(d),
        w_decay_h=np.full((h, d), DECAY_WEIGHT_INIT),
        b_decay_h=np.zeros(h),
        x_mean=None if x_mean is None else np.asarray(x_mean, dtype=np.float64),
    )


def init_lstm(d: int, h: int, rng) -> LstmParams:
    return LstmParams(
        w_f=_weight(rng, h, d), u_f=_weight(rng, h, h), b_f=np.zeros(h),
        w_i=_weight(rng, h, d), u_i=_weight(rng, h, h), b_i=np.zeros(h),
        w_o=_weight(rng, h, d), u_o=_weight(rng, h, h), b_o=np.zeros(h),
        w_g=_weight(rng, h, d), u_g=_weight(rng, h, h), b_g=np.zeros(h),
    )


def init_dense(d_in: int, d_out: int, rng, activation: str = "tanh") -> DenseParams:
    return DenseParams(w=_weight(rng, d_out, d_in), b=np.zeros(d_out),
                       activation=activation)
