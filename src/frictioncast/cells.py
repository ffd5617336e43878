"""Forward/backward kernels for the recurrent cells, over batches of windows.

Implements the plain gated recurrent cell, its decay-mechanism variant for
missing data, a standard LSTM for the baseline, and a dense layer for the
feed-forward baseline. Both gated recurrent cells share one private gate
update and its backward pass; the decay cell is a preamble over it that
decays the input and the carried state and adds the mask terms V·m to each
gate.

The forward runs one layer at a time over B windows [B, T, D]
(`gru_layer`, `grud_layer`, `lstm_layer`). A layer first does the work that
does not depend on the hidden state, once per window: the input
projections W·x and, in the decay cell, the whole decay preamble. Then it
calls its step kernel (`gru_step`, `grud_step`, `lstm_step`) once per time
step over all B rows, with the state in column form [B, H, 1]. Every
matrix-vector product is a stacked gemv, `W @ X[..., None]`: one BLAS gemv
per row, which rounds exactly as the one-window `W @ x` does (a gemm over
the rows would not), so row b of a B-window call equals the one-window call
bit for bit. A layer returns its outputs [B, T, H] and a cache of
[B, T, ·] arrays holding the intermediates the backward pass needs.

The backward runs per window, on one window's cache [T, ·]. The recurrent
backward steps read row t of it and do only what the recurrence needs: they
return the gate pre-activation gradients, not weight gradients. A weight's
gradient at a step is the outer product of a gate gradient and an operand
the forward cached; the caller forms those once per window
(`network.backward`), and `grud_decay_backward` runs the decay path over a
whole window. Backward passes are exact reverse-mode, gradient-checked
against finite differences.

The decay rate is exp(-max(0, w·delta + b)), so it lives in (0, 1] and its
gradient is zero wherever the rectifier is inactive (subgradient 0 at the
kink).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ShapeError
from .linalg import sigmoid
from .missingness import last_observed

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
    """Pre-activation and rate of the rectified exponential decay over the
    last axis of `delta`; a 2-D `w` maps each row by a stacked gemv."""
    pre = (w * delta if w.ndim == 1 else (w @ delta[..., None])[..., 0]) + b
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


def _gate_stack(p, kind: str, gates: str) -> np.ndarray:
    """One kind of a layer's gate tensors ("w", "u" or "b") stacked on a
    leading gate axis, then a unit axis that broadcasts over the B rows:
    [G, 1, H, ·], biases in column form [G, 1, H, 1]."""
    stack = np.array([getattr(p, f"{kind}_{g}") for g in gates])[:, None]
    return stack[..., None] if kind == "b" else stack


def _project(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Input projections W·x of windows x [B, T, D] by a gate stack w
    [G, 1, H, D], time-major: [T, G, B, H, 1], one gemv per row and gate."""
    return w @ x.swapaxes(0, 1)[:, None, :, :, None]


def _initial_state(s0, b_dim: int, h_dim: int) -> np.ndarray:
    """A layer's start state [B, H, 1] in column form; zero unless given."""
    if s0 is None:
        return np.zeros((b_dim, h_dim, 1))
    _check("initial state", s0, (b_dim, h_dim))
    return s0[..., None]


def _check_windows(x: np.ndarray, d: int) -> None:
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"x: expected windows [B, T, {d}], got {x.shape}")


def _steps(parts: list) -> np.ndarray:
    """Per-step values [B, ·, 1] of a time loop as one [B, T, ·] array."""
    return np.array(parts)[..., 0].swapaxes(0, 1)


# --- shared gate update -------------------------------------------------------

def _gru_gates(p: GruParams) -> tuple:
    """The recurrent weights and biases of a gated layer's step kernel:
    (u_rz [2, 1, H, H], b_rz [2, 1, H, 1]) of the r and z gates, stacked,
    and (u_c [1, H, H], b_c [1, H, 1]) of the candidate."""
    u, b = _gate_stack(p, "u", "rzc"), _gate_stack(p, "b", "rzc")
    return u[:2], b[:2], u[2], b[2]


def _gates(g: tuple, xw, h_prev, vm=None):
    """Gates, candidate and new state of B rows in column form, from the
    layer's `_gru_gates` and the step's input projections xw [3, B, H, 1]
    (r, z, c); `vm` holds the decay cell's V·m term per gate, added before
    the bias; the plain cell has none. Returns (h, rz [2, B, H, 1], c)."""
    u_rz, b_rz, u_c, b_c = g
    # (W·x + U·h) [+ V·m] + b, in this order: the bias cannot join the
    # hoisted W·x without rounding differently
    a = xw[:2] + u_rz @ h_prev
    if vm is not None:
        a += vm[:2]
    a += b_rz
    rz = sigmoid(a)
    r, z = rz
    a_c = xw[2] + u_c @ (r * h_prev)
    if vm is not None:
        a_c += vm[2]
    c = np.tanh(a_c + b_c)
    h = (1.0 - z) * h_prev + z * c
    return h, rz, c


def _gru_cache(x, hs: list, rzs: list, cs: list):
    """A gated layer's outputs [B, T, H] and its cache of [B, T, ·] arrays."""
    h = _steps(hs)
    rz = np.array(rzs)[..., 0]  # [T, 2, B, H]
    cache = {"x": x, "h_prev": h[:, :-1], "r": rz[:, 0].swapaxes(0, 1),
             "z": rz[:, 1].swapaxes(0, 1), "c": _steps(cs)}
    return h[:, 1:], cache


def _gates_backward(p: GruParams, h_prev, cache: dict, t: int, dh,
                    input_grad: bool):
    """Backward of `_gates` at step t of one window's cache, at state
    `h_prev`: the gate pre-activation grads {r, z, c}, the state grad and the
    input grad (None unless `input_grad`)."""
    r, z, c = cache["r"][t], cache["z"][t], cache["c"][t]
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

def gru_step(g: tuple, xw: np.ndarray, h_prev: np.ndarray):
    """One step of B rows: the layer's recurrent weights g (`_gru_gates`),
    input projections xw [3, B, H, 1], state h_prev [B, H, 1]; returns
    (h, rz, c) in column form."""
    return _gates(g, xw, h_prev)


def gru_layer(p: GruParams, x: np.ndarray, h0: np.ndarray | None = None):
    """The plain cell over B windows x [B, T, D] from state h0 [B, H] (zero
    by default): (outputs [B, T, H], cache)."""
    _check_windows(x, p.w_r.shape[1])
    g = _gru_gates(p)
    xw = _project(_gate_stack(p, "w", "rzc"), x)
    h = _initial_state(h0, x.shape[0], p.w_r.shape[0])
    hs, rzs, cs = [h], [], []
    for xw_t in xw:
        h, rz, c = gru_step(g, xw_t, h)
        hs.append(h)
        rzs.append(rz)
        cs.append(c)
    return _gru_cache(x, hs, rzs, cs)


def gru_step_backward(p: GruParams, cache: dict, t: int, dh: np.ndarray,
                      input_grad: bool = True):
    """(gate pre-activation grads {r, z, c}, dh_prev, dx) at step t of one
    window's cache [T, ·]; the weight grads are the outer products of those
    with the step's x, h_prev and r*h_prev, formed once per window by the
    caller. `dx` is None unless `input_grad`."""
    return _gates_backward(p, cache["h_prev"][t], cache, t, dh, input_grad)


# --- decay-mechanism cell ----------------------------------------------------

def grud_step(g: tuple, xw: np.ndarray, vm: np.ndarray, gamma_h: np.ndarray,
              h_prev: np.ndarray):
    """One step of B rows: the carried state decayed by gamma_h [B, H, 1],
    then the shared gate update on the decayed input's projections xw with
    the mask terms vm (both [3, B, H, 1])."""
    return _gates(g, xw, gamma_h * h_prev, vm)


def grud_layer(p: GrudParams, x: np.ndarray, m: np.ndarray, delta: np.ndarray,
               h0: np.ndarray | None = None):
    """The decay cell over B windows of possibly-missing input x, mask m and
    intervals delta (all [B, T, D]) from state h0 [B, H] (zero by default):
    (outputs [B, T, H], cache).

    Everything that does not depend on the hidden state runs once per window
    before the time loop: the most recent observation before each step (the
    frozen training mean before any), both decay rates, the decayed input
    x_hat, its projections and the mask terms V·m. Missing entries of `x`
    may be NaN; they are never read.
    """
    if p.x_mean is None:
        raise ShapeError("x_mean is unset on the decay cell parameters")
    _check_windows(x, p.w_r.shape[1])
    _check("m", m, x.shape)
    _check("delta", delta, x.shape)
    x_obs = np.where(m > 0.5, x, 0.0)  # sanitize sentinels before arithmetic
    x_last = last_observed(x, m, p.x_mean)
    pre_x, gamma_x = _decay(p.w_decay_x, p.b_decay_x, delta)
    pre_h, gamma_h = _decay(p.w_decay_h, p.b_decay_h, delta)
    x_hat = m * x_obs + (1.0 - m) * (gamma_x * x_last + (1.0 - gamma_x) * p.x_mean)

    g = _gru_gates(p)
    xw = _project(_gate_stack(p, "w", "rzc"), x_hat)
    vm = _project(_gate_stack(p, "v", "rzc"), m)
    gamma_col = gamma_h.swapaxes(0, 1)[..., None]  # [T, B, H, 1]
    h = _initial_state(h0, x.shape[0], p.w_r.shape[0])
    hs, rzs, cs = [h], [], []
    for t in range(x.shape[1]):
        h, rz, c = grud_step(g, xw[t], vm[t], gamma_col[t], h)
        hs.append(h)
        rzs.append(rz)
        cs.append(c)
    out, cache = _gru_cache(x_hat, hs, rzs, cs)
    cache.update(x_hat=x_hat, h_hat=gamma_h * cache["h_prev"], m=m,
                 delta=delta, x_last=x_last, pre_x=pre_x, gamma_x=gamma_x,
                 pre_h=pre_h, gamma_h=gamma_h)
    return out, cache


def grud_step_backward(p: GrudParams, cache: dict, t: int, dh: np.ndarray):
    """(gate pre-activation grads {r, z, c}, dh_prev, dh_hat, dx_hat) at step
    t of one window's cache: the gate grads act on x_hat, h_hat and the mask
    m; `dh_hat` and `dx_hat`, the grads at the decayed state and input, feed
    `grud_decay_backward`."""
    gates, dh_hat, dx_hat = _gates_backward(p, cache["h_hat"][t], cache, t,
                                            dh, True)
    return gates, dh_hat * cache["gamma_h"][t], dh_hat, dx_hat


def grud_decay_backward(p: GrudParams, cache: dict, dh_hat: np.ndarray,
                        dx_hat: np.ndarray):
    """Grads at the decay pre-activations over one window of decay-cell
    steps: (da_x [T, D], da_h [T, H]) from its cache and the steps' `dh_hat`
    [T, H] and `dx_hat` [T, D]; zero where the rectifier is off."""
    # hidden decay path: h_hat = gamma_h * h_prev
    da_h = _decay_backward(cache["pre_h"], cache["gamma_h"],
                           dh_hat * cache["h_prev"])
    # input decay path: x_hat mixes x_last and the frozen mean on missing slots
    dgamma_x = dx_hat * (1.0 - cache["m"]) * (cache["x_last"] - p.x_mean)
    da_x = _decay_backward(cache["pre_x"], cache["gamma_x"], dgamma_x)
    return da_x, da_h


# --- LSTM baseline -----------------------------------------------------------

def lstm_step(g: tuple, xw: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray):
    """One step of B rows: the layer's recurrent weights and biases
    g = (u [4, 1, H, H], b [4, 1, H, 1]) of the gates f, i, o, g, input
    projections xw [4, B, H, 1], states h_prev and c_prev [B, H, 1]; returns
    (h, c, fio [3, B, H, 1], gc, tanh(c))."""
    u, b = g
    a = xw + u @ h_prev
    a += b
    fio = sigmoid(a[:3])
    f, i, o = fio
    gc = np.tanh(a[3])
    c = f * c_prev + i * gc
    tc = np.tanh(c)
    h = o * tc
    return h, c, fio, gc, tc


def lstm_layer(p: LstmParams, x: np.ndarray, h0: np.ndarray | None = None,
               c0: np.ndarray | None = None):
    """The LSTM over B windows x [B, T, D] from states h0 and c0 [B, H] (zero
    by default): (outputs [B, T, H], cache)."""
    _check_windows(x, p.w_f.shape[1])
    g = (_gate_stack(p, "u", "fiog"), _gate_stack(p, "b", "fiog"))
    xw = _project(_gate_stack(p, "w", "fiog"), x)
    h_dim = p.w_f.shape[0]
    h = _initial_state(h0, x.shape[0], h_dim)
    c = _initial_state(c0, x.shape[0], h_dim)
    hs, cs, fios, gcs, tcs = [h], [c], [], [], []
    for xw_t in xw:
        h, c, fio, gc, tc = lstm_step(g, xw_t, h, c)
        hs.append(h)
        cs.append(c)
        fios.append(fio)
        gcs.append(gc)
        tcs.append(tc)
    h, c = _steps(hs), _steps(cs)
    fio = np.array(fios)[..., 0]  # [T, 3, B, H]
    cache = {"x": x, "h_prev": h[:, :-1], "c_prev": c[:, :-1], "c": c[:, 1:],
             "f": fio[:, 0].swapaxes(0, 1), "i": fio[:, 1].swapaxes(0, 1),
             "o": fio[:, 2].swapaxes(0, 1), "gc": _steps(gcs),
             "tc": _steps(tcs)}
    return h[:, 1:], cache


def lstm_step_backward(p: LstmParams, cache: dict, t: int, dh: np.ndarray,
                       dc_in: np.ndarray, input_grad: bool = True):
    """(gate pre-activation grads {f, i, o, g}, dh_prev, dc_prev, dx) at step
    t of one window's cache; the weight grads are their outer products with
    the step's x and h_prev. `dx` is None unless `input_grad`."""
    c_prev = cache["c_prev"][t]
    f, i, o = cache["f"][t], cache["i"][t], cache["o"][t]
    gc, tc = cache["gc"][t], cache["tc"][t]

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
    """The layer over rows x [..., n_in]: (y [..., n_out], cache)."""
    if p.w.shape[1] != x.shape[-1]:
        raise ShapeError(f"dense: weights {p.w.shape} vs input {x.shape}")
    a = (p.w @ x[..., None])[..., 0] + p.b
    y = np.tanh(a) if p.activation == "tanh" else a
    return y, {"x": x, "y": y}


def dense_step_backward(p: DenseParams, cache: dict, dy: np.ndarray,
                        input_grad: bool = True):
    """Weight grads and the input grad (None unless `input_grad`) of one
    window's row of the layer."""
    x, y = cache["x"], cache["y"]
    da = dy * (1.0 - y * y) if p.activation == "tanh" else dy
    g = {"w": da[:, None] * x, "b": da}  # np.outer's products
    return g, p.w.T @ da if input_grad else None


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
