"""Forward/backward kernels for the recurrent cells, over batches of windows.

Implements the plain gated recurrent cell, its decay-mechanism variant for
missing data, a standard LSTM for the baseline, and a tanh layer for the
feed-forward baseline. Both gated recurrent cells share one private gate
update and its backward pass; the decay cell is a preamble over it that
decays the input and the carried state and adds the mask terms V·m to each
gate. A layer's parameters are its dataclass fields, laid out in one flat
vector in declaration order (`_Params.lay_out`): a gated layer's blocks W,
U, b (and V) hold one row per gate, and the per-gate names (`w_r`, `u_z`,
...) are only the names of those rows, as `model.json` keys them.

The forward runs one layer at a time over B windows [B, T, D]
(`gru_layer`, `grud_layer`, `lstm_layer`). A layer first does the work that
does not depend on the hidden state, once per window: the input
projections W·x and, in the decay cell, the whole decay preamble. Then it
calls its step kernel (`gru_step`, `grud_step`, `lstm_step`) once per time
step over all B rows, with the state in column form [B, H, 1], into [T, ·]
step buffers. Every matrix-vector product is a stacked gemv per gate,
`W @ X[..., None]`: one BLAS gemv per row, which rounds exactly as the
one-window `W @ x` does (a gemm over the rows, or one [3H, H] product over
the gates, would not), so row b of a B-window call equals the one-window
call bit for bit. A layer returns its outputs [B, T, H] and a cache of
[B, T, ·] arrays holding the intermediates the backward pass needs.

The backward runs one layer at a time too, per window, on one window's
cache [T, ·], readied once by `backward_cache` (the factors that read only
the cache, and a gate gradient buffer [T, G, H]). Its time loop keeps only
the recurrence: the backward steps fill row t of the buffer, in the
per-step association. From the full buffer, `window_input_grad` forms the
layer's input gradient by stacked transposed gemvs, the caller the weight
gradients, each a per-step outer product of a gate gradient and a cached
operand (`network.backward`), and `grud_decay_backward` the decay path.
Backward passes are exact reverse-mode, gradient-checked against finite
differences.

The decay rate is exp(-max(0, w·delta + b)), so it lives in (0, 1] and its
gradient is zero wherever the rectifier is inactive (subgradient 0 at the
kink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import ShapeError
from .linalg import sigmoid
from .missingness import last_observed

class _Params:
    """One layer's trainable tensors: its dataclass fields, laid out along
    one vector in declaration order, each a view into it (`lay_out`). In a
    gated layer the blocks W, U, b (and V) hold one row per gate of `GATES`;
    `tensors` gives each row its name (`w_z` is row z of W), and so does
    attribute access, as a view that writes through."""

    GATES: ClassVar[str] = ""

    def __post_init__(self):
        # the layout, worked out once: each trainable field's name, slot, shape
        slots, stop = [], 0
        for f in fields(self):
            if f.metadata.get("trained", True):
                shape = np.shape(getattr(self, f.name))
                start, stop = stop, stop + math.prod(shape)
                slots.append((f.name, slice(start, stop), shape))
        self._slots = tuple(slots)
        self.bind(np.empty(stop))

    def bind(self, vec: np.ndarray) -> None:
        """Copy the trainable values into `vec`, a vector of the layer's
        size, and rebind every field as a view into it."""
        for (name, _, _), view in zip(self._slots, self.lay_out(vec)):
            view[...] = getattr(self, name)
            setattr(self, name, view)

    def lay_out(self, arr: np.ndarray) -> list[np.ndarray]:
        """The layer's layout along the last axis of `arr` [..., n]: a view
        [..., *shape] of each trainable field's slot, in declaration order."""
        lead = arr.shape[:-1]
        return [arr[..., s].reshape(lead + shape)
                for _, s, shape in self._slots]

    def tensors(self, vec: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """The trainable tensors by their `model.json` names, as views of the
        fields (or of `vec`, a vector in the layer's layout): in a gated
        layer the rows of W, U and b gate by gate, then V's rows; then each
        other field whole."""
        names = [name for name, _, _ in self._slots]
        by_field = dict(zip(names, self.lay_out(vec) if vec is not None
                            else (getattr(self, k) for k in names)))
        blocks = ("W", "U", "b", "V") if self.GATES else ()
        out = {f"{k.lower()}_{gate}": by_field[k][i]
               for group in (blocks[:3], blocks[3:])
               for i, gate in enumerate(self.GATES)
               for k in group if k in by_field}
        out.update((k, t) for k, t in by_field.items() if k not in blocks)
        return out

    def __getattr__(self, name: str):
        # a row name of `tensors` (`p.v_r`): a view of its block row
        if not name.startswith("_") and name in (rows := self.tensors()):
            return rows[name]
        raise AttributeError(f"{type(self).__name__!r} has no attribute "
                             f"{name!r}")


@dataclass
class GruParams(_Params):
    W: np.ndarray  # [3, H, D]
    U: np.ndarray  # [3, H, H]
    b: np.ndarray  # [3, H]
    GATES: ClassVar[str] = "rzc"  # reset, update, candidate state


@dataclass
class GrudParams(GruParams):
    V: np.ndarray          # [3, H, D] mask weights
    w_decay_x: np.ndarray  # [D] diagonal per-variable input decay
    b_decay_x: np.ndarray  # [D]
    w_decay_h: np.ndarray  # [H, D] hidden decay
    b_decay_h: np.ndarray  # [H]
    # [D] frozen training mean; a buffer, not a trainable tensor
    x_mean: np.ndarray = field(default=None, metadata={"trained": False})


@dataclass
class LstmParams(_Params):
    W: np.ndarray  # [4, H, D]
    U: np.ndarray  # [4, H, H]
    b: np.ndarray  # [4, H]
    GATES: ClassVar[str] = "fiog"  # forget, input, output, candidate


@dataclass
class DenseParams(_Params):
    w: np.ndarray  # [out, in]
    b: np.ndarray  # [out]


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


def _project(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Input projections W·x of windows x [B, T, D] by a gate block w
    [G, H, D], time-major: [T, G, B, H, 1], one gemv per row and gate."""
    return w[:, None] @ x.swapaxes(0, 1)[:, None, :, :, None]


def _state_steps(s0, x: np.ndarray, h_dim: int) -> np.ndarray:
    """A layer's states over a window in column form [T + 1, B, H, 1], time
    major; row 0 is the start state, zero unless given as s0 [B, H]."""
    states = np.empty((x.shape[1] + 1, x.shape[0], h_dim, 1))
    if s0 is not None:
        _check("initial state", s0, (x.shape[0], h_dim))
    states[0] = 0.0 if s0 is None else s0[..., None]
    return states


def _check_windows(x: np.ndarray, d: int) -> None:
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"x: expected windows [B, T, {d}], got {x.shape}")


def _batch_major(steps: np.ndarray) -> np.ndarray:
    """A time loop's buffer [T, ..., B, H, 1] as [B, T, ..., H] (a view)."""
    v = steps[..., 0]
    return v.transpose(v.ndim - 2, *range(v.ndim - 2), v.ndim - 1)


# --- shared gate update -------------------------------------------------------

def _gru_gates(p: GruParams) -> tuple:
    """The recurrent weights and biases of a gated layer's step kernel, as
    views of its blocks: (u_rz [2, 1, H, H], b_rz [2, 1, H, 1]) of the r and
    z gates and (u_c [H, H], b_c [H, 1]) of the candidate."""
    return p.U[:2, None], p.b[:2, None, :, None], p.U[2], p.b[2, :, None]


def _gates(g: tuple, xw, h_prev, out: tuple, vm=None) -> tuple:
    """Gates, candidate and new state of B rows in column form, from the
    layer's `_gru_gates` and the step's input projections xw [3, B, H, 1]
    (r, z, c); `vm` holds the decay cell's V·m term per gate, added before
    the bias; the plain cell has none. Writes and returns
    out = (h [B, H, 1], rz [2, B, H, 1], c [B, H, 1])."""
    u_rz, b_rz, u_c, b_c = g
    h, rz, c = out
    # (U·h + W·x) [+ V·m] + b, in this order: the bias cannot join the
    # hoisted W·x without rounding differently
    np.matmul(u_rz, h_prev, rz)
    rz += xw[:2]
    if vm is not None:
        rz += vm[:2]
    rz += b_rz
    sigmoid(rz, rz)
    z = rz[1]
    np.matmul(u_c, rz[0] * h_prev, c)
    c += xw[2]
    if vm is not None:
        c += vm[2]
    c += b_c
    np.tanh(c, c)
    # (1 - z) * h_prev + z * c
    np.subtract(1.0, z, h)
    h *= h_prev
    h += z * c
    return out


def _gated_layer(step, g: tuple, x, xw, h0, *per_step) -> tuple:
    """Run a gated layer's step kernel over the (decayed) windows x
    [B, T, D] with their projections xw [T, 3, B, H, 1] and any further
    time-major inputs: (outputs [B, T, H], cache of [B, T, ·] arrays)."""
    hs = _state_steps(h0, x, xw.shape[3])
    rzs, cs = np.empty((len(xw), 2, *hs.shape[1:])), np.empty(hs[1:].shape)
    h = hs[0]
    for ins, out in zip(zip(xw, *per_step), zip(hs[1:], rzs, cs)):
        h = step(g, *ins, h, out)[0]
    h = _batch_major(hs)
    return h[:, 1:], {"x": x, "h_prev": h[:, :-1], "rz": _batch_major(rzs),
                      "c": _batch_major(cs)}


def _gates_backward(p: GruParams, bw: dict, t: int, h_prev, dh):
    """Backward of `_gates` at step t of one window's `backward_cache`, at
    state `h_prev`: fills row t of its gate-gradient buffer and returns
    (that row [3, H], the state grad)."""
    da = bw["da"][t]  # rows r, z, c
    rz, om_rz = bw["rz"][t], bw["om_rz"][t]
    np.multiply(dh, rz[1], da[2])  # dc
    da[2] *= bw["om_cc"][t]
    u = p.U  # rows r, z, c
    d_rh = u[2].T @ da[2]
    np.multiply(d_rh, h_prev, da[0])  # dr
    np.multiply(dh, bw["ch"][t], da[1])  # dz
    da_rz = da[:2]
    da_rz *= rz
    da_rz *= om_rz
    return da, dh * om_rz[1] + d_rh * rz[0] + u[0].T @ da[0] + u[1].T @ da[1]


def window_input_grad(p, bw: dict) -> np.ndarray:
    """A recurrent layer's input grad dx [T, D] over one window from the
    filled buffer `da` of its `backward_cache` (for the decay cell, the grad
    at x_hat): one stacked transposed gemv per gate and step, summed as a
    step would, (c + r) + z for the gated cells, 0.0 + f + i + o + g else."""
    per_gate = (p.W.swapaxes(1, 2) @ bw["da"][..., None])[..., 0]  # [T, G, D]
    if isinstance(p, LstmParams):
        return np.add.reduce(per_gate, axis=1, initial=0.0)
    return per_gate[:, 2] + per_gate[:, 0] + per_gate[:, 1]


def backward_cache(kind: str, cache: dict) -> dict:
    """One window's forward cache [T, ·] of a recurrent layer ("gru",
    "gru-d" or "lstm"), readied for its backward kernels: the factors that
    read only the cache, formed once per window, and the buffer `da`
    [T, G, H] of gate pre-activation gradients the kernels fill (and, for
    the decay cell, `dh_hat` [T, H] of the grads at its decayed state)."""
    t_len, h_dim = cache["c"].shape
    if kind == "lstm":
        fio, gc, tc = cache["fio"], cache["gc"], cache["tc"]
        return dict(cache, om_fio=1.0 - fio, om_tc=1.0 - tc * tc,
                    om_gg=1.0 - gc * gc,
                    cg=np.stack([cache["c_prev"], gc], axis=1),
                    da=np.empty((t_len, 4, h_dim)))
    c = cache["c"]
    h_prev = cache["h_hat" if kind == "gru-d" else "h_prev"]
    bw = dict(cache, ch=c - h_prev, om_rz=1.0 - cache["rz"],
              om_cc=1.0 - c * c, da=np.empty((t_len, 3, h_dim)))
    if kind == "gru-d":
        bw["dh_hat"] = np.empty((t_len, h_dim))
    return bw


# --- plain gated recurrent cell ---------------------------------------------

def gru_step(g: tuple, xw: np.ndarray, h_prev: np.ndarray, out: tuple):
    """One step of B rows: the layer's recurrent weights g (`_gru_gates`),
    input projections xw [3, B, H, 1], state h_prev [B, H, 1]; writes and
    returns out = (h, rz, c) in column form."""
    return _gates(g, xw, h_prev, out)


def gru_layer(p: GruParams, x: np.ndarray, h0: np.ndarray | None = None):
    """The plain cell over B windows x [B, T, D] from state h0 [B, H] (zero
    by default): (outputs [B, T, H], cache)."""
    _check_windows(x, p.W.shape[2])
    return _gated_layer(gru_step, _gru_gates(p), x, _project(p.W, x), h0)


def gru_step_backward(p: GruParams, bw: dict, t: int, dh: np.ndarray):
    """(gate pre-activation grads [3, H] (r, z, c), dh_prev) at step t of
    one window's `backward_cache`; the grads are row t of its buffer `da`,
    whose outer products with the step's x, h_prev and r*h_prev are the
    weight grads, formed once per window by the caller."""
    return _gates_backward(p, bw, t, bw["h_prev"][t], dh)


# --- decay-mechanism cell ----------------------------------------------------

def grud_step(g: tuple, xw: np.ndarray, vm: np.ndarray, gamma_h: np.ndarray,
              h_prev: np.ndarray, out: tuple):
    """One step of B rows: the carried state decayed by gamma_h [B, H, 1],
    then the shared gate update on the decayed input's projections xw with
    the mask terms vm (both [3, B, H, 1])."""
    return _gates(g, xw, gamma_h * h_prev, out, vm)


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
    _check_windows(x, p.W.shape[2])
    _check("m", m, x.shape)
    _check("delta", delta, x.shape)
    x_obs = np.where(m > 0.5, x, 0.0)  # sanitize sentinels before arithmetic
    x_last = last_observed(x, m, p.x_mean)
    pre_x, gamma_x = _decay(p.w_decay_x, p.b_decay_x, delta)
    pre_h, gamma_h = _decay(p.w_decay_h, p.b_decay_h, delta)
    x_hat = m * x_obs + (1.0 - m) * (gamma_x * x_last + (1.0 - gamma_x) * p.x_mean)

    xw, vm = _project(p.W, x_hat), _project(p.V, m)
    gamma_col = gamma_h.swapaxes(0, 1)[..., None]  # [T, B, H, 1]
    out, cache = _gated_layer(grud_step, _gru_gates(p), x_hat, xw, h0, vm,
                              gamma_col)
    cache.update(x_hat=x_hat, h_hat=gamma_h * cache["h_prev"], m=m,
                 delta=delta, x_last=x_last, pre_x=pre_x, gamma_x=gamma_x,
                 pre_h=pre_h, gamma_h=gamma_h)
    return out, cache


def grud_step_backward(p: GrudParams, bw: dict, t: int, dh: np.ndarray):
    """(gate pre-activation grads [3, H], dh_prev, dh_hat) at step t of one
    window's `backward_cache`: the gate grads act on x_hat, h_hat and the
    mask m; `dh_hat`, the grad at the decayed state, lands in row t of the
    buffer of the same name, which `grud_decay_backward` reads."""
    da, dh_hat = _gates_backward(p, bw, t, bw["h_hat"][t], dh)
    bw["dh_hat"][t] = dh_hat
    return da, dh_hat * bw["gamma_h"][t], dh_hat


def grud_decay_backward(p: GrudParams, bw: dict):
    """Grads at the decay pre-activations over one window of decay-cell
    steps: (da_x [T, D], da_h [T, H]) from its `backward_cache` once the
    step kernels filled `da` and `dh_hat`; zero where the rectifier is
    off."""
    # hidden decay path: h_hat = gamma_h * h_prev
    da_h = _decay_backward(bw["pre_h"], bw["gamma_h"],
                           bw["dh_hat"] * bw["h_prev"])
    # input decay path: x_hat mixes x_last and the frozen mean on missing slots
    dgamma_x = (window_input_grad(p, bw) * (1.0 - bw["m"])
                * (bw["x_last"] - p.x_mean))
    da_x = _decay_backward(bw["pre_x"], bw["gamma_x"], dgamma_x)
    return da_x, da_h


# --- LSTM baseline -----------------------------------------------------------

def lstm_step(g: tuple, xw: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray, out: tuple):
    """One step of B rows: the layer's recurrent weights and biases
    g = (U [4, 1, H, H], b [4, 1, H, 1]) of the gates f, i, o, g, input
    projections xw [4, B, H, 1], states h_prev and c_prev [B, H, 1]; writes
    and returns out = (h, c, a [4, B, H, 1], tanh(c)), where a holds the
    gates f, i, o and the candidate gc."""
    u, b = g
    h, c, a, tc = out
    np.matmul(u, h_prev, a)
    a += xw
    a += b
    fio = a[:3]
    sigmoid(fio, fio)
    gc = np.tanh(a[3], a[3])
    np.multiply(fio[0], c_prev, c)
    c += fio[1] * gc
    np.tanh(c, tc)
    np.multiply(fio[2], tc, h)
    return out


def lstm_layer(p: LstmParams, x: np.ndarray, h0: np.ndarray | None = None,
               c0: np.ndarray | None = None):
    """The LSTM over B windows x [B, T, D] from states h0 and c0 [B, H] (zero
    by default): (outputs [B, T, H], cache)."""
    _check_windows(x, p.W.shape[2])
    g = (p.U[:, None], p.b[:, None, :, None])
    xw = _project(p.W, x)
    h_dim = p.W.shape[1]
    hs, cs = _state_steps(h0, x, h_dim), _state_steps(c0, x, h_dim)
    a_s = np.empty((x.shape[1], 4, *hs.shape[1:]))
    tcs = np.empty(hs[1:].shape)
    h, c = hs[0], cs[0]
    for xw_t, out in zip(xw, zip(hs[1:], cs[1:], a_s, tcs)):
        h, c = lstm_step(g, xw_t, h, c, out)[:2]
    h, c, a = _batch_major(hs), _batch_major(cs), _batch_major(a_s)
    cache = {"x": x, "h_prev": h[:, :-1], "c_prev": c[:, :-1], "c": c[:, 1:],
             "fio": a[:, :, :3], "gc": a[:, :, 3], "tc": _batch_major(tcs)}
    return h[:, 1:], cache


def lstm_step_backward(p: LstmParams, bw: dict, t: int, dh: np.ndarray,
                       dc_in: np.ndarray):
    """(gate pre-activation grads [4, H] (f, i, o, g), dh_prev, dc_prev) at
    step t of one window's `backward_cache`; the grads are row t of its
    buffer `da`, whose outer products with the step's x and h_prev are the
    weight grads."""
    da = bw["da"][t]
    fio = bw["fio"][t]
    dc = dh * fio[2]  # dc_in + dh * o * (1 - tc^2)
    dc *= bw["om_tc"][t]
    dc += dc_in
    np.multiply(dc, bw["cg"][t], da[:2])  # df, di
    np.multiply(dh, bw["tc"][t], da[2])  # do
    da_fio = da[:3]
    da_fio *= fio
    da_fio *= bw["om_fio"][t]
    np.multiply(dc, fio[1], da[3])  # dgc
    da[3] *= bw["om_gg"][t]
    # 0.0 + f + i + o + g: the start turns an all -0.0 sum into +0.0
    dh_prev = np.add.reduce(p.U.swapaxes(1, 2) @ da[..., None], axis=0,
                            initial=0.0)[:, 0]
    return da, dh_prev, dc * fio[0]


# --- dense layer (feed-forward baseline) -------------------------------------

def dense_step(p: DenseParams, x: np.ndarray):
    """The layer over rows x [..., n_in]: (y [..., n_out], cache)."""
    if p.w.shape[1] != x.shape[-1]:
        raise ShapeError(f"dense: weights {p.w.shape} vs input {x.shape}")
    a = (p.w @ x[..., None])[..., 0] + p.b
    y = np.tanh(a)
    return y, {"x": x, "y": y}


def dense_step_backward(p: DenseParams, cache: dict, dy: np.ndarray,
                        grad: np.ndarray, input_grad: bool = True):
    """Writes the weight grads of one window's row of the layer into `grad`,
    a vector in its layout; returns the input grad (None unless
    `input_grad`)."""
    x, y = cache["x"], cache["y"]
    g_w, da = p.lay_out(grad)  # the bias grad is da = dy * (1 - y^2)
    np.multiply(y, y, out=da)
    np.subtract(1.0, da, out=da)
    da *= dy
    np.multiply(da[:, None], x, out=g_w)  # np.outer's products
    return p.w.T @ da if input_grad else None


# --- initialization -----------------------------------------------------------

def _weight(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def _init_gated(cls, d: int, h: int, rng, **rest):
    """A gated layer of `cls`: each gate's rows of W, then U, drawn gate by
    gate; b zero; the other fields from `rest`."""
    wu = [(_weight(rng, h, d), _weight(rng, h, h)) for _ in cls.GATES]
    return cls(W=np.array([w for w, _ in wu]), U=np.array([u for _, u in wu]),
               b=np.zeros((len(cls.GATES), h)), **rest)


def init_gru(d: int, h: int, rng) -> GruParams:
    return _init_gated(GruParams, d, h, rng)


# Zero-initialized decay weights would sit exactly on the rectifier kink,
# where the subgradient is 0, leaving the decay mechanism untrainable. A small
# positive weight keeps the rectifier active so the decay rates can learn.
DECAY_WEIGHT_INIT = 0.1


def init_grud(d: int, h: int, rng, x_mean: np.ndarray | None = None) -> GrudParams:
    return _init_gated(
        GrudParams, d, h, rng,
        # mask weights start at zero: the cell begins as a plain gated cell on
        # the decayed input and learns how much the mask channels matter
        V=np.zeros((3, h, d)),
        w_decay_x=np.full(d, DECAY_WEIGHT_INIT),
        b_decay_x=np.zeros(d),
        w_decay_h=np.full((h, d), DECAY_WEIGHT_INIT),
        b_decay_h=np.zeros(h),
        x_mean=None if x_mean is None else np.asarray(x_mean, dtype=np.float64),
    )


def init_lstm(d: int, h: int, rng) -> LstmParams:
    return _init_gated(LstmParams, d, h, rng)


def init_dense(d_in: int, d_out: int, rng) -> DenseParams:
    return DenseParams(w=_weight(rng, d_out, d_in), b=np.zeros(d_out))
