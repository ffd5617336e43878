"""Forward/backward kernels for the recurrent cells, on plans laid out once.

Implements the plain gated recurrent cell, its decay-mechanism variant for
missing data, a standard LSTM for the baseline, and a tanh layer for the
feed-forward baseline. Both gated recurrent cells share one private gate
update and its backward pass; the decay cell is a preamble over it that
decays the input and the carried state and adds the mask terms V·m to each
gate. A layer's parameters are its dataclass fields, laid out in one flat
vector in declaration order (`_Params.lay_out`): a gated layer's blocks W,
U, b (and V) hold one row per gate, and the per-gate names (`w_r`, `u_z`,
...) are only the names of those rows, as `model.json` keys them.

Each layer runs on a plan laid out once for B windows [B, T, D] of one
length (`GruLayer`, `GrudLayer`, `LstmLayer`, `DenseLayer`): its step
buffers, time major, in column form [T, ·, B, H, 1], and every step's views
of them, sliced once into per-step tuples that the time loops iterate, so a
run makes no array, dict or view of its own (numpy's iterator may still
buffer a broadcast product). The recurrent plans share one outline
(`_Recurrent`): the forward's buffers and run, and the backward's layout
and run. A layer kind adds only its own buffers, per-step views and
factors, and names its step kernel (`STEP`), which a run looks up by name;
the decay cell's plan is the plain cell's plus its preamble, its decay
rows and its decay backward. A training job lays out one plan per layer
for its one-window steps (and one for its validation split); one-off calls
run on the plans their model keeps (`network`), laid out by the same code.
A plan reads the parameters through views of their memory, and the decay
cell's frozen training mean at each run, so a kept plan follows every
update of the model.

A layer's forward first does the work that does not depend on the hidden
state, once per window: in the decay cell the decay preamble, which reads
the per-window constants of `grud_inputs`, then the input projections W·x
(and the decay cell's mask terms V·m). Then it calls its step kernel
(`gru_step`, `grud_step`, `lstm_step`) once per time step over all B rows.
Every matrix-vector product is a stacked gemv per gate, `W @ X[..., None]`:
one BLAS gemv per row, which rounds exactly as the one-window `W @ x` does
(a gemm over the rows, or one [3H, H] product over the gates, would not),
so row b of a B-window plan equals the one-window plan bit for bit. A
layer's `out` [B, T, H] and `cache` are batch-major views of its buffers.

The backward runs on a one-window plan (`lay_out_backward`), one layer at a
time. It forms the factors that read only the cache once per window, then
its time loop keeps only the recurrence: the backward step kernels fill row
t of the gate-gradient buffer `da` [T, G, H] and the state gradients, in
the per-step association. From the full buffer follow the layer's input
gradient (one stacked transposed gemv per gate and step), the decay path,
and the weight gradients: per-step rows, each a broadcast product of a gate
gradient and a cached operand, added in reverse time order into the
layer's slice of the gradient vector. Backward passes are exact
reverse-mode, gradient-checked against finite differences.

The decay rate is exp(-max(0, w·delta + b)), so it lives in (0, 1] and its
gradient is zero wherever the rectifier is inactive (subgradient 0 at the
kink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
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


def decay_rate(w: np.ndarray, b: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """exp(-max(0, w·delta + b)); diagonal (1-D w) or full (2-D w) map."""
    pre = (w * delta if w.ndim == 1 else (w @ delta[..., None])[..., 0]) + b
    return _rate(pre, pre)


def _rate(pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The decay rate exp(-max(0, pre)) at pre-activations `pre`, into
    `out`."""
    np.maximum(pre, 0.0, out=out)
    np.negative(out, out)
    return np.exp(out, out)


def _check(name: str, got, want) -> None:
    if got.shape != tuple(want):
        raise ShapeError(f"{name}: expected shape {tuple(want)}, got {got.shape}")


def _check_windows(x: np.ndarray, d: int) -> None:
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"x: expected windows [B, T, {d}], got {x.shape}")


def _columns(x: np.ndarray) -> np.ndarray:
    """Windows [B, T, D] as time-major columns [T, 1, B, D, 1] (a view): the
    right operand of a gate block's stacked projection, one gemv per row
    and gate."""
    return x.swapaxes(0, 1)[:, None, :, :, None]


def _state_steps(s0, b: int, t_len: int, h_dim: int) -> np.ndarray:
    """A layer's states over B windows in column form [T + 1, B, H, 1], time
    major; row 0 is the start state, zero unless given as s0 [B, H]."""
    states = np.empty((t_len + 1, b, h_dim, 1))
    if s0 is not None:
        _check("initial state", s0, (b, h_dim))
    states[0] = 0.0 if s0 is None else s0[..., None]
    return states


def _batch_major(steps: np.ndarray) -> np.ndarray:
    """A time loop's buffer [T, ..., B, H, 1] as [B, T, ..., H] (a view)."""
    v = steps[..., 0]
    return v.transpose(v.ndim - 2, *range(v.ndim - 2), v.ndim - 1)


# --- shared gate update -------------------------------------------------------

def _gates(g: tuple, xw_rz, xw_c, h_prev, h, rz, r, z, c, vm_rz=None,
           vm_c=None):
    """Gates, candidate and new state of B rows in column form, from the
    layer's recurrent weights and scratch g and the step's input
    projections xw_rz [2, B, H, 1] (r, z) and xw_c [B, H, 1]; the decay
    cell's mask terms V·m (vm_rz, vm_c) are added before the bias, the plain
    cell has none. Writes the state h, the gates rz (r and z are its rows)
    and the candidate c, all [·, B, H, 1]; returns h."""
    u_rz, b_rz, u_c, b_c, rh, zc, den = g
    # (U·h + W·x) [+ V·m] + b, in this order: the bias cannot join the
    # hoisted W·x without rounding differently
    np.matmul(u_rz, h_prev, rz)
    rz += xw_rz
    if vm_rz is not None:
        rz += vm_rz
    rz += b_rz
    sigmoid(rz, rz, den)
    np.multiply(r, h_prev, rh)
    np.matmul(u_c, rh, c)
    c += xw_c
    if vm_c is not None:
        c += vm_c
    c += b_c
    np.tanh(c, c)
    # (1 - z) * h_prev + z * c
    np.subtract(1.0, z, h)
    h *= h_prev
    np.multiply(z, c, zc)
    h += zc
    return h


def _gates_backward(g: tuple, s: tuple):
    """Backward of `_gates` at one step of one window: from the grad d_out
    [H] at the step's output, fills the step's row da [3, H] (r, z, c) of
    the gate-gradient buffer and the state grad dh_prev; returns both."""
    ut_r, ut_z, ut_c, d_rh, tmp = g
    (d_out, da, da_r, da_z, da_c, da_rz, rz, r, z, om_rz, om_z, om_cc, ch,
     h_prev, dh_prev) = s
    np.multiply(d_out, z, da_c)  # dc
    da_c *= om_cc
    np.matmul(ut_c, da_c, d_rh)
    np.multiply(d_rh, h_prev, da_r)  # dr
    np.multiply(d_out, ch, da_z)  # dz
    da_rz *= rz
    da_rz *= om_rz
    # d_out * (1 - z) + d_rh * r + U_r^T·da_r + U_z^T·da_z, in this order
    np.multiply(d_out, om_z, dh_prev)
    np.multiply(d_rh, r, tmp)
    dh_prev += tmp
    np.matmul(ut_r, da_r, tmp)
    dh_prev += tmp
    np.matmul(ut_z, da_z, tmp)
    dh_prev += tmp
    return da, dh_prev


def _gated_back_steps(d_outs, da, rz, om_rz, om_cc, ch, h_prev,
                      dh_prev) -> tuple:
    """Each step's views for `_gates_backward`, in the order it unpacks them,
    from one window's step grads d_outs, gate-gradient buffer da [T, 3, H],
    cached gates rz [T, 2, H] and state h_prev [T, H], the factors 1 - rz,
    1 - c^2 and c - h_prev, and the buffer of the gates' state grad."""
    return tuple(zip(d_outs, da, da[:, 0], da[:, 1], da[:, 2], da[:, :2], rz,
                     rz[:, 0], rz[:, 1], om_rz, om_rz[:, 1], om_cc, ch, h_prev,
                     dh_prev))


# --- step kernels --------------------------------------------------------------

def gru_step(g: tuple, xw_rz, xw_c, h_prev, h, rz, r, z, c):
    """One step of B rows of the plain cell: the layer's recurrent weights
    and scratch g, input projections xw_rz, xw_c and state h_prev
    [B, H, 1]; writes h, rz, r, z and c in column form, returns h."""
    return _gates(g, xw_rz, xw_c, h_prev, h, rz, r, z, c)


def gru_step_backward(g: tuple, s: tuple):
    """(gate pre-activation grads [3, H] (r, z, c), dh_prev) at one step of
    one window of the plain cell: the step's row of the gate-gradient
    buffer, whose outer products with the step's x, h_prev and r*h_prev
    are the weight grads, formed once per window by the layer."""
    return _gates_backward(g, s)


def grud_step(g: tuple, xw_rz, xw_c, vm_rz, vm_c, gamma_h, h_prev, h_hat, h,
              rz, r, z, c):
    """One step of B rows of the decay cell: the carried state decayed by
    gamma_h [B, H, 1] into h_hat, then the shared gate update on the decayed
    input's projections with the mask terms vm; returns h."""
    np.multiply(gamma_h, h_prev, h_hat)
    return _gates(g, xw_rz, xw_c, h_hat, h, rz, r, z, c, vm_rz, vm_c)


def grud_step_backward(g: tuple, s: tuple):
    """(gate pre-activation grads [3, H], dh_prev, dh_hat) at one step of one
    window of the decay cell: the gate grads act on x_hat, h_hat and the
    mask m; dh_hat, the grad at the decayed state, fills the step's row of
    the buffer the decay-path backward reads."""
    core, gamma_h, dh_prev = s
    da, dh_hat = _gates_backward(g, core)
    np.multiply(dh_hat, gamma_h, dh_prev)
    return da, dh_prev, dh_hat


def lstm_step(g: tuple, xw, h_prev, c_prev, h, c, a, fio, f, i, o, gc, tc):
    """One step of B rows of the LSTM: the layer's recurrent weights and
    biases (U [4, 1, H, H], b [4, 1, H, 1]) of the gates f, i, o, g and its
    scratch g, input projections xw [4, B, H, 1], states h_prev and c_prev
    [B, H, 1]; writes h, c, a [4, B, H, 1] (the gates f, i, o, as `fio`
    and row by row, and the candidate gc) and tc = tanh(c); returns h."""
    u, b, ig, den = g
    np.matmul(u, h_prev, a)
    a += xw
    a += b
    sigmoid(fio, fio, den)
    np.tanh(gc, gc)
    np.multiply(f, c_prev, c)
    np.multiply(i, gc, ig)
    c += ig
    np.tanh(c, tc)
    np.multiply(o, tc, h)
    return h


def lstm_step_backward(g: tuple, s: tuple):
    """(gate pre-activation grads [4, H] (f, i, o, g), dh_prev, dc_prev) at
    one step of one window of the LSTM: the step's row of the gate-gradient
    buffer, whose outer products with the step's x and h_prev are the
    weight grads."""
    ut, dc, per_gate = g
    (d_out, dc_in, da, da_col, da_fi, da_o, da_fio, da_g, fio, f, i, o,
     om_fio, om_tc, om_gg, cg, tc, dh_col, dh_prev, dc_prev) = s
    np.multiply(d_out, o, dc)  # dc_in + dh * o * (1 - tc^2)
    dc *= om_tc
    dc += dc_in
    np.multiply(dc, cg, da_fi)  # df, di
    np.multiply(d_out, tc, da_o)  # do
    da_fio *= fio
    da_fio *= om_fio
    np.multiply(dc, i, da_g)  # dgc
    da_g *= om_gg
    # 0.0 + f + i + o + g: the start turns an all -0.0 sum into +0.0
    np.matmul(ut, da_col, per_gate)
    np.add.reduce(per_gate, axis=0, initial=0.0, out=dh_col)
    np.multiply(dc, f, dc_prev)
    return da, dh_prev, dc_prev


def dense_step(w, x, a, y, b):
    """The dense layer over rows x [B, n_in, 1]: y = tanh(w·x + b) into
    y [B, n_out], whose column view a [B, n_out, 1] takes the product."""
    np.matmul(w, x, a)
    y += b
    return np.tanh(y, y)


def dense_step_backward(y, dy, da, da_col, x, g_w, w_t, dx):
    """Backward of one window's row of the dense layer: writes the weight
    grads g_w and da, the bias grad dy * (1 - y^2), into the layer's slice
    of the gradient, and the input grad into dx (None: not wanted);
    returns dx."""
    np.multiply(y, y, da)
    np.subtract(1.0, da, da)
    da *= dy
    np.multiply(da_col, x, g_w)  # np.outer's products
    if dx is not None:
        np.matmul(w_t, da, dx)
    return dx


# --- layer plans ----------------------------------------------------------------

class _Recurrent:
    """What every recurrent layer plan shares: the forward's buffers (the
    states `hs`, the input projections `xw`, `out`, `cache`) and its run
    (an optional preamble, the `projections`, the time loop); the backward
    over one window (B = 1): the grad from above, the gate-gradient buffer
    `da` [T, G, H], the input-gradient products, and a run of the factors,
    the time loop, the input grad, then the weight rows. A layer kind lays
    out its own buffers, per-step views and factors, and names its step
    kernel `STEP` (the backward's is `STEP + "_backward"`), which a run
    looks up by name, so a wrapped kernel is the one that runs."""

    STEP: ClassVar[str]
    # the order a step sums its gates' input grads in: (c + r) + z in the
    # gated cells; None: 0.0 + f + i + o + g
    GATE_SUM: ClassVar[tuple | None] = None
    # whether `dx` is formed when the layer below wants none
    KEEP_DX: ClassVar[bool] = False

    def _lay_out_forward(self, p, x: np.ndarray, h0) -> tuple:
        """The buffers every recurrent forward has, for B windows x
        [B, T, D] from state h0; returns B, T and H."""
        _check_windows(x, p.W.shape[2])
        b, t_len = x.shape[:2]
        h_dim = p.W.shape[1]
        self.p, self.x = p, x
        self.hs = _state_steps(h0, b, t_len, h_dim)
        self.xw = np.empty((t_len, len(p.GATES), b, h_dim, 1))
        self.projections = [(p.W[:, None], _columns(x), self.xw)]
        self.out = _batch_major(self.hs)[:, 1:]
        return b, t_len, h_dim

    @cached_property
    def cache(self) -> dict:
        """The intermediates the backward reads, as batch-major views."""
        return self._cache_views()

    def _preamble(self) -> None:
        """The work before the input projections: none."""

    def forward(self) -> None:
        """Runs the layer over its windows, into `out` and `cache`."""
        self._preamble()
        for product in self.projections:
            np.matmul(*product)
        step, g = globals()[self.STEP], self.g
        for s in self.steps:
            step(g, *s)

    def lay_out_backward(self, grad: np.ndarray, above: np.ndarray,
                         input_grad: bool = True) -> None:
        """Lays out the backward over the layer's one window: `grad` is its
        slice of the gradient vector, which `backward` fills; `above` the
        grad arriving from above, [H] at the last step's output (the top
        layer) or [T, H] at every step's (the input grads of the layer
        above); with `input_grad`, `backward` also fills `dx` [T, D], the
        grad at the layer's input."""
        p, (t_len, h_dim) = self.p, self.out.shape[1:]
        self.grad, self.rows = grad, np.empty((t_len, grad.size))
        self.rows_rev = self.rows[::-1]
        self.da = da = np.empty((t_len, len(p.GATES), h_dim))
        self.dhs = dhs = np.zeros((t_len + 1, h_dim))
        if above.ndim == 1:  # step t's output grad is step t + 1's dh_prev
            d_outs, adds = (*dhs[1:t_len], above), (None,) * t_len
        else:  # ... plus the input grad above, summed first
            sums = np.empty((t_len, h_dim))
            d_outs, adds = tuple(sums), tuple(zip(dhs[1:], above, sums))
        self.dx = None
        if input_grad or self.KEEP_DX:
            d = self.x.shape[2]
            per_gate = np.empty((t_len, len(p.GATES), d, 1))
            self.input_products = (p.W.swapaxes(1, 2), da[..., None], per_gate)
            per_gate, order = per_gate[..., 0], self.GATE_SUM
            self.gate_sum = ((per_gate,) if order is None
                             else tuple(per_gate[:, i] for i in order))
            self.dx = np.empty((t_len, d))
        c = {k: v[0] for k, v in self.cache.items()}  # the window's
        w, u, self.bias_rows, *rest = p.lay_out(self.rows)
        self.row_products = [(da[..., None], c["x"][:, None, None], w)]
        steps = self._lay_out_steps_back(c, d_outs, u, *rest)
        self.steps_back = tuple(zip(adds, steps))[::-1]

    def _decay_backward(self) -> None:
        """The work between the input grad and the weight rows: none."""

    def backward(self) -> None:
        """Fills the layer's slice of the gradient (and `dx`) from the grad
        `above` and the window's cache."""
        self._factors()
        step, g = globals()[self.STEP + "_backward"], self.g_back
        for add, s in self.steps_back:
            if add is not None:
                np.add(*add)
            step(g, s)
        if self.dx is not None:
            # one stacked transposed gemv per gate and step, summed as a
            # step would (`GATE_SUM`)
            np.matmul(*self.input_products)
            gate_sum = self.gate_sum
            if len(gate_sum) == 1:
                np.add.reduce(gate_sum[0], axis=1, initial=0.0, out=self.dx)
            else:
                g2, g0, g1 = gate_sum
                np.add(g2, g0, self.dx)
                self.dx += g1
        self._decay_backward()
        # each field's rows a broadcast product of a gate factor and an
        # operand the forward cached, added in reverse time order from 0.0:
        # the kept axis is wide, so numpy adds them in turn, not pairwise
        for a, b, out in self.row_products:
            np.multiply(a, b, out)
        np.copyto(self.bias_rows, self.da)
        np.add.reduce(self.rows_rev, axis=0, initial=0.0, out=self.grad)


class GruLayer(_Recurrent):
    """The plain gated cell laid out once for B windows x [B, T, D] from
    state h0 [B, H] (zero by default): its step buffers in column form,
    time major, every step's views of them, the batch-major views `out`
    [B, T, H] and `cache` (the intermediates the backward reads), and, once
    `lay_out_backward` ran, the backward's buffers and views."""

    STEP = "gru_step"
    GATE_SUM = (2, 0, 1)
    STATE = "h_prev"  # the cached state the gates act on

    def __init__(self, p: GruParams, x: np.ndarray, h0=None):
        self._lay_out_gates(p, x, h0)
        self.steps = tuple(zip(self.xw[:, :2], self.xw[:, 2], self.hs,
                               *self._outs))

    def _lay_out_gates(self, p: GruParams, x: np.ndarray, h0) -> None:
        b, t_len, h_dim = self._lay_out_forward(p, x, h0)
        rzs = np.empty((t_len, 2, b, h_dim, 1))
        cs = np.empty((t_len, b, h_dim, 1))
        # the recurrent weights (r, z and c rows), then the scratch of r*h,
        # z*c and the sigmoid
        self.g = (p.U[:2, None], p.b[:2, None, :, None], p.U[2],
                  p.b[2, :, None], np.empty((b, h_dim, 1)),
                  np.empty((b, h_dim, 1)), np.empty((2, b, h_dim, 1)))
        # each step's outputs: h, rz, r, z, c
        self._outs = (self.hs[1:], rzs, rzs[:, 0], rzs[:, 1], cs)
        self._rzs, self._cs = rzs, cs

    def _cache_views(self) -> dict:
        return {"x": self.x, "h_prev": _batch_major(self.hs)[:, :-1],
                "rz": _batch_major(self._rzs), "c": _batch_major(self._cs)}

    def _lay_out_steps_back(self, c: dict, d_outs, u, *decay) -> tuple:
        """The gated backward's factors, scratch and U rows over the window's
        cache `c`; returns each step's views for the backward kernel
        (`_decay_rows`)."""
        p, (t_len, _, h_dim) = self.p, self.da.shape
        da, rz, h = self.da, c["rz"], c[self.STATE]
        om_rz, om_cc = np.empty((t_len, 2, h_dim)), np.empty((t_len, h_dim))
        ch, rh = np.empty((2, t_len, h_dim))
        self.factors = (rz, om_rz, c["c"], om_cc, h, ch)
        ut = p.U.swapaxes(1, 2)
        self.g_back = (ut[0], ut[1], ut[2], np.empty(h_dim), np.empty(h_dim))
        self.row_products += [
            (rz[:, 0], h, rh),  # the candidate's U acts on r * h_prev
            (da[:, :2, :, None], h[:, None, None], u[:, :2]),
            (da[:, 2, :, None], rh[:, None], u[:, 2])]
        return self._decay_rows(c, (d_outs, da, rz, om_rz, om_cc, ch, h),
                                *decay)

    def _decay_rows(self, c: dict, gates: tuple) -> tuple:
        """Each step's views for the backward kernel, from the gates' views
        `gates` (`_gated_back_steps`); the plain cell has no decay rows,
        and its gates' state grad is the state grad."""
        return _gated_back_steps(*gates, self.dhs)

    def _factors(self) -> None:
        """The factors that read only the window's cache, formed once per
        window: 1 - rz, 1 - c^2 and c - h_prev."""
        rz, om_rz, c, om_cc, h, ch = self.factors
        np.subtract(1.0, rz, om_rz)
        np.multiply(c, c, om_cc)
        np.subtract(1.0, om_cc, om_cc)
        np.subtract(c, h, ch)


GRUD_INPUTS = 6  # m, delta, m * x, x_last, 1 - m, x_last - x_mean


def grud_inputs(p: GrudParams, x: np.ndarray, m: np.ndarray,
                delta: np.ndarray) -> np.ndarray:
    """The decay cell's input for B windows of possibly-missing input x, mask
    m and intervals delta (all [B, T, D]), stacked [B, 6, T, D]: m, delta,
    and what depends only on the window and the frozen training mean: m * x,
    the most recent observation before each step (x_last; the mean before
    any), 1 - m and x_last - x_mean. Missing entries of `x` may be NaN; they
    are never read."""
    if p.x_mean is None:
        raise ShapeError("x_mean is unset on the decay cell parameters")
    _check_windows(x, p.W.shape[2])
    _check("m", m, x.shape)
    _check("delta", delta, x.shape)
    out = np.empty((len(x), GRUD_INPUTS, *x.shape[1:]))
    m_in, delta_in, m_x, x_last, om_m, x_dev = out.swapaxes(0, 1)
    m_in[...] = m
    delta_in[...] = delta
    # sanitize sentinels before arithmetic
    np.multiply(m, np.where(m > 0.5, x, 0.0), m_x)
    x_last[...] = last_observed(x, m, p.x_mean)
    np.subtract(1.0, m, om_m)
    np.subtract(x_last, p.x_mean, x_dev)
    return out


class GrudLayer(GruLayer):
    """The decay cell laid out once for B windows of `grud_inputs` [B, 6, T,
    D] from state h0 [B, H] (zero by default): the plain cell's plan on the
    decayed input x_hat and state h_hat, plus the decay preamble and its
    backward.

    Everything that does not depend on the hidden state runs once per
    window before the time loop: both decay rates, the decayed input x_hat
    (the last observation decayed toward the frozen training mean on
    missing entries), its projections and the mask terms V·m."""

    STEP = "grud_step"
    STATE = "h_hat"
    KEEP_DX = True  # the grad at x_hat: the input decay's backward reads it

    def __init__(self, p: GrudParams, inputs: np.ndarray, h0=None):
        if (inputs.ndim != 4 or inputs.shape[1] != GRUD_INPUTS
                or inputs.shape[3] != p.W.shape[2]):
            raise ShapeError(f"decay cell inputs: expected [B, {GRUD_INPUTS}, "
                             f"T, {p.W.shape[2]}], got {inputs.shape}")
        m, delta, m_x, x_last, om_m, x_dev = inputs.swapaxes(0, 1)
        b, t_len, _ = m.shape
        h_dim = p.W.shape[1]
        x_hat = np.empty(m.shape)
        self._lay_out_gates(p, x_hat, h0)
        xw, hs = self.xw, self.hs
        vm = np.empty(xw.shape)
        self.projections.append((p.V[:, None], _columns(m), vm))
        pre_x, gamma_x, work = np.empty((3, *m.shape))
        pre_h_col = np.empty((b, t_len, h_dim, 1))
        pre_h, gamma_h = pre_h_col[..., 0], np.empty((b, t_len, h_dim))
        h_hats = np.empty(hs[1:].shape)
        self.decay_in = (
            (p.w_decay_x, delta, pre_x, p.b_decay_x, gamma_x),
            (p.w_decay_h, delta[..., None], pre_h_col, pre_h, p.b_decay_h,
             gamma_h),
            (x_last, work, om_m, m_x, x_hat))
        gamma_col = gamma_h.swapaxes(0, 1)[..., None]  # [T, B, H, 1]
        self.steps = tuple(zip(xw[:, :2], xw[:, 2], vm[:, :2], vm[:, 2],
                               gamma_col, hs, h_hats, *self._outs))
        self.inputs = (m, delta, om_m, x_dev)
        self._decay_views = dict(x_hat=x_hat, h_hat=h_hats, m=m, delta=delta,
                                 x_last=x_last, pre_x=pre_x, gamma_x=gamma_x,
                                 pre_h=pre_h, gamma_h=gamma_h)

    def _cache_views(self) -> dict:
        decay = self._decay_views
        return (super()._cache_views() | decay
                | {"h_hat": _batch_major(decay["h_hat"])})

    def _preamble(self) -> None:
        """Both decay rates and the decayed input x_hat."""
        decay_x, decay_h, mix = self.decay_in
        w, delta, pre, b, gamma = decay_x
        np.multiply(w, delta, pre)
        pre += b
        _rate(pre, gamma)
        w, delta, pre_col, pre, b, gamma_h = decay_h
        np.matmul(w, delta, pre_col)
        pre += b
        _rate(pre, gamma_h)
        # m * x + (1 - m) * (gamma_x * x_last + (1 - gamma_x) * x_mean),
        # the mean read now: setting the training stats rebinds it
        x_last, work, om_m, m_x, out = mix
        np.multiply(gamma, x_last, out)
        np.subtract(1.0, gamma, work)
        work *= self.p.x_mean
        out += work
        out *= om_m
        out += m_x

    def _decay_rows(self, c: dict, gates: tuple, v, w_dx, b_dx, w_dh,
                    b_dh) -> tuple:
        """The V and decay tensors' rows and the decay backward's buffers;
        each step's views for `grud_step_backward`: the gates' (whose state
        grad is dh_hat, the grad at the decayed state), the hidden decay
        rate gamma_h [T, H] and the state grads."""
        m, delta, om_m, x_dev = (a[0] for a in self.inputs)
        t_len, h_dim = c["h_hat"].shape
        self.dh_hat = np.empty((t_len, h_dim))
        self.row_products += [(self.da[..., None], m[:, None, None], v),
                              (b_dx, delta, w_dx),
                              (b_dh[..., None], delta[:, None], w_dh)]
        self.decay = (
            (self.dh_hat, c["h_prev"], np.empty((t_len, h_dim)), c["gamma_h"],
             np.empty((t_len, h_dim)), c["pre_h"],
             np.empty((t_len, h_dim), bool), b_dh),
            (self.dx, om_m, x_dev, np.empty(m.shape), c["gamma_x"],
             np.empty(m.shape), c["pre_x"], np.empty(m.shape, bool), b_dx))
        return tuple(zip(_gated_back_steps(*gates, self.dh_hat),
                         c["gamma_h"], self.dhs))

    def _decay_backward(self) -> None:
        """The decay tensors' rows, zero where the rectifier is off."""
        hidden, inp = self.decay
        # hidden decay path, h_hat = gamma_h * h_prev:
        # where(pre_h > 0, -gamma_h * (dh_hat * h_prev), 0)
        dh_hat, h_prev, dgamma, gamma, da, pre, on, out = hidden
        np.multiply(dh_hat, h_prev, dgamma)
        _rate_backward(pre, gamma, dgamma, da, on, out)
        # input decay path: x_hat mixes x_last and the frozen mean on
        # missing slots, so dgamma_x = dx_hat * (1 - m) * (x_last - x_mean)
        dx, om_m, x_dev, dgamma, gamma, da, pre, on, out = inp
        np.multiply(dx, om_m, dgamma)
        dgamma *= x_dev
        _rate_backward(pre, gamma, dgamma, da, on, out)


def _rate_backward(pre, gamma, dgamma, work, on, out) -> None:
    """The grad at the decay pre-activation, -gamma * dgamma where the
    rectifier is on (pre > 0) and 0.0 where it is off, into `out`."""
    np.negative(gamma, work)
    work *= dgamma
    np.greater(pre, 0.0, on)
    out.fill(0.0)
    np.copyto(out, work, where=on)


class LstmLayer(_Recurrent):
    """The LSTM laid out once for B windows x [B, T, D] from states h0 and
    c0 [B, H] (zero by default), as `GruLayer` is."""

    STEP = "lstm_step"

    def __init__(self, p: LstmParams, x: np.ndarray, h0=None, c0=None):
        b, t_len, h_dim = self._lay_out_forward(p, x, h0)
        hs, xw = self.hs, self.xw
        cs = _state_steps(c0, b, t_len, h_dim)
        a_s, tcs = np.empty(xw.shape), np.empty(hs[1:].shape)
        # the recurrent weights, then the scratch of i*gc and the sigmoid
        self.g = (p.U[:, None], p.b[:, None, :, None], np.empty((b, h_dim, 1)),
                  np.empty((3, b, h_dim, 1)))
        self.steps = tuple(zip(xw, hs, cs, hs[1:], cs[1:], a_s, a_s[:, :3],
                               a_s[:, 0], a_s[:, 1], a_s[:, 2], a_s[:, 3],
                               tcs))
        self._steps = (hs, cs, a_s, tcs)

    def _cache_views(self) -> dict:
        h, c, a, tc = map(_batch_major, self._steps)
        return {"x": self.x, "h_prev": h[:, :-1], "c_prev": c[:, :-1],
                "c": c[:, 1:], "fio": a[:, :, :3], "gc": a[:, :, 3], "tc": tc}

    def _lay_out_steps_back(self, c: dict, d_outs, u) -> tuple:
        """The LSTM backward's factors, cell-state grads `dcs` [T + 1, H],
        scratch and U rows over the window's cache `c`; returns each step's
        views for `lstm_step_backward`, in the order it unpacks them."""
        p, (t_len, _, h_dim) = self.p, self.da.shape
        da, dhs, fio, gc, tc = self.da, self.dhs, c["fio"], c["gc"], c["tc"]
        om_fio = np.empty(fio.shape)
        om_tc, om_gg = np.empty((2, t_len, h_dim))
        cg = np.empty((t_len, 2, h_dim))  # the stacked [c_prev, gc]
        self.factors = (fio, om_fio, tc, om_tc, gc, om_gg, c["c_prev"], cg)
        self.dcs = dcs = np.zeros((t_len + 1, h_dim))
        self.g_back = (p.U.swapaxes(1, 2), np.empty(h_dim),
                       np.empty((4, h_dim, 1)))
        self.row_products.append((da[..., None], c["h_prev"][:, None, None],
                                  u))
        return tuple(zip(d_outs, dcs[1:], da, da[..., None], da[:, :2],
                         da[:, 2], da[:, :3], da[:, 3], fio, fio[:, 0],
                         fio[:, 1], fio[:, 2], om_fio, om_tc, om_gg, cg, tc,
                         dhs[:, :, None], dhs, dcs))

    def _factors(self) -> None:
        """1 - fio, 1 - tc^2, 1 - gc^2 and [c_prev, gc], once per window."""
        fio, om_fio, tc, om_tc, gc, om_gg, c_prev, cg = self.factors
        np.subtract(1.0, fio, om_fio)
        np.multiply(tc, tc, om_tc)
        np.subtract(1.0, om_tc, om_tc)
        np.multiply(gc, gc, om_gg)
        np.subtract(1.0, om_gg, om_gg)
        cg[:, 0] = c_prev
        cg[:, 1] = gc


class DenseLayer:
    """The tanh layer of the feed-forward baseline laid out once for rows x
    [B, n_in]: `out` y [B, n_out] and `cache`."""

    def __init__(self, p: DenseParams, x: np.ndarray):
        if x.ndim != 2 or p.w.shape[1] != x.shape[1]:
            raise ShapeError(f"dense: weights {p.w.shape} vs input {x.shape}")
        self.p, self.x = p, x
        self.out = y = np.empty((len(x), p.w.shape[0]))
        self.cache = {"x": x, "y": y}
        self.fwd = (p.w, x[..., None], y[..., None], y, p.b)

    def forward(self) -> None:
        """Runs the layer over its rows, into `out`."""
        dense_step(*self.fwd)

    def lay_out_backward(self, grad: np.ndarray, above: np.ndarray,
                         input_grad: bool = True) -> None:
        """Lays out the backward over the layer's one row: `grad` is its
        slice of the gradient vector, `above` the grad [n_out] at its
        output; with `input_grad`, `backward` also fills `dx` [n_in]."""
        g_w, da = self.p.lay_out(grad)  # the bias grad is da
        self.dx = np.empty(self.x.shape[1]) if input_grad else None
        self.bwd = (self.out[0], above, da, da[:, None], self.x[0], g_w,
                    self.p.w.T, self.dx)

    def backward(self) -> None:
        dense_step_backward(*self.bwd)


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
# positive weight makes the rectifier active at initialisation only: training
# can push a unit's pre-activation to <= 0 on every step, where its rate is
# exactly 1 and its gradient exactly 0, so it stays dead (the input decay
# ends so in 8 of the 10 criterion 7 gru-d jobs).
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
