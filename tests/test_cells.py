import math

import numpy as np
import pytest

from frictioncast import cells
from frictioncast.errors import ShapeError
from frictioncast.linalg import new_rng


def zeroed(params):
    for t in params.tensors().values():
        t[...] = 0.0
    return params


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def window(cache, b=0):
    """Window b's cache [T, ·] of a layer run over a batch of windows."""
    return {k: v[b] for k, v in cache.items()}


class WindowCache(dict):
    """Window 0's cache [T, ·] of a layer plan that ran, and the plan."""

    def __init__(self, layer):
        super().__init__(window(layer.cache))
        self.layer = layer


def run(layer):
    """Run a freshly laid-out layer plan: (out, cache)."""
    layer.forward()
    return layer.out, layer.cache


def same_bits(a, b) -> bool:
    """Equal values and equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def gru_one(p, x, h_prev):
    """One step of the plain cell on one window: (h [H], cache [1, ·])."""
    layer = cells.GruLayer(p, x[None, None], h_prev[None])
    layer.forward()
    return layer.out[0, 0], WindowCache(layer)


def grud_one(p, x, m, delta, h_prev):
    """The decay cell on one window of steps x, m, delta [T, D] from state
    h_prev: (the last state [H], cache [T, ·])."""
    layer = cells.GrudLayer(p, cells.grud_inputs(p, x[None], m[None],
                                                 delta[None]), h_prev[None])
    layer.forward()
    return layer.out[0, -1], WindowCache(layer)


def lstm_one(p, x, h_prev, c_prev):
    """One LSTM step on one window: (h, c, cache [1, ·])."""
    layer = cells.LstmLayer(p, x[None, None], h_prev[None], c_prev[None])
    layer.forward()
    return layer.out[0, 0], layer.cache["c"][0, 0], WindowCache(layer)


# --- plain cell forward ------------------------------------------------------

def test_gru_zero_params_halves_state():
    p = zeroed(cells.init_gru(2, 3, new_rng(0)))
    h_prev = np.array([0.4, -0.2, 1.0])
    h, _ = gru_one(p, np.array([1.0, 2.0]), h_prev)
    # gates sit at 0.5 and the candidate at 0, so the state halves
    assert np.allclose(h, 0.5 * h_prev)


def test_gru_zero_state_zero_params():
    p = zeroed(cells.init_gru(1, 4, new_rng(0)))
    h, _ = gru_one(p, np.array([0.3]), np.zeros(4))
    assert np.allclose(h, 0.0)


def scalar_gru_oracle(p, x, h_prev):
    """Loop-based re-implementation, no vector ops."""
    h_dim, d = p.w_r.shape
    def gate(w, u, b, squash):
        out = []
        for i in range(h_dim):
            a = b[i]
            for j in range(d):
                a += w[i][j] * x[j]
            for j in range(h_dim):
                a += u[i][j] * h_prev[j]
            out.append(squash(a))
        return out
    r = gate(p.w_r, p.u_r, p.b_r, scalar_sigmoid)
    z = gate(p.w_z, p.u_z, p.b_z, scalar_sigmoid)
    c = []
    for i in range(h_dim):
        a = p.b_c[i]
        for j in range(d):
            a += p.w_c[i][j] * x[j]
        for j in range(h_dim):
            a += p.u_c[i][j] * (r[j] * h_prev[j])
        c.append(math.tanh(a))
    return [(1 - z[i]) * h_prev[i] + z[i] * c[i] for i in range(h_dim)]


def test_gru_matches_scalar_oracle():
    rng = new_rng(3)
    for _ in range(10):
        p = cells.init_gru(2, 5, rng)
        x, h_prev = rng.standard_normal(2), rng.standard_normal(5)
        h, _ = gru_one(p, x, h_prev)
        assert np.allclose(h, scalar_gru_oracle(p, x, h_prev), atol=1e-12)


def test_gru_shape_mismatch():
    p = cells.init_gru(2, 3, new_rng(0))
    with pytest.raises(ShapeError):
        cells.GruLayer(p, np.zeros((1, 1, 3)))


def test_gate_and_candidate_ranges():
    rng = new_rng(8)
    for _ in range(20):
        p = cells.init_gru(1, 4, rng)
        _, cache = gru_one(p, rng.standard_normal(1), rng.standard_normal(4))
        assert np.all((cache["rz"] > 0) & (cache["rz"] < 1))  # r and z
        assert np.all((cache["c"] > -1) & (cache["c"] < 1))


def test_state_is_convex_mix_of_carry_and_candidate():
    rng = new_rng(12)
    for _ in range(20):
        p = cells.init_gru(1, 4, rng)
        h_prev = rng.standard_normal(4)
        h, cache = gru_one(p, rng.standard_normal(1), h_prev)
        lo = np.minimum(h_prev, cache["c"][0])
        hi = np.maximum(h_prev, cache["c"][0])
        assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


# --- decay rate --------------------------------------------------------------

def test_decay_rate_zero_params():
    gamma = cells.decay_rate(np.zeros(3), np.zeros(3), np.array([0.0, 5.0, 100.0]))
    assert np.all(gamma == 1.0)


def test_decay_rate_scalar_case():
    gamma = cells.decay_rate(np.array([0.5]), np.array([0.1]), np.array([2.0]))
    assert gamma[0] == pytest.approx(math.exp(-1.1), abs=1e-12)


def test_decay_rate_rectifier_floor():
    gamma = cells.decay_rate(np.array([0.01]), np.array([-5.0]), np.array([1.0]))
    assert gamma[0] == 1.0


def test_decay_rate_range_and_floor_condition():
    rng = new_rng(2)
    w = rng.standard_normal(1000)
    b = rng.standard_normal(1000)
    delta = np.abs(rng.standard_normal(1000)) * 10
    gamma = cells.decay_rate(w, b, delta)
    assert np.all(gamma > 0) and np.all(gamma <= 1)
    pre = w * delta + b
    assert np.array_equal(gamma == 1.0, pre <= 0)


# --- decay cell --------------------------------------------------------------

def grud_from_gru(gru, d, h, x_mean):
    """Decay cell sharing the plain cell's weights, all new parts zero."""
    return cells.GrudParams(
        W=gru.W.copy(), U=gru.U.copy(), b=gru.b.copy(), V=np.zeros((3, h, d)),
        w_decay_x=np.zeros(d), b_decay_x=np.zeros(d),
        w_decay_h=np.zeros((h, d)), b_decay_h=np.zeros(h),
        x_mean=x_mean,
    )


def test_grud_observed_input_ignores_decay():
    rng = new_rng(5)
    p = cells.init_grud(1, 3, rng, x_mean=np.array([0.6]))
    p.w_decay_x[...] = 5.0  # would decay hard if it were consulted
    x = np.array([[0.1], [0.9]])
    _, cache = grud_one(p, x, np.ones((2, 1)), np.array([[0.0], [3.0]]),
                        rng.standard_normal(3))
    assert np.array_equal(cache["x_hat"], x)


def test_grud_reduces_to_gru():
    rng = new_rng(6)
    for _ in range(30):
        gru = cells.init_gru(1, 4, rng)
        grud = grud_from_gru(gru, 1, 4, x_mean=np.array([0.5]))
        x = rng.random(1)
        h_prev = rng.standard_normal(4)
        hg, _ = gru_one(gru, x, h_prev)
        hd, _ = grud_one(grud, x[None], np.ones((1, 1)), rng.random((1, 1)),
                         h_prev)
        assert np.array_equal(hg, hd)


def test_grud_backward_reduces_to_gru():
    # V = 0 and gamma == 1 on observed input: the shared gate gradients, the
    # carried-state and the input gradients are the plain cell's, bit for bit
    rng = new_rng(26)
    for _ in range(30):
        gru = cells.init_gru(1, 4, rng)
        grud = grud_from_gru(gru, 1, 4, x_mean=np.array([0.5]))
        x, h_prev, dh = rng.random(1), rng.standard_normal(4), rng.standard_normal(4)
        _, cg = gru_one(gru, x, h_prev)
        _, cd = grud_one(grud, x[None], np.ones((1, 1)), rng.random((1, 1)),
                         h_prev)
        wg, (out_g,), dx_g = window_weight_grads("gru", gru, cg, dh)
        wd, (out_d,), dx_hat = window_weight_grads("gru-d", grud, cd, dh)
        gates_g, dh_g = out_g
        gates_d, dh_d, _ = out_d
        assert np.array_equal(gates_g, gates_d)  # rows r, z, c
        assert all(np.array_equal(wg[k], wd[k]) for k in gru.tensors())
        # with m = 1 the input grad is the one at the decayed input
        assert np.array_equal(dh_g, dh_d) and np.array_equal(dx_g, dx_hat)


def test_grud_missing_with_unit_decay_uses_last_observation():
    rng = new_rng(7)
    p = cells.init_grud(1, 3, rng, x_mean=np.array([0.6]))
    p.w_decay_x[...] = 0.0  # unit input decay
    x = np.array([[0.82], [np.nan], [np.nan]])
    _, cache = grud_one(p, x, np.array([[1.0], [0.0], [0.0]]),
                        np.array([[0.0], [2.0], [3.0]]), np.zeros(3))
    assert np.array_equal(cache["x_last"][1:], x[[0, 0]])
    assert np.array_equal(cache["x_hat"], x[[0, 0, 0]])


def test_grud_requires_x_mean():
    p = cells.init_grud(1, 3, new_rng(0))
    with pytest.raises(ShapeError, match="x_mean"):
        cells.grud_inputs(p, np.zeros((1, 1, 1)), np.ones((1, 1, 1)),
                          np.zeros((1, 1, 1)))


def test_grud_state_is_convex_mix():
    rng = new_rng(13)
    for _ in range(20):
        p = cells.init_grud(1, 4, rng, x_mean=np.array([0.5]))
        m = np.array([[float(rng.integers(0, 2))]])
        x = np.where(m > 0.5, rng.random(1), np.nan)
        h, cache = grud_one(p, x, m, rng.random((1, 1)),
                            rng.standard_normal(4))
        lo = np.minimum(cache["h_hat"][0], cache["c"][0])
        hi = np.maximum(cache["h_hat"][0], cache["c"][0])
        assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


# --- LSTM --------------------------------------------------------------------

def test_lstm_zero_params():
    p = zeroed(cells.init_lstm(2, 3, new_rng(0)))
    c_prev = np.array([0.8, -0.4, 0.0])
    h, c, _ = lstm_one(p, np.zeros(2), np.zeros(3), c_prev)
    assert np.allclose(c, 0.5 * c_prev)
    assert np.allclose(h, 0.5 * np.tanh(c))


def test_lstm_zero_everything():
    p = zeroed(cells.init_lstm(1, 3, new_rng(0)))
    h, c, _ = lstm_one(p, np.zeros(1), np.zeros(3), np.zeros(3))
    assert np.allclose(h, 0.0) and np.allclose(c, 0.0)


def scalar_lstm_oracle(p, x, h_prev, c_prev):
    h_dim, d = p.w_f.shape
    def pre(w, u, b, i):
        a = b[i]
        for j in range(d):
            a += w[i][j] * x[j]
        for j in range(h_dim):
            a += u[i][j] * h_prev[j]
        return a
    h, c = [], []
    for i in range(h_dim):
        f = scalar_sigmoid(pre(p.w_f, p.u_f, p.b_f, i))
        g_i = scalar_sigmoid(pre(p.w_i, p.u_i, p.b_i, i))
        o = scalar_sigmoid(pre(p.w_o, p.u_o, p.b_o, i))
        g = math.tanh(pre(p.w_g, p.u_g, p.b_g, i))
        ci = f * c_prev[i] + g_i * g
        c.append(ci)
        h.append(o * math.tanh(ci))
    return h, c


def test_lstm_matches_scalar_oracle():
    rng = new_rng(9)
    for _ in range(10):
        p = cells.init_lstm(2, 4, rng)
        x = rng.standard_normal(2)
        h_prev, c_prev = rng.standard_normal(4), rng.standard_normal(4)
        h, c, _ = lstm_one(p, x, h_prev, c_prev)
        oh, oc = scalar_lstm_oracle(p, x, h_prev, c_prev)
        assert np.allclose(h, oh, atol=1e-12)
        assert np.allclose(c, oc, atol=1e-12)


# --- dense -------------------------------------------------------------------

def test_dense_tanh_of_bias():
    p = cells.DenseParams(w=np.zeros((2, 3)), b=np.array([0.3, -0.7]))
    y, _ = run(cells.DenseLayer(p, np.ones((1, 3))))
    assert np.allclose(y[0], np.tanh([0.3, -0.7]))


def test_dense_matches_scalar_oracle():
    rng = new_rng(10)
    p = cells.init_dense(3, 2, rng)
    x = rng.standard_normal(3)
    y, _ = run(cells.DenseLayer(p, x[None]))
    for i in range(2):
        a = p.b[i] + sum(p.w[i][j] * x[j] for j in range(3))
        assert y[0, i] == pytest.approx(math.tanh(a), abs=1e-12)


# --- initialization ----------------------------------------------------------

def test_init_deterministic():
    a = cells.init_grud(1, 4, new_rng(42))
    b = cells.init_grud(1, 4, new_rng(42))
    for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
        assert na == nb and np.array_equal(ta, tb)


@pytest.mark.parametrize("init", [cells.init_gru, cells.init_lstm,
                                  cells.init_grud], ids=lambda f: f.__name__)
def test_init_draws_w_then_u_gate_by_gate(init):
    """`model.json` bytes follow the draw order: each gate's row of W, then
    its row of U, gate by gate, and nothing else is drawn."""
    d, h = 2, 3
    rng = new_rng(9)
    p = init(d, h, rng)
    hand = new_rng(9)
    for g in range(len(p.GATES)):
        assert np.array_equal(p.W[g], hand.standard_normal((h, d)) / np.sqrt(d))
        assert np.array_equal(p.U[g], hand.standard_normal((h, h)) / np.sqrt(h))
    assert rng.standard_normal() == hand.standard_normal()
    assert np.array_equal(p.b, np.zeros((len(p.GATES), h)))
    if init is cells.init_grud:
        assert np.array_equal(p.V, np.zeros((3, h, d)))
        for name, shape in (("w_decay_x", (d,)), ("w_decay_h", (h, d))):
            assert np.array_equal(getattr(p, name),
                                  np.full(shape, cells.DECAY_WEIGHT_INIT))
        assert np.array_equal(p.b_decay_x, np.zeros(d))
        assert np.array_equal(p.b_decay_h, np.zeros(h))


def test_init_contract():
    p = cells.init_grud(1, 4, new_rng(0))
    assert np.all(p.b_r == 0) and np.all(p.b_z == 0) and np.all(p.b_c == 0)
    assert np.all(p.b_decay_x == 0) and np.all(p.b_decay_h == 0)
    # decay weights start slightly positive, so the rectifier starts active
    # (training may still leave a decay unit dead)
    assert np.all(p.w_decay_x == cells.DECAY_WEIGHT_INIT)
    assert np.all(p.w_decay_h == cells.DECAY_WEIGHT_INIT)
    assert np.all(p.v_r == 0) and np.all(p.v_z == 0) and np.all(p.v_c == 0)


def test_init_weight_scale():
    p = cells.init_gru(1, 64, new_rng(1))
    std = np.std(p.u_r)
    assert abs(std - 1 / 8) < 0.1 / 8


# --- step backward vs finite differences -------------------------------------

def numeric_step_grads(step_fn, params, eps=1e-5):
    """Central differences of sum(h) over every parameter scalar."""
    out = {}
    for name, tensor in params.tensors().items():
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            hp = step_fn()
            tensor[idx] = orig - eps
            hm = step_fn()
            tensor[idx] = orig
            g[idx] = (np.sum(hp) - np.sum(hm)) / (2 * eps)
        out[name] = g
    return out


def step_outputs(kind, layer, t):
    """What step t's backward kernel left in the layer plan's buffers: its
    gate grads and dh_prev, then dh_hat (decay cell) or dc_prev (LSTM)."""
    extra = {"gru": (), "gru-d": ("dh_hat",), "lstm": ("dcs",)}[kind]
    return (layer.da[t], layer.dhs[t], *(getattr(layer, k)[t] for k in extra))


def window_weight_grads(kind, p, cache, dh):
    """Weight grads of sum(dh * h_T) over one window's cache [T, ·], by
    tensor name, what each step's backward kernel returned, and the input
    grads [T, D]: the layer plan that ran the window (`cache.layer`) lays
    out its backward from dh at the last step's output and runs it."""
    layer = cache.layer
    grad = np.zeros(sum(t.size for t in p.tensors().values()))
    layer.lay_out_backward(grad, dh.copy())
    layer.backward()
    outs = [step_outputs(kind, layer, t) for t in range(len(layer.da))]
    return p.tensors(grad), outs, layer.dx


def assert_grads_close(analytic, numeric, tol=1e-6, skip=()):
    for name, a in analytic.items():
        if name in skip:
            continue
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = np.abs(a - n) / denom
        assert np.max(rel) < tol, f"{name}: rel err {np.max(rel):.2e}"


def test_gru_backward_matches_finite_differences():
    rng = new_rng(20)
    p = cells.init_gru(1, 3, rng)
    x, h_prev = rng.standard_normal(1), rng.standard_normal(3)
    _, cache = gru_one(p, x, h_prev)
    g, ((_, dh_prev),), (dx,) = window_weight_grads("gru", p, cache,
                                                    np.ones(3))
    assert_grads_close(g, numeric_step_grads(lambda: gru_one(p, x, h_prev)[0], p))
    # carried-state and input gradients against finite differences
    eps = 1e-5
    for j in range(3):
        hp = h_prev.copy(); hp[j] += eps
        hm = h_prev.copy(); hm[j] -= eps
        num = (np.sum(gru_one(p, x, hp)[0])
               - np.sum(gru_one(p, x, hm)[0])) / (2 * eps)
        assert dh_prev[j] == pytest.approx(num, rel=1e-6, abs=1e-9)
    num = (np.sum(gru_one(p, x + eps, h_prev)[0])
           - np.sum(gru_one(p, x - eps, h_prev)[0])) / (2 * eps)
    assert dx[0] == pytest.approx(num, rel=1e-6, abs=1e-9)


def test_grud_backward_matches_finite_differences():
    rng = new_rng(21)
    p = cells.init_grud(1, 3, rng, x_mean=np.array([0.6]))
    # random decay params well away from the rectifier kink
    p.w_decay_x[...] = 0.4
    p.b_decay_x[...] = 0.2
    p.w_decay_h[...] = rng.random((3, 1)) + 0.1
    p.b_decay_h[...] = rng.random(3) + 0.1
    # observed 0.8 (not the mean), then missing: the second step decays
    # toward the mean from the last observation
    m = np.array([[1.0], [0.0]])
    x, delta = np.array([[0.8], [np.nan]]), np.array([[1.0], [2.0]])
    h_prev = rng.standard_normal(3)
    _, cache = grud_one(p, x, m, delta, h_prev)
    assert np.array_equal(cache["x_last"][1], [0.8])
    g = window_weight_grads("gru-d", p, cache, np.ones(3))[0]
    numeric = numeric_step_grads(lambda: grud_one(p, x, m, delta, h_prev)[0], p)
    assert_grads_close(g, numeric)


def test_grud_backward_dead_rectifier_gives_zero_decay_grads():
    rng = new_rng(22)
    p = cells.init_grud(1, 3, rng, x_mean=np.array([0.6]))
    p.w_decay_x[...] = 0.01
    p.b_decay_x[...] = -5.0  # pre-activation below zero -> gamma frozen at 1
    p.w_decay_h[...] = 0.01
    p.b_decay_h[...] = -5.0
    _, cache = grud_one(p, np.array([[np.nan]]), np.zeros((1, 1)),
                        np.array([[2.0]]), rng.standard_normal(3))
    g = window_weight_grads("gru-d", p, cache, np.ones(3))[0]
    for name in ("w_decay_x", "b_decay_x", "w_decay_h", "b_decay_h"):
        assert np.all(g[name] == 0.0)


def test_lstm_backward_matches_finite_differences():
    rng = new_rng(23)
    p = cells.init_lstm(1, 3, rng)
    x = rng.standard_normal(1)
    h_prev, c_prev = rng.standard_normal(3), rng.standard_normal(3)
    _, _, cache = lstm_one(p, x, h_prev, c_prev)
    g = window_weight_grads("lstm", p, cache, np.ones(3))[0]
    numeric = numeric_step_grads(lambda: lstm_one(p, x, h_prev, c_prev)[0], p)
    assert_grads_close(g, numeric)


def per_step_gru_backward(p, c, h_prev, dh):
    """The gated backward step written out on one step's cache row `c`:
    the association the kernels keep with their per-window factors."""
    r, z, cand = c["rz"][0], c["rz"][1], c["c"]
    dz = dh * (cand - h_prev)
    dc = dh * z
    da_c = dc * (1.0 - cand * cand)
    d_rh = p.u_c.T @ da_c
    da_r = d_rh * h_prev * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    dh_prev = dh * (1.0 - z) + d_rh * r + p.u_r.T @ da_r + p.u_z.T @ da_z
    dx = p.w_c.T @ da_c + p.w_r.T @ da_r + p.w_z.T @ da_z
    return np.array([da_r, da_z, da_c]), dh_prev, dx


def per_step_lstm_backward(p, c, dh, dc_in):
    """The LSTM backward step written out on one step's cache row `c`."""
    f, i, o = c["fio"]
    gc, tc = c["gc"], c["tc"]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    da = np.array([dc * c["c_prev"] * f * (1.0 - f), dc * gc * i * (1.0 - i),
                   dh * tc * o * (1.0 - o), dc * i * (1.0 - gc * gc)])
    dh_prev = (0.0 + p.u_f.T @ da[0] + p.u_i.T @ da[1] + p.u_o.T @ da[2]
               + p.u_g.T @ da[3])
    dx = (0.0 + p.w_f.T @ da[0] + p.w_i.T @ da[1] + p.w_o.T @ da[2]
          + p.w_g.T @ da[3])
    return da, dh_prev, dc * f, dx


@pytest.mark.parametrize("kind", ["gru", "gru-d", "lstm"])
def test_backward_steps_keep_the_per_step_association(kind):
    """With the cache-only factors formed once per window, every step's
    gate grads and state grads, and each step's row of the window's input
    grads, equal the per-step expressions bit for bit, sign bits of zeros
    included (H = 5, D = 2, a six-step window)."""
    rng = new_rng(27)
    d, h_dim, t_len = 2, 5, 6
    init = {"gru": cells.init_gru, "lstm": cells.init_lstm,
            "gru-d": lambda d, h, rng: cells.init_grud(d, h, rng, np.full(d, 0.5))}
    p = init[kind](d, h_dim, rng)
    for t in p.tensors().values():
        t[...] = rng.standard_normal(t.shape)
    x = rng.standard_normal((t_len, d))
    h0 = rng.standard_normal(h_dim)
    if kind == "gru-d":
        m = (rng.random((t_len, d)) > 0.4).astype(float)
        delta = rng.uniform(0.5, 3.0, (t_len, d))
        layer = grud_one(p, np.where(m > 0.5, x, np.nan), m, delta, h0)[1].layer
    elif kind == "lstm":
        layer = cells.LstmLayer(p, x[None], h0[None],
                                rng.standard_normal((1, h_dim)))
    else:
        layer = cells.GruLayer(p, x[None], h0[None])
    cache = window(run(layer)[1])
    dh, dc = rng.standard_normal(h_dim), rng.standard_normal(h_dim)
    layer.lay_out_backward(np.zeros(sum(t.size for t in p.tensors().values())),
                           dh)
    if kind == "lstm":
        layer.dcs[-1] = dc  # a cell-state grad at the last step too
    layer.backward()
    dx_want = np.empty((t_len, d))
    for t in range(t_len - 1, -1, -1):
        # the grads the step's kernel received: its output's, the cell's
        d_out = dh if t == t_len - 1 else layer.dhs[t + 1]
        c = {k: v[t] for k, v in cache.items()}
        got = step_outputs(kind, layer, t)
        if kind == "lstm":
            *want, dx_want[t] = per_step_lstm_backward(p, c, d_out,
                                                       layer.dcs[t + 1])
        elif kind == "gru-d":
            *want, dx_want[t] = per_step_gru_backward(p, c, c["h_hat"], d_out)
            assert np.array_equal(got[1], got[2] * c["gamma_h"])
            got = got[0], got[2]
        else:
            *want, dx_want[t] = per_step_gru_backward(p, c, c["h_prev"], d_out)
        for a, b in zip(got, want, strict=True):
            assert same_bits(a, b)
    assert same_bits(layer.dx, dx_want)


def test_zero_upstream_gradient_gives_zero_grads():
    rng = new_rng(24)
    p = cells.init_gru(1, 3, rng)
    _, cache = gru_one(p, rng.standard_normal(1), rng.standard_normal(3))
    grads, ((g, dh_prev),), dx = window_weight_grads("gru", p, cache,
                                                     np.zeros(3))
    assert np.all(g == 0) and all(np.all(v == 0) for v in grads.values())
    assert np.all(dh_prev == 0) and np.all(dx == 0)


# --- batch axis --------------------------------------------------------------

def test_stacked_gemv_rounds_as_the_one_row_product():
    """The batch axis rests on this: `W @ X[..., None]` runs one gemv per row
    and equals the one-row `W @ x` bit for bit, for every H and input width
    the layers use, also with the gates stacked on a leading axis, with the
    operand views that rows of a batch are, and for the head's dot."""
    rng = np.random.default_rng(0)
    for h_dim in range(1, 34):
        for k in sorted({1, h_dim}):
            w3 = rng.standard_normal((3, h_dim, k))
            x = rng.standard_normal((13, 7, k))
            want = np.array([[[w @ row for w in w3] for row in window]
                             for window in x])
            stacked = (w3[:, None] @ x.swapaxes(0, 1)[:, None, :, :, None])
            assert np.array_equal(stacked[..., 0].transpose(2, 0, 1, 3), want)
            for g in range(3):
                assert np.array_equal((w3[g] @ x[..., None])[..., 0],
                                      want[:, :, g])
            # the transposed weights, as the backward reads them
            v = rng.standard_normal((13, h_dim))
            assert np.array_equal((w3[0].T @ v[..., None])[..., 0],
                                  np.array([w3[0].T @ row for row in v]))
        head = rng.standard_normal(h_dim)
        states = rng.standard_normal((13, h_dim))
        assert np.array_equal((head @ states[..., None])[..., 0],
                              np.array([head @ row for row in states]))


def test_stacked_transposed_products_sum_as_the_per_gate_chain():
    """The backward's gate sums rest on this: the stacked transposed product
    `W^T @ da[..., None]` over steps and gates G in {2, 3, 4} equals each
    gate's `W[g].T @ da[t, g]`, and `np.add.reduce(..., initial=0.0)` over
    the gates equals the per-gate chain 0.0 + a + b + ..., in value and in
    sign bit, for H 1-33 and input widths 1 and H, over a window and for
    one step (as `lstm_step_backward` sums dh_prev)."""
    rng = np.random.default_rng(1)
    for h_dim in range(1, 34):
        for k in sorted({1, h_dim}):
            for n_gates in (2, 3, 4):
                w = rng.standard_normal((n_gates, h_dim, k))
                da = rng.standard_normal((5, n_gates, h_dim))
                da[1], da[2] = 0.0, -0.0  # zero sums of either sign
                da[3, 0] = -0.0
                per_gate = (w.swapaxes(1, 2) @ da[..., None])[..., 0]
                window_sum = np.add.reduce(per_gate, axis=1, initial=0.0)
                for t in range(len(da)):
                    want = 0.0
                    for g in range(n_gates):
                        product = w[g].T @ da[t, g]
                        assert same_bits(per_gate[t, g], product)
                        want = want + product
                    assert same_bits(window_sum[t], want)
                    step_sum = np.add.reduce(w.swapaxes(1, 2) @ da[t][..., None],
                                             axis=0, initial=0.0)[:, 0]
                    assert same_bits(step_sum, want)


def test_reversed_row_reduce_adds_the_rows_in_turn():
    """The weight-gradient sum rests on this: `np.add.reduce` of a layer's
    rows [T, n] in reverse time order, from `initial=0.0`, equals adding
    rows T-1, ..., 0 one at a time to zeros, in value and in sign bit, for
    the width n of every recurrent layer (H 1-33, input width 1 or H) and
    T 1-16. The exception: when the kept axis is 1 wide (n = 1) and
    T >= 8, numpy sums the rows pairwise and rounds differently; no layer
    is that narrow."""
    rng = np.random.default_rng(2)
    inits = (cells.init_gru, cells.init_lstm,
             lambda d, h, rng: cells.init_grud(d, h, rng))
    widths = {sum(t.size for t in init(d, h, rng).tensors().values())
              for h in range(1, 34) for d in {1, h} for init in inits}
    assert min(widths) >= 9
    for n in sorted(widths):
        for t_len in range(1, 17):
            rows = rng.standard_normal((t_len, n))
            rows[:, ::3] = -0.0  # all -0.0 columns sum to +0.0 from 0.0
            want = np.zeros(n)
            for t in range(t_len - 1, -1, -1):
                want += rows[t]
            grad = np.zeros(n + 4)
            np.add.reduce(rows[::-1], axis=0, initial=0.0, out=grad[2:-2])
            assert same_bits(grad[2:-2], want)
