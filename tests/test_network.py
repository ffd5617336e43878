import copy
import dataclasses
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest

from frictioncast import cli, network, timeseries
from frictioncast.errors import ConfigError, ShapeError, UnimputedValueError
from frictioncast.linalg import new_rng
from frictioncast.missingness import (TrainStats, compute_intervals,
                                      compute_mask)
from test_cells import (per_step_gru_backward, per_step_lstm_backward,
                        step_outputs, window)


def make_sample(rng, t_len=7, missing=0.0):
    s = np.arange(t_len, dtype=float)
    x = rng.random((t_len, 1)) * 0.6 + 0.2
    if missing > 0:
        drop = rng.random((t_len, 1)) < missing
        x = np.where(drop, np.nan, x)
    m = compute_mask(x)
    return timeseries.TimeSeriesSample(
        x=x, s=s, m=m, delta=compute_intervals(s, m), y=float(rng.random()))


def zero_model(variant, **kw):
    model = network.build_model(network.ModelSpec(variant=variant, **kw),
                                new_rng(0))
    for t in model.named_tensors().values():
        t[...] = 0.0
    if variant == "gru-d":
        model.layers[0].x_mean = np.array([0.5])
    return model


def test_spec_validation():
    with pytest.raises(ConfigError):
        network.ModelSpec(variant="rnn")
    with pytest.raises(ConfigError):
        network.ModelSpec(variant="gru", hidden_size=0)


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_zero_model_predicts_zero(variant):
    model = zero_model(variant, hidden_size=4)
    sample = make_sample(new_rng(1))
    y_hat, _ = network.forward(model, sample)
    assert y_hat == 0.0


def test_single_step_gru_stays_zero():
    model = zero_model("gru", hidden_size=4)
    model.head_w[0] = 1.0
    rng = new_rng(2)
    sample = make_sample(rng, t_len=1)
    y_hat, _ = network.forward(model, sample)
    assert y_hat == 0.0


def test_forward_deterministic():
    rng = new_rng(3)
    model = network.build_model(network.ModelSpec("gru", hidden_size=5), rng)
    sample = make_sample(rng)
    a, _ = network.forward(model, sample)
    b, _ = network.forward(model, sample)
    assert a == b


def test_forward_matches_scalar_unrolled_oracle():
    from test_cells import scalar_gru_oracle
    rng = new_rng(4)
    model = network.build_model(network.ModelSpec("gru", hidden_size=4), rng)
    sample = make_sample(rng)
    y_hat, _ = network.forward(model, sample)
    h = [0.0] * 4
    for t in range(7):
        h = scalar_gru_oracle(model.layers[0], sample.x[t], h)
    expect = sum(model.head_w[i] * h[i] for i in range(4)) + model.head_b[0]
    assert y_hat == pytest.approx(expect, abs=1e-12)


def test_unimputed_sentinel_rejected_by_non_decay_models():
    rng = new_rng(5)
    sample = make_sample(rng, missing=0.5)
    for variant in ("gru", "lstm", "ffnn"):
        model = network.build_model(network.ModelSpec(variant, hidden_size=3,
                                                      window_len=7), rng)
        with pytest.raises(UnimputedValueError, match="unimputed"):
            network.forward(model, sample)


def test_grud_consumes_raw_missing_input():
    rng = new_rng(6)
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3), rng,
                                x_mean=np.array([0.5]))
    y_hat, _ = network.forward(model, make_sample(rng, missing=0.6))
    assert math.isfinite(y_hat)


def test_loss_mse():
    assert network.loss_mse(1.0, 1.0) == 0.0
    assert network.loss_mse(1.0, 0.0) == 1.0
    assert network.loss_mse(0.7, 0.4) == pytest.approx(0.09, abs=1e-15)


def test_backward_zero_residual_gives_zero_grads():
    rng = new_rng(7)
    model = network.build_model(network.ModelSpec("gru", hidden_size=4), rng)
    sample = make_sample(rng)
    y_hat, trace = network.forward(model, sample)
    grads = network.backward(model, trace, y_hat)  # target equals prediction
    assert all(np.allclose(g, 0.0) for g in model.unflatten(grads).values())


def test_head_gradient_closed_form():
    rng = new_rng(8)
    model = network.build_model(network.ModelSpec("gru", hidden_size=4), rng)
    sample = make_sample(rng)
    y_hat, trace = network.forward(model, sample)
    grads = model.unflatten(network.backward(model, trace, sample.y))
    resid = 2 * (y_hat - sample.y)
    assert np.allclose(grads["head.w"], resid * trace.h_final[0], atol=1e-12)
    assert grads["head.b"][0] == pytest.approx(resid, abs=1e-12)


@pytest.mark.parametrize("variant,depth", [("gru", 1), ("gru", 2),
                                           ("gru-d", 1), ("lstm", 2),
                                           ("ffnn", 1)])
def test_gradient_check_random_models(variant, depth):
    rng = new_rng(9)
    spec = network.ModelSpec(variant, hidden_size=3, recurrent_depth=depth,
                             window_len=7)
    model = network.build_model(spec, rng)
    if variant == "gru-d":
        model.layers[0].x_mean = np.array([0.5])
        model.layers[0].w_decay_x[...] = 0.4
        model.layers[0].b_decay_x[...] = 0.2
        model.layers[0].w_decay_h[...] = rng.random((3, 1)) + 0.1
        model.layers[0].b_decay_h[...] = rng.random(3) + 0.1
    sample = make_sample(rng, missing=0.5 if variant == "gru-d" else 0.0)
    # 1e-5 bound: central differences bottom out near 1e-11 absolute, so tiny
    # gradients deep in the unroll can't certify much tighter than this
    assert network.gradient_check(model, sample) < 1e-5


def test_gradient_check_grud_kink_free_point():
    rng = new_rng(59)
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3), rng)
    model.layers[0].x_mean = np.array([0.5])
    model.layers[0].w_decay_x[...] = 0.4
    model.layers[0].b_decay_x[...] = 0.2
    model.layers[0].w_decay_h[...] = rng.random((3, 1)) + 0.1
    model.layers[0].b_decay_h[...] = rng.random(3) + 0.1
    sample = make_sample(rng, missing=0.5)
    assert network.gradient_check(model, sample) < 1e-6


def test_gradient_check_fresh_init_passes_threshold():
    rng = new_rng(10)
    for variant in network.VARIANTS:
        model = network.build_model(
            network.ModelSpec(variant, hidden_size=3, window_len=7), rng)
        if variant == "gru-d":
            model.layers[0].x_mean = np.array([0.5])
        sample = make_sample(rng, missing=0.4 if variant == "gru-d" else 0.0)
        assert network.gradient_check(model, sample) < 1e-5


def test_gradient_check_zero_gru():
    model = zero_model("gru", hidden_size=3)
    sample = make_sample(new_rng(11))
    assert network.gradient_check(model, sample) < 1e-5


def test_bptt_matches_finite_differences_closely():
    rng = new_rng(12)
    spec = network.ModelSpec("gru", hidden_size=3)
    model = network.build_model(spec, rng)
    sample = make_sample(rng, t_len=4)
    y_hat, trace = network.forward(model, sample)
    grads = model.unflatten(network.backward(model, trace, sample.y))
    eps = 1e-5
    for name, tensor in model.named_tensors().items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            lp = network.loss_mse(network.forward(model, sample)[0], sample.y)
            tensor[idx] = orig - eps
            lm = network.loss_mse(network.forward(model, sample)[0], sample.y)
            tensor[idx] = orig
            num = (lp - lm) / (2 * eps)
            a = grads[name][idx]
            assert abs(a - num) / max(abs(a), abs(num), 1e-8) < 1e-6


def per_step_input_grad(kind, layer, da):
    """A step's input grad from its gate grads [G, H], summed as one step
    would: 0.0 + f + i + o + g for the LSTM, (c + r) + z otherwise."""
    if kind == "lstm":
        return (0.0 + layer.w_f.T @ da[0] + layer.w_i.T @ da[1]
                + layer.w_o.T @ da[2] + layer.w_g.T @ da[3])
    return layer.w_c.T @ da[2] + layer.w_r.T @ da[0] + layer.w_z.T @ da[1]


def per_step_reference(kind, layer, cache, outs):
    """Each tensor's gradient as a reverse-time `+=` of per-step
    `np.outer(factor, operand)` terms on the gate-gradient rows [G, H] the
    step kernels left in their buffer (`outs`, each step's return in time
    order), reading row t of the window's cache [T, ·]: the association the
    window rows must keep."""
    ref = {name: np.zeros_like(t) for name, t in layer.tensors().items()}
    gates = "fiog" if kind == "lstm" else "rzc"
    for t in range(len(outs) - 1, -1, -1):
        c = {k: v[t] for k, v in cache.items()}
        x, h = (c["x_hat"], c["h_hat"]) if kind == "gru-d" else (c["x"], c["h_prev"])
        terms = {}
        for g, f in zip(gates, outs[t][0], strict=True):
            terms[f"w_{g}"] = np.outer(f, x)
            terms[f"u_{g}"] = np.outer(f, c["rz"][0] * h if g == "c" else h)
            terms[f"b_{g}"] = f
        if kind == "gru-d":
            da, _, dh_hat = outs[t]
            dx_hat = per_step_input_grad(kind, layer, da)
            for g, f in zip(gates, da):
                terms[f"v_{g}"] = np.outer(f, c["m"])
            da_h = np.where(c["pre_h"] > 0.0,
                            -c["gamma_h"] * (dh_hat * c["h_prev"]), 0.0)
            dgamma_x = dx_hat * (1.0 - c["m"]) * (c["x_last"] - layer.x_mean)
            da_x = np.where(c["pre_x"] > 0.0, -c["gamma_x"] * dgamma_x, 0.0)
            terms.update(w_decay_h=np.outer(da_h, c["delta"]), b_decay_h=da_h,
                         w_decay_x=da_x * c["delta"], b_decay_x=da_x)
        for name, val in terms.items():
            ref[name] += val
    return ref


@pytest.mark.parametrize("variant,depth", [("gru", 2), ("gru-d", 1),
                                           ("gru-d", 2), ("lstm", 2)])
def test_window_weight_grads_keep_the_per_step_association(variant, depth):
    # H = 5 is not a multiple of 4, where BLAS and numpy reductions reorder
    rng = new_rng(41)
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=5, recurrent_depth=depth), rng,
        x_mean=np.array([0.5]))
    for t in model.named_tensors().values():
        t[...] = rng.standard_normal(t.shape)
    if variant == "gru-d":  # mostly active rectifiers, so decay grads flow
        layer = model.layers[0]
        layer.w_decay_x[...] = np.abs(layer.w_decay_x)
        layer.w_decay_h[...] = np.abs(layer.w_decay_h)
    sample = make_sample(rng, missing=0.5 if variant == "gru-d" else 0.0)

    _, trace = network.forward(model, sample)
    grads = model.unflatten(network.backward(model, trace, sample.y))
    for li, layer in enumerate(model.layers):
        kind = network._layer_kind(model.spec, li)
        plan = trace.layers[li]  # each step kernel's outputs, in its buffers
        ref = per_step_reference(kind, layer, window(trace.caches[li]),
                                 [step_outputs(kind, plan, t)
                                  for t in range(len(sample.x))])
        for name, want in ref.items():
            got = grads[f"layers.{li}.{name}"]
            assert np.array_equal(got, want), f"layers.{li}.{name}"
            assert np.any(got != 0.0), f"layers.{li}.{name} is all zero"


def time_major_backward(model, trace, y):
    """The loss gradient by one time loop over all layers, the top layer
    first at each step, each step the backward written out on its cache row
    (`per_step_gru_backward`, `per_step_lstm_backward`): each layer's
    per-step input grad goes straight to the layer below, and each weight
    grad is a reverse-time sum of per-step outer products
    (`per_step_reference`)."""
    spec, n = model.spec, len(model.layers)
    grad = np.zeros_like(model.theta)
    views = model.unflatten(grad)
    dy = 2.0 * (trace.y_hat[0] - y)
    views["head.w"][...] += dy * trace.h_final[0]
    views["head.b"][...] += dy
    kinds = [network._layer_kind(spec, li) for li in range(n)]
    caches = [window(cache) for cache in trace.caches]
    t_len = len(caches[0]["c"])
    dh = [np.zeros(spec.hidden_size) for _ in range(n)]
    dc = [np.zeros(spec.hidden_size) for _ in range(n)]
    dh[-1] = dy * model.head_w
    outs = [[None] * t_len for _ in range(n)]
    for t in range(t_len - 1, -1, -1):
        dx_above = None
        for li in range(n - 1, -1, -1):
            d_out = dh[li] if dx_above is None else dh[li] + dx_above
            layer = model.layers[li]
            c = {k: v[t] for k, v in caches[li].items()}
            if kinds[li] == "lstm":
                out = per_step_lstm_backward(layer, c, d_out, dc[li])[:3]
                dc[li] = out[2]
            elif kinds[li] == "gru-d":
                da, dh_hat, _ = per_step_gru_backward(layer, c, c["h_hat"],
                                                      d_out)
                out = da, dh_hat * c["gamma_h"], dh_hat
            else:
                out = per_step_gru_backward(layer, c, c["h_prev"], d_out)[:2]
            outs[li][t], dh[li] = out, out[1]
            dx_above = per_step_input_grad(kinds[li], layer, out[0])
    for li, layer in enumerate(model.layers):
        ref = per_step_reference(kinds[li], layer, caches[li], outs[li])
        for name, want in ref.items():
            views[f"layers.{li}.{name}"][...] = want
    return grad


@pytest.mark.parametrize("variant,depth", [("gru", 2), ("gru", 3),
                                           ("gru-d", 2), ("gru-d", 3),
                                           ("lstm", 1), ("lstm", 2),
                                           ("lstm", 3)])
def test_layer_by_layer_backward_equals_the_time_major_loop(variant, depth):
    """`network.backward`, layer by layer with each input gradient formed
    once per window, equals the time-major reference bit for bit, sign bits
    of zeros included (H = 5, gru-d windows with missing entries)."""
    rng = new_rng(47)
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=5, recurrent_depth=depth), rng,
        x_mean=np.array([0.5]))
    for t in model.named_tensors().values():
        t[...] = rng.standard_normal(t.shape)
    for seed in range(3):
        sample = make_sample(new_rng(seed),
                             missing=0.5 if variant == "gru-d" else 0.0)
        _, trace = network.forward(model, sample)
        got = network.backward(model, trace, sample.y)
        want = time_major_backward(model, trace, sample.y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if variant == "gru-d":
            assert np.isnan(sample.x).any()


@pytest.mark.parametrize("variant,depth", [("gru", 1), ("gru-d", 1),
                                           ("gru-d", 2), ("lstm", 2),
                                           ("ffnn", 1)])
def test_batched_rows_equal_the_one_window_forward(variant, depth):
    """Row b of a B-window call is the one-window call on window b, bit for
    bit: predictions, final states and every cached array."""
    rng = new_rng(43)
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=7, recurrent_depth=depth), rng,
        x_mean=np.array([0.45]))
    for t in model.named_tensors().values():
        t[...] = rng.standard_normal(t.shape)
    missing = 0.5 if variant == "gru-d" else 0.0
    samples = [make_sample(rng, missing=missing) for _ in range(13)]
    one = [network.forward(model, s) for s in samples]
    for b_size in (1, 2, 7, 13):
        batch = samples[:b_size]
        preds = network.predict(model, batch)
        plan = network.Plan(model, network.stack_inputs(model, batch))
        assert np.array_equal(preds, plan.run())
        for b, (y_one, trace) in enumerate(one[:b_size]):
            assert preds[b] == y_one
            assert np.array_equal(plan.h_final[b], trace.h_final[0])
            for cache, want in zip(plan.caches, trace.caches):
                assert cache.keys() == want.keys()
                for key, arr in cache.items():
                    assert np.array_equal(arr[b], want[key][0],
                                          equal_nan=True), key


def test_predict_rejects_what_forward_rejects():
    rng = new_rng(44)
    gru = network.build_model(network.ModelSpec("gru", hidden_size=3), rng)
    with pytest.raises(UnimputedValueError):
        network.predict(gru, [make_sample(rng), make_sample(rng, missing=0.9)])
    with pytest.raises(ShapeError):
        network.predict(gru, [make_sample(rng), make_sample(rng, t_len=5)])


def test_layer_inputs_of_the_decay_cell_require_mask_and_intervals():
    rng = new_rng(45)
    grud = network.build_model(network.ModelSpec("gru-d", hidden_size=3), rng,
                               x_mean=np.array([0.5]))
    x = make_sample(rng).x[None]
    with pytest.raises(ShapeError, match="mask m and intervals delta"):
        network.layer_inputs(grud, x)


def test_layer_inputs_name_the_window_shape_they_expect():
    gru = network.build_model(network.ModelSpec("gru", hidden_size=3),
                              new_rng(47))
    x = make_sample(new_rng(48)).x
    for bad in (x, np.concatenate([x, x], axis=1)[None]):  # [T, D]; D = 2
        with pytest.raises(ShapeError, match=r"expects \[B, T, 1\]"):
            network.layer_inputs(gru, bad)


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_predict_rejects_an_empty_batch(variant):
    model = network.build_model(network.ModelSpec(variant, hidden_size=3),
                                new_rng(46), x_mean=np.array([0.5]))
    with pytest.raises(ShapeError, match="empty batch"):
        network.predict(model, [])


# --- the plans a model keeps ---------------------------------------------------

def random_model(variant, seed):
    rng = new_rng(seed)
    model = network.build_model(network.ModelSpec(variant, hidden_size=5),
                                rng, x_mean=np.array([0.45]))
    for t in model.named_tensors().values():
        t[...] = rng.standard_normal(t.shape)
    return model


def windows_for(variant, rng, n):
    missing = 0.5 if variant == "gru-d" else 0.0
    return [make_sample(rng, missing=missing) for _ in range(n)]


@pytest.fixture
def laid_out(monkeypatch):
    """Weak references to every plan laid out while the test runs."""
    plans = []

    class Counted(network.Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(weakref.ref(self))

    monkeypatch.setattr(network, "Plan", Counted)
    return plans


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_a_kept_plan_reads_training_stats_set_after_its_layout(variant):
    """A forward after `set_train_stats` (which rebinds the decay cell's
    mean) runs on the kept plan and equals a fresh model's, bit for bit."""
    model = random_model(variant, 60)
    sample = windows_for(variant, new_rng(61), 1)[0]
    if variant == "gru-d":
        # missing steps read the mean: before any observation, and decayed
        # toward it where the input decay's rectifier is on
        decay = model.layers[0]
        decay.w_decay_x[...] = np.abs(decay.w_decay_x)
        decay.b_decay_x[...] = 0.0
        x = sample.x.copy()
        x[:2] = np.nan
        m = compute_mask(x)
        sample = dataclasses.replace(sample, x=x, m=m,
                                     delta=compute_intervals(sample.s, m))
    before = network.forward(model, sample)[0]
    kept = model._plans[True][0]
    network.set_train_stats(model, TrainStats(mean=np.array([0.9]),
                                              max_interval=np.array([3.0])))
    got, trace = network.forward(model, sample)
    assert trace.plan is kept
    fresh = copy.deepcopy(model)  # rebuilt by the constructor: no plans
    assert not fresh._plans
    assert got == network.forward(fresh, sample)[0]
    assert (got != before) == (variant == "gru-d")


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_forwards_whose_traces_are_dropped_lay_out_one_plan(variant,
                                                            laid_out):
    model = random_model(variant, 62)
    for sample in windows_for(variant, new_rng(63), 6):
        network.forward(model, sample)[0]
    assert len(laid_out) == 1


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_scoring_batches_keeps_at_most_two_plans(variant, laid_out):
    """Batches of 9-15 windows between one-window forwards: each batch shape
    is laid out once, the one-window plan once, and no more than two plans
    stay alive."""
    model = random_model(variant, 64)
    rng = new_rng(65)
    for b in range(9, 16):
        network.predict(model, windows_for(variant, rng, b))
        network.forward(model, windows_for(variant, rng, 1)[0])[0]
    gc.collect()
    assert len(laid_out) == 1 + 7
    assert sum(ref() is not None for ref in laid_out) <= 2


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_predict_on_a_kept_plan_equals_forward_and_returns_a_copy(variant):
    model = random_model(variant, 66)
    rng = new_rng(67)
    first, second = windows_for(variant, rng, 11), windows_for(variant, rng, 11)
    preds = network.predict(model, first)
    kept, want = model._plans[False][0], preds.copy()
    again = network.predict(model, second)
    assert model._plans[False][0] is kept
    assert np.array_equal(preds, want)  # the caller's array, left alone
    for batch, got in ((second, again), (first, network.predict(model, first))):
        for b, sample in enumerate(batch):
            assert got[b] == network.forward(model, sample)[0]


def test_grud_reduction_full_sequence():
    from test_cells import grud_from_gru
    rng = new_rng(13)
    for _ in range(10):
        gru_model = network.build_model(network.ModelSpec("gru", hidden_size=4),
                                        rng)
        grud_model = network.Model(
            spec=network.ModelSpec("gru-d", hidden_size=4),
            layers=[grud_from_gru(gru_model.layers[0], 1, 4,
                                  x_mean=np.array([0.5]))],
            head_w=gru_model.head_w.copy(), head_b=gru_model.head_b.copy())
        sample = make_sample(rng)
        yg, _ = network.forward(gru_model, sample)
        yd, _ = network.forward(grud_model, sample)
        assert yd == pytest.approx(yg, abs=1e-12)


def test_ffnn_uses_configured_hidden_layers():
    model = network.build_model(
        network.ModelSpec("ffnn", hidden_size=5, ffnn_hidden_layers=3,
                          window_len=7), new_rng(14))
    assert len(model.layers) == 3
    assert model.layers[0].w.shape == (5, 7)


def test_persistence_round_trip_bit_exact(tmp_path):
    rng = new_rng(15)
    for variant in network.VARIANTS:
        model = network.build_model(
            network.ModelSpec(variant, hidden_size=4, window_len=7), rng)
        if variant == "gru-d":
            model.layers[0].x_mean = rng.random(1)
        path = tmp_path / f"{variant}.json"
        network.save_model(model, path)
        loaded = network.load_model(path)
        assert loaded.spec == model.spec
        for (na, ta), (nb, tb) in zip(model.named_tensors().items(),
                                      loaded.named_tensors().items()):
            assert na == nb
            assert np.array_equal(ta, tb), f"{variant}.{na} not bit-exact"
        if variant == "gru-d":
            assert np.array_equal(loaded.layers[0].x_mean,
                                  model.layers[0].x_mean)


def test_load_rejects_foreign_document(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ConfigError):
        network.load_model(p)


def _saved_gru(tmp_path):
    model = network.build_model(network.ModelSpec("gru", hidden_size=4),
                                new_rng(20))
    path = tmp_path / "model.json"
    network.save_model(model, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def _drop_tensor(doc):
    del doc["tensors"]["layers.0.u_z"]
    return "missing tensor 'layers.0.u_z'"


def _add_tensor(doc):
    doc["tensors"]["layers.0.v_r"] = {"shape": [4, 1], "data": [0.0] * 4}
    return "unknown tensor 'layers.0.v_r'"


def _shrink_tensor(doc):  # a [1] tensor must not broadcast into [4]
    doc["tensors"]["layers.0.b_r"] = {"shape": [1], "data": [0.25]}
    return "layers.0.b_r has shape [1], the model expects [4]"


def _short_data(doc):
    doc["tensors"]["layers.0.w_c"]["data"].pop()
    return "layers.0.w_c: 3 values do not fill shape [4, 1]"


def _null_weight(doc):  # JSON null used to load as a NaN weight
    doc["tensors"]["layers.0.w_c"]["data"][0] = None
    return "layers.0.w_c holds a non-finite value"


def _nan_x_mean(doc):
    doc["x_mean"] = {"shape": [1], "data": [math.nan]}
    return "x_mean holds a non-finite value"


def _train_stats(mean, max_interval):
    return {"mean": {"shape": [1], "data": [mean]},
            "max_interval": {"shape": [1], "data": [max_interval]}}


def _infinite_stats_mean(doc):
    doc["train_stats"] = _train_stats(math.inf, 3.0)
    return "train_stats.mean holds a non-finite value"


def _negative_max_interval(doc):  # the simple imputer divides by it
    doc["train_stats"] = _train_stats(0.5, -1.0)
    return "train_stats.max_interval must be > 0"


def _float_hidden_size(doc):  # used to end in a numpy TypeError
    doc["spec"]["hidden_size"] = 4.5
    return "bad model spec: hidden_size must be an integer, got 4.5"


def _bool_hidden_size(doc):
    doc["spec"]["hidden_size"] = True
    return "bad model spec: hidden_size must be an integer, got True"


def _float_depth(doc):
    doc["spec"]["recurrent_depth"] = 1.0
    return "bad model spec: recurrent_depth must be an integer, got 1.0"


def _negative_window(doc):  # used to end in a raw ValueError
    doc["spec"].update(variant="ffnn", window_len=-1)
    return "bad model spec: window_len must be >= 1, got -1"


def _stray_x_mean(doc):  # used to load as an attribute of layer 0
    doc["x_mean"] = {"shape": [1], "data": [0.25]}
    return "x_mean is the decay cell's training mean; a gru model has none"


LOAD_EDITS = [_drop_tensor, _add_tensor, _shrink_tensor, _short_data,
              _null_weight, _nan_x_mean, _infinite_stats_mean,
              _negative_max_interval, _float_hidden_size, _bool_hidden_size,
              _float_depth, _negative_window, _stray_x_mean]


@pytest.mark.parametrize("edit", LOAD_EDITS, ids=lambda f: f.__name__.strip("_"))
def test_load_rejects_tensors_that_do_not_fit_the_layout(tmp_path, edit):
    path, doc = _saved_gru(tmp_path)
    message = edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        network.load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("edit", LOAD_EDITS, ids=lambda f: f.__name__.strip("_"))
def test_cli_names_the_file_and_key_of_a_model_that_does_not_load(
        tmp_path, capsys, edit):
    path, doc = _saved_gru(tmp_path)
    message = edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["decay-curve", "--model", str(path),
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "decay_curve.csv").exists()


@pytest.mark.parametrize("variant", ["gru", "lstm", "ffnn"])
def test_load_rejects_x_mean_without_the_decay_cell(tmp_path, variant):
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=3, window_len=7), new_rng(18))
    path = tmp_path / "model.json"
    network.save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["x_mean"] = {"shape": [1], "data": [0.25]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match="x_mean") as exc:
        network.load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_forward_shape_check():
    model = network.build_model(network.ModelSpec("gru", hidden_size=3,
                                                  input_dim=2), new_rng(16))
    with pytest.raises(ShapeError):
        network.forward(model, make_sample(new_rng(17)))


# --- one parameter vector ----------------------------------------------------

def assert_fields_are_views_of_theta(model):
    """The layers' trainable fields in declaration order, then the head, tile
    theta; every named tensor is a view of theta over one span, the spans
    tile theta too, and each per-gate name is a row of its block that writes
    through to theta."""
    saved = model.theta.copy()
    model.theta[...] = np.arange(model.theta.size)  # each entry its index
    fields = [getattr(layer, f.name) for layer in model.layers
              for f in dataclasses.fields(layer)
              if f.metadata.get("trained", True)]
    at = 0
    for t in [*fields, model.head_w, model.head_b]:
        assert np.array_equal(t.reshape(-1), np.arange(at, at + t.size))
        at += t.size
    assert at == model.theta.size
    named = model.named_tensors()
    assert list(named) == [f"layers.{i}.{name}"
                           for i, layer in enumerate(model.layers)
                           for name in layer.tensors()] + ["head.w", "head.b"]
    spans = sorted((int(t.flat[0]), int(t.flat[0]) + t.size)
                   for t in named.values())
    assert [stop for _, stop in spans[:-1]] == [start for start, _ in spans[1:]]
    assert (spans[0][0], spans[-1][1]) == (0, model.theta.size)
    for t in named.values():
        assert np.array_equal(t.reshape(-1), np.arange(t.flat[0],
                                                       t.flat[0] + t.size))
    for i, layer in enumerate(model.layers):
        for name, t in layer.tensors().items():
            key, _, gate = name.partition("_")
            if len(gate) == 1:  # row `gate` of block W, U, b or V
                block = getattr(layer, key if key == "b" else key.upper())
                assert np.shares_memory(t, block)
                assert np.array_equal(t, block[layer.GATES.index(gate)])
            getattr(layer, name)[...] = -1.0  # writes through to theta
            assert np.all(named[f"layers.{i}.{name}"] == -1.0), name
    model.theta[...] = saved


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_trainable_fields_are_views_of_theta(variant, tmp_path):
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=3, recurrent_depth=2,
                          window_len=7), new_rng(18), x_mean=np.array([0.5]))
    assert_fields_are_views_of_theta(model)
    network.save_model(model, tmp_path / "model.json")
    loaded = network.load_model(tmp_path / "model.json")
    assert_fields_are_views_of_theta(loaded)
    assert np.array_equal(loaded.theta, model.theta)
    # a model that keeps a plan and has lent its trace copies and pickles
    # through its constructor, without the plan
    sample = make_sample(new_rng(19), missing=0.3 * (variant == "gru-d"))
    y_hat, trace = network.forward(model, sample)
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert_fields_are_views_of_theta(twin)
        assert not np.shares_memory(twin.theta, model.theta)
        assert np.array_equal(twin.theta, model.theta)
        assert not twin._plans
        assert network.forward(twin, sample)[0] == y_hat


GATED_V1 = ["w_r", "u_r", "b_r", "w_z", "u_z", "b_z", "w_c", "u_c", "b_c"]
MODEL_JSON_V1 = {
    "gru": [f"layers.0.{n}" for n in GATED_V1],
    "gru-d": [f"layers.0.{n}" for n in GATED_V1]
    + ["layers.0.v_r", "layers.0.v_z", "layers.0.v_c", "layers.0.w_decay_x",
       "layers.0.b_decay_x", "layers.0.w_decay_h", "layers.0.b_decay_h"]
    + [f"layers.1.{n}" for n in GATED_V1],
    "lstm": ["layers.0.w_f", "layers.0.u_f", "layers.0.b_f", "layers.0.w_i",
             "layers.0.u_i", "layers.0.b_i", "layers.0.w_o", "layers.0.u_o",
             "layers.0.b_o", "layers.0.w_g", "layers.0.u_g", "layers.0.b_g"],
    "ffnn": ["layers.0.w", "layers.0.b", "layers.1.w", "layers.1.b"],
}


@pytest.mark.parametrize("variant", network.VARIANTS)
def test_model_json_keeps_the_v1_tensor_keys_in_order(variant, tmp_path):
    depth = 2 if variant == "gru-d" else 1
    model = network.build_model(
        network.ModelSpec(variant, hidden_size=3, recurrent_depth=depth),
        new_rng(21), x_mean=np.array([0.5]))
    network.save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert doc["version"] == 1
    assert list(doc["tensors"]) == MODEL_JSON_V1[variant] + ["head.w", "head.b"]


def test_kink_mask_covers_exactly_the_near_kink_decay_elements():
    rng = new_rng(19)
    model = network.build_model(network.ModelSpec("gru-d", hidden_size=3), rng,
                                x_mean=np.array([0.5]))
    p = model.layers[0]
    p.w_decay_x[...] = 0.0  # input decay pre-activation 0: on the kink
    p.b_decay_x[...] = 0.0
    p.w_decay_h[...] = 0.5
    p.b_decay_h[...] = 1.0  # hidden rows 0 and 2 stay far from the kink
    p.w_decay_h[1] = 0.0
    p.b_decay_h[1] = 0.0
    _, trace = network.forward(model, make_sample(rng, missing=0.5))
    mask = network._kink_excluded(model, trace)
    expect = np.zeros(model.theta.size, dtype=bool)
    views = model.unflatten(expect)
    views["layers.0.w_decay_x"][0] = True
    views["layers.0.b_decay_x"][0] = True
    views["layers.0.w_decay_h"][1, :] = True
    views["layers.0.b_decay_h"][1] = True
    assert np.array_equal(mask, expect)
    assert not network._kink_excluded(
        network.build_model(network.ModelSpec("gru", hidden_size=3), rng),
        trace).any()
