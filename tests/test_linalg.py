import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frictioncast import linalg


def test_sigmoid_values():
    assert linalg.sigmoid(np.array([0.0]))[0] == 0.5
    assert linalg.sigmoid(np.array([math.log(3)]))[0] == pytest.approx(0.75)


def test_sigmoid_large_inputs_stay_in_open_range():
    # float64 rounds to exactly 0/1 past |v| ~ 36.7; check up to that edge
    out = linalg.sigmoid(np.array([-36.0, -20.0, 20.0, 36.0]))
    assert np.all(out > 0) and np.all(out < 1)


def test_sigmoid_huge_inputs_do_not_overflow():
    out = linalg.sigmoid(np.array([-1e4, 1e4]))
    assert np.all(np.isfinite(out))


@given(st.floats(-30, 30))
def test_sigmoid_symmetry(x):
    v = np.array([x])
    assert linalg.sigmoid(-v)[0] == pytest.approx(1 - linalg.sigmoid(v)[0], abs=1e-12)


def split_sigmoid(v):
    """The sign-split form: 1/(1+e^-v) for v >= 0, e^v/(1+e^v) below."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def test_sigmoid_equals_the_split_form_bit_for_bit():
    rng = np.random.default_rng(4)
    mags = 10.0 ** rng.uniform(-8, math.log10(800), 200_000)
    v = np.concatenate([np.where(rng.random(mags.size) < 0.5, -mags, mags),
                        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0,
                         -746.0, 36.7, -36.7, np.nan]])
    assert np.array_equal(linalg.sigmoid(v), split_sigmoid(v), equal_nan=True)
    assert np.array_equal(np.signbit(linalg.sigmoid(v[:-1])),
                          np.signbit(split_sigmoid(v[:-1])))
    # in place, as the gated cells call it
    w = v.copy()
    assert linalg.sigmoid(w, w) is w
    assert np.array_equal(w, split_sigmoid(v), equal_nan=True)


def test_rng_streams_bit_reproducible():
    assert np.array_equal(linalg.new_rng(123).random(32),
                          linalg.new_rng(123).random(32))
