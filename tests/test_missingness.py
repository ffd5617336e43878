import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frictioncast import missingness as mi
from frictioncast.errors import DataError

# 8-step fixture: observations at steps 1,2,5,6,8
FIX_X = np.array([0.8, 0.7, np.nan, np.nan, 0.6, 0.5, np.nan, 0.4])[:, None]
FIX_S = np.array([0.0, 2.0, 5.0, 6.0, 10.0, 12.0, 13.0, 18.0])
FIX_M = np.array([1.0, 1, 0, 0, 1, 1, 0, 1])[:, None]
FIX_DELTA = np.array([0.0, 2, 3, 4, 8, 2, 1, 6])[:, None]
FIX_STATS = mi.TrainStats(mean=np.array([0.6]), max_interval=np.array([8.0]))


def fixture_view():
    return mi.MaskedView(x=FIX_X, m=FIX_M, s=FIX_S,
                         delta=mi.compute_intervals(FIX_S, FIX_M))


def test_compute_mask():
    assert np.array_equal(mi.compute_mask(FIX_X), FIX_M)
    assert np.all(mi.compute_mask(np.ones((4, 1))) == 1.0)


def test_intervals_fixture():
    assert np.array_equal(mi.compute_intervals(FIX_S, FIX_M), FIX_DELTA)


def test_intervals_unit_spacing_all_observed():
    delta = mi.compute_intervals(np.arange(6.0), np.ones((6, 1)))
    assert np.array_equal(delta[:, 0], [0, 1, 1, 1, 1, 1])


def test_intervals_rejects_nonincreasing_timestamps():
    with pytest.raises(DataError):
        mi.compute_intervals(np.array([0.0, 1.0, 1.0]), np.ones((3, 1)))


def last_observation_oracle(s, m):
    """Distance to the latest observed index before t (or the origin)."""
    t_len = len(s)
    delta = np.zeros(t_len)
    for t in range(1, t_len):
        t_star = 0
        for k in range(t - 1, -1, -1):
            if m[k] == 1:
                t_star = k
                break
        delta[t] = s[t] - s[t_star]
    return delta


def irregular_timestamps(gaps):
    return np.concatenate([[0.0], np.cumsum(gaps)])


def draw_mask(data, t_len, d):
    """A [T, D] mask: random, or (one draw in four each) every entry missing
    or every entry observed."""
    kind = data.draw(st.integers(0, 3))
    if kind < 2:
        return np.full((t_len, d), float(kind))
    cells = data.draw(st.lists(st.integers(0, 1), min_size=t_len * d,
                               max_size=t_len * d))
    return np.array(cells, dtype=float).reshape(t_len, d)


@settings(max_examples=300)
@given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=20),
       st.integers(1, 3), st.data())
def test_intervals_match_last_observation_oracle(gaps, d, data):
    s = irregular_timestamps(gaps)
    m = draw_mask(data, len(s), d)
    got = mi.compute_intervals(s, m)
    for j in range(d):
        assert np.allclose(got[:, j], last_observation_oracle(s, m[:, j]),
                           atol=1e-9)
    if not m.any():  # nothing observed: the time since the window's start
        assert np.allclose(got, (s - s[0])[:, None], atol=1e-9)
    if m.all():  # fully observed: each gap on its own, exactly
        assert np.array_equal(got[1:], np.repeat(np.diff(s)[:, None], d, 1))
    # the carried sum rounds as the step-by-step recurrence does
    want = np.zeros_like(got)
    for t in range(1, len(s)):
        want[t] = s[t] - s[t - 1] + np.where(m[t - 1] == 0.0, want[t - 1], 0.0)
    assert np.array_equal(got, want)


def test_intervals_fully_observed_window():
    s = np.array([0.0, 1.0, 3.5, 4.0])
    got = mi.compute_intervals(s, np.ones((4, 2)))
    assert np.array_equal(got, [[0.0, 0.0], [1.0, 1.0], [2.5, 2.5], [0.5, 0.5]])


def test_empirical_mean():
    stats = mi.empirical_mean([fixture_view()])
    assert stats.mean[0] == pytest.approx(0.6)
    assert stats.max_interval[0] == pytest.approx(8.0)


def test_empirical_mean_constant_and_full():
    x = np.full((5, 1), 0.3)
    view = mi.MaskedView(x=x, m=np.ones((5, 1)), s=np.arange(5.0),
                         delta=mi.compute_intervals(np.arange(5.0), np.ones((5, 1))))
    stats = mi.empirical_mean([view])
    assert stats.mean[0] == 0.3


def test_empirical_mean_requires_observations():
    x = np.full((3, 1), np.nan)
    view = mi.MaskedView(x=x, m=np.zeros((3, 1)), s=np.arange(3.0),
                         delta=np.zeros((3, 1)))
    with pytest.raises(DataError):
        mi.empirical_mean([view])


def test_impute_average_fixture():
    out = mi.impute_average(fixture_view(), FIX_STATS)
    assert np.allclose(out[:, 0], [0.8, 0.7, 0.6, 0.6, 0.6, 0.5, 0.6, 0.4])


def test_impute_last_fixture():
    out = mi.impute_last(fixture_view(), FIX_STATS)
    assert np.allclose(out[:, 0], [0.8, 0.7, 0.7, 0.7, 0.6, 0.5, 0.5, 0.4])


def test_impute_last_leading_missing_falls_back_to_mean():
    x = np.array([np.nan, 0.9])[:, None]
    m = mi.compute_mask(x)
    view = mi.MaskedView(x=x, m=m, s=np.array([0.0, 1.0]),
                         delta=mi.compute_intervals(np.array([0.0, 1.0]), m))
    out = mi.impute_last(view, FIX_STATS)
    avg = mi.impute_average(view, FIX_STATS)
    assert out[0, 0] == avg[0, 0] == 0.6


def test_impute_simple_fixture():
    out = mi.impute_simple(fixture_view(), FIX_STATS)
    # delta/max: 3/8, 4/8, 1/8 blend the last observation with the mean
    assert out[2, 0] == pytest.approx(0.375 * 0.7 + 0.625 * 0.6)
    assert out[3, 0] == pytest.approx(0.5 * 0.7 + 0.5 * 0.6)
    assert out[6, 0] == pytest.approx(0.125 * 0.5 + 0.875 * 0.6)


def test_impute_simple_clamps_at_max_interval():
    x = np.array([0.7, np.nan])[:, None]
    s = np.array([0.0, 20.0])
    m = mi.compute_mask(x)
    view = mi.MaskedView(x=x, m=m, s=s, delta=mi.compute_intervals(s, m))
    stats = mi.TrainStats(mean=np.array([0.6]), max_interval=np.array([8.0]))
    out = mi.impute_simple(view, stats)
    assert out[1, 0] == pytest.approx(0.7)  # delta >= max -> pure last value


@pytest.mark.parametrize("impute", [mi.impute_average, mi.impute_last,
                                    mi.impute_simple])
def test_imputers_identity_on_fully_observed(impute):
    x = np.linspace(0.2, 0.9, 6)[:, None]
    s = np.arange(6.0)
    m = np.ones((6, 1))
    view = mi.MaskedView(x=x, m=m, s=s, delta=mi.compute_intervals(s, m))
    assert np.array_equal(impute(view, FIX_STATS), x)


@pytest.mark.parametrize("impute", [mi.impute_average, mi.impute_last,
                                    mi.impute_simple])
def test_imputers_never_touch_observed_slots(impute):
    rng = np.random.default_rng(9)
    for _ in range(50):
        t_len = 10
        x = rng.random((t_len, 1))
        m = (rng.random((t_len, 1)) > 0.5).astype(float)
        x = np.where(m > 0.5, x, np.nan)
        s = np.cumsum(rng.random(t_len) + 0.1)
        s -= s[0]
        view = mi.MaskedView(x=x, m=m, s=s, delta=mi.compute_intervals(s, m))
        out = impute(view, FIX_STATS)
        obs = m > 0.5
        assert np.array_equal(out[obs], x[obs])
        assert not np.any(np.isnan(out))


def test_impute_simple_stays_between_anchors():
    rng = np.random.default_rng(10)
    stats = mi.TrainStats(mean=np.array([0.55]), max_interval=np.array([5.0]))
    for _ in range(50):
        t_len = 8
        x = rng.random((t_len, 1))
        m = (rng.random((t_len, 1)) > 0.6).astype(float)
        m[0] = 1.0  # keep a defined last observation
        x = np.where(m > 0.5, x, np.nan)
        s = np.cumsum(rng.random(t_len) + 0.1)
        s -= s[0]
        view = mi.MaskedView(x=x, m=m, s=s, delta=mi.compute_intervals(s, m))
        out = mi.impute_simple(view, stats)
        last = mi.last_observed(view.x, view.m, stats.mean)
        for t in range(t_len):
            if m[t, 0] == 0:
                lo = min(last[t, 0], stats.mean[0])
                hi = max(last[t, 0], stats.mean[0])
                assert lo - 1e-12 <= out[t, 0] <= hi + 1e-12


def last_observed_oracle(x, m, mean):
    """The step-by-step carry over one window [T, D]."""
    out, last = np.empty_like(x), mean.copy()
    for t in range(x.shape[0]):
        out[t] = last
        last = np.where(m[t] > 0.5, x[t], last)
    return out


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 3), st.data())
def test_last_observed_over_a_batch_matches_the_carry(b, t_len, d, data):
    masks = [draw_mask(data, t_len, d) for _ in range(b)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = np.array(masks)
    x = np.where(m > 0.5, rng.standard_normal(m.shape), np.nan)
    mean = rng.standard_normal(d)
    got = mi.last_observed(x, m, mean)
    for k in range(b):
        want = last_observed_oracle(x[k], m[k], mean)
        assert np.array_equal(got[k], want)
        assert np.array_equal(mi.last_observed(x[k], m[k], mean), want)


@settings(max_examples=200)
@given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=15),
       st.integers(1, 3), st.data())
def test_imputers_on_irregular_windows(gaps, d, data):
    # observed entries stay as they are; every missing one is filled with a
    # finite value, also when nothing in the window is observed
    s = irregular_timestamps(gaps)
    m = draw_mask(data, len(s), d)
    values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m.size,
                                max_size=m.size))
    x = np.where(m > 0.5, np.array(values).reshape(m.shape), np.nan)
    view = mi.MaskedView(x=x, m=m, s=s, delta=mi.compute_intervals(s, m))
    stats = mi.TrainStats(
        mean=np.array(data.draw(st.lists(st.floats(-10.0, 10.0),
                                         min_size=d, max_size=d))),
        max_interval=np.array(data.draw(st.lists(st.floats(0.1, 50.0),
                                                 min_size=d, max_size=d))))
    obs = m > 0.5
    for impute in (mi.impute_average, mi.impute_last, mi.impute_simple):
        out = impute(view, stats)
        assert out.shape == x.shape
        assert np.array_equal(out[obs], x[obs])
        assert np.all(np.isfinite(out))
