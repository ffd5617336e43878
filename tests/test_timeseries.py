import numpy as np
import pytest

from frictioncast import timeseries as ts
from frictioncast.errors import ConfigError, DataError


def make_series(length, seed=0):
    rng = np.random.default_rng(seed)
    return ts.SegmentSeries(segment_id="s", values=rng.random(length) * 0.5 + 0.3,
                            timestamps=np.arange(length, dtype=float))


# --- CSV ingestion -----------------------------------------------------------

def write_csv(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_ingest_basic(tmp_path):
    p = write_csv(tmp_path, "segment_id,day_index,friction\na,0,0.8\na,1,0.7\na,2,0.6\n")
    out = ts.ingest_csv(p)
    assert list(out) == ["a"]
    assert np.allclose(out["a"].values, [0.8, 0.7, 0.6])


def test_ingest_sorts_rows(tmp_path):
    p = write_csv(tmp_path, "segment_id,day_index,friction\na,2,0.6\na,0,0.8\na,1,0.7\n")
    out = ts.ingest_csv(p)
    assert np.allclose(out["a"].values, [0.8, 0.7, 0.6])
    assert np.allclose(out["a"].timestamps, [0, 1, 2])


def test_ingest_rejects_duplicate_with_line_number(tmp_path):
    p = write_csv(tmp_path, "segment_id,day_index,friction\na,0,0.8\na,0,0.7\n")
    with pytest.raises(DataError, match=":3:"):
        ts.ingest_csv(p)


def test_ingest_rejects_non_numeric_with_line_number(tmp_path):
    p = write_csv(tmp_path, "segment_id,day_index,friction\na,0,oops\n")
    with pytest.raises(DataError, match=":2:"):
        ts.ingest_csv(p)


@pytest.mark.parametrize("day,friction", [
    ("0", "nan"), ("0", "inf"), ("0", "-inf"), ("nan", "0.5"), ("inf", "0.5"),
])
def test_ingest_rejects_non_finite_with_line_number(tmp_path, day, friction):
    p = write_csv(tmp_path, "segment_id,day_index,friction\n"
                            f"a,1,0.8\na,{day},{friction}\n")
    with pytest.raises(DataError, match=r"data\.csv:3: non-finite"):
        ts.ingest_csv(p)


def test_ingest_rejects_empty(tmp_path):
    with pytest.raises(DataError):
        ts.ingest_csv(write_csv(tmp_path, ""))
    with pytest.raises(DataError):
        ts.ingest_csv(write_csv(tmp_path, "segment_id,day_index,friction\n"))


def test_ingest_multiple_segments(tmp_path):
    p = write_csv(tmp_path,
                  "segment_id,day_index,friction\na,0,0.8\nb,0,0.5\nb,1,0.4\n")
    out = ts.ingest_csv(p)
    assert set(out) == {"a", "b"}
    assert len(out["b"].values) == 2


# --- windowing ---------------------------------------------------------------

def test_window_count_on_full_season_series():
    assert len(ts.window(make_series(446), 7)) == 439


def test_window_minimal_and_boundary():
    assert len(ts.window(make_series(8), 7)) == 1
    with pytest.raises(DataError, match="too short"):
        ts.window(make_series(7), 7)


def test_window_contents():
    series = make_series(10)
    samples = ts.window(series, 3)
    assert len(samples) == 7
    s0 = samples[2]
    assert np.allclose(s0.x[:, 0], series.values[2:5])
    assert s0.y == series.values[5]
    assert s0.s[0] == 0.0  # rebased
    assert np.all(s0.m == 1.0)
    assert s0.delta[0, 0] == 0.0


def test_window_intervals_equal_the_per_window_recurrence():
    """On irregular days each window's intervals, built from its gaps, are
    what the interval recurrence gives on its rebased timestamps."""
    from frictioncast.missingness import compute_intervals
    rng = np.random.default_rng(3)
    days = np.cumsum(rng.uniform(0.1, 5.0, 40))
    series = ts.SegmentSeries(segment_id="s", values=rng.random(40),
                              timestamps=days)
    samples = ts.window(series, 7)
    assert len(samples) == 33
    for i, w in enumerate(samples):
        assert np.array_equal(w.s, days[i:i + 7] - days[i])
        assert np.array_equal(w.x[:, 0], series.values[i:i + 7])
        assert np.array_equal(w.delta, compute_intervals(w.s, np.ones((7, 1))))
        assert w.m.shape == (7, 1) and np.all(w.m == 1.0)
        assert w.y == series.values[i + 7]


def test_window_count_property():
    for length in (9, 15, 40):
        for t_len in (2, 7):
            if length > t_len:
                assert len(ts.window(make_series(length), t_len)) == length - t_len


# --- splitting ---------------------------------------------------------------

def test_split_sizes_on_full_season_windows():
    samples = ts.window(make_series(446), 7)
    sp = ts.split(samples, seed=1)
    assert (len(sp.train), len(sp.validation), len(sp.test)) == (307, 88, 44)


def test_split_exact_ratio():
    samples = ts.window(make_series(17), 7)
    sp = ts.split(samples, seed=1)
    assert (len(sp.train), len(sp.validation), len(sp.test)) == (7, 2, 1)


def test_split_deterministic_and_partition():
    samples = ts.window(make_series(40), 7)
    a = ts.split(samples, seed=9)
    b = ts.split(samples, seed=9)
    ids = lambda part: [id(s) for s in part]
    assert ids(a.train) == ids(b.train)
    assert ids(a.test) == ids(b.test)
    all_ids = set(ids(a.train) + ids(a.validation) + ids(a.test))
    assert len(all_ids) == len(samples)


def test_split_too_few_samples():
    with pytest.raises(DataError):
        ts.split(ts.window(make_series(9), 7), seed=0)


def test_split_sizes_near_exact_proportions():
    for n in (10, 23, 100, 439):
        samples = ts.window(make_series(n + 7), 7)
        sp = ts.split(samples, seed=0)
        assert abs(len(sp.train) - 0.7 * n) < 1.0
        assert abs(len(sp.validation) - 0.2 * n) < 1.0
        assert abs(len(sp.test) - 0.1 * n) < 1.5  # remainder absorbs both roundings


# --- synthesis ---------------------------------------------------------------

def test_synthesize_constant_case():
    cfg = ts.SynthConfig(n_days=50, winter_depth=0.0, noise_std=0.0,
                         episode_std=0.0)
    series = ts.synthesize(cfg, 0)
    assert np.allclose(series.values, 0.75)


def test_synthesize_seasonal_anchors():
    summer, winter = [], []
    for seed in range(5):
        series = ts.synthesize(ts.SynthConfig(), seed)
        days = series.timestamps
        center = 330.0
        summer.append(series.values[(days > 100) & (days < 250)])
        winter.append(series.values[np.abs(days - center) < 10])
    summer, winter = np.concatenate(summer), np.concatenate(winter)
    assert 0.7 < np.mean(summer) < 0.8
    assert np.mean(winter) < 0.5


def test_synthesize_deterministic_and_clamped():
    cfg = ts.SynthConfig(noise_std=0.3)
    a, b = ts.synthesize(cfg, 4), ts.synthesize(cfg, 4)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 0.05) and np.all(a.values <= 1.0)


def test_synthesize_episodes_are_persistent():
    # multi-day weather spells make consecutive deviations correlated; with
    # the episode component off, only white measurement noise remains
    flat = dict(winter_depth=0.0, n_days=400)
    with_ep = ts.synthesize(ts.SynthConfig(**flat), 2)
    without = ts.synthesize(ts.SynthConfig(episode_std=0.0, **flat), 2)

    def lag1(v):
        d = v - np.mean(v)
        return float(np.dot(d[:-1], d[1:]) / np.dot(d, d))

    assert lag1(with_ep.values) > 0.5
    assert abs(lag1(without.values)) < 0.2


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        ts.SynthConfig(n_days=1)
    with pytest.raises(ConfigError):
        ts.SynthConfig(base_friction=1.5)
    with pytest.raises(ConfigError):
        ts.SynthConfig(noise_std=-0.1)
    with pytest.raises(ConfigError):
        ts.SynthConfig(episode_corr=1.0)
    with pytest.raises(ConfigError):
        ts.SynthConfig(episode_std=-0.1)


# --- missingness injection ---------------------------------------------------

def test_inject_rate_zero_is_identity():
    sample = ts.window(make_series(12), 7)[0]
    assert ts.inject_missing(sample, 0.0, seed=1) is sample


def test_inject_rejects_bad_rate():
    sample = ts.window(make_series(12), 7)[0]
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError):
            ts.inject_missing(sample, rate, seed=1)


def test_inject_empirical_rate():
    samples = ts.window(make_series(1500), 7)
    masked = [ts.inject_missing(s, 0.8, seed=i) for i, s in enumerate(samples)]
    total = sum(s.m.size for s in masked)
    missing = sum(np.sum(s.m == 0.0) for s in masked)
    assert abs(missing / total - 0.8) < 0.02


def test_inject_preserves_observed_values_and_target():
    sample = ts.window(make_series(20), 7)[3]
    out = ts.inject_missing(sample, 0.5, seed=7)
    assert out.y == sample.y
    obs = out.m > 0.5
    assert np.array_equal(out.x[obs], sample.x[obs])
    assert np.all(np.isnan(out.x[~obs]))


def test_inject_recomputes_intervals():
    from frictioncast import missingness
    sample = ts.window(make_series(20), 7)[0]
    out = ts.inject_missing(sample, 0.6, seed=3)
    assert np.array_equal(out.delta, missingness.compute_intervals(out.s, out.m))


def test_inject_deterministic():
    sample = ts.window(make_series(20), 7)[0]
    a = ts.inject_missing(sample, 0.5, seed=5)
    b = ts.inject_missing(sample, 0.5, seed=5)
    assert np.array_equal(a.m, b.m)


@pytest.mark.parametrize("rate", [0.2, 0.5, 0.8])
def test_mask_windows_equals_the_per_window_loop(rate):
    """A split masked in one pass equals masking it window by window, bit for
    bit: each window's mask drawn from its own seed, its intervals from its
    own recurrence on timestamps with uneven gaps."""
    from frictioncast import missingness
    from frictioncast.linalg import new_rng
    rng = np.random.default_rng(4)
    days = np.cumsum(rng.uniform(0.3, 2.7, 60))
    series = ts.SegmentSeries("s", rng.random(60), days)
    samples = ts.window(series, 9)
    seeds = [int(v) for v in rng.integers(0, 2**32, len(samples))]
    got = ts.mask_windows(samples, rate, seeds)
    for sample, seed, out in zip(samples, seeds, got, strict=True):
        drop = new_rng(seed).random(sample.x.shape) < rate
        x = np.where(drop, np.nan, sample.x)
        m = missingness.compute_mask(x)
        want = {"x": x, "m": m,
                "delta": missingness.compute_intervals(sample.s, m)}
        one = ts.inject_missing(sample, rate, seed)
        for key, value in want.items():
            assert np.array_equal(getattr(out, key), value, equal_nan=True)
            assert np.array_equal(getattr(one, key), value, equal_nan=True)
        assert out.s is sample.s and out.y == sample.y
    assert any(np.any(out.m == 0.0) for out in got)


def test_mask_windows_names_a_window_with_missing_entries():
    samples = ts.window(make_series(20), 7)
    samples[2] = ts.inject_missing(samples[2], 0.8, seed=3)
    with pytest.raises(DataError, match="mask_windows .* window 2 has"):
        ts.mask_windows(samples, 0.5, list(range(len(samples))))
