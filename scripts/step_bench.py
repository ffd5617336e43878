"""Per-window training-step timings of two source trees, in one process.

Copies the `frictioncast` package of `--src` (this checkout's `src/` by
default) and of `--against` under two distinct names into a temporary
directory, imports both, and times each variant at H=8, T=7:
- one-off calls on one window, as the forecast and the gradient check make
  them: `network.forward`, `network.backward` and `training.adam_step`, and
  their sum (`step`); one-off calls run on the plans the model keeps, so
  a repeated call reuses the one-window plan and its backward layout;
- `predict`: a one-off `network.predict` of a 13-window batch, which
  reuses the model's kept batch plan;
- `train`: one fixed short `training.train` call (3 epochs on the 23
  training windows of a 40-day series, half their entries missing), per
  training window; it lays out its step once per call.
The two trees run interleaved, window by window and call by call, so that
host drift, which moves separate runs by up to 2x, hits both alike. Each
figure is the fastest of `--repeats` windows (of a tenth as many `train`
calls), in microseconds; the ratio is against / src, so above 1 means
`--src` is faster.

    python3 scripts/step_bench.py --against OTHER/src [--repeats 300]

BLAS runs single-threaded, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# (variant, recurrent depth); ffnn has two dense layers
VARIANTS = [("gru", 1), ("gru", 2), ("gru-d", 1), ("gru-d", 2), ("lstm", 2),
            ("ffnn", 1)]
PARTS = ("forward", "backward", "adam", "step", "predict")
HIDDEN, T = 8, 7
BATCH = 13  # windows of the one-off predict
TRAIN_DAYS, TRAIN_EPOCHS = 40, 3


def load_package(src: Path, name: str, into: Path):
    """The frictioncast package in `src`, imported under `name`."""
    shutil.copytree(src / "frictioncast", into / name)
    return importlib.import_module(name)


def job(pkg, variant: str, depth: int):
    """A model, an Adam state and `BATCH` windows of `pkg`: the gru-d
    windows have missing entries, the others are fully observed. Both trees
    draw the same values."""
    rng = np.random.default_rng(0)
    spec = pkg.network.ModelSpec(variant, hidden_size=HIDDEN,
                                 recurrent_depth=depth, window_len=T)
    model = pkg.network.build_model(spec, pkg.linalg.new_rng(0),
                                    x_mean=np.array([0.5]))
    samples = []
    for _ in range(BATCH):
        s = np.cumsum(rng.uniform(0.5, 2.0, T)) - 0.5
        s -= s[0]
        x = rng.uniform(0.2, 0.8, (T, 1))
        m = np.ones((T, 1))
        if variant == "gru-d":
            m[rng.random((T, 1)) < 0.5] = 0.0
            x[m == 0.0] = np.nan
        samples.append(pkg.timeseries.TimeSeriesSample(
            x=x, s=s, m=m, delta=pkg.missingness.compute_intervals(s, m),
            y=0.4))
    config = pkg.training.TrainConfig(learning_rate=1e-3)
    return model, pkg.training.AdamState.for_model(model), samples, config


def train_job(pkg, variant: str, depth: int):
    """The arguments of one fixed short `training.train` call of `pkg`: a
    40-day synthetic series cut into windows, half their entries missing,
    imputed by carrying the last observation forward for the variants
    other than gru-d. Both trees draw the same values."""
    ts = pkg.timeseries
    windows = ts.window(ts.synthesize(ts.SynthConfig(n_days=TRAIN_DAYS), 0), T)
    windows = [ts.inject_missing(w, 0.5, i) for i, w in enumerate(windows)]
    spec = pkg.network.ModelSpec(variant, hidden_size=HIDDEN,
                                 recurrent_depth=depth, window_len=T)
    config = pkg.training.TrainConfig(learning_rate=1e-3,
                                      max_epochs=TRAIN_EPOCHS,
                                      patience=TRAIN_EPOCHS - 1)
    return (spec, ts.split(windows, 0), None if variant == "gru-d" else "last",
            config)


def one_train(pkg, spec, splits, imputation, config) -> float:
    """Seconds per training window of one `training.train` call."""
    model = pkg.network.build_model(spec, pkg.linalg.new_rng(0))
    t0 = time.perf_counter()
    _, report = pkg.training.train(model, splits, imputation, config, 0)
    return ((time.perf_counter() - t0)
            / (report.epochs_run * len(splits.train)))


def one_step(pkg, model, state, samples, config) -> list[float]:
    """Seconds of forward, backward and Adam for the first window, their
    sum, and the seconds of a predict of all the windows."""
    clock = time.perf_counter
    sample = samples[0]
    t0 = clock()
    _, trace = pkg.network.forward(model, sample)
    t1 = clock()
    grad = pkg.network.backward(model, trace, sample.y)
    t2 = clock()
    pkg.training.adam_step(model.theta, grad, state, config)
    t3 = clock()
    pkg.network.predict(model, samples)
    t4 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t3 - t0, t4 - t3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the frictioncast package")
    parser.add_argument("--against", type=Path, required=True,
                        help="a second package directory to compare with")
    parser.add_argument("--repeats", type=int, default=300)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"src": load_package(args.src.resolve(), "fc_src", Path(tmp)),
                 "against": load_package(args.against.resolve(), "fc_against",
                                         Path(tmp))}
        print(f"{'variant':<10}{'part':<10}{'against_us':>12}{'src_us':>10}"
              f"{'ratio':>8}")
        for variant, depth in VARIANTS:
            jobs = {k: job(pkg, variant, depth) for k, pkg in sides.items()}
            trains = {k: train_job(pkg, variant, depth)
                      for k, pkg in sides.items()}
            best = {k: [np.inf] * (len(PARTS) + 1) for k in sides}
            for rep in range(args.repeats):
                order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
                for k in order:
                    took = one_step(sides[k], *jobs[k])
                    took.append(one_train(sides[k], *trains[k])
                                if rep % 10 == 0 else np.inf)
                    best[k] = [min(a, b) for a, b in zip(best[k], took)]
            label = variant if depth == 1 else f"{variant}x{depth}"
            for i, part in enumerate((*PARTS, "train")):
                a, b = best["against"][i] * 1e6, best["src"][i] * 1e6
                print(f"{label:<10}{part:<10}{a:>12.1f}{b:>10.1f}"
                      f"{a / b:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
