"""Per-window training-step timings of two source trees, in one process.

Copies the `frictioncast` package of `--src` (this checkout's `src/` by
default) and of `--against` under two distinct names into a temporary
directory, imports both, and times one training step per window for each
variant at H=8, T=7: `network.forward`, `network.backward` and
`training.adam_step`. The two trees run interleaved, window by window, so
that host drift, which moves separate runs by up to 2x, hits both alike.
Each figure is the fastest of `--repeats` windows, in microseconds; the
ratio is against / src, so above 1 means `--src` is faster.

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
PARTS = ("forward", "backward", "adam", "step")
HIDDEN, T = 8, 7


def load_package(src: Path, name: str, into: Path):
    """The frictioncast package in `src`, imported under `name`."""
    shutil.copytree(src / "frictioncast", into / name)
    return importlib.import_module(name)


def job(pkg, variant: str, depth: int):
    """A model, an Adam state and one window of `pkg`: the gru-d window has
    missing entries, the others are fully observed. Both trees draw the
    same values."""
    rng = np.random.default_rng(0)
    spec = pkg.network.ModelSpec(variant, hidden_size=HIDDEN,
                                 recurrent_depth=depth, window_len=T)
    model = pkg.network.build_model(spec, pkg.linalg.new_rng(0),
                                    x_mean=np.array([0.5]))
    s = np.cumsum(rng.uniform(0.5, 2.0, T)) - 0.5
    s -= s[0]
    x = rng.uniform(0.2, 0.8, (T, 1))
    m = np.ones((T, 1))
    if variant == "gru-d":
        m[rng.random((T, 1)) < 0.5] = 0.0
        x[m == 0.0] = np.nan
    sample = pkg.timeseries.TimeSeriesSample(
        x=x, s=s, m=m, delta=pkg.missingness.compute_intervals(s, m), y=0.4)
    config = pkg.training.TrainConfig(learning_rate=1e-3)
    return model, pkg.training.AdamState.for_model(model), sample, config


def one_step(pkg, model, state, sample, config) -> list[float]:
    """Seconds of forward, backward and Adam for one window, and their sum."""
    clock = time.perf_counter
    t0 = clock()
    _, trace = pkg.network.forward(model, sample)
    t1 = clock()
    grad = pkg.network.backward(model, trace, sample.y)
    t2 = clock()
    pkg.training.adam_step(model.theta, grad, state, config)
    t3 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t3 - t0]


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
            best = {k: [np.inf] * len(PARTS) for k in sides}
            for rep in range(args.repeats):
                order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
                for k in order:
                    took = one_step(sides[k], *jobs[k])
                    best[k] = [min(a, b) for a, b in zip(best[k], took)]
            label = variant if depth == 1 else f"{variant}x{depth}"
            for i, part in enumerate(PARTS):
                a, b = best["against"][i] * 1e6, best["src"][i] * 1e6
                print(f"{label:<10}{part:<10}{a:>12.1f}{b:>10.1f}"
                      f"{a / b:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
