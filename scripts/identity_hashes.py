"""Print the seven sha256 hashes of the byte-identity recipe.

A change that claims "same behaviour" must leave these outputs byte-identical:
`results.csv` and `aggregates.csv` of a small benchmark grid (gru-d, gru with
each imputer, depth-2 lstm and ffnn at two missing rates), the
`synthetic.csv` that `synth` writes for that grid's config (its series),
`model.json`, `loss_curves.csv` and `decay_curve.csv` of one gru-d `train`
job, and the stdout of `gradcheck --seed 0 --draws 5`. Every command runs through the CLI
with single-threaded BLAS. The hashes depend on the numpy/BLAS build, so
compare two source trees on one machine rather than against fixed values:

    python3 scripts/identity_hashes.py                  # this checkout's src/
    python3 scripts/identity_hashes.py --src OTHER/src  # another checkout
    python3 scripts/identity_hashes.py --against OTHER/src

With `--against`, the recipe runs on both trees, both hash columns are
printed (`--src` first), and the exit code is 1 if any output differs, with
each differing output named on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_CONFIG = {
    "data": {"synth": {"n_days": 90}},
    "T": 7,
    "models": [{"variant": "gru-d"},
               {"variant": "gru", "imputation": "average"},
               {"variant": "gru", "imputation": "last"},
               {"variant": "gru", "imputation": "simple"},
               {"variant": "lstm", "imputation": "last"},
               {"variant": "ffnn", "imputation": "average"}],
    "missing_rates": [0.5, 0.8],
    "n_seeds": 2,
    "hidden_size": 8,
    "recurrent_depth": 2,
    "train": {"learning_rate": 0.003, "max_epochs": 6, "patience": 3},
}

TRAIN_CONFIG = {
    "data": {"synth": {"n_days": 120}},
    "T": 7,
    "models": [{"variant": "gru-d"}],
    "missing_rates": [0.8],
    "hidden_size": 8,
    "train": {"learning_rate": 0.003, "max_epochs": 8, "patience": 7},
}


def _cli(src: Path, work: Path, *args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "frictioncast.cli", *args],
                          cwd=work, env=env, capture_output=True, check=False)
    if done.returncode != 0:
        sys.exit(f"frictioncast {' '.join(args)} exited {done.returncode}:\n"
                 f"{done.stderr.decode(errors='replace')}")
    return done.stdout


def identity_hashes(src: Path) -> dict[str, str]:
    """The seven output hashes of the recipe run on the package in `src`."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "bench.json").write_text(json.dumps(BENCH_CONFIG))
        (work / "train.json").write_text(json.dumps(TRAIN_CONFIG))
        _cli(src, work, "benchmark", "--config", "bench.json", "--out", "b",
             "--seed", "7")
        _cli(src, work, "synth", "--config", "bench.json", "--out", "s",
             "--seed", "7")
        _cli(src, work, "train", "--config", "train.json", "--out", "t",
             "--seed", "7")
        _cli(src, work, "decay-curve", "--model", "t/model.json", "--out", "t")
        gradcheck = _cli(src, work, "gradcheck", "--seed", "0", "--draws", "5")
        files = ["b/results.csv", "b/aggregates.csv", "s/synthetic.csv",
                 "t/model.json", "t/loss_curves.csv", "t/decay_curve.csv"]
        out = {f: hashlib.sha256((work / f).read_bytes()).hexdigest()
               for f in files}
        out["gradcheck stdout"] = hashlib.sha256(gradcheck).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the frictioncast package")
    parser.add_argument("--against", type=Path, default=None,
                        help="a second package directory to compare with")
    args = parser.parse_args()
    ours = identity_hashes(args.src.resolve())
    if args.against is None:
        for name, digest in ours.items():
            print(f"{digest}  {name}")
        return 0
    theirs = identity_hashes(args.against.resolve())
    print(f"{'--src ' + str(args.src):<64}  --against {args.against}")
    for name, digest in ours.items():
        print(f"{digest}  {theirs[name]}  {name}")
    differ = [name for name, digest in ours.items() if theirs[name] != digest]
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
