"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from `--seed`, then runs whole rounds of it,
checking each round's outputs, until `--seconds` have passed. Progress goes
to stderr; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json; with `--trace 1` rounds alternate between
untraced and traced, and the metrics are the per-layer ones.

Every round runs the same timed units (a grid job, a `train` command, a
scored forecast segment), each well under a second.
`samples_per_s` takes each unit's fastest repeat over the run's untraced
rounds: the host this was built on runs the same code up to twice as slowly
in phases of milliseconds to minutes, and the fastest repeat of short units
stays steady where a median over whole rounds does not (see README.md).

The package is imported from `src/` next to this directory, never from an
installed copy; without it the run exits with a non-zero code and prints
no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"


def since_process_start() -> float:
    """Seconds since this process was created (kernel start time, 10 ms
    resolution), so interpreter start-up and imports are counted."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import frictioncast
    except ImportError as exc:
        sys.exit(f"bench: cannot import frictioncast from {ROOT / 'src'}: "
                 f"{exc}")
    if not Path(frictioncast.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: frictioncast was imported from "
                 f"{frictioncast.__file__}, not from {ROOT / 'src'}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        size=None, runs_dir: Path = RUNS, log=sys.stderr) -> dict:
    """Set up and measure one workload; returns the result object."""
    import workloads
    if trace:
        import tracing

    cls, default_size = workloads.WORKLOADS[workload]
    run_dir = runs_dir / f"{workload}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = cls(seed, run_dir, size or default_size())
    setup_s = since_process_start()

    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    unit_times: dict[str, list[float]] = {}  # untraced, fault-free rounds
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        with tracing.patched(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            rnd = bench.run_round()
            wall = time.perf_counter() - t0
        try:
            bench.check(rnd)
        except workloads.CheckFailed as exc:
            print(f"FAILED {exc}", file=log)
            correct = False
        walls[traced].append(wall)
        attempted += rnd.attempted
        failed += rnd.failed
        if not traced and not rnd.failed:
            for unit, t in rnd.units.items():
                unit_times.setdefault(unit, []).append(t)
        print(f"{workload} round {len(walls[False]) + len(walls[True])}"
              f"{' traced' if traced else ''}: {wall:.2f} s, "
              f"{rnd.attempted - rnd.failed}/{rnd.attempted} operations, "
              f"{rnd.samples} samples", file=log)
        done = time.perf_counter() - start >= seconds
        if not correct or (done and (not trace or walls[True])):
            break

    if not correct:
        metrics = {}
    elif trace:
        rounds = len(walls[True])
        metrics = tracing.layer_metrics(tracer, rounds)
        untraced = statistics.median(walls[False])
        metrics["trace.wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - untraced, "s")
        shares = tracing.layer_shares(tracer, sum(walls[True]))
        print("self-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(),
                                              key=lambda kv: -kv[1])),
              file=log)
        (run_dir / "trace.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "traced_rounds": rounds,
            "round_wall_s": {"untraced": walls[False],
                             "traced": walls[True]},
            "layer_shares": shares,
            "spans": {n: vars(s) for n, s in sorted(tracer.spans.items())},
            "counts": dict(sorted(tracer.counts.items())),
        }, indent=1))
    else:
        (run_dir / "units.json").write_text(json.dumps(unit_times, indent=1))
        fastest = {unit: min(ts) for unit, ts in unit_times.items()}
        metrics = {
            "samples_per_s": (bench.rate(fastest), "samples/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "variants", "forecast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One worker: a BLAS or OpenMP pool on a small shared machine would
    # measure the scheduler. Set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
