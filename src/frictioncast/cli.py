"""Command-line entry point for the experiment harness.

Subcommands: synth, train, benchmark, sweep, decay-curve, gradcheck.
All outputs land in the --out directory, beside a run_manifest.json naming
the command and its inputs: the resolved configuration of a grid command,
the model path and --delta-max of decay-curve. gradcheck only prints.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import experiments, network, timeseries
from .errors import ConfigError, FrictionCastError, read_json_object
from .linalg import new_rng


def _load_config(args) -> experiments.ExperimentConfig:
    if not args.config:
        return experiments.config_from_json({}, seed=args.seed)
    doc = read_json_object(args.config, "config")
    try:
        return experiments.config_from_json(doc, seed=args.seed)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        raise ConfigError(f"{out}: cannot use as output directory: "
                          f"{exc.strerror}") from exc
    return out


def _int_from(low: int):
    """An argparse type: an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=_int_from(0), help="master seed")


def cmd_synth(args) -> int:
    config = _load_config(args)
    if config.csv_path is not None:
        raise ConfigError(f"{args.config}: synth needs data.synth, not data.csv")
    out = _out_dir(args)
    series = [experiments.synth_series(config, i)
              for i in range(config.n_seeds)]
    path = out / "synthetic.csv"
    experiments.write_series_csv(series, path)
    experiments.write_manifest(out / "run_manifest.json", "synth",
                               config=experiments.config_to_json(config))
    print(f"wrote {path} ({sum(len(s.values) for s in series)} rows)")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    series = experiments.csv_series(config)
    if series is not None and len(series) > 1:
        raise ConfigError(f"{config.csv_path}: train fits one segment, the file "
                          f"has {len(series)} segments; benchmark averages "
                          f"over them")
    out = _out_dir(args)
    entry = config.models[0]
    rate = config.missing_rates[0]
    row, report, model = experiments.run_single(config, entry, rate, seed=0,
                                                series=series)
    experiments.write_results_csv(experiments.ResultsTable([row]),
                                  out / "results.csv")
    experiments.export_loss_curves([(entry.label, report)],
                                   out / "loss_curves.csv")
    network.save_model(model, out / "model.json")
    experiments.write_manifest(out / "run_manifest.json", "train",
                               config=experiments.config_to_json(config))
    print(f"{entry.label} rate={rate}: mae={row.mae:.4f} mse={row.mse:.5f} "
          f"mape={row.mape_percent:.2f}% (best epoch {row.best_epoch})")
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    table = experiments.run_benchmark(config, threads=args.threads)
    experiments.write_results_csv(table, out / "results.csv")
    experiments.write_aggregates_csv(table, out / "aggregates.csv")
    experiments.write_manifest(out / "run_manifest.json", "benchmark",
                               config=experiments.config_to_json(config))
    for agg in table.aggregates():
        label = agg["model"] if agg["imputation"] == "none" \
            else f"{agg['model']}+{agg['imputation']}"
        print(f"{label} rate={agg['missing_rate']}: "
              f"mae={agg['mae_mean']:.4f}±{agg['mae_se']:.4f} "
              f"mape={agg['mape_mean']:.2f}%")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    table = experiments.sweep_missing_rates(config, threads=args.threads)
    experiments.write_results_csv(table, out / "results.csv")
    experiments.write_aggregates_csv(table, out / "sweep_aggregates.csv")
    experiments.write_manifest(out / "run_manifest.json", "sweep",
                               config=experiments.config_to_json(config))
    print(f"swept rates {list(config.missing_rates)} over "
          f"{config.n_seeds} seeds -> {out / 'sweep_aggregates.csv'}")
    return 0


def cmd_decay_curve(args) -> int:
    model = network.load_model(args.model)
    out = _out_dir(args)
    curve = experiments.export_decay_curve(model, delta_max=args.delta_max)
    path = out / "decay_curve.csv"
    experiments.write_decay_curve_csv(curve, path)
    experiments.write_manifest(out / "run_manifest.json", "decay-curve",
                               model=args.model, delta_max=args.delta_max)
    print(f"wrote {path} ({len(curve)} points)")
    return 0


def cmd_gradcheck(args) -> int:
    rng = new_rng(args.seed)
    worst = {}
    for variant in network.VARIANTS:
        spec = network.ModelSpec(variant=variant, input_dim=1, hidden_size=4,
                                 recurrent_depth=2 if variant == "lstm" else 1,
                                 window_len=7)
        errs = []
        for _ in range(args.draws):
            model = network.build_model(spec, rng)
            if variant == "gru-d":
                model.layers[0].x_mean = rng.random(1)
                model.layers[0].w_decay_x[...] = rng.standard_normal(1) * 0.5
                model.layers[0].b_decay_x[...] = rng.standard_normal(1) * 0.5
                model.layers[0].w_decay_h[...] = rng.standard_normal((4, 1)) * 0.5
                model.layers[0].b_decay_h[...] = rng.standard_normal(4) * 0.5
            sample = _random_sample(rng, t_len=7,
                                    with_missing=(variant == "gru-d"))
            errs.append(network.gradient_check(model, sample))
        worst[variant] = max(errs)
        print(f"{variant}: max relative error {worst[variant]:.3e} "
              f"over {args.draws} draws")
    threshold = 1e-5
    ok = all(v < threshold for v in worst.values())
    print("gradcheck " + ("PASS" if ok else "FAIL")
          + f" (threshold {threshold:g})")
    return 0 if ok else 1


def _random_sample(rng, t_len: int, with_missing: bool) -> timeseries.TimeSeriesSample:
    import numpy as np
    from . import missingness
    s = np.cumsum(rng.random(t_len) * 2.0 + 0.5)
    s -= s[0]
    x = rng.random((t_len, 1))
    m = np.ones((t_len, 1))
    if with_missing:
        m = (rng.random((t_len, 1)) > 0.4).astype(float)
        x = np.where(m > 0.5, x, np.nan)
    delta = missingness.compute_intervals(s, m)
    return timeseries.TimeSeriesSample(x=x, s=s, m=m, delta=delta,
                                       y=float(rng.random()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frictioncast",
        description="Time-aware recurrent forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
            ("synth", cmd_synth, "emit a synthetic friction CSV"),
            ("train", cmd_train, "train a single configuration"),
            ("benchmark", cmd_benchmark, "run the model x imputation grid"),
            ("sweep", cmd_sweep, "missing-rate sweep")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("benchmark", "sweep"):  # the only grid-running commands
            p.add_argument("--threads", type=_int_from(1), default=1,
                           help="parallel jobs")
        p.set_defaults(func=func)

    p = sub.add_parser("decay-curve", help="export the learned input decay")
    p.add_argument("--model", required=True, help="trained model.json")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--delta-max", type=_finite_float, default=35.0)
    p.set_defaults(func=cmd_decay_curve)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--draws", type=_int_from(1), default=5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrictionCastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
