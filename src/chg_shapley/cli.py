"""Command-line surface: valuation, selection, oracle comparison, and the curves.

Subcommands:
  value    one valuation training run; writes values.csv and run_meta.json
  select   subset-selection training run; writes metrics.csv and selection_history.jsonl
  oracle   closed form vs enumeration and Monte Carlo on random games
  bench    label-noise detection experiment; writes detection.json
  removal  point-removal curves; writes removal.csv

Every subcommand is deterministic given --seed.  Exit codes: 0 success,
1 input error, 2 numeric or audit failure.  A run's config is checked
before any data is built or read, and the output directory is created
only once a run's outputs are computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .experiments import (
    RemovalConfig,
    detection_curve,
    inject_label_noise,
    make_synthetic_dataset,
    point_removal_curve,
)
from .models import Dataset, _write_csv, _write_json, load_dataset_csv
from .selection import (
    SelectionConfig,
    run_selection_training,
    write_metrics_csv,
    write_selection_history_jsonl,
)
from .shapley import (
    chg_closed_form_shapley,
    chg_game,
    exact_shapley,
    permutation_shapley,
)
from .utilities import KINDS
from .valuation import (
    EfficiencyAuditError,
    ValuationConfig,
    epoch_efficiency_audit,
    run_valuation,
    write_run_meta,
    write_values_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

ORACLE_TOLERANCE = 1e-9


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise _UsageError(self, message)


def _add_task_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="CSV dataset (features..., integer label); synthetic if omitted")
    sub.add_argument("--n", type=int, default=1000, help="synthetic dataset size")
    sub.add_argument("--p", type=int, default=20, help="synthetic feature count")
    sub.add_argument("--classes", type=int, default=2, help="synthetic class count")
    sub.add_argument("--separation", type=float, default=4.0, help="synthetic class-mean distance")
    sub.add_argument("--noise-rate", type=float, default=0.0, help="label-flip fraction in [0, 1]")


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument(
        "--out-dir",
        default=None,
        help="output directory (falls back to $CHG_OUT_DIR, then '.')",
    )


def _add_training_options(sub: argparse.ArgumentParser, per_class: bool = True) -> None:
    sub.add_argument(
        "--scheme", choices=KINDS, default="chg",
        help="hardness values rise with the loss, so 'select --scheme hardness' keeps "
        "mislabelled rows and 'bench --scheme hardness' ranks them last (AUC 0.15 against "
        "chg's 0.84 at 30%% label noise, seed 100)",
    )
    sub.add_argument("--epochs", type=int, default=20)
    sub.add_argument("--lr", type=float, default=0.1)
    if per_class:
        sub.add_argument(
            "--per-class", action="store_true", help="class-restricted reference vectors"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chg-shapley", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    value = commands.add_parser("value", help="valuation training run")
    _add_task_options(value)
    _add_common_options(value)
    _add_training_options(value)
    value.set_defaults(func=_cmd_value)

    select = commands.add_parser("select", help="subset-selection training run")
    _add_task_options(select)
    _add_common_options(select)
    _add_training_options(select, per_class=False)
    select.add_argument("--fraction", type=float, default=0.1, help="kept fraction per class")
    select.add_argument("--interval", type=int, default=20, help="epochs between selections")
    select.set_defaults(func=_cmd_select)

    oracle = commands.add_parser("oracle", help="closed form vs exact and Monte Carlo")
    _add_common_options(oracle)
    oracle.add_argument("--n", type=int, default=8, help="players per game")
    oracle.add_argument("--d", type=int, default=4, help="vector dimension")
    oracle.add_argument("--trials", type=int, default=50)
    oracle.add_argument("--mc-samples", type=int, default=2000)
    oracle.set_defaults(func=_cmd_oracle)

    bench = commands.add_parser("bench", help="label-noise detection experiment")
    _add_task_options(bench)
    _add_common_options(bench)
    _add_training_options(bench)
    bench.add_argument("--plot-data", action="store_true", help="also write detection_curve.csv")
    bench.set_defaults(func=_cmd_bench)

    removal = commands.add_parser("removal", help="point-removal curves")
    _add_task_options(removal)
    _add_common_options(removal)
    _add_training_options(removal)
    removal.add_argument("--threads", type=int, default=1, help="parallel retraining arms")
    removal.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=list(RemovalConfig().fractions),
        help="removal fractions",
    )
    removal.set_defaults(func=_cmd_removal)
    return parser


def _out_dir(args) -> Path:
    """The output directory, created; each command asks once its outputs are computed."""
    out = args.out_dir or os.environ.get("CHG_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_task(args):
    """Dataset (from CSV or synthesized) plus injected-noise ground truth."""
    if not 0.0 <= args.noise_rate <= 1.0:
        raise ValueError(f"--noise-rate must be in [0, 1], got {args.noise_rate}")
    if args.data is not None:
        data = load_dataset_csv(args.data)
    else:
        data = make_synthetic_dataset(args.n, args.p, args.classes, args.separation, args.seed)
    noise = None
    if args.noise_rate > 0:
        labels, noise = inject_label_noise(
            data.labels, args.noise_rate, seed=args.seed + 1, n_classes=data.n_classes
        )
        data = Dataset(features=data.features, labels=labels, n_classes=data.n_classes)
    return data, noise


def _run_valuation_task(args):
    config = ValuationConfig(
        kind=args.scheme,
        epochs=args.epochs,
        seed=args.seed,
        lr=args.lr,
        per_class=args.per_class,
    )
    data, noise = _load_task(args)
    started = time.perf_counter()
    run = run_valuation(data, config)
    audit = epoch_efficiency_audit(run)
    return data, noise, run, audit, time.perf_counter() - started


def _cmd_value(args) -> int:
    data, noise, run, audit, seconds = _run_valuation_task(args)
    out = _out_dir(args)
    mask = noise.flip_mask if noise is not None else None
    write_values_csv(out / "values.csv", run, data, noise_mask=mask)
    write_run_meta(
        out / "run_meta.json",
        run.config,
        run.n,
        seconds,
        extra={
            "n_features": data.n_features,
            "n_classes": data.n_classes,
            "per_epoch_utility": [float(u) for u in run.per_epoch_utilities],
            "audit_max_violation": audit.max_violation,
        },
    )
    print(f"wrote {out / 'values.csv'} ({run.n} rows, {run.epochs} epochs, {seconds:.2f}s)")
    return EXIT_OK


def _cmd_select(args) -> int:
    cfg = SelectionConfig(
        fraction=args.fraction,
        interval=args.interval,
        epochs=args.epochs,
        seed=args.seed,
        kind=args.scheme,
        lr=args.lr,
    )
    data, _ = _load_task(args)
    test = (
        make_synthetic_dataset(args.n, args.p, args.classes, args.separation, args.seed + 500)
        if args.data is None
        else None
    )
    started = time.perf_counter()
    _, history = run_selection_training(data, cfg, test_data=test)
    seconds = time.perf_counter() - started
    out = _out_dir(args)
    write_metrics_csv(out / "metrics.csv", history)
    write_selection_history_jsonl(out / "selection_history.jsonl", history)
    write_run_meta(
        out / "run_meta.json",
        cfg,
        data.n,
        seconds,
        extra={
            "selection_events": len(history.events),
            "final_test_accuracy": history.metrics[-1].test_accuracy,
        },
    )
    print(
        f"wrote {out / 'metrics.csv'} ({len(history.events)} selection events, "
        f"final accuracy {history.metrics[-1].test_accuracy:.4f})"
    )
    return EXIT_OK


def oracle_report(n: int, d: int, trials: int, seed: int, mc_samples: int) -> dict:
    """Compare the closed form against enumeration and permutation sampling."""
    if n < 1 or d < 1 or trials < 1 or mc_samples < 1:
        raise ValueError("need n, d, trials, mc_samples >= 1")
    rng = np.random.default_rng(seed)
    max_err = 0.0
    mc_err = 0.0
    for trial in range(trials):
        X = rng.standard_normal((n, d))
        alpha = rng.standard_normal(d)
        closed = chg_closed_form_shapley(X, alpha).values
        exact = exact_shapley(chg_game(X, alpha)).values
        scale = max(1.0, float(np.max(np.abs(exact))))
        max_err = max(max_err, float(np.max(np.abs(closed - exact))) / scale)
        if trial == 0:
            mc = permutation_shapley(chg_game(X, alpha), samples=mc_samples, seed=seed).values
            mc_err = float(np.max(np.abs(mc - exact))) / scale
    return {
        "n": n,
        "d": d,
        "trials": trials,
        "seed": seed,
        "max_abs_err": max_err,
        "mc_samples": mc_samples,
        "mc_max_abs_err": mc_err,
        "tolerance": ORACLE_TOLERANCE,
        "passed": max_err <= ORACLE_TOLERANCE,
    }


def _cmd_oracle(args) -> int:
    report = oracle_report(args.n, args.d, args.trials, args.seed, args.mc_samples)
    out = _out_dir(args)
    _write_json(out / "oracle_report.json", report)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


def _cmd_bench(args) -> int:
    if args.noise_rate <= 0:
        raise ValueError("bench needs --noise-rate > 0 to have anything to detect")
    data, noise, run, audit, seconds = _run_valuation_task(args)
    report = detection_curve(run.mean_values, noise)
    out = _out_dir(args)
    payload = {
        "auc": report.auc,
        "fractions": report.fractions.tolist(),
        "detection_rate": report.detection_rate.tolist(),
        "random_baseline": report.fractions.tolist(),  # random inspection's rate
        "noise_rate": args.noise_rate,
        "scheme": args.scheme,
        "seed": args.seed,
        "n": data.n,
        "seconds": seconds,
        "audit_max_violation": audit.max_violation,
    }
    _write_json(out / "detection.json", payload)
    if args.plot_data:
        _write_csv(
            out / "detection_curve.csv",
            ["fraction", "detection_rate", "random_baseline"],
            "%.17g,%.17g,%.17g",
            [report.fractions, report.detection_rate, report.fractions],
        )
    print(f"wrote {out / 'detection.json'} (AUC {report.auc:.4f})")
    return EXIT_OK


def _cmd_removal(args) -> int:
    cfg = RemovalConfig(
        fractions=tuple(args.fractions),
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        threads=args.threads,
    )
    data, _noise, run, _audit, _seconds = _run_valuation_task(args)
    test = make_synthetic_dataset(
        max(200, args.n // 2, args.classes), args.p, args.classes, args.separation, args.seed + 500
    ) if args.data is None else data
    curve = point_removal_curve(run.mean_values, data, test, cfg)
    out = _out_dir(args)
    orders = list(curve.accuracy)
    _write_csv(
        out / "removal.csv",
        ["fraction", "order", "accuracy"],
        "%.17g,%s,%.17g",
        [
            np.tile(curve.fractions, len(orders)),
            np.repeat(orders, curve.fractions.size),
            np.concatenate([curve.accuracy[order] for order in orders]),
        ],
    )
    print(f"wrote {out / 'removal.csv'} ({curve.fractions.size} fractions x {len(curve.accuracy)} orders)")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        err.parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (FloatingPointError, EfficiencyAuditError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
