"""The benchmark's workloads, its fixed-seed reference suite and its checks.

Inputs are built the way the `value`, `select` and `removal` subcommands
build them: the training set from the workload seed, label noise from
seed + 1, the test set from seed + 500.  Every library call goes through
this module's own names, so the tracer can wrap them as seen from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chg_shapley.cli import cli_main
from chg_shapley.experiments import (
    NoiseSpec,
    RemovalConfig,
    detection_curve,
    inject_label_noise,
    make_synthetic_dataset,
    point_removal_curve,
)
from chg_shapley.models import Dataset
from chg_shapley.selection import SelectionConfig, per_class_count, run_selection_training
from chg_shapley.valuation import (
    EfficiencyAuditError,
    ValuationConfig,
    epoch_efficiency_audit,
    run_valuation,
    write_values_csv,
)

FEATURES = 20
SEPARATION = 4.0
NOISE_RATE = 0.3
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# A fingerprint point may move by this share of the values' spread.  A
# refactor that only reorders float operations moves values by ~1e-14 of
# it; a wrong term in the closed form moves them by a sizeable share.
FINGERPRINT_TOLERANCE = 1e-9
FINGERPRINT_POINTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # value | select | removal
    size: dict
    tiny: dict  # the self-test's size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "value-tall",
            "value",
            dict(n=60_000, classes=2, epochs=10, hidden=None, noise=True, cli=True),
            dict(n=600, classes=2, epochs=3, hidden=None, noise=True, cli=True),
        ),
        Workload(
            "value-wide",
            "value",
            dict(n=6_000, classes=10, epochs=3, hidden=512, noise=True, cli=False),
            dict(n=300, classes=10, epochs=2, hidden=32, noise=True, cli=False),
        ),
        Workload(
            "select-per-class",
            "select",
            dict(n=50_000, classes=10, test_n=10_000, fraction=0.1, interval=2, epochs=20),
            dict(n=600, classes=10, test_n=200, fraction=0.1, interval=2, epochs=4),
        ),
        Workload(
            "removal",
            "removal",
            dict(n=30_000, classes=2, epochs=20, noise=True),
            dict(n=400, classes=2, epochs=4, noise=True),
        ),
    )
}


class Checks:
    """Correctness checks counted against the number attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


@dataclass
class Task:
    """A workload's inputs, built in set-up from its seed."""

    train: Dataset
    noise: NoiseSpec | None
    test: Dataset | None
    seed: int
    size: dict


def build_task(pipeline: str, size: dict, seed: int) -> Task:
    train = make_synthetic_dataset(size["n"], FEATURES, size["classes"], SEPARATION, seed)
    noise = None
    if size.get("noise"):
        labels, noise = inject_label_noise(train.labels, NOISE_RATE, seed + 1, train.n_classes)
        train = Dataset(train.features, labels, train.n_classes)
    test = None
    if pipeline in ("select", "removal"):
        test_n = size.get("test_n", size["n"] // 2)
        test = make_synthetic_dataset(test_n, FEATURES, size["classes"], SEPARATION, seed + 500)
    return Task(train, noise, test, seed, size)


# ---------------------------------------------------------------------------
# Pipelines: the timed part of an iteration.  Each returns the outputs its
# checks need; nothing here raises on a failed audit.
# ---------------------------------------------------------------------------

def _audit(run) -> str | None:
    """None when every epoch passes the efficiency audit, else its message."""
    try:
        epoch_efficiency_audit(run)
    except EfficiencyAuditError as err:
        return str(err)
    return None


def _cli_value(task: Task, out_dir: Path) -> tuple[int, str]:
    """The `value` subcommand on the task's inputs; its exit code and stderr."""
    size = task.size
    argv = [
        "value", "--n", str(size["n"]), "--p", str(FEATURES),
        "--classes", str(size["classes"]), "--separation", repr(SEPARATION),
        "--noise-rate", repr(NOISE_RATE), "--epochs", str(size["epochs"]),
        "--seed", str(task.seed), "--out-dir", str(out_dir),
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue().strip()


def value_pipeline(task: Task, work: Path, arms: int) -> dict:
    """run_valuation, audit, values.csv, detection curve; optionally the CLI too."""
    size = task.size
    config = ValuationConfig(kind="chg", epochs=size["epochs"], seed=task.seed,
                             hidden_width=size["hidden"])
    run = run_valuation(task.train, config)
    audit_error = _audit(run)
    out = {"values": run.mean_values, "audit_error": audit_error}
    csv_path = work / "values.csv"
    write_values_csv(csv_path, run, task.train, noise_mask=task.noise.flip_mask)
    out["detection_auc"] = detection_curve(run.mean_values, task.noise).auc
    if size["cli"]:
        cli_dir = work / "cli"
        code, out["cli_stderr"] = _cli_value(task, cli_dir)
        out["cli_same_csv"] = (
            code == 0
            and (cli_dir / "values.csv").read_bytes() == csv_path.read_bytes()
        )
    return out


def select_pipeline(task: Task, work: Path, arms: int) -> dict:
    size = task.size
    cfg = SelectionConfig(fraction=size["fraction"], interval=size["interval"],
                          epochs=size["epochs"], seed=task.seed, kind="chg")
    model, history = run_selection_training(task.train, cfg, test_data=task.test)
    return {
        "values": np.concatenate([model.weights.ravel(), model.bias]),
        "subsets": [plan.subset for plan in history.events],
        "weights": [plan.weights for plan in history.events],
        "accuracies": np.array([m.test_accuracy for m in history.metrics]),
        "final_test_accuracy": history.metrics[-1].test_accuracy,
    }


def removal_pipeline(task: Task, work: Path, arms: int) -> dict:
    size = task.size
    run = run_valuation(task.train, ValuationConfig(kind="chg", epochs=size["epochs"],
                                                    seed=task.seed))
    audit_error = _audit(run)
    cfg = RemovalConfig(epochs=size["epochs"], seed=task.seed, threads=arms)
    curve = point_removal_curve(run.mean_values, task.train, task.test, cfg)
    return {
        "values": run.mean_values,
        "audit_error": audit_error,
        "curves": np.concatenate([curve.accuracy[k] for k in sorted(curve.accuracy)]),
        "removal_gap": float(
            curve.accuracy["lowest_first"].mean() - curve.accuracy["highest_first"].mean()
        ),
    }


PIPELINES = {"value": value_pipeline, "select": select_pipeline, "removal": removal_pipeline}
# The output each pipeline reports as its `quality` metric.
QUALITY = {"value": "detection_auc", "select": "final_test_accuracy", "removal": "removal_gap"}


# ---------------------------------------------------------------------------
# Checks on one iteration's outputs
# ---------------------------------------------------------------------------

def check_outputs(pipeline: str, task: Task, out: dict, first: dict | None, checks: Checks) -> None:
    """Audit, sanity of each output, the CLI comparison, and bitwise equality
    with the first iteration of the run."""
    values = out["values"]
    checks.expect("values finite", bool(np.all(np.isfinite(values))))
    if "audit_error" in out:
        checks.expect("efficiency audit every epoch", out["audit_error"] is None,
                      out["audit_error"] or "")
    if pipeline == "value":
        checks.expect("one value per datum", values.shape == (task.train.n,))
        checks.expect("detection beats random", out["detection_auc"] > 0.5,
                      f"auc {out['detection_auc']}")
        if "cli_same_csv" in out:
            checks.expect("cli values.csv byte-identical", out["cli_same_csv"],
                          out["cli_stderr"])
    elif pipeline == "select":
        size = task.size
        expected = sum(per_class_count(size["fraction"], idx.size)
                       for idx in task.train.class_index)
        checks.expect("one selection per interval",
                      len(out["subsets"]) == math.ceil(size["epochs"] / size["interval"]))
        checks.expect("per-class subset sizes",
                      all(s.size == expected for s in out["subsets"]))
        checks.expect("weights in [0, 1]",
                      all(w.min() >= 0.0 and w.max() <= 1.0 for w in out["weights"]))
        checks.expect("accuracy beats chance",
                      out["final_test_accuracy"] > 1.0 / task.train.n_classes)
    else:
        checks.expect("removal: lowest-first beats highest-first", out["removal_gap"] > 0,
                      f"gap {out['removal_gap']}")
    if first is not None:
        checks.expect("repeat gives identical outputs", _same(out, first))


def _same(a: dict, b: dict) -> bool:
    for key in ("values", "curves", "accuracies", "subsets", "weights", *QUALITY.values()):
        if key not in a:
            continue
        x, y = a[key], b[key]
        if isinstance(x, list):
            if len(x) != len(y) or not all(np.array_equal(p, q) for p, q in zip(x, y)):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


# ---------------------------------------------------------------------------
# Fingerprints and the fixed-seed reference suite
# ---------------------------------------------------------------------------

def fingerprint(values) -> dict:
    """Sum, spread and the values at fixed, evenly spaced indices."""
    v = np.asarray(values, dtype=float)
    at = np.linspace(0, v.size - 1, FINGERPRINT_POINTS).astype(int)
    return {
        "n": int(v.size),
        "sum": float(v.sum()),
        "spread": float(v.max() - v.min()),
        "points": [float(v[i]) for i in at],
    }


def fingerprint_mismatch(got: dict, ref: dict) -> str | None:
    """None when `got` matches `ref` within the tolerance, else a description."""
    if got["n"] != ref["n"]:
        return f"n {got['n']} != {ref['n']}"
    tol = FINGERPRINT_TOLERANCE * ref["spread"]
    if abs(got["sum"] - ref["sum"]) > tol * ref["n"]:
        return f"sum {got['sum']!r} != {ref['sum']!r}"
    for k, (g, r) in enumerate(zip(got["points"], ref["points"])):
        if abs(g - r) > tol:
            return f"point {k}: {g!r} != {r!r}"
    return None


# Small fixed problems that together reach every layer, run at the
# reference seed.  Their fingerprints are stored in reference.json.
REFERENCE_SUITE = {
    "value": ("value", dict(n=300, classes=2, epochs=5, hidden=None, noise=True, cli=True)),
    "value-wide": ("value", dict(n=200, classes=4, epochs=3, hidden=16, noise=True, cli=False)),
    "select": ("select", dict(n=300, classes=3, test_n=150, fraction=0.2, interval=2, epochs=4)),
    "removal": ("removal", dict(n=200, classes=2, epochs=5, noise=True)),
}


def reference_tasks() -> dict[str, Task]:
    return {name: build_task(pipeline, size, REFERENCE_SEED)
            for name, (pipeline, size) in REFERENCE_SUITE.items()}


def run_reference_suite(tasks: dict[str, Task], work: Path, arms: int) -> dict[str, dict]:
    """Each reference problem's outputs, keyed like REFERENCE_SUITE."""
    outputs = {}
    for name, (pipeline, _) in REFERENCE_SUITE.items():
        sub = work / f"ref-{name}"
        sub.mkdir(parents=True, exist_ok=True)
        outputs[name] = PIPELINES[pipeline](tasks[name], sub, arms)
    return outputs


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_reference(tasks: dict[str, Task], outputs: dict[str, dict], reference: dict,
                    checks: Checks) -> None:
    for name, out in outputs.items():
        pipeline = REFERENCE_SUITE[name][0]
        check_outputs(pipeline, tasks[name], out, None, checks)
        mismatch = fingerprint_mismatch(fingerprint(out["values"]), reference[name])
        checks.expect(f"reference fingerprint {name}", mismatch is None, mismatch or "")
