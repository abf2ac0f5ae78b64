"""Which library entry points the traced run wraps, and the per-layer metrics.

Each wrapper is installed on the module that makes the call, so a span
names the layer that does the work and its parent names the caller.  The
layers are the package modules: models, utilities, shapley, valuation,
selection, experiments and cli.  Byte and operation counts are computed
from array shapes, not measured.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

import chg_shapley.cli as cli
import chg_shapley.experiments as experiments
import chg_shapley.selection as selection
import chg_shapley.utilities as utilities
import chg_shapley.valuation as valuation

import workloads
from spans import Tracer

F64 = 8


def _grad_counts(args, kwargs, result):
    m, d = result.last_layer_grads.shape
    return {"bytes": F64 * m * d}


def _closed_form_counts(args, kwargs, result):
    # X.sum, the row norms, X @ g and X @ alpha, plus the finiteness check:
    # X is read five times; six length-n vectors are combined.
    n, d = args[0].shape
    return {"flops": 7 * n * d + 6 * n, "bytes": F64 * (5 * n * d + 6 * n)}


def _restrict_counts(args, kwargs, result):
    m, d = result.vectors.shape
    return {"bytes": F64 * m * (d + 1)}


def _audit_counts(args, kwargs, result):
    return {"max_violation": result.max_violation}


def _csv_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _event_counts(args, kwargs, result):
    return {"subset_rows": int(result.subset.size)}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; `tracer.uninstall()` undoes it."""
    wrap = tracer.wrap
    for caller in (valuation, selection):
        wrap(caller, "per_example_loss_and_grad", "models.grads", _grad_counts)
        wrap(caller, "gradient_set_values", "utilities.values")
        wrap(caller, "GradientSet", "utilities.gradientset")
    for caller in (valuation, selection, experiments):
        wrap(caller, "sgd_step_weighted", "models.sgd")
    for caller, attr in ((selection, "batch_loss"), (selection, "accuracy"),
                         (experiments, "accuracy")):
        wrap(caller, attr, "models.eval")
    wrap(utilities, "chg_closed_form_shapley", "shapley.closed_form", _closed_form_counts)
    wrap(utilities.GradientSet, "restrict", "utilities.restrict", _restrict_counts)
    # A selection event has no public entry point; the private helper that
    # run_selection_training calls once per event delimits it.
    wrap(selection, "_value_selection", "selection.event", _event_counts)
    for caller in (workloads, cli):
        wrap(caller, "run_valuation", "valuation.run")
        wrap(caller, "epoch_efficiency_audit", "valuation.audit", _audit_counts)
        wrap(caller, "write_values_csv", "valuation.write_csv", _csv_counts)
        wrap(caller, "make_synthetic_dataset", "experiments.synth")
        wrap(caller, "inject_label_noise", "experiments.synth")
    wrap(workloads, "detection_curve", "experiments.detection")
    wrap(workloads, "point_removal_curve", "experiments.removal")
    wrap(workloads, "run_selection_training", "selection.run")
    wrap(workloads, "cli_main", "cli.value")


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "models.grads_s": "s",
    "models.grads_calls": "count",
    "models.grad_bytes": "B",
    "models.sgd_s": "s",
    "models.sgd_calls": "count",
    "models.eval_s": "s",
    "shapley.closed_form_s": "s",
    "shapley.closed_form_calls": "count",
    "shapley.closed_form_flops": "flop",
    "shapley.closed_form_bytes": "B",
    "utilities.values_s": "s",
    "utilities.gradientset_s": "s",
    "utilities.restrict_s": "s",
    "utilities.restrict_bytes": "B",
    "valuation.run_s": "s",
    "valuation.audit_s": "s",
    "valuation.audit_max_violation": "ratio",
    "valuation.write_csv_s": "s",
    "valuation.write_csv_bytes": "B",
    "selection.event_s.p50": "s",
    "selection.event_s.max": "s",
    "selection.events": "count",
    "selection.subset_rows": "count",
    "experiments.synth_s": "s",
    "experiments.detection_s": "s",
    "experiments.removal_s": "s",
    "experiments.removal_parallel_eff": "ratio",
    "cli.value_s": "s",
    "trace.overhead_s": "s",
}


def iteration_metrics(tracer: Tracer, start: float, end: float, arms: int) -> dict:
    """Per-layer totals over the spans that ran within [start, end]."""
    by = defaultdict(list)
    for span in tracer.between(start, end):
        by[span.name].append(span)

    def seconds(name):
        return sum(s.seconds for s in by[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by[name])

    removal_s = seconds("experiments.removal")
    arm_sgd_s = sum(
        s.seconds
        for s in by["models.sgd"]
        if any(tracer.descends_from(s, r) for r in by["experiments.removal"])
    )
    events = [s.seconds for s in by["selection.event"]] or [0.0]
    return {
        "models.grads_s": seconds("models.grads"),
        "models.grads_calls": len(by["models.grads"]),
        "models.grad_bytes": count("models.grads", "bytes"),
        "models.sgd_s": seconds("models.sgd"),
        "models.sgd_calls": len(by["models.sgd"]),
        "models.eval_s": seconds("models.eval"),
        "shapley.closed_form_s": seconds("shapley.closed_form"),
        "shapley.closed_form_calls": len(by["shapley.closed_form"]),
        "shapley.closed_form_flops": count("shapley.closed_form", "flops"),
        "shapley.closed_form_bytes": count("shapley.closed_form", "bytes"),
        "utilities.values_s": sum(tracer.self_seconds(s) for s in by["utilities.values"]),
        "utilities.gradientset_s": seconds("utilities.gradientset"),
        "utilities.restrict_s": seconds("utilities.restrict"),
        "utilities.restrict_bytes": count("utilities.restrict", "bytes"),
        "valuation.run_s": seconds("valuation.run"),
        "valuation.audit_s": seconds("valuation.audit"),
        "valuation.audit_max_violation": max(
            (s.counts.get("max_violation", 0.0) for s in by["valuation.audit"]), default=0.0
        ),
        "valuation.write_csv_s": seconds("valuation.write_csv"),
        "valuation.write_csv_bytes": count("valuation.write_csv", "bytes"),
        "selection.event_s.p50": statistics.median(events),
        "selection.event_s.max": max(events),
        "selection.events": len(by["selection.event"]),
        "selection.subset_rows": count("selection.event", "subset_rows"),
        "experiments.detection_s": seconds("experiments.detection"),
        "experiments.removal_s": removal_s,
        "experiments.removal_parallel_eff": arm_sgd_s / (removal_s * arms) if removal_s else 0.0,
        "cli.value_s": seconds("cli.value"),
    }


def synth_seconds(tracer: Tracer, start: float, end: float) -> float:
    return sum(s.seconds for s in tracer.between(start, end) if s.name == "experiments.synth")
