"""Interval-based per-class subset selection with min-max weighted training.

Every `interval` epochs (including epoch 0) the selector values each
class with a class-restricted reference vector, keeps the top fraction
per class, re-values the union with the reference restricted to it, and
min-max normalizes those values into training weights.  Epochs between
selection events train on the standing subset with the standing weights.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .models import (
    Dataset,
    ModelState,
    _write_csv,
    batch_loss,
    accuracy,
    check_learning_rate,
    epoch_guard,
    head_dataset,
    init_model,
    per_example_loss_and_grad,
    sgd_step_weighted,
)
from .utilities import GradientSet, _check_kind, gradient_set_values, hardness_shapley
from .valuation import epoch_values

# Guards against float noise in a * N_c (e.g. 0.1 * 30 = 3.0000000000000004)
# so the ceiling rule never rounds an exact product up.
_COUNT_EPS = 1e-9


@dataclass(frozen=True)
class SelectionConfig:
    fraction: float  # a in (0, 1]
    interval: int = 20  # epochs between selection events
    epochs: int = 20
    seed: int = 0
    kind: str = "chg"
    lr: float = 0.1
    hidden_width: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.epochs < 1:
            raise ValueError(f"need epochs >= 1, got {self.epochs}")
        _check_kind(self.kind)
        check_learning_rate(self.lr)


@dataclass
class SelectionPlan:
    """A chosen subset with aligned training weights in [0, 1]."""

    subset: np.ndarray  # sorted global indices
    weights: np.ndarray
    epoch_created: int
    per_class_indices: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def per_class_counts(self) -> dict[int, int]:
        return {label: idx.size for label, idx in self.per_class_indices.items()}


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    test_accuracy: float
    wall_time: float


@dataclass
class SelectionHistory:
    events: list[SelectionPlan] = field(default_factory=list)
    metrics: list[EpochMetrics] = field(default_factory=list)


def per_class_count(fraction: float, class_size: int) -> int:
    """ceil(a * N_c), guarded against float noise; at least one per class."""
    return max(1, math.ceil(fraction * class_size - _COUNT_EPS))


def select_top_fraction_per_class(
    values_by_class: Mapping[int, tuple[np.ndarray, np.ndarray]], fraction: float
) -> dict[int, np.ndarray]:
    """Each class's top ceil(a*N_c) indices, sorted; ties by ascending index.

    `values_by_class` maps class id to (global indices, their values); the
    result maps it to the sorted picks.  An empty class maps to an empty
    array, with a warning; ValueError if every class is empty.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    picks: dict[int, np.ndarray] = {}
    for label in sorted(values_by_class):
        indices, values = values_by_class[label]
        indices = np.asarray(indices, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if indices.size == 0:
            warnings.warn(f"class {label} is empty; skipped", stacklevel=2)
            picks[label] = indices
            continue
        count = per_class_count(fraction, indices.size)
        order = np.lexsort((indices, -values))
        picks[label] = np.sort(indices[order[:count]])
    if not any(idx.size for idx in picks.values()):
        raise ValueError("no non-empty classes to select from")
    return picks


def minmax_weights(values) -> np.ndarray:
    """(v - min) / (max - min); all ones when the values tie."""
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("need at least one value")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.ones(v.size)
    return (v - lo) / (hi - lo)


# (head, head-input data, epoch, event index) -> the plan to train on
SelectFn = Callable[[ModelState, Dataset, int, int], SelectionPlan]


def _training_loop(
    data: Dataset,
    cfg: SelectionConfig,
    select: SelectFn,
    test_data: Dataset | None,
) -> tuple[ModelState, SelectionHistory]:
    """Train a map-free head on data mapped once; the returned model keeps the map."""
    model = init_model(
        (data.n_features, data.n_classes), seed=cfg.seed, hidden_width=cfg.hidden_width
    )
    feature_map = model.feature_map
    data = head_dataset(model, data)
    eval_data = data if test_data is None else head_dataset(model, test_data)
    model = replace(model, feature_map=None)
    history = SelectionHistory()
    plan: SelectionPlan | None = None
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        if epoch % cfg.interval == 0:
            plan = select(model, data, epoch, len(history.events))
            history.events.append(plan)
        with epoch_guard(epoch):
            batch = per_example_loss_and_grad(model, data, plan.subset)
            model = sgd_step_weighted(model, batch.last_layer_grads.scaled(plan.weights), cfg.lr)
            del batch  # free the factors before the evaluation passes
            train_loss = batch_loss(model, data, plan.subset)
        history.metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=train_loss,
                test_accuracy=accuracy(model, eval_data),
                wall_time=time.perf_counter() - started,
            )
        )
    return replace(model, feature_map=feature_map), history


def _value_selection(
    model: ModelState, data: Dataset, cfg: SelectionConfig, epoch: int
) -> SelectionPlan:
    """One forward pass; each class's top fraction by its class game
    (`epoch_values` per class); weights from the union's own game.  The
    pass's factors are scanned for finiteness once, for all the games."""
    with epoch_guard(epoch):
        batch = per_example_loss_and_grad(model, data)
        gs = None if cfg.kind == "hardness" else GradientSet(batch.last_layer_grads, batch.losses)
        values, _ = epoch_values(batch, data, cfg.kind, per_class=True, gs=gs)
        picks = select_top_fraction_per_class(
            {label: (idx, values[idx]) for label, idx in enumerate(data.class_index)},
            cfg.fraction,
        )
        subset = np.sort(np.concatenate(list(picks.values())))
        if gs is None:
            subset_values = hardness_shapley(batch.losses[subset])
        else:
            subset_values = gradient_set_values(gs.restrict(subset), cfg.kind)
    return SelectionPlan(
        subset=subset,
        weights=minmax_weights(subset_values.values),
        epoch_created=epoch,
        per_class_indices=picks,
    )


def run_selection_training(
    data: Dataset, cfg: SelectionConfig, test_data: Dataset | None = None
) -> tuple[ModelState, SelectionHistory]:
    """Value-driven selection and weighted training over the epoch budget."""

    def select(model: ModelState, head_data: Dataset, epoch: int, _event: int) -> SelectionPlan:
        return _value_selection(model, head_data, cfg, epoch)

    return _training_loop(data, cfg, select, test_data)


def _uniform_plan(data: Dataset, cfg: SelectionConfig, epoch: int, event: int) -> SelectionPlan:
    rng = np.random.default_rng([cfg.seed, 1000 + event])
    by_class: dict[int, np.ndarray] = {}
    for label, idx in enumerate(data.class_index):
        if idx.size == 0:
            warnings.warn(f"class {label} is empty; skipped", stacklevel=2)
            by_class[label] = idx
            continue
        count = per_class_count(cfg.fraction, idx.size)
        by_class[label] = np.sort(rng.choice(idx, size=count, replace=False))
    subset = np.sort(np.concatenate(list(by_class.values())))
    return SelectionPlan(
        subset=subset,
        weights=np.ones(subset.size),
        epoch_created=epoch,
        per_class_indices=by_class,
    )


def random_baseline_training(
    data: Dataset,
    cfg: SelectionConfig,
    test_data: Dataset | None = None,
    adaptive: bool = False,
) -> tuple[ModelState, SelectionHistory]:
    """Uniform per-class subsets with unweighted training.

    The plain baseline draws one subset at epoch 0 and keeps it;
    the adaptive variant redraws at every selection event.
    """

    def select(_model: ModelState, _data: Dataset, epoch: int, event: int) -> SelectionPlan:
        return _uniform_plan(data, cfg, epoch, event if adaptive else 0)

    return _training_loop(data, cfg, select, test_data)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def write_selection_history_jsonl(path, history: SelectionHistory) -> None:
    """One JSON record per selection event."""
    with open(path, "w") as fh:
        for plan in history.events:
            record = {
                "epoch": plan.epoch_created,
                "per_class_indices": {
                    str(k): [int(i) for i in v] for k, v in plan.per_class_indices.items()
                },
                "weights_summary": {
                    "min": float(plan.weights.min()),
                    "max": float(plan.weights.max()),
                    "mean": float(plan.weights.mean()),
                    "count": int(plan.weights.size),
                },
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_metrics_csv(path, history: SelectionHistory) -> None:
    rows = history.metrics
    _write_csv(
        path,
        ["epoch", "train_loss", "test_accuracy", "wall_time"],
        "%d,%.17g,%.17g,%.6f",
        [
            np.array([row.epoch for row in rows], dtype=int),
            np.array([row.train_loss for row in rows], dtype=float),
            np.array([row.test_accuracy for row in rows], dtype=float),
            np.array([row.wall_time for row in rows], dtype=float),
        ],
    )
