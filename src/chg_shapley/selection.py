"""Interval-based per-class subset selection with min-max weighted training.

Every `interval` epochs (including epoch 0) the selector values each
class in its own game, against the class's mean vector, keeps the top
fraction per class, re-values the union in its own game, and min-max
normalizes those values into training weights.  An event makes one
forward pass per non-empty class and one on the union, n + |S| rows in
all, and the event epoch steps on the union's pass.  Epochs between
selection events train on the standing subset with the standing weights.
The softmax head trains on the raw features.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import (
    Dataset,
    ModelState,
    _write_csv,
    accuracy,
    check_learning_rate,
    epoch_guard,
    init_model,
    per_example_loss_and_grad,
    sgd_step_weighted,
)
from .models import GradientSet
# perfbench/layers.py wraps this here; it goes when the benchmark is re-keyed.
from .models import batch_loss  # noqa: F401
from .utilities import _check_kind, gradient_set_values

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
    per_class_indices: dict[int, np.ndarray]
    # The event's forward pass on `subset`, if it made one: the training loop
    # takes it as the event epoch's batch and clears it, so no history holds it.
    batch: GradientSet | None = field(default=None, repr=False, compare=False)


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


def _class_picks(
    data: Dataset, fraction: float, pick: Callable[[np.ndarray, int], np.ndarray]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Each class's picks and their sorted union, walking the classes in
    label order: `pick(idx, count)` for the class's rows `idx`, with count
    ceil(a*N_c).  An empty class keeps no rows, with a warning."""
    picks: dict[int, np.ndarray] = {}
    for label, idx in enumerate(data.class_index):
        if idx.size == 0:
            warnings.warn(f"class {label} is empty; skipped", stacklevel=2)
            picks[label] = idx
        else:
            picks[label] = pick(idx, per_class_count(fraction, idx.size))
    return picks, np.sort(np.concatenate(list(picks.values())))


def _top_count(indices: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """The sorted `indices` of the `count` highest `values`, ties by ascending
    index: the first `count` of np.lexsort((indices, -values)), in O(n).

    Every key ranked above the count-th is taken, and the rest are the
    lowest indices among the keys equal to it.  NaN ranks last, as in the
    sort, and -0.0 ties with 0.0.
    """
    keys = -values
    cut = np.partition(keys, count - 1)[count - 1]
    if np.isnan(cut):  # fewer than `count` numbers: all of them, then NaNs
        above = ~np.isnan(keys)
        tied = ~above
    else:
        above = keys < cut
        tied = keys == cut
    tied_indices = indices[tied]
    need = count - int(np.count_nonzero(above))
    if need < tied_indices.size:
        tied_indices = np.partition(tied_indices, need - 1)[:need]
    return np.sort(np.concatenate([indices[above], tied_indices]))


def minmax_weights(values) -> np.ndarray:
    """(v - min) / (max - min); all ones when the values tie."""
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("need at least one value")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.ones(v.size)
    return (v - lo) / (hi - lo)


# (model, epoch, event index) -> the plan to train on
SelectFn = Callable[[ModelState, int, int], SelectionPlan]


def _training_loop(
    data: Dataset,
    cfg: SelectionConfig,
    select: SelectFn,
    test_data: Dataset | None,
) -> tuple[ModelState, SelectionHistory]:
    """Train a softmax head on the raw features, one forward pass per step.

    The pass after the step gives the epoch's train loss and, unless an
    event replaces the plan, the next step's batch.  An event runs under its
    epoch's guard; its plan brings the epoch's batch if it made a pass.
    """
    if data.n < 1:
        raise ValueError("dataset is empty")
    eval_data = data if test_data is None else test_data
    if eval_data.n < 1:
        raise ValueError("evaluation set is empty")
    model = init_model((data.n_features, data.n_classes), seed=cfg.seed)
    history = SelectionHistory()
    batch = None
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        with epoch_guard(epoch):
            if epoch % cfg.interval == 0:
                batch = None  # free the factors before the event's passes
                plan = select(model, epoch, len(history.events))
                history.events.append(plan)
                batch, plan.batch = plan.batch, None
            if batch is None:
                batch = per_example_loss_and_grad(model, data, plan.subset)
            model = sgd_step_weighted(model, batch.vectors.scaled(plan.weights), cfg.lr)
            del batch  # free the factors before the next pass
            batch = per_example_loss_and_grad(model, data, plan.subset)
            train_loss = float(batch.losses.mean())
        history.metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=train_loss,
                test_accuracy=accuracy(model, eval_data),
                wall_time=time.perf_counter() - started,
            )
        )
    return model, history


def _value_selection(
    model: ModelState, data: Dataset, cfg: SelectionConfig, epoch: int
) -> SelectionPlan:
    """Each class's top fraction by its class game; weights from the union's
    own game.

    One forward pass per non-empty class plays that class's game, and one
    on the union plays the union's; the plan carries the union's pass as
    the event epoch's batch.  No pass covers rows that no game reads.
    """

    def top_of_class_game(idx: np.ndarray, count: int) -> np.ndarray:
        # The class's factors go on return, before the next class's pass.
        class_batch = per_example_loss_and_grad(model, data, idx)
        return _top_count(idx, gradient_set_values(class_batch, cfg.kind).values, count)

    picks, subset = _class_picks(data, cfg.fraction, top_of_class_game)
    batch = per_example_loss_and_grad(model, data, subset)
    subset_values = gradient_set_values(batch, cfg.kind)
    return SelectionPlan(
        subset=subset,
        weights=minmax_weights(subset_values.values),
        epoch_created=epoch,
        per_class_indices=picks,
        batch=batch,
    )


def run_selection_training(
    data: Dataset, cfg: SelectionConfig, test_data: Dataset | None = None
) -> tuple[ModelState, SelectionHistory]:
    """Value-driven selection and weighted training over the epoch budget."""

    def select(model: ModelState, epoch: int, _event: int) -> SelectionPlan:
        return _value_selection(model, data, cfg, epoch)

    return _training_loop(data, cfg, select, test_data)


def _uniform_plan(data: Dataset, cfg: SelectionConfig, epoch: int, event: int) -> SelectionPlan:
    rng = np.random.default_rng([cfg.seed, 1000 + event])

    def draw(idx: np.ndarray, count: int) -> np.ndarray:
        return np.sort(rng.choice(idx, size=count, replace=False))

    picks, subset = _class_picks(data, cfg.fraction, draw)
    return SelectionPlan(
        subset=subset,
        weights=np.ones(subset.size),
        epoch_created=epoch,
        per_class_indices=picks,
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

    def select(_model: ModelState, epoch: int, event: int) -> SelectionPlan:
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
