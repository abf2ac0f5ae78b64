"""Per-epoch data valuation: score every datum each epoch, then train, then average.

Each epoch acquires full-batch per-example losses and factored
last-layer gradients at the current parameters (losses alone for the
hardness kind), computes closed-form Shapley values of the chosen
utility kind from them, and only then applies the epoch's parameter
update, so values describe the state the gradients were measured at.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .models import (
    Dataset,
    ModelState,
    check_learning_rate,
    head_dataset,
    init_model,
    per_example_loss_and_grad,
    per_example_losses,
    sgd_step_weighted,
)
from .utilities import GradientSet, gradient_set_values, hardness_shapley

EFFICIENCY_TOLERANCE = 1e-9


class TrainingDivergedError(FloatingPointError):
    """Training produced non-finite losses, statistics or values; carries the epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class EfficiencyAuditError(RuntimeError):
    """Per-epoch value sums drifted from the recorded grand-coalition utility."""

    def __init__(self, message: str, epochs: list[int]):
        super().__init__(message)
        self.epochs = epochs


@dataclass(frozen=True)
class ValuationConfig:
    kind: str = "chg"
    epochs: int = 20
    seed: int = 0
    lr: float = 0.1
    per_class: bool = False
    skip_first_epochs: int = 0
    hidden_width: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"need epochs >= 1, got {self.epochs}")
        check_learning_rate(self.lr)
        if not 0 <= self.skip_first_epochs < self.epochs:
            raise ValueError("skip_first_epochs must be in [0, epochs)")


@dataclass
class ValuationRun:
    """Per-epoch values, their mean, and the recorded per-epoch utilities."""

    per_epoch_values: np.ndarray  # epochs x n
    mean_values: np.ndarray  # n
    per_epoch_utilities: np.ndarray  # epochs, U(N) at valuation time
    config: ValuationConfig
    n_features: int
    n_classes: int

    @property
    def epochs(self) -> int:
        return self.per_epoch_values.shape[0]

    @property
    def n(self) -> int:
        return self.per_epoch_values.shape[1]


@dataclass
class EfficiencyAudit:
    max_violation: float
    per_epoch_violation: np.ndarray
    tolerance: float


def _epoch_values(
    model: ModelState, data: Dataset, kind: str, per_class: bool
) -> tuple[np.ndarray, float]:
    """Values and U(N) at `model`, whole or summed over per-class games.

    Each game's U(N) comes with its values.  Raises FloatingPointError
    when the values or U(N) are not finite.
    """
    if kind == "hardness":
        losses = per_example_losses(model, data)

        def group(idx):
            return hardness_shapley(losses if idx is None else losses[idx])
    else:
        batch = per_example_loss_and_grad(model, data)
        gs = GradientSet(batch.last_layer_grads, batch.losses)

        def group(idx):
            return gradient_set_values(gs if idx is None else gs.restrict(idx), kind)

    if not per_class:
        result = group(None)
        values, utility = result.values, result.grand_utility
    else:
        values = np.zeros(data.n)
        utility = 0.0
        for idx in data.class_index:
            if idx.size == 0:
                continue
            result = group(idx)
            values[idx] = result.values
            utility += result.grand_utility
    if not np.isfinite(utility):
        raise FloatingPointError(f"non-finite grand-coalition utility {utility}")
    return values, utility


def run_valuation(data: Dataset, config: ValuationConfig) -> ValuationRun:
    """One training run with full-batch valuation before each epoch's update."""
    if data.n < 1:
        raise ValueError("dataset is empty")
    model = init_model(
        (data.n_features, data.n_classes), seed=config.seed, hidden_width=config.hidden_width
    )
    head_data = head_dataset(model, data)
    model = replace(model, feature_map=None)
    per_epoch = np.empty((config.epochs, data.n))
    utilities = np.empty(config.epochs)
    unit_weights = np.ones(data.n)
    for epoch in range(config.epochs):
        try:
            per_epoch[epoch], utilities[epoch] = _epoch_values(
                model, head_data, config.kind, config.per_class
            )
        except FloatingPointError as err:
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: {err}", epoch=epoch
            ) from err
        model = sgd_step_weighted(model, head_data, None, unit_weights, config.lr)
    mean_values = per_epoch[config.skip_first_epochs :].mean(axis=0)
    return ValuationRun(
        per_epoch_values=per_epoch,
        mean_values=mean_values,
        per_epoch_utilities=utilities,
        config=config,
        n_features=data.n_features,
        n_classes=data.n_classes,
    )


def epoch_efficiency_audit(
    run: ValuationRun,
    per_epoch_utilities=None,
    tolerance: float = EFFICIENCY_TOLERANCE,
) -> EfficiencyAudit:
    """Check sum_j value_j = U(N) for every epoch, within relative tolerance.

    np.sum's pairwise accumulation keeps the check meaningful at n >= 1e4.
    Raises `EfficiencyAuditError` listing the offending epochs on failure.
    """
    utilities = np.asarray(
        run.per_epoch_utilities if per_epoch_utilities is None else per_epoch_utilities,
        dtype=float,
    )
    if utilities.shape != (run.epochs,):
        raise ValueError("need one recorded utility per epoch")
    sums = run.per_epoch_values.sum(axis=1)
    violation = np.abs(sums - utilities) / np.maximum(1.0, np.abs(utilities))
    worst = float(violation.max())
    if worst > tolerance:
        bad = np.flatnonzero(violation > tolerance).tolist()
        raise EfficiencyAuditError(
            f"efficiency audit failed at epochs {bad}: max violation {worst:.3e}",
            epochs=bad,
        )
    return EfficiencyAudit(
        max_violation=worst, per_epoch_violation=violation, tolerance=tolerance
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def value_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 = highest value; ties broken by ascending index."""
    order = np.lexsort((np.arange(values.size), -values))
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def write_values_csv(path, run: ValuationRun, data: Dataset, noise_mask=None) -> None:
    """Emit index,label[,is_noisy],mean_value,rank with 17-digit floats.

    The columns stay lazy iterators: materializing them as lists would
    hold every formatted row in memory at once.
    """
    header = ["index", "label", "mean_value", "rank"]
    columns = [
        range(run.n),
        map(int, data.labels),
        map("{:.17g}".format, run.mean_values),
        map(int, value_ranks(run.mean_values)),
    ]
    if noise_mask is not None:
        header.insert(2, "is_noisy")
        columns.insert(2, map(int, noise_mask))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def load_values_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in rows]
        if name in ("index", "label", "rank", "is_noisy"):
            columns[name] = np.array([int(tok) for tok in raw], dtype=int)
        else:
            columns[name] = np.array([float(tok) for tok in raw])
    return columns


def write_run_meta(path, config, n: int, seconds: float, extra: dict | None = None) -> None:
    """Write run_meta.json: version, the config dataclass, n, seconds, then `extra`."""
    meta = {"version": __version__, "config": asdict(config), "n": n, "seconds": seconds}
    if extra:
        meta.update(extra)
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
