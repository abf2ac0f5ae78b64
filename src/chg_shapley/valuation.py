"""Per-epoch data valuation: score every datum each epoch, then train, then average.

Each epoch plays the whole game, or with `per_class` one game per
non-empty class as a selection event does, each on its own forward pass,
which returns the per-example losses and factored last-layer gradients
at the current parameters as a `GradientSet`.  Closed-form Shapley values
of the chosen utility kind come from that set (from the losses alone for
hardness), and only then does the epoch step, on the games' summed
gradients, so values describe the state they were measured at.  A datum's
reported value is its mean over every epoch, summed as the games come, so
a run holds one game's values however many epochs it has.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .models import (
    Dataset,
    TrainingDivergedError,  # noqa: F401  (raised by the loop; callers catch it from here)
    _release_free_heap,
    _write_csv,
    _write_json,
    check_count,
    check_hidden_width,
    check_learning_rate,
    epoch_guard,
    head_dataset,
    init_model,
    per_example_loss_and_grad,
    sgd_step,
)
# perfbench/layers.py wraps these here; they go when the benchmark is re-keyed.
from .models import GradientSet, sgd_step_weighted  # noqa: F401
from .utilities import _check_kind, gradient_set_values

EFFICIENCY_TOLERANCE = 1e-9


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
    hidden_width: int | None = None

    def __post_init__(self) -> None:
        check_count("epochs", self.epochs)
        _check_kind(self.kind)
        check_learning_rate(self.lr)
        check_hidden_width(self.hidden_width)


@dataclass
class ValuationRun:
    """Mean values over the epochs, and each epoch's value sum and U(N).

    Each epoch's values are added into the mean as they come and then
    dropped, so a run's memory does not grow with its epoch count; the
    efficiency audit needs only their sums.
    """

    mean_values: np.ndarray  # n
    value_sums: np.ndarray  # epochs, sum_j value_j of each epoch
    per_epoch_utilities: np.ndarray  # epochs, U(N) at valuation time
    config: ValuationConfig

    @property
    def epochs(self) -> int:
        return self.value_sums.shape[0]

    @property
    def n(self) -> int:
        return self.mean_values.shape[0]


@dataclass
class EfficiencyAudit:
    max_violation: float
    per_epoch_violation: np.ndarray


def run_valuation(data: Dataset, config: ValuationConfig) -> ValuationRun:
    """One training run with valuation before each epoch's update.

    Raises `TrainingDivergedError` naming the epoch whose pass, values,
    summed U(N) or step is not finite.
    """
    if data.n < 1:
        raise ValueError("dataset is empty")
    model = init_model(
        (data.n_features, data.n_classes), seed=config.seed, hidden_width=config.hidden_width
    )
    head_data = head_dataset(model, data)
    model = replace(model, feature_map=None)
    # After the map: a trim before it returns pages that phi then takes back.
    _release_free_heap()
    games = [idx for idx in head_data.class_index if idx.size] if config.per_class else [None]
    # A running total from zeros has the bits of numpy's axis-0 mean of the
    # stacked epochs at every n >= 2 (both turn -0.0 into 0.0).
    total = np.zeros(data.n)
    # -0.0 + x is x for every x, -0.0 included: one game's sums keep their bits.
    sums = np.full(config.epochs, -0.0)
    utilities = np.full(config.epochs, -0.0)
    for epoch in range(config.epochs):
        with epoch_guard(epoch):
            grad = np.full(model.weights.size + model.bias.size, -0.0)
            for rows in games:
                batch = per_example_loss_and_grad(model, head_data, rows)
                result = gradient_set_values(batch, config.kind)
                total[slice(None) if rows is None else rows] += result.values
                # A sum that overflows is reported below, or by the step it spoils.
                with np.errstate(over="ignore", invalid="ignore"):
                    sums[epoch] += result.values.sum()
                    utilities[epoch] += result.grand_utility
                    grad += batch.vectors.column_sum()
                del batch, result  # free the factors and values before the next pass
            if not np.isfinite(utilities[epoch]):
                raise FloatingPointError(f"non-finite grand-coalition utility {utilities[epoch]}")
            model = sgd_step(model, grad / data.n, config.lr)
    total /= config.epochs
    return ValuationRun(
        mean_values=total, value_sums=sums, per_epoch_utilities=utilities, config=config
    )


def epoch_efficiency_audit(run: ValuationRun) -> EfficiencyAudit:
    """Check sum_j value_j = U(N) for every epoch, within EFFICIENCY_TOLERANCE.

    The relative violation of `run.value_sums` is measured against
    `run.per_epoch_utilities`; np.sum's pairwise accumulation of each
    epoch's values keeps the check meaningful at n >= 1e4.  Raises
    `EfficiencyAuditError` listing the offending epochs on failure.
    """
    utilities = np.asarray(run.per_epoch_utilities, dtype=float)
    if utilities.shape != (run.epochs,):
        raise ValueError("need one recorded utility per epoch")
    violation = np.abs(run.value_sums - utilities) / np.maximum(1.0, np.abs(utilities))
    worst = float(violation.max())
    if worst > EFFICIENCY_TOLERANCE:
        bad = np.flatnonzero(violation > EFFICIENCY_TOLERANCE).tolist()
        raise EfficiencyAuditError(
            f"efficiency audit failed at epochs {bad}: max violation {worst:.3e}",
            epochs=bad,
        )
    return EfficiencyAudit(max_violation=worst, per_epoch_violation=violation)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def value_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 = highest value; ties broken by ascending index."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def write_values_csv(path, run: ValuationRun, data: Dataset, noise_mask=None) -> None:
    """Emit index,label[,is_noisy],mean_value,rank with 17-digit floats.

    Raises ValueError, before the file is opened, unless `data.labels` and
    `noise_mask` have one entry per valued row.
    """
    header = ["index", "label", "mean_value", "rank"]
    formats = ["%d", "%d", "%.17g", "%d"]
    columns = [np.arange(run.n), data.labels, run.mean_values, value_ranks(run.mean_values)]
    if noise_mask is not None:
        header.insert(2, "is_noisy")
        formats.insert(2, "%d")
        columns.insert(2, np.asarray(noise_mask))
    _write_csv(path, header, ",".join(formats), columns)


def blas_info() -> dict:
    """The BLAS numpy was built with, and its thread-count variables as set
    (None when unset): the bits of a long product can depend on both."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"name": blas.get("name"), "version": blas.get("version"), **threads}


def write_run_meta(path, config, n: int, seconds: float, extra: dict) -> None:
    """Write run_meta.json: version, the config dataclass, n, seconds, the
    BLAS (`blas_info`), then `extra`."""
    meta = {
        "version": __version__, "config": asdict(config), "n": n, "seconds": seconds,
        "blas": blas_info(),
    }
    meta.update(extra)
    _write_json(path, meta)
