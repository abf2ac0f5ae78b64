"""Synthetic tasks, label-noise injection, and the evaluation curves.

Covers the two standard protocols for judging a valuation: how fast the
lowest-valued fraction, swept over 0, 0.01, ..., 1, uncovers injected
label noise, and how retraining accuracy moves as data is deleted in
value order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .models import (
    Dataset,
    ModelState,
    TrainingDivergedError,
    _integer_labels,
    _release_free_heap,
    accuracy,
    check_count,
    check_learning_rate,
    epoch_guard,
    init_model,
    mean_gradient,
    sgd_step,
)
# perfbench/layers.py wraps this here; it goes when the benchmark is re-keyed.
from .models import sgd_step_weighted  # noqa: F401

REMOVAL_ORDERS = ("lowest_first", "highest_first", "random")


@dataclass(frozen=True)
class NoiseSpec:
    """Ground truth of an injection: which points were flipped."""

    flip_mask: np.ndarray  # bool, length n


@dataclass
class DetectionReport:
    """Noisy-point recall among the lowest-valued fraction, swept over fractions.

    Random inspection finds each fraction's share of the noisy points, so
    `fractions` is also the random baseline."""

    fractions: np.ndarray
    detection_rate: np.ndarray
    auc: float


@dataclass(frozen=True)
class RemovalConfig:
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    epochs: int = 20
    lr: float = 0.1
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ValueError("need at least one removal fraction")
        bad = [f for f in self.fractions if not 0.0 <= f <= 1.0]
        if bad:
            raise ValueError(f"removal fractions must be in [0, 1], got {bad}")
        repeated = sorted({f for f in self.fractions if self.fractions.count(f) > 1})
        if repeated:
            raise ValueError(f"removal fractions must be distinct, got {repeated} more than once")
        check_count("epochs", self.epochs)
        check_learning_rate(self.lr)
        check_count("threads", self.threads)


@dataclass
class RemovalCurve:
    """Retrained test accuracy per removal fraction, for each removal order."""

    fractions: np.ndarray
    accuracy: dict[str, np.ndarray]  # order -> accuracies


@dataclass(frozen=True)
class DescentBoundCheck:
    lhs: float
    rhs: float
    holds: bool


def make_synthetic_dataset(
    n: int, p: int, n_classes: int, separation: float, seed: int
) -> Dataset:
    """Class-conditional unit Gaussians with means `separation` apart.

    Class c's mean sits at (separation / sqrt(2)) * e_c, so every pair of
    means is exactly `separation` apart; classes are balanced up to the
    remainder and rows are shuffled deterministically.  Free heap pages
    are released first, so the build's resident cost is its own arrays:
    the n x p features, shuffled in place, plus one n x ceil(p/4) block.
    """
    if n_classes < 2 or n < n_classes:
        raise ValueError(f"need n >= n_classes >= 2, got n={n}, n_classes={n_classes}")
    if p < n_classes:
        raise ValueError(f"need p >= n_classes for the mean layout, got p={p}")
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be a finite number >= 0, got {separation}")
    _release_free_heap()
    rng = np.random.default_rng(seed)
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), counts)
    # Before the shuffle class c's rows are contiguous and its mean is zero
    # but at column c, so the shift goes into the noise as a row slice.
    features = rng.standard_normal((n, p))
    shift = separation / math.sqrt(2.0)
    lo = 0
    for c, count in enumerate(counts):
        features[lo : lo + count, c] += shift
        lo += count
    # Shuffle the rows in place, a quarter of the columns at a time: the
    # right side is gathered into an n x block temporary before the write.
    # Each row's part of a block is viewed as one opaque item, so the
    # gather copies whole items, not a strided run of floats per row.
    order = rng.permutation(n)
    block = -(-p // 4)
    for j in range(0, p, block):
        part = features[:, j : j + block]
        rows = part.view(np.dtype((np.void, part.shape[1] * part.itemsize)))[:, 0]
        rows[:] = rows[order]
    return Dataset(features=features, labels=labels[order], n_classes=n_classes)


def inject_label_noise(
    labels, rate: float, seed: int, n_classes: int
) -> tuple[np.ndarray, NoiseSpec]:
    """Flip exactly round(rate * n) uniformly chosen labels to different classes."""
    labels = _integer_labels(labels)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    n = labels.size
    count = int(round(rate * n))
    if count > 0 and n_classes < 2:
        raise ValueError("cannot flip labels with fewer than two classes")
    rng = np.random.default_rng(seed)
    mask = np.zeros(n, dtype=bool)
    flipped = labels.copy()
    if count > 0:
        chosen = rng.choice(n, size=count, replace=False)
        mask[chosen] = True
        draws = rng.integers(0, n_classes - 1, size=count)
        flipped[chosen] = draws + (draws >= labels[chosen])
    return flipped, NoiseSpec(flip_mask=mask)


def _check_finite(values: np.ndarray) -> None:
    """Reject NaN and inf: a sort would put NaN last in either direction."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"values must be finite, got {values[i]} at index {i}")


def detection_curve(values, noise: NoiseSpec) -> DetectionReport:
    """Sweep the inspected fraction over the ascending-value order.

    At fraction q, one of 0, 0.01, ..., 1, the detection rate is the
    share of noisy points among the round(q*n) lowest-valued data; the
    curve is pinned to 0 at q = 0 and to 1 at q = 1.
    """
    values = np.asarray(values, dtype=float)
    mask = np.asarray(noise.flip_mask, dtype=bool)
    if values.shape != mask.shape:
        raise ValueError("values and noise mask must align")
    _check_finite(values)
    total = int(mask.sum())
    if total == 0:
        raise ValueError("no noisy points to detect")
    n = values.size
    fractions = np.linspace(0.0, 1.0, 101)
    order = np.argsort(values, kind="stable")  # ascending value, ties by index
    found = np.concatenate([[0], np.cumsum(mask[order])])
    inspected = np.round(fractions * n).astype(int)
    rate = found[inspected] / total
    auc = float(np.trapezoid(rate, fractions))
    return DetectionReport(fractions=fractions, detection_rate=rate, auc=auc)


def _train_stack(order, starts, train: Dataset, cfg: RemovalConfig) -> ModelState:
    """The arms of one removal order trained side by side: head j of the
    returned stack trains on the rows `order[starts[j]:]` (every row when
    `order` is None), `starts` ascending.

    Every head starts from the same init and steps on its own row of the
    mean gradients that `mean_gradient` adds up as it walks the order once
    per epoch, so no arm holds delta or a copy of its rows, and the stack
    holds a few blocks.  Raises TrainingDivergedError naming the epoch of a
    non-finite pass or step.
    """
    init = init_model((train.n_features, train.n_classes), seed=cfg.seed)
    heads = len(starts)
    stack = ModelState(np.tile(init.weights, (heads, 1, 1)), np.tile(init.bias, (heads, 1)))
    for epoch in range(cfg.epochs):
        with epoch_guard(epoch):
            stack = sgd_step(stack, mean_gradient(stack, train, order, starts), cfg.lr)
    return stack


def _retrain_accuracy(order, starts, train: Dataset, test: Dataset, cfg: RemovalConfig) -> list:
    """Test accuracy of each arm of `_train_stack`, in the order of `starts`."""
    stack = _train_stack(order, starts, train, cfg)
    return [accuracy(ModelState(w, b), test) for w, b in zip(stack.weights, stack.bias)]


def point_removal_curve(
    values, train: Dataset, test: Dataset, cfg: RemovalConfig
) -> RemovalCurve:
    """Retrain-from-scratch accuracy as data is deleted in value order.

    Every arm reuses the same init seed, so curves differ only through
    the retained set.  Fractions that would empty the training set are
    dropped, and ValueError names them when none is left.  One arm is
    trained per distinct retained set: removing 0 rows keeps every row
    whatever the order, so the keep-everything arm is trained once and
    its accuracy shared by every order, and fractions that remove the same
    number of rows share an arm.  An order's other arms keep suffixes of
    it and train as one stack (`_retrain_accuracy`).  The keep-everything
    arm and the three stacks run on `cfg.threads` workers and are combined
    in a fixed order, so the thread count never changes the result.

    A diverging stack names the arm that diverges first when trained
    alone: the earliest epoch, then the lowest fraction.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (train.n,):
        raise ValueError("values must align with the training data")
    _check_finite(values)
    if test.n < 1:
        raise ValueError("evaluation set is empty")
    n = train.n
    orders = {
        "lowest_first": np.argsort(values, kind="stable"),
        "highest_first": np.argsort(-values, kind="stable"),
        "random": np.random.default_rng([cfg.seed, 2]).permutation(n),
    }
    fractions = np.array(
        [f for f in cfg.fractions if int(round(f * n)) < n], dtype=float
    )
    if not fractions.size:
        raise ValueError(f"every removal fraction {list(cfg.fractions)} empties the training set")
    removed = [int(round(f * n)) for f in fractions]
    fraction_of = dict(zip(removed, fractions.tolist()))
    # A stack: (order, rows removed by each arm); every order keeps the same rows at 0.
    starts = sorted({k for k in removed if k})
    stacks = [(None, [0])] if 0 in removed else []
    if starts:
        stacks += [(name, starts) for name in REMOVAL_ORDERS]

    def train_stack(stack):
        name, ks = stack
        order = orders.get(name)
        try:
            return _retrain_accuracy(order, ks, train, test, cfg)
        except TrainingDivergedError as err:
            if len(ks) > 1:  # each arm alone, up to the epoch the stack diverged at
                err, k = min(_divergences(order, ks, train, replace(cfg, epochs=err.epoch + 1)),
                             key=lambda fail: (fail[0].epoch, fail[1]), default=(err, ks[0]))
            else:
                k = ks[0]
            raise TrainingDivergedError(
                f"removal arm {name or 'every order'} at fraction {fraction_of[k]:g} ({k} of {n}"
                f" rows removed): {err}",
                epoch=err.epoch,
            ) from err

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        accs = {
            (name, k): acc
            for (name, ks), stack_accs in zip(stacks, pool.map(train_stack, stacks))
            for k, acc in zip(ks, stack_accs)
        }
    results = np.array(
        [accs[name if k else None, k] for name in REMOVAL_ORDERS for k in removed]
    ).reshape(len(REMOVAL_ORDERS), len(removed))
    return RemovalCurve(
        fractions=fractions,
        accuracy={name: results[i] for i, name in enumerate(REMOVAL_ORDERS)},
    )


def _divergences(order, ks, train: Dataset, cfg: RemovalConfig):
    """(error, k) for each arm `order[k:]` whose training alone diverges."""
    for k in ks:
        try:
            _train_stack(order, [k], train, cfg)
        except TrainingDivergedError as err:
            yield err, k


def descent_bound_check(L: float, theta, x) -> DescentBoundCheck:
    """Equality case of the descent bound on f(theta) = L/2 * ||theta||^2.

    With step 1/L, the quadratic's second-order expansion is exact, so
    f(theta - x/L) equals f(theta) - (1/(2L)) * (||grad||^2 - ||grad - x||^2)
    up to float roundoff.
    """
    if L <= 0:
        raise ValueError(f"need L > 0, got {L}")
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    eta = 1.0 / L
    moved = theta - eta * x
    lhs = 0.5 * L * float(moved @ moved)
    grad = L * theta
    resid = grad - x
    rhs = 0.5 * L * float(theta @ theta) - 0.5 * eta * (
        float(grad @ grad) - float(resid @ resid)
    )
    holds = abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    return DescentBoundCheck(lhs=lhs, rhs=rhs, holds=holds)
