"""Linear-softmax models with analytic per-example losses and last-layer gradients.

The model is a softmax head on the raw features or, for valuation at a
chosen width, on a frozen random feature map, so per-example gradients
are exact closed-form expressions.
Example i's flattened gradient row is the outer product of its logit
residual delta_i (classes) and its head input [phi_i, 1] (width + 1), so
the n gradient rows are kept in that factored form: O(n * (classes +
width)) memory instead of the O(n * classes * width) dense matrix.

The forward pass returns them as the `GradientSet` every game values,
unscanned, as are the rows `restrict` takes; the public constructor scans.
"""

from __future__ import annotations

import copy
import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np


class NonFiniteBatchError(FloatingPointError):
    """A per-example forward pass produced a non-finite value."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class TrainingDivergedError(FloatingPointError):
    """Training produced non-finite losses, statistics or values; carries the epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@contextmanager
def epoch_guard(epoch: int):
    """Re-raise a FloatingPointError from the block as a TrainingDivergedError naming `epoch`."""
    try:
        yield
    except FloatingPointError as err:
        raise TrainingDivergedError(
            f"training diverged at epoch {epoch}: {err}", epoch=epoch
        ) from err


@dataclass
class Dataset:
    """Feature matrix with integer class labels and per-class index lists."""

    features: np.ndarray  # n x p
    labels: np.ndarray  # n ints in [0, n_classes)
    n_classes: int | None = None
    class_index: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise ValueError(f"features must be n x p, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if self.n_classes is None:
            self.n_classes = int(self.labels.max()) + 1 if self.labels.size else 0
        if self.labels.size and self.labels.max() >= self.n_classes:
            raise ValueError(
                f"label {int(self.labels.max())} outside [0, {self.n_classes})"
            )
        self.class_index = tuple(
            np.flatnonzero(self.labels == c) for c in range(self.n_classes)
        )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FrozenFeatureMap:
    """Fixed random tanh features; drawn once from a seed, never trained."""

    projection: np.ndarray  # p x width
    offset: np.ndarray  # width

    def apply(self, features: np.ndarray) -> np.ndarray:
        """tanh(features @ projection + offset), in the product's own buffer:
        the same bits as the expression, one n x width array instead of two."""
        out = features @ self.projection
        out += self.offset
        return np.tanh(out, out=out)


def make_feature_map(n_features: int, width: int, seed: int) -> FrozenFeatureMap:
    rng = np.random.default_rng([seed, 1])
    projection = rng.standard_normal((n_features, width)) / math.sqrt(n_features)
    offset = rng.uniform(-1.0, 1.0, width)
    return FrozenFeatureMap(projection=projection, offset=offset)


@dataclass
class ModelState:
    """Softmax-head parameters plus an optional frozen feature map."""

    weights: np.ndarray  # n_classes x width
    bias: np.ndarray  # n_classes
    feature_map: FrozenFeatureMap | None = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FactoredGrads:
    """An n x (C*w + C) matrix whose row i is delta_i outer [phi_i, 1].

    The dense layout, which `dense()` builds and which every other method
    works in without building it, is the softmax-head gradient layout:
    the C x w weight block row-major by class, then the C bias entries.
    A per-row factor (the losses, for chg vectors) is folded into delta
    by `scaled`.
    """

    delta: np.ndarray  # n x C
    phi: np.ndarray  # n x w

    def __post_init__(self) -> None:
        delta, phi = np.shape(self.delta), np.shape(self.phi)
        if len(delta) != 2 or len(phi) != 2 or delta[0] != phi[0]:
            raise ValueError(
                f"delta and phi must be 2-D with the same rows, got shapes {delta} and {phi}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        n, c = self.delta.shape
        return n, c * self.phi.shape[1] + c

    def dense(self) -> np.ndarray:
        """The full matrix; O(n * C * w) memory, for tests."""
        n = self.delta.shape[0]
        weight_grads = np.einsum("ic,iq->icq", self.delta, self.phi).reshape(n, -1)
        return np.concatenate([weight_grads, self.delta], axis=1)

    def rows(self, indices) -> "FactoredGrads":
        idx = _row_indices(indices, self.shape[0])
        return FactoredGrads(self.delta[idx], self.phi[idx])

    def scaled(self, factors) -> "FactoredGrads":
        """Rows multiplied by per-row `factors`: an n x C product; phi is shared."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != self.delta.shape[:1]:
            raise ValueError(f"need {self.delta.shape[0]} row factors, got shape {factors.shape}")
        return FactoredGrads(factors[:, None] * self.delta, self.phi)

    @property
    def nbytes(self) -> int:
        """Bytes held by the factors, not the 8 * n * d of the dense matrix."""
        return self.delta.nbytes + self.phi.nbytes

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.delta))) and bool(np.all(np.isfinite(self.phi)))

    def row_sq_norms(self) -> np.ndarray:
        """||x_i||^2 = ||delta_i||^2 (||phi_i||^2 + 1)."""
        delta_sq = np.einsum("ic,ic->i", self.delta, self.delta)
        return delta_sq * (np.einsum("iq,iq->i", self.phi, self.phi) + 1.0)

    def column_sum(self) -> np.ndarray:
        """sum_i x_i, from G = delta^T [Phi, 1]; FloatingPointError if finite rows overflow it.

        From two classes up the bias block is an einsum: it adds the rows
        in the same order as `delta.sum(axis=0)`, the same bits, without
        an inner-loop call per row.  A single column numpy sums pairwise,
        so there `sum` stays.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            weights = self.delta.T @ self.phi
            if self.delta.shape[1] > 1:
                bias = np.einsum("ic->c", self.delta)
            else:
                bias = self.delta.sum(axis=0)
        total = np.concatenate([weights.ravel(), bias])
        if not np.all(np.isfinite(total)):
            raise FloatingPointError("gradient sum overflowed to non-finite numbers")
        return total

    def inner(self, vectors) -> np.ndarray:
        """k x n matrix of <x_i, v_k> for the k rows of `vectors` (k x d)."""
        v = np.asarray(vectors, dtype=float)
        k = v.shape[0]
        c, w = self.delta.shape[1], self.phi.shape[1]
        weights = v[:, : c * w].reshape(k * c, w)
        head = (self.phi @ weights.T).reshape(-1, k, c)
        head += v[:, c * w :]  # in place: no second n x k x C temporary
        return np.einsum("ic,ikc->ki", self.delta, head)


@dataclass
class GradientSet:
    """Per-datum factored gradients and their losses, scanned for
    finiteness and non-negative losses unless built by `_unscanned`."""

    vectors: FactoredGrads  # n x d
    losses: np.ndarray  # n, non-negative

    def __post_init__(self) -> None:
        if not isinstance(self.vectors, FactoredGrads):
            raise TypeError(
                f"vectors must be a FactoredGrads, got {type(self.vectors).__name__}; "
                "value a dense n x d matrix with chg_closed_form_shapley(X, alpha)"
            )
        self.losses = np.asarray(self.losses, dtype=float)
        if self.vectors.shape[0] < 1 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must be n x d with n, d >= 1, got {self.vectors.shape}")
        if self.losses.shape != (self.vectors.shape[0],):
            raise ValueError(
                f"losses must align with vectors: {self.losses.shape} vs {self.vectors.shape}"
            )
        if not (self.vectors.all_finite() and np.all(np.isfinite(self.losses))):
            raise ValueError("non-finite entries in gradient set")
        if np.any(self.losses < 0):
            raise ValueError("losses must be non-negative")

    @classmethod
    def _unscanned(cls, vectors: FactoredGrads, losses: np.ndarray) -> "GradientSet":
        """A set of rows known to be finite with non-negative losses, not scanned again."""
        gs = cls.__new__(cls)
        gs.vectors, gs.losses = vectors, losses
        return gs

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def last_layer_grads(self) -> FactoredGrads:
        # perfbench/layers.py and baseline.py read the pass's gradients by
        # this name; it goes when the benchmark is re-keyed to `vectors`.
        return self.vectors

    def weighted_vectors(self) -> FactoredGrads:
        """Loss-weighted vectors l_i * grad_i: losses folded into delta, phi shared."""
        return self.vectors.scaled(self.losses)

    def restrict(self, indices) -> "GradientSet":
        """The sub-collection at `indices`, not scanned again; ValueError
        for an empty subset or indices `_row_indices` rejects."""
        idx = _row_indices(indices, self.n)
        if idx.size == 0:
            raise ValueError("cannot restrict to an empty subset")
        v = self.vectors  # idx is checked: not `v.rows`, which would check it again
        return self._unscanned(FactoredGrads(v.delta[idx], v.phi[idx]), self.losses[idx])


def _row_indices(indices, n: int) -> np.ndarray:
    """`indices` (a list, set, array or empty collection) as a flat intp
    array of rows in [0, n); ValueError for a bool mask, float indices,
    which would be truncated, or ndim != 1."""
    idx = np.asarray(list(indices) if isinstance(indices, (set, frozenset)) else indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(f"row indices must be flat integers, got {idx.dtype}, shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"row indices out of range for n={n}")
    return idx.astype(np.intp, copy=False)


def init_model(
    dataset_shape: tuple[int, int],
    seed: int,
    hidden_width: int | None = None,
) -> ModelState:
    """Deterministic init: small uniform weights, zero bias.

    `dataset_shape` is (n_features, n_classes).  With `hidden_width` set,
    the head sits on a frozen random feature map of that width.
    """
    n_features, n_classes = dataset_shape
    if n_features < 1 or n_classes < 1:
        raise ValueError(f"bad dataset shape {dataset_shape}")
    check_hidden_width(hidden_width)
    feature_map = None
    width = n_features
    if hidden_width is not None:
        feature_map = make_feature_map(n_features, hidden_width, seed)
        width = hidden_width
    rng = np.random.default_rng([seed, 0])
    weights = rng.uniform(-0.01, 0.01, size=(n_classes, width))
    bias = np.zeros(n_classes)
    return ModelState(weights=weights, bias=bias, feature_map=feature_map)


def head_dataset(model: ModelState, data: Dataset) -> Dataset:
    """`data` as the softmax head sees it: every row through the frozen feature map.

    The map never trains, so a training loop maps its data once with this
    and steps a head whose `feature_map` is None.  Raises
    `NonFiniteBatchError` naming the first row the map overflows on.

    Every tanh output lies in [-1, 1] or is NaN, so the sum of phi is
    finite exactly when every entry is: one pass that allocates nothing.
    The labels are unchanged, so the mapped copy is not scanned again.
    """
    if model.feature_map is None:
        return data
    with np.errstate(over="ignore", invalid="ignore"):
        phi = model.feature_map.apply(data.features)
    if not math.isfinite(float(phi.sum())):
        _check_finite_rows(phi, "feature map output", None)
    mapped = copy.copy(data)
    mapped.features = phi
    return mapped


def _head_inputs(model: ModelState, data: Dataset, idx) -> tuple[np.ndarray, np.ndarray]:
    """Head inputs and labels of the checked rows `idx`; with None, `data`'s own arrays."""
    if idx is None:
        phi, labels = data.features, data.labels
    else:
        phi, labels = data.features[idx], data.labels[idx]
    if model.feature_map is not None:
        phi = model.feature_map.apply(phi)
    return phi, labels


# Below this many classes numpy adds up a row left to right, so a fold of
# column adds gives its bits; from here up it sums a row pairwise.
_FOLD_CLASSES = 8


def _label_positions(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Flat positions of (i, labels[i]) in a C-contiguous n x `n_classes` array."""
    return np.arange(0, labels.size * n_classes, n_classes) + labels


def _check_finite_rows(values: np.ndarray, what: str, indices) -> None:
    """NonFiniteBatchError naming the data row of the first row of `values`
    (n or n x C) with a non-finite entry; `indices` are checked rows or None."""
    finite = np.isfinite(values)
    if finite.all():
        return
    if finite.ndim > 1:
        finite = finite.all(axis=1)
    bad = int(np.flatnonzero(~finite)[0])
    if indices is not None:
        bad = int(indices[bad])
    raise NonFiniteBatchError(f"non-finite {what} at example {bad}", index=bad)


def _subtract_per_row(logits: np.ndarray, columns, values: np.ndarray) -> None:
    """logits -= values[:, None] in place, column by column when `columns` are given."""
    if columns:
        for column in columns:
            column -= values
    else:
        logits -= values[:, None]


def _probs_and_losses(
    model: ModelState, phi: np.ndarray, labels: np.ndarray, indices
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities and cross-entropy losses in two n x C buffers.

    The textbook pass, shifted = z - max_c z, log_z = log sum_c
    exp(shifted), probs = exp(shifted - log_z), allocates four n x C
    arrays.  Here the logits buffer is shifted, and later moved by log_z,
    in place, and the probabilities are exp'd into the second buffer
    twice, so every element goes through the same operations and the
    bits are the same.  Below `_FOLD_CLASSES` classes the row-wise steps
    run on column views: numpy takes one inner-loop call per row for a
    reduction or broadcast along so short an axis, and sums such a row in
    the same left-to-right order as the fold of columns.
    """
    c = model.n_classes
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the row
        logits = phi @ model.weights.T
        columns = [logits[:, k] for k in range(c)] if c < _FOLD_CLASSES else None
        if columns:
            for column, bias in zip(columns, model.bias):
                column += bias
        else:
            logits += model.bias
    _check_finite_rows(logits, "logits", indices)
    # A max of finite numbers is exact in any order, so it folds at every C.
    row_max = logits[:, 0].copy()
    for k in range(1, c):
        np.maximum(row_max, logits[:, k], out=row_max)
    with np.errstate(over="ignore"):  # logits further apart than the float range: checked below
        _subtract_per_row(logits, columns, row_max)
    del row_max
    probs = np.exp(logits)
    if columns:
        row_sum = probs[:, 0].copy()
        for k in range(1, c):
            row_sum += probs[:, k]
    else:
        row_sum = probs.sum(axis=1)
    log_z = np.log(row_sum, out=row_sum)
    losses = log_z - logits.reshape(-1)[_label_positions(labels, c)]
    _check_finite_rows(losses, "loss", indices)
    _subtract_per_row(logits, columns, log_z)
    np.exp(logits, out=probs)
    return probs, losses


def per_example_loss_and_grad(model: ModelState, data: Dataset, indices=None) -> GradientSet:
    """Softmax cross-entropy loss and exact last-layer gradient per example.

    Row i of the gradient is the weight gradient (softmax(z_i) -
    onehot(y_i)) outer phi_i, row-major by class, followed by the bias
    gradient; it is returned factored, never built.  Example i's row
    depends only on example i and the current parameters.  Logits and
    losses are checked finite, and a loss, log_z - (z_y - max z) with
    log_z >= 0, is never negative, so the set is returned unscanned.
    """
    idx = None if indices is None else _row_indices(indices, data.n)
    phi, labels = _head_inputs(model, data, idx)
    delta, losses = _probs_and_losses(model, phi, labels, idx)
    # delta is C-contiguous, so reshape(-1) is a view and the subtraction lands in it.
    delta.reshape(-1)[_label_positions(labels, delta.shape[1])] -= 1.0
    return GradientSet._unscanned(FactoredGrads(delta, phi), losses)


def batch_loss(model: ModelState, data: Dataset, indices=None) -> float:
    """Mean cross-entropy over the batch."""
    return float(per_example_loss_and_grad(model, data, indices).losses.mean())


def accuracy(model: ModelState, data: Dataset) -> float:
    phi, labels = _head_inputs(model, data, None)
    logits = phi @ model.weights.T + model.bias
    return float(np.mean(logits.argmax(axis=1) == labels))


def check_hidden_width(width: int | None) -> None:
    """A frozen map's width is None (no map) or an int >= 1; a bool is refused."""
    if width is not None and (
        isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1
    ):
        raise ValueError(f"hidden_width must be None or an int >= 1, got {width!r}")


def check_learning_rate(lr: float) -> None:
    """Training steps at one constant rate, which must be finite and > 0."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be a finite number > 0, got {lr}")


def sgd_step_weighted(model: ModelState, grads: FactoredGrads, lr: float) -> ModelState:
    """One step theta <- theta - lr * (1/n) sum_i x_i over the n rows of `grads`.

    `grads` are the per-example gradients at `model`; `grads.scaled(w)`
    weights the step.  Returns a new state; the input model is untouched.
    Raises FloatingPointError when the gradient sum or the new parameters
    overflow, so the step's own epoch reports it.
    """
    grad = grads.column_sum() / grads.shape[0]
    split = model.weights.size
    with np.errstate(over="ignore", invalid="ignore"):
        weights = model.weights - lr * grad[:split].reshape(model.weights.shape)
        bias = model.bias - lr * grad[split:]
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise FloatingPointError("SGD step overflowed the parameters to non-finite numbers")
    return replace(model, weights=weights, bias=bias)


def softmax_gradient_lipschitz_bound(model: ModelState, data: Dataset) -> float:
    """A gradient-Lipschitz constant of the mean cross-entropy over `data`.

    The softmax Hessian in logit space is bounded by I/2, so
    L = mean_i ||[phi_i, 1]||^2 / 2 works for the flattened head params.
    """
    phi, _ = _head_inputs(model, data, None)
    return float(0.5 * np.mean(np.einsum("iq,iq->i", phi, phi) + 1.0))


# ---------------------------------------------------------------------------
# CSV files.  Every table the package writes goes through _write_csv; a
# dataset is a header row, feature columns, then one integer label column.
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 1024  # rows converted to Python objects at a time
_INTP = np.iinfo(np.intp)


def _write_csv(path, header, row_format: str, columns) -> None:
    """Write `header`, then row i as `row_format % (c[i] for c in columns)`.

    Fields are comma-separated and unquoted, and lines end in "\r\n": the
    bytes csv.writer writes for fields with no comma, quote or line
    break.  `columns` are equal-length arrays; a chunk of rows is converted
    with `.tolist()` and formatted by one `%`, so peak memory stays flat in
    the number of rows.
    """
    n = len(columns[0])
    for name, column in zip(header, columns):
        if len(column) != n:
            raise ValueError(f"{path}: column {name!r} has {len(column)} rows, expected {n}")
    width = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, n)
            fields = [None] * ((stop - start) * width)
            for j, column in enumerate(columns):
                fields[j::width] = column[start:stop].tolist()
            fh.write((row_format + "\r\n") * (stop - start) % tuple(fields))


def load_dataset_csv(path) -> Dataset:
    """Read `feature..., label` rows; labels must cover 0..C-1 with no gaps.

    Blank lines are skipped; any other malformed row raises ValueError
    naming the file and line.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError(f"{path}: need a header with >= 1 feature column plus label")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(tok) for tok in row[:-1]]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: non-finite feature")
            features.append(values)
            try:
                label = int(row[-1])
            except ValueError:
                raise ValueError(f"{where}: label {row[-1]!r} is not an integer") from None
            if not _INTP.min <= label <= _INTP.max:
                raise ValueError(f"{where}: label {row[-1]!r} is out of range")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    label_array = np.array(labels, dtype=np.intp)
    present = np.unique(label_array)
    if present[0] != 0 or present[-1] != present.size - 1:
        raise ValueError(
            f"{path}: labels must be contiguous 0..C-1, found {present.tolist()}"
        )
    return Dataset(features=np.array(features), labels=label_array)


def save_dataset_csv(data: Dataset, path) -> None:
    p = data.n_features
    _write_csv(
        path,
        [f"feat_{j}" for j in range(p)] + ["label"],
        ",".join(["%.17g"] * p + ["%d"]),
        [data.features[:, j] for j in range(p)] + [data.labels],
    )
