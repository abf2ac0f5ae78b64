"""Linear-softmax models with analytic per-example losses and last-layer gradients.

The model is a softmax head on the raw features or on a frozen random
feature map, so per-example gradients are exact closed-form expressions.
Example i's flattened gradient row is the outer product of its logit
residual delta_i (classes) and its head input [phi_i, 1] (width + 1), so
the n gradient rows are kept in that factored form: O(n * (classes +
width)) memory instead of the O(n * classes * width) dense matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np


class NonFiniteBatchError(FloatingPointError):
    """A per-example forward pass produced a non-finite value."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
        return np.tanh(features @ self.projection + self.offset)

    @property
    def width(self) -> int:
        return self.projection.shape[1]


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

    @property
    def width(self) -> int:
        return self.weights.shape[1]

    @property
    def n_parameters(self) -> int:
        return self.weights.size + self.bias.size


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
        idx = np.asarray(indices, dtype=np.intp)
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
        """sum_i x_i, from G = delta^T [Phi, 1]."""
        return np.concatenate([(self.delta.T @ self.phi).ravel(), self.delta.sum(axis=0)])

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
class PerExampleBatchResult:
    """Per-example cross-entropy losses and factored last-layer gradients."""

    losses: np.ndarray  # m
    last_layer_grads: FactoredGrads  # m x (n_classes * width + n_classes)


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
    feature_map = None
    width = n_features
    if hidden_width is not None:
        if hidden_width < 1:
            raise ValueError(f"hidden_width must be positive, got {hidden_width}")
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
    """
    if model.feature_map is None:
        return data
    with np.errstate(over="ignore", invalid="ignore"):
        phi = model.feature_map.apply(data.features)
    finite = np.all(np.isfinite(phi), axis=1)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteBatchError(f"non-finite feature map output at example {bad}", index=bad)
    return Dataset(phi, data.labels, data.n_classes)


def _head_inputs(model: ModelState, data: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    if indices is None:
        idx = np.arange(data.n, dtype=np.intp)
        phi = data.features
    else:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= data.n):
            raise ValueError(f"indices out of range for n={data.n}")
        phi = data.features[idx]
    if model.feature_map is not None:
        phi = model.feature_map.apply(phi)
    return idx, phi


def _probs_and_losses(
    model: ModelState, phi: np.ndarray, labels: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    logits = phi @ model.weights.T + model.bias
    if not np.all(np.isfinite(logits)):
        bad = int(idx[np.flatnonzero(~np.all(np.isfinite(logits), axis=1))[0]])
        raise NonFiniteBatchError(f"non-finite logits at example {bad}", index=bad)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(labels.size)
    losses = log_z - shifted[rows, labels]
    probs = np.exp(shifted - log_z[:, None])
    return probs, losses


def per_example_loss_and_grad(
    model: ModelState, data: Dataset, indices=None
) -> PerExampleBatchResult:
    """Softmax cross-entropy loss and exact last-layer gradient per example.

    Row i of the gradient is the weight gradient (softmax(z_i) -
    onehot(y_i)) outer phi_i, row-major by class, followed by the bias
    gradient; it is returned factored, never built.  Example i's row
    depends only on example i and the current parameters.
    """
    idx, phi = _head_inputs(model, data, indices)
    labels = data.labels[idx]
    probs, losses = _probs_and_losses(model, phi, labels, idx)
    delta = probs
    delta[np.arange(labels.size), labels] -= 1.0
    return PerExampleBatchResult(losses=losses, last_layer_grads=FactoredGrads(delta, phi))


def per_example_losses(model: ModelState, data: Dataset, indices=None) -> np.ndarray:
    """Per-example cross-entropy, without any gradient."""
    idx, phi = _head_inputs(model, data, indices)
    return _probs_and_losses(model, phi, data.labels[idx], idx)[1]


def batch_loss(model: ModelState, data: Dataset, indices=None) -> float:
    """Mean cross-entropy over the batch."""
    return float(per_example_losses(model, data, indices).mean())


def accuracy(model: ModelState, data: Dataset, indices=None) -> float:
    idx, phi = _head_inputs(model, data, indices)
    logits = phi @ model.weights.T + model.bias
    return float(np.mean(logits.argmax(axis=1) == data.labels[idx]))


def check_learning_rate(lr: float) -> None:
    """Training steps at one constant rate, which must be finite and > 0."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be a finite number > 0, got {lr}")


def sgd_step_weighted(model: ModelState, grads: FactoredGrads, lr: float) -> ModelState:
    """One step theta <- theta - lr * (1/n) sum_i x_i over the n rows of `grads`.

    `grads` are the per-example gradients at `model`; `grads.scaled(w)`
    weights the step.  Returns a new state; the input model is untouched.
    """
    grad = grads.column_sum() / grads.shape[0]
    split = model.weights.size
    return replace(
        model,
        weights=model.weights - lr * grad[:split].reshape(model.weights.shape),
        bias=model.bias - lr * grad[split:],
    )


def softmax_gradient_lipschitz_bound(model: ModelState, data: Dataset, indices=None) -> float:
    """A gradient-Lipschitz constant of the batch-mean cross-entropy.

    The softmax Hessian in logit space is bounded by I/2, so
    L = mean_i ||[phi_i, 1]||^2 / 2 works for the flattened head params.
    """
    idx, phi = _head_inputs(model, data, indices)
    return float(0.5 * np.mean(np.einsum("iq,iq->i", phi, phi) + 1.0))


# ---------------------------------------------------------------------------
# CSV ingestion: header row, feature columns, then one integer label column
# ---------------------------------------------------------------------------

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
                labels.append(int(row[-1]))
            except ValueError:
                raise ValueError(f"{where}: label {row[-1]!r} is not an integer") from None
    if not labels:
        raise ValueError(f"{path}: no data rows")
    label_array = np.array(labels, dtype=np.intp)
    present = np.unique(label_array)
    expected = np.arange(label_array.max() + 1)
    if label_array.min() < 0 or present.size != expected.size or np.any(present != expected):
        raise ValueError(
            f"{path}: labels must be contiguous 0..C-1, found {present.tolist()}"
        )
    return Dataset(features=np.array(features), labels=label_array)


def save_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feat_{j}" for j in range(data.n_features)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])
