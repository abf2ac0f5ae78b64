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
It runs class-major in blocks of at most `_BLOCK_ROWS` rows: a block's
logits are C x B, one contiguous row per class, and every row-wise step
is a fold over the class rows, the exp row sum a replay of numpy's
pairwise order for a row (`_class_sum`), so the probabilities and losses
keep the bits of the textbook row-major pass.  delta is held class-major
(C x n), and every factor product runs in the same blocks, as does the
column sum a removal arm steps on (`mean_gradient`), which never holds
delta.
"""

from __future__ import annotations

import copy
import csv
import ctypes
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
        # A finite sum has only finite terms; finite rows whose sum
        # overflows still go through the scan.
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.features.sum())
        if not math.isfinite(total) and not np.all(np.isfinite(self.features)):
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
    by `scaled`.  delta is held class-major: `.delta` is the n x C view
    `.T` of a C-contiguous C x n array, copied into that layout when
    given another, and every product runs in blocks of `_BLOCK_ROWS` rows.
    """

    delta: np.ndarray  # n x C, the view .T of a C x n C-contiguous array
    phi: np.ndarray  # n x w

    def __post_init__(self) -> None:
        delta, phi = np.shape(self.delta), np.shape(self.phi)
        if len(delta) != 2 or len(phi) != 2 or delta[0] != phi[0]:
            raise ValueError(
                f"delta and phi must be 2-D with the same rows, got shapes {delta} and {phi}"
            )
        object.__setattr__(self, "delta", np.ascontiguousarray(np.asarray(self.delta).T).T)

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
        return self._take(_row_indices(indices, self.shape[0]))

    def _take(self, idx: np.ndarray) -> "FactoredGrads":
        """The rows at checked indices `idx`.  np.take copies the same rows
        as fancy indexing, faster on narrow rows."""
        delta = np.take(self.delta.T, idx, axis=1)
        return FactoredGrads(delta.T, np.take(self.phi, idx, axis=0))

    def scaled(self, factors) -> "FactoredGrads":
        """Rows multiplied by per-row `factors`: a C x n product; phi is shared."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != self.delta.shape[:1]:
            raise ValueError(f"need {self.delta.shape[0]} row factors, got shape {factors.shape}")
        return FactoredGrads((self.delta.T * factors).T, self.phi)

    @property
    def nbytes(self) -> int:
        """Bytes held by the factors, not the 8 * n * d of the dense matrix."""
        return self.delta.nbytes + self.phi.nbytes

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.delta))) and bool(np.all(np.isfinite(self.phi)))

    def row_sq_norms(self) -> np.ndarray:
        """||x_i||^2 = ||delta_i||^2 (||phi_i||^2 + 1)."""
        norms = np.einsum("iq,iq->i", self.phi, self.phi)
        norms += 1.0
        delta = self.delta.T
        for rows in _blocks(norms.size):
            norms[rows] *= np.einsum("ci,ci->i", delta[:, rows], delta[:, rows])
        return norms

    def column_sum(self) -> np.ndarray:
        """sum_i x_i, from G = delta^T [Phi, 1] added up block by block;
        FloatingPointError if finite rows overflow it."""
        delta = self.delta.T
        blocks = ((rows, self.phi[rows], delta[:, rows]) for rows in _blocks(self.shape[0]))
        return _column_sum(blocks, self.shape[1])

    def inner(self, vector) -> np.ndarray:
        """<x_i, v> for every row i, for one length-d `vector`: per block a
        C x B head V phi_b^T + v_bias, dotted with delta class by class."""
        v = np.asarray(vector, dtype=float)
        c, w = self.delta.shape[1], self.phi.shape[1]
        weights, bias = v[: c * w].reshape(c, w), v[c * w :, None]
        delta = self.delta.T
        out = np.empty(self.shape[0])
        for rows in _blocks(out.size):
            head = weights @ self.phi[rows].T
            head += bias  # in place: no second C x B temporary
            out[rows] = np.einsum("ci,ci->i", delta[:, rows], head)
        return out


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

    def restrict(self, indices) -> "GradientSet":
        """The sub-collection at `indices`, not scanned again; ValueError
        for an empty subset or indices `_row_indices` rejects."""
        idx = _row_indices(indices, self.n)
        if idx.size == 0:
            raise ValueError("cannot restrict to an empty subset")
        return self._unscanned(self.vectors._take(idx), np.take(self.losses, idx))


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


try:  # glibc only; other C libraries keep freed pages with the allocator
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS, where the C library can.

    Freed arrays below glibc's self-raising mmap threshold leave resident
    holes in the heap.  Whether a new n x p array reuses one or grows the
    heap depends on unrelated small allocations, so a process that builds
    several datasets or valuation runs would otherwise change its resident
    size by whole arrays from one seed to the next.  Called before each
    synthetic build and once per valuation run, after the head's inputs
    are mapped.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


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
        # np.take copies the same rows as data.features[idx], faster on narrow rows.
        phi, labels = np.take(data.features, idx, axis=0), data.labels[idx]
    if model.feature_map is not None:
        phi = model.feature_map.apply(phi)
    return phi, labels


# Rows per block of the forward pass and of every factor product: a block's
# C x B arrays stay in cache, and a pass holds no n x C temporary.
_BLOCK_ROWS = 16384


def _blocks(n: int):
    """Slices of at most `_BLOCK_ROWS` consecutive rows covering range(n), in order."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of the rows of a C x B block in numpy's pairwise order, the
    bits of `sum(axis=1)` on the B x C transpose: left to right below 8
    rows; up to 128, eight accumulator rows advanced 8 rows at a time, then
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the rows left over in order;
    above, the two halves split at a multiple of 8."""
    n = rows.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(rows[:half]) + _class_sum(rows[half:])
    if n < 8:
        total, rest = rows[0].copy(), rows[1:]
    else:
        stop = n - n % 8
        r = rows[:8]
        for i in range(8, stop, 8):
            r = r + rows[i : i + 8]
        total, right = r[0] + r[1], r[4] + r[5]  # each pair's sum in its left buffer
        total += r[2] + r[3]
        right += r[6] + r[7]
        total += right
        rest = rows[stop:]
    for row in rest:
        total += row
    return total


def _column_sum(blocks, d: int) -> np.ndarray:
    """sum_i delta_i outer [phi_i, 1], flattened, from blocks (rows, phi_b,
    delta_b, ...) with delta_b class-major: each block's delta_b @ phi_b and
    row sums, added in block order; FloatingPointError if finite rows
    overflow it."""
    total = None
    for _, phi, delta, *_ in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            part = np.concatenate([(delta @ phi).ravel(), delta.sum(axis=1)])
            # Not 0 + part for the first block, which would turn a -0.0 into 0.0.
            total = part if total is None else np.add(total, part, out=total)
        del phi, delta  # before the next block is made
    if total is None:
        return np.zeros(d)
    if not np.all(np.isfinite(total)):
        raise FloatingPointError("gradient sum overflowed to non-finite numbers")
    return total


def _check_finite_rows(values: np.ndarray, what: str, indices, start: int = 0) -> None:
    """NonFiniteBatchError naming the data row of the first row of `values`
    (n or n x k, the rows from `start` on) with a non-finite entry;
    `indices` are checked rows or None."""
    finite = np.isfinite(values)
    if finite.all():
        return
    if finite.ndim > 1:
        finite = finite.all(axis=1)
    bad = start + int(np.flatnonzero(~finite)[0])
    if indices is not None:
        bad = int(indices[bad])
    raise NonFiniteBatchError(f"non-finite {what} at example {bad}", index=bad)


def _forward(model: ModelState, phi, labels, indices, out=None, gather=False, delta=True):
    """The forward pass, class-major, one block of at most `_BLOCK_ROWS` rows
    at a time: yields (rows, phi_b, delta_b, losses_b) per block, where
    delta_b = softmax(z) - onehot(y), C x B, is written into `out[:, rows]`
    of a C-contiguous C x n `out` (into a new block when `out` is None).
    The one place delta is formed; with `delta` False the block holds the
    probabilities alone.

    `phi` and `labels` are the head inputs of the pass's rows, or with
    `gather` the data's own arrays, from which each block takes its rows
    `indices[rows]`.  `indices` (checked rows, or None for every row) name
    the data row of a non-finite logit or loss in a NonFiniteBatchError.
    """
    n = indices.size if gather else labels.size
    for rows in _blocks(n):
        yield rows, *_forward_block(model, phi, labels, indices, rows, out, gather, delta)


def _forward_block(model, phi, labels, indices, rows, out, gather, delta):
    """(phi_b, delta_b, losses_b) of one block of `_forward`: a function of
    its own, so that `_forward` holds nothing of a block while it makes the
    next.

    The logits are W phi_b^T + b, one contiguous row per class, and every
    row-wise step is a fold over those class rows: the max, exact in any
    order; the exp row sum in the order numpy sums a row of a row-major
    block (`_class_sum`); the shift by the max and then by log_z, in place.
    Every element goes through the operations of the textbook row-major
    pass, shifted = z - max_c z, log_z = log sum_c exp(shifted), probs =
    exp(shifted - log_z), so the probabilities and losses have its bits.
    """
    if gather:
        taken = indices[rows]
        phi_b, labels_b = np.take(phi, taken, axis=0), labels[taken]
    else:
        phi_b, labels_b = phi[rows], labels[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the row
        logits = model.weights @ phi_b.T
        logits += model.bias[:, None]
    _check_finite_rows(logits.T, "logits", indices, rows.start)
    with np.errstate(over="ignore"):  # logits further apart than the float range: checked below
        logits -= logits.max(axis=0)  # a fold of np.maximum over the class rows
    probs = np.exp(logits) if out is None else np.exp(logits, out=out[:, rows])
    log_z = _class_sum(probs)
    np.log(log_z, out=log_z)
    # The label's entry of each column, by flat position in the contiguous logits.
    cols = np.arange(labels_b.size)
    losses = log_z - np.take(logits, labels_b * labels_b.size + cols)
    _check_finite_rows(losses, "loss", indices, rows.start)
    logits -= log_z
    np.exp(logits, out=probs)
    if delta:  # by flat position in the block, or in `out` from the block's first column
        base, cols = (probs, cols) if out is None else (out, cols + rows.start)
        base.reshape(-1)[labels_b * base.shape[1] + cols] -= 1.0
    return phi_b, probs, losses


def per_example_loss_and_grad(model: ModelState, data: Dataset, indices=None) -> GradientSet:
    """Softmax cross-entropy loss and exact last-layer gradient per example.

    Row i of the gradient is the weight gradient (softmax(z_i) -
    onehot(y_i)) outer phi_i, row-major by class, followed by the bias
    gradient; it is returned factored, never built, with delta filled
    class-major block by block.  Example i's row depends only on example
    i and the current parameters.  Logits and losses are checked finite,
    and a loss, log_z - (z_y - max z) with log_z >= 0, is never negative,
    so the set is returned unscanned.
    """
    idx = None if indices is None else _row_indices(indices, data.n)
    phi, labels = _head_inputs(model, data, idx)
    delta = np.empty((model.n_classes, labels.size))
    losses = np.empty(labels.size)
    for rows, _, _, block_losses in _forward(model, phi, labels, idx, delta):
        losses[rows] = block_losses
    return GradientSet._unscanned(FactoredGrads(delta.T, phi), losses)


def mean_gradient(model: ModelState, data: Dataset, indices=None) -> np.ndarray:
    """(1/n) sum_i x_i over the rows `indices` (every row with None) of the
    per-example gradients at `model`, flattened as `FactoredGrads` lays a row out.

    The sum is added up block by block as the forward pass makes each
    block's delta, in the order `FactoredGrads.column_sum` adds it, so a
    step on it has the bits of a step on the pass's factors.  No n x C
    delta is held, nor, for a head on the raw features, an n x w copy of
    the rows.  Raises the pass's NonFiniteBatchError and the sum's
    FloatingPointError.
    """
    idx = None if indices is None else _row_indices(indices, data.n)
    phi, labels = _head_inputs(model, data, None)
    n = data.n if idx is None else idx.size
    blocks = _forward(model, phi, labels, idx, gather=idx is not None)
    return _column_sum(blocks, model.weights.size + model.bias.size) / n


def batch_loss(model: ModelState, data: Dataset, indices=None) -> float:
    """Mean cross-entropy over the batch."""
    return float(per_example_loss_and_grad(model, data, indices).losses.mean())


def accuracy(model: ModelState, data: Dataset) -> float:
    """Share of rows whose largest logit is their label's, from class-major blocks."""
    if data.n < 1:
        raise ValueError("evaluation set is empty")
    phi, labels = _head_inputs(model, data, None)
    correct = 0
    for rows in _blocks(data.n):
        logits = model.weights @ phi[rows].T
        logits += model.bias[:, None]
        correct += int(np.count_nonzero(logits.argmax(axis=0) == labels[rows]))
    return correct / data.n


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
    weights the step.  Raises FloatingPointError when the gradient sum
    overflows, and as `sgd_step` does.
    """
    return sgd_step(model, grads.column_sum() / grads.shape[0], lr)


def sgd_step(model: ModelState, grad: np.ndarray, lr: float) -> ModelState:
    """One step theta <- theta - lr * grad on a flattened head gradient.

    Returns a new state; the input model is untouched.  Raises
    FloatingPointError when the new parameters overflow, so the step's
    own epoch reports it.
    """
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
