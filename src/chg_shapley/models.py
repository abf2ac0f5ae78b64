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
is a fold over the class rows, the exp row sum a left fold
(`_class_sum`), so below 8 classes the losses keep the bits of the
textbook row-major pass.  The probabilities are the exps over that sum,
one exp per logit, as the softmax is defined.  delta is held class-major
(C x n), and every factor product runs in the same blocks, as does the
column sum the removal arms step on (`mean_gradient`), which never holds
delta.  The same kernel runs a stack of heads, each on a suffix of one
row order, in one pass: a span's rows are gathered once and its logits
are one product for every head that keeps them.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import json
import math
import os
import stat
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
        self.labels = _integer_labels(self.labels)
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
    """Softmax-head parameters plus an optional frozen feature map; or, with
    a leading axis, a stack of heads trained side by side."""

    weights: np.ndarray  # n_classes x width, or heads x n_classes x width
    bias: np.ndarray  # n_classes, or heads x n_classes
    feature_map: FrozenFeatureMap | None = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[-2]


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
        return _column_sum(blocks, self.shape[1:])

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


def _integer_labels(labels) -> np.ndarray:
    """`labels` as an intp array; ValueError for a non-empty array whose
    dtype is not an integer dtype: floats would be truncated, and bools
    and strings read as numbers."""
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    return labels.astype(np.intp, copy=False)


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
    and steps a head whose `feature_map` is None; every pass takes its head
    inputs from here too, `data` itself for a model with no map.  Raises
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


# Rows per block of the forward pass and of every factor product: a block's
# C x B arrays stay in cache, and a pass holds no n x C temporary.
_BLOCK_ROWS = 16384


def _blocks(n: int):
    """Slices of at most `_BLOCK_ROWS` consecutive rows covering range(n), in order."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of the class rows of a C x B block, or of each head's in an
    a x C x B stack, added left to right.  Below 8 rows this is the order of
    numpy's `sum(axis=1)` on the B x C transpose; from 8 up it may differ
    from that pairwise sum by rounding."""
    total = rows[..., 0, :].copy()
    for c in range(1, rows.shape[-2]):
        total += rows[..., c, :]
    return total


def _column_sum(blocks, shape) -> np.ndarray:
    """sum_i delta_i outer [phi_i, 1], flattened, of `shape` (d,), or (a, d)
    for a stack of a heads, from blocks (rows, phi_b, delta_b, ...) with
    delta_b class-major: C x B, or m x C x B for the stack's first m heads.
    Each block's delta_b @ phi_b and row sums are added into its heads'
    totals in block order, a head's first block taken as it is (0 + part
    would turn a -0.0 into 0.0); FloatingPointError if finite rows overflow it."""
    total = np.zeros(shape)
    heads = total.reshape(-1, shape[-1])  # a x d view; a = 1 for (d,)
    seen = 0  # heads whose total holds a block
    for _, phi, delta, *rest in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            product = (delta.reshape(-1, delta.shape[-1]) @ phi).reshape(*delta.shape[:-2], -1)
            part = np.concatenate([product, delta.sum(axis=-1)], axis=-1).reshape(-1, shape[-1])
            np.add(heads[:seen], part[:seen], out=heads[:seen])
        heads[seen : part.shape[0]] = part[seen:]
        seen = part.shape[0]
        del phi, delta, rest, product, part  # before the next block is made
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


def _forward(model: ModelState, phi, labels, indices, out=None, spans=None):
    """The forward pass, class-major, one block of at most `_BLOCK_ROWS` rows
    at a time: yields (rows, phi_b, delta_b, losses_b) per block, where
    delta_b = softmax(z) - onehot(y), C x B, is written into `out[:, rows]`
    of a C-contiguous C x n `out` (into a new block when `out` is None).
    The one place delta is formed.

    `phi` and `labels` are the head inputs of the pass's rows.  `indices`
    (checked rows, or None for every row) name the data row of a non-finite
    logit or loss in a NonFiniteBatchError.

    Given `spans`, the pass walks a stack of heads (weights a x C x w, bias
    a x C) over the data's own `phi` and `labels` instead: each span
    (positions, m) gathers the rows `indices[positions]` (the rows
    `positions` when `indices` is None) once and runs them on the first m
    heads, so its delta_b is m x C x B and its losses_b m x B.
    """
    gather = spans is not None and indices is not None
    if spans is None:  # every block on the whole model: [:None] takes it all
        spans = ((rows, None) for rows in _blocks(labels.size))
    for rows, m in spans:
        yield rows, *_forward_block(
            model.weights[:m], model.bias[:m], phi, labels, indices, rows, out, gather
        )


def _forward_block(weights, bias, phi, labels, indices, rows, out, gather):
    """(phi_b, delta_b, losses_b) of one block of `_forward`, on the heads
    `weights` and `bias`: a function of its own, so that `_forward` holds
    nothing of a block while it makes the next.

    The logits are W phi_b^T + b, one contiguous row per class (for a stack,
    every head's C rows in one a*C x B product), and every row-wise step is
    a fold over a head's class rows: the max, exact in any order; the exp
    row sum, left to right (`_class_sum`).  In place, s = logits - max_c
    logits and e = exp(s), one exp per logit; z = sum_c e; the losses are
    log z - s_y, with the bits of the textbook row-major pass below 8
    classes; and the probabilities are e / z.
    """
    if gather:  # np.take copies the same rows as phi[taken], faster on narrow rows
        taken = indices[rows]
        phi, labels = np.take(phi, taken, axis=0), labels[taken]
    else:
        phi, labels = phi[rows], labels[rows]
    lead = bias.shape[:-1]  # () for one head, (a,) for a stack of a
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the row
        logits = weights.reshape(-1, weights.shape[-1]) @ phi.T
        logits += bias.reshape(-1, 1)
    _check_finite_rows(logits.T, "logits", indices, rows.start)
    logits = logits.reshape(*bias.shape, -1)  # each head's C x B block
    with np.errstate(over="ignore"):  # logits further apart than the float range: checked below
        logits -= logits.max(axis=-2, keepdims=True)  # a fold of np.maximum over the class rows
    probs = np.exp(logits) if out is None else np.exp(logits, out=out[:, rows])
    z = _class_sum(probs)
    # The label's entry of each column, by flat position in a head's contiguous logits.
    cols = np.arange(labels.size)
    losses = np.log(z) - np.take(logits.reshape(*lead, -1), labels * labels.size + cols, axis=-1)
    _check_finite_rows(losses.T, "loss", indices, rows.start)
    probs /= z[..., None, :]
    # delta, by flat position in a head's block, or in `out` from the block's first column.
    base, cols = (probs, cols) if out is None else (out, cols + rows.start)
    flat = labels * base.shape[-1] + cols
    for head in base.reshape(-1, base.shape[-2] * base.shape[-1]):
        head[flat] -= 1.0
    return phi, probs, losses


def per_example_loss_and_grad(model: ModelState, data: Dataset, indices=None) -> GradientSet:
    """Softmax cross-entropy loss and exact last-layer gradient per example.

    Row i of the gradient is the weight gradient (softmax(z_i) -
    onehot(y_i)) outer phi_i, row-major by class, followed by the bias
    gradient; it is returned factored, never built, with delta filled
    class-major block by block.  Example i's row depends only on example
    i and the current parameters; the rows `indices` are gathered from
    `head_dataset`'s.  With s the logits less their max, the probabilities
    are exp(s) over their sum z.  Logits and losses are checked finite, and
    a loss, log z - s_y with z >= 1 and s_y <= 0, is never negative, so the
    set is returned unscanned.
    """
    idx = None if indices is None else _row_indices(indices, data.n)
    data = head_dataset(model, data)
    phi, labels = data.features, data.labels
    if idx is not None:  # np.take copies the same rows as phi[idx], faster on narrow rows
        phi, labels = np.take(phi, idx, axis=0), labels[idx]
    delta = np.empty((model.n_classes, labels.size))
    losses = np.empty(labels.size)
    for rows, _, _, block_losses in _forward(model, phi, labels, idx, delta):
        losses[rows] = block_losses
    return GradientSet._unscanned(FactoredGrads(delta.T, phi), losses)


def mean_gradient(model: ModelState, data: Dataset, indices=None, starts=(0,)) -> np.ndarray:
    """(1/n) sum_i x_i over the rows `indices` (every row with None) of the
    per-example gradients at `model`, flattened as `FactoredGrads` lays a row out.

    The sum is added up block by block as the forward pass makes each
    block's delta, in the order `FactoredGrads.column_sum` adds it, so a
    step on it has the bits of a step on the pass's factors.  No n x C
    delta is held, nor, for a head on the raw features, an n x w copy of
    the rows.  Raises the pass's NonFiniteBatchError and the sum's
    FloatingPointError.

    For a stack of a heads (weights a x C x w, bias a x C), `starts` holds a
    ascending positions in `indices`, and row j of the a x d result is head
    j's mean over the rows `indices[starts[j]:]`.  The positions are walked
    once, in spans cut at every start: each span's rows are gathered once
    and run on the heads whose rows cover it, a prefix of the stack.  One
    head walks the pass's own blocks.  The rows and logits of a span of a > 1
    heads fill half a block of one, B (w + aC) <= `_BLOCK_ROWS` (w + C) / 2,
    which leaves room for its exps and per-head folds: its peak stays below
    a block's.
    """
    idx = None if indices is None else _row_indices(indices, data.n)
    data = head_dataset(model, data)
    n = data.n if idx is None else idx.size
    c, w = model.weights.shape[-2:]
    stack = ModelState(model.weights.reshape(-1, c, w), model.bias.reshape(-1, c))
    a = len(starts)
    size = _BLOCK_ROWS if a == 1 else max(1, _BLOCK_ROWS * (w + c) // (2 * (w + a * c)))
    blocks = _forward(stack, data.features, data.labels, idx, spans=_spans(starts, n, size))
    means = _column_sum(blocks, (a, c * (w + 1))) / (n - np.asarray(starts))[:, None]
    return means.reshape(*model.bias.shape[:-1], -1)


def _spans(starts, n: int, size: int):
    """(positions, m) pairs walking the positions from starts[0] to n in
    order, cut at every start and into runs of at most `size`: m is the
    number of starts at or before the run."""
    for m, (lo, hi) in enumerate(zip(starts, [*starts[1:], n]), start=1):
        for start in range(lo, hi, size):
            yield slice(start, min(start + size, hi)), m


def batch_loss(model: ModelState, data: Dataset, indices=None) -> float:
    """Mean cross-entropy over the batch."""
    return float(per_example_loss_and_grad(model, data, indices).losses.mean())


def accuracy(model: ModelState, data: Dataset) -> float:
    """Share of `head_dataset`'s rows whose largest logit is their label's, class-major."""
    if data.n < 1:
        raise ValueError("evaluation set is empty")
    data = head_dataset(model, data)
    correct = 0
    for rows in _blocks(data.n):
        logits = model.weights @ data.features[rows].T
        logits += model.bias[:, None]
        correct += int(np.count_nonzero(_class_argmax(logits) == data.labels[rows]))
    return correct / data.n


def _class_argmax(logits: np.ndarray) -> np.ndarray:
    """`logits.argmax(axis=0)` of a C x B block, by folds over its class rows
    instead of argmax's row-major copy: the max, then from the last class
    row up, each row equal to it or NaN, so the first wins.  A column's max
    is NaN where it holds one, so, as in argmax, its first NaN wins."""
    top = logits.max(axis=0)
    found = np.zeros(logits.shape[1], dtype=np.intp)
    for c in range(logits.shape[0] - 1, -1, -1):
        row = logits[c]
        np.putmask(found, (row == top) | (row != row), c)
    return found


def check_count(name: str, value: int) -> None:
    """A count (epochs, interval, threads, a width) is an int or np.integer
    >= 1; a bool is refused, and a float, which would be truncated or fail
    inside the run."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")


def check_hidden_width(width: int | None) -> None:
    """A frozen map's width is None (no map) or a count."""
    if width is not None:
        check_count("hidden_width", width)


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
    """One step theta <- theta - lr * grad on a flattened head gradient, or
    on each head of a stack by its row of an a x d `grad`.

    Returns a new state; the input model is untouched.  Raises
    FloatingPointError when the new parameters overflow, so the step's
    own epoch reports it.
    """
    split = model.weights.shape[-2] * model.weights.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        weights = model.weights - lr * grad[..., :split].reshape(model.weights.shape)
        bias = model.bias - lr * grad[..., split:]
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise FloatingPointError("SGD step overflowed the parameters to non-finite numbers")
    return replace(model, weights=weights, bias=bias)


def softmax_gradient_lipschitz_bound(model: ModelState, data: Dataset) -> float:
    """A gradient-Lipschitz constant of the mean cross-entropy over `data`.

    The softmax Hessian in logit space is bounded by I/2, so
    L = mean_i ||[phi_i, 1]||^2 / 2 over `head_dataset`'s rows phi works
    for the flattened head params.
    """
    phi = head_dataset(model, data).features
    return float(0.5 * np.mean(np.einsum("iq,iq->i", phi, phi) + 1.0))


# ---------------------------------------------------------------------------
# Output files.  Every file the package writes is opened by _open_new, as a
# new file in place of a writable regular file at its path; every table goes
# through _write_csv and every JSON document through _write_json.  A
# dataset is a header row, feature columns, then one integer label column.
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 1024  # rows converted to Python objects at a time
_INTP = np.iinfo(np.intp)


def _open_new(path, newline=None):
    """Open `path` to write text, as a new file in place of a regular one.

    A regular file at `path` that the process may write is unlinked first,
    so a reader holding it keeps its bytes and no write truncates a file in
    place (which on ext4 can block the open until the old blocks are
    flushed).  Anything else at `path` (a symlink, a device, a FIFO, a
    file the process may not write), or a file whose unlink is refused, is
    opened as it is, so a read-only file still makes the open fail.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass
    return open(path, "w", newline=newline)


def _write_json(path, payload) -> None:
    """Write `payload` as indented JSON with sorted keys and a final newline;
    a payload that does not serialise leaves the file at `path` untouched."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _open_new(path) as fh:
        fh.write(text)


def _write_csv(path, header, row_format: str, columns) -> None:
    """Write `header`, then row i as `row_format % (c[i] for c in columns)`,
    to a new file at `path` (`_open_new`).

    Fields are comma-separated and unquoted, and lines end in "\r\n": the
    bytes csv.writer writes for fields with no comma, quote or line
    break.  `columns` are equal-length arrays, checked before the file is
    opened; a chunk of rows is converted with `.tolist()` and formatted by
    one `%`, so peak memory stays flat in the number of rows.
    """
    n = len(columns[0])
    for name, column in zip(header, columns):
        if len(column) != n:
            raise ValueError(f"{path}: column {name!r} has {len(column)} rows, expected {n}")
    width = len(columns)
    with _open_new(path, newline="") as fh:
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
