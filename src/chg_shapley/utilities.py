"""Subset utilities over per-datum gradients: chg, hardness, and gradient kinds.

A `GradientSet` holds one vector and one loss per datum, the vectors
either as a dense n x d array or as a `models.FactoredGrads`, which the
closed form values in O(n * (classes + width)) memory.  The chg kind
scores a subset by how close its loss-weighted mean gradient lands to the
full-set reference vector; the gradient kind does the same with raw
gradients; the hardness kind scores a subset by its mean loss, whose
Shapley values are the linear term's mean-game weights
(`shapley.mean_game_weights`) applied to the losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import FactoredGrads
from .shapley import (
    GameSpec,
    ShapleyValues,
    chg_closed_form_shapley,
    mean_game_weights,
)

KINDS = ("chg", "hardness", "gradient")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown utility kind {kind!r}; expected one of {KINDS}")


Vectors = np.ndarray | FactoredGrads


def _rows(vectors: Vectors, idx: np.ndarray) -> Vectors:
    return vectors.rows(idx) if isinstance(vectors, FactoredGrads) else vectors[idx]


def _mean(vectors: Vectors) -> np.ndarray:
    """Column mean; FloatingPointError if finite rows overflow it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(vectors, FactoredGrads):
            mean = vectors.column_sum() / vectors.shape[0]
        else:
            mean = vectors.mean(axis=0)
    if not np.all(np.isfinite(mean)):
        raise FloatingPointError("mean gradient overflowed to non-finite numbers")
    return mean


@dataclass
class GradientSet:
    """Per-datum vectors and losses; `weighted` marks vectors already scaled by loss."""

    vectors: Vectors  # n x d
    losses: np.ndarray  # n, non-negative
    weighted: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.vectors, FactoredGrads):
            finite = self.vectors.all_finite()
        else:
            self.vectors = np.asarray(self.vectors, dtype=float)
            if self.vectors.ndim != 2:
                raise ValueError(f"vectors must be n x d, got shape {self.vectors.shape}")
            finite = bool(np.all(np.isfinite(self.vectors)))
        self.losses = np.asarray(self.losses, dtype=float)
        if self.vectors.shape[0] < 1 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must be n x d with n, d >= 1, got {self.vectors.shape}")
        if self.losses.shape != (self.vectors.shape[0],):
            raise ValueError(
                f"losses must align with vectors: {self.losses.shape} vs {self.vectors.shape}"
            )
        if not (finite and np.all(np.isfinite(self.losses))):
            raise ValueError("non-finite entries in gradient set")
        if np.any(self.losses < 0):
            raise ValueError("losses must be non-negative")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def weighted_vectors(self) -> Vectors:
        """Loss-weighted vectors l_i * grad_i (identity if already weighted).

        A factored set folds the losses into delta; phi is shared.
        """
        if self.weighted:
            return self.vectors
        if isinstance(self.vectors, FactoredGrads):
            return self.vectors.scaled(self.losses)
        return self.losses[:, None] * self.vectors

    def raw_vectors(self) -> Vectors:
        if self.weighted:
            raise ValueError("vectors are already loss-weighted; raw gradients unavailable")
        return self.vectors

    def restrict(self, indices) -> "GradientSet":
        """The sub-collection at `indices`, preserving the weighted flag."""
        idx = np.asarray(indices, dtype=np.intp)
        return GradientSet(_rows(self.vectors, idx), self.losses[idx], weighted=self.weighted)


@dataclass(frozen=True)
class UtilityScheme:
    """A utility kind plus its reference vector (unused for hardness)."""

    kind: str
    alpha: np.ndarray


def reference_vector(gs: GradientSet, kind: str) -> np.ndarray:
    """Full-set mean the quadratic kinds measure distance to.

    chg averages the loss-weighted vectors, gradient averages the raw
    ones, hardness has no reference (zero vector returned).
    """
    _check_kind(kind)
    if kind == "hardness":
        return np.zeros(gs.d)
    return chg_inputs_for_closed_form(gs, kind)[1]


def scheme_for(gs: GradientSet, kind: str) -> UtilityScheme:
    return UtilityScheme(kind=kind, alpha=reference_vector(gs, kind))


def _subset_indices(gs: GradientSet, subset) -> np.ndarray:
    idx = np.asarray(list(subset) if isinstance(subset, (set, frozenset)) else subset,
                     dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("subset must be a flat index collection")
    if idx.size and (idx.min() < 0 or idx.max() >= gs.n):
        raise ValueError(f"subset indices out of range for n={gs.n}")
    return idx


def subset_utility(scheme: UtilityScheme, gs: GradientSet, subset) -> float:
    """U(S) per the scheme's kind; U(empty) = 0 for every kind."""
    _check_kind(scheme.kind)
    idx = _subset_indices(gs, subset)
    if idx.size == 0:
        return 0.0
    if scheme.kind == "hardness":
        return float(gs.losses[idx].mean())
    vectors = gs.weighted_vectors() if scheme.kind == "chg" else gs.raw_vectors()
    alpha = np.asarray(scheme.alpha, dtype=float)
    if alpha.shape != (gs.d,):
        raise ValueError(f"alpha must be a length-{gs.d} vector, got {alpha.shape}")
    diff = _mean(_rows(vectors, idx)) - alpha
    return float(alpha @ alpha - diff @ diff)


def utility_game(scheme: UtilityScheme, gs: GradientSet) -> GameSpec:
    """The cooperative game `subset_utility` defines over the data."""
    return GameSpec(n=gs.n, utility=lambda idx: subset_utility(scheme, gs, idx))


def chg_inputs_for_closed_form(gs: GradientSet, kind: str) -> tuple[Vectors, np.ndarray]:
    """(X, alpha) such that the closed form equals the game's Shapley values."""
    _check_kind(kind)
    if kind == "hardness":
        raise ValueError("hardness utility is not quadratic; use hardness_shapley")
    X = gs.weighted_vectors() if kind == "chg" else gs.raw_vectors()
    return X, _mean(X)


def gradient_set_values(gs: GradientSet, kind: str) -> ShapleyValues:
    """Shapley values of the whole collection under one utility kind."""
    if kind == "hardness":
        return hardness_shapley(gs.losses)
    X, alpha = chg_inputs_for_closed_form(gs, kind)
    return chg_closed_form_shapley(X, alpha)


def hardness_shapley(losses) -> ShapleyValues:
    """Closed-form Shapley values of the mean-loss game U(S) = mean_S l."""
    l = np.asarray(losses, dtype=float)
    if l.ndim != 1 or l.size < 1:
        raise ValueError(f"losses must be a non-empty vector, got shape {l.shape}")
    if not np.all(np.isfinite(l)):
        raise ValueError("non-finite losses")
    own, total = mean_game_weights(l.size)
    return ShapleyValues(own * l + total * float(l.sum()), float(l.mean()), "closed_form")


# ---------------------------------------------------------------------------
# Serialization: text matrix file with header "n d weighted_flag"
# ---------------------------------------------------------------------------

def save_gradient_set(gs: GradientSet, path) -> None:
    """Write the text form: header, n rows of d floats, then n losses.

    Floats are printed with 17 significant digits, so loading reproduces
    the arrays bit for bit.  A factored set is written densely.
    """
    vectors = gs.vectors.dense() if isinstance(gs.vectors, FactoredGrads) else gs.vectors
    lines = [f"{gs.n} {gs.d} {int(gs.weighted)}"]
    for row in vectors:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    for loss in gs.losses:
        lines.append(f"{loss:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_floats(path, lineno: int, text: str, count: int) -> list[float]:
    tokens = text.split()
    if len(tokens) != count:
        raise ValueError(f"{path}:{lineno}: expected {count} numbers, got {len(tokens)}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None


def load_gradient_set(path) -> GradientSet:
    """Read `save_gradient_set`'s text form; errors name the file and line."""
    text = Path(path).read_text().split("\n")
    header = text[0].split()
    if len(header) != 3:
        raise ValueError(f"{path}:1: bad header {text[0]!r}: expected 'n d weighted_flag'")
    try:
        n, d, flag = (int(tok) for tok in header)
    except ValueError:
        raise ValueError(f"{path}:1: bad header {text[0]!r}: expected three integers") from None
    if flag not in (0, 1):
        raise ValueError(f"{path}:1: weighted_flag must be 0 or 1, got {flag}")
    body = [(k, line) for k, line in enumerate(text[1:], start=2) if line.strip()]
    if len(body) != n + n:
        raise ValueError(
            f"{path}: expected {n} vector rows plus {n} losses, got {len(body)} lines"
        )
    vectors = np.array([_parse_floats(path, k, line, d) for k, line in body[:n]])
    losses = np.array([_parse_floats(path, k, line, 1)[0] for k, line in body[n:]])
    return GradientSet(vectors=vectors.reshape(n, d), losses=losses, weighted=bool(flag))
