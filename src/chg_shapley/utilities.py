"""Subset utilities over per-datum gradients: chg, hardness, and gradient kinds.

A `GradientSet` holds one loss per datum and the per-datum gradients as a
`models.FactoredGrads`, which the closed form values in
O(n * (classes + width)) memory.  The chg kind scores a subset by how
close its loss-weighted mean gradient lands to the full-set reference
vector; the gradient kind does the same with raw gradients; the hardness
kind scores a subset by its mean loss, whose Shapley values are the linear
term's mean-game weights (`shapley.mean_game_weights`) applied to the
losses.  A dense gradient matrix is valued directly by
`shapley.chg_closed_form_shapley(X, alpha)`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .models import FactoredGrads
from .shapley import (
    GameSpec,
    ShapleyValues,
    chg_closed_form_shapley,
    closed_form_result,
    mean_game_weights,
)

KINDS = ("chg", "hardness", "gradient")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown utility kind {kind!r}; expected one of {KINDS}")


def _mean(vectors: FactoredGrads) -> np.ndarray:
    """Column mean; FloatingPointError if finite rows overflow it."""
    return vectors.column_sum() / vectors.shape[0]


@dataclass
class GradientSet:
    """Per-datum factored gradients and their losses."""

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

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def weighted_vectors(self) -> FactoredGrads:
        """Loss-weighted vectors l_i * grad_i: losses folded into delta, phi shared."""
        return self.vectors.scaled(self.losses)

    def restrict(self, indices) -> "GradientSet":
        """The sub-collection at `indices`; ValueError if any is out of range.

        Rows of a checked set are finite and non-negative, so the
        sub-collection is not scanned again.
        """
        idx = _subset_indices(self, indices)
        if idx.size == 0:
            raise ValueError("cannot restrict to an empty subset")
        sub = copy.copy(self)
        sub.vectors, sub.losses = self.vectors.rows(idx), self.losses[idx]
        return sub


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
    vectors = gs.weighted_vectors() if scheme.kind == "chg" else gs.vectors
    alpha = np.asarray(scheme.alpha, dtype=float)
    if alpha.shape != (gs.d,):
        raise ValueError(f"alpha must be a length-{gs.d} vector, got {alpha.shape}")
    diff = _mean(vectors.rows(idx)) - alpha
    return float(alpha @ alpha - diff @ diff)


def utility_game(scheme: UtilityScheme, gs: GradientSet) -> GameSpec:
    """The cooperative game `subset_utility` defines over the data."""
    return GameSpec(n=gs.n, utility=lambda idx: subset_utility(scheme, gs, idx))


def chg_inputs_for_closed_form(gs: GradientSet, kind: str) -> tuple[FactoredGrads, np.ndarray]:
    """(X, alpha) such that the closed form equals the game's Shapley values."""
    _check_kind(kind)
    if kind == "hardness":
        raise ValueError("hardness utility is not quadratic; use hardness_shapley")
    X = gs.weighted_vectors() if kind == "chg" else gs.vectors
    return X, _mean(X)


def gradient_set_values(gs: GradientSet, kind: str) -> ShapleyValues:
    """Shapley values of the whole collection under one utility kind."""
    if kind == "hardness":
        return hardness_shapley(gs.losses)
    X, alpha = chg_inputs_for_closed_form(gs, kind)
    return chg_closed_form_shapley(X, alpha)


def hardness_shapley(losses) -> ShapleyValues:
    """Closed-form Shapley values of the mean-loss game U(S) = mean_S l; FloatingPointError
    when finite losses overflow them."""
    l = np.asarray(losses, dtype=float)
    if l.ndim != 1 or l.size < 1:
        raise ValueError(f"losses must be a non-empty vector, got shape {l.shape}")
    if not np.all(np.isfinite(l)):
        raise ValueError("non-finite losses")
    own, total = mean_game_weights(l.size)
    with np.errstate(over="ignore", invalid="ignore"):
        values, grand = own * l + total * float(l.sum()), float(l.mean())
    return closed_form_result(values, grand)

