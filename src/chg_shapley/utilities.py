"""Subset utilities over per-datum gradients: chg, hardness, and gradient kinds.

A `GradientSet` (defined in `models`, whose forward pass returns one)
holds one loss per datum and the per-datum gradients as a
`models.FactoredGrads`, which the closed form values in
O(n * (classes + width)) memory.  The chg kind scores a subset by how
close its loss-weighted mean gradient lands to the full-set reference
vector; the gradient kind does the same with raw gradients; the hardness
kind scores a subset by its mean loss, whose Shapley values are the linear
term's mean-game weights (`shapley.mean_game_weights`) applied to the
losses.  Valuation and selection value every game through
`gradient_set_values`, the one place they dispatch on the kind.
A dense gradient matrix is valued directly by
`shapley.chg_closed_form_shapley(X, alpha)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import FactoredGrads, GradientSet, _row_indices
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


def subset_utility(scheme: UtilityScheme, gs: GradientSet, subset) -> float:
    """U(S) per the scheme's kind; U(empty) = 0 for every kind."""
    _check_kind(scheme.kind)
    idx = _row_indices(subset, gs.n)
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


def gradient_set_values(gs: GradientSet, kind: str, rows=None) -> ShapleyValues:
    """Shapley values of the game on the rows `rows` of `gs` (all of them
    with None) under one utility kind.

    Hardness values the rows' losses alone; the quadratic kinds value
    `gs.restrict(rows)` in closed form.
    """
    if kind == "hardness":
        losses = gs.losses if rows is None else gs.losses[_row_indices(rows, gs.n)]
        return hardness_shapley(losses)
    if rows is not None:
        gs = gs.restrict(rows)
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

