"""Subset utilities over per-datum gradients: chg, hardness, and gradient kinds.

A `GradientSet` (defined in `models`, whose forward pass returns one)
holds one loss per datum and the per-datum gradients as a
`models.FactoredGrads`, which the closed form values in
O(n * (classes + width)) memory.  The chg kind plays `shapley.chg_game`
on the loss-weighted vectors, the gradient kind on the raw ones, each
against their full-set mean; `_vectors` is the one place a kind picks
them.  The hardness kind scores a subset by its mean loss; its values
take the centred form of the other closed forms, lbar/n + own_n (l_k -
lbar), with the one weight `shapley.mean_game_weight(n)`.  Valuation and
selection value every game through `gradient_set_values`, the one place
they dispatch on the kind.  A dense gradient matrix is valued directly
by `shapley.chg_closed_form_shapley(X, alpha)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import FactoredGrads, GradientSet, _row_indices
from .shapley import (
    GameSpec,
    ShapleyValues,
    chg_closed_form_shapley,
    chg_game,
    closed_form_result,
    mean_game_weight,
)

KINDS = ("chg", "hardness", "gradient")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown utility kind {kind!r}; expected one of {KINDS}")


def _vectors(gs: GradientSet, kind: str) -> FactoredGrads:
    """The rows a quadratic kind plays: loss-weighted for chg, raw for gradient."""
    _check_kind(kind)
    if kind == "hardness":
        raise ValueError("hardness utility is not quadratic; use hardness_shapley")
    return gs.weighted_vectors() if kind == "chg" else gs.vectors


@dataclass(frozen=True)
class UtilityScheme:
    """A utility kind plus its reference vector (unused for hardness)."""

    kind: str
    alpha: np.ndarray


def scheme_for(gs: GradientSet, kind: str) -> UtilityScheme:
    """The kind with its reference vector: the full-set mean of its
    vectors, or a zero vector for hardness."""
    alpha = np.zeros(gs.d) if kind == "hardness" else chg_inputs_for_closed_form(gs, kind)[1]
    return UtilityScheme(kind=kind, alpha=alpha)


def utility_game(scheme: UtilityScheme, gs: GradientSet) -> GameSpec:
    """The cooperative game `subset_utility` defines over the data: the
    mean loss for hardness, `chg_game` on the kind's vectors otherwise."""
    if scheme.kind == "hardness":
        return GameSpec(n=gs.n, utility=lambda idx: float(gs.losses[idx].mean()))
    return chg_game(_vectors(gs, scheme.kind), scheme.alpha)


def subset_utility(scheme: UtilityScheme, gs: GradientSet, subset) -> float:
    """U(S) per the scheme's kind; U(empty) = 0 for every kind."""
    game = utility_game(scheme, gs)
    idx = _row_indices(subset, gs.n)
    return game.utility(idx) if idx.size else 0.0


def chg_inputs_for_closed_form(gs: GradientSet, kind: str) -> tuple[FactoredGrads, np.ndarray]:
    """(X, alpha) such that the closed form equals the game's Shapley values:
    the kind's vectors and their mean; FloatingPointError if finite rows overflow it."""
    X = _vectors(gs, kind)
    return X, X.column_sum() / gs.n


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
    """Closed-form Shapley values of the mean-loss game U(S) = mean_S l,
    lbar/n + own_n (l_k - lbar); FloatingPointError when finite losses overflow them.

    lbar is carried as the float mean plus the rounding it leaves, the
    mean of l - mean, which joins the small terms: a large common offset
    then rounds only in mean/n and in the final sum.
    """
    l = np.asarray(losses, dtype=float)
    if l.ndim != 1 or l.size < 1:
        raise ValueError(f"losses must be a non-empty vector, got shape {l.shape}")
    if not np.all(np.isfinite(l)):
        raise ValueError("non-finite losses")
    n = l.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(l.mean())
        z = l - mean
        residual = float(z.mean())
        values = mean / n + (residual / n + mean_game_weight(n) * (z - residual))
    return closed_form_result(values, mean)
