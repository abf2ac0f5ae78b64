"""Subset utilities over per-datum gradients: chg, hardness, and gradient kinds.

A `GradientSet` (defined in `models`, whose forward pass returns one)
holds one loss per datum and the per-datum gradients as a
`models.FactoredGrads`, which the closed form values in
O(n * (classes + width)) memory.  The chg kind plays `shapley.chg_game`
on the loss-weighted vectors, the gradient kind on the raw ones, each
against their full-set mean; `_vectors` is the one place a kind picks
them.  The hardness kind scores a subset by its mean loss, a mean game
(`shapley.mean_game_values`).  A game is named by its rows and kind:
`utility_game(gs, kind)` plays it against the explicit mean
`X.column_sum() / n`, and `gradient_set_values(gs, kind)`, through which
valuation and selection value every game, gives its values by the own-mean
square game alone, `shapley.chg_closed_form_shapley(X, None)`.  A dense
gradient matrix is valued directly by `shapley.chg_closed_form_shapley(X, alpha)`.
"""

from __future__ import annotations

import numpy as np

from .models import FactoredGrads, GradientSet, _row_indices
from .shapley import (
    GameSpec,
    ShapleyValues,
    chg_closed_form_shapley,
    chg_game,
    closed_form_result,
    mean_game_values,
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
    return gs.vectors.scaled(gs.losses) if kind == "chg" else gs.vectors


def utility_game(gs: GradientSet, kind: str) -> GameSpec:
    """The game `gradient_set_values` values: the mean loss for hardness,
    `chg_game` on the kind's vectors against their own mean otherwise."""
    if kind == "hardness":
        return GameSpec(n=gs.n, utility=lambda idx: float(gs.losses[idx].mean()))
    X = _vectors(gs, kind)
    return chg_game(X, X.column_sum() / gs.n)


def subset_utility(gs: GradientSet, kind: str, subset) -> float:
    """U(S) of `utility_game(gs, kind)`; U(empty) = 0 for every kind."""
    game = utility_game(gs, kind)
    idx = _row_indices(subset, gs.n)
    return game.utility(idx) if idx.size else 0.0


def gradient_set_values(gs: GradientSet, kind: str) -> ShapleyValues:
    """Shapley values of the game on the rows of `gs` under one utility kind.

    Hardness values the losses alone; the quadratic kinds value the kind's
    vectors in closed form, against their own mean.  Raises
    FloatingPointError when finite rows overflow their mean or values.
    """
    if kind == "hardness":
        return hardness_shapley(gs.losses)
    # None: the rows' own mean.  Keep the two arguments positional:
    # perfbench's trace wraps this call and reads X's shape from args[0].
    return chg_closed_form_shapley(_vectors(gs, kind), None)


def hardness_shapley(losses) -> ShapleyValues:
    """Closed-form Shapley values of the mean-loss game U(S) = mean_S l: the
    mean game on l - lbar with U(N) = lbar; FloatingPointError when finite
    losses overflow them."""
    l = np.asarray(losses, dtype=float)
    if l.ndim != 1 or l.size < 1:
        raise ValueError(f"losses must be a non-empty vector, got shape {l.shape}")
    if not np.all(np.isfinite(l)):
        raise ValueError("non-finite losses")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(l.mean())
        values = mean_game_values(mean, l - mean)
    return closed_form_result(values, mean)
