"""Exact, sampled, and closed-form Shapley values for set-function games.

The closed form covers the quadratic "mean-distance" utility
``U(S) = ||alpha||^2 - ||mean_{i in S} x_i - alpha||^2``, the subset-mean
game on 2<x_i, alpha> minus the mean-square game ||mean_{i in S} x_i||^2,
with one weights function per game for every n >= 1.  It runs in
O(n*d) on a dense X, or in O(n*(C+w)) memory on a factored gradient
matrix; the enumeration and permutation-sampling routes work for any
set function and serve as ground-truth oracles for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .models import FactoredGrads

DEFAULT_EXACT_LIMIT = 20

UtilityFn = Callable[[np.ndarray], float]


class GameSizeError(ValueError):
    """Game too large for exact enumeration."""


@dataclass(frozen=True)
class HarmonicSums:
    """Running sums h1 = sum_{k=1..n} 1/k and h2 = sum_{k=1..n} 1/k^2."""

    n: int
    h1: float
    h2: float


@lru_cache(maxsize=None)
def harmonic_sums(n: int) -> HarmonicSums:
    """Accumulate h1 and h2 directly, in increasing k."""
    if n < 1:
        raise ValueError(f"harmonic sums need n >= 1, got {n}")
    # cumsum adds strictly left to right, so the last entry rounds exactly
    # like a sequential loop; np.sum's pairwise order would not.
    k = np.arange(1, n + 1, dtype=float)
    h1 = float(np.cumsum(1.0 / k)[-1])
    h2 = float(np.cumsum(1.0 / (k * k))[-1])
    return HarmonicSums(n=n, h1=h1, h2=h2)


@lru_cache(maxsize=None)
def mean_game_weights(n: int) -> tuple[float, float]:
    """(own, total) weights of the subset-mean game U(S) = mean_{i in S} y_i.

    The game is linear in y, so datum j's Shapley value is
    own * y_j + total * sum_i y_i, with own = (H_n - 1/n)/(n - 1) and
    total = -(H_n - 1)/(n(n - 1)); n = 1 gives (1, 0).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1.0, 0.0
    h1 = harmonic_sums(n).h1
    return (h1 - 1.0 / n) / (n - 1), -(h1 - 1.0) / (n * (n - 1))


@lru_cache(maxsize=None)
def mean_square_game_weights(n: int) -> tuple[float, float, float, float]:
    """(own, cross, others, pairs) weights of the game Q(S) = ||mean_{i in S} x_i||^2.

    Datum k's Shapley value is the average, over the n equally likely
    sizes of the coalition it joins, of its expected marginal; in terms of
    G_k = sum_{i != k} x_i, T_k = sum_{i != k} ||x_i||^2 and the cross terms
    P_k = ||G_k||^2 - T_k it is

        own*||x_k||^2 + cross*<x_k, G_k> + others*T_k + pairs*P_k

    with own = H2/n, cross = 2(H1 - H2)/(n(n-1)),
    others = (1/n - H2)/(n(n-1)) and
    pairs = (1 - 1/n - 2H1 + 2H2)/(n(n-1)(n-2)).  A weight whose term has
    nothing to sum (no other datum, or no pair of other data) is 0, as is
    its numerator there.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    h = harmonic_sums(n)
    h1, h2, inv_n = h.h1, h.h2, 1.0 / n
    own = h2 * inv_n
    cross = 2.0 * (h1 - h2) / (n * (n - 1)) if n > 1 else 0.0
    others = (inv_n - h2) / (n * (n - 1)) if n > 1 else 0.0
    pairs = (1.0 - inv_n - 2.0 * h1 + 2.0 * h2) / (n * (n - 1) * (n - 2)) if n > 2 else 0.0
    return own, cross, others, pairs


@dataclass(frozen=True)
class GameSpec:
    """A cooperative game: player count plus a set function.

    ``utility`` receives a 1-D array of 0-based member indices (sorted
    ascending) and returns a float.  It is never called on the empty
    set; U(empty) = 0 by convention.
    """

    n: int
    utility: UtilityFn = field(repr=False)


@dataclass
class ShapleyValues:
    """Per-player values, the U(N) they distribute, and the method's tag."""

    values: np.ndarray
    grand_utility: float  # U(N); efficiency says values.sum() equals it
    method: str  # closed_form | exact | permutation_mc

    def __post_init__(self) -> None:
        self.grand_utility = float(self.grand_utility)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


def closed_form_result(values: np.ndarray, grand_utility: float) -> ShapleyValues:
    """A closed-form route's result; FloatingPointError when finite inputs
    overflowed the values to non-finite numbers."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("closed-form values overflowed to non-finite numbers")
    return ShapleyValues(values, grand_utility, "closed_form")


def _validate_players_matrix(X, alpha):
    """Checked (X, alpha); a `FactoredGrads` X is checked without building it."""
    if not isinstance(X, FactoredGrads):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be n x d, got shape {X.shape}")
    alpha = np.asarray(alpha, dtype=float)
    n, d = X.shape
    if alpha.ndim != 1 or alpha.shape[0] != d:
        raise ValueError(f"alpha must be a length-{d} vector, got shape {alpha.shape}")
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got shape {X.shape}")
    finite = X.all_finite() if isinstance(X, FactoredGrads) else np.all(np.isfinite(X))
    if not (finite and np.all(np.isfinite(alpha))):
        raise ValueError("non-finite entries in X or alpha")
    return X, alpha


def mean_distance_utility(X, alpha) -> UtilityFn:
    """U(S) = ||alpha||^2 - ||mean_{i in S} x_i - alpha||^2 on index arrays."""
    X, alpha = _validate_players_matrix(X, alpha)
    base = float(alpha @ alpha)

    def utility(idx: np.ndarray) -> float:
        diff = X[idx].mean(axis=0) - alpha
        return base - float(diff @ diff)

    return utility


def chg_game(X, alpha) -> GameSpec:
    """The game whose closed form `chg_closed_form_shapley` computes."""
    return GameSpec(n=np.asarray(X).shape[0], utility=mean_distance_utility(X, alpha))


@dataclass(frozen=True)
class ClosedFormStatistics:
    """Everything the closed form reads from (X, alpha), with g = sum_i x_i."""

    sq: np.ndarray  # ||x_i||^2
    x_g: np.ndarray  # <x_i, g>
    x_alpha: np.ndarray  # <x_i, alpha>
    g_sq: float  # ||g||^2
    g_alpha: float  # <g, alpha>
    grand_utility: float  # U(N) = ||alpha||^2 - ||g/n - alpha||^2

    @property
    def n(self) -> int:
        return self.sq.size


def closed_form_statistics(X, alpha) -> ClosedFormStatistics:
    """Reduce a dense X, or a `FactoredGrads` without densifying it, to the
    per-datum and shared statistics of the closed form.

    Dense reductions use numpy's pairwise summation, which keeps the
    efficiency identity sum(values) = U(N) tight at n >= 1e4.
    """
    X, alpha = _validate_players_matrix(X, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(X, FactoredGrads):
            g = X.column_sum()
            sq = X.row_sq_norms()
            x_g, x_alpha = X.inner(np.stack([g, alpha]))
        else:
            g = X.sum(axis=0)
            sq = np.einsum("ij,ij->i", X, X)
            x_g, x_alpha = X @ g, X @ alpha
        gap = g / X.shape[0] - alpha
        grand = float(alpha @ alpha) - float(gap @ gap)
        return ClosedFormStatistics(sq, x_g, x_alpha, float(g @ g), float(g @ alpha), grand)


def _linear_values(s: ClosedFormStatistics) -> np.ndarray:
    """Values of the linear part 2<mean_S x, alpha>: the mean game on y_i = 2<x_i, alpha>."""
    own, total = mean_game_weights(s.n)
    return 2.0 * own * s.x_alpha + 2.0 * total * s.g_alpha


def chg_closed_form_shapley(X, alpha) -> ShapleyValues:
    """O(n*d) Shapley values of the quadratic mean-distance utility.

    U(S) = 2<mean_S x, alpha> - ||mean_S x||^2 is the linear mean game
    minus the mean-square game, so each value is the `mean_game_weights`
    value of y_i = 2<x_i, alpha> minus the `mean_square_game_weights`
    value, regrouped onto the `ClosedFormStatistics` with g = sum_i x_i:
    <x_k, G_k> = <x_k, g> - ||x_k||^2, T_k = sum_i ||x_i||^2 - ||x_k||^2 and
    P_k = ||g||^2 - 2<x_k, g> + ||x_k||^2 - T_k.  X is a dense n x d array
    or a `FactoredGrads`; both reduce to the same statistics.

    Raises FloatingPointError when finite inputs overflow to non-finite
    statistics or values.
    """
    s = closed_form_statistics(X, alpha)
    own, cross, others, pairs = mean_square_game_weights(s.n)
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = cross + others - own - 2.0 * pairs
        c_g = 2.0 * pairs - cross
        shared = (pairs - others) * float(s.sq.sum()) - pairs * s.g_sq
        values = c_sq * s.sq + c_g * s.x_g + shared + _linear_values(s)
    return closed_form_result(values, s.grand_utility)


def shapley_linear_term(X, alpha) -> ShapleyValues:
    """Shapley values of the linear part U(S) = 2*<mean_{i in S} x_i, alpha>.

    X is a dense n x d array or a `FactoredGrads`; the values are the
    linear part of `chg_closed_form_shapley`, for every n >= 1.  Raises
    FloatingPointError when finite inputs overflow to non-finite values.
    """
    s = closed_form_statistics(X, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        values, grand = _linear_values(s), 2.0 * s.g_alpha / s.n
    return closed_form_result(values, grand)


def _popcounts(n: int) -> np.ndarray:
    """Bit counts of every mask in [0, 2^n)."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def exact_shapley(game: GameSpec, limit: int = DEFAULT_EXACT_LIMIT) -> ShapleyValues:
    """Enumerate every coalition and average the weighted marginals.

    Cost is O(2^n) utility calls plus O(n * 2^n) bookkeeping; refuses
    games above `limit` players (default 20, about one million
    coalitions).  Subsets of size s carry weight 1/(n * C(n-1, s)).
    """
    n = game.n
    if n < 1:
        raise ValueError(f"need at least one player, got n={n}")
    if n > limit:
        raise GameSizeError(
            f"exact enumeration refused: n={n} exceeds limit={limit}"
        )
    size = 1 << n
    u = np.empty(size, dtype=float)
    u[0] = 0.0  # U(empty) = 0 by convention; the callable is never consulted
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            u[mask] = float(game.utility(np.asarray(combo, dtype=np.intp)))
    masks = np.arange(size)
    pc = _popcounts(n)
    weight_by_size = np.array(
        [1.0 / (n * math.comb(n - 1, s)) for s in range(n)], dtype=float
    )
    values = np.empty(n, dtype=float)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        values[i] = float(
            np.sum(weight_by_size[pc[without]] * (u[without | bit] - u[without]))
        )
    return ShapleyValues(values, u[size - 1], "exact")


def _mc_base_permutations(n: int, blocks: int, seed: int) -> np.ndarray:
    """Scrambled-Halton base permutations, one per block of 2n samples."""
    from scipy.stats import qmc

    engine = qmc.Halton(d=n, scramble=True, seed=seed)
    return np.argsort(engine.random(blocks), axis=1)


def permutation_shapley(game: GameSpec, samples: int, seed: int = 0) -> ShapleyValues:
    """Monte Carlo Shapley: average marginals over random permutations.

    Permutations come in blocks of 2n built from one scrambled-Halton
    base permutation (sample t's base is block t // (2n)): the n cyclic
    rotations of the base, each paired with its reverse.  Every walked
    permutation is still uniformly distributed, but within a block each
    player occupies every insertion position exactly once in both
    directions, which cuts the sampling variance well below i.i.d.
    permutation draws.  Deterministic given the seed; blocks are
    independently reconstructible, so the loop parallelizes with a
    fixed-order combine.  Utility values are memoized per coalition.
    """
    n = game.n
    if n < 1:
        raise ValueError(f"need at least one player, got n={n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    totals = np.zeros(n, dtype=float)
    cache: dict[int, float] = {}

    def walk(perm: np.ndarray) -> None:
        mask = 0
        prev = 0.0  # U(empty) = 0
        for pos in range(n):
            mask |= 1 << int(perm[pos])
            val = cache.get(mask)
            if val is None:
                val = float(game.utility(np.sort(perm[: pos + 1])))
                cache[mask] = val
            totals[perm[pos]] += val - prev
            prev = val

    block_size = 2 * n
    bases = _mc_base_permutations(n, (samples + block_size - 1) // block_size, seed)
    drawn = 0
    for base in bases:
        for r in range(n):
            if drawn >= samples:
                break
            rotation = np.concatenate([base[r:], base[:r]])
            for perm in (rotation, rotation[::-1]):
                if drawn >= samples:
                    break
                walk(perm)
                drawn += 1
    return ShapleyValues(totals / samples, cache[(1 << n) - 1], "permutation_mc")
