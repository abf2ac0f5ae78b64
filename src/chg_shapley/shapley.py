"""Exact, sampled, and closed-form Shapley values for set-function games.

The closed form covers the quadratic "mean-distance" utility
``U(S) = ||alpha||^2 - ||mean_{i in S} x_i - alpha||^2``.  Centred on the
mean row m it is the sum of two games, each stated once with one weight:
the own-mean square game ||m||^2 - ||mean_S (x - m)||^2, weight
`mean_square_game_weight`, which every game of the pipeline plays, and the
mean game on 2<x_i, alpha - m>, weight `mean_game_weight`, whose values
`mean_game_values` gives.  The linear term (`shapley_linear_term`) and the
hardness utility (`utilities.hardness_shapley`) are mean games alone.  Both
run in O(n*d) on a dense X, or in O(n*(C+w)) memory on a factored gradient
matrix, either of which `chg_game` also takes; the enumeration and
permutation-sampling routes serve as their oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .models import FactoredGrads

EXACT_LIMIT = 20  # players; 2^20 is about one million coalitions
_CENTRED_BLOCK = 1 << 15  # dense entries centred at a time

UtilityFn = Callable[[np.ndarray], float]


class GameSizeError(ValueError):
    """Game too large for exact enumeration."""


@dataclass(frozen=True)
class HarmonicSums:
    """Running sums h1 = sum_{k=1..n} 1/k and h2 = sum_{k=1..n} 1/k^2."""

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
    return HarmonicSums(h1=h1, h2=h2)


@lru_cache(maxsize=None)
def mean_game_weight(n: int) -> float:
    """own_n of the subset-mean game U(S) = mean_{i in S} z_i on values summing to 0.

    Datum k's value is own_n z_k, own_n = (H_n - 1/n)/(n - 1), or 1 at n = 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1.0
    return (harmonic_sums(n).h1 - 1.0 / n) / (n - 1)


@lru_cache(maxsize=None)
def mean_square_game_weight(n: int) -> float:
    """kappa_n of the mean-square game Q(S) = ||mean_{i in S} y_i||^2 on rows summing to 0.

    Datum k's value is kappa_n (d_k - mean_j d_j), d_k = ||y_k||^2, with
    kappa_n = (n^2 H2 - 2n H1 + 1)/(n(n-1)(n-2)), or 1 and 3/4 at n = 1, 2.
    Those values sum to 0 for any kappa_n, so no efficiency audit sees a
    wrong one: each n checks it once against the direct average over
    coalition sizes and raises FloatingPointError naming n beyond
    max(1e-12, 2n eps) relative, the bound on summing H1, H2 left to right.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n < 3:
        return (1.0, 0.75)[n - 1]
    h = harmonic_sums(n)
    denom = n * (n - 1) * (n - 2)
    kappa = (n * n * h.h2 - 2.0 * n * h.h1 + 1.0) / denom
    # Joining s of the other rows (they sum to -y_k), datum k's expected marginal
    # carries d_k times [(n-1-s)(n-2-2s)/(s+1)^2 + (n-2s)/s]/((n-1)(n-2)); 1 at s = 0.
    s = np.arange(1, n, dtype=float)
    terms = (n - 1 - s) * (n - 2 - 2 * s) / (s + 1) ** 2 + (n - 2 * s) / s
    direct = ((n - 1) * (n - 2) + float(terms.sum())) / denom
    if not abs(direct - kappa) <= max(1e-12, 2 * n * np.finfo(float).eps) * abs(kappa):
        raise FloatingPointError(f"kappa_n at n={n}: harmonic form {kappa!r} != direct {direct!r}")
    return kappa


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
    """Per-player values and the U(N) they distribute."""

    values: np.ndarray
    grand_utility: float  # U(N); efficiency says values.sum() equals it

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
    return ShapleyValues(values, grand_utility)


def _validate_players_matrix(X):
    """X as a dense n x d array scanned for non-finite entries (ValueError),
    or a `FactoredGrads`, which is not scanned.

    A non-finite factor makes the column sum non-finite, which every closed
    form forms first and which raises FloatingPointError, so a scan would
    only repeat the forward pass's checks.
    """
    if not isinstance(X, FactoredGrads):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be n x d, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite entries in X")
    if min(X.shape) < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got shape {X.shape}")
    return X


def _validate_alpha(alpha, d: int) -> np.ndarray:
    """alpha as a finite length-d vector; ValueError otherwise, for None too."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (d,):
        raise ValueError(f"alpha must be a length-{d} vector, got shape {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("non-finite entries in alpha")
    return alpha


def chg_game(X, alpha) -> GameSpec:
    """The game whose closed form `chg_closed_form_shapley` computes, on
    everything it takes: a dense n x d X or a `FactoredGrads`."""
    X = _validate_players_matrix(X)
    alpha = _validate_alpha(alpha, X.shape[1])
    base, factored = float(alpha @ alpha), isinstance(X, FactoredGrads)

    def utility(idx: np.ndarray) -> float:
        mean = X.rows(idx).column_sum() / idx.size if factored else X[idx].mean(axis=0)
        diff = mean - alpha
        return base - float(diff @ diff)

    return GameSpec(n=X.shape[0], utility=utility)


def mean_game_values(grand: float, z: np.ndarray) -> np.ndarray:
    """Shapley values of U(S) = grand + mean_{i in S} z_i, for z summing to 0
    but for rounding: grand/n + own_n z_k, own_n = `mean_game_weight(n)`.

    The rounding z leaves, the mean of z, is carried into the small terms,
    so a large grand rounds only in grand/n and in the final sum.  Callers
    hold np.errstate, so that an overflow reaches `closed_form_result`.
    """
    n = z.size
    residual = float(z.mean())
    return grand / n + (residual / n + mean_game_weight(n) * (z - residual))


def _centred(X, m: np.ndarray, beta=None):
    """d_k = ||x_k - m||^2 and, given beta, <x_k - m, beta> (else None).

    A dense X is centred in blocks of `_CENTRED_BLOCK` entries before it is
    squared.  A factored X forms d_k = ||x_k||^2 - 2<x_k, m> + ||m||^2 and
    <x_k, beta> - <m, beta>, one inner product per row per vector, made a
    C x B block at a time; the row <x_k, m> comes before the row norms,
    which lowers the peak.
    """
    n, width = X.shape
    if isinstance(X, FactoredGrads):
        x_m = X.inner(m)
        x_m *= 2.0  # in place, here and below: one length-n temporary, not three
        d = X.row_sq_norms()
        d -= x_m
        d += float(m @ m)
        del x_m
        return d, None if beta is None else X.inner(beta) - float(m @ beta)
    d, proj = np.empty(n), None if beta is None else np.empty(n)
    step = max(1, _CENTRED_BLOCK // width)
    for lo in range(0, n, step):
        Y = X[lo:lo + step] - m
        d[lo:lo + step] = np.einsum("ij,ij->i", Y, Y)
        if beta is not None:
            proj[lo:lo + step] = Y @ beta
    return d, proj


def chg_closed_form_shapley(X, alpha=None) -> ShapleyValues:
    """O(n*d) Shapley values of the quadratic mean-distance utility.

    With m the mean row and beta = alpha - m, on every non-empty S
    U(S) = ||m||^2 - ||mean_S (x - m)||^2 + 2<mean_S x, beta>: the own-mean
    square game, whose values are ||m||^2/n + kappa_n (mean_j d_j - d_k)
    with d from `_centred` and kappa_n = `mean_square_game_weight(n)`, plus
    the mean game on 2<x_k, beta> (`mean_game_values`).  With alpha omitted
    it is m, and only the first game is played.  X is a dense n x d array
    or a `FactoredGrads`.  Raises FloatingPointError when finite inputs
    overflow to non-finite values.
    """
    X = _validate_players_matrix(X)
    if alpha is not None:
        alpha = _validate_alpha(alpha, X.shape[1])
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        m = (X.column_sum() if isinstance(X, FactoredGrads) else X.sum(axis=0)) / n
        beta = None if alpha is None else alpha - m
        d, proj = _centred(X, m, beta)
        grand = float(m @ m)
        # kappa (mean_j d_j - d_k) + ||m||^2 / n, in d's own buffer.
        values = np.subtract(float(d.mean()), d, out=d)
        values *= mean_square_game_weight(n)
        values += grand / n
        if beta is not None:
            linear = 2.0 * float(m @ beta)
            values += mean_game_values(linear, 2.0 * proj)
            grand += linear
    return closed_form_result(values, grand)


def shapley_linear_term(X, alpha) -> ShapleyValues:
    """Shapley values of the linear part U(S) = 2*<mean_{i in S} x_i, alpha>:
    the mean game on 2<x_k - m, alpha> with U(N) = 2<m, alpha>.

    X is a dense n x d array or a `FactoredGrads`.  Raises
    FloatingPointError when finite inputs overflow to non-finite values.
    """
    X = _validate_players_matrix(X)
    alpha, n = _validate_alpha(alpha, X.shape[1]), X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        m = (X.column_sum() if isinstance(X, FactoredGrads) else X.sum(axis=0)) / n
        grand = 2.0 * float(m @ alpha)
        values = mean_game_values(grand, 2.0 * _centred(X, m, alpha)[1])
    return closed_form_result(values, grand)


def exact_shapley(game: GameSpec) -> ShapleyValues:
    """Enumerate every coalition and average the weighted marginals.

    Cost is O(2^n) utility calls plus O(n * 2^n) bookkeeping; refuses
    games above `EXACT_LIMIT` players with `GameSizeError`.  Subsets of
    size s carry weight 1/(n * C(n-1, s)).
    """
    n = game.n
    if n < 1:
        raise ValueError(f"need at least one player, got n={n}")
    if n > EXACT_LIMIT:
        raise GameSizeError(f"exact enumeration refused: n={n} exceeds limit={EXACT_LIMIT}")
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
    pc = np.bitwise_count(masks)
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
    return ShapleyValues(values, u[size - 1])


def _scrambled_halton(n: int, count: int, seed: int) -> np.ndarray:
    """The first `count` scrambled-Halton points in [0, 1)^n, as a count x n array.

    Owen's scrambling (arXiv:1706.02808), in the bits the tests pin: the k-th
    prime b takes ceil(54/log2 b) - 1 shuffles of range(b) from one generator,
    and point i adds sum_j perm_j[digit_j(i)] b^-(j+1) digit by digit.
    """
    rng = np.random.default_rng(seed)
    primes = (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    points = np.zeros((n, count))
    for coord, b in zip(points, primes):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient, scale = np.arange(count), 1.0 / b
        for perm in perms:
            coord += perm[quotient % b] * scale
            quotient //= b
            scale /= b
    return points.T


def permutation_shapley(game: GameSpec, samples: int, seed: int) -> ShapleyValues:
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
    bases = np.argsort(_scrambled_halton(n, -(-samples // (2 * n)), seed), axis=1)
    rotations = (np.roll(base, -r) for base in bases for r in range(n))
    walks = (perm for rot in rotations for perm in (rot, rot[::-1]))
    for perm in itertools.islice(walks, samples):
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
    return ShapleyValues(totals / samples, cache[(1 << n) - 1])
