"""Tests for the core Shapley routines against brute-force enumeration."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import chg_shapley.shapley as shapley
from chg_shapley.models import FactoredGrads
from chg_shapley.shapley import (
    GameSizeError,
    GameSpec,
    ShapleyValues,
    chg_closed_form_shapley,
    chg_game,
    exact_shapley,
    harmonic_sums,
    mean_distance_utility,
    mean_game_weight,
    mean_square_game_weight,
    permutation_shapley,
    shapley_linear_term,
)
from chg_shapley.utilities import hardness_shapley

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> np.ndarray:
    return np.array([float(line) for line in (FIXTURES / name).read_text().split()])


def additive_game(v: np.ndarray) -> GameSpec:
    return GameSpec(n=v.size, utility=lambda idx: float(v[idx].sum()))


# ---------------------------------------------------------------------------
# Harmonic sums
# ---------------------------------------------------------------------------

class TestHarmonicSums:
    def test_single_term(self):
        h = harmonic_sums(1)
        assert h.h1 == 1.0
        assert h.h2 == 1.0

    def test_n4_exact_fractions(self):
        h = harmonic_sums(4)
        assert h.h1 == pytest.approx(25 / 12, abs=1e-15)
        assert h.h2 == pytest.approx(205 / 144, abs=1e-15)

    def test_n3_exact_fractions(self):
        h = harmonic_sums(3)
        assert h.h1 == pytest.approx(11 / 6, abs=1e-15)
        assert h.h2 == pytest.approx(49 / 36, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            harmonic_sums(0)

    def test_increment_is_reciprocal(self):
        for n in range(2, 200):
            assert harmonic_sums(n).h1 - harmonic_sums(n - 1).h1 == pytest.approx(
                1.0 / n, abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 1000, 100000])
    def test_bit_identical_to_sequential_sum(self, n):
        h1 = h2 = 0.0
        for k in range(1, n + 1):
            h1 += 1.0 / k
            h2 += 1.0 / (k * k)
        h = harmonic_sums(n)
        assert h.h1 == h1
        assert h.h2 == h2

    def test_monotone_and_bounded(self):
        prev = harmonic_sums(1)
        for n in range(2, 100):
            h = harmonic_sums(n)
            assert h.h1 > prev.h1
            assert h.h2 > prev.h2
            assert h.h2 < h.h1
            assert h.h2 < math.pi**2 / 6
            prev = h


# ---------------------------------------------------------------------------
# Mean-square game Q(S) = ||mean_{i in S} y_i||^2 on centred rows: kappa_n
# ---------------------------------------------------------------------------

def four_weight_kappa(n: int) -> float:
    """kappa_n = own - cross - others + 2*pairs from the four mean-square
    game weights on uncentred rows, each in its own harmonic form."""
    h = harmonic_sums(n)
    h1, h2, inv_n = h.h1, h.h2, 1.0 / n
    own = h2 * inv_n
    cross = 2.0 * (h1 - h2) / (n * (n - 1)) if n > 1 else 0.0
    others = (inv_n - h2) / (n * (n - 1)) if n > 1 else 0.0
    pairs = (1.0 - inv_n - 2.0 * h1 + 2.0 * h2) / (n * (n - 1) * (n - 2)) if n > 2 else 0.0
    return own - cross - others + 2.0 * pairs


class TestCoefficients:
    def test_zero_rejected_small_n_finite(self):
        with pytest.raises(ValueError):
            mean_square_game_weight(0)
        assert mean_square_game_weight(1) == 1.0
        assert mean_square_game_weight(2) == 0.75

    def test_finite_at_boundary(self):
        assert mean_square_game_weight(3) == pytest.approx(0.375, rel=1e-15)

    def test_recomputation_bit_identical(self):
        for n in (1, 2, 3, 7, 100, 12345):
            assert mean_square_game_weight(n) == mean_square_game_weight.__wrapped__(n)

    # The left-to-right H2 sum rounds by 6e-13 relative at n = 10**7 (2e-11
    # at 3*10**7), so the harmonic form's self-check allows 2n eps there.
    @pytest.mark.parametrize("n", [3, 4, 7, 300, 12345, 10**6, 10**7])
    def test_agrees_with_four_weight_form(self, n):
        kappa = mean_square_game_weight(n)
        assert abs(kappa - four_weight_kappa(n)) <= 1e-12 * kappa

    def test_wrong_harmonic_sums_raise_naming_n(self, monkeypatch):
        # The efficiency audit cannot see a wrong kappa_n; the direct sum can.
        true_sums = shapley.harmonic_sums

        def perturbed(n):
            h = true_sums(n)
            return shapley.HarmonicSums(n, h.h1, h.h2 * (1 + 1e-9))

        monkeypatch.setattr(shapley, "harmonic_sums", perturbed)
        mean_square_game_weight.cache_clear()
        try:
            with pytest.raises(FloatingPointError, match=r"\bn=57\b"):
                mean_square_game_weight(57)
        finally:
            mean_square_game_weight.cache_clear()

    @pytest.mark.parametrize("n", [3, 10])
    def test_boundary_sizes_match_oracle(self, n):
        rng = np.random.default_rng(10 + n)
        X = rng.standard_normal((n, 4))
        alpha = rng.standard_normal(4)
        closed = chg_closed_form_shapley(X, alpha).values
        exact = exact_shapley(chg_game(X, alpha)).values
        assert np.max(np.abs(closed - exact)) <= 1e-9


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

class TestExactShapley:
    def test_constant_game_splits_evenly(self):
        game = GameSpec(n=3, utility=lambda idx: 5.0)
        values = exact_shapley(game).values
        assert values == pytest.approx([5.0 / 3] * 3, abs=1e-12)

    def test_additive_game_recovers_contributions(self):
        v = np.array([1.5, -2.0, 0.25, 4.0])
        values = exact_shapley(additive_game(v)).values
        assert values == pytest.approx(v, abs=1e-12)

    def test_cardinality_squared(self):
        game = GameSpec(n=3, utility=lambda idx: float(idx.size**2))
        values = exact_shapley(game).values
        assert values == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)

    def test_size_limit_refusal(self):
        game = GameSpec(n=8, utility=lambda idx: float(idx.size))
        with pytest.raises(GameSizeError):
            exact_shapley(game, limit=6)
        assert exact_shapley(game, limit=8).values == pytest.approx([1.0] * 8)


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

class TestChgClosedForm:
    def test_single_player_takes_everything(self):
        x = np.array([[0.3, -1.2]])
        alpha = np.array([0.7, 0.1])
        values = chg_closed_form_shapley(x, alpha).values
        expected = alpha @ alpha - (x[0] - alpha) @ (x[0] - alpha)
        assert values == pytest.approx([expected], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_all_rows_at_alpha_split_evenly(self, n):
        alpha = np.array([1.0, -2.0, 0.5])
        X = np.tile(alpha, (n, 1))
        values = chg_closed_form_shapley(X, alpha).values
        assert values == pytest.approx([float(alpha @ alpha) / n] * n, abs=1e-9)

    def test_zero_game_is_zero(self):
        values = chg_closed_form_shapley(np.zeros((4, 3)), np.zeros(3)).values
        assert values == pytest.approx([0.0] * 4, abs=0.0)

    def test_golden_fixture_n5_d3(self):
        rng = np.random.default_rng(20240511)
        X = rng.standard_normal((5, 3))
        alpha = rng.standard_normal(3)
        expected = load_fixture("chg_values_n5_d3_seed20240511.txt")
        closed = chg_closed_form_shapley(X, alpha).values
        exact = exact_shapley(chg_game(X, alpha)).values
        assert closed == pytest.approx(expected, abs=1e-9)
        assert exact == pytest.approx(expected, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            chg_closed_form_shapley(np.array([[np.nan, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            chg_closed_form_shapley(np.ones((2, 2)), np.array([np.inf, 0.0]))

    def test_two_player_route_matches_enumeration(self):
        # Closed form and enumeration round differently, so they agree to
        # a few ulps of the values.
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2, 3))
        alpha = rng.standard_normal(3)
        closed = chg_closed_form_shapley(X, alpha)
        exact = exact_shapley(chg_game(X, alpha))
        ulps = 4 * np.finfo(float).eps * np.max(np.abs(exact.values))
        assert np.max(np.abs(closed.values - exact.values)) <= ulps


def random_factored(rng, n, classes=3, width=4) -> FactoredGrads:
    delta = rng.standard_normal((n, classes))
    phi = rng.standard_normal((n, width))
    return FactoredGrads(rng.uniform(0.1, 2.0, n)[:, None] * delta, phi)


class TestFactoredClosedForm:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("factored", [False, True])
    def test_small_n_matches_enumeration(self, n, factored, monkeypatch):
        rng = np.random.default_rng(30 + n)
        grads = random_factored(rng, n)
        X = grads.dense()
        alpha = rng.standard_normal(X.shape[1])
        exact = exact_shapley(chg_game(grads if factored else X, alpha)).values

        def refuse(*_args, **_kwargs):
            raise AssertionError("the closed form must not enumerate or densify")

        monkeypatch.setattr(shapley, "exact_shapley", refuse)
        monkeypatch.setattr(FactoredGrads, "dense", refuse)
        values = chg_closed_form_shapley(grads if factored else X, alpha).values
        assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [3, 7, 200])
    def test_factored_matches_dense(self, n):
        rng = np.random.default_rng(40 + n)
        grads = random_factored(rng, n, classes=5, width=9)
        X = grads.dense()
        alpha = X.mean(axis=0)
        dense = chg_closed_form_shapley(X, alpha).values
        factored = chg_closed_form_shapley(grads, alpha).values
        assert np.max(np.abs(factored - dense)) <= 1e-12 * np.ptp(dense)
        assert np.array_equal(np.argsort(factored), np.argsort(dense))

    def test_dense_row_blocks_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(60)
        X = rng.standard_normal((200, 9)) + 50.0
        alpha = rng.standard_normal(9)
        whole = chg_closed_form_shapley(X, alpha).values
        monkeypatch.setattr(shapley, "_CENTRED_BLOCK", 7 * 9)  # 28 blocks of 7 rows, then 4
        blocked = chg_closed_form_shapley(X, alpha).values
        assert np.max(np.abs(blocked - whole)) <= 1e-13 * np.ptp(whole)

    def test_alpha_shape_checked_against_factored_width(self):
        grads = random_factored(np.random.default_rng(50), 4)
        with pytest.raises(ValueError):
            chg_closed_form_shapley(grads, np.zeros(grads.shape[1] + 1))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_overflowing_statistics_raise(self, n):
        X = np.full((n, 2), 1e200)
        with pytest.raises(FloatingPointError):
            chg_closed_form_shapley(X, np.ones(2))


# ---------------------------------------------------------------------------
# Mean game U(S) = mean_{i in S} y_i
# ---------------------------------------------------------------------------

class TestMeanGameWeights:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_efficiency(self, n):
        # The uncentred values own * y_k + total * sum_i y_i, with the
        # weight on the sum total = -(H_n - 1)/(n(n - 1)) stated on its
        # own, sum to mean_i y_i only if own + n * total = 1/n.
        total = 0.0 if n == 1 else -(harmonic_sums(n).h1 - 1.0) / (n * (n - 1))
        assert abs(mean_game_weight(n) + n * total - 1.0 / n) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_enumeration(self, n):
        y = np.random.default_rng(100 + n).standard_normal(n)
        exact = exact_shapley(GameSpec(n=n, utility=lambda idx: float(y[idx].mean()))).values
        centred = y.mean() / n + mean_game_weight(n) * (y - y.mean())
        assert centred == pytest.approx(exact, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mean_game_weight(0)


# ---------------------------------------------------------------------------
# Linear term (the 2<mean, alpha> part of the utility)
# ---------------------------------------------------------------------------

class TestLinearTerm:
    def test_zero_alpha_gives_zeros(self):
        rng = np.random.default_rng(0)
        values = shapley_linear_term(rng.standard_normal((5, 2)), np.zeros(2)).values
        assert values == pytest.approx([0.0] * 5, abs=0.0)

    def test_identical_rows_split_evenly(self):
        x = np.array([0.4, -1.0])
        alpha = np.array([2.0, 0.5])
        n = 6
        values = shapley_linear_term(np.tile(x, (n, 1)), alpha).values
        assert values == pytest.approx([2.0 * float(x @ alpha) / n] * n, abs=1e-12)

    def test_random_n6_matches_oracle(self):
        rng = np.random.default_rng(66)
        X = rng.standard_normal((6, 4))
        alpha = rng.standard_normal(4)

        def linear_part(idx):
            return 2.0 * float(X[idx].mean(axis=0) @ alpha)

        exact = exact_shapley(GameSpec(n=6, utility=linear_part)).values
        assert shapley_linear_term(X, alpha).values == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_factored_matches_dense(self, n):
        rng = np.random.default_rng(60 + n)
        grads = random_factored(rng, n)
        alpha = rng.standard_normal(grads.shape[1])
        factored = shapley_linear_term(grads, alpha).values
        dense = shapley_linear_term(grads.dense(), alpha).values
        assert factored == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_single_player_fallback(self):
        X = np.array([[1.0, 2.0]])
        alpha = np.array([3.0, -1.0])
        values = shapley_linear_term(X, alpha).values
        assert values == pytest.approx([2.0 * float(X[0] @ alpha)], abs=1e-12)

    def test_overflowing_values_raise_floating_point_error(self):
        X = np.full((3, 1), 1e200)
        with pytest.raises(FloatingPointError, match="overflowed"):
            shapley_linear_term(X, X.mean(axis=0))


# ---------------------------------------------------------------------------
# Exact rational reference, from the expected marginal at each coalition size
# ---------------------------------------------------------------------------

def exact_weights(n: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, ...]]:
    """The mean-game and mean-square-game weights as exact rationals.

    Datum k joins a uniform coalition S of s others, s = 0..n-1 each with
    probability 1/n.  There E[sum_S x] = s/(n-1) G_k and
    E||sum_S x||^2 = s/(n-1) T_k + s(s-1)/((n-1)(n-2)) P_k, so every
    weight is the average over s of the coefficient its term carries in
    the expected marginal; the linear game's own weight is the coefficient
    of y_k (`mean_game_weight`) and total that of sum_i y_i.
    """
    own = cross = others = pairs = linear_own = linear_others = Fraction(0)
    for s in range(n):
        m = s + 1
        own += Fraction(1, m * m)
        linear_own += Fraction(1, m)
        if s >= 1:
            cross += Fraction(2 * s, (n - 1) * m * m)
            others += Fraction(s, n - 1) * (Fraction(1, m * m) - Fraction(1, s * s))
            linear_others += Fraction(s, n - 1) * (Fraction(1, m) - Fraction(1, s))
        if s >= 2:
            pairs += Fraction(s * (s - 1), (n - 1) * (n - 2)) * (
                Fraction(1, m * m) - Fraction(1, s * s)
            )
    linear = ((linear_own - linear_others) / n, linear_others / n)
    return linear, tuple(w / n for w in (own, cross, others, pairs))


def exact_chg_values(X: np.ndarray, alpha: np.ndarray) -> list[Fraction]:
    """Exact Shapley values of U(S) = 2<mean_S x, alpha> - ||mean_S x||^2 on integer data."""
    rows = [[int(v) for v in row] for row in X]
    a = [int(v) for v in alpha]
    n = len(rows)
    (linear_own, linear_total), (own, cross, others, pairs) = exact_weights(n)
    g = [sum(col) for col in zip(*rows)]
    sq = [sum(v * v for v in row) for row in rows]
    y = [2 * sum(v * w for v, w in zip(row, a)) for row in rows]
    values = []
    for k, row in enumerate(rows):
        G = [gi - xi for gi, xi in zip(g, row)]
        T = sum(sq) - sq[k]
        P = sum(v * v for v in G) - T
        square = own * sq[k] + cross * sum(v * w for v, w in zip(row, G)) + others * T + pairs * P
        values.append(linear_own * y[k] + linear_total * sum(y) - square)
    return values


class TestExactRationalReference:
    @pytest.mark.parametrize("n", [*range(1, 13), 300])
    def test_weights_are_size_averages(self, n):
        (linear_own, linear_total), (own, cross, others, pairs) = exact_weights(n)
        kappa = own - cross - others + 2 * pairs
        assert linear_own + n * linear_total == Fraction(1, n)  # efficiency
        weights = mean_game_weight(n), mean_square_game_weight(n)
        for got, want in zip(weights, (linear_own, kappa)):
            if want == 0:
                assert got == 0.0
            else:
                assert abs(Fraction(got) - want) <= 8 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_reference_matches_enumeration(self, n):
        rng = np.random.default_rng(70 + n)
        X = rng.integers(-5, 6, size=(n, 2)).astype(float)
        alpha = rng.integers(-5, 6, size=2).astype(float)
        exact = [float(v) for v in exact_chg_values(X, alpha)]
        assert exact_shapley(chg_game(X, alpha)).values == pytest.approx(exact, abs=1e-12)

    def test_closed_form_matches_rationals_at_n300(self):
        rng = np.random.default_rng(300)
        X = rng.integers(-9, 10, size=(300, 2)).astype(float)
        alpha = rng.integers(-9, 10, size=2).astype(float)
        exact = exact_chg_values(X, alpha)
        mean = [Fraction(int(c), 300) for c in X.sum(axis=0)]
        grand = sum(2 * m * int(a) - m * m for m, a in zip(mean, alpha))
        assert sum(exact) == grand
        closed = chg_closed_form_shapley(X, alpha).values
        spread = max(exact) - min(exact)
        worst = max(abs(Fraction(float(c)) - e) for c, e in zip(closed, exact))
        assert worst <= Fraction(1, 10**12) * spread

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e7])
    @pytest.mark.parametrize("factored", [False, True])
    def test_large_offset_stays_at_the_precision_floor(self, offset, factored):
        # Any float value near U(N)/n is off by about eps * |U(N)|/n, which
        # a large common offset makes large against the spread.  Without
        # an offset U(N)/n is tiny, and the values' own rounding,
        # eps * spread, is the floor.
        rng = np.random.default_rng(300)
        X = rng.integers(-9, 10, size=(300, 2)) + offset
        alpha = rng.integers(-9, 10, size=2) + offset
        exact = exact_chg_values(X, alpha)
        spread = max(exact) - min(exact)
        floor = np.finfo(float).eps * max(abs(sum(exact)) / 300, spread) / spread
        rows = FactoredGrads(X, np.zeros((300, 0))) if factored else X
        closed = chg_closed_form_shapley(rows, alpha).values
        worst = max(abs(Fraction(float(c)) - e) for c, e in zip(closed, exact))
        assert worst / spread <= (5 if factored else 2) * floor

    @pytest.mark.parametrize(
        "offset, spread", [(0.69, 1e-6), (5.0, 1e-8), (0.69, 1e-9), (1e3, 1e-3)]
    )
    @pytest.mark.parametrize("n", [300, 2000])
    def test_hardness_at_large_offset_stays_at_the_precision_floor(self, n, offset, spread):
        # Losses offset + spread * U(0, 1): every value is near lbar/n, so
        # eps * lbar/n is the floor.  Over seeds 0-19 of these cases the
        # values stayed within 0.96 floors.  The uncentred own * l_k + total
        # * sum(l), whose two terms of size H_n lbar/n cancel, was 1.7 to 11
        # floors off over seeds 0-29, and centring on the float mean without
        # carrying its rounding up to 7.6.
        losses = offset + spread * np.random.default_rng(n).uniform(size=n)
        linear_own, linear_total = exact_weights(n)[0]
        exact_losses = [Fraction(float(v)) for v in losses]
        total = sum(exact_losses)
        exact = [linear_own * v + linear_total * total for v in exact_losses]
        values_spread = max(exact) - min(exact)
        floor = np.finfo(float).eps * max(total / n / n, values_spread)
        values = hardness_shapley(losses).values
        worst = max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact))
        assert worst <= 1.5 * floor


# ---------------------------------------------------------------------------
# Permutation Monte Carlo
# ---------------------------------------------------------------------------

class TestPermutationShapley:
    def test_additive_game_exact_for_any_sample_count(self):
        v = np.array([2.0, -1.0, 0.5, 3.0, 1.25])
        for samples in (1, 3, 10):
            values = permutation_shapley(additive_game(v), samples=samples, seed=4).values
            assert values == pytest.approx(v, abs=1e-12)

    def test_single_sample_equals_that_permutations_marginals(self):
        from scipy.stats import qmc

        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        alpha = rng.standard_normal(3)
        game = chg_game(X, alpha)
        seed = 99
        # First walked permutation: the identity rotation of the first
        # scrambled-Halton base permutation.
        perm = np.argsort(qmc.Halton(d=6, scramble=True, seed=seed).random(1), axis=1)[0]
        expected = np.zeros(6)
        prev = 0.0
        for pos in range(6):
            val = game.utility(np.sort(perm[: pos + 1]))
            expected[perm[pos]] = val - prev
            prev = val
        values = permutation_shapley(game, samples=1, seed=seed).values
        assert values == pytest.approx(expected, abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        game = chg_game(rng.standard_normal((7, 2)), rng.standard_normal(2))
        a = permutation_shapley(game, samples=500, seed=123).values
        b = permutation_shapley(game, samples=500, seed=123).values
        assert np.array_equal(a, b)

    def test_error_within_range_at_10k(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 4))
        alpha = rng.standard_normal(4)
        game = chg_game(X, alpha)
        exact = exact_shapley(game).values
        mc = permutation_shapley(game, samples=10_000, seed=7).values
        value_range = exact.max() - exact.min()
        assert np.max(np.abs(mc - exact)) <= 1e-2 * value_range

    def test_efficiency_holds_per_walk(self):
        # Marginals along any permutation telescope to U(N), so the
        # estimate is exactly efficient at every sample count.
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        alpha = rng.standard_normal(3)
        game = chg_game(X, alpha)
        grand = game.utility(np.arange(6))
        for samples in (1, 7, 200):
            total = permutation_shapley(game, samples, seed=2).values.sum()
            assert abs(total - grand) <= 1e-9 * max(1.0, abs(grand))

    def test_input_validation(self):
        game = GameSpec(n=3, utility=lambda idx: 0.0)
        with pytest.raises(ValueError):
            permutation_shapley(game, samples=0)


# ---------------------------------------------------------------------------
# Axioms and structural properties
# ---------------------------------------------------------------------------

class TestProperties:
    def test_efficiency_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            d = int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            alpha = rng.standard_normal(d)
            values = chg_closed_form_shapley(X, alpha).values
            m = X.mean(axis=0)
            grand = float(alpha @ alpha - (m - alpha) @ (m - alpha))
            assert abs(values.sum() - grand) <= 1e-9 * max(1.0, abs(grand))

    def test_symmetry_duplicated_rows(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((7, 3))
        X[4] = X[1]
        alpha = rng.standard_normal(3)
        values = chg_closed_form_shapley(X, alpha).values
        assert abs(values[4] - values[1]) <= 1e-12

    def test_dummy_player_exact_zero(self):
        v = np.array([2.0, 0.0, -1.0, 0.5])  # player 1 never changes the sum

        def skip_dummy(idx):
            return float(v[idx].sum())

        values = exact_shapley(GameSpec(n=4, utility=skip_dummy)).values
        assert values[1] == 0.0

    def test_linearity_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            d = int(rng.integers(1, 5))
            X = rng.standard_normal((n, d))
            alpha = rng.standard_normal(d)
            total = chg_closed_form_shapley(X, alpha).values
            # U1(S) = -||mean_S x||^2 is the utility with alpha = 0.
            quadratic = exact_shapley(chg_game(X, np.zeros(d))).values
            linear = shapley_linear_term(X, alpha).values
            assert total == pytest.approx(quadratic + linear, abs=1e-9)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(3, 13))
            d = int(rng.integers(1, 9))
            X = rng.standard_normal((n, d))
            alpha = rng.standard_normal(d)
            closed = chg_closed_form_shapley(X, alpha).values
            exact = exact_shapley(chg_game(X, alpha)).values
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(closed - exact)) <= 1e-9 * scale

    def test_value_gaps_come_from_per_datum_terms_only(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((9, 4))
        alpha = rng.standard_normal(4)
        values = chg_closed_form_shapley(X, alpha).values
        kappa = mean_square_game_weight(9)
        own = mean_game_weight(9)
        Y = X - X.mean(axis=0)
        d = np.einsum("ij,ij->i", Y, Y)
        e = Y @ (X.mean(axis=0) - alpha)
        for j in range(9):
            for k in range(9):
                gap = kappa * (d[k] - d[j]) + 2.0 * own * (e[k] - e[j])
                assert values[j] - values[k] == pytest.approx(gap, abs=1e-9)

    def test_mc_error_shrinks_with_samples(self):
        improved = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((8, 3))
            alpha = rng.standard_normal(3)
            game = chg_game(X, alpha)
            exact = exact_shapley(game).values
            small = np.max(np.abs(permutation_shapley(game, 100, seed=seed).values - exact))
            large = np.max(np.abs(permutation_shapley(game, 10_000, seed=seed).values - exact))
            improved += large <= small
        assert improved >= 4

    def test_values_container_validation(self):
        with pytest.raises(ValueError):
            ShapleyValues(values=np.array([1.0, np.nan]), grand_utility=1.0)
        with pytest.raises(ValueError):
            ShapleyValues(values=np.ones((2, 2)), grand_utility=4.0)
        with pytest.raises(TypeError):
            ShapleyValues(values=np.ones(2))


def every_route(rng, n):
    """(route, values, game) for each route that returns `ShapleyValues`."""
    grads = random_factored(rng, n)
    X = grads.dense()
    alpha = rng.standard_normal(X.shape[1])
    losses = rng.uniform(0.1, 3.0, n)
    chg = chg_game(X, alpha)
    linear = GameSpec(n, lambda idx: 2.0 * float(X[idx].mean(axis=0) @ alpha))
    hardness = GameSpec(n, lambda idx: float(losses[idx].mean()))
    return [
        ("closed form, dense", chg_closed_form_shapley(X, alpha), chg),
        ("closed form, factored", chg_closed_form_shapley(grads, alpha), chg),
        ("linear term", shapley_linear_term(grads, alpha), linear),
        ("exact", exact_shapley(chg), chg),
        ("permutation", permutation_shapley(chg, samples=30, seed=n), chg),
        ("hardness", hardness_shapley(losses), hardness),
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_every_route_returns_the_grand_utility_its_values_sum_to(n):
    for route, result, game in every_route(np.random.default_rng(90 + n), n):
        full = game.utility(np.arange(n))
        tolerance = 1e-12 * abs(full)
        assert abs(result.grand_utility - full) <= tolerance, route
        assert abs(result.values.sum() - result.grand_utility) <= tolerance, route

def test_mean_distance_utility_empty_set_convention():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    alpha = np.array([0.5, 0.5])
    u = mean_distance_utility(X, alpha)
    # Singleton {0}: ||alpha||^2 - ||x_0 - alpha||^2
    assert u(np.array([0])) == pytest.approx(0.5 - 0.5, abs=1e-15)
    full = u(np.array([0, 1]))
    assert full == pytest.approx(0.5, abs=1e-15)  # mean hits alpha exactly
