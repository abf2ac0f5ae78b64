"""Tests for the core Shapley routines against brute-force enumeration."""

import hashlib
import math
import tracemalloc
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
        assert harmonic_sums(1) == (1.0, 1.0)

    def test_n4_exact_fractions(self):
        h1, h2 = harmonic_sums(4)
        assert h1 == pytest.approx(25 / 12, abs=1e-15)
        assert h2 == pytest.approx(205 / 144, abs=1e-15)

    def test_n3_exact_fractions(self):
        h1, h2 = harmonic_sums(3)
        assert h1 == pytest.approx(11 / 6, abs=1e-15)
        assert h2 == pytest.approx(49 / 36, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            harmonic_sums(0)

    def test_increment_is_reciprocal(self):
        for n in range(2, 200):
            assert harmonic_sums(n)[0] - harmonic_sums(n - 1)[0] == pytest.approx(
                1.0 / n, abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 1000, 100000])
    def test_bit_identical_to_sequential_sum(self, n):
        h1 = h2 = 0.0
        for k in range(1, n + 1):
            h1 += 1.0 / k
            h2 += 1.0 / (k * k)
        assert harmonic_sums(n) == (h1, h2)

    def test_monotone_and_bounded(self):
        prev1, prev2 = harmonic_sums(1)
        for n in range(2, 100):
            h1, h2 = harmonic_sums(n)
            assert h1 > prev1
            assert h2 > prev2
            assert h2 < h1
            assert h2 < math.pi**2 / 6
            prev1, prev2 = h1, h2


# ---------------------------------------------------------------------------
# Mean-square game Q(S) = ||mean_{i in S} y_i||^2 on centred rows: kappa_n
# ---------------------------------------------------------------------------

def four_weight_kappa(n: int) -> float:
    """kappa_n = own - cross - others + 2*pairs from the four mean-square
    game weights on uncentred rows, each in its own harmonic form."""
    h1, h2 = harmonic_sums(n)
    inv_n = 1.0 / n
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

    def test_a_new_n_holds_a_few_blocks(self):
        # The harmonic sums and the direct average run over blocks of k and
        # s: at n = 1e6 their n-length arrays peaked at 30.5 MiB.
        n = 10**6
        shapley.harmonic_sums.cache_clear()
        mean_square_game_weight.cache_clear()
        tracemalloc.start()
        try:
            kappa = mean_square_game_weight(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak / 2**20  # 1.25 MiB; one n-length array is 7.6
        assert abs(kappa - four_weight_kappa(n)) <= 1e-12 * kappa

    def test_harmonic_sums_are_one_left_fold(self):
        # Across block edges, as a sequential loop adds them.
        for n in (1, 2, 3, shapley._CENTRED_BLOCK, shapley._CENTRED_BLOCK + 1, 70001):
            h1 = h2 = 0.0
            for k in range(1, n + 1):
                h1 += 1.0 / k
                h2 += 1.0 / (float(k) * k)
            assert shapley.harmonic_sums.__wrapped__(n) == (h1, h2), n

    def test_wrong_harmonic_sums_raise_naming_n(self, monkeypatch):
        # The efficiency audit cannot see a wrong kappa_n; the direct sum can.
        true_sums = shapley.harmonic_sums

        def perturbed(n):
            h1, h2 = true_sums(n)
            return h1, h2 * (1 + 1e-9)

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
        def never(idx):
            raise AssertionError("a refused game must not be played")

        with pytest.raises(GameSizeError, match="n=21 exceeds limit=20"):
            exact_shapley(GameSpec(n=21, utility=never))

    def test_eight_players_are_valued_within_the_limit(self):
        game = GameSpec(n=8, utility=lambda idx: float(idx.size))
        assert exact_shapley(game).values == pytest.approx([1.0] * 8)


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
        total = 0.0 if n == 1 else -(harmonic_sums(n)[0] - 1.0) / (n * (n - 1))
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
    def test_alpha_required(self):
        # Only the quadratic closed form defaults alpha to X's own mean.
        X = np.ones((3, 2))
        for entry in (shapley_linear_term, chg_game):
            with pytest.raises(ValueError, match="alpha"):
                entry(X, None)

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

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e7])
    @pytest.mark.parametrize("factored", [False, True])
    def test_linear_term_at_large_offset_stays_at_the_precision_floor(self, offset, factored):
        # The data of the chg case above.  Centring on the float mean row
        # without carrying the rounding it leaves read up to 8.9 floors
        # (factored, offset 1e5); carried, it stays under 0.84 over seeds 300-305.
        rng = np.random.default_rng(300)
        X = rng.integers(-9, 10, size=(300, 2)) + offset
        alpha = rng.integers(-9, 10, size=2) + offset
        linear_own, linear_total = exact_weights(300)[0]
        y = [2 * sum(int(v) * int(a) for v, a in zip(row, alpha)) for row in X]
        exact = [linear_own * v + linear_total * sum(y) for v in y]
        spread = max(exact) - min(exact)
        floor = np.finfo(float).eps * max(abs(sum(exact)) / 300, spread)
        rows = FactoredGrads(X, np.zeros((300, 0))) if factored else X
        values = shapley_linear_term(rows, alpha).values
        worst = max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact))
        assert worst <= 1.5 * floor

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
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        alpha = rng.standard_normal(3)
        game = chg_game(X, alpha)
        # First walked permutation: the identity rotation of the first
        # scrambled-Halton base permutation at n = 6, seed 99, recorded
        # from scipy 1.17.1's qmc.Halton.
        perm = np.array([0, 4, 1, 2, 5, 3])
        expected = np.zeros(6)
        prev = 0.0
        for pos in range(6):
            val = game.utility(np.sort(perm[: pos + 1]))
            expected[perm[pos]] = val - prev
            prev = val
        values = permutation_shapley(game, samples=1, seed=99).values
        assert values == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_walks_rotations_and_their_reverses_block_by_block(self, n):
        # Sample t walks rotation (t // 2) % n of base t // (2n), reversed
        # when t is odd; every count up to past a second block edge.
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        game = GameSpec(n=n, utility=lambda idx: float(v[idx].sum() ** 2))
        bases = np.argsort(shapley._scrambled_halton(n, 3, 11), axis=1)
        for samples in range(1, 4 * n + 2):
            totals = np.zeros(n)
            for t in range(samples):
                base = bases[t // (2 * n)]
                r = (t // 2) % n
                perm = np.concatenate([base[r:], base[:r]])[:: -1 if t % 2 else 1]
                prev = 0.0
                for pos in range(n):
                    val = game.utility(np.sort(perm[: pos + 1]))
                    totals[perm[pos]] += val - prev
                    prev = val
            got = permutation_shapley(game, samples=samples, seed=11).values
            assert np.array_equal(got, totals / samples)

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
            permutation_shapley(game, samples=0, seed=0)


# ---------------------------------------------------------------------------
# Scrambled Halton points
# ---------------------------------------------------------------------------

# SHA-256 of the bytes of qmc.Halton(d=n, scramble=True, seed=seed).random(count),
# keyed (n, seed, count), recorded from scipy 1.17.1.
SCIPY_1_17_HALTON_SHA256 = {
    (1, 0, 1): "5953b8cabc7d8d3a88a27b4cfee545fa462c9c94aad9d36910fc014124320585",
    (1, 0, 2): "dce50c43494abf76d34104d85a76bb84cffd96aa6fa730aa08caaf01e3f50ae2",
    (1, 0, 17): "24db4d1fe340a9ff957a59db8a65356aede8cf63e28861536718dd373fb22659",
    (1, 0, 500): "9fe00e0a66d4237bde9082c1736fddbf4059f9dff034f7a8195f2e35238ccc4d",
    (1, 7, 1): "38c271e95f13791fe3f3d64292cdbf6757d5a9243836d1ef89533cb11fd00612",
    (1, 7, 2): "176cadf8d8ce65572c370fc78dd27bd32535aa7083672d1406b42662b80110e8",
    (1, 7, 17): "1c67cbf0e96281bda743d17a335ed1e226999ed9dfb588c561a56e3f2171285f",
    (1, 7, 500): "4780e761d04f5d2e8844835f8735e7617a9a2dd232b5bdefcf661f9f670764ea",
    (1, 99, 1): "4604c5fd4b2f918eab5e861e4e03f7423264ea06eea2205d52eab056b5dfe520",
    (1, 99, 2): "a1911f58adafbf1c62e1c5aa15ecf821e67e1f25b1afddc32df6116e003973de",
    (1, 99, 17): "4f3a1dccb9f89d5bb55dd99f6be6016a6604d05bfe1e149713adde694cf6f587",
    (1, 99, 500): "2c8a9e4b9647b5e45b06e2baa012f54e7fbb5b98664df41b2872c4b651998265",
    (2, 0, 1): "1623024cd457f945b82aec557ea5f7bcd861cf9ff46e51e0939d9c6f8cc70240",
    (2, 0, 2): "8bc519b6d32f2f7fff507d900b431f92c604a9cab472789561667b07f1b14a40",
    (2, 0, 17): "b034aca322c14accb48d3fbfef7dd8f163659dd8a3c2c2e29f092e7edba1f474",
    (2, 0, 500): "115209721d513c5295c2394a1985b2146841f143cb7b814779a878070dc937ac",
    (2, 7, 1): "df96cfc6a80dc3b0c1dee12887c7c5298a29c1444dee36b69e5d8e3020998d60",
    (2, 7, 2): "cd7cf73832d8b1d28d5022468016721ac6fc43e9d2df99aeb39c0fc0f517c8b1",
    (2, 7, 17): "895c6bfc4db412f033d7d745d795c77ae1e60efb6a3f9e9bafc4c38867ec1813",
    (2, 7, 500): "8e1ebeffbb3afbf3e8e7fce500498c8126bab88ec5ac458a68d4f51bb4f285c1",
    (2, 99, 1): "66a6a997810526917db09b3b453c1b6f8801d754e83faee9c5801829ae044c37",
    (2, 99, 2): "70e2d4c65256e6b794218fd61e3f33e4debba251ddc0eef5e0a73c09d87135b4",
    (2, 99, 17): "c13247d9777d6a9827c5ca51c39c4edbcb546bed5459a2bc6e25fd172b754385",
    (2, 99, 500): "df85b7ecb4a207685a3cb4f87e22dd72d23877890f5e3f9a09123e8dafb1c8bb",
    (3, 0, 1): "cf9a76d28966c83a0bd7c43f14cf8d170f3597502cca5de9d8bb807c5ac5cbf6",
    (3, 0, 2): "357bf3ebb77da77c45e88d8f20dc8aacf77c2c6db9cb8fc113affed32f0aa999",
    (3, 0, 17): "08d483029da2089d7226f7ca169f95d328fdbd827c89623ea524024271bc5192",
    (3, 0, 500): "9f26c9244219fca2e96aff13d9d8670757f5250dea16d2c9590c96c1efcb3e1a",
    (3, 7, 1): "e208f0dd862a6967d4318898bbf3d311851f36784f2f489738aa145801b34d1e",
    (3, 7, 2): "6f923e18e7a1667b309005f394a689b5eb7a1379349dfd576dfeb1d0c7fb0e55",
    (3, 7, 17): "4a4b08b982f00fe72afd64dc4aa771e62e949ecc89b95173ec5e9e781aa88d5e",
    (3, 7, 500): "e7aa3d5acbee4da708c64cc37174a95889f27f15a91adc3a991a32fa1dd3f6a2",
    (3, 99, 1): "68cbdd87c8d2c76c85be74b2e5cc05585be836cbc78ef5ce320b3a58af438760",
    (3, 99, 2): "67a794647b36f0616d83d70f33ae5a259b4231352582a10f504a24858aeabe52",
    (3, 99, 17): "3cb866198cad076078f0ca0e5e7ad1da62039101b3b964f92d08ac77ef866fb7",
    (3, 99, 500): "9986803423a6c0723386b40e9b1e34d80b6585ec51c1931506b350cfc34f2dce",
    (6, 0, 1): "3865b739260a43f30dcfc9281a8cc38e1efaefb983743cec160a6a10f1a3d8f5",
    (6, 0, 2): "a0f677a6cfb4e3a7dae0ee116a92e774387664977ee35687a8fea68c2148a9cd",
    (6, 0, 17): "fa48fa7cdcd3efd43f119317be6f58a8379dcc0cef8b0bf4c3ebe6244a77bf9b",
    (6, 0, 500): "8e3e8e83c6c3c5985a3162004300265d9266ff969693fcf4bc15a8a232615b99",
    (6, 7, 1): "7ce37bb30a2cc6b85cb2f7a9ed7475096985a143f37a54ffdfcf70759c9e8ecd",
    (6, 7, 2): "bfc16f6896ca6703581c0165c276c36d4c8bc6092fc0d5eee5743b076d37bffc",
    (6, 7, 17): "4c02c81ddf809d60a1866fcb89d9fc2e2f61539768e625160dcbb5d6d00f46ee",
    (6, 7, 500): "421bc4cd2de4c8d7cd9f4722fc0af12eaf90e574ae262728759e6f8150546c3b",
    (6, 99, 1): "29fc0852377d740d12a6c55daafb105e1f7c1229e4656e33b26e4f3024cffcdf",
    (6, 99, 2): "1087a27db77e094d64dbf19374b706d08725ece2ab60eb276d76e5a022802400",
    (6, 99, 17): "37c0b9277418675c4ccfaceab64b371bdb2bd702ed64f8becb70a3ea069ad1c0",
    (6, 99, 500): "bfcf3c0c71e0187f03ecd5d57d27e15d1d2d9079fc05e95d855b8bf23370b5f8",
    (8, 0, 1): "366b7aebd9cb9d9e53b3c869f799bfea5c024c40025995d83278e0211053cc1e",
    (8, 0, 2): "9301b3050e06caf04f15042a007f6727eec28bb551090e0c74d1c88ccf29e7ad",
    (8, 0, 17): "32ebf138a86e12d6ed5957c0b1f48e0e1e19a4015be8da95124bf8614fa7b6f2",
    (8, 0, 500): "59f8f320a2c5a424da5829ff65e35f550f119ce4e7a8db3a2b0116602a908d74",
    (8, 7, 1): "54f1dc2a9b05c59bc11ef2bd5597d6aa5744d1eb88c6c261caf6c73e0963e620",
    (8, 7, 2): "0dcf9a579b2e4d35f2cff89ddc12d90ba52311d462f208b46d87d760b3c15486",
    (8, 7, 17): "e590b25fe3c1cdd8fce59500e44f1b03940c49e4c172cd9b5bceb6559c5d363c",
    (8, 7, 500): "4ec7b81a2443c1a12f17febf3435cbb1f7870a5dd98bd078f4acd6f726dcaab7",
    (8, 99, 1): "d03b8a425adda986b84d9d7770a7f67261e7a42ef02befbfcd4fb73fac3e6eeb",
    (8, 99, 2): "833d40ec3c43a2d672962d1974f3c4548db81d4941acfcacb2e6d1436c47c474",
    (8, 99, 17): "6cd7f166026a0cced0c482e41ddde9fab24edb53502b205c013b06e2d9a77ac3",
    (8, 99, 500): "de330b5e66c11de9ac2aed7988f04123829d1c04f134151b70e6589665330ede",
    (12, 0, 1): "a52777ceea1458227c80961e4a6f75d1f65d82e302b7e317d886eb055e6d49e9",
    (12, 0, 2): "b3a9052392f2b01cbae44c119e6a76773475a092d4efdcdaa1aabd38ff9ab70f",
    (12, 0, 17): "53d848f1d1db06344d1a0328f17bfe2dbbc84a9ece36ee2de14a6d49eca63b71",
    (12, 0, 500): "3ab7c7347170e26d33ea28075a7f1b2eb46a296fe0b6adbf4ceb560f6cb38965",
    (12, 7, 1): "fc57aaba7e88d95c5ff7b7c5804849b6e5e51d56988585ad1ae93c523d6a3762",
    (12, 7, 2): "5fd963a9c4977bc6145141a266f2e08be543a72f73937a1fac0e1e859b4af757",
    (12, 7, 17): "19bd63620be5f73537e2d4c112ace35ecc8e132063865d4950058bf8f8e8e2a6",
    (12, 7, 500): "696576e73e9825e26c6ffe19015fafae535ecef194133fb9129f7d59bff6adaf",
    (12, 99, 1): "62f175dc376ada8a0230713b3707fd6f6f2239094a4ff5f624277a2b1bd42551",
    (12, 99, 2): "9e0d2b838d5a604299f4d88852652874c696d16f07e0452c740c056ec4161c79",
    (12, 99, 17): "1af69f041f8ca96804ea2b5e709f221fea53597c633ede3be36edec517d685e2",
    (12, 99, 500): "2b3b575e035d22c8c1abb94fdf07a4e16d23d3aaa60f5c338cd9a972b9f5da34",
    (20, 0, 1): "4176d958ff31374e0838f9ccf267871c303dbdb531d171bcd5f1c8e8573df585",
    (20, 0, 2): "2c011da1d7be5c4bbc87deaad01622a1b81e9ccb16aeff5a6ec3ccab88a9e97f",
    (20, 0, 17): "f529604d627d47955956bf50252b0f1bb14b519ecdd4eecb6d1df17619de95c5",
    (20, 0, 500): "4591ae28d40bc53ad1a22709c3a84f7add696763a3ddc815d9cac4e62461b797",
    (20, 7, 1): "f3b8ec62309bf40dcfe5d9baf644433fffb390b0c99e3b3a981d09d08763ae3d",
    (20, 7, 2): "f4e3b3ecff1105b84cffa3f3965669aa741d8006d4cf37ba5070104ab5bae226",
    (20, 7, 17): "511a5e388dde555e632bd04eba0d8b145a243a809eb07f905e632445bf4775c6",
    (20, 7, 500): "6692dccdba2fb4c980bfccab485b38da6addc2cddc39a8a4c56d017e40787082",
    (20, 99, 1): "2951a72ec81ae8e3a3ae1e6e24f0bef40b9873a37cf9b11daadf048a69d70c25",
    (20, 99, 2): "5b1fc6f693ef497718c04d0fd7c08316439e8a13fdc7b6a73f58a04e695837db",
    (20, 99, 17): "625ba90ab19dbf96fceb338645c5a3c988edd5e00b687f55172e264a4efa790c",
    (20, 99, 500): "bc338fd8d08c16f55bcd891a37a94997ed6c4f69b4beceacf279dcdf907be5fc",
}


class TestScrambledHalton:
    @pytest.mark.parametrize("n, seed, count", sorted(SCIPY_1_17_HALTON_SHA256))
    def test_points_keep_scipy_1_17_bits(self, n, seed, count):
        points = shapley._scrambled_halton(n, count, seed)
        assert points.shape == (count, n)
        digest = hashlib.sha256(points.tobytes()).hexdigest()
        assert digest == SCIPY_1_17_HALTON_SHA256[n, seed, count]

    def test_first_base_permutation_at_n6_seed99(self):
        points = shapley._scrambled_halton(6, 1, 99)
        assert np.argsort(points, axis=1)[0].tolist() == [0, 4, 1, 2, 5, 3]

    @pytest.mark.parametrize("n", [1, 2, 6, 20, 40])
    def test_same_points_as_installed_scipy_1_17(self, n):
        # Other scipy releases were not checked, so only 1.17.x is compared.
        scipy = pytest.importorskip("scipy")
        if not scipy.__version__.startswith("1.17."):
            pytest.skip(f"scipy {scipy.__version__} is not 1.17.x")
        from scipy.stats import qmc

        for seed in (0, 5):
            expected = qmc.Halton(d=n, scramble=True, seed=seed).random(300)
            assert shapley._scrambled_halton(n, 300, seed).tobytes() == expected.tobytes()


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

def test_chg_game_utility_on_singleton_and_full_set():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    alpha = np.array([0.5, 0.5])
    u = chg_game(X, alpha).utility
    # Singleton {0}: ||alpha||^2 - ||x_0 - alpha||^2
    assert u(np.array([0])) == pytest.approx(0.5 - 0.5, abs=1e-15)
    full = u(np.array([0, 1]))
    assert full == pytest.approx(0.5, abs=1e-15)  # mean hits alpha exactly
