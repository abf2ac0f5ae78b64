"""Tests for the three utility kinds and their Shapley routes.

Small literal gradient sets are built with `dense_set`: a `FactoredGrads`
whose phi has zero width has rows equal to delta, so any dense matrix can
stand in as a factored one.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from chg_shapley.models import FactoredGrads
from chg_shapley.shapley import chg_closed_form_shapley, chg_game, exact_shapley
from chg_shapley.utilities import (
    GradientSet,
    _vectors,
    gradient_set_values,
    hardness_shapley,
    subset_utility,
    utility_game,
)

FIXTURES = Path(__file__).parent / "fixtures"

# A 10-long mask, truncated floats and a 2-D array.
BAD_ROW_INDICES = [np.arange(10) % 2 == 0, [0.7, 1.2], [[0, 1], [2, 3]]]


def dense_set(X, losses) -> GradientSet:
    """A gradient set whose rows are exactly the rows of X."""
    X = np.asarray(X, dtype=float)
    return GradientSet(FactoredGrads(X, np.empty((X.shape[0], 0))), losses)


def random_gradient_set(rng, n=5, d=3) -> GradientSet:
    return dense_set(rng.standard_normal((n, d)), rng.uniform(0.0, 2.0, n))


def own_mean(gs, kind) -> np.ndarray:
    """The mean row a quadratic kind's game is played against."""
    return _vectors(gs, kind).column_sum() / gs.n


# ---------------------------------------------------------------------------
# GradientSet container
# ---------------------------------------------------------------------------

class TestGradientSet:
    def test_zero_width_factor_is_the_matrix(self):
        X = np.random.default_rng(30).standard_normal((7, 4))
        vectors = dense_set(X, np.ones(7)).vectors
        assert np.array_equal(vectors.dense(), X)
        # delta is held class-major, and ||x_i - 0||^2 sums its squares class by class.
        class_major = np.ascontiguousarray(X.T)
        d, _ = vectors.centred(np.zeros(4))
        assert np.array_equal(d, np.einsum("ci,ci->i", class_major, class_major))
        assert d == pytest.approx(np.einsum("ij,ij->i", X, X), rel=1e-15)
        assert np.array_equal(vectors.column_sum(), X.sum(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            dense_set(np.ones((2, 2)), np.array([1.0, -0.5]))  # negative loss
        with pytest.raises(ValueError):
            dense_set(np.ones((2, 2)), np.ones(3))  # misaligned
        with pytest.raises(ValueError):
            dense_set(np.array([[np.inf, 0.0]]), np.ones(1))

    def test_dense_matrix_refused_with_the_dense_route(self):
        with pytest.raises(TypeError, match=r"chg_closed_form_shapley\(X, alpha\)"):
            GradientSet(np.ones((2, 2)), np.ones(2))

    def test_chg_vectors_scale_by_loss(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.array([2.0, 0.0]))
        assert np.array_equal(_vectors(gs, "chg").dense(), [[2.0, 0.0], [0.0, 0.0]])

    def test_restrict_selects_rows(self):
        gs = dense_set(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        sub = gs.restrict([2, 0])
        assert np.array_equal(sub.vectors.dense(), [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.losses, [2.0, 0.0])

    @pytest.mark.parametrize("indices", [[-1], [4], [0, 5]])
    def test_restrict_rejects_out_of_range_indices(self, indices):
        gs = dense_set(np.arange(8.0).reshape(4, 2), np.ones(4))
        with pytest.raises(ValueError, match="out of range for n=4"):
            gs.restrict(indices)

    @pytest.mark.parametrize("indices", BAD_ROW_INDICES)
    def test_restrict_rejects_masks_floats_and_2d(self, indices):
        gs = dense_set(np.arange(20.0).reshape(10, 2), np.ones(10))
        with pytest.raises(ValueError, match="row indices must be flat integers"):
            gs.restrict(indices)

    def test_restrict_takes_a_set(self):
        gs = dense_set(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        assert np.array_equal(gs.restrict({3, 1}).losses, np.sort(gs.restrict([1, 3]).losses))
        # {8, 1} iterates as 8, then 1; its rows still come in ascending order.
        gs = dense_set(np.arange(20.0).reshape(10, 2), np.arange(10.0))
        for indices in ({8, 1}, frozenset({8, 1})):
            assert gs.restrict(indices).losses.tolist() == [1.0, 8.0]
            assert np.array_equal(gs.restrict(indices).vectors.dense(), gs.vectors.dense()[[1, 8]])


class TestFactoredGradientSet:
    def factored_set(self, rng, n=12) -> GradientSet:
        grads = FactoredGrads(rng.standard_normal((n, 3)), rng.standard_normal((n, 5)))
        return GradientSet(grads, rng.uniform(0.0, 2.0, n))

    def test_chg_vectors_share_the_factors(self):
        gs = self.factored_set(np.random.default_rng(20))
        weighted = _vectors(gs, "chg")
        assert weighted.phi is gs.vectors.phi
        assert np.array_equal(weighted.delta, gs.losses[:, None] * gs.vectors.delta)
        dense = gs.vectors.dense()
        assert weighted.dense() == pytest.approx(gs.losses[:, None] * dense, rel=1e-15)

    def test_validation(self):
        grads = FactoredGrads(np.ones((2, 2)), np.array([[1.0], [np.inf]]))
        with pytest.raises(ValueError):
            GradientSet(grads, np.ones(2))
        with pytest.raises(ValueError):
            GradientSet(FactoredGrads(np.ones((2, 2)), np.ones((2, 1))), np.ones(3))

    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    def test_values_and_reference_match_dense(self, kind):
        rng = np.random.default_rng(21)
        gs = self.factored_set(rng, n=40)
        dense = dense_set(gs.vectors.dense(), gs.losses)
        idx = np.array([3, 17, 0, 39, 22])
        for a, b in ((gs, dense), (gs.restrict(idx), dense.restrict(idx))):
            assert a.vectors.shape == b.vectors.shape
            got, want = gradient_set_values(a, kind).values, gradient_set_values(b, kind).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.ptp(want)
            assert np.array_equal(np.argsort(got), np.argsort(want))
            assert own_mean(a, kind) == pytest.approx(own_mean(b, kind), rel=1e-12)

    def test_subset_utility_matches_dense(self):
        rng = np.random.default_rng(22)
        gs = self.factored_set(rng, n=6)
        dense = dense_set(gs.vectors.dense(), gs.losses)
        for kind in ("chg", "gradient"):
            exact = exact_shapley(utility_game(dense, kind)).values
            via_factored = exact_shapley(utility_game(gs, kind)).values
            assert via_factored == pytest.approx(exact, abs=1e-12)

    def test_overflowing_mean_is_a_numeric_failure(self):
        grads = FactoredGrads(np.ones((2, 1)), np.full((2, 1), 1e308))
        gs = GradientSet(grads, np.full(2, 10.0))
        with pytest.raises(FloatingPointError):
            gradient_set_values(gs, "chg")


# ---------------------------------------------------------------------------
# Reference vector
# ---------------------------------------------------------------------------

class TestReferenceVector:
    def test_chg_mean_of_weighted(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.array([1.0, 1.0]))
        assert own_mean(gs, "chg") == pytest.approx([0.5, 0.5])

    def test_zero_losses_zero_reference(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.zeros(2))
        assert own_mean(gs, "chg") == pytest.approx([0.0, 0.0])

    def test_gradient_kind_ignores_losses(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.array([7.0, 0.01]))
        assert own_mean(gs, "gradient") == pytest.approx([0.5, 0.5])

    def test_hardness_has_no_reference(self):
        gs = dense_set(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="not quadratic"):
            _vectors(gs, "hardness")

    def test_unknown_kind(self):
        gs = dense_set(np.ones((2, 2)), np.ones(2))
        for entry in (_vectors, utility_game, gradient_set_values):
            with pytest.raises(ValueError, match="unknown utility kind"):
                entry(gs, "cosine")


# ---------------------------------------------------------------------------
# Subset utility
# ---------------------------------------------------------------------------

class TestSubsetUtility:
    def test_empty_set_is_zero_for_every_kind(self):
        rng = np.random.default_rng(0)
        gs = random_gradient_set(rng)
        for kind in ("chg", "hardness", "gradient"):
            assert subset_utility(gs, kind, []) == 0.0

    def test_subset_mean_at_reference_hits_ceiling(self):
        # Two opposite rows with unit losses: mean of both lands on alpha = 0...
        # use rows placed symmetrically around a nonzero alpha instead.
        vectors = np.array([[2.0, 0.0], [0.0, 2.0]])
        gs = dense_set(vectors, np.ones(2))
        alpha = own_mean(gs, "chg")  # [1, 1]
        value = subset_utility(gs, "chg", [0, 1])
        assert value == pytest.approx(float(alpha @ alpha), abs=1e-12)

    def test_singleton_arithmetic(self):
        gs = dense_set(np.array([[0.0, 1.0]]), np.ones(1))
        alpha = np.array([1.0, 0.0])
        game = chg_game(_vectors(gs, "chg"), alpha)
        assert game.utility(np.array([0])) == pytest.approx(-1.0, abs=1e-12)

    def test_hardness_mean(self):
        gs = dense_set(np.zeros((2, 1)), np.array([0.2, 0.4]))
        assert subset_utility(gs, "hardness", [0, 1]) == pytest.approx(0.3)

    def test_out_of_range_subset(self):
        gs = dense_set(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            subset_utility(gs, "chg", [0, 2])

    @pytest.mark.parametrize("subset", BAD_ROW_INDICES)
    @pytest.mark.parametrize("kind", ["chg", "hardness", "gradient"])
    def test_masks_floats_and_2d_rejected(self, kind, subset):
        gs = random_gradient_set(np.random.default_rng(3), n=10)
        with pytest.raises(ValueError, match="row indices must be flat integers"):
            subset_utility(gs, kind, subset)

    def test_a_set_is_its_rows(self):
        gs = random_gradient_set(np.random.default_rng(4), n=6)
        for kind in ("chg", "hardness", "gradient"):
            got = subset_utility(gs, kind, {4, 0, 2})
            assert got == pytest.approx(subset_utility(gs, kind, [0, 2, 4]), rel=1e-15)

    def test_quadratic_kinds_bounded_by_reference_norm(self):
        rng = np.random.default_rng(1)
        gs = random_gradient_set(rng, n=6, d=4)
        for kind in ("chg", "gradient"):
            alpha = own_mean(gs, kind)
            ceiling = float(alpha @ alpha)
            for _ in range(30):
                size = int(rng.integers(1, 7))
                subset = rng.choice(6, size=size, replace=False)
                assert subset_utility(gs, kind, subset) <= ceiling + 1e-12


# ---------------------------------------------------------------------------
# Closed-form inputs and round trips
# ---------------------------------------------------------------------------

class TestClosedFormInputs:
    def test_chg_inputs_example(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.array([2.0, 0.0]))
        X, alpha = _vectors(gs, "chg"), own_mean(gs, "chg")
        assert np.array_equal(X.dense(), [[2.0, 0.0], [0.0, 0.0]])
        assert alpha == pytest.approx([1.0, 0.0])

    def test_gradient_inputs_example(self):
        gs = dense_set([[1.0, 0.0], [0.0, 1.0]], np.array([2.0, 0.0]))
        X, alpha = _vectors(gs, "gradient"), own_mean(gs, "gradient")
        assert np.array_equal(X.dense(), gs.vectors.dense())
        assert alpha == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    def test_round_trip_matches_enumeration(self, kind):
        rng = np.random.default_rng(42)
        gs = random_gradient_set(rng, n=5, d=3)
        closed = chg_closed_form_shapley(_vectors(gs, kind)).values
        exact = exact_shapley(utility_game(gs, kind)).values
        assert closed == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_kind_matches_enumeration_of_its_game(self, n):
        rng = np.random.default_rng(200 + n)
        grads = FactoredGrads(rng.standard_normal((n, 3)), rng.standard_normal((n, 4)))
        gs = GradientSet(grads, rng.uniform(0.0, 2.0, n))
        for kind in ("chg", "gradient", "hardness"):
            exact = exact_shapley(utility_game(gs, kind)).values
            closed = gradient_set_values(gs, kind).values
            tolerance = 1e-12 * max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(closed - exact)) <= tolerance, kind

    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    def test_game_is_chg_game_at_the_kinds_own_mean(self, kind):
        rng = np.random.default_rng(43)
        n = 7
        grads = FactoredGrads(rng.standard_normal((n, 2)), rng.standard_normal((n, 3)))
        gs = GradientSet(grads, rng.uniform(0.0, 2.0, n))
        vectors = _vectors(gs, kind)
        got = utility_game(gs, kind)
        want = chg_game(vectors, vectors.dense().mean(axis=0))
        assert got.n == want.n == n
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                idx = np.array(combo, dtype=np.intp)
                assert got.utility(idx) == pytest.approx(want.utility(idx), abs=1e-12)
                assert subset_utility(gs, kind, combo) == got.utility(idx)


# ---------------------------------------------------------------------------
# The own-mean route against the closed form at an explicit mean
# ---------------------------------------------------------------------------

def pass_like_set(rng, n, classes, width, offset=0.0) -> tuple[GradientSet, np.ndarray]:
    """A set shaped like a forward pass's (delta = softmax - onehot, losses >= 0),
    with phi moved by a common `offset`, and its labels."""
    labels = rng.integers(0, classes, n)
    logits = 2.0 * rng.standard_normal((n, classes))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    losses = -np.log(probs[np.arange(n), labels])
    probs[np.arange(n), labels] -= 1.0
    phi = offset + rng.standard_normal((n, width))
    return GradientSet(FactoredGrads(probs, phi), losses), labels


class TestOwnMeanRoute:
    """`gradient_set_values` plays each game against its own mean with one
    inner-product row <x_i, m>; the closed form with that mean passed as
    alpha forms the same row, and adds a mean game on alpha - m = 0, so
    both give the same bits at every width."""

    @staticmethod
    def assert_same_bits(gs, kind, rows):
        if rows is not None:
            gs = gs.restrict(rows)
        got = gradient_set_values(gs, kind)
        X = _vectors(gs, kind)
        want = chg_closed_form_shapley(X, X.column_sum() / X.shape[0])
        assert got.values.tobytes() == want.values.tobytes()
        assert got.grand_utility == want.grand_utility

    @pytest.mark.parametrize("width", [1, 20, 32, 64, 512])
    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 10])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 5000])
    def test_bit_identical_to_explicit_mean(self, n, classes, width):
        rng = np.random.default_rng([n, classes, width])
        gs, labels = pass_like_set(rng, n, classes, width)
        for kind in ("chg", "gradient"):
            self.assert_same_bits(gs, kind, None)
            for label in np.unique(labels):
                self.assert_same_bits(gs, kind, np.flatnonzero(labels == label))

    @pytest.mark.parametrize("n, d", [(1, 3), (17, 5), (5000, 64)])
    def test_dense_bit_identical_to_explicit_mean(self, n, d):
        X = np.random.default_rng([n, d]).standard_normal((n, d)) + 3.0
        got, want = chg_closed_form_shapley(X), chg_closed_form_shapley(X, X.sum(axis=0) / n)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.grand_utility == want.grand_utility

    @pytest.mark.parametrize("offset", [1e3, 1e7])
    def test_bit_identical_under_a_large_offset(self, offset):
        gs, labels = pass_like_set(np.random.default_rng(7), 2000, 10, 20, offset)
        for kind in ("chg", "gradient"):
            self.assert_same_bits(gs, kind, None)
            self.assert_same_bits(gs, kind, np.flatnonzero(labels == 3))


# ---------------------------------------------------------------------------
# Hardness Shapley
# ---------------------------------------------------------------------------

class TestHardnessShapley:
    def test_equal_losses_split_evenly(self):
        values = hardness_shapley(np.full(5, 0.8)).values
        assert values == pytest.approx([0.8 / 5] * 5, abs=1e-12)

    def test_single_datum_takes_its_loss(self):
        assert hardness_shapley(np.array([1.7])).values == pytest.approx([1.7])

    def test_overflowing_losses_raise_floating_point_error(self):
        with pytest.raises(FloatingPointError, match="overflowed"):
            hardness_shapley(np.array([1.7e308, 1.7e308, 0.0]))

    def test_n4_basis_fixture(self):
        expected = np.array(
            [float(line) for line in (FIXTURES / "hardness_values_n4_e1.txt").read_text().split()]
        )
        values = hardness_shapley(np.array([1.0, 0.0, 0.0, 0.0])).values
        assert values == pytest.approx(expected, abs=1e-12)

    def test_sums_to_mean_loss(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17, 400):
            losses = rng.uniform(0.0, 3.0, n)
            values = hardness_shapley(losses).values
            assert values.sum() == pytest.approx(losses.mean(), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_enumeration_across_calibration_boundary(self, n):
        # The harmonic mean-game weights must agree with direct enumeration
        # at every small n, including 10/11, where an enumeration-calibrated
        # table once handed over to the harmonic expression.
        rng = np.random.default_rng(n)
        losses = rng.uniform(0.0, 2.0, n)
        from chg_shapley.shapley import GameSpec

        exact = exact_shapley(
            GameSpec(n=n, utility=lambda idx: float(losses[idx].mean()))
        ).values
        assert hardness_shapley(losses).values == pytest.approx(exact, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            hardness_shapley(np.array([]))
        with pytest.raises(ValueError):
            hardness_shapley(np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# Cross-kind invariants
# ---------------------------------------------------------------------------

class TestInvariants:
    def test_unit_losses_make_chg_equal_gradient(self):
        rng = np.random.default_rng(4)
        gs = dense_set(rng.standard_normal((6, 3)), np.ones(6))
        for _ in range(20):
            size = int(rng.integers(1, 7))
            subset = rng.choice(6, size=size, replace=False)
            assert subset_utility(gs, "chg", subset) == subset_utility(gs, "gradient", subset)
        assert np.array_equal(
            gradient_set_values(gs, "chg").values, gradient_set_values(gs, "gradient").values
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        gs = random_gradient_set(rng, n=7, d=2)
        perm = rng.permutation(7)
        shuffled = GradientSet(gs.vectors.rows(perm), gs.losses[perm])
        for kind in ("chg", "hardness", "gradient"):
            base = gradient_set_values(gs, kind).values
            moved = gradient_set_values(shuffled, kind).values
            assert moved == pytest.approx(base[perm], abs=1e-12)

