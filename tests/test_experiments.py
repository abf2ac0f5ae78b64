"""Tests for synthetic tasks, noise injection, and the evaluation curves."""

import math
import platform
import sys
import tracemalloc

import numpy as np
import pytest

from chg_shapley import experiments, models
from chg_shapley.experiments import (
    NoiseSpec,
    RemovalConfig,
    descent_bound_check,
    detection_curve,
    inject_label_noise,
    make_synthetic_dataset,
    point_removal_curve,
)
from chg_shapley.models import Dataset
from chg_shapley.selection import SelectionConfig, random_baseline_training
from chg_shapley.valuation import TrainingDivergedError, ValuationConfig, run_valuation


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------

class TestSyntheticDataset:
    def test_same_seed_identical(self):
        a = make_synthetic_dataset(50, 6, 3, 2.0, seed=0)
        b = make_synthetic_dataset(50, 6, 3, 2.0, seed=0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_up_to_remainder(self):
        data = make_synthetic_dataset(101, 5, 3, 2.0, seed=1)
        sizes = sorted(idx.size for idx in data.class_index)
        assert sizes == [33, 34, 34]

    def test_zero_separation_trains_to_chance(self):
        train = make_synthetic_dataset(1000, 5, 2, 0.0, seed=2)
        test = make_synthetic_dataset(1000, 5, 2, 0.0, seed=3)
        cfg = SelectionConfig(fraction=1.0, interval=1000, epochs=20, seed=2)
        _, history = random_baseline_training(train, cfg, test_data=test)
        assert history.metrics[-1].test_accuracy == pytest.approx(0.5, abs=0.05)

    def test_wide_separation_trains_to_ceiling(self):
        train = make_synthetic_dataset(500, 4, 2, 6.0, seed=4)
        test = make_synthetic_dataset(500, 4, 2, 6.0, seed=5)
        cfg = SelectionConfig(fraction=1.0, interval=1000, epochs=30, seed=4)
        _, history = random_baseline_training(train, cfg, test_data=test)
        assert history.metrics[-1].test_accuracy >= 0.99

    @pytest.mark.parametrize("separation", [-1.0, float("nan"), float("inf")])
    def test_separation_must_be_finite_and_non_negative(self, separation):
        with pytest.raises(ValueError, match="separation must be a finite number >= 0"):
            make_synthetic_dataset(50, 6, 3, separation, seed=0)

    @pytest.mark.parametrize(
        "n, p, classes, separation, seed",
        [
            (50, 6, 3, 2.0, 0),
            (1001, 20, 10, 3.0, 7),
            (400, 4, 2, 0.0, 3),
            (600, 12, 5, 1e-3, 11),
            # Widths the quarter-width shuffle block does not divide.
            (2, 2, 2, 4.0, 1),
            (3, 3, 3, 4.0, 2),
            (17, 5, 2, 1.0, 3),
            (257, 7, 4, 2.0, 4),
            (1000, 21, 2, 3.0, 5),
            (600, 64, 10, 4.0, 6),
        ],
    )
    def test_matches_the_class_mean_expression(self, n, p, classes, separation, seed):
        # The build adds each row's mean into its noise in place; the
        # reference adds the full n x p mean matrix, as the model states it.
        rng = np.random.default_rng(seed)
        counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
        labels = np.repeat(np.arange(classes), counts)
        means = np.zeros((classes, p))
        means[np.arange(classes), np.arange(classes)] = separation / math.sqrt(2.0)
        features = means[labels] + rng.standard_normal((n, p))
        order = rng.permutation(n)
        data = make_synthetic_dataset(n, p, classes, separation, seed=seed)
        assert data.features.tobytes() == features[order].tobytes()
        assert np.array_equal(data.labels, labels[order])

    def test_build_peak_memory(self):
        make_synthetic_dataset(1000, 20, 10, 4.0, seed=0)  # warm the imports
        tracemalloc.start()
        try:
            data = make_synthetic_dataset(200_000, 20, 10, 4.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The shuffled copy of the features peaked at 2.3x; shuffled in
        # place, a quarter of the columns at a time, the build peaks at 1.35x.
        assert peak <= 1.5 * data.features.nbytes, peak / data.features.nbytes

    def test_free_heap_released_before_each_build(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_release_free_heap", lambda: calls.append(True))
        reference = make_synthetic_dataset(50, 6, 3, 2.0, seed=0)
        make_synthetic_dataset(50, 6, 3, 2.0, seed=1)
        assert len(calls) == 2
        monkeypatch.undo()
        again = make_synthetic_dataset(50, 6, 3, 2.0, seed=0)
        assert again.features.tobytes() == reference.features.tobytes()

    def test_free_heap_release_found_on_glibc(self):
        if sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc":
            assert models._malloc_trim is not None
        models._release_free_heap()  # a no-op elsewhere, never an error

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(1, 5, 2, 1.0, seed=0)  # n < C
        with pytest.raises(ValueError):
            make_synthetic_dataset(10, 2, 3, 1.0, seed=0)  # p < C
        with pytest.raises(ValueError):
            make_synthetic_dataset(10, 5, 1, 1.0, seed=0)  # C < 2


# ---------------------------------------------------------------------------
# Label noise
# ---------------------------------------------------------------------------

class TestInjectNoise:
    def test_zero_rate_changes_nothing(self):
        labels = np.array([0, 1, 1, 0])
        flipped, noise = inject_label_noise(labels, 0.0, seed=0, n_classes=2)
        assert np.array_equal(flipped, labels)
        assert noise.flip_mask.sum() == 0

    def test_thirty_percent_of_ten(self):
        labels = np.arange(10) % 2
        flipped, noise = inject_label_noise(labels, 0.3, seed=1, n_classes=2)
        assert noise.flip_mask.sum() == 3
        changed = np.flatnonzero(flipped != labels)
        assert np.array_equal(np.sort(changed), np.sort(np.flatnonzero(noise.flip_mask)))

    def test_full_rate_flips_everything(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        flipped, noise = inject_label_noise(labels, 1.0, seed=2, n_classes=3)
        assert noise.flip_mask.all()
        assert np.all(flipped != labels)

    def test_count_is_rounded(self):
        labels = np.zeros(7, dtype=int)
        _, noise = inject_label_noise(labels, 0.5, seed=3, n_classes=2)
        assert noise.flip_mask.sum() == round(0.5 * 7)

    def test_flips_always_change_class(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, 200)
        flipped, noise = inject_label_noise(labels, 0.4, seed=4, n_classes=4)
        assert np.all(flipped[noise.flip_mask] != labels[noise.flip_mask])
        assert np.all(flipped[~noise.flip_mask] == labels[~noise.flip_mask])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            inject_label_noise(np.zeros(5, dtype=int), 0.4, seed=5, n_classes=1)


# ---------------------------------------------------------------------------
# Detection curve
# ---------------------------------------------------------------------------

class TestDetectionCurve:
    def test_perfect_detector_saturates_at_rate(self):
        n, flips = 100, 30
        values = np.arange(n, dtype=float)
        mask = np.zeros(n, dtype=bool)
        mask[:flips] = True  # lowest-valued points are exactly the noisy ones
        report = detection_curve(values, NoiseSpec(flip_mask=mask))
        at_rate = report.detection_rate[np.searchsorted(report.fractions, 0.3)]
        assert at_rate == pytest.approx(1.0)
        assert report.auc >= 0.84  # 1 - rate/2 for the perfect detector

    def test_random_values_track_diagonal(self):
        rng = np.random.default_rng(6)
        n = 4000
        values = rng.standard_normal(n)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=1200, replace=False)] = True
        report = detection_curve(values, NoiseSpec(flip_mask=mask))
        assert np.max(np.abs(report.detection_rate - report.fractions)) <= 0.05
        assert report.auc == pytest.approx(0.5, abs=0.03)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(50)
        mask = rng.random(50) < 0.4
        report = detection_curve(values, NoiseSpec(flip_mask=mask))
        assert report.detection_rate[0] == 0.0
        assert report.detection_rate[-1] == 1.0
        assert report.fractions.tobytes() == np.linspace(0.0, 1.0, 101).tobytes()
        assert np.all(np.diff(report.detection_rate) >= 0)

    @pytest.mark.parametrize("n", [7, 50, 333])
    def test_rate_counts_noise_among_lowest_values(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 5, n).astype(float)  # ties go by ascending index
        mask = rng.random(n) < 0.3
        mask[0] = True
        report = detection_curve(values, NoiseSpec(flip_mask=mask))
        order = sorted(range(n), key=lambda i: (values[i], i))
        for q, rate in zip(report.fractions, report.detection_rate):
            lowest = order[: round(q * n)]
            assert rate == mask[lowest].sum() / mask.sum()

    def test_no_noise_rejected(self):
        with pytest.raises(ValueError):
            detection_curve(np.ones(4), NoiseSpec(flip_mask=np.zeros(4, bool)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_naming_the_index(self, bad):
        values = np.arange(10.0)
        values[[3, 7]] = bad
        mask = np.arange(10) % 2 == 0
        with pytest.raises(ValueError, match="at index 3"):
            detection_curve(values, NoiseSpec(flip_mask=mask))


# ---------------------------------------------------------------------------
# Point removal
# ---------------------------------------------------------------------------

def parent_removal_curve(values, train, test, cfg):
    """The loop the curve replaced: one _retrain_accuracy per (order, fraction), nothing shared."""
    n = train.n
    orders = {
        "lowest_first": np.lexsort((np.arange(n), values)),
        "highest_first": np.lexsort((np.arange(n), -values)),
        "random": np.random.default_rng([cfg.seed, 2]).permutation(n),
    }
    fractions = [f for f in cfg.fractions if int(round(f * n)) < n]
    return {
        name: np.array([
            experiments._retrain_accuracy(
                np.sort(orders[name][int(round(f * n)):]), train, test, cfg
            )
            for f in fractions
        ])
        for name in experiments.REMOVAL_ORDERS
    }


class TestPointRemoval:
    @pytest.mark.parametrize("n_classes", [2, 10])
    def test_bit_identical_to_one_arm_per_order_and_fraction(self, n_classes):
        train = make_synthetic_dataset(90, 12, n_classes, 2.0, seed=n_classes)
        test = make_synthetic_dataset(60, 12, n_classes, 2.0, seed=n_classes + 1)
        values = np.random.default_rng(n_classes).standard_normal(90)
        fractions = (0.0, 0.1, 0.5, 0.9, 1.0)
        want = parent_removal_curve(
            values, train, test, RemovalConfig(fractions=fractions, epochs=5, seed=3)
        )
        for threads in (1, 2):
            cfg = RemovalConfig(fractions=fractions, epochs=5, seed=3, threads=threads)
            curve = point_removal_curve(values, train, test, cfg)
            assert curve.fractions.tolist() == [0.0, 0.1, 0.5, 0.9]
            assert curve.accuracy.keys() == want.keys()
            for order, accs in want.items():
                assert curve.accuracy[order].tobytes() == accs.tobytes(), (order, threads)

    @pytest.mark.parametrize(
        "fractions, arms",
        [((0.0, 0.2, 0.5), 3 * 3 - 2), ((0.2, 0.5), 3 * 2), ((0.5, 0.0), 3 * 2 - 2)],
    )
    def test_keep_everything_arm_trained_once(self, monkeypatch, fractions, arms):
        calls = []
        retrain = experiments._retrain_accuracy

        def counting(retained, *args):
            calls.append(None if retained is None else len(retained))
            return retrain(retained, *args)

        monkeypatch.setattr(experiments, "_retrain_accuracy", counting)
        train = make_synthetic_dataset(40, 5, 2, 3.0, seed=4)
        values = np.random.default_rng(4).standard_normal(40)
        point_removal_curve(
            values, train, train, RemovalConfig(fractions=fractions, epochs=2, threads=2)
        )
        assert len(calls) == arms
        assert calls.count(None) == (0.0 in fractions)

    def test_fraction_zero_identical_across_orders(self):
        train = make_synthetic_dataset(120, 5, 2, 3.0, seed=8)
        test = make_synthetic_dataset(120, 5, 2, 3.0, seed=9)
        values = np.random.default_rng(8).standard_normal(120)
        curve = point_removal_curve(
            values, train, test, RemovalConfig(fractions=(0.0, 0.4), epochs=6, seed=8)
        )
        first = {order: accs[0] for order, accs in curve.accuracy.items()}
        assert len(set(first.values())) == 1

    def test_thread_count_does_not_change_results(self):
        train = make_synthetic_dataset(100, 5, 2, 3.0, seed=10)
        test = make_synthetic_dataset(100, 5, 2, 3.0, seed=11)
        values = np.random.default_rng(10).standard_normal(100)
        cfg1 = RemovalConfig(fractions=(0.0, 0.2, 0.5), epochs=5, seed=10, threads=1)
        cfg4 = RemovalConfig(fractions=(0.0, 0.2, 0.5), epochs=5, seed=10, threads=4)
        a = point_removal_curve(values, train, test, cfg1)
        b = point_removal_curve(values, train, test, cfg4)
        for order in a.accuracy:
            assert np.array_equal(a.accuracy[order], b.accuracy[order])

    def test_emptying_fractions_dropped(self):
        train = make_synthetic_dataset(20, 5, 2, 3.0, seed=12)
        test = make_synthetic_dataset(20, 5, 2, 3.0, seed=13)
        values = np.arange(20.0)
        curve = point_removal_curve(
            values, train, test, RemovalConfig(fractions=(0.0, 0.5, 1.0), epochs=3, seed=12)
        )
        assert curve.fractions.tolist() == [0.0, 0.5]

    def test_every_fraction_dropped_rejected(self):
        train = make_synthetic_dataset(20, 5, 2, 3.0, seed=12)
        with pytest.raises(ValueError, match=r"\[0\.98, 1\.0\]"):
            point_removal_curve(
                np.arange(20.0), train, train, RemovalConfig(fractions=(0.98, 1.0), epochs=1)
            )

    def test_removal_directions_on_noisy_task(self):
        # Mean over 10 seeds: deleting the best-valued data first hurts at
        # least as much as random deletion, and deleting the lowest-valued
        # noise-rate fraction does not hurt relative to keeping everything.
        highest, random_order, lowest_gain = [], [], []
        for seed in range(10):
            train = make_synthetic_dataset(400, 8, 2, 3.0, seed=seed)
            labels, noise = inject_label_noise(train.labels, 0.3, seed=seed + 50, n_classes=2)
            noisy = Dataset(features=train.features, labels=labels, n_classes=2)
            test = make_synthetic_dataset(400, 8, 2, 3.0, seed=seed + 900)
            run = run_valuation(noisy, ValuationConfig(epochs=12, seed=seed))
            curve = point_removal_curve(
                run.mean_values, noisy, test, RemovalConfig(fractions=(0.0, 0.3), epochs=12, seed=seed)
            )
            highest.append(curve.accuracy["highest_first"][1])
            random_order.append(curve.accuracy["random"][1])
            lowest_gain.append(
                curve.accuracy["lowest_first"][1] - curve.accuracy["lowest_first"][0]
            )
        assert np.mean(highest) <= np.mean(random_order)
        assert np.mean(lowest_gain) >= 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(fractions=(-0.5, 0.5)), dict(fractions=(1.5,)), dict(threads=0), dict(epochs=0),
            dict(fractions=(0.5, 0.2, 0.5)), dict(fractions=()),
        ],
    )
    def test_config_rejects_out_of_range_settings(self, bad):
        with pytest.raises(ValueError):
            RemovalConfig(**bad)

    def test_misaligned_values_rejected(self):
        train = make_synthetic_dataset(30, 5, 2, 3.0, seed=14)
        with pytest.raises(ValueError):
            point_removal_curve(np.zeros(10), train, train, RemovalConfig())

    @pytest.mark.parametrize(
        "fractions, arm",
        [((0.0, 0.5), "every order at fraction 0 (0 of 400"),
         ((0.5,), "lowest_first at fraction 0.5 (200 of 400")],
    )
    def test_divergent_arm_names_order_fraction_and_epoch(self, fractions, arm):
        # The first step's gradient sum delta^T Phi overflows on these rows.
        rng = np.random.default_rng(26)
        features = np.column_stack(
            [1.7e308 * rng.uniform(-1.0, 1.0, 400), rng.standard_normal(400)]
        )
        train = Dataset(features=features, labels=rng.integers(0, 2, 400))
        cfg = RemovalConfig(fractions=fractions, epochs=3)
        with pytest.raises(TrainingDivergedError) as err:
            point_removal_curve(np.arange(400.0), train, train, cfg)
        assert f"removal arm {arm} rows removed): training diverged at epoch 0" in str(err.value)
        assert err.value.epoch == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_naming_the_index(self, bad):
        train = make_synthetic_dataset(30, 5, 2, 3.0, seed=14)
        values = np.zeros(30)
        values[[5, 20]] = bad
        with pytest.raises(ValueError, match="at index 5"):
            point_removal_curve(values, train, train, RemovalConfig(epochs=1))


# ---------------------------------------------------------------------------
# Descent bound
# ---------------------------------------------------------------------------

class TestDescentBound:
    def test_step_along_gradient(self):
        theta = np.array([1.0, -2.0, 0.5])
        L = 2.5
        check = descent_bound_check(L, theta, L * theta)
        assert check.holds
        f = 0.5 * L * float(theta @ theta)
        grad_sq = float((L * theta) @ (L * theta))
        assert check.rhs == pytest.approx(f - 0.5 / L * grad_sq, abs=1e-12)

    def test_zero_step(self):
        theta = np.array([0.3, 0.4])
        check = descent_bound_check(1.5, theta, np.zeros(2))
        f = 0.5 * 1.5 * float(theta @ theta)
        assert check.lhs == pytest.approx(f, abs=1e-15)
        assert check.rhs == pytest.approx(f, abs=1e-15)
        assert check.holds

    def test_random_triples_hit_equality(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            dim = int(rng.integers(1, 20))
            L = float(rng.uniform(0.1, 10.0))
            check = descent_bound_check(L, rng.standard_normal(dim), rng.standard_normal(dim))
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-9 * max(1.0, abs(check.rhs)))

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(ValueError):
            descent_bound_check(0.0, np.ones(2), np.ones(2))
