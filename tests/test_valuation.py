"""Tests for the per-epoch valuation loop and its efficiency audit."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import chg_shapley.models as models
import chg_shapley.selection as selection
import chg_shapley.utilities as utilities
import chg_shapley.valuation as valuation
from chg_shapley import __version__
from chg_shapley.experiments import RemovalConfig, make_synthetic_dataset, point_removal_curve
from chg_shapley.models import Dataset, FactoredGrads, FrozenFeatureMap
from chg_shapley.selection import (
    SelectionConfig,
    random_baseline_training,
    run_selection_training,
)
from chg_shapley.shapley import chg_closed_form_shapley
from chg_shapley.valuation import (
    EfficiencyAuditError,
    TrainingDivergedError,
    ValuationConfig,
    epoch_efficiency_audit,
    run_valuation,
    value_ranks,
    write_run_meta,
    write_values_csv,
)


def tiny_task(seed=0, n=40):
    return make_synthetic_dataset(n, 5, 2, 3.0, seed=seed)


def stored_epochs(data, config):
    """The valuation loop with every epoch's values kept: (epochs x n values, U(N) per epoch).

    The reference for `run_valuation`, which keeps only their running sum.
    """
    model = models.init_model(
        (data.n_features, data.n_classes), seed=config.seed, hidden_width=config.hidden_width
    )
    head = models.head_dataset(model, data)
    model = replace(model, feature_map=None)
    per_epoch, utilities = [], []
    for _ in range(config.epochs):
        batch = models.per_example_loss_and_grad(model, head)
        values, utility = valuation.epoch_values(batch, head, config.kind, config.per_class)
        per_epoch.append(values)
        utilities.append(utility)
        model = models.sgd_step_weighted(model, batch.vectors, config.lr)
    return np.array(per_epoch), np.array(utilities)


def assert_same_run(a, b):
    assert a.mean_values.tobytes() == b.mean_values.tobytes()
    assert a.value_sums.tobytes() == b.value_sums.tobytes()
    assert a.per_epoch_utilities.tobytes() == b.per_epoch_utilities.tobytes()


# ---------------------------------------------------------------------------
# Valuation runs
# ---------------------------------------------------------------------------

class TestRunValuation:
    def test_duplicated_rows_share_mean_value(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((10, 4))
        features[7] = features[2]
        labels = rng.integers(0, 2, 10)
        labels[7] = labels[2]
        data = Dataset(features=features, labels=labels, n_classes=2)
        run = run_valuation(data, ValuationConfig(epochs=6, seed=1))
        assert abs(run.mean_values[7] - run.mean_values[2]) <= 1e-9

    def test_single_epoch_mean_is_that_epoch(self):
        data = tiny_task()
        config = ValuationConfig(epochs=1, seed=2)
        run = run_valuation(data, config)
        (values,), utilities = stored_epochs(data, config)
        assert np.array_equal(run.mean_values, values)
        assert run.value_sums.tolist() == [values.sum()]
        assert run.per_epoch_utilities.tolist() == utilities.tolist()

    def test_mean_is_column_mean(self):
        data = tiny_task()
        config = ValuationConfig(epochs=5, seed=3)
        run = run_valuation(data, config)
        per_epoch, utilities = stored_epochs(data, config)
        assert run.mean_values.tobytes() == per_epoch.mean(axis=0).tobytes()
        assert run.value_sums.tobytes() == per_epoch.sum(axis=1).tobytes()
        assert run.per_epoch_utilities.tobytes() == utilities.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("kind", ["chg", "hardness", "gradient"])
    @pytest.mark.parametrize("per_class", [False, True])
    def test_mean_bits_match_the_stored_epochs(self, n, kind, per_class):
        rng = np.random.default_rng(n)
        data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, 3, n), n_classes=3)
        per_epoch, _ = stored_epochs(data, ValuationConfig(kind=kind, epochs=20, per_class=per_class))
        for epochs in (1, 2, 7, 8, 9, 20):
            run = run_valuation(data, ValuationConfig(kind=kind, epochs=epochs, per_class=per_class))
            total = np.zeros(n)
            for values in per_epoch[:epochs]:
                total = total + values
            assert run.mean_values.tobytes() == (total / epochs).tobytes()
            stacked_mean = per_epoch[:epochs].mean(axis=0)
            if n >= 2:
                assert run.mean_values.tobytes() == stacked_mean.tobytes(), epochs
            else:
                # numpy sums one column pairwise from 8 epochs up: the last
                # bit may differ (chg and gradient at 20 epochs do).
                np.testing.assert_array_max_ulp(run.mean_values, stacked_mean, maxulp=1)

    @pytest.mark.parametrize("per_class", [False, True])
    def test_peak_memory_does_not_grow_with_the_epochs(self, per_class):
        n, p, c = 200_000, 20, 10
        rng = np.random.default_rng(33)
        data = Dataset(rng.standard_normal((n, p)), rng.integers(0, c, n), n_classes=c)
        peaks = []
        for epochs in (2, 12):
            tracemalloc.start()
            try:
                run_valuation(data, ValuationConfig(epochs=epochs, seed=33, per_class=per_class))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Keeping every epoch's values grew the peak by 10 x 1.6 MB.
        assert peaks[1] - peaks[0] < 8 * n / 16, peaks
        # delta and the losses take 8 n (C + 1) bytes.  The second run, whose
        # game weights are cached, peaks at 2.24x that whole and 1.67x per
        # class; whole-array passes took 3.0x and 2.18x.
        held = 8 * n * (c + 1)
        assert peaks[1] <= (1.75 if per_class else 2.3) * held, peaks[1] / held

    def test_free_heap_released_once_after_the_map(self, monkeypatch):
        calls = []
        head_dataset = valuation.head_dataset

        def mapping(model, data):
            calls.append("map")
            return head_dataset(model, data)

        monkeypatch.setattr(valuation, "head_dataset", mapping)
        monkeypatch.setattr(valuation, "_release_free_heap", lambda: calls.append("trim"))
        run_valuation(tiny_task(), ValuationConfig(epochs=3, seed=4, hidden_width=8))
        assert calls == ["map", "trim"]

    def test_bit_identical_given_config(self):
        a = run_valuation(tiny_task(), ValuationConfig(epochs=4, seed=4))
        b = run_valuation(tiny_task(), ValuationConfig(epochs=4, seed=4))
        assert_same_run(a, b)

    @pytest.mark.parametrize("kind", ["chg", "hardness", "gradient"])
    def test_kinds_run_and_audit(self, kind):
        run = run_valuation(tiny_task(), ValuationConfig(kind=kind, epochs=3, seed=5))
        audit = epoch_efficiency_audit(run)
        assert audit.max_violation <= 1e-9

    def test_per_class_single_class_equals_whole(self):
        data = Dataset(features=tiny_task().features, labels=np.zeros(40, dtype=int))
        whole = run_valuation(data, ValuationConfig(epochs=3, seed=6, per_class=False))
        per_class = run_valuation(data, ValuationConfig(epochs=3, seed=6, per_class=True))
        assert_same_run(whole, per_class)

    def test_per_class_mode_audits(self):
        run = run_valuation(tiny_task(), ValuationConfig(epochs=3, seed=7, per_class=True))
        assert epoch_efficiency_audit(run).max_violation <= 1e-9

    def test_divergence_reports_epoch(self):
        # The first step overflows the parameters: epoch 0 reports it, not
        # the next epoch's forward pass.
        data = Dataset(
            features=np.array([[1e30], [-1e30]]), labels=np.array([0, 1]), n_classes=2
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="SGD step overflowed") as err:
                run_valuation(data, ValuationConfig(epochs=50, seed=8, lr=1e280))
        assert err.value.epoch == 0

    def test_selection_divergence_reports_the_step_epoch(self):
        data = Dataset(
            features=np.array([[1e30], [-1e30]]), labels=np.array([0, 1]), n_classes=2
        )
        cfg = SelectionConfig(fraction=1.0, interval=1, epochs=50, seed=8, lr=1e280)
        with pytest.raises(TrainingDivergedError, match="SGD step overflowed") as err:
            run_selection_training(data, cfg)
        assert err.value.epoch == 0

    def test_divergence_inside_a_later_event_names_its_epoch_once(self, monkeypatch):
        # Two classes: each event plays three games, so the fourth game is
        # the first of the event at epoch 2.
        games = []

        def diverge_at_second_event(gs, kind, rows=None):
            games.append(kind)
            if len(games) > 3:
                raise FloatingPointError("closed-form values overflowed")
            return utilities.gradient_set_values(gs, kind, rows)

        monkeypatch.setattr(selection, "gradient_set_values", diverge_at_second_event)
        cfg = SelectionConfig(fraction=0.5, interval=2, epochs=4, seed=3)
        with pytest.raises(TrainingDivergedError) as err:
            run_selection_training(tiny_task(), cfg)
        assert err.value.epoch == 2 and len(games) == 4
        assert str(err.value) == "training diverged at epoch 2: closed-form values overflowed"

    def test_empty_evaluation_set_is_refused_on_every_route(self):
        data, empty = tiny_task(), Dataset(np.empty((0, 5)), np.empty(0, int), n_classes=2)
        model = models.init_model((5, 2), seed=0)
        with pytest.raises(ValueError, match="evaluation set is empty"):
            models.accuracy(model, empty)
        with pytest.raises(ValueError, match="evaluation set is empty"):
            run_selection_training(data, SelectionConfig(fraction=0.5, epochs=2), test_data=empty)
        with pytest.raises(ValueError, match="evaluation set is empty"):
            point_removal_curve(np.arange(data.n, dtype=float), data, empty, RemovalConfig())

    def test_scale_response_is_quadratic(self):
        # Single-epoch property of the value computation: scaling every
        # vector and the reference by t scales values by t^2 (exactly for
        # a power of two, to rounding otherwise).
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 5))
        alpha = rng.standard_normal(5)
        base = chg_closed_form_shapley(X, alpha).values
        doubled = chg_closed_form_shapley(2.0 * X, 2.0 * alpha).values
        assert np.array_equal(doubled, 4.0 * base)
        scaled = chg_closed_form_shapley(1.7 * X, 1.7 * alpha).values
        assert scaled == pytest.approx(1.7**2 * base, rel=1e-9)


# ---------------------------------------------------------------------------
# Factored route against the dense oracle
# ---------------------------------------------------------------------------

def dense_values(gs, kind, rows=None):
    """gradient_set_values through the dense closed form on the built matrix."""
    if rows is not None:
        gs = gs.restrict(rows)
    X = gs.vectors.dense()
    if kind == "chg":
        X = gs.losses[:, None] * X
    return chg_closed_form_shapley(X, X.mean(axis=0))


class TestFactoredRoute:
    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    @pytest.mark.parametrize("per_class", [False, True])
    @pytest.mark.parametrize("hidden_width", [None, 16])
    def test_matches_dense_oracle(self, kind, per_class, hidden_width, monkeypatch):
        data = make_synthetic_dataset(90, 4, 3, 2.0, seed=20)
        # A run keeps only the mean, so each prefix of 1, 2 and 3 epochs is
        # compared: together they pin every epoch's values.
        for epochs in (1, 2, 3):
            config = ValuationConfig(
                kind=kind, epochs=epochs, seed=20, per_class=per_class, hidden_width=hidden_width
            )
            factored = run_valuation(data, config)
            with monkeypatch.context() as patch:
                patch.setattr(valuation, "gradient_set_values", dense_values)
                dense = run_valuation(data, config)
            got, want = factored.mean_values, dense.mean_values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.ptp(want)
            assert np.array_equal(valuation.value_ranks(got), valuation.value_ranks(want))
            assert factored.per_epoch_utilities == pytest.approx(
                dense.per_epoch_utilities, rel=1e-12
            )

    def test_epoch_never_allocates_the_gradient_matrix(self):
        n, classes, width = 4000, 10, 512
        data = make_synthetic_dataset(n, classes, classes, 3.0, seed=21)
        dense_bytes = 8 * n * (classes * width + classes)  # 164 MB
        config = ValuationConfig(epochs=1, seed=21, hidden_width=width)
        tracemalloc.start()
        try:
            run_valuation(data, config)
            _, valuation_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert valuation_peak < dense_bytes / 3

    def test_wide_run_holds_one_mapped_matrix(self):
        n, classes, width = 4000, 10, 512
        data = make_synthetic_dataset(n, classes, classes, 3.0, seed=21)
        phi_bytes = 8 * n * width  # 16.4 MB
        config = ValuationConfig(epochs=2, seed=21, hidden_width=width)
        tracemalloc.start()
        try:
            run_valuation(data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.08x: phi, then n x C factors.  Mapping out of place and scanning
        # phi with isfinite and a rebuilt Dataset took 2.0x.
        assert peak <= 1.2 * phi_bytes, peak / phi_bytes

    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    def test_tall_game_peak_memory(self, kind):
        n, p, c = 200_000, 20, 10
        rng = np.random.default_rng(32)
        data = Dataset(rng.standard_normal((n, p)), rng.integers(0, c, n), n_classes=c)
        batch = models.per_example_loss_and_grad(models.init_model((p, c), seed=32), data)
        tracemalloc.start()
        try:
            utilities.gradient_set_values(batch, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = batch.vectors.delta.nbytes + batch.losses.nbytes  # 17.6 MB
        # Heads of one block at a time and d formed in place: 1.36x for chg,
        # which also holds the loss-weighted delta, and 0.24x for gradient.
        # An n x C head at a time took 1.91x and 1.0x, and forming <x_i, r>
        # for r = 0 beside <x_i, m> took 2.91x and 2.0x.
        assert peak <= {"chg": 1.45, "gradient": 0.3}[kind] * held, peak / held

    def test_feature_map_applied_once_per_run(self, monkeypatch):
        rows_mapped = []
        apply = FrozenFeatureMap.apply

        def counting(feature_map, features):
            rows_mapped.append(features.shape[0])
            return apply(feature_map, features)

        monkeypatch.setattr(FrozenFeatureMap, "apply", counting)
        data = make_synthetic_dataset(60, 4, 3, 2.0, seed=23)
        run_valuation(data, ValuationConfig(epochs=3, seed=23, hidden_width=8))
        assert rows_mapped == [60]

    @pytest.mark.parametrize("per_class", [False, True])
    def test_hardness_never_builds_gradients(self, per_class, monkeypatch):
        """Hardness values come from the losses alone: no gradient rows are
        taken and no closed form runs.

        The step's forward pass still computes the factored gradients it steps on.
        """

        def refuse(*_args, **_kwargs):
            raise AssertionError("hardness must not value gradients")

        monkeypatch.setattr(utilities, "chg_closed_form_shapley", refuse)
        monkeypatch.setattr(FactoredGrads, "rows", refuse)
        data = tiny_task(seed=22)
        run = run_valuation(data, ValuationConfig(kind="hardness", epochs=2, per_class=per_class))
        assert epoch_efficiency_audit(run).max_violation <= 1e-9
        _, history = run_selection_training(
            data, SelectionConfig(fraction=0.2, interval=1, epochs=2, kind="hardness")
        )
        assert len(history.events) == 2

    @pytest.mark.parametrize("kind", ["chg", "gradient"])
    @pytest.mark.parametrize("per_class", [False, True])
    def test_library_games_never_scan_their_factors(self, kind, per_class, monkeypatch):
        # The forward pass checks its logits and losses, so neither it nor
        # any game scans the factors again; every closed form still runs.
        scans, games = [], []
        closed_form = utilities.chg_closed_form_shapley

        def traced(X, alpha):  # two positional arguments, as perfbench/selftest.py wraps it
            games.append(X.shape[0])
            return closed_form(X, alpha)

        monkeypatch.setattr(FactoredGrads, "all_finite", lambda grads: scans.append(1))
        monkeypatch.setattr(utilities, "chg_closed_form_shapley", traced)
        # Class 3 is declared but empty: it plays no game.
        source = make_synthetic_dataset(60, 4, 3, 2.0, seed=25)
        data = Dataset(source.features, source.labels, n_classes=4)
        epochs = 3
        run_valuation(data, ValuationConfig(kind=kind, epochs=epochs, per_class=per_class))
        assert len(games) == (3 if per_class else 1) * epochs
        games.clear()
        cfg = SelectionConfig(fraction=0.2, interval=2, epochs=epochs, kind=kind)
        with pytest.warns(UserWarning, match="class 3 is empty"):
            _, history = run_selection_training(data, cfg)
        assert len(games) == (3 + 1) * len(history.events) == 8
        assert scans == []

    @pytest.mark.parametrize("kind", ["chg", "gradient", "hardness"])
    def test_one_forward_pass_per_training_step(self, kind, monkeypatch):
        passes = []  # the rows each pass sees; None for every row
        forward = models._forward

        def recording(model, phi, labels, indices, *args, **kwargs):
            passes.append(None if indices is None else indices.tolist())
            return forward(model, phi, labels, indices, *args, **kwargs)

        monkeypatch.setattr(models, "_forward", recording)
        # A pass over three blocks is one pass.
        tall = make_synthetic_dataset(2 * models._BLOCK_ROWS + 3, 4, 3, 2.0, seed=24)
        models.per_example_loss_and_grad(models.init_model((4, 3), seed=24), tall)
        models.mean_gradient(models.init_model((4, 3), seed=24), tall, np.arange(tall.n - 1))
        assert passes == [None, list(range(tall.n - 1))]
        data = make_synthetic_dataset(60, 4, 3, 2.0, seed=25)
        for per_class in (False, True):
            passes.clear()
            run_valuation(data, ValuationConfig(kind=kind, epochs=3, per_class=per_class))
            assert passes == [None] * 3, per_class
        classes = [idx.tolist() for idx in data.class_index]
        cfg = SelectionConfig(fraction=0.2, interval=2, epochs=3, kind=kind)
        passes.clear()
        _, history = run_selection_training(data, cfg)
        # An event makes one pass per class and one on the chosen subset, on
        # which its epoch steps; every step's pass after it gives the train
        # loss and the next step's batch.
        first, second = (event.subset.tolist() for event in history.events)
        assert passes == classes + [first] * 3 + classes + [second] * 2
        assert len(passes) == 11
        for adaptive in (False, True):
            passes.clear()
            _, history = random_baseline_training(data, cfg, adaptive=adaptive)
            first, second = (event.subset.tolist() for event in history.events)
            # Each event drops the batch and steps on a new pass over its subset.
            assert passes == [first] * 3 + [second] * 2, adaptive
        passes.clear()
        test = make_synthetic_dataset(30, 4, 3, 2.0, seed=26)
        values = np.arange(data.n, dtype=float)
        removal = RemovalConfig(fractions=(0.0, 0.2, 0.5), epochs=2)
        point_removal_curve(values, data, test, removal)
        # The keep-everything arm is shared by the three orders: 1 + 3 * 2 arms.
        assert len(passes) == 7 * 2

    def test_overflow_names_the_epoch(self):
        data = Dataset(
            features=np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]]),
            labels=np.array([0, 1, 0]),
        )
        for per_class in (False, True):
            with pytest.raises(TrainingDivergedError) as err:
                run_valuation(data, ValuationConfig(epochs=3, lr=10.0, per_class=per_class))
            assert err.value.epoch == 0
            assert "epoch 0" in str(err.value)
        with pytest.raises(TrainingDivergedError) as err:
            run_selection_training(data, SelectionConfig(fraction=0.5, epochs=3, lr=10.0))
        assert err.value.epoch == 0

    def test_hardness_overflow_names_the_epoch(self):
        # Finite losses near 1e306 whose sum overflows the mean-loss game.
        rng = np.random.default_rng(26)
        features = np.column_stack(
            [1.7e308 * rng.uniform(-1.0, 1.0, 2000), rng.standard_normal(2000)]
        )
        data = Dataset(features=features, labels=rng.integers(0, 2, 2000))
        for per_class in (False, True):
            with pytest.raises(TrainingDivergedError, match="epoch 0: closed-form") as err:
                run_valuation(data, ValuationConfig(kind="hardness", epochs=2, per_class=per_class))
            assert err.value.epoch == 0
        cfg = SelectionConfig(fraction=0.5, epochs=2, kind="hardness")
        with pytest.raises(TrainingDivergedError, match="epoch 0: closed-form"):
            run_selection_training(data, cfg)

    def test_overflowing_step_names_its_epoch(self):
        # On 400 such rows the per-class mean-loss games stay finite, but
        # the step's gradient sum delta^T Phi overflows at epoch 0.
        rng = np.random.default_rng(26)
        features = np.column_stack(
            [1.7e308 * rng.uniform(-1.0, 1.0, 400), rng.standard_normal(400)]
        )
        data = Dataset(features=features, labels=rng.integers(0, 2, 400))
        config = ValuationConfig(kind="hardness", epochs=3, per_class=True)
        with pytest.raises(TrainingDivergedError, match="epoch 0: gradient sum") as err:
            run_valuation(data, config)
        assert err.value.epoch == 0
        # In selection the epoch-0 event values the data; the step after it overflows.
        cfg = SelectionConfig(fraction=0.1, epochs=3, kind="hardness")
        with pytest.raises(TrainingDivergedError, match="epoch 0: gradient sum") as err:
            run_selection_training(data, cfg)
        assert err.value.epoch == 0


# ---------------------------------------------------------------------------
# Efficiency audit
# ---------------------------------------------------------------------------

class TestEfficiencyAudit:
    def test_passes_on_real_run(self):
        run = run_valuation(tiny_task(), ValuationConfig(epochs=8, seed=10))
        audit = epoch_efficiency_audit(run)
        assert audit.max_violation <= 1e-9
        assert audit.per_epoch_violation.shape == (8,)

    def test_negative_control_perturbation_fails(self):
        run = run_valuation(tiny_task(), ValuationConfig(epochs=2, seed=11))
        run.value_sums[1] += 1e-3
        with pytest.raises(EfficiencyAuditError) as err:
            epoch_efficiency_audit(run)
        assert err.value.epochs == [1]

    def test_large_n_run_audits(self):
        data = make_synthetic_dataset(10_000, 6, 2, 3.0, seed=12)
        run = run_valuation(data, ValuationConfig(epochs=2, seed=12))
        assert epoch_efficiency_audit(run).max_violation <= 1e-9

    @pytest.mark.parametrize("per_class", [False, True])
    def test_hundred_thousand_run_audits(self, per_class):
        data = make_synthetic_dataset(100_000, 6, 3, 3.0, seed=14)
        run = run_valuation(data, ValuationConfig(epochs=2, seed=14, per_class=per_class))
        assert epoch_efficiency_audit(run).max_violation <= 1e-9

    def test_utilities_length_checked(self):
        run = run_valuation(tiny_task(), ValuationConfig(epochs=2, seed=13))
        run.per_epoch_utilities = np.append(run.per_epoch_utilities, 0.0)
        with pytest.raises(ValueError, match="one recorded utility per epoch"):
            epoch_efficiency_audit(run)


# ---------------------------------------------------------------------------
# Ranks and files
# ---------------------------------------------------------------------------

class TestOutputs:
    def test_ranks_descending_with_index_ties(self):
        ranks = value_ranks(np.array([0.5, 2.0, 0.5, -1.0]))
        assert ranks.tolist() == [2, 1, 3, 4]

    def test_values_csv_round_trip(self, tmp_path):
        data = tiny_task(seed=14, n=2 * models._CSV_CHUNK_ROWS + 3)  # crosses two chunk boundaries
        run = run_valuation(data, ValuationConfig(epochs=3, seed=14))
        path = tmp_path / "values.csv"
        mask = np.zeros(data.n, dtype=bool)
        mask[:5] = True
        mask[models._CSV_CHUNK_ROWS - 2 : models._CSV_CHUNK_ROWS + 3] = True
        write_values_csv(path, run, data, noise_mask=mask)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["index", "label", "is_noisy", "mean_value", "rank"]
            index, label, is_noisy, mean_value, rank = zip(*reader)
        assert np.array_equal(np.array(index, dtype=int), np.arange(data.n))
        assert np.array_equal(np.array(label, dtype=int), data.labels)
        assert np.array_equal(np.array(mean_value, dtype=float), run.mean_values)  # 17g round-trips
        assert np.array_equal(np.array(is_noisy, dtype=int), mask.astype(int))
        assert np.array_equal(np.array(rank, dtype=int), value_ranks(run.mean_values))

    @pytest.mark.parametrize("short", ["noise_mask", "labels"])
    def test_values_csv_refuses_short_columns(self, tmp_path, short):
        data = tiny_task(seed=17, n=100)
        run = run_valuation(data, ValuationConfig(epochs=1, seed=17))
        mask = np.zeros(data.n, dtype=bool)
        if short == "noise_mask":
            mask = mask[:10]
        else:
            data = Dataset(data.features[:10], data.labels[:10])
        path = tmp_path / "values.csv"
        with pytest.raises(ValueError, match="has 10 rows, expected 100"):
            write_values_csv(path, run, data, noise_mask=mask)
        assert not path.exists()

    def test_values_csv_byte_identical(self, tmp_path):
        data = tiny_task(seed=15)
        run = run_valuation(data, ValuationConfig(epochs=3, seed=15))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_values_csv(a, run, data)
        write_values_csv(b, run, data)
        assert a.read_bytes() == b.read_bytes()

    def test_run_meta_contents(self, tmp_path):
        import json

        run = run_valuation(tiny_task(seed=16), ValuationConfig(epochs=2, seed=16))
        path = tmp_path / "run_meta.json"
        write_run_meta(path, run.config, run.n, seconds=1.25, extra={"note": "test"})
        meta = json.loads(path.read_text())
        assert meta["version"] == __version__
        assert meta["config"]["seed"] == 16
        assert meta["n"] == run.n
        assert meta["seconds"] == 1.25
        assert meta["note"] == "test"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["blas"]["name"] == blas["name"] and meta["blas"]["version"] == blas["version"]

    def test_run_meta_records_the_blas_threads_as_set(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        path = tmp_path / "run_meta.json"
        write_run_meta(path, ValuationConfig(epochs=1), 3, seconds=0.0, extra={})
        meta = json.loads(path.read_text())
        assert meta["blas"]["OPENBLAS_NUM_THREADS"] == "2"
        assert meta["blas"]["OMP_NUM_THREADS"] is None


def test_config_validation():
    with pytest.raises(ValueError):
        ValuationConfig(epochs=0)
    with pytest.raises(ValueError, match="unknown utility kind 'chgg'"):
        ValuationConfig(kind="chgg")


@pytest.mark.parametrize("width", [True, 2.0, 0, -3])
def test_config_refuses_a_hidden_width_it_cannot_run(width):
    with pytest.raises(ValueError, match="hidden_width"):
        ValuationConfig(hidden_width=width)


def test_config_takes_a_positive_integer_width():
    assert ValuationConfig(hidden_width=np.int64(3)).hidden_width == 3
    assert ValuationConfig(hidden_width=None).hidden_width is None
