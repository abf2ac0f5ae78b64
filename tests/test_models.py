"""Tests for the softmax models: analytic gradients vs finite differences."""

import decimal
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from chg_shapley import models
from chg_shapley.models import (
    Dataset,
    FactoredGrads,
    FrozenFeatureMap,
    GradientSet,
    ModelState,
    NonFiniteBatchError,
    accuracy,
    batch_loss,
    head_dataset,
    init_model,
    load_dataset_csv,
    make_feature_map,
    per_example_loss_and_grad,
    save_dataset_csv,
    sgd_step_weighted,
    softmax_gradient_lipschitz_bound,
)

# Frozen once from init_model((3, 2), seed=0); guards the init stream.
INIT_CHECKSUM_P3_C2_SEED0 = "c331f78c6a3030fe4ea5989d1fe5c3e2123ed8cddbf0dbfa6f77b4c59ec3e044"


def small_dataset(rng, n=12, p=4, n_classes=3) -> Dataset:
    return Dataset(
        features=rng.standard_normal((n, p)),
        labels=rng.integers(0, n_classes, n),
        n_classes=n_classes,
    )


def loss_at_params(model, data, indices, flat_params):
    """Mean loss with the head parameters replaced by `flat_params`."""
    from dataclasses import replace

    c, q = model.weights.shape
    weights = flat_params[: c * q].reshape(c, q)
    bias = flat_params[c * q :]
    return batch_loss(replace(model, weights=weights, bias=bias), data, indices)


# ---------------------------------------------------------------------------
# Dataset container and CSV ingestion
# ---------------------------------------------------------------------------

class TestDataset:
    def test_class_index_partitions(self):
        data = Dataset(features=np.zeros((5, 2)), labels=np.array([0, 1, 0, 2, 1]))
        assert data.n_classes == 3
        merged = np.sort(np.concatenate(data.class_index))
        assert np.array_equal(merged, np.arange(5))

    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 3]), n_classes=2)
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([-1, 0]))

    @pytest.mark.parametrize(
        "bad",
        [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]],
        ids=["nan", "inf", "-inf", "inf-and--inf"],
    )
    def test_non_finite_features_refused(self, bad):
        features = np.zeros((4, 2))
        features.flat[: len(bad)] = bad
        with pytest.raises(ValueError, match="non-finite features"):
            Dataset(features=features, labels=np.zeros(4, dtype=int))

    def test_finite_features_whose_sum_overflows_accepted(self):
        # The sum overflows to inf (a RuntimeWarning fails the suite); the
        # scan then finds every feature finite.
        data = Dataset(features=np.array([[1e308], [1e308]]), labels=np.array([0, 1]))
        assert data.n == 2

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = small_dataset(rng)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_csv_contiguity_validation(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("f0,label\n1.0,0\n2.0,2\n")  # class 1 missing
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_csv_label_gap_checked_without_allocating_up_to_the_label(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1099511627776\n")  # 2**40
        with pytest.raises(ValueError, match="contiguous"):
            load_dataset_csv(path)

    def test_csv_missing_file(self):
        with pytest.raises(OSError):
            load_dataset_csv("definitely_missing.csv")

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("1,2,0\n3,4\n", 3, "expected 3 fields, got 2"),
            ("1,2,0\n\n3,x,1\n", 4, "could not convert string to float: 'x'"),
            ("1,2,0\n3,4,1.5\n", 3, "label '1.5' is not an integer"),
            ("1,2,0\n3,nan,1\n", 3, "non-finite feature"),
            ("1,2,0\n\ninf,4,1\n", 4, "non-finite feature"),
            ("1,2,0\n3,4,100000000000000000000\n", 3, "label '100000000000000000000' is out of range"),
            ("1,2,0\n3,4,-100000000000000000000\n", 3, "label '-100000000000000000000' is out of range"),
        ],
    )
    def test_csv_errors_name_the_line(self, tmp_path, body, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n" + body)
        with pytest.raises(ValueError) as err:
            load_dataset_csv(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,label\n1.5,0\n\n2.5,1\n\n")
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.features, [[1.5], [2.5]])
        assert np.array_equal(loaded.labels, [0, 1])


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model((5, 3), seed=7)
        b = init_model((5, 3), seed=7)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_zero_seed_checksum_fixture(self):
        m = init_model((3, 2), seed=0)
        digest = hashlib.sha256(m.weights.tobytes() + m.bias.tobytes()).hexdigest()
        assert digest == INIT_CHECKSUM_P3_C2_SEED0

    def test_bias_starts_at_zero(self):
        assert np.array_equal(init_model((4, 3), seed=2).bias, np.zeros(3))

    def test_feature_map_variant(self):
        m = init_model((6, 2), seed=3, hidden_width=10)
        assert m.weights.shape == (2, 10)
        assert m.feature_map is not None
        again = init_model((6, 2), seed=3, hidden_width=10)
        assert np.array_equal(m.feature_map.projection, again.feature_map.projection)

    @pytest.mark.parametrize("width", [2.0, True, 0, -3])
    def test_refuses_a_hidden_width_it_cannot_run(self, width):
        with pytest.raises(ValueError, match="hidden_width"):
            init_model((4, 3), seed=0, hidden_width=width)

    def test_head_dataset_maps_rows_once(self):
        data = small_dataset(np.random.default_rng(3))
        assert head_dataset(init_model((4, 3), seed=3), data) is data
        model = init_model((4, 3), seed=3, hidden_width=10)
        mapped = head_dataset(model, data)
        assert np.array_equal(mapped.features, model.feature_map.apply(data.features))
        assert np.array_equal(mapped.labels, data.labels)
        assert mapped.n_classes == data.n_classes

    @staticmethod
    def overflowing_map():
        """A mapped model and two rows; row 1's projection overflows to +inf,
        so adding the offset gives NaN whatever order the product sums in."""
        feature_map = FrozenFeatureMap(projection=np.full((2, 1), 2.0), offset=np.array([-np.inf]))
        model = ModelState(np.zeros((2, 1)), np.zeros(2), feature_map=feature_map)
        return model, Dataset(np.array([[1.0, 2.0], [1.7e308, 1.7e308]]), np.array([0, 1]))

    def test_head_dataset_names_the_row_the_map_overflows_on(self):
        model, data = self.overflowing_map()
        with pytest.raises(NonFiniteBatchError, match="example 1") as err:
            head_dataset(model, data)
        assert err.value.index == 1

    @pytest.mark.parametrize(
        "route",
        [
            per_example_loss_and_grad,
            lambda model, data: per_example_loss_and_grad(model, data, indices=[1]),
            models.mean_gradient,
            accuracy,
        ],
        ids=["pass", "subset pass", "mean_gradient", "accuracy"],
    )
    def test_every_route_names_the_row_the_map_overflows_on(self, route):
        model, data = self.overflowing_map()
        with pytest.raises(NonFiniteBatchError, match="feature map output at example 1") as err:
            route(model, data)
        assert err.value.index == 1

    @pytest.mark.parametrize("width", [1, 31, 32, 64, 512])
    def test_apply_in_place_matches_the_expression(self, width):
        rng = np.random.default_rng(width)
        feature_map = make_feature_map(6, width, seed=width)
        for n in (1, 7, 3000):
            features = 3.0 * rng.standard_normal((n, 6))
            for x in (features, np.asfortranarray(features)):
                want = np.tanh(x @ feature_map.projection + feature_map.offset)
                got = feature_map.apply(x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad_rows", [[0, 1], [49], [3, 17, 40]])
    def test_head_dataset_names_the_first_nan_row(self, bad_rows):
        rng = np.random.default_rng(len(bad_rows))
        data = small_dataset(rng, n=50, p=4)
        data.features[bad_rows, 1] = 1.7e308  # the product overflows to +-inf, then NaN
        feature_map = FrozenFeatureMap(projection=np.full((4, 5), 2.0), offset=np.full(5, -np.inf))
        model = ModelState(np.zeros((3, 5)), np.zeros(3), feature_map=feature_map)
        with pytest.raises(NonFiniteBatchError, match=f"example {bad_rows[0]}$") as err:
            head_dataset(model, data)
        assert err.value.index == bad_rows[0]

    def test_feature_map_determinism(self):
        a = make_feature_map(4, 8, seed=9)
        b = make_feature_map(4, 8, seed=9)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.offset, b.offset)


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

class TestPerExample:
    def test_uniform_logits_loss_is_log_c(self):
        rng = np.random.default_rng(4)
        for n_classes in (2, 3, 7):
            data = small_dataset(rng, n=6, p=3, n_classes=n_classes)
            model = init_model((3, n_classes), seed=0)
            model.weights[:] = 0.0  # zero head -> uniform softmax
            result = per_example_loss_and_grad(model, data)
            assert result.losses == pytest.approx([math.log(n_classes)] * 6, abs=1e-12)

    def test_losses_non_negative(self):
        rng = np.random.default_rng(5)
        data = small_dataset(rng)
        model = init_model((4, 3), seed=5)
        result = per_example_loss_and_grad(model, data)
        assert np.all(result.losses >= 0.0)

    def test_duplicated_example_identical_rows(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((4, 3))
        features[2] = features[0]
        labels = np.array([1, 0, 1, 2])
        data = Dataset(features=features, labels=labels, n_classes=3)
        model = init_model((3, 3), seed=6)
        result = per_example_loss_and_grad(model, data)
        assert result.losses[2] == result.losses[0]
        rows = result.vectors.dense()
        assert np.array_equal(rows[2], rows[0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(10):
            data = small_dataset(rng, n=5, p=3, n_classes=3)
            model = init_model((3, 3), seed=int(rng.integers(1000)))
            for example in range(data.n):
                grads = per_example_loss_and_grad(model, data, [example]).vectors
                analytic = grads.dense()[0]
                flat = np.concatenate([model.weights.ravel(), model.bias])
                numeric = np.empty_like(flat)
                for k in range(flat.size):
                    up, down = flat.copy(), flat.copy()
                    up[k] += step
                    down[k] -= step
                    numeric[k] = (
                        loss_at_params(model, data, [example], up)
                        - loss_at_params(model, data, [example], down)
                    ) / (2 * step)
                assert np.max(np.abs(analytic - numeric)) <= 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        data = small_dataset(rng, n=9)
        model = init_model((4, 3), seed=8)
        perm = rng.permutation(9)
        base = per_example_loss_and_grad(model, data)
        moved = per_example_loss_and_grad(model, data, perm)
        assert np.array_equal(moved.losses, base.losses[perm])
        assert np.array_equal(moved.vectors.dense(), base.vectors.dense()[perm])

    def test_non_finite_logits_report_index(self):
        data = Dataset(features=np.array([[1.0], [1e308]]), labels=np.array([0, 1]))
        model = init_model((1, 2), seed=9)
        model.weights[:] = 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteBatchError) as err:
                per_example_loss_and_grad(model, data)
        assert err.value.index == 1

    def test_grad_dim(self):
        model = init_model((4, 3), seed=1)
        data = small_dataset(np.random.default_rng(1))
        result = per_example_loss_and_grad(model, data)
        assert result.vectors.shape == (data.n, 3 * 4 + 3)


# A 10-long mask, truncated floats and a 2-D array all index rows without
# an error; each would read the wrong rows.
BAD_ROW_INDICES = [
    np.arange(10) % 2 == 0,
    [0.7, 1.2],
    np.array([0.0, 1.0]),
    [[0, 1], [2, 3]],
]


class TestRowIndices:
    @pytest.mark.parametrize("indices", BAD_ROW_INDICES)
    @pytest.mark.parametrize("entry", [per_example_loss_and_grad, batch_loss])
    def test_rejected(self, entry, indices):
        data = small_dataset(np.random.default_rng(40), n=10)
        model = init_model((4, 3), seed=40)
        with pytest.raises(ValueError, match="row indices must be flat integers"):
            entry(model, data, indices)

    def test_lists_sets_and_empty_accepted(self):
        data = small_dataset(np.random.default_rng(41), n=10)
        model = init_model((4, 3), seed=41)
        want = per_example_loss_and_grad(model, data, np.array([1, 4, 7]))
        for indices in ([1, 4, 7], {1, 4, 7}, (1, 4, 7), np.array([1, 4, 7], dtype=np.uint8)):
            got = per_example_loss_and_grad(model, data, indices)
            assert got.losses.tobytes() == want.losses.tobytes()
        # {8, 1} iterates as 8, then 1: a set's rows come in ascending order.
        want = per_example_loss_and_grad(model, data, [1, 8])
        got = per_example_loss_and_grad(model, data, {8, 1})
        assert got.losses.tobytes() == want.losses.tobytes()
        assert got.vectors.dense().tobytes() == want.vectors.dense().tobytes()
        assert per_example_loss_and_grad(model, data, []).n == 0

    @pytest.mark.parametrize("hidden_width", [None, 6])
    @pytest.mark.parametrize("entry", [per_example_loss_and_grad, batch_loss])
    def test_checked_once_per_pass(self, monkeypatch, entry, hidden_width):
        checked = []
        row_indices = models._row_indices

        def counting(indices, n):
            checked.append(n)
            return row_indices(indices, n)

        monkeypatch.setattr(models, "_row_indices", counting)
        data = small_dataset(np.random.default_rng(43), n=10)
        model = init_model((4, 3), seed=43, hidden_width=hidden_width)
        entry(model, data, [1, 4, 7])
        assert checked == [10]

    @pytest.mark.parametrize("indices", [[-1], [10], [0, 12]])
    def test_out_of_range(self, indices):
        data = small_dataset(np.random.default_rng(42), n=10)
        model = init_model((4, 3), seed=42)
        for entry in (per_example_loss_and_grad, batch_loss):
            with pytest.raises(ValueError, match="out of range for n=10"):
                entry(model, data, indices)

    @pytest.mark.parametrize("indices", BAD_ROW_INDICES)
    def test_factored_rows_rejected(self, indices):
        grads = FactoredGrads(np.ones((10, 3)), np.ones((10, 4)))
        with pytest.raises(ValueError, match="row indices must be flat integers"):
            grads.rows(indices)

    def test_factored_rows_range_and_collections(self):
        rng = np.random.default_rng(43)
        grads = FactoredGrads(rng.standard_normal((10, 3)), rng.standard_normal((10, 4)))
        with pytest.raises(ValueError, match="out of range for n=10"):
            grads.rows([0, 10])
        assert np.array_equal(grads.rows({7, 2}).dense(), grads.dense()[[2, 7]])
        assert np.array_equal(grads.rows({8, 1}).dense(), grads.dense()[[1, 8]])
        assert grads.rows([]).shape == (0, 3 * 4 + 3)

    @pytest.mark.parametrize(
        "n,classes,width", [(1, 1, 1), (50, 2, 20), (300, 10, 20), (64, 7, 512)]
    )
    def test_gather_matches_fancy_indexing(self, n, classes, width):
        rng = np.random.default_rng(n + classes + width)
        delta, phi = rng.standard_normal((n, classes)), rng.standard_normal((n, width))
        gs = GradientSet(FactoredGrads(delta, phi), rng.uniform(0, 2, n))
        for idx in (np.arange(n), rng.integers(0, n, 2 * n), rng.permutation(n)[: n // 2 + 1]):
            for got in (gs.vectors.rows(idx), gs.restrict(idx).vectors):
                assert got.delta.tobytes() == delta[idx].tobytes()
                assert got.phi.tobytes() == phi[idx].tobytes()
            assert gs.restrict(idx).losses.tobytes() == gs.losses[idx].tobytes()

    def test_restrict_checks_each_index_once(self, monkeypatch):
        calls = []
        check = models._row_indices

        def counted(indices, n):
            calls.append(n)
            return check(indices, n)

        monkeypatch.setattr(models, "_row_indices", counted)
        gs = GradientSet(FactoredGrads(np.ones((10, 3)), np.ones((10, 4))), np.ones(10))
        assert gs.restrict([1, 4, 7]).n == 3
        assert calls == [10]


def left_fold(exps):
    """Each row of `exps` summed left to right over its class columns, a
    sequential accumulate.  numpy's `sum(axis=1)` adds a row in this order
    below 8 columns only; from 8 up it sums pairwise."""
    return np.add.accumulate(exps, axis=1)[:, -1]


def parent_probs_and_losses(model, phi, labels, idx):
    """The forward pass as it was written with a row-wise max, its exp row
    sum a left fold and its probabilities the exps over that sum: the
    reference."""
    logits = phi @ model.weights.T + model.bias
    if not np.all(np.isfinite(logits)):
        bad = int(idx[np.flatnonzero(~np.all(np.isfinite(logits), axis=1))[0]])
        raise NonFiniteBatchError(f"non-finite logits at example {bad}", index=bad)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    z = left_fold(exps)
    rows = np.arange(labels.size)
    losses = np.log(z) - shifted[rows, labels]
    return exps / z[:, None], losses


class FixedLogits:
    """Head input whose class-major product with any weights, W @ phi_b.T, is
    the C x B transpose of its rows of `logits`, signed zeros included."""

    __array_ufunc__ = None  # so that W @ phi_b.T defers to __rmatmul__

    def __init__(self, logits):
        self.logits = logits

    def __getitem__(self, rows):
        return FixedLogits(self.logits[rows])

    @property
    def T(self):
        return self

    def __rmatmul__(self, weights):
        return self.logits.T.copy()  # C-contiguous, and never a view of `logits`


def kernel_delta_and_losses(model, phi, labels, indices=None):
    """The blocked forward kernel's m x C delta and m losses, gathered from
    its blocks; written into one C x m array and into new blocks, the two
    routes must agree bit for bit.  delta's off-label entries are the
    probabilities; a label's entry is its probability minus 1, rounded,
    and its probability is exp(-loss) only up to rounding."""
    m = labels.size
    delta = np.empty((model.n_classes, m))
    losses = np.empty(m)
    for rows, _, block_delta, block_losses in models._forward(model, phi, labels, indices, delta):
        assert np.shares_memory(block_delta, delta)
        losses[rows] = block_losses
    blocks = list(models._forward(model, phi, labels, indices))
    assert [b[0] for b in blocks] == list(models._blocks(m))
    if blocks:
        assert np.concatenate([b[2] for b in blocks], axis=1).tobytes() == delta.tobytes()
        assert np.concatenate([b[3] for b in blocks]).tobytes() == losses.tobytes()
    return delta.T, losses


def minus_onehot(probs, labels):
    """delta = probs - onehot(labels), in a copy."""
    delta = probs.copy()
    delta[np.arange(labels.size), labels] -= 1.0
    return delta


class TextbookLogits:
    """Head input whose row-major product with any weights is `logits`."""

    def __init__(self, logits):
        self.logits = logits

    def __matmul__(self, other):
        return self.logits.copy()


def logit_cases(rng, m, c):
    """Random, tied, signed-zero and near-overflow logits, m x c."""
    yield rng.standard_normal((m, c)) * 5.0
    yield rng.integers(-2, 3, size=(m, c)).astype(float)
    yield rng.choice([-0.0, 0.0, -1.0, 1.0], size=(m, c))
    yield rng.choice([-700.0, 700.0], size=(m, c)) + rng.uniform(-1.0, 1.0, (m, c))


class TestForwardPassMatchesRowwiseMax:
    # 2 * 16384 + 3 rows: two full blocks and a short one.
    @pytest.mark.parametrize("m", [0, 1, 7, 1000, 2 * models._BLOCK_ROWS + 3])
    def test_bit_identical_for_every_class_count(self, m):
        assert models._BLOCK_ROWS == 16384
        rng = np.random.default_rng(m)
        for c in [*range(1, 13), 16, 17, 50]:
            # Adding -0.0 keeps every logit, its sign included.
            model = ModelState(weights=np.zeros((c, 1)), bias=np.full(c, -0.0))
            labels = rng.integers(0, c, m)
            for logits in logit_cases(rng, m, c):
                phi = FixedLogits(logits)
                block = model.weights @ phi[: min(m, 5)].T + model.bias[:, None]
                assert block.tobytes() == logits[: min(m, 5)].T.tobytes()
                probs, losses = parent_probs_and_losses(
                    model, TextbookLogits(logits), labels, np.arange(m)
                )
                want = minus_onehot(probs, labels), losses
                got = kernel_delta_and_losses(model, phi, labels)
                for w, g in zip(want, got):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (c, logits)

    @pytest.mark.parametrize("mix", ["uniform", "signed"])
    def test_class_sum_is_a_left_fold(self, mix):
        # At every class count, and at one column, where numpy's own axis-0
        # sum of a contiguous column would go pairwise.
        rng = np.random.default_rng(5)
        for c in [*range(1, 300), 511, 1000, 1031]:
            for b in (1, 7, 300):
                if mix == "uniform":
                    rows = rng.uniform(0.0, 1.0, (c, b))
                else:
                    rows = rng.standard_normal((c, b)) * 10.0 ** rng.integers(-5, 5, (c, b))
                want = left_fold(np.ascontiguousarray(rows.T))
                assert models._class_sum(rows).tobytes() == want.tobytes(), (c, b)

    @pytest.mark.parametrize("hidden_width", [None, 6])
    def test_bit_identical_through_a_model(self, hidden_width):
        rng = np.random.default_rng(3)
        for c in (1, 2, 3, 10):
            data = small_dataset(rng, n=200, p=5, n_classes=c)
            model = init_model((5, c), seed=c, hidden_width=hidden_width)
            model.weights[:] = rng.standard_normal(model.weights.shape)
            phi = data.features if hidden_width is None else model.feature_map.apply(data.features)
            want = parent_probs_and_losses(model, phi, data.labels, np.arange(data.n))
            got = per_example_loss_and_grad(model, data)
            assert got.losses.tobytes() == want[1].tobytes()
            assert got.vectors.delta.tobytes() == minus_onehot(want[0], data.labels).tobytes()

    def test_whole_batch_is_read_in_place(self):
        data = small_dataset(np.random.default_rng(2))
        model = init_model((4, 3), seed=2)
        assert head_dataset(model, data) is data
        assert per_example_loss_and_grad(model, data).vectors.phi is data.features

    def test_non_finite_logits_name_the_row_of_the_data(self):
        features = np.ones((7, 1))
        features[4] = 1e308
        data = Dataset(features=features, labels=np.arange(7) % 2)
        model = init_model((1, 2), seed=9)
        model.weights[:] = 1e308
        for indices in (None, [6, 2, 4, 0], np.random.default_rng(9).permutation(7)):
            with np.errstate(over="ignore"):
                with pytest.raises(NonFiniteBatchError, match="example 4") as err:
                    per_example_loss_and_grad(model, data, indices)
            assert err.value.index == 4

    @pytest.mark.parametrize("what", ["logits", "loss"])
    @pytest.mark.parametrize("route", [per_example_loss_and_grad, models.mean_gradient])
    def test_a_bad_row_in_a_later_block_names_the_row_of_the_data(self, what, route):
        # Every row before the bad one is finite, and the bad one is read in
        # the second block or later: with every row, with sorted rows, and
        # with shuffled rows that put it in the last block.
        n, bad = 2 * models._BLOCK_ROWS + 5, models._BLOCK_ROWS + 7
        if what == "logits":
            features, labels = np.ones((n, 1)), np.arange(n) % 2
            features[bad] = 1e308
            model = ModelState(weights=np.full((2, 1), 1e308), bias=np.zeros(2))
        else:  # logits 2e308 apart: the shift overflows and the loss is infinite
            features, labels = np.full((n, 1), 0.5), np.ones(n, dtype=int)
            features[bad] = 1.0
            model = ModelState(weights=np.array([[1e308], [-1e308]]), bias=np.zeros(2))
        data = Dataset(features=features, labels=labels, n_classes=2)
        shuffled = np.random.default_rng(11).permutation(n)
        at = int(np.flatnonzero(shuffled == bad)[0])
        shuffled[[at, -1]] = shuffled[[-1, at]]
        for indices in (None, np.delete(np.arange(n), [0, 3, 40]), shuffled):
            with pytest.raises(NonFiniteBatchError, match=f"non-finite {what} at example {bad}$") as err:
                route(model, data, indices)
            assert err.value.index == bad

    def test_overflowing_logits_are_reported_not_warned(self):
        # Under pytest a RuntimeWarning is an error, so this also shows that
        # the matmul's overflow reaches the check instead of warning.
        data = Dataset(features=np.array([[1.0], [1e308]]), labels=np.array([0, 1]))
        model = init_model((1, 2), seed=9)
        model.weights[:] = 1e308
        with pytest.raises(NonFiniteBatchError, match="example 1"):
            per_example_loss_and_grad(model, data)

    def test_logits_further_apart_than_the_float_range_name_the_row(self):
        # Row 1's logits are finite but 2e308 apart: the shift overflows, and
        # the infinite loss is reported instead of returned.
        model = ModelState(weights=np.array([[1e308], [-1e308]]), bias=np.zeros(2))
        data = Dataset(features=np.array([[0.5], [1.0]]), labels=np.array([1, 1]))
        with pytest.raises(NonFiniteBatchError, match="non-finite loss at example 1"):
            per_example_loss_and_grad(model, data)


def decimal_softmax(row, ctx):
    """softmax of the doubles in `row`, in `ctx`'s precision."""
    exps = [ctx.exp(decimal.Decimal(float(x))) for x in row]
    z = sum(exps, decimal.Decimal(0))
    return [ctx.divide(e, z) for e in exps]


class TestSoftmaxIsExact:
    """Every off-label delta entry is a probability, exp(s)/z, within a few
    eps of the softmax of the same doubles taken in 50 digits."""

    @pytest.mark.parametrize("c,sigma", [(2, 5.0), (2, 30.0), (10, 5.0), (10, 30.0)])
    def test_off_label_delta_within_4_eps_of_a_50_digit_softmax(self, c, sigma):
        rng = np.random.default_rng([c, int(sigma)])
        logits = rng.standard_normal((1000, c)) * sigma
        logits -= logits.max(axis=1, keepdims=True)  # a row max of exactly 0: the shift is exact
        assert np.all(logits.max(axis=1) == 0.0)
        labels = rng.integers(0, c, logits.shape[0])
        model = ModelState(np.eye(c), np.zeros(c))
        data = Dataset(logits, labels, n_classes=c)
        delta = per_example_loss_and_grad(model, data).vectors.delta
        ctx = decimal.Context(prec=50)
        worst, checked = 0.0, 0
        for row, label, got in zip(logits, labels, delta):
            for j, want in enumerate(decimal_softmax(row, ctx)):
                if j == label or got[j] < 1e-300:
                    continue
                rel = abs((decimal.Decimal(float(got[j])) - want) / want)
                worst, checked = max(worst, float(rel)), checked + 1
        assert checked > logits.shape[0] * (c - 1) // 2
        assert worst <= 4 * np.finfo(float).eps, worst / np.finfo(float).eps


def kernel_logits(model, phi):
    """The n x C logits of the references, from the kernel's class-major
    product W phi^T + b: with one OpenBLAS thread the row-major phi W^T
    rounds some logits differently from 12 classes up."""
    return (model.weights @ phi.T).T + model.bias


def unfused_probs_and_losses(model, phi, labels, indices):
    """The forward pass with a new n x C array per step, as it was written
    before it ran in place, its probabilities the exps over their left-folded
    sum: the reference for the in-place kernel."""
    logits = kernel_logits(model, phi)
    if not np.all(np.isfinite(logits)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(logits), axis=1))[0])
        if indices is not None:
            bad = int(np.asarray(indices, dtype=np.intp)[bad])
        raise NonFiniteBatchError(f"non-finite logits at example {bad}", index=bad)
    # logits.max(axis=1) reduces the short class axis one row at a time;
    # folding np.maximum across the columns is vectorised over the rows,
    # and a max of finite numbers is exact in any order.
    row_max = logits[:, 0].copy()
    for c in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, c], out=row_max)
    shifted = logits - row_max[:, None]
    exps = np.exp(shifted)
    z = left_fold(exps)
    rows = np.arange(labels.size)
    losses = np.log(z) - shifted[rows, labels]
    return exps / z[:, None], losses


def unfused_column_sum(grads):
    """`FactoredGrads.column_sum` as it was written with `sum(axis=0)`: the reference."""
    return np.concatenate([(grads.delta.T @ grads.phi).ravel(), grads.delta.sum(axis=0)])


class TestInPlaceKernelIsBitIdentical:
    """The blocked class-major forward pass and the blocked column sum
    against the unfused formulas, byte for byte.  The order of numpy's
    reductions in the column sum is a numpy internal, so this runs on
    every numpy CI tests with."""

    @pytest.mark.parametrize("c", range(1, 18))
    def test_sweep(self, c):
        rng = np.random.default_rng([c, 31])
        for n in (1, 2, 7, 33, 1000, 4099):
            for p in (1, 3, 20):
                phi = rng.standard_normal((n, p))
                labels = rng.integers(0, c, n)
                data = Dataset(phi, labels, n_classes=c)
                for scale in (0.1, 10.0, 300.0):
                    model = ModelState(
                        weights=rng.standard_normal((c, p)) * scale / math.sqrt(p),
                        bias=rng.standard_normal(c) * scale,
                    )
                    want_probs, want_losses = unfused_probs_and_losses(model, phi, labels, None)
                    want_delta = minus_onehot(want_probs, labels)
                    got_delta, got_losses = kernel_delta_and_losses(model, phi, labels)
                    assert got_delta.tobytes() == want_delta.tobytes(), (n, p, scale)
                    assert got_losses.tobytes() == want_losses.tobytes(), (n, p, scale)

                    got = per_example_loss_and_grad(model, data)
                    assert got.losses.tobytes() == want_losses.tobytes(), (n, p, scale)
                    grads = got.vectors
                    assert grads.delta.tobytes() == want_delta.tobytes(), (n, p, scale)
                    # The pass returns its set unscanned; the scanning
                    # constructor accepts every one.
                    assert isinstance(got, GradientSet)
                    GradientSet(got.vectors, got.losses)
                    # The step sums delta; the chg kind sums the loss-weighted
                    # delta.  At one class delta is 0, so random rows cover it.
                    spread = rng.standard_normal((n, c)) * rng.uniform(0.0, 1e3, (n, 1))
                    for summed in (grads, grads.scaled(got.losses), FactoredGrads(spread, phi)):
                        want_sum = unfused_column_sum(summed)
                        assert summed.column_sum().tobytes() == want_sum.tobytes(), (n, p, scale)
                # Logits near the float limit, up to 1e308 apart within a
                # row: huge losses, still finite and non-negative.
                model = ModelState(
                    weights=rng.uniform(-1.0, 1.0, (c, p)) * 1e307 / p,
                    bias=rng.uniform(-1.0, 1.0, c) * 1e307,
                )
                got = per_example_loss_and_grad(model, data)
                assert isinstance(got, GradientSet)
                GradientSet(got.vectors, got.losses)
                want_losses = unfused_probs_and_losses(model, phi, labels, None)[1]
                assert got.losses.tobytes() == want_losses.tobytes(), (n, p)

    def test_forward_pass_peak_memory(self):
        n, p, c = 200_000, 20, 10
        rng = np.random.default_rng(32)
        data = Dataset(rng.standard_normal((n, p)), rng.integers(0, c, n), n_classes=c)
        model = init_model((p, c), seed=32)
        tracemalloc.start()
        try:
            result = per_example_loss_and_grad(model, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = result.vectors.delta.nbytes + result.losses.nbytes  # 17.6 MB
        # The unfused pass peaks at 4.0x (four n x C arrays alive at once)
        # and the whole-array in-place pass at 2.09x; in blocks it holds
        # delta, the losses and one block's temporaries: 1.18x.
        assert peak <= 1.25 * held, peak / held

    @pytest.mark.parametrize("c", [1, 2, 10])
    def test_column_sum_adds_the_blocks_in_order(self, c):
        # Each block as the single-block sum makes it, then added left to right.
        n, p = 2 * models._BLOCK_ROWS + 3, 5
        rng = np.random.default_rng(c)
        grads = FactoredGrads(rng.standard_normal((n, c)), rng.standard_normal((n, p)))
        parts = [unfused_column_sum(grads.rows(np.arange(n)[rows])) for rows in models._blocks(n)]
        assert len(parts) == 3
        assert grads.column_sum().tobytes() == ((parts[0] + parts[1]) + parts[2]).tobytes()

    @pytest.mark.parametrize("c", [2, 10])
    def test_mean_gradient_is_the_factored_step_bit_for_bit(self, c):
        # The removal arms step on mean_gradient; it must be the mean of the
        # pass's own factors, across block edges, with and without rows.
        n, p = 2 * models._BLOCK_ROWS + 3, 6
        rng = np.random.default_rng(c + 20)
        data = Dataset(rng.standard_normal((n, p)), rng.integers(0, c, n), n_classes=c)
        model = ModelState(weights=rng.standard_normal((c, p)), bias=rng.standard_normal(c))
        rows = np.sort(rng.permutation(n)[: n - 100])
        for indices in (None, rows, rows[:5]):
            grads = per_example_loss_and_grad(model, data, indices).vectors
            want = grads.column_sum() / grads.shape[0]
            assert models.mean_gradient(model, data, indices).tobytes() == want.tobytes()
            want_model = sgd_step_weighted(model, grads, 0.1)
            got_model = models.sgd_step(model, models.mean_gradient(model, data, indices), 0.1)
            assert got_model.weights.tobytes() == want_model.weights.tobytes()
            assert got_model.bias.tobytes() == want_model.bias.tobytes()

    def test_column_sum_overflow_raises(self):
        grads = FactoredGrads(np.ones((2, 2)), np.full((2, 1), 1.7e308))
        with pytest.raises(FloatingPointError, match="gradient sum overflowed"):
            grads.column_sum()
        with pytest.raises(FloatingPointError, match="gradient sum overflowed"):
            FactoredGrads(np.full((2, 1), 1.7e308), np.ones((2, 1))).column_sum()
        model = init_model((1, 2), seed=0)
        with pytest.raises(FloatingPointError, match="gradient sum overflowed"):
            sgd_step_weighted(model, grads, lr=0.1)


# ---------------------------------------------------------------------------
# Factored gradient matrix
# ---------------------------------------------------------------------------

def dense_reference(model, data):
    """The gradient matrix as the dense construction built it, op for op,
    its probabilities the exps over their row sum."""
    phi = data.features
    if model.feature_map is not None:
        phi = model.feature_map.apply(phi)
    logits = kernel_logits(model, phi)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    delta = exps / exps.sum(axis=1)[:, None]
    delta[np.arange(data.n), data.labels] -= 1.0
    weight_grads = np.einsum("ic,iq->icq", delta, phi).reshape(data.n, -1)
    return np.concatenate([weight_grads, delta], axis=1)


class TestFactoredGrads:
    @pytest.mark.parametrize("hidden_width", [None, 7])
    def test_dense_is_the_gradient_matrix_bit_for_bit(self, hidden_width):
        rng = np.random.default_rng(16)
        data = small_dataset(rng, n=9)
        model = init_model((4, 3), seed=16, hidden_width=hidden_width)
        result = per_example_loss_and_grad(model, data)
        grads = result.vectors
        assert grads.shape == (9, model.weights.size + model.bias.size)
        reference = dense_reference(model, data)
        assert np.array_equal(grads.dense(), reference)
        # Scaling folds the losses into delta: row i is (l_i delta_i) outer [phi_i, 1].
        scaled_delta = result.losses[:, None] * grads.delta
        weight_grads = np.einsum("ic,iq->icq", scaled_delta, grads.phi).reshape(9, -1)
        assert np.array_equal(
            grads.scaled(result.losses).dense(),
            np.concatenate([weight_grads, scaled_delta], axis=1),
        )

    def test_column_sum_of_no_rows_is_positive_zeros(self):
        grads = FactoredGrads(np.zeros((0, 3)), np.zeros((0, 5)))
        total = grads.column_sum()
        assert total.shape == (3 * 5 + 3,)
        assert not np.any(total) and not np.any(np.signbit(total))

    def test_statistics_match_dense(self):
        rng = np.random.default_rng(17)
        scale = rng.uniform(0, 2, 30)
        delta = scale[:, None] * rng.standard_normal((30, 4))
        grads = FactoredGrads(delta, rng.standard_normal((30, 6)))
        X = grads.dense()
        assert grads.shape == X.shape == (30, 4 * 6 + 4)
        assert grads.nbytes == 8 * 30 * (4 + 6) < X.nbytes
        zero = np.zeros(X.shape[1])  # centred on 0: ||x_i||^2 and <x_i, v>
        assert grads.centred(zero)[0] == pytest.approx(np.einsum("ij,ij->i", X, X), rel=1e-12)
        assert grads.column_sum() == pytest.approx(X.sum(axis=0), rel=1e-12, abs=1e-12)
        for v in rng.standard_normal((2, X.shape[1])):
            assert grads.centred(zero, v)[1] == pytest.approx(X @ v, rel=1e-12, abs=1e-12)
        idx = np.array([5, 0, 29])
        assert np.array_equal(grads.rows(idx).dense(), X[idx])
        assert np.array_equal(grads.scaled(np.full(30, 2.0)).dense(), 2.0 * X)
        assert grads.scaled(scale).dense() == pytest.approx(scale[:, None] * X, rel=1e-15)

    def test_non_finite_parts_detected(self):
        grads = FactoredGrads(np.ones((2, 2)), np.ones((2, 3)))
        assert grads.all_finite()
        assert not grads.scaled(np.array([1.0, np.inf])).all_finite()
        assert not FactoredGrads(np.ones((2, 2)), np.full((2, 3), np.nan)).all_finite()

    @pytest.mark.parametrize(
        "delta, phi",
        [
            (np.ones((2, 2)), np.ones((3, 1))),  # row counts differ
            (np.ones(2), np.ones((2, 1))),  # 1-D delta
            (np.ones((2, 2)), np.ones(2)),  # 1-D phi
            (np.ones((2, 2, 1)), np.ones((2, 1))),  # 3-D delta
        ],
    )
    def test_factors_must_be_matrices_with_the_same_rows(self, delta, phi):
        with pytest.raises(ValueError, match="must be 2-D with the same rows"):
            FactoredGrads(delta, phi)


# ---------------------------------------------------------------------------
# Weighted SGD
# ---------------------------------------------------------------------------

def parent_centred(grads, m, beta):
    """d_i and <x_i - m, beta> as two inner-product sweeps and a row-norm
    sweep form them: the arithmetic `FactoredGrads.centred` keeps bit for bit."""
    c, w = grads.delta.shape[1], grads.phi.shape[1]
    delta = grads.delta.T

    def inner(v):
        weights, bias = v[: c * w].reshape(c, w), v[c * w :, None]
        out = np.empty(grads.shape[0])
        for rows in models._blocks(out.size):
            head = weights @ grads.phi[rows].T
            head += bias
            out[rows] = np.einsum("ci,ci->i", delta[:, rows], head)
        return out

    norms = np.einsum("iq,iq->i", grads.phi, grads.phi)
    norms += 1.0
    for rows in models._blocks(norms.size):
        norms[rows] *= np.einsum("ci,ci->i", delta[:, rows], delta[:, rows])
    x_m = inner(m)
    x_m *= 2.0
    d = norms - x_m
    d += float(m @ m)
    return d, None if beta is None else inner(beta) - float(m @ beta)


B = models._BLOCK_ROWS
CENTRED_CASES = [(n, c, w) for n in (1, 7) for c in (1, 2, 10) for w in (0, 1, 20, 64, 512)] + [
    (n, c, w) for n in (B, B + 1, 2 * B + 3) for c, w in ((1, 0), (2, 20), (10, 64))
] + [(B + 1, 2, 512)]


class TestCentred:
    @pytest.mark.parametrize("n,c,w", CENTRED_CASES)
    def test_bits_of_two_inner_products_and_the_row_norms(self, n, c, w):
        rng = np.random.default_rng([n, c, w])
        grads = FactoredGrads(rng.standard_normal((n, c)), rng.standard_normal((n, w)))
        m, beta = rng.standard_normal((2, grads.shape[1]))
        m += grads.column_sum() / n  # near the rows' own mean, as the closed form centres them
        d, proj = grads.centred(m)
        assert proj is None
        assert d.tobytes() == parent_centred(grads, m, None)[0].tobytes()
        for got, want in zip(grads.centred(m, beta), parent_centred(grads, m, beta)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,c,w", [case for case in CENTRED_CASES if case[0] < B])
    def test_matches_the_dense_matrix(self, n, c, w):
        rng = np.random.default_rng([n, c, w, 1])
        grads = FactoredGrads(rng.standard_normal((n, c)), rng.standard_normal((n, w)))
        m, beta = rng.standard_normal((2, grads.shape[1]))
        Y = grads.dense() - m
        d, proj = grads.centred(m, beta)
        assert d == pytest.approx(np.einsum("ij,ij->i", Y, Y), rel=1e-12, abs=1e-12)
        assert proj == pytest.approx(Y @ beta, rel=1e-12, abs=1e-12)


class TestSgdStep:
    @staticmethod
    def grads_at(model, data):
        return per_example_loss_and_grad(model, data).vectors

    def test_zero_weights_leave_parameters(self):
        rng = np.random.default_rng(10)
        data = small_dataset(rng)
        model = init_model((4, 3), seed=10)
        grads = self.grads_at(model, data).scaled(np.zeros(data.n))
        stepped = sgd_step_weighted(model, grads, lr=0.5)
        assert np.array_equal(stepped.weights, model.weights)
        assert np.array_equal(stepped.bias, model.bias)

    def test_unit_weights_equal_plain_mean_gradient(self):
        rng = np.random.default_rng(11)
        data = small_dataset(rng)
        model = init_model((4, 3), seed=11)
        grads = self.grads_at(model, data)
        stepped = sgd_step_weighted(model, grads, lr=0.2)
        unit = sgd_step_weighted(model, grads.scaled(np.ones(data.n)), lr=0.2)
        mean = grads.dense().mean(axis=0)
        c, q = model.weights.shape
        expected_w = model.weights - 0.2 * mean[: c * q].reshape(c, q)
        expected_b = model.bias - 0.2 * mean[c * q :]
        assert stepped.weights == pytest.approx(expected_w, abs=1e-15)
        assert stepped.bias == pytest.approx(expected_b, abs=1e-15)
        assert np.array_equal(unit.weights, stepped.weights)
        assert np.array_equal(unit.bias, stepped.bias)

    def test_weighted_step_is_the_weighted_mean(self):
        rng = np.random.default_rng(15)
        data = small_dataset(rng)
        model = init_model((4, 3), seed=15)
        w = rng.uniform(0.0, 1.0, data.n)
        grads = self.grads_at(model, data)
        stepped = sgd_step_weighted(model, grads.scaled(w), lr=0.3)
        flat = np.concatenate([model.weights.ravel(), model.bias])
        expected = flat - 0.3 * np.mean(w[:, None] * grads.dense(), axis=0)
        got = np.concatenate([stepped.weights.ravel(), stepped.bias])
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_mismatched_lengths(self):
        data = small_dataset(np.random.default_rng(12))
        model = init_model((4, 3), seed=12)
        grads = per_example_loss_and_grad(model, data, [0, 1]).vectors
        for weights in (np.ones(3), np.ones(1), np.ones((2, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="need 2 row factors"):
                grads.scaled(weights)

    def test_step_decreases_loss_on_convex_instance(self):
        rng = np.random.default_rng(13)
        data = small_dataset(rng, n=30, p=4, n_classes=2)
        model = init_model((4, 2), seed=13)
        before = batch_loss(model, data)
        stepped = sgd_step_weighted(model, self.grads_at(model, data), lr=0.05)
        assert batch_loss(stepped, data) < before

    def test_input_model_untouched(self):
        rng = np.random.default_rng(14)
        data = small_dataset(rng)
        model = init_model((4, 3), seed=14)
        snapshot = model.weights.copy()
        sgd_step_weighted(model, self.grads_at(model, data), lr=0.3)
        assert np.array_equal(model.weights, snapshot)


# ---------------------------------------------------------------------------
# Descent bound on the real loss
# ---------------------------------------------------------------------------

class TestDescentInequality:
    def test_cross_entropy_descent_bound(self):
        rng = np.random.default_rng(15)
        data = small_dataset(rng, n=20, p=3, n_classes=3)
        model = init_model((3, 3), seed=15)
        L = softmax_gradient_lipschitz_bound(model, data)
        eta = 1.0 / L
        flat = np.concatenate([model.weights.ravel(), model.bias])
        for _ in range(25):
            grad = per_example_loss_and_grad(model, data).vectors.dense().mean(axis=0)
            x = rng.standard_normal(flat.size)
            lhs = loss_at_params(model, data, None, flat - eta * x)
            rhs = loss_at_params(model, data, None, flat) - 0.5 * eta * (
                float(grad @ grad) - float((grad - x) @ (grad - x))
            )
            assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_accuracy_on_separable_points():
    data = Dataset(
        features=np.array([[2.0, 0.0], [-2.0, 0.0]]), labels=np.array([0, 1]), n_classes=2
    )
    model = init_model((2, 2), seed=0)
    model.weights[:] = [[1.0, 0.0], [-1.0, 0.0]]
    assert accuracy(model, data) == 1.0


@pytest.mark.parametrize("c", [1, 2, 3, 10, 17])
def test_class_argmax_is_argmax(c):
    # Entries drawn from a few values, so that columns tie, hold NaN, and
    # hold +-inf alone or beside a NaN; signed zeros tie as argmax sees them.
    rng = np.random.default_rng(c)
    choices = [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, np.nan]
    for weights in (None, [0.1] * 7 + [0.3], [0.0] * 7 + [1.0], [0.05] * 6 + [0.65, 0.05]):
        logits = rng.choice(choices, size=(c, 3000), p=weights)
        got = models._class_argmax(logits)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argmax(logits, axis=0)), weights
    logits = rng.standard_normal((c, 1000))
    assert np.array_equal(models._class_argmax(logits), np.argmax(logits, axis=0))
