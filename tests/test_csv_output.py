"""Byte oracle for every table the package writes.

Each `reference_*` function below writes its table row by row with
csv.writer; `models._write_csv`, which formats a chunk of rows at a time,
must match it byte for byte, across its chunk boundaries too.
"""

import csv

import numpy as np
import pytest

import chg_shapley.cli as cli
from chg_shapley.experiments import DetectionReport, RemovalCurve
from chg_shapley.models import _CSV_CHUNK_ROWS, Dataset, save_dataset_csv
from chg_shapley.selection import EpochMetrics, SelectionHistory, write_metrics_csv
from chg_shapley.valuation import (
    ValuationConfig,
    ValuationRun,
    value_ranks,
    write_values_csv,
)

# Floats whose shortest exact text is awkward: a signed zero, the smallest
# subnormal, the largest decades, values that need all 17 digits, and ties.
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1,
    0.1 + 0.2, 1 / 3, -2 / 3, 2.0**-1074 * 3, 123456789.12345679, 1e-7, 1e16,
    0.5, 0.5, 0.5, -1.0, -1.0,
]
SIZES = [1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 3 * _CSV_CHUNK_ROWS + 7]


def edge_column(n, seed):
    """n floats: the edge cases (repeated to fill short columns) among normals."""
    rng = np.random.default_rng(seed)
    column = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    column[::3] = np.resize(EDGE_FLOATS, column[::3].size)
    return column


def reference_values_csv(path, run, data, noise_mask=None):
    header = ["index", "label", "mean_value", "rank"]
    columns = [
        range(run.n),
        map(int, data.labels),
        map("{:.17g}".format, run.mean_values),
        map(int, value_ranks(run.mean_values)),
    ]
    if noise_mask is not None:
        header.insert(2, "is_noisy")
        columns.insert(2, map(int, noise_mask))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def reference_dataset_csv(data, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feat_{j}" for j in range(data.n_features)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])


def reference_metrics_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "test_accuracy", "wall_time"])
        for row in history.metrics:
            writer.writerow(
                [row.epoch, f"{row.train_loss:.17g}", f"{row.test_accuracy:.17g}",
                 f"{row.wall_time:.6f}"]
            )


def reference_detection_curve_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "detection_rate", "random_baseline"])
        for f, r, b in zip(report.fractions, report.detection_rate, report.random_baseline):
            writer.writerow([f"{f:.17g}", f"{r:.17g}", f"{b:.17g}"])


def reference_removal_csv(path, curve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "order", "accuracy"])
        for order, accs in curve.accuracy.items():
            for f, acc in zip(curve.fractions, accs):
                writer.writerow([f"{f:.17g}", order, f"{acc:.17g}"])


def assert_same_bytes(path, reference_path):
    assert path.read_bytes() == reference_path.read_bytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("with_mask", [False, True])
def test_values_csv_matches_csv_writer(tmp_path, n, with_mask):
    values = edge_column(n, seed=n)
    run = ValuationRun(
        mean_values=values,
        value_sums=np.zeros(1),
        per_epoch_utilities=np.zeros(1),
        config=ValuationConfig(epochs=1),
    )
    data = Dataset(np.zeros((n, 2)), np.arange(n) % 3)
    mask = np.random.default_rng(n).random(n) < 0.3 if with_mask else None
    write_values_csv(tmp_path / "new.csv", run, data, noise_mask=mask)
    reference_values_csv(tmp_path / "ref.csv", run, data, noise_mask=mask)
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


@pytest.mark.parametrize("n", [1, _CSV_CHUNK_ROWS + 1])
def test_dataset_csv_matches_csv_writer(tmp_path, n):
    features = np.stack([edge_column(n, seed) for seed in range(3)], axis=1)
    data = Dataset(features, np.arange(n) % 2)
    save_dataset_csv(data, tmp_path / "new.csv")
    reference_dataset_csv(data, tmp_path / "ref.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_metrics_csv_matches_csv_writer(tmp_path):
    n = _CSV_CHUNK_ROWS + 5
    losses, accuracies = edge_column(n, seed=1), edge_column(n, seed=2)
    # Half-way cases for the 6-decimal wall time, and a long run's clock.
    times = np.concatenate(
        [[0.0, 0.0000005, 0.0000015, 2.5e-7, 12345.6789125], np.linspace(0, 99.9, n - 5)]
    )
    history = SelectionHistory(
        metrics=[EpochMetrics(i, losses[i], accuracies[i], times[i]) for i in range(n)]
    )
    write_metrics_csv(tmp_path / "new.csv", history)
    reference_metrics_csv(tmp_path / "ref.csv", history)
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_empty_metrics_csv_is_the_header(tmp_path):
    write_metrics_csv(tmp_path / "new.csv", SelectionHistory())
    reference_metrics_csv(tmp_path / "ref.csv", SelectionHistory())
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


SMALL_RUN = ["--n", "60", "--epochs", "2", "--seed", "3", "--noise-rate", "0.2"]


def test_detection_curve_csv_matches_csv_writer(tmp_path, monkeypatch):
    n = _CSV_CHUNK_ROWS + 2
    report = DetectionReport(
        fractions=edge_column(n, seed=4),
        detection_rate=edge_column(n, seed=5),
        auc=0.5,
        random_baseline=edge_column(n, seed=6),
    )
    monkeypatch.setattr(cli, "detection_curve", lambda values, noise: report)
    code = cli.cli_main(["bench", "--plot-data", "--out-dir", str(tmp_path)] + SMALL_RUN)
    assert code == cli.EXIT_OK
    reference_detection_curve_csv(tmp_path / "ref.csv", report)
    assert_same_bytes(tmp_path / "detection_curve.csv", tmp_path / "ref.csv")


def test_removal_csv_matches_csv_writer(tmp_path, monkeypatch):
    n = _CSV_CHUNK_ROWS // 2 + 3  # three orders of it cross two chunk boundaries
    curve = RemovalCurve(
        fractions=edge_column(n, seed=7),
        accuracy={name: edge_column(n, seed) for seed, name in enumerate(["a", "b_c", "low"])},
    )
    monkeypatch.setattr(cli, "point_removal_curve", lambda values, data, test, cfg: curve)
    code = cli.cli_main(["removal", "--out-dir", str(tmp_path)] + SMALL_RUN)
    assert code == cli.EXIT_OK
    reference_removal_csv(tmp_path / "ref.csv", curve)
    assert_same_bytes(tmp_path / "removal.csv", tmp_path / "ref.csv")
