"""Byte oracle for every table the package writes, and how every output
file replaces the one at its path.

Each `reference_*` function below writes its table row by row with
csv.writer; `models._write_csv`, which formats a chunk of rows at a time,
must match it byte for byte, across its chunk boundaries too.
"""

import csv
import json
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import chg_shapley.cli as cli
from chg_shapley.experiments import DetectionReport, RemovalCurve, make_synthetic_dataset
from chg_shapley.models import _CSV_CHUNK_ROWS, Dataset, save_dataset_csv
from chg_shapley.selection import (
    EpochMetrics,
    SelectionConfig,
    SelectionHistory,
    SelectionPlan,
    run_selection_training,
    write_metrics_csv,
    write_selection_history_jsonl,
)
from chg_shapley.valuation import (
    ValuationConfig,
    ValuationRun,
    value_ranks,
    write_run_meta,
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


def reference_selection_history_jsonl(path, history):
    with open(path, "w") as fh:
        for plan in history.events:
            record = {
                "epoch": plan.epoch_created,
                "per_class_indices": {
                    str(k): [int(i) for i in v] for k, v in plan.per_class_indices.items()
                },
                "weights_summary": {
                    "min": float(plan.weights.min()),
                    "max": float(plan.weights.max()),
                    "mean": float(plan.weights.mean()),
                    "count": int(plan.weights.size),
                },
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


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


def test_selection_history_jsonl_matches_int_lists(tmp_path):
    # A selection run with an empty class, and hand-made events whose
    # indices reach the intp range.
    data = make_synthetic_dataset(80, 4, 3, 2.0, seed=8)
    data = Dataset(data.features, np.where(data.labels == 0, 0, data.labels + 1), n_classes=4)
    cfg = SelectionConfig(fraction=0.3, interval=2, epochs=4, seed=8)
    with pytest.warns(UserWarning, match="empty"):
        _, history = run_selection_training(data, cfg)
    big = np.iinfo(np.intp)
    history.events.append(
        SelectionPlan(
            subset=np.array([0, 1, big.max]),
            weights=np.array([0.0, 1 / 3, 1.0]),
            epoch_created=9,
            per_class_indices={0: np.array([0, big.max]), 1: np.array([1]), 2: np.array([], np.intp)},
        )
    )
    write_selection_history_jsonl(tmp_path / "new.jsonl", history)
    reference_selection_history_jsonl(tmp_path / "ref.jsonl", history)
    assert_same_bytes(tmp_path / "new.jsonl", tmp_path / "ref.jsonl")


# ---------------------------------------------------------------------------
# Write semantics: every output is a new file in place of a regular file at
# its path; a symlink is written through, and anything else, or a file
# whose unlink is refused, is opened as it is.
# ---------------------------------------------------------------------------

def _values_run(k):
    values = np.arange(5.0) * (k + 1) - 1.5
    run = ValuationRun(
        mean_values=values,
        value_sums=np.zeros(1),
        per_epoch_utilities=np.zeros(1),
        config=ValuationConfig(epochs=1),
    )
    return run, Dataset(np.zeros((5, 2)), np.arange(5) % 2)


def _write_values(out, k):
    run, data = _values_run(k)
    write_values_csv(out / "values.csv", run, data)
    return out / "values.csv"


def _write_run_meta(out, k):
    write_run_meta(out / "run_meta.json", ValuationConfig(epochs=1), k, 0.0, extra={"k": k})
    return out / "run_meta.json"


def _write_history(out, k):
    picks = np.arange(k + 1)
    plan = SelectionPlan(
        subset=picks, weights=np.ones(k + 1), epoch_created=k, per_class_indices={0: picks}
    )
    write_selection_history_jsonl(out / "selection_history.jsonl", SelectionHistory(events=[plan]))
    return out / "selection_history.jsonl"


def _write_oracle(out, k):
    argv = ["oracle", "--n", "3", "--d", "2", "--trials", "1", "--seed", str(k)]
    assert cli.cli_main(argv + ["--out-dir", str(out)]) == cli.EXIT_OK
    return out / "oracle_report.json"


def _write_detection(out, k):
    argv = ["bench", "--n", "60", "--epochs", "2", "--seed", str(k + 3), "--noise-rate", "0.2"]
    # A stopped clock, so that the file's "seconds" repeat.
    with mock.patch.object(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0)):
        assert cli.cli_main(argv + ["--out-dir", str(out)]) == cli.EXIT_OK
    return out / "detection.json"


# Each writes version k (0 or 1) of its file into directory `out` and
# returns the file's path; the two versions differ.  values.csv stands for
# every table, all of which _write_csv writes.
WRITERS = {
    "values.csv": _write_values,
    "run_meta.json": _write_run_meta,
    "selection_history.jsonl": _write_history,
    "oracle_report.json": _write_oracle,
    "detection.json": _write_detection,
}


def _fresh_bytes(tmp_path, write, k):
    fresh = tmp_path / f"fresh-{k}"
    fresh.mkdir()
    return write(fresh, k).read_bytes()


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_is_a_new_file(tmp_path, name):
    write = WRITERS[name]
    out = tmp_path / "out"
    out.mkdir()
    path = write(out, 0)
    first = path.read_bytes()
    with open(path, "rb") as held:
        write(out, 1)
        assert held.read() == first
    second = path.read_bytes()
    assert second != first
    assert second == _fresh_bytes(tmp_path, write, 1)


@pytest.mark.parametrize("name", WRITERS)
def test_symlink_is_written_through(tmp_path, name):
    write = WRITERS[name]
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    target = elsewhere / "target"
    target.write_bytes(b"old bytes\n")
    (out / name).symlink_to(target)
    path = write(out, 1)
    assert path.is_symlink()
    assert os.readlink(path) == str(target)
    assert target.read_bytes() == _fresh_bytes(tmp_path, write, 1)


@pytest.fixture
def refused_unlinks(monkeypatch):
    """Every os.unlink raises PermissionError; the paths it was asked for."""
    asked = []

    def refuse(path, *args, **kwargs):
        asked.append(os.fspath(path))
        raise PermissionError(13, "Permission denied", os.fspath(path))

    monkeypatch.setattr(os, "unlink", refuse)
    return asked


@pytest.mark.parametrize("name", WRITERS)
def test_refused_unlink_rewrites_in_place(tmp_path, name, refused_unlinks):
    write = WRITERS[name]
    out = tmp_path / "out"
    out.mkdir()
    path = write(out, 0)
    inode = path.stat().st_ino
    with open(path, "rb") as held:
        write(out, 1)
        second = path.read_bytes()
        assert held.read() == second  # truncated and written in place
    assert path.stat().st_ino == inode
    assert str(path) in refused_unlinks
    assert second == _fresh_bytes(tmp_path, write, 1)


@pytest.mark.parametrize("name", WRITERS)
def test_file_the_process_may_not_write_is_opened_as_it_is(tmp_path, name, monkeypatch):
    # os.access stands in for a read-only file here, since root may write one.
    write = WRITERS[name]
    out = tmp_path / "out"
    out.mkdir()
    path = write(out, 0)
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "access", lambda p, mode, **kw: os.fspath(p) != str(path))
    unlink = mock.Mock(wraps=os.unlink)
    monkeypatch.setattr(os, "unlink", unlink)
    write(out, 1)
    assert path.stat().st_ino == inode
    assert str(path) not in [os.fspath(call.args[0]) for call in unlink.call_args_list]
    monkeypatch.undo()
    assert path.read_bytes() == _fresh_bytes(tmp_path, write, 1)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_values_csv_exits_one_and_keeps_its_bytes(tmp_path, capsys):
    path = tmp_path / "values.csv"
    path.write_bytes(b"kept\n")
    path.chmod(0o444)
    code = cli.cli_main(["value", "--out-dir", str(tmp_path)] + SMALL_RUN)
    assert code == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert path.read_bytes() == b"kept\n"


def test_unserialisable_json_leaves_the_file_untouched(tmp_path):
    path = _write_run_meta(tmp_path, 0)
    first = path.read_bytes()
    inode = path.stat().st_ino
    with pytest.raises(TypeError):
        write_run_meta(path, ValuationConfig(epochs=1), 1, 0.0, extra={"k": np.int64(1)})
    assert path.read_bytes() == first
    assert path.stat().st_ino == inode


def test_device_is_opened_as_it_is(refused_unlinks):
    run, data = _values_run(0)
    write_values_csv(os.devnull, run, data)
    assert refused_unlinks == []
    assert os.path.exists(os.devnull)


def test_directory_at_the_output_path_exits_one(tmp_path, capsys):
    (tmp_path / "values.csv").mkdir()
    code = cli.cli_main(["value", "--out-dir", str(tmp_path)] + SMALL_RUN)
    assert code == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert (tmp_path / "values.csv").is_dir()
