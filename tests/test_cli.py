"""Tests for the command-line surface: exit codes, outputs, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chg_shapley
import chg_shapley.cli as cli
from chg_shapley import __version__
from chg_shapley.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, cli_main, oracle_report


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class TestArguments:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["value", "--bogus"]) == EXIT_INPUT
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self, capsys):
        assert cli_main([]) == EXIT_INPUT

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code = cli_main(["value", "--data", "missing.csv", "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "missing.csv" in capsys.readouterr().err

    def test_bad_config_value_exits_one(self, tmp_path):
        code = cli_main(
            ["select", "--fraction", "0", "--n", "50", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, seed",
        [(command, "-1") for command in ("value", "select", "oracle", "bench", "removal")]
        + [("value", "1.5")],
    )
    def test_bad_seed_is_refused_by_name(self, command, seed, tmp_path, capsys):
        code = cli_main([command, "--seed", seed, "--out-dir", str(tmp_path / "fresh" / "dir")])
        assert code == EXIT_INPUT
        message = f"argument --seed: must be a non-negative integer, got '{seed}'"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHG_OUT_DIR", str(tmp_path / "from_env"))
        code = cli_main(
            ["value", "--n", "40", "--epochs", "2", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "from_env" / "values.csv").exists()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

class TestOracleCommand:
    def test_report_passes_and_writes(self, tmp_path, capsys):
        code = cli_main(
            ["oracle", "--n", "8", "--d", "4", "--trials", "50", "--seed", "7",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["max_abs_err"] <= 1e-9
        assert report["passed"] is True
        stdout = capsys.readouterr().out
        assert "max_abs_err" in stdout

    def test_report_function_validates(self):
        with pytest.raises(ValueError):
            oracle_report(0, 3, 5, seed=0, mc_samples=100)

    def test_mc_error_field_present(self, tmp_path):
        cli_main(["oracle", "--n", "6", "--d", "2", "--trials", "5", "--seed", "3",
                  "--mc-samples", "500", "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert 0.0 < report["mc_max_abs_err"] < 0.5

    def test_game_above_the_enumeration_limit_exits_1_and_writes_nothing(self, tmp_path, capsys):
        code = cli_main(["oracle", "--n", "21", "--d", "3", "--trials", "1",
                         "--out-dir", str(tmp_path / "fresh" / "dir")])
        assert code == EXIT_INPUT
        assert "n=21 exceeds limit=20" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_mc_samples_exits_1_before_enumerating(self, samples, tmp_path, capsys, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the refusal must come before any enumeration")

        monkeypatch.setattr(cli, "exact_shapley", refuse)
        code = cli_main(["oracle", "--n", "12", "--d", "3", "--trials", "1",
                         "--mc-samples", samples, "--out-dir", str(tmp_path / "fresh" / "dir")])
        assert code == EXIT_INPUT
        assert "mc_samples" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_runs_with_scipy_blocked(self, tmp_path):
        # The package depends on numpy alone: with scipy made unimportable
        # (sys.modules maps it to None), every module imports, the oracle's
        # Monte Carlo check runs, and no scipy module is ever loaded.
        script = """
import importlib, json, pathlib, pkgutil, sys
sys.modules["scipy"] = None
import chg_shapley
for module in pkgutil.iter_modules(chg_shapley.__path__):
    if module.name != "__main__":
        importlib.import_module("chg_shapley." + module.name)
from chg_shapley.cli import cli_main
out = sys.argv[1]
code = cli_main(["oracle", "--n", "6", "--trials", "2", "--mc-samples", "50", "--out-dir", out])
report = json.loads((pathlib.Path(out) / "oracle_report.json").read_text())
loaded = [name for name, mod in sys.modules.items() if name.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"code": code, "passed": report["passed"], "scipy_loaded": loaded}))
"""
        done = run_python("-c", script, str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"code": 0, "passed": True, "scipy_loaded": []}


def run_python(*args):
    """A new interpreter with `args`, importing this package's source tree."""
    src = str(Path(chg_shapley.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestModuleEntry:
    """`python -m chg_shapley` runs `cli.main`, which exits with `cli_main`'s code."""

    def test_a_run_exits_zero_and_writes_its_report(self, tmp_path):
        out = tmp_path / "oracle"
        done = run_python(
            "-m", "chg_shapley", "oracle", "--n", "3", "--d", "2", "--trials", "2",
            "--out-dir", str(out),
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads((out / "oracle_report.json").read_text())["passed"] is True

    def test_a_bad_flag_exits_one_with_its_usage(self):
        done = run_python("-m", "chg_shapley", "value", "--epochs", "x")
        assert done.returncode == EXIT_INPUT
        assert "usage:" in done.stderr and "--epochs" in done.stderr


class TestValueCommand:
    def test_outputs_and_noise_column(self, tmp_path):
        code = cli_main(
            ["value", "--n", "120", "--epochs", "3", "--noise-rate", "0.3",
             "--seed", "5", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "values.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(row["is_noisy"]) for row in rows) == round(0.3 * 120)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["config"]["epochs"] == 3
        assert len(meta["per_epoch_utility"]) == 3
        assert meta["audit_max_violation"] <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        args = ["value", "--n", "80", "--epochs", "3", "--noise-rate", "0.2", "--seed", "9"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out-dir", str(a_dir)]) == EXIT_OK
        assert cli_main(args + ["--out-dir", str(b_dir)]) == EXIT_OK
        assert (a_dir / "values.csv").read_bytes() == (b_dir / "values.csv").read_bytes()

    def test_csv_dataset_input(self, tmp_path):
        from chg_shapley.experiments import make_synthetic_dataset
        from chg_shapley.models import save_dataset_csv

        data = make_synthetic_dataset(60, 4, 2, 3.0, seed=2)
        csv_path = tmp_path / "input.csv"
        save_dataset_csv(data, csv_path)
        code = cli_main(
            ["value", "--data", str(csv_path), "--epochs", "2", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "values.csv", newline="") as fh:
            assert [int(row["index"]) for row in csv.DictReader(fh)] == list(range(60))

    @pytest.mark.parametrize("scheme", ["chg", "hardness", "gradient"])
    def test_schemes(self, tmp_path, scheme):
        code = cli_main(
            ["value", "--n", "40", "--epochs", "2", "--scheme", scheme,
             "--seed", "3", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK

    def test_per_class_flag(self, tmp_path):
        code = cli_main(
            ["value", "--n", "40", "--epochs", "2", "--per-class",
             "--seed", "3", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK

    def test_divergent_training_exits_two(self, tmp_path, capsys):
        from chg_shapley.models import Dataset, save_dataset_csv

        blowup = Dataset(
            features=np.array([[1e30, 0.0], [-1e30, 0.0]]), labels=np.array([0, 1])
        )
        csv_path = tmp_path / "blowup.csv"
        save_dataset_csv(blowup, csv_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(
                ["value", "--data", str(csv_path), "--epochs", "40", "--lr", "1e280",
                 "--seed", "3", "--out-dir", str(tmp_path)]
            )
        assert code == EXIT_NUMERIC
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["value", "select"])
    def test_overflow_exits_two_and_names_epoch(self, tmp_path, capsys, command):
        rng = np.random.default_rng(0)
        rows = [
            f"{a:.17g},{b:.17g},{i % 2}"
            for i, (a, b) in enumerate(rng.choice([-1e200, 1e200], size=(40, 2)))
        ]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # overflow is reported, not warned
            code = cli_main(
                [command, "--data", str(csv_path), "--epochs", "3", "--lr", "10",
                 "--out-dir", str(tmp_path)]
            )
        assert code == EXIT_NUMERIC
        assert "diverged at epoch 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["value"], ["value", "--per-class"], ["select"]])
    @pytest.mark.parametrize(
        "kind, message",
        [("chg", "gradient sum overflowed"), ("gradient", "closed-form values overflowed")],
    )
    def test_closed_form_overflow_exits_two_and_names_epoch(
        self, tmp_path, capsys, command, kind, message
    ):
        # The pass is finite; a game's unscanned factors overflow its mean
        # (loss-weighted, chg) or its values (gradient).
        rng = np.random.default_rng(0)
        rows = [
            f"{a:.17g},{b:.17g},{i % 3}"
            for i, (a, b) in enumerate(1e155 * rng.uniform(-1.0, 1.0, size=(60, 2)))
        ]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # overflow is reported, not warned
            code = cli_main(
                [*command, "--data", str(csv_path), "--scheme", kind, "--epochs", "3",
                 "--out-dir", str(tmp_path)]
            )
        assert code == EXIT_NUMERIC
        assert f"diverged at epoch 0: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["value", "select"])
    def test_hardness_overflow_exits_two_and_names_epoch(self, tmp_path, capsys, command):
        rng = np.random.default_rng(1)
        rows = [
            f"{a:.17g},{b:.17g},{y}"
            for a, b, y in zip(
                1.7e308 * rng.uniform(-1.0, 1.0, 2000),
                rng.standard_normal(2000),
                rng.integers(0, 2, 2000),
            )
        ]
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        code = cli_main(
            [command, "--data", str(csv_path), "--scheme", "hardness", "--epochs", "2",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_NUMERIC
        assert "diverged at epoch 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["value", "select"])
    def test_step_overflow_exits_two_and_names_epoch(self, tmp_path, capsys, command):
        # The epoch-0 values are finite; the step's gradient sum overflows.
        rng = np.random.default_rng(26)
        rows = [
            f"{a:.17g},{b:.17g},{y}"
            for a, b, y in zip(
                1.7e308 * rng.uniform(-1.0, 1.0, 400),
                rng.standard_normal(400),
                rng.integers(0, 2, 400),
            )
        ]
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        per_class = ["--per-class"] if command == "value" else []  # select is per class
        code = cli_main(
            [command, "--data", str(csv_path), "--scheme", "hardness", *per_class,
             "--epochs", "3", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_NUMERIC
        assert "diverged at epoch 0: gradient sum overflowed" in capsys.readouterr().err

    def test_malformed_csv_exits_one_naming_the_line(self, tmp_path, capsys):
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text("a,b,label\n1,2,0\n3,4\n")
        code = cli_main(["value", "--data", str(csv_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert f"{csv_path}:3: expected 3 fields, got 2" in capsys.readouterr().err

    def test_label_beyond_intp_exits_one_naming_the_line(self, tmp_path, capsys):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("a,b,label\n1,2,0\n3,4,100000000000000000000\n")
        code = cli_main(["value", "--data", str(csv_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "big.csv:3" in capsys.readouterr().err
        assert not (tmp_path / "values.csv").exists()


class TestSelectCommand:
    def test_outputs(self, tmp_path):
        code = cli_main(
            ["select", "--n", "200", "--classes", "2", "--fraction", "0.2",
             "--interval", "3", "--epochs", "9", "--seed", "4", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 10  # header + one row per epoch
        events = (tmp_path / "selection_history.jsonl").read_text().splitlines()
        assert len(events) == 3
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["selection_events"] == 3

    def test_run_meta_shares_the_value_layout(self, tmp_path):
        code = cli_main(
            ["select", "--n", "60", "--fraction", "0.25", "--epochs", "2",
             "--seed", "1", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["version"] == __version__
        assert meta["config"]["kind"] == "chg"
        assert meta["config"]["fraction"] == 0.25
        assert meta["n"] == 60


class TestBenchCommand:
    def test_detection_json_with_auc(self, tmp_path):
        code = cli_main(
            ["bench", "--noise-rate", "0.3", "--seed", "1", "--n", "300",
             "--epochs", "6", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "detection.json").read_text())
        assert 0.0 <= payload["auc"] <= 1.0
        assert len(payload["fractions"]) == len(payload["detection_rate"])

    def test_json_round_trips_curve(self, tmp_path):
        cli_main(
            ["bench", "--noise-rate", "0.25", "--seed", "2", "--n", "200",
             "--epochs", "4", "--out-dir", str(tmp_path)]
        )
        payload = json.loads((tmp_path / "detection.json").read_text())
        rate = np.array(payload["detection_rate"])
        assert rate[0] == 0.0 and rate[-1] == 1.0
        assert np.all(np.diff(rate) >= 0)

    def test_plot_data_flag(self, tmp_path):
        cli_main(
            ["bench", "--noise-rate", "0.3", "--seed", "1", "--n", "200",
             "--epochs", "4", "--plot-data", "--out-dir", str(tmp_path)]
        )
        lines = (tmp_path / "detection_curve.csv").read_text().splitlines()
        assert lines[0] == "fraction,detection_rate,random_baseline"
        assert len(lines) > 100

    def test_without_noise_exits_one(self, tmp_path):
        assert cli_main(["bench", "--out-dir", str(tmp_path)]) == EXIT_INPUT


class TestRemovalCommand:
    def test_outputs_tidy_csv(self, tmp_path):
        code = cli_main(
            ["removal", "--n", "150", "--epochs", "4", "--seed", "6",
             "--fractions", "0.0", "0.3", "0.6", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "removal.csv").read_text().splitlines()
        assert lines[0] == "fraction,order,accuracy"
        assert len(lines) == 1 + 3 * 3

    def test_test_set_has_a_row_for_every_class(self, tmp_path):
        # n // 2 = 125 rows would be fewer than the 201 classes.
        code = cli_main(
            ["removal", "--n", "250", "--classes", "201", "--p", "201", "--epochs", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "removal.csv").exists()

    def test_thread_independence(self, tmp_path):
        base = ["removal", "--n", "120", "--epochs", "3", "--seed", "7",
                "--fractions", "0.0", "0.4"]
        one, four = tmp_path / "t1", tmp_path / "t4"
        cli_main(base + ["--threads", "1", "--out-dir", str(one)])
        cli_main(base + ["--threads", "4", "--out-dir", str(four)])
        assert (one / "removal.csv").read_bytes() == (four / "removal.csv").read_bytes()

    @pytest.mark.parametrize(
        "bad",
        [
            ["--fractions", "-0.5", "0.5"], ["--fractions", "1.5"], ["--threads", "0"],
            ["--fractions", "0.5", "0.5"], ["--fractions", "1.0"],
        ],
    )
    def test_bad_input_exits_1_before_any_output(self, tmp_path, capsys, bad):
        code = cli_main(["removal", "--n", "60", "--epochs", "2", "--out-dir", str(tmp_path)] + bad)
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "removal.csv").exists()



@pytest.mark.parametrize("command", ["value", "select", "removal"])
@pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
def test_learning_rate_not_finite_and_positive_exits_1_before_any_output(
    tmp_path, capsys, command, lr
):
    code = cli_main(
        [command, "--n", "60", "--epochs", "2", "--lr", lr, "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: lr must be a finite number > 0")
    assert not any(tmp_path.iterdir())

@pytest.mark.parametrize("command", ["value", "select", "removal"])
@pytest.mark.parametrize("rate", ["-0.5", "1.5", "nan"])
def test_noise_rate_outside_unit_interval_exits_1_before_any_output(
    tmp_path, capsys, command, rate
):
    code = cli_main(
        [command, "--n", "60", "--epochs", "2", "--noise-rate", rate, "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --noise-rate must be in [0, 1]")
    assert not any(tmp_path.iterdir())

@pytest.mark.parametrize("command", ["value", "select", "removal"])
@pytest.mark.parametrize("separation", ["-1", "nan", "inf"])
def test_separation_not_finite_and_non_negative_exits_1_before_any_output(
    tmp_path, capsys, command, separation
):
    code = cli_main(
        [command, "--n", "60", "--epochs", "2", "--separation", separation,
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: separation must be a finite number >= 0")
    assert not any(tmp_path.iterdir())


REFUSED_RUNS = [
    ["value", "--separation", "nan"],
    ["select", "--fraction", "0"],
    ["bench"],  # no --noise-rate: nothing to detect
    ["removal", "--threads", "0"],
    ["oracle", "--n", "0"],
]


@pytest.mark.parametrize("argv", REFUSED_RUNS, ids=lambda argv: argv[0])
def test_refused_run_creates_no_out_dir(tmp_path, capsys, argv):
    code = cli_main(argv + ["--out-dir", str(tmp_path / "fresh" / "dir")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("argv", REFUSED_RUNS, ids=lambda argv: argv[0])
def test_refused_run_creates_no_env_out_dir(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("CHG_OUT_DIR", str(tmp_path / "fresh" / "dir"))
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["value", "select", "bench", "removal"])
def test_unreadable_data_creates_no_out_dir(tmp_path, capsys, command):
    code = cli_main(
        [command, "--data", str(tmp_path / "missing.csv"), "--noise-rate", "0.2",
         "--epochs", "2", "--out-dir", str(tmp_path / "fresh" / "dir")]
    )
    assert code == EXIT_INPUT
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["value", "--epochs", "0"], "need epochs >= 1"),
        (["bench", "--noise-rate", "0.2", "--lr", "inf"], "lr must be a finite number"),
        (["select", "--fraction", "0"], "fraction must be in (0, 1]"),
    ],
    ids=["value-epochs", "bench-lr", "select-fraction"],
)
@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_bad_config_is_refused_before_any_data_is_built(
    tmp_path, monkeypatch, capsys, argv, want, source
):
    built = []

    def recording(name, real):
        def call(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("make_synthetic_dataset", "load_dataset_csv"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    if source == "csv":
        (tmp_path / "data.csv").write_text("x,label\n1,0\n2,1\n")
        argv = argv + ["--data", str(tmp_path / "data.csv")]
    code = cli_main(argv + ["--n", "60", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert want in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC) == (0, 1, 2)
