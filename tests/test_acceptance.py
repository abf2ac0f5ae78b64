"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np
import pytest

from chg_shapley.cli import cli_main
from chg_shapley.experiments import (
    descent_bound_check,
    detection_curve,
    inject_label_noise,
    make_synthetic_dataset,
)
from chg_shapley.models import (
    Dataset,
    batch_loss,
    init_model,
    per_example_loss_and_grad,
)
from chg_shapley.selection import (
    SelectionConfig,
    random_baseline_training,
    run_selection_training,
)
from chg_shapley.shapley import (
    GameSpec,
    chg_closed_form_shapley,
    chg_game,
    exact_shapley,
    permutation_shapley,
    shapley_linear_term,
)
from chg_shapley.valuation import ValuationConfig, run_valuation


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} [{description}]: {status}{suffix}", flush=True)
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. Closed-form correctness against the enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 9))
        X = rng.standard_normal((n, d))
        alpha = rng.standard_normal(d)
        closed = chg_closed_form_shapley(X, alpha).values
        exact = exact_shapley(chg_game(X, alpha)).values
        scale = max(1.0, float(np.max(np.abs(exact))))
        worst = max(worst, float(np.max(np.abs(closed - exact))) / scale)
    elapsed = time.perf_counter() - started
    report(
        1,
        "closed form vs exact oracle",
        worst <= 1e-9 and elapsed < 60.0,
        f"{trials} games, max scaled err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Axiom suite
# ---------------------------------------------------------------------------

def test_criterion_2_axiom_suite():
    rng = np.random.default_rng(222)

    # Efficiency at n = 1e4 via the closed form.
    X = rng.standard_normal((10_000, 8))
    alpha = rng.standard_normal(8)
    values = chg_closed_form_shapley(X, alpha).values
    m = X.mean(axis=0)
    grand = float(alpha @ alpha - (m - alpha) @ (m - alpha))
    efficiency_ok = abs(values.sum() - grand) <= 1e-9 * max(1.0, abs(grand))

    # Symmetry: duplicated rows get equal values.
    Xs = rng.standard_normal((50, 5))
    Xs[31] = Xs[8]
    sym_values = chg_closed_form_shapley(Xs, rng.standard_normal(5)).values
    symmetry_ok = abs(sym_values[31] - sym_values[8]) <= 1e-12

    # Linearity: quadratic part (alpha = 0) plus linear part equals the total.
    linearity_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 6))
        Xl = rng.standard_normal((n, d))
        al = rng.standard_normal(d)
        total = chg_closed_form_shapley(Xl, al).values
        quadratic = exact_shapley(chg_game(Xl, np.zeros(d))).values
        linear = shapley_linear_term(Xl, al).values
        linearity_ok &= bool(np.max(np.abs(total - (quadratic + linear))) <= 1e-9)

    # Dummy player: exactly zero in exact enumeration.
    contributions = np.array([1.0, 0.0, -2.0, 0.5, 3.0])

    def skip_player_one(idx):
        return float(contributions[idx].sum())

    dummy_values = exact_shapley(GameSpec(n=5, utility=skip_player_one)).values
    dummy_ok = dummy_values[1] == 0.0

    report(
        2,
        "efficiency/symmetry/linearity/dummy axioms",
        efficiency_ok and symmetry_ok and linearity_ok and dummy_ok,
        f"eff={efficiency_ok} sym={symmetry_ok} lin={linearity_ok} dummy={dummy_ok}",
    )


# ---------------------------------------------------------------------------
# 3. Complexity: large-n closed form on one core
# ---------------------------------------------------------------------------

def _best_closed_form_time(n: int, d: int, reps: int) -> float:
    rng = np.random.default_rng(1234)
    X = rng.standard_normal((n, d))
    alpha = rng.standard_normal(d)
    chg_closed_form_shapley(X, alpha)  # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        chg_closed_form_shapley(X, alpha)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_3_large_n_runtime_and_scaling():
    seconds = _best_closed_form_time(100_000, 64, reps=5)
    runtime_ok = seconds <= 5.0
    # Linearity in n at fixed d; measured at d=8 where the machine's
    # memory-bandwidth noise does not swamp a 10 ms kernel, with the
    # median over independent pairs for robustness.
    ratios = sorted(
        _best_closed_form_time(200_000, 8, reps=11) / _best_closed_form_time(100_000, 8, reps=11)
        for _ in range(5)
    )
    ratio = ratios[2]
    scaling_ok = 1.0 <= ratio <= 3.0
    report(
        3,
        "1e5 x 64 closed form under 5s, linear scaling in n",
        runtime_ok and scaling_ok,
        f"t={seconds * 1000:.1f}ms, median doubling ratio {ratio:.2f}",
    )


# ---------------------------------------------------------------------------
# 4. Monte Carlo consistency
# ---------------------------------------------------------------------------

def test_criterion_4_mc_consistency():
    within = 0
    improved = 0
    games = 20
    worst = 0.0
    for seed in range(games):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 4))
        alpha = rng.standard_normal(4)
        game = chg_game(X, alpha)
        exact = exact_shapley(game).values
        value_range = float(exact.max() - exact.min())
        err_large = float(
            np.max(np.abs(permutation_shapley(game, 10_000, seed=seed).values - exact))
        )
        err_small = float(
            np.max(np.abs(permutation_shapley(game, 100, seed=seed).values - exact))
        )
        within += err_large <= 1e-2 * value_range
        improved += err_large <= err_small
        worst = max(worst, err_large / value_range)
    report(
        4,
        "permutation MC within 1e-2 of exact; error shrinks with samples",
        within == games and improved >= 18,
        f"within={within}/20 improved={improved}/20 worst err/range={worst:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. Gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_fidelity():
    from dataclasses import replace

    rng = np.random.default_rng(555)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        n_classes = int(rng.integers(2, 4))
        p = int(rng.integers(2, 5))
        data = Dataset(
            features=rng.standard_normal((3, p)),
            labels=rng.integers(0, n_classes, 3),
            n_classes=n_classes,
        )
        model = init_model((p, n_classes), seed=int(rng.integers(10_000)))
        example = int(rng.integers(3))
        grads = per_example_loss_and_grad(model, data, [example]).last_layer_grads
        analytic = grads.dense()[0]
        flat = np.concatenate([model.weights.ravel(), model.bias])
        numeric = np.empty_like(flat)
        for k in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[k] += step
            down[k] -= step
            c, q = model.weights.shape
            loss_up = batch_loss(
                replace(model, weights=up[: c * q].reshape(c, q), bias=up[c * q :]),
                data,
                [example],
            )
            loss_down = batch_loss(
                replace(model, weights=down[: c * q].reshape(c, q), bias=down[c * q :]),
                data,
                [example],
            )
            numeric[k] = (loss_up - loss_down) / (2 * step)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    report(
        5,
        "analytic gradients vs central finite differences",
        worst <= 1e-6,
        f"50 instances, max abs diff {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Descent-bound equality case
# ---------------------------------------------------------------------------

def test_criterion_6_descent_equality():
    rng = np.random.default_rng(666)
    all_hold = True
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 30))
        L = float(rng.uniform(0.05, 20.0))
        check = descent_bound_check(L, rng.standard_normal(dim), rng.standard_normal(dim))
        all_hold &= check.holds
        worst = max(worst, abs(check.lhs - check.rhs) / max(1.0, abs(check.rhs)))
    report(
        6,
        "quadratic descent bound holds with equality",
        all_hold,
        f"100 triples, worst relative gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. Noisy-label detection
# ---------------------------------------------------------------------------

def test_criterion_7_noise_detection():
    started = time.perf_counter()
    aucs = []
    direction = 0
    seeds = 10
    for seed in range(seeds):
        data = make_synthetic_dataset(1000, 20, 2, 4.0, seed=seed)
        labels, noise = inject_label_noise(data.labels, 0.3, seed=seed + 100, n_classes=2)
        noisy = Dataset(features=data.features, labels=labels, n_classes=2)
        run = run_valuation(noisy, ValuationConfig(kind="chg", epochs=20, seed=seed))
        aucs.append(detection_curve(run.mean_values, noise).auc)
        flipped = run.mean_values[noise.flip_mask].mean()
        clean = run.mean_values[~noise.flip_mask].mean()
        direction += flipped < clean
    elapsed = time.perf_counter() - started
    mean_auc = float(np.mean(aucs))
    report(
        7,
        "flipped labels land at the bottom of the ranking",
        mean_auc >= 0.70 and direction >= 9 and elapsed < 120.0,
        f"mean AUC {mean_auc:.3f}, direction {direction}/10, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Selection benefit and degenerate full-fraction equality
# ---------------------------------------------------------------------------

def test_criterion_8_selection_benefit():
    chg_accs = []
    random_accs = []
    for seed in range(10):
        train = make_synthetic_dataset(2000, 20, 4, 4.0, seed=seed)
        test = make_synthetic_dataset(1000, 20, 4, 4.0, seed=seed + 500)
        cfg = SelectionConfig(fraction=0.1, interval=5, epochs=30, seed=seed, kind="chg")
        _, chosen = run_selection_training(train, cfg, test_data=test)
        chg_accs.append(chosen.metrics[-1].test_accuracy)
        _, baseline = random_baseline_training(train, cfg, test_data=test)
        random_accs.append(baseline.metrics[-1].test_accuracy)
    benefit_ok = float(np.mean(chg_accs)) >= float(np.mean(random_accs))

    # Full fraction with tied values: weights degenerate to 1 and the
    # trajectory must match unweighted training bit for bit.
    row = np.random.default_rng(3).standard_normal(6)
    tied = Dataset(
        features=np.tile(row, (80, 1)), labels=np.zeros(80, dtype=int), n_classes=2
    )
    cfg_full = SelectionConfig(fraction=1.0, interval=1, epochs=12, seed=11)
    with pytest.warns(UserWarning):
        model_sel, hist_sel = run_selection_training(tied, cfg_full)
    with pytest.warns(UserWarning):
        model_plain, _ = random_baseline_training(tied, cfg_full)
    degenerate_ok = (
        all(np.all(event.weights == 1.0) for event in hist_sel.events)
        and np.array_equal(model_sel.weights, model_plain.weights)
        and np.array_equal(model_sel.bias, model_plain.bias)
    )
    report(
        8,
        "value-driven selection beats random; full fraction is exact",
        benefit_ok and degenerate_ok,
        f"chg mean {np.mean(chg_accs):.4f} vs random {np.mean(random_accs):.4f}, "
        f"bitwise={degenerate_ok}",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "value", "--n", "300", "--epochs", "5", "--noise-rate", "0.3",
        "--seed", "17", "--scheme", "chg",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    code1 = cli_main(args + ["--out-dir", str(first)])
    code2 = cli_main(args + ["--out-dir", str(second)])
    identical = (first / "values.csv").read_bytes() == (second / "values.csv").read_bytes()
    report(
        9,
        "identical flags and seed give byte-identical values.csv",
        code1 == 0 and code2 == 0 and identical,
        f"exit codes {code1}/{code2}, identical={identical}",
    )
