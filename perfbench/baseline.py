"""Re-measure the single-stage baseline figures quoted in ROADMAP.md.

    python3 perfbench/baseline.py [--repeats 3]

Prints one JSON object: at n=20k, 10 classes and hidden width 512 the
time to build the per-example gradient matrix and to value it; at n=1e5
the time of a 20-epoch chg run_valuation and of writing values.csv.
Each time is the median of --repeats runs.  The gradient stage peaks at
about 2.5 GB of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(repeats: int, fn):
    seconds, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from chg_shapley.experiments import make_synthetic_dataset
    from chg_shapley.models import init_model, per_example_loss_and_grad
    from chg_shapley.utilities import GradientSet, gradient_set_values
    from chg_shapley.valuation import ValuationConfig, run_valuation, write_values_csv

    import machine

    wide = make_synthetic_dataset(20_000, 20, 10, 4.0, 0)
    model = init_model((wide.n_features, wide.n_classes), seed=0, hidden_width=512)
    grads_s, batch = timed(args.repeats, lambda: per_example_loss_and_grad(model, wide))
    gs = GradientSet(batch.last_layer_grads, batch.losses)
    value_s, _ = timed(args.repeats, lambda: gradient_set_values(gs, "chg"))
    matrix_mb = batch.last_layer_grads.nbytes / 1e6
    del batch, gs

    tall = make_synthetic_dataset(100_000, 20, 2, 4.0, 0)
    run_s, run = timed(args.repeats, lambda: run_valuation(tall, ValuationConfig(epochs=20)))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        csv_s, _ = timed(args.repeats, lambda: write_values_csv(Path(tmp) / "values.csv", run, tall))

    print(json.dumps({
        "n20k_c10_w512": {"gradient_matrix_mb": matrix_mb, "build_gradients_s": grads_s,
                          "value_gradients_s": value_s},
        "n1e5": {"run_valuation_20_epochs_s": run_s, "write_values_csv_s": csv_s},
        "repeats": args.repeats,
        "machine": machine.describe(ROOT, blas_threads=1, arm_threads=1),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
