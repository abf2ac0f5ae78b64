"""The benchmark's own fast self-test.

    python3 perfbench/selftest.py

Runs every workload at a tiny size with --trace 0 and --trace 1 and checks
that each emits exactly the metrics BENCHMARK.json names, with their
units, and passes every check.  Then perturbs the closed-form values: a
shift of 1e-3 of their spread must be caught by the correctness gate
(pass_frac < 1), one of 1e-14 must not.  Last, the benchmark must fail
without printing a result in a directory that holds only BENCHMARK.json
and perfbench/.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_tiny(workload: str, trace: int) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace)], tiny=True)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def perturbed_closed_form(original, scale: float):
    import numpy as np

    def closed_form(X, alpha):
        result = original(X, alpha)
        v = result.values
        result.values = v + scale * (v.max() - v.min()) * np.cos(np.arange(v.size))
        return result

    return closed_form


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_tiny(workload, trace)
            expected = {m["name"]: m["unit"] for m in bench[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            if code != 0 or set(result) != RESULT_KEYS:
                failures.append(f"{label}: exit {code}, keys {sorted(result)}")
            if emitted != expected:
                failures.append(f"{label}: metrics {emitted} != {expected}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} checks failed")
            print(f"{label}: {result['attempted']} checks, {len(emitted)} metrics", flush=True)

    import chg_shapley.utilities as utilities

    original = utilities.chg_closed_form_shapley
    for scale, should_catch in ((1e-3, True), (1e-14, False)):
        utilities.chg_closed_form_shapley = perturbed_closed_form(original, scale)
        try:
            _, result = run_tiny("value-tall", 0)
        finally:
            utilities.chg_closed_form_shapley = original
        pass_frac = result["metrics"]["pass_frac"]["value"]
        print(f"perturbation {scale:g}: pass_frac {pass_frac:.4f}", flush=True)
        if (pass_frac < 1.0) != should_catch:
            failures.append(f"perturbation {scale:g}: pass_frac {pass_frac}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "removal", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        print(f"without src/: exit {proc.returncode}", flush=True)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")

    for failure in failures:
        print("FAIL", failure)
    print("selftest passed" if not failures else f"selftest failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
