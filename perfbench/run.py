"""Run one benchmark workload; print a record line, then the result line.

    python3 perfbench/run.py --workload value-tall --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a JSON record of the machine, the thread counts,
every timing sample and every failed check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One BLAS thread per arm thread; the removal workload runs two arms, so
# compute threads never exceed two (the cores of the machine this was
# tuned on) and timings are not at the mercy of BLAS thread scheduling.
BLAS_THREADS = 1
MAX_ARMS = 2
SETUP_REPEATS = 3
MIN_ITERATIONS = 2


# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "quality": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    return {"percentile": best, "value": statistics.quantiles(samples, n=100)[best - 1]}


def host_probe_seconds() -> float:
    """Time of a fixed pure-Python loop.  It follows the speed the host
    gives this machine, which drifts independently of the code measured."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def child_import_seconds(repeats: int) -> list[float]:
    """Import time of the package in fresh interpreters, which have no
    modules cached from this process."""
    code = ("import time; t = time.perf_counter(); import chg_shapley.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(proc.stdout))
    return seconds


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "chg_shapley" / "__init__.py").is_file():
        print(f"error: no chg_shapley package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import chg_shapley.cli  # noqa: F401  (imports every package module and numpy)
    import_s = [time.perf_counter() - started]

    import layers
    import machine
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    arms = max(1, min(MAX_ARMS, (os.cpu_count() or 1) // BLAS_THREADS))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        record, metrics, checks = measure(args, workload, tiny, arms, work, tracer,
                                          workloads, layers)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path, started)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        import_s += child_import_seconds(SETUP_REPEATS)
        metrics["setup_s"] = (statistics.median(import_s)
                              + statistics.median(record["setup_s_samples"]))
    record["import_s_samples"] = import_s
    record["machine"] = machine.describe(ROOT, BLAS_THREADS, arms)
    units = layers.PER_LAYER if tracer is not None else END_TO_END
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(args, workload, tiny, arms, work, tracer, workloads, layers):
    """Set up, iterate for --seconds, check; return (record, metrics, checks)."""
    size = workload.tiny if tiny else workload.size
    if tracer is not None:
        layers.install(tracer)
    setup_s, synth_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        task = workloads.build_task(workload.pipeline, size, args.seed)
        t1 = time.perf_counter()
        setup_s.append(t1 - t0)
        if tracer is not None:
            synth_s.append(layers.synth_seconds(tracer, t0, t1))
    if tracer is not None:
        tracer.uninstall()
    ref_tasks = workloads.reference_tasks()
    reference = workloads.load_reference()

    pipeline = workloads.PIPELINES[workload.pipeline]
    checks = workloads.Checks()
    first = None
    wall = {False: [], True: []}  # keyed by whether the iteration was traced
    iteration_s, suite_s, probe_s, layer_rows = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # With --trace 1, iterations alternate untraced and traced, so the
        # difference of their pipeline medians is the tracing overhead.
        traced = tracer is not None and len(iteration_s) % 2 == 1
        probe_s.append(host_probe_seconds())
        if traced:
            layers.install(tracer)
        t0 = time.perf_counter()
        out = pipeline(task, work, arms)
        t1 = time.perf_counter()
        ref_out = workloads.run_reference_suite(ref_tasks, work, arms)
        t2 = time.perf_counter()
        if traced:
            tracer.uninstall()
            layer_rows.append(layers.iteration_metrics(tracer, t0, t2, arms))
        wall[traced].append(t1 - t0)
        iteration_s.append(t2 - t0)
        suite_s.append(t2 - t1)
        workloads.check_outputs(workload.pipeline, task, out, first, checks)
        workloads.check_reference(ref_tasks, ref_out, reference, checks)
        if first is None:
            first = out
        if (len(iteration_s) >= MIN_ITERATIONS
                and time.perf_counter() + statistics.median(iteration_s) > deadline):
            break

    samples = wall[False]
    quality_name = workloads.QUALITY[workload.pipeline]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "setup_s_samples": setup_s,
        "wall_s": {"median": statistics.median(samples), "count": len(samples),
                   "samples": samples, "tail": tail_percentile(samples)},
        "reference_suite_s": suite_s,
        "host_probe_s": probe_s,
        "iterations": len(iteration_s),
        quality_name: first[quality_name],
        "checks": {"attempted": checks.attempted, "failures": checks.failures[:20]},
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": (checks.attempted - len(checks.failures)) / checks.attempted,
            "quality": first[quality_name],
        }
    else:
        metrics = {name: statistics.median_low(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["experiments.synth_s"] = statistics.median(synth_s)
        metrics["trace.overhead_s"] = statistics.median(wall[True]) - statistics.median(samples)
        record["wall_s_traced"] = wall[True]
    return record, metrics, checks


if __name__ == "__main__":
    sys.exit(main())
