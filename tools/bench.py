"""Write a BENCH point: the benchmark's timings and counters of this checkout.

    python tools/bench.py PATH

The file at PATH (for example BENCH_1.json at the repository root) holds:

- ``timings``: per workload of BENCHMARK.json, the median and quartiles of
  ``setup_s``, ``wall_s`` and ``peak_rss_mb`` over RUNS untraced
  ``perfbench/run.py`` runs of BENCHMARK.json's ``run_seconds`` each, every
  one in its own process (started by ``perfbench/suite.py``), the workloads
  taken in turn within each run;
- ``counters``: the count and byte metrics of one traced run per workload;
  the residual calls of the solve and of the grid oracle in each case of the
  ``oracle`` workload, read from one traced round; and the stop, iterations
  and residual calls of each optimized row of the default study;
- ``environment``: the Python and numpy versions, the CPU model, the CPUs
  this process may run on (as ``nproc``) and ``OPENBLAS_NUM_THREADS``.

Everything under ``counters`` is deterministic: two runs of this script
write the same counters.  Every benchmark run must read ``correct: true``
with 0 failed, or the script exits 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import suite  # noqa: E402  (standard library only, so the timed runs start small)

RUNS = 5
SEED = 42
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
COUNTER_UNITS = ("count", "B")


def benchmark_run(workload: str, seconds: float, trace: bool) -> dict:
    """The metrics of one perfbench run, which must pass its checks."""
    result = suite.run(workload, SEED, seconds, trace)
    if result["correct"] is not True or result["failed"]:
        raise SystemExit(f"bench: {workload} (trace {trace}) failed:\n" + "\n".join(result["log"]))
    return result["metrics"]


def spread(values: list[float]) -> dict:
    """Median and quartiles of a sample, with the sample itself."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def timings(workloads: list[str], seconds: float) -> dict:
    samples = {w: {m: [] for m in END_TO_END} for w in workloads}
    for _ in range(RUNS):
        for workload in workloads:
            metrics = benchmark_run(workload, seconds, trace=False)
            for name in END_TO_END:
                samples[workload][name].append(metrics[name]["value"])
    return {w: {m: spread(v) for m, v in by_metric.items()} for w, by_metric in samples.items()}


def traced_counters(workload: str) -> dict:
    metrics = benchmark_run(workload, 0, trace=True)
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in COUNTER_UNITS}


def oracle_case_calls() -> list[dict]:
    """Residual calls of the solve and of grid_oracle in each oracle case,
    from the parents of the residual spans of one traced round."""
    import tracing
    import workloads

    workload = workloads.build("oracle", SEED, ROOT / ".perfbench_work")  # writes no files
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run_round()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    calls = {}
    for span in spans:
        if span.name == "optimizer.residual":
            calls[span.parent] = calls.get(span.parent, 0) + 1
    solves = [i for i, s in enumerate(spans) if s.name == "optimizer.solve"]
    oracles = [i for i, s in enumerate(spans) if s.name == "optimizer.grid_oracle"]
    return [
        {"mode": mode.value, "K": stages, "solve": calls.get(s, 0), "grid_oracle": calls.get(o, 0)}
        for (mode, stages), s, o in zip(workloads.ORACLE_CASES, solves, oracles, strict=True)
    ]


def study_rows() -> list[dict]:
    """Stop, iterations and residual calls of each optimized row of the
    default study."""
    from pachain.experiments import ExperimentConfig, run_cases

    record = run_cases(ExperimentConfig())
    return [
        {"K": k, "case": case, "stop": result.stop, "iterations": result.iterations,
         "calls": result.evaluations + result.jacobian_evaluations}
        for (k, case), result in record.optimization_results.items()
    ]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    # Timed first: a child's peak_rss_mb starts from this process's peak at
    # the fork (Linux keeps it across exec), so nothing large is loaded yet.
    timed = timings(names, seconds)
    import numpy as np

    point = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "counters": {
            "traced": {w: traced_counters(w) for w in names},
            "oracle_cases": oracle_case_calls(),
            "default_study": study_rows(),
        },
        "timings": {"runs": RUNS, "seconds": seconds, **timed},
    }
    args.path.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
