"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study|simulate|oracle \
        [--seed 42] [--seconds 20] [--trace 0|1]

The benchmark works in the checkout that holds it: it imports ``pachain``
from ``src/`` and writes under ``.perfbench_work/``.  With ``--trace 0`` it
reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of the time from process start
  until ``pachain`` is imported and the workload is configured;
- ``wall_s``: median time of one round of the workload;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs untraced rounds, then traced rounds, and reports
the per-layer metrics of the traced rounds (medians over rounds) and
``trace_overhead_s``.  It fails the run if the traced output tree differs
from the untraced one by a byte.

Rounds repeat until ``--seconds`` have passed; the run checks the first
round's results against the reference in ``checks.py`` after timing, and
that every round produced the same results.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Relative to ROOT, so the manifests (which record the output directory) do
# not depend on where the checkout is.
WORK_DIR = Path(".perfbench_work")
SETUP_PROBES = 5

# A fresh interpreter: import pachain, configure the workload, report when
# done on the system-wide monotonic clock.
_PROBE = """\
import sys, time
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
workloads.build(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
print(time.monotonic())
"""


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(ROOT), workload, str(seed), str(WORK_DIR)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return statistics.median(times)


def tree_digest(path: Path | None) -> dict[str, str]:
    if path is None or not path.is_dir():
        return {}
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def round_signature(result) -> tuple:
    """What must repeat exactly from round to round."""
    if result.record is not None:
        manifest = result.record.config.output_dir / "manifest.json"
        return (result.attempted, tuple(result.failures), manifest.read_bytes())
    return (
        result.attempted,
        tuple(
            (c.result.parameters.tobytes(), c.result.objective, c.oracle_objective)
            for c in result.oracle_cases
        ),
    )


def timed_rounds(workload, seconds: float, tracers: list | None = None):
    """Rounds until ``seconds`` pass; returns walls, the first round, signatures.

    Only the first round's results are kept, so memory does not grow with
    the number of rounds.  With ``tracers`` given, each round runs under a
    fresh installed Tracer, appended to the list.
    """
    import tracing

    walls, signatures, first = [], [], None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        tracer = tracing.Tracer() if tracers is not None else None
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = workload.run_round()
            walls.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
        signatures.append(round_signature(result))
        if first is None:
            first = result
        del result
    return walls, first, signatures


def check_round(workload, result) -> list[str]:
    import checks
    import workloads

    config = workload.config
    stages = max(list(config.K_range) + [k for _, k in workloads.ORACLE_CASES])
    ref = checks.Reference(config, stages)
    problems = checks.check_excitation(ref, config)
    if result.record is not None:
        problems += checks.check_record(result.record, ref)
        problems += checks.check_emitted(result.record, result.written)
    for case in result.oracle_cases:
        problems += checks.check_oracle_case(case, ref, config, workloads.ORACLE_RESOLUTION)
    return problems


def traced_metrics(tracers, first, walls, traced_walls, problems) -> dict[str, float]:
    import tracing

    per_round = [tracing.layer_metrics(t.spans) for t in tracers]
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if isinstance(values[0], int):
            # Counters must repeat exactly; median_low keeps them whole.
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = statistics.median_low(values)
        else:
            metrics[name] = statistics.median(values)
    metrics["optimizer.unconverged_solves"] = first.unconverged
    metrics["optimizer.oracle_gap_cases"] = len(first.oracle_gaps())
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "simulate", "oracle"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pachain" / "__init__.py").is_file():
        print(f"perfbench: no pachain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed, WORK_DIR)
    out_dir = workload.output_dir
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)

    walls, first, signatures = timed_rounds(workload, args.seconds)
    # Read before the checks, which hold reference copies of the signals.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems: list[str] = []
    if args.trace:
        # Emit the traced tree from scratch, then compare it with the untraced one.
        untraced_tree = tree_digest(out_dir)
        if out_dir is not None:
            shutil.rmtree(out_dir)
        tracers: list = []
        traced_walls, _, traced_signatures = timed_rounds(workload, args.seconds, tracers)
        if tree_digest(out_dir) != untraced_tree:
            problems.append("traced output tree differs from the untraced one")
        signatures += traced_signatures
    if any(s != signatures[0] for s in signatures):
        problems.append("rounds did not all produce the same results")
    problems += check_round(workload, first)

    if args.trace:
        metrics = traced_metrics(tracers, first, walls, traced_walls, problems)
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracing.write_spans(spans_path, tracers)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    units = benchmark_units(args.trace)
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} not both measured and listed")

    rounds = len(signatures)
    attempted = first.attempted * rounds
    failed = len(first.failures) * rounds
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"operations per round {first.attempted}")
    print(f"  round walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    if args.trace:
        print(f"  traced round walls (s): {' '.join(f'{w:.3f}' for w in traced_walls)}")
    for failure in first.failures:
        print(f"  failed in every round: {failure}")
    for gap in first.oracle_gaps():
        print(f"  solve above the oracle's 1% margin: {gap}")
    if first.unconverged:
        print(f"  solves not Converged per round: {first.unconverged}")
    if args.trace:
        print(f"  spans written to {spans_path}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    print(f"  attempted {attempted}  failed {failed}  correct {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()
        },
    }))
    return 0


def benchmark_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json lists for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
