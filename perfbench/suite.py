"""Run every workload, each in a fresh process, or check that runs are steady.

    python3 perfbench/suite.py [--seed 42] [--seconds 20] [--trace]
    python3 perfbench/suite.py --steady 5 [--seed 42] [--seconds 20]

The first form runs ``study``, ``simulate`` and ``oracle`` one after another
through ``run.py`` and prints each end-to-end metric by name and unit, with
the operations attempted and failed; ``--trace`` adds one traced run of each.

The second form runs each workload in two sets of N untraced runs, on seeds
seed..seed+N-1 and seed+N..seed+2N-1, plus one traced run at ``--seed`` per
set.  For each end-to-end metric it reports each set's median and spread
(quartile distance over median, from ``statistics.quantiles``), the spread
over all 2N runs, and the drift of the second median from the first, against
the bounds in ``BENCHMARK.json``.  It also checks that the failed share is
the same in every run and that the traced counters are identical in the two
sets.  It exits 1 if any of that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "simulate", "oracle")
# Counters that must repeat exactly between two traced runs of one seed.
COUNTERS = (
    "cascade.kernel_calls",
    "optimizer.residual_evals",
    "optimizer.iterations",
    "optimizer.accepted_steps",
    "optimizer.oracle_points",
)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of run.py in a fresh process; returns its JSON result."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py --workload {workload} --seed {seed} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True) if trace else (False,):
            result = run(workload, seed, seconds, traced)
            print("\n".join(result["log"]) + "\n", flush=True)
            ok = ok and result["correct"]
    return 0 if ok else 1


def steady(runs: int, seed: int, seconds: float) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in WORKLOADS:
        sets, counters, shares = [], [], set()
        for first_seed in (seed, seed + runs):
            results = [run(workload, s, seconds, False) for s in range(first_seed, first_seed + runs)]
            sets.append(results)
            shares.update(Fraction(r["failed"], r["attempted"]) for r in results)
            traced = run(workload, seed, seconds, True)
            counters.append({name: traced["metrics"][name]["value"] for name in COUNTERS})
            ok = ok and traced["correct"] and all(r["correct"] for r in results)
        print(f"{workload}: {2 * runs} runs on seeds {seed}..{seed + 2 * runs - 1}", flush=True)
        for name, bound in bounds.items():
            a, b = ([r["metrics"][name]["value"] for r in results] for results in sets)
            drift = statistics.median(b) / statistics.median(a) - 1.0
            whole = spread(a + b)
            steady_enough = drift <= bound and (name == "setup_s" or whole <= bound)
            ok = ok and steady_enough
            print(f"  {name:12s} median {statistics.median(a):.4g} / {statistics.median(b):.4g}  "
                  f"spread {spread(a):.3f} / {spread(b):.3f}, all {whole:.3f}  "
                  f"drift {drift:+.3f}  bound {bound}  "
                  f"{'ok' if steady_enough else 'NOT STEADY'}"
                  f"{'' if whole < bound / 3 else '  (spread above a third of the bound)'}")
            print(f"    values {' '.join(f'{v:.4g}' for v in a + b)}")
        same_counters = counters[0] == counters[1]
        ok = ok and same_counters and len(shares) == 1
        print(f"  failed share {sorted(str(f) for f in shares)}  {'ok' if len(shares) == 1 else 'DIFFERS'}")
        print(f"  counters {counters[0]}  {'identical' if same_counters else f'DIFFER: {counters[1]}'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--steady", type=int, metavar="N", help="two sets of N runs per workload")
    args = parser.parse_args()
    if args.steady:
        return steady(args.steady, args.seed, args.seconds)
    return run_all(args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
