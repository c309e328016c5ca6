"""Run the tier-1 tests against each mutant of a catalog; write which tests kill it.

A mutant is a named (file, old text, new text) triple, a small fault seeded
into one copy of the program (mutation analysis: DeMillo, Lipton & Sayward
1978, IEEE Computer 11(4); Jia & Harman 2011, IEEE TSE 37(5)).  For each
mutant of MUTANTS, in order, the script copies the checkout to a temporary
directory, replaces the old text with the new there, runs the tier-1 tests
in the copy without -x, and records the id of every test that fails or
errors.  PATH receives a JSON object that maps each mutant's name to its
sorted test ids, keys sorted.  A mutant whose list is empty survives: no
test sees it.  The script exits 1, before any run, unless each old text
occurs exactly once in its file.

Each mutant costs one tier-1 run (about 15 s on 2 cores), so the tool stays
out of tier-1; tests/test_mutants.py checks only that the catalog applies.

    python tools/mutants.py PATH
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 but the catalog's own check, which each mutant fails by changing its old text.
TIER1 = ["-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", "tests/test_mutants.py"]
_LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_work", "runs",
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


OPT, CAS, SIG, MET, EXP = (f"src/pachain/{name}.py" for name in (
    "optimizer", "cascade", "signals", "metrics", "experiments"))

MUTANTS = (
    # The solver and the grid oracle.
    Mutant("decrease-tolerance-1e-3", OPT,
           "DECREASE_TOLERANCE = 3e-15", "DECREASE_TOLERANCE = 1e-3"),
    Mutant("no-damped-step-hold", OPT,
           "held = pinned | (on_bound & (np.clip(theta + step, lo, hi) == theta))", "held = pinned"),
    Mutant("rescore-a-repeated-trial", OPT, "if trial.tobytes() != rejected:", "if True:"),
    Mutant("criticality-drops-the-factor-two", OPT,
           "np.clip(theta - 2.0 * gradient, lo, hi)", "np.clip(theta - gradient, lo, hi)"),
    Mutant("row-degree-one-low", OPT,
           "return tuple(degrees)", "return (*degrees[:-1], degrees[-1] - 1)"),
    Mutant("first-axis-degree-one-low", OPT,
           "return tuple(degrees)", "return (degrees[0] - 1, *degrees[1:])"),
    Mutant("first-axis-degree-one-high", OPT,
           "return tuple(degrees)", "return (degrees[0] + 1, *degrees[1:])"),
    Mutant("no-half-row-rule", OPT,
           "if 2 * np.prod([d + 1 for d in degrees]) > resolution or not", "if not"),
    Mutant("no-whole-row-for-a-non-finite-prediction", OPT,
           "(predicted <= cut) | (not np.all(np.isfinite(predicted)))", "predicted <= cut"),
    # The cascade kernel and its closed forms.
    Mutant("scenario2-gain-times-1.05", CAS,
           "return xm / abs(pa_nonlinearity(xm, alpha))",
           "return 1.05 * xm / abs(pa_nonlinearity(xm, alpha))"),
    Mutant("kernel-noise-doubled", CAS,
           "np.multiply(sigma, stage_noise[k, block], out=noisy)",
           "np.multiply(2.0 * sigma, stage_noise[k, block], out=noisy)"),
    Mutant("kernel-alpha-conjugated", CAS,
           "np.multiply(alphas[k], x, out=ax)", "np.multiply(np.conj(alphas[k]), x, out=ax)"),
    Mutant("tangent-drops-the-factor-two", CAS,
           "np.multiply(2.0 * g * alphas[k], x_sq, out=ga)", "np.multiply(g * alphas[k], x_sq, out=ga)"),
    Mutant("overdrive-threshold-doubled", CAS,
           "> x_max(alpha) ** 2", "> 2 * x_max(alpha) ** 2"),
    Mutant("forward-skips-the-noise-check", CAS,
           "    check_noise(config, noise, len(x0))\n", ""),
    Mutant("equivalent-sigma-unsquared-gain", CAS, "suffix *= g**2", "suffix *= g"),
    Mutant("equivalent-alpha-unsquared-prefix", CAS,
           "prefix *= stage.gain**2", "prefix *= stage.gain"),
    Mutant("a-bool-is-a-number", CAS,
           "if isinstance(value, bool) or not isinstance(value, types):",
           "if not isinstance(value, types):"),
    # Excitation and noise.
    Mutant("rrc-square-by-multiply", SIG,
           "np.float_power(4 * b * t, 2.0)", "(4 * b * t) ** 2"),
    Mutant("pulse-shape-skips-its-length-check", SIG,
           "if len(symbols) * oversampling < len(taps):", "if False:"),
    Mutant("qam-level-3-becomes-2", SIG,
           "np.array([-3, -1, 1, 3], dtype=float)", "np.array([-3, -1, 1, 2], dtype=float)"),
    Mutant("noise-at-half-variance", SIG,
           "np.sqrt(0.5), out=block)", "np.sqrt(0.25), out=block)"),
    # Metrics.
    Mutant("nmse-unnormalized", MET,
           "denom = float(np.sum(np.square(power, out=power)))", "denom = float(len(d))"),
    Mutant("aclr-adds-both-adjacent-channels", MET,
           "worst = max(upper, lower)", "worst = upper + lower"),
    # The study, its configuration, emission and the CLI.
    Mutant("default-alpha-one-ulp", EXP,
           "alpha: complex = -0.33 * (1 - 0.1j)",
           "alpha: complex = -0.33 * (1 - 0.1j) + 5.551115123125783e-17"),
    Mutant("drive-law-0.34", EXP, "DRIVE_LAW = 0.3\n", "DRIVE_LAW = 0.34\n"),
    Mutant("optimization-noise-on-the-evaluation-seed", EXP,
           "draw_noise(stages, length, config.seed + 1)", "draw_noise(stages, length, config.seed + 2)"),
    Mutant("evaluation-row-kept-alive", EXP, "del row  #", "pass  #"),
    Mutant("config-skips-the-pulse-span-check", EXP,
           "if self.symbols <= RRC_SPAN_SYMBOLS:", "if False:"),
    Mutant("power-table-three-decimals", EXP, "{p0:.2f}", "{p0:.3f}"),
    Mutant("stalled-solve-exits-zero", "src/pachain/cli.py",
           "return EXIT_SOLVER if record.solver_failures() else EXIT_OK", "return EXIT_OK"),
)


def mutated(mutant: Mutant, root: Path) -> str:
    """The text of the mutant's file under root with the mutant applied."""
    text = (root / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutants: {mutant.name}: old text found {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def killers(mutant: Mutant) -> list[str]:
    """The sorted ids of the tests that fail or error on a copy with the mutant."""
    with tempfile.TemporaryDirectory() as directory:
        copy = Path(directory) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_LEFT_OUT)
        (copy / mutant.file).write_text(mutated(mutant, ROOT), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=copy, capture_output=True, text=True, timeout=1800,
            env={**os.environ, "PYTHONPATH": "src"},
        )
    # Short summary lines: "FAILED <id> - <message>" or "ERROR <id> - <message>".
    ids = sorted({
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    })
    # Exit 1 means some test failed; anything but 0 or 1 means the run did not finish.
    if done.returncode not in (0, 1) or (done.returncode == 1) != bool(ids):
        raise SystemExit(f"mutants: {mutant.name}: tier-1 exited {done.returncode}\n{done.stdout}")
    return ids


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__.rsplit("\n\n", 1)[1].strip())
    for mutant in MUTANTS:
        mutated(mutant, ROOT)
    table = {}
    for mutant in MUTANTS:
        table[mutant.name] = killers(mutant)
        print(f"{mutant.name}: {len(table[mutant.name])} killing tests", file=sys.stderr)
    Path(argv[1]).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
