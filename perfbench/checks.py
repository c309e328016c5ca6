"""Correctness checks, computed apart from the program and run untimed.

The reference cascade below is plain numpy and does not import
``pachain.cascade``; it recomputes every reported objective and NMSE at the
returned parameters.  The other checks are properties the method must have
on every seed: parameters inside their box, objectives ordered by nested
feasible sets, Parseval for the PSD, and manifest digests that match the
written files.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from pachain import signals
from pachain.experiments import RRC_SPAN_SYMBOLS, ExperimentConfig, RunRecord
from pachain.optimizer import Mode

# Agreement of the program's arithmetic with the reference's; the two order
# their floating-point operations differently.
REL_TOL = 1e-9
# Nested feasible sets order the optimal objectives exactly, but each solve
# starts 0.1% of the box width inside the box and may stop early, so a
# larger set may end this much (relative) above a smaller one.
NESTED_TIE = 1e-3
# Welch's integrated density against the time-domain mean power.  Averaging
# Hann-windowed segments makes these differ by the signal's power drift
# across segments, a few tenths of a percent at these lengths.
PARSEVAL_TOL = 0.02
POWER_BOX = (1e-6, 1.0)

CASE_MODES = {
    "power_s1": Mode.POWER_ONLY,
    "power_s2": Mode.POWER_ONLY,
    "equal_gains": Mode.EQUAL_GAINS,
    "unequal_gains": Mode.UNEQUAL_GAINS,
    "joint_equal": Mode.JOINT_EQUAL_GAINS,
    "joint_unequal": Mode.JOINT_UNEQUAL_GAINS,
}


def reference_cascade(x0, alpha, gains, sigma, noise_rows):
    """y <- g_k * (u + alpha*u*|u|^2) with u = y + sigma*w_k, for each stage."""
    y = np.asarray(x0, dtype=complex)
    for k, gain in enumerate(gains):
        u = y + sigma * noise_rows[k]
        y = gain * (u + alpha * u * (u.real * u.real + u.imag * u.imag))
    return y


def scenario2_gain(alpha: complex) -> float:
    """x_max / |f(x_max)| with x_max = 1/sqrt(3|alpha|), from the model."""
    x_max = 1.0 / math.sqrt(3.0 * abs(alpha))
    return x_max / abs(x_max * (1.0 + alpha * x_max * x_max))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Reference:
    """Excitation, noise streams and reference cascade for one configuration."""

    def __init__(self, config: ExperimentConfig, stages: int) -> None:
        self.config = config
        self.x = signals.unit_excitation(
            config.symbols, config.oversampling, config.rolloff,
            RRC_SPAN_SYMBOLS, config.seed,
        ).samples
        # Row k of a draw does not depend on how many rows are drawn, so one
        # draw per stream serves every K.
        self.opt_noise = signals.draw_noise(stages, len(self.x), config.seed + 1).stage_noise
        self.eval_noise = signals.draw_noise(stages, len(self.x), config.seed + 2).stage_noise
        self.desired = config.G * self.x

    def output(self, p0: float, gains, noise) -> np.ndarray:
        return reference_cascade(
            math.sqrt(p0) * self.x, self.config.alpha, gains, self.config.sigma, noise
        )

    def objective(self, p0: float, gains, noise=None) -> float:
        r = self.desired - self.output(p0, gains, self.opt_noise if noise is None else noise)
        return float(np.sum(r.real * r.real + r.imag * r.imag))

    def nmse_db(self, p0: float, gains) -> float:
        num = self.objective(p0, gains, self.eval_noise)
        den = float(np.sum(np.abs(self.desired) ** 2))
        return -math.inf if num == 0.0 else 10.0 * math.log10(num / den)


def _box(mode: Mode, dim: int, config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    g_lo, g_hi = (1 - config.epsilon) * config.G, (1 + config.epsilon) * config.G
    if mode is Mode.POWER_ONLY:
        return np.array([POWER_BOX[0]]), np.array([POWER_BOX[1]])
    if mode in (Mode.EQUAL_GAINS, Mode.UNEQUAL_GAINS):
        return np.full(dim, g_lo), np.full(dim, g_hi)
    return (
        np.concatenate([[POWER_BOX[0]], np.full(dim - 1, g_lo)]),
        np.concatenate([[POWER_BOX[1]], np.full(dim - 1, g_hi)]),
    )


def check_in_box(label: str, mode: Mode, theta, config: ExperimentConfig) -> list[str]:
    theta = np.asarray(theta, dtype=float)
    lo, hi = _box(mode, theta.size, config)
    if np.all(theta >= lo) and np.all(theta <= hi):
        return []
    return [f"{label}: parameters {theta.tolist()} outside the box"]


def _scenario_gains(config: ExperimentConfig, case: str, stages: int) -> np.ndarray:
    gain = 1.0 if case == "scenario1" else scenario2_gain(config.alpha)
    return np.full(stages, gain)


def check_record(record: RunRecord, ref: Reference) -> list[str]:
    """Objectives, NMSE, boxes, nested ordering and Parseval of one sweep."""
    config = record.config
    problems: list[str] = []

    rows = []  # (label, p0, gains, MetricsReport)
    for (stages, case), metrics in record.scenario_metrics.items():
        rows.append((f"K{stages} {case}", 1.0, _scenario_gains(config, case, stages), metrics))

    objectives = {}
    for key, result in record.optimization_results.items():
        stages, case = key
        label = f"K{stages} {case}"
        p0, gains = record.optimized_parameters[key]
        problems += check_in_box(label, CASE_MODES[case], result.parameters, config)
        expected = ref.objective(p0, gains)
        if not _close(result.objective, expected):
            problems.append(
                f"{label}: objective {result.objective!r} != reference {expected!r}"
            )
        objectives[key] = result.objective
        rows.append((label, p0, gains, record.optimization_metrics[key]))

    for label, p0, gains, metrics in rows:
        expected = ref.nmse_db(p0, gains)
        if not _close(metrics.nmse_db, expected):
            problems.append(f"{label}: NMSE {metrics.nmse_db!r} dB != reference {expected!r}")
        mean_power = float(np.mean(np.abs(ref.output(p0, gains, ref.eval_noise)) ** 2))
        if abs(metrics.psd.total_power / mean_power - 1.0) > PARSEVAL_TOL:
            problems.append(
                f"{label}: integrated PSD {metrics.psd.total_power!r} vs mean power "
                f"{mean_power!r} beyond {PARSEVAL_TOL:.0%}"
            )

    for stages in config.K_range:
        obj = {case: objectives.get((stages, case)) for case in CASE_MODES}
        if None in obj.values():
            continue
        orderings = (
            ("joint_unequal", "joint_equal", obj["joint_equal"]),
            ("joint_equal", "min(equal_gains, power_s1)",
             min(obj["equal_gains"], obj["power_s1"])),
            ("unequal_gains", "equal_gains", obj["equal_gains"]),
        )
        for larger, smaller, bound in orderings:
            if obj[larger] > bound * (1.0 + NESTED_TIE):
                problems.append(
                    f"K{stages}: {larger} objective {obj[larger]!r} above "
                    f"{smaller} {bound!r} beyond the {NESTED_TIE:g} tie"
                )
    return problems


def check_emitted(record: RunRecord, written: list[Path]) -> list[str]:
    """Manifest digests recomputed from the files, and the NMSE column."""
    problems: list[str] = []
    out = record.config.output_dir
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = manifest["files"]
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if sorted(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {on_disk}")
    if sorted(p.name for p in written) != sorted(list(listed) + ["manifest.json"]):
        problems.append("emit_outputs returned paths other than the manifest's files")
    for name, digest in listed.items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{name}: sha256 {actual} != manifest {digest}")

    reported = {**record.scenario_metrics, **record.optimization_metrics}
    lines = (out / "metrics_vs_K.csv").read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        key = (int(fields[0]), fields[1]) if len(fields) == 4 and fields[0].isdigit() else None
        if key not in reported:
            problems.append(f"metrics_vs_K.csv: unexpected row {line!r}")
        elif float(fields[2]) != reported[key].nmse_db:
            problems.append(f"metrics_vs_K.csv: {line!r} NMSE differs from the record")
    if len(lines) != len(reported):
        problems.append(f"metrics_vs_K.csv has {len(lines)} rows for {len(reported)} cases")
    return problems


def check_oracle_case(case, ref: Reference, config: ExperimentConfig, resolution: int) -> list[str]:
    """Solver and oracle objectives against the reference, and the grid point."""
    label = f"{case.mode.value} K{case.stages}"
    problems = check_in_box(label, case.mode, case.result.parameters, config)
    problems += check_in_box(f"{label} oracle", case.mode, case.oracle_theta, config)

    def objective(theta) -> float:
        theta = np.asarray(theta, dtype=float)
        k = case.stages
        if case.mode is Mode.POWER_ONLY:
            return ref.objective(theta[0], np.ones(k))
        if case.mode is Mode.EQUAL_GAINS:
            return ref.objective(1.0, np.full(k, theta[0]))
        if case.mode is Mode.UNEQUAL_GAINS:
            return ref.objective(1.0, theta)
        return ref.objective(theta[0], np.full(k, theta[1]))

    for who, theta, value in (
        ("solver", case.result.parameters, case.result.objective),
        ("oracle", case.oracle_theta, case.oracle_objective),
    ):
        expected = objective(theta)
        if not _close(value, expected):
            problems.append(f"{label}: {who} objective {value!r} != reference {expected!r}")

    lo, hi = _box(case.mode, len(case.oracle_theta), config)
    for i, value in enumerate(case.oracle_theta):
        axis = np.linspace(lo[i], hi[i], resolution)
        if not np.any(axis == value):
            problems.append(f"{label}: oracle coordinate {value!r} is not a grid point")
    return problems


def check_excitation(ref: Reference, config: ExperimentConfig) -> list[str]:
    """The inputs the checks share: unit peak and the configured length."""
    problems = []
    if len(ref.x) != config.symbols * config.oversampling:
        problems.append(f"excitation has {len(ref.x)} samples")
    if not _close(float(np.max(np.abs(ref.x))), 1.0):
        problems.append("excitation peak is not 1")
    return problems
