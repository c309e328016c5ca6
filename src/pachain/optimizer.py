"""Box-constrained nonlinear least squares over drive power and stage gains.

The objective is ||G*x_unit - y_K(theta)||^2 where y_K is the cascade output
at drive p0 with the stage gains taken from theta (or held fixed, depending
on the mode).  Normalizing the desired signal by 1/sqrt(p0) cancels the p0
dependence of the reference, so the desired side is simply G times the
unit-drive excitation.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) iteration with
projection of trial points onto the box.  Its Jacobian is exact: the residual
carries the derivatives with respect to the at most K+1 parameters through
the same cascade pass that computes it (forward-mode tangents in
cascade_samples).  The tangents are paid for only where the solver needs
them: the first trial of each iteration, which the damping schedule rejects
about half the time, is scored on its residual alone, and its tangents are
computed only if it is accepted; a retry after a rejection carries them from
the start.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cascade import (
    CascadeConfig,
    CascadeWorkspace,
    cascade_samples,
    check_noise,
    scenario2_gain,
)
from .signals import NoiseRealization, Signal

POWER_LOWER_BOUND = 1e-6  # open interval 0 < p0 is not machine-representable
POWER_BOUNDS = (POWER_LOWER_BOUND, 1.0)
LAMBDA_LIMIT = 1e12
START_MARGIN = 1e-3  # fraction of the box width the start is pushed inside
MAX_ITERATIONS = 200
GRADIENT_TOLERANCE = 1e-8  # of the projected gradient, relative to its start
STEP_TOLERANCE = 1e-10


class UnsupportedModeError(ValueError):
    """The requested operation does not support this optimization mode."""


class InvalidStartError(ValueError):
    """The objective is not finite at the starting point."""


class Mode(enum.Enum):
    POWER_ONLY = "power"
    EQUAL_GAINS = "equal-gains"
    UNEQUAL_GAINS = "unequal-gains"
    JOINT_EQUAL_GAINS = "joint-equal"
    JOINT_UNEQUAL_GAINS = "joint-unequal"


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    STALLED_AT_BOUND = "StalledAtBound"


class Scenario(enum.Enum):
    ONE = 1
    TWO = 2


class GainLayout(enum.Enum):
    FIXED = "fixed"  # taken from the config
    SHARED = "shared"  # one free gain for every stage
    PER_STAGE = "per-stage"  # one free gain per stage


@dataclass(frozen=True)
class ModeLayout:
    """Which of (p0, gains) a mode frees; its vector is [p0?, gains...]."""

    free_power: bool
    gains: GainLayout

    def gain_count(self, stage_count: int) -> int:
        return {
            GainLayout.FIXED: 0,
            GainLayout.SHARED: 1,
            GainLayout.PER_STAGE: stage_count,
        }[self.gains]

    def gain_rows(self, stage_count: int) -> list[int | None]:
        """Per stage, the vector index of the parameter its gain equals."""
        first = int(self.free_power)
        return {
            GainLayout.FIXED: [None] * stage_count,
            GainLayout.SHARED: [first] * stage_count,
            GainLayout.PER_STAGE: list(range(first, first + stage_count)),
        }[self.gains]

    def reduce(self, p0: float, gains: np.ndarray) -> np.ndarray:
        """The mode's vector taken from a full (p0, per-stage gains) point."""
        return np.concatenate(
            [[p0][: int(self.free_power)], gains[: self.gain_count(len(gains))]]
        )

    def expand(
        self, theta: np.ndarray, p0: float, gains: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The full (p0, per-stage gains) point of the mode's vector theta.

        The inverse of reduce: what the mode does not free is the given p0
        or gains (returned as they are), and theta must have the mode's
        dimension over len(gains) stages.
        """
        if self.free_power:
            p0 = float(theta[0])
        free_gains = theta[int(self.free_power):]
        if self.gains is GainLayout.FIXED:
            return p0, gains
        if self.gains is GainLayout.SHARED:
            return p0, np.full(len(gains), free_gains[0])
        return p0, free_gains.copy()


MODE_LAYOUTS = {
    Mode.POWER_ONLY: ModeLayout(True, GainLayout.FIXED),
    Mode.EQUAL_GAINS: ModeLayout(False, GainLayout.SHARED),
    Mode.UNEQUAL_GAINS: ModeLayout(False, GainLayout.PER_STAGE),
    Mode.JOINT_EQUAL_GAINS: ModeLayout(True, GainLayout.SHARED),
    Mode.JOINT_UNEQUAL_GAINS: ModeLayout(True, GainLayout.PER_STAGE),
}


def mode_dimension(mode: Mode, stage_count: int) -> int:
    """Number of free parameters for a mode over a K-stage cascade."""
    layout = MODE_LAYOUTS[mode]
    return int(layout.free_power) + layout.gain_count(stage_count)


def mode_bounds(
    mode: Mode, stage_count: int, gain_bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper box corners of a mode's parameter vector.

    The drive spans POWER_BOUNDS and every gain spans gain_bounds.
    """
    layout = MODE_LAYOUTS[mode]
    return (
        layout.reduce(POWER_BOUNDS[0], np.full(stage_count, gain_bounds[0])),
        layout.reduce(POWER_BOUNDS[1], np.full(stage_count, gain_bounds[1])),
    )


def expand_parameters(
    theta: np.ndarray, mode: Mode, config: CascadeConfig
) -> tuple[float, np.ndarray]:
    """Map a parameter vector to (p0, per-stage gains).

    Values not covered by the mode come from the config: gains for
    power-only, drive power for the gains-only modes.
    """
    stage_count = config.stage_count
    theta = _checked(theta, mode, stage_count, mode_dimension(mode, stage_count))
    return MODE_LAYOUTS[mode].expand(theta, config.input_power, config.gains)


def _checked(theta, mode: Mode, stage_count: int, dimension: int) -> np.ndarray:
    """theta as a float vector, if it has the mode's dimension."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dimension,):
        raise ValueError(
            f"mode {mode.value} over {stage_count} stages takes "
            f"{dimension} parameters, got shape {theta.shape}"
        )
    return theta


def scenario_start(
    scenario: Scenario,
    stage_count: int,
    alpha: complex,
    mode: Mode | None = None,
) -> np.ndarray:
    """Starting point from one of the two bracketing configurations.

    Scenario ONE: unit gains (amplification just covers connector losses).
    Scenario TWO: every stage at the maximum-drive gain scenario2_gain(alpha),
    or unit gains for a linear chain (alpha = 0), where there is no
    compression for extra amplification to compensate.  Both start at full
    drive p0 = 1.  With a mode given, the full (p0, gains) start is reduced
    to that mode's parameter vector.
    """
    if stage_count < 1:
        raise ValueError(f"stage_count must be >= 1, got {stage_count}")
    if scenario is Scenario.ONE or alpha == 0:
        gains = np.ones(stage_count)
    else:
        gains = np.full(stage_count, scenario2_gain(alpha))
    if mode is None:
        return np.concatenate([[1.0], gains])
    return MODE_LAYOUTS[mode].reduce(1.0, gains)


@dataclass(frozen=True)
class OptimizationSpec:
    """What to solve: mode, start, and the gain window of the box."""

    mode: Mode
    stage_count: int
    start: np.ndarray
    gain_bounds: tuple[float, float]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return mode_bounds(self.mode, self.stage_count, self.gain_bounds)


@dataclass(frozen=True)
class OptimizationResult:
    parameters: np.ndarray
    objective: float
    objective_history: np.ndarray
    status: SolveStatus
    iterations: int
    evaluations: int  # residual calls without tangents
    jacobian_evaluations: int  # residual calls with tangents


def build_residual(
    x0_unit: Signal,
    config: CascadeConfig,
    noise: NoiseRealization | None,
    mode: Mode,
) -> Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Residual of the desired output against the cascade output.

    Returns a function theta -> the 2N real values of G*x_unit - y_K(theta),
    the float view of the complex residual (real and imaginary parts
    interleaved).  Called with ``jacobian=True`` it returns the pair
    (residual, J), with J the exact (2N, dim) Jacobian in the same layout,
    from the same cascade pass.  The noise realization is frozen into the
    closure so the objective is deterministic.  The closure keeps its
    kernel workspace and its drive, output and tangent arrays across calls,
    so it is not reentrant; the arrays it returns are its caller's.
    """
    check_noise(config, noise, len(x0_unit))
    x = x0_unit.samples
    desired = config.reference_gain * x
    alphas = config.alphas
    sigma = config.sigma
    stage_noise = noise.stage_noise if noise is not None else None
    stage_count = config.stage_count
    layout = MODE_LAYOUTS[mode]
    dim = mode_dimension(mode, stage_count)
    gain_rows = layout.gain_rows(stage_count)
    # What the mode holds fixed, read from the config once.
    input_power = config.input_power
    fixed_gains = config.gains
    # Working arrays of every call, made once; what a call returns is fresh.
    work = CascadeWorkspace()
    x_drive = np.empty_like(x)
    y = np.empty_like(x)
    dy = np.empty((dim, len(x)), dtype=complex)

    def residual(theta: np.ndarray, jacobian: bool = False):
        theta = _checked(theta, mode, stage_count, dim)
        p0, gains = layout.expand(theta, input_power, fixed_gains)
        np.multiply(np.sqrt(p0), x, out=x_drive)
        if not jacobian:
            cascade_samples(x_drive, alphas, gains, sigma, stage_noise, None, work, y)
            return (desired - y).view(float)
        dy.fill(0.0)
        if layout.free_power:
            np.divide(x_drive, 2.0 * p0, out=dy[0])
        cascade_samples(x_drive, alphas, gains, sigma, stage_noise, (dy, gain_rows), work, y)
        # d(desired - y) = -dy
        return (desired - y).view(float), np.negative(dy).view(float).T

    return residual


def _project_start(start: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    margin = START_MARGIN * (hi - lo)
    return np.clip(np.asarray(start, dtype=float), lo + margin, hi - margin)


def solve(
    spec: OptimizationSpec,
    residual: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]],
) -> OptimizationResult:
    """Projected Levenberg-Marquardt descent over the spec's box.

    ``residual(theta)`` must return the residual vector, and
    ``residual(theta, jacobian=True)`` the same vector and its exact Jacobian
    (one row per residual entry), as build_residual's closure does; a
    Jacobian is reduced at once to the normal matrix J^T J and the gradient
    J^T r.  The start is moved START_MARGIN of the box width inside the box.
    Trial steps are clipped to the box and accepted only on strict objective
    decrease; damping is multiplied by 10 on rejection and divided by 10 on
    acceptance.  The Jacobian is taken at the start, at every accepted point
    and at every retry after a rejection; the first trial of an iteration is
    scored on its residual alone and linearized only if it is accepted.  The
    result counts both kinds of call.  Terminates when the
    projected gradient is at most GRADIENT_TOLERANCE times its starting
    magnitude, when the clipped step is at most STEP_TOLERANCE, or after
    MAX_ITERATIONS.
    """
    lo, hi = spec.bounds()
    if spec.start.size != lo.size:
        raise InvalidStartError(
            f"start has {spec.start.size} parameters, mode {spec.mode.value} "
            f"over {spec.stage_count} stages needs {lo.size}"
        )
    calls = [0, 0]  # without, with tangents

    def evaluate(point: np.ndarray, jacobian: bool):
        """(objective, J^T J, J^T r), the last two None without the Jacobian."""
        calls[jacobian] += 1
        if not jacobian:
            r = residual(point)
            return float(r @ r), None, None
        r, jac = residual(point, jacobian=True)
        return float(r @ r), jac.T @ jac, jac.T @ r

    theta = _project_start(spec.start, lo, hi)
    objective, normal, gradient = evaluate(theta, True)
    if not np.isfinite(objective):
        raise InvalidStartError(f"objective is {objective} at start {theta}")
    history = [objective]
    lam = 1e-3
    status = SolveStatus.MAX_ITERATIONS
    gradient_floor = GRADIENT_TOLERANCE * max(float(np.max(np.abs(gradient))), 1.0)
    iterations = 0

    for _ in range(MAX_ITERATIONS):
        iterations += 1
        # Zero out components that point outside the box at active bounds.
        projected = np.where(
            theta <= lo, np.minimum(gradient, 0.0),
            np.where(theta >= hi, np.maximum(gradient, 0.0), gradient),
        )
        if float(np.max(np.abs(projected))) <= gradient_floor:
            status = SolveStatus.CONVERGED
            break

        damping_scale = np.diag(normal).copy()
        damping_scale[damping_scale == 0.0] = 1.0
        accepted = False
        retry = False
        while lam <= LAMBDA_LIMIT:
            step = np.linalg.solve(normal + lam * np.diag(damping_scale), -gradient)
            trial = np.clip(theta + step, lo, hi)
            if float(np.max(np.abs(trial - theta))) <= STEP_TOLERANCE:
                status = SolveStatus.CONVERGED
                break
            trial_objective, trial_normal, trial_gradient = evaluate(trial, retry)
            if trial_objective < objective:
                if trial_normal is None:
                    _, trial_normal, trial_gradient = evaluate(trial, True)
                theta, objective = trial, trial_objective
                normal, gradient = trial_normal, trial_gradient
                history.append(objective)
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
            retry = True
        if not accepted:
            if status is not SolveStatus.CONVERGED:
                status = SolveStatus.STALLED_AT_BOUND
            break

    return OptimizationResult(
        parameters=theta,
        objective=objective,
        objective_history=np.array(history),
        status=status,
        iterations=iterations,
        evaluations=calls[False],
        jacobian_evaluations=calls[True],
    )


def grid_oracle(
    x0_unit: Signal,
    config: CascadeConfig,
    noise: NoiseRealization | None,
    mode: Mode,
    resolution: int,
) -> tuple[np.ndarray, float]:
    """Brute-force verification oracle for the 1- and 2-parameter modes.

    Scores every point of a uniform grid over the mode's box (drive in
    POWER_BOUNDS, gains in the config's gain window) with the
    solver's own objective ``r @ r`` from build_residual, and returns the
    first minimum in row-major order together with its objective.
    """
    dim = mode_dimension(mode, config.stage_count)
    if dim > 2:
        raise UnsupportedModeError(
            f"grid oracle covers at most 2 parameters; mode {mode.value} over "
            f"{config.stage_count} stages has {dim}"
        )
    if resolution < 50:
        raise ValueError(f"resolution must be >= 50 per axis, got {resolution}")

    residual = build_residual(x0_unit, config, noise, mode)
    lo, hi = mode_bounds(mode, config.stage_count, config.gain_bounds)
    axes = [np.linspace(a, b, resolution) for a, b in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    values = np.empty(len(points))
    for i, theta in enumerate(points):
        r = residual(theta)
        values[i] = r @ r
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
