"""Box-constrained nonlinear least squares over drive power and stage gains.

The objective is ||G*x_unit - y_K(theta)||^2 where y_K is the cascade output
at drive p0 with the stage gains taken from theta (or held fixed, depending
on the mode).  Normalizing the desired signal by 1/sqrt(p0) cancels the p0
dependence of the reference, so the desired side is simply G times the
unit-drive excitation.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) iteration with
projection of trial points onto the box.  Each damped step is solved on the
free set of projected-Newton methods (Bertsekas 1982): a coordinate on a
bound is held when the gradient or the damped step points out of the box
there.  The damped-step term can hold a coordinate whose gradient points in,
so Converged is no certificate (solve names the one such stop of the default
study).  Its Jacobian is exact: the residual
carries the derivatives with respect to the at most K+1 parameters through
the same cascade pass that computes it (forward-mode tangents in
cascade_samples).  The tangents are paid for only where the solver needs
them: the first trial of each iteration, which the damping schedule rejects
about half the time, is scored on its residual alone, and its tangents are
computed only if it is accepted; a retry after a rejection carries them from
the start.  The residual is reduced only by sum_of_squares and
normal_equations, in einsum's fixed order, never BLAS's thread-dependent one.
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
ROW_FIT_MARGIN = 1e-9  # grid_oracle: of the largest probe of a row


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


# The modes that free the drive p0, which is then entry 0 of theta.
FREE_POWER_MODES = frozenset(
    {Mode.POWER_ONLY, Mode.JOINT_EQUAL_GAINS, Mode.JOINT_UNEQUAL_GAINS}
)


def gain_rows(mode: Mode, stage_count: int) -> list[int | None]:
    """Per stage, the index in theta = [p0?, gains...] of the parameter its
    gain equals, or None where the gain comes from the config."""
    first = int(mode in FREE_POWER_MODES)
    if mode is Mode.POWER_ONLY:
        return [None] * stage_count
    if mode in (Mode.EQUAL_GAINS, Mode.JOINT_EQUAL_GAINS):
        return [first] * stage_count
    return list(range(first, first + stage_count))


def mode_dimension(mode: Mode, stage_count: int) -> int:
    """Number of free parameters for a mode over a K-stage cascade."""
    return int(mode in FREE_POWER_MODES) + len(set(gain_rows(mode, stage_count)) - {None})


def reduce_parameters(mode: Mode, p0: float, gains: np.ndarray) -> np.ndarray:
    """The mode's vector taken from a full (p0, per-stage gains) point."""
    free_power = int(mode in FREE_POWER_MODES)
    free_gains = mode_dimension(mode, len(gains)) - free_power
    return np.concatenate([[p0][:free_power], gains[:free_gains]])


def mode_bounds(
    mode: Mode, stage_count: int, gain_bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper box corners of a mode's parameter vector.

    The drive spans POWER_BOUNDS and every gain spans gain_bounds.
    """
    return (
        reduce_parameters(mode, POWER_BOUNDS[0], np.full(stage_count, gain_bounds[0])),
        reduce_parameters(mode, POWER_BOUNDS[1], np.full(stage_count, gain_bounds[1])),
    )


def _expand(theta, free_power: bool, rows: list[int | None], p0: float, gains: np.ndarray):
    """The full (p0, per-stage gains) point of theta, the inverse of
    reduce_parameters: what the mode does not free is the given p0 or gains."""
    if free_power:
        p0 = float(theta[0])
    return p0, gains if None in rows else theta[rows]


def expand_parameters(
    theta: np.ndarray, mode: Mode, config: CascadeConfig
) -> tuple[float, np.ndarray]:
    """Map a parameter vector to (p0, per-stage gains).

    Values not covered by the mode come from the config: gains for
    power-only, drive power for the gains-only modes.
    """
    stage_count = config.stage_count
    theta = _checked(theta, mode, stage_count, mode_dimension(mode, stage_count))
    rows = gain_rows(mode, stage_count)
    return _expand(theta, mode in FREE_POWER_MODES, rows, config.input_power, config.gains)


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
    return reduce_parameters(mode, 1.0, gains)


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
    # ||clip(theta - grad f, lo, hi) - theta||_inf at the returned point, from
    # its last linearization: 0 exactly at a first-order (KKT) point of the box.
    criticality: float


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
    from the same cascade pass.  The closure holds the noise realization and
    passes sigma and its unit rows to the kernel, which alone scales them, so
    the objective is deterministic while the realization is left unchanged.

    The closure keeps, across calls, every stage's pre-gain output
    f_k = f(y_{k-1} + sigma*w_k) of its last call, with the bytes of the p0
    and g_1..g_{K-1} it was computed from.  f_k depends on p0 and
    g_1..g_{k-1} alone, so a call without the Jacobian first counts the
    leading stages whose inputs keep every bit (compared as bytes, so -0.0
    and 0.0 differ and a NaN matches itself) and runs only the stages after
    them: none when only g_K changed, which then costs one multiply.  A call
    with the Jacobian runs the whole chain.  Every call is bit for bit what a
    fresh closure returns.  The closure also keeps its kernel workspace and
    its input, output and tangent arrays, so it is not reentrant; the arrays
    it returns are its caller's.
    """
    check_noise(config, noise, len(x0_unit))
    x = x0_unit.samples
    desired = config.reference_gain * x
    alphas = config.alphas
    stage_count = config.stage_count
    free_power = mode in FREE_POWER_MODES
    rows = gain_rows(mode, stage_count)
    dim = mode_dimension(mode, stage_count)
    # What the mode holds fixed, read from the config once.
    input_power = config.input_power
    fixed_gains = config.gains
    # Working arrays of every call, made once; what a call returns is fresh.
    work = CascadeWorkspace()
    stage_in = np.empty_like(x)  # input of the first stage a call runs
    y = np.empty_like(x)
    dy = np.empty((dim, len(x)), dtype=complex)
    stage_f = np.empty((stage_count, len(x)), dtype=complex)
    filled = b""  # bytes of the (p0, g_1..g_{K-1}) behind stage_f

    def residual(theta: np.ndarray, jacobian: bool = False):
        nonlocal filled
        theta = _checked(theta, mode, stage_count, dim)
        p0, gains = _expand(theta, free_power, rows, input_power, fixed_gains)
        inputs = np.concatenate(([p0], gains[:-1])).tobytes()
        depth = 0  # leading stages whose f_k is kept
        if not jacobian:
            while depth < stage_count and (
                inputs[8 * depth : 8 * depth + 8] == filled[8 * depth : 8 * depth + 8]
            ):
                depth += 1
        # stage_f is rewritten from row `depth` on: it matches no inputs
        # until the kernel returns.
        filled = b""
        tangent = None
        if depth == stage_count:
            np.multiply(gains[-1], stage_f[-1], out=y)
        elif depth:
            np.multiply(gains[depth - 1], stage_f[depth - 1], out=stage_in)
        else:
            np.multiply(np.sqrt(p0), x, out=stage_in)
            if jacobian:
                dy.fill(0.0)
                if free_power:
                    np.divide(stage_in, 2.0 * p0, out=dy[0])
                tangent = (dy, rows)
        if depth < stage_count:
            cascade_samples(
                stage_in, alphas[depth:], gains[depth:], config.sigma,
                None if noise is None else noise.stage_noise[depth:],
                tangent, work, y, stage_f[depth:],
            )
        filled = inputs
        if not jacobian:
            return (desired - y).view(float)
        # d(desired - y) = -dy
        return (desired - y).view(float), np.negative(dy).view(float).T

    return residual


def sum_of_squares(r: np.ndarray) -> float:
    """The objective r^T r of a residual vector, in einsum's fixed order."""
    return float(np.einsum("i,i->", r, r))


def normal_equations(jac: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J^T J, J^T r) of a Jacobian and its residual, in einsum's fixed order."""
    return np.einsum("ij,ik->jk", jac, jac), np.einsum("ij,i->j", jac, r)


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
    (one row per residual entry), as build_residual's closure does; these
    are reduced by sum_of_squares and normal_equations to r^T r, J^T J, J^T r.
    The start is moved START_MARGIN of the box width inside the box.
    At each damping, a coordinate on a bound is held (its step is zero) when
    the gradient or the damped step points out of the box there, and the
    damped normal equations are solved on the others; with none on a bound,
    the step is the plain damped step.  Trial steps are clipped to the box
    and accepted only on strict objective decrease; damping is multiplied by
    10 on rejection and divided by 10 on acceptance.  The Jacobian is taken
    at the start, at every accepted point and at every retry after a
    rejection; the first trial of an iteration is scored on its residual
    alone and linearized only if it is accepted.  The result counts both
    kinds of call, and reports the criticality of its point from the
    gradient of the last linearization, at no extra call; it does not enter
    the status.  Terminates when the projected gradient is at most
    GRADIENT_TOLERANCE times its starting magnitude, when the clipped step is
    at most STEP_TOLERANCE, or after MAX_ITERATIONS.

    Converged does not certify an optimum: the damped-step hold also holds a
    coordinate whose gradient points into the box, and so the default study's
    unequal-gains K = 3 reports Converged at g1 = 0.70 with df/dg1 = -511
    (criticality 0.6).
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
            return sum_of_squares(residual(point)), None, None
        r, jac = residual(point, jacobian=True)
        return (sum_of_squares(r), *normal_equations(jac, r))

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
        on_bound = (theta <= lo) | (theta >= hi)
        accepted = False
        retry = False
        while lam <= LAMBDA_LIMIT:
            damped = normal + lam * np.diag(damping_scale)
            step = np.linalg.solve(damped, -gradient)
            # Hold what the gradient or this step pushes out at a bound.
            held = on_bound & ((projected == 0.0) | (np.clip(theta + step, lo, hi) == theta))
            if held.any():
                free = np.flatnonzero(~held)
                step = np.zeros_like(step)
                if free.size:
                    step[free] = np.linalg.solve(damped[np.ix_(free, free)], -gradient[free])
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

    # grad f = 2 J^T r, from the linearization at theta.
    criticality = float(np.max(np.abs(np.clip(theta - 2.0 * gradient, lo, hi) - theta)))
    return OptimizationResult(
        parameters=theta,
        objective=objective,
        objective_history=np.array(history),
        status=status,
        iterations=iterations,
        evaluations=calls[False],
        jacobian_evaluations=calls[True],
        criticality=criticality,
    )


def grid_oracle(
    x0_unit: Signal,
    config: CascadeConfig,
    noise: NoiseRealization | None,
    mode: Mode,
    resolution: int,
) -> tuple[np.ndarray, float]:
    """Brute-force verification oracle for the 1- and 2-parameter modes.

    Returns the first minimum in row-major order of a uniform grid over the
    mode's box (drive in POWER_BOUNDS, gains in the config's gain window),
    scored with the solver's own sum_of_squares of build_residual's residual,
    together with its objective.  The walk is row-major, so along a row only
    the last parameter c moves, and the residual re-runs only the stages
    that parameter feeds: none when it is the last stage's gain alone, every
    stage when it is the drive.

    When c is the last stage's gain alone (unequal-gains up to K = 2, and
    every mode that frees a gain at K = 1), it only scales the output: along
    the row the residual is d - c*f_K with d and f_K fixed, so r^T r is an
    exact quadratic in c.  When c is the gain of both stages at K = 2
    (equal-gains, joint-equal), stage 2's input c*f_1 + sigma*w_2 is linear in
    c, the output c*f(...) quartic, and r^T r exactly of degree 8.  Such a
    row scores degree + 1 probes spread over it exactly (its first and last
    points among them), predicts every point from the polynomial through
    them, and scores exactly every point predicted within ``ROW_FIT_MARGIN``
    times the largest probe of the predicted row minimum; the rest cannot
    win and are skipped.  The rounding of an exact score and of the fit is
    about 1e-12 of the largest probe, far below that margin, so every point
    that could be the row's minimum, or tie it, is scored, and the returned
    point and objective are bit for bit those of scoring every point.  A row
    whose prediction is not finite is scored whole, as is every row of a box
    too narrow for distinct probes and of the other modes: the drive moves
    only along the one row of the power mode, where r^T r has degree
    2*3**K in sqrt(p0) and the whole row costs milliseconds, and a gain
    shared by 3 or more stages gives degree 26, 27 probes of a row of >= 50.
    """
    dim = mode_dimension(mode, config.stage_count)
    if dim > 2:
        raise UnsupportedModeError(
            f"grid oracle covers at most 2 parameters; mode {mode.value} over "
            f"{config.stage_count} stages has {dim}"
        )
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 50:
        raise ValueError(f"resolution must be >= 50 per axis, got {resolution}")

    residual = build_residual(x0_unit, config, noise, mode)
    lo, hi = mode_bounds(mode, config.stage_count, config.gain_bounds)
    axes = [np.linspace(a, b, resolution) for a, b in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    values = np.full(len(points), np.inf)

    def score(indices) -> None:
        for i in indices:
            values[i] = sum_of_squares(residual(points[i]))

    rows = gain_rows(mode, config.stage_count)
    # Degree of r^T r in c when c is the gain of the last 1 or 2 stages.
    degree = {1: 2, 2: 8}.get(rows.count(dim - 1), 0)
    probes = np.arange(degree + 1) * (resolution - 1) // max(degree, 1)
    c = axes[-1]
    nodes = c[probes]
    if not degree or rows[-1] != dim - 1 or not np.all(np.diff(nodes) > 0):
        score(range(len(points)))
    else:
        # Lagrange basis of the probes: a row's probe values times this
        # matrix are its polynomial at every point of the row.
        basis = np.array([
            np.prod(c - np.delete(nodes, i)[:, None], axis=0)
            / np.prod(node - np.delete(nodes, i))
            for i, node in enumerate(nodes)
        ])
        for start in range(0, len(points), resolution):
            row = np.arange(start, start + resolution)
            score(row[probes])
            probed = values[row[probes]]
            predicted = probed @ basis
            if np.all(np.isfinite(predicted)):
                margin = ROW_FIT_MARGIN * float(np.max(probed))
                row = row[predicted <= predicted.min() + margin]
            score(row[np.isinf(values[row])])
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
