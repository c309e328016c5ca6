"""Box-constrained nonlinear least squares over drive power and stage gains.

The objective is ||G*x_unit - y_K(theta)||^2, where y_K is the cascade output
at drive p0 with the stage gains that theta frees; the mode holds the rest at
the config's values.  Normalizing the desired signal by 1/sqrt(p0) leaves G
times the unit-drive excitation as the desired side.  The module holds the
modes and their parameter vectors, build_residual (the residual and its exact
Jacobian from one cascade pass), solve (projected Levenberg-Marquardt) and
grid_oracle, a brute-force check of the 1- and 2-parameter modes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cascade import (
    CascadeConfig,
    as_number,
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
DECREASE_TOLERANCE = 3e-15  # of the objective: the Gauss-Newton decrease that ends a solve
ROW_FIT_MARGIN = 1e-9  # grid_oracle: of the largest probe objective


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
    stop: str  # the test that ended the solve: "decrease", "step", "iterations" or "lambda"
    iterations: int
    evaluations: int  # residual calls without tangents (solve makes none)
    jacobian_evaluations: int  # residual calls with tangents
    # ||clip(theta - grad f, lo, hi) - theta||_inf at the returned point, from
    # its last linearization: 0 exactly at a first-order (KKT) point of the box.
    criticality: float


def build_residual(
    x0_unit: Signal,
    config: CascadeConfig,
    noise: NoiseRealization | None,
    mode: Mode,
) -> Callable[..., np.ndarray | tuple[float, np.ndarray, np.ndarray]]:
    """Residual of the desired output against the cascade output.

    Returns a function theta -> the 2N real values of G*x_unit - y_K(theta),
    the float view of the complex residual (real and imaginary parts
    interleaved).  Called with ``jacobian=True`` it returns instead
    (r^T r, J^T J, J^T r) of that residual r and its exact Jacobian J, from
    the same cascade pass: J = -dy is never formed, both products reduce the
    float view of the tangents dy as the kernel wrote them, each an einsum in
    its fixed order (BLAS's order turns on its thread count), and r is
    written over the output buffer.  The closure holds the noise realization and
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
    fresh closure returns.  The closure also keeps its kernel workspace, its
    tangents and one signal buffer, which a call fills with the input of its
    first stage and the kernel runs on in place; so it is not reentrant, and
    the arrays it returns are its caller's.
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
        # y is the input of the first stage the call runs, then the output.
        if depth:
            np.multiply(gains[depth - 1], stage_f[depth - 1], out=y)
        else:
            np.multiply(np.sqrt(p0), x, out=y)
            if jacobian:
                dy.fill(0.0)
                if free_power:
                    np.divide(y, 2.0 * p0, out=dy[0])
                tangent = (dy, rows)
        if depth < stage_count:
            cascade_samples(
                y, alphas[depth:], gains[depth:], config.sigma,
                None if noise is None else noise.stage_noise[depth:],
                tangent, work, stage_f[depth:],
            )
        filled = inputs
        if not jacobian:
            return (desired - y).view(float)
        r = np.subtract(desired, y, out=y).view(float)
        f = dy.view(float)
        # J = d(desired - y) = -f^T, so J^T J = f f^T and J^T r = -f r.
        return sum_of_squares(r), np.einsum("ji,ki->jk", f, f), -np.einsum("ji,i->j", f, r)

    return residual


def sum_of_squares(r: np.ndarray) -> float:
    """The objective r^T r of a residual vector, in einsum's fixed order."""
    return float(np.einsum("i,i->", r, r))


@np.errstate(over="ignore", invalid="ignore")
def solve(
    spec: OptimizationSpec,
    residual: Callable[..., np.ndarray | tuple[float, np.ndarray, np.ndarray]],
) -> OptimizationResult:
    """Projected Levenberg-Marquardt descent over the spec's box.

    ``residual(theta, jacobian=True)`` must return (r^T r, J^T J, J^T r) of
    the residual r and its exact Jacobian J at theta, as build_residual's
    closure does; these are all the step needs, so solve never sees r or J.
    The start is moved START_MARGIN of the box width inside the box.
    At each damping, a coordinate on a bound is held (its step is zero) when
    the gradient or the damped step points out of the box there, and the
    damped normal equations are solved on the others; with none on a bound,
    the step is the plain damped step.  Trial steps are clipped to the box
    and accepted only on strict objective decrease.  The damping lambda
    starts at 1e-3 and follows the gain ratio rho of the actual to the
    predicted decrease, the latter from the linear model at theta (Nielsen
    1999, IMM-REP-1999-05; Madsen, Nielsen & Tingleff 2004, Methods for
    Non-Linear Least Squares Problems, 3.2): on acceptance lambda is
    multiplied by max(1/3, 1 - (2 rho - 1)^3), with rho = 0 when no decrease
    is predicted, and floored at 1e-12; on rejection it is multiplied by nu,
    which starts at 2 in each iteration and doubles with every rejection.
    Every trial is scored with its Jacobian, so an accepted one is
    linearized at no further call; a trial that the clip puts on the
    iteration's last rejected one again is rejected without a call.
    ``evaluations`` (calls without tangents) reads 0 and
    ``jacobian_evaluations`` counts every call.  The result reports the
    criticality of its point from the gradient of the last linearization, at
    no extra call; it does not enter the status.
    The status is Converged when, before an iteration's damping, the
    Gauss-Newton decrease that the linear model predicts on the free set F
    (every coordinate but those the gradient holds at a bound),
    d = g_F^T (N_FF)^+ g_F with g = J^T r and N = J^T J, is at most
    DECREASE_TOLERANCE times r^T r (``stop`` "decrease"; MINPACK's
    relative-reduction test, J. J. More 1978, LNM 630): the pseudo-inverse
    is a least-squares solve, as N_FF can be exactly singular, and an empty
    F gives d = 0; or when a clipped step is exactly zero ("step"), as when
    the damped-step hold holds every coordinate of F.  StalledAtBound when
    lambda passes LAMBDA_LIMIT with no trial accepted ("lambda"); and
    MaxIterations after MAX_ITERATIONS ("iterations").
    Converged is no certificate of an optimum: the damped-step hold can hold
    a coordinate whose gradient points into the box (the strict xfail
    test_converged_solves_are_first_order_critical; ROADMAP item 0a).
    numpy's overflow and invalid-value warnings are off inside: an inf or
    nan trial is rejected, and an inf or nan start raises InvalidStartError.
    """
    lo, hi = spec.bounds()
    if spec.start.size != lo.size:
        raise InvalidStartError(
            f"start has {spec.start.size} parameters, mode {spec.mode.value} "
            f"over {spec.stage_count} stages needs {lo.size}"
        )
    margin = START_MARGIN * (hi - lo)
    theta = np.clip(np.asarray(spec.start, dtype=float), lo + margin, hi - margin)
    objective, normal, gradient = residual(theta, jacobian=True)
    calls = 1  # residual calls, every one with tangents
    if not np.isfinite(objective):
        raise InvalidStartError(f"objective is {objective} at start {theta}")
    history = [objective]
    lam = 1e-3
    status, stop = SolveStatus.MAX_ITERATIONS, "iterations"
    iterations = 0

    while status is SolveStatus.MAX_ITERATIONS and iterations < MAX_ITERATIONS:
        iterations += 1
        # A coordinate on a bound whose gradient points out of the box is held at every damping.
        pinned = ((theta <= lo) & (gradient >= 0.0)) | ((theta >= hi) & (gradient <= 0.0))
        free = np.flatnonzero(~pinned)
        # Gauss-Newton decrease on the free coordinates; N_FF may be singular.
        g = gradient[free]
        decrease = float(g @ np.linalg.lstsq(normal[np.ix_(free, free)], g)[0])
        if decrease <= DECREASE_TOLERANCE * objective:
            status, stop = SolveStatus.CONVERGED, "decrease"
            break

        damping_scale = np.diag(normal).copy()
        damping_scale[damping_scale == 0.0] = 1.0
        on_bound = (theta <= lo) | (theta >= hi)
        nu = 2.0  # growth of lam on the next rejection
        rejected = None  # bytes of this iteration's last rejected trial
        while lam <= LAMBDA_LIMIT:
            damped = normal + lam * np.diag(damping_scale)
            step = np.linalg.solve(damped, -gradient)
            # Hold also what this step pushes out at a bound.
            held = pinned | (on_bound & (np.clip(theta + step, lo, hi) == theta))
            if held.any():
                free = np.flatnonzero(~held)
                step = np.zeros_like(step)
                if free.size:
                    step[free] = np.linalg.solve(damped[np.ix_(free, free)], -gradient[free])
            trial = np.clip(theta + step, lo, hi)
            step = trial - theta
            if not step.any():
                status, stop = SolveStatus.CONVERGED, "step"
                break
            # A repeat of the last rejected trial keeps its values, which did not decrease.
            if trial.tobytes() != rejected:
                calls += 1
                trial_objective, trial_normal, trial_gradient = residual(trial, jacobian=True)
            if trial_objective < objective:
                # Decrease of the linear model ||r + J h||^2 over the step h.
                predicted = -2.0 * float(step @ gradient) - float(step @ normal @ step)
                ratio = (objective - trial_objective) / predicted if predicted > 0.0 else 0.0
                theta, objective = trial, trial_objective
                normal, gradient = trial_normal, trial_gradient
                history.append(objective)
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-12)
                break
            rejected = trial.tobytes()
            lam *= nu
            nu *= 2.0
        else:
            status, stop = SolveStatus.STALLED_AT_BOUND, "lambda"

    # grad f = 2 J^T r, from the linearization at theta.
    criticality = float(np.max(np.abs(np.clip(theta - 2.0 * gradient, lo, hi) - theta)))
    return OptimizationResult(
        parameters=theta,
        objective=objective,
        objective_history=np.array(history),
        status=status,
        stop=stop,
        iterations=iterations,
        evaluations=0,
        jacobian_evaluations=calls,
        criticality=criticality,
    )


def axis_degrees(mode: Mode, stage_count: int) -> tuple[int, ...]:
    """Degree of the residual as a polynomial in each parameter of the
    mode's vector, the others held: in sqrt(p0) for the drive.

    The drive enters as sqrt(p0)*x, of degree 1 in sqrt(p0) and 0 in a gain;
    a stage y <- g*f(y + sigma*w) triples the degree of its input in each
    parameter, as f(u) = u + alpha*u*|u|^2 is cubic in a real one, and adds
    1 in the parameter that its gain is.
    """
    degrees = [int(mode in FREE_POWER_MODES)] + [0] * (mode_dimension(mode, stage_count) - 1)
    for row in gain_rows(mode, stage_count):
        degrees = [3 * degree + (row == j) for j, degree in enumerate(degrees)]
    return tuple(degrees)


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
    together with its objective.

    The residual vector r is an exact polynomial in each parameter j, of
    degree D_j = axis_degrees(mode, K)[j] (in sqrt(p0) for the drive): 3**K
    for the drive, 1 for the last gain alone, 4 for a gain shared by two
    stages.  So its values at the tensor product of each axis's D_j + 1
    Chebyshev points of the second kind fix r on the whole grid (Berrut &
    Trefethen 2004, SIAM Review 46(3)).  The oracle scores r once at each of
    these probes, walked row-major with the last parameter fastest, so that
    the residual re-runs only the stages a step changes: none when the last
    parameter is the last stage's gain alone.  It forms the Gram matrix G of
    all probes with einsum (BLAS's summation order turns on its thread
    count, and with it the set of points scored), contracts the first axis's
    Lagrange basis into G to get each row's Gram G_row, and predicts r^T r
    at every point of a row as l(c)^T G_row l(c), l being the last axis's
    Lagrange basis at the row's points; a one-parameter grid is one row.  It
    then scores exactly every point predicted within ``ROW_FIT_MARGIN``
    times the largest probe objective of the grid's predicted minimum, but
    for one that a probe has hit (as a rule a corner of the box), whose
    probe is its exact score; the rest cannot win and are skipped.  The
    rounding of an exact score and of the prediction is far below that
    margin, so every point that could be the minimum, or tie it, is scored,
    and the returned point and objective are bit for bit those of scoring
    every point.  Every point is scored when the probes exceed half a row
    (2 * prod(D_j + 1) > resolution), where they would cost more than a
    one-parameter grid; when an axis is too narrow for distinct nodes
    (epsilon = 0); or when a prediction is not finite.
    """
    dim = mode_dimension(mode, config.stage_count)
    if dim > 2:
        raise UnsupportedModeError(
            f"grid oracle covers at most 2 parameters; mode {mode.value} over "
            f"{config.stage_count} stages has {dim}"
        )
    resolution = as_number(resolution, int, "resolution")
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

    degrees = axis_degrees(mode, config.stage_count)
    # Each axis's coordinate in which r is a polynomial, sqrt(p0) for the
    # drive; the residual sees each node exactly, as sqrt(s**2) == s in IEEE
    # arithmetic.
    drive = [j == 0 and mode in FREE_POWER_MODES for j in range(dim)]
    c = [np.sqrt(axis) if d else axis for axis, d in zip(axes, drive)]
    nodes = [(a[0] + a[-1]) / 2 + (a[-1] - a[0]) / 2 * np.cos(np.pi * np.arange(d + 1) / d)
             for a, d in zip(c, degrees)]
    distinct = all(np.all(np.diff(n) < 0) for n in nodes)
    if 2 * np.prod([d + 1 for d in degrees]) > resolution or not distinct:
        score(range(len(points)))
    else:
        # basis[i, p] = l_i(c_p), an axis's Lagrange basis at its grid points;
        # a one-parameter grid is one row, under a first axis of one node.
        first, last = [np.ones((1, 1))] * (2 - dim) + [np.array([
            np.prod((a[:, None] - np.delete(n, i)) / (node - np.delete(n, i)), axis=1)
            for i, node in enumerate(n)]) for a, n in zip(c, nodes)]
        ticks = [np.square(n) if d else n for n, d in zip(nodes, drive)]
        probes = np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, dim)
        # One buffer of every probe's residual, filled probe by probe.
        probed = np.fromiter(map(residual, probes), (float, 2 * len(x0_unit)), len(probes))
        # A probe on a grid point (as a rule a corner of the box) is that
        # point's exact score.
        at = [np.searchsorted(a, probes[:, j]).clip(max=resolution - 1) for j, a in enumerate(axes)]
        near = np.ravel_multi_index(at, (resolution,) * dim)
        on_grid = np.flatnonzero(np.all(points[near] == probes, axis=1))
        values[near[on_grid]] = [sum_of_squares(probed[i]) for i in on_grid]
        gram = np.einsum("ik,jk->ij", probed, probed)
        # gram[a, b, c, d] pairs probe (a, b) with (c, d), a and c on the first axis.
        blocks = gram.reshape((len(first), len(last)) * 2)
        row_grams = np.einsum("ap,abcd,cp->pbd", first, blocks, first)
        predicted = np.einsum("bq,pbd,dq->pq", last, row_grams, last).ravel()
        cut = predicted.min() + ROW_FIT_MARGIN * gram.diagonal().max()
        # A prediction that is not finite leaves every point to be scored.
        chosen = np.flatnonzero((predicted <= cut) | (not np.all(np.isfinite(predicted))))
        score(chosen[np.isinf(values[chosen])])
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
