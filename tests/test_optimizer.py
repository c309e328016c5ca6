"""Projected least-squares solver and its supporting machinery.

The solver tests lean on problems with known answers: linear least squares
(quadratic objective, closed-form optimum), clipped optima at box edges, and
tiny cascades where the grid oracle can exhaustively confirm the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachain import cascade, experiments, optimizer
from pachain.cascade import CascadeConfig, PaStage
from pachain.experiments import ExperimentConfig
from pachain.optimizer import (
    MODE_LAYOUTS,
    InvalidStartError,
    Mode,
    OptimizationSpec,
    Scenario,
    SolveStatus,
    UnsupportedModeError,
    build_residual,
    expand_parameters,
    grid_oracle,
    mode_dimension,
    scenario_start,
    solve,
)
from pachain.signals import draw_noise, unit_excitation

ALPHA = -0.33 * (1 - 0.1j)


def small_problem(stages, sigma=0.0, symbols=128, gains=None):
    x = unit_excitation(symbols, 8, 0.22, 16, 42)
    gains = np.ones(stages) if gains is None else np.asarray(gains, dtype=float)
    config = CascadeConfig(
        stages=tuple(PaStage(ALPHA, g) for g in gains),
        sigma=sigma, input_power=1.0, reference_gain=1.0, epsilon=0.3,
    )
    noise = draw_noise(stages, len(x), 43) if sigma else None
    return x, config, noise


# ---------------------------------------------------------------- dimensions


def test_mode_dimensions():
    assert mode_dimension(Mode.POWER_ONLY, 4) == 1
    assert mode_dimension(Mode.EQUAL_GAINS, 4) == 1
    assert mode_dimension(Mode.UNEQUAL_GAINS, 4) == 4
    assert mode_dimension(Mode.JOINT_EQUAL_GAINS, 4) == 2
    assert mode_dimension(Mode.JOINT_UNEQUAL_GAINS, 4) == 5


def test_expand_parameters_each_mode():
    _, config, _ = small_problem(3, gains=[0.9, 1.0, 1.1])
    p0, gains = expand_parameters(np.array([0.5]), Mode.POWER_ONLY, config)
    assert p0 == 0.5
    np.testing.assert_array_equal(gains, [0.9, 1.0, 1.1])

    p0, gains = expand_parameters(np.array([1.2]), Mode.EQUAL_GAINS, config)
    assert p0 == config.input_power
    np.testing.assert_array_equal(gains, [1.2, 1.2, 1.2])

    p0, gains = expand_parameters(np.array([0.8, 1.0, 1.2]), Mode.UNEQUAL_GAINS, config)
    assert p0 == config.input_power
    np.testing.assert_array_equal(gains, [0.8, 1.0, 1.2])

    p0, gains = expand_parameters(np.array([0.4, 1.25]), Mode.JOINT_EQUAL_GAINS, config)
    assert p0 == 0.4
    np.testing.assert_array_equal(gains, [1.25, 1.25, 1.25])

    p0, gains = expand_parameters(
        np.array([0.4, 0.8, 1.0, 1.2]), Mode.JOINT_UNEQUAL_GAINS, config
    )
    assert p0 == 0.4
    np.testing.assert_array_equal(gains, [0.8, 1.0, 1.2])


def test_expand_parameters_dimension_mismatch():
    _, config, _ = small_problem(3)
    with pytest.raises(ValueError):
        expand_parameters(np.array([0.5, 1.0]), Mode.POWER_ONLY, config)


def test_scenario_starts():
    full = scenario_start(Scenario.ONE, 3, ALPHA)
    np.testing.assert_allclose(full, [1.0, 1.0, 1.0, 1.0])
    boosted = scenario_start(Scenario.TWO, 2, ALPHA)
    assert boosted[0] == 1.0
    np.testing.assert_allclose(boosted[1:], 1.4944478185503975, rtol=1e-12)
    assert scenario_start(Scenario.ONE, 4, ALPHA, Mode.POWER_ONLY).shape == (1,)
    assert scenario_start(Scenario.ONE, 4, ALPHA, Mode.EQUAL_GAINS).shape == (1,)
    assert scenario_start(Scenario.ONE, 4, ALPHA, Mode.UNEQUAL_GAINS).shape == (4,)
    assert scenario_start(Scenario.ONE, 4, ALPHA, Mode.JOINT_EQUAL_GAINS).shape == (2,)
    assert scenario_start(Scenario.ONE, 4, ALPHA, Mode.JOINT_UNEQUAL_GAINS).shape == (5,)


def test_spec_bounds_each_mode():
    gain = (0.7, 1.3)
    expected = {
        Mode.POWER_ONLY: ([1e-6], [1.0]),
        Mode.EQUAL_GAINS: ([0.7], [1.3]),
        Mode.UNEQUAL_GAINS: ([0.7, 0.7, 0.7], [1.3, 1.3, 1.3]),
        Mode.JOINT_EQUAL_GAINS: ([1e-6, 0.7], [1.0, 1.3]),
        Mode.JOINT_UNEQUAL_GAINS: ([1e-6, 0.7, 0.7, 0.7], [1.0, 1.3, 1.3, 1.3]),
    }
    for mode, (lo, hi) in expected.items():
        spec = OptimizationSpec(
            mode=mode, stage_count=3, start=np.zeros(len(lo)), gain_bounds=gain,
        )
        got_lo, got_hi = spec.bounds()
        np.testing.assert_array_equal(got_lo, lo)
        np.testing.assert_array_equal(got_hi, hi)


# -------------------------------------------------------------------- solver


def linear_spec(start, lo, hi):
    # mode/stage_count are bookkeeping here; bounds drive the behavior
    return OptimizationSpec(
        mode=Mode.UNEQUAL_GAINS, stage_count=len(start),
        start=np.asarray(start, dtype=float),
        gain_bounds=(lo[-1], hi[-1]),
    )


def linear_residual(A, b):
    """theta -> A @ theta - b, whose exact Jacobian is A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))

    def residual(theta, jacobian=False):
        r = A @ theta - b
        return (r, A) if jacobian else r

    return residual


def test_solver_reaches_linear_least_squares_optimum():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 3)) + np.eye(40, 3) * 3
    b = rng.standard_normal(40)
    target, *_ = np.linalg.lstsq(A, b, rcond=None)
    target = np.clip(target, -10, 10)

    spec = OptimizationSpec(
        mode=Mode.UNEQUAL_GAINS, stage_count=3, start=np.zeros(3),
        gain_bounds=(-10.0, 10.0),
    )
    result = solve(spec, linear_residual(A, b))
    assert result.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(result.parameters, target, atol=1e-6)


def test_solver_clips_exterior_optimum_to_bound():
    # scalar residual theta - 2 on the box [0, 1]: optimum sits at the edge
    spec = linear_spec([0.5], [0.0], [1.0])
    result = solve(spec, linear_residual([[1.0]], [2.0]))
    assert result.status is SolveStatus.CONVERGED
    assert result.parameters[0] == 1.0  # exactly at the bound, not near it


def test_solver_objective_history_strictly_decreases():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((20, 2))
    b = rng.standard_normal(20)
    spec = linear_spec([0.0, 0.0], [-5.0, -5.0], [5.0, 5.0])
    result = solve(spec, linear_residual(A, b))
    assert np.all(np.diff(result.objective_history) < 0)


def test_solver_iteration_budget():
    def rosenbrock_residual(theta, jacobian=False):
        r = np.array([10 * (theta[1] - theta[0] ** 2), 1 - theta[0]])
        if not jacobian:
            return r
        return r, np.array([[-20 * theta[0], 10.0], [-1.0, 0.0]])

    spec = linear_spec([-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "MAX_ITERATIONS", 2)
        result = solve(spec, rosenbrock_residual)
    assert result.status is SolveStatus.MAX_ITERATIONS
    assert result.iterations == 2

    result = solve(spec, rosenbrock_residual)
    assert result.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(result.parameters, [1.0, 1.0], atol=1e-5)


def test_solver_projects_start_into_box():
    spec = linear_spec([5.0], [0.0], [1.0])  # start outside the box
    result = solve(spec, linear_residual([[1.0]], [0.3]))
    assert result.parameters[0] == pytest.approx(0.3, abs=1e-8)


def test_solver_rejects_wrong_start_dimension():
    spec = OptimizationSpec(mode=Mode.JOINT_EQUAL_GAINS, stage_count=3,
                            start=np.array([0.5, 1.0, 1.0]), gain_bounds=(0.7, 1.3))
    with pytest.raises(InvalidStartError):
        solve(spec, lambda theta: theta)


def test_full_drive_optimum_lands_on_upper_bound_exactly():
    """Drive-only search from the unit-gain chain pushes to full drive and
    the projection writes the bound value itself, not an approximation."""
    x, config, noise = small_problem(2, sigma=0.01)
    residual = build_residual(x, config, noise, Mode.POWER_ONLY)
    spec = OptimizationSpec(
        mode=Mode.POWER_ONLY, stage_count=2,
        start=scenario_start(Scenario.ONE, 2, ALPHA, Mode.POWER_ONLY),
        gain_bounds=config.gain_bounds,
    )
    result = solve(spec, residual)
    assert result.status is SolveStatus.CONVERGED
    assert result.parameters[0] == 1.0


def always_with_tangents(residual):
    """residual, computing the tangents on every call and dropping J when it
    was not asked for.  Counts the calls of each kind, and the points
    evaluated: a Jacobian call at the point just scored objective-only is
    not a new point.  Keeps the objectives at which J was asked for."""
    seen = {False: 0, True: 0, "points": 0, "last_plain": None, "linearized": set()}

    def wrapped(theta, jacobian=False):
        key = np.asarray(theta).tobytes()
        seen[jacobian] += 1
        if not (jacobian and key == seen["last_plain"]):
            seen["points"] += 1
        seen["last_plain"] = None if jacobian else key
        r, jac = residual(theta, jacobian=True)
        if jacobian:
            seen["linearized"].add(float(r @ r))
        return (r, jac) if jacobian else r

    return wrapped, seen


@pytest.mark.parametrize(
    "mode, stages",
    [(Mode.UNEQUAL_GAINS, 3), (Mode.JOINT_UNEQUAL_GAINS, 2)],
    ids=lambda value: value.value if isinstance(value, Mode) else f"K{value}",
)
def test_tangents_only_where_needed_leave_the_solve_unchanged(mode, stages):
    """Scoring first trials without tangents changes no iterate: the study's
    solve equals one whose every residual call also computes the Jacobian.
    It takes the Jacobian at the start and at every accepted point, counts
    its calls of each kind, and asks for tangents at fewer points than it
    evaluates."""
    config = ExperimentConfig(symbols=256)
    x = experiments.excitation_for(config)
    noise = experiments.optimization_noise(config, stages, len(x))
    fixed = experiments.make_cascade_config(
        config, experiments.scenario_gains(config, Scenario.ONE, stages)
    )
    spec = OptimizationSpec(
        mode=mode, stage_count=stages,
        start=scenario_start(Scenario.ONE, stages, config.alpha, mode),
        gain_bounds=fixed.gain_bounds,
    )
    result = solve(spec, build_residual(x, fixed, noise, mode))
    wrapped, seen = always_with_tangents(build_residual(x, fixed, noise, mode))
    reference = solve(spec, wrapped)

    assert result.parameters.tobytes() == reference.parameters.tobytes()
    assert result.objective == reference.objective
    assert result.objective_history.tobytes() == reference.objective_history.tobytes()
    assert (result.status, result.iterations) == (reference.status, reference.iterations)
    assert (result.evaluations, result.jacobian_evaluations) == (seen[False], seen[True])
    assert set(result.objective_history) <= seen["linearized"]
    assert result.jacobian_evaluations < seen["points"]


# --------------------------------------------------------------- grid oracle


def test_grid_oracle_validation():
    x, config, noise = small_problem(3)
    with pytest.raises(UnsupportedModeError):
        grid_oracle(x, config, noise, Mode.UNEQUAL_GAINS, 100)  # 3 parameters
    with pytest.raises(ValueError):
        grid_oracle(x, config, noise, Mode.POWER_ONLY, 49)


def test_grid_oracle_matches_manual_scan():
    x, config, noise = small_problem(1, sigma=0.05, symbols=64)
    residual = build_residual(x, config, noise, Mode.POWER_ONLY)
    axis = np.linspace(1e-6, 1.0, 60)
    manual = [float(np.sum(residual(np.array([p])) ** 2)) for p in axis]
    theta, value = grid_oracle(x, config, noise, Mode.POWER_ONLY, 60)
    assert value == pytest.approx(min(manual), rel=1e-12)
    assert theta[0] == pytest.approx(axis[int(np.argmin(manual))], rel=1e-12)


@pytest.mark.parametrize(
    "mode, stages",
    [
        (Mode.POWER_ONLY, 2),
        (Mode.EQUAL_GAINS, 2),
        (Mode.UNEQUAL_GAINS, 1),
        (Mode.UNEQUAL_GAINS, 2),
        (Mode.JOINT_EQUAL_GAINS, 2),
        (Mode.JOINT_UNEQUAL_GAINS, 1),
    ],
    ids=lambda value: value.value if isinstance(value, Mode) else f"K{value}",
)
def test_grid_oracle_scores_the_residual(mode, stages):
    x, config, noise = small_problem(stages, sigma=0.01, symbols=64)
    residual = build_residual(x, config, noise, mode)
    theta, value = grid_oracle(x, config, noise, mode, 50)
    assert theta.shape == (mode_dimension(mode, stages),)
    # the reported value is the objective at the reported point
    assert value == pytest.approx(float(np.sum(residual(theta) ** 2)), rel=1e-12)


def test_residual_normalizes_drive_out_of_the_reference():
    """Scaling the input by sqrt(p0) must compare against the same desired
    signal; the residual at p0 with a linear chain is then exactly
    (G - g1*g2*sqrt(p0)) * x."""
    x = unit_excitation(64, 8, 0.22, 16, 17)
    config = CascadeConfig(
        stages=(PaStage(0.0, 1.1), PaStage(0.0, 0.9)),
        sigma=0.0, input_power=1.0, reference_gain=1.0, epsilon=0.3,
    )
    residual = build_residual(x, config, None, Mode.POWER_ONLY)
    p0 = 0.49
    r = residual(np.array([p0]))
    expected = (1.0 - 1.1 * 0.9 * np.sqrt(p0)) * x.samples
    np.testing.assert_allclose(r, expected.view(float), atol=1e-12)


# ------------------------------------------------------------ exact Jacobian


@st.composite
def residual_points(draw):
    """A residual closure over a random chain, and an in-box point of its mode."""
    stages = draw(st.integers(1, 4))
    alpha = draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    sigma = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    mode = draw(st.sampled_from(Mode))
    in_box = st.floats(0.7, 1.3)
    fixed = [draw(in_box) for _ in range(stages)]
    # p0 stays clear of 0 so the central-difference step keeps sqrt(p0) real.
    p0 = draw(st.floats(0.01, 1.0))
    gains = np.array([draw(in_box) for _ in range(stages)])
    x = unit_excitation(32, 8, 0.22, 16, 42)
    config = CascadeConfig(
        stages=tuple(PaStage(alpha, g) for g in fixed),
        sigma=sigma, input_power=1.0, reference_gain=1.0, epsilon=0.3,
    )
    noise = draw_noise(stages, len(x), 43) if sigma else None
    residual = build_residual(x, config, noise, mode)
    return residual, MODE_LAYOUTS[mode].reduce(p0, gains)


@settings(deadline=None)
@given(residual_points())
def test_jacobian_matches_central_differences(case):
    residual, theta = case
    _, jac = residual(theta, jacobian=True)
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        central = (residual(up) - residual(down)) / (2.0 * h)
        column = jac[:, i]
        assert np.linalg.norm(column - central) <= 1e-6 * np.linalg.norm(column)


@settings(deadline=None)
@given(residual_points())
def test_jacobian_call_returns_the_same_residual(case):
    residual, theta = case
    r, _ = residual(theta, jacobian=True)
    assert np.array_equal(r, residual(theta))


@pytest.mark.parametrize("jacobian", [False, True])
def test_residual_rejects_a_wrong_shape(jacobian):
    x, config, noise = small_problem(3, sigma=0.01)
    residual = build_residual(x, config, noise, Mode.JOINT_EQUAL_GAINS)
    for theta in (np.array([0.5, 1.0, 1.0]), np.array([0.5]), np.array([[0.5, 1.0]])):
        with pytest.raises(ValueError, match="takes 2 parameters"):
            residual(theta, jacobian=jacobian)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_residual_closure_reuses_its_arrays_safely(monkeypatch, mode):
    """Interleaved calls on one closure, at two points, with and without the
    Jacobian, each equal a fresh closure's call, and no later call changes
    an array that an earlier one returned.  Blocks of 300 samples make the
    1,024 samples run through several blocks of the reused workspace."""
    monkeypatch.setattr(cascade, "SAMPLE_BLOCK", 300)
    x, config, noise = small_problem(3, sigma=0.01, gains=[0.9, 1.1, 1.2])
    shared = build_residual(x, config, noise, mode)
    layout = MODE_LAYOUTS[mode]
    points = [
        layout.reduce(0.8, np.array([0.9, 1.1, 1.2])),
        layout.reduce(0.3, np.array([1.25, 0.75, 1.0])),
    ]
    returned, copies = [], []
    for _ in range(2):
        for theta in points:
            for jacobian in (False, True):
                got = shared(theta, jacobian=jacobian)
                fresh = build_residual(x, config, noise, mode)(theta, jacobian=jacobian)
                got, fresh = (got, fresh) if jacobian else ((got,), (fresh,))
                assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
                returned.extend(got)
                copies.extend(a.copy() for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(returned, copies))
