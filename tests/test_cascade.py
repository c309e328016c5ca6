"""Chain model, equivalent single-stage closed forms, and their accuracy."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachain import cascade
from pachain.cascade import (
    CascadeConfig,
    CascadeWorkspace,
    Chain,
    ModelValidityWarning,
    PaStage,
    SaturationUndefinedError,
    approx_cascade_forward,
    cascade_forward,
    cascade_samples,
    equivalent_pa,
    equivalent_sigma,
    pa_nonlinearity,
    scenario2_gain,
    x_max,
)
from pachain.metrics import nmse
from pachain.optimizer import Mode, build_residual
from pachain.signals import Signal, draw_noise, unit_excitation

ALPHA = -0.33 * (1 - 0.1j)
# One kernel workspace for every call of the kernel tests below, so each
# call starts on the arrays that earlier calls left behind.
SHARED_WORK = CascadeWorkspace()


def make_config(alphas, gains, sigma=0.0, input_power=1.0):
    stages = tuple(PaStage(a, g) for a, g in zip(alphas, gains))
    return CascadeConfig(
        stages=stages, sigma=sigma, input_power=input_power,
        reference_gain=1.0, epsilon=0.3,
    )


def test_nonlinearity_fixed_points():
    assert pa_nonlinearity(0.0, ALPHA) == 0.0
    # cubic term is negligible at small drive
    assert pa_nonlinearity(1e-4, ALPHA) == pytest.approx(1e-4, rel=1e-6)


def test_x_max_is_the_am_curve_peak():
    # scan only up to the compression null near |x| = 1/sqrt(|alpha|); past it
    # the cubic-only model grows again as |x|^3 and stops describing a PA
    grid = np.linspace(0.0, 1.5, 20_001)
    real_peak = grid[np.argmax(np.abs(pa_nonlinearity(grid, -1.0 / 3.0)))]
    assert x_max(-1.0 / 3.0) == pytest.approx(1.0, rel=1e-12)
    assert real_peak == pytest.approx(1.0, abs=1e-3)
    # a complex coefficient enters through its magnitude only; for a mild
    # phase the true AM-curve peak sits within half a percent of the formula
    xm = x_max(ALPHA)
    assert xm == pytest.approx(np.sqrt(1.0 / (3.0 * abs(ALPHA))), rel=1e-12)
    complex_peak = grid[np.argmax(np.abs(pa_nonlinearity(grid, ALPHA)))]
    assert complex_peak == pytest.approx(xm, rel=7e-3)


def test_x_max_linear_stage_raises():
    with pytest.raises(SaturationUndefinedError):
        x_max(0.0)


def test_scenario2_gain_restores_peak():
    # real cubic coefficient -1/3 saturates at exactly 1 with |f| = 2/3 there
    assert scenario2_gain(-1.0 / 3.0) == pytest.approx(1.5, rel=1e-12)
    assert scenario2_gain(ALPHA) == pytest.approx(1.4944478185503975, rel=1e-12)
    gain = scenario2_gain(ALPHA)
    xm = x_max(ALPHA)
    assert gain * abs(pa_nonlinearity(xm, ALPHA)) == pytest.approx(xm, rel=1e-12)


def test_pa_stage_validation():
    with pytest.raises(ValueError):
        PaStage(alpha=1.5, gain=1.0)
    with pytest.raises(ValueError):
        PaStage(alpha=ALPHA, gain=0.0)
    # the range checks alone would let the non-finite values through
    for bad in (
        dict(alpha=float("nan")),
        dict(alpha=complex(0.1, float("nan"))),
        dict(alpha=complex(0.1, float("inf"))),
        dict(gain=float("nan")),
        dict(gain=float("inf")),
        # these would raise a TypeError that does not name the field
        dict(alpha="x"),
        dict(alpha=None),
        dict(gain="1"),
        # a bool is not a number here
        dict(alpha=True),
        dict(gain=True),
        # abs() would raise OverflowError for this alpha
        dict(alpha=complex(1.7e308, 1.7e308)),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PaStage(**{"alpha": ALPHA, "gain": 0.5, **bad})
    PaStage(alpha=ALPHA, gain=0.5)  # fine
    PaStage(alpha=np.complex64(ALPHA), gain=np.float32(0.5))  # numpy numbers too


def test_cascade_config_validation():
    with pytest.raises(ValueError):
        make_config([ALPHA], [1.0], input_power=0.0)
    with pytest.raises(ValueError):
        make_config([ALPHA], [1.0], input_power=1.5)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(), sigma=0.0, input_power=1.0,
                      reference_gain=1.0, epsilon=0.3)
    good = dict(stages=(PaStage(ALPHA, 1.0),), sigma=0.0, input_power=1.0,
                reference_gain=1.0, epsilon=0.3)
    for bad in (
        dict(sigma=float("nan")),
        dict(sigma=float("inf")),
        dict(reference_gain=float("nan")),
        dict(reference_gain=float("inf")),
        dict(input_power=float("nan")),
        dict(epsilon=1.0),
        # these would raise a TypeError that does not name the field
        dict(sigma="0.1"),
        dict(input_power=None),
        dict(epsilon="0.3"),
        dict(reference_gain=True),
        dict(stages=PaStage(ALPHA, 1.0)),
        # accepted before, and failed later in config.gains
        dict(stages=((0.1, 1.0),)),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            CascadeConfig(**{**good, **bad})
    CascadeConfig(**{**good, "stages": [PaStage(ALPHA, np.float64(1.0))],
                     "sigma": np.float32(0.1), "reference_gain": np.int64(1)})


def test_gains_feasible_predicate():
    outside = make_config([ALPHA] * 2, [0.75, 1.45])
    # the box is advisory: a chain outside it still runs
    x = unit_excitation(64, 8, 0.22, 16, 3)
    cascade_forward(x, outside, None)


def test_single_stage_matches_direct_evaluation():
    x = unit_excitation(128, 8, 0.22, 16, 5)
    noise = draw_noise(1, len(x), 11)
    config = make_config([ALPHA], [1.1], sigma=0.01)
    run = cascade_forward(x, config, noise)
    stage_in = x.samples + 0.01 * noise.stage_noise[0]
    expected = 1.1 * pa_nonlinearity(stage_in, ALPHA)
    np.testing.assert_allclose(run.output.samples, expected, rtol=1e-12)


def test_linear_chain_is_pure_gain():
    x = unit_excitation(128, 8, 0.22, 16, 5)
    config = make_config([0.0] * 3, [0.8, 1.2, 0.9])
    run = cascade_forward(x, config, None)
    np.testing.assert_allclose(
        run.output.samples, 0.8 * 1.2 * 0.9 * x.samples, rtol=1e-12
    )


def per_stage_forward(x, config, noise):
    """The forward pass run stage by stage: the noise added outside the
    kernel, then one sigma = 0 kernel call per stage.  Returns every stage
    output and the stages whose mean input power passes x_max^2."""
    samples, outputs, overdriven = x.samples, [], []
    for k, stage in enumerate(config.stages):
        stage_in = samples.copy()  # the kernel runs in place
        if config.sigma != 0.0:
            stage_in += config.sigma * noise.stage_noise[k]
        if stage.alpha != 0 and np.mean(np.abs(stage_in) ** 2) > x_max(stage.alpha) ** 2:
            overdriven.append(k + 1)
        samples = cascade_samples(
            stage_in, config.alphas[k : k + 1], config.gains[k : k + 1], 0.0
        )
        outputs.append(samples)
    return outputs, overdriven


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("stages", [1, 2, 3, 4, 5])
def test_single_pass_matches_the_per_stage_forward(monkeypatch, stages, sigma):
    """cascade_forward runs the chain in one kernel call, and its output and
    the overdriven stages it names are those of the stage-by-stage pass, as
    is each stage output g_k * f_k from the kernel's stage_f rows, the rows
    the residual resumes from.  It keeps no stage outputs: keep_stages=True
    raises before any kernel call.  Stage 2 alone is driven past its
    saturation input (mean input power 2.1 against x_max^2 = 1.005)."""
    x = unit_excitation(1100, 8, 0.22, 16, 5)  # 8,800 samples: two blocks
    noise = draw_noise(stages, len(x), 17) if sigma else None
    alphas = [ALPHA, ALPHA, 0.5 * ALPHA, ALPHA, 0.0][:stages]
    config = make_config(alphas, [3.0, 0.4, 1.0, 1.0, 1.0][:stages], sigma=sigma)
    expected, overdriven = per_stage_forward(x, config, noise)
    assert overdriven == ([2] if stages > 1 else [])

    calls = []
    kernel = cascade.cascade_samples

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cascade, "cascade_samples", counted)
    with pytest.raises(ValueError, match=r"cascade_samples\(\.\.\., stage_f=\.\.\.\)"):
        cascade_forward(x, config, noise, keep_stages=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = cascade_forward(x, config, noise, keep_stages=False)
    named = [(w.category, str(w.message).split(" driven")[0]) for w in caught]
    assert named == (
        [(ModelValidityWarning, f"stage(s) {overdriven}")] if overdriven else []
    )
    assert run.output.samples.tobytes() == expected[-1].tobytes()
    assert run.output.nominal_power == float(np.mean(np.abs(expected[-1]) ** 2))
    assert calls == [stages]

    stage_f = np.empty((stages, len(x)), dtype=complex)
    rows = None if noise is None else noise.stage_noise
    y = kernel(x.samples.copy(), config.alphas, config.gains, sigma, rows, stage_f=stage_f)
    assert y.tobytes() == expected[-1].tobytes()
    outputs = [np.multiply(g, f).tobytes() for g, f in zip(config.gains, stage_f)]
    assert outputs == [out.tobytes() for out in expected]


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("stages", [1, 2, 3, 4, 5])
def test_chain_runs_the_same_stage_by_stage_or_whole(monkeypatch, stages, sigma):
    """K one-stage advances, one K-stage advance and cascade_forward give the
    same output bytes and input energies, over two sample blocks.  At every
    depth k, output() warns naming just the overdriven stages among 1..k:
    stages 2 and 4 of this chain (mean input powers 1.7 and 1.4 at sigma =
    0, against x_max^2 = 1.005)."""
    x = unit_excitation(1100, 8, 0.22, 16, 5)
    noise = draw_noise(stages, len(x), 17) if sigma else None
    rows = None if noise is None else noise.stage_noise
    alphas = [ALPHA, ALPHA, 0.5 * ALPHA, ALPHA, 0.0][:stages]
    config = make_config(alphas, [3.0, 0.4, 6.0, 1.0, 1.0][:stages], sigma=sigma)
    overdriven = per_stage_forward(x, config, noise)[1]
    assert overdriven == [k for k in (2, 4) if k <= stages]

    stepped = Chain(x, config.alphas, config.gains, sigma)
    for k in range(1, stages + 1):
        stepped.advance(1, None if rows is None else rows[k - 1 : k])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stepped.output()
        among = [stage for stage in overdriven if stage <= k]
        named = [(w.category, str(w.message).split(" driven")[0]) for w in caught]
        assert named == ([(ModelValidityWarning, f"stage(s) {among}")] if among else [])

    made = []

    class Recorded(Chain):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cascade, "Chain", Recorded)
    whole = Chain(x, config.alphas, config.gains, sigma).advance(stages, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidityWarning)
        run = cascade_forward(x, config, noise)
    assert len(made) == 1 and made[0].depth == stages
    assert run.output.samples.tobytes() == stepped.samples.tobytes()
    for chain in (whole, made[0]):
        assert chain.samples.tobytes() == stepped.samples.tobytes()
        assert chain.input_energy.tobytes() == stepped.input_energy.tobytes()


def test_kernel_and_forward_temporaries_fit_one_output_and_workspace():
    """At 2^16 samples and five stages, neither a general-sigma kernel call
    on a fresh copy of its input nor a lean cascade_forward allocates more
    than its output, one CascadeWorkspace and a small slack: no (K, N) noise
    array is made.  The slack covers numpy's casting buffer (np.getbufsize() complex values)
    where the real |x|^2 multiplies a complex array."""
    x = unit_excitation(8192, 8, 0.22, 16, 5)
    noise = draw_noise(5, len(x), 3)
    config = make_config([ALPHA] * 5, [1.0] * 5, sigma=0.05)
    workspace = 6 * cascade.SAMPLE_BLOCK * 16 + cascade.SAMPLE_BLOCK * 8
    bound = len(x) * 16 + workspace + 256 * 1024
    for run in (
        lambda: cascade_samples(
            x.samples.copy(), config.alphas, config.gains, 0.05, noise.stage_noise
        ),
        lambda: cascade_forward(x, config, noise),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_residual_holds_only_its_documented_buffers():
    """At 2^16 samples and five stages, making a joint-unequal residual
    closure and calling it once allocates no more than its documented
    buffers (desired, y, the six tangent rows, stage_f and one
    CascadeWorkspace), the residual it returns and 256 KiB of slack (numpy's
    casting buffer, as above): the closure keeps no scaled copy of the
    (K, N) noise, which would add K*N*16 bytes (5 MiB)."""
    x = unit_excitation(8192, 8, 0.22, 16, 5)
    noise = draw_noise(5, len(x), 3)
    config = make_config([ALPHA] * 5, [1.0] * 5, sigma=0.05)
    workspace = 6 * cascade.SAMPLE_BLOCK * 16 + cascade.SAMPLE_BLOCK * 8
    rows = 2 + 6 + 5 + 1  # desired, y; tangents; stage_f; returned
    bound = rows * len(x) * 16 + workspace + 256 * 1024
    tracemalloc.start()
    try:
        residual = build_residual(x, config, noise, Mode.JOINT_UNEQUAL_GAINS)
        residual(np.array([0.5, 0.9, 1.1, 1.2, 0.8, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(cascade_forward, id="cascade_forward"),
        pytest.param(
            lambda x, config, noise: build_residual(x, config, noise, Mode.POWER_ONLY),
            id="build_residual",
        ),
    ],
)
def test_noise_shape_validation(run):
    x = unit_excitation(64, 8, 0.22, 16, 5)
    config = make_config([ALPHA] * 3, [1.0] * 3, sigma=0.1)
    with pytest.raises(ValueError, match="requires a NoiseRealization"):
        run(x, config, None)
    with pytest.raises(ValueError, match="stage rows"):
        run(x, config, draw_noise(2, len(x), 1))
    with pytest.raises(ValueError, match="noise length"):
        run(x, config, draw_noise(3, len(x) + 1, 1))


def test_cascade_samples_blocks_leave_every_bit(monkeypatch):
    """The kernel's sample blocks, uneven last block included, change no
    output bit and no tangent bit, on a workspace reused across calls."""
    x = unit_excitation(64, 8, 0.22, 16, 9)
    noise = draw_noise(3, len(x), 13)
    config = make_config([ALPHA, ALPHA * 0.5, ALPHA], [0.9, 1.2, 1.1], sigma=0.05)

    def run():
        dy = np.zeros((4, len(x)), dtype=complex)
        dy[0] = x.samples
        y = cascade_samples(
            x.samples.copy(), config.alphas, config.gains, 0.05, noise.stage_noise,
            (dy, [1, 2, 3]), SHARED_WORK,
        )
        return y, dy

    whole = run()
    monkeypatch.setattr(cascade, "SAMPLE_BLOCK", 100)
    blocked = run()
    np.testing.assert_array_equal(blocked[0], whole[0])
    np.testing.assert_array_equal(blocked[1], whole[1])


@st.composite
def chains(draw):
    """Per-stage alphas and gains, sigma, and a sample block size."""
    stages = draw(st.integers(1, 5))
    alphas = [
        draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        for _ in range(stages)
    ]
    gains = [draw(st.floats(0.7, 1.3)) for _ in range(stages)]
    sigma = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)))
    return np.array(alphas), np.array(gains), sigma, draw(st.integers(1, 300))


@settings(deadline=None)
@given(chains())
def test_cascade_samples_matches_scalar_loop(chain):
    """The kernel, in blocks of any size and on a reused workspace, against
    y <- g*f(y + sigma*w) run one sample at a time in Python complex
    arithmetic: equal to within 1e-12 of the largest output magnitude."""
    alphas, gains, sigma, block = chain
    x = unit_excitation(32, 8, 0.22, 16, 21).samples
    noise = draw_noise(len(gains), len(x), 22).stage_noise
    expected = np.empty_like(x)
    for n in range(len(x)):
        y = complex(x[n])
        for k in range(len(gains)):
            v = y + sigma * complex(noise[k, n])
            y = float(gains[k]) * (v + complex(alphas[k]) * v * abs(v) ** 2)
        expected[n] = y
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade, "SAMPLE_BLOCK", block)
        got = cascade_samples(x, alphas, gains, sigma, noise, workspace=SHARED_WORK)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cascade_samples_matches_cascade_forward():
    """Bit for bit, whether the kernel scales the noise or is handed it
    scaled, with sigma = 1."""
    x = unit_excitation(64, 8, 0.22, 16, 9)
    noise = draw_noise(2, len(x), 13)
    config = make_config([ALPHA, ALPHA * 0.5], [0.9, 1.2], sigma=0.05)
    run = cascade_forward(x, config, noise)
    bare = cascade_samples(
        x.samples.copy(), config.alphas, config.gains, 0.05, noise.stage_noise
    )
    prescaled = cascade_samples(
        x.samples.copy(), config.alphas, config.gains, 1.0, 0.05 * noise.stage_noise
    )
    np.testing.assert_array_equal(run.output.samples, bare)
    assert prescaled.tobytes() == bare.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_cascade_samples_runs_in_place(sigma):
    """The kernel runs the chain in place on its first argument and returns
    it.  Over 3 SAMPLE_BLOCKs and a ragged tail, the whole chain in one call
    and the chain run stage by stage on one buffer, each with stage_f, the
    tangents of p0 and every gain and the input energy, keep every bit of
    the plain recursion run on copies of the input, with the kernel's
    operand order and its per-block energy sums; the noise rows are left
    as they were.  A Chain advanced by 1 then 2 stages holds the bits of
    one advanced by 3, and leaves its input's samples as they were."""
    x = unit_excitation(3 * cascade.SAMPLE_BLOCK // 8 + 15, 8, 0.22, 16, 9)
    assert len(x) % cascade.SAMPLE_BLOCK and len(x) > 3 * cascade.SAMPLE_BLOCK
    noise = draw_noise(3, len(x), 13).stage_noise
    noise_bytes = noise.tobytes()
    alphas, gains = np.array([ALPHA, ALPHA * 0.5, ALPHA]), np.array([0.9, 1.2, 1.1])
    blocks = range(0, len(x), cascade.SAMPLE_BLOCK)

    y, dy = x.samples.copy(), np.zeros((4, len(x)), dtype=complex)
    dy[0] = x.samples
    want_y, want_f, want_energy = [], [], []
    for k, (alpha, g) in enumerate(zip(alphas, gains)):
        v = y + sigma * noise[k]
        x_sq = np.abs(v) ** 2
        want_energy.append(sum(x_sq[b : b + cascade.SAMPLE_BLOCK].sum() for b in blocks))
        f = pa_nonlinearity(v, alpha)
        ga, gb = g + 2.0 * g * alpha * x_sq, g * (alpha * v) * v
        dy[: k + 1] = dy[: k + 1] * ga + gb * np.conjugate(dy[: k + 1])
        dy[k + 1] += f
        y = g * f
        want_y.append(y.tobytes())
        want_f.append(f.tobytes())
    want = (want_y[-1], b"".join(want_f), dy.tobytes(), np.array(want_energy).tobytes())

    def fresh():
        tangent = np.zeros((4, len(x)), dtype=complex)
        tangent[0] = x.samples
        return x.samples.copy(), np.empty((3, len(x)), dtype=complex), tangent, np.zeros(3)

    whole, stage_f, tangent, energy = fresh()
    assert cascade_samples(
        whole, alphas, gains, sigma, noise, (tangent, [1, 2, 3]), SHARED_WORK,
        stage_f, energy,
    ) is whole
    assert (whole.tobytes(), stage_f.tobytes(), tangent.tobytes(), energy.tobytes()) == want

    stepped, stage_f, tangent, energy = fresh()
    for k in range(3):
        assert cascade_samples(
            stepped, alphas[k : k + 1], gains[k : k + 1], sigma, noise[k : k + 1],
            (tangent, [k + 1]), SHARED_WORK, stage_f[k : k + 1], energy[k : k + 1],
        ) is stepped
        assert stepped.tobytes() == want_y[k]
    assert (stepped.tobytes(), stage_f.tobytes(), tangent.tobytes(), energy.tobytes()) == want
    assert noise.tobytes() == noise_bytes

    x_bytes = x.samples.tobytes()
    split = Chain(x, alphas, gains, sigma).advance(1, noise[:1]).advance(2, noise[1:])
    one = Chain(x, alphas, gains, sigma).advance(3, noise)
    assert split.samples.tobytes() == one.samples.tobytes() == want_y[-1]
    assert split.input_energy.tobytes() == one.input_energy.tobytes() == want[3]
    assert x.samples.tobytes() == x_bytes


def test_equivalent_gain_is_product():
    config = make_config([ALPHA] * 3, [0.8, 1.2, 0.9])
    assert equivalent_pa(config).g_tilde == pytest.approx(0.8 * 1.2 * 0.9, rel=1e-12)


def test_equivalent_alpha_hand_formula():
    # alpha_tilde = a1 + a2 g1^2 + a3 (g1 g2)^2 for three stages
    gains = [0.8, 1.2, 0.9]
    alphas = [ALPHA, 0.5 * ALPHA, 0.25j * ALPHA]
    expected = alphas[0] + alphas[1] * 0.8**2 + alphas[2] * (0.8 * 1.2) ** 2
    alpha_tilde = equivalent_pa(make_config(alphas, gains)).alpha_tilde
    assert alpha_tilde == pytest.approx(expected, rel=1e-12)


def test_equivalent_sigma_single_stage_exact():
    # sqrt(g**2) rounds back to g exactly, so the closed form is sigma*g
    for gain in (0.01, 0.7, 1.3, 100.0):
        assert equivalent_sigma([gain], 0.25) == 0.25 * gain


def test_equivalent_sigma_two_stage_hand_formula():
    # noise entering stage 1 passes both gains, stage 2's only the last
    g1, g2, sigma = 0.8, 1.2, 0.1
    expected = sigma * np.sqrt((g1 * g2) ** 2 + g2**2)
    assert equivalent_sigma([g1, g2], sigma) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(gains=st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=6))
def test_equivalent_sigma_scales_linearly(gains):
    base = equivalent_sigma(gains, 1.0)
    assert equivalent_sigma(gains, 0.3) == pytest.approx(0.3 * base, rel=1e-9)


def test_equivalent_pa_bundles_closed_forms():
    config = make_config([ALPHA, 0.5 * ALPHA], [0.9, 1.2], sigma=0.02)
    eq = equivalent_pa(config)
    assert eq.g_tilde == pytest.approx(0.9 * 1.2, rel=1e-12)
    assert eq.alpha_tilde == pytest.approx(ALPHA + 0.5 * ALPHA * 0.9**2, rel=1e-12)
    assert eq.sigma_tilde == pytest.approx(equivalent_sigma([0.9, 1.2], 0.02), rel=1e-12)


def test_approx_accurate_for_weak_nonlinearity():
    x = unit_excitation(1024, 8, 0.22, 16, 42)
    config = make_config([-0.033 + 0.0033j] * 2, [1.0, 1.0])
    exact = cascade_forward(x, config, None).output
    approx = approx_cascade_forward(x, config)
    assert nmse(exact, approx) < -40.0


def test_approx_error_fades_at_forty_db_per_decade():
    """Truncation keeps only first-order cubic terms; the leading discarded
    terms carry alpha^2, so shrinking alpha tenfold buys ~40 dB of accuracy
    in energy, not 20."""
    x = unit_excitation(1024, 8, 0.22, 16, 42)
    errors = []
    for scale in (1.0, 0.1, 0.01):
        config = make_config([ALPHA * scale] * 3, [1.0] * 3)
        exact = cascade_forward(x, config, None).output
        errors.append(nmse(exact, approx_cascade_forward(x, config)))
    first_decade = errors[0] - errors[1]
    second_decade = errors[1] - errors[2]
    assert 35.0 < first_decade < 45.0
    assert 35.0 < second_decade < 45.0


def test_overdrive_warning():
    x = unit_excitation(128, 8, 0.22, 16, 21)
    config = make_config([ALPHA], [1.0])
    hot = Signal(3.0 * x.samples, x.oversampling, x.symbol_count, 9 * x.nominal_power)
    with pytest.warns(ModelValidityWarning):
        cascade_forward(hot, config, None)


def test_an_output_whose_power_overflows_is_an_error():
    """At 1e3 times unit drive the cubic lifts |y| to about 6e74 after three
    stages and past 1e154 after four, where |y|^2 overflows though every
    sample is finite: the fourth stage's output is a ValueError naming the
    depth, raised after the overdrive warning, with no numpy RuntimeWarning."""
    x = unit_excitation(128, 8, 0.22, 16, 21)
    hot = Signal(1e3 * x.samples, x.oversampling, x.symbol_count, 1e6 * x.nominal_power)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(ModelValidityWarning):
            output = cascade_forward(hot, make_config([ALPHA] * 3, [1.0] * 3)).output
        assert np.isfinite(output.nominal_power)
        with pytest.warns(ModelValidityWarning):
            with pytest.raises(ValueError, match="after stage 4 is inf"):
                cascade_forward(hot, make_config([ALPHA] * 4, [1.0] * 4))


def test_no_warning_at_normal_drive():
    x = unit_excitation(128, 8, 0.22, 16, 21)
    config = make_config([ALPHA] * 2, [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        cascade_forward(x, config, None)


def test_approx_noise_term_validation():
    x = unit_excitation(64, 8, 0.22, 16, 2)
    config = make_config([ALPHA], [1.0], sigma=0.1)
    with pytest.raises(ValueError):
        approx_cascade_forward(x, config, np.zeros(len(x) + 1, dtype=complex))


def test_approx_noise_term_adds_sigma_tilde_times_the_noise():
    x = unit_excitation(64, 8, 0.22, 16, 2)
    config = make_config([ALPHA, ALPHA], [0.9, 1.2], sigma=0.1)
    w = draw_noise(1, len(x), 3).stage_noise[0]
    noisy = approx_cascade_forward(x, config, w).samples
    expected = approx_cascade_forward(x, config).samples + equivalent_pa(config).sigma_tilde * w
    assert noisy.tobytes() == expected.tobytes()


def test_equivalent_sigma_rejects_a_negative_sigma():
    with pytest.raises(ValueError, match="sigma must be >= 0, got -1.0"):
        equivalent_sigma([1.0], -1.0)
