import tracemalloc
import weakref

import numpy as np
import pytest

from pachain.signals import (
    SAMPLE_BLOCK,
    Signal,
    draw_noise,
    generate_qam16,
    noise_rows,
    pulse_shape,
    rrc_taps,
    scale_amplitude,
    unit_excitation,
)

SEED = 42


def test_qam16_alphabet():
    symbols = generate_qam16(2000, SEED)
    assert set(np.unique(symbols.real)) == {-3.0, -1.0, 1.0, 3.0}
    assert set(np.unique(symbols.imag)) == {-3.0, -1.0, 1.0, 3.0}


def test_qam16_needs_a_symbol():
    with pytest.raises(ValueError, match="symbol_count must be >= 1, got 0"):
        generate_qam16(0, 1)


def test_qam16_deterministic():
    np.testing.assert_array_equal(generate_qam16(100, SEED), generate_qam16(100, SEED))
    assert not np.array_equal(generate_qam16(100, SEED), generate_qam16(100, SEED + 1))


def test_qam16_second_moment():
    symbols = generate_qam16(200_000, SEED)
    # E|s|^2 = 10 for the raw {+-1, +-3} grid
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(10.0, rel=0.01)


def test_rrc_taps_unit_energy_and_symmetry():
    taps = rrc_taps(8, 0.22, 16)
    assert taps.size == 16 * 8 + 1
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)
    assert np.argmax(taps) == taps.size // 2


def test_rrc_taps_singularities_finite():
    # rolloff 0.25 at oversampling 4 puts samples exactly on |4*beta*t| = 1
    taps = rrc_taps(4, 0.25, 8)
    assert np.all(np.isfinite(taps))


@pytest.mark.parametrize(
    "args, name",
    [((8, 0.0, 16), "rolloff"), ((0, 0.22, 16), "oversampling"), ((8, 0.22, 3), "span_symbols")],
)
def test_rrc_taps_rejects_a_bad_parameter_by_name(args, name):
    """A zero roll-off would divide by zero and a zero oversampling give nan
    taps; each is a ValueError naming its parameter."""
    with pytest.raises(ValueError, match=name):
        rrc_taps(*args)


def _rrc_taps_per_tap(oversampling, rolloff, span_symbols):
    """The root-raised-cosine taps, one tap at a time in numpy scalars."""
    n_taps = span_symbols * oversampling + 1
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / oversampling
    taps = np.empty(n_taps)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - rolloff + 4.0 * rolloff / np.pi
        elif abs(abs(4.0 * rolloff * ti) - 1.0) < 1e-9:
            taps[i] = (rolloff / np.sqrt(2.0)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * rolloff))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * rolloff))
            )
        else:
            num = np.sin(np.pi * ti * (1 - rolloff)) + 4 * rolloff * ti * np.cos(
                np.pi * ti * (1 + rolloff)
            )
            taps[i] = num / (np.pi * ti * (1 - (4 * rolloff * ti) ** 2))
    return taps / np.sqrt(np.sum(taps**2))


@pytest.mark.parametrize("oversampling", range(2, 17))
def test_rrc_taps_have_the_bits_of_the_per_tap_formula(oversampling):
    """Every tap, the singular ones included: the rolloffs o/(4j) put taps
    on |4*beta*t| = 1."""
    singular = [oversampling / (4 * j) for j in range(1, 4 * oversampling)]
    rolloffs = [0.05, 0.22, 0.35, 1.0, *(r for r in singular if r <= 1)]
    for rolloff in rolloffs:
        for span in (4, 9, 15, 20):
            expected = _rrc_taps_per_tap(oversampling, rolloff, span)
            assert rrc_taps(oversampling, rolloff, span).tobytes() == expected.tobytes(), (
                rolloff, span,
            )


def test_pulse_shape_length_and_validation():
    symbols = generate_qam16(64, SEED) / np.sqrt(10.0)
    shaped = pulse_shape(symbols, 4, 0.25, 8)
    assert len(shaped) == 64 * 4
    assert shaped.oversampling == 4
    with pytest.raises(ValueError):
        pulse_shape(symbols, 1, 0.25, 8)
    with pytest.raises(ValueError):
        pulse_shape(symbols, 4, 0.0, 8)
    with pytest.raises(ValueError):
        pulse_shape(symbols, 4, 1.5, 8)
    with pytest.raises(ValueError):
        pulse_shape(symbols, 4, 0.25, 3)


def test_scale_amplitude_scales_power_quadratically():
    rng = np.random.default_rng(SEED)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    signal = Signal(samples, 4, 16, float(np.mean(np.abs(samples) ** 2)))
    doubled = scale_amplitude(signal, 2.0)
    assert doubled.mean_power == pytest.approx(4 * signal.mean_power, rel=1e-12)


def test_scale_amplitude_by_one_returns_its_input():
    """Multiplying by 1.0 changes no bit, so no copy is made."""
    signal = unit_excitation(64, 8, 0.22, 16, SEED)
    assert scale_amplitude(signal, 1.0) is signal
    halved = scale_amplitude(signal, 0.5)
    assert halved.samples.tobytes() == (signal.samples * 0.5).tobytes()


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 8), dtype=complex), 4, 4, 0.0)
    with pytest.raises(ValueError):
        Signal(np.zeros(15, dtype=complex), 4, 4, 0.0)


def test_unit_excitation_peak_calibration():
    """The unit drive is normalized so its largest sample magnitude is one.

    Drive power then means "squared peak relative to saturation", which is
    what makes full drive (p0 = 1) just reach the amplifier's usable range.
    """
    x = unit_excitation(4096, 8, 0.22, 16, SEED)
    peak = float(np.max(np.abs(x.samples)))
    assert peak == pytest.approx(1.0, abs=1e-12)
    assert peak <= 1.0 + 1e-12
    # shaped 16-QAM has a high peak-to-average ratio; pin the average
    assert x.mean_power == pytest.approx(0.2234567525673562, rel=1e-9)


def test_unit_excitation_deterministic():
    a = unit_excitation(256, 8, 0.22, 16, SEED)
    b = unit_excitation(256, 8, 0.22, 16, SEED)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = unit_excitation(256, 8, 0.22, 16, SEED + 1)
    assert not np.array_equal(a.samples, c.samples)


def test_draw_noise_unit_variance():
    noise = draw_noise(2, 100_000, SEED)
    power = np.mean(np.abs(noise.stage_noise) ** 2)
    assert power == pytest.approx(1.0, rel=0.02)
    assert np.abs(np.mean(noise.stage_noise)) < 0.01


def test_draw_noise_needs_a_stage_and_a_sample():
    with pytest.raises(ValueError, match="stages must be >= 1, got 0"):
        draw_noise(0, 8, 1)
    with pytest.raises(ValueError, match="length must be >= 1, got 0"):
        draw_noise(1, 0, 1)


def test_draw_noise_stage_rows_are_prefix_stable():
    """Adding stages must not change the noise earlier stages see."""
    short = draw_noise(2, 512, SEED)
    long = draw_noise(5, 512, SEED)
    np.testing.assert_array_equal(short.stage_noise, long.stage_noise[:2])


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_draw_noise_rows_equal_the_complex_expression(seed):
    """Rows written part by part in place keep the bits of the expression."""
    rng = np.random.default_rng(seed)
    noise = draw_noise(3, 4099, seed)
    for row in noise.stage_noise:
        re = rng.standard_normal(4099)
        im = rng.standard_normal(4099)
        assert row.tobytes() == ((re + 1j * im) * np.sqrt(0.5)).tobytes()


def test_draw_noise_holds_one_real_draw_beyond_its_rows():
    """One row of N samples peaks at 1.02 row lengths traced: the row and
    one SAMPLE_BLOCK of draws.  A whole real draw per part took 1.5, and
    drawing both parts and then combining them 3.0."""
    length = 1 << 18
    tracemalloc.start()
    try:
        draw_noise(1, length, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * length) < 1.1


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("length", [1, SAMPLE_BLOCK, 3 * SAMPLE_BLOCK + 120])
def test_noise_rows_have_the_bits_of_the_one_shot_draws(seed, length):
    """The stream's rows, drawn a SAMPLE_BLOCK at a time and part by part,
    are bit for bit those of one standard_normal(N) draw for the real part
    and one for the imaginary part, row after row, whether they come from
    noise_rows over fresh rows or from draw_noise."""
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(3):
        re = rng.standard_normal(length)
        im = rng.standard_normal(length)
        expected.append(((re + 1j * im) * np.sqrt(0.5)).tobytes())
    fresh = (np.empty(length, dtype=complex) for _ in range(3))
    assert [row.tobytes() for row in noise_rows(seed, fresh)] == expected
    assert [row.tobytes() for row in draw_noise(3, length, seed).stage_noise] == expected


def test_noise_rows_keep_no_row_they_handed_on():
    """A row made afresh for noise_rows is freed once its caller drops it,
    although the stream goes on."""
    rows = noise_rows(SEED, (np.empty(64, dtype=complex) for _ in range(3)))
    handed = weakref.ref(next(rows))
    assert handed() is None
    assert len(next(rows)) == 64
