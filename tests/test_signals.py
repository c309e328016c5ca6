import tracemalloc

import numpy as np
import pytest

from pachain.signals import (
    Signal,
    draw_noise,
    generate_qam16,
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
    """One row of N samples peaks at 1.5 row lengths traced; drawing the
    real and imaginary parts and combining them took 3.0."""
    length = 1 << 18
    tracemalloc.start()
    try:
        draw_noise(1, length, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * length) < 2.0
