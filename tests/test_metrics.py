import tracemalloc

import numpy as np
import pytest

from pachain import metrics
from pachain.cascade import SAMPLE_BLOCK
from pachain.metrics import (
    DEFAULT_CHANNEL_BANDWIDTH,
    FLOOR_DB,
    PSD_OVERLAP,
    PSD_SEGMENT_LENGTH,
    aclr,
    amam_magnitudes,
    estimate_psd,
    nmse,
    report,
)
from pachain.signals import DegenerateSignalError, Signal, unit_excitation


def make_signal(samples, oversampling=8):
    samples = np.asarray(samples, dtype=complex)
    return Signal(
        samples, oversampling, len(samples) // oversampling,
        float(np.mean(np.abs(samples) ** 2)),
    )


def white_noise(n, seed, oversampling=8):
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return make_signal(w, oversampling)


def test_nmse_perfect_match_is_minus_infinity():
    x = white_noise(1024, 0)
    assert nmse(x, x) == float("-inf")


def test_nmse_known_offset():
    rng = np.random.default_rng(1)
    d = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    offset = 0.01 + 0.02j
    desired = make_signal(d)
    actual = make_signal(d + offset)
    expected = 10 * np.log10(len(d) * abs(offset) ** 2 / np.sum(np.abs(d) ** 2))
    assert nmse(desired, actual) == pytest.approx(expected, abs=1e-12)


def test_nmse_has_the_bits_of_the_plain_expression():
    """Blockwise differences and in-place squares add the same values in the
    same order as the full-length expression, also over a partial block."""
    length = 3 * SAMPLE_BLOCK + 120
    d, a = white_noise(length, 10).samples, white_noise(length, 11).samples
    a = d + 0.01 * a
    expected = 10 * np.log10(np.sum(np.abs(d - a) ** 2) / np.sum(np.abs(d) ** 2))
    assert nmse(make_signal(d), make_signal(a)) == expected


def test_nmse_zero_reference_raises():
    zero = make_signal(np.zeros(64))
    other = white_noise(64, 2)
    with pytest.raises(DegenerateSignalError):
        nmse(zero, other)


def test_nmse_scale_invariant_spot_check():
    d = white_noise(2048, 3)
    a = make_signal(d.samples + 0.05 * white_noise(2048, 4).samples)
    c = 2.7 * np.exp(0.4j)
    scaled_d = make_signal(c * d.samples)
    scaled_a = make_signal(c * a.samples)
    assert nmse(scaled_d, scaled_a) == pytest.approx(nmse(d, a), abs=1e-10)


def test_psd_axis_is_symmetric_and_in_symbol_rates():
    x = white_noise(32768, 5)
    psd = estimate_psd(x)
    assert psd.frequencies[0] == pytest.approx(-psd.frequencies[-1], abs=1e-12)
    assert len(psd.frequencies) == 1023  # even FFT: unpaired -Nyquist bin dropped
    assert psd.frequencies[-1] < 4.0  # half the oversampling factor
    assert np.all(np.diff(psd.frequencies) > 0)


def test_psd_peak_normalization():
    x = white_noise(32768, 6)
    psd = estimate_psd(x)
    assert np.max(psd.power_density) == pytest.approx(0.0, abs=1e-12)
    assert psd.peak_density > 0


def test_psd_total_power_parseval():
    """Integrated density must recover the time-domain mean power (2%)."""
    x = unit_excitation(4096, 8, 0.22, 16, 7)
    psd = estimate_psd(x)
    assert psd.total_power == pytest.approx(x.mean_power, rel=0.02)


def test_psd_white_noise_is_flat():
    x = white_noise(1 << 19, 8)
    psd = estimate_psd(x)
    # every bin within a few dB of the peak once enough segments average
    assert np.min(psd.power_density) > -3.0


@pytest.mark.parametrize("length", [4096, 5000, 524288])
def test_psd_matches_scipy_welch(length):
    """The numpy Welch estimate against scipy's, two-sided, Hann-windowed,
    undetrended density: the same axis and every bin within 1e-12 relative.
    5,000 samples leave a partial trailing segment, which both drop."""
    from scipy.signal import welch

    x = white_noise(length, 12)
    freqs, density = welch(
        x.samples, fs=float(x.oversampling), window="hann",
        nperseg=PSD_SEGMENT_LENGTH, noverlap=int(PSD_SEGMENT_LENGTH * PSD_OVERLAP),
        detrend=False, return_onesided=False, scaling="density",
    )
    expected = np.fft.fftshift(density)[1:]
    psd = estimate_psd(x)
    np.testing.assert_array_equal(psd.frequencies, np.fft.fftshift(freqs)[1:])
    got = 10.0 ** (psd.power_density / 10.0) * psd.peak_density
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert psd.peak_density == pytest.approx(np.max(expected), rel=1e-12)


@pytest.mark.parametrize("segments", [1, metrics._PSD_CHUNK, 2 * metrics._PSD_CHUNK + 3])
def test_psd_chunks_add_up_to_the_one_shot_mean(segments):
    """Summing the segments' periodograms chunk by chunk gives, bit for bit,
    the mean over all segments at once, also with a partial last chunk."""
    step = PSD_SEGMENT_LENGTH - int(PSD_SEGMENT_LENGTH * PSD_OVERLAP)
    x = white_noise(PSD_SEGMENT_LENGTH + (segments - 1) * step, 5)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(PSD_SEGMENT_LENGTH) / PSD_SEGMENT_LENGTH)
    all_at_once = np.lib.stride_tricks.sliding_window_view(x.samples, PSD_SEGMENT_LENGTH)[::step]
    spectra = np.fft.fft(all_at_once * window, axis=-1)
    density = np.mean(np.abs(spectra) ** 2, axis=0) / (x.oversampling * np.sum(window**2))
    density = np.fft.fftshift(density)[1:]
    psd = estimate_psd(x)
    assert psd.peak_density == np.max(density)
    np.testing.assert_array_equal(psd.power_density, 10.0 * np.log10(density / np.max(density)))


def test_psd_temporaries_do_not_grow_with_the_signal():
    """At 524,288 samples (8.4 MB) the estimate holds a few MB of
    temporaries; windowing every segment at once held 33.5 MB."""
    x = white_noise(1 << 19, 6)
    tracemalloc.start()
    try:
        estimate_psd(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_aclr_white_noise_near_zero():
    x = white_noise(200_000, 9)
    assert abs(aclr(estimate_psd(x))) < 0.5


def test_aclr_shaped_signal_is_strongly_negative():
    x = unit_excitation(4096, 8, 0.22, 16, 10)
    value = aclr(estimate_psd(x))
    assert value < -30.0


def test_aclr_gain_invariant_spot_check():
    x = unit_excitation(2048, 8, 0.22, 16, 11)
    scaled = make_signal(7.3 * x.samples)
    assert aclr(estimate_psd(scaled)) == pytest.approx(aclr(estimate_psd(x)), abs=1e-10)


def test_aclr_needs_enough_spectrum():
    x = white_noise(8192, 12, oversampling=2)
    psd = estimate_psd(x)
    with pytest.raises(ValueError):
        aclr(psd)  # fs = 2 cannot cover 1.5 channel bandwidths


def test_aclr_with_an_empty_main_channel_is_degenerate():
    """Power in the adjacent channels over an empty main channel has no
    ratio: a DegenerateSignalError, not a ZeroDivisionError."""
    frequencies = np.linspace(-4.0, 4.0, 1023)
    density = np.where(np.abs(frequencies) < DEFAULT_CHANNEL_BANDWIDTH / 2, -np.inf, 0.0)
    psd = metrics.PsdEstimate(frequencies, density, peak_density=1.0)
    with pytest.raises(DegenerateSignalError, match="main channel"):
        aclr(psd)


def test_aclr_bandwidth_parameter():
    x = unit_excitation(2048, 8, 0.22, 16, 13)
    psd = estimate_psd(x)
    narrow = aclr(psd, channel_bandwidth=0.8)
    default = aclr(psd, channel_bandwidth=DEFAULT_CHANNEL_BANDWIDTH)
    # a channel narrower than the occupied band leaks more into the adjacents
    assert narrow > default


def test_amam_points_shape_and_decimation():
    """An AM/AM point is the pair of |x| and |y| at one sample: two columns
    of one length, thinned alike."""
    x = unit_excitation(256, 8, 0.22, 16, 14)
    y = make_signal(0.9 * x.samples)
    inputs, outputs = amam_magnitudes(x), amam_magnitudes(y)
    assert inputs.shape == outputs.shape == (len(x),)
    np.testing.assert_allclose(inputs, np.abs(x.samples))
    np.testing.assert_allclose(outputs, 0.9 * np.abs(x.samples), rtol=1e-12)
    thinned = amam_magnitudes(x, decimate=8)
    assert thinned.tobytes() == inputs[::8].tobytes()
    assert thinned.shape == (len(x) // 8,)
    with pytest.raises(ValueError, match="decimate"):
        amam_magnitudes(x, decimate=0)


def test_report_bundles_everything():
    x = unit_excitation(1024, 8, 0.22, 16, 15)
    y = make_signal(x.samples + 0.01 * white_noise(len(x), 16).samples)
    inputs = amam_magnitudes(x, 4)
    bundle = report(x, y, inputs, DEFAULT_CHANNEL_BANDWIDTH, 4)
    assert bundle.nmse_db < -30
    assert bundle.aclr_db < -20
    assert bundle.amam_input is inputs
    assert bundle.amam_output.tobytes() == np.abs(y.samples[::4]).tobytes()
    assert bundle.psd.frequencies.size == bundle.psd.power_density.size
    assert FLOOR_DB < bundle.nmse_db
    with pytest.raises(ValueError, match="AM/AM input column"):
        report(x, y, inputs, DEFAULT_CHANNEL_BANDWIDTH, 8)


def test_nmse_needs_signals_of_one_length():
    with pytest.raises(ValueError, match="length mismatch: 64 vs 128"):
        nmse(white_noise(64, 5), white_noise(128, 6))


def test_psd_needs_one_whole_segment():
    with pytest.raises(ValueError, match="exceeds signal length 512"):
        estimate_psd(white_noise(512, 7))


def test_psd_of_a_silent_signal_raises():
    with pytest.raises(DegenerateSignalError, match="no spectral power"):
        estimate_psd(make_signal(np.zeros(4096)))
