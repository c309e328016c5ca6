"""Signal-quality metrics: NMSE, PSD, ACLR, and AM/AM magnitude columns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SAMPLE_BLOCK, DegenerateSignalError, Signal

# Finite stand-in for -inf dB in serialized output.
FLOOR_DB = -300.0

# Channel width in symbol rates; matches the default shaping rolloff of 0.22
# (occupied bandwidth (1+rolloff) symbol rates).
DEFAULT_CHANNEL_BANDWIDTH = 1.22

# Welch segment of estimate_psd, in samples, and the overlap of neighbouring
# segments as a fraction of it.
PSD_SEGMENT_LENGTH = 1024
PSD_OVERLAP = 0.5

# Segments estimate_psd windows and transforms at a time.  It bounds the
# temporaries at about 3 MB whatever the signal length; all 1,023 segments of
# 524,288 samples at once took 33.5 MB.
_PSD_CHUNK = 64


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram PSD on a symmetric normalized frequency axis.

    frequencies are in symbol rates; power_density is in dB relative to the
    peak bin, with peak_density holding the absolute linear density of that
    peak so absolute levels can be reconstructed.
    """

    frequencies: np.ndarray
    power_density: np.ndarray
    peak_density: float

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def total_power(self) -> float:
        """Integrated absolute power (density times bin width)."""
        return float(
            np.sum(10.0 ** (self.power_density / 10.0)) * self.peak_density * self.bin_width
        )


@dataclass(frozen=True)
class MetricsReport:
    """One signal's quality summary against its reference.

    The AM/AM scatter is two equal-length columns: ``amam_input``, |x| of
    the chain's input, and ``amam_output``, |y| of this output, at the same
    decimated samples.  The input column depends only on the drive, so the
    reports of the chains at one drive may share one array; it is never
    written to.
    """

    nmse_db: float
    aclr_db: float
    psd: PsdEstimate
    amam_input: np.ndarray
    amam_output: np.ndarray


def nmse(desired: Signal, actual: Signal) -> float:
    """10*log10( sum|d - a|^2 / sum|d|^2 ); -inf when the residual is zero.

    Each sum squares one real buffer in place and adds it in one np.sum, so
    it has the bits of np.sum(np.abs(...) ** 2).  d - a is formed
    SAMPLE_BLOCK samples at a time and only its |.| is kept, in that
    buffer, so no full-length complex temporary is made.
    """
    d = desired.samples
    a = actual.samples
    if len(d) != len(a):
        raise ValueError(f"length mismatch: {len(d)} vs {len(a)}")
    power = np.abs(d)
    denom = float(np.sum(np.square(power, out=power)))
    if denom == 0.0:
        raise DegenerateSignalError("desired signal has zero energy")
    difference = np.empty(min(len(d), SAMPLE_BLOCK), dtype=complex)
    for start in range(0, len(d), SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        work = difference[: len(power[block])]
        np.abs(np.subtract(d[block], a[block], out=work), out=power[block])
    num = float(np.sum(np.square(power, out=power)))
    if num == 0.0:
        return float("-inf")
    return 10.0 * np.log10(num / denom)


def psd_span(oversampling: int) -> float:
    """Highest |f|, in symbol rates, on estimate_psd's symmetric axis.

    For the even segment that is the Nyquist frequency less one bin.
    """
    return oversampling * ((PSD_SEGMENT_LENGTH - 1) // 2) / PSD_SEGMENT_LENGTH


def aclr_span(channel_bandwidth: float) -> float:
    """Highest |f|, in symbol rates, that aclr's adjacent channels reach."""
    return 1.5 * channel_bandwidth


def estimate_psd(signal: Signal) -> PsdEstimate:
    """Welch PSD with a Hann window, axis in symbol rates, peak at 0 dB.

    The averaged periodogram of Welch (1967): segments of L =
    PSD_SEGMENT_LENGTH samples start every L - int(L*PSD_OVERLAP) samples,
    and only whole segments are used (no padding, no detrending).  Each is
    weighted by the periodic Hann window w[n] = 0.5 - 0.5*cos(2*pi*n/L);
    the two-sided |FFT|^2, averaged over segments, is scaled by
    1/(fs*sum(w^2)) with fs the oversampling, so it is a density per symbol
    rate.  The unpaired bin at minus the Nyquist frequency is dropped so the
    axis is symmetric about 0.
    """
    length = PSD_SEGMENT_LENGTH
    if length > len(signal):
        raise ValueError(
            f"the PSD segment of {length} samples exceeds signal "
            f"length {len(signal)}"
        )
    fs = float(signal.oversampling)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    step = length - int(length * PSD_OVERLAP)
    segments = np.lib.stride_tricks.sliding_window_view(signal.samples, length)[::step]
    total = np.zeros(length)
    for first in range(0, len(segments), _PSD_CHUNK):
        spectra = np.fft.fft(segments[first : first + _PSD_CHUNK] * window, axis=-1)
        # Added in segment order onto the running total, as np.mean adds.
        total = np.add.reduce(np.vstack([total, np.abs(spectra) ** 2]), axis=0)
    density = total / len(segments) / (fs * np.sum(window**2))
    # The even-length FFT axis carries -Nyquist without +Nyquist.
    freqs = np.fft.fftshift(np.fft.fftfreq(length, 1.0 / fs))[1:]
    density = np.fft.fftshift(density)[1:]
    peak = float(np.max(density))
    if peak == 0.0:
        raise DegenerateSignalError("signal has no spectral power")
    with np.errstate(divide="ignore"):
        density_db = 10.0 * np.log10(density / peak)
    return PsdEstimate(frequencies=freqs, power_density=density_db, peak_density=peak)


def aclr(psd: PsdEstimate, channel_bandwidth: float = DEFAULT_CHANNEL_BANDWIDTH) -> float:
    """Worst adjacent-channel to main-channel power ratio in dB.

    Main channel is [-B/2, B/2); the two adjacent channels are the same width
    centered at +-B.  Negative for well-behaved signals; -inf if the adjacent
    channels are empty.
    """
    b = channel_bandwidth
    f = psd.frequencies
    needed = aclr_span(b)
    if f[-1] < needed:
        raise ValueError(
            f"PSD spans only |f| <= {f[-1]:.3g} symbol rates; ACLR needs {needed:.3g}"
        )
    linear = 10.0 ** (psd.power_density / 10.0)
    main = float(np.sum(linear[(f >= -b / 2) & (f < b / 2)]))
    upper = float(np.sum(linear[(f >= b / 2) & (f < 3 * b / 2)]))
    lower = float(np.sum(linear[(f >= -3 * b / 2) & (f < -b / 2)]))
    worst = max(upper, lower)
    if worst == 0.0:
        return float("-inf")
    return 10.0 * np.log10(worst / main)


def amam_magnitudes(signal: Signal, decimate: int = 1) -> np.ndarray:
    """|s_n| at every decimate-th sample: one column of an AM/AM scatter."""
    if decimate < 1:
        raise ValueError(f"decimate must be >= 1, got {decimate}")
    return np.abs(signal.samples[::decimate])


def report(
    desired: Signal,
    actual: Signal,
    amam_input: np.ndarray,
    channel_bandwidth: float,
    amam_decimate: int,
) -> MetricsReport:
    """Bundle NMSE, ACLR, PSD, and AM/AM for one output signal.

    The PSD is estimate_psd's (PSD_SEGMENT_LENGTH-sample Hann segments
    overlapping by PSD_OVERLAP); ACLR is taken over channels of
    ``channel_bandwidth`` symbol rates.  ``amam_input`` is the AM/AM input
    column, amam_magnitudes(x0, amam_decimate) of the chain's input x0: the
    report keeps that array itself, not a copy, and pairs it with the
    output's column at the same samples.  ``amam_decimate`` thins the point
    cloud for plotting.
    """
    amam_output = amam_magnitudes(actual, amam_decimate)
    if len(amam_input) != len(amam_output):
        raise ValueError(
            f"AM/AM input column of {len(amam_input)} points for an output of "
            f"{len(amam_output)}"
        )
    psd = estimate_psd(actual)
    return MetricsReport(
        nmse_db=nmse(desired, actual),
        aclr_db=aclr(psd, channel_bandwidth),
        psd=psd,
        amam_input=amam_input,
        amam_output=amam_output,
    )
