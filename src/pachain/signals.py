"""Baseband excitation generation, pulse shaping, and noise realizations.

The excitation pipeline is 16-QAM symbols -> zero-insertion upsampling ->
root-raised-cosine shaping.  The shaped signal is calibrated so that its peak
amplitude is exactly 1: driving it at input power ``p0 <= 1`` then keeps every
sample inside the amplifier's invertible region (the cubic model's output
magnitude peaks at an input magnitude of about 1 for the default nonlinearity
coefficient).  ``p0`` is therefore a drive level relative to saturation, not
the mean sample power; the mean power of the unit-drive excitation is set by
the constellation and shaping (about 0.22 for the defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Iterator

import numpy as np

# Samples per block of the loops that walk a signal a block at a time
# (cascade.cascade_samples, metrics.nmse, noise_rows), so their temporaries
# are one block long, not one signal.  A block's arrays, tangent rows
# included, stay in a core's cache and are not page-faulted in afresh on
# every call.  On a 2-core Xeon (2 MiB L2 per core), five stages with six
# tangent rows over 32,768 samples took 10.6 ms in one pass and 4.8 ms in
# blocks of 8,192; one plain stage over 524,288 samples took 14.9 and 4.6 ms.
SAMPLE_BLOCK = 8192

QAM16_LEVELS = np.array([-3, -1, 1, 3], dtype=float)
# Mean energy of the unnormalized {+-1, +-3}^2 constellation: (2*1 + 2*9)/4
# per axis, times two axes.
QAM16_SECOND_MOMENT = 10.0


class DegenerateSignalError(ValueError):
    """Raised when an operation needs signal energy and there is none."""


@dataclass(frozen=True)
class Signal:
    """Complex baseband samples plus the metadata needed to interpret them.

    ``nominal_power`` is the mean of |sample|^2 and is kept consistent by the
    operations in this module.

    No code writes a signal's samples in place while the signal is in use:
    every operation returns new samples or the same Signal, so two signals
    may share one array (see scale_amplitude).  The one buffer written in
    place, a cascade.Chain's copy of its input's samples, is wrapped by
    Chain.output in a Signal that holds until the chain advances again.
    """

    samples: np.ndarray
    oversampling: int
    symbol_count: int
    nominal_power: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if len(samples) != self.symbol_count * self.oversampling:
            raise ValueError(
                f"length {len(samples)} != symbol_count*oversampling "
                f"({self.symbol_count}*{self.oversampling})"
            )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean_power(self) -> float:
        return mean_power_of(self.samples)


def mean_power_of(samples: np.ndarray) -> float:
    """np.mean(np.abs(samples) ** 2) with the same bits, from one real buffer
    squared in place."""
    power = np.abs(samples)
    return float(np.mean(np.square(power, out=power)))


@dataclass(frozen=True)
class NoiseRealization:
    """Per-stage unit-variance complex noise, drawn by draw_noise."""

    stage_noise: np.ndarray  # shape (stages, length)

    @property
    def stages(self) -> int:
        return self.stage_noise.shape[0]

    @property
    def length(self) -> int:
        return self.stage_noise.shape[1]


def generate_qam16(symbol_count: int, seed: int) -> np.ndarray:
    """Draw uniform 16-QAM symbols from {+-1, +-3} x {+-1, +-3}.

    The raw constellation is returned (second moment 10); scaling to unit
    average power happens in unit_excitation.
    """
    if symbol_count < 1:
        raise ValueError(f"symbol_count must be >= 1, got {symbol_count}")
    rng = np.random.default_rng(seed)
    re = QAM16_LEVELS[rng.integers(0, 4, symbol_count)]
    im = QAM16_LEVELS[rng.integers(0, 4, symbol_count)]
    return re + 1j * im


def rrc_taps(oversampling: int, rolloff: float, span_symbols: int) -> np.ndarray:
    """Unit-energy root-raised-cosine filter, span_symbols*oversampling+1 taps.

    oversampling must be >= 2, rolloff in (0, 1] and span_symbols >= 4.
    """
    if oversampling < 2:
        raise ValueError("oversampling must be >= 2 (adjacent channel would alias)")
    if not 0 < rolloff <= 1:
        raise ValueError(f"rolloff must be in (0, 1], got {rolloff}")
    if span_symbols < 4:
        raise ValueError(f"span_symbols must be >= 4, got {span_symbols}")
    n_taps = span_symbols * oversampling + 1
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / oversampling
    b = rolloff
    # float_power squares through C pow, whose bits the taps keep
    # (tests/test_signals.py); an array's ** 2 is x*x, which can round 1 ulp apart.
    with np.errstate(divide="ignore", invalid="ignore"):
        taps = (np.sin(np.pi * t * (1 - b)) + 4 * b * t * np.cos(np.pi * t * (1 + b))) / (
            np.pi * t * (1 - np.float_power(4 * b * t, 2.0))
        )
    taps[np.abs(t) < 1e-12] = 1.0 - b + 4.0 * b / np.pi
    # Removable singularity at t = +-1/(4*rolloff).
    taps[np.abs(np.abs(4.0 * b * t) - 1.0) < 1e-9] = (b / np.sqrt(2.0)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * b)) + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
    )
    return taps / np.sqrt(np.sum(taps**2))


def pulse_shape(
    symbols: np.ndarray,
    oversampling: int,
    rolloff: float,
    span_symbols: int,
) -> Signal:
    """Upsample by zero insertion and convolve with a unit-energy RRC filter.

    Output length is symbol_count * oversampling ("same" alignment, so the
    filter transient is split between both ends).  The taps are built first,
    so rrc_taps rejects a bad parameter before anything is allocated.
    """
    taps = rrc_taps(oversampling, rolloff, span_symbols)
    symbols = np.asarray(symbols, dtype=complex)
    upsampled = np.zeros(len(symbols) * oversampling, dtype=complex)
    upsampled[::oversampling] = symbols
    shaped = np.convolve(upsampled, taps, mode="same")
    return Signal(
        samples=shaped,
        oversampling=oversampling,
        symbol_count=len(symbols),
        nominal_power=mean_power_of(shaped),
    )


def scale_amplitude(signal: Signal, factor: float) -> Signal:
    """Multiply every sample by a real factor, updating nominal_power.

    A factor of exactly 1.0 returns ``signal`` itself: multiplying by 1.0
    changes no bit, and no code writes a signal's samples in place, so a
    unit drive or a unit gain costs no full-length copy.
    """
    if factor == 1.0:
        return signal
    return replace(
        signal,
        samples=signal.samples * factor,
        nominal_power=signal.nominal_power * factor**2,
    )


def unit_excitation(
    symbol_count: int,
    oversampling: int,
    rolloff: float,
    span_symbols: int,
    seed: int,
) -> Signal:
    """Shaped 16-QAM excitation calibrated to unit drive (peak amplitude 1).

    The constellation is first scaled to unit average power, shaped, and the
    result divided by its own peak magnitude.  Scaling this signal by sqrt(p0)
    gives the input at drive power p0, with peaks at sqrt(p0) <= 1.
    """
    symbols = generate_qam16(symbol_count, seed) / np.sqrt(QAM16_SECOND_MOMENT)
    shaped = pulse_shape(symbols, oversampling, rolloff, span_symbols)
    peak = float(np.max(np.abs(shaped.samples)))
    if peak == 0.0:
        raise DegenerateSignalError("excitation has zero peak amplitude")
    return scale_amplitude(shaped, 1.0 / peak)


def _fill_noise_row(rng: np.random.Generator, row: np.ndarray) -> np.ndarray:
    """Write the generator's next row into ``row``: its real part, then its
    imaginary part, each sqrt(0.5) times standard-normal draws taken
    SAMPLE_BLOCK at a time into one block-long buffer."""
    draw = np.empty(min(len(row), SAMPLE_BLOCK))
    for part in (row.real, row.imag):
        for start in range(0, len(row), SAMPLE_BLOCK):
            block = part[start : start + SAMPLE_BLOCK]
            np.multiply(rng.standard_normal(out=draw[: len(block)]), np.sqrt(0.5), out=block)
    return row


def noise_rows(seed: int, rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Fill each given row with the next row of a noise stream, then hand it on.

    The stream of a seed is circularly-symmetric complex Gaussian noise of
    unit variance per sample: row k is (re + 1j*im) * sqrt(0.5) for the k-th
    pair of standard-normal draws of the row's length.  Its real and
    imaginary parts are written in place, one after the other, each drawn a
    SAMPLE_BLOCK at a time: the generator gives the same values in blocks as
    in one draw, so a row has the bits of the one-shot pair with one block
    of draws as the only temporary.  A row is filled when it is asked for.
    The iterator keeps no reference to a row it has handed on, so a row
    that ``rows`` makes afresh is freed as soon as its caller drops it;
    ``rows`` may also hand out one buffer again and again.
    """
    return map(partial(_fill_noise_row, np.random.default_rng(seed)), rows)


def draw_noise(stages: int, length: int, seed: int) -> NoiseRealization:
    """The first ``stages`` rows of the seed's noise stream (noise_rows).

    One independent row per stage, deterministic per seed; row k does not
    depend on how many rows are drawn, so the first k rows of a (stages >= k)
    draw equal the rows of a k-stage draw with the same seed.  The rows are
    filled in place, so the draw holds the (stages, length) array and one
    SAMPLE_BLOCK of draws.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    noise = np.empty((stages, length), dtype=complex)
    for _ in noise_rows(seed, noise):
        pass  # each row is filled in place
    return NoiseRealization(stage_noise=noise)
