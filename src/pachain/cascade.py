"""Cascaded third-order power-amplifier model and its one-shot equivalent.

A single stage maps x -> g * f(x) with f(x) = x + alpha*x*|x|^2; a cascade
applies K such stages with additive Gaussian noise injected before each one.
The whole chain is also summarized by an equivalent single PA:

    g_tilde     = prod_k g_k
    alpha_tilde = alpha_1 + sum_{k>=2} alpha_k * prod_{q<k} g_q^2
    sigma_tilde = sigma * sqrt( sum_k prod_{q>=k} g_q^2 )

obtained by discarding terms of second and higher order in the alphas, so the
equivalent model's error shrinks quadratically (in amplitude) as the alphas
shrink.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from numbers import Complex, Integral, Real
from typing import Sequence

import numpy as np

from .signals import SAMPLE_BLOCK, NoiseRealization, Signal, mean_power_of

# |alpha| beyond this is outside the cubic model's sensible range: saturation
# would sit below typical drive levels and the fit to a real PA is meaningless.
ALPHA_VALIDITY_LIMIT = 1.0


class SaturationUndefinedError(ValueError):
    """A linear stage (alpha = 0) has no saturation point."""


class ModelValidityWarning(UserWarning):
    """A stage is being driven past the cubic model's monotone region."""


# Per kind of number a field may be annotated with, the type its values may
# have and how a message names the kind.
_NUMBER_TYPES = {
    complex: (Complex, "a number"), float: (Real, "a real number"), int: (Integral, "an integer"),
}


def is_number(value, kind: type) -> bool:
    """Whether value is a number of kind: complex, float or int.

    A bool is not a number here, although Python counts it as an int; numpy
    numbers count as the Python kind they stand for.
    """
    return not isinstance(value, bool) and isinstance(value, _NUMBER_TYPES[kind][0])


def as_number(value, kind: type, name: str, error: type[ValueError] = ValueError):
    """value as a Python number of kind, or an error of class error naming name.

    A number too large for a float becomes inf, for the caller's range checks.
    """
    if not is_number(value, kind):
        raise error(f"{name} must be {_NUMBER_TYPES[kind][1]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        return np.inf


def store_numbers(owner, error: type[ValueError] = ValueError) -> None:
    """Store each field of a frozen dataclass annotated complex, float or int
    as that Python kind, in field order, by as_number."""
    for item in fields(owner):
        kind = next((kind for kind in _NUMBER_TYPES if kind.__name__ == item.type), None)
        if kind is not None:
            value = as_number(getattr(owner, item.name), kind, item.name, error)
            object.__setattr__(owner, item.name, value)


def check_alpha(alpha: complex, error: type[ValueError] = ValueError) -> None:
    """Reject a cubic coefficient beyond ALPHA_VALIDITY_LIMIT in magnitude."""
    # np.abs gives inf where abs would raise OverflowError (|alpha| > 1e308).
    if np.abs(alpha) > ALPHA_VALIDITY_LIMIT:
        raise error(f"|alpha| must be <= {ALPHA_VALIDITY_LIMIT}, got {np.abs(alpha):.3g}")


@dataclass(frozen=True)
class PaStage:
    """One amplifier: third-order coefficient and real linear gain.

    The gain folds the amplifier gain and any connector loss into one number.
    """

    alpha: complex
    gain: float

    def __post_init__(self) -> None:
        store_numbers(self)
        if not 0 < self.gain < np.inf:
            raise ValueError(f"gain must be finite and > 0, got {self.gain}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        check_alpha(self.alpha)


@dataclass(frozen=True)
class CascadeConfig:
    """A full chain: stages, noise level, drive, and gain-bound window."""

    stages: tuple[PaStage, ...]
    sigma: float
    input_power: float
    reference_gain: float
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.stages, (list, tuple)) or not all(
            isinstance(stage, PaStage) for stage in self.stages
        ):
            raise ValueError(f"stages must be a list or tuple of PaStage, got {self.stages!r}")
        object.__setattr__(self, "stages", tuple(self.stages))
        store_numbers(self)
        if len(self.stages) < 1:
            raise ValueError("cascade needs at least one stage")
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0 < self.input_power <= 1:
            raise ValueError(f"input_power must be in (0, 1], got {self.input_power}")
        if not 0 < self.reference_gain < np.inf:
            raise ValueError(
                f"reference_gain must be finite and > 0, got {self.reference_gain}"
            )
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def gains(self) -> np.ndarray:
        return np.array([s.gain for s in self.stages])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.stages], dtype=complex)

    @property
    def gain_bounds(self) -> tuple[float, float]:
        return (
            (1.0 - self.epsilon) * self.reference_gain,
            (1.0 + self.epsilon) * self.reference_gain,
        )


@dataclass(frozen=True)
class EquivalentPa:
    """Closed-form single-PA summary (g_tilde, alpha_tilde, sigma_tilde)."""

    g_tilde: float
    alpha_tilde: complex
    sigma_tilde: float


@dataclass(frozen=True)
class CascadeRun:
    """The chain's output; each stage's comes from cascade_samples' stage_f."""

    output: Signal


def pa_nonlinearity(x, alpha):
    """f(x) = x + alpha * x * |x|^2, elementwise over scalars or arrays."""
    return x + alpha * x * np.abs(x) ** 2


def check_noise(config: CascadeConfig, noise: NoiseRealization | None, length: int) -> None:
    """Reject noise that cannot feed the chain over a signal of this length.

    With sigma > 0 a realization is required, with a row for every stage and
    one sample per signal sample; with sigma = 0 the noise is not used.
    """
    if config.sigma == 0.0:
        return
    if noise is None:
        raise ValueError("sigma > 0 requires a NoiseRealization")
    if noise.stages < config.stage_count:
        raise ValueError(
            f"noise has {noise.stages} stage rows, cascade needs {config.stage_count}"
        )
    if noise.length != length:
        raise ValueError(f"noise length {noise.length} != signal length {length}")


class CascadeWorkspace:
    """The work arrays of cascade_samples: one block each, kept across calls.

    A caller that runs the kernel many times over short signals (the
    optimizer's residual) keeps one workspace, so no call allocates
    block-sized temporaries that the allocator may hand back to the system
    and fault in again on the next call.  The arrays carry nothing from one
    call to the next.  It holds blocks of the SAMPLE_BLOCK in force when it
    is made.
    """

    def __init__(self) -> None:
        self.noisy, self.ax, self.fx, self.ga, self.gb, self.conj_row = np.empty(
            (6, SAMPLE_BLOCK), dtype=complex
        )
        self.x_sq = np.empty(SAMPLE_BLOCK)


def cascade_samples(
    x0: np.ndarray,
    alphas: np.ndarray,
    gains: np.ndarray,
    sigma: float,
    stage_noise: np.ndarray | None = None,
    tangent: tuple[np.ndarray, Sequence[int | None]] | None = None,
    workspace: CascadeWorkspace | None = None,
    out: np.ndarray | None = None,
    stage_f: np.ndarray | None = None,
    input_energy: np.ndarray | None = None,
) -> np.ndarray:
    """Bare-array cascade kernel: the one implementation of the stage recursion.

    Applies y <- g_k * f(y + sigma*w_k) for k = 1..K, with K = len(gains)
    and w_k = stage_noise[k] (unused, and may be None, when sigma is 0).
    It alone scales the noise: any sigma != 0 multiplies row k into a work
    buffer, one block at a time, so its callers pass sigma and the unit
    rows of a realization.

    ``input_energy``, a float (K,) array, has sum |y_{k-1} + sigma*w_k|^2,
    the energy of stage k's input, added into entry k-1.

    ``stage_f``, a complex (K, N) array, receives each stage's pre-gain
    output f(y_{k-1} + sigma*w_k) in row k-1: the stage computes it there in
    place of a work buffer, so keeping it costs no copy.  Row k-1 depends on
    x0 and g_1..g_{k-1} only, so a caller that changes only later gains can
    resume the chain from it.

    ``tangent = (dy, gain_rows)`` also carries, in the same pass, the
    derivatives of y with respect to real parameters theta_1..theta_d.  On
    entry the complex (d, N) array dy holds d x0/d theta; it is overwritten
    with d y/d theta.  gain_rows[k] is the row of the parameter that g_k
    equals (d g_k/d theta = 1 there), or None when g_k is fixed.  The noise
    does not depend on theta, so each stage maps a row t to

        g_k * (a*t + b*conj(t)) + [row is gain_rows[k]] * f(x),
        a = 1 + 2*alpha_k*|x|^2,  b = alpha_k*x^2,

    which is exact.  The rows of gain parameters must be zero on entry and
    follow the seeded rows in the order of the stages they first set; each
    is skipped until that stage.  The update runs row by row, so the only
    work buffer is one row.

    The samples are independent, so the outer loop runs over blocks of
    SAMPLE_BLOCK samples and the inner one takes a block through every
    stage; every output bit is the same as in one pass over all of them.
    The temporaries of a block live in ``workspace`` (a fresh
    CascadeWorkspace when None), and y is written into ``out`` (a fresh
    array when None), which must not overlap x0, with one exception: a
    one-stage call with no ``stage_f`` and no ``tangent`` may pass x0 itself
    as ``out``, since it reads each block of x0 before it writes that block
    of y; the output has the same bits as in a fresh ``out``.  Every product
    keeps the operand order of the plain expressions in the comments
    (complex multiplication is not bit-commutative under FMA).
    """
    work = CascadeWorkspace() if workspace is None else workspace
    y_all = np.empty(len(x0), dtype=complex) if out is None else out
    if tangent is not None:
        dy_all, gain_rows = tangent
        seeded = min((row for row in gain_rows if row is not None), default=len(dy_all))
    for start in range(0, len(x0), SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        x, y = x0[block], y_all[block]
        m = len(y)
        noisy, ax = work.noisy[:m], work.ax[:m]
        ga, gb, conj_row, x_sq = work.ga[:m], work.gb[:m], work.conj_row[:m], work.x_sq[:m]
        if tangent is not None:
            dy, live = dy_all[:, block], seeded
        for k in range(len(gains)):
            if sigma != 0.0:
                # x = x + sigma * w_k
                np.multiply(sigma, stage_noise[k, block], out=noisy)
                x = np.add(x, noisy, out=noisy)
            # pa_nonlinearity(x, alpha) term by term, keeping |x|^2 and alpha*x
            # for the tangent: fx = x + (alpha * x) * np.abs(x)**2.
            g = gains[k]
            fx = work.fx[:m] if stage_f is None else stage_f[k, block]
            np.multiply(alphas[k], x, out=ax)
            np.square(np.abs(x, out=x_sq), out=x_sq)
            if input_energy is not None:
                input_energy[k] += x_sq.sum()
            np.add(x, np.multiply(ax, x_sq, out=fx), out=fx)
            if tangent is not None:
                if live:
                    # ga = g + (2*g*alpha) * |x|^2,  gb = (g * ax) * x
                    np.add(g, np.multiply(2.0 * g * alphas[k], x_sq, out=ga), out=ga)
                    np.multiply(np.multiply(g, ax, out=gb), x, out=gb)
                    for row in dy[:live]:
                        np.multiply(gb, np.conjugate(row, out=conj_row), out=conj_row)
                        row *= ga
                        row += conj_row
                if gain_rows[k] is not None:
                    dy[gain_rows[k]] += fx
                    live = max(live, gain_rows[k] + 1)
            # y = g * fx, last: x may be y itself.
            np.multiply(g, fx, out=y)
            x = y
    return y_all


class Chain:
    """A chain on x0 with the given stages, run a few stages at a time.

    It holds one output buffer, each stage's input energy and its depth, the
    number of stages run so far.  After stages 1..k the buffer holds, bit
    for bit, the output of the chain of its first k stages run in one call.
    """

    def __init__(self, x0: Signal, alphas: np.ndarray, gains: np.ndarray, sigma: float) -> None:
        self.x0, self.alphas, self.gains, self.sigma = x0, alphas, gains, sigma
        self.samples = np.empty(len(x0), dtype=complex)
        self.input_energy = np.zeros(len(gains))
        self.depth = 0

    def advance(self, count: int, rows: np.ndarray | None) -> Chain:
        """Run the next count stages in one cascade_samples call, the i-th of
        them on noise row rows[i] (rows may be None when sigma is 0).  At
        depth 0 it reads x0, after that the buffer itself, so a call past
        depth 0 runs one stage: the in-place call cascade_samples allows."""
        k = self.depth
        cascade_samples(
            self.x0.samples if k == 0 else self.samples,
            self.alphas[k : k + count], self.gains[k : k + count], self.sigma, rows,
            out=self.samples, input_energy=self.input_energy[k : k + count],
        )
        self.depth += count
        return self

    def output(self) -> Signal:
        """The buffer as a Signal, valid until the next advance writes over it.

        Stage k is overdriven when its mean input power exceeds
        x_max(alpha_k)**2; a linear stage never is.  The model still
        evaluates there (the cubic folds over exactly as written), but it no
        longer resembles an amplifier.  A ModelValidityWarning names every
        overdriven stage among 1..depth and points at the caller of the
        function that calls this one.
        """
        overdriven = [
            k + 1
            for k, alpha in enumerate(self.alphas[: self.depth])
            if alpha != 0 and self.input_energy[k] / len(self.x0) > x_max(alpha) ** 2
        ]
        if overdriven:
            warnings.warn(
                f"stage(s) {overdriven} driven past the saturation input; the "
                "cubic model folds over in this regime",
                ModelValidityWarning,
                stacklevel=3,
            )
        return replace(self.x0, samples=self.samples, nominal_power=mean_power_of(self.samples))


def cascade_forward(
    x0: Signal,
    config: CascadeConfig,
    noise: NoiseRealization | None = None,
    keep_stages: bool = False,
) -> CascadeRun:
    """Run one whole chain, one Chain advance over all its stages, and
    return its output; warns as Chain.output does.

    ``x0`` must already be scaled to the configured drive (input_power).  A
    caller that needs each stage's output passes a (K, N) array to
    cascade_samples(..., stage_f=...), whose row k-1 times g_k is stage k's
    output; ``keep_stages`` is accepted only as False.
    """
    if keep_stages:
        raise ValueError("no stage outputs are kept; use cascade_samples(..., stage_f=...)")
    check_noise(config, noise, len(x0))
    rows = None if noise is None else noise.stage_noise
    chain = Chain(x0, config.alphas, config.gains, config.sigma)
    return CascadeRun(output=chain.advance(config.stage_count, rows).output())


def equivalent_sigma(gains: Sequence[float], sigma: float) -> float:
    """sigma * sqrt( sum_{k=1..K} prod_{q=k..K} g_q^2 )."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    total = 0.0
    suffix = 1.0
    for g in np.asarray(gains, dtype=float)[::-1]:
        suffix *= g**2
        total += suffix
    return sigma * float(np.sqrt(total))


def equivalent_pa(config: CascadeConfig) -> EquivalentPa:
    """Closed-form equivalent of the whole configured chain.

    g_tilde and alpha_tilde come from one pass over the stages.  The prefix
    prod_{q<k} g_q^2 is multiplied up one g_q**2 at a time: squaring the
    running gain product instead would round differently.
    """
    first = config.stages[0]
    g_tilde, alpha_tilde, prefix = first.gain, first.alpha, first.gain**2
    for stage in config.stages[1:]:
        g_tilde *= stage.gain
        alpha_tilde += stage.alpha * prefix
        prefix *= stage.gain**2
    return EquivalentPa(
        g_tilde=float(g_tilde),
        alpha_tilde=complex(alpha_tilde),
        sigma_tilde=equivalent_sigma(config.gains, config.sigma),
    )


def approx_cascade_forward(
    x0: Signal,
    config: CascadeConfig,
    noise_equiv: np.ndarray | None = None,
) -> Signal:
    """One-shot equivalent-PA model of the chain.

    y_tilde = g_tilde * f_tilde(x0) + sigma_tilde * w, where f_tilde uses
    alpha_tilde.  Pass ``noise_equiv=None`` (or zeros) for the noise-free
    form.
    """
    eq = equivalent_pa(config)
    out = eq.g_tilde * pa_nonlinearity(x0.samples, eq.alpha_tilde)
    if noise_equiv is not None:
        if len(noise_equiv) != len(x0):
            raise ValueError(
                f"noise length {len(noise_equiv)} != signal length {len(x0)}"
            )
        out = out + eq.sigma_tilde * noise_equiv
    return replace(x0, samples=out, nominal_power=mean_power_of(out))


def x_max(alpha: complex) -> float:
    """sqrt(1/(3|alpha|)), the input magnitude where |f| peaks for real alpha < 0.

    For complex alpha the peak moves or goes: at the default alpha =
    -0.33(1 - 0.1j), |f(r)| peaks at r = 1.00758, 0.50% above x_max = 1.00254,
    and at alpha = 0.33 or -0.33j |f| rises without a peak (ExperimentConfig
    rejects such an alpha; PaStage does not).
    """
    if alpha == 0:
        raise SaturationUndefinedError("a linear stage has no saturation point")
    return float(np.sqrt(1.0 / (3.0 * abs(alpha))))


def scenario2_gain(alpha: complex) -> float:
    """Gain restoring a stage's peak output to the saturation input level.

    g = x_max / |f(x_max)|.  A chain of such stages keeps the signal peak at
    x_max at every stage's input, which is where |f| peaks only for real
    alpha < 0 (see x_max).  The magnitude is used because gains are real while
    f(x_max) is complex for complex alpha.
    """
    xm = x_max(alpha)
    return xm / abs(pa_nonlinearity(xm, alpha))
