"""Experiment harness: scenario sweeps, the optimization study, and file export.

The study's rows are the cases of ``CASES``, each run at every configured K:
``run_cases`` runs, in one pass, those without a mode and those whose mode is
configured, and the emitted tables place each by what its mode frees.

A run is fully determined by its configuration (including the seed).  Three
derived random streams keep the pieces reproducible yet distinct: the symbol
seed itself, seed+1 for the noise frozen into optimization objectives, and
seed+2 for the evaluation noise shared by pre- and post-optimization metrics
(so ordering comparisons see the same realization).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .cascade import (
    CascadeConfig,
    Chain,
    PaStage,
    cascade_forward,  # not called here: kept as the hook perfbench's tracer wraps
    check_alpha,
    is_number,
    store_numbers,
)
from .metrics import (
    FLOOR_DB,
    PSD_SEGMENT_LENGTH,
    MetricsReport,
    aclr_span,
    amam_magnitudes,
    psd_span,
    report,
)
from .optimizer import (
    FREE_POWER_MODES,
    Mode,
    OptimizationResult,
    OptimizationSpec,
    Scenario,
    SolveStatus,
    build_residual,
    expand_parameters,
    gain_rows,
    scenario_start,
    solve,
)
from .signals import (
    NoiseRealization,
    Signal,
    draw_noise,
    noise_rows,
    scale_amplitude,
    unit_excitation,
)

RRC_SPAN_SYMBOLS = 16
# The most complex samples one numpy array can hold: its byte count must fit an intp.
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(complex).itemsize

ALL_MODES = tuple(Mode)


@dataclass(frozen=True)
class Case:
    """One row of the study, run at every K.

    ``scenario`` gives the fixed gains and the start; ``mode`` is what the
    case solves (None for a bracketing scenario, evaluated at full drive on
    those gains).
    """

    name: str
    scenario: Scenario
    mode: Mode | None = None


# The emitted row order.
CASES = (
    Case("scenario1", Scenario.ONE),
    Case("scenario2", Scenario.TWO),
    Case("power_s1", Scenario.ONE, Mode.POWER_ONLY),
    Case("power_s2", Scenario.TWO, Mode.POWER_ONLY),
    Case("equal_gains", Scenario.ONE, Mode.EQUAL_GAINS),
    Case("unequal_gains", Scenario.ONE, Mode.UNEQUAL_GAINS),
    Case("joint_equal", Scenario.ONE, Mode.JOINT_EQUAL_GAINS),
    Case("joint_unequal", Scenario.ONE, Mode.JOINT_UNEQUAL_GAINS),
)
_CASE_NAMED = {case.name: case for case in CASES}


class ConfigError(ValueError):
    """Bad experiment configuration (file or field level)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on, each field checked here before any compute.

    This is the one place that types a field: a JSON file reaches it through
    ``config_from_dict``, CLI flags through ``dataclasses.replace``.  A bad
    value raises a ConfigError that names its field.  A number may be a
    Python or numpy number, but not a bool, and is stored as the Python kind
    of its annotation (cascade.store_numbers); no field may hold an integer of more digits than Python prints
    (sys.get_int_max_str_digits()), since the manifest writes every field.
    Powers and amplitudes are relative to the unit-drive excitation, whose
    peak amplitude is 1.

    alpha: each stage's cubic coefficient in f(x) = x + alpha*x*|x|^2, per
        unit amplitude squared; a number with |alpha| <= ALPHA_VALIDITY_LIMIT,
        either 0 (a linear chain) or compressive: Re(alpha) < 0 and
        4 Re(alpha)^2 >= 3 |alpha|^2, so that |f| has a peak and scenario 2
        has a saturation input to drive each stage to.
    sigma_sq: variance of the complex Gaussian noise added before each
        stage, per sample, in unit-drive power; a real number >= 0.
    G: reference gain, a linear amplitude ratio; a real number > 0 such
        that G^2 * symbols * oversampling, the desired signal's energy, is
        finite.
    epsilon: half-width of the per-stage gain box [(1-epsilon)*G,
        (1+epsilon)*G], as a fraction of G; a real number in [0, 1).
    K_range: the numbers of stages studied; a list or tuple of distinct
        integers >= 1.  max(K_range) * symbols * oversampling must fit an
        array: the noise of the longest chain.
    symbols: 16-QAM symbols in the excitation; an integer >= 1.
    oversampling: samples per symbol; an integer >= 2.
    rolloff: roll-off factor of the root-raised-cosine pulse; a real number
        in (0, 1].  With oversampling it must let the PSD reach the adjacent
        channels.  symbols * oversampling must hold one PSD segment and fit
        an array.
    seed: seed of the symbols; seed + 1 and seed + 2 seed the optimization
        and evaluation noise.  An integer >= 0.
    modes: the optimization modes run; a list or tuple of distinct Mode
        values.
    output_dir: directory the emitted files are written to; a str or
        os.PathLike.
    """

    alpha: complex = -0.33 * (1 - 0.1j)
    sigma_sq: float = 1e-5
    G: float = 1.0
    epsilon: float = 0.3
    K_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    symbols: int = 4096
    oversampling: int = 8
    rolloff: float = 0.22
    seed: int = 42
    modes: tuple[Mode, ...] = ALL_MODES
    output_dir: Path = Path("runs")

    def __post_init__(self) -> None:
        # Python prints no int of more than sys.get_int_max_str_digits() digits,
        # so neither a message nor the manifest could hold one.
        for name in (f.name for f in fields(self)):
            try:
                repr(getattr(self, name))
            except ValueError:
                raise ConfigError(
                    f"{name} holds an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits, which Python cannot print"
                ) from None
        # Tuples first, so that the entry checks cannot use up a one-shot iterable.
        for name in ("K_range", "modes"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list or tuple, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        store_numbers(self, ConfigError)
        for name, value in vars(self).items():
            if isinstance(value, (float, complex)) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not all(is_number(k, int) for k in self.K_range):
            raise ConfigError(f"K_range entries must be integers, got {self.K_range}")
        object.__setattr__(self, "K_range", tuple(int(k) for k in self.K_range))
        check_alpha(self.alpha, ConfigError)
        # |f(r)|^2 = r^2 (1 + 2 Re(alpha) r^2 + |alpha|^2 r^4) has a peak in
        # r > 0 only when Re(alpha) < 0 and 4 Re(alpha)^2 >= 3 |alpha|^2.
        a = self.alpha
        if a != 0 and not (a.real < 0 and 4 * a.real**2 >= 3 * abs(a) ** 2):
            raise ConfigError(
                f"alpha must be 0 or compressive (Re(alpha) < 0 and "
                f"4 Re(alpha)^2 >= 3|alpha|^2), got {a}"
            )
        if self.sigma_sq < 0:
            raise ConfigError(f"sigma_sq must be >= 0, got {self.sigma_sq}")
        if self.G <= 0:
            raise ConfigError(f"G must be > 0, got {self.G}")
        if not 0 <= self.epsilon < 1:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if any(k < 1 for k in self.K_range):
            raise ConfigError(f"K_range entries must be >= 1, got {self.K_range}")
        if len(set(self.K_range)) < len(self.K_range):
            raise ConfigError(f"K_range entries must be distinct, got {self.K_range}")
        if self.symbols < 1:
            raise ConfigError(f"symbols must be >= 1, got {self.symbols}")
        if self.oversampling < 2:
            raise ConfigError(f"oversampling must be >= 2, got {self.oversampling}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.rolloff <= 1:
            raise ConfigError(f"rolloff must be in (0, 1], got {self.rolloff}")
        if not all(isinstance(m, Mode) for m in self.modes):
            raise ConfigError(f"modes must be Mode values, got {self.modes}")
        if len(set(self.modes)) < len(self.modes):
            raise ConfigError(f"modes entries must be distinct, got {self.modes}")
        # What numpy or report() rejects later; the count first, or psd_span overflows.
        if not PSD_SEGMENT_LENGTH <= self.symbols * self.oversampling <= _MAX_SAMPLES:
            raise ConfigError(
                f"symbols * oversampling must be >= the PSD segment of {PSD_SEGMENT_LENGTH} "
                f"samples and fit an array, got {self.symbols * self.oversampling}"
            )
        # The noise of the longest chain, one row of samples per stage.
        if max(self.K_range, default=0) * self.symbols * self.oversampling > _MAX_SAMPLES:
            raise ConfigError(
                f"max(K_range) * symbols * oversampling must fit an array, got "
                f"{max(self.K_range)} * {self.symbols} * {self.oversampling}"
            )
        # The energy of the desired signal, G times the unit-drive excitation.
        if not np.isfinite(self.G * self.G * self.symbols * self.oversampling):
            raise ConfigError(f"G^2 * symbols * oversampling must be finite, got G = {self.G}")
        span, needed = psd_span(self.oversampling), aclr_span(1.0 + self.rolloff)
        if span < needed:
            raise ConfigError(
                f"oversampling {self.oversampling} at rolloff {self.rolloff}: PSD "
                f"spans only |f| <= {span:.3g} symbol rates; ACLR needs {needed:.3g}"
            )

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma_sq))


@dataclass
class RunRecord:
    """Everything a run produced, regenerable bit-exactly from the config."""

    config: ExperimentConfig
    scenario_metrics: dict[tuple[int, str], MetricsReport] = field(default_factory=dict)
    optimization_results: dict[tuple[int, str], OptimizationResult] = field(default_factory=dict)
    optimization_metrics: dict[tuple[int, str], MetricsReport] = field(default_factory=dict)
    optimized_parameters: dict[tuple[int, str], tuple[float, np.ndarray]] = field(default_factory=dict)

    def solver_failures(self) -> list[tuple[int, str]]:
        return [
            key
            for key, result in self.optimization_results.items()
            if result.status is SolveStatus.STALLED_AT_BOUND
        ]


def combine_records(first: RunRecord, second: RunRecord) -> RunRecord:
    """The union of two records of one config (``run_cases`` makes one in one pass)."""
    if first.config != second.config:
        raise ValueError("cannot combine records from different configurations")
    merged = RunRecord(config=first.config)
    for source in (first, second):
        merged.scenario_metrics.update(source.scenario_metrics)
        merged.optimization_results.update(source.optimization_results)
        merged.optimization_metrics.update(source.optimization_metrics)
        merged.optimized_parameters.update(source.optimized_parameters)
    return merged


# --------------------------------------------------------------------------
# Configuration (de)serialization


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from JSON-style data.

    Unknown keys are rejected, and only what JSON cannot hold is decoded:
    ``alpha`` from its ``[real, imaginary]`` pair and a list of ``modes``
    from their names.  Every other value reaches ExperimentConfig as it is,
    which types and checks every field, so a bad value gets the same
    ConfigError, naming its key, as in a config built in Python.
    """
    unknown = set(data) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "alpha" in data:
        pair = data["alpha"]
        if (
            not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(is_number(part, float) for part in pair)
        ):
            raise ConfigError(f"alpha must be a [real, imaginary] pair, got {pair!r}")
        try:
            kwargs["alpha"] = complex(*pair)
        except OverflowError:  # an integer too large for a float
            raise ConfigError(f"alpha must be finite, got {pair!r}") from None
    if isinstance(data.get("modes"), (list, tuple)):
        try:
            kwargs["modes"] = tuple(Mode(name) for name in data["modes"])
        except ValueError as exc:
            raise ConfigError(f"bad mode name in modes: {exc}") from None
    return ExperimentConfig(**kwargs)


def config_from_json(path: Path | str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # bad JSON, or an integer too long for int()
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"configuration root must be an object, got {type(data).__name__}")
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready mirror of the config (alpha as a [re, im] pair)."""
    return {
        **{name: getattr(config, name) for name in _CONFIG_FIELDS},
        "alpha": [config.alpha.real, config.alpha.imag],
        "K_range": list(config.K_range),
        "modes": [mode.value for mode in config.modes],
        "output_dir": str(config.output_dir),
    }


# --------------------------------------------------------------------------
# Shared run plumbing


def excitation_for(config: ExperimentConfig) -> Signal:
    return unit_excitation(
        config.symbols, config.oversampling, config.rolloff,
        RRC_SPAN_SYMBOLS, config.seed,
    )


def optimization_noise(config: ExperimentConfig, stages: int, length: int) -> NoiseRealization:
    return draw_noise(stages, length, config.seed + 1)


def scenario_gains(config: ExperimentConfig, scenario: Scenario, stages: int) -> np.ndarray:
    """Stage gains for a bracketing scenario: those of its scenario_start."""
    return scenario_start(scenario, stages, config.alpha)[1:]


def make_cascade_config(
    config: ExperimentConfig,
    gains: np.ndarray,
    input_power: float = 1.0,
) -> CascadeConfig:
    return CascadeConfig(
        stages=tuple(PaStage(alpha=config.alpha, gain=float(g)) for g in gains),
        sigma=config.sigma,
        input_power=input_power,
        reference_gain=config.G,
        epsilon=config.epsilon,
    )


# --------------------------------------------------------------------------
# The study


def _case_point(
    config: ExperimentConfig,
    x_unit: Signal,
    noise: NoiseRealization | None,
    stages: int,
    case: Case,
) -> tuple[OptimizationResult, float, np.ndarray]:
    """An optimized case's (result, p0, gains) at K = stages."""
    fixed = make_cascade_config(config, scenario_gains(config, case.scenario, stages))
    start = scenario_start(case.scenario, stages, config.alpha, case.mode)
    spec = OptimizationSpec(case.mode, stages, start, gain_bounds=fixed.gain_bounds)
    result = solve(spec, build_residual(x_unit, fixed, noise, case.mode))
    return (result, *expand_parameters(result.parameters, case.mode, fixed))


def run_cases(config: ExperimentConfig, cases: Iterable[Case] = CASES) -> RunRecord:
    """Run the cases at every K and evaluate each on the evaluation noise.

    A case runs if it has no mode or its mode is in ``config.modes``.  The
    excitation and the seed + 1 optimization noise are drawn once for the
    whole pass, the latter whole and only when an optimized row runs.  The
    seed + 2 evaluation stream is read once, row by row, through
    noise_rows: into a (max(K_range), N) array when an optimized row runs,
    otherwise into a fresh row per stage, dropped once both scenario chains
    have run their stage on it.  The pass runs stage-major: for k =
    1..max(K_range) each bracketing scenario's one Chain, at unit drive on
    the deepest scenario gains, takes stage k on evaluation row k, and if k
    is in K_range the K = k rows are evaluated in case order.  An optimized
    row is solved, then evaluated by a Chain of its own (p0, gains) run
    over rows 1..K.  Every row's metrics come from one report call, so each
    overdrive message has one source location.  The AM/AM input column is
    made once per distinct drive p0.  Each distinct problem (K, scenario,
    free drive, gain rows) is solved and evaluated once; a later case that
    poses it again, as unequal_gains and joint_unequal do at K = 1, takes
    the first one's result, point and metrics.
    """
    record = RunRecord(config=config)
    cases = [case for case in cases if case.mode is None or case.mode in config.modes]
    if not config.K_range or not cases:
        return record
    x_unit = excitation_for(config)
    deepest = max(config.K_range)
    if any(case.mode is not None for case in cases):
        opt_noise = optimization_noise(config, deepest, len(x_unit))
        buffers = np.empty((deepest, len(x_unit)), dtype=complex)
    else:
        opt_noise = None
        buffers = (np.empty(len(x_unit), dtype=complex) for _ in range(deepest))
    eval_rows = noise_rows(config.seed + 2, buffers)
    amam_inputs: dict[float, np.ndarray] = {}  # drive p0 -> its AM/AM input column

    def chain_at(p0: float, gains: np.ndarray) -> Chain:
        x0 = scale_amplitude(x_unit, float(np.sqrt(p0)))
        if p0 not in amam_inputs:
            amam_inputs[p0] = amam_magnitudes(x0, config.oversampling)
        return Chain(x0, np.full(len(gains), config.alpha), gains, config.sigma)

    chains = {
        case.scenario: chain_at(1.0, scenario_gains(config, case.scenario, deepest))
        for case in cases if case.mode is None
    }
    solved = {}  # problem -> (result, p0, gains, metrics) of its first case
    for stages in range(1, deepest + 1):
        row = next(eval_rows)
        for scenario_chain in chains.values():
            scenario_chain.advance(1, row[np.newaxis])
        del row  # a fresh row is freed here, before the reports
        if stages not in config.K_range:
            continue
        for case in cases:
            rows = None if case.mode is None else tuple(gain_rows(case.mode, stages))
            problem = (stages, case.scenario, case.mode in FREE_POWER_MODES, rows)
            if problem not in solved:
                if case.mode is None:
                    result, p0, gains, evaluated = None, 1.0, None, chains[case.scenario]
                else:
                    result, p0, gains = _case_point(config, x_unit, opt_noise, stages, case)
                    evaluated = chain_at(p0, gains).advance(stages, buffers[:stages])
                metrics = report(
                    scale_amplitude(x_unit, config.G), evaluated.output(), amam_inputs[p0],
                    channel_bandwidth=1.0 + config.rolloff, amam_decimate=config.oversampling,
                )
                solved[problem] = (result, p0, gains, metrics)
                del evaluated  # so the next solve runs without this chain's buffers
            result, p0, gains, metrics = solved[problem]
            key = (stages, case.name)
            if result is None:
                record.scenario_metrics[key] = metrics
            else:
                record.optimization_results[key] = result
                record.optimization_metrics[key] = metrics
                record.optimized_parameters[key] = (p0, gains)
    return record


def run_scenarios(config: ExperimentConfig) -> RunRecord:
    """Both bracketing scenarios at full drive, for every configured K."""
    return run_cases(config, [case for case in CASES if case.mode is None])


def run_optimizations(config: ExperimentConfig) -> RunRecord:
    """The cases of the configured modes, solved and evaluated at every K."""
    return run_cases(config, [case for case in CASES if case.mode is not None])


# --------------------------------------------------------------------------
# File emission


def _db_text(value: float) -> str:
    """repr of a dB value, with -inf written as FLOOR_DB."""
    return repr(FLOOR_DB if value == float("-inf") else float(value))


# Rows per block of an emitted file.  Each block is formatted, written and
# hashed before the next is made, so no file's text is ever whole in memory.
WRITE_BLOCK_ROWS = 8192


def _csv_blocks(header: str, rows: Iterable[str]) -> Iterator[bytes]:
    """A CSV file's bytes: the header line and the rows, WRITE_BLOCK_ROWS
    lines at a time, each line ending in a newline."""
    lines = chain([header], rows)
    while block := list(islice(lines, WRITE_BLOCK_ROWS)):
        yield "\n".join(chain(block, [""])).encode("utf-8")


def _column_text(column: np.ndarray) -> Iterator[str]:
    """repr of every value, the shortest text that float() reads back exactly,
    made WRITE_BLOCK_ROWS values at a time."""
    return chain.from_iterable(
        map(repr, column[start : start + WRITE_BLOCK_ROWS].tolist())
        for start in range(0, len(column), WRITE_BLOCK_ROWS)
    )


class _ColumnText:
    """One role's last formatted column, reused while the next one is the same.

    Columns are compared by their bytes: -0.0 and 0.0 are equal numbers but
    format differently, and a NaN never equals itself.  Only the last column
    is kept, so the reuse holds one column's text at a time.
    """

    def __init__(self) -> None:
        self._key: bytes | None = None
        self._text: list[str] = []

    def __call__(self, column: np.ndarray) -> list[str]:
        key = column.tobytes()
        if key != self._key:
            self._text = []  # dropped first, so one column's text is held at a time
            self._key, self._text = key, list(_column_text(column))
        return self._text


def _case_sort_key(item: tuple[int, str]) -> tuple[int, int]:
    stages, case = item
    return (stages, CASES.index(_CASE_NAMED[case]))


def _frees(stages: int, case: str) -> tuple[bool, bool]:
    """Whether a row frees the drive, and whether it frees every stage's gain;
    a scenario row frees neither."""
    mode = _CASE_NAMED[case].mode
    return mode in FREE_POWER_MODES, mode is not None and None not in gain_rows(mode, stages)


def _build_files(record: RunRecord) -> Iterator[tuple[str, Iterator[bytes]]]:
    """The run's files, each as its name and its bytes in blocks of rows.

    The metric rows are walked once, in row order, and the optimized
    parameters once; the AM/AM and PSD files come in row order, then the
    tables.  AM/AM and PSD values are written as repr, and a file's rows
    are formatted a block at a time as its blocks are read.  A column that
    repeats from one file to the next (the AM/AM input at one drive, the PSD
    frequency axis) is formatted once per run of repeats, when its file is
    yielded; the reuse keeps only the last column of each of those two
    roles, so it is bounded by two columns' text whatever the record holds.
    """
    amam_inputs, psd_axes = _ColumnText(), _ColumnText()
    metric_rows = []
    all_metrics = {**record.scenario_metrics, **record.optimization_metrics}
    for stages, case in sorted(all_metrics, key=_case_sort_key):
        metrics = all_metrics[stages, case]
        free_power, free_gains = _frees(stages, case)
        # Signal files of the rows that free both p0 and every gain, or neither.
        if free_power == free_gains:
            for kind, header, shared, first, second in (
                ("amam", "input_mag,output_mag", amam_inputs, metrics.amam_input,
                 metrics.amam_output),
                ("psd", "freq_symrate,psd_db", psd_axes, metrics.psd.frequencies,
                 metrics.psd.power_density),
            ):
                rows = map(",".join, zip(shared(first), _column_text(second)))
                yield f"{kind}_K{stages}_{case}.csv", _csv_blocks(header, rows)
        metric_rows.append(
            f"{stages},{case},{_db_text(metrics.nmse_db)},{_db_text(metrics.aclr_db)}"
        )
    if metric_rows:
        yield "metrics_vs_K.csv", _csv_blocks("K,scenario_or_mode,nmse_db,aclr_db", metric_rows)

    power_rows, gain_table_rows = [], []
    for stages, case in sorted(record.optimized_parameters, key=_case_sort_key):
        p0, gains = record.optimized_parameters[stages, case]
        free_power, free_gains = _frees(stages, case)
        if free_power:
            power_rows.append(f"{case},{stages},{p0:.2f}")
        if free_gains:
            gain_table_rows.extend(
                f"{case},{stages},{k},{gain:.2f}" for k, gain in enumerate(gains, start=1)
            )
    if power_rows:
        yield "table_power.csv", _csv_blocks("case,K,p0", power_rows)
    if gain_table_rows:
        yield "table_gains.csv", _csv_blocks("case,K,k,gain", gain_table_rows)


def _write_blocks(path: Path, blocks: Iterable[bytes]) -> str:
    """Write the blocks to path; the sha256 hex digest of what was written,
    hashed block by block as it is written."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for block in blocks:
            handle.write(block)
            digest.update(block)
    return digest.hexdigest()


def _listed_files(manifest_path: Path) -> set[str]:
    """Names of the files an existing manifest lists; empty if there is none.

    Only plain names are returned (no directory part, not the manifest
    itself), so a deletion never leaves the manifest's directory.
    """
    try:
        listed = json.loads(manifest_path.read_bytes())["files"]
    except (FileNotFoundError, ValueError, TypeError, KeyError):
        return set()
    if not isinstance(listed, dict):
        return set()
    return {
        name for name in listed
        if name not in ("", ".", "..", manifest_path.name) and Path(name).name == name
    }


def emit_outputs(record: RunRecord) -> list[Path]:
    """Write the run's CSV files and a digest manifest to the output dir.

    Every file, the manifest last, is staged: written to a temporary name
    (``name.tmp``), each CSV hashed a block of rows at a time as
    _build_files makes it, in row order.  The manifest holds the config,
    seed, and the sha256 digest of each emitted file, so identical (config,
    seed) runs produce byte-identical trees.  Once every file is written,
    the CSV files are renamed into place, the files that the directory's
    earlier manifest lists and this run does not write are deleted, and the
    manifest is renamed last, so the directory holds exactly what the new
    manifest lists; a file that no manifest lists is left alone.  If any
    write fails, the manifest's included, no file is renamed or deleted and
    the temporary files are removed.  Returns the written paths in write
    order, the manifest last.
    """
    output_dir = record.config.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = output_dir / "manifest.json"
    digests: dict[str, str] = {}
    # (temporary, final) path of each file.  The renames wait until every
    # file is written: on an ext4 host, renaming each file over the last
    # run's as soon as it was written made emission at 512 symbols 10-15%
    # slower.
    staged: list[tuple[Path, Path]] = []
    try:
        for name, blocks in _build_files(record):
            staged.append((output_dir / f"{name}.tmp", output_dir / name))
            digests[name] = _write_blocks(staged[-1][0], blocks)
        if not digests:
            warnings.warn("run produced no data (empty K_range); emitting manifest only")
        manifest = {
            "config": config_to_dict(record.config),
            "seed": record.config.seed,
            "files": {name: digests[name] for name in sorted(digests)},
        }
        staged.append((output_dir / f"{manifest_path.name}.tmp", manifest_path))
        _write_blocks(
            staged[-1][0], [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")]
        )
        for tmp, path in staged[:-1]:
            os.replace(tmp, path)
        for name in sorted(_listed_files(manifest_path) - set(digests)):
            (output_dir / name).unlink(missing_ok=True)
        os.replace(*staged[-1])
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return [path for _, path in staged]
