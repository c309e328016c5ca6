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
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Complex, Integral, Real
from pathlib import Path
from typing import Iterable

import numpy as np

from .cascade import ALPHA_VALIDITY_LIMIT, CascadeConfig, PaStage, cascade_forward
from .metrics import FLOOR_DB, PSD_SEGMENT_LENGTH, MetricsReport, aclr_span, psd_span, report
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
from .signals import NoiseRealization, Signal, draw_noise, scale_amplitude, unit_excitation

RRC_SPAN_SYMBOLS = 16

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


# The kind of number each numeric field of ExperimentConfig takes, and per
# kind its name and the Python type a value is stored as; numpy numbers count
# as the Python kind they stand for.
_NUMBER_FIELDS = dict(
    alpha=Complex, sigma_sq=Real, G=Real, epsilon=Real, rolloff=Real,
    symbols=Integral, oversampling=Integral, seed=Integral,
)
_NUMBER_KINDS = {
    Complex: ("a number", complex), Real: ("a real number", float), Integral: ("an integer", int),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on, each field checked here before any compute.

    This is the one place that types a field: a JSON file reaches it through
    ``config_from_dict``, CLI flags through ``dataclasses.replace``.  A bad
    value raises a ConfigError that names its field.  A number may be a
    Python or numpy number, but not a bool, and is stored as a Python one.
    Powers and amplitudes are relative to the unit-drive excitation, whose
    peak amplitude is 1.

    alpha: each stage's cubic coefficient in f(x) = x + alpha*x*|x|^2, per
        unit amplitude squared; a number with |alpha| <= ALPHA_VALIDITY_LIMIT.
    sigma_sq: variance of the complex Gaussian noise added before each
        stage, per sample, in unit-drive power; a real number >= 0.
    G: reference gain, a linear amplitude ratio; a real number > 0.
    epsilon: half-width of the per-stage gain box [(1-epsilon)*G,
        (1+epsilon)*G], as a fraction of G; a real number in [0, 1).
    K_range: the numbers of stages studied; a list or tuple of distinct
        integers >= 1.
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
        # Tuples first, so that the entry checks cannot use up a one-shot iterable.
        for name in ("K_range", "modes"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list or tuple, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        # A bool is not a number here, although Python counts it as an int.
        for name, kind in _NUMBER_FIELDS.items():
            value = getattr(self, name)
            what, stored = _NUMBER_KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            try:
                value = stored(value)
            except OverflowError:  # an integer too large for a float
                value = np.inf
            if kind is not Integral and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if any(isinstance(k, bool) or not isinstance(k, Integral) for k in self.K_range):
            raise ConfigError(f"K_range entries must be integers, got {self.K_range}")
        object.__setattr__(self, "K_range", tuple(int(k) for k in self.K_range))
        # np.abs gives inf where abs would raise OverflowError (|alpha| > 1e308).
        if np.abs(self.alpha) > ALPHA_VALIDITY_LIMIT:
            raise ConfigError(
                f"|alpha| must be <= {ALPHA_VALIDITY_LIMIT}, got {np.abs(self.alpha):.3g}"
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
        if not PSD_SEGMENT_LENGTH <= self.symbols * self.oversampling <= np.iinfo(np.intp).max:
            raise ConfigError(
                f"symbols * oversampling must be >= the PSD segment of {PSD_SEGMENT_LENGTH} "
                f"samples and fit an array, got {self.symbols * self.oversampling}"
            )
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
            or any(isinstance(part, bool) or not isinstance(part, Real) for part in pair)
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
    except json.JSONDecodeError as exc:
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


def evaluation_noise(config: ExperimentConfig, stages: int, length: int) -> NoiseRealization:
    return draw_noise(stages, length, config.seed + 2)


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


def _evaluate(
    config: ExperimentConfig,
    x_unit: Signal,
    cascade_cfg: CascadeConfig,
    p0: float,
    noise: NoiseRealization,
) -> MetricsReport:
    """Metrics of the configured chain at drive p0 on the given realization."""
    x0 = scale_amplitude(x_unit, float(np.sqrt(p0)))
    run = cascade_forward(x0, cascade_cfg, noise)
    desired = scale_amplitude(x_unit, config.G)
    return report(
        desired,
        run.output,
        reference_input=x0,
        channel_bandwidth=1.0 + config.rolloff,
        amam_decimate=config.oversampling,
    )


# --------------------------------------------------------------------------
# The study


def _case_point(
    config: ExperimentConfig,
    x_unit: Signal,
    noise: NoiseRealization | None,
    stages: int,
    case: Case,
) -> tuple[OptimizationResult | None, float, np.ndarray]:
    """A case's (result, p0, gains) at K = stages.

    A scenario case has no result: it runs at full drive on its fixed gains.
    """
    gains = scenario_gains(config, case.scenario, stages)
    if case.mode is None:
        return None, 1.0, gains
    fixed = make_cascade_config(config, gains)
    start = scenario_start(case.scenario, stages, config.alpha, case.mode)
    spec = OptimizationSpec(case.mode, stages, start, gain_bounds=fixed.gain_bounds)
    result = solve(spec, build_residual(x_unit, fixed, noise, case.mode))
    return (result, *expand_parameters(result.parameters, case.mode, fixed))


def run_cases(config: ExperimentConfig, cases: Iterable[Case] = CASES) -> RunRecord:
    """Run the cases at every K and evaluate each on the evaluation noise.

    A case runs if it has no mode or its mode is in ``config.modes``.  The
    excitation and each noise stream are drawn once for the whole pass.
    """
    record = RunRecord(config=config)
    cases = [case for case in cases if case.mode is None or case.mode in config.modes]
    if not config.K_range or not cases:
        return record
    x_unit = excitation_for(config)
    # Row k of a draw does not depend on the row count, so one draw at the
    # deepest cascade serves every K.
    deepest = max(config.K_range)
    eval_noise = evaluation_noise(config, deepest, len(x_unit))
    opt_noise = None
    if any(case.mode is not None for case in cases):
        opt_noise = optimization_noise(config, deepest, len(x_unit))
    for stages in config.K_range:
        for case in cases:
            result, p0, gains = _case_point(config, x_unit, opt_noise, stages, case)
            metrics = _evaluate(config, x_unit, make_cascade_config(config, gains), p0, eval_noise)
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


def _finite_db(value: float) -> float:
    return FLOOR_DB if value == float("-inf") else float(value)


def _csv_bytes(header: str, rows: Iterable[str]) -> bytes:
    return "\n".join(chain([header], rows, [""])).encode("utf-8")


def _full(value: float) -> str:
    return repr(float(value))


def _column_text(column: np.ndarray) -> list[str]:
    """repr of every value: the shortest text that float() reads back exactly."""
    return list(map(repr, column.tolist()))


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
            self._key, self._text = key, _column_text(column)
        return self._text


def _pairs_csv(header: str, first: list[str], second: list[str]) -> bytes:
    return _csv_bytes(header, map(",".join, zip(first, second)))


def _case_sort_key(item: tuple[int, str]) -> tuple[int, int]:
    stages, case = item
    return (stages, CASES.index(_CASE_NAMED[case]))


def _build_files(record: RunRecord) -> dict[str, bytes]:
    """The run's files by name, each as the bytes to write.

    AM/AM and PSD values are written as repr, whole columns at a time.  A
    column that repeats from one file to the next (the AM/AM input at one
    drive, the PSD frequency axis) is formatted once per call; the reuse
    keeps only the last column of each of those two roles, so it is bounded
    by two columns' text whatever the record holds.
    """
    files: dict[str, bytes] = {}
    amam_inputs, psd_axes = _ColumnText(), _ColumnText()

    def add_signal_files(stages: int, case: str, metrics: MetricsReport) -> None:
        files[f"amam_K{stages}_{case}.csv"] = _pairs_csv(
            "input_mag,output_mag",
            amam_inputs(metrics.amam[:, 0]),
            _column_text(metrics.amam[:, 1]),
        )
        files[f"psd_K{stages}_{case}.csv"] = _pairs_csv(
            "freq_symrate,psd_db",
            psd_axes(metrics.psd.frequencies),
            _column_text(metrics.psd.power_density),
        )

    for key in sorted(record.scenario_metrics, key=_case_sort_key):
        add_signal_files(*key, record.scenario_metrics[key])

    # Signal files of the optimized cases: those that free both p0 and gains.
    for (stages, case) in sorted(record.optimization_metrics, key=_case_sort_key):
        mode = _CASE_NAMED[case].mode
        if mode in FREE_POWER_MODES and None not in gain_rows(mode, stages):
            add_signal_files(stages, case, record.optimization_metrics[stages, case])

    metric_rows = []
    all_metrics = {**record.scenario_metrics, **record.optimization_metrics}
    for (stages, case) in sorted(all_metrics, key=_case_sort_key):
        metrics = all_metrics[(stages, case)]
        metric_rows.append(
            f"{stages},{case},{_full(_finite_db(metrics.nmse_db))},"
            f"{_full(_finite_db(metrics.aclr_db))}"
        )
    if metric_rows:
        files["metrics_vs_K.csv"] = _csv_bytes("K,scenario_or_mode,nmse_db,aclr_db", metric_rows)

    power_rows = []
    gain_table_rows = []
    for (stages, case) in sorted(record.optimized_parameters, key=_case_sort_key):
        p0, gains = record.optimized_parameters[(stages, case)]
        mode = _CASE_NAMED[case].mode
        if mode in FREE_POWER_MODES:
            power_rows.append(f"{case},{stages},{p0:.2f}")
        if None not in gain_rows(mode, stages):
            for k, gain in enumerate(gains, start=1):
                gain_table_rows.append(f"{case},{stages},{k},{gain:.2f}")
    if power_rows:
        files["table_power.csv"] = _csv_bytes("case,K,p0", power_rows)
    if gain_table_rows:
        files["table_gains.csv"] = _csv_bytes("case,K,k,gain", gain_table_rows)

    return files


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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

    The manifest holds the config, seed, and a sha256 digest per emitted
    file; identical (config, seed) runs produce byte-identical trees.  The
    files that an earlier manifest in the directory lists and this run does
    not write are deleted, so the directory holds exactly what the new
    manifest lists; a file that no manifest lists is left alone.
    """
    output_dir = record.config.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    files = _build_files(record)
    if not files:
        warnings.warn("run produced no data (empty K_range); emitting manifest only")
    manifest_path = output_dir / "manifest.json"
    stale = _listed_files(manifest_path) - set(files)

    written: list[Path] = []
    for name in sorted(files):
        path = output_dir / name
        _write_atomic(path, files[name])
        written.append(path)
    for name in sorted(stale):
        (output_dir / name).unlink(missing_ok=True)

    manifest = {
        "config": config_to_dict(record.config),
        "seed": record.config.seed,
        "files": {
            name: hashlib.sha256(files[name]).hexdigest() for name in sorted(files)
        },
    }
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write_atomic(manifest_path, manifest_bytes)
    written.append(manifest_path)
    return written
