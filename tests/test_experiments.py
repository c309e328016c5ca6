"""Experiment harness: configuration, run records, file emission, CLI."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pachain
import pachain.cascade as cascade
import pachain.cli as cli
import pachain.experiments as experiments
from pachain.cascade import (
    CascadeConfig, Chain, ModelValidityWarning, PaStage, cascade_forward, cascade_samples,
)
from pachain.experiments import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    combine_records,
    config_from_dict,
    config_from_json,
    config_to_dict,
    emit_outputs,
    optimization_noise,
    run_cases,
    run_optimizations,
    run_scenarios,
    scenario_gains,
)
from pachain.metrics import MetricsReport, PsdEstimate, amam_magnitudes, report
from pachain.optimizer import Mode, OptimizationResult, Scenario, SolveStatus
from pachain.signals import draw_noise, noise_rows, scale_amplitude

SMALL = dict(symbols=256, K_range=(1,), oversampling=8)


# ------------------------------------------------------------- configuration


def test_config_round_trip():
    config = ExperimentConfig(symbols=512, K_range=(1, 3), seed=7)
    assert config_from_dict(config_to_dict(config)) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        config_from_dict({"symbols": 64, "bogus": 1})


def test_config_alpha_encoding():
    config = config_from_dict({"alpha": [-0.2, 0.05]})
    assert config.alpha == complex(-0.2, 0.05)
    with pytest.raises(ConfigError):
        config_from_dict({"alpha": -0.2})


def test_config_mode_slugs():
    config = config_from_dict({"modes": ["power", "joint-unequal"]})
    assert config.modes == (Mode.POWER_ONLY, Mode.JOINT_UNEQUAL_GAINS)
    with pytest.raises(ConfigError):
        config_from_dict({"modes": ["warp-drive"]})


def test_config_validation_errors():
    for bad in (
        dict(sigma_sq=-1.0),
        dict(G=0.0),
        dict(epsilon=1.0),
        dict(oversampling=1),
        dict(rolloff=0.0),
        dict(symbols=0),
        dict(K_range=(0,)),
        dict(seed=-1),
        # a repeated entry would run and list its rows twice
        dict(K_range=(2, 2)),
        dict(modes=(Mode.POWER_ONLY, Mode.POWER_ONLY)),
        # the range checks alone would let these through
        dict(G=float("nan")),
        # the desired signal's energy would overflow only after the chain had run
        dict(G=1e200),
        dict(sigma_sq=float("inf")),
        dict(alpha=complex(float("nan"), 0.0)),
        # PaStage would reject it only after the excitation was drawn
        dict(alpha=2.0),
        # |f| has no peak, so scenario 2 would attenuate instead of saturating
        dict(alpha=0.33),
        dict(alpha=-0.33j),
        # metrics would reject these only after the simulation had run
        dict(oversampling=3),
        dict(oversampling=6, rolloff=1.0),
        dict(symbols=100),
        # numpy would truncate these or fail on them without naming the field
        dict(K_range=(2.7,)),
        dict(K_range=(True,)),
        dict(symbols=512.5),
        dict(symbols=True),
        dict(oversampling=8.5),
        dict(seed=1.5),
        dict(seed=False),
        dict(alpha="x"),
        dict(sigma_sq="1e-5"),
        # abs() would raise OverflowError for this alpha
        dict(alpha=complex(1.7e308, 1.7e308)),
        # psd_span would raise OverflowError, and numpy cannot allocate the samples
        dict(oversampling=10**400),
        dict(symbols=10**400),
        # containers and paths of the wrong type would raise a bare TypeError,
        # and a generator would be used up by the entry check and run as ()
        dict(K_range=3),
        dict(K_range=None),
        dict(K_range=(k for k in (1, 2))),
        dict(modes=Mode.POWER_ONLY),
        dict(modes=None),
        dict(output_dir=5),
        dict(output_dir=None),
        # Python cannot print these, so neither a message nor the manifest can
        dict(seed=-10**5000),
        dict(seed=10**5000),
        dict(symbols=-10**5000),
        dict(oversampling=-10**5000),
        # numpy would fail on the noise of the longest chain without naming K_range
        dict(K_range=(10**5000,)),
        dict(K_range=(2**62,)),
        # as many samples as an intp counts, but 16 times as many bytes
        dict(K_range=(2**44,)),
    ):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ExperimentConfig(**bad)
    # the tightest accepted shapes run through every metric
    run_scenarios(ExperimentConfig(oversampling=7, rolloff=1.0, symbols=147, K_range=(1,)))
    run_scenarios(ExperimentConfig(symbols=128, K_range=(1,)))


@pytest.mark.parametrize(
    "key, value",
    [
        ("sigma_sq", "1e-5"),
        ("G", None),
        ("epsilon", True),
        ("rolloff", [0.2]),
        ("symbols", 1.5),
        ("oversampling", "8"),
        ("seed", -1),
        ("K_range", 3),
        ("output_dir", 5),
    ],
)
def test_config_doors_give_one_message(key, value):
    """A JSON value and the same value in Python get the same ConfigError."""
    with pytest.raises(ConfigError, match=key) as from_json:
        config_from_dict({key: value})
    with pytest.raises(ConfigError) as from_python:
        ExperimentConfig(**{key: value})
    assert str(from_json.value) == str(from_python.value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)


@settings(deadline=None)
@given(key=st.sampled_from([f.name for f in fields(ExperimentConfig)]), value=_JSON_VALUES)
def test_config_doors_return_a_config_or_name_the_key(key, value):
    """Any JSON value for any key gives a config or a ConfigError naming the
    key, through either door; any other exception fails the test."""
    for door in (config_from_dict, lambda data: ExperimentConfig(**data)):
        try:
            door({key: value})
        except ConfigError as exc:
            assert key in str(exc)


def test_config_takes_numpy_numbers_as_python_ones():
    config = ExperimentConfig(
        alpha=np.complex128(-0.2 + 0.05j), sigma_sq=np.float32(0.25),
        K_range=(np.int32(2), np.int64(3)), symbols=np.int64(512),
        oversampling=np.uint8(8), seed=np.int16(7),
    )
    assert config == ExperimentConfig(
        alpha=-0.2 + 0.05j, sigma_sq=0.25, K_range=(2, 3), symbols=512, seed=7
    )
    assert all(
        type(k) is int
        for k in (*config.K_range, config.symbols, config.oversampling, config.seed)
    )
    assert type(config.sigma_sq) is float
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


_VALID = {
    PaStage: PaStage(-0.33 + 0.033j, 1.0),
    CascadeConfig: CascadeConfig((PaStage(-0.33 + 0.033j, 1.0),), 0.0, 1.0, 1.0, 0.3),
    ExperimentConfig: ExperimentConfig(),
}


# How the type message names each kind of number field.
_KIND_TEXT = {"complex": "a number", "float": "a real number", "int": "an integer"}


@pytest.mark.parametrize(
    "owner, item",
    [(type(valid), item) for valid in _VALID.values() for item in fields(valid)
     if item.type in _KIND_TEXT],
    ids=lambda value: getattr(value, "__name__", None) or value.name,
)
@pytest.mark.parametrize("bad", [True, "1"], ids=repr)
def test_a_number_field_takes_no_bool_and_no_text(owner, item, bad):
    """Every field annotated complex, float or int rejects a bool and a
    string with its class's error (ConfigError for ExperimentConfig, a plain
    ValueError for the cascade's classes), naming the field and its kind."""
    error = ConfigError if owner is ExperimentConfig else ValueError
    with pytest.raises(ValueError) as exc:
        replace(_VALID[owner], **{item.name: bad})
    assert exc.type is error
    assert str(exc.value) == f"{item.name} must be {_KIND_TEXT[item.type]}, got {bad!r}"


def test_config_from_json_reports_bad_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("not json")
    with pytest.raises(ConfigError):
        config_from_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        config_from_json(path)


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys, name):
    """A missing path or a directory is a ConfigError naming the path, so the
    CLI prints one error line, no traceback, and exits 1."""
    path = tmp_path / name
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        config_from_json(path)
    assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"pachain: error: cannot read {path}: ")
    assert "Traceback" not in err


def test_noise_streams_are_distinct():
    """The optimization noise is the seed + 1 stream, not the seed + 2
    evaluation stream that run_cases reads."""
    config = ExperimentConfig(seed=5)
    opt = optimization_noise(config, 2, 64)
    evaluation = draw_noise(2, 64, config.seed + 2)
    assert not np.array_equal(opt.stage_noise, evaluation.stage_noise)
    np.testing.assert_array_equal(opt.stage_noise, draw_noise(2, 64, 6).stage_noise)


def test_scenario_gains():
    config = ExperimentConfig()
    np.testing.assert_array_equal(scenario_gains(config, Scenario.ONE, 3), np.ones(3))
    np.testing.assert_allclose(
        scenario_gains(config, Scenario.TWO, 3), 1.4944478185503975, rtol=1e-12
    )
    # a linear chain has no saturation level to restore: unit gains
    linear = ExperimentConfig(alpha=0.0)
    np.testing.assert_array_equal(scenario_gains(linear, Scenario.TWO, 3), np.ones(3))


# --------------------------------------------------------------------- runs


def test_run_scenarios_record_shape():
    record = run_scenarios(ExperimentConfig(symbols=256, K_range=(1, 2)))
    assert set(record.scenario_metrics) == {
        (1, "scenario1"), (1, "scenario2"), (2, "scenario1"), (2, "scenario2"),
    }
    for metrics in record.scenario_metrics.values():
        assert np.isfinite(metrics.nmse_db)
        assert np.isfinite(metrics.aclr_db)


def test_linear_noise_free_chain_reproduces_reference_exactly():
    record = run_scenarios(ExperimentConfig(alpha=0.0, sigma_sq=0.0, **SMALL))
    assert record.scenario_metrics[(1, "scenario1")].nmse_db == float("-inf")


def test_run_optimizations_small():
    config = ExperimentConfig(modes=(Mode.POWER_ONLY,), **SMALL)
    record = run_optimizations(config)
    assert set(record.optimization_results) == {(1, "power_s1"), (1, "power_s2")}
    p0, gains = record.optimized_parameters[(1, "power_s1")]
    assert p0 == 1.0
    np.testing.assert_array_equal(gains, np.ones(1))
    p0, gains = record.optimized_parameters[(1, "power_s2")]
    assert 0.0 < p0 < 1.0
    np.testing.assert_allclose(gains, 1.4944478185503975, rtol=1e-12)
    for result in record.optimization_results.values():
        assert isinstance(result.status, SolveStatus)


def test_linear_chain_power_s2_runs_at_unit_gains():
    # alpha = 0 has no saturation point: scenario two keeps unit gains
    config = ExperimentConfig(alpha=0.0, modes=(Mode.POWER_ONLY,), **SMALL)
    record = run_optimizations(config)
    _, gains = record.optimized_parameters[(1, "power_s2")]
    np.testing.assert_array_equal(gains, np.ones(1))


def test_each_noise_stream_is_drawn_once(monkeypatch):
    """Every call reads the seed + 2 stream once, row by row, up to the
    deepest K.  Only the seed + 1 stream is drawn whole, once, at the
    deepest K, and only when optimized rows run."""
    draws, reads = [], []

    def counting_draw(stages, length, seed):
        draws.append((stages, seed))
        return draw_noise(stages, length, seed)

    def counting_rows(seed, rows):
        for row in noise_rows(seed, rows):
            reads.append(seed)
            yield row

    monkeypatch.setattr(experiments, "draw_noise", counting_draw)
    monkeypatch.setattr(experiments, "noise_rows", counting_rows)
    config = ExperimentConfig(symbols=256, K_range=(1, 3), modes=(Mode.POWER_ONLY,))
    for run, drawn in [
        (run_scenarios, []), (run_optimizations, [(3, config.seed + 1)]),
        (run_cases, [(3, config.seed + 1)]),
    ]:
        run(config)
        assert (draws, reads) == (drawn, [config.seed + 2] * 3), run.__name__
        draws.clear()
        reads.clear()
    run_optimizations(ExperimentConfig(symbols=256, K_range=(1, 2), modes=()))
    assert (draws, reads) == ([], [])


def _result_fields(result):
    """Every field of an OptimizationResult, arrays as their bytes."""
    values = (getattr(result, f.name) for f in fields(result))
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in values]


def _files(record):
    """The files _build_files makes for a record, by name, each as its joined bytes."""
    return {name: b"".join(blocks) for name, blocks in experiments._build_files(record)}


def test_combine_records():
    """The one pass and the two halves combined give the same files and the
    same fields in every result, on every mode at K = 1..3."""
    config = ExperimentConfig(symbols=256, K_range=(1, 2, 3))
    one_pass = run_cases(config)
    merged = combine_records(run_scenarios(config), run_optimizations(config))
    assert _files(one_pass) == _files(merged)
    assert one_pass.optimization_results.keys() == merged.optimization_results.keys()
    assert len(one_pass.optimization_results) == 18
    for key, result in one_pass.optimization_results.items():
        assert _result_fields(result) == _result_fields(merged.optimization_results[key]), key
    other = ExperimentConfig(symbols=512)
    with pytest.raises(ValueError):
        combine_records(run_scenarios(config), RunRecord(config=other))


def test_run_cases_keeps_the_configured_modes():
    config = ExperimentConfig(modes=(Mode.EQUAL_GAINS,), **SMALL)
    record = run_cases(config)
    assert set(record.scenario_metrics) == {(1, "scenario1"), (1, "scenario2")}
    assert set(record.optimization_results) == {(1, "equal_gains")}


def test_run_cases_solves_each_distinct_problem_once(monkeypatch):
    """The 40 rows of a default-K_range sweep take 28 solves, 38 kernel
    calls from cascade.Chain (one per stage of each scenario chain, 10, and
    one per optimized chain, 28) and 38 reports: 28 evaluations of
    optimized rows and one per (K, scenario).  At K = 1, unequal_gains poses the problem of equal_gains and joint_unequal
    that of joint_equal (a solve of its own keeps every field), and each
    takes that row's result, point and metrics."""
    calls = []

    def counting(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    names = ("solve", "cascade_samples", "report")
    for module, name in zip((experiments, cascade, experiments), names):
        counting(module, name)
    config = ExperimentConfig(symbols=128)
    record = run_cases(config)
    assert [calls.count(name) for name in names] == [28, 38, 38]
    assert len(record.scenario_metrics) + len(record.optimization_results) == 40

    x = experiments.excitation_for(config)
    noise = optimization_noise(config, 1, len(x))
    for case, first in [("unequal_gains", "equal_gains"), ("joint_unequal", "joint_equal")]:
        key = (1, case)
        assert record.optimization_results[key] is record.optimization_results[1, first]
        assert record.optimization_metrics[key] is record.optimization_metrics[1, first]
        (p0, gains), (first_p0, first_gains) = (
            record.optimized_parameters[key], record.optimized_parameters[1, first]
        )
        assert (p0, gains.tobytes()) == (first_p0, first_gains.tobytes())
        own = experiments._case_point(config, x, noise, 1, experiments._CASE_NAMED[case])[0]
        assert _result_fields(own) == _result_fields(record.optimization_results[key])


def test_an_evaluation_holds_few_signal_lengths():
    """At unit drive and unit gain an evaluation (one Chain advance and the
    report of its output) holds, beyond its inputs, the chain buffer and one
    real buffer for the NMSE sums (or the PSD's bounded chunks): a traced
    peak of 1.78 lengths of N complex samples at N = 262,144.  Scaled copies of the
    input and the desired signal and full-length d - a temporaries took
    4.53 lengths."""
    config = ExperimentConfig(symbols=32768, K_range=(3,), modes=())
    x = experiments.excitation_for(config)
    rows = draw_noise(3, len(x), config.seed + 2).stage_noise
    gains = scenario_gains(config, Scenario.ONE, 3)
    tracemalloc.start()  # traces what is allocated from here on
    try:
        output = Chain(x, np.full(3, config.alpha), gains, config.sigma).advance(3, rows).output()
        report(
            x, output, amam_magnitudes(x, config.oversampling),
            channel_bandwidth=1.0 + config.rolloff, amam_decimate=config.oversampling,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * len(x)) < 3.0


def _traced_sweep(K_range, output_dir):
    """A scenario sweep at 32,768 symbols and its tracemalloc peak, in
    signal lengths of 16N bytes."""
    config = ExperimentConfig(symbols=32768, K_range=K_range, modes=(), output_dir=output_dir)
    tracemalloc.start()  # traces what is allocated from here on
    try:
        record = run_cases(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return record, peak / (16 * config.symbols * config.oversampling)


@pytest.fixture(scope="module")
def traced_sweeps(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {
        K_range: _traced_sweep(K_range, out / f"K{len(K_range)}")
        for K_range in [(1, 2, 3, 4, 5), (1,)]
    }


def test_the_scenario_sweep_holds_few_signal_lengths(traced_sweeps):
    """The sweep holds the excitation, one chain buffer per scenario, and
    either one noise row with a block of draws or what one report needs,
    whatever K_range is: K = 1..5 peaks at 5.0 signal lengths and 0.7
    above K = 1 alone, the rest being the records' AM/AM output columns.
    With a noise row alive through the reports, a whole real draw per part
    and an AM/AM input column per row it took 6.1, 1.2 above K = 1; with
    whole noise draws and each chain rerun in full for every K, 9.1 and
    5.2."""
    deep, shallow = traced_sweeps[1, 2, 3, 4, 5][1], traced_sweeps[1,][1]
    assert deep < 5.5
    assert deep - shallow <= 1.0


def test_no_evaluation_row_is_alive_during_a_report(monkeypatch):
    """A scenario-only pass makes each evaluation row afresh and drops it
    once both chains have run their stage on it, so no row is alive while
    any of its reports runs."""
    handed, alive = [], []
    rows, report = experiments.noise_rows, experiments.report

    def tracked(row):
        handed.append(weakref.ref(row))
        return row

    def checked_report(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in handed))
        return report(*args, **kwargs)

    # map, not a generator, so the tracking itself holds no row.
    monkeypatch.setattr(
        experiments, "noise_rows", lambda seed, given: map(tracked, rows(seed, given))
    )
    monkeypatch.setattr(experiments, "report", checked_report)
    run_cases(ExperimentConfig(symbols=256, modes=()))
    assert len(handed) == 5
    assert alive == [0] * 10


def test_rows_at_one_drive_share_one_amam_input_column():
    """Every row at p0 = 1.0, scenario or optimized, holds one AM/AM input
    array; a row at another drive holds its own, made from its drive."""
    config = ExperimentConfig(symbols=256)
    record = run_cases(config)
    rows = {**record.scenario_metrics, **record.optimization_metrics}
    drives = {key: 1.0 for key in record.scenario_metrics}
    drives.update((key, p0) for key, (p0, _) in record.optimized_parameters.items())
    unit = record.scenario_metrics[1, "scenario1"].amam_input
    at_unit = [key for key, p0 in drives.items() if p0 == 1.0]
    assert len(at_unit) > len(record.scenario_metrics)
    assert all(rows[key].amam_input is unit for key in at_unit)

    x = experiments.excitation_for(config)
    columns = {1.0: unit}
    for key, p0 in drives.items():
        if p0 != 1.0:
            column = columns.setdefault(p0, rows[key].amam_input)
            assert rows[key].amam_input is column, key
            x0 = scale_amplitude(x, float(np.sqrt(p0)))
            assert column.tobytes() == amam_magnitudes(x0, config.oversampling).tobytes(), key
    assert len(columns) > 2


_ALONE = """
import sys
from pathlib import Path
from pachain.experiments import ExperimentConfig, emit_outputs, run_cases
config = ExperimentConfig(symbols=512, seed=9, K_range=(1, 2), output_dir=Path(sys.argv[1]))
emit_outputs(run_cases(config))
"""


def test_a_run_after_another_gives_the_files_of_its_config_alone(tmp_path):
    """No array outlives its run: config B run right after config A (another
    seed and length) writes exactly the files of B run alone in a fresh
    interpreter."""
    src = str(Path(pachain.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", _ALONE, str(tmp_path / "alone")],
        env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    run_cases(ExperimentConfig(symbols=256, seed=5, K_range=(1, 2)))
    after = tmp_path / "after"
    emit_outputs(run_cases(
        ExperimentConfig(symbols=512, seed=9, K_range=(1, 2), output_dir=after)
    ))

    def files(out):
        return json.loads((out / "manifest.json").read_text())["files"]

    assert files(after) == files(tmp_path / "alone")
    assert len(files(after)) == 19


def test_emission_holds_a_few_files_at_a_time(traced_sweeps):
    """Each file is formatted, written and hashed a block of rows at a time,
    so emitting the 22 files of a K = 1..5 sweep peaks at 3.9 times the
    largest file; holding every file's bytes until the manifest took 16.7."""
    record = traced_sweeps[1, 2, 3, 4, 5][0]
    tracemalloc.start()
    try:
        written = emit_outputs(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(written) == 22
    assert peak < 5 * max(path.stat().st_size for path in written)


def _metric_bits(metrics):
    return (
        repr(metrics.nmse_db), repr(metrics.aclr_db),
        metrics.amam_input.tobytes(), metrics.amam_output.tobytes(),
        metrics.psd.frequencies.tobytes(), metrics.psd.power_density.tobytes(),
        repr(metrics.psd.peak_density),
    )


def test_scenario_rows_have_the_bits_of_each_chain_run_alone():
    """Every row of run_cases, scenario and optimized, has the metrics, bit
    for bit, of its chain at its (p0, gains) run alone through
    cascade_forward on the seed + 2 draw, at K_range (3, 1), where stage 2
    runs without a row of its own."""
    config = ExperimentConfig(symbols=256, K_range=(3, 1))
    record = run_cases(config)
    rows = {**record.scenario_metrics, **record.optimization_metrics}
    assert len(rows) == 16
    x = experiments.excitation_for(config)
    noise = draw_noise(3, len(x), config.seed + 2)
    for (stages, case), metrics in rows.items():
        p0, gains = record.optimized_parameters.get((stages, case), (
            1.0, scenario_gains(config, experiments._CASE_NAMED[case].scenario, stages)
        ))
        x0 = scale_amplitude(x, float(np.sqrt(p0)))
        chain = experiments.make_cascade_config(config, gains)
        inputs = amam_magnitudes(x0, config.oversampling)
        alone = report(
            x, cascade_forward(x0, chain, noise).output, inputs,
            channel_bandwidth=1.0 + config.rolloff, amam_decimate=config.oversampling,
        )
        assert _metric_bits(metrics) == _metric_bits(alone), (stages, case)


@pytest.mark.parametrize("sigma_sq", [0.5, 1.0])
def test_the_scenario_sweep_warns_as_cascade_forward_does(sigma_sq):
    """Stage k's input energy is the same in every chain that holds stage k,
    so the sweep warns for each (K, scenario) with the message that
    cascade_forward gives on that chain, in the same order."""
    config = ExperimentConfig(symbols=2048, sigma_sq=sigma_sq, modes=())
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        run_scenarios(config)
    x = experiments.excitation_for(config)
    noise = draw_noise(max(config.K_range), len(x), config.seed + 2)
    with warnings.catch_warnings(record=True) as forward:
        warnings.simplefilter("always")
        for stages in config.K_range:
            for scenario in (Scenario.ONE, Scenario.TWO):
                gains = scenario_gains(config, scenario, stages)
                cascade_forward(x, experiments.make_cascade_config(config, gains), noise)
    assert len(forward) >= 6
    assert [(w.category, str(w.message)) for w in swept] == [
        (w.category, str(w.message)) for w in forward
    ]
    assert all(w.category is ModelValidityWarning for w in swept)


def test_empty_run_is_allowed():
    record = run_scenarios(ExperimentConfig(K_range=()))
    assert record.scenario_metrics == {}


# ----------------------------------------------------------------- emission


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    config = ExperimentConfig(
        symbols=256, K_range=(1,),
        modes=(Mode.POWER_ONLY, Mode.JOINT_EQUAL_GAINS),
        output_dir=out,
    )
    record = run_cases(config)
    paths = emit_outputs(record)
    return out, record, paths


def test_emit_file_inventory(emitted):
    out, _, paths = emitted
    names = {p.name for p in paths}
    assert names == {
        "amam_K1_scenario1.csv", "amam_K1_scenario2.csv", "amam_K1_joint_equal.csv",
        "psd_K1_scenario1.csv", "psd_K1_scenario2.csv", "psd_K1_joint_equal.csv",
        "metrics_vs_K.csv", "table_power.csv", "table_gains.csv", "manifest.json",
    }
    assert all(p.parent == out for p in paths)


def test_emit_csv_headers_and_formats(emitted):
    out, _, _ = emitted
    assert out.joinpath("amam_K1_scenario1.csv").read_text().splitlines()[0] == "input_mag,output_mag"
    assert out.joinpath("psd_K1_scenario1.csv").read_text().splitlines()[0] == "freq_symrate,psd_db"
    metrics_lines = out.joinpath("metrics_vs_K.csv").read_text().splitlines()
    assert metrics_lines[0] == "K,scenario_or_mode,nmse_db,aclr_db"
    cases = [line.split(",")[1] for line in metrics_lines[1:]]
    assert cases == ["scenario1", "scenario2", "power_s1", "power_s2", "joint_equal"]

    power_lines = out.joinpath("table_power.csv").read_text().splitlines()
    assert power_lines[0] == "case,K,p0"
    assert all(re.fullmatch(r"\w+,\d+,\d+\.\d\d", line) for line in power_lines[1:])

    gain_lines = out.joinpath("table_gains.csv").read_text().splitlines()
    assert gain_lines[0] == "case,K,k,gain"
    assert all(re.fullmatch(r"\w+,\d+,\d+,\d+\.\d\d", line) for line in gain_lines[1:])


def test_emit_manifest_digests(emitted):
    out, record, _ = emitted
    manifest = json.loads(out.joinpath("manifest.json").read_text())
    assert manifest["seed"] == record.config.seed
    assert manifest["config"]["symbols"] == 256
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256(out.joinpath(name).read_bytes()).hexdigest()
        assert actual == digest, name
    assert "manifest.json" not in manifest["files"]


def _signal_columns(record):
    """(name, header, first column, second column) of each AM/AM and PSD file
    that a record's metrics could give."""
    for (stages, case), metrics in {**record.scenario_metrics, **record.optimization_metrics}.items():
        psd = metrics.psd
        yield (
            f"amam_K{stages}_{case}.csv", "input_mag,output_mag",
            metrics.amam_input, metrics.amam_output,
        )
        yield f"psd_K{stages}_{case}.csv", "freq_symrate,psd_db", psd.frequencies, psd.power_density


def _signal_files_per_value(record):
    """The AM/AM and PSD files formatted one value at a time, as the reference:
    a row per pair, repr of each float, the header first and a newline last."""
    files = {}
    for name, header, first, second in _signal_columns(record):
        rows = [f"{repr(float(x))},{repr(float(y))}" for x, y in zip(first, second)]
        files[name] = ("\n".join([header] + rows) + "\n").encode("utf-8")
    return files


def test_signal_files_match_per_value_formatting(emitted):
    """Every AM/AM and PSD file is byte for byte the per-value repr text, on a
    record whose scenario rows share one input column and whose joint rows
    each have their own drive; every field reads back as its exact value."""
    config = replace(emitted[1].config, K_range=(1, 2))
    record = run_cases(config)
    inputs = {key: m.amam_input for key, m in record.scenario_metrics.items()}
    assert len(inputs) == 4
    assert all(np.array_equal(column, inputs[(1, "scenario1")]) for column in inputs.values())
    joint = [record.optimization_metrics[(k, "joint_equal")].amam_input for k in (1, 2)]
    assert not np.array_equal(joint[0], joint[1])
    assert not np.array_equal(joint[0], inputs[(1, "scenario1")])

    files = _files(record)
    signal_names = {name for name in files if name.startswith(("amam_", "psd_"))}
    reference = _signal_files_per_value(record)
    assert signal_names == {
        f"{kind}_K{k}_{case}.csv"
        for kind in ("amam", "psd")
        for k in (1, 2)
        for case in ("scenario1", "scenario2", "joint_equal")
    }
    for name, _, first, second in _signal_columns(record):
        if name not in signal_names:
            continue
        assert files[name] == reference[name], name
        lines = files[name].decode().splitlines()[1:]
        assert len(lines) == len(first)
        for line, x, y in zip(lines, first, second):
            text_x, text_y = line.split(",")
            assert float(text_x) == x and float(text_y) == y, (name, line)


def _synthetic_signal_record(input_columns, rows, seed=3, output_dir=Path("runs")):
    """A record whose scenario rows, at K = 1, 2, ..., have the given input
    columns, and whose joint rows (K = 1..5, equal and unequal gains) each
    have an input column of their own, as at distinct drives."""
    rng = np.random.default_rng(seed)
    record = RunRecord(config=ExperimentConfig(output_dir=output_dir))
    axis = np.linspace(-4.0, 4.0, 1023)

    def metrics(inputs):
        psd = PsdEstimate(axis, -60.0 * rng.random(len(axis)), 1.0)
        return MetricsReport(-30.0, -40.0, psd, inputs, rng.random(len(inputs)))

    for stages, (case, column) in enumerate(input_columns, start=1):
        record.scenario_metrics[(stages, case)] = metrics(column)
    for stages in range(1, 6):
        for case in ("joint_equal", "joint_unequal"):
            record.optimization_metrics[(stages, case)] = metrics(rng.random(rows))
    return record


def test_reused_columns_are_matched_by_their_bytes():
    """0.0 and -0.0 are equal numbers but not the same text: a column that
    differs from the last only in the sign of a zero is formatted anew."""
    zero, negative_zero = np.array([0.0, 0.5, 1.0]), np.array([-0.0, 0.5, 1.0])
    record = _synthetic_signal_record(
        [("scenario1", zero), ("scenario2", negative_zero)], rows=3
    )
    files = _files(record)
    assert files["amam_K2_scenario2.csv"].splitlines()[1].startswith(b"-0.0,")
    reference = _signal_files_per_value(record)
    assert all(files[name] == text for name, text in reference.items())


def test_column_reuse_is_bounded(monkeypatch, tmp_path):
    """The reuse keeps at most one formatted column per role, so ten joint
    rows on distinct drives are emitted with a tracemalloc peak under 5
    times the largest file.  Calibrated at 4,096 rows in blocks of 512:
    this code peaks at 3.7 largest files, and a copy that keeps the text of
    every distinct input column at 25.3."""
    monkeypatch.setattr(experiments, "WRITE_BLOCK_ROWS", 512)
    shared = np.random.default_rng(1).random(4096)
    record = _synthetic_signal_record(
        [("scenario1", shared), ("scenario2", shared)], rows=4096, output_dir=tmp_path
    )
    tracemalloc.start()
    try:
        written = emit_outputs(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * max(path.stat().st_size for path in written)


def test_emit_is_deterministic(tmp_path):
    def digests(out):
        config = ExperimentConfig(output_dir=out, **SMALL)
        emit_outputs(run_scenarios(config))
        return json.loads((out / "manifest.json").read_text())["files"]

    assert digests(tmp_path / "a") == digests(tmp_path / "b")


def chain_curve(amplitude, alpha, gains):
    """|F_K(r)|: the stage recursion y <- g*(y + alpha*y*|y|^2) from real
    amplitudes r, in plain numpy."""
    y = amplitude.astype(complex)
    for gain in gains:
        y = gain * (y + alpha * y * (y.real * y.real + y.imag * y.imag))
    return np.abs(y)


def test_noise_free_amam_points_lie_on_the_chain_curve(tmp_path):
    """At sigma = 0 the memoryless, phase-equivariant chain maps an input of
    magnitude r to one of magnitude |F_K(r)|, so every written AM/AM point
    (|x|, |y|) of the 512-symbol study lies on the curve of its row's gains
    to 1e-12 relative (8.1e-16 measured)."""
    config = ExperimentConfig(symbols=512, sigma_sq=0.0, output_dir=tmp_path)
    record = run_cases(config)
    emit_outputs(record)
    names = sorted(path.name for path in tmp_path.glob("amam_*.csv"))
    assert len(names) == 20
    for name in names:
        stages, case = re.fullmatch(r"amam_K(\d+)_(\w+)\.csv", name).groups()
        key = (int(stages), case)
        if key in record.optimized_parameters:
            gains = record.optimized_parameters[key][1]
        else:
            gains = scenario_gains(config, experiments._CASE_NAMED[case].scenario, key[0])
        points = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert len(points) == config.symbols
        expected = chain_curve(points[:, 0], config.alpha, gains)
        np.testing.assert_allclose(points[:, 1], expected, rtol=1e-12, atol=0.0, err_msg=name)


def test_emit_empty_record_warns(tmp_path):
    config = ExperimentConfig(K_range=(), output_dir=tmp_path / "empty")
    with pytest.warns(UserWarning, match="manifest only"):
        paths = emit_outputs(run_scenarios(config))
    assert [p.name for p in paths] == ["manifest.json"]


def test_rerun_into_one_directory_leaves_only_its_files(tmp_path):
    """simulate --scenario 1, then --scenario 2 into the same directory: the
    first run's files that the second does not write are gone, and a file
    that no manifest lists stays."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    for scenario in ("1", "2"):
        code = cli.main([
            "simulate", "--scenario", scenario, "--K", "1", "--symbols", "128",
            "--out", str(out),
        ])
        assert code == 0
    listed = set(json.loads((out / "manifest.json").read_text())["files"])
    assert "psd_K1_scenario2.csv" in listed
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json", "notes.txt"}


def test_a_failed_emission_renames_no_file(monkeypatch, tmp_path):
    """Files are renamed into place, and the last run's stale files deleted,
    only once all are written, the manifest last: a write that fails after
    two files, or one that fails while writing the manifest, leaves the last
    run's tree as it was, with no temporary file."""
    config = ExperimentConfig(output_dir=tmp_path, **SMALL)
    record = run_scenarios(config)
    emit_outputs(record)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    build, write = experiments._build_files, experiments._write_blocks

    def failing_build(record):
        files = build(record)
        for _ in range(2):
            yield next(files)[0], [b"changed"]
        raise OSError("no space left on device")

    def failing_manifest(path, blocks):
        if path.name != "manifest.json.tmp":
            return write(path, blocks)
        write(path, [b"{"])
        raise OSError("no space left on device")

    # Scenario 2 alone on another seed: its renames would change bytes and
    # its deletions would remove scenario 1's files.
    other = run_cases(replace(config, seed=1), [experiments._CASE_NAMED["scenario2"]])
    for name, failing, emitted in [
        ("_build_files", failing_build, record), ("_write_blocks", failing_manifest, other),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, failing)
            with pytest.raises(OSError, match="no space"):
                emit_outputs(emitted)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before, name


def test_emit_deletes_only_plain_names_of_the_old_manifest(tmp_path):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    keep = [tmp_path / "outside.csv", out / "sub" / "inner.csv", out / "unlisted.csv"]
    for path in keep:
        path.write_text("kept")
    (out / "stale.csv").write_text("old")
    old = ["../outside.csv", "sub/inner.csv", "..", "", "manifest.json", "stale.csv"]
    (out / "manifest.json").write_text(json.dumps({"files": dict.fromkeys(old, "")}))
    emit_outputs(run_scenarios(ExperimentConfig(output_dir=out, **SMALL)))
    assert all(path.read_text() == "kept" for path in keep)
    assert not (out / "stale.csv").exists()


def test_import_leaves_scipy_unloaded():
    """scipy is a test dependency only: importing the package and its CLI
    must not load it."""
    code = "import sys, pachain, pachain.cli; sys.exit(int('scipy' in sys.modules))"
    src = str(Path(pachain.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0


def test_unreachable_reference_serializes_at_floor(tmp_path):
    config = ExperimentConfig(
        alpha=0.0, sigma_sq=0.0, output_dir=tmp_path / "floor", **SMALL
    )
    emit_outputs(run_scenarios(config))
    body = (tmp_path / "floor" / "metrics_vs_K.csv").read_text()
    assert "-300.0" in body


def test_readme_sketch_imports_from_the_package():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1]
    statement = re.search(r"from pachain import \(.*?\)", sketch, re.S).group(0)
    names = re.findall(r"\w+", statement.split("(", 1)[1])
    assert names and set(names) <= set(pachain.__all__)
    exec(statement, {})


def test_readme_json_defaults_match_the_config():
    """The README's defaults block has the keys and values of the default
    config; alpha, written in short decimals there, agrees to 1e-12."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    shown, defaults = json.loads(block), config_to_dict(ExperimentConfig())
    assert shown.keys() == defaults.keys()
    np.testing.assert_allclose(shown.pop("alpha"), defaults.pop("alpha"), rtol=1e-12)
    assert shown == defaults


# ---------------------------------------------------------------------- CLI


def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "sim"
    code = cli.main([
        "simulate", "--scenario", "1", "--K", "1", "--symbols", "256",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "amam_K1_scenario1.csv").exists()
    assert not (out / "amam_K1_scenario2.csv").exists()
    assert "scenario1 K=1" in capsys.readouterr().out


def test_cli_optimize(tmp_path, capsys):
    out = tmp_path / "opt"
    code = cli.main([
        "optimize", "--mode", "equal-gains", "--K", "1", "--symbols", "256",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "table_gains.csv").exists()
    assert "equal_gains K=1" in capsys.readouterr().out


def test_cli_sweep_prints_rows_in_case_order(tmp_path, capsys):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps({"K_range": [2]}))
    code = cli.main(["sweep", "--config", str(path), "--symbols", "256",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    printed = [
        line.split(" K=")[0]
        for line in capsys.readouterr().out.splitlines()
        if " K=2: " in line
    ]
    assert printed == [case.name for case in experiments.CASES]


def test_cli_names_unconverged_solves_and_exits_zero(monkeypatch, tmp_path, capsys):
    """A solve cut short by its iteration budget is named on stderr, and the
    run still exits 0."""
    monkeypatch.setattr(pachain.optimizer, "MAX_ITERATIONS", 2)
    code = cli.main([
        "optimize", "--mode", "unequal-gains", "--K", "2", "--symbols", "512",
        "--out", str(tmp_path / "opt"),
    ])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "pachain: solve ended MaxIterations: unequal_gains K=2"
    ]


def test_cli_flag_overrides_change_the_run(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["simulate", "--scenario", "1", "--K", "1", "--symbols", "256",
              "--seed", "1", "--out", str(out_a)])
    cli.main(["simulate", "--scenario", "1", "--K", "1", "--symbols", "256",
              "--seed", "2", "--out", str(out_b)])
    a = json.loads((out_a / "manifest.json").read_text())
    b = json.loads((out_b / "manifest.json").read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    assert a["files"] != b["files"]


_FLAG_VALUES = {
    "--sigma-sq": ("sigma_sq", "0.002", 0.002),
    "--G": ("G", "1.2", 1.2),
    "--epsilon": ("epsilon", "0.1", 0.1),
    "--symbols": ("symbols", "300", 300),
    "--oversampling": ("oversampling", "6", 6),
    "--rolloff": ("rolloff", "0.25", 0.25),
    "--seed": ("seed", "9", 9),
    "--out": ("output_dir", "elsewhere", Path("elsewhere")),
    "--alpha-re": ("alpha", "-0.2", complex(-0.2, 0.05)),
    "--alpha-im": ("alpha", "0.01", complex(-0.25, 0.01)),
}


@pytest.mark.parametrize("flag", list(_FLAG_VALUES))
def test_each_flag_sets_only_its_own_field(flag):
    """Each shared flag, parsed and applied to a config, sets its own field
    and leaves every other field at the config's value."""
    base = ExperimentConfig(
        alpha=-0.25 + 0.05j, sigma_sq=1e-4, G=0.9, epsilon=0.2, symbols=256,
        oversampling=4, rolloff=0.3, seed=5, output_dir=Path("base"),
    )
    name, text, value = _FLAG_VALUES[flag]
    args = cli.build_parser().parse_args(["sweep", flag, text])
    assert cli._apply_flag_overrides(base, args) == replace(base, **{name: value})
    assert cli._apply_flag_overrides(base, cli.build_parser().parse_args(["sweep"])) == base


def test_cli_bad_usage_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--scenario", "9", "--K", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scenario", "1"], ["optimize", "--mode", "power"]],
    ids=["simulate", "optimize"],
)
def test_cli_zero_stages_names_the_flag(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--K", "0", "--symbols", "128", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--K" in err and "K_range" not in err
    assert not out.exists()


def test_cli_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"no_such_option": true}')
    assert cli.main(["sweep", "--config", str(path)]) == 1
    assert "unknown configuration keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key",
    [
        pytest.param({"symbols": None}, "symbols", id="symbols-null"),
        pytest.param({"K_range": 3}, "K_range", id="K_range-scalar"),
        pytest.param({"alpha": [1, None]}, "alpha", id="alpha-null-part"),
        pytest.param({"alpha": [2, 0]}, "alpha", id="alpha-above-limit"),
        pytest.param({"alpha": [0.33, 0]}, "alpha", id="alpha-expansive"),
        pytest.param({"alpha": [0, -0.33]}, "alpha", id="alpha-imaginary"),
        pytest.param({"output_dir": 5}, "output_dir", id="output_dir-number"),
        pytest.param({"modes": "power"}, "modes", id="modes-string"),
        pytest.param({"symbols": 1.7}, "symbols", id="symbols-fraction"),
        pytest.param({"seed": True}, "seed", id="seed-boolean"),
        pytest.param({"seed": -1}, "seed", id="seed-negative"),
        pytest.param({"G": float("nan")}, "G", id="G-nan"),
        pytest.param({"sigma_sq": 10**400}, "sigma_sq", id="sigma_sq-overflow"),
        pytest.param({"oversampling": 10**400}, "oversampling", id="oversampling-overflow"),
        pytest.param({"symbols": 10**400}, "symbols", id="symbols-overflow"),
        pytest.param({"K_range": [2, 2]}, "K_range", id="K_range-repeated"),
        pytest.param({"modes": ["power", "power"]}, "modes", id="modes-repeated"),
        pytest.param({"alpha": [True, 0]}, "alpha", id="alpha-boolean-part"),
        pytest.param({"alpha": ["x", 0]}, "alpha", id="alpha-string-part"),
        pytest.param({"alpha": [10**400, 0]}, "alpha", id="alpha-overflow"),
        pytest.param({"alpha": [1]}, "alpha", id="alpha-one-part"),
        pytest.param({"modes": [["power"]]}, "modes", id="modes-nested-list"),
        pytest.param({"modes": None}, "modes", id="modes-null"),
        pytest.param({"K_range": None}, "K_range", id="K_range-null"),
        pytest.param({"output_dir": None}, "output_dir", id="output_dir-null"),
        pytest.param({"K_range": [2**62]}, "K_range", id="K_range-too-large"),
        pytest.param({"seed": -10**4000}, "seed", id="seed-4001-digits-negative"),
        # json cannot read an integer of more than 4,300 digits: the file is named
        pytest.param('{"seed": ' + "9" * 5000 + "}", "bad.json", id="seed-5000-digits"),
    ],
)
def test_cli_bad_config_value_names_the_key(tmp_path, capsys, data, key):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pachain: error:")
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_gain_whose_desired_energy_overflows(tmp_path, capsys):
    """At G = 1e200 the desired signal's energy is not a float: the run
    stops before any compute with one error line naming G, not an
    OverflowError after the chain has run.  G = 1e150 still runs."""
    argv = ["simulate", "--scenario", "1", "--K", "1", "--symbols", "128"]
    assert cli.main([*argv, "--G", "1e200", "--out", str(tmp_path / "big")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pachain: error: G") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "big").exists()
    assert cli.main([*argv, "--G", "1e150", "--out", str(tmp_path / "large")]) == 0


def test_cli_simulate_runs_only_the_named_scenario(monkeypatch, tmp_path):
    """Only scenario 2's chain runs: one one-stage kernel call on its gain,
    and no whole-chain call."""
    calls = []

    def counting_samples(x0, alphas, gains, *args, **kwargs):
        calls.append(gains.tolist())
        return cascade_samples(x0, alphas, gains, *args, **kwargs)

    def no_forward(*args, **kwargs):
        raise AssertionError("a scenario row ran cascade_forward")

    monkeypatch.setattr(cascade, "cascade_samples", counting_samples)
    monkeypatch.setattr(experiments, "cascade_forward", no_forward)
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--scenario", "2", "--K", "1", "--symbols", "128",
                     "--out", str(out)])
    assert code == 0
    assert calls == [scenario_gains(ExperimentConfig(), Scenario.TWO, 1).tolist()]
    assert (out / "amam_K1_scenario2.csv").exists()
    assert not (out / "amam_K1_scenario1.csv").exists()


def test_cli_sweep_draws_each_stream_once(monkeypatch, tmp_path):
    """One sweep draws the excitation and the seed + 1 optimization noise
    once each, at the deepest K, and reads the seed + 2 evaluation stream
    once, row by row, up to the deepest K."""
    calls, reads = [], []
    excitation, noise = experiments.unit_excitation, experiments.draw_noise

    def counting_excitation(*args):
        calls.append("x")
        return excitation(*args)

    def counting_noise(stages, length, seed):
        calls.append((stages, seed))
        return noise(stages, length, seed)

    def counting_rows(seed, rows):
        for row in noise_rows(seed, rows):
            reads.append(seed)
            yield row

    monkeypatch.setattr(experiments, "unit_excitation", counting_excitation)
    monkeypatch.setattr(experiments, "draw_noise", counting_noise)
    monkeypatch.setattr(experiments, "noise_rows", counting_rows)
    path = tmp_path / "k12.json"
    path.write_text(json.dumps({"K_range": [1, 2], "seed": 5}))
    code = cli.main(["sweep", "--config", str(path), "--symbols", "256",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert (calls, reads) == (["x", (2, 6)], [7, 7])


def test_cli_sweep_shows_each_overdrive_message_once(tmp_path):
    """Every row's metrics are taken on one source line, so under the
    default filter a sweep at sigma^2 = 0.5 shows each of its 5 distinct
    overdrive messages once; a second evaluation path showed each twice."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        warnings.simplefilter("default")
        code = cli.main(["sweep", "--symbols", "512", "--sigma-sq", "0.5",
                         "--out", str(tmp_path / "od")])
    assert code == 0
    messages = [str(w.message) for w in caught]
    assert (len(messages), len(set(messages))) == (5, 5)


def test_cli_output_collision_exits_three(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = cli.main(["simulate", "--scenario", "1", "--K", "1",
                     "--symbols", "256", "--out", str(target)])
    assert code == 3
    assert "output error" in capsys.readouterr().err


def test_cli_solver_failure_exits_two(monkeypatch, tmp_path, capsys):
    from pachain.metrics import MetricsReport

    record = RunRecord(config=ExperimentConfig(K_range=(), output_dir=tmp_path / "f"))
    key = (1, "power_s1")
    record.optimization_results[key] = OptimizationResult(
        parameters=np.array([1.0]), objective=1.0,
        objective_history=np.array([1.0]),
        status=SolveStatus.STALLED_AT_BOUND, iterations=3,
        evaluations=2, jacobian_evaluations=4, criticality=0.5,
    )
    record.optimization_metrics[key] = MetricsReport(
        nmse_db=-10.0, aclr_db=-30.0, psd=None, amam_input=None, amam_output=None
    )
    record.optimized_parameters[key] = (1.0, np.ones(1))
    monkeypatch.setattr(cli, "run_cases", lambda config, cases: record)
    assert cli.main(["optimize", "--mode", "power", "--K", "1"]) == 2
    printed = capsys.readouterr()
    assert "pachain: solve ended StalledAtBound: power_s1 K=1" in printed.err
    assert "iterations=3 evaluations=2 jacobian_evaluations=4" in printed.out


def test_cli_empty_sweep_exits_zero(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"K_range": [], "output_dir": str(tmp_path / "out")}))
    with pytest.warns(UserWarning):
        assert cli.main(["sweep", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
