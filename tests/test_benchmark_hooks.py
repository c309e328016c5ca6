"""The names by which the benchmark in perfbench/ reaches into pachain.

The benchmark patches and calls pachain functions by name.  These tests load
its modules from their files, unchanged, and check that every such name still
resolves, so a rename in pachain fails here and not first in a benchmark run.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import pachain
from pachain import optimizer
from pachain.cascade import CascadeConfig, PaStage
from pachain.optimizer import Mode
from pachain.signals import draw_noise, unit_excitation

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callable(monkeypatch):
    tracing = load("tracing", monkeypatch)
    for module, attribute, *_ in tracing.TRACED:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute)
    for module in tracing.RESIDUAL_BUILDERS:
        assert callable(getattr(module, "build_residual", None)), module.__name__


def test_every_workload_builds(monkeypatch, tmp_path):
    workloads = load("workloads", monkeypatch)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    assert sorted(names) == ["oracle", "simulate", "study"]
    for name in names:
        assert callable(workloads.build(name, 42, tmp_path).run_round)


def test_one_round_of_study_and_oracle_passes_the_benchmark_checks(monkeypatch, tmp_path):
    """One round each of the study and oracle workloads, written under
    tmp_path, passes the benchmark's own correctness checks (run.check_round),
    so a change that the benchmark would call incorrect fails here first.
    The simulate round is left out: its round and checks take about 3 s."""
    run = load("run", monkeypatch)
    # check_round imports these by their plain names.
    for name in ("checks", "workloads"):
        monkeypatch.setitem(sys.modules, name, load(name, monkeypatch))
    for name in ("study", "oracle"):
        workload = sys.modules["workloads"].build(name, 42, tmp_path)
        assert run.check_round(workload, workload.run_round()) == [], name


def test_pachain_names_used_by_the_benchmark_exist():
    """Every `from pachain... import name` and every `module.name` on an
    imported pachain module, in each benchmark file."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> imported pachain module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pachain"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(source, alias.name, None)
                    assert value is not None, (path.name, node.module, alias.name)
                    if type(value) is type(pachain):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                assert hasattr(modules[node.value.id], node.attr), (path.name, node.value.id, node.attr)


def test_traced_kernel_work_counts_the_stages_each_call_runs(monkeypatch):
    """The tracer reads a kernel call's samples from its first argument and
    its stages from its third; each span's sample_stages must be the samples
    times the stages that call ran, or cascade.kernel_ns_per_sample_stage is
    wrong.  The calls: the whole chain without tangents, the whole chain with
    them, and a call that changes only g_2 and runs stage 3 alone."""
    tracing = load("tracing", monkeypatch)
    x = unit_excitation(32, 8, 0.22, 16, 42)
    config = CascadeConfig(
        stages=tuple(PaStage(-0.33 * (1 - 0.1j), 1.0) for _ in range(3)),
        sigma=0.01, input_power=1.0, reference_gain=1.0, epsilon=0.3,
    )
    noise = draw_noise(3, len(x), 43)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        residual = optimizer.build_residual(x, config, noise, Mode.UNEQUAL_GAINS)
        residual(np.array([0.9, 1.0, 1.1]))
        residual(np.array([0.9, 1.0, 1.1]), jacobian=True)
        residual(np.array([0.9, 1.2, 1.1]))
    finally:
        tracer.uninstall()
    work = [
        span.counts["sample_stages"]
        for span in tracer.spans
        if span.name == "cascade.cascade_samples"
    ]
    assert work == [3 * len(x), 3 * len(x), 1 * len(x)]
