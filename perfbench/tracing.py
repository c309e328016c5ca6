"""Spans around pachain's public calls, installed where the names are imported.

A ``Tracer`` replaces each traced function on the module that calls it (for
example ``cascade_samples`` on ``pachain.optimizer``, which imported it) with
a wrapper that records a span: name, start, end, parent and a few counts.
Spans stay in memory until ``write_spans``.  ``layer_metrics`` turns one round's
spans into the benchmark's per-layer metrics; a layer's self time is its
spans' duration minus that of the child spans named for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from pachain import experiments, metrics, optimizer
from pachain.optimizer import Mode

MODE_SLUGS = tuple(mode.value for mode in Mode)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    start_ns: int = 0
    end_ns: int = 0
    counts: dict | None = None  # only on spans that count work

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _grid_work(args, kwargs) -> dict:
    # The oracle workload passes resolution by keyword.
    x0_unit, config, _noise, mode = args
    resolution = kwargs["resolution"]
    dim = optimizer.mode_dimension(mode, config.stage_count)
    points = resolution**dim
    return {"points": points, "sample_stages": points * len(x0_unit) * config.stage_count}


def _kernel_work(args, kwargs) -> dict:
    return {"sample_stages": len(args[0]) * len(args[2])}


def _solve_counts(result) -> dict:
    return {
        "iterations": result.iterations,
        "accepted": len(result.objective_history) - 1,
    }


def _emit_counts(written) -> dict:
    return {"files": len(written), "bytes": sum(path.stat().st_size for path in written)}


# (module that calls the function, attribute, span name, counts before, counts after)
TRACED = (
    (experiments, "unit_excitation", "signals.unit_excitation", None, None),
    (experiments, "draw_noise", "signals.draw_noise", None, None),
    (optimizer, "cascade_samples", "cascade.cascade_samples", _kernel_work, None),
    (experiments, "cascade_forward", "cascade.cascade_forward", None, None),
    (experiments, "solve", "optimizer.solve", None, _solve_counts),
    (optimizer, "solve", "optimizer.solve", None, _solve_counts),
    (optimizer, "grid_oracle", "optimizer.grid_oracle", _grid_work, None),
    (experiments, "report", "metrics.report", None, None),
    (metrics, "estimate_psd", "metrics.estimate_psd", None, None),
    (experiments, "run_scenarios", "experiments.run_scenarios", None, None),
    (experiments, "run_optimizations", "experiments.run_optimizations", None, None),
    (experiments, "emit_outputs", "experiments.emit_outputs", None, _emit_counts),
)
# build_residual returns the residual closure the solver calls; the tracer
# wraps the closure it returns, counting its calls per mode.
RESIDUAL_BUILDERS = (experiments, optimizer)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _traced(self, name, fn, before=None, after=None, counts=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, counts=counts)
            if before is not None:
                span.counts = before(args, kwargs)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                span.counts = after(result)
            return result

        return wrapper

    def _patch(self, module, attribute: str, replacement) -> None:
        self._originals.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    def install(self) -> None:
        for module, attribute, name, before, after in TRACED:
            self._patch(module, attribute, self._traced(name, getattr(module, attribute), before, after))
        for module in RESIDUAL_BUILDERS:
            build = getattr(module, "build_residual")

            def traced_build(x0_unit, config, noise, mode, _build=build):
                return self._traced(
                    "optimizer.residual", _build(x0_unit, config, noise, mode),
                    counts={f"mode.{mode.value}": 1},
                )

            self._patch(module, "build_residual", traced_build)

    def uninstall(self) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every round's spans to one tab-separated file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("round\tid\tparent\tname\tstart_ns\tend_ns\n")
        for round_index, tracer in enumerate(tracers):
            for i, span in enumerate(tracer.spans):
                handle.write(
                    f"{round_index}\t{i}\t{span.parent}\t{span.name}\t"
                    f"{span.start_ns}\t{span.end_ns}\n"
                )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one round's spans."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[tuple[str, str], float] = {}
    sums: dict[str, float] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.parent >= 0:
            key = (spans[span.parent].name, span.name)
            child_time[key] = child_time.get(key, 0.0) + span.seconds
        for counter, value in (span.counts or {}).items():
            key = f"{span.name}:{counter}"
            sums[key] = sums.get(key, 0) + value

    def ns_per(seconds: float, work: float) -> float:
        return seconds * 1e9 / work if work else 0.0

    kernel_s = total.get("cascade.cascade_samples", 0.0)
    oracle_s = total.get("optimizer.grid_oracle", 0.0)
    solve_s = total.get("optimizer.solve", 0.0)
    residual_s = total.get("optimizer.residual", 0.0)
    out = {
        "signals.excitation_s": total.get("signals.unit_excitation", 0.0),
        "signals.noise_s": total.get("signals.draw_noise", 0.0),
        "cascade.kernel_calls": calls.get("cascade.cascade_samples", 0),
        "cascade.kernel_s": kernel_s,
        "cascade.kernel_ns_per_sample_stage": ns_per(
            kernel_s, sums.get("cascade.cascade_samples:sample_stages", 0)
        ),
        "cascade.forward_calls": calls.get("cascade.cascade_forward", 0),
        "cascade.forward_s": total.get("cascade.cascade_forward", 0.0),
        "optimizer.solves": calls.get("optimizer.solve", 0),
        "optimizer.iterations": sums.get("optimizer.solve:iterations", 0),
        "optimizer.accepted_steps": sums.get("optimizer.solve:accepted", 0),
        "optimizer.residual_evals": calls.get("optimizer.residual", 0),
    }
    for slug in MODE_SLUGS:
        out[f"optimizer.residual_evals.{slug}"] = sums.get(f"optimizer.residual:mode.{slug}", 0)
    out.update({
        "optimizer.solve_s": solve_s,
        "optimizer.solve_self_s": solve_s - child_time.get(("optimizer.solve", "optimizer.residual"), 0.0),
        "optimizer.residual_self_s": residual_s
        - child_time.get(("optimizer.residual", "cascade.cascade_samples"), 0.0),
        "optimizer.oracle_s": oracle_s,
        "optimizer.oracle_points": sums.get("optimizer.grid_oracle:points", 0),
        "optimizer.oracle_ns_per_sample_stage": ns_per(
            oracle_s, sums.get("optimizer.grid_oracle:sample_stages", 0)
        ),
        "metrics.report_calls": calls.get("metrics.report", 0),
        "metrics.report_s": total.get("metrics.report", 0.0),
        "metrics.psd_s": total.get("metrics.estimate_psd", 0.0),
        "experiments.scenarios_s": total.get("experiments.run_scenarios", 0.0),
        "experiments.optimizations_s": total.get("experiments.run_optimizations", 0.0),
        "experiments.emit_s": total.get("experiments.emit_outputs", 0.0),
        "experiments.emit_bytes": sums.get("experiments.emit_outputs:bytes", 0),
        "experiments.files": sums.get("experiments.emit_outputs:files", 0),
    })
    return out
