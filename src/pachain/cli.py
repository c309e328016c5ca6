"""Command-line entry points.

Exit codes: 0 success, 1 bad arguments or configuration, 2 solver failure
(a solve stalled at the feasible-set boundary), 3 output I/O failure.  Every
solve that did not end Converged is named on stderr; one that ran out of
iterations still exits 0, because its point is feasible and no worse than
its start, and its outputs are written.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .experiments import (
    CASES,
    ExperimentConfig,
    RunRecord,
    _case_sort_key,
    combine_records,
    config_from_json,
    emit_outputs,
    run_cases,
    run_optimizations,
    run_scenarios,
)
from .optimizer import Mode, SolveStatus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for solver
    failures, so route argument errors to exit code 1 instead."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _stage_count(text: str) -> int:
    """--K: a cascade depth of at least one stage."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha-re", type=float, help="real part of the cubic coefficient")
    parser.add_argument("--alpha-im", type=float, help="imaginary part of the cubic coefficient")
    parser.add_argument("--sigma-sq", type=float, help="per-stage noise variance")
    parser.add_argument("--G", type=float, help="target end-to-end gain")
    parser.add_argument("--epsilon", type=float, help="relative half-width of the gain box")
    parser.add_argument("--symbols", type=int, help="number of 16-QAM symbols")
    parser.add_argument("--oversampling", type=int, help="samples per symbol")
    parser.add_argument("--rolloff", type=float, help="root-raised-cosine roll-off")
    parser.add_argument("--seed", type=int, help="base seed for symbols and noise")
    parser.add_argument("--out", type=Path, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pachain", description="Cascaded-PA simulation and optimization")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one scenario at one cascade depth")
    simulate.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    simulate.add_argument("--K", type=_stage_count, required=True, help="number of cascaded stages")
    _add_shared_flags(simulate)

    optimize = commands.add_parser("optimize", help="solve one mode at one cascade depth")
    optimize.add_argument(
        "--mode", choices=[mode.value for mode in Mode], required=True
    )
    optimize.add_argument("--K", type=_stage_count, required=True, help="number of cascaded stages")
    _add_shared_flags(optimize)

    sweep = commands.add_parser("sweep", help="full scenario + optimization study")
    sweep.add_argument("--config", type=Path, help="JSON configuration file")
    _add_shared_flags(sweep)

    return parser


def _apply_flag_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    alpha = config.alpha
    if args.alpha_re is not None:
        alpha = complex(args.alpha_re, alpha.imag)
    if args.alpha_im is not None:
        alpha = complex(alpha.real, args.alpha_im)
    if alpha != config.alpha:
        updates["alpha"] = alpha
    for name in ("sigma_sq", "G", "epsilon", "symbols", "oversampling", "rolloff", "seed"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.out is not None:
        updates["output_dir"] = args.out
    return dataclasses.replace(config, **updates) if updates else config


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None) is not None:
        config = config_from_json(args.config)
    else:
        config = ExperimentConfig()
    return _apply_flag_overrides(config, args)


def _run_simulate(args: argparse.Namespace) -> RunRecord:
    config = dataclasses.replace(_base_config(args), K_range=(args.K,))
    cases = [c for c in CASES if c.mode is None and c.scenario.value == args.scenario]
    return run_cases(config, cases)


def _run_optimize(args: argparse.Namespace) -> RunRecord:
    config = dataclasses.replace(
        _base_config(args), K_range=(args.K,), modes=(Mode(args.mode),)
    )
    return run_optimizations(config)


def _run_sweep(args: argparse.Namespace) -> RunRecord:
    config = _base_config(args)
    return combine_records(run_scenarios(config), run_optimizations(config))


def _report_lines(record: RunRecord) -> list[str]:
    lines = []
    for stages, case in sorted(record.scenario_metrics, key=_case_sort_key):
        metrics = record.scenario_metrics[stages, case]
        lines.append(
            f"{case} K={stages}: NMSE {metrics.nmse_db:.2f} dB, "
            f"ACLR {metrics.aclr_db:.2f} dB"
        )
    for key in sorted(record.optimization_results, key=_case_sort_key):
        stages, case = key
        result = record.optimization_results[key]
        metrics = record.optimization_metrics[key]
        p0, gains = record.optimized_parameters[key]
        gains_text = ", ".join(f"{g:.4f}" for g in gains)
        lines.append(
            f"{case} K={stages}: p0={p0:.4f} gains=[{gains_text}] "
            f"status={result.status.value} iterations={result.iterations} "
            f"evaluations={result.evaluations} "
            f"jacobian_evaluations={result.jacobian_evaluations} "
            f"criticality={result.criticality:.3g} "
            f"NMSE {metrics.nmse_db:.2f} dB, ACLR {metrics.aclr_db:.2f} dB"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "simulate": _run_simulate,
        "optimize": _run_optimize,
        "sweep": _run_sweep,
    }
    try:
        record = runners[args.command](args)
    except ValueError as exc:
        print(f"pachain: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        written = emit_outputs(record)
    except OSError as exc:
        print(f"pachain: output error: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in _report_lines(record):
        print(line)
    print(f"wrote {len(written)} files to {record.config.output_dir}")

    for stages, case in sorted(record.optimization_results, key=_case_sort_key):
        status = record.optimization_results[stages, case].status
        if status is not SolveStatus.CONVERGED:
            print(f"pachain: solve ended {status.value}: {case} K={stages}", file=sys.stderr)
    return EXIT_SOLVER if record.solver_failures() else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
