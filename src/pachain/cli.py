"""Command-line entry points.

Each command is one ``run_cases`` pass over its cases.  Every flag sets its
config field through ``config_from_dict``, as a JSON file does: ``--K`` and
``--mode`` set K_range and modes to their one value.

Exit codes: 0 success, 1 bad arguments or configuration, 2 solver failure
(a solve stalled at the feasible-set boundary), 3 output I/O failure.  Every
solve that did not end Converged is named on stderr; one that ran out of
iterations still exits 0, because its point is feasible and no worse than
its start, and its outputs are written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    CASES,
    Case,
    ExperimentConfig,
    config_from_dict,
    config_from_json,
    config_to_dict,
    emit_outputs,
    run_cases,
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
    parser.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pachain", description="Cascaded-PA simulation and optimization")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one scenario at one cascade depth")
    simulate.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    optimize = commands.add_parser("optimize", help="solve one mode at one cascade depth")
    optimize.add_argument("--mode", dest="modes", choices=[m.value for m in Mode], required=True)
    for command in (simulate, optimize):
        command.add_argument(
            "--K", dest="K_range", metavar="K", type=_stage_count, required=True,
            help="number of cascaded stages",
        )
        _add_shared_flags(command)

    sweep = commands.add_parser("sweep", help="full scenario + optimization study")
    sweep.add_argument("--config", type=Path, help="JSON configuration file")
    _add_shared_flags(sweep)

    return parser


def _apply_flag_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    # Every flag but --alpha-re/-im parses to its field's name; a list field
    # takes the flag's one value.
    data = config_to_dict(config)
    for name, value in vars(args).items():
        if name in data and value is not None:
            data[name] = [value] if isinstance(data[name], list) else value
    for part, value in enumerate((args.alpha_re, args.alpha_im)):
        if value is not None:
            data["alpha"][part] = value
    return config_from_dict(data)


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None) is not None:
        config = config_from_json(args.config)
    else:
        config = ExperimentConfig()
    return _apply_flag_overrides(config, args)


def _command_cases(args: argparse.Namespace) -> list[Case]:
    """The rows a command runs; run_cases drops those of unconfigured modes."""
    if args.command == "simulate":
        return [c for c in CASES if c.mode is None and c.scenario.value == args.scenario]
    if args.command == "optimize":
        return [c for c in CASES if c.mode is not None]
    return list(CASES)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = run_cases(_base_config(args), _command_cases(args))
    except ValueError as exc:
        print(f"pachain: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        written = emit_outputs(record)
    except OSError as exc:
        print(f"pachain: output error: {exc}", file=sys.stderr)
        return EXIT_IO

    # The record's dicts are in row order (RunRecord); the stderr lines follow the files line.
    for (stages, case), metrics in record.scenario_metrics.items():
        print(f"{case} K={stages}: NMSE {metrics.nmse_db:.2f} dB, ACLR {metrics.aclr_db:.2f} dB")
    unconverged = []
    for (stages, case), result in record.optimization_results.items():
        metrics = record.optimization_metrics[stages, case]
        p0, gains = record.optimized_parameters[stages, case]
        gains_text = ", ".join(f"{g:.4f}" for g in gains)
        print(
            f"{case} K={stages}: p0={p0:.4f} gains=[{gains_text}] "
            f"status={result.status.value} iterations={result.iterations} "
            f"evaluations={result.evaluations} "
            f"jacobian_evaluations={result.jacobian_evaluations} "
            f"criticality={result.criticality:.3g} "
            f"NMSE {metrics.nmse_db:.2f} dB, ACLR {metrics.aclr_db:.2f} dB"
        )
        if result.status is not SolveStatus.CONVERGED:
            unconverged.append(f"pachain: solve ended {result.status.value}: {case} K={stages}")
    print(f"wrote {len(written)} files to {record.config.output_dir}")
    for line in unconverged:
        print(line, file=sys.stderr)
    return EXIT_SOLVER if record.solver_failures() else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
