"""Write the reference study: what the default configuration's study gives.

The file holds, in the record's row order, NMSE and ACLR for each scenario
row of run_cases(ExperimentConfig()), and for each optimized (K, case) row
its status, stop, iterations, jacobian_evaluations, p0, gains, objective,
NMSE and ACLR, each float as the shortest repr that reads back to its bits.
It also records numpy's version and ``files_sha256``, the sha256 of the
files map of the tree that emit_outputs writes for the record: the
manifest's ``files`` object, each emitted file's name and sha256, which
does not depend on output_dir (the map that ``pachain sweep`` writes at
the default configuration).
That digest sees a change of the last bit of any emitted value.
tests/test_reference_study.py checks the study against it, so a change
that means to move the study's output regenerates it, and two runs write
the same bytes.

    python tools/reference_study.py [PATH]    (default: tests/reference_study.json)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def study_rows(record) -> dict:
    """The scenario and optimized rows of a record, as JSON-ready lists."""
    scenarios = [
        {"K": k, "case": case, "nmse_db": metrics.nmse_db, "aclr_db": metrics.aclr_db}
        for (k, case), metrics in record.scenario_metrics.items()
    ]
    optimizations = []
    for key, result in record.optimization_results.items():
        p0, gains = record.optimized_parameters[key]
        metrics = record.optimization_metrics[key]
        optimizations.append({
            "K": key[0], "case": key[1], "status": result.status.value,
            "stop": result.stop, "iterations": result.iterations,
            "jacobian_evaluations": result.jacobian_evaluations,
            "p0": float(p0), "gains": [float(g) for g in gains],
            "objective": result.objective, "nmse_db": metrics.nmse_db,
            "aclr_db": metrics.aclr_db,
        })
    return {"scenarios": scenarios, "optimizations": optimizations}


def files_digest(record) -> str:
    """sha256 of the manifest's files map of the tree emitted for the
    record, written to a temporary directory and read back."""
    from pachain.experiments import emit_outputs

    with tempfile.TemporaryDirectory() as directory:
        config = dataclasses.replace(record.config, output_dir=Path(directory))
        emit_outputs(dataclasses.replace(record, config=config))
        files = json.loads((Path(directory) / "manifest.json").read_bytes())["files"]
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pachain.experiments import ExperimentConfig, run_cases

    record = run_cases(ExperimentConfig())
    reference = {
        "numpy": np.__version__,
        "files_sha256": files_digest(record),
        **study_rows(record),
    }
    path = Path(argv[1] if len(argv) > 1 else ROOT / "tests" / "reference_study.json")
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
