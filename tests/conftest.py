import re

import pytest
from hypothesis import settings

from pachain.experiments import ExperimentConfig, run_cases

# Every run draws the same hypothesis examples, so a tier-1 result does not
# depend on the draw or on examples saved by earlier runs.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def study_record(default_config):
    """The default study, scenario and optimized rows, from one run_cases
    pass as ``pachain sweep`` runs it (slow; shared)."""
    return run_cases(default_config)


@pytest.fixture(scope="session")
def scenario_record(study_record):
    """Both bracketing scenarios at the default configuration."""
    return study_record


@pytest.fixture(scope="session")
def optimization_record(study_record):
    """Full optimization study at the default configuration."""
    return study_record


_CRITERION = re.compile(r"test_criterion_(\d+)")

_STATUS = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "ERROR",
    "xfailed": "FAIL (expected; see docstring and notes)",
    "xpassed": "PASS (unexpected)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for category, label in _STATUS.items():
        for report in terminalreporter.stats.get(category, []):
            if category in ("passed", "failed") and getattr(report, "when", "call") != "call":
                continue
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                lines[int(match.group(1))] = label
    if lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(f"criterion {number:2d}: {lines[number]}")
