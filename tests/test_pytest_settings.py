"""The test session's own settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """A failing @given test makes hypothesis import libcst, whose
    DeprecationWarning filterwarnings = ["error"] would turn into an
    INTERNALERROR that ends the session and loses every later result.  Under
    the project's settings the failure is reported like any other."""
    settings = Path(__file__).parents[1] / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_bytes(settings.read_bytes())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(FAILING_HYPOTHESIS_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
