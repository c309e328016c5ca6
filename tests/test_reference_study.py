"""The default study against tests/reference_study.json (tools/reference_study.py)."""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import load_tool

reference_study = load_tool("reference_study")

REFERENCE = json.loads((Path(__file__).parent / "reference_study.json").read_text())

# Floats must agree to this relative tolerance, not bit for bit: another
# numpy or CPU may round the last bits of a sum differently.  Statuses,
# counts, keys and row order must match exactly.
RELATIVE_TOLERANCE = 1e-9


def _assert_matches(got, want, where):
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=RELATIVE_TOLERANCE), where
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for index, (got_item, want_item) in enumerate(zip(got, want)):
            _assert_matches(got_item, want_item, f"{where}[{index}]")
    else:
        assert type(got) is type(want) and got == want, where


def test_the_default_study_matches_the_reference(study_record):
    """Each scenario row's NMSE and ACLR, and each optimized row's status,
    stop, iterations, Jacobian evaluations, p0, gains, objective, NMSE and
    ACLR, are those of the committed reference, in its row order."""
    rows = reference_study.study_rows(study_record)
    assert len(rows["scenarios"]) == 10 and len(rows["optimizations"]) == 30
    want = {key: value for key, value in REFERENCE.items() if key not in ("numpy", "files_sha256")}
    _assert_matches(rows, want, "reference")


def test_the_default_tree_has_the_reference_digest(study_record):
    """The files map of the tree emitted for the default study, each file's
    name and sha256, has the committed digest, bit for bit, under the numpy
    that wrote the reference.  It moves with the last bit of any emitted
    value, which the tolerance above cannot see."""
    if np.__version__ != REFERENCE["numpy"]:
        pytest.skip(
            f"the digest was written under numpy {REFERENCE['numpy']}, this is {np.__version__}"
        )
    digest = reference_study.files_digest(study_record)
    assert digest == REFERENCE["files_sha256"]
