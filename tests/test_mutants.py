"""The catalog of tools/mutants.py, checked without running a mutant."""

from conftest import load_tool

mutants = load_tool("mutants")


def test_every_mutant_applies_once():
    """Mutant names are unique, and each old text occurs exactly once in its
    file and differs from its new text: a change to a mutated line must
    update its mutant."""
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 20
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
