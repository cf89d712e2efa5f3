"""The mutant rows of scripts/checks.py stay applicable to the engine: an
edit of `src/` that removes or duplicates the text a row replaces fails
here, in tier-1, not only when the check runner runs."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("checks", os.path.join(ROOT, "scripts", "checks.py"))
checks = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(checks)


def read(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return fh.read()


@pytest.mark.parametrize("row", checks.MUTANTS, ids=[row.name for row in checks.MUTANTS])
def test_mutant_row_applies_once_and_names_its_killers(row):
    assert read("src", "rfhomology", row.file).count(row.old) == 1
    assert row.old != row.new and row.kills
    for kill in row.kills:
        if isinstance(kill, str):
            path, name = kill.split("::")
            assert re.search(rf"^def {name}\(", read("tests", path), re.M), kill
        else:
            # criterion 1 fails on the unchanged engine, so it can kill nothing
            assert kill in range(2, 11), kill


def test_each_criterion_but_8_kills_a_mutant_row():
    """Criterion 8's docstring says what it certifies instead: the
    hypothesis of `delta_injectivity`'s derivation, not the cap's values."""
    named = {kill for row in checks.MUTANTS for kill in row.kills if isinstance(kill, int)}
    assert named == set(range(2, 11)) - {8}
