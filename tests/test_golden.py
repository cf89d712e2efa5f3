"""Byte-for-byte CLI outputs.

The files under tests/golden/ hold the markdown and `--format json` stdout
of every README example except `selftest` (whose JSON carries timings), and
of one `rfh-full` run that takes the `relations` fallback, and of one
`gysin` run far from degree 0, where no node may depend on a degree
window.  They pin the rendering and the argument parsing: a change to
either shows up here.
"""

import os

import pytest

from rfhomology.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "rfh-w0-cp2": ["rfh-w0", "--model", "cp:2", "--m", "3", "--degrees", "-6..6"],
    "rfh-w0-surface1": ["rfh-w0", "--model", "surface:1", "--m", "2", "--degrees", "-2..3"],
    "rfh-full-cp2-upper": ["rfh-full", "--model", "cp:2", "--m", "2", "--tau", "3/1",
                           "--degrees", "-4..4"],
    "rfh-full-cp2-fp5": ["rfh-full", "--model", "cp:2", "--m", "2", "--tau", "2/1",
                         "--coeff", "fp:5"],
    "gysin-cp3": ["gysin", "--model", "cp:3", "--m", "4", "--degrees", "-6..6"],
    "gysin-cp2-far": ["gysin", "--model", "cp:2", "--m", "3", "--degrees", "-40..-34"],
    "transfer-cp2": ["transfer", "--model", "cp:2", "--m", "5"],
    "orderability-cp2": ["orderability", "--model", "cp:2", "--m", "1"],
    "cp2-demo": ["cp2-demo", "--m", "2", "--tau", "1"],
    "rfh-full-relations": ["rfh-full", "--model",
                           "file:" + os.path.join(GOLDEN, "relations_model.json"),
                           "--m", "1", "--tau", "10", "--degrees", "0..1"],
}


@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name, fmt):
    assert main(CASES[name] + ["--format", fmt]) == 0
    with open(os.path.join(GOLDEN, f"{name}.{fmt}")) as fh:
        assert capsys.readouterr().out == fh.read()
