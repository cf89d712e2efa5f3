"""The repository's documents, read as text."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_changes_lines_fit_in_100_columns():
    """CHANGES.md is wrapped at 100 columns, so that diffs and greps read it
    line by line."""
    with open(os.path.join(ROOT, "CHANGES.md"), encoding="utf-8") as fh:
        long = [(n, len(line)) for n, line in enumerate(fh.read().split("\n"), 1)
                if len(line) > 100]
    assert not long, long
