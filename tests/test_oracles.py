"""The oracles stand apart from the engine: they read none of its homology,
eliminations or lazy cones, no engine module imports them, and their own
constructions agree with the engine's where both exist."""

import ast
import os
import random

import pytest

from rfhomology import oracles
from rfhomology.chaincplx import LazyHomology, _cone_boundary
from rfhomology.exactlin import IntMatrix
from rfhomology.oracles import circle_bundle_homology, mapping_cone
from rfhomology.selftest import random_complex_and_map

ENGINE_ONLY = {"LazyHomology", "LazyCone", "_SectorData", "_Elimination", "_smith",
               "invariant_factors", "kernel_basis", "solve_matrix", "smith_normal_form",
               "homology_table", "_cone_boundary", "_cone_les", "cone_les",
               "rfh_w0_table", "gysin"}
ENGINE_MODULES = ("exactlin", "novikov", "chaincplx", "basemodel", "rfh", "cli", "errors")


def _tree(module: str) -> ast.AST:
    path = os.path.join(os.path.dirname(oracles.__file__), f"{module}.py")
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _names(tree: ast.AST):
    """Every identifier the source names: variables, attributes, imported
    names and their aliases, definitions and arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from (node.name.split(".")[-1], node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def test_oracles_name_nothing_of_the_engine_homology():
    assert sorted(ENGINE_ONLY & set(_names(_tree("oracles")))) == []


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_no_engine_module_imports_the_oracles(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "oracles", module
            assert "oracles" not in {a.name for a in node.names}, module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[-1] != "oracles" for a in node.names), module


def _cellular_homology(g: int, m: int) -> dict:
    """The circle bundle's standard CW structure: one 0-cell, 2g+1 1-cells
    (the base loops, then the fiber), 2g+1 2-cells, one 3-cell; the only
    nonzero boundary sends the lifted base 2-cell to m times the fiber."""
    n = 2 * g + 1
    rows = [[0] * n for _ in range(n)]
    rows[n - 1][n - 1] = m
    chain = [IntMatrix.zero(0, 1), IntMatrix.zero(1, n), IntMatrix.from_rows(rows, cols=n),
             IntMatrix.zero(n, 1), IntMatrix.zero(1, 0)]
    h = LazyHomology(chain.__getitem__)
    return {d: h.group(d) for d in range(4)}


def test_circle_bundle_closed_form_matches_the_cellular_complex():
    for g in range(1, 6):
        for m in range(-3, 7):
            assert circle_bundle_homology(g, m) == _cellular_homology(g, m), (g, m)


def test_mapping_cone_blocks_match_the_engine_cone():
    """The oracle's cone boundary, written out as dense blocks, equals the
    engine's `_cone_boundary` on seeded random complexes and maps."""
    rng = random.Random(7)
    for _ in range(40):
        C, psi = random_complex_and_map(rng)
        cone = mapping_cone(psi)
        lo, hi = C.degrees
        for d in range(lo + 1, hi + 2):
            want = _cone_boundary(C.boundary_at(d - 1), psi.at(d), C.boundary_at(d))
            assert cone.boundary_at(d) == want, d
