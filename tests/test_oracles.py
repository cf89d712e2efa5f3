"""The oracles stand apart from the engine: they read none of its homology,
eliminations or lazy cones, no engine module imports them, and their own
constructions agree with the engine's where both exist.  The engine keeps
no public name that nothing in the package reads."""

import ast
import os
import random
import re

import pytest

from rfhomology import oracles
from rfhomology.chaincplx import LazyHomology, _cone_boundary
from rfhomology.errors import DegreeOutOfRange
from rfhomology.exactlin import IntMatrix
from rfhomology.oracles import (GradedComplex, circle_bundle_homology, homology_by_minors,
                                mapping_cone)
from rfhomology.selftest import random_complex_and_map

ENGINE_ONLY = {"LazyHomology", "LazyCone", "_SectorData", "_Elimination", "_smith",
               "invariant_factors", "solve_matrix", "_cone_boundary", "_cone_les",
               "cone_les", "rfh_w0_table", "gysin"}
ENGINE_MODULES = ("exactlin", "novikov", "chaincplx", "basemodel", "rfh", "cli", "errors")
# the modules whose public names must each have a reader in the package
SURFACE_MODULES = ("exactlin", "chaincplx", "basemodel", "rfh")


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


def test_homology_by_minors_degree_guard():
    """The oracle reads H_d only at degrees interior to the window, where
    both boundaries at d are the complex's own."""
    C = GradedComplex((0, 4), {d: ("x",) for d in range(5)}, {})
    with pytest.raises(DegreeOutOfRange):
        homology_by_minors(C, range(0, 1))
    with pytest.raises(DegreeOutOfRange):
        homology_by_minors(C, range(4, 5))
    assert set(homology_by_minors(C, range(1, 4))) == {1, 2, 3}


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _public_methods(tree: ast.Module):
    """(name, node) for each public method or property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            yield from ((node.name, node) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def _reads_attribute(tree: ast.Module, name: str, skip: ast.AST) -> bool:
    """Whether `tree`, outside the subtree `skip`, reads an attribute `name`
    of anything."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _reads(tree: ast.Module, module: str, name: str, inside: bool, skip: ast.AST) -> bool:
    """Whether `tree` (`module` itself if `inside`), outside the subtree
    `skip`, reads `module`.`name`: as a bare name inside the module or
    where it is imported from there, or as an attribute of the module."""
    local = {name} if inside else set()
    modules = {module}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source == module and alias.name == name:
                    local.add(alias.asname or name)
                elif alias.name == module:
                    modules.add(alias.asname or module)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in local:
            return True
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("module", SURFACE_MODULES)
def test_every_public_engine_name_has_a_reader_or_a_reason(module):
    """Each public top-level name of the module is read somewhere in the
    package outside its own definition, and so is each public method or
    property of its classes, as an attribute of anything; the names that
    are not are exactly those its docstring gives a reason for, as "`name`
    has no caller"."""
    package = os.path.dirname(oracles.__file__)
    trees = {f[:-3]: _tree(f[:-3]) for f in sorted(os.listdir(package)) if f.endswith(".py")}
    unread = {name for name, node in _public_definitions(trees[module])
              if not any(_reads(tree, module, name, other == module, node)
                         for other, tree in trees.items())}
    unread |= {name for name, node in _public_methods(trees[module])
               if not any(_reads_attribute(tree, name, node) for tree in trees.values())}
    reasons = set(re.findall(r"`(\w+)` has no caller", ast.get_docstring(trees[module])))
    assert unread == reasons, module
