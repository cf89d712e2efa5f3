import random

import pytest

from rfhomology.chaincplx import (ChainMap, GradedComplex, LongExactSequence,
                                  cone_les, homology_table, identity_chain_map,
                                  mapping_cone, verify_boundary,
                                  verify_exactness)
from rfhomology.errors import DegreeOutOfRange, NotAChainMap
from rfhomology.exactlin import IntMatrix, ZModulePresentation
from rfhomology.selftest import random_complex_and_map


def two_step(n1, n2):
    """Z --n2--> Z --n1--> Z in degrees 2, 1, 0."""
    return GradedComplex((0, 2), {0: ("a",), 1: ("b",), 2: ("c",)},
                         {1: IntMatrix.from_rows([[n1]]),
                          2: IntMatrix.from_rows([[n2]])})


def test_verify_boundary():
    C = GradedComplex((0, 2), {0: ("a",), 1: ("b",), 2: ("c",)}, {})
    assert verify_boundary(C).ok
    bad = two_step(1, 1)
    rep = verify_boundary(bad)
    assert not rep.ok and rep.first_failure == 2
    assert verify_boundary(two_step(1, 0)).ok


def test_mapping_cone_of_zero_is_direct_sum():
    C = GradedComplex((-1, 3), {0: ("x", "y"), 1: ("z",), 2: ("w",)},
                      {1: IntMatrix.from_rows([[2], [0]])})
    zero = ChainMap(C, C, -2, {})
    cone = mapping_cone(zero)
    tbl = homology_table(cone, range(0, 4))
    direct = homology_table(C, range(0, 3))
    for d in range(1, 3):
        a, b = direct.get(d - 1), direct.get(d)
        got = tbl[d]
        assert got.free_rank == a.free_rank + b.free_rank
        assert sorted(got.torsion) == sorted(a.torsion + b.torsion)


def test_mapping_cone_hand_example():
    """C = Z in degrees 0 and 2 with psi multiplication by m: homology Z,
    Z_m, 0, Z in cone degrees 0, 1, 2, 3 (hand Smith computation)."""
    C = GradedComplex((-1, 3), {0: ("a",), 2: ("b",)}, {})
    for m in (2, 3, 5):
        psi = ChainMap(C, C, -2, {2: IntMatrix.from_rows([[m]])})
        tbl = homology_table(mapping_cone(psi), range(0, 4))
        assert tbl[0] == ZModulePresentation(1, ())
        assert tbl[1] == ZModulePresentation(0, (m,))
        assert tbl[2] == ZModulePresentation(0, ())
        assert tbl[3] == ZModulePresentation(1, ())


def test_cone_requires_chain_map_and_shift():
    C = two_step(2, 0)
    with pytest.raises(NotAChainMap):
        mapping_cone(identity_chain_map(C))
    # d(b) = 3a but psi(c) = b with d(c) = 0: commutation fails in the interior
    D = GradedComplex((0, 3), {0: ("a",), 1: ("b",), 3: ("c",)},
                      {1: IntMatrix.from_rows([[3]])})
    bad = ChainMap(D, D, -2, {3: IntMatrix.from_rows([[1]])})
    with pytest.raises(NotAChainMap):
        mapping_cone(bad)


def test_cone_of_isomorphism_acyclic():
    """A degree -2 isomorphism on a 2-periodic complex has acyclic cone."""
    basis = {d: ("e",) for d in range(-6, 7, 2)}
    C = GradedComplex((-6, 6), basis, {})
    psi = ChainMap(C, C, -2, {d: IntMatrix.identity(1) for d in range(-4, 7, 2)})
    tbl = homology_table(mapping_cone(psi), range(-3, 5))
    assert all(p.is_zero() for p in tbl.values())


def test_cone_two_periodicity():
    """If C is 2-periodic and psi commutes with the periodicity, the cone
    table is 2-periodic on the interior."""
    basis = {d: ("e", "f") if d % 2 == 0 else () for d in range(-8, 9)}
    C = GradedComplex((-8, 8), basis, {})
    psi = ChainMap(C, C, -2, {d: IntMatrix.from_rows([[2, 1], [0, 3]])
                              for d in range(-6, 9) if d % 2 == 0})
    tbl = homology_table(mapping_cone(psi), range(-4, 6))
    for d in range(-4, 4):
        assert tbl[d] == tbl[d + 2]


def test_homology_table_degree_guard():
    C = GradedComplex((0, 4), {d: ("x",) for d in range(5)}, {})
    with pytest.raises(DegreeOutOfRange):
        homology_table(C, [0])
    with pytest.raises(DegreeOutOfRange):
        homology_table(C, [4])
    assert set(homology_table(C, [1, 2, 3])) == {1, 2, 3}


def test_randomized_cone_les_exactness():
    rng = random.Random(2024)
    for _ in range(60):
        _, phi = random_complex_and_map(rng)
        assert verify_exactness(cone_les(phi)).ok


def test_corrupted_map_fails_exactness():
    """Perturbing the degree -2 map by one entry breaks exactness at an
    adjacent node of the sequence (mutation test on a fixture where the
    perturbation is visible)."""
    C = GradedComplex((-3, 5), {d: ("e",) for d in range(-3, 6) if d % 2 == 0}, {})
    good = ChainMap(C, C, -2, {d: IntMatrix.from_rows([[2]])
                               for d in range(-1, 6) if d % 2 == 0})
    les = cone_les(good)
    assert verify_exactness(les).ok
    # corrupt the induced middle map (x2 -> x3) and re-verify
    mm = list(les.maps)
    for i, node in enumerate(les.nodes[:-1]):
        if node.label.startswith("C_") and les.nodes[i + 1].label.startswith("C_"):
            M = mm[i]
            rows = M.to_lists()
            rows[0][0] += 1
            mm[i] = IntMatrix.from_rows(rows, cols=M.cols)
            break
    bad = LongExactSequence(les.nodes, tuple(mm))
    assert not verify_exactness(bad).ok


def test_json_shape():
    C = two_step(3, 0)
    blob = C.to_json()
    assert blob["degrees"] == [0, 2]
    assert blob["basis"]["1"] == ["b"]
    assert blob["boundary"]["1"] == [[3]]
