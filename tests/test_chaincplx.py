import random

import pytest

from rfhomology.basemodel import cp_model, point_model, surface_model
from rfhomology.chaincplx import (HomologyBasis, LazyHomology, LongExactSequence,
                                  cone_les, exact_at, induced_matrix,
                                  matrix_from_terms, verify_exactness)
from rfhomology.errors import DegreeOutOfRange, NotAChainMap, NotAComplex
from rfhomology.exactlin import (IntMatrix, ZModulePresentation,
                                 presentation_from_relations)
from rfhomology.oracles import ChainMap, GradedComplex, mapping_cone
from rfhomology.rfh import gysin
from rfhomology.selftest import random_complex_and_map


def two_step(n1, n2):
    """Z --n2--> Z --n1--> Z in degrees 2, 1, 0."""
    return GradedComplex((0, 2), {0: ("a",), 1: ("b",), 2: ("c",)},
                         {1: IntMatrix.from_rows([[n1]]),
                          2: IntMatrix.from_rows([[n2]])})


def groups(C, degrees):
    """H_d(C) at each of `degrees`, read by `LazyHomology.group`."""
    h = LazyHomology(C.boundary_at)
    return {d: h.group(d) for d in degrees}


def test_mapping_cone_of_zero_is_direct_sum():
    C = GradedComplex((-1, 3), {0: ("x", "y"), 1: ("z",), 2: ("w",)},
                      {1: IntMatrix.from_rows([[2], [0]])})
    zero = ChainMap(C, C, -2, {})
    cone = mapping_cone(zero)
    tbl = groups(cone, range(0, 4))
    direct = groups(C, range(0, 3))
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
        tbl = groups(mapping_cone(psi), range(0, 4))
        assert tbl[0] == ZModulePresentation(1, ())
        assert tbl[1] == ZModulePresentation(0, (m,))
        assert tbl[2] == ZModulePresentation(0, ())
        assert tbl[3] == ZModulePresentation(1, ())


def test_cone_requires_chain_map_and_shift():
    """Both cones refuse a chain map of degree 0; a map that does not commute
    with the boundaries is refused when it is built, so no cone sees it."""
    C = two_step(2, 0)
    identity = ChainMap(C, C, 0, {d: IntMatrix.identity(1) for d in range(3)})
    with pytest.raises(NotAChainMap, match="degree -2 map, got 0"):
        mapping_cone(identity)
    with pytest.raises(NotAChainMap, match="degree -2 map, got 0"):
        cone_les(identity)
    # d(b) = 3a but psi(c) = b with d(c) = 0: commutation fails in the interior
    D = GradedComplex((0, 3), {0: ("a",), 1: ("b",), 3: ("c",)},
                      {1: IntMatrix.from_rows([[3]])})
    with pytest.raises(NotAChainMap, match="does not commute with boundaries at degree 3$"):
        ChainMap(D, D, -2, {3: IntMatrix.from_rows([[1]])})


def first_dense_failure(C, maps, shift=-2):
    """The first degree d where d . phi_d != phi_{d-1} . d by dense
    products, for the self map phi of C given by `maps` (a missing degree
    the zero map), among the degrees whose four maps lie inside the window."""
    lo, hi = C.degrees

    def phi(d):
        return maps[d] if d in maps else IntMatrix.zero(C.rank(d + shift), C.rank(d))
    for d in range(lo + 1, hi + 1):
        if lo < d + shift <= hi:
            lhs = C.boundary_at(d + shift) @ phi(d)
            rhs = phi(d - 1) @ C.boundary_at(d)
            if lhs.entries != rhs.entries:
                return d
    return None


def test_chain_map_check_matches_dense_products():
    """The sparse commutation check that `ChainMap` makes when it is built
    against dense products: seeded random chain maps are built, and with one
    entry changed they are refused exactly when a dense product differs,
    naming that degree."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        C, phi = random_complex_and_map(rng)
        assert first_dense_failure(C, phi.maps) is None
        spots = [d for d, M in phi.maps.items() if M.rows and M.cols]
        if not spots:
            continue
        d = rng.choice(spots)
        rows = phi.maps[d].to_lists()
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += rng.choice([-2, -1, 1, 3])
        maps = {**phi.maps, d: IntMatrix.from_rows(rows)}
        failure = first_dense_failure(C, maps)
        outcomes.add(failure is None)
        if failure is None:
            ChainMap(C, C, -2, maps)
        else:
            with pytest.raises(NotAChainMap,
                               match=f"does not commute with boundaries at degree {failure}$"):
                ChainMap(C, C, -2, maps)
    assert outcomes == {True, False}


def test_cone_of_isomorphism_acyclic():
    """A degree -2 isomorphism on a 2-periodic complex has acyclic cone."""
    basis = {d: ("e",) for d in range(-6, 7, 2)}
    C = GradedComplex((-6, 6), basis, {})
    psi = ChainMap(C, C, -2, {d: IntMatrix.identity(1) for d in range(-4, 7, 2)})
    tbl = groups(mapping_cone(psi), range(-3, 5))
    assert all(p.is_zero() for p in tbl.values())


def test_cone_two_periodicity():
    """If C is 2-periodic and psi commutes with the periodicity, the cone
    table is 2-periodic on the interior."""
    basis = {d: ("e", "f") if d % 2 == 0 else () for d in range(-8, 9)}
    C = GradedComplex((-8, 8), basis, {})
    psi = ChainMap(C, C, -2, {d: IntMatrix.from_rows([[2, 1], [0, 3]])
                              for d in range(-6, 9) if d % 2 == 0})
    tbl = groups(mapping_cone(psi), range(-4, 6))
    for d in range(-4, 4):
        assert tbl[d] == tbl[d + 2]


def test_repeated_generator_is_rejected():
    """Maps are written on generators by key, so a degree may not list the
    same generator twice."""
    with pytest.raises(DegreeOutOfRange, match="degree 1 repeats a generator"):
        GradedComplex((0, 2), {1: ("x", "y", "x")}, {})


def test_matrix_from_terms_sums_and_truncates():
    """Terms on the same target add up; a term off the target is dropped."""
    terms = {"a": [("x", 1), ("z", 5), ("y", 2), ("x", 3)], "b": [("y", -1)], "c": []}
    M = matrix_from_terms(("a", "b", "c"), ("x", "y"), terms.__getitem__)
    assert M.to_lists() == [[4, 0, 0], [2, -1, 0]]
    assert matrix_from_terms((), ("x",), terms.__getitem__) == IntMatrix.zero(1, 0)
    assert matrix_from_terms(("a",), (), terms.__getitem__) == IntMatrix.zero(0, 1)


def test_homology_table_rejects_non_complex():
    """The rank formula is only valid when d . d = 0, which `LazyHomology`
    does not read: a `GradedComplex` proves it at every degree of its window
    when it is built, so neither a group nor a cycle basis of a non-complex
    can be asked for.  A window that leaves out the bad product is a complex."""
    basis = {0: ("a",), 1: ("b",), 2: ("c",)}
    ones = {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])}
    with pytest.raises(NotAComplex, match=r"^d_1 \. d_2 != 0$"):
        GradedComplex((0, 3), dict(basis), dict(ones))
    C = GradedComplex((1, 3), dict(basis), {2: ones[2]})
    assert LazyHomology(C.boundary_at).group(2) == ZModulePresentation(0, ())


def test_random_complexes_have_at_most_seven_generators_per_degree():
    """`random_complex_and_map` draws 3 to 7 pieces, each adding at most one
    generator to a degree, so no degree holds more than 7.  The draws feed
    criterion 5 and the benchmark, so their totals over 1,000 seed-7 draws
    (generators, nonzero entries of the boundaries and maps, and the sum of
    their absolute values) are pinned."""
    rng = random.Random(7)
    generators = nonzeros = size = 0
    for _ in range(1000):
        C, phi = random_complex_and_map(rng)
        lo, hi = C.degrees
        assert max(C.rank(d) for d in range(lo, hi + 1)) <= 7
        generators += sum(map(C.rank, range(lo, hi + 1)))
        for M in (*C.boundary.values(), *phi.maps.values()):
            for col in M.columns:
                nonzeros += len(col)
                size += sum(map(abs, col.values()))
    assert (generators, nonzeros, size) == (9070, 12318, 146602)


def test_homology_table_matches_cycle_bases_on_random_complexes():
    """The rank-only groups of a fresh `LazyHomology`, which eliminate
    without V, equal the presentations of the cycle bases, on 200 seeded
    random complexes and the cones of their degree -2 maps; each basis has
    coords @ cycles = I, and its relations are the incoming boundary
    written in it.  The independent check is the presentation recomputed
    from the relations themselves by `presentation_from_relations`."""
    rng = random.Random(4)
    for _ in range(200):
        C, phi = random_complex_and_map(rng)
        for K in (C, mapping_cone(phi)):
            lo, hi = K.degrees
            lazy = LazyHomology(K.boundary_at)
            bases = {d: lazy.basis(d) for d in range(lo + 1, hi)}
            assert groups(K, bases) == {d: h.presentation for d, h in bases.items()}
            for d, h in bases.items():
                assert h.presentation == presentation_from_relations(h.cycles.cols, h.relations)
                assert h.coords @ h.cycles == IntMatrix.identity(h.cycles.cols)
                assert h.cycles @ h.relations == K.boundary_at(d + 1)


def test_induced_matrix_rejects_image_outside_the_cycles():
    """phi sends the cycle x to a, whose boundary is b: not a chain map."""
    src = GradedComplex((-1, 1), {0: ("x",)}, {})
    tgt = GradedComplex((-1, 1), {-1: ("b",), 0: ("a",)},
                        {0: IntMatrix.from_rows([[1]])})
    phi = IntMatrix.from_rows([[1]])
    h_src = LazyHomology(src.boundary_at).basis(0)
    with pytest.raises(NotAChainMap, match="image of a cycle is not a cycle"):
        induced_matrix(phi, h_src, LazyHomology(tgt.boundary_at).basis(0))
    # the same map into a target where a is a cycle is induced as 1
    ok = GradedComplex((-1, 1), {-1: ("b",), 0: ("a",)}, {})
    assert induced_matrix(phi, h_src, LazyHomology(ok.boundary_at).basis(0)) == \
        IntMatrix.identity(1)


def test_randomized_cone_les_exactness():
    rng = random.Random(2024)
    for _ in range(60):
        _, phi = random_complex_and_map(rng)
        assert verify_exactness(cone_les(phi)).ok


def exact_at_each_node(les):
    """The report of `verify_exactness`, built node by node by `exact_at`."""
    return tuple((les.nodes[i].label,
                  exact_at(les.maps[i - 1], les.nodes[i].data,
                           les.maps[i], les.nodes[i + 1].data))
                 for i in range(1, len(les.nodes) - 1))


def with_one_entry_changed(les, rng):
    """The sequence with one entry of one nonempty map changed, or None."""
    spots = [j for j, M in enumerate(les.maps) if M.rows and M.cols]
    if not spots:
        return None
    j = rng.choice(spots)
    rows = les.maps[j].to_lists()
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += rng.choice([-2, -1, 1, 3])
    maps = list(les.maps)
    maps[j] = IntMatrix.from_rows(rows)
    return LongExactSequence(les.nodes, tuple(maps))


def test_verify_exactness_matches_exact_at_node_by_node():
    """`verify_exactness` shares the elimination of [map | relations]
    between neighbouring nodes; its per-node report must equal `exact_at`
    applied node by node, on 200 seeded random cones and the Gysin
    sequences of the model zoo, each as built and with one map entry
    changed.  Each node's presentation, read off the next boundary's
    invariant factors, is the group its relations present."""
    rng = random.Random(13)
    seqs = [cone_les(random_complex_and_map(rng)[1]) for _ in range(200)]
    seqs += [gysin(cp_model(n), m, (-5, 5)) for n in (1, 2, 3) for m in range(1, 6)]
    seqs += [gysin(surface_model(g), m, (-1, 2)) for g in (1, 2) for m in (1, 2, 3)]
    seqs += [gysin(point_model(), m, (-2, 2)) for m in (1, 2)]
    verdicts = set()
    for les in seqs:
        for node in les.nodes:
            h = node.data
            assert node.presentation == presentation_from_relations(h.cycles.cols, h.relations)
        report = verify_exactness(les)
        assert report.ok and report.nodes == exact_at_each_node(les)
        bad = with_one_entry_changed(les, rng)
        if bad is not None:
            report = verify_exactness(bad)
            assert report.nodes == exact_at_each_node(bad)
            verdicts.add(report.ok)
    assert verdicts == {True, False}


def cyclic(relation):
    """Z modulo the relations in the 1 x r list `relation`, on one cycle."""
    rel = IntMatrix.from_rows([relation], cols=len(relation))
    return HomologyBasis(IntMatrix.identity(1), IntMatrix.identity(1), rel,
                         presentation_from_relations(1, rel))


@pytest.mark.parametrize("incoming,node,outgoing,next_node,exact", [
    ([[0]], [], [[0]], [], False),    # Z -0-> Z -0-> Z: kernel Z, image 0
    ([[0]], [2], [[0]], [], False),   # Z -0-> Z_2 -0-> Z: kernel Z_2, image 0
    ([[1]], [2], [[0]], [], True),    # Z ->> Z_2 -0-> Z
    ([[0]], [], [[1]], [1], False),   # Z -0-> Z -> 0: kernel Z, image 0
    ([[2]], [], [[1]], [2], True),    # Z -2-> Z ->> Z_2
])
def test_exact_at_compares_kernel_and_image_on_groups(incoming, node, outgoing,
                                                      next_node, exact):
    """The kernel inclusion of `exact_at` works on the presented groups:
    the kernel of the outgoing map is taken modulo the next group's
    relations and must lie in the image plus the node's relations."""
    assert exact_at(IntMatrix.from_rows(incoming), cyclic(node),
                    IntMatrix.from_rows(outgoing), cyclic(next_node)) is exact


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
