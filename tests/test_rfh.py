import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from rfhomology import chaincplx, exactlin, rfh
from rfhomology.basemodel import (BaseModel, cp_model, load_model, point_model,
                                  surface_model)
from rfhomology.chaincplx import (LazyCone, LazyHomology, cone_les, induced_matrix,
                                  matrix_from_terms, verify_exactness)
from rfhomology.errors import (ConsecutiveIndexModel, DegreeOutOfRange,
                               EmptyWindow, NonPositiveTau, NotAChainMap,
                               TruncationTooNarrow)
from rfhomology.exactlin import (IntMatrix, ZModulePresentation,
                                 presentation_from_relations)
from rfhomology.novikov import CompletionRegime, regime_for
from rfhomology.rfh import (RFHGenerator, _field_quotient_dim,
                            _SectorData, _transfer_maps,
                            action, base_action, boundary_full,
                            boundary_full_chain, delta_injectivity,
                            enumerate_generators, fh_index, full_rfh,
                            gysin, orderability_report, primitive_partial_sum,
                            rfh_index, rfh_w0_table, transfer_failures,
                            winding)
from rfhomology.oracles import ChainMap, build_fc, cap_map, mapping_cone, rfc_w0
from rfhomology.selftest import random_complex_and_map
from test_basemodel import NOT_A_CHAIN_MAP_CAP
from test_boundary_reference import custom_cap_model
from test_chaincplx import groups

CP2 = cp_model(2)


# -- generators and invariants -------------------------------------------------

def test_cp2_index_formula():
    """For the projective plane the minimum of the fiberwise Morse function
    sits in degree -2l - 2(3-m)k + 2i - 2 and the maximum one above."""
    for m in (1, 2, 4):
        gens = enumerate_generators(CP2, m, Fraction(1), k_bound=3, l_bound=5)
        assert gens
        for g in gens:
            i = g.morse_index // 2
            want = -2 * g.cov - 2 * (3 - m) * g.k + 2 * i - 2
            assert rfh_index(g, CP2, m) == want + (1 if g.hat else 0)
            assert winding(g, CP2, m) == g.cov - m * g.k


def test_rfh_index_is_the_base_degree_less_twice_the_winding():
    """On boxes of the zoo every generator's index is the degree in which
    `generators_in_degree` places its (label, k), plus one on a hat, less
    twice the winding: both read the grading from `BaseModel.fh_degree`."""
    rng = random.Random(12)
    models = [cp_model(n) for n in (1, 2, 3)] + [surface_model(g) for g in (1, 2)]
    models += [point_model(), load_model(TORSION_MODEL),
               load_model(MONOTONE_TORSION_MODEL), nonperfect_surface(2, rng)]
    for model in models:
        placed = {(label, k): e for e in range(-60, 61)
                  for label, k in model.generators_in_degree(e)}
        for m in (1, 2, 3):
            gens = enumerate_generators(model, m, Fraction(1), k_bound=4, l_bound=5)
            assert gens
            for g in gens:
                assert rfh_index(g, model, m) == \
                    placed[g.label, g.k] + g.hat - 2 * winding(g, model, m), (model.name, m, g)


def test_generator_value_semantics():
    """A generator is an immutable value, ordered field by field, equal to
    (and hashing like) the plain tuple of its fields."""
    gens = enumerate_generators(surface_model(2), 1, Fraction(1), k_bound=0, l_bound=3)
    gens += enumerate_generators(CP2, 2, Fraction(1), k_bound=2, l_bound=3)
    shuffled = gens[:]
    random.Random(15).shuffle(shuffled)
    assert sorted(shuffled) == sorted(
        shuffled, key=lambda g: (g.label, g.morse_index, g.cov, g.k, g.hat))
    for g in gens[:40]:
        twin = RFHGenerator(*g)
        assert twin is not g and twin == g and hash(twin) == hash(g)
        assert g == (g.label, g.morse_index, g.cov, g.k, g.hat)
        assert hash(g) == hash((g.label, g.morse_index, g.cov, g.k, g.hat))
    g = RFHGenerator("q1", 2, -3, 1, True)
    assert str(g) == "^(q1, l=-3, k=1)" and g.hat is True
    assert repr(g) == "RFHGenerator(label='q1', morse_index=2, cov=-3, k=1, hat=True)"
    v = RFHGenerator("q0", 0, 4, -2, False)
    assert str(v) == "v(q0, l=4, k=-2)" and v.hat is False
    for field in ("label", "morse_index", "cov", "k", "hat"):
        with pytest.raises(AttributeError):
            setattr(g, field, 0)
    moved = g._replace(cov=5)
    assert moved == RFHGenerator("q1", 2, 5, 1, True) and moved is not g
    assert g.cov == -3


def test_enumerate_deterministic_and_complete():
    a = enumerate_generators(CP2, 2, Fraction(1), degrees=(-4, 4), k_bound=4)
    b = enumerate_generators(CP2, 2, Fraction(1), degrees=(-4, 4), k_bound=4)
    assert a == b
    keys = [(rfh_index(g, CP2, 2), g.k, g.cov, g.hat) for g in a]
    assert keys == sorted(keys)
    # one hat and one check per family
    fams = {(g.label, g.cov, g.k) for g in a}
    by_flag = {(g.label, g.cov, g.k, g.hat) for g in a}
    for fam in fams:
        mus = {rfh_index(RFHGenerator(fam[0], dict(CP2.crit)[fam[0]], fam[1], fam[2], h), CP2, 2)
               for h in (False, True)}
        if all(-4 <= mu <= 4 for mu in mus):
            assert (*fam, False) in by_flag and (*fam, True) in by_flag


def test_enumerate_order_independent_of_hash_seed():
    """Critical points of equal Morse index (the a_i of a surface) come out
    in model order, whatever the string hash seed."""
    code = ("from rfhomology.basemodel import surface_model\n"
            "from rfhomology.rfh import enumerate_generators\n"
            "print([str(g) for g in enumerate_generators(surface_model(2), 1, 1, "
            "degrees=(0, 0), l_bound=0)])")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert len(outs) == 1


def test_enumerate_window_completeness():
    """Within an action window and winding filter the list is complete:
    every admissible family appears."""
    tau = Fraction(1, 2)
    window = (Fraction(-3), Fraction(3))
    gens = enumerate_generators(CP2, 2, tau, window=window, winding_filter=0)
    got = {(g.label, g.cov, g.k, g.hat) for g in gens}
    for k in range(-10, 11):
        act = -(1 + tau) * k
        for label, idx in CP2.crit:
            for hat in (False, True):
                inside = window[0] < act < window[1]
                assert ((label, 2 * k, k, hat) in got) == inside


def test_winding_zero_relabeling():
    """At zero winding the fiber data disappears: the index equals the base
    index and the action is (1 + tau) times the base action."""
    for m in (1, 2, 3):
        tau = Fraction(3, 2)
        gens = enumerate_generators(CP2, m, tau, winding_filter=0, degrees=(-6, 6))
        assert gens
        for g in gens:
            assert g.cov == m * g.k
            assert rfh_index(g, CP2, m) - (1 if g.hat else 0) == fh_index(g, CP2)
            assert action(g, CP2, m, tau) == (1 + tau) * base_action(g, CP2)


def test_winding_sector_shift_bijection():
    """Adding k iterations maps the zero-winding sector to the winding-w
    sector, shifting the index by -2w."""
    m, tau = 2, Fraction(1)
    zero = enumerate_generators(CP2, m, tau, winding_filter=0, degrees=(-6, 6))
    for w in (1, -2):
        sector = enumerate_generators(CP2, m, tau, winding_filter=w,
                                      degrees=(-6 - 2 * w, 6 - 2 * w))
        shifted = sorted((g.label, g.cov + w, g.k, g.hat,
                          rfh_index(g, CP2, m) - 2 * w) for g in zero)
        got = sorted((g.label, g.cov, g.k, g.hat, rfh_index(g, CP2, m))
                     for g in sector)
        assert shifted == got


def test_negative_monotone_enumeration():
    """A negatively monotone model (lambda*nu <= -dim/2): winding-filtered
    degree enumeration must agree with a wide box enumeration."""
    spec = {"dim": 4, "nu": 1, "lambda": "-2", "cM": 2,
            "crit": [{"label": "q", "index": 0}, {"label": "r", "index": 4}],
            "cap": {"-2": [[0]], "2": [[0]], "0": [[0], [0]],
                    "4": [[0]], "-4": [[0]], "6": [[0], [0]], "-6": [[0], [0]]},
            "primitiveOmega": True}
    model = load_model(spec)
    assert model.lambda_nu == -2
    via_degrees = enumerate_generators(model, 2, Fraction(1), winding_filter=1,
                                       degrees=(-5, 5))
    box = [g for g in enumerate_generators(model, 2, Fraction(1),
                                           k_bound=12, l_bound=40)
           if winding(g, model, 2) == 1 and -5 <= rfh_index(g, model, 2) <= 5]
    assert sorted(via_degrees) == sorted(box)
    assert via_degrees


def test_aspherical_winding_forces_fiber():
    gens = enumerate_generators(surface_model(1), 3, Fraction(1),
                                winding_filter=0, degrees=(-4, 4))
    assert gens and all(g.k == 0 and g.cov == 0 for g in gens)


def test_enumerate_needs_truncation_at_boundary():
    with pytest.raises(TruncationTooNarrow):
        enumerate_generators(CP2, 2, Fraction(2), degrees=(-2, 2),
                             window=(Fraction(-10), Fraction(10)))
    gens = enumerate_generators(CP2, 2, Fraction(2), degrees=(-2, 2),
                                window=(Fraction(-10), Fraction(10)), k_bound=3)
    assert gens


# -- zero-winding complex -------------------------------------------------------

def test_rfc_w0_equals_cone_oracle():
    """The zero-winding complex assembled from the generators computes the
    same homology as the mapping cone of the windowed cap chain map."""
    zoo = [(cp_model(n), m) for n in (1, 2, 3) for m in (1, 2, 5)]
    zoo += [(surface_model(1), 2), (surface_model(2), 3), (point_model(), 1)]
    for model, m in zoo:
        direct = groups(rfc_w0(model, m, (-5, 5)), range(-4, 5))
        cone = mapping_cone(cap_map(model, m, fc=build_fc(model, degrees=(-8, 7))))
        oracle = groups(cone, range(-4, 5))
        assert direct == oracle, (model.name, m)


def nonperfect_surface(g, rng):
    """surface:g with g extra index-1/index-2 pairs (c_i, b_i): d b_i is a
    seeded multiple of c_i plus a seeded multiple of a base loop, so the
    Floer complex has nonzero boundaries and, for even multiples, torsion."""
    ones = [f"a{i}" for i in range(2 * g)] + [f"c{i}" for i in range(g)]
    twos = [f"b{i}" for i in range(g)] + ["top"]
    rng.shuffle(ones)
    rng.shuffle(twos)
    rows = [[0] * len(twos) for _ in ones]
    for i in range(g):
        col = twos.index(f"b{i}")
        rows[ones.index(f"c{i}")][col] = rng.choice((1, -1, 2, -3))
        rows[ones.index(f"a{rng.randrange(2 * g)}")][col] = rng.choice((0, 1, -2))
    crit = ([{"label": "bot", "index": 0}]
            + [{"label": lab, "index": 1} for lab in ones]
            + [{"label": lab, "index": 2} for lab in twos])
    return load_model({"name": f"surface:{g}+{g}", "dim": 2, "nu": 0, "lambda": "0",
                       "cM": None, "crit": crit, "cap": "builtin:surface",
                       "primitiveOmega": True, "morseBoundary": {"2": rows}})


def test_homology_table_matches_cycle_bases_on_models():
    """The rank-only groups of a fresh `LazyHomology` equal the
    presentations recomputed from the relations of the cycle bases by
    `presentation_from_relations`, on the zero-winding complexes and the
    Floer complexes of the built-in and non-perfect models."""
    rng = random.Random(8)
    models = [cp_model(n) for n in (1, 2, 3)] + [surface_model(g) for g in range(1, 9)]
    models += [nonperfect_surface(g, rng) for g in (1, 2, 3, 5)]
    for model in models:
        complexes = [build_fc(model, degrees=(-6, 6))]
        complexes += [rfc_w0(model, m, (-6, 6)) for m in (1, 2, 3)]
        for C in complexes:
            degrees = range(-5, 6)
            lazy = LazyHomology(C.boundary_at)
            bases = {d: lazy.basis(d) for d in degrees}
            assert groups(C, degrees) == {
                d: presentation_from_relations(h.cycles.cols, h.relations)
                for d, h in bases.items()}, model.name


def test_rfc_w0_boundary_squares_to_zero():
    for model, m in [(CP2, 2), (surface_model(1), 3)]:
        C = rfc_w0(model, m, (-6, 6))
        assert all((C.boundary_at(d - 1) @ C.boundary_at(d)).is_zero() for d in range(-4, 7))


def test_cp_tables_torsion_parity():
    """The zero-winding homology of the projectives is the cyclic group of
    order m placed 2-periodically in the parity opposite to the Floer
    grading of the base (degrees n+1 mod 2), zero elsewhere."""
    for n in (1, 2, 3):
        for m in (1, 2, 4):
            table = rfh_w0_table(cp_model(n), m, Fraction(1), (-6, 6))
            torsion_parity = (n + 1) % 2
            for d in range(-6, 7):
                if m == 1:
                    assert table[d].is_zero()
                elif d % 2 == torsion_parity:
                    assert table[d] == ZModulePresentation(0, (m,)), (n, m, d)
                else:
                    assert table[d].is_zero(), (n, m, d)


def test_surface_tables():
    for g in (1, 2):
        for m in (1, 2, 3):
            table = rfh_w0_table(surface_model(g), m, Fraction(1), (-1, 2))
            assert table[-1] == ZModulePresentation(1, ())
            want_mid = ZModulePresentation(2 * g, (m,) if m >= 2 else ())
            assert table[0] == want_mid
            assert table[1] == ZModulePresentation(2 * g, ())
            assert table[2] == ZModulePresentation(1, ())


def test_point_table():
    table = rfh_w0_table(point_model(), 1, Fraction(1), (-3, 3))
    for d in range(-3, 4):
        assert table[d] == (ZModulePresentation(1, ()) if d in (0, 1)
                            else ZModulePresentation(0, ()))


def test_rfh_w0_tau_independence():
    for tau in (Fraction(1, 7), Fraction(1), Fraction(13, 2)):
        assert rfh_w0_table(CP2, 3, tau, (-4, 4)) == \
            rfh_w0_table(CP2, 3, Fraction(1), (-4, 4))


def test_enumerate_requires_some_constraint():
    with pytest.raises(TruncationTooNarrow):
        enumerate_generators(CP2, 2, Fraction(1))
    with pytest.raises(TruncationTooNarrow):
        enumerate_generators(CP2, 2, Fraction(1), degrees=(-2, 2))


def test_nonpositive_tau_is_one_error():
    """`enumerate_generators` and `regime_for` reject tau = 0 with the same
    error type; an empty action window stays `EmptyWindow`."""
    with pytest.raises(NonPositiveTau):
        enumerate_generators(CP2, 2, Fraction(0), k_bound=1, l_bound=1)
    with pytest.raises(NonPositiveTau):
        regime_for(Fraction(0), CP2.lam, 2)
    with pytest.raises(EmptyWindow):
        enumerate_generators(CP2, 2, Fraction(1), window=(Fraction(1), Fraction(1)),
                             k_bound=1, l_bound=1)


# -- Gysin sequence --------------------------------------------------------------

def test_gysin_cp2_m2_nodes():
    les = gysin(CP2, 2, (-4, 4))
    rep = verify_exactness(les)
    assert rep.ok
    strs = {}
    for n in les.nodes:
        strs.setdefault(n.label, str(n.presentation))
    assert strs["RFH^w0_3"] == "Z_2"
    assert strs["FH_2"] == "Z"
    assert strs["RFH^w0_2"] == "0"
    for i, n in enumerate(les.nodes[:-1]):
        if n.label == "FH_2" and les.nodes[i + 1].label == "FH_0":
            assert abs(les.maps[i].get(0, 0)) == 2


def test_gysin_zero_cap_splits():
    """With a zero cap the connecting map vanishes and the sequence splits:
    the cone node is the direct sum of its neighbours."""
    model = point_model()
    les = gysin(model, 1, (-2, 2))
    assert verify_exactness(les).ok
    for i, n in enumerate(les.nodes):
        if n.label.startswith("FH_") and i + 1 < len(les.nodes) \
                and les.nodes[i + 1].label.startswith("FH_"):
            assert les.maps[i].is_zero()


def test_gysin_surface_recovers_classical():
    les = gysin(surface_model(1), 2, (-1, 2))
    assert verify_exactness(les).ok
    strs = {}
    for n in les.nodes:
        strs.setdefault(n.label, str(n.presentation))
    assert strs["RFH^w0_0"] == "Z^2 + Z_2"
    assert strs["RFH^w0_2"] == "Z"



def test_gysin_dense_remainder_does_not_grow_with_the_surface(monkeypatch):
    """The Gysin sequence of surface:g is eliminated sparsely: what reaches
    the dense Smith form is the unit-free remainder only, whose count and
    largest shape stay put as g doubles (five 1 x 1 inputs, the cap's 2s).
    The `_Elimination` constructions are pinned too: 25 per checked Gysin
    sequence, as each boundary is eliminated once for its cycles and the
    torsion below; one for `rfh_w0_table`, which reads invariant factors
    only; 474 for criterion 5's Gysin zoo, as a monotone base and its cone
    are read once per residue.  The exactness check skips nodes without
    cycles and decides each distinct node once (31 and 846 before it did).
    A deterministic guard on the complexity, unlike a timing."""
    shapes, made = [], []       # made: one entry per construction
    smith, init = exactlin._smith, exactlin._Elimination.__init__

    def record(D, n):
        shapes.append((len(D), n))
        return smith(D, n)

    def count(self, A):
        made.append(1)
        init(self, A)
    monkeypatch.setattr(exactlin, "_smith", record)
    monkeypatch.setattr(exactlin._Elimination, "__init__", count)
    stats = {}
    for g in (8, 16, 32):
        shapes.clear()
        made.clear()
        assert verify_exactness(gysin(surface_model(g), 2, (-2, 3))).ok
        stats[g] = (len(shapes), max(shapes, default=(0, 0)))
        assert len(made) == 25, (g, len(made))
        made.clear()
        rfh_w0_table(surface_model(g), 3, Fraction(1), (-1, 2))
        assert len(made) == 1, (g, len(made))
    assert stats[8] == stats[16] == stats[32], stats
    assert stats[8][1] <= (1, 1), stats
    made.clear()
    for n in (1, 2, 3):
        for m in range(1, 6):
            assert verify_exactness(gysin(cp_model(n), m, (-5, 5))).ok
    for g in (1, 2):
        for m in (1, 2, 3):
            assert verify_exactness(gysin(surface_model(g), m, (-1, 2))).ok
    assert len(made) == 474, len(made)


def test_gysin_eliminations_do_not_grow_with_the_degree_range(monkeypatch):
    """`gysin` reads cp:2 and the cone of its cap once per residue modulo
    the period 6, so without the exactness check it makes as many
    `_Elimination`s on a wide or a far range as on a narrow one (12; 25 and
    204 on -5..5 and -50..50 when each degree was eliminated on its own)."""
    made = []
    init = exactlin._Elimination.__init__

    def count(self, A):
        made.append(1)
        init(self, A)
    monkeypatch.setattr(exactlin._Elimination, "__init__", count)
    counts = {}
    for lo, hi in ((-5, 5), (-50, 50), (95, 105)):
        made.clear()
        les = gysin(CP2, 2, (lo, hi))
        assert len(les.nodes) == 3 * (hi - lo + 1)
        counts[lo, hi] = len(made)
    assert len(set(counts.values())) == 1, counts


@pytest.mark.parametrize("n", [2, 3])
def test_gysin_induced_maps_do_not_grow_with_the_degree_range(monkeypatch, n):
    """A periodic `LazyCone` reads the projection onto the checks, the cap
    and the inclusion of the hats on homology once per residue, so
    `gysin(cp:n, 2, ...)` computes as many induced maps (calls of
    `chaincplx._in_cycles`, which every one of them goes through) on a wide
    or a far range as on -50..50: three per residue modulo the period
    |2 lambda nu|.  When the projection and the inclusion were built at
    every degree, cp:3 made 209 `induced_matrix` calls on -50..50 and 1,609
    on -400..400."""
    made = []
    in_cycles = chaincplx._in_cycles

    def count(images, tgt):
        made.append(1)
        return in_cycles(images, tgt)
    monkeypatch.setattr(chaincplx, "_in_cycles", count)
    counts = {}
    for lo, hi in ((-50, 50), (-400, 400), (95, 105)):
        made.clear()
        gysin(cp_model(n), 2, (lo, hi))
        counts[lo, hi] = len(made)
    assert set(counts.values()) == {3 * abs(2 * cp_model(n).lambda_nu)}, counts


@pytest.mark.parametrize("n", [2, 3])
def test_exactness_check_eliminations_do_not_grow_with_the_degree_range(monkeypatch, n):
    """`verify_exactness` decides each node once per distinct (incoming map,
    node, outgoing map, next node), and a periodic `gysin` repeats those
    objects with its period, so checking `gysin(cp:n, 2, ...)` makes as
    many `_Elimination`s on a wide or a far range as on -50..50 (when
    every node was decided on its own: 351 on -50..50 and 2,801 on
    -400..400, for cp:2 and cp:3 alike)."""
    made = []
    init = exactlin._Elimination.__init__

    def count(self, A):
        made.append(1)
        init(self, A)
    monkeypatch.setattr(exactlin._Elimination, "__init__", count)
    counts = {}
    for lo, hi in ((-50, 50), (-400, 400), (95, 105)):
        les = gysin(cp_model(n), 2, (lo, hi))
        made.clear()
        assert verify_exactness(les).ok
        counts[lo, hi] = len(made)
    assert len(set(counts.values())) == 1, counts


@pytest.mark.parametrize("degrees", [(3, 1), (9, 1)])
@pytest.mark.parametrize("call", [
    lambda r: rfh_w0_table(CP2, 1, Fraction(1), r),
    lambda r: full_rfh(CP2, 1, Fraction(1), r),
    lambda r: delta_injectivity(CP2, 1, Fraction(1), 2, r),
    lambda r: gysin(CP2, 1, r),
], ids=["rfh_w0_table", "full_rfh", "delta_injectivity", "gysin"])
def test_empty_degree_range_is_one_error(call, degrees):
    """Every degree-range function rejects lo > hi with the same error,
    naming the range it was given."""
    with pytest.raises(DegreeOutOfRange, match=re.escape(f"empty degree range {degrees}")):
        call(degrees)


# -- full boundary and primitives -------------------------------------------------

def test_boundary_full_rules_cp2():
    for m in (1, 2, 3):
        g = RFHGenerator("q0", 0, 7, -2, False)
        d = boundary_full(g, CP2, m)
        assert d == {RFHGenerator("q0", 0, 8, -2, True): 1,
                     RFHGenerator("q2", 4, 7 + m, -1, True): m}
        g = RFHGenerator("q1", 2, 0, 0, False)
        assert boundary_full(g, CP2, m) == {
            RFHGenerator("q1", 2, 1, 0, True): 1,
            RFHGenerator("q0", 0, 0, 0, True): m}
        assert boundary_full(RFHGenerator("q1", 2, 3, 1, True), CP2, m) == {}


def test_boundary_full_winding_behaviour():
    """d0 raises the winding by one, the cap part preserves it."""
    for m in (1, 2, 3):
        g = RFHGenerator("q0", 0, 2, 1, False)
        w = winding(g, CP2, m)
        for t, c in boundary_full(g, CP2, m).items():
            assert winding(t, CP2, m) in (w, w + 1)
            assert rfh_index(t, CP2, m) == rfh_index(g, CP2, m) - 1


def test_boundary_full_squares_to_zero_box():
    for m in (1, 2):
        gens = enumerate_generators(CP2, m, Fraction(1), k_bound=3, l_bound=6)
        for g in gens:
            assert not boundary_full_chain(boundary_full(g, CP2, m), CP2, m)


def test_boundary_full_matches_rfc_w0():
    """Restricting the full boundary to winding-preserving terms reproduces
    the zero-winding differential."""
    m = 2
    C = rfc_w0(CP2, m, (-5, 5))
    for d in range(-4, 6):
        tgt_pos = {t: i for i, t in enumerate(C.basis[d - 1])}
        M = C.boundary_at(d)
        for j, g in enumerate(C.basis[d]):
            if g.hat:
                continue
            full = boundary_full(g, CP2, m)
            kept = {t: c for t, c in full.items()
                    if winding(t, CP2, m) == winding(g, CP2, m)}
            col = {}
            for t, c in kept.items():
                if t in tgt_pos:
                    col[tgt_pos[t]] = c
            for i in range(M.rows):
                assert M.get(i, j) == col.get(i, 0)


def test_boundary_full_rejects_consecutive_indices():
    with pytest.raises(ConsecutiveIndexModel):
        boundary_full(RFHGenerator("bot", 0, 0, 0, False), surface_model(1), 2)


def test_primitive_fixture_terms():
    """First terms of the explicit primitives, frozen from the expansions
    x = v0^{l-1} - m v2^{l+m-2}(k+1) + m^2 v1^{l+m-3}(k+1) - ... downward
    and, for unit bundles, x = v1^l - v2^{l+1} + v0^{l+1}(k-1) - ... upward."""
    l, k = 5, 2
    target = RFHGenerator("q0", 0, l, k, True)
    x = primitive_partial_sum(CP2, 2, target, 4, "lower")
    assert x == {RFHGenerator("q0", 0, l - 1, k, False): 1,
                 RFHGenerator("q2", 4, l, k + 1, False): -2,
                 RFHGenerator("q1", 2, l - 1, k + 1, False): 4,
                 RFHGenerator("q0", 0, l - 2, k + 1, False): -8}
    x3 = primitive_partial_sum(CP2, 3, target, 2, "lower")
    assert x3 == {RFHGenerator("q0", 0, l - 1, k, False): 1,
                  RFHGenerator("q2", 4, l + 1, k + 1, False): -3}
    up = primitive_partial_sum(CP2, 1, target, 4, "upper")
    assert up == {RFHGenerator("q1", 2, l, k, False): 1,
                  RFHGenerator("q2", 4, l + 1, k, False): -1,
                  RFHGenerator("q0", 0, l + 1, k - 1, False): 1,
                  RFHGenerator("q1", 2, l + 2, k - 1, False): -1}


def test_primitive_residuals():
    target = RFHGenerator("q1", 2, 4, -1, True)
    for m in (1, 2, 3):
        for N in (1, 2, 7):
            x = primitive_partial_sum(CP2, m, target, N, "lower")
            dx = boundary_full_chain(x, CP2, m)
            dx[target] = dx.get(target, 0) - 1
            resid = {h: c for h, c in dx.items() if c}
            assert len(resid) == 1
            assert abs(next(iter(resid.values()))) == m ** N
    x = primitive_partial_sum(CP2, 1, target, 6, "upper")
    dx = boundary_full_chain(x, CP2, 1)
    dx[target] = dx.get(target, 0) - 1
    assert len({h: c for h, c in dx.items() if c}) == 1


# -- full homology ------------------------------------------------------------------

def table_strs(res):
    return {d: str(v) for d, v in res.table.items()}


def test_full_rfh_cp2_regimes():
    checks = [
        (1, Fraction(1, 4), "0", CompletionRegime.ALL_LOWER),
        (1, Fraction(1, 2), "Z", CompletionRegime.FINITE),
        (1, Fraction(3), "0", CompletionRegime.ALL_UPPER),
        (2, Fraction(1), "0", CompletionRegime.ALL_LOWER),
        (2, Fraction(2), "Q~_2", CompletionRegime.FINITE),
        (2, Fraction(3), "Q_2", CompletionRegime.ALL_UPPER),
        (3, Fraction(7), "0", CompletionRegime.ALL_LOWER),
        (4, Fraction(100), "0", CompletionRegime.ALL_LOWER),
    ]
    for m, tau, odd, regime in checks:
        res = full_rfh(CP2, m, tau, (-4, 4))
        assert res.regime == regime
        for d in range(-4, 5):
            assert str(res.table[d]) == (odd if d % 2 else "0"), (m, tau, d)


def test_full_rfh_tau_invariance_within_regime():
    for m, taus in ((2, (Fraction(5, 2), Fraction(3), Fraction(1000))),
                    (2, (Fraction(1, 5), Fraction(1), Fraction(199, 100))),
                    (1, (Fraction(3, 5), Fraction(7)))):
        tables = [table_strs(full_rfh(CP2, m, t, (-3, 3))) for t in taus
                  if (CP2.lam - m) * t != m]
        regimes = {full_rfh(CP2, m, t, (-3, 3)).regime for t in taus
                   if (CP2.lam - m) * t != m}
        if len(regimes) == 1:
            assert all(t == tables[0] for t in tables)


def test_full_rfh_two_periodic():
    res = full_rfh(CP2, 2, Fraction(3), (-6, 6))
    for d in range(-6, 5):
        assert str(res.table[d]) == str(res.table[d + 2])


def test_full_rfh_field_modes():
    resF = full_rfh(CP2, 2, Fraction(2), (-3, 3), "fp:5")
    for d in range(-3, 4):
        want = "Z" if d % 2 else "0"   # free rank 1 renders as the field line
        assert str(resF.table[d]) == want
    assert str(full_rfh(CP2, 2, Fraction(3), (-3, 3), "fp:5").table[1]) == "0"
    # characteristic dividing m kills the cap: zero even at the boundary
    res2 = full_rfh(CP2, 2, Fraction(2), (-3, 3), "fp:2")
    assert all(v.kind == "zero" for v in res2.table.values())
    # only a prime characteristic gives a field
    for spec in ("fp:0", "fp:1", "fp:4", "fp:", "q"):
        with pytest.raises(ValueError, match="coefficients must be z or fp:<prime>"):
            full_rfh(CP2, 2, Fraction(2), (-3, 3), spec)


def fp_matrix(A, p):
    """A over GF(p) as a sympy DomainMatrix: the field-side oracle."""
    rows = [[sympy.ZZ(x) for x in row] for row in A.to_lists()]
    return DomainMatrix(rows, (A.rows, A.cols), sympy.ZZ).convert_to(sympy.GF(p))


def induced_rank_on_cycles(sect, e, b, p):
    """Rank over F_p of psi^b : H_e -> H_{e-2b}, from an F_p cycle basis of
    C_e pushed forward and reduced modulo the boundaries of the target."""
    d_out = sect.boundary(e)
    cycles = fp_matrix(d_out, p).nullspace()
    if cycles.shape[0] == 0:
        return 0
    f = IntMatrix.identity(d_out.cols)
    for i in range(b):
        f = sect.psi(e - 2 * i) @ f
    B = fp_matrix(sect.boundary(e - 2 * b + 1), p)
    return (fp_matrix(f, p) * cycles.transpose()).hstack(B).rank() - B.rank()


TORSION_MODEL = {"name": "surface:0+torsion", "dim": 2, "nu": 0, "lambda": "0",
                 "cM": None, "primitiveOmega": True, "cap": "builtin:surface",
                 "crit": [{"label": "bot", "index": 0}, {"label": "a1", "index": 1},
                          {"label": "a2", "index": 1}, {"label": "top", "index": 2}],
                 "morseBoundary": {"2": [[2], [0]]}}   # d top = 2 a1


def test_field_quotient_dim_matches_cycle_bases():
    """The block-rank formula for the induced psi^b equals its rank on F_p
    cycle bases, on seeded random complexes with a degree -2 chain map and
    on a base with 2-torsion."""
    rng = random.Random(6)
    sects = [(LazyCone(C.boundary_at, f.at), C.degrees)
             for C, f in (random_complex_and_map(rng) for _ in range(40))]
    model = load_model(TORSION_MODEL)
    sects += [(_SectorData(model, m), (-7, 7)) for m in (1, 2)]
    for sect, (lo, hi) in sects:
        for e in range(lo, hi + 1):
            for b in range(4):
                for p in (2, 3, 5):
                    assert _field_quotient_dim(sect, e, b, p) == \
                        induced_rank_on_cycles(sect, e, b, p), (e, b, p)


def paired_model(rng, n):
    """cp:n with one to three cancelling pairs of critical points, d y = c x
    for x of odd index and y one above, c in {+-1, +-2, 3}, and the cp:n
    cap q_i -> q_{i-1} (q_0 -> t q_n) with a seeded coefficient on each
    term; x and y map to 0, so the cap commutes with d."""
    crit = [(f"q{i}", 2 * i) for i in range(n + 1)]
    pairs = []
    for t in range(rng.randint(1, 3)):
        j = rng.randrange(1, 2 * n, 2)
        pairs.append((f"x{t}", f"y{t}", j, rng.choice((1, -1, 2, -2, 3))))
        crit += [(f"x{t}", j), (f"y{t}", j + 1)]
    rng.shuffle(crit)
    at = {idx: [label for label, i in crit if i == idx] for _, idx in crit}
    morse = {}
    for x, y, j, c in pairs:
        rows = morse.setdefault(j + 1, [[0] * len(at[j + 1]) for _ in at[j]])
        rows[at[j].index(x)][at[j + 1].index(y)] = c
    base = BaseModel(f"cp:{n}+pairs", 2 * n, 1, Fraction(n + 1), n + 1, tuple(crit),
                     "zero", True, {i: IntMatrix.from_rows(r) for i, r in morse.items()})
    coeff = {f"q{i}": rng.choice((1, 1, -1, 2, 3)) for i in range(n + 1)}
    mats = {}
    for label, idx in crit:
        d = base.fh_degree(idx, 0)
        src, tgt = base.generators_in_degree(d), base.generators_in_degree(d - 2)
        rows = [[0] * len(src) for _ in tgt]
        for j, (q, k) in enumerate(src):
            if q in coeff:
                i = int(q[1:])
                rows[tgt.index((f"q{(i - 1) % (n + 1)}", k + (i == 0)))][j] = coeff[q]
        mats[d] = IntMatrix.from_rows(rows, cols=len(src))
    return replace(base, cap={"degree_matrices": mats})


def test_full_rfh_field_cells_match_the_total_betti_power():
    """In the finite regime an F_p cell is the rank of psi^b on H_star for
    any b at which ker psi^b is stable.  `full_rfh` powers psi to the number
    of critical points; this reference powers it to the total F_p Betti
    number B of one period (Fitting's lemma for psi on a space of
    dimension B), with sympy's ranks over GF(p), on seeded cp:n models with
    cancelling pairs, where the two powers differ, and on the golden
    paired model.  A cap nilpotent over Z makes every cell 0."""
    rng = random.Random(29)
    models = [paired_model(rng, rng.randint(1, 3)) for _ in range(24)]
    models.append(load_model(os.path.join(os.path.dirname(__file__), "golden",
                                          "paired_model.json")))
    seen = Counter()
    for model in models:
        for m in range(1, int(model.lam)):
            tau = Fraction(m) / (model.lam - m)
            sect = _SectorData(model, m)
            period, nilpotent = sect.period, sect.cap_nilpotent()
            for p in (2, 3, 5):
                betti = sum(sect.boundary(e).cols - fp_matrix(sect.boundary(e), p).rank()
                            - fp_matrix(sect.boundary(e + 1), p).rank()
                            for e in range(period))
                res = full_rfh(model, m, tau, (-period, period), f"fp:{p}")
                assert res.regime == CompletionRegime.FINITE
                for d, v in res.table.items():
                    star = d + 1
                    want = 0 if nilpotent or any(
                        sect.group(star + 2 * k).is_zero() for k in range(model.c_min)) \
                        else induced_rank_on_cycles(sect, star, betti, p)
                    got = 0 if v.kind == "zero" else v.presentation.free_rank
                    assert got == want, (model.crit, m, p, d)
                    seen["nonzero"] += got > 0
                seen["fewer Betti than points"] += betti < len(model.crit)
    assert seen["nonzero"] > 0 and seen["fewer Betti than points"] > 0, seen


def test_full_rfh_field_cells_once_per_residue(monkeypatch):
    """Over F_p a cell reads the boundaries and caps at its own degree,
    which repeat with the period |2*lambda*nu| = 6 of cp:2, so 1,200
    degrees of the finite regime need at most 6 block ranks (600 when
    each degree was read on its own)."""
    calls = []
    quotient = rfh._field_quotient_dim

    def counted(sect, e, b, p):
        calls.append(e)
        return quotient(sect, e, b, p)

    monkeypatch.setattr(rfh, "_field_quotient_dim", counted)
    res = full_rfh(CP2, 2, Fraction(2), (-600, 599), "fp:5")
    assert len(calls) <= 6, len(calls)
    assert sum(v.kind != "zero" for v in res.table.values()) == 600


def test_full_rfh_cells_once_per_residue(monkeypatch):
    """A cell that is not a `relations` form depends on d only through the
    residue of d + 1 modulo the period |2*lambda*nu| = 8 of cp:3, so over Z
    in the finite regime three periods read as many groups as one (100
    against 36 when each degree was decided on its own)."""
    calls = []
    group = LazyHomology.group

    def counted(self, d):
        calls.append(d)
        return group(self, d)
    monkeypatch.setattr(LazyHomology, "group", counted)
    counts = []
    for degrees in ((-4, 3), (-12, 11)):
        calls.clear()
        res = full_rfh(cp_model(3), 2, Fraction(1), degrees)
        assert res.regime == CompletionRegime.FINITE
        assert sum(v.kind != "zero" for v in res.table.values()) == len(res.table) // 2
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_full_rfh_cp1_parity():
    """For the projective line the nonzero sectors sit in odd base degrees,
    so the full homology lives in even total degrees."""
    res = full_rfh(cp_model(1), 1, Fraction(1), (-3, 3))
    assert res.regime == CompletionRegime.FINITE
    for d in range(-3, 4):
        assert str(res.table[d]) == ("Z" if d % 2 == 0 else "0")


def test_full_rfh_aspherical_zero():
    """Over an aspherical base each cap term lowers the Morse index by 2, so
    the cap is nilpotent and id + cap-shift is unipotent: every cell is 0,
    over Z and over F_p, at every radius, with or without torsion in the
    base homology."""
    rng = random.Random(16)
    models = [surface_model(g) for g in (1, 2, 3)] + [point_model(), load_model(TORSION_MODEL)]
    models += [nonperfect_surface(g, rng) for g in (1, 2, 3)]
    models += [random_custom_cap_model(rng, "aspherical") for _ in range(12)]
    for model in models:
        for m in (1, 2, 3):
            assert _SectorData(model, m).cap_nilpotent(), (model.name, m)
            for coeff in ("z", "fp:2", "fp:3", "fp:5"):
                for tau in (Fraction(1, 3), Fraction(2)):
                    res = full_rfh(model, m, tau, (-5, 5), coeff)
                    assert res.regime == CompletionRegime.FINITE
                    assert all(v.kind == "zero" for v in res.table.values()), \
                        (model.name, m, tau, coeff)


# unit cap q1 -> 3 q0 (degree 1 -> -1), q0 -> 3 t q1 (degree -1 -> -3)
RELATIONS_MODEL = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
                   "crit": [{"label": "q0", "index": 0}, {"label": "q1", "index": 2}],
                   "cap": {"1": [[3]], "-1": [[3]]},
                   "primitiveOmega": True}


def test_full_rfh_relations_fallback():
    """A monotone model whose cap is not m times a rank-one shift gets the
    honest relations description instead of a digit module."""
    model = load_model(RELATIONS_MODEL)
    res = full_rfh(model, 1, Fraction(10), (0, 1))
    kinds = {v.kind for v in res.table.values()}
    assert "relations" in kinds


# two critical points of each index, and the cap I_2 in both degrees
RANK_TWO_MODEL = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
                  "crit": [{"label": "q0", "index": 0}, {"label": "p0", "index": 0},
                           {"label": "q1", "index": 2}, {"label": "p1", "index": 2}],
                  "cap": {"1": [[1, 0], [0, 1]], "-1": [[1, 0], [0, 1]]},
                  "primitiveOmega": True}


def test_full_rfh_rank_two_sectors_are_not_a_rank_one_pattern():
    """Sectors Z^2 leave the rank-one pattern at its rank test and get the
    relations description.  The cap is unimodular, so in the finite regime
    the cell is the direct limit of isomorphisms Z^2, which the relations
    description does not yet name."""
    res = full_rfh(load_model(RANK_TWO_MODEL), 1, Fraction(1), (-2, 2))
    assert res.regime == CompletionRegime.FINITE
    for d in (-2, 0, 2):
        assert res.table[d].kind == "relations"
        sectors = res.table[d].to_json()["relations"]["sectors"]
        assert [s["group"] for s in sectors] == [{"free": 2, "torsion": []}] * 2
        assert [s["cap_to_previous"] for s in sectors] == [[[1, 0], [0, 1]]] * 2
    assert res.table[-1].kind == res.table[1].kind == "zero"


# -- injectivity, transfer, orderability -----------------------------------------

def test_delta_injectivity_all_regimes():
    for m, taus in ((1, (Fraction(1, 4), Fraction(1, 2), Fraction(3))),
                    (2, (Fraction(1), Fraction(2), Fraction(5))),
                    (3, (Fraction(1), Fraction(10)))):
        for tau in taus:
            rep = delta_injectivity(CP2, m, tau, 6, (-4, 4))
            assert rep["all"], (m, tau, rep)


def test_delta_injectivity_zero_cap():
    rep = delta_injectivity(point_model(), 2, Fraction(1), 4, (-2, 2))
    assert rep["all"]


MONOTONE_TORSION_MODEL = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
                          "crit": [{"label": "a", "index": 0}, {"label": "x", "index": 1},
                                   {"label": "c", "index": 2}],
                          "cap": {"-1": [[0]], "1": [[0]]},   # zero cap
                          "primitiveOmega": True,
                          "morseBoundary": {"1": [[2]]}}


def test_delta_injectivity_with_torsion_sectors():
    """A monotone model whose Morse differential leaves 2-torsion in the
    base homology: the kernel test must work at the group level, not just
    on generator matrices."""
    model = load_model(MONOTONE_TORSION_MODEL)
    sect = _SectorData(model, 1)
    assert str(sect.group(-1)) == "Z_2"   # a modulo 2a
    rep = delta_injectivity(model, 1, Fraction(1), 4, (-3, 3))
    assert rep["all"]
    res = full_rfh(model, 1, Fraction(1), (-2, 2))
    assert all(v.kind == "zero" for v in res.table.values())   # zero cap is nilpotent


def test_monotone_base_repeats_with_the_sector_period():
    """`_SectorData` reads a monotone base at the degree modulo its period,
    which is sound only because k -> k + 1 is a chain isomorphism
    C_d = C_{d + period} carrying the cap: `boundary_at` and `cap_at` must
    be the same matrices at d and d + period, for every d and m."""
    rng = random.Random(19)
    models = [cp_model(n) for n in (1, 2, 3, 4)]
    models += [load_model(MONOTONE_TORSION_MODEL), load_model(RELATIONS_MODEL)]
    models += [random_custom_cap_model(rng, kind) for kind in ("monotone", "permutation") * 25]
    assert sum(model.lambda_nu < 0 for model in models) >= 5
    for model in models:
        period = _SectorData(model, 1).period
        assert period > 0, model.name
        for d in range(-20, 21):
            assert model.boundary_at(d) == model.boundary_at(d + period), (model.name, d)
            for m in (1, 2, 3):
                assert model.cap_at(d, m) == model.cap_at(d + period, m), (model.name, d, m)


def test_delta_injectivity_eliminations_do_not_grow_with_k_range(monkeypatch):
    """`delta_injectivity` checks its hypothesis once per key of
    `degree_classes` and builds no truncation, so its `_Elimination` count
    is the same at every k_range up to 10**6: 3, the cycle bases of the
    three residues of cp:2 that hold a generator.  A deterministic guard on
    the ladder of growing truncations."""
    made = []
    init = exactlin._Elimination.__init__

    def count(self, A):
        made.append(1)
        init(self, A)
    monkeypatch.setattr(exactlin._Elimination, "__init__", count)
    counts = {}
    for k_range in (2, 8, 16, 64, 1024, 10**6):
        made.clear()
        rep = delta_injectivity(CP2, 2, Fraction(2), k_range, (-6, 6))
        assert rep["all"] and len(rep["degrees"]) == 13
        counts[k_range] = len(made)
    assert set(counts.values()) == {3}, counts


def sector_blocks(sect, star, src, tgt, c=1):
    """The truncation reference: id + c*cap-shift from the sum of the
    sectors `src` into the sum of the sectors `tgt`, cap terms landing
    outside `tgt` dropped, the torsion relations of `tgt` as columns on the
    rows of its sum, and a function that lays out those of `src` on the
    rows of theirs.  Sector k is the base homology in degree star + 2k, on
    its cycle basis."""
    bases = {k: sect.basis(star + 2 * k) for k in (*src, *tgt)}

    def layout(sectors):
        off, rel, total = {}, [], 0
        for k in sectors:
            off[k] = total
            rel += ({total + i: x for i, x in col.items()} for col in bases[k].relations.columns)
            total += bases[k].cycles.cols
        return off, IntMatrix(total, len(rel), tuple(rel))
    row_off, R_tgt = layout(tgt)
    delta = []
    for k in src:
        n = bases[k].cycles.cols
        M = sect.psi_induced(star + 2 * k).scale(c) if n and k - 1 in row_off else None
        for j in range(n):
            col = {row_off[k] + j: 1}
            if M is not None:
                col.update((row_off[k - 1] + i, x) for i, x in M.columns[j].items())
            delta.append(col)
    return IntMatrix(R_tgt.rows, len(delta), tuple(delta)), R_tgt, lambda: layout(src)[1]


def truncation_injective(sect, star, k_range, c=1):
    """Whether id + c*cap-shift on the input sectors -k_range..k_range,
    into the output sectors down to the overflow sector -k_range - 1, has
    trivial kernel on homology: every x whose image lies in the output
    relations lies in the input relations."""
    delta, R_out, R_in = sector_blocks(sect, star, range(-k_range, k_range + 1),
                                       range(-k_range - 1, k_range + 1), c)
    return chaincplx._preimage_in_span(delta, R_out, R_in)


def test_delta_injectivity_matches_the_blocks_at_every_degree():
    """`delta_injectivity` checks only that psi is well defined on
    homology.  Its verdicts equal those of the truncation reference,
    `sector_blocks` and `_preimage_in_span`, at every degree: on the zoo,
    the model files `relations_model.json` and `paired_model.json`, the
    monotone torsion model and seeded custom caps, at k_range 1, 2 and 4.
    The theorem behind it holds for any induced cap, so the reference
    verdicts do not move when psi is replaced by 0 or by -5 psi."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    models = [cp_model(n) for n in (1, 2, 3)] + [surface_model(g) for g in (1, 2)]
    models += [point_model(), load_model(MONOTONE_TORSION_MODEL),
               load_model(os.path.join(golden, "relations_model.json")),
               load_model(os.path.join(golden, "paired_model.json"))]
    rng = random.Random(31)
    models += [random_custom_cap_model(rng, kind)
               for kind in ("aspherical", "monotone", "permutation") * 4]
    for model in models:
        for m in (1, 2, 3):
            sect = _SectorData(model, m)
            for k_range in (1, 2, 4):
                rep = delta_injectivity(model, m, Fraction(1), k_range, (-5, 5))
                for star in range(-5, 6):
                    want = truncation_injective(sect, star, k_range)
                    assert rep["degrees"][star] == want, (model.name, m, k_range, star)
                    for c in (0, -5):
                        assert truncation_injective(sect, star, k_range, c) == want, \
                            (model.name, m, k_range, star, c)


@pytest.mark.parametrize("spec", [NOT_A_CHAIN_MAP_CAP, {
    **MONOTONE_TORSION_MODEL, "cap": {"-1": [[1]], "1": [[0]]}}],
    ids=["aspherical", "monotone"])
def test_delta_injectivity_raises_on_a_cap_that_is_not_a_chain_map(spec):
    """A cap that does not commute with the Morse differential raises
    NotAChainMap: the aspherical model of `test_custom_cap_validation`, and
    the monotone torsion model with a -> c while d(x) = 2a and d(c) = 0."""
    with pytest.raises(NotAChainMap, match="does not commute with boundaries"):
        delta_injectivity(load_model(spec), 1, Fraction(1), 4, (-3, 3))


def test_delta_injectivity_raises_on_a_cap_that_moves_a_relation(monkeypatch):
    """An induced cap that sends a relation to a non-relation raises
    NotAChainMap: psi with every entry 1 takes the relation 2a of the Z_2
    sector of the monotone torsion model to 2c in a free sector."""
    psi_induced = _SectorData.psi_induced

    def ones(self, e):
        M = psi_induced(self, e)
        return IntMatrix.from_rows([[1] * M.cols for _ in range(M.rows)], cols=M.cols)
    monkeypatch.setattr(_SectorData, "psi_induced", ones)
    with pytest.raises(NotAChainMap, match="to a non-boundary"):
        delta_injectivity(load_model(MONOTONE_TORSION_MODEL), 1, Fraction(1), 4, (-3, 3))


def test_sectors_match_the_windowed_complex():
    """Each sector, built from the boundaries and the cap at its own degree,
    has the homology and the induced cap that `build_fc` and `cap_map`
    give on a window around that degree.  Likewise `gysin`, which reads the
    model one degree at a time, equals the cone sequence of `cap_map` on a
    window around its degrees, node for node and map for map, and a wider
    `rfc_w0` changes no group of `rfh_w0_table`."""
    rng = random.Random(12)
    models = [cp_model(n) for n in (1, 2, 3, 4)] + [surface_model(g) for g in (1, 2, 4)]
    models += [point_model(), load_model(TORSION_MODEL), load_model(MONOTONE_TORSION_MODEL)]
    models += [nonperfect_surface(g, rng) for g in (1, 2, 3)]
    for model in models:
        for m in (1, 2, 3):
            sect = _SectorData(model, m)
            for e in range(-10, 11):
                fc = build_fc(model, (e - 2, e + 2))
                assert sect.group(e) == groups(fc, [e])[e], (model.name, m, e)
                fc = build_fc(model, (e - 3, e + 2))
                h = LazyHomology(fc.boundary_at)
                want = induced_matrix(cap_map(model, m, fc).at(e), h.basis(e), h.basis(e - 2))
                assert sect.psi_induced(e) == want, (model.name, m, e)
            for lo, hi in ((-5, 5), (-40, -30), (17, 25), (0, 0)):
                fc = build_fc(model, (lo - 6, hi + 3))
                want = cone_les(cap_map(model, m, fc), (lo, hi), "RFH^w0", "FH")
                assert gysin(model, m, (lo, hi)) == want, (model.name, m, lo, hi)
                wide = rfc_w0(model, m, (lo - 5, hi + 5))
                assert rfh_w0_table(model, m, Fraction(1), (lo, hi)) == \
                    groups(wide, range(lo, hi + 1)), (model.name, m, lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_rfh_is_periodic_in_the_degree(n):
    """The base homology of cp:n repeats with period 2*lambda*nu in the
    degree, and so do full_rfh and delta_injectivity: ranges moved by 25
    periods either way give the same cells, over Z and F_5, at one radius in
    each regime that m allows.  Over a surface, degrees 40..45 are far from
    every base degree and every cell is 0."""
    model = cp_model(n)
    shift = 25 * 2 * model.lambda_nu
    for m in (1, 2, 3):
        radii = [Fraction(1)]
        if model.lam > m:      # the finite regime sits at tau*(lam - m) = m
            boundary = m / (model.lam - m)
            radii = [boundary / 2, boundary, 2 * boundary]
        for tau in radii:
            for coeff in ("z", "fp:5"):
                base = full_rfh(model, m, tau, (-6, 6), coeff).table
                for s in (shift, -shift):
                    moved = full_rfh(model, m, tau, (s - 6, s + 6), coeff).table
                    assert [moved[d + s] for d in range(-6, 7)] == list(base.values()), \
                        (n, m, tau, coeff, s)
            rep = delta_injectivity(model, m, tau, 3, (-3, 3))
            for s in (shift, -shift):
                moved = delta_injectivity(model, m, tau, 3, (s - 3, s + 3))
                assert list(moved["degrees"].values()) == list(rep["degrees"].values())
    for g in (1, 2):
        for m in (1, 2, 3):
            for coeff in ("z", "fp:5"):
                table = full_rfh(surface_model(g), m, Fraction(1), (40, 45), coeff).table
                assert all(str(v) == "0" for v in table.values()), (g, m, coeff)


def test_delta_minus_id_has_cokernel():
    """Mutation check: dropping the identity from id + cap-shift leaves the
    bare shifted cap, whose truncated block matrix is not surjective for
    m >= 2."""
    from rfhomology.exactlin import presentation_from_relations
    m, star, K = 2, 0, 4
    sect = _SectorData(CP2, m)
    sectors = list(range(-K, K + 1))
    dims = {k: sect.basis(star + 2 * k).cycles.cols for k in sectors}
    offs, total = {}, 0
    for k in sectors:
        offs[k] = total
        total += dims[k]
    rows = [[0] * total for _ in range(total)]
    for k in sectors:
        if k - 1 not in offs:
            continue
        M = sect.psi_induced(star + 2 * k)
        for i in range(M.rows):
            for j in range(M.cols):
                rows[offs[k - 1] + i][offs[k] + j] += M.get(i, j)
    psi_block = IntMatrix.from_rows(rows, cols=total)
    coker = presentation_from_relations(total, psi_block)
    assert not coker.is_zero()


def test_transfer_identities(monkeypatch):
    """P.T = T.P = m.id on the cone layout, T = P = id at m = 1, and a
    transfer that does not commute with the cone boundaries is reported:
    swapping T and P keeps P.T = T.P = m.id but moves the cap's factor m,
    so every degree whose cone boundary holds a cap term fails."""
    for m in (1, 2, 6):
        assert transfer_failures(CP2, m, (-5, 5)) == []
        sect = _SectorData(CP2, m)
        for d in range(-5, 6):
            T, P = _transfer_maps(sect, d)
            want = IntMatrix.identity(T.rows).scale(m)
            assert P @ T == want and T @ P == want
    sect = _SectorData(CP2, 1)
    for d in range(-4, 5):
        T, P = _transfer_maps(sect, d)
        assert T == P == IntMatrix.identity(T.rows)
    original = _transfer_maps
    monkeypatch.setattr(rfh, "_transfer_maps", lambda sect, d: original(sect, d)[::-1])
    assert transfer_failures(CP2, 2, (-5, 5)) == [-4, -2, 0, 2, 4]


def reference_transfer_maps(model, m, degrees):
    """The generator-level transfer on `rfc_w0`: T sends a generator to the
    one with covering number l/m, with coefficient 1 on hats and m on
    checks; P goes back with covering number l*m, with coefficient m on
    hats and 1 on checks.  Both are chain maps, checked when they are built."""
    C_m, C_1 = rfc_w0(model, m, degrees), rfc_w0(model, 1, degrees)
    lo, hi = degrees
    T = ChainMap(C_m, C_1, 0, {d: matrix_from_terms(
        C_m.basis[d], C_1.basis[d],
        lambda g: [(g._replace(cov=g.cov // m), 1 if g.hat else m)])
        for d in range(lo, hi + 1)})
    P = ChainMap(C_1, C_m, 0, {d: matrix_from_terms(
        C_1.basis[d], C_m.basis[d],
        lambda g: [(g._replace(cov=g.cov * m), m if g.hat else 1)])
        for d in range(lo, hi + 1)})
    return T, P


def test_transfer_maps_equal_the_generator_level_reference():
    """The diagonal T and P that `transfer_failures` reads at the residue of
    d equal, entry for entry, the generator-level maps on `rfc_w0` at d, and
    `rfc_w0`'s boundaries equal those of the two lazy cones."""
    rng = random.Random(21)
    models = [cp_model(n) for n in (1, 2, 3)] + [surface_model(g) for g in (1, 2)]
    models += [point_model(), load_model(TORSION_MODEL),
               load_model(MONOTONE_TORSION_MODEL), nonperfect_surface(2, rng)]
    for model in models:
        for m in range(1, 6):
            T, P = reference_transfer_maps(model, m, (-6, 6))
            sect = _SectorData(model, m)
            cone_m, cone_1 = sect.cone, _SectorData(model, 1).cone
            for d in range(-6, 7):
                assert _transfer_maps(sect, sect.residue(d)) == (T.at(d), P.at(d)), \
                    (model.name, m, d)
                if d > -6:
                    assert T.source.boundary_at(d) == cone_m.boundary(d), (model.name, m, d)
                    assert T.target.boundary_at(d) == cone_1.boundary(d), (model.name, m, d)
            assert transfer_failures(model, m, (-6, 6)) == [], (model.name, m)


def test_transfer_reads_each_residue_once(monkeypatch):
    """On cp:2 (period 6) transfer over -6..5 and over -600..599 builds the
    same base boundaries and caps: each residue is read once."""
    calls = Counter()
    for name in ("boundary_at", "cap_at"):
        def counted(self, *args, _name=name, _orig=getattr(BaseModel, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(BaseModel, name, counted)
    counts = []
    for degrees in ((-6, 5), (-600, 599)):
        calls.clear()
        assert transfer_failures(CP2, 3, degrees) == []
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["cap_at"] > 0, counts


def test_transfer_torsion_consequence():
    for n in (1, 2, 3):
        base = rfh_w0_table(cp_model(n), 1, Fraction(1), (-5, 5))
        assert all(p.is_zero() for p in base.values())
        for m in (2, 5):
            table = rfh_w0_table(cp_model(n), m, Fraction(1), (-5, 5))
            for p in table.values():
                assert p.free_rank == 0
                assert all(m % t == 0 for t in p.torsion)


def test_orderability_reports():
    rep = orderability_report(CP2, 2)
    assert rep == {"rfh_w0_nonzero": True, "cap_surjective": False,
                   "c1_primitive": False, "orderable": True,
                   "translated_points": True}
    rep1 = orderability_report(CP2, 1)
    assert rep1["rfh_w0_nonzero"] is False
    assert rep1["orderable"] == "unknown"
    assert rep1["translated_points"] == "unknown"
    assert rep1["cap_surjective"] is True and rep1["c1_primitive"] is True
    reps = orderability_report(surface_model(1), 1)
    assert reps["rfh_w0_nonzero"] is True and reps["orderable"] is True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderability_verdicts_match_the_literature(n):
    """The prequantization space of cp:n at m = 1 is S^{2n+1}, which is not
    orderable (Eliashberg-Kim-Polterovich 2006): the report must never say
    True there.  At m >= 2 it is a lens space, which is orderable
    (Eliashberg-Polterovich 2000 for RP^{2n+1}; Granja-Karshon-Pabiniak-
    Sandon 2021): the report says True."""
    assert orderability_report(cp_model(n), 1)["orderable"] is not True
    for m in (2, 3, 4, 5):
        assert orderability_report(cp_model(n), m)["orderable"] is True, m


# -- the cap as one integer matrix ----------------------------------------------

T = sympy.Symbol("t")


def random_custom_cap_model(rng, kind):
    """A seeded model with a custom `degree_matrices` cap.  `kind` is
    "aspherical" or "monotone" (sparse random coefficients), or
    "permutation": a monotone model whose degree classes modulo 2*c_min all
    have the same size, with one signed permutation per class and mostly
    +-1 coefficients, so that unit determinants occur at m = 1."""
    h = rng.randint(1, 3)
    if kind == "aspherical":
        nu, c = 0, 0
    elif kind == "monotone":
        nu, c = rng.choice((1, 2)), rng.choice([*range(2, h + 3), -h, -h - 1])
    else:
        nu, c = rng.choice((1, 2)), rng.randint(2, h + 1)
    if kind == "permutation":
        period = 2 * c
        reach = {(i - h) % period for i in range(2 * h + 1)}
        q = rng.choice([q for q in (0, 1) if all(r in reach for r in range(q, period, 2))])
        size = rng.randint(1, 2)
        indices = [rng.choice([i for i in range(2 * h + 1) if (i - h) % period == r])
                   for r in range(q, period, 2) for _ in range(size)]
        rng.shuffle(indices)
    else:
        indices = [rng.randint(0, 2 * h) for _ in range(rng.randint(1, 6))]
    crit = tuple((f"p{i}", idx) for i, idx in enumerate(indices))
    base = BaseModel(kind, 2 * h, nu, Fraction(c, nu) if nu else Fraction(0),
                     abs(c) if nu else None, crit, "zero", False)
    mats, perms = {}, {}
    for _, idx in crit:
        d = base.fh_degree(idx, 0)
        src, tgt = base.generators_in_degree(d), base.generators_in_degree(d - 2)
        if not tgt or d in mats:
            continue
        if kind == "permutation":
            if d % period not in perms:
                order = rng.sample(range(len(src)), len(src))
                perms[d % period] = [[rng.choice((1, -1, 1, -1, 2)) if order[j] == i else 0
                                      for j in range(len(src))] for i in range(len(tgt))]
            rows = perms[d % period]
        else:
            density = rng.random()
            rows = [[rng.choice((-2, -1, 1, 3)) if rng.random() < density else 0
                     for _ in src] for _ in tgt]
        mats[d] = IntMatrix.from_rows(rows, cols=len(src))
    return replace(base, cap={"degree_matrices": mats})


def laurent_cap(model, m):
    """The cap with -m[omega] over Z[t, t^-1], rebuilt from `cap_terms`."""
    pos, n = model.position, len(model.crit)
    L = sympy.zeros(n, n)
    for src, terms in model.cap_terms.items():
        for tgt, _, s, c in terms:
            L[pos[tgt], pos[src]] += m * c * T**s
    return L


def test_cap_shortcuts_match_laurent_oracle():
    """Each cap term's sphere shift is fixed by the degrees of its ends, so
    psi of `_SectorData` at the degrees of the critical points holds the
    whole cap over the Novikov ring: its nilpotency over Z and its unit
    determinant.  Checked against sympy's L**n and det on seeded
    custom-cap models, cp:1..4, surface:1..3, the point and non-perfect
    surfaces.  A cap nilpotent mod p only is left to the field rule, and
    every F_p cell of the finite regime is 0 there."""
    rng = random.Random(12)
    models = [random_custom_cap_model(rng, kind)
              for kind in ("aspherical", "monotone", "permutation") * 20]
    models += [cp_model(n) for n in (1, 2, 3, 4)] + [surface_model(g) for g in (1, 2, 3)]
    models += [point_model()] + [nonperfect_surface(g, random.Random(16)) for g in (1, 2, 3)]
    seen = Counter()
    for model in models:
        n = len(model.crit)
        for m in (1, 2, 3):
            L = laurent_cap(model, m)
            coeffs = [c for e in (L**n).applyfunc(sympy.expand)
                      for c in e.as_coefficients_dict().values()]
            det = list(sympy.expand(L.det()).as_coefficients_dict().values())
            sect = _SectorData(model, m)
            nilpotent, iso_over_z = sect.cap_nilpotent(), sect.cap_unimodular()
            assert nilpotent == all(c == 0 for c in coeffs), (model.name, m)
            assert iso_over_z == (det in ([1], [-1])), (model.name, m)
            for p in (2, 3, 5):
                if nilpotent or any(c % p for c in coeffs):
                    continue
                seen["nilpotent mod p only"] += 1
                if model.lam > m:        # the finite regime exists
                    period = sect.period
                    res = full_rfh(model, m, Fraction(m) / (model.lam - m),
                                   (-period - 1, period + 1), f"fp:{p}")
                    assert res.regime == CompletionRegime.FINITE
                    assert all(v.kind == "zero" for v in res.table.values()), \
                        (model.name, m, p)
                    seen["finite mod p only"] += 1
            seen["nilpotent"] += nilpotent
            seen["unit"] += iso_over_z
            seen["neither"] += not nilpotent and not iso_over_z
    assert min(seen[key] for key in ("nilpotent mod p only", "finite mod p only",
                                     "nilpotent", "unit", "neither")) > 0, seen


def test_full_rfh_reads_no_cap_in_the_lower_regime(monkeypatch):
    """In the ALL_LOWER regime every cell is 0 before the cap is read, so
    `full_rfh` never calls `BaseModel.cap_at` there; in the upper regime
    its unimodularity read does."""
    calls = Counter()
    cap_at = BaseModel.cap_at

    def counting(self, degree, m):
        calls[degree] += 1
        return cap_at(self, degree, m)
    monkeypatch.setattr(BaseModel, "cap_at", counting)
    res = full_rfh(cp_model(2), 1, Fraction(1, 4), (-6, 6))
    assert res.regime == CompletionRegime.ALL_LOWER
    assert all(v.kind == "zero" for v in res.table.values())
    assert not calls
    res = full_rfh(cp_model(2), 1, Fraction(1), (-6, 6))
    assert res.regime == CompletionRegime.ALL_UPPER and calls


def parent_custom_cap_terms(model):
    """The custom-cap path of `BaseModel.cap_terms` as it was, frozen as the
    reference: both degrees' generators and the source column looked up
    once per critical point (the shape checks are left out)."""
    mats = model.cap["degree_matrices"]
    terms = {label: [] for label, _ in model.crit}
    for label, idx in model.crit:
        d = model.fh_degree(idx, 0)
        src = model.generators_in_degree(d)
        tgt = model.generators_in_degree(d - 2)
        if not tgt:
            continue
        M = mats[d]
        col = src.index((label, 0))
        terms[label].extend((tl, model.index_of[tl], tk, M.get(i, col))
                            for i, (tl, tk) in enumerate(tgt) if M.get(i, col))
    return {label: tuple(ts) for label, ts in terms.items()}


def test_custom_cap_terms_match_reference():
    """`cap_terms` reads each degree of a custom cap once; its terms, their
    order included, are those of the per-critical-point reference."""
    rng = random.Random(25)
    models = [custom_cap_model()] + [random_custom_cap_model(rng, kind) for kind in
                                     ("aspherical", "monotone", "permutation") * 17][:50]
    terms = 0
    for model in models:
        assert model.cap_terms == parent_custom_cap_terms(model), model.crit
        terms += sum(map(len, model.cap_terms.values()))
    assert terms > 100, terms
