import os
import subprocess
import sys
from fractions import Fraction

import pytest

from rfhomology.basemodel import (build_fc, cap_map, cp_model, load_model,
                                  point_model, surface_model)
from rfhomology.chaincplx import (homology_table, mapping_cone,
                                  verify_boundary, verify_exactness)
from rfhomology.errors import (ConsecutiveIndexModel, TruncationTooNarrow)
from rfhomology.exactlin import IntMatrix, ZModulePresentation, rank
from rfhomology.novikov import CompletionRegime
from rfhomology.rfh import (RFHGenerator, action, base_action, boundary_full,
                            boundary_full_chain, delta_injectivity,
                            enumerate_generators, eta, fh_index, full_rfh,
                            gysin, orderability_report, primitive_partial_sum,
                            rfc_w0, rfh_index, rfh_w0_table, transfer_maps,
                            winding)

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
            assert eta(g, m) == -Fraction(g.cov, m)


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
            assert eta(g, m) == base_action(g, CP2)


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
    """The directly-assembled zero-winding complex computes the same
    homology as the mapping cone of the cap chain map."""
    zoo = [(cp_model(n), m) for n in (1, 2, 3) for m in (1, 2, 5)]
    zoo += [(surface_model(1), 2), (surface_model(2), 3), (point_model(), 1)]
    for model, m in zoo:
        direct = rfh_w0_table(model, m, Fraction(1), (-4, 4))
        cone = mapping_cone(cap_map(model, m, fc=build_fc(model, degrees=(-8, 7))))
        oracle = homology_table(cone, range(-4, 5))
        assert direct == oracle, (model.name, m)


def test_rfc_w0_boundary_squares_to_zero():
    for model, m in [(CP2, 2), (surface_model(1), 3)]:
        C = rfc_w0(model, m, Fraction(1), (-6, 6))
        assert verify_boundary(C).ok


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


def test_rfc_w0_action_window():
    """An action window keeps exactly the sphere classes with
    -(1+tau)*k*nu strictly inside it."""
    tau = Fraction(1)
    C = rfc_w0(CP2, 2, tau, (-20, 20), window=(Fraction(-3), Fraction(3)))
    ks = set()
    for d in range(-20, 21):
        for lab in C.basis[d]:
            ks.add(int(lab.rsplit(",k=", 1)[1][:-1]))
    assert ks == {-1, 0, 1}


def test_enumerate_requires_some_constraint():
    with pytest.raises(TruncationTooNarrow):
        enumerate_generators(CP2, 2, Fraction(1))
    with pytest.raises(TruncationTooNarrow):
        enumerate_generators(CP2, 2, Fraction(1), degrees=(-2, 2))


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
    C = rfc_w0(CP2, m, Fraction(1), (-5, 5))
    idx_of = dict(CP2.crit)
    for d in range(-4, 6):
        labels = C.basis[d]
        tgt_pos = {lab: i for i, lab in enumerate(C.basis[d - 1])}
        M = C.boundary_at(d)
        for j, lab in enumerate(labels):
            if not lab.startswith("chk"):
                continue
            name, rest = lab[4:-1].split(",l=")
            l, k = (int(x) for x in rest.split(",k="))
            g = RFHGenerator(name, idx_of[name], l, k, False)
            full = boundary_full(g, CP2, m)
            kept = {t: c for t, c in full.items()
                    if winding(t, CP2, m) == winding(g, CP2, m)}
            col = {}
            for t, c in kept.items():
                tl = ("hat" if t.hat else "chk") + f"({t.label},l={t.cov},k={t.k})"
                if tl in tgt_pos:
                    col[tgt_pos[tl]] = c
            for i in range(M.rows):
                assert M.get(i, j) == col.get(i, 0)


def test_boundary_full_rejects_consecutive_indices():
    with pytest.raises(ConsecutiveIndexModel):
        boundary_full(RFHGenerator("bot", 0, 0, 0, False), surface_model(1), 2)


def test_full_complex_assembled_on_truncation():
    """The assembled full complex on degrees -8..8 with |k| <= 6 passes the
    boundary check for every bundle degree: boundary images are fiberwise
    maxima, hence cycles."""
    from rfhomology.rfh import full_complex
    for m in (1, 2, 3):
        C = full_complex(CP2, m, Fraction(1), (-8, 8), 6)
        assert any(C.rank(d) for d in range(-8, 9))
        assert verify_boundary(C).ok


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


def test_full_rfh_cp1_parity():
    """For the projective line the nonzero sectors sit in odd base degrees,
    so the full homology lives in even total degrees."""
    res = full_rfh(cp_model(1), 1, Fraction(1), (-3, 3))
    assert res.regime == CompletionRegime.FINITE
    for d in range(-3, 4):
        assert str(res.table[d]) == ("Z" if d % 2 == 0 else "0")


def test_full_rfh_aspherical_zero():
    for model in (surface_model(1), surface_model(2), point_model()):
        for tau in (Fraction(1, 3), Fraction(2)):
            res = full_rfh(model, 2, tau, (-3, 3))
            assert all(v.kind == "zero" for v in res.table.values())


def test_full_rfh_relations_fallback():
    """A monotone model whose cap is not m times a rank-one shift gets the
    honest relations description instead of a digit module."""
    spec = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
            "crit": [{"label": "q0", "index": 0}, {"label": "q1", "index": 2}],
            "cap": {"1": [[0], [3]], "-1": [[3], [0]]},
            "primitiveOmega": True}
    # unit cap q1 -> 3 q0 (degree 1 -> -1), q0 -> 3 t q1 (degree -1 -> -3)
    spec["cap"] = {"1": [[3]], "-1": [[3]]}
    model = load_model(spec)
    res = full_rfh(model, 1, Fraction(10), (0, 1))
    kinds = {v.kind for v in res.table.values()}
    assert "relations" in kinds


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


def test_delta_injectivity_with_torsion_sectors():
    """A monotone model whose Morse differential leaves 2-torsion in the
    base homology: the kernel test must work at the group level, not just
    on generator matrices."""
    spec = {"dim": 2, "nu": 1, "lambda": "2", "cM": 2,
            "crit": [{"label": "a", "index": 0}, {"label": "x", "index": 1},
                     {"label": "c", "index": 2}],
            "cap": {"-1": [[0]], "1": [[0]]},   # zero cap
            "primitiveOmega": True,
            "morseBoundary": {"1": [[2]]}}
    model = load_model(spec)
    from rfhomology.rfh import _SectorData
    sect = _SectorData(model, 1, -8, 8)
    assert str(sect.group(-1)) == "Z_2"   # a modulo 2a
    rep = delta_injectivity(model, 1, Fraction(1), 4, (-3, 3))
    assert rep["all"]
    res = full_rfh(model, 1, Fraction(1), (-2, 2))
    assert all(v.kind == "zero" for v in res.table.values())   # zero cap is nilpotent


def test_delta_minus_id_has_cokernel():
    """Mutation check: dropping the identity from id + cap-shift leaves the
    bare shifted cap, whose truncated block matrix is not surjective for
    m >= 2."""
    from rfhomology.rfh import _SectorData
    from rfhomology.exactlin import presentation_from_relations
    m, star, K = 2, 0, 4
    sect = _SectorData(CP2, m, star - 2 * K - 6, star + 2 * K + 6)
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


def test_transfer_identities():
    for m in (1, 2, 6):
        T, P = transfer_maps(CP2, Fraction(1), (-5, 5), m)
        for d in range(-5, 6):
            n = T.source.rank(d)
            want = IntMatrix.identity(n).scale(m).entries
            assert (P.at(d) @ T.at(d)).entries == want
            assert (T.at(d) @ P.at(d)).entries == want
    T1, P1 = transfer_maps(CP2, Fraction(1), (-4, 4), 1)
    for d in range(-4, 5):
        assert T1.at(d).entries == IntMatrix.identity(T1.source.rank(d)).entries
        assert P1.at(d).entries == T1.at(d).entries


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
