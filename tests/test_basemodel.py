import json
import warnings
from fractions import Fraction

import pytest

from rfhomology.basemodel import (BaseModel, build_fc, cap_lambda_matrix,
                                  cap_map, cap_stabilization, cp_model,
                                  gen_label, load_model, model_from_spec,
                                  point_model, primitivity_report,
                                  surface_model, unit_cap_lambda_matrix)
from rfhomology.chaincplx import homology_table
from rfhomology.errors import EmptyWindow, NotAChainMap, UnsupportedModel
from rfhomology.exactlin import is_surjective_over_z


def test_build_fc_cp2_window():
    fc = build_fc(cp_model(2), window=(Fraction(-5, 2), Fraction(5, 2)))
    assert "(q1,0)" in fc.basis[0]
    # only sphere classes with action strictly inside the window appear
    ks = set()
    for d in range(fc.degrees[0], fc.degrees[1] + 1):
        for lab in fc.basis[d]:
            ks.add(int(lab[1:-1].rsplit(",", 1)[1]))
    assert ks == {-2, -1, 0, 1, 2}


def test_build_fc_torus_and_point():
    fc = build_fc(surface_model(1), degrees=(-1, 1))
    assert [fc.rank(d) for d in (-1, 0, 1)] == [1, 2, 1]
    assert all(M.is_zero() for M in fc.boundary.values())
    fcp = build_fc(point_model(), degrees=(-2, 2))
    assert [fcp.rank(d) for d in range(-2, 3)] == [0, 0, 1, 0, 0]


def test_build_fc_needs_constraints():
    with pytest.raises(EmptyWindow):
        build_fc(cp_model(1))
    with pytest.raises(EmptyWindow):
        build_fc(cp_model(1), window=(Fraction(2), Fraction(1)))


def test_morse_isomorphism_ranks():
    """Per-degree Floer ranks match the Betti numbers tensored with the
    Novikov ring, windowed."""
    for n in (1, 2, 3):
        model = cp_model(n)
        fc = build_fc(model, degrees=(-9, 9))
        c = n + 1
        for d in range(-9, 10):
            # sum over morse indices 2i with 2i - n - 2(n+1)k = d
            want = sum(1 for i in range(n + 1)
                       if (2 * i - n - d) % (2 * c) == 0)
            assert fc.rank(d) == want, (n, d)
    fc = build_fc(surface_model(2), degrees=(-1, 1))
    assert [fc.rank(d) for d in (-1, 0, 1)] == [1, 4, 1]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 3), (3, 4)])
def test_cap_map_is_chain_map_and_pattern(n, m):
    model = cp_model(n)
    fc = build_fc(model, degrees=(-11, 11))
    psi = cap_map(model, m, fc=fc)
    psi.check()   # strict commutation
    for d in range(-8, 9):
        M = psi.at(d)
        if M.rows == 1 and M.cols == 1:
            assert abs(M.get(0, 0)) == m


def test_surface_cap_single_block():
    model = surface_model(1)
    fc = build_fc(model, degrees=(-1, 1))
    psi = cap_map(model, 3, fc=fc)
    assert psi.at(1).to_lists() == [[3]]
    assert psi.at(0).is_zero()


def test_cap_equivariance_under_k_shift():
    """Shifting every sphere class by one conjugates the cap matrix to
    itself (Novikov-linearity)."""
    model = cp_model(2)
    fc = build_fc(model, degrees=(-16, 16))
    psi = cap_map(model, 2, fc=fc)
    shift = 2 * model.c_min

    def shifted(lab):
        name, k = lab[1:-1].rsplit(",", 1)
        return gen_label(name, int(k) + 1)

    for d in range(-6, 7):
        M = psi.at(d)
        M2 = psi.at(d - shift)
        pos_s = {lab: i for i, lab in enumerate(fc.basis[d - shift])}
        pos_t = {lab: i for i, lab in enumerate(fc.basis[d - shift - 2])}
        for s, slab in enumerate(fc.basis[d]):
            for t, tlab in enumerate(fc.basis[d - 2]):
                assert M.get(t, s) == M2.get(pos_t[shifted(tlab)], pos_s[shifted(slab)])


def test_cap_injective_not_surjective_cpn():
    for n in (1, 2):
        for m in (2, 3):
            model = cp_model(n)
            fc = build_fc(model, degrees=(-9, 9))
            psi = cap_map(model, m, fc=fc)
            for d in range(-6, 7):
                M = psi.at(d)
                if M.cols:
                    from rfhomology.exactlin import kernel_basis
                    assert kernel_basis(M).cols == 0
                if M.rows:
                    assert not is_surjective_over_z(M)


def test_cap_stabilization():
    assert cap_stabilization(cp_model(2), 1) == (1, 3)
    assert cap_stabilization(cp_model(2), 4) == (1, 3)
    assert cap_stabilization(cp_model(3), 2) == (1, 4)
    assert cap_stabilization(surface_model(1), 3) == (2, 0)
    assert cap_stabilization(point_model(), 1) == (1, 0)


def test_primitivity():
    assert primitivity_report(cp_model(2), 2) == {"primitive": False}
    assert primitivity_report(cp_model(2), 1) == {"primitive": True}
    assert primitivity_report(point_model(), 1) == {"primitive": False}


def test_monotonicity_validation():
    with pytest.raises(UnsupportedModel):
        BaseModel("bad", 4, 1, Fraction(1, 2), 1, (("q", 0),), "zero", False)
    with pytest.raises(UnsupportedModel):
        # lambda*nu = 0 in a monotone model violates both bounds
        BaseModel("bad", 4, 2, Fraction(0), 0, (("q", 0),), "zero", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        BaseModel("edge", 2, 1, Fraction(1), 1, (("q", 0), ("p", 2)), "zero", False)
    assert any("relaxed bound" in str(w.message) for w in caught)


def test_model_file_roundtrip(tmp_path):
    spec = {"dim": 4, "nu": 1, "lambda": "3", "cM": 3,
            "crit": [{"label": f"q{i}", "index": 2 * i} for i in range(3)],
            "cap": "builtin:cpn", "primitiveOmega": True}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    model = load_model(str(path))
    ref = cp_model(2)
    assert build_fc(model, degrees=(-6, 6)).basis == build_fc(ref, degrees=(-6, 6)).basis
    assert unit_cap_lambda_matrix(model) == unit_cap_lambda_matrix(ref)
    assert model_from_spec(f"file:{path}").crit == ref.crit


def test_custom_model_with_morse_differential():
    """An aspherical model carrying a nonzero Morse differential: two
    bottom points with one cancelled against the middle point."""
    spec = {"dim": 2, "nu": 0, "lambda": "0", "cM": None,
            "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 0},
                     {"label": "c", "index": 1}, {"label": "top", "index": 2}],
            "cap": {"1": [[0], [0]]},   # zero cap: only degree 1 has a target
            "primitiveOmega": False,
            "morseBoundary": {"1": [[1], [-1]]}}
    model = load_model(spec)
    tbl = homology_table(build_fc(model, degrees=(-3, 3)), range(-1, 2))
    assert str(tbl[-1]) == "Z"      # a, b with a - b killed by c
    assert str(tbl[0]) == "0"
    assert str(tbl[1]) == "Z"
    psi = cap_map(model, 2, build_fc(model, degrees=(-3, 3)))
    assert all(psi.at(d).is_zero() for d in range(-3, 4))


def test_custom_cap_validation():
    """A custom cap that fails to commute with the Morse differential is
    rejected."""
    spec = {"dim": 4, "nu": 0, "lambda": "0", "cM": None,
            "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                     {"label": "x", "index": 3}, {"label": "c", "index": 4}],
            "cap": {"1": [[1]]},     # x -> b, but d(b) = 2a while d(x) = 0
            "primitiveOmega": False,
            "morseBoundary": {"1": [[2]], "4": [[5]]}}
    model = load_model(spec)
    with pytest.raises(NotAChainMap):
        cap_map(model, 1, build_fc(model, degrees=(-4, 4)))
