import json
import warnings
from fractions import Fraction

import pytest

from rfhomology.basemodel import (BaseModel, cp_model, load_model, model_from_spec,
                                  point_model, surface_model)
from rfhomology.errors import DegreeOutOfRange, NotAChainMap, UnsupportedModel
from rfhomology.exactlin import IntMatrix, invariant_factors, presentation_from_relations
from rfhomology.oracles import build_fc, cap_map
from rfhomology.rfh import orderability_report
from test_chaincplx import groups


def test_build_fc_torus_and_point():
    fc = build_fc(surface_model(1), degrees=(-1, 1))
    assert [fc.rank(d) for d in (-1, 0, 1)] == [1, 2, 1]
    assert all(M.is_zero() for M in fc.boundary.values())
    fcp = build_fc(point_model(), degrees=(-2, 2))
    assert [fcp.rank(d) for d in range(-2, 3)] == [0, 0, 1, 0, 0]


def test_build_fc_needs_constraints():
    with pytest.raises(DegreeOutOfRange, match=r"empty degree range \(2, 1\)"):
        build_fc(cp_model(1), degrees=(2, 1))


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
    psi = cap_map(model, m, fc=fc)      # a ChainMap: strict commutation, checked when built
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

    def shifted(gen):
        name, k = gen
        return (name, k + 1)

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
                    assert len(invariant_factors(M)) == M.cols
                if M.rows:
                    assert not presentation_from_relations(M.rows, M).is_zero()


def test_cap_terms_and_matrix_of_builtin_caps():
    """cp:n's cap q_i -> q_{i-1} closes the cycle q_0 -> t q_n; the surface
    cap sends top to bot; `cap_at` is m times the pattern in each degree,
    the same one period (2*lambda*nu) up, and has no column or no row where
    the degree or the one 2 below holds no generator."""
    cp2 = cp_model(2)
    assert cp2.cap_terms == {"q0": (("q2", 4, 1, 1),),
                             "q1": (("q0", 0, 0, 1),),
                             "q2": (("q1", 2, 0, 1),)}
    # q0, q1, q2 sit in degrees -2, 0, 2, and q0 -> t q2 lands in degree -4
    for e in (-2, 0, 2, 4, 6, 8):
        assert cp2.cap_at(e, 3).to_lists() == [[3]]
    assert all(cp2.cap_at(e, 3) == IntMatrix.zero(0, 0) for e in (-1, 1, 3))
    surface = surface_model(1)
    assert {src: ts for src, ts in surface.cap_terms.items() if ts} == \
        {"top": (("bot", 0, 0, 1),)}
    # bot, a1 and a2, top sit in degrees -1, 0, 1
    assert surface.cap_at(1, 2).to_lists() == [[2]]
    assert surface.cap_at(0, 2) == IntMatrix.zero(0, 2)
    assert surface.cap_at(-1, 2) == IntMatrix.zero(0, 1)
    assert surface.cap_at(3, 2) == IntMatrix.zero(1, 0)
    assert point_model().cap_at(0, 5) == IntMatrix.zero(0, 1)


def test_primitivity():
    """c_1 of the bundle is primitive iff m = 1 and [omega] is primitive."""
    assert orderability_report(cp_model(2), 2)["c1_primitive"] is False
    assert orderability_report(cp_model(2), 1)["c1_primitive"] is True
    assert orderability_report(point_model(), 1)["c1_primitive"] is False


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


def test_zero_lambda_nu_is_rejected():
    """lambda*nu = 0 with nu >= 1 leaves the sphere classes ungraded.  In
    dimension 0 it meets the bound lambda*nu <= -dim/2 = 0, so it needs its
    own check."""
    spec = {"dim": 0, "nu": 1, "lambda": "0", "cM": 0,
            "crit": [{"label": "pt", "index": 0}], "cap": "builtin:zero"}
    with pytest.raises(UnsupportedModel, match=r"lambda\*nu = 0 with nu = 1"):
        load_model(spec)


def test_model_file_roundtrip(tmp_path):
    spec = {"dim": 4, "nu": 1, "lambda": "3", "cM": 3,
            "crit": [{"label": f"q{i}", "index": 2 * i} for i in range(3)],
            "cap": "builtin:cpn", "primitiveOmega": True}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    model = load_model(str(path))
    ref = cp_model(2)
    assert build_fc(model, degrees=(-6, 6)).basis == build_fc(ref, degrees=(-6, 6)).basis
    assert model.cap_terms == ref.cap_terms
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
    tbl = groups(build_fc(model, degrees=(-3, 3)), range(-1, 2))
    assert str(tbl[-1]) == "Z"      # a, b with a - b killed by c
    assert str(tbl[0]) == "0"
    assert str(tbl[1]) == "Z"
    psi = cap_map(model, 2, build_fc(model, degrees=(-3, 3)))
    assert all(psi.at(d).is_zero() for d in range(-3, 4))


NOT_A_CHAIN_MAP_CAP = {"dim": 4, "nu": 0, "lambda": "0", "cM": None,
                       "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                                {"label": "x", "index": 3}, {"label": "c", "index": 4}],
                       "cap": {"1": [[1]]},     # x -> b, but d(b) = 2a while d(x) = 0
                       "primitiveOmega": False,
                       "morseBoundary": {"1": [[2]], "4": [[5]]}}


def test_custom_cap_validation():
    """A custom cap that fails to commute with the Morse differential is
    rejected."""
    model = load_model(NOT_A_CHAIN_MAP_CAP)
    with pytest.raises(NotAChainMap, match="does not commute with boundaries at degree 1$"):
        cap_map(model, 1, build_fc(model, degrees=(-4, 4)))


@pytest.mark.parametrize("cap,message", [
    ({"0": [[1]]}, "custom cap misses degree 1"),
    ({"1": [[1, 2]]}, "custom cap at degree 1 has the wrong shape"),
])
def test_custom_cap_input_checks(cap, message):
    """Every degree whose generators have cap targets needs a custom cap
    matrix with one row per target and one column per source generator."""
    spec = {"dim": 2, "nu": 0, "lambda": "0", "cM": None,
            "crit": [{"label": "bot", "index": 0}, {"label": "e", "index": 1},
                     {"label": "top", "index": 2}],
            "cap": cap, "primitiveOmega": False}
    model = load_model(spec)
    with pytest.raises(NotAChainMap, match=message):
        model.cap_terms
    with pytest.raises(NotAChainMap, match=message):
        model.cap_at(1, 1)
