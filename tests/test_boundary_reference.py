"""The full boundary and the explicit primitives against frozen references.

`parent_boundary_full`, `parent_boundary_full_chain` and
`parent_primitive_partial_sum` below are the implementations that the
current ones replaced, frozen as the reference.  On the generators that
`enumerate_generators` returns for k/l boxes, the current functions must
give the same dictionaries, and raise the same errors where the reference
raises.
"""

import random
from fractions import Fraction

import pytest

from rfhomology.basemodel import BaseModel, cp_model, point_model, surface_model
from rfhomology.errors import ConsecutiveIndexModel, UnstabilizedTruncation
from rfhomology.exactlin import IntMatrix
from rfhomology.rfh import (RFHGenerator, boundary_full, boundary_full_chain,
                            enumerate_generators, primitive_partial_sum)


def parent_require_index_gaps(model):
    if not model.index_gaps:
        raise ConsecutiveIndexModel(
            f"model {model.name} has critical points of consecutive Morse index")


def parent_boundary_full(gen, model, m):
    parent_require_index_gaps(model)
    if gen.hat:
        return {}
    # d0
    out = {RFHGenerator(gen.label, gen.morse_index, gen.cov + 1, gen.k, True): 1}
    # d2
    for tlab, tidx, s, c in model.cap_terms[gen.label]:
        t = RFHGenerator(tlab, tidx, gen.cov + m * model.nu * s, gen.k + s, True)
        out[t] = out.get(t, 0) + m * c
    return {g: c for g, c in out.items() if c != 0}


def parent_boundary_full_chain(chain, model, m):
    out = {}
    for g, c in chain.items():
        for t, ct in parent_boundary_full(g, model, m).items():
            out[t] = out.get(t, 0) + c * ct
    return {g: c for g, c in out.items() if c != 0}


def parent_cap_monomial(model, m):
    fwd, inv = {}, {}
    for src, _ in model.crit:
        terms = model.cap_terms[src]
        if len(terms) != 1 or terms[0][0] in inv:
            raise UnstabilizedTruncation(
                "explicit primitives need a permutation-pattern cap")
        tgt, _, s, c = terms[0]
        fwd[src] = (tgt, s, m * c)
        inv[tgt] = (src, s, m * c)
    return fwd, inv


def parent_primitive_partial_sum(model, m, target, n_terms, direction="lower"):
    parent_require_index_gaps(model)
    if not target.hat:
        raise ValueError("primitives are built for hat generators")
    fwd, inv = parent_cap_monomial(model, m)
    idx_of = model.index_of
    shift = m * model.nu
    x = {}
    need = (target, 1)
    for _ in range(n_terms):
        h, c = need
        if direction == "lower":
            p = RFHGenerator(h.label, h.morse_index, h.cov - 1, h.k, False)
            x[p] = x.get(p, 0) + c
            t, s, cc = fwd[p.label]
            extra = RFHGenerator(t, idx_of[t], p.cov + shift * s, p.k + s, True)
            need = (extra, -c * cc)
        elif direction == "upper":
            j, s, cc = inv[h.label]
            if abs(cc) != 1:
                raise UnstabilizedTruncation(
                    "upper-direction primitives need unit cap coefficients (m = 1)")
            p = RFHGenerator(j, idx_of[j], h.cov - shift * s, h.k - s, False)
            x[p] = x.get(p, 0) + c * cc
            extra = RFHGenerator(p.label, p.morse_index, p.cov + 1, p.k, True)
            need = (extra, -c * cc)
        else:
            raise ValueError(f"unknown direction {direction!r}")
    return x


def custom_cap_model():
    """A CP^2-like base with two critical points of index 2 and a cap with
    several terms per source: c -> b + 2b', b -> a, b' -> -a, a -> 2t c."""
    mats = {2: IntMatrix.from_rows([[1], [2]], cols=1),
            0: IntMatrix.from_rows([[1, -1]], cols=2),
            -2: IntMatrix.from_rows([[2]], cols=1)}
    return BaseModel(name="custom", dim=4, nu=1, lam=Fraction(3), c_min=3,
                     crit=(("a", 0), ("b", 2), ("b'", 2), ("c", 4)),
                     cap={"degree_matrices": mats}, primitive_omega=False)


MODELS = [cp_model(1), cp_model(2), cp_model(3), point_model(), custom_cap_model()]


def assert_generators(gens):
    """Each element is an `RFHGenerator` and prints as one: a named tuple
    equals the plain tuple of its fields, so `==` alone would not tell."""
    for g in gens:
        assert type(g) is RFHGenerator, (type(g), g)
        label, _, cov, k, hat = g
        assert str(g) == f"{'^' if hat else 'v'}({label}, l={cov}, k={k})", g


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnstabilizedTruncation as exc:
        return str(exc)


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.name)
def test_full_boundary_matches_reference(model):
    rng = random.Random(20261019)
    checked = 0
    for m in (1, 2, 3):
        gens = enumerate_generators(model, m, Fraction(1), k_bound=2, l_bound=4)
        for g in gens:
            d = boundary_full(g, model, m)
            assert d == parent_boundary_full(g, model, m), (model.name, m, g)
            assert_generators(d)
            assert boundary_full_chain(d, model, m) \
                == parent_boundary_full_chain(d, model, m) == {}, (model.name, m, g)
        chain = {g: rng.choice((-3, -1, 1, 2)) for g in rng.sample(gens, len(gens) // 3)}
        dchain = boundary_full_chain(chain, model, m)
        assert dchain == parent_boundary_full_chain(chain, model, m), (model.name, m)
        assert_generators(dchain)
        for g in gens:
            if not g.hat:
                continue
            for direction in ("lower", "upper"):
                for N in range(1, 7):
                    x = outcome(primitive_partial_sum, model, m, g, N, direction)
                    assert x == outcome(parent_primitive_partial_sum, model, m, g, N,
                                        direction), (model.name, m, g, N, direction)
                    if isinstance(x, dict):
                        dx = boundary_full_chain(x, model, m)
                        assert dx == parent_boundary_full_chain(x, model, m)
                        assert_generators(x)
                        assert_generators(dx)
                        checked += 1
    # primitives exist on every permutation-pattern cap (the cp:n caps)
    assert checked > 0 or model.name in ("point", "custom")


def test_full_boundary_needs_index_gaps():
    """surface:1 has critical points of index 0, 1 and 2.  A generator, or
    any non-empty chain, even one of hats only, raises; an empty chain
    has the empty boundary."""
    model = surface_model(1)
    g = RFHGenerator("bot", 0, 0, 0, False)
    for fn in (boundary_full, parent_boundary_full):
        with pytest.raises(ConsecutiveIndexModel):
            fn(g, model, 2)
    for fn in (boundary_full_chain, parent_boundary_full_chain):
        assert fn({}, model, 2) == {}
        with pytest.raises(ConsecutiveIndexModel):
            fn({g._replace(hat=True): 1}, model, 2)


def test_chain_boundary_drops_cancelled_terms():
    """On `custom_cap_model` b -> a and b' -> -a, so the checks b and b' at
    the same (l, k) have d2 terms that cancel: only their d0 terms are
    left, in the reference's order, and no zero coefficient."""
    model = custom_cap_model()
    for m in (1, 2, 3):
        for cov, k in ((0, 0), (-2, 1), (5, -3)):
            chain = {RFHGenerator("b", 2, cov, k, False): 1,
                     RFHGenerator("b'", 2, cov, k, False): 1}
            got = boundary_full_chain(chain, model, m)
            want = parent_boundary_full_chain(chain, model, m)
            assert list(got.items()) == list(want.items()), (m, cov, k)
            assert got == {RFHGenerator("b", 2, cov + 1, k, True): 1,
                           RFHGenerator("b'", 2, cov + 1, k, True): 1}
            assert 0 not in got.values()
            assert_generators(got)
