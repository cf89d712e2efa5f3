"""The assembly of the base complex, its cap and its cone against frozen
references.

`parent_matrix_from_terms`, `parent_cone_boundary`, `parent_cap_terms` and
`parent_orderability_report` below are the implementations that the
current ones replaced, frozen as the reference: the assembler that copied
every column, the cone boundary that copied every column, the cap check
with one `Counter` per critical point, and the orderability report that
read every degree of its window.  Over two periods of degrees at m = 1..3
the base boundaries, the caps and the cone boundaries of `_SectorData`
must equal theirs, store no zero, and raise the same errors on bad caps;
the orderability verdicts must be the same.

The last test pins the proof that the engine relies on: the cone of a
model's cap squares to zero, since the model checked its Morse differential
and its cap when it was built, and `LazyHomology` no longer checks it.
"""

import importlib.util
import os
import random
import sys
from collections import Counter

import pytest

from rfhomology.basemodel import cp_model, load_model, point_model, surface_model
from rfhomology.chaincplx import LazyHomology, _cone_boundary, matrix_from_terms
from rfhomology.errors import NotAChainMap, UnsupportedModel
from rfhomology.exactlin import IntMatrix, _Elimination, presentation_from_relations
from rfhomology.rfh import _SectorData, orderability_report
from rfhomology.selftest import random_complex_and_map
from test_basemodel import NOT_A_CHAIN_MAP_CAP
from test_boundary_reference import custom_cap_model
from test_rfh import (MONOTONE_TORSION_MODEL, TORSION_MODEL, nonperfect_surface,
                      random_custom_cap_model)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def parent_matrix_from_terms(source, target, terms):
    row_of = {t: i for i, t in enumerate(target)}
    columns = []
    for g in source:
        col = {}
        for t, c in terms(g):
            i = row_of.get(t)
            if i is not None:
                col[i] = col.get(i, 0) + c
        columns.append({i: c for i, c in col.items() if c})
    return IntMatrix(len(target), len(source), tuple(columns))


def parent_cone_boundary(d_below, psi_d, d_d):
    off = d_below.rows
    hats = tuple({i: -x for i, x in col.items()} for col in d_below.columns)
    checks = tuple({**top, **{off + i: x for i, x in bottom.items()}}
                   for top, bottom in zip(psi_d.columns, d_d.columns))
    return IntMatrix(off + d_d.rows, d_below.cols + d_d.cols, hats + checks)


def parent_cap_terms(model):
    """`BaseModel.cap_terms` as it was, its chain-map check on one Counter
    per critical point."""
    terms = {src: [] for src, _ in model.crit}
    if model.cap == "cpn":
        for i, (src, _) in enumerate(model.crit):
            tgt, idx = model.crit[i - 1]
            terms[src].append((tgt, idx, int(i == 0), 1))
    elif model.cap == "surface":
        terms["top"].append(("bot", model.index_of["bot"], 0, 1))
    elif isinstance(model.cap, dict):
        mats = model.cap["degree_matrices"]
        for d in dict.fromkeys(model.fh_degree(idx, 0) for _, idx in model.crit):
            src = model.generators_in_degree(d)
            tgt = model.generators_in_degree(d - 2)
            if not tgt:
                continue
            if d not in mats:
                raise NotAChainMap(f"custom cap misses degree {d}")
            M = mats[d]
            if (M.rows, M.cols) != (len(tgt), len(src)):
                raise NotAChainMap(f"custom cap at degree {d} has the wrong shape")
            for (label, k), col in zip(src, M.columns):
                if k != 0:
                    continue
                for i, c in sorted(col.items()):
                    tl, tk = tgt[i]
                    terms[label].append((tl, model.index_of[tl], tk, c))
    elif model.cap != "zero":
        raise UnsupportedModel(f"unknown cap spec {model.cap!r}")
    for src, idx in model.crit:
        for tgt, tidx, s, _ in terms[src]:
            if model.fh_degree(tidx, s) != model.fh_degree(idx, 0) - 2:
                raise UnsupportedModel(f"cap term {src} -> {tgt} (sphere shift {s}) "
                                       "does not lower the degree by 2")
    morse = model.morse_terms
    for src, idx in model.crit:
        diff = Counter()
        for tgt, _, s, c in terms[src]:
            for u, e in morse[tgt]:
                diff[u, s] += c * e
        for tgt, e in morse[src]:
            for u, _, s, c in terms[tgt]:
                diff[u, s] -= e * c
        if any(diff.values()):
            raise NotAChainMap("cap does not commute with boundaries at degree "
                               f"{model.fh_degree(idx, 0)}")
    return {src: tuple(ts) for src, ts in terms.items()}


def parent_boundary_at(model, degree):
    morse = model.morse_terms
    return parent_matrix_from_terms(
        model.generators_in_degree(degree), model.generators_in_degree(degree - 1),
        lambda g: [((t, g[1]), c) for t, c in morse[g[0]]])


def parent_cap_at(model, degree, m):
    caps = parent_cap_terms(model)
    return parent_matrix_from_terms(
        model.generators_in_degree(degree), model.generators_in_degree(degree - 2),
        lambda g: [((t, g[1] + s), m * c) for t, _, s, c in caps[g[0]]])


def parent_orderability_report(model, m):
    dlo, dhi = -model.dim - 2, model.dim + 2
    sect = _SectorData(model, m)
    nonzero = any(not sect.cone.group(d).is_zero() for d in range(dlo, dhi + 1))

    def onto(e):
        tgt = sect.basis(e - 2)
        return tgt.presentation.is_zero() or presentation_from_relations(
            tgt.cycles.cols, sect.psi_induced(e).hstack(tgt.relations)).is_zero()
    surjective = all(onto(e) for e in range(dlo, dhi + 1))
    return {
        "rfh_w0_nonzero": nonzero,
        "cap_surjective": surjective,
        "c1_primitive": m == 1 and model.primitive_omega,
        "orderable": True if nonzero else "unknown",
        "translated_points": True if nonzero else "unknown",
    }


# a -> b -> x -> y by Morse index 0..3 of -f, d b = 3a and d y = 3x, and the cap
# y -> b, x -> a: d(cap y) = 3a = cap(d y), so the check's two sums cancel
CANCELLING_CAP = {"name": "cancelling", "dim": 4, "nu": 0, "lambda": "0", "cM": None,
                  "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                           {"label": "x", "index": 2}, {"label": "y", "index": 3}],
                  "cap": {"1": [[1]], "0": [[1]]}, "primitiveOmega": False,
                  "morseBoundary": {"1": [[3]], "3": [[3]]}}

# a monotone base with 2*lambda*nu = dim whose class of degree -2 mixes the
# Morse indices of a (0) and z (4): d b = 2a at degree -1 is [[2], [0]] on
# (a, 0), (z, 1), not the stored 1 x 1 block of index 1
MIXED_CLASS = {"name": "mixed", "dim": 4, "nu": 1, "lambda": "2", "cM": 2,
               "crit": [{"label": "a", "index": 0}, {"label": "b", "index": 1},
                        {"label": "z", "index": 4}],
               "cap": "builtin:zero", "primitiveOmega": False, "morseBoundary": {"1": [[2]]}}

# each raises at its cap, keyed by the test it comes from or by what is wrong
BAD_CAPS = {
    "test_custom_cap_validation": NOT_A_CHAIN_MAP_CAP,
    "test_delta_injectivity_raises_on_a_cap_that_is_not_a_chain_map":
        {**MONOTONE_TORSION_MODEL, "cap": {"-1": [[1]], "1": [[0]]}},
    "cap misses a degree": {**TORSION_MODEL, "crit": TORSION_MODEL["crit"][:2]
                            + TORSION_MODEL["crit"][3:], "morseBoundary": None,
                            "cap": {"0": [[1]]}},
    "cap of the wrong shape": {**CANCELLING_CAP, "cap": {"1": [[1, 2]], "0": [[1]]}},
    "cpn cap on an aspherical base": {
        "dim": 4, "nu": 0, "lambda": "0", "cM": None, "cap": "builtin:cpn",
        "crit": [{"label": f"q{i}", "index": 2 * i} for i in range(3)]},
    "cancelling cap with one sign flipped": {**CANCELLING_CAP, "cap": {"1": [[-1]], "0": [[1]]}},
}


def models():
    rng = random.Random(34)
    out = [cp_model(n) for n in (1, 2, 3, 4)] + [surface_model(g) for g in (1, 2, 3)]
    out += [point_model(), custom_cap_model(), load_model(CANCELLING_CAP)]
    out += [load_model(os.path.join(GOLDEN, name))
            for name in ("relations_model.json", "paired_model.json")]
    out += [load_model(TORSION_MODEL), load_model(MONOTONE_TORSION_MODEL),
            load_model(MIXED_CLASS)]
    out += [nonperfect_surface(g, random.Random(g)) for g in range(1, 7)]
    out += [random_custom_cap_model(rng, kind)
            for kind in ("aspherical", "monotone", "permutation") * 20]
    return out


def degrees(model):
    """Two periods of a monotone model; every degree of an aspherical one
    that a generator reaches, with three on each side."""
    keys = model.degree_classes
    if model.aspherical:
        return range(min(keys) - 3, max(keys) + 4)
    period = abs(2 * model.lambda_nu)
    return range(-period, period + 1)


def stores_no_zero(M):
    return all(0 not in col.values() for col in M.columns)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NotAChainMap, UnsupportedModel) as exc:
        return type(exc).__name__, str(exc)


def test_base_cap_and_cone_match_reference():
    """`boundary_at`, `cap_at` and the cone boundary of `_SectorData` equal
    the reference's at every degree of `degrees`, and store no zero."""
    checked = Counter()
    for model in models():
        assert model.cap_terms == parent_cap_terms(model), model.name
        for m in (1, 2, 3):
            cone = _SectorData(model, m).cone
            for d in degrees(model):
                below, d_d = parent_boundary_at(model, d - 1), parent_boundary_at(model, d)
                psi = parent_cap_at(model, d, m)
                want = parent_cone_boundary(below, psi, d_d)
                got = model.boundary_at(d), model.cap_at(d, m), cone.boundary(d)
                assert got == (d_d, psi, want), (model.name, m, d)
                assert all(map(stores_no_zero, got)), (model.name, m, d)
                checked["nonzero cone boundaries"] += not want.is_zero()
                checked["nonzero caps"] += not psi.is_zero()
                checked["nonzero base boundaries"] += not d_d.is_zero()
    assert min(checked.values()) > 40, checked


def test_boundary_is_the_stored_block_on_a_class_of_one_index():
    """Where the generators of d and d - 1 are the points of index i and
    i - 1, `boundary_at(d)` is the model's block d_i itself; where the class
    of d - 1 mixes indices, it is assembled on that class."""
    model = nonperfect_surface(3, random.Random(3))
    assert model.boundary_at(1) is model.morse_boundary[2]
    mixed = load_model(MIXED_CLASS)
    assert mixed.class_index == {2: None, 3: 1}
    assert mixed.generators_in_degree(-2) == [("a", 0), ("z", 1)]
    assert mixed.boundary_at(-1) == IntMatrix.from_rows([[2], [0]])


def test_cap_check_accepts_a_cap_that_commutes_by_cancellation():
    """On CANCELLING_CAP both sums of the check, d . cap and cap . d, are
    3a at y: the cap commutes, and its terms are read."""
    model = load_model(CANCELLING_CAP)
    assert model.cap_terms == {"a": (), "b": (), "x": (("a", 0, 0, 1),),
                               "y": (("b", 1, 0, 1),)}
    assert model.cap_at(1, 2) == IntMatrix.from_rows([[2]])


@pytest.mark.parametrize("spec", list(BAD_CAPS.values()), ids=list(BAD_CAPS))
def test_bad_caps_raise_as_the_reference(spec):
    model = load_model(spec)
    want = outcome(parent_cap_terms, model)
    assert isinstance(want, tuple), want
    assert outcome(lambda: model.cap_terms) == want
    assert outcome(model.cap_at, max(model.degree_classes), 1) == want
    assert outcome(orderability_report, model, 1) == want


def test_matrix_from_terms_matches_reference_on_random_terms():
    """Terms that repeat a target, cancel to 0, carry a 0 or leave the
    target: the same matrix as the reference, no zero stored, and the
    interned zero matrix when the source or the target is empty."""
    rng = random.Random(3)
    cancelled = 0
    for _ in range(400):
        source = rng.sample(range(12), rng.randint(0, 6))
        target = rng.sample(range(12), rng.randint(0, 6))
        terms = {g: [(rng.randrange(14), rng.choice((-2, -1, 0, 1, 1, 2)))
                     for _ in range(rng.randint(0, 5))] for g in source}
        for g in source[::2]:
            free = [t for t in target if t not in dict(terms[g])]
            if free:
                terms[g] += [(free[0], 3), (free[0], -3)]
                cancelled += 1
        got = matrix_from_terms(source, target, terms.__getitem__)
        assert got == parent_matrix_from_terms(source, target, terms.__getitem__)
        assert stores_no_zero(got), terms
        if not (source and target):
            assert got is IntMatrix.zero(len(target), len(source))
    assert cancelled > 200, cancelled


def test_cone_boundary_matches_reference_and_leaves_its_blocks_alone():
    """On seeded random complexes with a degree -2 map, and with psi the
    interned identity or zero: the reference's matrix, and eliminating it
    leaves the blocks whose columns it reuses as they were."""
    rng = random.Random(9)
    cases = []
    for _ in range(40):
        C, f = random_complex_and_map(rng)
        lo, hi = C.degrees
        cases += [(C.boundary_at(d - 1), f.at(d), C.boundary_at(d)) for d in range(lo, hi + 1)]
    for n in (0, 1, 3):
        for d_d in (IntMatrix.zero(2, n), IntMatrix.from_rows([[1] * n, [0] * n], cols=n)):
            cases += [(IntMatrix.zero(n, 2), IntMatrix.identity(n), d_d),
                      (IntMatrix.from_rows([[1, -1]] * n, cols=2), IntMatrix.zero(n, n), d_d)]
    for blocks in cases:
        saved = [IntMatrix(M.rows, M.cols, tuple(map(dict, M.columns))) for M in blocks]
        got = _cone_boundary(*blocks)
        assert got == parent_cone_boundary(*blocks), blocks
        assert stores_no_zero(got)
        _Elimination(got).kernel()
        assert list(blocks) == saved


def test_orderability_matches_reference():
    """Each residue of the window, or each degree a generator reaches, once:
    the verdicts of reading every degree of the window."""
    for model in models():
        for m in (1, 2, 3):
            assert orderability_report(model, m) == parent_orderability_report(model, m), \
                (model.name, m)


def test_orderability_reads_one_degree_per_reachable_residue(monkeypatch):
    """cp:2 at m = 1 (period 6, RFH^w0 = 0) reads each residue of its
    window -6..6 once; surface:1 reads no degree outside -1..3, the degrees
    of its critical points -1, 0, 1 and the two above."""
    read = []
    group = LazyHomology.group

    def counted(self, d):
        if type(self) is LazyHomology:      # the cone, not the base
            read.append(d)
        return group(self, d)
    monkeypatch.setattr(LazyHomology, "group", counted)
    assert orderability_report(cp_model(2), 1)["rfh_w0_nonzero"] is False
    assert sorted(d % 6 for d in read) == list(range(6)), read
    read.clear()
    orderability_report(surface_model(1), 1)
    assert read and set(read) <= set(range(-1, 4)), read


def bench_workloads():
    """The benchmark's `bench/workloads.py`, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)      # its dataclass looks itself up there
    return workloads


def test_model_cones_square_to_zero():
    """The cone of `_SectorData` at m = 1..3 has d . d = 0 at every residue
    of a monotone model and at every degree around the support of an
    aspherical one (`degrees`): on the zoo, MIXED_CLASS, the two golden
    model files, the benchmark's non-perfect surfaces and seeded custom
    caps.  Enough of the products have two nonzero factors to mean
    something."""
    rng = random.Random(36)
    zoo = [cp_model(n) for n in (1, 2, 3, 4)] + [surface_model(g) for g in (1, 2, 3, 4)]
    zoo += [point_model(), load_model(MIXED_CLASS)]
    zoo += [load_model(os.path.join(GOLDEN, name))
            for name in ("relations_model.json", "paired_model.json")]
    nonperfect = bench_workloads().nonperfect_surface
    zoo += [load_model(nonperfect(g, random.Random(g))) for g in (1, 2, 3, 4)]
    zoo += [random_custom_cap_model(rng, kind)
            for kind in ("aspherical", "monotone", "permutation") * 4]
    both_nonzero = 0
    for model in zoo:
        for m in (1, 2, 3):
            cone = _SectorData(model, m).cone
            for d in degrees(model):
                below, above = cone.boundary(d), cone.boundary(d + 1)
                assert (below @ above).is_zero(), (model.name, m, d)
                both_nonzero += not (below.is_zero() or above.is_zero())
    assert both_nonzero > 20, both_nonzero      # 30 of them
