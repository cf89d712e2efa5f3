"""The benchmark's workloads: seeded inputs, operations and their oracles.

Every builder runs during set-up.  It draws all random inputs from the
`random.Random` it is given, so the same seed gives the same inputs, and
returns a list of operations.  An operation is one engine call (or one
`cli.main` call) together with its correctness check; it returns True when
the answer matches its oracle.  Expected answers are computed here, before
timing starts, from sources independent of the call they check; checks on
the answer itself (d.d = 0, primitive residuals) run inside the operation.

The engine is reached only through module attributes (`E.rfh.gysin`, not a
copied name), so that the tracer's rebinding sees every top-level call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], bool]


# ---------------------------------------------------------------------------
# Seeded models
# ---------------------------------------------------------------------------

def nonperfect_surface(g: int, rng) -> dict:
    """Model file of surface:g with a non-perfect Morse function: g extra
    cancelling pairs (c_i of index 1, b_i of index 2) with d b_i = +-c_i
    plus one seeded term on a base loop a_j.  The image of d is a direct
    summand, so the homology, and every invariant built on it, equals that
    of the perfect model."""
    ones = [f"a{i}" for i in range(1, 2 * g + 1)] + [f"c{i}" for i in range(1, g + 1)]
    twos = [f"b{i}" for i in range(1, g + 1)] + ["top"]
    rng.shuffle(ones)
    rng.shuffle(twos)
    rows = [[0] * len(twos) for _ in ones]
    for i in range(1, g + 1):
        col = twos.index(f"b{i}")
        rows[ones.index(f"c{i}")][col] = rng.choice((1, -1))
        rows[ones.index(f"a{rng.randint(1, 2 * g)}")][col] = rng.choice((-2, -1, 1, 2))
    crit = ([{"label": "bot", "index": 0}]
            + [{"label": lab, "index": 1} for lab in ones]
            + [{"label": lab, "index": 2} for lab in twos])
    return {"name": f"surface:{g}+{g}pairs", "dim": 2, "nu": 0, "lambda": "0",
            "cM": None, "crit": crit, "cap": "builtin:surface",
            "primitiveOmega": True, "morseBoundary": {"2": rows}}


def _cp_boundary(n: int, m: int):
    """The exact regime-boundary radius m / (lambda - m) of cp:n, lambda =
    n + 1, or None when m >= lambda (no finite regime)."""
    lam = n + 1
    return Fraction(m, lam - m) if m < lam else None


def _regime_taus(rng, n: int, m: int) -> list[tuple[str, Fraction]]:
    """One seeded radius per regime that cp:n has at this m: strictly below
    the boundary, exactly on it, strictly above it."""
    star = _cp_boundary(n, m)
    if star is None:
        return [("lower", Fraction(rng.randint(1, 60), rng.randint(1, 12))),
                ("lower", Fraction(rng.randint(1, 60), rng.randint(1, 12)))]
    return [("lower", star * Fraction(rng.randint(1, 9), 10)),
            ("finite", star),
            ("upper", star * (1 + Fraction(rng.randint(1, 30), 10)))]


# ---------------------------------------------------------------------------
# w0-ladder
# ---------------------------------------------------------------------------

def w0_ladder(E, rng, workdir: str, tiny: bool) -> list[Op]:
    """rfh_w0_table on a surface:g ladder, each rung as the perfect model and
    as a non-perfect Morse model.  A few large, nearly empty matrices per
    operation: exactlin elimination and its dense solve dominate, and the
    cost grows about cubically in g.  m = 1 joins m = 2, 3 so that a pass has
    more than a hundred operations for its 90th percentile."""
    genera = (1, 2) if tiny else tuple(range(1, 18))
    ops = []
    Z = E.exactlin.ZModulePresentation
    for g in genera:
        for m in (1, 2, 3):
            # the circle bundle of Euler number -m over a genus-g surface has
            # H_0..H_3 = Z, Z^2g + Z_m, Z^2g, Z; the table is that shifted by
            # one degree.  The cellular oracle must agree, so that a fault in
            # exactlin cannot pass by corrupting the oracle and the answer alike.
            want = {-1: Z(1), 0: Z(2 * g, (m,) if m > 1 else ()), 1: Z(2 * g), 2: Z(1)}
            cellular = E.selftest.circle_bundle_homology(g, m)
            want_ok = all(cellular[d + 1] == want[d] for d in want)
            tau = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            spec = nonperfect_surface(g, rng)

            def perfect(g=g, m=m, tau=tau, want=want, want_ok=want_ok):
                model = E.basemodel.surface_model(g)
                return E.rfh.rfh_w0_table(model, m, tau, (-1, 2)) == want and want_ok

            def nonperfect(spec=spec, m=m, tau=tau, want=want, want_ok=want_ok):
                model = E.basemodel.load_model(spec)
                return E.rfh.rfh_w0_table(model, m, tau, (-1, 2)) == want and want_ok

            ops.append(Op(f"surface:{g} m={m}", perfect))
            ops.append(Op(f"{spec['name']} m={m}", nonperfect))
    return ops


# ---------------------------------------------------------------------------
# gysin-exact
# ---------------------------------------------------------------------------

def gysin_exact(E, rng, workdir: str, tiny: bool) -> list[Op]:
    """Gysin sequences of the model zoo and a small surface ladder, and the
    cone sequences of seeded random chain maps, each checked exact.  Tens of
    thousands of tiny Smith forms per pass, most of them repeats or zero:
    the workload where per-call overhead and caching show."""
    zoo = [(E.basemodel.cp_model(n), m, (-5, 5))
           for n in ((1, 2) if tiny else (1, 2, 3))
           for m in ((1, 2) if tiny else range(1, 6))]
    zoo += [(E.basemodel.surface_model(g), m, (-1, 2))
            for g in ((1,) if tiny else (1, 2, 4, 8))
            for m in ((2,) if tiny else (1, 2, 3))]
    ops = []
    for model, m, degrees in zoo:
        def gysin_op(model=model, m=m, degrees=degrees):
            return E.chaincplx.verify_exactness(E.rfh.gysin(model, m, degrees)).ok
        ops.append(Op(f"gysin {model.name} m={m}", gysin_op))
    # random_complex_and_map itself calls solve_matrix: set-up only
    for i in range(8 if tiny else 200):
        _, phi = E.selftest.random_complex_and_map(rng)

        def cone_op(phi=phi):
            return E.chaincplx.verify_exactness(E.chaincplx.cone_les(phi)).ok
        ops.append(Op(f"random cone #{i}", cone_op))
    return ops


# ---------------------------------------------------------------------------
# full-rfh
# ---------------------------------------------------------------------------

def _cp_expected(n: int, m: int, regime: str, field: bool, degrees) -> dict:
    """The regime table of cp:n (criteria 2 and 3 for n = 2).  Below the
    boundary, and whenever m >= lambda, everything vanishes.  Otherwise the
    nonzero cells are the degrees d with d + 1 a base-homology degree;
    cp:n generators sit in degrees congruent to n mod 2, so d = n + 1 mod 2.
    At the boundary the cell is Z for m = 1 and Q~_m otherwise (a line over
    F_p); above it 0 for m = 1 and Q_m otherwise (0 over F_p)."""
    if regime == "lower":
        cell = "0"
    elif regime == "finite":
        cell = ({"free": 1, "torsion": []} if field or m == 1 else {"QmTilde": m})
    else:
        cell = "0" if field or m == 1 else {"Qm": m}
    lo, hi = degrees
    return {d: (cell if (d - n - 1) % 2 == 0 else "0") for d in range(lo, hi + 1)}


def _rfh_full_op(E, model_arg: str, m: int, tau: Fraction, degrees, coeff: str,
                 want: dict) -> Callable[[], bool]:
    argv = ["rfh-full", "--model", model_arg, "--m", str(m), "--tau", str(tau),
            "--degrees", f"{degrees[0]}..{degrees[1]}", "--coeff", coeff,
            "--format", "json"]

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = E.cli.main(argv)
        if code != 0:
            return False
        table = json.loads(buf.getvalue())["table"]
        return {c["degree"]: c["group"] for c in table} == want
    return op


def full_rfh(E, rng, workdir: str, tiny: bool) -> list[Op]:
    """`rfh rfh-full --format json` through cli.main on cp:n x m x tau in
    every regime (boundary radii exact), z and fp:p coefficients, perfect
    and non-perfect surface models; plus delta_injectivity on growing
    truncations.  Exercises the id + cap-shift assembly, build_fc, cap_map,
    novikov and the CLI."""
    ops = []
    p = rng.choice((5, 7, 11))            # prime to every m used below
    lo = rng.randint(-7, -3)
    degrees = (lo, lo + 10)
    for n in ((2,) if tiny else (1, 2, 3)):
        for m in range(1, (3 if tiny else n + 3)):
            for regime, tau in _regime_taus(rng, n, m):
                for coeff in ("z", f"fp:{p}"):
                    want = _cp_expected(n, m, regime, coeff != "z", degrees)
                    ops.append(Op(f"rfh-full cp:{n} m={m} tau={tau} {coeff}",
                                  _rfh_full_op(E, f"cp:{n}", m, tau, degrees, coeff, want)))
    # an aspherical base has finite sums only and a nilpotent cap-shift, so
    # id + cap-shift is invertible and every cell vanishes, for the perfect
    # and the non-perfect Morse model alike
    zero = {d: "0" for d in range(degrees[0], degrees[1] + 1)}
    for g in ((1,) if tiny else (1, 2, 3, 4)):
        path = os.path.join(workdir, f"surface{g}.json")
        with open(path, "w") as fh:
            json.dump(nonperfect_surface(g, rng), fh)
        for m in ((2,) if tiny else (1, 2, 3)):
            tau = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            for coeff in ("z", f"fp:{p}"):
                for model_arg in (f"surface:{g}", f"file:{path}"):
                    ops.append(Op(f"rfh-full {model_arg} m={m} {coeff}",
                                  _rfh_full_op(E, model_arg, m, tau, degrees, coeff, zero)))
    cp2 = E.basemodel.cp_model(2)
    cases = [(m, tau) for m in (1, 2, 3) for _, tau in _regime_taus(rng, 2, m)]
    k_ranges = (1, 2) if tiny else (2, 4, 6, 8, 10, 12, 14, 16)
    for i, k_range in enumerate(k_ranges):
        for m, tau in (cases[(2 * i) % len(cases)], cases[(2 * i + 1) % len(cases)]):
            def delta_op(m=m, tau=tau, k_range=k_range):
                return E.rfh.delta_injectivity(cp2, m, tau, k_range, (-6, 6))["all"] is True
            ops.append(Op(f"delta_injectivity m={m} tau={tau} k={k_range}", delta_op))
    return ops


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _dd_zero(E, model, m: int, gens) -> bool:
    bf, chain = E.rfh.boundary_full, E.rfh.boundary_full_chain
    return bool(gens) and all(not chain(bf(g, model, m), model, m) for g in gens)


def generators(E, rng, workdir: str, tiny: bool) -> list[Op]:
    """enumerate_generators over k/l boxes, windows, degree ranges, winding
    filters and the regime boundary, with d.d = 0 on every generator and
    the +-m^N residuals of the explicit primitives.  No Smith forms at all:
    the control workload for exactlin changes."""
    ops = []
    rfh = E.rfh
    for n in ((2,) if tiny else (1, 2, 3)):
        model = E.basemodel.cp_model(n)
        for m in ((1, 2) if tiny else (1, 2, 3)):
            star = _cp_boundary(n, m)
            # fixed radii well off the boundary keep the generator count of
            # a window, and so the work, the same for every seed
            off = (star / 3, star * 3) if star is not None else (Fraction(1), Fraction(5))
            for tau in off[:1] if tiny else off:
                K, L = 3, 6
                w = rng.randint(-3, 3)
                a = -12 - Fraction(rng.randint(0, 9), 10)
                window = (a, a + 30)
                degrees = (-6, 6)
                size = (2 * K + 1) * (2 * L + 1) * len(model.crit) * 2
                queries = {
                    "box": dict(k_bound=K, l_bound=L),
                    "window": dict(window=window, degrees=degrees),
                    "degrees": dict(degrees=degrees, k_bound=K + 1),
                    "winding-window": dict(winding_filter=w, window=window),
                    "winding-degrees": dict(winding_filter=w, degrees=degrees),
                }
                if star is not None:
                    # on the boundary the action does not bound k on a degree
                    queries["boundary"] = dict(degrees=degrees, window=window, k_bound=K)
                for kind, kw in queries.items():
                    t = star if kind == "boundary" else tau

                    def enum_op(model=model, m=m, t=t, kw=kw, kind=kind, size=size):
                        gens = rfh.enumerate_generators(model, m, t, **kw)
                        if kind == "box" and len(gens) != size:
                            return False
                        return _dd_zero(E, model, m, gens)
                    ops.append(Op(f"enumerate cp:{n} m={m} tau={t} {kind}", enum_op))
            # the N-term partial sums leave one residual of coefficient +-m^N
            for _ in range(1 if tiny else 2):
                i = rng.randint(0, n)
                target = rfh.RFHGenerator(f"q{i}", 2 * i, rng.randint(-3, 3),
                                          rng.randint(-2, 2), True)
                for direction in ("lower", "upper") if m == 1 else ("lower",):
                    def prim_op(model=model, m=m, target=target, direction=direction):
                        for N in range(1, 11):
                            x = rfh.primitive_partial_sum(model, m, target, N, direction)
                            dx = rfh.boundary_full_chain(x, model, m)
                            dx[target] = dx.get(target, 0) - 1
                            resid = [c for c in dx.values() if c]
                            if len(resid) != 1 or abs(resid[0]) != m ** N:
                                return False
                        return True
                    ops.append(Op(f"primitive cp:{n} m={m} {target} {direction}", prim_op))
    return ops


BUILDERS = {
    "w0-ladder": w0_ladder,
    "gysin-exact": gysin_exact,
    "full-rfh": full_rfh,
    "generators": generators,
}
