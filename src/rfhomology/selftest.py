"""The acceptance suite: ten falsifiable criteria, each a self-contained
check with its own oracle (see `oracles`, whose homology is its own).
`run_all` returns one pass/fail record per criterion; the CLI `selftest`
subcommand and tests/test_acceptance.py both drive it.

Everything is exact: there are no tolerances anywhere, every comparison is
integer or rational equality.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .basemodel import cp_model, point_model, surface_model
from .chaincplx import ChainMap, GradedComplex, cone_les, verify_exactness
from .errors import EngineError
from .exactlin import IntMatrix, ZModulePresentation, invariant_factors
from .oracles import (circle_bundle_homology, homology_by_minors,
                      minor_factors, rfc_w0)
from .rfh import (RFHGenerator, action, base_action, boundary_full,
                  boundary_full_chain, delta_injectivity, enumerate_generators,
                  fh_index, full_rfh, gysin, primitive_partial_sum, rfh_index,
                  rfh_w0_table, transfer_failures, winding)


def random_complex_and_map(rng: random.Random, lo: int = -4, hi: int = 5
                           ) -> tuple[GradedComplex, ChainMap]:
    """A random bounded complex with a random degree -2 self chain map: 3
    to 7 pieces, each a single generator or a two-term piece Z -n-> Z with
    n in 1..4, so at most 7 generators in a degree; the map joins pieces
    two degrees apart with coefficients in {1, -1, 2, -3} (times the
    pieces' n when both are two-term), and then every degree is conjugated
    by a product of up to six elementary operations with factors in
    {+-1, +-2}, which makes entries in the hundreds possible."""
    pieces = []
    for _ in range(rng.randint(3, 7)):
        d = rng.randint(lo + 2, hi - 1)
        pieces.append((d, rng.choice([1, 2, 3, 4, None])))
    gens: dict[int, list] = {d: [] for d in range(lo, hi + 1)}
    for pid, (d, n) in enumerate(pieces):
        if n is None:
            gens[d].append((pid, "single"))
        else:
            gens[d].append((pid, "top"))
            gens[d - 1].append((pid, "bot"))

    def bmat(d: int) -> IntMatrix:
        rows = []
        for (pt, rt) in gens[d - 1]:
            rows.append([pieces[ps][1] if (ps == pt and rs == "top" and rt == "bot")
                         else 0 for (ps, rs) in gens[d]])
        return IntMatrix.from_rows(rows, cols=len(gens[d]))

    boundary = {d: bmat(d) for d in range(lo + 1, hi + 1)}
    basis = {d: tuple(f"g{d}.{i}" for i in range(len(gens[d]))) for d in gens}
    C0 = GradedComplex((lo, hi), dict(basis), dict(boundary))
    assert all((boundary[d - 1] @ boundary[d]).is_zero() for d in range(lo + 2, hi + 1))

    maps = {d: [[0] * len(gens[d]) for _ in gens[d - 2]] for d in range(lo + 2, hi + 1)}
    for ps, (ds, ns) in enumerate(pieces):
        for pt, (dt, nt) in enumerate(pieces):
            if ds - 2 != dt:
                continue
            t = rng.choice([0, 0, 1, -1, 2, -3])
            if t == 0:
                continue
            if ns is None and nt is None:
                si = gens[ds].index((ps, "single"))
                ti = gens[dt].index((pt, "single"))
                maps[ds][ti][si] += t
            elif ns is not None and nt is not None:
                si = gens[ds].index((ps, "top"))
                ti = gens[dt].index((pt, "top"))
                maps[ds][ti][si] += ns * t
                sbi = gens[ds - 1].index((ps, "bot"))
                tbi = gens[dt - 1].index((pt, "bot"))
                maps[ds - 1][tbi][sbi] += nt * t
    phimaps = {d: IntMatrix.from_rows(maps[d], cols=len(gens[d])) for d in maps}
    phi0 = ChainMap(C0, C0, -2, phimaps)
    phi0.check()

    def unimodular(n: int) -> tuple[IntMatrix, IntMatrix]:
        """M = E_t ... E_1 from elementary row operations E, and its inverse
        E_1^-1 ... E_t^-1, built alongside as the inverse column
        operations."""
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        Minv = [row[:] for row in M]
        for _ in range(6):
            if n < 2:
                break
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                M[i][k] += c * M[j][k]
                Minv[k][j] -= c * Minv[k][i]
        return IntMatrix.from_rows(M, cols=n), IntMatrix.from_rows(Minv, cols=n)

    U, Uinv = {}, {}
    for d in range(lo, hi + 1):
        U[d], Uinv[d] = unimodular(len(gens[d]))
    newb = {d: Uinv[d - 1] @ boundary[d] @ U[d] for d in range(lo + 1, hi + 1)}
    C1 = GradedComplex((lo, hi), dict(basis), newb)
    newphi = {d: Uinv[d - 2] @ phi0.at(d) @ U[d] for d in range(lo + 2, hi + 1)}
    phi1 = ChainMap(C1, C1, -2, newphi)
    phi1.check()
    return C1, phi1


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1() -> tuple[bool, str]:
    """Zero-winding tables: cp:n, n in 1..3, m in 1..5, degrees -8..8 equal
    Z_m in odd degrees and 0 in even degrees; under 5 seconds total."""
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        model = cp_model(n)
        for m in range(1, 6):
            table = rfh_w0_table(model, m, Fraction(1), (-8, 8))
            for d in range(-8, 9):
                got = table[d]
                want = (ZModulePresentation(0, (m,)) if (d % 2 != 0 and m >= 2)
                        else ZModulePresentation(0, ()))
                if got != want:
                    failures.append(f"cp:{n} m={m} deg {d}: got {got}, want {want}")
    if time.perf_counter() - t0 >= 5.0:
        failures.append(f"took {time.perf_counter() - t0:.1f}s >= 5s")
    if failures:
        return False, f"{len(failures)} cells differ, e.g. " + "; ".join(failures[:3])
    return True, "all 15 tables match"


_CP2_TAU_SAMPLES = {
    # m: (inside low regime, boundary or None, inside high regime or None)
    1: (Fraction(1, 4), Fraction(1, 2), Fraction(3)),
    2: (Fraction(1), Fraction(2), Fraction(3)),
    3: (Fraction(1, 3), None, None),
    4: (Fraction(7), None, None),
}


def criterion_2() -> tuple[bool, str]:
    """Full-homology regime table for cp:2, m in 1..4, with the exact
    boundary radius when it exists; field coefficients give a line exactly
    at the boundary; under 10 seconds total."""
    t0 = time.perf_counter()
    model = cp_model(2)
    failures = []

    def check(m, tau, want_odd, coeff="z"):
        res = full_rfh(model, m, tau, (-5, 5), coeff)
        for d in range(-5, 6):
            got = str(res.table[d])
            want = want_odd if d % 2 else "0"
            if got != want:
                failures.append(f"m={m} tau={tau} coeff={coeff} deg {d}: "
                                f"got {got}, want {want}")

    for m, (low, boundary, high) in _CP2_TAU_SAMPLES.items():
        check(m, low, "0")
        if boundary is not None:
            want = "Z" if m == 1 else f"Q~_{m}"
            check(m, boundary, want)
            check(m, boundary, "Z", coeff="fp:5")   # renders as F, free rank 1
            if high is not None:
                check(m, high, "0", coeff="fp:5")
        if high is not None:
            want = "0" if m == 1 else f"Q_{m}"
            check(m, high, want)
    if time.perf_counter() - t0 >= 10.0:
        failures.append(f"took {time.perf_counter() - t0:.1f}s >= 10s")
    if failures:
        return False, "; ".join(failures[:4])
    return True, "regime table and field mode match"


def criterion_3() -> tuple[bool, str]:
    """Vanishing branches: m >= lambda gives 0 for every sampled radius;
    1 <= m <= lambda-1 gives 0 strictly below the boundary."""
    model = cp_model(2)
    failures = []
    for m in (3, 4):
        for tau in (Fraction(1, 3), Fraction(1), Fraction(7), Fraction(100)):
            res = full_rfh(model, m, tau, (-4, 4))
            if any(v.kind != "zero" for v in res.table.values()):
                failures.append(f"m={m} tau={tau} not zero")
    for m, taus in ((1, (Fraction(1, 4), Fraction(49, 100))),
                    (2, (Fraction(1), Fraction(199, 100)))):
        for tau in taus:
            res = full_rfh(model, m, tau, (-4, 4))
            if any(v.kind != "zero" for v in res.table.values()):
                failures.append(f"m={m} tau={tau} not zero")
    return (not failures), ("; ".join(failures) if failures else "all branches vanish")


def criterion_4() -> tuple[bool, str]:
    """Classical Gysin recovery on surfaces: the zero-winding table on
    degrees -1..2 equals the shifted homology of the circle bundle, in
    closed form: Z, Z^2g + Z_m, Z^2g, Z."""
    failures = []
    for g in (1, 2):
        model = surface_model(g)
        for m in (1, 2, 3):
            oracle = circle_bundle_homology(g, m)
            table = rfh_w0_table(model, m, Fraction(1), (-1, 2))
            for d in range(-1, 3):
                if table[d] != oracle[d + 1]:
                    failures.append(f"surface:{g} m={m} deg {d}: "
                                    f"{table[d]} != {oracle[d + 1]}")
    return (not failures), ("; ".join(failures) if failures else
                            "matches the cellular oracle")


def criterion_5() -> tuple[bool, str]:
    """Exactness of the Gysin sequence for the model zoo and for 200
    randomized small chain maps."""
    failures = []
    for n in (1, 2, 3):
        for m in range(1, 6):
            rep = verify_exactness(gysin(cp_model(n), m, (-5, 5)))
            if not rep.ok:
                failures.append(f"cp:{n} m={m}: {rep.failures()}")
    for g in (1, 2):
        for m in (1, 2, 3):
            rep = verify_exactness(gysin(surface_model(g), m, (-1, 2)))
            if not rep.ok:
                failures.append(f"surface:{g} m={m}: {rep.failures()}")
    rng = random.Random(20260809)
    for i in range(200):
        C, phi = random_complex_and_map(rng)
        rep = verify_exactness(cone_les(phi))
        if not rep.ok:
            failures.append(f"random #{i}: {rep.failures()}")
    return (not failures), ("; ".join(failures[:3]) if failures else
                            "exact at every interior node (zoo + 200 random)")


def criterion_6() -> tuple[bool, str]:
    """Chain-level P.T = T.P = m.id for m in 1..6, and the transfer torsion
    consequence: whenever the degree-1 table vanishes, every degree-m group
    is killed by m."""
    failures = []
    model = cp_model(2)
    for m in range(1, 7):
        failures += [f"m={m} deg {d}" for d in transfer_failures(model, m, (-6, 6))]
    for n in (1, 2, 3):
        base = rfh_w0_table(cp_model(n), 1, Fraction(1), (-6, 6))
        if any(not p.is_zero() for p in base.values()):
            failures.append(f"cp:{n} degree-1 table unexpectedly nonzero")
            continue
        for m in (2, 3, 4):
            table = rfh_w0_table(cp_model(n), m, Fraction(1), (-6, 6))
            for d, p in table.items():
                if p.free_rank != 0 or any(m % t != 0 for t in p.torsion):
                    failures.append(f"cp:{n} m={m} deg {d}: {p} not killed by {m}")
    return (not failures), ("; ".join(failures[:4]) if failures else
                            "transfer identities and torsion consequence hold")


def criterion_7() -> tuple[bool, str]:
    """Full-complex fixtures for cp:2: d.d = 0 on the box |k| <= 6,
    |l| <= 12, and the N-term partial sums of the explicit primitives leave
    a single residual of coefficient +-m^N for N <= 10."""
    model = cp_model(2)
    failures = []
    for m in (1, 2, 3):
        gens = enumerate_generators(model, m, Fraction(1), k_bound=6, l_bound=12)
        if not gens:
            failures.append(f"m={m}: empty box")
        for g in gens:
            if boundary_full_chain(boundary_full(g, model, m), model, m):
                failures.append(f"m={m}: d^2 != 0 at {g}")
                break
        targets = [RFHGenerator("q0", 0, 1, 0, True),
                   RFHGenerator("q1", 2, -2, 1, True),
                   RFHGenerator("q2", 4, 3, -1, True)]
        directions = ["lower"] + (["upper"] if m == 1 else [])
        for target in targets:
            for direction in directions:
                for N in range(1, 11):
                    x = primitive_partial_sum(model, m, target, N, direction)
                    dx = boundary_full_chain(x, model, m)
                    dx[target] = dx.get(target, 0) - 1
                    resid = {h: c for h, c in dx.items() if c}
                    if len(resid) != 1 or abs(next(iter(resid.values()))) != m ** N:
                        failures.append(
                            f"m={m} {direction} N={N} target {target}: residual {resid}")
    return (not failures), ("; ".join(failures[:3]) if failures else
                            "d^2 = 0 and all partial-sum residuals are +-m^N")


def criterion_8() -> tuple[bool, str]:
    """Trivial kernel of id + cap-shift on |k| <= 8 truncations for cp:2,
    m in 1..3, radii sampled in every regime that occurs.  The kernel is
    trivial for every induced cap that is well defined on homology (the
    derivation in `delta_injectivity`), so this certifies that hypothesis
    and the recorded derivation, not the cap's values: criterion 2 reads
    those through the cells of `full_rfh`, and criterion 9 through the
    cone of the cap against `rfc_w0`."""
    model = cp_model(2)
    samples = {1: (Fraction(1, 4), Fraction(1, 2), Fraction(3)),
               2: (Fraction(1), Fraction(2), Fraction(5)),
               3: (Fraction(1, 2), Fraction(1), Fraction(10))}
    failures = []
    for m, taus in samples.items():
        for tau in taus:
            rep = delta_injectivity(model, m, tau, 8, (-6, 6))
            if not rep["all"]:
                bad = [d for d, ok in rep["degrees"].items() if not ok]
                failures.append(f"m={m} tau={tau}: degrees {bad}")
    return (not failures), ("; ".join(failures) if failures else
                            "injective on every truncation")


def criterion_9() -> tuple[bool, str]:
    """Oracle equivalences: the engine's zero-winding homology, the lazy
    cone of the cap, equals the homology, by determinantal divisors, of the
    complex that `rfc_w0` assembles from the generators on every zoo
    instance, and the engine's invariant factors, unit pivots and then the
    dense Smith form of the unit-free remainder, equal the quotients of the
    determinantal divisors on 750 random matrices: 500 with entries in
    -9..9, which run the unit pivots first, then 250 with entries in
    {0, +-2, +-3, 5}, whose Smith form is that of the whole matrix."""
    failures = []
    zoo = [(cp_model(n), m) for n in (1, 2, 3) for m in range(1, 6)]
    zoo += [(surface_model(g), m) for g in (1, 2) for m in (1, 2, 3)]
    zoo += [(point_model(), m) for m in (1, 2)]
    for model, m in zoo:
        direct = rfh_w0_table(model, m, Fraction(1), (-5, 5))
        oracle = homology_by_minors(rfc_w0(model, m, (-6, 6)), range(-5, 6))
        for d in range(-5, 6):
            if direct[d] != oracle[d]:
                failures.append(f"{model.name} m={m} deg {d}: "
                                f"{direct[d]} != {oracle[d]}")
    rng = random.Random(97)
    unit_free = (0, 2, -2, 3, -3, 5)
    for i in range(750):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        A = IntMatrix.from_rows([[rng.randint(-9, 9) if i < 500 else rng.choice(unit_free)
                                  for _ in range(c)] for _ in range(r)], cols=c)
        factors, gcds = invariant_factors(A), minor_factors(A)
        if factors != gcds:
            failures.append(f"random #{i}: invariant factors {factors} vs minor gcds {gcds}")
    return (not failures), ("; ".join(failures[:3]) if failures else
                            "cone oracle and minor-gcd oracle agree")


def criterion_10() -> tuple[bool, str]:
    """Index and action identities on 10^4 random generators: the index
    drops by twice the winding against the base index, and the actions
    compare through (1+tau) a = (tau/m) w + A; at zero winding both collapse
    to equalities."""
    rng = random.Random(1234)
    models = [cp_model(1), cp_model(2), cp_model(3),
              surface_model(1), surface_model(2), point_model()]
    failures = 0
    for _ in range(10_000):
        model = rng.choice(models)
        m = rng.randint(1, 6)
        tau = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        label, idx = rng.choice(model.crit)
        k = 0 if model.aspherical else rng.randint(-20, 20)
        l = rng.randint(-20, 20)
        g = RFHGenerator(label, idx, l, k, rng.random() < 0.5)
        mu = rfh_index(g, model, m) - (1 if g.hat else 0)
        w = winding(g, model, m)
        if mu != -2 * w + fh_index(g, model):
            failures += 1
            continue
        lhs = (1 + tau) * base_action(g, model)
        rhs = Fraction(tau, m) * w + action(g, model, m, tau)
        if lhs != rhs:
            failures += 1
            continue
        if w == 0:
            if mu != fh_index(g, model):
                failures += 1
            if action(g, model, m, tau) != (1 + tau) * base_action(g, model):
                failures += 1
    return (failures == 0), (f"{failures} failures" if failures else
                             "identities hold on 10^4 draws")


CRITERIA = [
    (1, "zero-winding tables for cp:n", criterion_1),
    (2, "full-homology regime table for cp:2", criterion_2),
    (3, "vanishing branches", criterion_3),
    (4, "classical Gysin recovery on surfaces", criterion_4),
    (5, "Gysin exactness (zoo + 200 random)", criterion_5),
    (6, "transfer identities and torsion consequence", criterion_6),
    (7, "full-complex fixtures and primitives", criterion_7),
    (8, "injectivity of id + cap-shift on truncations", criterion_8),
    (9, "cone and minor-gcd oracle equivalences", criterion_9),
    (10, "index and action identities", criterion_10),
]


def run_all() -> list[dict]:
    """One record per criterion; one that raises an EngineError fails with
    the error as its detail, and the rest still run."""
    results = []
    for cid, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except EngineError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"id": cid, "name": name, "pass": ok,
                        "detail": detail, "seconds": round(time.perf_counter() - t0, 3)})
    return results
