"""The second paths that `rfh selftest` and the tests check the engine
against: Bareiss rank and determinant, homology from determinantal
divisors, the circle bundle's homology in closed form, and the windowed
complexes `build_fc`, `cap_map`, `mapping_cone` (with its own blocks) and
`rfc_w0`.  No engine module imports this one, and it reads none of the
engine's homology, eliminations or lazy cones (a tier-1 test checks both).

A windowed complex is a `GradedComplex`, a map between two a `ChainMap`;
each proves d . d = 0, or that it commutes with the boundaries, when built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Hashable

from .basemodel import BaseModel
from .chaincplx import _check_cone_map, _degree_range, matrix_from_terms
from .errors import DegreeOutOfRange, NotAChainMap, NotAComplex, NotSquare, ShapeMismatch
from .exactlin import IntMatrix, ZModulePresentation
from .rfh import RFHGenerator


@dataclass(frozen=True)
class GradedComplex:
    """degrees = (lo, hi) inclusive; basis[d] holds distinct hashable
    generators in degree d, in the order of matrix rows and columns, and
    `matrix_from_terms` writes maps on them; boundary[d] maps C_d -> C_{d-1}
    (rows indexed by the basis of degree d-1).  A boundary of the wrong
    shape raises ShapeMismatch, and d_{d-1} . d_d != 0 NotAComplex."""

    degrees: tuple[int, int]
    basis: dict[int, tuple[Hashable, ...]]
    boundary: dict[int, IntMatrix]

    def __post_init__(self):
        lo, hi = _degree_range(self.degrees)
        for d in range(lo, hi + 1):
            gens = self.basis.setdefault(d, ())
            if len(set(gens)) != len(gens):
                raise DegreeOutOfRange(f"degree {d} repeats a generator")
        for d in range(lo + 1, hi + 1):
            m = self.boundary.get(d)
            if m is None:
                m = self.boundary[d] = IntMatrix.zero(self.rank(d - 1), self.rank(d))
            elif (m.rows, m.cols) != (self.rank(d - 1), self.rank(d)):
                raise ShapeMismatch(
                    f"boundary at degree {d} has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(d - 1)}x{self.rank(d)}")
            if d > lo + 1 and not (self.boundary[d - 1] @ m).is_zero():
                raise NotAComplex(f"d_{d - 1} . d_{d} != 0")

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_at(self, d: int) -> IntMatrix:
        """d : C_d -> C_{d-1}; zero map of the right shape at or beyond the
        window edges."""
        lo, hi = self.degrees
        return self.boundary[d] if lo < d <= hi else IntMatrix.zero(self.rank(d - 1), self.rank(d))


@dataclass(frozen=True)
class ChainMap:
    """Per-degree matrices phi_d : source_d -> target_{d+shift}, a missing
    degree the zero map, satisfying d . phi = phi . d wherever both sides
    lie inside both windows."""

    source: GradedComplex
    target: GradedComplex
    shift: int
    maps: dict[int, IntMatrix]

    def __post_init__(self):
        """A map of the wrong shape, or one that does not commute with the
        boundaries, raises NotAChainMap naming the degree."""
        lo, hi = self.source.degrees
        tlo, thi = self.target.degrees
        for d in range(lo, hi + 1):
            m = self.at(d)
            if (m.rows, m.cols) != (self.target.rank(d + self.shift), self.source.rank(d)):
                raise NotAChainMap(f"map at degree {d} has the wrong shape")
        # commutation where all four maps are inside both windows
        for d in range(lo + 1, hi + 1):
            if not (tlo < d + self.shift <= thi):
                continue
            if (self.target.boundary_at(d + self.shift) @ self.at(d)
                    != self.at(d - 1) @ self.source.boundary_at(d)):
                raise NotAChainMap(f"does not commute with boundaries at degree {d}")

    def at(self, d: int) -> IntMatrix:
        m = self.maps.get(d)
        return m if m is not None else IntMatrix.zero(self.target.rank(d + self.shift),
                                                      self.source.rank(d))


def rank_bareiss(A: IntMatrix) -> int:
    """Rank by fraction-free Gaussian elimination (Bareiss); exact, and
    independent of the Smith normal form code path."""
    m, n = A.rows, A.cols
    M = A.to_lists()
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                M[i][j] = (M[r][c] * M[i][j] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        r += 1
        if r == m:
            break
    return r


def det_bareiss(A: IntMatrix) -> int:
    """Exact determinant by Bareiss elimination."""
    if not A.is_square():
        raise NotSquare("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.to_lists()
    prev = 1
    sign = 1
    for c in range(n - 1):
        if M[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if M[i][c] != 0), None)
            if piv is None:
                return 0
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                M[i][j] = (M[c][c] * M[i][j] - M[i][c] * M[c][j]) // prev
            M[i][c] = 0
        prev = M[c][c]
    return sign * M[n - 1][n - 1]


def minor_gcd(A: IntMatrix, k: int) -> int:
    """The k-th determinantal divisor of A: the gcd of its k x k minors."""
    g = 0
    for ri in combinations(range(A.rows), k):
        for ci in combinations(range(A.cols), k):
            g = gcd(g, det_bareiss(A.submatrix(ri, ci)))
    return g


def minor_factors(A: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of A: g_k / g_{k-1} with g_k =
    `minor_gcd(A, k)` and g_0 = 1, for k up to the last g_k != 0."""
    factors, prev = [], 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = minor_gcd(A, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def homology_by_minors(C: GradedComplex, degrees: range) -> dict[int, ZModulePresentation]:
    """H_d(C) at each degree d interior to C's window: with r_k the rank of
    d_k, Z^(n_d - r_d - r_{d+1}) plus Z_t for every invariant factor t >= 2
    of d_{d+1}, both by `minor_factors`."""
    lo, hi = C.degrees
    table = {}
    for d in degrees:
        if not (lo < d < hi):
            raise DegreeOutOfRange(f"degree {d} not interior to {C.degrees}")
        d_out, d_in = C.boundary_at(d), C.boundary_at(d + 1)
        out, inc = minor_factors(d_out), minor_factors(d_in)
        table[d] = ZModulePresentation(C.rank(d) - len(out) - len(inc),
                                       tuple(t for t in inc if t >= 2))
    return table


def circle_bundle_homology(g: int, m: int) -> dict[int, ZModulePresentation]:
    """Homology of the circle bundle of Euler number -m over a genus-g
    surface in closed form: Z, Z^2g + Z_m, Z^2g, Z (Z^(2g+1) in degrees 1
    and 2 when m = 0).  In its standard CW structure the only nonzero
    boundary sends the lifted base 2-cell to m times the fiber 1-cell."""
    Z, t = ZModulePresentation, abs(m)
    free = 2 * g + (t == 0)
    return {0: Z(1), 1: Z(free, (t,) if t >= 2 else ()), 2: Z(free), 3: Z(1)}


HAT = "hat"
CHECK = "check"


def build_fc(model: BaseModel, degrees: tuple[int, int]) -> GradedComplex:
    """Floer chain complex of the model on a degree range: basis = pairs
    (critical point, sphere class k) in each degree, boundary =
    `BaseModel.boundary_at` (zero for the built-in perfect models).  An
    empty range raises DegreeOutOfRange."""
    lo, hi = _degree_range(degrees)
    basis = {d: tuple(model.generators_in_degree(d)) for d in range(lo, hi + 1)}
    return GradedComplex(degrees, basis,
                         {d: model.boundary_at(d) for d in range(lo + 1, hi + 1)})


def cap_map(model: BaseModel, m: int, fc: GradedComplex) -> ChainMap:
    """The degree -2 cap chain map on `fc = build_fc(model, ...)`, from
    `BaseModel.cap_at`; the two lowest degrees map to zero, their targets
    lying below the range."""
    lo, hi = fc.degrees
    return ChainMap(fc, fc, -2, {d: model.cap_at(d, m) for d in range(lo + 2, hi + 1)})


def mapping_cone(psi: ChainMap) -> GradedComplex:
    """Cone of a degree -2 self chain map: in degree d the hat copies
    (HAT, g) of C_{d-1}, then the check copies (CHECK, g) of C_d, with
    boundary blocks [[-d_{d-1}, psi_d], [0, d_d]]."""
    _check_cone_map(psi)
    C = psi.source
    lo, hi = C.degrees
    basis = {d: tuple((HAT, g) for g in C.basis.get(d - 1, ()))
             + tuple((CHECK, g) for g in C.basis.get(d, ()))
             for d in range(lo, hi + 2)}
    boundary = {}
    for d in range(lo + 1, hi + 2):
        hats = C.rank(d - 1)
        rows = ([[-x for x in row] + top for row, top in
                 zip(C.boundary_at(d - 1).to_lists(), psi.at(d).to_lists())]
                + [[0] * hats + row for row in C.boundary_at(d).to_lists()])
        boundary[d] = IntMatrix.from_rows(rows, cols=hats + C.rank(d))
    return GradedComplex((lo, hi + 1), basis, boundary)


def rfc_w0(model: BaseModel, m: int, degrees: tuple[int, int]) -> GradedComplex:
    """Complex on the zero-winding generators, assembled from the generator
    bookkeeping: hat->hat is minus the Morse part, check->check the Morse
    part, check->hat the cap part.  Under l = m*k*nu this is the cone of the
    cap chain map, which the engine reads lazily (`rfh_w0_table`, `gysin`,
    `transfer_failures`); this complex is its generator-level oracle."""
    lo, hi = degrees
    nu = model.nu
    idx_of = model.index_of
    morse = model.morse_terms

    checks = {d: [RFHGenerator(label, idx_of[label], m * k * nu, k, False)
                  for label, k in model.generators_in_degree(d)]
              for d in range(lo - 1, hi + 1)}
    basis = {d: tuple(g._replace(hat=True) for g in checks[d - 1]) + tuple(checks[d])
             for d in range(lo, hi + 1)}

    def terms(g: RFHGenerator):
        sign = -1 if g.hat else 1
        for tl, c in morse[g.label]:
            yield RFHGenerator(tl, idx_of[tl], g.cov, g.k, g.hat), sign * c
        if not g.hat:
            for tlab, tidx, s, c in model.cap_terms[g.label]:
                yield RFHGenerator(tlab, tidx, g.cov + m * nu * s, g.k + s, True), m * c

    boundary = {d: matrix_from_terms(basis[d], basis[d - 1], terms)
                for d in range(lo + 1, hi + 1)}
    return GradedComplex(degrees, basis, boundary)
