"""Graded chain complexes of free Z-modules, chain maps, mapping cones and
the long exact sequence of a cone, with exactness verified over Z.

Degrees live in a finite contiguous window.  Homology and exactness are only
asserted on degrees with margin inside that window: the window edges see
artificially truncated kernels, so callers must build two degrees wider than
what they want to read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import DegreeOutOfRange, NotAChainMap, NotAComplex
from .exactlin import (IntMatrix, ZModulePresentation, _Elimination,
                       homology_with_cycles, invariant_factors, solve_matrix)


@dataclass(frozen=True)
class GradedComplex:
    """degrees = (lo, hi) inclusive; basis[d] holds distinct hashable
    generators in degree d, in the order of matrix rows and columns, and
    `matrix_from_terms` writes maps on them; boundary[d] maps C_d -> C_{d-1}
    (rows indexed by the basis of degree d-1)."""

    degrees: tuple[int, int]
    basis: dict[int, tuple[Hashable, ...]]
    boundary: dict[int, IntMatrix]

    def __post_init__(self):
        lo, hi = self.degrees
        if lo > hi:
            raise DegreeOutOfRange(f"empty degree range {self.degrees}")
        for d in range(lo, hi + 1):
            gens = self.basis.setdefault(d, ())
            if len(set(gens)) != len(gens):
                raise DegreeOutOfRange(f"degree {d} repeats a generator")
        for d in range(lo + 1, hi + 1):
            m = self.boundary.get(d)
            if m is None:
                self.boundary[d] = IntMatrix.zero(self.rank(d - 1), self.rank(d))
            elif (m.rows, m.cols) != (self.rank(d - 1), self.rank(d)):
                raise DegreeOutOfRange(
                    f"boundary at degree {d} has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(d - 1)}x{self.rank(d)}")

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_at(self, d: int) -> IntMatrix:
        """d : C_d -> C_{d-1}; zero map of the right shape at or beyond the
        window edges."""
        lo, hi = self.degrees
        if lo < d <= hi:
            return self.boundary[d]
        return IntMatrix.zero(self.rank(d - 1), self.rank(d))


def matrix_from_terms(source: Sequence[Hashable], target: Sequence[Hashable],
                      terms: Callable[[Hashable], Iterable[tuple[Hashable, int]]]
                      ) -> IntMatrix:
    """The matrix of the map sending each generator g of `source` to the sum
    of c*t over the (t, c) in terms(g): entry (i, j) is the sum of the c
    with t == target[i] in terms(source[j]).  A term whose t is not in
    `target` is dropped, which is how a window truncates a map.  Every
    boundary and chain map built from generators comes from here."""
    row_of = {t: i for i, t in enumerate(target)}
    columns = []
    for g in source:
        col: dict[int, int] = {}
        for t, c in terms(g):
            i = row_of.get(t)
            if i is not None:
                col[i] = col.get(i, 0) + c
        columns.append({i: c for i, c in col.items() if c})
    return IntMatrix(len(target), len(source), tuple(columns))


@dataclass(frozen=True)
class BoundaryReport:
    ok: bool
    first_failure: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_boundary(C: GradedComplex) -> BoundaryReport:
    """Check d_{*-1} . d_* = 0 wherever both maps exist; reports the first
    offending degree."""
    lo, hi = C.degrees
    for d in range(lo + 2, hi + 1):
        if not (C.boundary_at(d - 1) @ C.boundary_at(d)).is_zero():
            return BoundaryReport(False, d)
    return BoundaryReport(True)


@dataclass(frozen=True)
class ChainMap:
    """Per-degree matrices phi_d : source_d -> target_{d+shift} satisfying
    d . phi = phi . d wherever both sides lie inside both windows, which
    `check` tests."""

    source: GradedComplex
    target: GradedComplex
    shift: int
    maps: dict[int, IntMatrix]

    def at(self, d: int) -> IntMatrix:
        m = self.maps.get(d)
        if m is None:
            return IntMatrix.zero(self.target.rank(d + self.shift), self.source.rank(d))
        return m

    def check(self) -> None:
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


# ---------------------------------------------------------------------------
# Mapping cone
# ---------------------------------------------------------------------------

HAT = "hat"
CHECK = "check"


def mapping_cone(psi: ChainMap) -> GradedComplex:
    """Cone of a degree -2 self chain map: degree-d generators are the hat
    copies (HAT, g) of C_{d-1} followed by the check copies (CHECK, g) of
    C_d, with boundary blocks [[-d, psi], [0, d]], written column by
    column."""
    if psi.source is not psi.target and psi.source != psi.target:
        raise NotAChainMap("cone needs an endomorphism")
    if psi.shift != -2:
        raise NotAChainMap(f"cone needs a degree -2 map, got {psi.shift}")
    psi.check()
    C = psi.source
    lo, hi = C.degrees
    degrees = (lo, hi + 1)
    basis = {d: tuple((HAT, g) for g in C.basis.get(d - 1, ()))
             + tuple((CHECK, g) for g in C.basis.get(d, ()))
             for d in range(lo, hi + 2)}
    boundary: dict[int, IntMatrix] = {}
    for d in range(lo + 1, hi + 2):
        off = C.rank(d - 2)             # the hat rows come first
        hats = tuple({i: -x for i, x in col.items()}
                     for col in C.boundary_at(d - 1).columns)
        checks = tuple({**top, **{off + i: x for i, x in bottom.items()}}
                       for top, bottom in zip(psi.at(d).columns, C.boundary_at(d).columns))
        boundary[d] = IntMatrix(off + C.rank(d - 1), C.rank(d - 1) + C.rank(d),
                                hats + checks)
    return GradedComplex(degrees, basis, boundary)


# ---------------------------------------------------------------------------
# Homology with chosen generators, induced maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyBasis:
    """H_degree presented on the columns of `cycles` (a basis of the cycle
    lattice, a direct summand of the chains) modulo the relation
    coordinates `relations`.  `coords` writes a cycle in that basis:
    coords @ cycles = I, so coords @ z are the coordinates of any cycle z,
    and relations = coords @ (incoming boundary)."""

    degree: int
    cycles: IntMatrix       # chain coordinates of the chosen cycle basis
    coords: IntMatrix       # left inverse of `cycles`
    relations: IntMatrix    # boundary images written in that basis
    presentation: ZModulePresentation


def homology_basis(C: GradedComplex, d: int, out: Optional[_Elimination] = None,
                   in_factors: Optional[Sequence[int]] = None) -> HomologyBasis:
    """H_d(C) on a cycle basis (see `homology_with_cycles`, which is handed
    `out` and `in_factors` when the caller has eliminated d_d and d_{d+1})."""
    lo, hi = C.degrees
    if not (lo < d < hi):
        raise DegreeOutOfRange(f"degree {d} not interior to {C.degrees}")
    return HomologyBasis(d, *homology_with_cycles(C.boundary_at(d), C.boundary_at(d + 1),
                                                  out, in_factors))


def _homology_bases(C: GradedComplex, lo: int, hi: int) -> dict[int, HomologyBasis]:
    """`homology_basis` of C in degrees lo..hi with each boundary eliminated
    once: the elimination of d_d gives the cycles of degree d, and its
    invariant factors the torsion of H_{d-1}."""
    elims = {d: _Elimination(C.boundary_at(d)) for d in range(lo, hi + 1)}
    factors = {d: e.invariant_factors() for d, e in elims.items()}
    factors[hi + 1] = invariant_factors(C.boundary_at(hi + 1))
    return {d: homology_basis(C, d, elims[d], factors[d + 1]) for d in range(lo, hi + 1)}


def homology_table(C: GradedComplex, degrees: Iterable[int]) -> dict[int, ZModulePresentation]:
    """H_d(C) for each interior degree d, from ranks and invariant factors
    alone: with r_k the rank of d_k, H_d = Z^(n_d - r_d - r_{d+1}) plus
    Z_t for every invariant factor t >= 2 of d_{d+1}, since ker d_d is a
    direct summand.  Each boundary is eliminated once; no cycle basis is
    built (see `homology_basis` for that)."""
    lo, hi = C.degrees
    factors: dict[int, tuple[int, ...]] = {}
    table = {}
    for d in degrees:
        if not (lo < d < hi):
            raise DegreeOutOfRange(f"degree {d} not interior to {C.degrees}")
        for k in (d, d + 1):
            if k not in factors:
                factors[k] = invariant_factors(C.boundary_at(k))
        if not (C.boundary_at(d) @ C.boundary_at(d + 1)).is_zero():
            raise NotAComplex(f"d_{d} . d_{d + 1} != 0")
        out, inc = factors[d], factors[d + 1]
        table[d] = ZModulePresentation(C.rank(d) - len(out) - len(inc),
                                       tuple(t for t in inc if t >= 2))
    return table


def induced_matrix(phi: IntMatrix, src: HomologyBasis, tgt: HomologyBasis) -> IntMatrix:
    """Coordinates of phi(cycle basis of src) in the cycle basis of tgt,
    read off by `tgt.coords`.  phi must send cycles to cycles (true for
    chain maps), which holds exactly when the images are rebuilt from
    those coordinates."""
    images = phi @ src.cycles
    Y = tgt.coords @ images
    if tgt.cycles @ Y != images:
        raise NotAChainMap("image of a cycle is not a cycle")
    return Y


def exact_at(incoming: IntMatrix, node: HomologyBasis,
             outgoing: IntMatrix, next_node: HomologyBasis) -> bool:
    """im(incoming) = ker(outgoing) inside the group presented by `node`,
    both inclusions checked over Z by integer solvability.  Each call
    eliminates its own matrices; `verify_exactness` makes the same checks
    with eliminations shared between neighbouring nodes."""
    rel_next = next_node.relations
    # image of the composite must die in the next group
    if solve_matrix(rel_next, outgoing @ incoming) is None:
        return False
    return _preimage_in_span(outgoing, rel_next, incoming.hstack(node.relations))


def _preimage_in_span(f: IntMatrix, R: IntMatrix, S: IntMatrix) -> bool:
    """Every integer x with f x in colspan(R) lies in colspan(S)."""
    return _kernel_part_in_span(_Elimination(f.hstack(R)), f.cols, lambda: _Elimination(S))


def _kernel_part_in_span(fR: _Elimination, n: int,
                         S: Callable[[], _Elimination]) -> bool:
    """The first n coordinates of each kernel basis vector of the matrix
    that `fR` eliminated, [f | R] with f of n columns, are solved against
    the matrix that S() eliminates; S is called only if one is nonzero."""
    parts = [p for p in ({i: x for i, x in col.items() if i < n}
                         for col in fR.kernel()[0].columns) if p]
    if not parts:
        return True
    elim = S()
    return all(elim.solve(p) is not None for p in parts)


# ---------------------------------------------------------------------------
# Long exact sequence of a cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LESNode:
    label: str
    data: HomologyBasis

    @property
    def presentation(self) -> ZModulePresentation:
        return self.data.presentation


@dataclass(frozen=True)
class LongExactSequence:
    """nodes[i] --maps[i]--> nodes[i+1]; maps are written on the chosen
    cycle bases of the respective homology groups."""

    nodes: tuple[LESNode, ...]
    maps: tuple[IntMatrix, ...]

    def labels(self) -> list[str]:
        return [n.label for n in self.nodes]


def cone_les(psi: ChainMap,
             degrees: Optional[tuple[int, int]] = None,
             label_cone: str = "Cone",
             label_base: str = "C") -> LongExactSequence:
    """The helix ... -> H_d(Cone) -> H_d(C) -> H_{d-2}(C) -> H_{d-1}(Cone) -> ...
    At the chain level the first map sends (CHECK, g) to g and kills the
    hats, the second is induced by psi, the third sends g to (HAT, g).
    Each boundary of the cone and of C is eliminated once: the one
    elimination of d_d gives the cycles and coordinates of H_d and, by its
    invariant factors, the torsion of H_{d-1} (see `homology_with_cycles`)."""
    cone = mapping_cone(psi)
    C = psi.source
    lo, hi = C.degrees
    if degrees is None:
        degrees = (lo + 3, hi - 1)
    dlo, dhi = degrees
    if dlo > dhi:
        raise DegreeOutOfRange("empty degree range")
    if dlo < lo + 3 or dhi > hi - 1:
        raise DegreeOutOfRange(
            f"need degrees within [{lo + 3}, {hi - 1}], got {degrees}")

    h_cone = _homology_bases(cone, dlo, dhi)
    h_base = _homology_bases(C, dlo - 2, dhi)

    def proj_matrix(d: int) -> IntMatrix:
        # Cone_d -> C_d : kill hats, project checks
        return matrix_from_terms(cone.basis[d], C.basis[d],
                                 lambda g: [(g[1], 1)] if g[0] == CHECK else [])

    def incl_matrix(d: int) -> IntMatrix:
        # C_{d-2} -> Cone_{d-1} : include into the hat block
        return matrix_from_terms(C.basis[d - 2], cone.basis[d - 1],
                                 lambda g: [((HAT, g), 1)])

    nodes: list[LESNode] = []
    maps: list[IntMatrix] = []
    for d in range(dhi, dlo - 1, -1):
        nodes.append(LESNode(f"{label_cone}_{d}", h_cone[d]))
        maps.append(induced_matrix(proj_matrix(d), h_cone[d], h_base[d]))
        nodes.append(LESNode(f"{label_base}_{d}", h_base[d]))
        maps.append(induced_matrix(psi.at(d), h_base[d], h_base[d - 2]))
        nodes.append(LESNode(f"{label_base}_{d-2}", h_base[d - 2]))
        if d > dlo:
            maps.append(induced_matrix(incl_matrix(d), h_base[d - 2], h_cone[d - 1]))
    return LongExactSequence(tuple(nodes), tuple(maps))


@dataclass(frozen=True)
class ExactnessReport:
    ok: bool
    nodes: tuple[tuple[str, bool], ...]

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[str]:
        return [label for label, good in self.nodes if not good]


def verify_exactness(les: LongExactSequence) -> ExactnessReport:
    """Check im(incoming) = ker(outgoing) at every node that has both an
    incoming and an outgoing map, with the checks of `exact_at`.  The
    matrix M_j = [maps[j] | relations of node j+1] is eliminated once and
    shared by two nodes: node j reads its kernel, node j+1 solves against
    it."""
    nodes, maps = les.nodes, les.maps
    joined: dict[int, _Elimination] = {}

    def M(j: int) -> _Elimination:
        if j not in joined:
            joined[j] = _Elimination(maps[j].hstack(nodes[j + 1].data.relations))
        return joined[j]

    results = tuple(
        (nodes[i].label,
         solve_matrix(nodes[i + 1].data.relations, maps[i] @ maps[i - 1]) is not None
         and _kernel_part_in_span(M(i), maps[i].cols, lambda: M(i - 1)))
        for i in range(1, len(nodes) - 1))
    return ExactnessReport(all(good for _, good in results), results)
