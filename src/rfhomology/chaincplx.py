"""Graded chain complexes of free Z-modules, chain maps, mapping cones and
the long exact sequence of a cone, with exactness verified over Z.

Degrees live in a finite contiguous window.  Homology and exactness are only
asserted on degrees with margin inside that window: the window edges see
artificially truncated kernels, so callers must build two degrees wider than
what they want to read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DegreeOutOfRange, NotAChainMap
from .exactlin import (IntMatrix, ZModulePresentation, homology_with_cycles,
                       kernel_basis, solve_matrix)


@dataclass(frozen=True)
class GradedComplex:
    """degrees = (lo, hi) inclusive; basis[d] is the ordered generator label
    tuple in degree d; boundary[d] maps C_d -> C_{d-1} (rows indexed by the
    basis of degree d-1)."""

    degrees: tuple[int, int]
    basis: dict[int, tuple[str, ...]]
    boundary: dict[int, IntMatrix]

    def __post_init__(self):
        lo, hi = self.degrees
        if lo > hi:
            raise DegreeOutOfRange(f"empty degree range {self.degrees}")
        for d in range(lo, hi + 1):
            self.basis.setdefault(d, ())
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

    def to_json(self) -> dict:
        lo, hi = self.degrees
        return {
            "degrees": [lo, hi],
            "basis": {str(d): list(self.basis[d]) for d in range(lo, hi + 1)},
            "boundary": {str(d): self.boundary_at(d).to_lists()
                         for d in range(lo + 1, hi + 1)},
        }


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
    d . phi = sign * phi . d on the interior."""

    source: GradedComplex
    target: GradedComplex
    shift: int
    maps: dict[int, IntMatrix]
    sign: int = 1

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
            lhs = self.target.boundary_at(d + self.shift) @ self.at(d)
            rhs = (self.at(d - 1) @ self.source.boundary_at(d)).scale(self.sign)
            if lhs.entries != rhs.entries:
                raise NotAChainMap(f"does not commute with boundaries at degree {d}")


def identity_chain_map(C: GradedComplex) -> ChainMap:
    lo, hi = C.degrees
    maps = {d: IntMatrix.identity(C.rank(d)) for d in range(lo, hi + 1)}
    return ChainMap(C, C, 0, maps)


# ---------------------------------------------------------------------------
# Mapping cone
# ---------------------------------------------------------------------------

HAT = "hat:"
CHECK = "chk:"


def mapping_cone(psi: ChainMap) -> GradedComplex:
    """Cone of a degree -2 self chain map: degree-d generators are the hat
    copy of C_{d-1} followed by the check copy of C_d, with boundary blocks
    [[-d, psi], [0, d]]."""
    if psi.source is not psi.target and psi.source != psi.target:
        raise NotAChainMap("cone needs an endomorphism")
    if psi.shift != -2:
        raise NotAChainMap(f"cone needs a degree -2 map, got {psi.shift}")
    psi.check()
    C = psi.source
    lo, hi = C.degrees
    degrees = (lo, hi + 1)
    basis: dict[int, tuple[str, ...]] = {}
    for d in range(lo, hi + 2):
        hats = tuple(HAT + b for b in C.basis.get(d - 1, ()))
        checks = tuple(CHECK + b for b in C.basis.get(d, ()))
        basis[d] = hats + checks
    boundary: dict[int, IntMatrix] = {}
    for d in range(lo + 1, hi + 2):
        nh_s, nc_s = C.rank(d - 1), C.rank(d)
        nh_t, nc_t = C.rank(d - 2), C.rank(d - 1)
        dd = C.boundary_at(d - 1)      # hat block source
        dc = C.boundary_at(d)          # check block source
        ps = psi.at(d)                 # C_d -> C_{d-2}
        rows = []
        for i in range(nh_t):
            rows.append([-dd.get(i, j) for j in range(nh_s)] +
                        [ps.get(i, j) for j in range(nc_s)])
        for i in range(nc_t):
            rows.append([0] * nh_s + [dc.get(i, j) for j in range(nc_s)])
        boundary[d] = IntMatrix.from_rows(rows, cols=nh_s + nc_s)
    return GradedComplex(degrees, basis, boundary)


# ---------------------------------------------------------------------------
# Homology with chosen generators, induced maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyBasis:
    """H_degree presented on the columns of `cycles` (a basis of the cycle
    lattice) modulo the relation coordinates `relations`."""

    degree: int
    cycles: IntMatrix       # chain coordinates of the chosen cycle basis
    relations: IntMatrix    # boundary images written in that basis
    presentation: ZModulePresentation


def homology_basis(C: GradedComplex, d: int) -> HomologyBasis:
    lo, hi = C.degrees
    if not (lo < d < hi):
        raise DegreeOutOfRange(f"degree {d} not interior to {C.degrees}")
    return HomologyBasis(d, *homology_with_cycles(C.boundary_at(d), C.boundary_at(d + 1)))


def homology_table(C: GradedComplex, degrees: Iterable[int]) -> dict[int, ZModulePresentation]:
    return {d: homology_basis(C, d).presentation for d in degrees}


def induced_matrix(phi: IntMatrix, src: HomologyBasis, tgt: HomologyBasis) -> IntMatrix:
    """Coordinates of phi(cycle basis of src) in the cycle basis of tgt.
    phi must send cycles to cycles (true for chain maps)."""
    images = phi @ src.cycles
    Y = solve_matrix(tgt.cycles, images)
    if Y is None:
        raise NotAChainMap("image of a cycle is not a cycle")
    return Y


def exact_at(incoming: IntMatrix, node: HomologyBasis,
             outgoing: IntMatrix, next_node: HomologyBasis) -> bool:
    """im(incoming) = ker(outgoing) inside the group presented by `node`,
    both inclusions checked over Z by integer solvability."""
    rel_next = next_node.relations
    # image of the composite must die in the next group
    if solve_matrix(rel_next, outgoing @ incoming) is None:
        return False
    # kernel subgroup: x with outgoing(x) in im(rel_next)
    kb = kernel_basis(outgoing.hstack(rel_next))
    proj = kb.submatrix(range(outgoing.cols), range(kb.cols))
    return solve_matrix(incoming.hstack(node.relations), proj) is not None


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
    At the chain level the first map kills hat generators and projects check
    generators, the second is induced by psi, the third includes into the
    hat block."""
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

    h_cone = {d: homology_basis(cone, d) for d in range(dlo, dhi + 1)}
    h_base = {d: homology_basis(C, d) for d in range(dlo - 2, dhi + 1)}

    def proj_matrix(d: int) -> IntMatrix:
        # Cone_d -> C_d : kill hats, project checks
        nh = C.rank(d - 1)
        nc = C.rank(d)
        rows = [[0] * nh + [1 if j == i else 0 for j in range(nc)] for i in range(nc)]
        return IntMatrix.from_rows(rows, cols=nh + nc)

    def incl_matrix(d: int) -> IntMatrix:
        # C_{d-2} -> Cone_{d-1} : include into the hat block
        nh = C.rank(d - 2)
        nc = C.rank(d - 1)
        rows = [[1 if j == i else 0 for j in range(nh)] for i in range(nh)]
        rows += [[0] * nh for _ in range(nc)]
        return IntMatrix.from_rows(rows, cols=nh)

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
    incoming and an outgoing map."""
    results = tuple((les.nodes[i].label,
                     exact_at(les.maps[i - 1], les.nodes[i].data,
                              les.maps[i], les.nodes[i + 1].data))
                    for i in range(1, len(les.nodes) - 1))
    return ExactnessReport(all(good for _, good in results), results)
