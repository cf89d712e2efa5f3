"""Graded chain complexes of free Z-modules, chain maps, mapping cones,
homology and the long exact sequence of a cone, with exactness verified
over Z.

`LazyHomology` is the one homology routine: it reads a complex given by its
boundary in each degree one degree at a time, and every homology group or
cycle basis in the package comes from it; `LazyCone` adds a degree -2 self
map, its cone and the three maps of the cone's sequence on homology, which
the sequence reads, all keyed by the residue of the degree modulo a period.
The projection onto the checks and the inclusion of the hats re-index the
rows of a cycle basis; they are never built as matrices.  A finite complex
has a window (lo, hi) of degrees; the cone's sequence at d reads the base
in d-3..d+1, so `cone_les` reaches lo+3..hi-1.  `verify_exactness` decides
each node once per distinct tuple of the objects it reads, so a periodic
sequence is checked for the cost of one period.

`exact_at` has no caller in the package: it is the per-node reference, with
eliminations of its own, that the tests and
`scripts/random_exactness_sweep.py` compare `verify_exactness` with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import DegreeOutOfRange, NotAChainMap, NotAComplex
from .exactlin import IntMatrix, ZModulePresentation, _Elimination, solve_matrix


def _degree_range(degrees: tuple[int, int]) -> tuple[int, int]:
    """(lo, hi), or DegreeOutOfRange naming the range when it is empty."""
    lo, hi = degrees
    if lo > hi:
        raise DegreeOutOfRange(f"empty degree range ({lo}, {hi})")
    return lo, hi


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
        lo, hi = _degree_range(self.degrees)
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

def _check_cone_map(psi: ChainMap) -> None:
    if psi.source is not psi.target and psi.source != psi.target:
        raise NotAChainMap("cone needs an endomorphism")
    if psi.shift != -2:
        raise NotAChainMap(f"cone needs a degree -2 map, got {psi.shift}")
    psi.check()


def _cone_boundary(d_below: IntMatrix, psi_d: IntMatrix, d_d: IntMatrix) -> IntMatrix:
    """Cone_d -> Cone_{d-1} from the base's d_{d-1}, psi_d and d_d: blocks
    [[-d_{d-1}, psi_d], [0, d_d]] on the hats (C_{d-1}) and checks (C_d)."""
    off = d_below.rows                  # the hat rows come first
    hats = tuple({i: -x for i, x in col.items()} for col in d_below.columns)
    checks = tuple({**top, **{off + i: x for i, x in bottom.items()}}
                   for top, bottom in zip(psi_d.columns, d_d.columns))
    return IntMatrix(off + d_d.rows, d_below.cols + d_d.cols, hats + checks)


# ---------------------------------------------------------------------------
# Homology, on cycle bases or from invariant factors alone; induced maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyBasis:
    """A homology group presented on the columns of `cycles` (a basis of
    the cycle lattice, a direct summand of the chains) modulo the relation
    coordinates `relations`.  `coords` writes a cycle in that basis:
    coords @ cycles = I, so coords @ z are the coordinates of any cycle z,
    and relations = coords @ (incoming boundary)."""

    cycles: IntMatrix       # chain coordinates of the chosen cycle basis
    coords: IntMatrix       # left inverse of `cycles`
    relations: IntMatrix    # boundary images written in that basis
    presentation: ZModulePresentation


class _Memo:
    """build(d) on first use, kept per residue of d modulo `period` (0: per d)."""

    def __init__(self, build: Callable[[int], IntMatrix], period: int):
        self._build, self._period, self._values = build, period, {}

    def __call__(self, d: int) -> IntMatrix:
        if self._period:
            d %= self._period
        if d not in self._values:
            self._values[d] = self._build(d)
        return self._values[d]


class LazyHomology:
    """H_d of the complex with boundary(d) : C_d -> C_{d-1}, built on first
    use.  With r_k the rank of boundary(k), H_d = Z^(n_d - r_d - r_{d+1})
    plus Z_t for every invariant factor t >= 2 of boundary(d+1), since
    ker boundary(d) is a direct summand of C_d.

    `group(d)` reads only those invariant factors (`factors`), off the
    elimination of each of the two boundaries; a zero boundary has none and
    is not eliminated.  `basis(d)` presents H_d on a cycle basis K with
    coordinates C (C K = I), both read off the elimination of boundary(d),
    and relations X = C boundary(d+1).  Each boundary is built once and
    eliminated at most once, and that one elimination serves the torsion
    of H_{d-1}, the rank in both groups and the cycles of H_d.  A complex
    whose boundaries repeat with a `period` is built and read at
    `residue(d)`, d modulo the period (period 0: d itself)."""

    def __init__(self, boundary: Callable[[int], IntMatrix], period: int = 0):
        self.boundary = _Memo(boundary, period)
        self.period = period
        self._eliminations: dict[int, _Elimination] = {}
        self._groups: dict[int, ZModulePresentation] = {}
        self._bases: dict[int, HomologyBasis] = {}

    def residue(self, d: int) -> int:
        return d % self.period if self.period else d

    def _elimination(self, d: int) -> _Elimination:
        d = self.residue(d)
        if d not in self._eliminations:
            self._eliminations[d] = _Elimination(self.boundary(d))
        return self._eliminations[d]

    def factors(self, d: int) -> tuple[int, ...]:
        """The invariant factors of boundary(d), ones included."""
        if not any(self.boundary(d).columns):
            return ()
        return self._elimination(d).invariant_factors()

    def rank_mod(self, d: int, p: int) -> int:
        """The rank of boundary(d) over F_p: its invariant factors prime to p."""
        return sum(1 for t in self.factors(d) if t % p)

    def group(self, d: int) -> ZModulePresentation:
        d = self.residue(d)
        if d not in self._groups:
            d_out = self.boundary(d)
            if not (d_out @ self.boundary(d + 1)).is_zero():
                raise NotAComplex(f"d_{d} . d_{d + 1} != 0")
            out, inc = self.factors(d), self.factors(d + 1)
            self._groups[d] = ZModulePresentation(d_out.cols - len(out) - len(inc),
                                                  tuple(t for t in inc if t >= 2))
        return self._groups[d]

    def basis(self, d: int) -> HomologyBasis:
        d = self.residue(d)
        if d not in self._bases:
            d_in = self.boundary(d + 1)
            K, C = self._elimination(d).kernel()
            # K X = d_in, as im(d_in) lies in ker boundary(d)
            self._bases[d] = HomologyBasis(K, C, C @ d_in, self.group(d))
        return self._bases[d]


def induced_matrix(phi: IntMatrix, src: HomologyBasis, tgt: HomologyBasis) -> IntMatrix:
    """Coordinates of phi(cycle basis of src) in the cycle basis of tgt (see
    `_in_cycles`)."""
    return _in_cycles(phi @ src.cycles, tgt)


def _in_cycles(images: IntMatrix, tgt: HomologyBasis) -> IntMatrix:
    """The coordinates Y of the columns of `images` in the cycle basis of
    tgt, read off by `tgt.coords`.  The columns must be cycles (true for the
    image of a cycle under a chain map), which holds exactly when
    tgt.cycles @ Y rebuilds them."""
    Y = tgt.coords @ images
    if tgt.cycles @ Y != images:
        raise NotAChainMap("image of a cycle is not a cycle")
    return Y


class LazyCone(LazyHomology):
    """A complex with a degree -2 self chain map psi(d) : C_d -> C_{d-2}, psi
    repeating with the boundaries: its homology, `psi`, the `LazyHomology`
    of the cone of psi and the three maps of the cone's sequence on
    homology, `projection_induced`, `psi_induced` and `inclusion_induced`,
    each built on first use and keyed by `residue(d)`."""

    def __init__(self, boundary: Callable[[int], IntMatrix],
                 psi: Callable[[int], IntMatrix], period: int = 0):
        super().__init__(boundary, period)
        self.psi = psi = _Memo(psi, period)
        self._induced: dict[tuple[str, int], IntMatrix] = {}
        boundary = self.boundary
        # the cone reads the memos and not self: a reference cycle would keep
        # every dead LazyCone, with its eliminations, for the cyclic collector
        self.cone = LazyHomology(lambda d: _cone_boundary(boundary(d - 1), psi(d),
                                                          boundary(d)), period)

    def _induced_at(self, kind: str, d: int, build: Callable[[], IntMatrix]) -> IntMatrix:
        key = kind, self.residue(d)
        if key not in self._induced:
            self._induced[key] = build()
        return self._induced[key]

    def psi_induced(self, d: int) -> IntMatrix:
        """psi(d) on homology, from the cycle basis at d to the one at d-2."""
        return self._induced_at("psi", d, lambda: induced_matrix(
            self.psi(d), self.basis(d), self.basis(d - 2)))

    def projection_induced(self, d: int) -> IntMatrix:
        """H_d(Cone) -> H_d(C), the projection onto the checks: the rows of
        the cone's cycles below its n1 = rank C_{d-1} hat rows."""
        def build() -> IntMatrix:
            cycles, n1 = self.cone.basis(d).cycles, self.boundary(d).rows
            return _in_cycles(cycles.submatrix(range(n1, cycles.rows), range(cycles.cols)),
                              self.basis(d))
        return self._induced_at("projection", d, build)

    def inclusion_induced(self, d: int) -> IntMatrix:
        """H_{d-2}(C) -> H_{d-1}(Cone), the inclusion as hats: the cycles of
        C_{d-2}, which are the cone's first rows, with the rank C_{d-1}
        check rows below them zero."""
        def build() -> IntMatrix:
            cycles = self.basis(d - 2).cycles
            return _in_cycles(IntMatrix(cycles.rows + self.boundary(d).rows, cycles.cols,
                                        cycles.columns), self.cone.basis(d - 1))
        return self._induced_at("inclusion", d, build)


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
    return _preimage_in_span(outgoing, rel_next, lambda: incoming.hstack(node.relations))


def _preimage_in_span(f: IntMatrix, R: IntMatrix, S: Callable[[], IntMatrix]) -> bool:
    """Every integer x with f x in colspan(R) lies in colspan(S()); S is
    called only if some such x is not zero."""
    return _kernel_part_in_span(_Elimination(f.hstack(R)), f.cols, lambda: _Elimination(S()))


def _kernel_part_in_span(fR: _Elimination, n: int,
                         S: Callable[[], _Elimination]) -> bool:
    """The first n coordinates of each kernel basis vector of the matrix
    that `fR` eliminated, [f | R] with f of n columns, are solved against
    the matrix that S() eliminates; S is called only if one is nonzero."""
    parts = [p for p in ({i: x for i, x in col.items() if i < n}
                         for col in fR.kernel_columns()) if p]
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


def cone_les(psi: ChainMap, degrees: Optional[tuple[int, int]] = None,
             label_cone: str = "Cone", label_base: str = "C") -> LongExactSequence:
    """The helix ... -> H_d(Cone) -> H_d(C) -> H_{d-2}(C) -> H_{d-1}(Cone) -> ...
    of a degree -2 self chain map psi, checked here, on `degrees` (by default
    all that its window (lo, hi) reaches, lo+3..hi-1), built by `_cone_les`."""
    _check_cone_map(psi)
    lo, hi = psi.source.degrees
    dlo, dhi = _degree_range((lo + 3, hi - 1) if degrees is None else degrees)
    if dlo < lo + 3 or dhi > hi - 1:
        raise DegreeOutOfRange(
            f"need degrees within [{lo + 3}, {hi - 1}], got {degrees}")
    return _cone_les(LazyCone(psi.source.boundary_at, psi.at), (dlo, dhi),
                     label_cone, label_base)


def _cone_les(base: LazyCone, degrees: tuple[int, int], label_cone: str,
              label_base: str) -> LongExactSequence:
    """The cone sequence of `base` on degrees dlo..dhi, read one degree at a
    time; its maps project onto the checks, apply psi and include as hats,
    each read off `base` at the residue of d, so a periodic base repeats
    the same node data and map objects with its period."""
    cone, (dlo, dhi) = base.cone, degrees
    nodes: list[LESNode] = []
    maps: list[IntMatrix] = []
    for d in range(dhi, dlo - 1, -1):
        nodes.append(LESNode(f"{label_cone}_{d}", cone.basis(d)))
        maps.append(base.projection_induced(d))
        nodes.append(LESNode(f"{label_base}_{d}", base.basis(d)))
        maps.append(base.psi_induced(d))
        nodes.append(LESNode(f"{label_base}_{d-2}", base.basis(d - 2)))
        if d > dlo:
            maps.append(base.inclusion_induced(d))
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
    it.  A node without cycle coordinates (maps[j].cols == 0) has an empty
    kernel part and needs no M_j.  The verdict and M_j depend on their
    matrices only, which live as long as `les`, so each is decided once per
    distinct (by identity) tuple of them: a periodic sequence repeats its
    objects, and its check costs one period."""
    nodes, maps = les.nodes, les.maps
    joined: dict[tuple[int, int], _Elimination] = {}
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def M(j: int) -> _Elimination:
        key = id(maps[j]), id(nodes[j + 1].data)
        if key not in joined:
            joined[key] = _Elimination(maps[j].hstack(nodes[j + 1].data.relations))
        return joined[key]

    def exact(i: int) -> bool:
        f = maps[i]
        return (solve_matrix(nodes[i + 1].data.relations, f @ maps[i - 1]) is not None
                and (not f.cols or _kernel_part_in_span(M(i), f.cols, lambda: M(i - 1))))

    results = []
    for i in range(1, len(nodes) - 1):
        key = id(maps[i - 1]), id(nodes[i].data), id(maps[i]), id(nodes[i + 1].data)
        if key not in verdicts:
            verdicts[key] = exact(i)
        results.append((nodes[i].label, verdicts[key]))
    return ExactnessReport(all(good for _, good in results), tuple(results))
