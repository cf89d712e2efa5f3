"""The Rabinowitz Floer pipeline.

Generators carry a base critical point, a covering number l of the fiber
Reeb orbit, a sphere class k, and a max/min flag.  All of their invariants
are exact:

    winding        w        = l - m*k*nu
    Lagrange mult. eta      = -l/m
    index (min)    mu       = fh_degree(morse_index, k) - 2w
    index (max)    mu + 1
    action         A        = -k*nu - (tau/m)*l

with fh_degree the degree of (q, k) in the base, the one site of the
grading convention (`BaseModel.fh_degree`).

The zero-winding complex is the cone of the cap chain map under the
relabeling l = m*k*nu.  Every entry point reads the base, the cap and that
cone through one lazy `_SectorData` per (model, m); the transfer and
projection are diagonal on the cone, and `oracles.rfc_w0` assembles it
from the generators as an oracle.  The full boundary splits as d0 + d1 + d2
where d0 raises the covering number inside a fiber, d1 is the Morse part,
and d2 is the cap part with its sphere-class shift.  The full homology is
computed through the structural short exact sequence 0 -> sum -> sum ->
RFH -> 0 with the middle map id + cap-shift, never by diagonalizing the
literal infinite complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, Mapping, NamedTuple, Optional

from .basemodel import BaseModel
from .chaincplx import (LazyCone, LongExactSequence, _cone_boundary, _cone_les,
                        _degree_range)
from .errors import (ConsecutiveIndexModel, EmptyWindow, NonPositiveTau, NotAChainMap,
                     TruncationTooNarrow, UnstabilizedTruncation)
from .exactlin import (IntMatrix, ZModulePresentation, presentation_from_relations,
                       rank_mod_p, solve_matrix)
from .novikov import CompletionRegime, regime_for


# ---------------------------------------------------------------------------
# Generators and their exact invariants
# ---------------------------------------------------------------------------

class RFHGenerator(NamedTuple):
    """A generator of the full complex: the critical point (`label`,
    `morse_index`), the covering number `cov` = l of the fiber orbit, the
    sphere class `k`, and `hat` for the max of the fiberwise Morse function
    (the min, "check", otherwise).

    A named tuple: immutable, hashable, and ordered field by field in that
    order.  It equals the plain 5-tuple of its fields.  The engine builds
    it as `tuple.__new__(RFHGenerator, fields)`, which is what the class
    call does, without the call's Python frame."""

    label: str
    morse_index: int
    cov: int          # covering number l of the fiber orbit
    k: int            # sphere class coordinate
    hat: bool         # max (hat) or min (check) of the fiberwise Morse function

    def __str__(self) -> str:
        mark = "^" if self.hat else "v"
        return f"{mark}({self.label}, l={self.cov}, k={self.k})"


def winding(gen: RFHGenerator, model: BaseModel, m: int) -> int:
    return gen.cov - m * gen.k * model.nu


def fh_index(gen: RFHGenerator, model: BaseModel) -> int:
    """Index of the projected generator in the base."""
    return model.fh_degree(gen.morse_index, gen.k)


def rfh_index(gen: RFHGenerator, model: BaseModel, m: int) -> int:
    return fh_index(gen, model) - 2 * winding(gen, model, m) + gen.hat


def action(gen: RFHGenerator, model: BaseModel, m: int, tau: Fraction) -> Fraction:
    return -Fraction(gen.k * model.nu) - Fraction(tau, m) * gen.cov


def base_action(gen: RFHGenerator, model: BaseModel) -> Fraction:
    """Action of the projected generator (f-values normalized to 0)."""
    return -Fraction(gen.k * model.nu)


def _lattice_points(strips: list[tuple[int, int, Optional[int], Optional[int]]]
                    ) -> list[tuple[int, int]]:
    """Integer points (k, l) with lo <= a*k + b*l <= hi on every strip
    (a, b, lo, hi), a bound of None being infinite.  Eliminating l
    (Fourier-Motzkin) gives the range of k, then each k gets its interval of
    l.  Raises TruncationTooNarrow when the region is unbounded."""
    k_lo: Optional[int] = None
    k_hi: Optional[int] = None
    lower, upper = [], []     # (a, b, c) with b > 0: l >= or <= (c - a*k) / b
    for a, b, lo, hi in strips:
        if b < 0 or (b == 0 and a < 0):
            a, b, lo, hi = -a, -b, (None if hi is None else -hi), (None if lo is None else -lo)
        if b > 0:
            if lo is not None:
                lower.append((a, b, lo))
            if hi is not None:
                upper.append((a, b, hi))
        elif a == 0:
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return []
        else:
            if lo is not None:
                k_lo = -(-lo // a) if k_lo is None else max(k_lo, -(-lo // a))
            if hi is not None:
                k_hi = hi // a if k_hi is None else min(k_hi, hi // a)
    for a1, b1, lo in lower:
        for a2, b2, hi in upper:
            # (lo - a1*k)/b1 <= (hi - a2*k)/b2  <=>  coef*k <= rhs
            coef, rhs = a2 * b1 - a1 * b2, hi * b1 - lo * b2
            if coef > 0:
                k_hi = rhs // coef if k_hi is None else min(k_hi, rhs // coef)
            elif coef < 0:
                bound = -(rhs // -coef)
                k_lo = bound if k_lo is None else max(k_lo, bound)
            elif rhs < 0:
                return []
    if k_lo is not None and k_hi is not None and k_lo > k_hi:
        return []
    if k_lo is None or k_hi is None or not lower or not upper:
        raise TruncationTooNarrow(
            "the constraints leave infinitely many generators; add a winding "
            "filter, a finite window (off the regime boundary), a degree range, "
            "or k/l truncations")
    return [(k, l) for k in range(k_lo, k_hi + 1)
            for l in range(max(-((a * k - c) // b) for a, b, c in lower),
                           min((c - a * k) // b for a, b, c in upper) + 1)]


def enumerate_generators(model: BaseModel, m: int, tau: Fraction, *,
                         window: Optional[tuple[Fraction, Fraction]] = None,
                         winding_filter: Optional[int] = None,
                         degrees: Optional[tuple[int, int]] = None,
                         k_bound: Optional[int] = None,
                         l_bound: Optional[int] = None) -> list[RFHGenerator]:
    """All generators satisfying the given constraints, one hat and one
    check per circle family, in (degree, k, l, flag, critical point) order.

    Each constraint is a strip lo <= a*k + b*l <= hi in the (k, l) plane:
    the winding filter, the action window, the degree range, |k| <= k_bound,
    |l| <= l_bound and, over an aspherical base, k = 0.  Each strip is
    exact on integer points, so no generator is filtered afterwards.  The
    strips must cut out a bounded region for every critical point and flag,
    or TruncationTooNarrow is raised; at the regime boundary, for example,
    a degree range and an action window are parallel strips."""
    tau = Fraction(tau)
    if tau <= 0:
        raise NonPositiveTau(f"tau = {tau} must be positive")
    if window is not None:
        a, b = window
        if a is not None and b is not None and not a < b:
            raise EmptyWindow(f"window ({a}, {b}) is empty")

    nu = model.nu
    strips: list[tuple[int, int, Optional[int], Optional[int]]] = []
    if winding_filter is not None:
        strips.append((-m * nu, 1, winding_filter, winding_filter))
    if window is not None:
        # a < -k*nu - (tau/m)*l < b, times s = m*den(tau), on integer bounds
        s = m * tau.denominator
        strips.append((-s * nu, -tau.numerator,
                       None if a is None else math.floor(s * a) + 1,
                       None if b is None else math.ceil(s * b) - 1))
    if k_bound is not None:
        strips.append((1, 0, -k_bound, k_bound))
    if l_bound is not None:
        strips.append((0, 1, -l_bound, l_bound))
    if model.aspherical:
        strips.append((1, 0, 0, 0))

    # index = slope*k - 2l + c, c = base degree at k = 0 + hat
    slope = -2 * (model.lambda_nu - m * nu)
    new = tuple.__new__
    keyed = []
    for pos, (label, idx) in enumerate(model.crit):
        for hat in (False, True):
            c = model.fh_degree(idx, 0) + hat
            fam = strips if degrees is None else strips + [
                (slope, -2, degrees[0] - c, degrees[1] - c)]
            keyed += [(slope * k - 2 * l + c, k, l, hat, pos,
                       new(RFHGenerator, (label, idx, l, k, hat)))
                      for k, l in _lattice_points(fam)]
    # the first five entries are unique, so generators are never compared
    keyed.sort()
    return [t[5] for t in keyed]


# ---------------------------------------------------------------------------
# Zero-winding complex and Gysin sequence
# ---------------------------------------------------------------------------

def rfh_w0_table(model: BaseModel, m: int, tau: Fraction,
                 degrees: tuple[int, int]) -> dict[int, ZModulePresentation]:
    """RFH^w0_d on lo..hi, the homology of the lazy cone of the cap, read at
    the residue of d (the cone repeats with the base, see `_SectorData`);
    criterion 9 compares it with the generator-level `oracles.rfc_w0`.  It
    does not depend on the radius, so `tau` is ignored."""
    lo, hi = _degree_range(degrees)
    cone = _SectorData(model, m).cone
    return {d: cone.group(d) for d in range(lo, hi + 1)}


def gysin(model: BaseModel, m: int, degrees: tuple[int, int]) -> LongExactSequence:
    """The Floer Gysin sequence ... -> RFH^w0_d -> FH_d -> FH_{d-2} -> RFH^w0_{d-1}
    -> ... on `degrees`: the cone sequence of the cap over `_SectorData`
    (`BaseModel.cap_terms` checked the cap as a chain map)."""
    return _cone_les(_SectorData(model, m), _degree_range(degrees), "RFH^w0", "FH")


# ---------------------------------------------------------------------------
# Full boundary operator and the explicit primitives
# ---------------------------------------------------------------------------

def _require_index_gaps(model: BaseModel) -> None:
    if not model.index_gaps:
        raise ConsecutiveIndexModel(
            f"model {model.name} has critical points of consecutive Morse index")


def boundary_full(gen: RFHGenerator, model: BaseModel, m: int) -> dict[RFHGenerator, int]:
    """d = d0 + d1 + d2 on a generator: d0 raises the covering number of a
    check, d1 vanishes (no consecutive Morse indices), and d2 is the cap
    term with its sphere-class and fiber shift.  Hats are cycles."""
    if not model.index_gaps:
        _require_index_gaps(model)
    label, idx, cov, k, hat = gen
    if hat:
        return {}
    new = tuple.__new__
    # d0
    out = {new(RFHGenerator, (label, idx, cov + 1, k, True)): 1}
    # d2
    shift = m * model.nu
    for tlab, tidx, s, c in model.cap_terms[label]:
        t = new(RFHGenerator, (tlab, tidx, cov + shift * s, k + s, True))
        out[t] = out.get(t, 0) + m * c
    if 0 in out.values():
        return {g: c for g, c in out.items() if c}
    return out


def boundary_full_chain(chain: Mapping[RFHGenerator, int], model: BaseModel,
                        m: int) -> dict[RFHGenerator, int]:
    """d on a chain, in one pass: each check adds its d0 term and its d2
    terms (as in `boundary_full`) to one sum, and hats are skipped.  A
    non-empty chain needs index gaps, even if it holds only hats."""
    if not chain:
        return {}
    if not model.index_gaps:
        _require_index_gaps(model)
    new = tuple.__new__
    caps = model.cap_terms
    shift = m * model.nu
    out: dict[RFHGenerator, int] = {}
    get = out.get
    for (label, idx, cov, k, hat), c in chain.items():
        if hat:
            continue
        t = new(RFHGenerator, (label, idx, cov + 1, k, True))
        out[t] = get(t, 0) + c
        mc = m * c
        for tlab, tidx, s, ct in caps[label]:
            t = new(RFHGenerator, (tlab, tidx, cov + shift * s, k + s, True))
            out[t] = get(t, 0) + mc * ct
    if 0 in out.values():
        return {g: c for g, c in out.items() if c}
    return out


def _cap_monomial(model: BaseModel, m: int):
    """For permutation-pattern caps: maps source label -> (target label,
    sphere shift, coefficient), and the inverse."""
    fwd: dict[str, tuple[str, int, int]] = {}
    inv: dict[str, tuple[str, int, int]] = {}
    for src, _ in model.crit:
        terms = model.cap_terms[src]
        if len(terms) != 1 or terms[0][0] in inv:
            raise UnstabilizedTruncation(
                "explicit primitives need a permutation-pattern cap")
        tgt, _, s, c = terms[0]
        fwd[src] = (tgt, s, m * c)
        inv[tgt] = (src, s, m * c)
    return fwd, inv


def primitive_partial_sum(model: BaseModel, m: int, target: RFHGenerator,
                          n_terms: int, direction: str = "lower") -> dict[RFHGenerator, int]:
    """First n_terms of the explicit primitive of a hat cycle.  In the
    "lower" direction each residual is cancelled through its d0-preimage
    (valid in the low-radius regimes for any m); in the "upper" direction
    through its d2-preimage (integral only for m = 1)."""
    _require_index_gaps(model)
    if not target.hat:
        raise ValueError("primitives are built for hat generators")
    fwd, inv = _cap_monomial(model, m)
    idx_of = model.index_of
    shift = m * model.nu
    new = tuple.__new__
    x: dict[RFHGenerator, int] = {}
    need: tuple[RFHGenerator, int] = (target, 1)
    for _ in range(n_terms):
        h, c = need
        if direction == "lower":
            p = new(RFHGenerator, (h.label, h.morse_index, h.cov - 1, h.k, False))
            x[p] = x.get(p, 0) + c
            t, s, cc = fwd[p.label]
            extra = new(RFHGenerator, (t, idx_of[t], p.cov + shift * s, p.k + s, True))
            need = (extra, -c * cc)
        elif direction == "upper":
            j, s, cc = inv[h.label]
            if abs(cc) != 1:
                raise UnstabilizedTruncation(
                    "upper-direction primitives need unit cap coefficients (m = 1)")
            p = new(RFHGenerator, (j, idx_of[j], h.cov - shift * s, h.k - s, False))
            x[p] = x.get(p, 0) + c * cc
            extra = new(RFHGenerator, (p.label, p.morse_index, p.cov + 1, p.k, True))
            need = (extra, -c * cc)
        else:
            raise ValueError(f"unknown direction {direction!r}")
    return x


# ---------------------------------------------------------------------------
# Full Rabinowitz Floer homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupValue:
    kind: str                                   # zero | presentation | qm | qm_tilde | relations
    presentation: Optional[ZModulePresentation] = None
    m: Optional[int] = None
    relations: Optional[dict] = None

    @classmethod
    def zero(cls) -> "GroupValue":
        return cls("zero")

    @classmethod
    def of(cls, p: ZModulePresentation) -> "GroupValue":
        return cls("zero") if p.is_zero() else cls("presentation", presentation=p)

    @classmethod
    def qm(cls, m: int) -> "GroupValue":
        return cls("qm", m=m)

    @classmethod
    def qm_tilde(cls, m: int) -> "GroupValue":
        return cls("qm_tilde", m=m)

    @classmethod
    def relations_form(cls, desc: dict) -> "GroupValue":
        return cls("relations", relations=desc)

    def to_json(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "presentation":
            return {"free": self.presentation.free_rank,
                    "torsion": list(self.presentation.torsion)}
        if self.kind == "qm":
            return {"Qm": self.m}
        if self.kind == "qm_tilde":
            return {"QmTilde": self.m}
        return {"relations": self.relations}

    def render(self, coeff: str = "z") -> str:
        """Text form; with field coefficients fp:<p> a free rank n reads F^n."""
        if self.kind == "zero":
            return "0"
        if self.kind == "presentation":
            free = self.presentation.free_rank
            if coeff.startswith("fp:"):
                return "0" if free == 0 else ("F" if free == 1 else f"F^{free}")
            return str(self.presentation)
        if self.kind == "qm":
            return f"Q_{self.m}"
        if self.kind == "qm_tilde":
            return f"Q~_{self.m}"
        return "relations(see json)"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class FullRFHResult:
    model: str
    m: int
    tau: Fraction
    regime: CompletionRegime
    coeff: str
    table: dict[int, GroupValue]

    def to_json(self) -> dict:
        return {
            "model": self.model, "m": self.m, "tau": str(self.tau),
            "regime": self.regime.value, "coeff": self.coeff,
            "table": [{"degree": d, "group": self.table[d].to_json()}
                      for d in sorted(self.table)],
        }


class _SectorData(LazyCone):
    """The base of `model` with the cap at m as its degree -2 map: the
    `LazyCone` whose cone is the zero-winding complex RFH^w0.  Over a
    monotone base the generator (q, k) sits in degree
    mu - dim/2 - 2*lambda*nu*k, so k -> k + 1 is a chain isomorphism
    C_e = C_{e - 2*lambda*nu} that keeps the order of the generators and
    carries the cap along: `boundary_at` and `cap_at` are the same matrices
    at e and e + `period`, period = |2*lambda*nu|, and everything is built
    once per residue of e; an aspherical base (period 0) keys it by e."""

    def __init__(self, model: BaseModel, m: int):
        super().__init__(model.boundary_at, lambda e: model.cap_at(e, m),
                         abs(2 * model.lambda_nu))
        self.model, self.m = model, m

    def cap_nilpotent(self) -> bool:
        """Whether the cap over the Novikov ring is nilpotent, over Z.  The
        keys of `BaseModel.degree_classes` are a degree of each residue that
        holds a generator, once, and psi there is the cap's block from those
        generators: the cap's i-th power vanishes exactly when psi^i from
        every key does, which happens for some i up to the number of
        critical points if at all.  A cap that dies mod p only is left to
        the field rule of `full_rfh`, whose power of psi is then zero mod p."""
        n = len(self.model.crit)
        return all(any(f.is_zero() for f in islice(_psi_powers(self, e), n + 1))
                   for e in self.model.degree_classes)

    def cap_unimodular(self) -> bool:
        """Whether the cap is invertible over Z: its block psi from each key
        of `BaseModel.degree_classes` is square with zero cokernel (an empty
        C_{e-2} makes it not square)."""
        return all(M.is_square() and presentation_from_relations(M.rows, M).is_zero()
                   for M in map(self.psi, self.model.degree_classes))


def _psi_powers(sect: LazyCone, e: int) -> Iterator[IntMatrix]:
    """psi^0 = I, psi^1, psi^2, ... from C_e, psi^i : C_e -> C_{e-2i} made
    from psi^(i-1) by one more psi."""
    f = IntMatrix.identity(sect.psi(e).cols)
    for i in count():
        yield f
        f = sect.psi(e - 2 * i) @ f


def _field_quotient_dim(sect: LazyCone, e: int, b: int, p: int) -> int:
    """dim over F_p of FH_e / ker(psi^b) = rank of the induced psi^b.  With
    f = psi^b : C_e -> C_t (t = e - 2b) a chain map, that rank is
    rank_p [[-d_{t+1}, f], [0, d_e]] - rank_p d_{t+1} - rank_p d_e, the
    block being the cone boundary of f (negated columns keep the rank)."""
    f = next(islice(_psi_powers(sect, e), b, None))
    return (rank_mod_p(_cone_boundary(sect.boundary(e - 2 * b + 1), f, sect.boundary(e)), p)
            - sect.rank_mod(e - 2 * b + 1, p) - sect.rank_mod(e, p))


def parse_coeff(coeff: str) -> Optional[int]:
    """The coefficients "z" (None) or "fp:<p>" (the prime p), in any case;
    any other spec raises ValueError."""
    spec = coeff.lower()
    p = spec[3:]
    if spec == "z":
        return None
    if spec.startswith("fp:") and p.isdecimal() and int(p) >= 2 and all(
            int(p) % q for q in range(2, math.isqrt(int(p)) + 1)):
        return int(p)
    raise ValueError(f"coefficients must be z or fp:<prime>, got {coeff!r}")


def _regime(model: BaseModel, m: int, tau: Fraction) -> CompletionRegime:
    """The completion regime of the sum of base homologies: an aspherical
    base has the single sphere class 0, so its sum is finite."""
    return (CompletionRegime.FINITE if model.aspherical
            else regime_for(tau, model.lam, m))


def full_rfh(model: BaseModel, m: int, tau: Fraction,
             degrees: tuple[int, int], coeff: str = "z") -> FullRFHResult:
    """Per-degree full Rabinowitz Floer homology through the short exact
    sequence with middle map id + cap-shift on the regime-completed sum of
    base homologies.  A nilpotent cap makes id + cap-shift unipotent, so
    every cell is 0.  That decides every aspherical base: its cap lowers
    the Morse index by 2 (see `BaseModel.cap_terms`), so it is nilpotent.
    Nilpotency and unimodularity are read off psi of `_SectorData`, once
    per call and only when the regime leaves the cells open.  The sectors
    of the cell at d repeat with the residue of d + 1 modulo the period of
    `_SectorData`, so each residue is decided once; a `relations` cell
    names the degrees of its sectors and is built for each d."""
    tau = Fraction(tau)
    field = parse_coeff(coeff)
    regime = _regime(model, m, tau)
    dlo, dhi = _degree_range(degrees)
    model.cap_terms   # a bad cap is an error in every regime, read or not
    period = model.c_min
    sect = _SectorData(model, m)
    # these cases make every cell 0, whatever its degree.  A nilpotent cap:
    # every class reduces to zero through x ~ -cap(x)
    all_zero = (regime == CompletionRegime.ALL_LOWER or sect.cap_nilpotent()
                or regime == CompletionRegime.ALL_UPPER
                and (field is not None or sect.cap_unimodular()))

    def value_for(d: int) -> GroupValue:
        star = d + 1
        # a monotone base with a cap that is not nilpotent
        groups = {k: sect.group(star + 2 * k) for k in range(period)}
        if any(g.is_zero() for g in groups.values()):
            # a zero sector in the period chops every relation chain
            return GroupValue.zero()
        if field is not None:
            # ALL_LOWER and ALL_UPPER have returned, so the regime is FINITE:
            # dim FH_star / ker(psi^b) over F_p for a b at which ker psi^b is
            # stable.  psi acts on one period of F_p homology, of dimension
            # B <= len(crit) (a period holds each critical point once), and
            # by Fitting's lemma ker psi^b is stable for every b >= B
            return GroupValue.of(ZModulePresentation(
                _field_quotient_dim(sect, star, len(model.crit), field), ()))
        # pattern detection: rank-one torsion-free sectors, cap = +-m
        pattern = True
        for k in range(period):
            g = groups[k]
            if g.free_rank != 1 or g.torsion:
                pattern = False
                break
            M = sect.psi_induced(star + 2 * k)
            if (M.rows, M.cols) != (1, 1) or abs(M.get(0, 0)) != m:
                pattern = False
                break
        if pattern:
            if regime == CompletionRegime.FINITE:
                return GroupValue.of(ZModulePresentation(1, ())) if m == 1 \
                    else GroupValue.qm_tilde(m)
            # upper regime: a unit chain is an isomorphism, so only m >= 2
            # leaves anything behind
            return GroupValue.zero() if m == 1 else GroupValue.qm(m)
        desc = {
            "note": "cokernel of id + cap-shift on the regime-completed sum",
            "regime": regime.value,
            "period": period,
            "sectors": [{"degree": star + 2 * k,
                         "group": GroupValue.of(groups[k]).to_json(),
                         "cap_to_previous": sect.psi_induced(star + 2 * k).to_lists()}
                        for k in range(period)],
        }
        return GroupValue.relations_form(desc)

    cells: dict[int, GroupValue] = {}

    def cell(d: int) -> GroupValue:
        r = sect.residue(d + 1)
        if r in cells:
            return cells[r]
        v = value_for(d)
        if v.kind != "relations":
            cells[r] = v
        return v

    table = {d: GroupValue.zero() if all_zero else cell(d) for d in range(dlo, dhi + 1)}
    return FullRFHResult(model.name, m, tau, regime,
                         "z" if field is None else f"fp:{field}", table)


# ---------------------------------------------------------------------------
# Injectivity of id + cap-shift
# ---------------------------------------------------------------------------

def delta_injectivity(model: BaseModel, m: int, tau: Fraction,
                      k_range: int, degrees: tuple[int, int]) -> dict:
    """Whether id + cap-shift has trivial kernel on the completed sum of
    base homologies and on its truncations |k| <= k_range, per degree, with
    the `reason`.  It does in every regime once the induced cap psi is well
    defined on homology, so that hypothesis is what is checked, once per
    key of `BaseModel.degree_classes` (one period of the base):
    `cap_terms` raises NotAChainMap for a cap that does not commute with
    the Morse differential, `psi_induced` raises it when the image of a
    cycle is not a cycle, and psi of the relations at e must solve against
    the relations at e - 2, or it is raised here.  No truncation is built,
    so the cost does not depend on k_range.

    The derivation.  Sector k of the sum at star is FH_{star+2k}; the
    cap-shift sends sector k to k - 1, so the image of x = (x_k) has
    x_k + psi x_{k+1} in sector k.
    - A finite truncation (input sectors -k_range..k_range, output sectors
      down to the overflow sector -k_range - 1): if the image is zero in
      homology, its top sector reads x_top alone, so x_top = 0; psi sends
      relations to relations, so psi x_top = 0 and the next sector down
      reads its x alone, and so on.  The map is block-triangular with the
      identity on the diagonal, whatever psi is, and tau plays no part.
    - `FINITE` and `ALL_LOWER` (sums bounded above): a kernel element has
      a top sector, and the same argument applies as it stands.
    - `ALL_UPPER` (sums bounded below): the lowest term x_0 of a kernel
      element has psi x_0 = 0 and x_n = -psi x_{n+1}, so for every n,
      x_0 = (-psi)^n x_n with psi^(n+1) x_n = 0.  The kernels of the powers
      of psi on one period, a finitely generated group, stabilise at some
      N (a Noetherian module), so x_N lies in ker psi^N and
      x_0 = (-psi)^N x_N = 0; then x_1 is the lowest term, and so on."""
    if k_range < 1:
        raise TruncationTooNarrow("need k_range >= 1")
    regime = _regime(model, m, Fraction(tau))
    dlo, dhi = _degree_range(degrees)
    model.cap_terms   # raises NotAChainMap for a bad cap, see above
    sect = _SectorData(model, m)
    for e in model.degree_classes:
        if solve_matrix(sect.basis(e - 2).relations,
                        sect.psi_induced(e) @ sect.basis(e).relations) is None:
            raise NotAChainMap(f"the cap sends a boundary at degree {e} to a non-boundary")
    return {"regime": regime.value, "k_range": k_range,
            "degrees": dict.fromkeys(range(dlo, dhi + 1), True), "all": True,
            "reason": "psi is well defined on homology, so a kernel element's top "
                      "sector is zero (truncations, sums bounded above), or its "
                      "lowest by the stable kernels of psi^n (sums bounded below)"}


# ---------------------------------------------------------------------------
# Transfer and projection
# ---------------------------------------------------------------------------

def _transfer_maps(sect: _SectorData, d: int) -> tuple[IntMatrix, IntMatrix]:
    """T_d and P_d on the cone layout at d, the hats (C_{d-1}) then the
    checks (C_d): the transfer T = diag(1 on hats, m on checks) from the cone
    of the degree-m cap to the cone of the unit cap, and the projection
    P = diag(m on hats, 1 on checks) back."""
    hats, checks = sect.boundary(d).rows, sect.boundary(d).cols

    def diag(on_hats: int, on_checks: int) -> IntMatrix:
        return IntMatrix(hats + checks, hats + checks, tuple(
            {i: on_hats if i < hats else on_checks} for i in range(hats + checks)))
    return diag(1, sect.m), diag(sect.m, 1)


def transfer_failures(model: BaseModel, m: int, degrees: tuple[int, int]) -> list[int]:
    """The degrees of lo..hi at which T or P of `_transfer_maps` does not
    commute with the boundaries of the two cones, or P.T = T.P = m.id fails.
    None should: the degree-m cap is m times the unit cap.  Both cones repeat
    with the base (see `_SectorData`), so each residue is decided once; the
    base has boundaries in every degree, so lo is checked like the rest."""
    lo, hi = _degree_range(degrees)
    sect = _SectorData(model, m)
    cone_m, cone_1 = sect.cone, _SectorData(model, 1).cone
    verdicts: dict[int, bool] = {}
    for d in range(lo, hi + 1):
        r = sect.residue(d)
        if r not in verdicts:
            (T, P), (T_below, P_below) = _transfer_maps(sect, r), _transfer_maps(sect, r - 1)
            want = IntMatrix.identity(T.rows).scale(m)
            verdicts[r] = (cone_1.boundary(r) @ T == T_below @ cone_m.boundary(r)
                           and cone_m.boundary(r) @ P == P_below @ cone_1.boundary(r)
                           and P @ T == want and T @ P == want)
    return [d for d in range(lo, hi + 1) if not verdicts[sect.residue(d)]]


# ---------------------------------------------------------------------------
# Orderability
# ---------------------------------------------------------------------------

def orderability_report(model: BaseModel, m: int) -> dict:
    """Nonvanishing of the zero-winding homology on the stabilized window
    implies orderability and the existence of translated points; vanishing
    leaves both questions open.  RFH^w0 is the cone of the one `_SectorData`
    whose induced cap decides cap_surjective.  Both are read on the window
    -dim-2..dim+2 where they can be nonzero and not onto: C_e is nonempty
    only for e a key of `BaseModel.degree_classes` (modulo the period, if
    monotone), Cone_d = C_{d-1} + C_d, and psi onto H_{e-2} can fail only if
    C_{e-2} is not empty.  So keys + 0, 1 and 2 are read, each residue once,
    whatever dim is; every verdict is that of the whole window."""
    dlo, dhi = -model.dim - 2, model.dim + 2
    sect = _SectorData(model, m)
    degrees = sorted(d for d in {dlo + sect.residue(e - dlo) for key in model.degree_classes
                                 for e in (key, key + 1, key + 2)} if dlo <= d <= dhi)
    nonzero = any(not sect.cone.group(d).is_zero() for d in degrees)

    def onto(e: int) -> bool:
        tgt = sect.basis(e - 2)
        return tgt.presentation.is_zero() or presentation_from_relations(
            tgt.cycles.cols, sect.psi_induced(e).hstack(tgt.relations)).is_zero()
    surjective = all(onto(e) for e in degrees)
    return {
        "rfh_w0_nonzero": nonzero,
        "cap_surjective": surjective,
        "c1_primitive": m == 1 and model.primitive_omega,
        "orderable": True if nonzero else "unknown",
        "translated_points": True if nonzero else "unknown",
    }
