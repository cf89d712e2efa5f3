"""The Rabinowitz Floer pipeline.

Generators carry a base critical point, a covering number l of the fiber
Reeb orbit, a sphere class k, and a max/min flag.  All of their invariants
are exact:

    winding        w        = l - m*k*nu
    Lagrange mult. eta      = -l/m
    index (min)    mu       = -2l - 2*(lam - m)*k*nu + morse_index - dim/2
    index (max)    mu + 1
    action         A        = -k*nu - (tau/m)*l

The zero-winding complex is the cone of the cap chain map under the
relabeling l = m*k*nu; the full boundary splits as d0 + d1 + d2 where d0
raises the covering number inside a fiber, d1 is the Morse part, and d2 is
the cap part with its sphere-class shift.  The full homology is computed
through the structural short exact sequence 0 -> sum -> sum -> RFH -> 0
with the middle map id + cap-shift, never by diagonalizing the literal
infinite complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .basemodel import (BaseModel, build_fc, cap_lambda_matrix, cap_map,
                        primitivity_report)
from .chaincplx import (ChainMap, GradedComplex, HomologyBasis,
                        LongExactSequence, cone_les, homology_basis,
                        homology_table, induced_matrix)
from .errors import (ConsecutiveIndexModel, EmptyWindow, TruncationTooNarrow,
                     UnstabilizedTruncation, WindowMismatch)
from .exactlin import (IntMatrix, ZModulePresentation, kernel_basis,
                       kernel_basis_mod_p, presentation_from_relations,
                       rank_mod_p, solve_matrix)
from .novikov import (CompletionRegime, l_is_unit, lm_det, lm_is_zero,
                      lm_power, regime_for)


# ---------------------------------------------------------------------------
# Generators and their exact invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class RFHGenerator:
    label: str
    morse_index: int
    cov: int          # covering number l of the fiber orbit
    k: int            # sphere class coordinate
    hat: bool         # max (hat) or min (check) of the fiberwise Morse function

    def flag(self) -> str:
        return "hat" if self.hat else "check"

    def __str__(self) -> str:
        mark = "^" if self.hat else "v"
        return f"{mark}({self.label}, l={self.cov}, k={self.k})"


def winding(gen: RFHGenerator, model: BaseModel, m: int) -> int:
    return gen.cov - m * gen.k * model.nu


def eta(gen: RFHGenerator, m: int) -> Fraction:
    return -Fraction(gen.cov, m)


def fh_index(gen: RFHGenerator, model: BaseModel) -> int:
    """Index of the projected generator in the base."""
    return model.fh_degree(gen.morse_index, gen.k)


def rfh_index(gen: RFHGenerator, model: BaseModel, m: int) -> int:
    mu = (-2 * gen.cov
          - 2 * (model.lambda_nu - m * model.nu) * gen.k
          + gen.morse_index - model.half_dim)
    return mu + (1 if gen.hat else 0)


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
    |l| <= l_bound and, over an aspherical base, k = 0.  The strips must cut
    out a bounded region for every critical point and flag, or
    TruncationTooNarrow is raised; at the regime boundary, for example, a
    degree range and an action window are parallel strips."""
    tau = Fraction(tau)
    if tau <= 0:
        raise EmptyWindow(f"tau = {tau} must be positive")
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

    def admitted(g: RFHGenerator) -> bool:
        if winding_filter is not None and winding(g, model, m) != winding_filter:
            return False
        if window is not None:
            act = action(g, model, m, tau)
            if (a is not None and not a < act) or (b is not None and not act < b):
                return False
        if degrees is not None and not degrees[0] <= rfh_index(g, model, m) <= degrees[1]:
            return False
        return ((k_bound is None or abs(g.k) <= k_bound)
                and (l_bound is None or abs(g.cov) <= l_bound))

    keyed = []
    for pos, (label, idx) in enumerate(model.crit):
        for hat in (False, True):
            fam = strips
            if degrees is not None:
                # index = -2l - 2(lambda*nu - m*nu)k + c
                c = idx - model.half_dim + hat
                fam = strips + [(-2 * (model.lambda_nu - m * nu), -2,
                                 degrees[0] - c, degrees[1] - c)]
            for k, l in _lattice_points(fam):
                g = RFHGenerator(label, idx, l, k, hat)
                if admitted(g):
                    keyed.append(((rfh_index(g, model, m), k, l, hat, pos), g))
    keyed.sort(key=lambda kg: kg[0])
    return [g for _, g in keyed]


# ---------------------------------------------------------------------------
# Zero-winding complex and Gysin sequence
# ---------------------------------------------------------------------------

def _rfc_label(g: RFHGenerator) -> str:
    return ("hat" if g.hat else "chk") + f"({g.label},l={g.cov},k={g.k})"


def rfc_w0(model: BaseModel, m: int, tau: Fraction,
           degrees: tuple[int, int],
           window: Optional[tuple[Fraction, Fraction]] = None) -> GradedComplex:
    """Complex on the zero-winding generators, assembled from the generator
    bookkeeping: hat->hat is minus the Morse part, check->check the Morse
    part, check->hat the cap part.  Under l = m*k*nu this is the cone of the
    cap chain map, which the tests verify through an independent code path.

    An action window, when given, keeps only generators with
    -(1+tau)*k*nu strictly inside it (image terms escaping the window are
    truncated, as in the windowed cap)."""
    lo, hi = degrees
    nu = model.nu
    tau = Fraction(tau)
    idx_of = model.index_of
    morse = model.morse_terms

    def admitted(k: int) -> bool:
        if window is None:
            return True
        a, b = window
        act = -(1 + tau) * Fraction(k * nu)
        return (a is None or a < act) and (b is None or act < b)

    def fams(d: int) -> list[tuple[str, int, int]]:
        # (label, l, k) with check index d
        return [(label, m * k * nu, k) for label, k in model.generators_in_degree(d)
                if admitted(k)]

    basis: dict[int, tuple[str, ...]] = {}
    layout: dict[int, list[RFHGenerator]] = {}
    for d in range(lo, hi + 1):
        hats = [RFHGenerator(lb, idx_of[lb], l, k, True) for lb, l, k in fams(d - 1)]
        checks = [RFHGenerator(lb, idx_of[lb], l, k, False) for lb, l, k in fams(d)]
        layout[d] = hats + checks
        basis[d] = tuple(_rfc_label(g) for g in layout[d])

    boundary: dict[int, IntMatrix] = {}
    for d in range(lo + 1, hi + 1):
        tgt_pos = {g: i for i, g in enumerate(layout[d - 1])}
        rows = [[0] * len(layout[d]) for _ in layout[d - 1]]
        for j, g in enumerate(layout[d]):
            if g.hat:
                for (tl, sl), c in morse.items():
                    if sl == g.label:
                        t = RFHGenerator(tl, idx_of[tl], m * g.k * nu, g.k, True)
                        if t in tgt_pos:
                            rows[tgt_pos[t]][j] -= c
            else:
                for (tl, sl), c in morse.items():
                    if sl == g.label:
                        t = RFHGenerator(tl, idx_of[tl], m * g.k * nu, g.k, False)
                        if t in tgt_pos:
                            rows[tgt_pos[t]][j] += c
                for tlab, tidx, s, c in model.cap_terms[g.label]:
                    t = RFHGenerator(tlab, tidx, g.cov + m * nu * s, g.k + s, True)
                    if t in tgt_pos:
                        rows[tgt_pos[t]][j] += m * c
        boundary[d] = IntMatrix.from_rows(rows, cols=len(layout[d]))
    return GradedComplex(degrees, basis, boundary)


def rfh_w0_table(model: BaseModel, m: int, tau: Fraction,
                 degrees: tuple[int, int]) -> dict[int, ZModulePresentation]:
    lo, hi = degrees
    C = rfc_w0(model, m, tau, (lo - 3, hi + 3))
    return homology_table(C, range(lo, hi + 1))


def gysin(model: BaseModel, m: int, degrees: tuple[int, int],
          tau: Fraction = Fraction(1)) -> LongExactSequence:
    """The Floer Gysin long exact sequence
    ... -> RFH^w0_d -> FH_d -> FH_{d-2} -> RFH^w0_{d-1} -> ... on the
    requested degrees, built over a window wide enough for them."""
    dlo, dhi = degrees
    fc = build_fc(model, degrees=(dlo - 6, dhi + 3))
    psi = cap_map(model, m, fc=fc)
    return cone_les(psi, degrees=(dlo, dhi), label_cone="RFH^w0", label_base="FH")


# ---------------------------------------------------------------------------
# Full boundary operator and the explicit primitives
# ---------------------------------------------------------------------------

def _require_index_gaps(model: BaseModel) -> None:
    idxs = sorted(idx for _, idx in model.crit)
    for a, b in zip(idxs, idxs[1:]):
        if b - a == 1:
            raise ConsecutiveIndexModel(
                f"model {model.name} has critical points of consecutive Morse index")


def boundary_full(gen: RFHGenerator, model: BaseModel, m: int) -> dict[RFHGenerator, int]:
    """d = d0 + d1 + d2 on a generator: d0 raises the covering number of a
    check, d1 vanishes (no consecutive Morse indices), and d2 is the cap
    term with its sphere-class and fiber shift.  Hats are cycles."""
    _require_index_gaps(model)
    if gen.hat:
        return {}
    # d0
    out = {RFHGenerator(gen.label, gen.morse_index, gen.cov + 1, gen.k, True): 1}
    # d2
    for tlab, tidx, s, c in model.cap_terms[gen.label]:
        t = RFHGenerator(tlab, tidx, gen.cov + m * model.nu * s, gen.k + s, True)
        out[t] = out.get(t, 0) + m * c
    return {g: c for g, c in out.items() if c != 0}


def boundary_full_chain(chain: Mapping[RFHGenerator, int], model: BaseModel,
                        m: int) -> dict[RFHGenerator, int]:
    out: dict[RFHGenerator, int] = {}
    for g, c in chain.items():
        for t, ct in boundary_full(g, model, m).items():
            out[t] = out.get(t, 0) + c * ct
    return {g: c for g, c in out.items() if c != 0}


def full_complex(model: BaseModel, m: int, tau: Fraction,
                 degrees: tuple[int, int], k_bound: int) -> GradedComplex:
    """The literal full complex assembled on a truncation: every generator
    in the degree range with |k| <= k_bound, boundary from the d0 + d2
    rules with targets outside the truncation dropped.  The composite
    vanishes on any truncation because boundary images consist of fiberwise
    maxima, which are cycles."""
    lo, hi = degrees
    gens = enumerate_generators(model, m, tau, degrees=degrees, k_bound=k_bound)
    layout: dict[int, list[RFHGenerator]] = {d: [] for d in range(lo, hi + 1)}
    for g in gens:
        layout[rfh_index(g, model, m)].append(g)
    basis = {d: tuple(_rfc_label(g) for g in layout[d]) for d in layout}
    boundary: dict[int, IntMatrix] = {}
    for d in range(lo + 1, hi + 1):
        tgt_pos = {g: i for i, g in enumerate(layout[d - 1])}
        rows = [[0] * len(layout[d]) for _ in layout[d - 1]]
        for j, g in enumerate(layout[d]):
            for t, c in boundary_full(g, model, m).items():
                if t in tgt_pos:
                    rows[tgt_pos[t]][j] += c
        boundary[d] = IntMatrix.from_rows(rows, cols=len(layout[d]))
    return GradedComplex(degrees, basis, boundary)


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
    x: dict[RFHGenerator, int] = {}
    need: tuple[RFHGenerator, int] = (target, 1)
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


class _SectorData:
    """Homology of the base per degree with the induced cap map, over a
    window wide enough for the requested sectors."""

    def __init__(self, model: BaseModel, m: int, lo: int, hi: int):
        self.model = model
        self.fc = build_fc(model, degrees=(lo - 3, hi + 3))
        self.psi = cap_map(model, m, fc=self.fc)
        self._bases: dict[int, HomologyBasis] = {}
        self._psi_induced: dict[int, IntMatrix] = {}

    def basis(self, e: int) -> HomologyBasis:
        if e not in self._bases:
            self._bases[e] = homology_basis(self.fc, e)
        return self._bases[e]

    def group(self, e: int) -> ZModulePresentation:
        return self.basis(e).presentation

    def psi_induced(self, e: int) -> IntMatrix:
        if e not in self._psi_induced:
            self._psi_induced[e] = induced_matrix(self.psi.at(e), self.basis(e),
                                                  self.basis(e - 2))
        return self._psi_induced[e]


def _field_total_betti(model: BaseModel, p: int) -> int:
    if not model.morse_boundary:
        return len(model.crit)
    fc = build_fc(model, degrees=(-model.half_dim - 1, model.half_dim + 1))
    total = 0
    for e in range(-model.half_dim, model.half_dim + 1):
        d_out = fc.boundary_at(e)
        d_in = fc.boundary_at(e + 1)
        total += (fc.rank(e) - rank_mod_p(d_out, p)) - rank_mod_p(d_in, p)
    return total


def _field_quotient_dim(sect: _SectorData, e: int, b: int, p: int) -> int:
    """dim over F_p of FH_e / ker(psi^b) = rank of the induced psi^b."""
    fc = sect.fc
    K = kernel_basis_mod_p(fc.boundary_at(e), p)
    if not K:
        return 0
    Kmat = IntMatrix.from_rows([[K[j][i] for j in range(len(K))]
                                for i in range(len(K[0]))], cols=len(K))
    chain = Kmat
    for i in range(b):
        chain = sect.psi.at(e - 2 * i) @ chain
    B = fc.boundary_at(e - 2 * b + 1)
    aug = chain.hstack(B)
    return rank_mod_p(aug, p) - rank_mod_p(B, p)


def _sector_blocks(sect: _SectorData, star: int, src: Sequence[int],
                   tgt: Sequence[int]) -> tuple[IntMatrix, IntMatrix]:
    """id + cap-shift from the sum of the sectors `src` into the sum of the
    sectors `tgt`, cap terms landing outside `tgt` dropped, and the torsion
    relations of the `tgt` sectors as columns on the same rows.  Sector k
    is the base homology in degree star + 2k, on its cycle basis."""
    dims = {k: sect.basis(star + 2 * k).cycles.cols for k in (*src, *tgt)}
    row_off, total = {}, 0
    for k in tgt:
        row_off[k] = total
        total += dims[k]
    n_src = sum(dims[k] for k in src)
    delta = [[0] * n_src for _ in range(total)]
    col = 0
    for k in src:
        M = sect.psi_induced(star + 2 * k) if k - 1 in row_off else None
        for j in range(dims[k]):
            delta[row_off[k] + j][col + j] = 1
            if M is not None:
                for i in range(M.rows):
                    delta[row_off[k - 1] + i][col + j] += M.get(i, j)
        col += dims[k]
    rels = [sect.basis(star + 2 * k).relations for k in tgt]
    rel = [[0] * sum(R.cols for R in rels) for _ in range(total)]
    col = 0
    for k, R in zip(tgt, rels):
        for i in range(R.rows):
            rel[row_off[k] + i][col:col + R.cols] = R.row(i)
        col += R.cols
    return IntMatrix.from_rows(delta, cols=n_src), IntMatrix.from_rows(rel, cols=col)


def _truncated_coker(sect: _SectorData, star: int,
                     sectors: Sequence[int]) -> ZModulePresentation:
    """Smith-normal-form cokernel of id + cap-shift on finitely supported
    sums; exact whenever the listed sectors cover all nonzero groups."""
    delta, rel = _sector_blocks(sect, star, sectors, sectors)
    return presentation_from_relations(delta.rows, delta.hstack(rel))


def full_rfh(model: BaseModel, m: int, tau: Fraction,
             degrees: tuple[int, int], coeff: str = "z") -> FullRFHResult:
    """Per-degree full Rabinowitz Floer homology through the short exact
    sequence with middle map id + cap-shift on the regime-completed sum of
    base homologies."""
    tau = Fraction(tau)
    coeff = coeff.lower()
    field: Optional[int] = None
    if coeff.startswith("fp:"):
        field = int(coeff.split(":", 1)[1])
    elif coeff not in ("z",):
        raise ValueError(f"unknown coefficient spec {coeff!r}")

    regime = (CompletionRegime.FINITE if model.aspherical
              else regime_for(tau, model.lam, m))
    L = cap_lambda_matrix(model, m)
    n_crit = len(model.crit)
    nilpotent = lm_is_zero(lm_power(L, n_crit)) if n_crit else True
    iso_over_z = l_is_unit(lm_det(L)) if n_crit else True
    if field is not None:
        # over F_p a cap divisible by p dies: nilpotency can only improve
        nilpotent = nilpotent or lm_is_zero(
            [[{e: c % field for e, c in x.items() if c % field} for x in row]
             for row in lm_power(L, n_crit)])

    dlo, dhi = degrees
    period = model.c_min if not model.aspherical else 0
    span = 2 * max(period + 2, model.dim + 3, model.betti_total() + 2)
    sect = _SectorData(model, m, dlo + 1 - span - 2, dhi + 1 + span + 2)

    def sector_list(star: int) -> list[int]:
        if model.aspherical:
            ks = []
            for k in range(-(model.dim + 2), model.dim + 3):
                e = star + 2 * k
                if -model.half_dim <= e <= model.half_dim and not sect.group(e).is_zero():
                    ks.append(k)
            return ks
        return list(range(period))

    def value_for(d: int) -> GroupValue:
        star = d + 1
        if not model.aspherical and regime == CompletionRegime.ALL_LOWER:
            return GroupValue.zero()
        if nilpotent:
            # every class reduces to zero through the relation x ~ -cap(x)
            if not model.aspherical:
                return GroupValue.zero()
        if regime == CompletionRegime.ALL_UPPER:
            if field is not None or iso_over_z:
                return GroupValue.zero()
        if model.aspherical:
            ks = sector_list(star)
            if not ks:
                return GroupValue.zero()
            if field is not None:
                b = _field_total_betti(model, field)
                return GroupValue.of(ZModulePresentation(
                    _field_quotient_dim(sect, star, b, field), ()))
            ks_full = list(range(min(ks), max(ks) + 1))
            return GroupValue.of(_truncated_coker(sect, star, ks_full))
        # monotone
        groups = {k: sect.group(star + 2 * k) for k in range(period)}
        if all(g.is_zero() for g in groups.values()):
            return GroupValue.zero()
        if any(g.is_zero() for g in groups.values()):
            # a zero sector in the period chops every relation chain
            return GroupValue.zero()
        if field is not None:
            if regime == CompletionRegime.FINITE:
                b = _field_total_betti(model, field)
                return GroupValue.of(ZModulePresentation(
                    _field_quotient_dim(sect, star, b, field), ()))
            return GroupValue.zero()  # ALL_UPPER handled above; defensive
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

    table = {d: value_for(d) for d in range(dlo, dhi + 1)}
    return FullRFHResult(model.name, m, tau, regime,
                         coeff if field is None else f"fp:{field}", table)


# ---------------------------------------------------------------------------
# Injectivity of id + cap-shift on truncations
# ---------------------------------------------------------------------------

def delta_injectivity(model: BaseModel, m: int, tau: Fraction,
                      k_range: int, degrees: tuple[int, int]) -> dict:
    """Check per degree that id + cap-shift has trivial kernel on the
    truncation |k| <= k_range of the completed sum, torsion relations
    accounted for.  The overflow row below the truncation is kept so that
    escaping cap terms are not silently dropped."""
    if k_range < 1:
        raise TruncationTooNarrow("need k_range >= 1")
    tau = Fraction(tau)
    regime = (CompletionRegime.FINITE if model.aspherical
              else regime_for(tau, model.lam, m))
    dlo, dhi = degrees
    span = 2 * (k_range + 2)
    results: dict[int, bool] = {}
    sect = _SectorData(model, m, dlo - span - 2, dhi + span + 2)
    in_sectors = range(-k_range, k_range + 1)
    out_sectors = range(-k_range - 1, k_range + 1)
    for star in range(dlo, dhi + 1):
        delta, R_out = _sector_blocks(sect, star, in_sectors, out_sectors)
        _, R_in = _sector_blocks(sect, star, (), in_sectors)
        # group-level kernel: delta(x) in output relations => x in input relations
        kb = kernel_basis(delta.hstack(R_out))
        proj = kb.submatrix(range(delta.cols), range(kb.cols))
        results[star] = solve_matrix(R_in, proj) is not None
    return {"regime": regime.value, "k_range": k_range,
            "degrees": results, "all": all(results.values())}


# ---------------------------------------------------------------------------
# Transfer and projection
# ---------------------------------------------------------------------------

def transfer_maps(model: BaseModel, tau: Fraction, degrees: tuple[int, int],
                  m: int) -> tuple[ChainMap, ChainMap]:
    """T from the degree-m complex to the degree-1 complex (hat, check) ->
    (hat, m*check) and P back with (hat, check) -> (m*hat, check); both are
    chain maps because the degree-m cap is m times the unit cap."""
    C_m = rfc_w0(model, m, tau, degrees)
    C_1 = rfc_w0(model, 1, tau, degrees)
    lo, hi = degrees
    t_maps: dict[int, IntMatrix] = {}
    p_maps: dict[int, IntMatrix] = {}
    for d in range(lo, hi + 1):
        if C_m.rank(d) != C_1.rank(d):
            raise WindowMismatch(f"generator counts differ at degree {d}")
        n_hat = len([b for b in C_m.basis[d] if b.startswith("hat")])
        n = C_m.rank(d)
        t_rows = [[(1 if i < n_hat else m) if i == j else 0 for j in range(n)]
                  for i in range(n)]
        p_rows = [[(m if i < n_hat else 1) if i == j else 0 for j in range(n)]
                  for i in range(n)]
        t_maps[d] = IntMatrix.from_rows(t_rows, cols=n)
        p_maps[d] = IntMatrix.from_rows(p_rows, cols=n)
    T = ChainMap(C_m, C_1, 0, t_maps)
    P = ChainMap(C_1, C_m, 0, p_maps)
    T.check()
    P.check()
    return T, P


# ---------------------------------------------------------------------------
# Orderability
# ---------------------------------------------------------------------------

def orderability_report(model: BaseModel, m: int,
                        tau: Fraction = Fraction(1)) -> dict:
    """Nonvanishing of the zero-winding homology on the stabilized window
    implies orderability and the existence of translated points; vanishing
    leaves both questions open."""
    dlo, dhi = -model.dim - 2, model.dim + 2
    table = rfh_w0_table(model, m, tau, (dlo, dhi))
    nonzero = any(not p.is_zero() for p in table.values())
    sect = _SectorData(model, m, dlo - 4, dhi + 4)
    surjective = True
    for e in range(dlo, dhi + 1):
        tgt = sect.basis(e - 2)
        if tgt.presentation.is_zero():
            continue
        induced = sect.psi_induced(e)
        coker = presentation_from_relations(
            tgt.cycles.cols, induced.hstack(tgt.relations))
        if not coker.is_zero():
            surjective = False
            break
    return {
        "rfh_w0_nonzero": nonzero,
        "cap_surjective": surjective,
        "c1_primitive": primitivity_report(model, m)["primitive"],
        "orderable": True if nonzero else "unknown",
        "translated_points": True if nonzero else "unknown",
    }
