"""Base manifold models: Morse data, monotonicity constants, and the
windowed Floer complex with its degree -2 cap-product chain map.

A model describes (M, omega) through combinatorial data only: the even
dimension, nu with omega(pi_2) = nu*Z, the monotonicity constant lambda
with c_1 = lambda*omega on pi_2, Morse critical points with their indices
for -f, and a unit cap pattern.  The cap stored on the model is the cap
with -[omega]; capping with -m[omega] is m times that pattern, so a single
model serves every bundle degree m.

Gradings follow the symmetric convention: a generator (q, k) sits in degree
mu_{-f}(q) - dim/2 - 2*lambda*nu*k, and its action is -k*nu (critical values
of f are normalized to 0, which keeps all window arithmetic rational).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Union

from .chaincplx import ChainMap, GradedComplex, verify_boundary
from .errors import EmptyWindow, NotAChainMap, UnsupportedModel
from .exactlin import IntMatrix
from .novikov import Laurent, lm_identity, lm_mul, lm_rank, lm_zero

CapSpec = Union[str, dict]   # "cpn" | "surface" | "zero" | {"degree_matrices": {d: rows}}


@dataclass(frozen=True)
class BaseModel:
    name: str
    dim: int
    nu: int
    lam: Fraction                      # c_1^{TM} = lam * omega on pi_2
    c_min: Optional[int]               # minimal Chern number (monotone case)
    crit: tuple[tuple[str, int], ...]  # (label, Morse index of -f)
    cap: CapSpec                       # unit cap pattern, see module docstring
    primitive_omega: bool
    morse_boundary: Optional[dict[int, IntMatrix]] = None

    def __post_init__(self):
        if self.dim < 0 or self.dim % 2 != 0:
            raise UnsupportedModel(f"dimension {self.dim} must be even and >= 0")
        if self.nu < 0:
            raise UnsupportedModel("nu must be >= 0")
        for label, idx in self.crit:
            if not 0 <= idx <= self.dim:
                raise UnsupportedModel(f"Morse index {idx} of {label} out of [0, {self.dim}]")
        if self.nu > 0:
            ln = self.lam * self.nu
            if ln.denominator != 1:
                raise UnsupportedModel(
                    f"lambda*nu = {ln} must be an integer (it is a Chern number)")
            ln = int(ln)
            if self.c_min != abs(ln):
                raise UnsupportedModel(
                    f"minimal Chern number {self.c_min} != |lambda*nu| = {abs(ln)}")
            if not (ln >= 2 or ln <= -self.dim // 2):
                if ln >= 1:
                    warnings.warn(
                        f"model {self.name}: lambda*nu = {ln} is below the standard "
                        "bound 2; accepted, but only the relaxed bound >= 1 holds",
                        stacklevel=2)
                else:
                    raise UnsupportedModel(
                        f"lambda*nu = {ln} violates the monotonicity bounds "
                        f"(need >= 1 or <= {-self.dim // 2})")

    # -- structure -----------------------------------------------------------

    @property
    def aspherical(self) -> bool:
        return self.nu == 0

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    # -- lookups, built once per model ----------------------------------------

    @cached_property
    def lambda_nu(self) -> int:
        return 0 if self.aspherical else int(self.lam * self.nu)

    @cached_property
    def position(self) -> dict[str, int]:
        """Critical-point label -> its position in `crit`."""
        return {label: i for i, (label, _) in enumerate(self.crit)}

    @cached_property
    def index_of(self) -> dict[str, int]:
        """Critical-point label -> its Morse index."""
        return dict(self.crit)

    @cached_property
    def morse_terms(self) -> dict[tuple[str, str], int]:
        """Nonzero coefficients of the Morse differential, keyed by
        (target label, source label)."""
        by_index: dict[int, list[str]] = {}
        for label, idx in self.crit:
            by_index.setdefault(idx, []).append(label)
        terms = {}
        for idx, mat in (self.morse_boundary or {}).items():
            for i, t in enumerate(by_index.get(idx - 1, [])):
                for j, s in enumerate(by_index.get(idx, [])):
                    if mat.get(i, j):
                        terms[(t, s)] = mat.get(i, j)
        return terms

    @cached_property
    def cap_terms(self) -> dict[str, tuple[tuple[str, int, int, int], ...]]:
        """The unit cap pattern by source: label -> its terms (target label,
        target Morse index, sphere-class shift, coefficient)."""
        L = unit_cap_lambda_matrix(self)
        return {src: tuple((tgt, idx, s, c) for row, (tgt, idx) in zip(L, self.crit)
                           for s, c in row[j].items())
                for j, (src, _) in enumerate(self.crit)}

    def fh_degree(self, morse_index: int, k: int) -> int:
        return morse_index - self.half_dim - 2 * self.lambda_nu * k

    def k_for_degree(self, morse_index: int, degree: int) -> Optional[int]:
        """The unique sphere-class coordinate putting a critical point in the
        given degree, or None."""
        if self.aspherical:
            return 0 if morse_index - self.half_dim == degree else None
        num = morse_index - self.half_dim - degree
        den = 2 * self.lambda_nu
        if num % den != 0:
            return None
        return num // den

    def generators_in_degree(self, degree: int) -> list[tuple[str, int]]:
        out = []
        for label, idx in self.crit:
            k = self.k_for_degree(idx, degree)
            if k is not None:
                out.append((label, k))
        return out

    def betti_total(self) -> int:
        return len(self.crit)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def cp_model(n: int) -> BaseModel:
    """Complex projective space with the normalized Fubini-Study form."""
    if n < 1:
        raise UnsupportedModel("cp:n needs n >= 1")
    crit = tuple((f"q{i}", 2 * i) for i in range(n + 1))
    return BaseModel(name=f"cp:{n}", dim=2 * n, nu=1, lam=Fraction(n + 1),
                     c_min=n + 1, crit=crit, cap="cpn", primitive_omega=True)


def surface_model(g: int) -> BaseModel:
    """Closed oriented surface of genus g >= 1 with a primitive area form;
    aspherical, perfect Morse function with 2g middle points."""
    if g < 1:
        raise UnsupportedModel("surface:g needs g >= 1")
    crit = (("bot", 0),) + tuple((f"a{i}", 1) for i in range(1, 2 * g + 1)) + (("top", 2),)
    return BaseModel(name=f"surface:{g}", dim=2, nu=0, lam=Fraction(0),
                     c_min=None, crit=crit, cap="surface", primitive_omega=True)


def point_model() -> BaseModel:
    return BaseModel(name="point", dim=0, nu=0, lam=Fraction(0), c_min=None,
                     crit=(("pt", 0),), cap="zero", primitive_omega=False)


def model_from_spec(spec: str) -> BaseModel:
    """Parse "cp:<n>", "surface:<g>", "point" or "file:<path>"."""
    if spec == "point":
        return point_model()
    if spec.startswith("cp:"):
        return cp_model(int(spec.split(":", 1)[1]))
    if spec.startswith("surface:"):
        return surface_model(int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        return load_model(spec.split(":", 1)[1])
    raise UnsupportedModel(f"unknown model spec {spec!r}")


def load_model(source) -> BaseModel:
    """Model file: {"dim", "nu", "lambda": "p/q", "cM", "crit": [{"label",
    "index"}...], "cap": "builtin:cpn"|"builtin:surface"|{...},
    "primitiveOmega", optional "morseBoundary": {index: matrix}}."""
    if isinstance(source, str):
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = dict(source)
    lam = Fraction(str(obj.get("lambda", "0")))
    cap = obj.get("cap", "zero")
    if isinstance(cap, str) and cap.startswith("builtin:"):
        cap = cap.split(":", 1)[1]
        cap = {"cpn": "cpn", "surface": "surface", "zero": "zero"}[cap]
    elif isinstance(cap, Mapping):
        cap = {"degree_matrices": {int(d): IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
                                   for d, rows in cap.items()}}
    morse = None
    if obj.get("morseBoundary"):
        morse = {int(i): IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
                 for i, rows in obj["morseBoundary"].items()}
    return BaseModel(
        name=obj.get("name", "file"),
        dim=int(obj["dim"]),
        nu=int(obj["nu"]),
        lam=lam,
        c_min=(int(obj["cM"]) if obj.get("cM") is not None else None),
        crit=tuple((c["label"], int(c["index"])) for c in obj["crit"]),
        cap=cap,
        primitive_omega=bool(obj.get("primitiveOmega", False)),
        morse_boundary=morse,
    )


# ---------------------------------------------------------------------------
# The windowed Floer complex
# ---------------------------------------------------------------------------

def gen_label(label: str, k: int) -> str:
    return f"({label},{k})"


Window = Optional[tuple[Optional[Fraction], Optional[Fraction]]]


def _degree_range_for_window(model: BaseModel, window) -> tuple[int, int]:
    a, b = window
    if a is None or b is None:
        raise EmptyWindow("infinite windows need an explicit degree range")
    if not a < b:
        raise EmptyWindow(f"window ({a}, {b}) is empty")
    if model.aspherical:
        return (-model.half_dim, model.half_dim)
    nu = model.nu
    ks = [k for k in range(int(-b / nu) - 1, int(-a / nu) + 2) if a < -k * nu < b]
    if not ks:
        raise EmptyWindow(f"window ({a}, {b}) contains no action value")
    degs = [model.fh_degree(idx, k) for _, idx in model.crit for k in ks]
    return (min(degs), max(degs))


def build_fc(model: BaseModel, window: Window = None,
             degrees: Optional[tuple[int, int]] = None) -> GradedComplex:
    """Floer chain complex of the model: basis = pairs (critical point,
    sphere class k) filtered by the action window -k*nu in (a, b) and/or a
    degree range; boundary = the Morse differential tensored over the sphere
    classes (zero for the built-in perfect models)."""
    if window is None and degrees is None:
        raise EmptyWindow("need a window or a degree range")
    if degrees is None:
        degrees = _degree_range_for_window(model, window)
    lo, hi = degrees
    if lo > hi:
        raise EmptyWindow(f"degree range {degrees} is empty")

    def admitted(k: int) -> bool:
        if window is None:
            return True
        a, b = window
        action = -Fraction(k * model.nu)
        return (a is None or a < action) and (b is None or action < b)

    basis: dict[int, tuple[str, ...]] = {}
    gens: dict[int, list[tuple[str, int]]] = {}
    for d in range(lo, hi + 1):
        pairs = [(label, k) for label, k in model.generators_in_degree(d) if admitted(k)]
        gens[d] = pairs
        basis[d] = tuple(gen_label(label, k) for label, k in pairs)

    boundary: dict[int, IntMatrix] = {}
    if model.morse_boundary:
        morse = model.morse_terms
        for d in range(lo + 1, hi + 1):
            rows = []
            for (tl, tk) in gens[d - 1]:
                rows.append([morse.get((tl, sl), 0) if sk == tk else 0
                             for (sl, sk) in gens[d]])
            boundary[d] = IntMatrix.from_rows(rows, cols=len(gens[d]))
    C = GradedComplex(degrees, basis, boundary)
    rep = verify_boundary(C)
    if not rep:
        raise UnsupportedModel(f"Morse differential does not square to zero "
                               f"(first failure at degree {rep.first_failure})")
    return C


# ---------------------------------------------------------------------------
# Cap product
# ---------------------------------------------------------------------------

def unit_cap_lambda_matrix(model: BaseModel) -> list[list[Laurent]]:
    """The cap with -[omega] as a matrix over the Novikov ring on the
    critical-point basis; entry {s: c} means coefficient c combined with a
    sphere-class shift by s."""
    n = len(model.crit)
    order = model.position
    L = lm_zero(n, n)
    if model.cap == "cpn":
        for i in range(1, n):
            L[i - 1][i] = {0: 1}
        L[n - 1][0] = {1: 1}
    elif model.cap == "surface":
        L[order["bot"]][order["top"]] = {0: 1}
    elif model.cap == "zero":
        pass
    elif isinstance(model.cap, dict):
        mats = model.cap["degree_matrices"]
        for j, (label, idx) in enumerate(model.crit):
            d = model.fh_degree(idx, 0)
            src = model.generators_in_degree(d)
            tgt = model.generators_in_degree(d - 2)
            if not tgt:
                continue
            if d not in mats:
                raise NotAChainMap(f"custom cap misses degree {d}")
            col = src.index((label, 0))
            M = mats[d]
            if (M.rows, M.cols) != (len(tgt), len(src)):
                raise NotAChainMap(f"custom cap at degree {d} has the wrong shape")
            for i, (tl, tk) in enumerate(tgt):
                c = M.get(i, col)
                if c:
                    acc = L[order[tl]][j]
                    acc[tk] = acc.get(tk, 0) + c
                    L[order[tl]][j] = {e: v for e, v in acc.items() if v}
    else:
        raise UnsupportedModel(f"unknown cap spec {model.cap!r}")
    return L


def cap_lambda_matrix(model: BaseModel, m: int) -> list[list[Laurent]]:
    """Cap with -m[omega] = m times the unit pattern."""
    unit = unit_cap_lambda_matrix(model)
    return [[{e: m * c for e, c in entry.items()} for entry in row] for row in unit]


def cap_map(model: BaseModel, m: int, fc: GradedComplex) -> ChainMap:
    """The degree -2 cap chain map on the windowed Floer complex `fc` of the
    model.  Image terms falling outside the window are truncated."""
    lo, hi = fc.degrees
    maps: dict[int, IntMatrix] = {}
    for d in range(lo, hi + 1):
        src = fc.basis[d]
        tgt = fc.basis.get(d - 2, ()) if lo <= d - 2 <= hi else ()
        tgt_pos = {lab: i for i, lab in enumerate(tgt)}
        rows = [[0] * len(src) for _ in tgt]
        for j, lab in enumerate(src):
            # parse "(label,k)"
            name, k = lab[1:-1].rsplit(",", 1)
            k = int(k)
            for t, _, s, c in model.cap_terms[name]:
                i = tgt_pos.get(gen_label(t, k + s))
                if i is not None:
                    rows[i][j] += m * c
        maps[d] = IntMatrix.from_rows(rows, cols=len(src))
    psi = ChainMap(fc, fc, -2, maps)
    psi.check()
    return psi


def cap_stabilization(model: BaseModel, m: int) -> tuple[int, int]:
    """Smallest n with rank im(Psi^n) = rank im(Psi^{n+1}) over the Novikov
    ring's fraction field, together with that stabilized rank.  The answer is
    certified to appear within the total Betti number."""
    L = cap_lambda_matrix(model, m)
    bound = model.betti_total()
    power = lm_identity(len(L))
    prev_rank = None
    ranks = []
    for n in range(1, bound + 2):
        power = lm_mul(power, L)
        r = lm_rank(power)
        ranks.append(r)
        if prev_rank is not None and r == prev_rank:
            return (n - 1, r)
        prev_rank = r
    # ranks strictly decrease until they stabilize, so this is unreachable
    raise UnsupportedModel(f"cap image rank failed to stabilize within {bound + 1} powers")


def primitivity_report(model: BaseModel, m: int) -> dict:
    """c_1^E = -m[omega] is primitive iff m = 1 and [omega] is primitive."""
    return {"primitive": m == 1 and model.primitive_omega}
