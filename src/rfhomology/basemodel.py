"""Base manifold models: Morse data, monotonicity constants, and the Floer
complex of the base with its degree -2 cap-product chain map, built one
degree at a time.

A model describes (M, omega) through combinatorial data only: the even
dimension, nu with omega(pi_2) = nu*Z, the monotonicity constant lambda
with c_1 = lambda*omega on pi_2, Morse critical points with their indices
for -f, and a unit cap pattern.  The cap stored on the model is the cap
with -[omega]; capping with -m[omega] is m times that pattern, so a single
model serves every bundle degree m.

The cap lowers the degree by 2, and a generator's degree fixes its sphere
class, so every cap term's sphere shift is fixed by the two Morse indices.
The pattern is therefore stored by source (`BaseModel.cap_terms`) and read
one degree at a time (`BaseModel.cap_at`); no matrix over the Novikov ring
Z[t, t^-1] is built.

Gradings follow the symmetric convention: a generator (q, k) sits in degree
mu_{-f}(q) - dim/2 - 2*lambda*nu*k, and its action is -k*nu (critical values
of f are normalized to 0, which keeps all window arithmetic rational).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Mapping, Optional, Union

from .chaincplx import matrix_from_terms
from .errors import NotAChainMap, UnsupportedModel
from .exactlin import IntMatrix

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
        if len(self.position) != len(self.crit):
            raise UnsupportedModel("critical point labels must be distinct")
        if self.cap == "surface" and not {"bot", "top"} <= self.position.keys():
            raise UnsupportedModel("the surface cap needs critical points bot and top")
        count = Counter(idx for _, idx in self.crit)
        mats = self.morse_boundary or {}
        for idx, mat in sorted(mats.items()):
            if (mat.rows, mat.cols) != (count[idx - 1], count[idx]):
                raise UnsupportedModel(
                    f"Morse boundary at index {idx} is {mat.rows}x{mat.cols}, "
                    f"expected {count[idx - 1]}x{count[idx]}")
            # d_{idx-1} passed the shape check one step before
            if idx - 1 in mats and not (mats[idx - 1] @ mat).is_zero():
                raise UnsupportedModel("Morse differential does not square to zero: "
                                       f"d_{idx - 1} . d_{idx} != 0")
        if self.nu > 0:
            ln = self.lam * self.nu
            if ln.denominator != 1:
                raise UnsupportedModel(
                    f"lambda*nu = {ln} must be an integer (it is a Chern number)")
            ln = int(ln)
            if ln == 0:
                # the degree of a sphere class is 2*lambda*nu*k: every degree
                # would hold infinitely many generators
                raise UnsupportedModel(
                    f"lambda*nu = 0 with nu = {self.nu}: the grading needs "
                    "lambda*nu != 0 (an aspherical base has nu = 0)")
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
    def morse_terms(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """The Morse differential by source: label -> its nonzero terms
        (target label, coefficient)."""
        by_index: dict[int, list[str]] = {}
        for label, idx in self.crit:
            by_index.setdefault(idx, []).append(label)
        terms: dict[str, list[tuple[str, int]]] = {label: [] for label, _ in self.crit}
        for idx, mat in (self.morse_boundary or {}).items():
            tgts = by_index.get(idx - 1, [])
            for s, col in zip(by_index.get(idx, []), mat.columns):
                terms[s].extend((tgts[i], c) for i, c in col.items())
        return {s: tuple(ts) for s, ts in terms.items()}

    @cached_property
    def cap_terms(self) -> dict[str, tuple[tuple[str, int, int, int], ...]]:
        """The unit cap pattern by source: label -> its terms (target label,
        target Morse index, sphere-class shift, coefficient), targets in
        `crit` order.  Each term must lower the degree by 2 (a built-in
        pattern on indices that do not fit it raises UnsupportedModel), so
        its shift is (idx_tgt - idx_src + 2) / (2*lambda*nu), and 0 when
        aspherical, where the cap lowers the Morse index by 2 and is
        nilpotent.  A cap that does not commute with the Morse differential
        raises NotAChainMap.  Both are checked here, so every command that
        uses the model reports them the same way."""
        terms: dict[str, list[tuple[str, int, int, int]]] = {src: [] for src, _ in self.crit}
        if self.cap == "cpn":
            # q_i -> q_{i-1}, and q_0 -> t q_n closes the cycle
            for i, (src, _) in enumerate(self.crit):
                tgt, idx = self.crit[i - 1]
                terms[src].append((tgt, idx, int(i == 0), 1))
        elif self.cap == "surface":
            terms["top"].append(("bot", self.index_of["bot"], 0, 1))
        elif isinstance(self.cap, dict):
            mats = self.cap["degree_matrices"]
            # each degree of a critical point once, in `crit` order: its
            # points at k = 0 are the sources of their columns
            for d in dict.fromkeys(self.fh_degree(idx, 0) for _, idx in self.crit):
                src = self.generators_in_degree(d)
                tgt = self.generators_in_degree(d - 2)
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
                        terms[label].append((tl, self.index_of[tl], tk, c))
        elif self.cap != "zero":
            raise UnsupportedModel(f"unknown cap spec {self.cap!r}")
        for src, idx in self.crit:
            for tgt, tidx, s, _ in terms[src]:
                if self.fh_degree(tidx, s) != self.fh_degree(idx, 0) - 2:
                    raise UnsupportedModel(f"cap term {src} -> {tgt} (sphere shift {s}) "
                                           "does not lower the degree by 2")
        # d . cap = cap . d on each critical point, keyed by (target, shift)
        morse = self.morse_terms
        for src, idx in self.crit:
            diff: dict[tuple[str, int], int] = {}
            for tgt, _, s, c in terms[src]:
                for u, e in morse[tgt]:
                    diff[u, s] = diff.get((u, s), 0) + c * e
            for tgt, e in morse[src]:
                for u, _, s, c in terms[tgt]:
                    diff[u, s] = diff.get((u, s), 0) - e * c
            if any(diff.values()):
                raise NotAChainMap("cap does not commute with boundaries at degree "
                                   f"{self.fh_degree(idx, 0)}")
        return {src: tuple(ts) for src, ts in terms.items()}

    @cached_property
    def index_gaps(self) -> bool:
        """No two critical points have consecutive Morse index, so the Morse
        part of the full boundary vanishes (see `rfh.boundary_full`)."""
        idxs = sorted(idx for _, idx in self.crit)
        return all(b - a != 1 for a, b in zip(idxs, idxs[1:]))

    def fh_degree(self, morse_index: int, k: int) -> int:
        """The degree of a generator (q, k), q of Morse index `morse_index`:
        the one site of the grading convention (see the module docstring)."""
        return morse_index - self.half_dim - 2 * self.lambda_nu * k

    @cached_property
    def degree_classes(self) -> dict[int, tuple[tuple[str, int], ...]]:
        """Critical points by the degrees their generators reach: the residue
        of the degree at k = 0 modulo 2*lambda*nu (that degree itself when
        aspherical) -> (label, degree at k = 0) in `crit` order."""
        classes: dict[int, list[tuple[str, int]]] = {}
        for label, idx in self.crit:
            shifted = self.fh_degree(idx, 0)
            key = shifted if self.aspherical else shifted % (2 * self.lambda_nu)
            classes.setdefault(key, []).append((label, shifted))
        return {key: tuple(c) for key, c in classes.items()}

    def generators_in_degree(self, degree: int) -> list[tuple[str, int]]:
        """(label, k) for every generator in the degree, in `crit` order: k is
        the unique sphere-class coordinate putting the point there."""
        if self.aspherical:
            return [(label, 0) for label, _ in self.degree_classes.get(degree, ())]
        den = 2 * self.lambda_nu
        return [(label, (shifted - degree) // den)
                for label, shifted in self.degree_classes.get(degree % den, ())]

    def boundary_at(self, degree: int) -> IntMatrix:
        """The Floer boundary C_degree -> C_{degree-1}: the Morse
        differential on each sphere class."""
        morse = self.morse_terms
        return matrix_from_terms(
            self.generators_in_degree(degree), self.generators_in_degree(degree - 1),
            lambda g: [((t, g[1]), c) for t, c in morse[g[0]]])

    def cap_at(self, degree: int, m: int) -> IntMatrix:
        """The cap with -m[omega], C_degree -> C_{degree-2}: (label, k) goes
        to m*c (target, k + shift) for each cap term."""
        caps = self.cap_terms
        return matrix_from_terms(
            self.generators_in_degree(degree), self.generators_in_degree(degree - 2),
            lambda g: [((t, g[1] + s), m * c) for t, _, s, c in caps[g[0]]])


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


def rational(text: str) -> Fraction:
    """Fraction(text), refusing an exponent: Fraction("1e999999999") builds
    10**999999999 before any check can run."""
    if "e" in text or "E" in text:
        raise ValueError(f"expected p/q or a decimal without an exponent, got {text!r}")
    return Fraction(text)


def _whole(rows, field: str) -> None:
    """Raise UnsupportedModel, naming the field, on an entry of `rows` that
    is a JSON true or false, or a number that is not an integer: int() would
    read true as 1 and truncate 2.9 to 2."""
    kinds = set(map(type, chain.from_iterable(rows)))   # one pass in C
    if bool in kinds or float in kinds:
        for x in chain.from_iterable(rows):
            if isinstance(x, bool):
                raise UnsupportedModel(f"{field} must be an integer, got {json.dumps(x)}")
            if isinstance(x, float) and not x.is_integer():
                raise UnsupportedModel(f"{field} must be an integer, got {x!r}")


def _matrix(rows, field: str) -> IntMatrix:
    _whole(rows, field)
    return IntMatrix.from_rows(rows)


def load_model(source) -> BaseModel:
    """Model file: {"dim", "nu", "lambda": "p/q", "cM", "crit": [{"label",
    "index"}...], "cap": "builtin:cpn"|"builtin:surface"|{...},
    "primitiveOmega", optional "morseBoundary": {index: matrix}}.  Every
    number but lambda is an integer; 2.0 reads as 2, and 2.5 is an error.
    primitiveOmega is a JSON true or false, false when absent."""
    if isinstance(source, str):
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = dict(source)
    if not isinstance(obj, Mapping):
        raise UnsupportedModel("a model file holds one JSON object")
    lam = rational(str(obj.get("lambda", "0")))
    cap = obj.get("cap", "zero")
    if isinstance(cap, str) and cap.startswith("builtin:"):
        cap = cap.split(":", 1)[1]
        cap = {"cpn": "cpn", "surface": "surface", "zero": "zero"}[cap]
    elif isinstance(cap, Mapping):
        cap = {"degree_matrices": {int(d): _matrix(rows, f"cap entry at degree {d}")
                                   for d, rows in cap.items()}}
    morse = obj.get("morseBoundary") or None
    if morse is not None:
        if not isinstance(morse, Mapping):
            raise UnsupportedModel(
                f"morseBoundary must be an object of index: matrix, got {type(morse).__name__}")
        morse = {int(i): _matrix(rows, f"morseBoundary entry at index {i}")
                 for i, rows in morse.items()}
    for field, values in (("dim", [obj["dim"]]), ("nu", [obj["nu"]]), ("cM", [obj.get("cM")]),
                          ("crit index", [c["index"] for c in obj["crit"]])):
        _whole([values], field)
    primitive = obj.get("primitiveOmega", False)
    if not isinstance(primitive, bool):
        # bool() would read the string "false" as true
        raise UnsupportedModel(
            f"primitiveOmega must be true or false, got {json.dumps(primitive)}")
    return BaseModel(
        name=obj.get("name", "file"),
        dim=int(obj["dim"]),
        nu=int(obj["nu"]),
        lam=lam,
        c_min=(int(obj["cM"]) if obj.get("cM") is not None else None),
        crit=tuple((c["label"], int(c["index"])) for c in obj["crit"]),
        cap=cap,
        primitive_omega=primitive,
        morse_boundary=morse,
    )
