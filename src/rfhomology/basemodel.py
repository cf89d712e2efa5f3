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
The pattern is therefore stored by source (`BaseModel.cap_terms`) and
assembled once per class of degrees (`BaseModel.cap_blocks`), which
`cap_at` scales by m; no matrix over the Novikov ring Z[t, t^-1] is built.
Where a degree holds the points of one Morse index and the degree below
those of the index below, the boundary is the stored Morse block itself.

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
from itertools import chain, compress
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
        if not self.crit:
            raise UnsupportedModel("a model needs at least one critical point")
        # the per-point tables, in one pass over `crit` that checks each point:
        # label -> its position and its Morse index; Morse index -> its labels
        # in `crit` order, the indices in the order of their first point
        position, index_of, index_labels = {}, {}, {}
        for i, (label, idx) in enumerate(self.crit):
            if not 0 <= idx <= self.dim:
                raise UnsupportedModel(f"Morse index {idx} of {label} out of [0, {self.dim}]")
            if not isinstance(label, str):
                raise UnsupportedModel("critical point label must be a string, got "
                                       + json.dumps(label, default=repr))
            position[label] = i
            index_of[label] = idx
            index_labels.setdefault(idx, []).append(label)
        if len(position) != len(self.crit):
            raise UnsupportedModel("critical point labels must be distinct")
        if self.cap == "surface" and not {"bot", "top"} <= position.keys():
            raise UnsupportedModel("the surface cap needs critical points bot and top")
        count = {idx: len(labels) for idx, labels in index_labels.items()}
        mats = self.morse_boundary or {}
        for idx, mat in sorted(mats.items()):
            shape = (count.get(idx - 1, 0), count.get(idx, 0))
            if (mat.rows, mat.cols) != shape:
                raise UnsupportedModel(
                    f"Morse boundary at index {idx} is {mat.rows}x{mat.cols}, "
                    f"expected {shape[0]}x{shape[1]}")
            # d_{idx-1} passed the shape check one step before
            if idx - 1 in mats and not (mats[idx - 1] @ mat).is_zero():
                raise UnsupportedModel("Morse differential does not square to zero: "
                                       f"d_{idx - 1} . d_{idx} != 0")
        ln = 0
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
        vars(self).update(position=position, index_of=index_of, index_labels=index_labels,
                          index_count=count, lambda_nu=ln)
        # `degree_classes`: the `degree_key` of a point's degree at k = 0 -> the
        # generators (label, k) in the degree of the key itself, in `crit`
        # order; `class_index`: each key -> the Morse index that all its points
        # share, None when they mix indices (a monotone base with 2*|lambda*nu|
        # <= dim can), and such a class is sorted back into `crit` order.  The
        # key and k depend on the Morse index alone, so each is read once per index
        classes: dict[int, list[tuple[str, int]]] = {}
        class_index: dict[int, Optional[int]] = {}
        for idx, labels in index_labels.items():
            shifted = self.fh_degree(idx, 0)
            key, k = self.degree_key(shifted), shifted // (2 * ln) if ln else 0
            classes.setdefault(key, []).extend((label, k) for label in labels)
            class_index[key] = None if key in class_index else idx
        for key, idx in class_index.items():
            if idx is None:
                classes[key].sort(key=lambda g: position[g[0]])
        vars(self).update(degree_classes={key: tuple(c) for key, c in classes.items()},
                          class_index=class_index)

    # -- structure -----------------------------------------------------------

    @property
    def aspherical(self) -> bool:
        return self.nu == 0

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    # -- lookups, built once per model ----------------------------------------

    @cached_property
    def morse_terms(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """The Morse differential by source: label -> its nonzero terms
        (target label, coefficient), filled from the nonzero columns."""
        terms = dict.fromkeys(self.position, ())
        for idx, mat in (self.morse_boundary or {}).items():
            tgts = self.index_labels.get(idx - 1, [])
            for s, col in zip(self.index_labels.get(idx, []), mat.columns):
                if col:
                    terms[s] = tuple((tgts[i], c) for i, c in col.items())
        return terms

    @cached_property
    def cap_terms(self) -> dict[str, tuple[tuple[str, int, int, int], ...]]:
        """The unit cap pattern by source: label -> its terms (target label,
        target Morse index, sphere-class shift, coefficient), targets in
        `crit` order, () for a point without one.  Each term must lower the
        degree by 2 (a built-in pattern on indices that do not fit it raises
        UnsupportedModel), so its shift is (idx_tgt - idx_src + 2) /
        (2*lambda*nu), and 0 when aspherical, where the cap lowers the Morse
        index by 2 and is nilpotent.  A cap that does not commute with the
        Morse differential raises NotAChainMap.  Both are checked here, on
        the first failing point in `crit` order, so every command that uses
        the model reports them the same way."""
        terms: dict[str, list[tuple[str, int, int, int]]] = {}     # the points with terms
        if self.cap == "cpn":
            # q_i -> q_{i-1}, and q_0 -> t q_n closes the cycle
            for i, (src, _) in enumerate(self.crit):
                tgt, idx = self.crit[i - 1]
                terms[src] = [(tgt, idx, int(i == 0), 1)]
        elif self.cap == "surface":
            terms["top"] = [("bot", self.index_of["bot"], 0, 1)]
        elif isinstance(self.cap, dict):
            mats = self.cap["degree_matrices"]
            # each degree of a critical point once, in `crit` order: its
            # points at k = 0 are the sources of their columns
            for d in (self.fh_degree(idx, 0) for idx in self.index_count):
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
                    if k == 0 and col:
                        ts = terms[label] = []
                        for i, c in sorted(col.items()):
                            tl, tk = tgt[i]
                            ts.append((tl, self.index_of[tl], tk, c))
        elif self.cap != "zero":
            raise UnsupportedModel(f"unknown cap spec {self.cap!r}")
        # both checks visit only the points with a cap or a Morse term, in
        # `crit` order: elsewhere both sides of d . cap = cap . d are 0
        morse = self.morse_terms
        points = sorted(terms.keys() | set(compress(morse, morse.values())),
                        key=self.position.__getitem__)
        for src in points:
            for tgt, tidx, s, _ in terms.get(src, ()):
                if self.fh_degree(tidx, s) != self.fh_degree(self.index_of[src], 0) - 2:
                    raise UnsupportedModel(f"cap term {src} -> {tgt} (sphere shift {s}) "
                                           "does not lower the degree by 2")
        for src in points:      # keyed by (target, shift)
            diff: dict[tuple[str, int], int] = {}
            for tgt, _, s, c in terms.get(src, ()):
                for u, e in morse[tgt]:
                    diff[u, s] = diff.get((u, s), 0) + c * e
            for tgt, e in morse[src]:
                for u, _, s, c in terms.get(tgt, ()):
                    diff[u, s] = diff.get((u, s), 0) - e * c
            if any(diff.values()):
                raise NotAChainMap("cap does not commute with boundaries at degree "
                                   f"{self.fh_degree(self.index_of[src], 0)}")
        out = dict.fromkeys(self.position, ())
        out.update((src, tuple(ts)) for src, ts in terms.items())
        return out

    @cached_property
    def index_gaps(self) -> bool:
        """No two critical points have consecutive Morse index, so the Morse
        part of the full boundary vanishes (see `rfh.boundary_full`)."""
        idxs = sorted(self.index_count)
        return all(b - a != 1 for a, b in zip(idxs, idxs[1:]))

    def fh_degree(self, morse_index: int, k: int) -> int:
        """The degree of a generator (q, k), q of Morse index `morse_index`:
        the one site of the grading convention (see the module docstring)."""
        return morse_index - self.half_dim - 2 * self.lambda_nu * k

    def degree_key(self, degree: int) -> int:
        """The key of `degree_classes` that holds the generators of a degree:
        the degree modulo 2*lambda*nu, the degree itself when aspherical."""
        return degree % (2 * self.lambda_nu) if self.lambda_nu else degree

    def generators_in_degree(self, degree: int) -> list[tuple[str, int]]:
        """(label, k) for every generator in the degree, in `crit` order: k is
        the unique sphere-class coordinate putting the point there, that of
        its class's key less degree // (2*lambda*nu)."""
        gens = self.degree_classes.get(self.degree_key(degree), ())
        q = degree // (2 * self.lambda_nu) if self.lambda_nu else 0
        return [(label, k - q) for label, k in gens] if q else list(gens)

    def rank(self, degree: int) -> int:
        """The number of generators in the degree."""
        return len(self.degree_classes.get(self.degree_key(degree), ()))

    def boundary_at(self, degree: int) -> IntMatrix:
        """The Floer boundary C_degree -> C_{degree-1}: the Morse
        differential on each sphere class.  Where the generators of the
        degree are the points of one Morse index i (`class_index`) and those
        of degree - 1 are the points of index i - 1, both at one sphere class
        in `crit` order, it is the stored block d_i itself (the zero matrix
        without one); a class that mixes indices is assembled term by term."""
        key = self.degree_key(degree)
        if key not in self.class_index:
            return IntMatrix.zero(self.rank(degree - 1), 0)
        i = self.class_index[key]
        if i is not None and self.class_index.get(self.degree_key(degree - 1), i - 1) == i - 1:
            block = (self.morse_boundary or {}).get(i)
            if block is None:
                return IntMatrix.zero(self.index_count.get(i - 1, 0), self.index_count[i])
            return block
        morse = self.morse_terms
        return matrix_from_terms(
            self.generators_in_degree(degree), self.generators_in_degree(degree - 1),
            lambda g: [((t, g[1]), c) for t, c in morse[g[0]]])

    @cached_property
    def cap_blocks(self) -> dict[int, IntMatrix]:
        """Each key of `degree_classes` -> the unit cap from the generators
        of the key's degree.  Every cap term lowers the degree by 2 (see
        `cap_terms`), so it lands on its target's one generator in degree
        - 2, at the target's place in its class: the block is the same at
        every degree of the class."""
        caps = self.cap_terms
        return {key: matrix_from_terms(
                    gens, self.generators_in_degree(key - 2),
                    lambda g: [((t, g[1] + s), c) for t, _, s, c in caps[g[0]]])
                for key, gens in self.degree_classes.items()}

    def cap_at(self, degree: int, m: int) -> IntMatrix:
        """The cap with -m[omega], C_degree -> C_{degree-2}: (label, k) goes
        to m*c (target, k + shift) for each cap term, m times the unit block
        of the degree's class (`cap_blocks`)."""
        block = self.cap_blocks.get(self.degree_key(degree))
        if block is None:
            return IntMatrix.zero(self.rank(degree - 2), 0)
        return block.scale(m)


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
    is not an int or an integral float: int() would read true, " 1 ", "1_0"
    and 2.9 as integers, and `from_rows` reads null, [], {} and "" as 0."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:     # one pass in C
        for x in chain.from_iterable(rows):
            if type(x) is not int and not (type(x) is float and x.is_integer()):
                got = repr(x) if type(x) is float else json.dumps(x, default=repr)
                raise UnsupportedModel(f"{field} must be an integer, got {got}")


def _matrix(rows, field: str) -> IntMatrix:
    _whole(rows, field)
    return IntMatrix.from_rows(rows)


MODEL_KEYS = ("name", "dim", "nu", "lambda", "cM", "crit", "cap", "primitiveOmega",
              "morseBoundary")
CRIT_KEYS = ("label", "index")


def _known(keys, known, where: str) -> None:
    for key in sorted(map(str, set(keys).difference(known)))[:1]:
        from difflib import get_close_matches       # 1.5 ms to import, for an error alone
        near = " or ".join(get_close_matches(key, known, 1) or known)
        raise UnsupportedModel(f"unknown {where} key {json.dumps(key)}, did you mean {near}?")


def load_model(source) -> BaseModel:
    """Model file: {"name", "dim", "nu", "lambda": "p/q", "cM", "crit": [{"label",
    "index"}...], "cap": "builtin:cpn"|"builtin:surface"|{...}, "primitiveOmega",
    optional "morseBoundary": {index: matrix}} and no other key.  Every number but
    lambda is an integer (2.0 reads as 2), only cM may be null, name is a string,
    and primitiveOmega a JSON true or false (not "false"), false when absent."""
    if isinstance(source, str):
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = dict(source)
    if not isinstance(obj, Mapping):
        raise UnsupportedModel("a model file holds one JSON object")
    _known(obj, MODEL_KEYS, "model")
    crit = obj.get("crit")
    if not isinstance(crit, list) or not set(map(type, crit)) <= {dict}:
        raise UnsupportedModel("crit must be a list of objects {label, index}")
    _known(chain.from_iterable(crit), CRIT_KEYS, "crit entry")     # one pass in C
    for field, kind, what in (("name", str, "a string"),
                              ("primitiveOmega", bool, "true or false")):
        if not isinstance(obj.get(field, kind()), kind):
            raise UnsupportedModel(f"{field} must be {what}, got {json.dumps(obj[field])}")
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
    for field, values in (("dim", [obj["dim"]]), ("nu", [obj["nu"]]),
                          ("cM", [obj["cM"]] if obj.get("cM") is not None else []),
                          ("crit index", [c["index"] for c in crit])):
        _whole([values], field)
    return BaseModel(
        name=obj.get("name", "file"),
        dim=int(obj["dim"]),
        nu=int(obj["nu"]),
        lam=lam,
        c_min=(int(obj["cM"]) if obj.get("cM") is not None else None),
        crit=tuple((c["label"], int(c["index"])) for c in crit),
        cap=cap,
        primitive_omega=obj.get("primitiveOmega", False),
        morse_boundary=morse,
    )
