"""Exact integer linear algebra: Smith normal form, invariant factors,
kernels and integer solves.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point anywhere in this module.

`IntMatrix` stores its nonzeros by column (row -> entry) and never a zero.
Boundary matrices of the complexes here are large and nearly empty, with
mostly +-1 entries, so products, stacking and equality cost O(nnz);
`entries` is a dense row-major view for tests and display.  The engine
builds tens of thousands of tiny ones per sequence, many of them with no
rows or no columns, so `IntMatrix` is a slots class, and a product with no
rows, no columns or an empty inner dimension is the zero matrix at once.

One sparse elimination, `_Elimination`, serves every engine caller.  It
works on the columns of `IntMatrix`: while a +-1 entry is left, the one of
least Markowitz cost clears its row by column operations, recorded on a
sparse V, and only the unit-free remainder, usually empty or a few cells,
goes to the dense Smith form `_smith`.  The Gysin sequences of large
surfaces hand it boundary and relation matrices with hundreds of rows and
a few nonzeros per column, which a dense pivot scan over the whole lower
right block could not afford.  Its callers:

* `invariant_factors` (and through it `rank_mod_p` and
  `presentation_from_relations`) counts the unit pivots and reads the
  remainder's diagonal; it builds no V.
* `solve_matrix` substitutes forward in pivot order, solves the remainder
  by its Smith form and maps back by V; it is the one integer solve.
* `chaincplx` keeps eliminations to share them.  `LazyHomology`, the one
  homology routine, reads a group off the invariant factors of the two
  boundaries at its degree, and a cycle basis off the kernel of the
  outgoing one with its left inverse, so the relations of a homology group
  and the induced maps are products, not solves.  `_Elimination.kernel`
  reads that basis on V, the columns that became zero and V times the
  remainder's kernel, and its left inverse on the matching rows of V^-1
  (I and I at once for a zero A).  `verify_exactness`
  eliminates each distinct [map | relations of its target] once, for the
  kernel read at the map's source and the solve made at its target.

`_smith` itself is dense, reduces rows and columns with
minimal-absolute-value pivoting and carries U, V and V^-1; a zero or a
1 x 1 input, the commonest remainders, returns at once.  It is reached
only through the remainder.

Field coefficients use the same elimination: the rank of A over F_p is the
number of invariant factors of A that p does not divide (`rank_mod_p`).
There is no elimination over a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .errors import ShapeMismatch


class IntMatrix:
    """Immutable integer matrix stored by columns: columns[j] maps a row
    index to the nonzero entry there, and no zero is ever stored, so `==`
    is entry-wise equality.  `entries` is a dense row-major view.

    A slots class: the three fields are set once, by `__init__` after the
    shape checks, and assigning one raises; like a dict it is unhashable."""

    __slots__ = ("rows", "cols", "columns")
    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __init__(self, rows: int, cols: int, columns: tuple[dict[int, int], ...]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        if len(columns) != cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {cols} columns, got {len(columns)}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_columns(self, columns)

    def __setattr__(self, name, value):
        raise AttributeError(f"IntMatrix is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntMatrix is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.columns == other.columns)

    __hash__ = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        ncols = (len(rows[0]) if rows else 0) if cols is None else cols
        columns = tuple({} for _ in range(ncols))
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
            for col, x in zip(columns, map(int, r)):
                if x:
                    col[i] = x
        return cls(len(rows), ncols, columns)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple([{} for _ in range(cols)]))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple({j: 1} for j in range(n)))

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return self.columns[j].get(i, 0)

    def to_lists(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(x for row in self.to_lists() for x in row)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.get(i, i) for i in range(min(self.rows, self.cols)))

    # -- arithmetic ---------------------------------------------------------

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zero(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols,
                         tuple({i: c * x for i, x in col.items()} for col in self.columns))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not (self.rows and self.cols and other.cols):
            return IntMatrix.zero(self.rows, other.cols)
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, x in col.items():
                for i, y in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: v for i, v in acc.items() if v} if 0 in acc.values() else acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return IntMatrix(self.rows, self.cols + other.cols, self.columns + other.columns)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        """The rows `row_idx` (distinct) and the columns `col_idx`, in that
        order."""
        pos = {i: r for r, i in enumerate(row_idx)}
        return IntMatrix(len(row_idx), len(col_idx), tuple(
            {pos[i]: x for i, x in self.columns[j].items() if i in pos} for j in col_idx))

    def __repr__(self) -> str:  # compact, test-failure friendly
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        return "IntMatrix(" + "; ".join(" ".join(map(str, row))
                                        for row in self.to_lists()) + ")"


# the slot setters, which `IntMatrix.__setattr__` blocks for everyone else
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_columns = IntMatrix.columns.__set__


@dataclass(frozen=True)
class ZModulePresentation:
    """A finitely generated abelian group Z^free_rank + Z_t1 + ... with
    t_i >= 2 and t_i | t_{i+1}.  Canonical: equality is field-wise."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _swap_rows(M: list[list[int]], i: int, j: int) -> None:
    M[i], M[j] = M[j], M[i]


def _swap_cols(M: list[list[int]], i: int, j: int) -> None:
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add_row(M: list[list[int]], dst: int, src: int, c: int) -> None:
    if c == 0:
        return
    row_s, row_d = M[src], M[dst]
    for k in range(len(row_d)):
        row_d[k] += c * row_s[k]


def _add_col(M: list[list[int]], dst: int, src: int, c: int) -> None:
    if c == 0:
        return
    for row in M:
        row[dst] += c * row[src]


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _smith(D: list[list[int]], n: int
           ) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """The dense Smith form: diagonalizes the m x n matrix whose rows are D
    (reduced in place) and returns the rows of (U, D, V, V^-1) with
    U A V = D.

    Pivots are chosen with minimal absolute value; after diagonalization the
    divisibility chain is repaired by the usual column-addition trick.  Each
    column operation on V is mirrored by its inverse, a row operation on
    V^-1.  An all-zero input returns I, 0, I, I at once, and a 1 x 1 input
    [[a]] returns [[-1]] if a < 0 else [[1]], then [[|a|]], [[1]], [[1]].
    """
    m = len(D)
    if m == n == 1:
        if D[0][0] < 0:
            D[0][0] = -D[0][0]
            return [[-1]], D, [[1]], [[1]]
        return [[1]], D, [[1]], [[1]]
    U = _identity_rows(m)
    V = _identity_rows(n)
    Vinv = _identity_rows(n)
    if not any(map(any, D)):
        return U, D, V, Vinv

    def reduce_at(t: int) -> None:
        """Clear row and column t, assuming some nonzero entry exists in
        the lower-right block starting at (t, t)."""
        while True:
            # first entry of minimal |entry| in the block, row-major; once a
            # unit is found no later entry can replace it
            pi = pj = -1
            best = 0
            for i in range(t, m):
                row = D[i]
                for j in range(t, n):
                    v = row[j]
                    if v != 0 and (best == 0 or abs(v) < best):
                        best = abs(v)
                        pi, pj = i, j
                if best == 1:
                    break
            if best == 0:
                return
            if pi != t:
                _swap_rows(D, t, pi)
                _swap_rows(U, t, pi)
            if pj != t:
                _swap_cols(D, t, pj)
                _swap_cols(V, t, pj)
                _swap_rows(Vinv, t, pj)
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // p
                    _add_row(D, i, t, -q)
                    _add_row(U, i, t, -q)
                    dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // p
                    _add_col(D, j, t, -q)
                    _add_col(V, j, t, -q)
                    _add_row(Vinv, t, j, q)
                    dirty = dirty or D[t][j] != 0
            if not dirty:
                return

    k = min(m, n)
    start = 0
    while True:
        for t in range(start, k):
            reduce_at(t)
        # repair the first divisibility failure d_t | d_{t+1}, then
        # re-diagonalize from that position; |d_t| strictly drops each time
        viol = next((t for t in range(k - 1)
                     if D[t][t] != 0 and D[t + 1][t + 1] % D[t][t] != 0), None)
        if viol is None:
            break
        _add_col(D, viol, viol + 1, 1)
        _add_col(V, viol, viol + 1, 1)
        _add_row(Vinv, viol + 1, viol, -1)
        start = viol
    return U, D, V, Vinv


def _nonzero_diagonal(D: list[list[int]], n: int) -> list[int]:
    """The nonzero invariant factors of a Smith form D with n columns."""
    return [D[t][t] for t in range(min(len(D), n)) if D[t][t]]


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination: invariant factors, kernels and solving
# ---------------------------------------------------------------------------

def _axpy(x: dict[int, int], c: int, y: dict[int, int]) -> None:
    """x += c * y on sparse vectors, dropping the entries that cancel."""
    for i, v in y.items():
        w = x.get(i, 0) + c * v
        if w:
            x[i] = w
        else:
            del x[i]


def _cheapest_unit(cols: dict[int, dict[int, int]], row_cols: dict[int, set[int]],
                   unit_free: set[int]) -> Optional[tuple[int, int]]:
    """The +-1 entry (row, column) of least Markowitz cost, the first in
    column order among equals, or None.  Columns found without a unit are
    added to `unit_free` and skipped until they change."""
    pivot, best = None, 0
    for j, col in cols.items():
        if j in unit_free:
            continue
        nj = len(col) - 1
        found = False
        for i, x in col.items():
            if x == 1 or x == -1:
                found = True
                cost = (len(row_cols[i]) - 1) * nj
                if pivot is None or cost < best:
                    pivot, best = (i, j), cost
                    if cost == 0:
                        return pivot
        if not found:
            unit_free.add(j)
    return pivot


class _Elimination:
    """Column elimination of A on its +-1 entries, carrying V with A V in
    the reduced form below, and the dense Smith form of what is left.

    While an active column holds a +-1 entry, the one of least Markowitz
    cost (row nnz - 1) * (column nnz - 1) clears its row from the other
    active columns by column operations (recorded on V), and its row and
    column retire.  An entry that the elimination leaves alone in its row
    or column costs nothing; such entries are queued and taken first, so
    a chain of them is not scanned for again.

    An active column is zero on every retired row, so the pivot columns,
    read on the pivot rows in pivot order, are unit lower triangular, and
    every other column of A V is zero there.  Those other columns are
    either zero (kernel vectors, read off V) or make up the unit-free
    remainder R, usually empty or tiny, which goes to the dense `_smith`.
    So A ~ I_p + R, and A x = b is solved by forward substitution in pivot
    order, R's Smith solve and x = V y.

    Each column operation col_k -= f col_j is undone by the row operation
    row_j += f row_k on V^-1, which only ever writes the row of the pivot j.
    The rows of V^-1 on the non-pivot columns therefore stay unit rows, and
    the only V^-1 that is kept is R's, from `_smith`.

    Without `transform` nothing but the invariant factors is wanted: V is
    not built, and neither are R's transforms used.
    """

    rest: Sequence[int] = ()                # the columns of R ...
    rest_rows: Sequence[int] = ()           # ... and its rows
    smith = None                            # R's (U, D, V, V^-1)
    rest_factors: Sequence[int] = ()        # R's nonzero invariant factors
    pivot_order: Optional[dict[int, int]] = None   # pivot row -> position

    def __init__(self, A: IntMatrix, transform: bool = True):
        self.n = A.cols
        # (row, column, unit, column of A V) per pivot, in pivot order
        self.pivots: list[tuple[int, int, int, dict[int, int]]] = []
        self.V: dict[int, dict[int, int]] = {}    # columns of V other than e_j
        cols = {j: dict(col) for j, col in enumerate(A.columns) if col}
        if not cols:
            return
        row_cols: dict[int, set[int]] = {}
        for j, col in cols.items():
            for i in col:
                row_cols.setdefault(i, set()).add(j)
        V = self.V
        # entries that the elimination left alone in their column or row:
        # if still a unit, such an entry costs nothing
        lone: list[tuple[int, int]] = []
        unit_free: set[int] = set()          # active columns scanned without a unit
        while True:
            pivot = None
            while lone and pivot is None:
                i, j = lone.pop()
                col = cols.get(j)
                if (col is not None and col.get(i) in (1, -1)
                        and (len(col) == 1 or len(row_cols[i]) == 1)):
                    pivot = i, j
            pivot = pivot or _cheapest_unit(cols, row_cols, unit_free)
            if pivot is None:
                break
            p, q = pivot
            pcol = cols.pop(q)
            u = pcol[p]                      # u = 1/u for a unit
            for i in pcol:
                row_cols[i].discard(q)
            others = row_cols.pop(p)
            vq = V.get(q, {q: 1}) if transform else None
            for k in others:
                col = cols[k]
                f = col.pop(p) * u
                for i, x in pcol.items():
                    if i == p:
                        continue
                    v = col.get(i, 0) - f * x
                    if v:
                        if i not in col:
                            row_cols[i].add(k)
                        col[i] = v
                    elif i in col:
                        del col[i]
                        row_cols[i].discard(k)
                unit_free.discard(k)
                if transform:
                    _axpy(V.setdefault(k, {k: 1}), -f, vq)
                if not col:
                    del cols[k]
                elif len(col) == 1:
                    lone.extend((i, k) for i in col)
            for i in pcol:
                if i != p and len(row_cols[i]) == 1:
                    lone.append((i, next(iter(row_cols[i]))))
            self.pivots.append((p, q, u, pcol))
        if cols:
            # the unit-free remainder R: the nonzero non-pivot columns on
            # the rows they meet, all of which are non-pivot rows
            self.rest = rest = sorted(cols)
            self.rest_rows = sorted({i for col in cols.values() for i in col})
            self.smith = _smith([[cols[j].get(i, 0) for j in rest] for i in self.rest_rows],
                                len(rest))
            self.rest_factors = _nonzero_diagonal(self.smith[1], len(rest))

    def invariant_factors(self) -> tuple[int, ...]:
        return (1,) * len(self.pivots) + tuple(self.rest_factors)

    def _v(self, j: int) -> dict[int, int]:
        return self.V.get(j, {j: 1})

    def kernel(self) -> tuple[IntMatrix, IntMatrix]:
        """A basis K of ker(A) as a direct summand, and coordinates C with
        C K = I: the zero non-pivot columns of A V, then V times the
        kernel columns of R's Smith form; C holds the matching rows of the
        inverse, unit rows on the zero columns and R's V^-1 on its
        columns."""
        n = self.n
        if not self.pivots and not self.rest:   # A = 0: K = C = I
            I = IntMatrix.identity(n)
            return I, I
        done = {q for _, q, _, _ in self.pivots}
        rest = set(self.rest)
        zero = [j for j in range(n) if j not in done and j not in rest]
        K = [dict(self._v(j)) for j in zero]
        coords: list[dict[int, int]] = [{} for _ in range(n)]
        for t, j in enumerate(zero):
            coords[j][t] = 1
        if len(self.rest_factors) < len(self.rest):
            _, _, VR, VRinv = self.smith
            for s in range(len(self.rest_factors), len(self.rest)):
                t = len(K)
                x: dict[int, int] = {}
                for c, j in enumerate(self.rest):
                    if VR[c][s]:
                        _axpy(x, VR[c][s], self._v(j))
                    if VRinv[s][c]:
                        coords[j][t] = VRinv[s][c]
                K.append(x)
        return (IntMatrix(n, len(K), tuple(K)),
                IntMatrix(len(K), n, tuple(coords)))

    def solve(self, b: dict[int, int]) -> Optional[dict[int, int]]:
        """Some x with A x = b, or None if there is none."""
        r = dict(b)
        x: dict[int, int] = {}
        # forward substitution, visiting only the pivots whose rows r meets:
        # pivot t's column only reaches rows of later pivots
        order = self.pivot_order
        if order is None:                   # built on the first solve
            order = self.pivot_order = {p: t for t, (p, _, _, _) in enumerate(self.pivots)}
        todo = [order[i] for i in r if i in order]
        heapify(todo)
        while todo:
            t = heappop(todo)
            p, q, u, pcol = self.pivots[t]
            y = r.pop(p, 0) * u
            if y:
                for i, c in pcol.items():
                    if i != p:
                        w = r.get(i, 0) - y * c
                        if w:
                            if i not in r and i in order:
                                heappush(todo, order[i])
                            r[i] = w
                        else:
                            del r[i]
                _axpy(x, y, self._v(q))
        if not r:
            return x
        if not self.rest:
            return None
        pos = {i: t for t, i in enumerate(self.rest_rows)}
        if any(i not in pos for i in r):
            return None
        U, D, VR, _ = self.smith
        n = len(self.rest)
        for s, urow in enumerate(U):
            ub = sum(urow[pos[i]] * c for i, c in r.items())
            if not ub:
                continue
            d = D[s][s] if s < n else 0
            if d == 0 or ub % d:
                return None
            y = ub // d
            for c, j in enumerate(self.rest):
                if VR[c][s]:
                    _axpy(x, VR[c][s] * y, self._v(j))
        return x


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of A: one 1 per unit pivot of
    `_Elimination`, then the unit-free remainder's."""
    if not any(A.columns):
        return ()
    return _Elimination(A, transform=False).invariant_factors()


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over F_p: the invariant factors p does not divide, since U
    and V of the Smith form stay invertible mod p."""
    return sum(1 for d in invariant_factors(A) if d % p)


def solve_matrix(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with A X = B, or None if some column of B has no integer
    solution.  A B without a nonzero entry gives the zero X at once;
    otherwise A is eliminated once and every nonzero column of B is solved
    by `_Elimination.solve`."""
    if A.rows != B.rows:
        raise ShapeMismatch("solve_matrix row mismatch")
    if B.is_zero():
        return IntMatrix.zero(A.cols, B.cols)
    elim = _Elimination(A)
    X = []
    for b in B.columns:
        x = elim.solve(b) if b else {}
        if x is None:
            return None
        X.append(x)
    return IntMatrix(A.cols, B.cols, tuple(X))


# ---------------------------------------------------------------------------
# Presentations and cokernels
# ---------------------------------------------------------------------------

def presentation_from_relations(n_generators: int, relations: IntMatrix) -> ZModulePresentation:
    """Z^n modulo the column span of `relations` (an n x r matrix)."""
    if relations.rows != n_generators:
        raise ShapeMismatch("relation matrix has wrong number of rows")
    factors = invariant_factors(relations)
    torsion = tuple(d for d in factors if d >= 2)
    return ZModulePresentation(n_generators - len(factors), torsion)
