"""Exact integer linear algebra: Smith normal form, kernels, images and
homology of pairs of integer matrices.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point anywhere in this module.

`IntMatrix` stores its nonzeros by column (row -> entry) and never a zero.
Boundary matrices of the complexes here are large and nearly empty, with
mostly +-1 entries, so products, stacking and equality cost O(nnz);
`entries` is a dense row-major view for tests and display.

One transform core, `_smith`, does every Smith form.  It works on dense
row lists (`IntMatrix.to_lists`), reduces rows and columns with
minimal-absolute-value pivoting, carries the unimodular transforms U and
V, and returns I, 0, I at once on an all-zero input.  Its callers:

* `smith_normal_form` turns U, D and V into `IntMatrix` once; it is the
  public decomposition and the oracle the tests compare against.
* `kernel_basis` reads the kernel columns off V.
* `solve_matrix` applies U and then V per column of B, reading only the
  nonzeros of that column and of its solution; it is the only integer
  solve, behind `homology_with_cycles` and the induced maps and exactness
  checks of `chaincplx`.
* `invariant_factors` reads only the diagonal, for the unit-free
  remainder below.

`invariant_factors` (and through it `rank`, `rank_mod_p`,
`is_surjective_over_z` and `presentation_from_relations`) is the
transform-free path.  It eliminates unit pivots on row dicts transposed
from the columns, least Markowitz cost first, and hands only the unit-free
remainder, usually empty or tiny, to `_smith`.  The transform users see
small matrices (at most 18 rows in the Gysin exactness checks, about 0.44
nonzero), where dense row lists are the right fit.

Field coefficients use the same elimination: the rank of A over F_p is the
number of invariant factors of A that p does not divide (`rank_mod_p`).
There is no elimination over a field.

Ranks are double-checked by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotAComplex, NotSquare, ShapeMismatch


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored by columns: columns[j] maps a row
    index to the nonzero entry there, and no zero is ever stored, so `==`
    is entry-wise equality.  `entries` is a dense row-major view."""

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch(f"negative shape {self.rows}x{self.cols}")
        if len(self.columns) != self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.cols} columns, "
                f"got {len(self.columns)}")

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
        return cls(rows, cols, tuple({} for _ in range(cols)))

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
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, x in col.items():
                for i, y in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: v for i, v in acc.items() if v})
        return IntMatrix(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return IntMatrix(self.rows, self.cols + other.cols, self.columns + other.columns)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        off = self.rows
        return IntMatrix(self.rows + other.rows, self.cols, tuple(
            {**top, **{off + i: x for i, x in bottom.items()}}
            for top, bottom in zip(self.columns, other.columns)))

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.D.diagonal() if d != 0)


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
           ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """The transform-carrying elimination behind every Smith form here:
    diagonalizes the m x n matrix whose rows are D (reduced in place) and
    returns the rows of (U, D, V) with U A V = D.

    Pivots are chosen with minimal absolute value; after diagonalization the
    divisibility chain is repaired by the usual column-addition trick.  An
    all-zero input returns I, 0, I at once.
    """
    m = len(D)
    U = _identity_rows(m)
    V = _identity_rows(n)
    if not any(map(any, D)):
        return U, D, V

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
        start = viol
    return U, D, V


def _nonzero_diagonal(D: list[list[int]], n: int) -> list[int]:
    """The nonzero invariant factors of a Smith form D with n columns."""
    return [D[t][t] for t in range(min(len(D), n)) if D[t][t]]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Diagonalize A over Z by unimodular row/column operations (see
    `_smith`).  Zero-size matrices are allowed."""
    U, D, V = _smith(A.to_lists(), A.cols)
    return SmithDecomposition(IntMatrix.from_rows(U, cols=A.rows),
                              IntMatrix.from_rows(D, cols=A.cols),
                              IntMatrix.from_rows(V, cols=A.cols))


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of A, equal to
    ``smith_normal_form(A).invariant_factors()`` but with no transforms.

    The nonzeros are kept as row dicts with a column -> rows index.  While a
    +-1 entry exists, the one of least Markowitz cost (row nnz - 1) *
    (column nnz - 1) clears its column from the other rows; its row and
    column are then dropped (column operations against the now lone unit
    would clear the row without touching anything else), which is one
    invariant factor 1.  Only the unit-free remainder goes to the dense
    `_smith`, whose diagonal is read.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for j, col in enumerate(A.columns):
        if col:
            col_rows[j] = set(col)
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
    units = 0
    while True:
        pivot, best = None, 0
        for i, row in rows.items():
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = (len(row) - 1) * (len(col_rows[j]) - 1)
                    if pivot is None or cost < best:
                        pivot, best = (i, j), cost
            if pivot is not None and best == 0:
                break
        if pivot is None:
            break
        p, q = pivot
        prow = rows.pop(p)
        u = prow.pop(q)
        for j in prow:
            col_rows[j].discard(p)
        for i in col_rows.pop(q) - {p}:
            row = rows[i]
            f = row.pop(q) * u          # u = 1/u for a unit
            for j, x in prow.items():
                v = row.get(j, 0) - f * x
                if v:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            if not row:
                del rows[i]
        units += 1
    if not rows:
        return (1,) * units
    cols = sorted({j for row in rows.values() for j in row})
    _, D, _ = _smith([[row.get(j, 0) for j in cols] for row in rows.values()], len(cols))
    return (1,) * units + tuple(_nonzero_diagonal(D, len(cols)))


def rank(A: IntMatrix) -> int:
    return len(invariant_factors(A))


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over F_p: the invariant factors p does not divide, since U
    and V of the Smith form stay invertible mod p."""
    return sum(1 for d in invariant_factors(A) if d % p)


# ---------------------------------------------------------------------------
# Kernels and solving
# ---------------------------------------------------------------------------

def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) as a direct summand of Z^cols: the
    last cols - rank(A) columns of V in U A V = D."""
    _, D, V = _smith(A.to_lists(), A.cols)
    r = len(_nonzero_diagonal(D, A.cols))
    return IntMatrix(A.cols, A.cols - r, tuple(
        {i: row[j] for i, row in enumerate(V) if row[j]} for j in range(r, A.cols)))


def solve_matrix(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with A X = B, or None if some column of B has no integer
    solution.  With U A V = D in Smith form, each column b of B gives
    D y = U b, solved entry by entry, and x = V y; only the nonzeros of b
    and y are read, and an empty column of B is skipped."""
    if A.rows != B.rows:
        raise ShapeMismatch("solve_matrix row mismatch")
    U, D, V = _smith(A.to_lists(), A.cols)
    X = []
    for b in B.columns:
        x: dict[int, int] = {}
        if b:
            for i, u in enumerate(U):
                ub = sum(u[j] * c for j, c in b.items())
                if not ub:
                    continue
                d = D[i][i] if i < A.cols else 0
                if d == 0 or ub % d:
                    return None
                y = ub // d
                for r, v in enumerate(V):
                    if v[i]:
                        x[r] = x.get(r, 0) + v[i] * y
        X.append({r: c for r, c in x.items() if c})
    return IntMatrix(A.cols, B.cols, tuple(X))


# ---------------------------------------------------------------------------
# Homology of a pair of maps
# ---------------------------------------------------------------------------

def presentation_from_relations(n_generators: int, relations: IntMatrix) -> ZModulePresentation:
    """Z^n modulo the column span of `relations` (an n x r matrix)."""
    if relations.rows != n_generators:
        raise ShapeMismatch("relation matrix has wrong number of rows")
    factors = invariant_factors(relations)
    torsion = tuple(d for d in factors if d >= 2)
    return ZModulePresentation(n_generators - len(factors), torsion)


def homology_with_cycles(d_out: IntMatrix, d_in: IntMatrix
                         ) -> tuple[IntMatrix, IntMatrix, ZModulePresentation]:
    """ker(d_out) / im(d_in) for consecutive boundary maps, together with
    the basis K of ker(d_out) it is presented on and the coordinates X of
    im(d_in) in that basis: the group is Z^{K.cols} / colspan(X).

    d_out : C_k -> C_{k-1} and d_in : C_{k+1} -> C_k, so d_out has one
    column per generator of C_k and d_in one row per generator of C_k.
    """
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"chain group mismatch: d_out has {d_out.cols} columns, "
            f"d_in has {d_in.rows} rows")
    K = kernel_basis(d_out)
    X = solve_matrix(K, d_in)
    if X is None:  # K spans the whole kernel, so this means d_out . d_in != 0
        raise NotAComplex("d_out . d_in != 0")
    return K, X, presentation_from_relations(K.cols, X)


def homology(d_out: IntMatrix, d_in: IntMatrix) -> ZModulePresentation:
    """ker(d_out) / im(d_in); see `homology_with_cycles`."""
    return homology_with_cycles(d_out, d_in)[2]


def is_surjective_over_z(A: IntMatrix) -> bool:
    """True iff coker(A) = 0, i.e. rank equals the row count and every
    invariant factor is 1."""
    factors = invariant_factors(A)
    return len(factors) == A.rows and all(d == 1 for d in factors)


# ---------------------------------------------------------------------------
# Fraction-free elimination: the independent second method
# ---------------------------------------------------------------------------

def rank_bareiss(A: IntMatrix) -> int:
    """Rank by fraction-free Gaussian elimination (Bareiss); exact, and
    independent of the Smith normal form code path."""
    m, n = A.rows, A.cols
    M = A.to_lists()
    prev = 1
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if M[i][c] != 0:
                piv = i
                break
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
