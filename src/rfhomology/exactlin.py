"""Exact integer linear algebra: Smith normal form, kernels, images and
homology of pairs of integer matrices.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point anywhere in this module.  Matrices are small (a few hundred
rows at most), so the algorithms favour simplicity over asymptotics:
Smith normal form by row/column reduction with minimal-absolute-value
pivoting, ranks double-checked by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotAComplex, NotSquare, ShapeMismatch


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.get(i, i) for i in range(min(self.rows, self.cols)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a == 0:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    out[rbase + j] += a * other.entries[obase + j]
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return tuple(sum(self.get(i, j) * vec[j] for j in range(self.cols))
                     for i in range(self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows, cols=self.cols + other.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        rows = [[self.get(i, j) for j in col_idx] for i in row_idx]
        return IntMatrix.from_rows(rows, cols=len(col_idx))

    def __repr__(self) -> str:  # compact, test-failure friendly
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        return "IntMatrix(" + "; ".join(" ".join(str(x) for x in self.row(i))
                                        for i in range(self.rows)) + ")"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.D.diagonal() if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())


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


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Diagonalize A over Z by unimodular row/column operations.

    Pivots are chosen with minimal absolute value; after diagonalization the
    divisibility chain is repaired by the usual column-addition trick.
    Zero-size matrices are allowed.
    """
    m, n = A.rows, A.cols
    D = A.to_lists()
    U = IntMatrix.identity(m).to_lists()
    V = IntMatrix.identity(n).to_lists()

    def reduce_at(t: int) -> None:
        """Clear row and column t, assuming some nonzero entry exists in
        the lower-right block starting at (t, t)."""
        while True:
            # minimal |entry| pivot in the block
            pi = pj = -1
            best = 0
            for i in range(t, m):
                for j in range(t, n):
                    v = D[i][j]
                    if v != 0 and (best == 0 or abs(v) < best):
                        best = abs(v)
                        pi, pj = i, j
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

    Umat = IntMatrix.from_rows(U, cols=m)
    Vmat = IntMatrix.from_rows(V, cols=n)
    Dmat = IntMatrix.from_rows(D, cols=n) if m else IntMatrix.zero(0, n)
    return SmithDecomposition(Umat, Dmat, Vmat)


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    return smith_normal_form(A).invariant_factors()


def rank(A: IntMatrix) -> int:
    return smith_normal_form(A).rank


# ---------------------------------------------------------------------------
# Kernels and solving
# ---------------------------------------------------------------------------

def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) as a direct summand of Z^cols."""
    snf = smith_normal_form(A)
    return snf.V.submatrix(range(A.cols), range(snf.rank, A.cols))


def solve_matrix(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with A X = B, or None if some column of B has no integer
    solution.  With U A V = D in Smith form, D Y = U B is solved row by row
    and X = V Y."""
    if A.rows != B.rows:
        raise ShapeMismatch("solve_matrix row mismatch")
    snf = smith_normal_form(A)
    UB = (snf.U @ B).entries
    diag = snf.D.diagonal()
    k = B.cols
    Y = [0] * (A.cols * k)
    for i in range(A.rows):
        row = UB[i * k:(i + 1) * k]
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if any(row):
                return None
        elif any(x % d for x in row):
            return None
        else:
            Y[i * k:(i + 1) * k] = [x // d for x in row]
    return snf.V @ IntMatrix(A.cols, k, tuple(Y))


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of A x = b, or None if none exists."""
    X = solve_matrix(A, IntMatrix(len(b), 1, tuple(int(x) for x in b)))
    return None if X is None else X.entries


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
    if A.rows == 0:
        return True
    snf = smith_normal_form(A)
    factors = snf.invariant_factors()
    return len(factors) == A.rows and all(d == 1 for d in factors)


def matrix_power(A: IntMatrix, n: int) -> IntMatrix:
    if not A.is_square():
        raise NotSquare(f"{A.rows}x{A.cols} matrix has no powers")
    if n < 0:
        raise ValueError("negative power")
    result = IntMatrix.identity(A.rows)
    base = A
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


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


# ---------------------------------------------------------------------------
# Linear algebra over a prime field
# ---------------------------------------------------------------------------

def _fp_echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduce mod p; returns (reduced rows, pivot column list)."""
    rows = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_mod_p(A: IntMatrix, p: int) -> int:
    if A.rows == 0 or A.cols == 0:
        return 0
    _, pivots = _fp_echelon(A.to_lists(), p)
    return len(pivots)


def kernel_basis_mod_p(A: IntMatrix, p: int) -> list[list[int]]:
    """Basis vectors (length = cols) of ker(A mod p)."""
    if A.cols == 0:
        return []
    if A.rows == 0:
        return [[1 if i == j else 0 for i in range(A.cols)] for j in range(A.cols)]
    rows, pivots = _fp_echelon(A.to_lists(), p)
    free = [c for c in range(A.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * A.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis
