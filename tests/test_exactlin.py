import random
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from rfhomology import exactlin
from rfhomology.chaincplx import LazyHomology, matrix_from_terms
from rfhomology.errors import NotAComplex, ShapeMismatch
from rfhomology.exactlin import (IntMatrix, ZModulePresentation, _Elimination,
                                 _smith, _xgcd, invariant_factors, presentation_from_relations,
                                 rank_mod_p, solve_matrix)
from rfhomology.oracles import (GradedComplex, det_bareiss, mapping_cone, minor_factors,
                                minor_gcd, rank_bareiss)
from rfhomology.selftest import random_complex_and_map


def rand_matrix(rng, rows, cols, lim=9):
    return IntMatrix.from_rows([[rng.randint(-lim, lim) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def column(v):
    """The vector v as a one-column matrix."""
    return IntMatrix.from_rows([[int(x)] for x in v], cols=1)


def homology(d_out, d_in):
    """H_0 of d_in : C_1 -> C_0 and d_out : C_0 -> C_-1, read through a
    `GradedComplex` with the ranks of C_-1, C_0 and C_1 taken from the rows
    of d_out, the rows of d_in and the columns of d_in: the complex refuses
    a mis-shaped or non-complex pair when it is built."""
    ranks = {-1: d_out.rows, 0: d_in.rows, 1: d_in.cols}
    C = GradedComplex((-1, 1), {d: tuple(range(n)) for d, n in ranks.items()},
                      {0: d_out, 1: d_in})
    return LazyHomology(C.boundary_at).group(0)


def kernel(A):
    """The kernel basis that the engine reads off `_Elimination`."""
    return _Elimination(A).kernel()[0]


def smith(A):
    """The dense Smith form of all of A, (U, D, V, V^-1) with U A V = D, as
    matrices: the path the engine takes on a unit-free remainder."""
    U, D, V, Vinv = _smith(A.to_lists(), A.cols)
    return (IntMatrix.from_rows(U, cols=A.rows), IntMatrix.from_rows(D, cols=A.cols),
            IntMatrix.from_rows(V, cols=A.cols), IntMatrix.from_rows(Vinv, cols=A.cols))


matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m).map(
            lambda rows: IntMatrix.from_rows(rows, cols=n))))


def assert_smith_form(A):
    """`_smith` on all of A: U A V = D with U and V unimodular, V^-1 the
    inverse of V (`_Elimination.kernel` reads its left inverse off it), and
    D diagonal with a divisibility chain of nonnegative entries."""
    U, D, V, Vinv = smith(A)
    assert (U @ A @ V).entries == D.entries
    assert abs(det_bareiss(U)) == 1
    assert abs(det_bareiss(V)) == 1
    assert V @ Vinv == Vinv @ V == IntMatrix.identity(A.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert D.get(i, j) == 0
    diag = [D.get(i, i) for i in range(min(A.rows, A.cols))]
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d != 0]
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    # zeros trail the nonzero invariant factors
    assert diag[:len(nz)] == nz


@settings(max_examples=200, deadline=None)
@given(matrices)
@example(IntMatrix.from_rows([[-3]]))
@example(IntMatrix.from_rows([[0]]))
@example(IntMatrix.from_rows([[5]]))
def test_snf_invariants(A):
    assert_smith_form(A)


lines = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=1, max_size=6).flatmap(
    lambda a: st.sampled_from((IntMatrix.from_rows([a]),
                               IntMatrix.from_rows([[x] for x in a], cols=1))))


@settings(max_examples=300, deadline=None)
@given(lines)
@example(IntMatrix.from_rows([[0, -6, 0, 4, 9]]))
@example(IntMatrix.from_rows([[-7], [0], [0]]))
@example(IntMatrix.from_rows([[6, 4, -15, 10]]))
def test_snf_of_a_single_row_or_column(A):
    """The one extended-gcd sweep of `_smith_line` (every input here but
    1 x 1 takes it) is a Smith form, and the engine's invariant factors
    equal the determinantal divisors' quotients."""
    assert_smith_form(A)
    assert invariant_factors(A) == minor_factors(A)


def test_xgcd_is_a_bezout_identity():
    """g = gcd(a, b) >= 0 with s a + t b = g, and a column addition alone
    (s = +-1, t = 0) when a divides b."""
    for a, b in product(range(-13, 14), repeat=2):
        g, s, t = _xgcd(a, b)
        assert g == gcd(a, b) and s * a + t * b == g
        if a and b % a == 0:
            assert (abs(s), t) == (1, 0)


@pytest.mark.parametrize("rows, b, solvable", [
    ([[2, 3]], [[7]], True),
    ([[2], [3]], [[-4], [-6]], True),
    ([[2], [3]], [[1], [0]], False),
    ([[4, 6, 9]], [[1]], True),
    ([[4, 6, 10]], [[3]], False),
    ([[0, 6, -4], [0, 0, 0]], [[2], [0]], True),
])
def test_kernel_and_solve_on_a_line_remainder(rows, b, solvable):
    """No unit entry, so the whole matrix is the remainder and goes to
    `_smith_line`: the kernel is saturated, of the right rank, killed by A,
    with C K = I, and `solve` finds x with A x = b exactly when there is
    one."""
    A, B = IntMatrix.from_rows(rows), IntMatrix.from_rows(b)
    elim = _Elimination(A)
    assert elim.rest and not elim.pivots
    K, C = elim.kernel()
    assert (A @ K).is_zero() and C @ K == IntMatrix.identity(K.cols)
    assert K.cols == A.cols - len(minor_factors(A))
    assert invariant_factors(K) == (1,) * K.cols
    assert elim.kernel_columns() == list(K.columns)
    x = elim.solve(B.columns[0])
    assert (x is not None) == solvable
    if solvable:
        assert A @ IntMatrix(A.cols, 1, (x,)) == B


ENTRY_KINDS = {
    "sparse": st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3)),
    "dense": st.integers(-9, 9).filter(bool),
    "all-unit": st.sampled_from((1, -1)),
    "unit-free": st.sampled_from((0, 2, -2, 3, -4, 6, -9)),
    "large-entry": st.integers(-10 ** 15, 10 ** 15),
}


@st.composite
def kinded_matrices(draw, rows=None):
    entries = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    m = draw(st.integers(0, 7)) if rows is None else rows
    n = draw(st.integers(0, 7))
    flat = draw(st.lists(entries, min_size=m * n, max_size=m * n))
    return IntMatrix.from_rows([flat[i * n:(i + 1) * n] for i in range(m)], cols=n)


def stores_no_zero(M):
    """The sparse normal form: one row -> entry dict per column, every key
    a row of M and every stored entry nonzero."""
    return len(M.columns) == M.cols and all(
        x != 0 and 0 <= i < M.rows for col in M.columns for i, x in col.items())


def dense(M):
    """M as a numpy array of Python integers."""
    return np.array(M.to_lists(), dtype=object).reshape(M.rows, M.cols)


@settings(max_examples=300, deadline=None)
@given(kinded_matrices(), st.data())
def test_sparse_storage_is_a_normal_form(A, data):
    """Equality is entry-wise, products match a dense product, and no
    producer stores a zero."""
    lists = A.to_lists()
    assert IntMatrix.from_rows(lists, cols=A.cols) == A
    B = data.draw(st.one_of(st.just(IntMatrix.from_rows(lists, cols=A.cols)),
                            st.just(A.scale(-1).scale(-1)), kinded_matrices()))
    assert (A == B) == ((A.rows, A.cols, lists) == (B.rows, B.cols, B.to_lists()))
    C = data.draw(kinded_matrices(rows=A.cols))
    assert (A @ C).to_lists() == (dense(A) @ dense(C)).tolist()
    K = kernel(A)
    assert (A @ K).is_zero()            # every entry cancels
    rows = data.draw(st.lists(st.integers(0, A.rows - 1), unique=True)) if A.rows else []
    cols = data.draw(st.lists(st.integers(0, A.cols - 1))) if A.cols else []
    produced = [A, A.scale(0), A.scale(-3), A @ C, A @ K, K, A.hstack(A),
                A.submatrix(rows, cols), solve_matrix(A, A @ C)]
    assert all(stores_no_zero(M) for M in produced)


def test_named_producers_store_no_zero():
    assert stores_no_zero(IntMatrix.zero(3, 4)) and IntMatrix.zero(3, 4).is_zero()
    assert stores_no_zero(IntMatrix.identity(4))
    assert stores_no_zero(IntMatrix.from_rows([[0, 2], [0, 0]]))
    cancel = IntMatrix.from_rows([[1, 1]]) @ IntMatrix.from_rows([[1], [-1]])
    assert stores_no_zero(cancel) and cancel == IntMatrix.zero(1, 1)
    summed = matrix_from_terms("ab", "xy", lambda g: [("x", 2), ("y", 1), ("x", -2)])
    assert stores_no_zero(summed) and summed.to_lists() == [[0, 0], [1, 1]]
    rng = random.Random(3)
    for _ in range(20):
        _, psi = random_complex_and_map(rng)
        cone = mapping_cone(psi)
        assert all(stores_no_zero(M) for M in cone.boundary.values())


def test_wrong_column_count_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        IntMatrix(2, 3, ({}, {}))
    with pytest.raises(ShapeMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


def test_products_with_empty_shapes_match_a_dense_reference():
    """A product with no rows, no columns or an empty inner dimension is
    the zero matrix at once; on seeded shapes that include them, and
    entries small enough that zeros and cancellations are common, every
    product equals the dense one read off `to_lists`."""
    rng = random.Random(23)
    for _ in range(400):
        m, k, n = (rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(3))
        A, B = rand_matrix(rng, m, k, lim=2), rand_matrix(rng, k, n, lim=2)
        a, b = A.to_lists(), B.to_lists()
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
        got = A @ B
        assert (got.rows, got.cols) == (m, n) and stores_no_zero(got)
        assert got.to_lists() == want


@st.composite
def operands(draw, rows, cols):
    """A rows x cols matrix: zero, the identity when square, or small
    entries with zeros common."""
    kinds = ["zero", "entries"] + (["identity"] if rows == cols else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return IntMatrix.zero(rows, cols)
    if kind == "identity":
        return IntMatrix.identity(rows)
    flat = draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix.from_rows([flat[i * cols:(i + 1) * cols] for i in range(rows)],
                               cols=cols)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interned_operands_give_the_dense_answer(data):
    """Products and hstack with zero, identity and column-free operands,
    which return an operand or an interned zero, equal the dense answer
    read off `to_lists`."""
    m, k, n, c = (data.draw(st.integers(0, 4)) for _ in range(4))
    A, B = data.draw(operands(m, k)), data.draw(operands(k, n))
    P = A @ B
    a, b = A.to_lists(), B.to_lists()
    assert (P.rows, P.cols) == (m, n) and stores_no_zero(P)
    assert P.to_lists() == [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                            for i in range(m)]
    S = data.draw(operands(m, c))
    H = A.hstack(S)
    assert (H.rows, H.cols) == (m, k + c) and stores_no_zero(H)
    assert H.to_lists() == [x + y for x, y in zip(a, S.to_lists())]


def test_interned_zero_and_identity_are_shared_and_read_only():
    """Small shapes are one shared matrix whose columns cannot be written;
    a shape above the bound is built each time and leaves no entry in the
    tables."""
    Z, I = IntMatrix.zero(2, 3), IntMatrix.identity(3)
    assert Z is IntMatrix.zero(2, 3) and I is IntMatrix.identity(3)
    for M in (Z, I):
        with pytest.raises(TypeError):
            M.columns[0][1] = 5
    assert I.columns[1] == {1: 1} and Z.columns[0] == {}
    big = exactlin._INTERN_MAX + 1
    zeros, identities = dict(exactlin._zeros), dict(exactlin._identities)
    for shape in ((big, 1), (1, big), (big, big)):
        Z = IntMatrix.zero(*shape)
        assert Z.is_zero() and (Z.rows, Z.cols) == shape and Z is not IntMatrix.zero(*shape)
    I = IntMatrix.identity(big)
    assert I == IntMatrix.from_rows([[int(i == j) for j in range(big)] for i in range(big)])
    assert I is not IntMatrix.identity(big)
    assert exactlin._zeros == zeros and exactlin._identities == identities
    assert all(r <= exactlin._INTERN_MAX and c <= exactlin._INTERN_MAX
               for r, c in exactlin._zeros)
    assert all(n <= exactlin._INTERN_MAX for n in exactlin._identities)


@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 2)])
def test_elimination_of_a_zero_matrix_has_identity_kernel(m, n):
    """No pivot and no remainder: K = C = I_n, what the general path builds
    from the n zero columns."""
    K, C = _Elimination(IntMatrix.zero(m, n)).kernel()
    assert K == C == IntMatrix.identity(n)


def test_int_matrix_is_immutable_and_unhashable():
    A = IntMatrix.identity(2)
    for name, value in (("rows", 3), ("cols", 3), ("columns", ({}, {})), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(A, name, value)
        with pytest.raises(AttributeError):
            delattr(A, name)
    assert (A.rows, A.cols, A.columns) == (2, 2, ({0: 1}, {1: 1}))
    assert A == IntMatrix.from_rows([[1, 0], [0, 1]]) and A != IntMatrix.identity(3)
    assert (A == A.to_lists()) is False and (A == (2, 2, A.columns)) is False
    with pytest.raises(TypeError):
        hash(A)


def sympy_invariant_factors(A):
    D = sympy_smith_normal_form(sympy.Matrix(A.rows, A.cols, list(A.entries)),
                                domain=sympy.ZZ)
    return tuple(abs(int(D[i, i])) for i in range(min(A.rows, A.cols)) if D[i, i])


@settings(max_examples=400, deadline=None)
@given(kinded_matrices())
@example(IntMatrix.zero(0, 4))
@example(IntMatrix.zero(4, 0))
@example(IntMatrix.from_rows([[2, 3]]))
def test_invariant_factors_match_two_oracles(A):
    """The sparse unit-pivot path equals sympy's Smith form and the
    quotients of the determinantal divisors."""
    got = invariant_factors(A)
    assert got == sympy_invariant_factors(A)
    assert got == minor_factors(A)


vectors = st.lists(st.integers(-9, 9), min_size=14, max_size=14)


@settings(max_examples=300, deadline=None)
@given(kinded_matrices(), vectors, vectors, vectors)
@example(IntMatrix.from_rows([[2, 3]]), [1] * 14, [1, -2] * 7, [1] * 14)
@example(IntMatrix.from_rows([[2, 0], [0, 4]]), [1] * 14, [1, -2] * 7, [1, 2] * 7)
@example(IntMatrix.from_rows([[1, 2, 3], [2, 0, 4]]), [1] * 14, [3, 1] * 7, [0, 1] * 7)
def test_kernel_and_solve_on_kinded_matrices(A, x, y, b):
    """The sparse elimination against the dense Smith form.  The kernel
    spans the lattice of the V-kernel of `_smith` on all of A (each basis
    solves into the other; both are saturated), coords is a left inverse
    of it, and the relations of a homology group solve K X = d_in.
    solve_matrix fails exactly when B leaves the column lattice of A:
    judged by the invariant factors of A and [A | B], which share no
    transforms.  The examples leave a unit-free remainder: alone, and
    after a unit pivot."""
    K = kernel(A)
    assert (A @ K).is_zero()
    assert K.cols == A.cols - len(invariant_factors(A))
    assert invariant_factors(K) == (1,) * K.cols
    _, D, V, _ = smith(A)
    rank = sum(1 for i in range(min(A.rows, A.cols)) if D.get(i, i))
    dense = V.submatrix(range(A.cols), range(rank, A.cols))
    assert solve_matrix(K, dense) is not None and solve_matrix(dense, K) is not None
    # d_in with its columns in the kernel: K Y = d_in
    Y = IntMatrix.from_rows([y[2 * t:2 * t + 2] for t in range(K.cols)], cols=2)
    d_in = K @ Y
    h = LazyHomology({0: A, 1: d_in}.__getitem__).basis(0)
    K2, coords, X = h.cycles, h.coords, h.relations
    assert K2 == K
    assert coords @ K == IntMatrix.identity(K.cols)
    assert X == solve_matrix(K, d_in) == Y
    # one column in the image of A, one arbitrary
    B = IntMatrix.from_rows([[v, w] for v, w in zip((A @ column(x[:A.cols])).entries, b)],
                            cols=2)
    X = solve_matrix(A, B)
    assert (X is None) == (invariant_factors(A.hstack(B)) != invariant_factors(A))
    if X is not None:
        assert A @ X == B


@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 2)])
def test_snf_of_zero_matrix_is_identity_transforms(m, n):
    U, D, V, Vinv = smith(IntMatrix.zero(m, n))
    assert (U.rows, U.cols, U.entries) == (m, m, IntMatrix.identity(m).entries)
    assert (D.rows, D.cols, D.entries) == (m, n, IntMatrix.zero(m, n).entries)
    assert (V.rows, V.cols, V.entries) == (n, n, IntMatrix.identity(n).entries)
    assert Vinv == IntMatrix.identity(n)


def test_snf_identity_and_diag():
    U, D, V, Vinv = smith(IntMatrix.identity(2))
    assert D.entries == IntMatrix.identity(2).entries
    assert V @ Vinv == IntMatrix.identity(2)
    _, D, _, _ = smith(IntMatrix.from_rows([[2, 0], [0, 0]]))
    assert (D.get(0, 0), D.get(1, 1)) == (2, 0)


def test_snf_minor_gcd_oracle():
    rng = random.Random(42)
    for _ in range(200):
        A = rand_matrix(rng, 4, 4)
        factors = invariant_factors(A)
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == abs(minor_gcd(A, k))
        if len(factors) < 4:
            assert minor_gcd(A, len(factors) + 1) == 0


def test_minor_factors_match_sympy():
    """The oracles' invariant factors, quotients of successive determinantal
    divisors, equal sympy's Smith form over ZZ on seeded small matrices:
    dense, sparse, of low rank, and of zero and empty shapes."""
    rng = random.Random(2024)
    cases = [IntMatrix.zero(r, c) for r in range(4) for c in range(4)]
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice((0.3, 0.6, 1.0))
        cases.append(IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
             for _ in range(r)], cols=c))
        inner = rng.randint(1, 2)
        cases.append(rand_matrix(rng, r, inner, lim=4) @ rand_matrix(rng, inner, c, lim=4))
    for A in cases:
        assert minor_factors(A) == sympy_invariant_factors(A), A


def test_rank_two_methods_agree():
    rng = random.Random(5)
    for _ in range(300):
        A = rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), lim=6)
        assert len(invariant_factors(A)) == rank_bareiss(A)


def test_kernel_and_solve():
    rng = random.Random(11)
    for _ in range(200):
        A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), lim=4)
        K = kernel(A)
        assert (A @ K).is_zero()
        assert K.cols == A.cols - len(invariant_factors(A))
        x = [rng.randint(-3, 3) for _ in range(A.cols)]
        b = A @ column(x)
        y = solve_matrix(A, b)
        assert y is not None and (A @ y).entries == b.entries


# -- homology ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 9))
def test_homology_of_zero_maps(n):
    d_out = IntMatrix.zero(1, n)
    d_in = IntMatrix.zero(n, 1)
    assert homology(d_out, d_in) == ZModulePresentation(n, ())


def test_homology_cyclic_block():
    assert homology(IntMatrix.zero(0, 1), IntMatrix.from_rows([[6]])) == \
        ZModulePresentation(0, (6,))
    assert homology(IntMatrix.zero(0, 1), IntMatrix.from_rows([[1]])) == \
        ZModulePresentation(0, ())


def test_homology_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        homology(IntMatrix.zero(1, 2), IntMatrix.zero(3, 1))
    with pytest.raises(NotAComplex):
        homology(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))
    with pytest.raises(NotAComplex):      # d_in leaves the kernel [[0], [1]]
        homology(IntMatrix.from_rows([[2, 0]]), IntMatrix.from_rows([[1], [0]]))


def _rational_solve_unique(A: IntMatrix, b):
    """Oracle-side rational solver for full-column-rank A."""
    m, n = A.rows, A.cols
    M = [[Fraction(A.get(i, j)) for j in range(n)] + [Fraction(b[i])]
         for i in range(m)]
    r = 0
    piv = []
    for c in range(n):
        p = next((i for i in range(r, m) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        piv.append(c)
        r += 1
    if r < n:
        raise ValueError("columns not independent")
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    return [M[i][n] for i in range(n)]


full_column_rank = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, m).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           min_size=m, max_size=m).map(
            lambda rows: IntMatrix.from_rows(rows, cols=n)))).filter(
    lambda A: rank_bareiss(A) == A.cols)


@settings(max_examples=200, deadline=None)
@given(full_column_rank, st.data())
def test_solve_matrix_none_exactly_when_unsolvable(A, data):
    """solve_matrix returns None exactly when some column of B has no
    integer solution, judged by the rational oracle; otherwise A X = B.
    Each column of B is either random or the image of an integer vector."""
    entries = st.integers(-6, 6)
    cols = []
    for _ in range(data.draw(st.integers(2, 3))):
        if data.draw(st.booleans()):
            cols.append((A @ column(data.draw(st.lists(entries, min_size=A.cols,
                                                         max_size=A.cols)))).entries)
        else:
            cols.append(data.draw(st.lists(entries, min_size=A.rows, max_size=A.rows)))
    B = IntMatrix.from_rows([list(r) for r in zip(*cols)], cols=len(cols))
    sols = [_rational_solve_unique(A, c) for c in cols]
    solvable = all(x is not None and all(v.denominator == 1 for v in x) for x in sols)
    X = solve_matrix(A, B)
    assert (X is not None) == solvable
    if X is not None:
        assert (A @ X).entries == B.entries


def _orders_of_quotient(L: IntMatrix, g: int):
    """Multiset of element orders of Z^n / colspan(L), |quotient| = g, by
    explicit coset enumeration (L has independent columns)."""
    n = L.rows

    def in_lattice(v):
        sol = _rational_solve_unique(L, v)
        return sol is not None and all(x.denominator == 1 for x in sol)

    reps = []
    for cand in product(range(g), repeat=n):
        if not any(in_lattice([a - b for a, b in zip(cand, r)]) for r in reps):
            reps.append(list(cand))
    assert len(reps) == g
    orders = []
    for r in reps:
        t = next(t for t in range(1, g + 1) if in_lattice([t * x for x in r]))
        orders.append(t)
    return sorted(orders)


def _orders_of_presentation(p: ZModulePresentation):
    assert p.free_rank == 0
    from math import lcm
    orders = []
    for combo in product(*[range(t) for t in p.torsion]):
        orders.append(lcm(1, *[t // gcd(t, c) if c else 1
                               for t, c in zip(p.torsion, combo)]))
    return sorted(orders)


def test_homology_vs_coset_enumeration_oracle():
    """Finite quotients Z^n / L compared against brute-force coset
    enumeration (independent rational solver, no Smith form)."""
    rng = random.Random(321)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        L = rand_matrix(rng, n, n, lim=3)
        g = abs(det_bareiss(L))
        if g == 0 or g > 12 or rank_bareiss(L) < n:
            continue
        pres = homology(IntMatrix.zero(0, n), L)
        assert pres.free_rank == 0
        assert _orders_of_presentation(pres) == _orders_of_quotient(L, g)
        done += 1


def test_homology_known_presentation_after_scrambling():
    """Build a complex realizing a known presentation, scramble all three
    chain groups by unimodular matrices, and check recovery."""
    rng = random.Random(7)

    def unimodular(n):
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            if n < 2:
                break
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                M[i][k] += c * M[j][k]
        return IntMatrix.from_rows(M, cols=n) if n else IntMatrix.zero(0, 0)

    for _ in range(60):
        free = rng.randint(0, 2)
        torsion = []
        t = rng.choice([2, 3, 4])
        for _ in range(rng.randint(0, 2)):
            torsion.append(t)
            t *= rng.choice([1, 2, 3])
        expected = ZModulePresentation(free, tuple(torsion))
        extra_out = rng.randint(0, 2)    # generators dying into the lower group
        n_mid = free + len(torsion) + extra_out
        n_in = len(torsion) + rng.randint(0, 1)
        n_out = extra_out + rng.randint(0, 1)
        d_out_rows = [[0] * n_mid for _ in range(n_out)]
        for i in range(extra_out):
            d_out_rows[i][free + len(torsion) + i] = rng.choice([1, 2, 3])
        d_in_rows = [[0] * n_in for _ in range(n_mid)]
        for j, tval in enumerate(torsion):
            d_in_rows[free + j][j] = tval
        d_out = IntMatrix.from_rows(d_out_rows, cols=n_mid)
        d_in = IntMatrix.from_rows(d_in_rows, cols=n_in)
        assert (d_out @ d_in).is_zero()
        U_out, U_mid, U_in = unimodular(n_out), unimodular(n_mid), unimodular(n_in)
        inv_mid = solve_matrix(U_mid, IntMatrix.identity(n_mid))
        d_out2 = U_out @ d_out @ inv_mid
        d_in2 = U_mid @ d_in @ U_in
        assert (d_out2 @ d_in2).is_zero()
        assert homology(d_out2, d_in2) == expected


# -- surjectivity --------------------------------------------------

def test_surjectivity():
    """A is onto Z^rows exactly when its cokernel is zero."""
    def onto(A):
        return presentation_from_relations(A.rows, A).is_zero()
    assert onto(IntMatrix.identity(3))
    assert not onto(IntMatrix.from_rows([[2]]))
    assert onto(IntMatrix.from_rows([[2, 3]]))
    assert not onto(IntMatrix.from_rows([[2, 4]]))
    assert onto(IntMatrix.zero(0, 3))
    assert not onto(IntMatrix.zero(2, 0))


def test_presentation_canonical():
    with pytest.raises(ValueError):
        ZModulePresentation(0, (3, 4))
    with pytest.raises(ValueError):
        ZModulePresentation(0, (1,))
    assert str(ZModulePresentation(2, (2, 4))) == "Z^2 + Z_2 + Z_4"
    assert str(ZModulePresentation(0, ())) == "0"


def fp_matrix(A, p):
    """A over GF(p) as a sympy DomainMatrix: the field-side oracle."""
    rows = [[sympy.ZZ(x) for x in row] for row in A.to_lists()]
    return DomainMatrix(rows, (A.rows, A.cols), sympy.ZZ).convert_to(sympy.GF(p))


def test_mod_p_helpers():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_mod_p(A, 3) == 1
    assert rank_mod_p(A, 5) == 2
    ker = fp_matrix(A, 3).nullspace().to_list()
    assert len(ker) == A.cols - rank_mod_p(A, 3) == 1
    for v in ker:
        assert all(x % 3 == 0 for x in (A @ column(v)).entries)


@settings(max_examples=400, deadline=None)
@given(kinded_matrices(), st.sampled_from((2, 3, 5, 7)))
@example(IntMatrix.zero(0, 4), 2)
@example(IntMatrix.zero(4, 0), 3)
@example(IntMatrix.from_rows([[6, 0], [0, 35]]), 7)
def test_rank_mod_p_matches_field_oracle(A, p):
    """The rank read off the invariant factors equals a rank computed by
    elimination over GF(p)."""
    assert rank_mod_p(A, p) == fp_matrix(A, p).rank()
