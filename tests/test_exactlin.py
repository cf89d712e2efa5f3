import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rfhomology.errors import NotAComplex, NotSquare, ShapeMismatch
from rfhomology.exactlin import (IntMatrix, ZModulePresentation, det_bareiss,
                                 homology, invariant_factors,
                                 is_surjective_over_z, kernel_basis,
                                 kernel_basis_mod_p, matrix_power, rank,
                                 rank_bareiss, rank_mod_p, smith_normal_form,
                                 solve, solve_matrix)


def rand_matrix(rng, rows, cols, lim=9):
    return IntMatrix.from_rows([[rng.randint(-lim, lim) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m).map(
            lambda rows: IntMatrix.from_rows(rows, cols=n))))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_invariants(A):
    s = smith_normal_form(A)
    assert (s.U @ A @ s.V).entries == s.D.entries
    assert abs(det_bareiss(s.U)) == 1
    assert abs(det_bareiss(s.V)) == 1
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert s.D.get(i, j) == 0
    diag = list(s.D.diagonal())
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d != 0]
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    # zeros trail the nonzero invariant factors
    assert diag[:len(nz)] == nz


def test_snf_identity_and_diag():
    s = smith_normal_form(IntMatrix.identity(2))
    assert s.D.entries == IntMatrix.identity(2).entries
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 0]]))
    assert s.invariant_factors() == (2,)
    assert s.D.get(1, 1) == 0


def test_snf_minor_gcd_oracle():
    def minor_gcd(A, k):
        g = 0
        for ri in combinations(range(A.rows), k):
            for ci in combinations(range(A.cols), k):
                g = gcd(g, det_bareiss(A.submatrix(ri, ci)))
        return g

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


def test_rank_two_methods_agree():
    rng = random.Random(5)
    for _ in range(300):
        A = rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), lim=6)
        assert rank(A) == rank_bareiss(A)


def test_kernel_and_solve():
    rng = random.Random(11)
    for _ in range(200):
        A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), lim=4)
        K = kernel_basis(A)
        assert (A @ K).is_zero()
        assert K.cols == A.cols - rank(A)
        x = [rng.randint(-3, 3) for _ in range(A.cols)]
        b = A.apply(x)
        y = solve(A, b)
        assert y is not None and A.apply(y) == b


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
            cols.append(A.apply(data.draw(st.lists(entries, min_size=A.cols,
                                                   max_size=A.cols))))
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


# -- surjectivity and powers --------------------------------------------------

def test_surjectivity():
    assert is_surjective_over_z(IntMatrix.identity(3))
    assert not is_surjective_over_z(IntMatrix.from_rows([[2]]))
    assert is_surjective_over_z(IntMatrix.from_rows([[2, 3]]))
    assert not is_surjective_over_z(IntMatrix.from_rows([[2, 4]]))
    assert is_surjective_over_z(IntMatrix.zero(0, 3))
    assert not is_surjective_over_z(IntMatrix.zero(2, 0))


def test_matrix_power():
    A = IntMatrix.from_rows([[3, 1], [0, 2]])
    assert matrix_power(A, 0).entries == IntMatrix.identity(2).entries
    assert matrix_power(IntMatrix.from_rows([[5]]), 4).get(0, 0) == 5 ** 4
    N = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert not matrix_power(N, 2).is_zero()
    assert matrix_power(N, 3).is_zero()
    with pytest.raises(NotSquare):
        matrix_power(IntMatrix.zero(2, 3), 2)


def test_presentation_canonical():
    with pytest.raises(ValueError):
        ZModulePresentation(0, (3, 4))
    with pytest.raises(ValueError):
        ZModulePresentation(0, (1,))
    assert str(ZModulePresentation(2, (2, 4))) == "Z^2 + Z_2 + Z_4"
    assert str(ZModulePresentation(0, ())) == "0"


def test_mod_p_helpers():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_mod_p(A, 3) == 1
    assert rank_mod_p(A, 5) == 2
    ker = kernel_basis_mod_p(A, 3)
    assert len(ker) == 1
    for v in ker:
        assert all(x % 3 == 0 for x in A.apply(v))
