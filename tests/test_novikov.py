import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rfhomology.errors import (BaseMismatch, BaseTooSmall, NonPositiveTau,
                               OverflowIntoInfinite)
from rfhomology.novikov import (CompletionRegime, QmNumber,
                                l_is_unit, l_mul, lm_det,
                                lm_is_zero, lm_power, lm_rank, qm_add,
                                qm_neg, qm_reduce, qm_scale, qm_tilde_add,
                                qm_zero, regime_for)


# -- regimes -----------------------------------------------------------------

def test_regime_examples():
    assert regime_for(Fraction(1), Fraction(3), 2) == CompletionRegime.ALL_LOWER
    assert regime_for(Fraction(2), Fraction(3), 2) == CompletionRegime.FINITE
    assert regime_for(Fraction(1, 2), Fraction(3), 1) == CompletionRegime.FINITE
    assert regime_for(Fraction(5), Fraction(3), 2) == CompletionRegime.ALL_UPPER
    assert regime_for(Fraction(100), Fraction(3), 3) == CompletionRegime.ALL_LOWER
    with pytest.raises(NonPositiveTau):
        regime_for(Fraction(0), Fraction(3), 1)
    with pytest.raises(NonPositiveTau):
        regime_for(Fraction(-2), Fraction(3), 1)


def test_regime_boundary_exactness_large_denominators():
    """Rationals with denominators up to 10^6 never misclassify the
    boundary tau*(lambda - m) = m."""
    lam, m = Fraction(3), 2
    boundary = Fraction(m, 3 - m)
    for q in (10 ** 6, 999_983, 7):
        eps = Fraction(1, q)
        assert regime_for(boundary, lam, m) == CompletionRegime.FINITE
        assert regime_for(boundary - eps, lam, m) == CompletionRegime.ALL_LOWER
        assert regime_for(boundary + eps, lam, m) == CompletionRegime.ALL_UPPER


# -- digit numbers ------------------------------------------------------------

def test_reduce_examples():
    x = qm_reduce(2, {0: 2})
    assert (x.start, x.digits, x.tail) == (1, (1,), 0)
    y = qm_reduce(2, {0: -1})
    assert (y.start, y.digits, y.tail) == (0, (), 1)
    a = qm_reduce(3, {0: 2, 1: 2})
    s = qm_add(a, a)
    assert (s.start, s.digits, s.tail) == (0, (1, 2, 1), 0)
    assert s.value() == 16
    with pytest.raises(BaseTooSmall):
        qm_reduce(1, {0: 1})


def test_all_ones_plus_one_is_zero():
    minus_one = qm_reduce(2, {0: -1})
    one = qm_reduce(2, {0: 1})
    assert qm_add(minus_one, one).is_zero()
    # truncated evaluation mod 2^N: ...111 + 1 == 0 mod 2^N for N <= 64
    for N in range(1, 65):
        total = sum(minus_one.digit_at(k) * 2 ** k for k in range(N)) + 1
        assert total % 2 ** N == 0


def test_add_identity_and_mismatch():
    x = qm_reduce(3, {0: 5, -2: 1})
    assert qm_add(x, qm_zero(3)) == x
    assert qm_add(qm_reduce(3, {0: 2}), qm_reduce(3, {0: 2})).digits == (1, 1)
    with pytest.raises(BaseMismatch):
        qm_add(qm_reduce(2, {0: 1}), qm_reduce(3, {0: 1}))


coeff_maps = st.dictionaries(st.integers(-4, 4), st.integers(-40, 40), max_size=5)


@settings(max_examples=300, deadline=None)
@given(coeff_maps, coeff_maps, st.sampled_from([2, 3, 5, 10]))
def test_reduce_respects_values(v, w, m):
    a, b = qm_reduce(m, v), qm_reduce(m, w)
    assert a.value() == sum(c * Fraction(m) ** k for k, c in v.items())
    s = qm_add(a, b)
    assert s.value() == a.value() + b.value()
    assert qm_add(a, b) == qm_add(b, a)
    neg = qm_reduce(m, {k: -c for k, c in v.items()})
    assert qm_add(a, neg).is_zero()


def test_randomized_add_assoc_comm_thousand_per_base():
    rng = random.Random(99)
    for m in (2, 3, 5, 10):
        for _ in range(1000):
            vs = [{rng.randint(-4, 4): rng.randint(-30, 30) for _ in range(3)}
                  for _ in range(3)]
            x, y, z = (qm_reduce(m, v) for v in vs)
            assert qm_add(x, y) == qm_add(y, x)
            assert qm_add(qm_add(x, y), z) == qm_add(x, qm_add(y, z))


def test_nonnegative_roundtrip():
    rng = random.Random(3)
    for m in (2, 3, 7):
        for _ in range(300):
            v = {rng.randint(-3, 3): rng.randint(0, 25) for _ in range(3)}
            a = qm_reduce(m, v)
            assert a.tail == 0
            total = sum(a.digits[i] * Fraction(m) ** (a.start + i)
                        for i in range(len(a.digits)))
            assert total == sum(c * Fraction(m) ** k for k, c in v.items())


def test_neg_scale():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.choice([2, 5])
        v = {rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(3)}
        a = qm_reduce(m, v)
        assert qm_add(a, qm_neg(a)).is_zero()
        c = rng.randint(-6, 6)
        assert qm_scale(c, a).value() == c * a.value()


def test_tilde_partiality():
    a = qm_reduce(2, {0: 3})
    b = qm_reduce(2, {1: 1})
    assert qm_tilde_add(a, b).value() == 5
    neg = qm_reduce(2, {0: -1})
    with pytest.raises(OverflowIntoInfinite):
        qm_tilde_add(a, neg)


def test_serialization():
    a = qm_reduce(3, {-2: 4, 1: -1})
    blob = a.to_json()
    assert set(blob) == {"base", "start", "digits", "tail"}
    assert QmNumber.from_json(blob) == a


def test_canonicality_guards():
    with pytest.raises(ValueError):
        QmNumber(2, 0, (1, 0), 0)       # trailing tail digit
    with pytest.raises(ValueError):
        QmNumber(2, 0, (0, 1), 0)       # leading zero
    with pytest.raises(ValueError):
        QmNumber(2, 3, (), 0)           # zero must have start 0


# -- Laurent helpers -----------------------------------------------------------

def test_laurent_units_and_rank():
    assert l_is_unit({3: -1})
    assert not l_is_unit({0: 2})
    assert not l_is_unit({0: 1, 1: 1})
    assert l_mul({0: 2, 1: -1}, {2: 3}) == {2: 6, 3: -3}
    A = [[{0: 2}, {}], [{1: 1}, {0: 2}]]
    assert lm_rank(A) == 2
    assert lm_det(A) == {0: 4}
    N = [[{}, {0: 1}], [{}, {}]]
    assert lm_is_zero(lm_power(N, 2))
    assert lm_rank(N) == 1
