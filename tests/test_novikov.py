from fractions import Fraction

import pytest

from rfhomology.errors import NonPositiveTau
from rfhomology.novikov import CompletionRegime, regime_for


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
