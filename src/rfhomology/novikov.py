"""The Novikov ring and its completion regimes.

The ring itself is Z[t, t^{-1}] with deg t = -2 * (minimal Chern number) in
the monotone case, and plain Z in the aspherical case.  The three completion
regimes classify which infinite sums of Floer classes are admissible for a
given radius tau; the classification is an exact rational comparison of
tau*(lambda - m) against m.

No arithmetic over the ring is needed.  The only matrix over it is the cap,
and the cap lowers the degree by 2, so the power of t in each of its terms
is fixed by the Morse indices of the two ends.  The cap is therefore
read one degree at a time, as the integer blocks psi(e) : C_e -> C_{e-2}
of the lazy cone (`rfh._SectorData`), which repeat with the period
2*lambda*nu; `full_rfh` reads its nilpotency and unimodularity off psi
from the degrees of the critical points, one period, and no matrix of the
whole cap is built.

No element of the digit modules Q_m and Q~_m is built either: `full_rfh`
names them as the answer of a rank-one sector whose cap is +-m, and that
name is all the engine reports.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import NonPositiveTau


class CompletionRegime(enum.Enum):
    ALL_LOWER = "all_lower"   # admissible sums range over sectors k <= k0
    FINITE = "finite"         # finite sums only
    ALL_UPPER = "all_upper"   # admissible sums range over sectors k >= k0


def regime_for(tau: Fraction, lam: Fraction, m: int) -> CompletionRegime:
    """Classify the completed direct sum by the sign of tau*(lambda-m) - m."""
    tau = Fraction(tau)
    if tau <= 0:
        raise NonPositiveTau(f"tau = {tau} must be positive")
    lhs = tau * (Fraction(lam) - m)
    if lhs < m:
        return CompletionRegime.ALL_LOWER
    if lhs == m:
        return CompletionRegime.FINITE
    return CompletionRegime.ALL_UPPER
