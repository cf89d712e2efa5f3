"""The Novikov ring, completion regimes, and exact base-m digit arithmetic.

The ring itself is Z[t, t^{-1}] with deg t = -2 * (minimal Chern number) in
the monotone case, and plain Z in the aspherical case.  The three completion
regimes classify which infinite sums of Floer classes are admissible for a
given radius tau; the classification is an exact rational comparison of
tau*(lambda - m) against m.

Digit arithmetic: a QmNumber is a base-m expansion sum_{k >= start} a_k m^k
with finitely many explicit digits followed by a constant tail of 0 or m-1.
These are exactly the classes of finitely supported integer vectors under
the carry relation m*(position k) ~ 1*(position k+1); nonnegative totals
get tail 0, negative totals the complement tail m-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (BaseMismatch, BaseTooSmall, NonPositiveTau,
                     OverflowIntoInfinite)


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


# ---------------------------------------------------------------------------
# Base-m digit numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QmNumber:
    """Canonical base-m expansion: digits a_{start}, a_{start+1}, ... then a
    constant tail.  Canonical means the digit list neither starts with 0 nor
    ends with the tail value, and zero is (start=0, digits=(), tail=0)."""

    base: int
    start: int
    digits: tuple[int, ...]
    tail: int

    def __post_init__(self):
        if self.base < 2:
            raise BaseTooSmall(f"base {self.base} < 2")
        if self.tail not in (0, self.base - 1):
            raise ValueError("tail must be 0 or base-1")
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError("digit out of range")
        if self.digits and self.digits[-1] == self.tail:
            raise ValueError("not canonical: trailing digit equals tail")
        if self.digits and self.digits[0] == 0:
            raise ValueError("not canonical: leading zero digit")
        if not self.digits and self.tail == 0 and self.start != 0:
            raise ValueError("not canonical: zero must have start 0")

    def is_zero(self) -> bool:
        return not self.digits and self.tail == 0

    def digit_at(self, k: int) -> int:
        if k < self.start:
            return 0
        if k < self.start + len(self.digits):
            return self.digits[k - self.start]
        return self.tail

    def value(self) -> Fraction:
        """Exact value in Z[1/m]; a tail of m-1 from position K on contributes
        -m**K."""
        v = Fraction(0)
        for i, d in enumerate(self.digits):
            v += d * Fraction(self.base) ** (self.start + i)
        if self.tail == self.base - 1:
            v -= Fraction(self.base) ** (self.start + len(self.digits))
        return v

    def to_json(self) -> dict:
        return {"base": self.base, "start": self.start,
                "digits": list(self.digits), "tail": self.tail}

    @classmethod
    def from_json(cls, obj: Mapping) -> "QmNumber":
        return cls(int(obj["base"]), int(obj["start"]),
                   tuple(int(d) for d in obj["digits"]), int(obj["tail"]))

    def __str__(self) -> str:
        body = ",".join(str(d) for d in self.digits) if self.digits else ""
        t = "0" if self.tail == 0 else f"{self.tail}~"
        return f"Qm[{self.base}](m^{self.start}: {body} |{t})"


def _canonical(base: int, start: int, digits: list[int], tail: int) -> QmNumber:
    while digits and digits[-1] == tail:
        digits.pop()
    while digits and digits[0] == 0:
        digits.pop(0)
        start += 1
    if not digits and tail == 0:
        start = 0
    return QmNumber(base, start, tuple(digits), tail)


def qm_zero(base: int) -> QmNumber:
    return QmNumber(base, 0, (), 0)


def qm_reduce(m: int, coeffs: Mapping[int, int]) -> QmNumber:
    """Normalize a finitely supported integer vector to its canonical digit
    expansion under the carry relation m*(position k) ~ (position k+1)."""
    if m < 2:
        raise BaseTooSmall(f"base {m} < 2")
    support = [k for k, c in coeffs.items() if c != 0]
    if not support:
        return qm_zero(m)
    lo, hi = min(support), max(support)
    digits: list[int] = []
    carry = 0
    for k in range(lo, hi + 1):
        c = coeffs.get(k, 0) + carry
        d = c % m
        digits.append(d)
        carry = (c - d) // m
    while carry not in (0, -1):
        d = carry % m
        digits.append(d)
        carry = (carry - d) // m
    tail = 0 if carry == 0 else m - 1
    return _canonical(m, lo, digits, tail)


def qm_add(a: QmNumber, b: QmNumber) -> QmNumber:
    """Digitwise addition with carry propagation through the tails."""
    if a.base != b.base:
        raise BaseMismatch(f"bases {a.base} and {b.base} differ")
    m = a.base
    start = min(a.start, b.start)
    end = max(a.start + len(a.digits), b.start + len(b.digits))
    digits: list[int] = []
    carry = 0
    for k in range(start, end):
        c = a.digit_at(k) + b.digit_at(k) + carry
        digits.append(c % m)
        carry = c // m
    # beyond the explicit digits both summands are constant
    s = a.tail + b.tail
    while True:
        c = s + carry
        d = c % m
        new_carry = c // m
        if new_carry == carry:
            # constant from here on
            if d not in (0, m - 1):
                raise AssertionError("tail failed to stabilize")
            tail = d
            break
        digits.append(d)
        carry = new_carry
    return _canonical(m, start, digits, tail)


def qm_neg(a: QmNumber) -> QmNumber:
    return qm_reduce(a.base, {a.start + i: -d for i, d in enumerate(a.digits)
                              } if a.tail == 0 else
                     # -(finite part - m^K) = m^K - finite part
                     {**{a.start + i: -d for i, d in enumerate(a.digits)},
                      a.start + len(a.digits): 1})


def qm_scale(c: int, a: QmNumber) -> QmNumber:
    coeffs = {a.start + i: c * d for i, d in enumerate(a.digits)}
    if a.tail == a.base - 1:
        k = a.start + len(a.digits)
        coeffs[k] = coeffs.get(k, 0) - c
    return qm_reduce(a.base, coeffs)


def qm_tilde_check(a: QmNumber) -> QmNumber:
    """Assert membership in the finite-sum submodule (tail 0)."""
    if a.tail != 0:
        raise OverflowIntoInfinite(f"{a} has an infinite tail")
    return a


def qm_tilde_add(a: QmNumber, b: QmNumber) -> QmNumber:
    """Partial addition on the finite-sum submodule: raises if the result
    escapes into an infinite tail."""
    qm_tilde_check(a)
    qm_tilde_check(b)
    return qm_tilde_check(qm_add(a, b))


# ---------------------------------------------------------------------------
# Laurent polynomials over Z: concrete carrier of the nontrivial ring
# ---------------------------------------------------------------------------
# A Laurent polynomial is a dict {exponent: coefficient} with no zero values.

Laurent = dict


def l_add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def l_neg(p: Laurent) -> Laurent:
    return {e: -c for e, c in p.items()}


def l_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def l_is_zero(p: Laurent) -> bool:
    return not p


def l_is_unit(p: Laurent) -> bool:
    """Units of Z[t, t^-1] are +-t^j."""
    return len(p) == 1 and abs(next(iter(p.values()))) == 1


def l_div_exact(p: Laurent, q: Laurent) -> Laurent:
    """Exact division p / q in Z[t, t^-1]; raises if not exact.  Used by the
    fraction-free elimination below, whose intermediate divisions are exact
    by the Sylvester identity."""
    if l_is_zero(q):
        raise ZeroDivisionError("division by zero polynomial")
    if l_is_zero(p):
        return {}
    # shift both to ordinary polynomials
    pmin, qmin = min(p), min(q)
    pc = [0] * (max(p) - pmin + 1)
    for e, c in p.items():
        pc[e - pmin] = c
    qc = [0] * (max(q) - qmin + 1)
    for e, c in q.items():
        qc[e - qmin] = c
    out: dict[int, int] = {}
    rem = pc[:]
    dq = len(qc) - 1
    lead = qc[-1]
    for pos in range(len(rem) - 1, dq - 1, -1):
        if rem[pos] == 0:
            continue
        if rem[pos] % lead != 0:
            raise ValueError("inexact polynomial division")
        f = rem[pos] // lead
        out[pos - dq] = f
        for i in range(dq + 1):
            rem[pos - dq + i] -= f * qc[i]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return {e + pmin - qmin: c for e, c in out.items() if c != 0}


LaurentMatrix = list  # list[list[Laurent]]


def lm_zero(n: int, m: int) -> LaurentMatrix:
    return [[{} for _ in range(m)] for _ in range(n)]


def lm_identity(n: int) -> LaurentMatrix:
    return [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]


def lm_mul(A: LaurentMatrix, B: LaurentMatrix) -> LaurentMatrix:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = lm_zero(n, m)
    for i in range(n):
        for j in range(m):
            acc: Laurent = {}
            for s in range(k):
                if A[i][s] and B[s][j]:
                    acc = l_add(acc, l_mul(A[i][s], B[s][j]))
            out[i][j] = acc
    return out


def lm_is_zero(A: LaurentMatrix) -> bool:
    return all(l_is_zero(x) for row in A for x in row)


def lm_power(A: LaurentMatrix, n: int) -> LaurentMatrix:
    out = lm_identity(len(A))
    for _ in range(n):
        out = lm_mul(out, A)
    return out


def lm_rank(A: LaurentMatrix) -> int:
    """Rank over the fraction field of Z[t, t^-1], computed fraction-free."""
    M = [[dict(x) for x in row] for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    prev: Laurent = {0: 1}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not l_is_zero(M[i][c])), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = l_add(l_mul(M[r][c], M[i][j]), l_neg(l_mul(M[i][c], M[r][j])))
                M[i][j] = l_div_exact(num, prev)
            M[i][c] = {}
        prev = M[r][c]
        r += 1
        if r == nrows:
            break
    return r


def lm_det(A: LaurentMatrix) -> Laurent:
    """Determinant by cofactor expansion; matrices here are tiny."""
    n = len(A)
    if n == 0:
        return {0: 1}
    if any(len(row) != n for row in A):
        raise ValueError("determinant of non-square matrix")
    if n == 1:
        return dict(A[0][0])
    det: Laurent = {}
    for j in range(n):
        if l_is_zero(A[0][j]):
            continue
        minor = [[A[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = l_mul(A[0][j], lm_det(minor))
        det = l_add(det, term if j % 2 == 0 else l_neg(term))
    return det
