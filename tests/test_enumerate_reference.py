"""enumerate_generators against the branch-tree enumerator it replaced.

`parent_enumerate` below is that enumerator, frozen.  On seeded random
constraint sets the new code must return the same list wherever the
reference returns one; where the reference raises TruncationTooNarrow, the
new code may raise as well or return exactly the points that a brute-force
scan of a large (k, l) box finds.
"""

import math
import random
from fractions import Fraction

import numpy as np

from rfhomology.basemodel import cp_model, point_model, surface_model
from rfhomology.errors import EmptyWindow, TruncationTooNarrow
from rfhomology.rfh import (RFHGenerator, action, enumerate_generators,
                            rfh_index, winding)

MODELS = [cp_model(1), cp_model(2), cp_model(3), surface_model(1),
          surface_model(2), point_model()]
BOX_K, BOX_L = 120, 500      # brute-force box where no bound is given


def parent_enumerate(model, m, tau, *, window=None, winding_filter=None,
                     degrees=None, k_bound=None, l_bound=None):
    """The branch-tree enumerator that enumerate_generators replaced,
    frozen as the reference; its output order among critical points of
    equal index follows set iteration order."""
    tau = Fraction(tau)
    if tau <= 0:
        raise EmptyWindow(f"tau = {tau} must be positive")
    if window is not None:
        a, b = window
        if a is not None and b is not None and not a < b:
            raise EmptyWindow(f"window ({a}, {b}) is empty")

    nu = model.nu
    ln = model.lambda_nu

    def k_interval_from(lo_val: Fraction, hi_val: Fraction, coef: Fraction,
                        off: Fraction) -> range:
        """Integers k with lo_val < coef*k + off < hi_val, coef != 0."""
        x1 = (lo_val - off) / coef
        x2 = (hi_val - off) / coef
        if x1 > x2:
            x1, x2 = x2, x1
        return range(math.floor(x1) - 1, math.ceil(x2) + 2)

    families = set()  # (label, idx, l, k)

    def consider(label: str, idx: int, l: int, k: int) -> None:
        families.add((label, idx, l, k))

    if model.aspherical:
        for label, idx in model.crit:
            ls = None
            if winding_filter is not None:
                ls = [winding_filter]
            elif l_bound is not None:
                ls = range(-l_bound, l_bound + 1)
            elif window is not None and window[0] is not None and window[1] is not None:
                a, b = window
                ls = k_interval_from(a, b, Fraction(-tau, m), Fraction(0))
            elif degrees is not None:
                lo, hi = degrees
                # mu(check) = -2l + idx - half_dim in [lo-1, hi]
                base = idx - model.half_dim
                ls = range((base - hi - 1) // 2 - 1, (base - (lo - 1)) // 2 + 2)
            else:
                raise TruncationTooNarrow(
                    "aspherical enumeration needs a winding filter, window, "
                    "degree range, or l truncation")
            for l in ls:
                consider(label, idx, l, 0)
    else:
        for label, idx in model.crit:
            if winding_filter is not None:
                w = winding_filter
                # l = w + m*k*nu; pick the k range from whatever bound exists
                if window is not None and window[0] is not None and window[1] is not None:
                    a, b = window
                    coef = Fraction(-nu) * (1 + tau)
                    off = Fraction(-tau * w, m)
                    ks = k_interval_from(a, b, coef, off)
                elif degrees is not None:
                    lo, hi = degrees
                    # mu(check) = -2w + idx - half_dim - 2*ln*k, solved for k;
                    # the interval helper keeps this right for negative ln too
                    base = -2 * w + idx - model.half_dim
                    ks = k_interval_from(Fraction(lo - 1), Fraction(hi + 1),
                                         Fraction(-2 * ln), Fraction(base))
                elif k_bound is not None:
                    ks = range(-k_bound, k_bound + 1)
                else:
                    raise TruncationTooNarrow(
                        "winding-filtered enumeration needs a window, degree "
                        "range, or k truncation")
                for k in ks:
                    consider(label, idx, w + m * k * nu, k)
            elif k_bound is not None and l_bound is not None:
                for k in range(-k_bound, k_bound + 1):
                    for l in range(-l_bound, l_bound + 1):
                        consider(label, idx, l, k)
            elif degrees is not None:
                lo, hi = degrees
                if window is not None and window[0] is not None and window[1] is not None:
                    a, b = window
                    # on a fixed degree, action is linear in k with slope
                    # -nu*(m - tau*(lam - m))/m, nonzero off the boundary
                    slope = -Fraction(nu) * (m - tau * (Fraction(model.lam) - m)) / m
                    if slope == 0:
                        if k_bound is None:
                            raise TruncationTooNarrow(
                                "at the regime boundary a k truncation is required")
                        ks = range(-k_bound, k_bound + 1)
                        for d in range(lo - 1, hi + 1):
                            for k in ks:
                                l2 = idx - model.half_dim - d - 2 * (ln - m * nu) * k
                                if l2 % 2 == 0:
                                    consider(label, idx, l2 // 2, k)
                        continue
                    for d in range(lo - 1, hi + 1):
                        # mu(check) = d: l = (idx - half_dim - d)/2 - (ln - m nu) k
                        num = idx - model.half_dim - d
                        if num % 2 != 0:
                            continue
                        off = Fraction(-tau, m) * Fraction(num, 2)
                        for k in k_interval_from(a, b, slope, off):
                            l = num // 2 - (ln - m * nu) * k
                            consider(label, idx, l, k)
                elif k_bound is not None:
                    for d in range(lo - 1, hi + 1):
                        num = idx - model.half_dim - d
                        if num % 2 != 0:
                            continue
                        for k in range(-k_bound, k_bound + 1):
                            consider(label, idx, num // 2 - (ln - m * nu) * k, k)
                else:
                    raise TruncationTooNarrow(
                        "degree-ranged enumeration needs a window or k truncation")
            else:
                raise TruncationTooNarrow(
                    "enumeration needs a winding filter, k and l truncations, "
                    "or a degree range")

    out = []
    for label, idx, l, k in families:
        for hat in (False, True):
            g = RFHGenerator(label, idx, l, k, hat)
            if winding_filter is not None and winding(g, model, m) != winding_filter:
                continue
            if window is not None:
                a, b = window
                act = action(g, model, m, tau)
                if (a is not None and not a < act) or (b is not None and not act < b):
                    continue
            if degrees is not None:
                lo, hi = degrees
                if not lo <= rfh_index(g, model, m) <= hi:
                    continue
            if k_bound is not None and abs(g.k) > k_bound:
                continue
            if l_bound is not None and abs(g.cov) > l_bound:
                continue
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Zero-winding complex and Gysin sequence


def brute_force(model, m, tau, window=None, winding_filter=None, degrees=None,
                k_bound=None, l_bound=None):
    """Every generator in a (k, l) box, filtered by the constraints written
    out from the invariants' formulas in integer arithmetic."""
    kb = 0 if model.aspherical else (BOX_K if k_bound is None else k_bound)
    lb = BOX_L if l_bound is None else l_bound
    k, l = np.meshgrid(np.arange(-kb, kb + 1), np.arange(-lb, lb + 1), indexing="ij")
    nu, ln = model.nu, model.lambda_nu
    keep = np.ones(k.shape, dtype=bool)
    if winding_filter is not None:
        keep &= l - m * k * nu == winding_filter
    if window is not None:
        # action = (-k*nu*m*q - p*l) / (m*q) with tau = p/q
        p, q = tau.numerator, tau.denominator
        num = -k * nu * m * q - p * l
        a, b = window
        if a is not None:
            keep &= a.numerator * m * q < num * a.denominator
        if b is not None:
            keep &= num * b.denominator < b.numerator * m * q
    out = []
    for label, idx in model.crit:
        for hat in (False, True):
            ok = keep.copy()
            if degrees is not None:
                mu = -2 * l - 2 * (ln - m * nu) * k + idx - model.half_dim + hat
                ok &= (degrees[0] <= mu) & (mu <= degrees[1])
            for kk, ll in zip(k[ok].tolist(), l[ok].tolist()):
                assert (k_bound is not None or model.aspherical or abs(kk) < BOX_K) \
                    and (l_bound is not None or abs(ll) < BOX_L), "box too small"
                out.append(RFHGenerator(label, idx, ll, kk, hat))
    return out


def random_case(rng):
    model = rng.choice(MODELS)
    m = rng.randint(1, 4)
    lam = model.lam
    if not model.aspherical and m < lam and rng.random() < 0.4:
        tau = Fraction(m) / (lam - m)         # on the regime boundary
    else:
        tau = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    kw = {}
    if rng.random() < 0.5:
        a = Fraction(rng.randint(-40, 16), rng.randint(2, 4))
        b = a + Fraction(rng.randint(1, 32), rng.randint(2, 4))
        side = rng.random()
        kw["window"] = (None if side < 0.1 else a, None if 0.1 <= side < 0.2 else b)
    if rng.random() < 0.4:
        kw["winding_filter"] = rng.randint(-4, 4)
    if rng.random() < 0.5:
        lo = rng.randint(-8, 6)
        kw["degrees"] = (lo, lo + rng.randint(0, 5))
    if rng.random() < 0.5:
        kw["k_bound"] = rng.randint(0, 3)
    if rng.random() < 0.5:
        kw["l_bound"] = rng.randint(0, 6)
    return model, m, tau, kw


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except TruncationTooNarrow:
        return None


def test_enumerate_agrees_with_reference():
    rng = random.Random(20261017)
    returned = raised = filled = 0
    for _ in range(5000):
        model, m, tau, kw = random_case(rng)
        try:
            want = parent_enumerate(model, m, tau, **kw)
        except TruncationTooNarrow:
            want = None
        except EmptyWindow:
            continue
        got = outcome(enumerate_generators, model, m, tau, **kw)
        pos = {label: i for i, (label, _) in enumerate(model.crit)}

        def key(g):
            return (rfh_index(g, model, m), g.k, g.cov, g.hat, pos[g.label])
        if want is not None:
            returned += 1
            assert got == sorted(want, key=key), (model.name, m, tau, kw)
        elif got is None:
            raised += 1
        else:
            filled += 1
            assert got == sorted(brute_force(model, m, tau, **kw), key=key), \
                (model.name, m, tau, kw)
    # every kind of outcome occurs (3781, 885 and 334 of them at this seed)
    assert returned > 3000 and raised > 500 and filled > 200, (returned, raised, filled)
