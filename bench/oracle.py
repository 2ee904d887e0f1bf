"""Reference computations for the benchmark's output checks.

Nothing here imports kmajority: every value the package prints is checked
against closed forms, exact rational arithmetic or concentration bounds
computed from first principles.

Notation: ``T_k(u) = P(Bin(k, u) >= (k+1)/2)`` for odd k, so the edge-bias
update map is ``F(x) = T_k((1-p) x)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Failure probability allowed to each concentration bound.
ALPHA = 1e-9


# ---------------------------------------------------------------------------
# k = 3 closed forms
# ---------------------------------------------------------------------------

P_STAR_3 = 1.0 / 9.0


def k3_map(p: float, x: float) -> float:
    """F(x) = 3u^2 - 2u^3 with u = (1-p) x."""
    u = (1.0 - p) * x
    return 3.0 * u * u - 2.0 * u ** 3


def k3_map_slope(p: float, x: float) -> float:
    c = 1.0 - p
    return 6.0 * c * c * x * (1.0 - c * x)


def k3_phis(p: float) -> tuple[float, float] | None:
    """Nontrivial fixed points of the k=3 map: roots of
    2c^3 x^2 - 3c^2 x + 1 = 0 with c = 1 - p; None above p*_3 = 1/9."""
    c = 1.0 - p
    disc = c ** 3 * (1.0 - 9.0 * p)
    if disc < 0.0:
        return None
    r = math.sqrt(disc)
    return (3.0 * c * c - r) / (4.0 * c ** 3), (3.0 * c * c + r) / (4.0 * c ** 3)


def k3_p_star_q(q: float) -> float:
    """p*_{3,q}: the p at which phi_minus reaches q, i.e. the root c = 1 - p
    of 2 q^2 c^3 - 3 q c^2 + 1 = 0 in [8/9, 1].  For q >= 27/32 (phi_minus
    at p = 1/9) the threshold is p*_3 itself."""
    if q >= 27.0 / 32.0:
        return P_STAR_3
    g = lambda c: 2.0 * q * q * c ** 3 - 3.0 * q * c * c + 1.0
    lo, hi = 8.0 / 9.0, 1.0          # g(lo) > 0 > g(hi); g decreases on [lo, hi]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 - 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Exact binomial tails
# ---------------------------------------------------------------------------


def tail_exact(k: int, u: Fraction) -> Fraction:
    """T_k(u) = sum_{i >= m} C(k,i) u^i (1-u)^(k-i), m = (k+1)/2, exactly.

    With u = a/b this is a^m H / b^k, H = sum_j C(k, m+j) a^j c^(K-j),
    c = b - a, K = k - m, evaluated by Horner's rule on integers.
    """
    a, b = u.numerator, u.denominator
    c = b - a
    m = (k + 1) // 2
    big_k = k - m
    h = 0
    c_pow = 1
    for j in range(big_k, -1, -1):
        h = h * a + math.comb(k, m + j) * c_pow
        c_pow *= c
    return Fraction(a ** m * h, b ** k)


def tail_slope_exact(k: int, u: Fraction) -> Fraction:
    """T_k'(u) = k C(k-1, h) u^h (1-u)^h with h = (k-1)/2, exactly."""
    h = (k - 1) // 2
    return k * math.comb(k - 1, h) * (u * (1 - u)) ** h


def best_ratio_point(k: int, bits: int = 40) -> Fraction:
    """The u in (1/2, 1) maximising T_k(u)/u, to within 2^-bits.

    It solves u T'(u) = T(u): the line through the origin tangent to T,
    which is where the map F = T((1-p) .) touches the diagonal at p = p*_k.
    u T' - T is positive at 1/2 and -1 at 1; bisection on exact signs.
    """
    lo, hi = 1 << (bits - 1), 1 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        u = Fraction(mid, 1 << bits)
        if u * tail_slope_exact(k, u) > tail_exact(k, u):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 1 << bits)


def has_crossing(k: int, p: float, u: Fraction) -> bool:
    """Whether F(x) > x at x = u / (1-p), exactly (F(x) - x has the sign
    of T(u) (1-p) - u)."""
    return tail_exact(k, u) * (1 - Fraction(p)) > u
