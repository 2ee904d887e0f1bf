"""Mean-field analysis of biased k-majority dynamics.

The per-round update of a node that samples ``k`` neighbors with replacement
is summarized by a scalar map on [0, 1].  Ties (even k) are broken uniformly
at random, so a node that perceives an R share z turns R with probability
G(z) = P(Bin(k, z) > k/2) + P(Bin(k, z) = k/2) / 2:

* edge bias (Z-channel noise on every read, strength ``p``)::

      F(x) = G((1-p) x)

* node bias (node corrupted outright with probability ``p``)::

      Fhat(x) = (1-p) G(x)

Iterating the map gives the mean-field trajectory of the fraction of nodes
holding the initial majority state.  This module evaluates both maps (and,
for odd k, their first derivatives) exactly to double precision, locates
their fixed points {0, phi_minus, phi_plus} and the tangency point mu where
F' = 1, and computes the critical bias values:

* ``p_star_k``   -- largest bias admitting a nontrivial fixed point;
* ``p_star_kq``  -- largest bias whose unstable fixed point phi_minus still
  sits at or below the initial majority level ``q``.

Everything here is a pure function of its arguments; the only shared state
are three memos: binomial coefficients rounded to 60 digits
(``_comb_decimal``), the fair-coin pmf C(n, i) / 2^n rounded to a double
(``_fair_pmf``), and the critical biases (``_critical_values``).
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import lru_cache

__all__ = [
    "MAX_K",
    "BiasMode",
    "Regime",
    "MeanFieldParams",
    "FixedPointSet",
    "CriticalValues",
    "binom_pmf",
    "binom_tail_geq",
    "eval_F",
    "eval_dF",
    "check_solver_args",
    "fixed_points",
    "critical_bias_k",
    "critical_bias_kq",
    "trajectory",
]

# Largest supported sample size.  The tail error bound of binom_tail_geq and
# the error bound of the anchor's decimal estimate (see _pmf_anchor) are
# stated up to here.  An estimate takes microseconds at any k; an anchor it
# leaves undecided falls back to exact integers of up to s*k bits, where
# theta = a / 2^s (s <= 1074), at a cost that grows faster than linearly.
MAX_K = 10_000

# Anchors whose exact numerator has at most this many bits (s*k) are built
# from exact integers, which are the faster path there: both take ~13 us near
# 5 kbit (k = 89, theta = 0.6), and at k = 1001 the estimate is 30x faster.
_EXACT_BITS = 4096

# The decimal estimate of an anchor: 60 digits, relative error bound eta, and
# the widest exponent range, so that no power underflows.
_DECIMAL = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_ONE = Decimal(1)
_ONE_MINUS_ETA = _DECIMAL.subtract(_ONE, Decimal("1e-45"))  # both exact at 60 digits
_ONE_PLUS_ETA = _DECIMAL.add(_ONE, Decimal("1e-45"))

DEFAULT_TOL = 1e-10
# Largest solver tolerance.  A tolerance as wide as a bisection's first
# bracket returns that bracket's midpoint unsolved (tol = 1 gave p*_3 = 0.3056,
# not 1/9); p*_k >= 1/9 for every k, so 1e-3 keeps two significant digits.
_MAX_TOL = 1e-3
_MAX_BISECT = 200

# Smallest intermediate the certified F' decision accepts (see _dF_excess):
# far enough above 2^-1022 that no rounding on its path is subnormal.
_TINY = 2.0**-1000


class BiasMode(Enum):
    """Which of the two bias mechanisms the map models."""

    EDGE = "edge"
    NODE = "node"


class Regime(Enum):
    """Fixed-point structure of the update map."""

    SUBCRITICAL = "subcritical"      # roots {0, phi-, phi+}, phi- < phi+
    CRITICAL = "critical"            # roots {0, phi} (tangency)
    SUPERCRITICAL = "supercritical"  # only root 0


@dataclass(frozen=True)
class MeanFieldParams:
    """Sample size, bias strength and bias mechanism."""

    k: int
    p: float
    mode: BiasMode = BiasMode.EDGE

    def __post_init__(self) -> None:
        # type(...) is int: bool is an int subclass and would run as k=0 or 1
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"sample size k must be a positive integer, got {self.k!r}")
        if self.k > MAX_K:
            raise ValueError(f"sample size k={self.k} exceeds the supported cap {MAX_K}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bias p must lie in [0, 1], got {self.p!r}")
        if not isinstance(self.mode, BiasMode):
            raise ValueError(f"mode must be a BiasMode, got {self.mode!r}")


@dataclass(frozen=True)
class FixedPointSet:
    """Solutions of F(x) = x in [0, 1].

    0 is always a root.  ``phi_minus``/``phi_plus`` are the unstable/stable
    nontrivial roots when they exist; in the critical regime they coincide.
    ``mu`` is the tangency abscissa with F'(mu) = 1 in the critical and
    subcritical regimes.  All three are None when supercritical, even where
    the solver located a tangency point.
    """

    regime: Regime
    phi_minus: float | None
    phi_plus: float | None
    mu: float | None


@dataclass(frozen=True)
class CriticalValues:
    """Critical bias thresholds for a given sample size: p*_k, and p*_{k,q}
    when an initial majority level q was given (else None)."""

    p_star_k: float
    p_star_kq: float | None


# ---------------------------------------------------------------------------
# Exact binomial machinery
# ---------------------------------------------------------------------------


def _pmf_anchor(k: int, i: int, theta: float) -> float:
    """C(k,i) theta^i (1-theta)^(k-i), correctly rounded.

    theta = a / 2^s is a double, so the pmf is the rational of
    ``_pmf_exact``, whose numerator has up to s*k bits.  Above
    ``_EXACT_BITS`` that numerator is built only when it must be: a 60-digit
    decimal estimate v with relative error below eta = 1e-45 decides the
    rounding whenever v (1 - eta) and v (1 + eta) round to the same double
    (Ziv's strategy for the table maker's dilemma), and only an undecided
    case runs the exact path.

    Error bound of ``_pmf_estimate``.  Its operations run in ``_DECIMAL``,
    and each rounds its exact result once to 60 digits (the General Decimal
    Arithmetic rules that ``decimal`` follows), a relative error of at most
    eps = 10^-59 / 2.  The leaves of the product are C(k,i), theta and
    1 - theta, each rounded once: ``Decimal`` of a double is exact, and the
    subtraction starts from that exact theta.  Every other operation is a
    multiplication, done by hand rather than by Decimal's ``**``, which is
    not documented as correctly rounded.  Written out as a tree, with a
    squared value counted once per use, v multiplies k + 1 leaf copies
    through k rounded products; multiplying by the exact 1 does not round.
    So v is the exact pmf times at most 2k + 1 factors (1 + d), |d| <= eps,
    a relative error of at most gamma = (2k + 1) eps / (1 - (2k + 1) eps)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Lemma 3.1).  At k = MAX_K, gamma < 1.1e-55, ten orders of magnitude
    below eta.

    1 - eta and 1 + eta are exact at 60 digits, so with |d| <= eps,
    lo = v (1 - eta) (1 + d) < pmf < v (1 + eta) (1 - d) = hi.  float() of
    a Decimal parses its decimal string, which CPython rounds correctly, and
    rounding is monotone, so float(lo) == float(hi) is the correctly rounded
    pmf.  The context's exponent range is the widest there is, so no power
    underflows (theta^9999 at theta = 5e-324 is about 10^-3233000).
    """
    s = theta.as_integer_ratio()[1].bit_length() - 1  # theta == a / 2**s
    if s * k > _EXACT_BITS:  # so s > 0: theta is neither 0 nor 1
        estimate = _pmf_estimate(k, i, theta)
        if estimate is not None:
            return estimate
    return _pmf_exact(k, i, theta)


def _pmf_estimate(k: int, i: int, theta: float) -> float | None:
    """The correctly rounded pmf when a 60-digit estimate settles it, else
    None (undecided); see ``_pmf_anchor`` for the error bound.  Requires
    0 < theta < 1.  As in ``_pmf_exact``, the powers share the factor
    (theta (1-theta))^min(i, k-i).
    """
    mul = _DECIMAL.multiply
    exact = Decimal(theta)
    t = _DECIMAL.plus(exact)
    u = _DECIMAL.subtract(_ONE, exact)
    m = min(i, k - i)
    v = mul(_comb_decimal(k, i), _power(mul(t, u), m, mul, _ONE))
    v = mul(v, _power(t, i - m, mul, _ONE) if i > m else _power(u, k - i - m, mul, _ONE))
    lo = float(mul(v, _ONE_MINUS_ETA))
    hi = float(mul(v, _ONE_PLUS_ETA))
    return lo if lo == hi else None


def _power(t, n: int, mul=operator.mul, one=1.0):
    """t^n by square-and-multiply, one rounding of ``mul`` per product; the
    first product, by the exact ``one``, does not round."""
    result = one
    while n:
        if n & 1:
            result = mul(result, t)
        n >>= 1
        if n:
            t = mul(t, t)
    return result


@lru_cache(maxsize=4096)
def _comb_decimal(k: int, i: int) -> Decimal:
    """C(k, i) rounded to 60 digits."""
    return _DECIMAL.create_decimal(math.comb(k, i))


@lru_cache(maxsize=4096)
def _fair_pmf(n: int, i: int) -> float:
    """P(Bin(n, 1/2) = i) = C(n, i) / 2^n, correctly rounded (int / int)."""
    return math.comb(n, i) / (1 << n)


def _pmf_exact(k: int, i: int, theta: float) -> float:
    """C(k,i) theta^i (1-theta)^(k-i), correctly rounded from exact integers.

    theta is a double, hence an exact dyadic rational a / 2^s; the pmf is the
    exact rational comb * a^i * (2^s - a)^(k-i) / 2^(s k).  The two powers
    share the factor (a (2^s - a))^min(i, k-i), computed once.  The
    denominator b^k with b = 2^s is the single bit 1 << s*k, so it is built
    by a shift rather than by raising b to the k-th power.

    CPython's int / int divides the exact integers, not float images of
    them, and rounds the exact quotient once (round-half-even, with gradual
    underflow to subnormals and 0.0), so the rational needs no gcd reduction
    before the single correctly-rounded division.
    """
    a, b = theta.as_integer_ratio()
    s = b.bit_length() - 1  # b == 2**s
    c = b - a
    m = min(i, k - i)
    num = math.comb(k, i) * (a * c) ** m * a ** (i - m) * c ** (k - i - m)
    return num / (1 << (s * k))


def binom_pmf(k: int, i: int, theta: float) -> float:
    """P(Bin(k, theta) = i), exact to double precision."""
    _check_k(k)
    _check_index("pmf index i", i)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    if not 0 <= i <= k:
        raise ValueError(f"pmf index must lie in [0, {k}], got {i}")
    return _pmf_anchor(k, i, theta)


def binom_tail_geq(k: int, theta: float, m: int) -> float:
    """P(Bin(k, theta) >= m) by exact pmf summation.

    The pmf at the end of the requested tail that is nearest the mode is
    correctly rounded (``_pmf_anchor``), and the remaining terms
    follow by the multiplicative recurrence
    pmf(i+1) = pmf(i) * theta/(1-theta) * (k-i)/(i+1), walking away from the
    mode so the terms only decay.  The smaller of the two tails is the one
    summed: the upper tail directly when m > k*theta, otherwise 1 minus the
    lower tail.

    No error bound is proven; the proof is open.  Measured against 60-digit
    sums at random (theta, m) within 3/sqrt(k) of 1/2 and 2 sqrt(k) of the
    mode, the worst absolute error was 2.5e-16 at k = 101, 5.4e-16 at
    k = 1 001, 7.8e-16 at k = 4 001, 2.9e-15 at k = 9 999 and 3.0e-15 at
    k = 10 000.
    """
    _check_k(k)
    _check_index("tail threshold m", m)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    if m < 0:
        raise ValueError(f"tail threshold m must be >= 0, got {m}")
    if m > k + 1:
        raise ValueError(f"tail threshold m must be <= k+1={k + 1}, got {m}")
    if m == 0:
        return 1.0
    if m == k + 1:
        return 0.0
    if theta == 0.5 and 2 * m == k + 1:
        return 0.5  # symmetric split of Bin(k, 1/2), exact
    if m > k * theta:
        return _tail_sum(k, theta, start=m, upward=True)
    return 1.0 - _tail_sum(k, theta, start=m - 1, upward=False)


def _tail_sum(k: int, theta: float, start: int, upward: bool) -> float:
    """Sum pmf terms from ``start`` toward the far tail (terms decay).

    The walk down from i is the walk up from j = k - i with the odds
    inverted: pmf(i-1) = pmf(i) * (1-theta)/theta * i/(k-i+1), and
    i/(k-i+1) == (k-j)/(j+1), so both directions share one loop.
    """
    term = _pmf_anchor(k, start, theta)
    terms = [term]
    if upward:
        odds, j = theta / (1.0 - theta), start
    else:
        odds, j = (1.0 - theta) / theta, k - start
    while j < k and term > 0.0:
        term *= odds * (k - j) / (j + 1)
        j += 1
        terms.append(term)
        if term < terms[0] * 1e-20:
            break  # remaining mass < k * term <= 1e-16 * leading term
    return math.fsum(terms)


def _check_k(k: int) -> None:
    # type(...) is int: bool is an int subclass and would run as k=0 or 1
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the supported cap {MAX_K}")


def _check_index(name: str, value: int) -> None:
    # type(...) is int, as in _check_k: True would run as 1, and a float
    # would reach math.comb
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_x(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument x must lie in [0, 1], got {x!r}")


# ---------------------------------------------------------------------------
# The update map and its derivatives
# ---------------------------------------------------------------------------


def _contraction(params: MeanFieldParams) -> tuple[float, float]:
    """(inner, outer) with the map equal to outer * G(inner * x): edge bias
    contracts the argument, node bias the value.  The other factor is 1.0,
    and multiplying by 1.0 is exact."""
    s = 1.0 - params.p
    return (s, 1.0) if params.mode is BiasMode.EDGE else (1.0, s)


def eval_F(params: MeanFieldParams, x: float) -> float:
    """Update map for every sample size: outer * G(inner * x), where a tie
    (even k only) counts with weight 1/2.  Even k agrees with k-1."""
    _check_x(x)
    k = params.k
    inner, outer = _contraction(params)
    z = inner * x
    g = binom_tail_geq(k, z, k // 2 + 1)
    if k % 2 == 0:
        g += 0.5 * binom_pmf(k, k // 2, z)
    return outer * g


def eval_dF(params: MeanFieldParams, x: float) -> float:
    """First derivative of the update map (odd k).

    k (1-p) P(Bin(k-1, inner x) = (k-1)/2): the factor 1-p is the chain
    rule for edge bias and the outer factor for node bias.
    """
    _check_x(x)
    k, p = params.k, params.p
    if k % 2 == 0:
        raise ValueError(f"eval_dF requires odd k, got k={k}")
    inner, _ = _contraction(params)
    return k * (1.0 - p) * binom_pmf(k - 1, (k - 1) // 2, inner * x)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float,
            q: float | None = None) -> float:
    """Bisection on a bracketed sign change; stops once the bracket is
    narrower than tol and the midpoint residual is within tol.  Only the
    class of each f value is read (see ``_rank``), so f may return any value
    of the right class.

    Given q, it also stops once the bracket lies on one side of q (hi <= q
    or lo > q).  Each bracket holds every later one, and a midpoint of two
    doubles lies between them, so the midpoint returned then is on the same
    side of q as the full-precision result: only that side is meaningful."""
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisection bracket does not straddle a sign change")
    for _ in range(_MAX_BISECT):
        if q is not None and (hi <= q or lo > q):
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and abs(f_mid) <= tol:
            break
    return 0.5 * (lo + hi)


def _bisect_bias(holds, lo: float, hi: float, tol: float) -> float:
    """Bisection on the bias for the edge of a property that holds on
    [lo, answer] and fails above it; midpoint of the final bracket, which
    is at most tol wide."""
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_solver_args(k: int, tol: float, q: float | None = None) -> None:
    """Reject, before any solve, what the solvers refuse.  Fixed points and
    critical biases exist for odd k >= 3 (the k = 1 map is linear) up to
    MAX_K; the solvers bisect down to a positive tolerance of at most
    _MAX_TOL; an initial majority level q, when given, lies in (1/2, 1]."""
    if q is not None and not 0.5 < q <= 1.0:
        raise ValueError(f"initial majority level q must lie in (1/2, 1], got {q!r}")
    # type(...) is int: bool is an int subclass
    if type(k) is not int or k % 2 == 0 or k < 3:
        raise ValueError(f"the solver requires odd k >= 3, got k={k!r}")
    if not 0.0 < tol <= _MAX_TOL:
        raise ValueError(f"tolerance must be positive, finite and at most {_MAX_TOL}, "
                         f"got {tol!r}")
    if k > MAX_K:
        raise ValueError(f"sample size k={k} exceeds the supported cap {MAX_K}")


def _rank(g: float, tol: float) -> int:
    """The class of a value g that ``_bisect`` and ``_classify`` read: 0 for
    g < -tol, 1 for -tol <= g < 0, 2 for g == 0, 3 for 0 < g <= tol and 4
    for g > tol.  Non-decreasing in g."""
    return (g >= -tol) + (g >= 0.0) + (g > 0.0) + (g > tol)


# The regime by the class (``_rank``) of F(mu) - mu: F stays below the
# diagonal (0), touches it within tol (1 to 3) or crosses it (4).
_REGIME_BY_CLASS = (Regime.SUPERCRITICAL,) + (Regime.CRITICAL,) * 3 + (Regime.SUBCRITICAL,)


def _dF_excess(edge: MeanFieldParams, tol: float):
    """The test of one bias: a function of x that returns a value of the
    same class (``_rank``) as g = eval_dF(edge, x) - 1.0, one certified from
    double arithmetic where that decides the class, else g itself.  h,
    fl(k (1-p)), C and the two widening factors do not depend on x, so they
    are formed once per bias.

    g = fl(fl(k (1-p)) P) - 1.0, where P is the correctly rounded mode pmf
    C(k-1, h) (u (1-u))^h, h = (k-1)/2 and u = fl((1-p) x).  IEEE
    multiplication by a positive constant and subtraction of a constant are
    monotone, so g and its class are non-decreasing in P: if doubles
    lo <= P <= hi give g of one class, that is the class of g.

    Error bound of the estimate E = fl(C t^h), where C = fl(C(k-1, h) /
    2^(k-1)) (``_fair_pmf``), t = 4 fl(u fl(1 - u)) and t^h is taken by
    ``_power``; as 2^(k-1) = 4^h, C t^h estimates P and nothing overflows.
    Each operation rounds once, a relative error of at most eps = 2^-53
    while its result is normal, and the factor 4 is exact.  Written out as
    a tree, with a squared value counted once per use, E multiplies C and h
    copies of t through h rounded products, and each copy of t carries two
    roundings.  So E is the exact P times at most n = 3h + 1 factors
    (1 + d), |d| <= eps, a relative error of at most
    gamma = n eps / (1 - n eps) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1).  With n < 15 000, the
    doubles L = 1 - n 2^-52 and H = 1 + n 2^-52 are exact and satisfy
    L <= 1/(1 + gamma) and H >= 1/(1 - gamma), so E L <= P <= E H.  One
    ``math.nextafter`` step outward from the rounded E L and E H absorbs
    their rounding.  P lies between two doubles, so its correct rounding
    does too.

    The bound needs every rounding normal, and t^h >= _TINY ensures it.
    fl(1 - u) is exact for u >= 1/2 (Sterbenz) and within 2^-54 of 1 - u
    for u < 1/2, so u fl(1 - u) < 1/4 + 2^-55, which rounds to at most
    1/4: t <= 1.  So t and every intermediate of
    ``_power`` reach t^h through products by factors at most 1, and
    rounding is monotone: none is below t^h.  C > 2^-8 for k <= MAX_K, so
    E and E L >= E / 2 are normal too.  u = 0 or 1 gives t = 0.  When
    t^h < _TINY or lo and hi give different classes, g is computed exactly.
    """
    k, s = edge.k, 1.0 - edge.p
    h = (k - 1) // 2
    fair = _fair_pmf(k - 1, h)
    widen = (3 * h + 1) * 2.0**-52
    shrink, grow = 1.0 - widen, 1.0 + widen
    slope = k * s

    def excess(x: float) -> float:
        u = s * x  # as eval_dF forms it
        power = _power(4.0 * (u * (1.0 - u)), h)
        if power >= _TINY:
            estimate = fair * power
            g_lo = slope * math.nextafter(estimate * shrink, 0.0) - 1.0
            g_hi = slope * math.nextafter(estimate * grow, math.inf) - 1.0
            if _rank(g_lo, tol) == _rank(g_hi, tol):
                return g_hi
        return eval_dF(edge, x) - 1.0

    return excess


def _classify(params: MeanFieldParams, tol: float):
    """Regime of the edge-bias map plus the tangency point when it exists.

    Returns (regime, mu, psi_mu).  Nontrivial roots can only live in
    (1/(2(1-p)), 1], where the map is concave, so F' is decreasing there;
    the regime is read off the sign of F(mu) - mu at the point where F' = 1.

    The search for mu reads only the class of each F'(x) - 1 (its sign and
    whether it is within tol).  ``_dF_excess`` sets up the bias's test once,
    and the test decides most classes in double arithmetic with a proven
    error bound; only a value too close to a class boundary for that bound
    runs the exact anchor of ``eval_dF``.  mu is therefore the same double
    as with exact values throughout.
    """
    p = params.p
    if p < 0.5:  # else 1/(2(1-p)) >= 1: no concave region, F convex on [0, 1]
        a = 0.5 / (1.0 - p)
        g = _dF_excess(params, tol)
        g_a, g_1 = g(a), g(1.0)
        # A tangency point needs g_a > 0 > g_1.  If g_a <= 0, F' <= 1 on the
        # whole concave region while F(a) = 1/2 <= a, so F stays below the
        # diagonal; if g_1 >= 0, F' >= 1 throughout, so F - x increases up to
        # F(1) - 1 < 0.  Either way F has no nontrivial root.
        if g_a > 0.0 > g_1:
            mu = _bisect(g, a, 1.0, g_a, g_1, tol)
            psi_mu = eval_F(params, mu) - mu
            return _REGIME_BY_CLASS[_rank(psi_mu, tol)], mu, psi_mu
    return Regime.SUPERCRITICAL, None, None


def _phi_minus(edge: MeanFieldParams, tol: float, q: float | None = None):
    """The edge-bias map's regime, tangency point mu, residual F(mu) - mu and
    unstable root phi_minus: all but the regime None when supercritical, and
    phi_minus = mu when critical.

    phi_minus is bracketed in [1/(2(1-p)), mu], where F' is monotone, so
    the bracket holds a single sign change.  Given q, the bisection stops
    once its bracket lies on one side of q (see ``_bisect``): the phi_minus
    returned is then meaningful only as its side of q, which is the side of
    the full-precision root.
    """
    regime, mu, psi_mu = _classify(edge, tol)
    if regime is Regime.SUPERCRITICAL:
        return regime, None, None, None
    if regime is Regime.CRITICAL:
        return regime, mu, psi_mu, mu
    a = 0.5 / (1.0 - edge.p)
    psi_a = eval_F(edge, a) - a
    # boundary root: p = 0 puts phi- exactly at a = 1/2
    if psi_a >= 0.0:
        return regime, mu, psi_mu, a
    psi = lambda x: eval_F(edge, x) - x
    return regime, mu, psi_mu, _bisect(psi, a, mu, psi_a, psi_mu, tol, q)


def fixed_points(params: MeanFieldParams, tol: float = DEFAULT_TOL) -> FixedPointSet:
    """All solutions of F(x) = x (or Fhat(x) = x for node bias).

    0 is always a root.  Nontrivial roots are bracketed against the tangency
    point mu (F' is monotone on the concave region, so each bracket holds a
    single sign change) and located by bisection; |F(root) - root| <= tol.
    Node-bias sets are the edge-bias sets contracted by (1-p).
    """
    k, p = params.k, params.p
    check_solver_args(k, tol)
    # the node-bias map is the edge-bias map contracted by its outer factor
    _, s = _contraction(params)
    edge = MeanFieldParams(k, p, BiasMode.EDGE)
    regime, mu, psi_mu, phi_minus = _phi_minus(edge, tol)
    if regime is Regime.SUPERCRITICAL:
        return FixedPointSet(Regime.SUPERCRITICAL, None, None, mu=None)
    if regime is Regime.CRITICAL:
        return FixedPointSet(Regime.CRITICAL, s * mu, s * mu, mu=s * mu)
    psi = lambda x: eval_F(edge, x) - x
    psi_1 = psi(1.0)
    # boundary root: p = 0 puts phi+ exactly at 1
    phi_plus = 1.0 if psi_1 >= 0.0 else _bisect(psi, mu, 1.0, psi_mu, psi_1, tol)
    return FixedPointSet(Regime.SUBCRITICAL, s * phi_minus, s * phi_plus, mu=s * mu)


# ---------------------------------------------------------------------------
# Critical bias values
# ---------------------------------------------------------------------------


def critical_bias_k(k: int, tol: float = DEFAULT_TOL) -> CriticalValues:
    """Largest bias for which a nontrivial fixed point survives.

    Bisection on p over [1/9, 1/2]: below the answer the map is subcritical
    or critical, above it supercritical.  Holds for both bias modes (the
    node-bias map is an axis contraction of the edge-bias map, which leaves
    existence of nontrivial roots unchanged).

    ``tol`` bounds the width of the final bisection bracket and the residual
    |F(mu) - mu| below which a probed bias counts as critical; it is not a
    bound on |p - p*_k|.  A bias just above p*_k can still pass as critical,
    so ``critical_bias_k(3, tol=1e-3)`` lies 1.14e-3 from 1/9.
    """
    check_solver_args(k, tol)
    return _critical_values(k, None, tol)


def critical_bias_kq(k: int, q: float, tol: float = DEFAULT_TOL) -> CriticalValues:
    """Critical bias under Bernoulli(q) initialization.

    The threshold is the largest p <= p_star_k with phi_minus(p) <= q;
    phi_minus is increasing in p, so bisection on p applies.  q = 1 always
    gives p_star_k itself.  ``tol`` bounds the final bracket of each
    bisection and the residuals of the roots, as in ``critical_bias_k``, not
    the distance to the exact thresholds.

    Each probed bias bisects for mu, deciding each step as ``_classify``
    says, and then for phi_minus on exact values of F, stopping once the
    bracket lies on one side of q: the probe reads only phi_minus <= q,
    and that side is the full-precision root's, so every bit of the result
    is as with phi_minus solved to tol.
    """
    check_solver_args(k, tol, q)
    return _critical_values(k, q, tol)


@lru_cache(maxsize=None)
def _critical_values(k: int, q: float | None, tol: float) -> CriticalValues:
    """The memo of the critical biases, for arguments ``check_solver_args``
    accepts: p*_k when q is None, else p*_k and p*_{k,q}.  A q entry reads
    p*_k from the (k, None, tol) entry, so p*_k is solved once for every q."""
    if q is None:

        def has_root(p: float) -> bool:
            regime, _, _ = _classify(MeanFieldParams(k, p, BiasMode.EDGE), tol)
            return regime is not Regime.SUPERCRITICAL

        p_star = _bisect_bias(has_root, 1.0 / 9.0, 0.5, tol)
        return CriticalValues(p_star_k=p_star, p_star_kq=None)
    p_star = _critical_values(k, None, tol).p_star_k

    def phi_minus_within_q(p: float) -> bool:
        # solves phi_minus only, as fixed_points does, and only to the side
        # of q; phi_plus is not read
        _, _, _, phi_minus = _phi_minus(MeanFieldParams(k, p, BiasMode.EDGE), tol, q)
        return phi_minus is not None and phi_minus <= q

    # Probe just inside the subcritical window: if even the largest phi_minus
    # stays below q, the q-threshold coincides with p_star_k.
    if phi_minus_within_q(max(0.0, p_star - 2.0 * tol)):
        p_star_kq = p_star
    else:
        p_star_kq = _bisect_bias(phi_minus_within_q, 0.0, p_star, tol)
    return CriticalValues(p_star_k=p_star, p_star_kq=p_star_kq)


# ---------------------------------------------------------------------------
# Trajectory recursion
# ---------------------------------------------------------------------------


def trajectory(params: MeanFieldParams, q0: float, T: int) -> list[float]:
    """The orbit q0, F(q0), F(F(q0)), ... of T applications of the map."""
    _check_x(q0)
    if type(T) is not int or T < 0:
        raise ValueError(f"round count T must be a nonnegative integer, got {T!r}")
    values = [float(q0)]
    for _ in range(T):
        values.append(eval_F(params, values[-1]))
    return values
