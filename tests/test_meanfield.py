"""Mean-field analyzer tests.

Expected values come from independent oracles: exact rational summation
(fractions.Fraction over the dyadic value of the float argument), mpmath's
regularized incomplete beta for binomial tails, the k = 3 closed form, and
frozen high-precision solutions of the tangency system F(x) = x, F'(x) = 1.
"""

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import closed_form_k3, eval_d2F, k3_node_p_star_q

from kmajority import meanfield
from kmajority.meanfield import (
    MAX_K,
    BiasMode,
    MeanFieldParams,
    Regime,
    binom_pmf,
    binom_tail_geq,
    critical_bias_k,
    critical_bias_kq,
    eval_F,
    eval_dF,
    fixed_points,
    trajectory,
)

mpmath.mp.dps = 40

EDGE = BiasMode.EDGE
NODE = BiasMode.NODE

# Tangency-system solutions (F(x) = x, F'(x) = 1 solved with 40-digit Newton,
# cross-checked by a dense grid scan bisected on p; both agree to ~1e-8).
PK_STAR_ORACLE = {
    3: 0.11111111111111111,
    5: 0.16511622880321973,
    7: 0.19919263338951042,
    9: 0.2234303714057378,
    21: 0.29564514317465373,
    51: 0.35462332126882337,
    101: 0.38943951089671029,
}

# Closed-form values at p = 0.05 (exact rational discriminant, 40-digit sqrt).
PHI_MINUS_005 = 0.58924054993350468
PHI_PLUS_005 = 0.98970681848754790


def tail_fraction(k, theta, m):
    """Exact rational tail of Bin(k, theta) at the dyadic float theta."""
    th = Fraction(theta)
    return float(sum(Fraction(math.comb(k, i)) * th**i * (1 - th) ** (k - i)
                     for i in range(m, k + 1)))


def majority_exact(k, x):
    """G(x) = P(Bin(k, x) > k/2) for odd k at the rational x, exactly."""
    return sum(math.comb(k, i) * x**i * (1 - x) ** (k - i) for i in range(k // 2 + 1, k + 1))


def majority_slope_exact(k, x):
    """G'(x) = k C(k-1, h) (x (1-x))^h, h = (k-1)/2, for odd k, exactly."""
    h = (k - 1) // 2
    return k * math.comb(k - 1, h) * (x * (1 - x)) ** h


def tail_mpmath(k, theta, m):
    """Independent tail via the regularized incomplete beta."""
    if m <= 0:
        return 1.0
    if m > k:
        return 0.0
    return float(mpmath.betainc(m, k - m + 1, 0, theta, regularized=True))


def tail_exact_int(k, theta, m):
    """Exact tail over the float's dyadic value, in pure integer arithmetic.

    With theta = a/b and c = b - a, term i is C(k, i) a^i c^(k-i) / b^k, and
    term i+1 is term i times r_i = (k-i)a / ((i+1)c).  Binary splitting sums
    the running products of r_m .. r_{k-1} as one exact fraction T/Q, so the
    tail is term m times (Q + T)/Q: one int / int, which rounds correctly.
    """
    if m <= 0:
        return 1.0
    if m > k:
        return 0.0
    if theta == 0.0:
        return 0.0
    if theta == 1.0:
        return 1.0
    a, b = theta.as_integer_ratio()
    c = b - a

    def split(lo, hi):
        # (P, Q, T) over r_lo .. r_{hi-1}: P/Q is their product, T/Q the sum
        # of their running products r_lo, r_lo r_{lo+1}, ...
        if hi - lo == 1:
            return (k - lo) * a, (lo + 1) * c, (k - lo) * a
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(m, k) if m < k else (1, 1, 0)
    return math.comb(k, m) * a**m * c ** (k - m) * (q + t) / (q * b**k)


def pmf_fraction(k, i, theta):
    th = Fraction(theta)
    return float(Fraction(math.comb(k, i)) * th**i * (1 - th) ** (k - i))


class TestBinomTail:
    def test_symmetric_split(self):
        assert binom_tail_geq(3, 0.5, 2) == 0.5
        assert binom_tail_geq(101, 0.5, 51) == 0.5

    def test_degenerate(self):
        assert binom_tail_geq(5, 1.0, 3) == 1.0
        assert binom_tail_geq(5, 0.0, 3) == 0.0
        assert binom_tail_geq(5, 0.3, 0) == 1.0
        assert binom_tail_geq(5, 0.3, 6) == 0.0

    def test_small_case_exact(self):
        got = binom_tail_geq(3, 0.6, 2)
        assert got == pytest.approx(0.648, abs=1e-12)
        assert got == pytest.approx(tail_fraction(3, 0.6, 2), abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 101, 1000])
    def test_against_incomplete_beta(self, k):
        thetas = [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]
        ms = sorted({0, 1, k // 4, k // 2, (k + 1) // 2, (3 * k) // 4, k, k + 1})
        for theta in thetas:
            for m in ms:
                got = binom_tail_geq(k, theta, m)
                want = tail_mpmath(k, theta, m)
                assert got == pytest.approx(want, abs=1e-14), (k, theta, m)

    def test_cap_size_against_exact_integers(self):
        k = MAX_K
        for theta in (0.3, 0.5, 0.9):
            for m in (1, k // 2, (k + 1) // 2, k // 2 + 40, (3 * k) // 4, k):
                got = binom_tail_geq(k, theta, m)
                want = tail_exact_int(k, theta, m)
                assert got == pytest.approx(want, abs=1e-14), (theta, m)

    def test_monotone(self):
        for k in (4, 9):
            vals_m = [binom_tail_geq(k, 0.37, m) for m in range(k + 2)]
            assert all(a >= b for a, b in zip(vals_m, vals_m[1:]))
            vals_t = [binom_tail_geq(k, t, (k + 1) // 2) for t in np.linspace(0, 1, 21)]
            assert all(a <= b + 1e-15 for a, b in zip(vals_t, vals_t[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_tail_geq(3, -0.1, 1)
        with pytest.raises(ValueError):
            binom_tail_geq(3, 1.1, 1)
        with pytest.raises(ValueError):
            binom_tail_geq(3, 0.5, -1)
        with pytest.raises(ValueError):
            binom_tail_geq(3, 0.5, 5)
        with pytest.raises(ValueError):
            binom_tail_geq(MAX_K + 1, 0.5, 1)

    @pytest.mark.parametrize("call, message", [
        (lambda: binom_pmf(True, 1, 0.5), "k must be a nonnegative integer, got True"),
        (lambda: binom_tail_geq(True, 0.5, 1), "k must be a nonnegative integer, got True"),
        (lambda: binom_pmf(5, 2.5, 0.3), "pmf index i must be an integer, got 2.5"),
        (lambda: binom_pmf(5, True, 0.3), "pmf index i must be an integer, got True"),
        (lambda: binom_tail_geq(5, 0.3, 3.0), "tail threshold m must be an integer, got 3.0"),
        (lambda: binom_tail_geq(5, 0.3, True), "tail threshold m must be an integer, got True"),
    ], ids=["binom_pmf", "binom_tail_geq", "pmf float i", "pmf bool i", "tail float m",
            "tail bool m"])
    def test_integer_arguments_take_no_float_or_bool(self, call, message):
        # k=True used to pass isinstance(k, int) and return 0.5, run as k=1;
        # a float index escaped as a TypeError from math.comb, and i=True
        # ran as i=1
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("k, i, theta, message", [
        (3, 1, 1.5, "theta must lie in [0, 1], got 1.5"),
        (3, 4, 0.5, "pmf index must lie in [0, 3], got 4"),
    ])
    def test_pmf_rejects(self, k, i, theta, message):
        with pytest.raises(ValueError) as err:
            binom_pmf(k, i, theta)
        assert str(err.value) == message

    def test_pmf_matches_fraction_oracle(self):
        for k, i, theta in [(3, 2, 0.6), (10, 5, 0.123), (100, 37, 0.37), (1000, 500, 0.5)]:
            assert binom_pmf(k, i, theta) == pytest.approx(pmf_fraction(k, i, theta), rel=1e-15)

    @pytest.mark.parametrize("k, i, theta", [
        (7, 0, 0.3),                 # i = 0
        (7, 7, 0.3),                 # i = k
        (100, 37, 0.37),             # i < k - i
        (100, 63, 0.37),             # i > k - i
        (101, 50, 0.5),              # theta = 1/2
        (1000, 500, 0.5),
        (3, 1, 5e-324),              # subnormal theta
        (5, 1, 1e-310),
        (10, 10, 1e-40),             # exact value 1e-400 underflows to 0.0
        (3, 3, 5e-324),
        (MAX_K, MAX_K // 2, 0.5),    # cap size at the mode
        (MAX_K, 3000, 0.3),
    ])
    def test_pmf_bit_exact(self, k, i, theta):
        # The anchor is the correctly rounded exact rational: equal, not close.
        assert binom_pmf(k, i, theta) == pmf_fraction(k, i, theta)

    @pytest.mark.parametrize("theta", [0.0, -0.0, 1.0])
    def test_boundary_theta_exact(self, theta):
        # Bin(k, 0) is a point mass at 0 and Bin(k, 1) one at k; compared by
        # float.hex(), so a -0.0 would not pass for 0.0
        for k in [*range(65), MAX_K]:
            at = k if theta == 1.0 else 0
            small = k <= 64
            for i in range(k + 1) if small else (0, 1, k // 2, k - 1, k):
                want = 1.0 if i == at else 0.0
                assert binom_pmf(k, i, theta).hex() == want.hex(), (k, i)
            for m in range(k + 2) if small else (0, 1, k // 2, k, k + 1):
                want = 1.0 if m <= at else 0.0
                assert binom_tail_geq(k, theta, m).hex() == want.hex(), (k, m)


def _anchor_cases():
    """Seeded (k, i, theta) on both sides of the exact-path cut-off."""
    rng = random.Random(20261019)
    cases = [
        (3, 1, 5e-324), (5, 1, 5e-324), (200, 1, 5e-324), (200, 0, 5e-324),
        (7, 3, 1e-310), (MAX_K, 0, 1.0 - 2.0**-53), (MAX_K, MAX_K - 1, 1.0 - 2.0**-53),
        (MAX_K, MAX_K, 1.0 - 2.0**-53), (MAX_K, MAX_K // 2, 0.5), (MAX_K, 3000, 0.3),
        (MAX_K, 1, 2.0**-40), (64, 32, 1.0 - 2.0**-53), (65, 33, 0.3), (129, 64, 0.6),
    ]
    while len(cases) < 300:
        k = rng.choice((rng.randint(1, 64), rng.randint(65, 300), rng.randint(301, 3000)))
        form = rng.randrange(4)
        if form == 0:
            theta = rng.random()
        elif form == 1:
            theta = rng.random() * 2.0 ** -rng.randint(1, 60)
        elif form == 2:
            theta = 1.0 - rng.random() * 2.0 ** -rng.randint(1, 52)
        else:
            k = min(k, 400)  # exact integers of up to 1074 k bits
            theta = rng.randint(1, 2**52) * 5e-324
        if 0.0 < theta < 1.0:
            mode = round(k * theta)
            i = rng.choice((rng.randint(0, k), min(k, max(0, mode + rng.randint(-3, 3)))))
            cases.append((k, i, theta))
    for k, i in ((MAX_K, MAX_K // 2 + 40), (MAX_K, 7000)):
        cases.append((k, i, rng.random()))
    return cases


def _exact_bits(k, theta):
    return k * (theta.as_integer_ratio()[1].bit_length() - 1)


class TestPmfAnchor:
    def test_estimate_matches_exact_path(self):
        # bit for bit, on both sides of the cut-off: below it the anchor runs
        # the exact path, above it the estimate must decide every case
        cases = _anchor_cases()
        sides = {_exact_bits(k, theta) > meanfield._EXACT_BITS for k, _, theta in cases}
        assert sides == {False, True}
        for k, i, theta in cases:
            want = meanfield._pmf_exact(k, i, theta).hex()
            assert meanfield._pmf_estimate(k, i, theta).hex() == want, (k, i, theta)
            assert meanfield._pmf_anchor(k, i, theta).hex() == want, (k, i, theta)

    @pytest.mark.parametrize("k, i, theta", [
        (2, 2, (2**27 - 1) / 2**27),  # (2^27 - 1)^2 is odd with 54 bits
        (34, 0, 0.25),                # (3/4)^34: 3^34 is odd with 54 bits
    ])
    def test_rounding_midpoint_falls_back_to_exact(self, monkeypatch, count_calls,
                                                   k, i, theta):
        th = Fraction(theta)
        pmf = math.comb(k, i) * th**i * (1 - th) ** (k - i)
        nearest = float(pmf)
        neighbors = {math.nextafter(nearest, 0.0), math.nextafter(nearest, 1.0)}
        assert any(pmf == (Fraction(nearest) + Fraction(x)) / 2 for x in neighbors)
        # no estimate of finite accuracy can round a midpoint
        assert meanfield._pmf_estimate(k, i, theta) is None
        monkeypatch.setattr(meanfield, "_EXACT_BITS", 0)
        exact = count_calls(meanfield, "_pmf_exact")
        assert meanfield._pmf_anchor(k, i, theta).hex() == nearest.hex()
        assert exact == [(k, i, theta)]

    def test_near_midpoint_above_cut_off_falls_back(self, count_calls):
        # 100 theta is a 54-bit midpoint and (1 - theta)^99 moves the pmf off
        # it by only about 99 theta = 2.5e-55, relative: far inside eta
        k, i, theta = 100, 1, float.fromhex("0x1.ea56aa14dd4f0p-188")
        assert _exact_bits(k, theta) > meanfield._EXACT_BITS
        assert meanfield._pmf_estimate(k, i, theta) is None
        exact = count_calls(meanfield, "_pmf_exact")
        assert meanfield._pmf_anchor(k, i, theta).hex() == pmf_fraction(k, i, theta).hex()
        assert exact == [(k, i, theta)]

    def test_every_memo_clears(self):
        # the benchmark empties every package memo between rounds through
        # cache_clear on names whose __module__ is the module's own
        names = [name for name, value in vars(meanfield).items()
                 if not name.startswith("__") and isinstance(value, (dict, list, set))]
        assert names == []
        memos = {name: value for name, value in vars(meanfield).items()
                 if hasattr(value, "cache_info")}
        assert "_comb_decimal" in memos
        binom_pmf(MAX_K, 3000, 0.3)
        assert memos["_comb_decimal"].cache_info().currsize > 0
        critical_bias_kq(3, 0.6)
        assert memos["_p_star_k"].cache_info().currsize == 1
        assert memos["_p_star_kq"].cache_info().currsize == 1
        for name, memo in memos.items():
            assert memo.__module__ == meanfield.__name__, name
            memo.cache_clear()
            assert memo.cache_info().currsize == 0, name


class TestEvalF:
    def test_known_fixed_point_k3(self):
        # (1-1/9) * 27/32 = 3/4 and P(Bin(3, 3/4) >= 2) = 27/32
        got = eval_F(MeanFieldParams(3, 1 / 9, EDGE), 27 / 32)
        assert got == pytest.approx(27 / 32, abs=1e-14)

    def test_half_anchor(self):
        # F(1/(2(1-p))) = 1/2; exact whenever (1-p)*x lands on 0.5 in floats
        for k in (3, 5, 9):
            for p in np.arange(0.0, 0.5, 0.05):
                x = 0.5 / (1.0 - p)
                got = eval_F(MeanFieldParams(k, float(p), EDGE), x)
                if (1.0 - p) * x == 0.5:
                    assert got == 0.5
                else:
                    assert got == pytest.approx(0.5, abs=2e-15)

    def test_node_mode_value(self):
        got = eval_F(MeanFieldParams(3, 0.2, NODE), 0.5)
        assert got == pytest.approx(0.4, abs=1e-15)

    def test_anchors(self):
        for k in (3, 7):
            for p in (0.1, 0.45, 0.9):
                params = MeanFieldParams(k, p, EDGE)
                assert eval_F(params, 0.0) == 0.0
                assert eval_F(params, 1.0) < 1.0
        assert eval_F(MeanFieldParams(5, 0.0, EDGE), 1.0) == 1.0

    def test_rejects(self):
        with pytest.raises(ValueError):
            eval_F(MeanFieldParams(3, 0.1, EDGE), 1.5)

    def test_even_odd_equivalence(self):
        worst = 0.0
        xs = np.linspace(0.0, 1.0, 101)
        for k in (2, 4, 6, 8):
            for p in np.arange(0.0, 0.501, 0.05):
                for mode in (EDGE, NODE):
                    pe = MeanFieldParams(k, float(p), mode)
                    po = MeanFieldParams(k - 1, float(p), mode)
                    for x in xs:
                        diff = abs(eval_F(pe, float(x)) - eval_F(po, float(x)))
                        worst = max(worst, diff)
        assert worst <= 1e-12

    def test_even_examples(self):
        assert eval_F(MeanFieldParams(4, 0.0, EDGE), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert eval_F(MeanFieldParams(4, 1 / 9, EDGE), 27 / 32) == pytest.approx(
            27 / 32, abs=1e-13
        )
        assert eval_F(MeanFieldParams(2, 1.0, NODE), 1.0) == 0.0

    def test_scaling_identity(self):
        worst = 0.0
        for k in (3, 5, 9):
            for p in (0.05, 0.2, 0.45):
                pn = MeanFieldParams(k, p, NODE)
                pe = MeanFieldParams(k, p, EDGE)
                for t in np.linspace(0.0, 1.0, 51):
                    x = float(t) * (1.0 - p)
                    y = min(1.0, x / (1.0 - p))
                    diff = abs(eval_F(pn, x) - (1.0 - p) * eval_F(pe, y))
                    worst = max(worst, diff)
        assert worst <= 1e-12

    def test_monotone_in_x_and_p(self):
        xs = np.linspace(0.0, 1.0, 41)
        for k in (3, 9):
            vals = [eval_F(MeanFieldParams(k, 0.2, EDGE), float(x)) for x in xs]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            for x in (0.3, 0.7, 0.95):
                byp = [eval_F(MeanFieldParams(k, float(p), EDGE), x)
                       for p in np.linspace(0.0, 1.0, 21)]
                assert all(a >= b - 1e-15 for a, b in zip(byp, byp[1:]))

    def test_monotone_in_k(self):
        # increasing in k above the pivot 1/(2(1-p)), decreasing below
        for p in (0.0, 0.1, 0.3):
            pivot = 0.5 / (1.0 - p)
            for x in np.linspace(0.0, 1.0, 21):
                x = float(x)
                vals = [eval_F(MeanFieldParams(k, p, EDGE), x) for k in (3, 5, 7, 9)]
                if x >= pivot:
                    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
                else:
                    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestDerivatives:
    def test_dF_examples(self):
        assert eval_dF(MeanFieldParams(3, 0.0, EDGE), 0.5) == pytest.approx(1.5, abs=1e-15)
        assert eval_dF(MeanFieldParams(3, 1.0, EDGE), 0.7) == 0.0
        want = 4.5 * pmf_fraction(4, 2, 0.9 * 0.6)
        assert eval_dF(MeanFieldParams(5, 0.1, EDGE), 0.6) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_dF_matches_central_difference(self, mode):
        # interior grid: outside [0.05, 0.95] the map's derivative drops below
        # what a double-precision difference quotient can resolve at rel 1e-6
        h = 1e-6
        for k in (3, 5, 9):
            for p in (0.0, 0.1, 0.3):
                params = MeanFieldParams(k, p, mode)
                for x in np.linspace(0.05, 0.95, 25):
                    x = float(x)
                    fd = (eval_F(params, x + h) - eval_F(params, x - h)) / (2 * h)
                    an = eval_dF(params, x)
                    assert an == pytest.approx(fd, rel=1e-6), (k, p, x)

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_dF_matches_high_precision_diff(self, mode):
        # mpmath differentiates the incomplete-beta form of the map; this
        # covers the extreme x values the float difference quotient cannot
        for k in (3, 5, 9):
            m = (k + 1) // 2
            for p in (0.0, 0.1, 0.3):
                if mode is EDGE:
                    f = lambda x: mpmath.betainc(m, k - m + 1, 0,
                                                 (1 - mpmath.mpf(p)) * x, regularized=True)
                else:
                    f = lambda x: (1 - mpmath.mpf(p)) * mpmath.betainc(
                        m, k - m + 1, 0, x, regularized=True)
                params = MeanFieldParams(k, p, mode)
                for x in (0.005, 0.3, 0.7, 0.99):
                    want = float(mpmath.diff(f, mpmath.mpf(repr(x))))
                    assert eval_dF(params, x) == pytest.approx(want, rel=1e-10, abs=1e-18)

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_d2F_matches_second_difference(self, mode):
        h = 1e-4
        for k in (3, 5, 9):
            for p in (0.0, 0.1, 0.3):
                params = MeanFieldParams(k, p, mode)
                for x in np.linspace(0.05, 0.95, 25):
                    x = float(x)
                    fd = (eval_F(params, x + h) - 2 * eval_F(params, x)
                          + eval_F(params, x - h)) / (h * h)
                    an = eval_d2F(params, x)
                    # abs floor = difference-quotient roundoff (4 eps / h^2),
                    # needed when the grid lands on the inflection point
                    assert an == pytest.approx(fd, rel=1e-4, abs=1e-7), (k, p, x, mode)

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_d2F_matches_high_precision_diff(self, mode):
        for k in (3, 5, 9):
            m = (k + 1) // 2
            for p in (0.0, 0.2):
                if mode is EDGE:
                    f = lambda x: mpmath.betainc(m, k - m + 1, 0,
                                                 (1 - mpmath.mpf(p)) * x, regularized=True)
                else:
                    f = lambda x: (1 - mpmath.mpf(p)) * mpmath.betainc(
                        m, k - m + 1, 0, x, regularized=True)
                params = MeanFieldParams(k, p, mode)
                for x in (0.1, 0.45, 0.8):
                    want = float(mpmath.diff(f, mpmath.mpf(repr(x)), n=2))
                    assert eval_d2F(params, x) == pytest.approx(want, rel=1e-8, abs=1e-15)

    def test_d2F_examples(self):
        assert eval_d2F(MeanFieldParams(3, 0.0, EDGE), 0.25) == pytest.approx(3.0, abs=1e-14)
        assert eval_d2F(MeanFieldParams(3, 0.0, EDGE), 0.75) == pytest.approx(-3.0, abs=1e-14)

    def test_d2F_sign_flip_at_inflection(self):
        for k in (3, 5, 9):
            for p in (0.0, 0.1, 0.3):
                params = MeanFieldParams(k, p, EDGE)
                pivot = 0.5 / (1.0 - p)
                assert abs(eval_d2F(params, pivot)) < 1e-12
                assert eval_d2F(params, pivot - 1e-3) > 0.0
                assert eval_d2F(params, pivot + 1e-3) < 0.0
                node = MeanFieldParams(k, p, NODE)
                assert eval_d2F(node, 0.5 - 1e-3) > 0.0
                assert eval_d2F(node, 0.5 + 1e-3) < 0.0

    def test_k1(self):
        assert eval_d2F(MeanFieldParams(1, 0.3, EDGE), 0.4) == 0.0
        assert eval_dF(MeanFieldParams(1, 0.3, EDGE), 0.4) == pytest.approx(0.7, abs=1e-15)

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            eval_dF(MeanFieldParams(4, 0.1, EDGE), 0.5)
        with pytest.raises(ValueError):
            eval_d2F(MeanFieldParams(4, 0.1, EDGE), 0.5)


class TestFixedPoints:
    def test_matches_closed_form_grid(self):
        for p100 in range(0, 12):
            p = p100 / 100.0
            fp = fixed_points(MeanFieldParams(3, p, EDGE))
            cf = closed_form_k3(p)
            assert fp.regime == cf.regime, p
            if fp.regime is Regime.SUBCRITICAL:
                assert fp.phi_minus == pytest.approx(cf.phi_minus, abs=1e-9)
                assert fp.phi_plus == pytest.approx(cf.phi_plus, abs=1e-9)

    def test_frozen_values_p005(self):
        fp = fixed_points(MeanFieldParams(3, 0.05, EDGE))
        assert fp.phi_minus == pytest.approx(PHI_MINUS_005, abs=1e-9)
        assert fp.phi_plus == pytest.approx(PHI_PLUS_005, abs=1e-9)

    def test_critical_point_k3(self):
        fp = fixed_points(MeanFieldParams(3, 1 / 9, EDGE))
        assert fp.regime in (Regime.CRITICAL, Regime.SUBCRITICAL)
        for root in (fp.phi_minus, fp.phi_plus):
            assert root == pytest.approx(27 / 32, abs=1e-9)

    def test_p_zero(self):
        fp = fixed_points(MeanFieldParams(3, 0.0, EDGE))
        assert fp.regime is Regime.SUBCRITICAL
        assert fp.phi_minus == pytest.approx(0.5, abs=1e-12)
        assert fp.phi_plus == pytest.approx(1.0, abs=1e-12)

    def test_supercritical(self):
        assert fixed_points(MeanFieldParams(3, 0.2, EDGE)).regime is Regime.SUPERCRITICAL
        assert fixed_points(MeanFieldParams(9, 0.5, EDGE)).regime is Regime.SUPERCRITICAL
        assert fixed_points(MeanFieldParams(9, 0.9, EDGE)).regime is Regime.SUPERCRITICAL

    def test_node_mode_scaling(self):
        for k, p in [(3, 0.05), (5, 0.1), (9, 0.15)]:
            edge = fixed_points(MeanFieldParams(k, p, EDGE))
            node = fixed_points(MeanFieldParams(k, p, NODE))
            assert node.regime == edge.regime
            assert node.phi_minus == pytest.approx((1 - p) * edge.phi_minus, abs=1e-12)
            assert node.phi_plus == pytest.approx((1 - p) * edge.phi_plus, abs=1e-12)
            # independent residual check: the scaled points really are fixed
            params = MeanFieldParams(k, p, NODE)
            for root in (node.phi_minus, node.phi_plus):
                assert eval_F(params, root) == pytest.approx(root, abs=1e-9)
            assert 0.5 < node.phi_minus <= 1 - p + 1e-12

    def test_residuals_and_interval(self):
        for k, p in [(3, 0.05), (5, 0.12), (101, 0.3)]:
            params = MeanFieldParams(k, p, EDGE)
            fp = fixed_points(params)
            lo = 0.5 / (1.0 - p)
            for root in (fp.phi_minus, fp.phi_plus):
                assert abs(eval_F(params, root) - root) <= 1e-10
                assert lo < root <= 1.0

    def test_mu_bracketing(self):
        for k, p in [(3, 0.05), (5, 0.1), (9, 0.2)]:
            params = MeanFieldParams(k, p, EDGE)
            fp = fixed_points(params)
            assert fp.regime is Regime.SUBCRITICAL
            assert fp.phi_minus < fp.mu < fp.phi_plus
            assert eval_dF(params, fp.mu) == pytest.approx(1.0, abs=1e-10)

    def test_rejects(self):
        with pytest.raises(ValueError):
            fixed_points(MeanFieldParams(4, 0.1, EDGE))
        with pytest.raises(ValueError):
            fixed_points(MeanFieldParams(1, 0.1, EDGE))
        with pytest.raises(ValueError):
            MeanFieldParams(3, -0.1, EDGE)
        with pytest.raises(ValueError):
            MeanFieldParams(3, 1.1, EDGE)


class TestClosedFormK3:
    def test_critical(self):
        cf = closed_form_k3(1 / 9)
        assert cf.regime is Regime.CRITICAL
        assert cf.phi_plus == pytest.approx(27 / 32, abs=1e-12)
        assert cf.phi_plus > 9 / 16

    def test_supercritical(self):
        assert closed_form_k3(0.2).regime is Regime.SUPERCRITICAL
        assert closed_form_k3(1.0).regime is Regime.SUPERCRITICAL

    def test_p_zero_roots(self):
        cf = closed_form_k3(0.0)
        assert cf.regime is Regime.SUBCRITICAL
        assert cf.phi_minus == pytest.approx(0.5, abs=1e-15)
        assert cf.phi_plus == pytest.approx(1.0, abs=1e-15)


class TestCriticalBias:
    def test_k3_is_one_ninth(self):
        assert critical_bias_k(3) == pytest.approx(1 / 9, abs=1e-9)

    def test_frozen_oracle_values(self):
        for k, want in PK_STAR_ORACLE.items():
            got = critical_bias_k(k)
            assert got == pytest.approx(want, abs=5e-8), k

    def test_monotone_increasing_below_half(self):
        values = [critical_bias_k(k) for k in (3, 5, 7, 9, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5

    def test_kq_at_q_one(self):
        assert critical_bias_kq(3, 1.0) == critical_bias_k(3)

    def test_kq_frozen_values(self):
        assert critical_bias_kq(3, 0.6) == pytest.approx(
            0.05488512857955294, abs=1e-8
        )
        assert critical_bias_kq(3, 0.51) == pytest.approx(
            0.0065351729438335093, abs=1e-8
        )

    def test_kq_monotone_in_q(self):
        vals = [critical_bias_kq(3, q) for q in (0.51, 0.6, 0.8, 1.0)]
        assert all(a < b or math.isclose(a, b, abs_tol=1e-9)
                   for a, b in zip(vals, vals[1:]))
        assert vals[0] < vals[1]

    @pytest.mark.parametrize("q", [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 1.0])
    def test_kq_node_k3_closed_form(self, q):
        assert critical_bias_kq(3, q, mode=NODE) == pytest.approx(k3_node_p_star_q(q), abs=2e-10)

    @pytest.mark.parametrize("q", [0.55, 0.6, 0.7, 0.8])
    @pytest.mark.parametrize("k", [3, 5, 9, 17, 65])
    def test_kq_solves_the_threshold_law(self, k, q):
        # At p*_{k,q} below p*_k the unstable root sits at q: node bias solves
        # (1-p) G(q) = q, where q is unstable while (1-p) G'(q) > 1, and edge
        # bias solves G((1-p) q) = q; G and G' are exact over the dyadic q.
        # At k = 3, q = 0.8 the node law gives 0.1071 < p*_3, but q is on the
        # stable branch there, so the threshold is p*_3.
        p_star, exact_q = critical_bias_k(k), Fraction(q)
        node = 1 - exact_q / majority_exact(k, exact_q)
        if (1 - node) * majority_slope_exact(k, exact_q) > 1:
            assert abs(critical_bias_kq(k, q, mode=NODE) - node) <= 1e-9
        else:
            assert critical_bias_kq(k, q, mode=NODE) == p_star
        edge = critical_bias_kq(k, q)
        if edge != p_star:
            assert abs(majority_exact(k, (1 - Fraction(edge)) * exact_q) - exact_q) <= 1e-9

    def test_rejects_mode_before_solving(self):
        for mode in ("node", None):
            with pytest.raises(ValueError, match="BiasMode"):
                critical_bias_kq(3, 0.6, mode=mode)
        assert meanfield._p_star_k.cache_info().misses == 0

    def test_kq_bounded_by_pk(self):
        # the node root (1-p) phi_minus lies below the edge root phi_minus
        for q in (0.55, 0.7, 0.9):
            edge, node = critical_bias_kq(5, q), critical_bias_kq(5, q, mode=NODE)
            assert edge <= node <= critical_bias_k(5) + 1e-12

    def test_rejects(self):
        with pytest.raises(ValueError):
            critical_bias_k(1)
        with pytest.raises(ValueError):
            critical_bias_k(4)
        with pytest.raises(ValueError):
            critical_bias_kq(3, 0.5)
        with pytest.raises(ValueError):
            critical_bias_kq(3, 1.2)

    def test_p_star_k_solved_once_for_every_q(self):
        critical_bias_kq(7, 0.6)
        critical_bias_kq(7, 0.75, mode=NODE)
        critical_bias_kq(7, 0.75)
        # p*_7 is solved by the first q entry and read by the other two
        pk, pkq = meanfield._p_star_k.cache_info(), meanfield._p_star_kq.cache_info()
        assert (pk.misses, pk.hits) == (1, 2)
        assert (pkq.misses, pkq.hits) == (3, 0)
        critical_bias_k(7)
        assert meanfield._p_star_k.cache_info().misses == 1

    def test_warm_memo_still_validates(self):
        # an untyped lru_cache finds the warm entry of k = 3 for k = 3.0
        critical_bias_k(3)
        for solve in (lambda: critical_bias_k(3.0), lambda: critical_bias_k(np.int64(3)),
                      lambda: critical_bias_kq(3.0, 0.6), lambda: critical_bias_kq(3, 0.5)):
            with pytest.raises(ValueError):
                solve()


def _exact_excess_rank(params, x):
    return meanfield._rank(eval_dF(params, x) - 1.0)


def _tangency_to_the_ulp(params):
    """The adjacent doubles lo < hi with exact F'(lo) > 1 >= F'(hi) on the
    concave side of the edge-bias map."""
    lo, hi = 0.5 / (1.0 - params.p), 1.0
    while math.nextafter(lo, 2.0) < hi:
        mid = 0.5 * (lo + hi)
        if eval_dF(params, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestCertifiedDecisions:
    """The mu bisection reads only the class of F'(x) - 1, so a class
    certified in double arithmetic must be the class of the exact value."""

    def test_rank_orders_the_classes(self):
        tol = meanfield.SOLVER_TOL
        values = [-1.0, -tol, -1e-300, 0.0, 1e-300, tol, 1.0]
        assert [meanfield._rank(g) for g in values] == [0, 1, 1, 2, 3, 3, 4]

    def test_class_matches_exact_on_a_seeded_grid(self, count_calls, monkeypatch):
        rng = random.Random(20181)
        exact = count_calls(meanfield, "eval_dF")
        cases = 0
        for k in (3, 5, 7, 9, 11, 17, 25, 33, 49, 65, 257, 1001, 2001, 9999):
            for p in [0.0, 0.1] + [rng.uniform(0.0, 0.45) for _ in range(4)]:
                params = MeanFieldParams(k, p, EDGE)
                a = 0.5 / (1.0 - p)
                xs = [a, 1.0] + [rng.uniform(a, 1.0) for _ in range(6)]
                for tol in (1e-10, 1e-3):
                    monkeypatch.setattr(meanfield, "SOLVER_TOL", tol)
                    for x in xs:
                        got = meanfield._rank(meanfield._dF_excess(params)(x))
                        assert got == _exact_excess_rank(params, x), (k, p, x, tol)
                        cases += 1
        assert cases == 14 * 6 * 2 * 8
        # both paths ran; x = 1 at p = 0 puts u at 1, which always runs the
        # exact value
        assert 0 < len(exact) < cases / 2
        assert len([1 for params, x in exact if params.p == 0.0 and x == 1.0]) == 14 * 2

    @pytest.mark.parametrize("k", [3, 9, 33, 65, 257, 1001, 2001, 9999])
    def test_class_near_tangency_falls_back_to_exact(self, count_calls, k):
        params = MeanFieldParams(k, 0.2 if k < 33 else 0.3, EDGE)
        lo, hi = _tangency_to_the_ulp(params)
        xs = [lo, hi]
        for _ in range(3):
            xs = [math.nextafter(xs[0], 0.0)] + xs + [math.nextafter(xs[-1], 2.0)]
        exact = count_calls(meanfield, "eval_dF")
        for x in xs:
            got = meanfield._rank(meanfield._dF_excess(params)(x))
            assert got == _exact_excess_rank(params, x), x
        # F'(x) - 1 changes sign between lo and hi, within the estimate's
        # error bound of 0, so both run the exact anchor
        assert {x for _, x in exact} >= {lo, hi}

    def test_certified_steps_cut_exact_anchors(self, count_calls):
        # with an exact anchor at every mu step this solve runs 3 440
        exact = count_calls(meanfield, "_pmf_exact")
        assert critical_bias_kq(65, 0.6).hex() == "0x1.1fec1a6d54906p-3"
        assert len(exact) <= 1200

    @pytest.mark.parametrize("k", [1001, 2001])
    def test_large_k_solve_runs_few_exact_derivatives(self, count_calls, k):
        # unscaled, (u(1-u))^h falls below the guard away from u = 1/2 and
        # C(k-1, h) overflows from k = 1031: 1 091 and 1 126 exact F' values
        exact = count_calls(meanfield, "eval_dF")
        critical_bias_k(k)
        assert len(exact) <= 10


def _phi_minus_grid(monkeypatch):
    """(edge params, tol) over a seeded grid of subcritical biases, with
    ``SOLVER_TOL`` set to tol while the pair is in use; the biases are drawn
    before any tolerance is set."""
    rng = random.Random(20231)
    grid = []
    for k in (3, 5, 17, 65, 257):
        p_star = critical_bias_k(k)
        grid += [(k, p) for p in [0.0] + sorted(rng.uniform(0.0, 0.98 * p_star)
                                              for _ in range(4))]
    for k, p in grid:
        for tol in (1e-10, 1e-5):
            monkeypatch.setattr(meanfield, "SOLVER_TOL", tol)
            yield MeanFieldParams(k, p, EDGE), tol


# sha256 of the float.hex of each full-precision phi_minus over _phi_minus_grid
PHI_MINUS_GRID_SHA256 = "ac0f1404608981a79f5680731f18b1e9c8d67ae537ad571e274cb156af28af05"


class TestPhiMinusQStop:
    """The q-threshold predicate reads only phi_minus <= q, so the phi_minus
    bisection given q may stop once its bracket lies on one side of q."""

    def test_side_of_q_matches_full_precision(self, monkeypatch):
        rng = random.Random(20232)
        digest = hashlib.sha256()
        cases = 0
        for edge, tol in _phi_minus_grid(monkeypatch):
            regime, mu, _, phi_minus = meanfield._phi_minus(edge)
            assert regime is not Regime.SUPERCRITICAL, edge
            assert fixed_points(edge).phi_minus == phi_minus
            digest.update(phi_minus.hex().encode())
            a = 0.5 / (1.0 - edge.p)
            first_mid = 0.5 * (a + mu)  # a bracket end lands exactly on q
            qs = [first_mid, mu, math.nextafter(mu, 2.0), 1.0, phi_minus,
                  math.nextafter(phi_minus, 0.0), math.nextafter(phi_minus, 2.0)]
            qs += [rng.uniform(0.5, 1.0) for _ in range(4)]
            for q in qs:
                got = meanfield._phi_minus(edge, q)[3]
                assert (got <= q) == (phi_minus <= q), (edge, tol, q)
                cases += 1
        assert cases == 5 * 5 * 2 * 11
        assert digest.hexdigest() == PHI_MINUS_GRID_SHA256

    def test_scaled_side_of_q_matches_full_precision(self, monkeypatch):
        # node bias reads (1-p) phi_minus <= q, and the stop tests that product
        rng = random.Random(20233)
        for edge, tol in _phi_minus_grid(monkeypatch):
            phi_minus = meanfield._phi_minus(edge)[3]
            s = 1.0 - edge.p
            node = s * phi_minus
            qs = [node, math.nextafter(node, 0.0), math.nextafter(node, 2.0)]
            qs += [rng.uniform(0.5, 1.0) for _ in range(4)]
            for q in qs:
                got = meanfield._phi_minus(edge, q, s)[3]
                assert (s * got <= q) == (node <= q), (edge, tol, q)

    def test_q_stop_cuts_map_evaluations(self, count_calls):
        critical_bias_k(65)  # p*_65 memoised: count only the q solve
        calls = count_calls(meanfield, "eval_F")
        assert critical_bias_kq(65, 0.6).hex() == "0x1.1fec1a6d54906p-3"
        # 1 110 when each phi_minus is solved to full precision
        assert len(calls) <= 700


class TestTrajectory:
    def test_one_step_value(self):
        # P(Bin(3, 0.95) >= 2) = 3 * 0.95^2 * 0.05 + 0.95^3 = 0.99275
        tr = trajectory(MeanFieldParams(3, 0.05, EDGE), 1.0, 1)
        assert tr[1] == pytest.approx(0.99275, abs=1e-12)

    def test_converges_to_phi_plus(self):
        tr = trajectory(MeanFieldParams(3, 0.05, EDGE), 1.0, 200)
        assert abs(tr[-1] - PHI_PLUS_005) < 1e-9

    def test_supercritical_decay(self):
        tr = trajectory(MeanFieldParams(3, 0.2, EDGE), 1.0, 200)
        assert tr[-1] < 1e-6

    def test_below_basin_goes_to_zero(self):
        tr = trajectory(MeanFieldParams(3, 0.05, EDGE), 0.55, 400)
        assert tr[-1] < 1e-9  # 0.55 < phi_minus ~ 0.589

    def test_node_mode_limit(self):
        tr = trajectory(MeanFieldParams(3, 0.05, NODE), 1.0, 300)
        assert tr[-1] == pytest.approx(0.95 * PHI_PLUS_005, abs=1e-9)

    def test_step_consistency_and_bounds(self):
        params = MeanFieldParams(3, 0.07, EDGE)
        tr = trajectory(params, 0.9, 25)
        assert len(tr) == 26
        for a, b in zip(tr, tr[1:]):
            assert b == eval_F(params, a)
            assert 0.0 <= b <= 1.0

    def test_even_k_dispatch(self):
        t4 = trajectory(MeanFieldParams(4, 0.08, EDGE), 0.97, 30)
        t3 = trajectory(MeanFieldParams(3, 0.08, EDGE), 0.97, 30)
        for a, b in zip(t4, t3):
            assert a == pytest.approx(b, abs=1e-11)

    def test_zero_rounds(self):
        tr = trajectory(MeanFieldParams(3, 0.1, EDGE), 0.7, 0)
        assert tr == [0.7]

    @pytest.mark.parametrize("T", [True, False])
    def test_bool_round_count_rejected(self, T):
        # True used to pass isinstance(T, int) and run one round
        with pytest.raises(ValueError, match="nonnegative integer"):
            trajectory(MeanFieldParams(3, 0.1, EDGE), 0.9, T)

    def test_rejects(self):
        with pytest.raises(ValueError):
            trajectory(MeanFieldParams(3, 0.1, EDGE), 1.5, 10)
        with pytest.raises(ValueError):
            trajectory(MeanFieldParams(3, 0.1, EDGE), 0.5, -1)


class TestMeanFieldParams:
    @pytest.mark.parametrize("k", [True, False, 3.0, np.int64(3)], ids=repr)
    def test_k_takes_only_integers(self, k):
        # k=True used to pass isinstance(k, int) and run as k=1
        with pytest.raises(ValueError, match="sample size k"):
            MeanFieldParams(k, 0.1, EDGE)

    @pytest.mark.parametrize("p", [True, False, "0.1", None, np.True_], ids=repr)
    def test_p_takes_only_real_numbers(self, p):
        # p=False ran as p = 0, and p="0.1" raised a TypeError
        with pytest.raises(ValueError, match="bias p"):
            MeanFieldParams(3, p, EDGE)

    @pytest.mark.parametrize("p", [0, 1, 0.1, np.float64(0.1), np.float32(0.1)], ids=repr)
    def test_p_takes_ints_and_floats(self, p):
        assert MeanFieldParams(3, p, EDGE).p == p
