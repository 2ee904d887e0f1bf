"""KS and Mann-Whitney implementations against brute-force oracles."""

import itertools

import numpy as np
import pytest

from oracles import _ks_survival_equal, ks_two_sample, mann_whitney_u


def ks_survival_bruteforce(n, c):
    """P(D >= c/n) by enumerating all C(2n, n) interleavings (exact null)."""
    hits = 0
    total = 0
    for positions in itertools.combinations(range(2 * n), n):
        walk, peak = 0, 0
        pos = set(positions)
        for i in range(2 * n):
            walk += 1 if i in pos else -1
            peak = max(peak, abs(walk))
        total += 1
        if peak >= c:
            hits += 1
    return hits / total


class TestKSExactDistribution:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        for c in range(0, n + 2):
            got = _ks_survival_equal(n, c)
            want = ks_survival_bruteforce(n, c) if c <= n else 0.0
            assert got == pytest.approx(want, abs=1e-12), (n, c)

    def test_identical_samples(self):
        res = ks_two_sample([1, 2, 3, 4], [1, 2, 3, 4])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_disjoint_samples_reject(self):
        res = ks_two_sample(list(range(50)), list(range(100, 150)), alpha=0.01)
        assert res.statistic == 1.0
        assert res.p_value < 1e-9
        assert res.reject
        assert res.method == "exact-equal-n"

    def test_ties_are_handled(self):
        res = ks_two_sample([1, 1, 1, 2, 2], [1, 1, 2, 2, 2])
        assert res.statistic == pytest.approx(0.2)
        assert not res.reject

    def test_unequal_sizes_use_asymptotic(self):
        rng = np.random.default_rng(0)
        res = ks_two_sample(rng.normal(size=120), rng.normal(size=200))
        assert res.method == "asymptotic"
        assert not res.reject
        far = ks_two_sample(rng.normal(size=120), rng.normal(loc=3.0, size=200))
        assert far.reject

    def test_same_law_false_positive_rate_is_controlled(self):
        # discrete data makes the continuous-null test conservative
        rng = np.random.default_rng(7)
        rejects = 0
        for _ in range(200):
            a = rng.integers(0, 10, size=30)
            b = rng.integers(0, 10, size=30)
            rejects += ks_two_sample(a, b, alpha=0.05).reject
        assert rejects <= 0.05 * 200 + 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1])
        with pytest.raises(ValueError):
            ks_two_sample([1], [2], alpha=0.0)


class TestMannWhitney:
    def test_shifted_samples(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=1.0, size=60)
        b = rng.normal(loc=0.0, size=60)
        assert mann_whitney_u(a, b).p_value < 1e-6
        assert mann_whitney_u(b, a).p_value > 0.5

    def test_identical_point_masses(self):
        res = mann_whitney_u([2] * 10, [2] * 10)
        assert res.p_value == 0.5

    def test_u_statistic_hand_count(self):
        # a = [3, 5], b = [1, 4]: pairs greater = (3>1), (5>1), (5>4) = 3
        res = mann_whitney_u([3, 5], [1, 4])
        assert res.u_statistic == 3.0

    def test_tie_correction_runs(self):
        res = mann_whitney_u([1, 2, 2, 3], [2, 2, 3, 3])
        assert 0.0 <= res.p_value <= 1.0
