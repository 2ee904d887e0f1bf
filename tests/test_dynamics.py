"""Round-engine tests: absorption, synchrony, mean-field agreement, RNG contracts."""

import math

import numpy as np
import pytest

from kmajority.dynamics import (
    DynamicsParams,
    Family,
    _binom_cdf_table,
    _binomial_icdf,
    _block_cols,
    _new_states,
    _round_block,
    default_max_rounds,
    init_random,
    make_configuration,
    phi_stats,
    r_neighbor_counts,
    run,
    step,
)
from kmajority.graph import GraphKind, GraphSpec, generate
from kmajority.meanfield import BiasMode, MeanFieldParams, binom_pmf, eval_F
from kmajority.stats import ks_two_sample, mann_whitney_u

EDGE = BiasMode.EDGE
NODE = BiasMode.NODE


def complete(n):
    return generate(GraphSpec(GraphKind.COMPLETE, n=n))


def kmaj(p, mode=EDGE, seed=0, k=3, max_rounds=None):
    return DynamicsParams(family=Family.KMAJORITY, p=p, mode=mode, seed=seed,
                          k=k, max_rounds=max_rounds)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsParams(family=Family.KMAJORITY, p=0.1, seed=0)  # missing k
        with pytest.raises(ValueError):
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.1, seed=0, k=3)
        with pytest.raises(ValueError):
            DynamicsParams(family=Family.VOTER, p=0.1, seed=0, k=3)
        with pytest.raises(ValueError):
            DynamicsParams(family=Family.VOTER, p=1.5, seed=0)
        with pytest.raises(ValueError):
            DynamicsParams(family=Family.VOTER, p=0.1, seed=-1)
        assert DynamicsParams(family=Family.VOTER, p=0.1, seed=0).sample_size == 1
        assert DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.1,
                              seed=0).sample_size is None

    def test_default_max_rounds(self):
        assert default_max_rounds(2000) == int(10 * math.log(2000)) + 200


class TestInitRandom:
    def test_extremes(self):
        g = complete(50)
        all_r = init_random(g, 1.0, 3)
        assert all_r.states.all() and all_r.r_volume == g.total_volume
        all_b = init_random(g, 0.0, 3)
        assert not all_b.states.any() and all_b.r_volume == 0

    def test_concentration(self):
        g = complete(1000)
        cfg = init_random(g, 0.75, 9)
        frac = cfg.r_volume / g.total_volume
        sigma = math.sqrt(0.75 * 0.25 / 1000)
        assert abs(frac - 0.75) < 3 * sigma

    def test_determinism(self):
        g = complete(100)
        a = init_random(g, 0.6, 5)
        b = init_random(g, 0.6, 5)
        c = init_random(g, 0.6, 6)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)


class TestStep:
    def test_all_b_absorbing_every_family(self):
        g = complete(60)
        start = make_configuration(g, np.zeros(60, dtype=bool))
        for params in [
            kmaj(0.3, EDGE, 1), kmaj(0.3, NODE, 1),
            DynamicsParams(family=Family.VOTER, p=0.3, mode=EDGE, seed=1),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3, mode=EDGE, seed=1),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3, mode=NODE, seed=1),
        ]:
            cfg = start
            for _ in range(100):
                cfg = step(g, cfg, params)
                assert cfg.r_volume == 0 and not cfg.states.any()

    def test_all_r_no_bias_is_fixed(self):
        g = complete(60)
        start = make_configuration(g, np.ones(60, dtype=bool))
        for params in [
            kmaj(0.0, EDGE, 2), kmaj(0.0, NODE, 2),
            DynamicsParams(family=Family.VOTER, p=0.0, mode=EDGE, seed=2),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.0, mode=NODE, seed=2),
        ]:
            cfg = start
            for _ in range(30):
                cfg = step(g, cfg, params)
                assert cfg.states.all()

    def test_volume_cache_consistency(self):
        g = generate(GraphSpec(GraphKind.GNP, n=300, edge_prob=0.3, seed=4))
        cfg = init_random(g, 0.9, 7)
        params = kmaj(0.1, EDGE, 7)
        for _ in range(20):
            cfg = step(g, cfg, params)
            assert cfg.r_volume == int(g.degrees @ cfg.states)

    def test_round_index_advances(self):
        g = complete(20)
        cfg = init_random(g, 0.8, 1)
        nxt = step(g, cfg, kmaj(0.1, EDGE, 1))
        assert nxt.round_index == cfg.round_index + 1

    def test_step_is_pure(self):
        g = complete(200)
        cfg = init_random(g, 0.9, 11)
        params = kmaj(0.1, EDGE, 11)
        a = step(g, cfg, params)
        b = step(g, cfg, params)
        assert np.array_equal(a.states, b.states)

    def test_det_majority_strong_bias_flips_everyone_in_one_round(self):
        g = complete(500)
        start = make_configuration(g, np.ones(500, dtype=bool))
        all_b = 0
        for seed in range(100):
            params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.6,
                                    mode=EDGE, seed=seed)
            all_b += step(g, start, params).r_volume == 0
        assert all_b >= 99

    def test_voter_equals_k1_majority(self):
        g = complete(200)
        cfg = init_random(g, 0.9, 13)
        for mode in (EDGE, NODE):
            pv = DynamicsParams(family=Family.VOTER, p=0.2, mode=mode, seed=13)
            p1 = DynamicsParams(family=Family.KMAJORITY, p=0.2, mode=mode, seed=13, k=1)
            assert np.array_equal(step(g, cfg, pv).states, step(g, cfg, p1).states)


class TestSynchronyOrderIndependence:
    """Per-node substreams: node u reads only row u of the round block, so
    redrawing every other row leaves u's new state bit-identical."""

    @staticmethod
    def check_rows_are_substreams(params):
        g = generate(GraphSpec(GraphKind.GNP, n=257, edge_prob=0.2, seed=6))
        cfg = init_random(g, 0.8, params.seed)
        block = _round_block(g.n, _block_cols(params), params.seed, cfg.round_index)
        full = _new_states(g, cfg.states, params, block)
        assert np.array_equal(step(g, cfg, params).states, full)
        rng = np.random.default_rng(99)
        for _ in range(5):
            subset = rng.random(g.n) < 0.3
            redrawn = rng.random(block.shape)
            redrawn[subset] = block[subset]
            out = _new_states(g, cfg.states, params, redrawn)
            assert np.array_equal(out[subset], full[subset])

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    @pytest.mark.parametrize("k", [3, 4])
    def test_k_majority(self, mode, k):
        self.check_rows_are_substreams(kmaj(0.15, mode, 21, k))

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_deterministic_majority(self, mode):
        self.check_rows_are_substreams(
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3, mode=mode, seed=22))


class TestBinomialSampler:
    def test_cdf_table_matches_exact_pmf(self):
        for n, prob in [(10, 0.35), (57, 0.7), (200, 0.05)]:
            table = _binom_cdf_table(n, prob)
            acc = 0.0
            for i in range(n + 1):
                acc += binom_pmf(n, i, prob)
                assert table[i] == pytest.approx(acc, abs=1e-12)
            assert table[-1] == 1.0

    def test_icdf_is_inverse_cdf(self):
        n, prob = 40, 0.43
        table = _binom_cdf_table(n, prob)
        u = np.linspace(0.0, 0.999999, 2001)
        counts = _binomial_icdf(np.full(u.shape, n, dtype=np.int64), prob, u)
        for uu, c in zip(u, counts):
            assert uu < table[c] or c == n
            if c > 0:
                assert table[c - 1] <= uu

    def test_icdf_mixed_counts(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 30, size=500)
        u = rng.random(500)
        out = _binomial_icdf(counts, 0.6, u)
        assert np.all(out >= 0) and np.all(out <= counts)


class TestRNeighborCounts:
    def test_complete_shortcut_matches_generic(self):
        n = 80
        g = complete(n)
        # same edge set via file round trip forces the generic CSR path
        rng = np.random.default_rng(3)
        states = rng.random(n) < 0.6
        fast = r_neighbor_counts(g, states)
        generic = np.add.reduceat(states[g.neighbors], g.offsets[:-1], dtype=np.int64)
        assert np.array_equal(fast, generic)

    def test_phi_stats_hand_count(self):
        g = complete(3)
        cfg = make_configuration(g, np.array([True, True, False]))
        assert phi_stats(g, cfg) == pytest.approx((0.5, 2 / 3, 1.0))
        all_r = make_configuration(g, np.ones(3, dtype=bool))
        assert phi_stats(g, all_r) == (1.0, 1.0, 1.0)
        all_b = make_configuration(g, np.zeros(3, dtype=bool))
        assert phi_stats(g, all_b) == (0.0, 0.0, 0.0)


class TestRun:
    def test_all_b_start_tau_zero(self):
        g = complete(40)
        cfg = make_configuration(g, np.zeros(40, dtype=bool))
        rec = run(g, cfg, kmaj(0.3, EDGE, 1, max_rounds=50))
        assert rec.tau == 0 and not rec.censored
        assert rec.trajectory == [0.0]

    def test_censored_run(self):
        g = complete(300)
        rec = run(g, init_random(g, 1.0, 2), kmaj(0.0, EDGE, 2, max_rounds=10))
        assert rec.censored and rec.tau is None
        assert len(rec.trajectory) == 11
        assert rec.final_r_fraction == 1.0

    def test_disruption_threshold_is_strict_half(self):
        g = complete(500)
        rec = run(g, init_random(g, 1.0, 5), kmaj(0.25, EDGE, 5, max_rounds=200))
        assert not rec.censored
        assert rec.trajectory[rec.tau] < 0.5
        for frac in rec.trajectory[: rec.tau]:
            assert frac >= 0.5

    def test_determinism(self):
        g = complete(300)
        a = run(g, init_random(g, 0.9, 8), kmaj(0.15, EDGE, 8, max_rounds=100))
        b = run(g, init_random(g, 0.9, 8), kmaj(0.15, EDGE, 8, max_rounds=100))
        assert a.trajectory == b.trajectory and a.tau == b.tau

    def test_phi_detail(self):
        g = complete(100)
        rec = run(g, init_random(g, 0.9, 3), kmaj(0.1, EDGE, 3, max_rounds=5),
                  record_phi=True)
        assert len(rec.phi_min) == len(rec.trajectory)
        assert all(lo <= hi for lo, hi in zip(rec.phi_min, rec.phi_max))


class TestMeanFieldAgreement:
    def test_one_round_mean_matches_update_map(self):
        g = complete(5000)
        for mode, p in [(EDGE, 0.1), (NODE, 0.1), (EDGE, 0.3)]:
            params = DynamicsParams(family=Family.KMAJORITY, p=p, mode=mode, seed=17, k=3)
            cfg = step(g, make_configuration(g, np.ones(5000, dtype=bool)), params)
            phi_mean = float(np.mean(r_neighbor_counts(g, cfg.states) / g.degrees))
            want = eval_F(MeanFieldParams(3, p, mode), 1.0)
            assert abs(phi_mean - want) < 0.01, (mode, p)

    def test_statistical_even_odd_equivalence(self):
        g = complete(500)
        taus = {}
        for k in (3, 4):
            samples = []
            for rep in range(100):
                params = DynamicsParams(family=Family.KMAJORITY, p=0.15, mode=EDGE,
                                        seed=10_000 * k + rep, k=k, max_rounds=300)
                rec = run(g, init_random(g, 1.0, 10_000 * k + rep), params)
                assert not rec.censored
                samples.append(rec.tau)
            taus[k] = samples
        result = ks_two_sample(taus[3], taus[4], alpha=0.01)
        assert not result.reject, result

    def test_monotone_disruption_trend_in_p(self):
        g = complete(500)
        grid = [0.05, 0.15, 0.25, 0.35, 0.45]
        samples = []
        for p in grid:
            taus = []
            for rep in range(50):
                seed = int(p * 1000) * 1000 + rep
                params = DynamicsParams(family=Family.VOTER, p=p, mode=EDGE,
                                        seed=seed, max_rounds=2000)
                rec = run(g, init_random(g, 1.0, seed), params)
                assert not rec.censored
                taus.append(rec.tau)
            samples.append(taus)
        medians = [float(np.median(s)) for s in samples]
        assert all(a >= b for a, b in zip(medians, medians[1:]))
        for lower_p, higher_p in zip(samples, samples[1:]):
            if set(lower_p) == set(higher_p) == {lower_p[0]}:
                continue  # both cells deterministic at the same tau: nothing to rank
            res = mann_whitney_u(lower_p, higher_p)
            assert res.p_value < 0.01, (res, "tau should drop as p rises")
        overall = mann_whitney_u(samples[0], samples[-1])
        assert overall.p_value < 1e-6
