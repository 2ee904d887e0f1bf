"""Round-engine tests: absorption, synchrony, mean-field agreement, RNG contracts."""

import functools
import math

import mpmath
import numpy as np
import pytest

from oracles import ks_two_sample, mann_whitney_u, one_round_r_probability

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
    phi_stats,
    r_neighbor_counts,
    run,
    step,
)
from kmajority.graph import (Graph, GraphKind, GraphSpec, generate, load_edge_list,
                             parse_graph_spec, save_edge_list)
from kmajority.meanfield import MAX_K, BiasMode, MeanFieldParams, binom_pmf, eval_F

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

    @pytest.mark.parametrize("field", [
        {"k": 3.0}, {"k": True}, {"max_rounds": 4.0}, {"max_rounds": True},
        {"seed": 1.0}, {"seed": True},
    ], ids=repr)
    def test_integer_fields_reject_floats_and_bools(self, field):
        with pytest.raises(ValueError, match="integer"):
            DynamicsParams(**{"family": Family.KMAJORITY, "p": 0.1, "k": 3, **field})

    @pytest.mark.parametrize("p", [True, False, "0.1", None, np.True_], ids=repr)
    def test_p_takes_only_real_numbers(self, p):
        with pytest.raises(ValueError, match="bias p"):
            DynamicsParams(family=Family.KMAJORITY, p=p, k=3)

    @pytest.mark.parametrize("p", [0, 1, 0.1, np.float64(0.1), np.float32(0.1)], ids=repr)
    def test_p_takes_ints_and_floats(self, p):
        assert DynamicsParams(family=Family.KMAJORITY, p=p, k=3).p == p

    def test_default_max_rounds(self):
        assert default_max_rounds(2000) == int(10 * math.log(2000)) + 200


class TestInitRandom:
    def test_extremes(self):
        g = complete(50)
        all_r = init_random(g, 1.0, 3)
        assert all_r.all() and int(g.degrees @ all_r) == g.total_volume
        all_b = init_random(g, 0.0, 3)
        assert not all_b.any() and int(g.degrees @ all_b) == 0

    def test_concentration(self):
        g = complete(1000)
        s = init_random(g, 0.75, 9)
        frac = int(g.degrees @ s) / g.total_volume
        sigma = math.sqrt(0.75 * 0.25 / 1000)
        assert abs(frac - 0.75) < 3 * sigma

    def test_determinism(self):
        g = complete(100)
        a = init_random(g, 0.6, 5)
        b = init_random(g, 0.6, 5)
        c = init_random(g, 0.6, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda g: init_random(g, 1.5, 0), "initial probability q must lie in [0, 1], got 1.5"),
        (lambda g: run(g, np.ones(4, dtype=bool), kmaj(0.1)),
         "states must have shape (5,), got (4,)"),
        (lambda g: step(g, np.ones((5, 1), dtype=bool), kmaj(0.1), 0),
         "states must have shape (5,), got (5, 1)"),
        (lambda g: phi_stats(g, [True] * 6), "states must have shape (5,), got (6,)"),
        (lambda g: r_neighbor_counts(g, [True] * 6), "states must have shape (5,), got (6,)"),
        (lambda g: DynamicsParams(family="kmaj", p=0.1, k=3),
         "family must be a Family, got 'kmaj'"),
        (lambda g: DynamicsParams(family=Family.VOTER, p=0.1, mode="edge"),
         "mode must be a BiasMode, got 'edge'"),
        (lambda g: MeanFieldParams(3, 0.1, "node"), "mode must be a BiasMode, got 'node'"),
    ], ids=["init_random q", "run states", "step states", "phi_stats states",
            "r_neighbor_counts states", "DynamicsParams family", "DynamicsParams mode",
            "MeanFieldParams mode"])
    def test_rejects(self, call, message):
        with pytest.raises(ValueError) as err:
            call(complete(5))
        assert str(err.value) == message


class TestStep:
    def test_all_b_absorbing_every_family(self):
        g = complete(60)
        start = np.zeros(60, dtype=bool)
        for params in [
            kmaj(0.3, EDGE, 1), kmaj(0.3, NODE, 1),
            DynamicsParams(family=Family.VOTER, p=0.3, mode=EDGE, seed=1),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3, mode=EDGE, seed=1),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.3, mode=NODE, seed=1),
        ]:
            s = start
            for t in range(100):
                s = step(g, s, params, t)
                assert int(g.degrees @ s) == 0 and not s.any()

    @pytest.mark.parametrize("mode", [EDGE, NODE])
    def test_all_b_absorbing_on_csr_graph(self, mode):
        g = generate(GraphSpec(GraphKind.GNP, n=300, edge_prob=0.3, seed=4))
        for p in (0.0, 0.3, 1.0):
            for params in [
                kmaj(p, mode, 1, k=3), kmaj(p, mode, 1, k=4),
                DynamicsParams(family=Family.VOTER, p=p, mode=mode, seed=1),
                DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=p, mode=mode, seed=1),
            ]:
                for t in (0, 1, 9):
                    s = step(g, np.zeros(300, dtype=bool), params, t)
                    assert not s.any() and int(g.degrees @ s) == 0, (params, t)

    def test_all_r_no_bias_is_fixed(self):
        g = complete(60)
        start = np.ones(60, dtype=bool)
        for params in [
            kmaj(0.0, EDGE, 2), kmaj(0.0, NODE, 2),
            DynamicsParams(family=Family.VOTER, p=0.0, mode=EDGE, seed=2),
            DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.0, mode=NODE, seed=2),
        ]:
            s = start
            for t in range(30):
                s = step(g, s, params, t)
                assert s.all()

    def test_step_is_pure(self):
        g = complete(200)
        s = init_random(g, 0.9, 11)
        params = kmaj(0.1, EDGE, 11)
        a = step(g, s, params, 0)
        b = step(g, s, params, 0)
        assert np.array_equal(a, b)

    def test_det_majority_strong_bias_flips_everyone_in_one_round(self):
        g = complete(500)
        start = np.ones(500, dtype=bool)
        all_b = 0
        for seed in range(100):
            params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.6,
                                    mode=EDGE, seed=seed)
            all_b += int(g.degrees @ step(g, start, params, 0)) == 0
        assert all_b >= 99

    def test_voter_equals_k1_majority(self):
        g = complete(200)
        s = init_random(g, 0.9, 13)
        for mode in (EDGE, NODE):
            pv = DynamicsParams(family=Family.VOTER, p=0.2, mode=mode, seed=13)
            p1 = DynamicsParams(family=Family.KMAJORITY, p=0.2, mode=mode, seed=13, k=1)
            assert np.array_equal(step(g, s, pv, 0), step(g, s, p1, 0))


class TestSynchronyOrderIndependence:
    """Per-node substreams: node u reads only row u of the round block, so
    redrawing every other row leaves u's new state bit-identical."""

    @staticmethod
    def check_rows_are_substreams(params):
        g = generate(GraphSpec(GraphKind.GNP, n=257, edge_prob=0.2, seed=6))
        s = init_random(g, 0.8, params.seed)
        block = _round_block(g.n, _block_cols(params), params.seed, 0)
        full = _new_states(g, s, params, block)
        assert np.array_equal(step(g, s, params, 0), full)
        rng = np.random.default_rng(99)
        for _ in range(5):
            subset = rng.random(g.n) < 0.3
            redrawn = rng.random(block.shape)
            redrawn[subset] = block[subset]
            out = _new_states(g, s, params, redrawn)
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

    def test_cdf_table_boundaries_by_bytes(self):
        # Bin(n, 0) puts all mass on 0, Bin(n, 1) on n, Bin(0, prob) on 0
        for n in (1, 2, 7, 100, MAX_K):
            assert _binom_cdf_table(n, 0.0).tobytes() == np.ones(n + 1).tobytes()
            at_n = np.zeros(n + 1)
            at_n[-1] = 1.0
            assert _binom_cdf_table(n, 1.0).tobytes() == at_n.tobytes()
        for prob in (0.0, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 1.0):
            assert _binom_cdf_table(0, prob).tobytes() == np.ones(1).tobytes()

    def test_icdf_top_uniform_stays_within_count(self):
        # the largest uniform below 1 still lands inside the table
        counts = np.array([0, 1, 2, 5, 40, 199, 1000], dtype=np.int64)
        u = np.full(counts.shape, 1.0 - 2.0**-53)
        for prob in (0.0, 2.0**-53, 0.43, 0.5, 0.9, 1.0 - 2.0**-53, 1.0):
            out = _binomial_icdf(counts, prob, u)
            assert np.all(out <= counts), prob
        assert np.array_equal(_binomial_icdf(counts, 1.0, u), counts)

    def test_icdf_mixed_counts(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 30, size=500)
        u = rng.random(500)
        out = _binomial_icdf(counts, 0.6, u)
        assert np.all(out >= 0) and np.all(out <= counts)

    @pytest.mark.parametrize("prob", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_icdf_equals_per_entry_lookup(self, prob, seed):
        # unsorted counts: one large group, zeros, singletons and small groups
        rng = np.random.default_rng(seed)
        counts = np.concatenate([np.full(400, 57), np.zeros(30, dtype=np.int64),
                                 rng.choice(np.arange(100, 1000), 25, replace=False),
                                 rng.integers(1, 40, size=200)])
        rng.shuffle(counts)
        u = rng.random(counts.size)
        expected = [np.searchsorted(_binom_cdf_table(int(c), prob), x, side="right")
                    for c, x in zip(counts, u)]
        out = _binomial_icdf(counts, prob, u)
        assert out.dtype == np.int64 and out.tolist() == expected


class TestRNeighborCounts:
    def test_complete_shortcut_matches_generic(self, tmp_path):
        n = 80
        g = complete(n)
        # same edge set via file round trip forces the generic CSR path
        save_edge_list(g, tmp_path / "k80.edges")
        loaded = load_edge_list(tmp_path / "k80.edges")
        assert type(loaded) is Graph
        rng = np.random.default_rng(3)
        states = rng.random(n) < 0.6
        fast = r_neighbor_counts(g, states)
        assert np.array_equal(fast, r_neighbor_counts(loaded, states))
        generic = np.add.reduceat(states[loaded.neighbors], loaded.offsets[:-1], dtype=np.int64)
        assert np.array_equal(fast, generic)

    # dense graphs that pack on first count: a dense G(n, p) is generated
    # with its bits, but one read back from a file is built from edge keys
    @pytest.mark.parametrize("spec", ["regular:n=300,d=40", "file:gnp:n=300,p=0.3"])
    def test_sampling_run_never_packs_the_adjacency(self, tmp_path, spec):
        if spec.startswith("file:"):
            save_edge_list(generate(parse_graph_spec(spec[5:], seed=0)), tmp_path / "g.edges")
            g = load_edge_list(tmp_path / "g.edges")
        else:
            g = generate(parse_graph_spec(spec, seed=0))
        s = init_random(g, 0.8, 1)
        run(g, s, kmaj(0.1, EDGE, 1, max_rounds=5))
        assert "_bits" not in g.__dict__
        step(g, s, DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.1, seed=1), 0)
        assert "_bits" in g.__dict__

    def test_int_states_count_as_bool(self):
        # a sparse graph counts by scatter, whose ~ takes 0/1 ints to -1/-2:
        # unchecked, every count of the int states read 10 here
        g = generate(parse_graph_spec("regular:n=2000,d=10", seed=1))
        s = np.random.default_rng(0).random(g.n) < 0.7
        counts = r_neighbor_counts(g, s)
        assert counts[:8].tolist() == [5, 7, 5, 8, 8, 10, 7, 8]
        assert np.array_equal(r_neighbor_counts(g, s.astype(np.int64)), counts)

    def test_phi_stats_hand_count(self):
        g = complete(3)
        assert phi_stats(g, np.array([True, True, False])) == (0.5, 1.0)
        assert phi_stats(g, np.ones(3, dtype=bool)) == (1.0, 1.0)
        assert phi_stats(g, np.zeros(3, dtype=bool)) == (0.0, 0.0)


class TestRun:
    def test_all_b_start_tau_zero(self):
        g = complete(40)
        rec = run(g, np.zeros(40, dtype=bool), kmaj(0.3, EDGE, 1, max_rounds=50))
        assert rec.tau == 0 and not rec.censored
        assert rec.trajectory == [0.0]

    def test_round_zero_recorded_like_later_rounds(self):
        g = complete(40)
        all_b = np.zeros(40, dtype=bool)
        rec = run(g, all_b, kmaj(0.3, EDGE, 1, max_rounds=50), record_phi=True)
        assert (rec.tau, rec.trajectory, rec.phi_min, rec.phi_max) == (0, [0.0], [0.0], [0.0])
        all_r = np.ones(40, dtype=bool)
        rec = run(g, all_r, kmaj(0.3, EDGE, 1, max_rounds=0), record_phi=True)
        assert rec.censored and rec.tau is None
        assert (rec.trajectory, rec.phi_min, rec.phi_max) == ([1.0], [1.0], [1.0])

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

    def test_det_edge_rejects_degree_above_cap(self, tmp_path):
        # a star whose centre has degree MAX_K + 1; its exact Bin(degree, 1-p)
        # table used to fail inside round 1 with a message about a sample size
        path = tmp_path / "star.edges"
        path.write_text("".join(f"0 {v}\n" for v in range(1, MAX_K + 2)))
        g = generate(GraphSpec(GraphKind.FILE, path=str(path)))
        config0 = init_random(g, 1.0, 0)
        det = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.1, max_rounds=1)
        with pytest.raises(ValueError, match=f"node 0 has degree {MAX_K + 1}"):
            run(g, config0, det)
        rec = run(g, config0, DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.1,
                                             mode=NODE, max_rounds=1))
        assert len(rec.trajectory) == 2

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
            s = step(g, np.ones(5000, dtype=bool), params, 0)
            phi_mean = float(np.mean(r_neighbor_counts(g, s) / g.degrees))
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


LAW_ROUNDS = 2000  # enough for an off-by-one neighbour pick to fail on gnp and regular
LAW_ALPHA = 1e-6
LAW_RULES = {"k3": (Family.KMAJORITY, 3), "k4": (Family.KMAJORITY, 4),
             "voter": (Family.VOTER, None), "det": (Family.DETERMINISTIC_MAJORITY, None)}
LAW_STATES = [("gnp:n=300,p=0.3", "random"),
              # sorted rows list a node's R neighbours first
              ("gnp:n=300,p=0.3", "lowest-180"),
              ("regular:n=300,d=12", "random"),
              ("complete:n=300", "random")]


@functools.lru_cache(maxsize=None)
def _law_graph(spec):
    return generate(parse_graph_spec(spec))


class TestOneRoundLaw:
    """Given the round-t states, node u is R at t + 1 with probability P_u
    (``oracles.one_round_r_probability``), independently of every other
    node.  The rounds t = 0..LAW_ROUNDS-1 of ``step`` from one state are
    independent draws of that law: a node with P_u in {0, 1} must match in
    every round, and the R counts of the others pass a chi-square test."""

    @pytest.mark.parametrize("spec, initial, rule", [
        (spec, initial, rule) for spec, initial in LAW_STATES for rule in LAW_RULES
        # the structured state aims at the neighbour picks, which det does not draw
        if initial == "random" or rule != "det"
    ])
    @pytest.mark.parametrize("mode", [EDGE, NODE], ids=["edge", "node"])
    def test_rounds_follow_the_law(self, spec, initial, rule, mode):
        g = _law_graph(spec)
        states = init_random(g, 0.6, 5) if initial == "random" else np.arange(g.n) < 180
        family, k = LAW_RULES[rule]
        params = DynamicsParams(family=family, p=0.2, mode=mode, seed=11, k=k)
        counts = [int(states[g.neighbors_of(u)].sum()) for u in range(g.n)]
        law = one_round_r_probability(counts, g.degrees, params.sample_size, mode, params.p)
        hits = np.zeros(g.n, dtype=np.int64)
        for t in range(LAW_ROUNDS):
            hits += step(g, states, params, t)
        fixed = (law == 0.0) | (law == 1.0)
        assert np.array_equal(hits[fixed], LAW_ROUNDS * law[fixed])
        free = ~fixed
        df = int(free.sum())
        assert df > 200
        expected = LAW_ROUNDS * law[free]
        chi2 = float(np.sum((hits[free] - expected) ** 2 / (expected * (1.0 - law[free]))))
        p_value = float(mpmath.gammainc(df / 2, chi2 / 2, mpmath.inf, regularized=True))
        assert p_value > LAW_ALPHA, (chi2, df, p_value)
