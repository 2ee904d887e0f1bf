"""Acceptance suite: one test per criterion, at the stated tolerances.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (each test also prints an [acceptance] summary line, visible with
``-s`` or ``-rA``).  Monte Carlo criteria use fixed seeds, so every outcome
here is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from oracles import closed_form_k3, disruption_curve, eval_d2F, ks_two_sample

from kmajority.dynamics import (
    DynamicsParams,
    Family,
    init_random,
    run,
    step,
)
from kmajority.experiments import SweepSpec, meanfield_comparison
from kmajority.graph import GraphKind, GraphSpec, generate
from kmajority.meanfield import (
    BiasMode,
    MeanFieldParams,
    critical_bias_k,
    critical_bias_kq,
    eval_F,
    eval_dF,
    fixed_points,
)

EDGE = BiasMode.EDGE
NODE = BiasMode.NODE


@pytest.fixture(scope="module")
def k2000():
    return generate(GraphSpec(GraphKind.COMPLETE, n=2000))


@pytest.fixture(scope="module")
def k1000():
    return generate(GraphSpec(GraphKind.COMPLETE, n=1000))


def report(n, detail):
    print(f"[acceptance] criterion {n}: PASS ({detail})")


def test_criterion_01_critical_bias_and_fixed_points_k3():
    t0 = time.time()
    cv = critical_bias_k(3)
    assert abs(cv.p_star_k - 1 / 9) <= 1e-9

    fp = fixed_points(MeanFieldParams(3, 0.05, EDGE))
    cf = closed_form_k3(0.05)
    assert abs(fp.phi_minus - cf.phi_minus) <= 1e-9
    assert abs(fp.phi_plus - cf.phi_plus) <= 1e-9
    assert abs(fp.phi_minus - 0.58924054993350468) <= 1e-9
    assert abs(fp.phi_plus - 0.98970681848754790) <= 1e-9

    fp9 = fixed_points(MeanFieldParams(3, 1 / 9, EDGE))
    cf9 = closed_form_k3(1 / 9)
    for root in (fp9.phi_minus, fp9.phi_plus, cf9.phi_minus, cf9.phi_plus):
        assert abs(root - 27 / 32) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"p3*={cv.p_star_k:.12f}, phi(1/9)~27/32, {elapsed:.2f}s")


def test_criterion_02_monotone_critical_sequence():
    t0 = time.time()
    ks = (3, 5, 7, 9, 21, 51, 101)
    values = [critical_bias_k(k).p_star_k for k in ks]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.5
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, ", ".join(f"p{k}*={v:.6f}" for k, v in zip(ks, values)) + f", {elapsed:.1f}s")


def test_criterion_03_even_odd_equivalence_analytic():
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 101)
    for k in (2, 4, 6, 8):
        for p in np.arange(0.0, 0.501, 0.05):
            for mode in (EDGE, NODE):
                pe = MeanFieldParams(k, float(p), mode)
                po = MeanFieldParams(k - 1, float(p), mode)
                for x in xs:
                    worst = max(worst, abs(eval_F(pe, float(x)) - eval_F(po, float(x))))
    assert worst <= 1e-12
    report(3, f"max |F_even(k) - F(k-1)| = {worst:.2e}")


def test_criterion_04_derivative_formulas():
    h1, h2 = 1e-6, 1e-4
    worst1 = worst2 = 0.0
    xs = np.linspace(0.05, 0.95, 100)
    for k in (3, 5, 9):
        for p in (0.0, 0.1, 0.3):
            params = MeanFieldParams(k, p, EDGE)
            for x in xs:
                x = float(x)
                fd1 = (eval_F(params, x + h1) - eval_F(params, x - h1)) / (2 * h1)
                rel1 = abs(eval_dF(params, x) - fd1) / abs(fd1)
                worst1 = max(worst1, rel1)
                fd2 = (eval_F(params, x + h2) - 2 * eval_F(params, x)
                       + eval_F(params, x - h2)) / (h2 * h2)
                rel2 = abs(eval_d2F(params, x) - fd2) / abs(fd2)
                worst2 = max(worst2, rel2)
            pivot = 0.5 / (1.0 - p)
            assert eval_d2F(params, pivot - 1e-9) > 0.0
            assert eval_d2F(params, pivot + 1e-9) < 0.0
            assert abs(eval_d2F(params, pivot)) < 1e-12
    assert worst1 <= 1e-6
    assert worst2 <= 1e-4
    report(4, f"max rel err: F'={worst1:.2e}, F''={worst2:.2e}, sign flips at 1/(2(1-p))")


def test_criterion_05_scaling_identity():
    worst = 0.0
    for k in (3, 5, 7, 9):
        for p in np.arange(0.0, 0.501, 0.05):
            p = float(p)
            pn = MeanFieldParams(k, p, NODE)
            pe = MeanFieldParams(k, p, EDGE)
            for t in np.linspace(0.0, 1.0, 101):
                x = float(t) * (1.0 - p)
                y = min(1.0, x / (1.0 - p))
                worst = max(worst, abs(eval_F(pn, x) - (1.0 - p) * eval_F(pe, y)))
    assert worst <= 1e-12
    report(5, f"max |Fhat(x) - (1-p) F(x/(1-p))| = {worst:.2e}")


def test_criterion_06_slow_disruption_metastability(k2000):
    t0 = time.time()
    floor = closed_form_k3(0.05).phi_plus - 0.02
    worst = 1.0
    for rep in range(20):
        seed = 61_000 + rep
        params = DynamicsParams(family=Family.KMAJORITY, p=0.05, mode=EDGE,
                                seed=seed, k=3, max_rounds=400)
        rec = run(k2000, init_random(k2000, 1.0, seed), params)
        assert rec.censored, f"replica {rep} disrupted in the metastable regime"
        assert all(f >= floor for f in rec.trajectory[5:]), f"replica {rep} dipped"
        worst = min(worst, min(rec.trajectory[5:]))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, f"20/20 censored, min fraction {worst:.4f} >= {floor:.4f}, {elapsed:.1f}s")


def test_criterion_07_fast_disruption(k2000):
    hits = 0
    for rep in range(50):
        seed = 71_000 + rep
        params = DynamicsParams(family=Family.KMAJORITY, p=0.20, mode=EDGE,
                                seed=seed, k=3, max_rounds=400)
        rec = run(k2000, init_random(k2000, 1.0, seed), params)
        hits += rec.tau is not None and rec.tau <= 15
    assert hits >= 49
    report(7, f"{hits}/50 replicas reached tau <= 15 at p=0.20")


def test_criterion_08_meanfield_tracking():
    t0 = time.time()
    g = generate(GraphSpec(GraphKind.COMPLETE, n=5000))
    for mode in (EDGE, NODE):
        params = DynamicsParams(family=Family.KMAJORITY, p=0.05, mode=mode,
                                seed=81_000, k=3)
        rep = meanfield_comparison(g, params, 1.0, 50)
        assert max(rep.deviations) <= 0.02, f"{mode.value} deviations {max(rep.deviations)}"
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(8, f"sup-node deviation <= 0.02 for 50 rounds, both modes, {elapsed:.1f}s")


def test_criterion_09_q_dependent_threshold():
    def curve(p_values, q, base_seed):
        spec = SweepSpec(
            graph_spec=GraphSpec(GraphKind.COMPLETE, n=2000),
            family=Family.KMAJORITY, mode=EDGE, k_values=(3,),
            p_values=p_values, q_values=(q,), replicas=50,
            base_seed=base_seed, max_rounds=400,
        )
        return disruption_curve(spec)

    grid_step = 0.01
    c_full = curve(tuple(round(0.05 + grid_step * i, 2) for i in range(16)), 1.0, 91_000)
    assert c_full.knee is not None
    assert abs(c_full.knee - 0.111) <= grid_step + 1e-9

    c_low = curve(tuple(round(0.02 + grid_step * i, 2) for i in range(11)), 0.6, 92_000)
    p_star_kq = critical_bias_kq(3, 0.6).p_star_kq
    assert c_low.knee is not None
    assert c_low.knee < c_full.knee
    assert abs(c_low.knee - p_star_kq) <= grid_step + 1e-9
    report(9, f"knee(q=1)={c_full.knee}, knee(q=0.6)={c_low.knee} vs p*={p_star_kq:.4f}")


def test_criterion_10_voter_non_robustness(k2000):
    details = []
    for p in (0.05, 0.1, 0.2):
        bound = math.ceil(math.log(2) / -math.log(1 - p * p))
        taus = []
        for rep in range(50):
            seed = 101_000 + int(p * 100) * 100 + rep
            params = DynamicsParams(family=Family.VOTER, p=p, mode=EDGE, seed=seed)
            rec = run(k2000, init_random(k2000, 1.0, seed), params)
            assert not rec.censored, f"voter censored at p={p}"
            taus.append(rec.tau)
        median = float(np.median(taus))
        assert median <= 3 * bound
        details.append(f"p={p}: median {median:.0f} <= {3 * bound}")
    report(10, "; ".join(details))


def test_criterion_11_deterministic_majority_dichotomy(k2000):
    edge_fast = 0
    for rep in range(100):
        seed = 111_000 + rep
        params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.6, mode=EDGE,
                                seed=seed, max_rounds=5)
        rec = run(k2000, init_random(k2000, 1.0, seed), params)
        edge_fast += rec.tau == 1
    assert edge_fast >= 99

    node_fast = 0
    for rep in range(100):
        seed = 112_000 + rep
        params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.6, mode=NODE,
                                seed=seed, max_rounds=5)
        cfg = init_random(k2000, 1.0, seed)
        rec = run(k2000, cfg, params)
        all_b_round2 = int(k2000.degrees @ step(k2000, step(k2000, cfg, params, 0), params, 1)) == 0
        node_fast += (rec.tau is not None and rec.tau <= 1) and all_b_round2
    assert node_fast >= 99

    node_min = 1.0
    for mode, base in ((EDGE, 113_000), (NODE, 114_000)):
        for rep in range(20):
            seed = base + rep
            params = DynamicsParams(family=Family.DETERMINISTIC_MAJORITY, p=0.4,
                                    mode=mode, seed=seed, max_rounds=400)
            rec = run(k2000, init_random(k2000, 1.0, seed), params)
            assert rec.censored, f"{mode.value} p=0.4 replica {rep} disrupted"
            if mode is NODE:
                node_min = min(node_min, min(rec.trajectory))
    assert node_min >= (1 + 0.1) / 2
    report(11, f"edge {edge_fast}/100 tau=1; node {node_fast}/100 all-B by round 2; "
               f"p=0.4 all censored, node min fraction {node_min:.4f} >= 0.55")


def test_criterion_12_statistical_even_odd(k1000):
    taus = {}
    for k in (3, 4):
        samples = []
        for rep in range(200):
            seed = 120_000 + 1000 * k + rep
            params = DynamicsParams(family=Family.KMAJORITY, p=0.15, mode=EDGE,
                                    seed=seed, k=k, max_rounds=400)
            rec = run(k1000, init_random(k1000, 1.0, seed), params)
            assert not rec.censored
            samples.append(rec.tau)
        taus[k] = samples
    res = ks_two_sample(taus[3], taus[4], alpha=0.01)
    assert not res.reject, res
    report(12, f"KS D={res.statistic:.4f}, p={res.p_value:.3f} (non-reject at 0.01)")
