"""Reference implementations the tests check the package against; no
command, round engine path or benchmark runs them.

Two-sample Kolmogorov-Smirnov with the exact equal-sample-size null
distribution (reflection/ballot formula on lattice paths), falling back to
the asymptotic Smirnov approximation for unequal sizes.  Disruption times
are integers, so ties are common; the continuous-null critical values are
then conservative, which is the safe direction for the non-rejection checks
these tests back.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from kmajority.experiments import CellSummary, SweepSpec, run_sweep
from kmajority.meanfield import (BiasMode, FixedPointSet, MeanFieldParams, Regime, _check_x,
                                 _contraction, binom_pmf)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int
    m: int
    p_value: float
    alpha: float
    reject: bool
    method: str


@dataclass(frozen=True)
class MannWhitneyResult:
    u_statistic: float
    z_score: float
    p_value: float  # one-sided, H1: first sample stochastically larger


def _ks_statistic_scaled(x: np.ndarray, y: np.ndarray) -> int:
    """max over the pooled grid of |m*F_x - n*F_y| scaled by n*m (exact int)."""
    n, m = len(x), len(y)
    grid = np.unique(np.concatenate([x, y]))
    cx = np.searchsorted(np.sort(x), grid, side="right").astype(object)
    cy = np.searchsorted(np.sort(y), grid, side="right").astype(object)
    return int(np.max(np.abs(cx * m - cy * n)))


def _ks_survival_equal(n: int, c: int) -> float:
    """P(D >= c/n) for two samples of size n under the continuous null.

    Lattice-path reflection: among the C(2n, n) equally likely interleavings,
    those whose walk reaches height +-c are counted by the alternating sum
    2 * sum_j (-1)^(j-1) C(2n, n - j*c).
    """
    if c <= 0:
        return 1.0
    if c > n:
        return 0.0
    total = math.comb(2 * n, n)
    acc = 0
    j = 1
    while j * c <= n:
        term = math.comb(2 * n, n - j * c)
        acc += term if j % 2 == 1 else -term
        j += 1
    p = Fraction(2 * acc, total)
    return float(min(Fraction(1), max(Fraction(0), p)))


def _ks_survival_asymptotic(lam: float) -> float:
    """Smirnov limit law P(sup |B| > lam) = 2 sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if term < 1e-16:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b, alpha: float = 0.01) -> KSResult:
    """Two-sided two-sample KS test; exact p-value when the samples have
    equal size, asymptotic otherwise."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("KS test requires non-empty samples")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    n, m = len(x), len(y)
    scaled = _ks_statistic_scaled(x, y)
    d = scaled / (n * m)
    if n == m:
        p = _ks_survival_equal(n, scaled // n)
        method = "exact-equal-n"
    else:
        lam = d * math.sqrt(n * m / (n + m))
        p = _ks_survival_asymptotic(lam)
        method = "asymptotic"
    return KSResult(statistic=d, n=n, m=m, p_value=p, alpha=alpha,
                    reject=p <= alpha, method=method)


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """One-sided Mann-Whitney U with tie-corrected normal approximation.

    Tests H1: sample ``a`` is stochastically larger than sample ``b``.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("Mann-Whitney requires non-empty samples")
    n, m = len(x), len(y)
    gt = np.sum(x[:, None] > y[None, :])
    eq = np.sum(x[:, None] == y[None, :])
    u = float(gt) + 0.5 * float(eq)
    mean = n * m / 2.0
    pooled = np.concatenate([x, y])
    _, counts = np.unique(pooled, return_counts=True)
    big_n = n + m
    tie_term = float(np.sum(counts.astype(np.int64) ** 3 - counts)) / (big_n * (big_n - 1))
    var = n * m / 12.0 * ((big_n + 1) - tie_term)
    if var <= 0.0:
        # all observations identical: no evidence either way
        return MannWhitneyResult(u_statistic=u, z_score=0.0, p_value=0.5)
    z = (u - mean) / math.sqrt(var)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(u_statistic=u, z_score=z, p_value=p)


def closed_form_k3(p: float) -> FixedPointSet:
    """Exact k = 3 edge-bias fixed points via the quadratic formula.

    F(x) = 3(1-p)^2 x^2 - 2(1-p)^3 x^3, so the nontrivial roots solve
    2(1-p)^3 x^2 - 3(1-p)^2 x + 1 = 0 with discriminant (1-p)^3 (1-9p).
    Serves as the independent oracle for the numeric solver.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bias p must lie in [0, 1], got {p!r}")
    t = 1.0 - 9.0 * p
    if t < 0.0:
        return FixedPointSet(Regime.SUPERCRITICAL, None, None, None)
    c = 1.0 - p
    root_disc = math.sqrt(c**3 * t)
    den = 4.0 * c**3
    phi_minus = (3.0 * c * c - root_disc) / den
    phi_plus = (3.0 * c * c + root_disc) / den
    if root_disc == 0.0:
        return FixedPointSet(Regime.CRITICAL, phi_minus, phi_minus, mu=phi_minus)
    return FixedPointSet(Regime.SUBCRITICAL, phi_minus, phi_plus, mu=None)


def k3_node_p_star_q(q: float) -> float:
    """p*_{3,q} of node bias in closed form.  The node map's unstable root y
    solves (1-p) (3y - 2y^2) = 1, and y(3 - 2y) increases up to y = 3/4,
    where p = 1/9 = p*_3.  So for q <= 3/4 the threshold is the p at which
    y = q, 1 - p = 8 / (9 - (3 - 4q)^2), and above 3/4 it is 1/9."""
    if not 0.5 < q <= 1.0:
        raise ValueError(f"initial majority level q must lie in (1/2, 1], got {q!r}")
    if q >= 0.75:
        return 1.0 / 9.0
    return 1.0 - 8.0 / (9.0 - (3.0 - 4.0 * q) ** 2)


def eval_d2F(params: MeanFieldParams, x: float) -> float:
    """Second derivative of the update map (odd k).

    k (k-1) inner^2 outer C(k-2, (k-1)/2) (u - u^2)^((k-3)/2) (1 - 2u) with
    u = inner x; for edge bias positive exactly on u < 1/2, i.e.
    x < 1/(2(1-p)).  For k = 1 the map is linear and the second derivative
    is identically 0.
    """
    _check_x(x)
    k = params.k
    if k % 2 == 0:
        raise ValueError(f"eval_d2F requires odd k, got k={k}")
    if k == 1:
        return 0.0
    inner, outer = _contraction(params)
    u = inner * x
    # inner ** 2 keeps edge bias's (1-p)^2 rounded once
    scale = k * (k - 1) * inner**2 * outer
    if k == 3:
        return scale * (1.0 - 2.0 * u)
    if u <= 0.0 or u >= 1.0:
        return 0.0
    # C(k-2, h) (u - u^2)^((k-3)/2) == P(Bin(k-2, u) = h) / u with h = (k-1)/2
    return scale * binom_pmf(k - 2, (k - 1) // 2, u) * (1.0 - 2.0 * u) / u


@dataclass(frozen=True)
class DisruptionCurve:
    """p -> (median tau, censored fraction) table for one (k, q)."""

    rows: list[tuple[float, float, float]]
    knee: float | None
    p_star_kq: float | None
    cells: list[CellSummary]


def disruption_curve(spec: SweepSpec) -> DisruptionCurve:
    """Sweep a single (k, q) over the p grid and locate the empirical knee:
    the first p whose censored fraction drops below 1/2.

    Each cell's taus are reduced here, not by the package's summary writer:
    the median counts a censored run at the round cap, and the censored
    fraction is the share of None."""
    if len(spec.k_values) != 1 or len(spec.q_values) != 1:
        raise ValueError("disruption_curve wants a spec restricted to one k and one q")
    cells = run_sweep(spec)
    cells_sorted = sorted(cells, key=lambda c: c.p)
    rows = []
    for c in cells_sorted:
        bounded = [c.max_rounds if t is None else t for t in c.taus]
        rows.append((c.p, float(statistics.median(bounded)),
                     sum(t is None for t in c.taus) / len(c.taus)))
    knee = next((p for p, _, frac in rows if frac < 0.5), None)
    p_star_kq = cells_sorted[0].meanfield.get("p_star_kq")
    return DisruptionCurve(rows=rows, knee=knee, p_star_kq=p_star_kq, cells=cells)


def _majority(trials: int, prob: float, size: int) -> float:
    """P(2X > size) + P(2X = size) / 2 for X ~ Bin(trials, prob): a majority
    of ``size`` reads, a tie counted at 1/2."""
    pmf = np.array([binom_pmf(trials, i, prob) for i in range(trials + 1)])
    twice = 2 * np.arange(trials + 1)
    return float(pmf[twice > size].sum() + 0.5 * pmf[twice == size].sum())


def one_round_r_probability(counts, degrees, k: int | None, mode: BiasMode,
                            p: float) -> np.ndarray:
    """P_u, the probability that node u is R after one round, from its R
    neighbour count c_u and degree d_u; given the round's states, nodes
    update independently.

    k-majority (voter is k = 1) is a Bin(k, theta) majority: in edge mode
    theta = (c_u/d_u)(1-p), in node mode theta = c_u/d_u and the whole is
    times (1-p).  Deterministic majority (k None) in edge mode perceives
    Bin(c_u, 1-p) of its d_u neighbours as R; in node mode it is
    (1-p)([2c_u > d_u] + [2c_u = d_u]/2).
    """
    counts = np.asarray(counts, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    edge = mode is BiasMode.EDGE
    out = np.empty(counts.shape)
    for c, d in set(zip(counts.tolist(), degrees.tolist())):
        if k is None and edge:
            prob = _majority(c, 1.0 - p, d)
        elif k is None:
            prob = (1.0 - p) * ((2 * c > d) + 0.5 * (2 * c == d))
        elif edge:
            prob = _majority(k, c / d * (1.0 - p), k)
        else:
            prob = (1.0 - p) * _majority(k, c / d, k)
        out[(counts == c) & (degrees == d)] = prob
    return out
