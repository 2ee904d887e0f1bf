"""Synchronous round engine for biased majority dynamics on graphs.

Families:

* k-majority — each node samples ``k`` neighbors uniformly with replacement
  and adopts the majority of what it perceives, ties broken by a fair coin.
* voter — the k = 1 special case (a single sampled neighbor); both bias
  modes coincide in law.
* deterministic majority — each node reads its entire neighborhood.

Bias modes (strength ``p``):

* edge — every transmitted R state is independently perceived as B with
  probability p (B always arrives intact); the noise draws are fresh for
  every read in every round.
* node — the updating node is corrupted outright to B with probability p;
  otherwise it applies the unbiased rule to true states.

Randomness is counter-based and splittable: replica = the 64-bit seed,
round t = ``SeedSequence(seed, spawn_key=(1, t))`` feeding a Philox
generator, node u = row u of the (n, cols) uniform block drawn from that
generator.  A configuration is its bool state vector (True = R): ``step``
maps the states of round t, with t passed beside them, to those of round
t + 1, and ``run`` reads the R volume ``degrees @ states`` off each round.
A node's update is therefore a pure function of (states at round t, seed,
t, u), independent of the order nodes are processed in.
The deterministic-majority edge-bias read count is Bin(#R-neighbors, 1-p)
sampled by inverse CDF from the node's single uniform, keeping the same
per-node substream contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from kmajority.graph import Graph
from kmajority.meanfield import MAX_K, BiasMode, binom_pmf

__all__ = [
    "Family",
    "DynamicsParams",
    "RunRecord",
    "check",
    "default_max_rounds",
    "init_random",
    "phi_stats",
    "r_neighbor_counts",
    "run",
    "step",
]

_INIT_STREAM = 0
_ROUND_STREAM = 1


class Family(Enum):
    KMAJORITY = "kmaj"
    VOTER = "voter"
    DETERMINISTIC_MAJORITY = "det"


def default_max_rounds(n: int) -> int:
    """Round cap used when none is given: 10 ln(n) + 200."""
    return int(10.0 * math.log(n)) + 200


@dataclass(frozen=True)
class DynamicsParams:
    """Update family, bias, and reproducibility seed for one run."""

    family: Family
    p: float
    mode: BiasMode = BiasMode.EDGE
    seed: int = 0
    k: int | None = None
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"family must be a Family, got {self.family!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bias p must lie in [0, 1], got {self.p!r}")
        if not isinstance(self.mode, BiasMode):
            raise ValueError(f"mode must be a BiasMode, got {self.mode!r}")
        # type(...) is int: bool and 2.0 are not integers
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.k is not None and type(self.k) is not int:
            raise ValueError(f"sample size k must be an integer, got {self.k!r}")
        if self.family is Family.KMAJORITY:
            if self.k is None or not 1 <= self.k <= MAX_K:
                raise ValueError(f"k-majority requires 1 <= k <= {MAX_K}, got k={self.k!r}")
        elif self.family is Family.VOTER:
            if self.k not in (None, 1):
                raise ValueError(f"voter is the k=1 dynamics; got k={self.k!r}")
        else:
            if self.k is not None:
                raise ValueError(
                    "deterministic majority reads the whole neighborhood and takes no k"
                )
        if not (self.max_rounds is None or (type(self.max_rounds) is int and self.max_rounds >= 0)):
            raise ValueError(f"max_rounds must be a nonnegative integer, got {self.max_rounds!r}")

    @property
    def sample_size(self) -> int | None:
        """Effective k: voter is k = 1, deterministic majority has none."""
        if self.family is Family.DETERMINISTIC_MAJORITY:
            return None
        return 1 if self.family is Family.VOTER else self.k


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one replica.

    ``tau`` is the first round whose B volume fraction strictly exceeds 1/2;
    when the round cap ``max_rounds`` was reached with the R majority
    intact, ``tau`` is None and the run is ``censored`` (the cap is then a
    lower bound on the true disruption time).  ``trajectory`` holds the R
    volume fraction for every simulated round, index 0 included.
    """

    tau: int | None
    trajectory: list[float]
    max_rounds: int
    phi_min: list[float] | None = None
    phi_max: list[float] | None = None

    @property
    def censored(self) -> bool:
        return self.tau is None

    @property
    def final_r_fraction(self) -> float:
        return self.trajectory[-1]


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def _generator(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _round_block(n: int, cols: int, seed: int, round_index: int) -> np.ndarray:
    """The (n, cols) uniform block for one round; row u is node u's substream."""
    return _generator(seed, (_ROUND_STREAM, round_index)).random((n, cols))


@lru_cache(maxsize=4096)
def _binom_cdf_table(n: int, prob: float) -> np.ndarray:
    """CDF of Bin(n, prob) over {0..n}, anchored at the exact mode pmf."""
    mode = min(n, int((n + 1) * prob))
    pmf = np.empty(n + 1)
    pmf[mode] = binom_pmf(n, mode, prob)
    if mode < n:
        i = np.arange(mode, n, dtype=np.float64)
        pmf[mode + 1 :] = pmf[mode] * np.cumprod(prob / (1.0 - prob) * (n - i) / (i + 1.0))
    if mode > 0:
        i = np.arange(mode, 0, -1, dtype=np.float64)
        pmf[mode - 1 :: -1] = pmf[mode] * np.cumprod((1.0 - prob) / prob * i / (n - i + 1.0))
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return cdf


def _binomial_icdf(counts: np.ndarray, prob: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF binomial draws, one uniform per entry, vectorized by
    grouping equal trial counts.  One stable sort of the counts lays each
    group (one per distinct R-neighbor count) out as a contiguous slice,
    each slice is looked up in its count's table with one ``searchsorted``,
    and one scatter puts the draws back in node order."""
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    values, starts = np.unique(ordered, return_index=True)
    stops = [*starts[1:].tolist(), len(ordered)]
    ordered_u = u[order]
    drawn = np.empty(counts.shape, dtype=np.int64)
    for c, lo, hi in zip(values.tolist(), starts.tolist(), stops):
        drawn[lo:hi] = np.searchsorted(_binom_cdf_table(c, prob), ordered_u[lo:hi], side="right")
    out = np.empty_like(drawn)
    out[order] = drawn
    return out


# ---------------------------------------------------------------------------
# Neighborhood bookkeeping
# ---------------------------------------------------------------------------


def r_neighbor_counts(graph: Graph, states: np.ndarray) -> np.ndarray:
    """Number of R neighbors of every node."""
    return graph.r_neighbor_counts(_checked(graph, states))


def _checked(graph: Graph, states: np.ndarray) -> np.ndarray:
    """The states as a bool vector, one entry per node."""
    states = np.asarray(states, dtype=bool)
    if states.shape != (graph.n,):
        raise ValueError(f"states must have shape ({graph.n},), got {states.shape}")
    return states


def phi_stats(graph: Graph, states: np.ndarray) -> tuple[float, float]:
    """(min, max) over nodes of the R-neighbor fraction."""
    phi = r_neighbor_counts(graph, states) / graph.degrees
    return float(phi.min()), float(phi.max())


# ---------------------------------------------------------------------------
# One synchronous round
# ---------------------------------------------------------------------------


def _has_tie_coin(k: int | None) -> bool:
    # deterministic majority ties at any even degree, k-majority at even k
    return k is None or k % 2 == 0


def _block_cols(params: DynamicsParams) -> int:
    """Width of the round block.

    Row u of the block is node u's substream, laid out as: its sampling
    draws, then the tie coin (deterministic majority and even k), then
    (node mode) the corruption draw.  The
    sampling draws of k-majority and voter are k neighbor picks followed,
    in edge mode, by k Z-channel draws; deterministic majority has one
    inverse-CDF draw of its perceived R count in edge mode and none in
    node mode.
    """
    k = params.sample_size
    node = params.mode is BiasMode.NODE
    if k is None:
        cols = 0 if node else 1
    else:
        cols = k if node else 2 * k
    if _has_tie_coin(k):
        cols += 1
    if node:
        cols += 1
    return cols


def _row_counts(seen: np.ndarray) -> np.ndarray:
    """Number of True entries in each row of a boolean (n, k) array, as int64.

    A float64 product with ones is exact: every partial sum is an integer
    below 2^53.
    """
    return (seen @ np.ones(seen.shape[1])).astype(np.int64)


def _new_states(
    graph: Graph, states: np.ndarray, params: DynamicsParams, block: np.ndarray
) -> np.ndarray:
    """New state of every node; node u reads only row u of the block."""
    k = params.sample_size
    node = params.mode is BiasMode.NODE
    if k is None:
        count = r_neighbor_counts(graph, states)
        if not node:
            count = _binomial_icdf(count, 1.0 - params.p, block[:, 0])
        size = graph.degrees
    else:
        seen = states[graph.sample_neighbors(block[:, :k])]
        if not node:
            seen &= block[:, k : 2 * k] >= params.p
        count = _row_counts(seen)
        size = k
    twice = 2 * count
    new = twice > size
    if _has_tie_coin(k):
        new |= (twice == size) & (block[:, -2 if node else -1] < 0.5)
    if node:
        new &= block[:, -1] >= params.p
    return new


def step(graph: Graph, states: np.ndarray, params: DynamicsParams, t: int) -> np.ndarray:
    """The states of round t + 1 from those of round t (double-buffered:
    every new state is a function of the round-t states only).

    All-B needs no special case: with no R to read every count is 0, which
    is neither a majority nor a tie (k >= 1 and every degree is >= 1), and
    node corruption only sets B, so all-B maps to all-B.  Drawing that
    round's block changes no later round, whose block has its own counter.
    """
    block = _round_block(graph.n, _block_cols(params), params.seed, t)
    return _new_states(graph, _checked(graph, states), params, block)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def init_random(graph: Graph, q: float, seed: int) -> np.ndarray:
    """Each node independently R with probability q; deterministic in seed."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"initial probability q must lie in [0, 1], got {q!r}")
    return _generator(seed, (_INIT_STREAM,)).random(graph.n) < q


def check(graph: Graph, params: DynamicsParams) -> None:
    """Reject, before any round, a graph the dynamics cannot run on.

    Deterministic majority with edge bias draws Bin(degree, 1-p) read counts
    from exact tables, so it takes no graph with a degree above MAX_K.
    """
    if params.family is Family.DETERMINISTIC_MAJORITY and params.mode is BiasMode.EDGE:
        u = int(np.argmax(graph.degrees))
        if graph.degrees[u] > MAX_K:
            raise ValueError(
                f"deterministic majority with edge bias supports degrees up to {MAX_K}; "
                f"node {u} has degree {graph.degrees[u]}"
            )


def run(
    graph: Graph,
    states: np.ndarray,
    params: DynamicsParams,
    record_phi: bool = False,
) -> RunRecord:
    """Iterate until the initial majority is disrupted or the round cap hits.

    ``check(graph, params)`` runs first.  The cap is ``params.max_rounds``,
    or ``default_max_rounds(graph.n)`` when that is None; the record carries
    the cap it ran under.  Every round, the initial states included, is
    recorded and checked for disruption alike (an all-B start has tau = 0
    with zero steps executed).
    """
    check(graph, params)
    max_rounds = params.max_rounds
    if max_rounds is None:
        max_rounds = default_max_rounds(graph.n)
    vol = graph.total_volume
    trajectory = []
    phi_min = [] if record_phi else None
    phi_max = [] if record_phi else None
    states = _checked(graph, states)
    t = 0
    while True:
        r_volume = int(graph.degrees @ states)
        trajectory.append(r_volume / vol)
        if record_phi:
            lo, hi = phi_stats(graph, states)
            phi_min.append(lo)
            phi_max.append(hi)
        # B volume fraction > 1/2  <=>  2 * r_volume < total volume (exact ints)
        disrupted = 2 * r_volume < vol
        if disrupted or t == max_rounds:
            break
        states = step(graph, states, params, t)
        t += 1
    return RunRecord(
        tau=t if disrupted else None,
        trajectory=trajectory,
        max_rounds=max_rounds,
        phi_min=phi_min,
        phi_max=phi_max,
    )
