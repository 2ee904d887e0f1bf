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
generator.  A node's update is therefore a pure function of (states at
round t, seed, t, u), independent of the order nodes are processed in.
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
from kmajority.meanfield import BiasMode, binom_pmf

__all__ = [
    "Family",
    "DynamicsParams",
    "Configuration",
    "RunRecord",
    "default_max_rounds",
    "init_random",
    "make_configuration",
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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.family is Family.KMAJORITY:
            if self.k is None or self.k < 1:
                raise ValueError(f"k-majority requires sample size k >= 1, got {self.k!r}")
        elif self.family is Family.VOTER:
            if self.k not in (None, 1):
                raise ValueError(f"voter is the k=1 dynamics; got k={self.k!r}")
        else:
            if self.k is not None:
                raise ValueError(
                    "deterministic majority reads the whole neighborhood and takes no k"
                )
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds!r}")

    @property
    def sample_size(self) -> int | None:
        """Effective k: voter is k = 1, deterministic majority has none."""
        if self.family is Family.DETERMINISTIC_MAJORITY:
            return None
        return 1 if self.family is Family.VOTER else self.k


@dataclass(frozen=True, eq=False)
class Configuration:
    """Per-node states at one round (True = R) plus the cached R volume."""

    states: np.ndarray
    r_volume: int
    round_index: int


def make_configuration(graph: Graph, states: np.ndarray, round_index: int = 0) -> Configuration:
    states = np.asarray(states, dtype=bool)
    if states.shape != (graph.n,):
        raise ValueError(f"states must have shape ({graph.n},), got {states.shape}")
    r_volume = int(graph.degrees @ states)
    return Configuration(states=states, r_volume=r_volume, round_index=round_index)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one replica.

    ``tau`` is the first round whose B volume fraction strictly exceeds 1/2;
    when the round cap ``max_rounds`` was reached with the R majority
    intact, ``tau`` is None and ``censored`` is True (the cap is then a
    lower bound on the true disruption time).  ``trajectory`` holds the R
    volume fraction for every simulated round, index 0 included.
    """

    tau: int | None
    censored: bool
    trajectory: list[float]
    seed: int
    params: DynamicsParams
    max_rounds: int
    phi_min: list[float] | None = None
    phi_max: list[float] | None = None

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
    if n == 0:
        return np.ones(1)
    if prob <= 0.0:
        return np.ones(n + 1)
    if prob >= 1.0:
        out = np.zeros(n + 1)
        out[-1] = 1.0
        return out
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
    grouping equal trial counts (few distinct degrees in practice)."""
    out = np.empty(counts.shape, dtype=np.int64)
    for c in np.unique(counts):
        table = _binom_cdf_table(int(c), prob)
        mask = counts == c
        out[mask] = np.searchsorted(table, u[mask], side="right")
    np.minimum(out, counts, out=out)
    return out


# ---------------------------------------------------------------------------
# Neighborhood bookkeeping
# ---------------------------------------------------------------------------


def r_neighbor_counts(graph: Graph, states: np.ndarray) -> np.ndarray:
    """Number of R neighbors of every node (complete graphs shortcut the
    CSR reduction: every other node is a neighbor)."""
    if graph.is_complete:
        total_r = int(states.sum())
        return total_r - states.astype(np.int64)
    vals = states[graph.neighbors]
    return np.add.reduceat(vals, graph.offsets[:-1], dtype=np.int64)


def phi_stats(graph: Graph, config: Configuration) -> tuple[float, float, float]:
    """(min, mean, max) over nodes of the R-neighbor fraction."""
    phi = r_neighbor_counts(graph, config.states) / graph.degrees
    return float(phi.min()), float(phi.mean()), float(phi.max())


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
        pick = (block[:, :k] * graph.degrees[:, None]).astype(np.int64)
        seen = states[graph.neighbors[graph.offsets[:-1, None] + pick]]
        if not node:
            seen &= block[:, k : 2 * k] >= params.p
        count = seen.sum(axis=1)
        size = k
    twice = 2 * count
    new = twice > size
    if _has_tie_coin(k):
        new |= (twice == size) & (block[:, -2 if node else -1] < 0.5)
    if node:
        new &= block[:, -1] >= params.p
    return new


def step(graph: Graph, config: Configuration, params: DynamicsParams) -> Configuration:
    """Advance one synchronous round (double-buffered: every new state is a
    function of the round-t configuration only)."""
    n = graph.n
    t = config.round_index
    if config.r_volume == 0:
        # all-B is absorbing; no randomness can resurrect R
        return Configuration(states=np.zeros(n, dtype=bool), r_volume=0, round_index=t + 1)
    block = _round_block(n, _block_cols(params), params.seed, t)
    new = _new_states(graph, config.states, params, block)
    return Configuration(
        states=new, r_volume=int(graph.degrees @ new), round_index=t + 1
    )


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def init_random(graph: Graph, q: float, seed: int) -> Configuration:
    """Each node independently R with probability q; deterministic in seed."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"initial probability q must lie in [0, 1], got {q!r}")
    rng = _generator(seed, (_INIT_STREAM,))
    states = rng.random(graph.n) < q
    return make_configuration(graph, states, round_index=0)


def _disrupted(graph: Graph, config: Configuration) -> bool:
    # B volume fraction > 1/2  <=>  2 * r_volume < total volume (exact ints)
    return 2 * config.r_volume < graph.total_volume


def run(
    graph: Graph,
    config0: Configuration,
    params: DynamicsParams,
    record_phi: bool = False,
) -> RunRecord:
    """Iterate until the initial majority is disrupted or the round cap hits.

    The cap is ``params.max_rounds``, or ``default_max_rounds(graph.n)``
    when that is None; the record carries the cap it ran under.  The
    disruption check runs on the initial configuration too (an all-B
    start has tau = 0 with zero steps executed).
    """
    max_rounds = params.max_rounds
    if max_rounds is None:
        max_rounds = default_max_rounds(graph.n)
    vol = graph.total_volume
    trajectory = [config0.r_volume / vol]
    phi_min = [] if record_phi else None
    phi_max = [] if record_phi else None
    if record_phi:
        lo, _, hi = phi_stats(graph, config0)
        phi_min.append(lo)
        phi_max.append(hi)
    tau = 0 if _disrupted(graph, config0) else None
    config = config0
    t = 0
    while tau is None and t < max_rounds:
        config = step(graph, config, params)
        t += 1
        trajectory.append(config.r_volume / vol)
        if record_phi:
            lo, _, hi = phi_stats(graph, config)
            phi_min.append(lo)
            phi_max.append(hi)
        if _disrupted(graph, config):
            tau = t
    return RunRecord(
        tau=tau,
        censored=tau is None,
        trajectory=trajectory,
        seed=params.seed,
        params=params,
        max_rounds=max_rounds,
        phi_min=phi_min,
        phi_max=phi_max,
    )
