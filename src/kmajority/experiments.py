"""Replica batches, parameter sweeps, and mean-field-vs-simulation checks.

A sweep runs ``replicas`` independent seeded simulations for every
(k, p, q) cell of a grid, attaches the mean-field predictions (fixed-point
regime, and critical bias values from ``meanfield``'s memo, which solves
each p*_k once for every q) to each cell, and keeps every replica's
outcome.  The summary writer reduces the disruption times to
censoring-aware statistics.

Everything is deterministic given the spec: per-replica seeds are derived
by hashing (base_seed, cell coordinates, replica index), checked for
collisions before any replica runs, and the CSV writer formats floats with 17
significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from kmajority.dynamics import (
    DynamicsParams,
    Family,
    check,
    init_random,
    phi_stats,
    run,
    step,
)
from kmajority.graph import Graph, GraphSpec, generate
from kmajority.meanfield import (
    BiasMode,
    MeanFieldParams,
    Regime,
    critical_bias_k,
    critical_bias_kq,
    fixed_points,
    trajectory,
)

__all__ = [
    "SweepSpec",
    "CellSummary",
    "ComparisonReport",
    "run_sweep",
    "meanfield_comparison",
    "write_runs_csv",
    "write_summary_json",
]

CSV_COLUMNS = ["k", "p", "q", "mode", "family", "graph", "n", "seed", "tau",
               "censored", "final_r_fraction"]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (k, p, q) cells over one graph recipe."""

    graph_spec: GraphSpec
    family: Family
    mode: BiasMode
    k_values: tuple[int | None, ...]
    p_values: tuple[float, ...]
    q_values: tuple[float, ...]
    replicas: int
    base_seed: int
    max_rounds: int | None = None
    share_graph: bool = True

    def __post_init__(self) -> None:
        """Grid-level checks; each (k, p) pair is validated by DynamicsParams,
        the one owner of the family/k rule, the bias range and the round cap."""
        if type(self.replicas) is not int or self.replicas < 1:
            raise ValueError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        if type(self.base_seed) is not int or self.base_seed < 0:
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed!r}")
        for name, grid in (("k", self.k_values), ("p", self.p_values), ("q", self.q_values)):
            if not grid:
                raise ValueError("k, p, and q grids must all be non-empty")
            # equal values would give equal replica seeds
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} grid values must be distinct, got {list(grid)}")
        for q in self.q_values:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"initialization grid value {q!r} outside [0, 1]")
        for k, p in itertools.product(self.k_values, self.p_values):
            DynamicsParams(self.family, p, self.mode, k=k, max_rounds=self.max_rounds)


@dataclass(frozen=True)
class CellSummary:
    """The outcomes of one cell's replicas: each one's seed, disruption time
    (None when censored) and final R fraction, with the round cap they share.
    The values every cell of a sweep shares (family, mode, graph, replica
    count) are its spec's; the writers read them there, and derive a cell's
    statistics in ``cell_to_json``."""

    k: int | None
    p: float
    q: float
    n: int
    max_rounds: int
    seeds: list[int]
    taus: list[int | None]
    final_r_fractions: list[float]
    meanfield: dict


@dataclass(frozen=True)
class ComparisonReport:
    """Per-round sup-node deviation of simulated R-neighbor fractions from
    the mean-field orbit, and that orbit."""

    deviations: list[float]
    mean_field: list[float]


# ---------------------------------------------------------------------------
# Seeds and mean-field attachments
# ---------------------------------------------------------------------------


def _hash_seed(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _meanfield_attachment(family: Family, mode: BiasMode,
                          k: int | None, p: float, q: float) -> dict:
    """Predictions attached to a cell.

    k-majority cells use the fixed-point solver (even k through the k-1
    equivalence).  Voter has no phase transition: supercritical for every
    p > 0.  2-majority with uniform tie-breaking follows the voter law
    (P(R) = x^2 + x(1-x) = x), so k = 2 takes the voter attachment.
    Deterministic majority has threshold 1/2.  For every q, deterministic
    cells carry p*_k = p*_{k,q} = 1/2, and voter cells and cells with k <= 2
    carry 0.0 for both.  For k-majority with k >= 3, p*_{k,q} is defined for
    an initial majority q > 1/2 only, and cells with q <= 1/2 carry None.
    """
    if family is Family.DETERMINISTIC_MAJORITY:
        if p < 0.5:
            regime = Regime.SUBCRITICAL
        elif p > 0.5:
            regime = Regime.SUPERCRITICAL
        else:
            regime = Regime.CRITICAL
        phi_plus = None
        if p < 0.5:
            phi_plus = 1.0 if mode is BiasMode.EDGE else 1.0 - p
        return {"regime": regime.value, "phi_minus": None, "phi_plus": phi_plus,
                "mu": None, "p_star_k": 0.5, "p_star_kq": 0.5}
    if family is Family.VOTER or k <= 2:
        regime = None if p == 0.0 else Regime.SUPERCRITICAL.value
        return {"regime": regime, "phi_minus": None, "phi_plus": None,
                "mu": None, "p_star_k": 0.0, "p_star_kq": 0.0}
    k_odd = k if k % 2 == 1 else k - 1
    fp = fixed_points(MeanFieldParams(k_odd, p, mode))
    cv = critical_bias_kq(k_odd, q) if q > 0.5 else critical_bias_k(k_odd)
    return {
        "regime": fp.regime.value,
        "phi_minus": fp.phi_minus,
        "phi_plus": fp.phi_plus,
        "mu": fp.mu,
        "p_star_k": cv.p_star_k,
        "p_star_kq": cv.p_star_kq,
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _cell_graph(spec: SweepSpec, cell_index: int) -> Graph:
    """A fresh graph for one cell of a sweep that does not share its graph."""
    seed = _hash_seed(f"graph|{spec.graph_spec.seed}|{cell_index}")
    return generate(replace(spec.graph_spec, seed=seed))


def run_sweep(spec: SweepSpec) -> list[CellSummary]:
    """Run every cell of the grid; deterministic given the spec.

    A first pass plans every cell before any replica runs: it draws and
    checks the graph, derives the replica seeds (no two alike in the sweep)
    and solves the mean-field attachment.  Only the checks raise ValueError;
    a failed draw, solve or replica raises RuntimeError naming its cell.  A
    cell that does not share its graph draws it again to run; its seed is
    fixed, so that is the same graph.
    """
    shared = generate(spec.graph_spec) if spec.share_graph else None
    all_seeds: set[int] = set()
    plans = []
    grid = itertools.product(spec.k_values, spec.p_values, spec.q_values)
    for cell_index, (k, p, q) in enumerate(grid):
        where = f"cell (k={k}, p={p}, q={q})"
        try:
            graph = shared if shared is not None else _cell_graph(spec, cell_index)
        except Exception as exc:
            raise RuntimeError(f"{where}: graph generation failed: {exc}") from exc
        params = DynamicsParams(spec.family, p, spec.mode, k=k, max_rounds=spec.max_rounds)
        check(graph, params)
        seeds = [_hash_seed(f"{spec.base_seed}|{k}|{p:.17g}|{q:.17g}|{spec.family.value}|"
                            f"{spec.mode.value}|{replica}") for replica in range(spec.replicas)]
        all_seeds.update(seeds)
        if len(all_seeds) < (cell_index + 1) * spec.replicas:
            raise RuntimeError(f"replica seed collision at {where}")
        try:
            meanfield = _meanfield_attachment(spec.family, spec.mode, k, p, q)
        except ValueError as exc:
            raise RuntimeError(f"{where}: mean-field solve failed: {exc}") from exc
        plans.append((k, p, q, where, params, seeds, meanfield))
    summaries = []
    for cell_index, (k, p, q, where, params, seeds, meanfield) in enumerate(plans):
        graph = shared if shared is not None else _cell_graph(spec, cell_index)
        records = []
        for replica, seed in enumerate(seeds):
            try:
                records.append(run(graph, init_random(graph, q, seed), replace(params, seed=seed)))
            except Exception as exc:
                raise RuntimeError(f"{where}, replica {replica}: {exc}") from exc
        summaries.append(CellSummary(
            k=k, p=p, q=q, n=graph.n,
            max_rounds=records[0].max_rounds,  # the cell's replicas share one graph, so one cap
            seeds=seeds, taus=[r.tau for r in records],
            final_r_fractions=[r.final_r_fraction for r in records],
            meanfield=meanfield,
        ))
    return summaries


def meanfield_comparison(graph: Graph, params: DynamicsParams, q0: float,
                         T: int) -> ComparisonReport:
    """One simulated replica against the deterministic mean-field orbit.

    Deviation t is the largest distance of a node's R-neighbor fraction from
    the orbit value q_t; round 0 probes initialization concentration.
    """
    if params.family is Family.DETERMINISTIC_MAJORITY:
        raise ValueError("mean-field comparison applies to sampling dynamics (k-majority/voter)")
    k = params.sample_size
    orbit = trajectory(MeanFieldParams(k, params.p, params.mode), q0, T)
    states = init_random(graph, q0, params.seed)
    deviations: list[float] = []
    for t in range(T + 1):
        # max over nodes of |phi - c| is max(phi_max - c, c - phi_min), bit for bit
        lo, hi = phi_stats(graph, states)
        deviations.append(max(hi - orbit[t], orbit[t] - lo))
        if t < T:
            states = step(graph, states, params, t)
    return ComparisonReport(deviations=deviations, mean_field=orbit)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_runs_csv(spec: SweepSpec, cells: list[CellSummary], path: str | Path) -> None:
    """One row per replica, fixed column order, 17-significant-digit floats.

    Censored rows carry the round cap in the tau column (a lower bound) with
    censored=true.
    """
    graph = spec.graph_spec.label()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in cells:
            for seed, tau, final in zip(cell.seeds, cell.taus, cell.final_r_fractions):
                writer.writerow([
                    "" if cell.k is None else cell.k,
                    _fmt(cell.p),
                    _fmt(cell.q),
                    spec.mode.value,
                    spec.family.value,
                    graph,
                    cell.n,
                    seed,
                    cell.max_rounds if tau is None else tau,
                    "true" if tau is None else "false",
                    _fmt(final),
                ])


def cell_to_json(spec: SweepSpec, cell: CellSummary, graph: str) -> dict:
    """A cell of the sweep ``spec`` on the graph labelled ``graph`` with five
    statistics of its replicas: the censored count and fraction, the median
    and mean disruption time, and the mean final R fraction.  A censored run
    counts at the round cap in the median and the mean, so both are lower
    bounds when any run is censored."""
    censored = cell.taus.count(None)
    # censored runs enter at the cap, a lower bound on their tau
    bounded = [cell.max_rounds if t is None else t for t in cell.taus]
    return {
        "k": cell.k,
        "p": cell.p,
        "q": cell.q,
        "family": spec.family.value,
        "mode": spec.mode.value,
        "graph": graph,
        "n": cell.n,
        "max_rounds": cell.max_rounds,
        "replicas": spec.replicas,
        "censored_count": censored,
        "censored_fraction": censored / spec.replicas,
        "tau_median": float(np.median(bounded)),
        "tau_mean": float(np.mean(bounded)),
        "final_r_fraction_mean": float(np.mean(cell.final_r_fractions)),
        "taus": cell.taus,
        "seeds": cell.seeds,
        "meanfield": cell.meanfield,
    }


def write_summary_json(spec: SweepSpec, cells: list[CellSummary], path: str | Path) -> None:
    graph = spec.graph_spec.label()
    doc = {
        "schema": 1,
        "spec": {
            "graph": graph,
            "family": spec.family.value,
            "mode": spec.mode.value,
            "k": list(spec.k_values),
            "p_grid": list(spec.p_values),
            "q_grid": list(spec.q_values),
            "replicas": spec.replicas,
            "max_rounds": spec.max_rounds,
            "base_seed": spec.base_seed,
            "share_graph": spec.share_graph,
        },
        "cells": [cell_to_json(spec, c, graph) for c in cells],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
