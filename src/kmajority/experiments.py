"""Replica batches, parameter sweeps, and mean-field-vs-simulation checks.

A sweep runs ``replicas`` independent seeded simulations for every
(k, p, q) cell of a grid, attaches the mean-field predictions (fixed-point
regime and critical bias values) to each cell, and reduces the disruption
times to censoring-aware summaries.  Censored runs (round cap hit with the
R majority intact) enter medians/means at the cap value, i.e. as lower
bounds.

Everything is deterministic given the spec: per-replica seeds are derived
by hashing (base_seed, cell coordinates, replica index), checked for
collisions at runtime, and the CSV writer formats floats with 17
significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from kmajority.dynamics import (
    DynamicsParams,
    Family,
    init_random,
    r_neighbor_counts,
    run,
    step,
)
from kmajority.graph import Graph, GraphSpec, generate
from kmajority.meanfield import (
    MAX_K,
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
    "DisruptionCurve",
    "run_sweep",
    "meanfield_comparison",
    "disruption_curve",
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
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not self.p_values or not self.q_values or not self.k_values:
            raise ValueError("k, p, and q grids must all be non-empty")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"bias grid value {p!r} outside [0, 1]")
        for q in self.q_values:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"initialization grid value {q!r} outside [0, 1]")
        if self.family is Family.DETERMINISTIC_MAJORITY:
            if tuple(self.k_values) != (None,):
                raise ValueError("deterministic majority sweeps take k_values=(None,)")
        elif self.family is Family.VOTER:
            if tuple(self.k_values) not in ((None,), (1,)):
                raise ValueError("voter sweeps take k_values=(1,)")
        else:
            for k in self.k_values:
                if k is None or k < 1:
                    raise ValueError(f"k-majority sweep needs integer k >= 1, got {k!r}")
                if k > MAX_K:
                    raise ValueError(f"sample size k={k} exceeds the supported cap {MAX_K}")

    def cells(self) -> list[tuple[int | None, float, float]]:
        out = []
        for k in self.k_values:
            for p in self.p_values:
                for q in self.q_values:
                    out.append((k, p, q))
        return out


@dataclass(frozen=True)
class CellSummary:
    """Replica-level outcomes and censoring-aware reductions for one cell."""

    k: int | None
    p: float
    q: float
    family: Family
    mode: BiasMode
    graph_label: str
    n: int
    max_rounds: int
    seeds: list[int]
    taus: list[int | None]
    final_r_fractions: list[float]
    censored_count: int
    tau_median: float
    tau_mean: float
    final_r_fraction_mean: float
    meanfield: dict

    @property
    def replicas(self) -> int:
        return len(self.seeds)

    @property
    def censored_fraction(self) -> float:
        return self.censored_count / len(self.seeds)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-round sup-node deviation of simulated R-neighbor fractions from
    the mean-field orbit, judged against a tolerance gamma."""

    gamma: float
    q0: float
    deviations: list[float]
    mean_field: list[float]
    rounds_passed: list[bool]
    passed: bool
    params: DynamicsParams


@dataclass(frozen=True)
class DisruptionCurve:
    """p -> (median tau, censored fraction) table for one (k, q)."""

    k: int | None
    q: float
    rows: list[tuple[float, float, float]]
    knee: float | None
    p_star_kq: float | None
    cells: list[CellSummary]


# ---------------------------------------------------------------------------
# Seeds and mean-field attachments
# ---------------------------------------------------------------------------


def _replica_seed(base_seed: int, k: int | None, p: float, q: float,
                  family: Family, mode: BiasMode, replica: int) -> int:
    text = f"{base_seed}|{k}|{p:.17g}|{q:.17g}|{family.value}|{mode.value}|{replica}"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=None)
def _cached_critical(k: int) -> float:
    return critical_bias_k(k).p_star_k


@lru_cache(maxsize=None)
def _cached_critical_q(k: int, q: float) -> float:
    return critical_bias_kq(k, q).p_star_kq


def _meanfield_attachment(family: Family, mode: BiasMode,
                          k: int | None, p: float, q: float) -> dict:
    """Predictions attached to a cell.

    k-majority cells use the fixed-point solver (even k through the k-1
    equivalence).  Voter has no phase transition: supercritical for every
    p > 0.  2-majority with uniform tie-breaking follows the voter law
    (P(R) = x^2 + x(1-x) = x), so k = 2 takes the voter attachment.
    Deterministic majority has threshold 1/2.  p*_{k,q} is defined for an
    initial majority q > 1/2 only; cells with q <= 1/2 carry None.
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
    return {
        "regime": fp.regime.value,
        "phi_minus": fp.phi_minus,
        "phi_plus": fp.phi_plus,
        "mu": fp.mu,
        "p_star_k": _cached_critical(k_odd),
        "p_star_kq": _cached_critical_q(k_odd, q) if q > 0.5 else None,
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _cell_graph(spec: SweepSpec, cell_index: int) -> Graph:
    """A fresh graph for one cell of a sweep that does not share its graph."""
    digest = hashlib.blake2b(
        f"graph|{spec.base_seed}|{cell_index}".encode(), digest_size=8
    ).digest()
    seed = int.from_bytes(digest, "big")
    return generate(replace(spec.graph_spec, seed=seed))


def run_sweep(spec: SweepSpec) -> list[CellSummary]:
    """Run every cell of the grid; deterministic given the spec."""
    shared = generate(spec.graph_spec) if spec.share_graph else None
    all_seeds: set[int] = set()
    summaries: list[CellSummary] = []
    for cell_index, (k, p, q) in enumerate(spec.cells()):
        where = f"cell (k={k}, p={p}, q={q})"
        try:
            graph = shared if shared is not None else _cell_graph(spec, cell_index)
        except Exception as exc:
            raise RuntimeError(f"{where}: graph generation failed: {exc}") from exc
        seeds, taus, finals = [], [], []
        censored = 0
        for replica in range(spec.replicas):
            seed = _replica_seed(spec.base_seed, k, p, q, spec.family, spec.mode, replica)
            if seed in all_seeds:
                raise RuntimeError(f"replica seed collision at {where}, replica {replica}")
            all_seeds.add(seed)
            try:
                params = DynamicsParams(family=spec.family, p=p, mode=spec.mode,
                                        seed=seed, k=k, max_rounds=spec.max_rounds)
                record = run(graph, init_random(graph, q, seed), params)
            except Exception as exc:
                raise RuntimeError(f"{where}, replica {replica}: {exc}") from exc
            seeds.append(seed)
            taus.append(record.tau)
            finals.append(record.final_r_fraction)
            censored += int(record.censored)
        max_rounds = record.max_rounds  # the cell's replicas share one graph, so one cap
        bounded = [max_rounds if t is None else t for t in taus]
        summaries.append(CellSummary(
            k=k, p=p, q=q, family=spec.family, mode=spec.mode,
            graph_label=spec.graph_spec.label(), n=graph.n, max_rounds=max_rounds,
            seeds=seeds, taus=taus, final_r_fractions=finals,
            censored_count=censored,
            tau_median=float(np.median(bounded)),
            tau_mean=float(np.mean(bounded)),
            final_r_fraction_mean=float(np.mean(finals)),
            meanfield=_meanfield_attachment(spec.family, spec.mode, k, p, q),
        ))
    return summaries


def meanfield_comparison(graph: Graph, params: DynamicsParams, q0: float,
                         T: int, gamma: float) -> ComparisonReport:
    """One simulated replica against the deterministic mean-field orbit.

    Round t passes when every node's R-neighbor fraction sits within gamma
    of the orbit value q_t; round 0 probes initialization concentration.
    """
    if params.family is Family.DETERMINISTIC_MAJORITY:
        raise ValueError("mean-field comparison applies to sampling dynamics (k-majority/voter)")
    if T < 0:
        raise ValueError(f"round count T must be >= 0, got {T}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    k = params.sample_size
    orbit = trajectory(MeanFieldParams(k, params.p, params.mode), q0, T).values
    config = init_random(graph, q0, params.seed)
    deviations: list[float] = []
    for t in range(T + 1):
        phi = r_neighbor_counts(graph, config.states) / graph.degrees
        deviations.append(float(np.max(np.abs(phi - orbit[t]))))
        if t < T:
            config = step(graph, config, params)
    rounds_passed = [d <= gamma for d in deviations]
    return ComparisonReport(gamma=gamma, q0=float(q0), deviations=deviations,
                            mean_field=orbit, rounds_passed=rounds_passed,
                            passed=all(rounds_passed), params=params)


def disruption_curve(spec: SweepSpec) -> DisruptionCurve:
    """Sweep a single (k, q) over the p grid and locate the empirical knee:
    the first p whose censored fraction drops below 1/2."""
    if len(spec.k_values) != 1 or len(spec.q_values) != 1:
        raise ValueError("disruption_curve wants a spec restricted to one k and one q")
    cells = run_sweep(spec)
    cells_sorted = sorted(cells, key=lambda c: c.p)
    rows = [(c.p, c.tau_median, c.censored_fraction) for c in cells_sorted]
    knee = next((p for p, _, frac in rows if frac < 0.5), None)
    p_star_kq = cells_sorted[0].meanfield.get("p_star_kq")
    return DisruptionCurve(k=spec.k_values[0], q=spec.q_values[0], rows=rows,
                           knee=knee, p_star_kq=p_star_kq, cells=cells)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_runs_csv(cells: list[CellSummary], path: str | Path) -> None:
    """One row per replica, fixed column order, 17-significant-digit floats.

    Censored rows carry the round cap in the tau column (a lower bound) with
    censored=true.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in cells:
            for seed, tau, final in zip(cell.seeds, cell.taus, cell.final_r_fractions):
                writer.writerow([
                    "" if cell.k is None else cell.k,
                    _fmt(cell.p),
                    _fmt(cell.q),
                    cell.mode.value,
                    cell.family.value,
                    cell.graph_label,
                    cell.n,
                    seed,
                    cell.max_rounds if tau is None else tau,
                    "true" if tau is None else "false",
                    _fmt(final),
                ])


def cell_to_json(cell: CellSummary) -> dict:
    return {
        "k": cell.k,
        "p": cell.p,
        "q": cell.q,
        "family": cell.family.value,
        "mode": cell.mode.value,
        "graph": cell.graph_label,
        "n": cell.n,
        "max_rounds": cell.max_rounds,
        "replicas": cell.replicas,
        "censored_count": cell.censored_count,
        "censored_fraction": cell.censored_fraction,
        "tau_median": cell.tau_median,
        "tau_mean": cell.tau_mean,
        "final_r_fraction_mean": cell.final_r_fraction_mean,
        "taus": cell.taus,
        "seeds": cell.seeds,
        "meanfield": cell.meanfield,
    }


def write_summary_json(spec: SweepSpec, cells: list[CellSummary], path: str | Path) -> None:
    doc = {
        "schema": 1,
        "spec": {
            "graph": spec.graph_spec.label(),
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
        "cells": [cell_to_json(c) for c in cells],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
