"""The benchmark's workloads: the CLI calls of one round, made from the
seed, and the checks on their outputs.

A workload is ``inputs(seed, out) -> list of argv`` plus
``check(seed, argvs, docs, out) -> list of failure messages``; ``docs`` holds
the parsed JSON each call printed.  The checks use only ``oracle``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

GNP = "gnp:n=2000,p=0.5"
COMPLETE = "complete:n=2000"


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# sweep-complete-knee
# ---------------------------------------------------------------------------
# Grid points keep a margin of at least 3.4 standard deviations of the
# initial R fraction from each knee (p*_{3,0.6} = 0.0549, p*_3 = 1/9), so a
# cell is metastable (runs to the cap) or collapses within a few rounds on
# every seed, and the work of a round barely depends on the seed.

SWEEP_CAP = 120


def sweep_inputs(seed: int, out: Path) -> list[list[str]]:
    configs = {
        "a": {"graph": COMPLETE, "family": "kmaj", "mode": "edge", "k": [3],
              "p_grid": [0.02, 0.035, 0.07, 0.09, 0.1, 0.14, 0.18],
              "q_grid": [0.6, 1.0], "replicas": 4, "max_rounds": SWEEP_CAP,
              "base_seed": 2 * seed},
        # one graph per cell: the O(n^2) build runs for every cell
        "b": {"graph": COMPLETE, "k": [3],
              "p_grid": [0.025, 0.03, 0.075, 0.085, 0.095],
              "q_grid": [0.6], "replicas": 3, "max_rounds": SWEEP_CAP,
              "base_seed": 2 * seed + 1, "share_graph": False},
    }
    argvs = []
    for name, cfg in configs.items():
        cfg["out"] = str(out / f"sweep-{name}")
        path = out / f"sweep-{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        argvs.append(["sweep", "--config", str(path)])
    return argvs


def sweep_files(argvs: list[list[str]]) -> list[Path]:
    files = []
    for argv in argvs:
        cfg = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
        files += [Path(cfg["out"]) / "runs.csv", Path(cfg["out"]) / "summary.json"]
    return files


def _check_cell_meanfield(cell: dict) -> list[str]:
    p, q, mf = cell["p"], cell["q"], cell["meanfield"]
    where = f"cell p={p} q={q}"
    bad = []
    if not _close(mf["p_star_k"], oracle.P_STAR_3, 1e-9):
        bad.append(f"{where}: p_star_k {mf['p_star_k']} != 1/9")
    if not _close(mf["p_star_kq"], oracle.k3_p_star_q(q), 1e-9):
        bad.append(f"{where}: p_star_kq {mf['p_star_kq']} != {oracle.k3_p_star_q(q)}")
    phis = oracle.k3_phis(p)
    if phis is None:
        if mf["regime"] != "supercritical":
            bad.append(f"{where}: regime {mf['regime']} above 1/9")
        return bad
    if mf["regime"] != "subcritical":
        bad.append(f"{where}: regime {mf['regime']} below 1/9")
        return bad
    for key, ref in zip(("phi_minus", "phi_plus"), phis):
        # the solver stops at |F(x) - x| <= 1e-10: allow that residual
        # divided by the slope of F(x) - x at the root
        slope = abs(oracle.k3_map_slope(p, ref) - 1.0)
        if not _close(mf[key], ref, 1e-9 + 2e-10 / slope):
            bad.append(f"{where}: {key} {mf[key]} != closed form {ref}")
    return bad


def sweep_check(seed, argvs, docs, out) -> list[str]:
    bad = []
    for argv, doc in zip(argvs, docs):
        cfg = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
        cells_expected = len(cfg["p_grid"]) * len(cfg["q_grid"])
        runs_expected = cells_expected * cfg["replicas"]
        if doc["cells"] != cells_expected or doc["runs"] != runs_expected:
            bad.append(f"{argv}: {doc['cells']} cells / {doc['runs']} runs reported")
        with open(doc["runs_csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != runs_expected:
            bad.append(f"{doc['runs_csv']}: {len(rows)} rows, expected {runs_expected}")
        for i, row in enumerate(rows):
            tau, final = int(row["tau"]), float(row["final_r_fraction"])
            if row["censored"] == "true":
                ok = tau == cfg["max_rounds"] and final >= 0.5
            else:
                ok = row["censored"] == "false" and 0 <= tau <= cfg["max_rounds"] and final < 0.5
            if not ok or row["n"] != "2000" or row["k"] != "3":
                bad.append(f"{doc['runs_csv']} row {i + 2}: {row}")
        summary = json.loads(Path(doc["summary_json"]).read_text(encoding="utf-8"))
        censored = sum(row["censored"] == "true" for row in rows)
        if sum(c["censored_count"] for c in summary["cells"]) != censored:
            bad.append(f"{doc['summary_json']}: censored counts disagree with runs.csv")
        for cell in summary["cells"]:
            bad += _check_cell_meanfield(cell)
    return bad


# ---------------------------------------------------------------------------
# critical-large-k
# ---------------------------------------------------------------------------
# Both q levels sit below the tangency point mu_k (>= 0.84 for every odd
# k >= 3), so every --q call bisects on phi_minus whatever the seed.

Q_LADDER = (3, 5, 9, 17, 33, 65)
LARGE_K = (257, 1001)
TANGENCY_STEP = 1e-8


def _critical_levels(seed: int):
    rng = random.Random(f"critical-large-k:{seed}")
    qa, qb = rng.uniform(0.58, 0.62), rng.uniform(0.73, 0.77)
    p501, p1001 = rng.uniform(0.34, 0.38), rng.uniform(0.38, 0.41)
    q0 = rng.uniform(0.90, 1.0)
    return qa, qb, p501, p1001, q0


def critical_inputs(seed: int, out: Path) -> list[list[str]]:
    qa, qb, p501, p1001, q0 = _critical_levels(seed)
    argvs = []
    for k in Q_LADDER:
        for q in (qa, qb):
            argvs.append(["critical", "--k", str(k), "--q", repr(q)])
    for k in LARGE_K:
        argvs.append(["critical", "--k", str(k)])
    argvs.append(["meanfield", "--k", "501", "--p", repr(p501), "--q0", repr(q0),
                  "--rounds", "20"])
    argvs.append(["meanfield", "--k", "501", "--p", repr(p501), "--mode", "node"])
    argvs.append(["meanfield", "--k", "1001", "--p", repr(p1001)])
    return argvs


def _check_meanfield_doc(doc: dict) -> list[str]:
    """Edge-bias fixed points of odd k checked with exact tails."""
    k, p = doc["k"], Fraction(doc["p"])
    where = f"meanfield k={k} p={doc['p']}"
    if doc["regime"] != "subcritical":
        return [f"{where}: regime {doc['regime']}, expected subcritical"]
    bad = []
    phi_m, mu, phi_p = doc["phi_minus"], doc["mu"], doc["phi_plus"]
    if not 0.5 < phi_m < mu < phi_p <= 1.0:
        bad.append(f"{where}: roots out of order {phi_m}, {mu}, {phi_p}")
    for x in (phi_m, phi_p):
        residual = oracle.tail_exact(k, (1 - p) * Fraction(x)) - Fraction(x)
        if abs(residual) > 1e-9:
            bad.append(f"{where}: |F(x) - x| = {float(abs(residual))} at root {x}")
    slope = oracle.tail_slope_exact(k, (1 - p) * Fraction(mu)) * (1 - p)
    if abs(slope - 1) > 1e-7:
        bad.append(f"{where}: F'(mu) = {float(slope)}, expected 1")
    return bad


def critical_check(seed, argvs, docs, out) -> list[str]:
    qa, qb, p501, p1001, q0 = _critical_levels(seed)
    bad = []
    crit = [d for a, d in zip(argvs, docs) if a[0] == "critical"]
    p_star = {}
    for d in crit:
        if d["k"] in p_star and d["p_star_k"] != p_star[d["k"]]:
            bad.append(f"critical k={d['k']}: p_star_k differs between calls")
        p_star[d["k"]] = d["p_star_k"]
    if not _close(p_star.get(3), oracle.P_STAR_3, 1e-9):
        bad.append(f"p*_3 = {p_star.get(3)}, expected 1/9")
    ks = sorted(p_star)
    for k0, k1 in zip(ks, ks[1:]):
        if not p_star[k0] < p_star[k1]:
            bad.append(f"p*_k not increasing: p*_{k0} = {p_star[k0]}, p*_{k1} = {p_star[k1]}")
    for k in Q_LADDER:
        by_q = {d["q"]: d["p_star_kq"] for d in crit if d["k"] == k and d["q"] is not None}
        a, b = by_q.get(qa), by_q.get(qb)
        if a is None or b is None or not a <= b <= p_star[k] + 1e-9:
            bad.append(f"k={k}: p*_(k,q) not monotone in q: {a} (q={qa}), {b} (q={qb}), "
                       f"p*_k {p_star[k]}")
        if k == 3:
            for q, value in by_q.items():
                if not _close(value, oracle.k3_p_star_q(q), 1e-9):
                    bad.append(f"p*_(3,{q}) = {value}, closed form {oracle.k3_p_star_q(q)}")
    for k in LARGE_K:
        u = oracle.best_ratio_point(k)
        below, above = p_star[k] - TANGENCY_STEP, p_star[k] + TANGENCY_STEP
        if not oracle.has_crossing(k, below, u):
            bad.append(f"k={k}: no fixed point at p*_k - {TANGENCY_STEP}")
        if oracle.has_crossing(k, above, u):
            bad.append(f"k={k}: fixed point survives at p*_k + {TANGENCY_STEP}")
    edge501, node501, edge1001 = docs[-3:]
    bad += _check_meanfield_doc(edge501) + _check_meanfield_doc(edge1001)
    if node501["regime"] != edge501["regime"]:
        bad.append("k=501: node and edge regimes differ")
    for key in ("phi_minus", "phi_plus", "mu"):
        if not _close(node501[key], (1.0 - p501) * edge501[key], 1e-12):
            bad.append(f"k=501 node {key} {node501[key]} != (1-p) x edge {edge501[key]}")
    orbit = edge501["trajectory"]["values"]
    if orbit[0] != q0 or len(orbit) != 21:
        bad.append("k=501 orbit: wrong start or length")
    pf = Fraction(p501)
    for t in range(len(orbit) - 1):
        ref = oracle.tail_exact(501, (1 - pf) * Fraction(orbit[t]))
        if abs(Fraction(orbit[t + 1]) - ref) > 1e-12:
            bad.append(f"k=501 orbit step {t}: {orbit[t + 1]} != F = {float(ref)}")
    return bad


# ---------------------------------------------------------------------------
# simulate-gnp
# ---------------------------------------------------------------------------
# Every run starts all-R (q = 1) with p below the model's critical bias, so
# it runs exactly its round cap on every seed and the state after round one
# is a sum of independent Bernoulli(pi) reads with pi known in closed form.


def _gnp_plan(seed: int):
    rng = random.Random(f"simulate-gnp:{seed}")
    base = 1000 * seed
    return [
        # (family, k, mode, p, rounds, seed)
        ("det", None, "edge", rng.uniform(0.20, 0.25), 12, base + 1),
        ("det", None, "node", rng.uniform(0.15, 0.25), 60, base + 2),
        ("kmaj", 4, "node", rng.uniform(0.04, 0.07), 200, base + 3),
        ("kmaj", 3, "edge", rng.uniform(0.03, 0.05), 60, base + 4),
    ], (rng.uniform(0.03, 0.05), rng.uniform(0.85, 0.95), 30, base + 4)


def gnp_inputs(seed: int, out: Path) -> list[list[str]]:
    runs, (cp, cq0, crounds, cseed) = _gnp_plan(seed)
    argvs = []
    for family, k, mode, p, rounds, s in runs:
        argv = ["simulate", "--graph", GNP, "--family", family, "--mode", mode,
                "--p", repr(p), "--q", "1", "--max-rounds", str(rounds), "--seed", str(s)]
        if k is not None:
            argv += ["--k", str(k)]
        if family == "kmaj" and mode == "edge":
            argv += ["--phi-detail", "--trace", str(out / "trace.csv")]
        argvs.append(argv)
    argvs.append(["compare", "--graph", GNP, "--k", "3", "--p", repr(cp), "--q0", repr(cq0),
                  "--rounds", str(crounds), "--seed", str(cseed)])
    return argvs


def gnp_files(argvs) -> list[Path]:
    return [Path(a[a.index("--trace") + 1]) for a in argvs if "--trace" in a]


def _bernstein(var: float, scale: float) -> float:
    """Deviation a sum of independent terms in [0, scale] around their mean
    exceeds with probability at most ALPHA, given their total variance."""
    log_term = math.log(2.0 / oracle.ALPHA)
    return math.sqrt(2.0 * var * log_term) + 2.0 / 3.0 * scale * log_term


def _first_round_mean(family, mode, p, d_min) -> tuple[float, float]:
    """Bounds on the probability that a node is R after round one from all-R
    (the k-majority edge-bias runs use k = 3)."""
    c = 1.0 - p
    if family == "det" and mode == "edge":
        # P(Bin(d, c) > d/2) >= 1 - exp(-2 d (c - 1/2)^2) for every d >= d_min
        return 1.0 - math.exp(-2.0 * d_min * (c - 0.5) ** 2), 1.0
    if mode == "edge":
        pi = oracle.k3_map(p, 1.0)
        return pi, pi
    return c, c     # node bias: every sample reads R, only corruption flips


def gnp_check(seed, argvs, docs, out) -> list[str]:
    runs, (cp, cq0, crounds, cseed) = _gnp_plan(seed)
    bad = []
    d_min_of = {}
    for (family, k, mode, p, rounds, s), doc in zip(runs, docs):
        where = f"simulate {family} k={k} {mode} p={p:.4f}"
        g = doc["graph"]
        n, vol, d_min = g["n"], 2 * g["edges"], g["min_degree"]
        d_min_of[s] = d_min
        traj = doc["trajectory"]
        if not (doc["censored"] and doc["tau"] is None and doc["rounds_simulated"] == rounds
                and len(traj) == rounds + 1 and traj[0] == 1.0
                and min(traj) >= 0.5 and doc["final_r_fraction"] == traj[-1]):
            bad.append(f"{where}: not a censored all-R run of {rounds} rounds")
            continue
        lo, hi = _first_round_mean(family, mode, p, d_min)
        # volume-weighted mean of independent reads: weights d_u / vol <= (n-1)/vol
        scale = (n - 1) / vol
        spread = _bernstein(scale * max(lo * (1 - lo), hi * (1 - hi)), scale)
        if not lo - spread <= traj[1] <= hi + spread:
            bad.append(f"{where}: round-1 R fraction {traj[1]} outside "
                       f"[{lo - spread}, {hi + spread}]")
    for argv, doc in zip(argvs, docs):
        if "--trace" in argv:
            with open(argv[argv.index("--trace") + 1], encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if [float(r["r_volume_fraction"]) for r in rows] != doc["trajectory"]:
                bad.append("trace CSV disagrees with the simulate trajectory")
            if any(not float(r["phi_min"]) <= float(r["phi_max"]) for r in rows):
                bad.append("trace CSV: phi_min > phi_max")
    cmp_doc = docs[-1]
    orbit, devs = cmp_doc["mean_field"], cmp_doc["deviations"]
    if len(orbit) != crounds + 1 or orbit[0] != cq0 or len(devs) != crounds + 1:
        bad.append("compare: wrong orbit length or start")
        return bad
    for t in range(crounds):
        if not _close(orbit[t + 1], oracle.k3_map(cp, orbit[t]), 1e-12):
            bad.append(f"compare: orbit step {t} is not the k=3 map")
    # Node u's R-neighbour fraction averages d_u independent states; each is
    # R with probability F(phi_v) for its own phi_v, which lies within the
    # previous round's bound of the orbit.  Union over n nodes and all rounds.
    d_min = d_min_of[cseed]
    eps = math.sqrt(math.log(2.0 * 2000 * (crounds + 1) / oracle.ALPHA) / (2.0 * d_min))
    bound = eps
    for t, dev in enumerate(devs):
        if dev > bound:
            bad.append(f"compare: round {t} deviation {dev} exceeds bound {bound}")
        if t < crounds:
            hi = oracle.k3_map(cp, min(1.0, orbit[t] + bound))
            lo = oracle.k3_map(cp, max(0.0, orbit[t] - bound))
            bound = eps + max(hi - orbit[t + 1], orbit[t + 1] - lo)
    if cmp_doc["rounds_passed"] != [d <= cmp_doc["gamma"] for d in devs] \
            or cmp_doc["pass"] != all(cmp_doc["rounds_passed"]):
        bad.append("compare: pass flags disagree with the deviations")
    return bad


WORKLOADS = {
    "sweep-complete-knee": (sweep_inputs, sweep_check, sweep_files),
    "critical-large-k": (critical_inputs, critical_check, lambda argvs: []),
    "simulate-gnp": (gnp_inputs, gnp_check, gnp_files),
}
