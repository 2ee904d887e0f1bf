"""Command-line front door: analysis, simulation, and sweep workflows.

Commands
--------
meanfield  fixed points / regime / tangency point, optional orbit
critical   critical bias p*_k and (with --q) p*_{k,q}
simulate   one seeded run on a graph, RunRecord as JSON, optional trace CSV
sweep      grid of cells from a JSON config -> runs.csv + summary.json
compare    per-round sup-node deviation from the mean-field orbit
graphgen   materialize a graph spec into an edge-list file

Conventions: structured results go to stdout as JSON carrying "schema": 1;
errors go to stderr as JSON; exit codes are 0 (ok), 2 (input rejected
before any work: flags, config, or parameters the dataclasses refuse), 1
(runtime failure, an allocation failure included, or any error once the
work has started).  All randomness derives from the --seed flag (or the
config's base_seed), never from the environment.

Each command's handler is a generator: it checks its inputs, yields once
where its work (a solve, a replica, an output write) starts, and then
yields the command's JSON document.

load_sweep_config checks a sweep config's keys (none repeated) and JSON types
(integer fields take JSON integers only), the dataclasses its ranges, before
any output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from kmajority.dynamics import (
    DynamicsParams,
    Family,
    check,
    init_random,
    run,
)
from kmajority.experiments import (
    SweepSpec,
    meanfield_comparison,
    run_sweep,
    write_runs_csv,
    write_summary_json,
)
from kmajority.graph import generate, parse_graph_spec, save_edge_list
from kmajority.meanfield import (
    SOLVER_TOL,
    BiasMode,
    MeanFieldParams,
    Regime,
    check_solver_args,
    critical_bias_k,
    critical_bias_kq,
    fixed_points,
    trajectory,
)

_DEFAULT_GAMMA = 0.02
_MODES = [m.value for m in BiasMode]


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as machine-readable JSON on stderr."""

    def error(self, message):  # noqa: A003 - argparse API
        _emit_error(message)
        raise SystemExit(2)


def _number(what: str = "a finite number", ok=lambda value: True, cast=float):
    """Type of a numeric flag, so its range is checked before any work: the
    text read by ``cast``, finite (JSON has no literal for NaN or +-inf) and
    passing ``ok``, which ``what`` describes."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        # chained comparisons, not math.isfinite, which overflows on huge ints
        if not (-math.inf < value < math.inf and ok(value)):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_FINITE = _number()
_NON_NEGATIVE = _number("a finite number >= 0", lambda value: value >= 0.0)
_UNIT = _number("a number in [0, 1]", lambda value: 0.0 <= value <= 1.0)
_COUNT = _number("an integer >= 0", lambda value: value >= 0, cast=int)


def _emit_error(message: str) -> None:
    json.dump({"schema": 1, "error": str(message)}, sys.stderr)
    sys.stderr.write("\n")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _check_output(path: str | Path, label: str) -> Path:
    """Fail before any work if the file path cannot be written: it must not
    be a directory, and the nearest existing component of its directory must
    be one.  Returns that directory, to be made once the work is done."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{label} {path} is a directory")
    existing = next(p for p in path.parents if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{label} {path}: {existing} is not a directory")
    return path.parent


# ---------------------------------------------------------------------------
# meanfield / critical
# ---------------------------------------------------------------------------


def _cmd_meanfield(args):
    params = MeanFieldParams(args.k, args.p, BiasMode(args.mode))
    solve = args.k % 2 == 1 and args.k >= 3
    if not solve and args.q0 is None:
        raise ValueError(
            "fixed-point solving requires odd k >= 3; for k = 1 or even k give --q0 "
            "to get the orbit"
        )
    yield
    doc = {"schema": 1, "k": args.k, "p": args.p, "mode": args.mode,
           "tolerance": SOLVER_TOL}
    if solve:
        fp = fixed_points(params)
        # the distinct roots of F(x) = x, ascending (phi- = phi+ when critical)
        roots = {Regime.SUPERCRITICAL: [0.0], Regime.CRITICAL: [0.0, fp.phi_plus],
                 Regime.SUBCRITICAL: [0.0, fp.phi_minus, fp.phi_plus]}[fp.regime]
        doc.update({
            "regime": fp.regime.value,
            "roots": roots,
            "phi_minus": fp.phi_minus,
            "phi_plus": fp.phi_plus,
            "mu": fp.mu,
        })
    if args.q0 is not None:
        orbit = trajectory(params, args.q0, args.rounds)
        doc["trajectory"] = {"q0": args.q0, "rounds": args.rounds, "values": orbit}
    yield doc


def _cmd_critical(args):
    check_solver_args(args.k, args.q)
    yield
    p_star_k = critical_bias_k(args.k)
    p_star_kq = None if args.q is None else critical_bias_kq(args.k, args.q)
    yield {"schema": 1, "k": args.k, "q": args.q, "p_star_k": p_star_k,
           "p_star_kq": p_star_kq, "tolerance": SOLVER_TOL}


# ---------------------------------------------------------------------------
# simulate / compare / graphgen
# ---------------------------------------------------------------------------


def _cmd_simulate(args):
    params = DynamicsParams(family=Family(args.family), p=args.p, mode=BiasMode(args.mode),
                            seed=args.seed, k=args.k, max_rounds=args.max_rounds)
    if args.phi_detail and not args.trace:
        raise ValueError("--phi-detail needs --trace: phi goes to the trace CSV only")
    spec = parse_graph_spec(args.graph, seed=args.seed)
    trace_dir = _check_output(args.trace, "trace") if args.trace else None
    graph = generate(spec)
    check(graph, params)
    yield
    record = run(graph, init_random(graph, args.q, args.seed), params,
                 record_phi=args.phi_detail)
    min_degree = int(graph.degrees.min())
    doc = {
        "schema": 1,
        "tau": record.tau,
        "censored": record.censored,
        "rounds_simulated": len(record.trajectory) - 1,
        "final_r_fraction": record.final_r_fraction,
        "trajectory": record.trajectory,
        "seed": args.seed,
        "params": {
            "family": params.family.value,
            "k": params.k,
            "p": params.p,
            "mode": params.mode.value,
            "q": args.q,
            "max_rounds": record.max_rounds,
        },
        "graph": {
            "spec": spec.label(),
            "n": graph.n,
            "edges": graph.edge_count,
            "min_degree": min_degree,
            # 4 ln n: a fixed-n proxy for the superlogarithmic degree the theory needs
            "density_warning": min_degree < 4.0 * math.log(graph.n),
        },
    }
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = ["round", "r_volume_fraction"]
            if args.phi_detail:
                header += ["phi_min", "phi_max"]
            writer.writerow(header)
            for t, frac in enumerate(record.trajectory):
                row = [t, f"{frac:.17g}"]
                if args.phi_detail:
                    row += [f"{record.phi_min[t]:.17g}", f"{record.phi_max[t]:.17g}"]
                writer.writerow(row)
        doc["trace"] = str(args.trace)
    yield doc


def _cmd_compare(args):
    params = DynamicsParams(family=Family.KMAJORITY, p=args.p, mode=BiasMode(args.mode),
                            seed=args.seed, k=args.k)
    spec = parse_graph_spec(args.graph, seed=args.seed)
    graph = generate(spec)
    yield
    report = meanfield_comparison(graph, params, args.q0, args.rounds)
    rounds_passed = [d <= args.gamma for d in report.deviations]
    yield {
        "schema": 1,
        "pass": all(rounds_passed),
        "gamma": args.gamma,
        "q0": args.q0,
        "rounds": args.rounds,
        "deviations": report.deviations,
        "mean_field": report.mean_field,
        "rounds_passed": rounds_passed,
        "k": args.k,
        "p": args.p,
        "mode": args.mode,
        "graph": spec.label(),
        "seed": args.seed,
    }


def _cmd_graphgen(args):
    spec = parse_graph_spec(args.spec, seed=args.seed)
    folder = _check_output(args.out, "graph file")
    graph = generate(spec)
    yield
    folder.mkdir(parents=True, exist_ok=True)
    save_edge_list(graph, args.out)
    yield {"schema": 1, "path": str(args.out), "n": graph.n, "edges": graph.edge_count}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# JSON type of every config key, as the Python type json.load gives it: a
# list is an array of its item type, a dict an object with exactly its keys,
# and p_grid is either.  SweepSpec, DynamicsParams and GraphSpec own ranges.
_P_RANGE = {"min": float, "max": float, "steps": int}
_SWEEP_KEYS = {
    "schema": int, "graph": str, "graph_seed": int, "family": str, "mode": str,
    "k": [int], "p_grid": ([float], _P_RANGE), "q_grid": [float], "replicas": int,
    "max_rounds": int, "base_seed": int, "share_graph": bool, "out": str,
}
_OPTIONAL_KEYS = {"schema", "graph_seed", "family", "mode", "k", "max_rounds", "share_graph"}
_JSON_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def _invalid(pointer: str, problem: str) -> ValueError:
    return ValueError(f"sweep config invalid: {pointer or '/'}: {problem}")


def _check_json(value, json_type, pointer: str = "") -> None:
    """Raise, naming its JSON pointer, at the first value not of json_type."""
    if isinstance(json_type, tuple):
        json_type = json_type[isinstance(value, dict)]
    if isinstance(json_type, dict):
        if not isinstance(value, dict):
            raise _invalid(pointer, "expected an object")
        for key in json_type:
            if key not in value and key not in _OPTIONAL_KEYS:
                raise _invalid(f"{pointer}/{key}", "required key is missing")
        for key, item in value.items():
            if key not in json_type:
                raise _invalid(f"{pointer}/{key}", "unknown key")
            _check_json(item, json_type[key], f"{pointer}/{key}")
    elif isinstance(json_type, list):
        if not isinstance(value, list):
            raise _invalid(pointer, "expected an array")
        for i, item in enumerate(value):
            _check_json(item, json_type[0], f"{pointer}/{i}")
    # true is not a number and 2.0 is not an integer, but 2 is a number
    elif type(value) is not json_type and (json_type, type(value)) != (float, int):
        raise _invalid(pointer, f"expected {_JSON_NAMES[json_type]}, got {json.dumps(value)}")


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object of the config as a dict, rejecting a repeated key,
    whose last value json.load would otherwise keep."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"sweep config invalid: repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def _expand_p_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, list):
        return tuple(float(p) for p in raw)
    lo, hi, steps = raw["min"], raw["max"], raw["steps"]
    if steps < 1:
        raise _invalid("/p_grid/steps", f"expected at least 1, got {steps}")
    if steps == 1 and lo != hi:
        # one step would run min alone, not a range ending at max
        raise _invalid("/p_grid/steps", f"expected at least 2 when min != max, got {steps}")
    for key in ("min", "max"):
        if not 0.0 <= raw[key] <= 1.0:
            raise _invalid(f"/p_grid/{key}", f"expected a value in [0, 1], got {raw[key]!r}")
    return tuple(np.linspace(lo, hi, steps).tolist())


def load_sweep_config(path: str | Path) -> tuple[SweepSpec, Path]:
    """Check a sweep config file's shape; build its SweepSpec and out dir."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh, object_pairs_hook=_unique_keys)
    _check_json(raw, _SWEEP_KEYS)
    if raw.get("schema", 1) != 1:
        raise _invalid("/schema", f"expected 1, got {raw['schema']}")
    family = Family(raw.get("family", "kmaj"))
    # voter defaults to k = 1, not None: the replica seeds hash k
    k_values = tuple(raw.get("k", [1] if family is Family.VOTER else [None]))
    graph_spec = parse_graph_spec(raw["graph"], seed=raw.get("graph_seed", raw["base_seed"]))
    spec = SweepSpec(
        graph_spec=graph_spec,
        family=family,
        mode=BiasMode(raw.get("mode", "edge")),
        k_values=k_values,
        p_values=_expand_p_grid(raw["p_grid"]),
        q_values=tuple(float(q) for q in raw["q_grid"]),
        replicas=raw["replicas"],
        base_seed=raw["base_seed"],
        max_rounds=raw.get("max_rounds"),
        share_graph=raw.get("share_graph", True),
    )
    return spec, Path(raw["out"])


def _cmd_sweep(args):
    spec, out_dir = load_sweep_config(args.config)
    runs_path = out_dir / "runs.csv"
    summary_path = out_dir / "summary.json"
    for path in (runs_path, summary_path):
        _check_output(path, "sweep output")
    cells = run_sweep(spec)  # only the checks of its plan raise ValueError
    yield
    out_dir.mkdir(parents=True, exist_ok=True)
    write_runs_csv(spec, cells, runs_path)
    write_summary_json(spec, cells, summary_path)
    yield {
        "schema": 1,
        "out": str(out_dir),
        "cells": len(cells),
        "runs": len(cells) * spec.replicas,
        "runs_csv": str(runs_path),
        "summary_json": str(summary_path),
    }


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kmajority",
        description="Biased k-majority dynamics: simulator and mean-field analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("meanfield", formatter_class=fmt,
                       help="fixed points, regime, and optional mean-field orbit")
    p.add_argument("--k", type=int, required=True, help="sample size")
    p.add_argument("--p", type=_FINITE, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=_MODES, default="edge", help="bias mechanism")
    p.add_argument("--q0", type=_UNIT, default=None, help="initial value for the orbit")
    p.add_argument("--rounds", type=_COUNT, default=200, help="orbit length when --q0 is given")
    p.set_defaults(handler=_cmd_meanfield)

    p = sub.add_parser("critical", formatter_class=fmt,
                       help="critical bias p*_k and optionally p*_{k,q}")
    p.add_argument("--k", type=int, required=True, help="sample size (odd, >= 3)")
    p.add_argument("--q", type=_FINITE, default=None,
                   help="initial majority level in (1/2,1]")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="one seeded run; RunRecord JSON on stdout")
    p.add_argument("--graph", required=True,
                   help="complete:n=..., gnp:n=...,p=..., regular:n=...,d=..., or file:PATH")
    p.add_argument("--family", choices=[f.value for f in Family], default="kmaj",
                   help="update family")
    p.add_argument("--k", type=int, default=None, help="sample size (kmaj only)")
    p.add_argument("--p", type=_FINITE, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=_MODES, default="edge", help="bias mechanism")
    p.add_argument("--q", type=_UNIT, default=1.0, help="initial per-node R probability")
    p.add_argument("--seed", type=int, default=0, help="seed for graph, init, and rounds")
    p.add_argument("--max-rounds", type=int, default=None,
                   help="round cap (default: 10 ln n + 200)")
    p.add_argument("--trace", default=None, help="write per-round trace CSV here")
    p.add_argument("--phi-detail", action="store_true",
                   help="record per-round min/max R-neighbor fractions")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", formatter_class=fmt,
                       help="run a sweep config; writes runs.csv and summary.json")
    p.add_argument("--config", required=True, help="JSON sweep configuration file")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", formatter_class=fmt,
                       help="simulation vs mean-field orbit, per-round sup deviation")
    p.add_argument("--graph", required=True, help="graph spec string")
    p.add_argument("--k", type=int, required=True, help="sample size")
    p.add_argument("--p", type=_FINITE, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=_MODES, default="edge", help="bias mechanism")
    p.add_argument("--q0", type=_UNIT, default=1.0, help="initial per-node R probability")
    p.add_argument("--rounds", type=_COUNT, default=50, help="rounds to compare")
    p.add_argument("--gamma", type=_NON_NEGATIVE, default=_DEFAULT_GAMMA, help="tolerance band")
    p.add_argument("--seed", type=int, default=0, help="seed for graph, init, and rounds")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("graphgen", formatter_class=fmt,
                       help="materialize a graph spec into an edge-list file")
    p.add_argument("--spec", required=True, help="graph spec string")
    p.add_argument("--out", required=True, help="output edge-list path")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.set_defaults(handler=_cmd_graphgen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    steps = args.handler(args)
    started = False
    try:
        next(steps)  # the checks
        started = True
        _emit(next(steps))  # the work
        return 0
    except (MemoryError, OSError, RuntimeError, ValueError) as exc:
        _emit_error(str(exc) or type(exc).__name__)  # a bare MemoryError has no message
        # only a ValueError from the checks rejects the input
        return 2 if isinstance(exc, ValueError) and not started else 1


if __name__ == "__main__":
    raise SystemExit(main())
