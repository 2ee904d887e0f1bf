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
(runtime failure).  All randomness derives from the --seed flag (or the
config's base_seed), never from the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import jsonschema

from kmajority.dynamics import (
    DynamicsParams,
    Family,
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
from kmajority.graph import (
    GraphFormatError,
    density_report,
    generate,
    parse_graph_spec,
    save_edge_list,
)
from kmajority.meanfield import (
    DEFAULT_TOL,
    BiasMode,
    MeanFieldParams,
    critical_bias_k,
    critical_bias_kq,
    fixed_points,
    trajectory,
)

_DEFAULT_GAMMA = 0.02


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as machine-readable JSON on stderr."""

    def error(self, message):  # noqa: A003 - argparse API
        _emit_error(message)
        raise SystemExit(2)


def _emit_error(message: str) -> None:
    json.dump({"schema": 1, "error": str(message)}, sys.stderr)
    sys.stderr.write("\n")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# meanfield / critical
# ---------------------------------------------------------------------------


def _cmd_meanfield(args) -> int:
    params = MeanFieldParams(args.k, args.p, BiasMode(args.mode))
    doc = {"schema": 1, "k": args.k, "p": args.p, "mode": args.mode,
           "tolerance": args.tol}
    if args.k % 2 == 1:
        if args.k == 1:
            raise ValueError("k = 1 (voter) has a linear map with no nontrivial fixed points")
        fp = fixed_points(params, tol=args.tol)
        doc.update({
            "regime": fp.regime.value,
            "roots": fp.roots(),
            "phi_minus": fp.phi_minus,
            "phi_plus": fp.phi_plus,
            "mu": fp.mu,
        })
    elif args.q0 is None:
        raise ValueError(
            "fixed-point solving requires odd k; for even k give --q0 to get the orbit"
        )
    if args.q0 is not None:
        orbit = trajectory(params, args.q0, args.rounds)
        doc["trajectory"] = {"q0": args.q0, "rounds": args.rounds, "values": orbit.values}
    _emit(doc)
    return 0


def _cmd_critical(args) -> int:
    if args.q is None:
        cv = critical_bias_k(args.k, tol=args.tol)
    else:
        cv = critical_bias_kq(args.k, args.q, tol=args.tol)
    _emit({
        "schema": 1,
        "k": cv.k,
        "q": cv.q,
        "p_star_k": cv.p_star_k,
        "p_star_kq": cv.p_star_kq,
        "tolerance": cv.tolerance,
    })
    return 0


# ---------------------------------------------------------------------------
# simulate / compare / graphgen
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    params = DynamicsParams(family=Family(args.family), p=args.p, mode=BiasMode(args.mode),
                            seed=args.seed, k=args.k, max_rounds=args.max_rounds)
    spec = parse_graph_spec(args.graph, seed=args.seed)
    graph = generate(spec)
    config0 = init_random(graph, args.q, args.seed)
    record = run(graph, config0, params, record_phi=args.phi_detail)
    report = density_report(graph)
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
            "min_degree": report.min_degree,
            "density_warning": report.warning,
        },
    }
    if args.trace:
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
    _emit(doc)
    return 0


def _cmd_compare(args) -> int:
    spec = parse_graph_spec(args.graph, seed=args.seed)
    graph = generate(spec)
    params = DynamicsParams(family=Family.KMAJORITY, p=args.p, mode=BiasMode(args.mode),
                            seed=args.seed, k=args.k)
    report = meanfield_comparison(graph, params, args.q0, args.rounds, args.gamma)
    _emit({
        "schema": 1,
        "pass": report.passed,
        "gamma": report.gamma,
        "q0": report.q0,
        "rounds": args.rounds,
        "deviations": report.deviations,
        "mean_field": report.mean_field,
        "rounds_passed": report.rounds_passed,
        "k": args.k,
        "p": args.p,
        "mode": args.mode,
        "graph": spec.label(),
        "seed": args.seed,
    })
    return 0


def _cmd_graphgen(args) -> int:
    spec = parse_graph_spec(args.spec, seed=args.seed)
    graph = generate(spec)
    save_edge_list(graph, args.out)
    _emit({"schema": 1, "path": str(args.out), "n": graph.n, "edges": graph.edge_count})
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_SCHEMA = {
    "type": "object",
    "required": ["graph", "p_grid", "q_grid", "replicas", "base_seed", "out"],
    "additionalProperties": False,
    "properties": {
        "schema": {"type": "integer"},
        "graph": {"type": "string"},
        "graph_seed": {"type": "integer", "minimum": 0},
        "family": {"enum": [f.value for f in Family]},
        "mode": {"enum": [m.value for m in BiasMode]},
        "k": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "p_grid": {
            "oneOf": [
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                {
                    "type": "object",
                    "required": ["min", "max", "steps"],
                    "additionalProperties": False,
                    "properties": {
                        "min": {"type": "number", "minimum": 0, "maximum": 1},
                        "max": {"type": "number", "minimum": 0, "maximum": 1},
                        "steps": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
        "q_grid": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
        },
        "replicas": {"type": "integer", "minimum": 1},
        "max_rounds": {"type": "integer", "minimum": 0},
        "base_seed": {"type": "integer", "minimum": 0},
        "share_graph": {"type": "boolean"},
        "out": {"type": "string"},
    },
}


def _json_pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


def _expand_p_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, list):
        return tuple(float(p) for p in raw)
    lo, hi, steps = raw["min"], raw["max"], raw["steps"]
    if steps == 1:
        return (float(lo),)
    stride = (hi - lo) / (steps - 1)
    return tuple(lo + i * stride for i in range(steps))


def load_sweep_config(path: str | Path) -> tuple[SweepSpec, Path]:
    """Parse and validate a sweep config file into a SweepSpec and out dir."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    validator = jsonschema.Draft202012Validator(_SWEEP_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        details = "; ".join(f"{_json_pointer(e)}: {e.message}" for e in errors)
        raise ValueError(f"sweep config invalid: {details}")
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


def _cmd_sweep(args) -> int:
    spec, out_dir = load_sweep_config(args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = run_sweep(spec)
    runs_path = out_dir / "runs.csv"
    summary_path = out_dir / "summary.json"
    write_runs_csv(cells, runs_path)
    write_summary_json(spec, cells, summary_path)
    _emit({
        "schema": 1,
        "out": str(out_dir),
        "cells": len(cells),
        "runs": sum(c.replicas for c in cells),
        "runs_csv": str(runs_path),
        "summary_json": str(summary_path),
    })
    return 0


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
    p.add_argument("--p", type=float, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=["edge", "node"], default="edge", help="bias mechanism")
    p.add_argument("--q0", type=float, default=None, help="initial value for the orbit")
    p.add_argument("--rounds", type=int, default=200, help="orbit length when --q0 is given")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance")
    p.set_defaults(handler=_cmd_meanfield)

    p = sub.add_parser("critical", formatter_class=fmt,
                       help="critical bias p*_k and optionally p*_{k,q}")
    p.add_argument("--k", type=int, required=True, help="sample size (odd, >= 3)")
    p.add_argument("--q", type=float, default=None, help="initial majority level in (1/2,1]")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="one seeded run; RunRecord JSON on stdout")
    p.add_argument("--graph", required=True,
                   help="complete:n=..., gnp:n=...,p=..., regular:n=...,d=..., or file:PATH")
    p.add_argument("--family", choices=["kmaj", "voter", "det"], default="kmaj",
                   help="update family")
    p.add_argument("--k", type=int, default=None, help="sample size (kmaj only)")
    p.add_argument("--p", type=float, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=["edge", "node"], default="edge", help="bias mechanism")
    p.add_argument("--q", type=float, default=1.0, help="initial per-node R probability")
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
    p.add_argument("--p", type=float, required=True, help="bias strength in [0,1]")
    p.add_argument("--mode", choices=["edge", "node"], default="edge", help="bias mechanism")
    p.add_argument("--q0", type=float, default=1.0, help="initial per-node R probability")
    p.add_argument("--rounds", type=int, default=50, help="rounds to compare")
    p.add_argument("--gamma", type=float, default=_DEFAULT_GAMMA, help="tolerance band")
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
    try:
        return args.handler(args)
    except GraphFormatError as exc:
        _emit_error(str(exc))
        return 1
    except ValueError as exc:
        _emit_error(str(exc))
        return 2
    except (OSError, RuntimeError) as exc:
        _emit_error(str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
