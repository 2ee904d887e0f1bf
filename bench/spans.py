"""In-memory span tracing of kmajority's public functions.

Each traced function is replaced, at every module attribute that holds it,
by a wrapper that records one span: (name, parent span, start, end, op,
outermost, extra).  Calls between layers go through those attributes
(``experiments.run``, ``cli.generate``, ``dynamics.binom_pmf`` ...), so the
spans nest the way the calls do.  ``outermost`` is False for a call made
inside a span of the same name (node-mode ``fixed_points`` calls itself),
so inclusive times do not count recursion twice.
"""

from __future__ import annotations

import functools
import json
import sys

# Public functions traced, by layer.  Each metric in the README is derived
# from the spans of these names.
TRACED = {
    "cli": ("main",),
    "graph": ("generate",),
    "dynamics": ("run", "step", "init_random", "r_neighbor_counts"),
    "meanfield": ("binom_pmf", "binom_tail_geq", "eval_F", "eval_dF", "fixed_points",
                  "critical_bias_k", "critical_bias_kq", "trajectory"),
    "experiments": ("run_sweep", "write_runs_csv", "write_summary_json",
                    "meanfield_comparison"),
}


def _csr_bytes(args, result) -> int:
    return int(result.neighbors.nbytes + result.offsets.nbytes + result.degrees.nbytes)


def _nodes(args, result) -> int:
    return int(args[0].n)


def _cells(args, result) -> int:
    return len(result)


# What a span records beyond its times: the graph's CSR bytes, the nodes a
# round updated, the cells a sweep ran.
_EXTRA = {
    "graph.generate": _csr_bytes,
    "dynamics.step": _nodes,
    "experiments.run_sweep": _cells,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kmajority" or name.startswith("kmajority."))]


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the operation
    (one CLI call) they belong to, ``clock`` gives their times."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        extra_of = _EXTRA.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            stack.append(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                extra = extra_of(args, result) if extra_of and result is not None else 0
                spans[sid] = (name, parent, t0, t1, self.op, outermost, extra)

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"kmajority.{layer}"]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def layer_metrics(spans: list[tuple], factors: list[float], rounds: int) -> dict:
    """Per-round counts and host-normalised times from finished spans.

    ``factors[op]`` scales the raw seconds of operation ``op``; every
    figure is divided by the number of traced rounds.
    """
    children = [0.0] * len(spans)
    for name, parent, t0, t1, op, _, _ in spans:
        if parent >= 0:
            children[parent] += (t1 - t0) * factors[op]
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    extra_sum: dict[str, int] = {}
    extra_max: dict[str, int] = {}
    for sid, (name, parent, t0, t1, op, outermost, extra) in enumerate(spans):
        dur = (t1 - t0) * factors[op]
        calls[name] = calls.get(name, 0) + 1
        if outermost:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - children[sid]
        extra_sum[name] = extra_sum.get(name, 0) + extra
        extra_max[name] = max(extra_max.get(name, 0), extra)

    def n(name):
        return calls.get(name, 0) // rounds

    def s(*names):
        return sum(inclusive.get(x, 0.0) for x in names) / rounds

    step_s = s("dynamics.step")
    node_updates = extra_sum.get("dynamics.step", 0) // rounds
    m = {
        "cli.main_calls": (n("cli.main"), "count"),
        "cli.self_s": (self_s.get("cli", 0.0) / rounds, "s"),
        "graph.generate_calls": (n("graph.generate"), "count"),
        "graph.generate_s": (s("graph.generate"), "s"),
        "graph.csr_mb": (extra_max.get("graph.generate", 0) / 2**20, "MiB"),
        "dynamics.run_calls": (n("dynamics.run"), "count"),
        "dynamics.run_s": (s("dynamics.run"), "s"),
        "dynamics.step_calls": (n("dynamics.step"), "count"),
        "dynamics.step_us": (1e6 * step_s / n("dynamics.step") if n("dynamics.step") else 0.0, "us"),
        "dynamics.node_updates_per_s": (node_updates / step_s if step_s else 0.0, "1/s"),
        "dynamics.init_random_s": (s("dynamics.init_random"), "s"),
        "dynamics.r_neighbor_counts_calls": (n("dynamics.r_neighbor_counts"), "count"),
        "dynamics.r_neighbor_counts_s": (s("dynamics.r_neighbor_counts"), "s"),
        "dynamics.self_s": (self_s.get("dynamics", 0.0) / rounds, "s"),
        "meanfield.binom_pmf_calls": (n("meanfield.binom_pmf"), "count"),
        "meanfield.binom_tail_geq_calls": (n("meanfield.binom_tail_geq"), "count"),
        "meanfield.eval_F_calls": (n("meanfield.eval_F"), "count"),
        "meanfield.eval_dF_calls": (n("meanfield.eval_dF"), "count"),
        "meanfield.fixed_points_calls": (n("meanfield.fixed_points"), "count"),
        "meanfield.fixed_points_s": (s("meanfield.fixed_points"), "s"),
        "meanfield.critical_bias_k_s": (s("meanfield.critical_bias_k"), "s"),
        "meanfield.critical_bias_kq_s": (s("meanfield.critical_bias_kq"), "s"),
        "meanfield.trajectory_s": (s("meanfield.trajectory"), "s"),
        "meanfield.self_s": (self_s.get("meanfield", 0.0) / rounds, "s"),
        "experiments.run_sweep_s": (s("experiments.run_sweep"), "s"),
        "experiments.cells": (extra_sum.get("experiments.run_sweep", 0) // rounds, "count"),
        "experiments.write_s": (s("experiments.write_runs_csv", "experiments.write_summary_json"), "s"),
        "experiments.meanfield_comparison_s": (s("experiments.meanfield_comparison"), "s"),
        "experiments.self_s": (self_s.get("experiments", 0.0) / rounds, "s"),
    }
    return m
