"""End-to-end benchmark of kmajority, driven through ``kmajority.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller: the workload's CLI calls (one round)
are issued one at a time, round after round, until ``--seconds`` have
passed, and every round is completed.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are host-normalised (see README.md): a fixed reference kernel is
timed every 25 ms between the workload's bytecodes, and each operation's
seconds are scaled by the kernel's nominal time over its measured time
around that operation.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import ctypes
import ctypes.util
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("bench") / "out"
SETUP_PROBES = 9
PROBE_SAMPLES = 20

# ---------------------------------------------------------------------------
# Host speed.  A reference kernel with three parts -- a pure-Python loop,
# a big-integer product and numpy sorts, no kmajority code -- runs from a
# SIGALRM handler every TICK_S seconds, between the bytecodes of whatever
# the process is doing.  A part's slowness is its measured over its nominal
# time (about 1 on the reference host, see README.md).  Host speed does not
# slow every kind of work alike, so each workload weighs the parts by the
# work it does: Python-level loops and small numpy arrays for the engine
# workloads, big integers for the mean field.  Set-up, mostly imports,
# weighs them equally.
# ---------------------------------------------------------------------------

TICK_S = 0.025
WINDOW_S = 0.25
NOMINAL_S = {"py": 270e-6, "int": 230e-6, "np": 200e-6}
WEIGHTS = {"sweep-complete-knee": (2, 0, 1), "critical-large-k": (0, 1, 0),
           "simulate-gnp": (2, 0, 1)}
SETUP_WEIGHTS = (1, 1, 1)
_SORT_INPUT = np.random.default_rng(20200730).random(4000)
_INT_A, _INT_B = 3 ** 10_000, 7 ** 5_646


def _kernel_py():
    acc = 0
    for i in range(3_000):
        acc += (i * i) % 7


def _kernel_int():
    _INT_A * _INT_B


def _kernel_np():
    for _ in range(6):
        np.sort(_SORT_INPUT)


_KERNEL = (("py", _kernel_py), ("int", _kernel_int), ("np", _kernel_np))


class HostMeter:
    """Samples the kernel on a timer; ``clock()`` is perf_counter minus
    the time spent sampling, so operations are timed without it."""

    def __init__(self) -> None:
        self.times: list[float] = []        # sample start, perf_counter
        self.parts: list[tuple[float, ...]] = []   # measured / nominal, per part
        self.kernel_s: list[float] = []     # raw time of one whole kernel
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        ratios = []
        for part, fn in _KERNEL:
            t = time.perf_counter()
            fn()
            ratios.append((time.perf_counter() - t) / NOMINAL_S[part])
        t1 = time.perf_counter()
        self.times.append(t0)
        self.parts.append(tuple(ratios))
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def slowness(self, lo: int, hi: int, weights) -> float:
        """Weighted sum over the parts of their mean slowness in samples lo:hi."""
        return sum(w * statistics.fmean(p[i] for p in self.parts[lo:hi])
                   for i, w in enumerate(weights))

    def factor(self, t0: float, t1: float, weights) -> float:
        """Normaliser for work done between perf_counter times t0 and t1,
        from the samples within WINDOW_S of it."""
        lo = min(bisect.bisect_left(self.times, t0 - WINDOW_S), len(self.times) - 1)
        hi = max(bisect.bisect_right(self.times, t1 + WINDOW_S), lo + 1)
        return sum(weights) / self.slowness(lo, hi, weights)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def fix_malloc_threshold() -> None:
    """Pin glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
    rises after large frees, and whether a freed graph is reused or kept
    then shifts peak RSS by a graph's size from run to run."""
    name = ctypes.util.find_library("c")
    if name is None:
        return
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 128 * 1024)     # M_MMAP_THRESHOLD


def import_package():
    src = ROOT / "src"
    if not (src / "kmajority" / "__init__.py").is_file():
        sys.exit(f"bench: no kmajority sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import kmajority.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"bench: imported kmajority from {cli.__file__}, not {src}")
    return cli, import_s


def make_inputs(workload: str, seed: int) -> list[list[str]]:
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload][0](seed, out)


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import the package, make the inputs, report ready;
    then sample the kernel, so the parent can normalise by this process's
    own host speed."""
    _, import_s = import_package()
    make_inputs(workload, seed)
    print(f"ready {import_s!r}", flush=True)
    meter = HostMeter()
    for _ in range(PROBE_SAMPLES):
        meter.sample()
    print(repr(sum(SETUP_WEIGHTS) / meter.slowness(0, PROBE_SAMPLES, SETUP_WEIGHTS)), flush=True)


def measure_setup(workload: str, seed: int):
    """Start SETUP_PROBES fresh processes, one after another, that import
    the package and make the inputs; time each from its start until it
    reports ready.  Returns normalised and raw medians, and the normalised
    median import time."""
    normalised, raw, imports = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path("bench") / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            if proc.wait() != 0 or not ready.startswith("ready "):
                sys.exit(f"bench: set-up probe failed: {ready}{rest}")
        f = float(rest)
        raw.append(t1 - t0)
        normalised.append((t1 - t0) * f)
        imports.append(float(ready.split()[1]) * f)
    return statistics.median(normalised), statistics.median(raw), statistics.median(imports)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def clear_package_caches() -> None:
    """Empty every lru_cache of the package, so each round starts as a
    fresh process would and all rounds do the same work."""
    for name, mod in list(sys.modules.items()):
        if not (name == "kmajority" or name.startswith("kmajority.")):
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                value.cache_clear()


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI call with stdout captured; an exception counts as a failure."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        code = 1
    return code, buf.getvalue()


def outputs_digest(stdouts: list[str], files: list[Path]) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    fix_malloc_threshold()
    cli, _ = import_package()
    argvs = make_inputs(args.workload, args.seed)
    _, check, files_of = workloads.WORKLOADS[args.workload]
    files = files_of(argvs)

    setup_s, raw_setup_s, import_s = measure_setup(args.workload, args.seed)
    meter = HostMeter()
    meter.start()

    tracer = spans.Tracer(meter.clock) if args.trace else None
    ops: list[tuple[int, bool, float, float, float]] = []  # (op, traced, raw s, t0, t1)
    first_out: list[str] = []
    first_digest = None
    failed = 0
    diverged = False
    start = time.perf_counter()
    rounds = 0
    # the traced run alternates untraced and traced rounds and needs one of each
    while rounds < 1 + args.trace or time.perf_counter() - start < args.seconds:
        clear_package_caches()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        outs = []
        for j, argv in enumerate(argvs):
            if traced:
                tracer.op = len(ops)
            t0, c0 = time.perf_counter(), meter.clock()
            code, text = call(cli, argv)
            c1, t1 = meter.clock(), time.perf_counter()
            ops.append((j, traced, c1 - c0, t0, t1))
            failed += code != 0
            outs.append(text)
        if traced:
            tracer.uninstall()
        digest = outputs_digest(outs, files) if not failed else None
        if rounds == 0:
            first_out, first_digest = outs, digest
        elif digest != first_digest:
            diverged = True
        rounds += 1
    meter.stop()
    weights = WEIGHTS[args.workload]
    factors = [meter.factor(t0, t1, weights) for _, _, _, t0, t1 in ops]
    (OUT / args.workload / f"samples-seed{args.seed}.json").write_text(json.dumps(
        {"ops": ops, "times": meter.times, "parts": meter.parts}))

    problems = []
    if failed:
        problems.append(f"{failed} of {len(ops)} CLI calls failed")
    elif diverged:
        problems.append("a round's outputs differ from the first round's")
    else:
        docs = [json.loads(text) for text in first_out]
        problems = check(args.seed, argvs, docs, OUT / args.workload)
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(f"outputs_sha256 {first_digest}", file=sys.stderr)

    def wall(traced: bool, normalise: bool) -> float:
        """Sum over the round's operations of each one's median time."""
        per_op: dict[int, list[float]] = {}
        for (j, tr, dt, _, _), f in zip(ops, factors):
            if tr == traced:
                per_op.setdefault(j, []).append(dt * f if normalise else dt)
        return sum(statistics.median(v) for v in per_op.values())

    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, factors, rounds // 2)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["raw.setup_s"] = (raw_setup_s, "s")
        metrics["raw.wall_s"] = (wall(False, False), "s")
        metrics["ref.kernel_s"] = (statistics.median(meter.kernel_s), "s")
        metrics["trace.overhead_s"] = (wall(True, True) - wall(False, True), "s")
        tracer.write(OUT / args.workload / f"spans-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall(False, True), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    for j, argv in enumerate(argvs):
        ts = [dt * f for (jj, tr, dt, _, _), f in zip(ops, factors) if jj == j and not tr]
        print(f"op {j}: {statistics.median(ts):.4f} s  {' '.join(argv)}", file=sys.stderr)
    print(f"{rounds} rounds, {len(meter.times)} kernel samples, "
          f"raw setup {raw_setup_s:.4f} s, raw wall {wall(False, False):.4f} s", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
