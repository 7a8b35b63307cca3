#!/usr/bin/env python3
"""qig benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  BLAS is pinned to one thread in this process's environment.
A run times a fixed number of whole cycles of the workload's input
classes, as many as fill ``--seconds`` at the workload's baseline cycle
time; each op is gated on a correctness check.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
op once traced and once untraced and prints the per-layer metrics.  The
last stdout line is the result object; the line before it gives the
environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

# Set before numpy is first imported (by the workloads), and inherited by
# the import probes.
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it
ACCOUNTING_TOL = 0.01  # summed self times may miss this share of the traced op time


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_probe() -> float:
    """Wall time of a fresh interpreter importing the whole library."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import qig.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": PINNED_THREADS,
    }


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it.

    With TAIL_BEYOND ops or fewer there is no such percentile; the
    maximum is reported as the 100th percentile.
    """
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND  # 1-based rank of the value with TAIL_BEYOND above it
    return xs[k - 1], 100.0 * k / n


def planned_ops(workload, seconds: float) -> int:
    """Ops of one run: whole cycles, as many as fill ``seconds`` at the baseline cycle time.

    The count depends on ``--seconds`` only, not on how fast the program
    is, so every run and every commit times the same ops and the tail is
    always the same order statistic of the same input class.
    """
    return max(1, round(seconds / workload.cycle_s)) * workload.cycle


def run_ops(n: int, step) -> float:
    """Call ``step(0)`` .. ``step(n - 1)`` one after another; returns the wall time."""
    start = time.perf_counter()
    for i in range(n):
        step(i)
    return time.perf_counter() - start


class Loop:
    """Closed loop over one workload: op, then its check, then the next op."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.durations: list[float] = []  # completed ops only
        self.all_durations: list[float] = []
        self.failures = Counter()
        self.worst_ratio = 0.0
        self.io_bytes = [0, 0]
        self.by_class = defaultdict(list)  # completed op durations per input class

    def run_op(self, i: int, op=None) -> None:
        """Run op i (``op`` defaults to the workload's own) and gate it on its check.

        An op that raises is failed; unless the workload names the raise
        as an expected refusal, it is also wrong.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = (op or self.w.op)(i)
        except Exception as exc:
            self.all_durations.append(time.perf_counter() - t0)
            self.failed += 1
            cause = f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0][:80]}"
            if not self.w.refused(i, exc):
                self.wrong += 1
                cause = f"unexpected {cause}"
            self.failures[cause] += 1
            return
        dt = time.perf_counter() - t0
        self.all_durations.append(dt)
        if hasattr(self.w, "io_bytes"):
            spec, report = self.w.io_bytes(i, result)
            self.io_bytes[0] += spec
            self.io_bytes[1] += report
        ratios = self.w.check(i, result)
        worst = max(ratios, default=0.0)
        self.worst_ratio = max(self.worst_ratio, worst)
        if worst > 1.0:
            self.failed += 1
            self.wrong += 1
            self.failures["check failed"] += 1
        else:
            self.durations.append(dt)
            self.by_class[self.w.label(i)].append(dt)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, args, workdir: Path) -> tuple[dict, dict, list[Loop]]:
    probes = [import_probe() for _ in range(SETUP_REPEATS)]
    builds = []
    for k in range(SETUP_REPEATS):
        sub = workdir / f"setup{k}"
        sub.mkdir()
        t0 = time.perf_counter()
        workload.setup(args.seed, sub)
        builds.append(time.perf_counter() - t0)
    loop = Loop(workload)
    wall = run_ops(planned_ops(workload, args.seconds), loop.run_op)
    done = len(loop.durations)
    if done == 0:
        raise RuntimeError(f"no op completed: {dict(loop.failures)}")
    tail_s, tail_pct = tail(loop.durations)
    metrics = {
        "setup_s": metric(statistics.median(probes) + statistics.median(builds), "s"),
        "ops_per_s": metric(done / sum(loop.all_durations), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(loop.durations), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "ok_ratio": metric(done / loop.attempted, "ratio"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    details = {
        "op_tail_ms": {"percentile": tail_pct, "completed_ops": done},
        "setup": {"import_probes_s": probes, "builds_s": builds},
        "loop_wall_s": wall,
        "class_ms": {k: [len(v), 1e3 * statistics.median(v)] for k, v in sorted(loop.by_class.items())},
        "checks.worst_ratio": loop.worst_ratio,
    }
    return metrics, details, [loop]


def measure_traced(workload, args, workdir: Path) -> tuple[dict, dict, list[Loop]]:
    import tracing

    workload.setup(args.seed, workdir)
    tracer = tracing.Tracer()
    traced, plain = Loop(workload), Loop(workload)

    def run_traced(i):
        with tracer:
            traced.run_op(i, lambda i: tracer.root(i, workload.op, i))

    def step(i):
        # Each op runs once traced and once untraced, in alternating order,
        # so both passes see the same phases of machine load.
        pair = (run_traced, plain.run_op) if i % 2 == 0 else (plain.run_op, run_traced)
        for run in pair:
            run(i)

    run_ops(planned_ops(workload, args.seconds), step)
    n = traced.attempted
    layer, self_sum, root_sum = tracing.layer_metrics(tracer.spans, tracer.counts, n)
    traced_s = sum(traced.all_durations)  # op time as the loop measured it
    if abs(self_sum - traced_s) > ACCOUNTING_TOL * traced_s:
        raise RuntimeError(f"summed self times {self_sum!r} s do not account for traced op time {traced_s!r} s")
    untraced = sum(plain.all_durations)
    layer["io.spec_bytes_per_op"] = traced.io_bytes[0] / n
    layer["io.report_bytes_per_op"] = traced.io_bytes[1] / n
    layer["checks.worst_ratio"] = max(traced.worst_ratio, plain.worst_ratio)
    layer["trace.overhead_ratio"] = traced_s / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.csv"
    tracer.write(spans_path)
    metrics = {name: metric(value, UNITS[name.rsplit(".", 1)[-1]]) for name, value in layer.items()}
    details = {
        "traced_ops": n,
        "traced_op_s": traced_s,
        "root_span_s": root_sum,
        "summed_self_s": self_sum,
        "untraced_op_s": untraced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details, [traced, plain]


UNITS = {
    "calls_per_op": "calls/op",
    "self_ms_per_op": "ms/op",
    "self_share": "share",
    "new_per_op": "calls/op",
    "minimize_calls_per_op": "calls/op",
    "nfev_per_op": "calls/op",
    "spec_bytes_per_op": "bytes/op",
    "report_bytes_per_op": "bytes/op",
    "worst_ratio": "ratio",
    "overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qig" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a qig source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = measure_traced if args.trace else measure
        metrics, details, loops = run(workload, args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(
        workload=args.workload,
        trace=args.trace,
        env=environment(args.seed),
        failures=dict(sum((loop.failures for loop in loops), Counter())),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": all(loop.wrong == 0 for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
