"""In-memory span tracer installed around the library from outside it.

Each traced function is replaced by a wrapper that records one span
(op id, span id, parent id, name, start, end).  The wrapper is bound in
every ``qig`` module namespace that holds the original object, so names
imported with ``from ... import`` are traced too; classes are traced by
wrapping ``__init__`` and methods in place.  ``numpy.linalg.eigh`` and
``eigvalsh`` are the ``kernel`` layer.  ``qig.reverse.minimize`` is
wrapped for counts only (calls and function evaluations), so its time
stays in the oracle's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> traced names.  "Class" traces construction, "Class.method" a method.
LAYERS = {
    "linalg": ["eig_hermitian", "matrix_function", "solve_lyapunov", "spabs"],
    "states": ["DensityMatrix", "FamilyPoint", "DensityMatrix.func"],
    "fisher": ["sld_fisher", "rld_fisher", "rld", "classical_fisher"],
    "harness": [
        "monotone_metric_suite", "monotone_divergence_suite", "km_fisher",
        "gaussian_family", "gaussian_check",
    ],
    "channels": [
        "random_density", "random_family_point", "random_kraus", "random_povm",
        "measure", "apply_channel", "optimal_sld_povm",
    ],
    "reverse": [
        "local_reverse_estimate", "validate_reverse_estimate", "global_commutation_check",
        "global_reverse_estimate", "restricted_input_fisher", "multiparam_bounds",
        "min_trace_oracle",
    ],
    "divergence": ["umegaki", "rld_divergence", "rld_divergence_integral", "two_point_reverse_estimate"],
    "families": ["build_family"],
    "io": ["load_family_spec", "spec_digest", "encode_matrix", "qfisher_to_json", "suite_report_to_json"],
    "cli": ["main"],
}
KERNEL = ["eigh", "eigvalsh"]
BENCH_ROOT = "bench.op"


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [f"kernel.{fn}" for fn in KERNEL]


class Tracer:
    """Collects spans in memory; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an op (set-up, checks): not recorded
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))

        return traced

    def root(self, op: int, fn, *args):
        """Run one op under its root span; library spans are recorded only inside one."""
        self.op = op
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((op, sid, -1, BENCH_ROOT, t0, t1))

    def _count_minimize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["reverse.min_trace_oracle.minimize_calls"] += 1
            counts["reverse.min_trace_oracle.nfev"] += int(getattr(res, "nfev", 0))
            return res

        return counted

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in the loaded qig modules."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qig" or modname.startswith("qig.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)
                    hits += 1
        return hits

    def install(self):
        import importlib

        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"qig.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                cls_name, _, meth = fn.partition(".")
                obj = getattr(mod, cls_name)
                if isinstance(obj, type):
                    attr = meth or "__init__"
                    self._set(obj, attr, self.wrap(name, getattr(obj, attr)))
                elif not self._rebind(obj, self.wrap(name, obj)):
                    raise RuntimeError(f"no binding of {name} found")
        for fn in KERNEL:
            self._set(np.linalg, fn, self.wrap(f"kernel.{fn}", getattr(np.linalg, fn)))
        rev = importlib.import_module("qig.reverse")
        self._set(rev, "minimize", self._count_minimize(rev.minimize))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start,end\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{t0!r},{t1!r}\n")


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to the parent's interval before the union, so a
    child that overlaps another or outlives its parent is counted once.
    """
    children = defaultdict(list)
    for _, sid, parent, _, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for _, sid, _, _, t0, t1 in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, counts, n_ops: int) -> tuple[dict, float, float]:
    """Per-function calls and self ms per op, and per-layer self shares.

    Returns (metrics, summed self seconds, summed root-span seconds); the
    two sums agree when the span tree is consistent.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    root_s = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        if parent < 0:
            root_s += t1 - t0
    total_self = sum(self_s.values())
    per_op = max(n_ops, 1)
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls_per_op"] = calls[name] / per_op
        metrics[f"{name}.self_ms_per_op"] = 1e3 * self_s[name] / per_op
    layer_self = defaultdict(float)
    for name, s in self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    for layer in [*LAYERS, "kernel", "bench"]:
        metrics[f"{layer}.self_share"] = layer_self[layer] / root_s if root_s > 0 else 0.0
    metrics["states.DensityMatrix.new_per_op"] = calls["states.DensityMatrix"] / per_op
    for key in ("minimize_calls", "nfev"):
        metrics[f"reverse.min_trace_oracle.{key}_per_op"] = (
            counts.get(f"reverse.min_trace_oracle.{key}", 0.0) / per_op
        )
    return metrics, total_self, root_s
