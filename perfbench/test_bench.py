"""Self-tests of the benchmark: span arithmetic, tail rank, gate, tracer.

    python3 -m pytest -q perfbench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 12]
    # (outliving the root); [1, 4] has a grandchild [2, 3].
    spans = [
        (0, 1, 0, "fisher.rld", 1.0, 4.0),
        (0, 3, 1, "kernel.eigh", 2.0, 3.0),
        (0, 2, 0, "linalg.spabs", 3.0, 6.0),
        (0, 4, 0, "io.encode_matrix", 8.0, 12.0),
        (0, 0, -1, tracing.BENCH_ROOT, 0.0, 10.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_layer_metrics_account_for_root_time():
    spans = [
        (0, 1, 0, "fisher.rld_fisher", 1.0, 5.0),
        (0, 2, 1, "fisher.rld", 1.5, 3.0),
        (0, 3, 2, "kernel.eigh", 2.0, 2.5),
        (0, 0, -1, tracing.BENCH_ROOT, 0.0, 6.0),
        (1, 5, 4, "kernel.eigh", 7.0, 8.0),
        (1, 4, -1, tracing.BENCH_ROOT, 6.5, 9.0),
    ]
    m, self_sum, root_sum = tracing.layer_metrics(spans, {}, n_ops=2)
    assert self_sum == pytest.approx(root_sum) == pytest.approx(8.5)
    assert m["kernel.eigh.calls_per_op"] == 1.0
    assert m["kernel.eigh.self_ms_per_op"] == pytest.approx(750.0)
    assert m["fisher.rld.self_ms_per_op"] == pytest.approx(500.0)
    assert m["fisher.self_share"] == pytest.approx(3.5 / 8.5)
    assert m["bench.self_share"] == pytest.approx(3.5 / 8.5)


def test_tail_rank():
    xs = list(range(1, 26))
    assert run.tail(xs) == (15, 60.0)  # 10 values lie above the 15th of 25
    assert run.tail([3, 1, 2]) == (3, 100.0)


# Class medians (ms) on the reference machine, as in workloads.py.
CLASS_MS = {
    "dense": {"d16_m1": 2, "d16_m2": 2, "d64_m2": 11, "d64_m1": 13, "d256_m2": 350, "d256_m1": 490},
    "cli": {"fisher_d16": 9, "reverse_d16": 11, "global": 12, "gaussian": 22, "fisher_d64": 95,
            "reverse_d64": 110, "fisher_d256": 1900, "reverse_d256": 2000},
}
HARD = {"dense": lambda w, i: i % w.cycle == workloads.DENSE_HARD_SLOT,
        "cli": lambda w, i: w.command(i)[1] == workloads.CLI_HARD_KEY}


def _p50_and_tail_classes(name, ms):
    """Classes holding op_p50_ms and op_tail_ms of a 20 s run with these class times."""
    w = workloads.WORKLOADS[name]()
    ops = [(ms[w.label(i)] * (1.0 + 1e-4 * i), w.label(i))
           for i in range(run.planned_ops(w, 20)) if not HARD[name](w, i)]
    rank = {d: lab for d, lab in ops}
    durations = sorted(rank)
    n = len(durations)
    middle = durations[(n - 1) // 2:n // 2 + 1]  # the one or two ranks the median takes
    return {rank[d] for d in middle}, rank[run.tail(durations)[0]]


@pytest.mark.parametrize("name, p50, tail, fast", [
    ("dense", "d256_m2", "d256_m1", ("d256_m1", "d256_m2")),
    ("cli", "reverse_d16", "reverse_d64", ("fisher_d256", "reverse_d256")),
])
def test_p50_and_tail_classes_do_not_depend_on_speed(name, p50, tail, fast):
    base = CLASS_MS[name]
    assert _p50_and_tail_classes(name, base) == ({p50}, tail)
    # The op count is planned from --seconds alone, so a faster program
    # times the same ops and the tail stays the same order statistic.
    for scaled in (
        {k: 0.4 * v if k in fast else v for k, v in base.items()},
        {k: 0.5 * v for k, v in base.items()},
        {k: 2.0 * v for k, v in base.items()},
    ):
        assert _p50_and_tail_classes(name, scaled) == ({p50}, tail)


def test_planned_ops_are_whole_cycles():
    for w in workloads.WORKLOADS.values():
        n = run.planned_ops(w, 20)
        assert n % w.cycle == 0 and n >= w.cycle


class _WrongRld:
    """A workload whose op returns a deliberately wrong J^R: ``scale`` times J^R, or times J^S."""

    def __init__(self, inner, scale, of="jr"):
        self.inner, self.scale, self.of = inner, scale, of
        self.refused = inner.refused

    def label(self, i):
        return self.inner.label(i)

    def op(self, i):
        out = self.inner.op(i)
        j = out[self.of]
        out["jr"] = type(j)(j.m, self.scale * j.real_part, self.scale * j.imag_part, j.kind)
        return out

    def check(self, i, result):
        return self.inner.check(i, result)


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    w = workloads.Dense()
    w.setup(7, tmp_path_factory.mktemp("dense"))
    return w


# m = 1: J^R scaled by 1.01 breaks J^KM <= J^R = input Fisher of the LRE.
# m = 2: the gate is J^R - J^S >= 0, which a J^R scaled up still meets; a
# J^R set to 0.99 J^S breaks it.
@pytest.mark.parametrize("slot, wrong", [
    (workloads.DENSE_CYCLE.index((16, 1)) + 1, (1.01, "jr")),
    (workloads.DENSE_CYCLE.index((64, 1)), (1.01, "jr")),
    (workloads.DENSE_CYCLE.index((16, 2)), (0.99, "js")),
])
def test_gate_passes_true_values_and_flags_wrong_rld(dense, slot, wrong):
    good = run.Loop(dense)
    good.run_op(slot)
    assert (good.attempted, good.failed, good.wrong) == (1, 0, 0)
    bad = run.Loop(_WrongRld(dense, *wrong))
    bad.run_op(slot)
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 1)
    assert bad.worst_ratio > 1.0


def test_hard_point_is_refused_not_wrong(dense):
    loop = run.Loop(dense)
    loop.run_op(workloads.DENSE_HARD_SLOT)
    assert (loop.failed, loop.wrong) == (1, 0)
    assert any(k.startswith("RldExistenceError") for k in loop.failures)


class _Raising:
    """A workload whose op raises ``exc`` on every index."""

    def __init__(self, inner, exc):
        self.inner, self.exc = inner, exc

    def op(self, i):
        raise self.exc

    def refused(self, i, exc):
        return self.inner.refused(i, exc)


def test_unexpected_raise_is_wrong(dense):
    import qig.errors

    rld_error = qig.errors.RldExistenceError(None, "RLD residual too large")
    ordinary = workloads.DENSE_CYCLE.index((256, 1))
    cases = [
        (dense, ordinary, rld_error),  # the known defect, but on an ordinary point
        (dense, workloads.DENSE_HARD_SLOT, np.linalg.LinAlgError("eigh did not converge")),
        (workloads.Verify(), 0, ValueError("suite raised")),
        (workloads.Certify(), 0, rld_error),
        (workloads.Cli(), 0, ValueError("cli raised")),  # slot 0 holds the kappa = 1e8 spec
    ]
    for inner, i, exc in cases:
        loop = run.Loop(_Raising(inner, exc))
        loop.run_op(i)
        assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1), (inner, exc)
        assert all(k.startswith("unexpected ") for k in loop.failures)
    loop = run.Loop(_Raising(dense, rld_error))
    loop.run_op(workloads.DENSE_HARD_SLOT)
    assert (loop.failed, loop.wrong) == (1, 0)
    loop = run.Loop(_Raising(workloads.Cli(), workloads.Refused("qig fisher exit 1")))
    loop.run_op(0)
    assert (loop.failed, loop.wrong) == (1, 0)


def test_gate_flags_wrong_certify_values():
    good = {"closed": 2.0, "oracle": 2.0 * (1 + 5e-4), "rld_div": 0.3, "integral": 0.3 + 5e-6,
            "two_point_kl": 0.3 + 5e-10}
    assert max(workloads.Certify().check(0, good)) <= 1.0
    assert max(workloads.Certify().check(0, dict(good, oracle=2.0 * 1.01))) > 1.0


def test_tracer_rebinds_imported_names_and_restores(dense):
    import qig.fisher
    import qig.harness
    import qig.reverse

    original = qig.fisher.rld_fisher
    eigh = np.linalg.eigh
    tracer = tracing.Tracer()
    with tracer:
        assert qig.fisher.rld_fisher is not original
        assert qig.harness.rld_fisher is qig.fisher.rld_fisher
        assert qig.reverse.rld_fisher is qig.fisher.rld_fisher
        tracer.root(0, dense.op, workloads.DENSE_CYCLE.index((16, 1)) + 1)
        np.linalg.eigh(np.eye(2))  # outside an op: not recorded
    assert qig.fisher.rld_fisher is original and qig.harness.rld_fisher is original
    assert np.linalg.eigh is eigh
    names = {s[3] for s in tracer.spans}
    assert {"fisher.rld_fisher", "fisher.rld", "kernel.eigh", "states.DensityMatrix",
            "reverse.validate_reverse_estimate", tracing.BENCH_ROOT} <= names
    m, self_sum, root_sum = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert self_sum == pytest.approx(root_sum, rel=1e-9)
    assert m["states.DensityMatrix.new_per_op"] == 2.0
    assert all(s[2] >= 0 for s in tracer.spans if s[3] != tracing.BENCH_ROOT)
