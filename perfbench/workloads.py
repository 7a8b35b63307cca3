"""The four benchmark workloads and the correctness gate of each op.

Every workload follows one protocol:

* ``setup(seed, workdir)`` builds the inputs from the seed (a pool of
  plain arrays, spec files, library reference values) and warms up;
* ``op(i)`` is the timed unit of work, calling the library through its
  module attributes (``qig.fisher.sld_fisher``) so a tracer installed
  later sees every call;
* ``check(i, result)`` returns error/tolerance ratios, one per check;
  the op fails when any ratio exceeds 1;
* ``refused(i, exc)`` says whether a raise from op i is the known,
  expected refusal (failed, not wrong); any other raise is a wrong op.

``cycle`` is the number of ops in one cycle of input classes and
``cycle_s`` the cycle's wall time on the reference machine, from which a
run's fixed op count is planned.  The tolerances below are the ones the
library and its tests enforce at the time the benchmark was written;
they are copied here, not read from the library, so a change to the
library cannot loosen its own gate.  Absolute tolerances are applied to
``max(1, |reference|)`` so that they stay meaningful for the large
Fisher values of ill-conditioned states.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import sys
from pathlib import Path

import numpy as np
import qig.cli
import qig.divergence
import qig.errors
import qig.families
import qig.fisher
import qig.harness
import qig.reverse
import qig.states

import inputs

SLACK_TOL = 1e-8  # METRIC_SLACK_TOL of the randomized suites
TWO_POINT_TOL = 1e-9  # criterion 05: two-point KL equals D^R
INTEGRAL_TOL = 1e-5  # criterion 05: integral form matches the closed form
ORACLE_REL_TOL = 1e-3  # criterion 08: min-trace oracle matches the closed form
CLI_EQ_TOL = 1e-12  # CLI report values equal the library values (relative)
INTEGRAL_STEPS = 4000
SUITE_TRIALS = 200


def _scaled(err: float, tol: float, ref: float) -> float:
    return max(0.0, float(err)) / (tol * max(1.0, abs(float(ref))))


class Refused(Exception):
    """The program declined the input (non-zero CLI exit matching the library)."""


def _no_refusals(self, i: int, exc: Exception) -> bool:
    return False


# --- verify --------------------------------------------------------------


class Verify:
    """Both randomized suites at 200 trials on d in {2, 3}: what `qig monotone` runs."""

    name = "verify"
    cycle = 1
    cycle_s = 0.8
    refused = _no_refusals

    def setup(self, seed: int, workdir: Path) -> None:
        self.base = seed * 1_000_003
        qig.harness.monotone_metric_suite(2, (2, 3), self.base - 7)
        qig.harness.monotone_divergence_suite(2, (2, 3), self.base - 6)

    def label(self, i: int) -> str:
        return "suites"

    def op(self, i: int):
        s = self.base + 2 * i
        met = qig.harness.monotone_metric_suite(SUITE_TRIALS, (2, 3), s)
        div = qig.harness.monotone_divergence_suite(SUITE_TRIALS, (2, 3), s + 1)
        return met, div

    def check(self, i: int, result) -> list[float]:
        ratios = []
        for rep in result:
            ratios.append(0.0 if rep.passed else float("inf"))
            ratios.extend(max(0.0, -lo) / SLACK_TOL for lo, _ in rep.slack_range.values())
        return ratios


# --- dense ---------------------------------------------------------------

# One cycle of (d, m) classes; slot DENSE_HARD_SLOT draws its point at
# KAPPA_HARD.  Measured class medians: d = 16 about 2 ms, (64, 2) 11 ms,
# (64, 1) 13 ms, (256, 2) 350 ms, (256, 1) 490 ms.  A 20 s run is 3 cycles
# (57 completed ops): op_p50_ms, rank 29, falls inside the 24 (256, 2) ops
# (ranks 13..36) and the tail, the 11th largest, inside the 21 (256, 1) ops.
# Both lie in d = 256 classes on purpose: on the reference machine the
# host's speed drifts, and ops of a few milliseconds drift about 1.5 times
# as much as the BLAS-bound d = 256 ops (NOTES.md).
DENSE_CYCLE = (
    [(16, 1)] * 2 + [(16, 2), (64, 1), (64, 2)]
    + [(256, 2)] * 8 + [(256, 1)] * 7
)
DENSE_HARD_SLOT = 0
assert len(DENSE_CYCLE) == inputs.KAPPA_HARD_EVERY


class Dense:
    """One large dense family point per op: Fisher, reverse and divergences at d up to 256."""

    name = "dense"
    cycle = len(DENSE_CYCLE)
    cycle_s = 6.5

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.pool = []
        for slot, (d, m) in enumerate(DENSE_CYCLE):
            kappa = inputs.KAPPA_HARD if slot == DENSE_HARD_SLOT else inputs.draw_kappa(rng)
            rho = inputs.conditioned_state(d, kappa, rng)
            sigma = inputs.conditioned_state(d, inputs.draw_kappa(rng), rng)
            xs = [inputs.traceless_tangent(d, rng) for _ in range(m)]
            self.pool.append((m, rho, sigma, xs))
        self.op(DENSE_CYCLE.index((16, 2)))  # warm-up on a small ordinary point

    def label(self, i: int) -> str:
        d, m = DENSE_CYCLE[i % len(DENSE_CYCLE)]
        return f"d{d}_m{m}"

    def op(self, i: int) -> dict:
        m, rho_a, sigma_a, xs = self.pool[i % len(self.pool)]
        rho = qig.states.DensityMatrix(rho_a)
        point = qig.states.FamilyPoint(np.zeros(m), rho, xs)
        out = {"m": m, "js": qig.fisher.sld_fisher(point), "jr": qig.fisher.rld_fisher(point)}
        if m == 1:
            out["jkm"] = qig.harness.km_fisher(point)
            lre = qig.reverse.local_reverse_estimate(point)
            out["lre"] = qig.reverse.validate_reverse_estimate(lre, point)
        else:
            out["bounds"] = qig.reverse.multiparam_bounds(out["jr"], np.eye(m))
        sigma = qig.states.DensityMatrix(sigma_a)
        out["umegaki"] = qig.divergence.umegaki(rho, sigma)
        out["rld_div"] = qig.divergence.rld_divergence(rho, sigma)
        out["two_point_kl"] = qig.divergence.two_point_reverse_estimate(rho, sigma).input_kl()
        return out

    def check(self, i: int, r: dict) -> list[float]:
        return check_dense(r)

    def refused(self, i: int, exc: Exception) -> bool:
        """Only the known rld() defect on the kappa = 1e8 slot is a refusal."""
        return i % self.cycle == DENSE_HARD_SLOT and isinstance(exc, qig.errors.RldExistenceError)


def check_dense(r: dict) -> list[float]:
    """Sandwich, LRE equality and divergence identities of one dense op."""
    dr = r["rld_div"]
    ratios = [
        _scaled(abs(r["two_point_kl"] - dr), TWO_POINT_TOL, dr),
        _scaled(r["umegaki"] - dr, SLACK_TOL, dr),
    ]
    if r["m"] == 1:
        js, jr, jkm = r["js"].scalar, r["jr"].scalar, r["jkm"].scalar
        lre = r["lre"]
        ratios += [
            _scaled(js - jkm, SLACK_TOL, jkm),
            _scaled(jkm - jr, SLACK_TOL, jr),
            _scaled(abs(lre.input_fisher.scalar - jr), SLACK_TOL, jr),
            _scaled(abs(lre.gap), SLACK_TOL, jr),
        ]
    else:
        jr = r["jr"].as_complex()
        gap = np.linalg.eigvalsh(jr - r["js"].as_complex())[0]
        ratios.append(_scaled(-gap, SLACK_TOL, np.linalg.norm(jr)))
    return ratios


# --- certify -------------------------------------------------------------

CERTIFY_POOL = 16


class Certify:
    """One criterion-08 bound instance plus one criterion-05 divergence pair per op.

    Inputs follow the criteria's own distribution (every eigenvalue >=
    0.02): the 4000-step integral form does not reach 1e-5 on the
    ill-conditioned states of the dense workload (NOTES.md).
    """

    name = "certify"
    cycle = 1
    cycle_s = 2.5  # a 20 s run is 8 ops; its tail is their maximum
    refused = _no_refusals

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        for k in range(CERTIFY_POOL):
            d = 2 + k % 2
            rho = inputs.criterion_state(d, rng)
            xs = [inputs.traceless_tangent(d, rng) for _ in range(2)]
            a = rng.normal(size=(2, 2))
            g = a @ a.T + 0.1 * np.eye(2)
            pair = (inputs.criterion_state(2, rng), inputs.criterion_state(2, rng))
            self.pool.append((rho, xs, g, int(rng.integers(1 << 31)), pair))
        rho, xs, g, oseed, (r2, s2) = self.pool[0]
        jr = qig.fisher.rld_fisher(qig.states.FamilyPoint(np.zeros(2), qig.states.DensityMatrix(rho), xs))
        qig.reverse.min_trace_oracle(jr, g, seed=oseed, restarts=1)
        qig.divergence.rld_divergence_integral(qig.states.DensityMatrix(r2), qig.states.DensityMatrix(s2), 8)

    def label(self, i: int) -> str:
        return f"d{2 + i % CERTIFY_POOL % 2}"

    def op(self, i: int) -> dict:
        rho_a, xs, g, oseed, (r_a, s_a) = self.pool[i % len(self.pool)]
        point = qig.states.FamilyPoint(np.zeros(2), qig.states.DensityMatrix(rho_a), xs)
        jr = qig.fisher.rld_fisher(point)
        closed = qig.reverse.multiparam_bounds(jr, g).reverse
        oracle = qig.reverse.min_trace_oracle(jr, g, seed=oseed).value
        rho, sigma = qig.states.DensityMatrix(r_a), qig.states.DensityMatrix(s_a)
        dr = qig.divergence.rld_divergence(rho, sigma)
        integral = qig.divergence.rld_divergence_integral(rho, sigma, INTEGRAL_STEPS)
        kl = qig.divergence.two_point_reverse_estimate(rho, sigma).input_kl()
        return {"closed": closed, "oracle": oracle, "rld_div": dr, "integral": integral, "two_point_kl": kl}

    def check(self, i: int, r: dict) -> list[float]:
        return [
            abs(r["oracle"] - r["closed"]) / max(1e-15, abs(r["closed"])) / ORACLE_REL_TOL,
            abs(r["integral"] - r["rld_div"]) / INTEGRAL_TOL,
            abs(r["two_point_kl"] - r["rld_div"]) / TWO_POINT_TOL,
        ]


# --- cli -----------------------------------------------------------------

# (command, spec key) slots of one cycle; "fisher|reverse" alternates
# between the two commands from one cycle to the next.  Measured class
# medians: d = 16 about 10 ms, global 12 ms, gaussian 22 ms, d = 64 100 ms,
# d = 256 1.9 s.  The d = 16 class holds the median.  A 20 s run is 6
# cycles: its 6 d = 256 ops lie beyond the tail, which is the 5th largest
# of the 12 d = 64 ops.
CLI_HARD_KEY = "hard16"  # the spec drawn at KAPPA_HARD
CLI_CYCLE = (
    [("fisher", CLI_HARD_KEY)] * 5
    + [(cmd, f"d16_{k % 6}") for k in range(41) for cmd in ("fisher", "reverse")]
    + [("global", "grid")] * 5
    + [("gaussian", None)] * 5
    + [("fisher", "d64_0"), ("reverse", "d64_1")]
    + [("fisher|reverse", "d256")]
)
assert len(CLI_CYCLE) == 5 * inputs.KAPPA_HARD_EVERY
GAUSSIAN_TRUNCATION = 80
GRID_DIM, GRID_POINTS = 8, 9


class Cli:
    """In-process `qig` calls on spec files written during set-up."""

    name = "cli"
    cycle = len(CLI_CYCLE)
    cycle_s = 3.3

    def setup(self, seed: int, workdir: Path) -> None:
        os.environ.pop("QIG_SEED", None)
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        specs = {}
        for k in range(6):
            specs[f"d16_{k}"] = (16, inputs.draw_kappa(rng))
        specs[CLI_HARD_KEY] = (16, inputs.KAPPA_HARD)
        specs["d64_0"] = (64, inputs.draw_kappa(rng))
        specs["d64_1"] = (64, inputs.draw_kappa(rng))
        specs["d256"] = (256, inputs.draw_kappa(rng))
        self.paths, self.spec_bytes, self.refs = {}, {}, {}
        for key, (d, kappa) in specs.items():
            rho = inputs.conditioned_state(d, kappa, rng)
            x = inputs.traceless_tangent(d, rng)
            path = workdir / f"spec_{key}.json"
            self.spec_bytes[key] = inputs.write_spec(path, inputs.explicit_spec(rho, [x]))
            self.paths[key] = path
            self.refs[("fisher", key)] = _ref(_ref_fisher, rho, x)
            self.refs[("reverse", key)] = _ref(_ref_reverse, rho, x)
        grid = inputs.fixed_basis_grid(GRID_DIM, GRID_POINTS, rng)
        path = workdir / "spec_grid.json"
        self.spec_bytes["grid"] = inputs.write_spec(path, grid)
        self.paths["grid"] = path
        self.refs[("global", "grid")] = _ref(_ref_global, grid)
        self.refs[("gaussian", None)] = _ref(_ref_gaussian)
        self.op(CLI_CYCLE.index(("fisher", "d16_0")))  # warm-up

    def command(self, i: int):
        cmd, key = CLI_CYCLE[i % len(CLI_CYCLE)]
        if cmd == "fisher|reverse":
            cmd = ("fisher", "reverse")[(i // len(CLI_CYCLE)) % 2]
        return cmd, key

    def label(self, i: int) -> str:
        cmd, key = self.command(i)
        return cmd if key is None or key == "grid" else f"{cmd}_{key.split('_')[0]}"

    def op(self, i: int):
        cmd, key = self.command(i)
        out = self.workdir / f"report_{cmd}_{key}.json"
        argv = [cmd, "--seed", "0", "--out", str(out)]
        if key is not None:
            argv += ["--family", str(self.paths[key])]
        else:
            argv += ["--truncation", str(GAUSSIAN_TRUNCATION)]
        saved = sys.argv
        sys.argv = ["qig", *argv]
        stdout, stderr = _io.StringIO(), _io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = qig.cli.main(argv)
        finally:
            sys.argv = saved
        ref = self.refs[(cmd, key)]
        if rc != 0 and isinstance(ref, Exception):
            raise Refused(f"qig {cmd} exit {rc}: {stderr.getvalue().strip()}")
        return rc, out

    def refused(self, i: int, exc: Exception) -> bool:
        """Only the kappa = 1e8 spec, which the library refuses too, may exit non-zero."""
        return isinstance(exc, Refused) and self.command(i)[1] == CLI_HARD_KEY

    def io_bytes(self, i: int, result) -> tuple[int, int]:
        """(spec bytes read, report bytes written) of one op."""
        _, key = self.command(i)
        return self.spec_bytes.get(key, 0), result[1].stat().st_size

    def check(self, i: int, result) -> list[float]:
        rc, out = result
        cmd, key = self.command(i)
        ref = self.refs[(cmd, key)]
        if rc != 0 or isinstance(ref, Exception):
            return [float("inf")]
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh)["results"]
        return compare_report(cmd, got, ref)


def compare_report(cmd: str, got: dict, ref: dict) -> list[float]:
    """Error/tolerance ratios of CLI report values against library values."""
    def eq(a, b):
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            return float("inf")
        return float(np.max(np.abs(a - b) / (CLI_EQ_TOL * np.maximum(1.0, np.abs(b))), initial=0.0))

    if cmd == "fisher":
        return [
            eq(_matrix(got["sld_fisher"]["real_part"]), ref["sld"]),
            eq(_matrix(got["rld_fisher"]["real_part"]) + 1j * _matrix(got["rld_fisher"]["imag_part"]), ref["rld"]),
            eq(_matrix(got["km_fisher"]["real_part"]), ref["km"]),
        ]
    if cmd == "reverse":
        return [eq(got[k], ref[k]) for k in ("input_fisher", "rld_fisher", "gap", "components")]
    if cmd == "global":
        if not got.get("estimable"):
            return [float("inf")]
        rows = got["per_point"]
        return [
            eq(got["commutator_norm"], ref["commutator_norm"]),
            eq([r["input_fisher"] for r in rows], ref["input_fisher"]),
            eq([r["rld_fisher"] for r in rows], ref["rld_fisher"]),
        ]
    if cmd == "gaussian":
        return [
            0.0 if got["passed"] else float("inf"),
            eq(_matrix(got["details"]["j_rld_numeric"]), ref["j_rld"]),
        ]
    raise ValueError(cmd)


def _matrix(rows) -> np.ndarray:
    """Decode a report matrix: rows of numbers or of [re, im] pairs."""
    return np.array([[complex(*e) if isinstance(e, list) else complex(e) for e in row] for row in rows])


def _ref(fn, *args):
    """Library reference value, or the exception the library raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the CLI must then refuse the same input
        return exc


def _ref_fisher(rho, x):
    point = qig.states.FamilyPoint([0.0], qig.states.DensityMatrix(rho), [x])
    jr = qig.fisher.rld_fisher(point)
    return {
        "sld": qig.fisher.sld_fisher(point).real_part,
        "rld": jr.as_complex(),
        "km": qig.harness.km_fisher(point).real_part,
    }


def _ref_reverse(rho, x):
    point = qig.states.FamilyPoint([0.0], qig.states.DensityMatrix(rho), [x])
    lre = qig.reverse.local_reverse_estimate(point)
    rep = qig.reverse.validate_reverse_estimate(lre, point)
    return {
        "input_fisher": rep.input_fisher.scalar,
        "rld_fisher": qig.fisher.rld_fisher(point).scalar,
        "gap": rep.gap,
        "components": lre.ensemble.size,
    }


def _ref_global(spec):
    points = qig.families.fixed_basis_family(
        _matrix(spec["basis"]), spec["prob_table"], spec["theta_grid"]
    )
    gre = qig.reverse.global_reverse_estimate(points, 0, seed=0)
    return {
        "commutator_norm": qig.reverse.global_commutation_check(points),
        "input_fisher": [qig.reverse.restricted_input_fisher(gre, pt, points).scalar for pt in points],
        "rld_fisher": [qig.fisher.rld_fisher(pt).scalar for pt in points],
    }


def _ref_gaussian():
    rep = qig.harness.gaussian_check(qig.harness.GaussianSpec(truncation=GAUSSIAN_TRUNCATION))
    return {"j_rld": rep.details["j_rld_numeric"]}


WORKLOADS = {w.name: w for w in (Verify, Dense, Certify, Cli)}
