"""Command-line frontend.

Subcommands map onto the library surface: fisher (information matrices),
reverse (optimal local reverse estimation), global (exact simulation of
a commuting grid family), monotone (randomized sandwich/monotonicity
suites), divergence (two-state divergences), bound (multiparameter
reverse/estimation bounds), gaussian (truncated Gaussian example).

Human-readable tables go to stdout (6 significant digits); the full-
precision report document is written to --out, or to a sidecar
``*.report.json`` next to the primary input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .divergence import rld_divergence, rld_divergence_integral, two_point_reverse_estimate, umegaki
from .errors import ConvergenceError, NotReverseEstimableError, QigError, SpecFileError
from .families import build_family
from .fisher import km_fisher, rld_fisher, sld_fisher
from .harness import (
    GaussianSpec,
    gaussian_check,
    monotone_divergence_suite,
    monotone_metric_suite,
)
from .reverse import (
    ORACLE_GAP_TOL,
    global_commutation_check,
    global_reverse_estimate,
    input_fisher,
    local_reverse_estimate,
    min_trace_oracle,
    multiparam_bounds,
    restricted_input_fisher,
    validate_reverse_estimate,
)
from .states import DensityMatrix
from . import divergence, fisher, harness, reverse  # last: loading harness before divergence slows a cold import by ~50 ms


def _fmt(x) -> str:
    return f"{x:.6g}"


def _print_matrix(name, mat):
    mat = np.atleast_2d(np.asarray(mat))
    print(f"  {name}:")
    for row in mat:
        cells = []
        for z in row:
            z = complex(z)
            if abs(z.imag) > 0:
                cells.append(f"{z.real:+.6g}{z.imag:+.6g}i")
            else:
                cells.append(f"{z.real:+.6g}")
        print("    " + "  ".join(f"{c:>16s}" for c in cells))


def _resolve_seed(args) -> int:
    env = os.environ.get("QIG_SEED")
    if env is not None:
        return int(env)
    return getattr(args, "seed", 0) or 0


def _report_path(args, primary_input: str | None, subcommand: str) -> Path:
    if args.out:
        return Path(args.out)
    if primary_input:
        return Path(primary_input).with_suffix(".report.json")
    return Path(f"qig_{subcommand}.report.json")


def _write_report(path: Path, command, seed, spec_echo, results) -> None:
    echo = json.dumps(io._jsonable(spec_echo), sort_keys=True, separators=(",", ":"))  # as io.spec_digest
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "spec_echo": None,
        "input_digest": hashlib.sha256(echo.encode()).hexdigest() if spec_echo is not None else None,
        "results": io._jsonable(results),
    }
    # the echo is serialized once, in canonical form: hashed above, embedded here
    text = json.dumps(doc, indent=2).replace('"spec_echo": null', f'"spec_echo": {echo}', 1)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"report written to {path}")


def _load_family(args, grid: bool = False):
    """(spec, family) of --family; refuses a grid kind where one point is needed, and vice versa."""
    spec = io.load_family_spec(args.family)
    if args.theta:
        spec["theta"] = [float(v) for v in args.theta.split(",")]
    family = build_family(spec)
    if isinstance(family, list) != grid:
        need = "a grid family (kind fixed_basis)" if grid else "a single family point"
        raise SpecFileError(f"qig {args.cmd} needs {need}, got kind {spec['kind']!r}")
    return spec, family


def _cmd_fisher(args) -> int:
    spec, point = _load_family(args)
    results = {"theta": list(point.theta), "dim": point.dim, "tolerances": {"psd_slack": fisher.RLD_PSD_TOL}}
    js, jr, jkm = sld_fisher(point), rld_fisher(point), km_fisher(point)
    results["sld_fisher"] = io.qfisher_to_json(js)
    results["km_fisher"] = io.qfisher_to_json(jkm)
    results["rld_fisher"] = io.qfisher_to_json(jr)
    print(f"family: {spec['kind']}  dim {point.dim}  m {point.m}")
    _print_matrix("J^S (SLD)", js.as_complex())
    _print_matrix("J^KM (Kubo-Mori)", jkm.as_complex())
    _print_matrix("J^R (RLD)", jr.as_complex())
    if point.m == 1:
        print(f"  scalar: J^S = {_fmt(js.scalar)}  J^KM = {_fmt(jkm.scalar)}  J^R = {_fmt(jr.scalar)}")
    _write_report(_report_path(args, args.family, "fisher"), sys.argv[1:], _resolve_seed(args), spec, results)
    return 0


def _cmd_reverse(args) -> int:
    spec, point = _load_family(args)
    lre = local_reverse_estimate(point)
    rep = validate_reverse_estimate(lre, point)
    jr = rld_fisher(point).scalar
    print(f"optimal local reverse estimate at theta = {point.theta[0]:.6g}")
    print(f"  components: {lre.ensemble.size}")
    print(f"  input Fisher: {_fmt(rep.input_fisher.scalar)}   J^R: {_fmt(jr)}   gap: {_fmt(rep.gap)}")
    print(f"  residuals: state {_fmt(rep.rho_residual)}  tangent {_fmt(rep.tangent_residual)}")
    results = {
        "components": lre.ensemble.size,
        "weights": list(lre.ensemble.weights),
        "scores": io.encode_matrix(lre.scores),
        "input_fisher": rep.input_fisher.scalar,
        "rld_fisher": jr,
        "gap": rep.gap,
        "rho_residual": rep.rho_residual,
        "tangent_residual": rep.tangent_residual,
        "tolerances": {"residual_cap": 1e-6, "equality": 1e-9},
    }
    _write_report(_report_path(args, args.family, "reverse"), sys.argv[1:], _resolve_seed(args), spec, results)
    return 0


def _cmd_global(args) -> int:
    spec, points = _load_family(args, grid=True)
    seed = _resolve_seed(args)
    norm = global_commutation_check(points)
    results = {"commutator_norm": norm, "tolerances": {"commutation": 1e-8, "input_fisher": 1e-7}}
    print(f"max RLD commutator norm over the grid: {_fmt(norm)}")
    try:
        gre = global_reverse_estimate(points, 0, seed=seed)
    except NotReverseEstimableError as exc:
        print(f"family is NOT globally reverse-estimable ({exc})")
        results["estimable"] = False
        _write_report(_report_path(args, args.family, "global"), sys.argv[1:], seed, spec, results)
        return 0
    results["estimable"] = True
    results["distributions"] = io.encode_matrix(gre.distributions)
    results["w0"] = io.encode_matrix(gre.w0.w)
    rows = []
    for pt in points:
        jin = restricted_input_fisher(gre, pt, points).scalar
        jr = rld_fisher(pt).scalar
        rows.append({"theta": float(pt.theta[0]), "input_fisher": jin, "rld_fisher": jr})
        print(f"  theta {_fmt(pt.theta[0]):>10s}: input Fisher {_fmt(jin)}  J^R {_fmt(jr)}")
    results["per_point"] = rows
    _write_report(_report_path(args, args.family, "global"), sys.argv[1:], seed, spec, results)
    return 0


def _cmd_monotone(args) -> int:
    seed = _resolve_seed(args)
    dims = tuple(int(d) for d in args.dims.split(","))
    met = monotone_metric_suite(args.trials, dims, seed)
    div = monotone_divergence_suite(args.trials, dims, seed + 1)
    for rep in (met, div):
        print(f"suite {rep.suite}: trials {rep.trials}  pass {rep.passed}")
        for name, (lo, hi) in rep.slack_range.items():
            print(f"  {name:>24s}: min slack {_fmt(lo)}  max slack {_fmt(hi)}")
        for v in rep.violations[:10]:
            print(f"  VIOLATION trial {v[0]} {v[1]}: slack {_fmt(v[2])}")
    results = {
        "metric_suite": io.suite_report_to_json(met),
        "divergence_suite": io.suite_report_to_json(div),
        "tolerances": {"slack": harness.METRIC_SLACK_TOL},
    }
    _write_report(_report_path(args, None, "monotone"), sys.argv[1:], seed,
                  {"trials": args.trials, "dims": list(dims), "seed": seed}, results)
    return 0 if met.passed and div.passed else 2


def _check(name, value, tol) -> dict:
    """One report check against the tolerance the code enforces; a negative margin fails."""
    return {"name": name, "value": value, "tolerance": tol, "margin": tol - value, "passed": bool(value <= tol)}


def _skipped(name, tol, reason) -> dict:
    return {"name": name, "value": None, "tolerance": tol, "margin": None, "passed": None, "skipped": reason}


def _print_checks(checks) -> None:
    for c in checks:
        if c["passed"] is None:
            print(f"check {c['name']}: skipped ({c['skipped']})")
        else:
            print(f"check {c['name']}: {'pass' if c['passed'] else 'FAIL'} (margin {_fmt(c['margin'])})")


def _cmd_divergence(args) -> int:
    rho = DensityMatrix(io.load_density(args.rho))
    sigma = DensityMatrix(io.load_density(args.sigma))
    du = umegaki(rho, sigma)
    dr = rld_divergence(rho, sigma)
    di = rld_divergence_integral(rho, sigma, args.steps)
    diff = 0.0 if di == dr else di - dr  # both inf off supp sigma: agreement, not inf - inf = nan
    checks = [_check("integral_vs_closed", abs(diff), divergence.INTEGRAL_TOL)]
    if sigma.is_full_rank():
        tkl = two_point_reverse_estimate(rho, sigma).input_kl()
        checks.append(_check("two_point_equality", abs(tkl - dr), divergence.TWO_POINT_TOL))
    else:
        tkl = None
        checks.append(_skipped("two_point_equality", divergence.TWO_POINT_TOL,
                               "two-point reverse estimation requires full-rank sigma"))
    print(f"umegaki      : {_fmt(du)}")
    print(f"rld closed   : {_fmt(dr)}")
    print(f"rld integral : {_fmt(di)}   ({args.steps + 1} evaluations, minus closed {_fmt(diff)})")
    print(f"two-point KL : {'skipped' if tkl is None else _fmt(tkl)}")
    _print_checks(checks)
    results = {
        "umegaki": du, "rld_closed": dr, "rld_integral": di, "integral_minus_closed": diff,
        "steps": args.steps, "evaluations": args.steps + 1, "two_point_kl": tkl, "checks": checks,
        "tolerances": {c["name"]: c["tolerance"] for c in checks},
    }
    _write_report(_report_path(args, args.rho, "divergence"), sys.argv[1:], _resolve_seed(args),
                  {"rho": rho.mat, "sigma": sigma.mat}, results)
    return 2 if any(c["passed"] is False for c in checks) else 0  # a skipped check (passed None) does not count


def _cmd_bound(args) -> int:
    spec, point = _load_family(args)
    seed = _resolve_seed(args)
    jr = rld_fisher(point)
    g = io.load_weight(args.weight) if args.weight else np.eye(point.m)
    mb = multiparam_bounds(jr, g)
    print(f"reverse-estimation bound : {_fmt(mb.reverse)}")
    print(f"estimation bound         : {_fmt(mb.estimation)}")
    results = {
        "rld_fisher": io.qfisher_to_json(jr),
        "weight": io.encode_matrix(g),
        "reverse_bound": mb.reverse,
        "estimation_bound": mb.estimation,
        "tolerances": {"oracle_relative": reverse.ORACLE_REL_TOL, "oracle_gap": ORACLE_GAP_TOL},
    }
    try:
        res = min_trace_oracle(jr, g)
    except ConvergenceError as exc:
        # a singular weight may leave the minimum unattained; the bounds stand
        print(f"min-trace oracle         : not certified ({exc})")
        results["oracle_error"] = str(exc)
        checks = [_skipped("oracle_vs_closed", reverse.ORACLE_REL_TOL, "oracle not certified")]
    else:
        rel = abs(res.value - mb.reverse) / max(1e-15, abs(mb.reverse))
        print(f"min-trace oracle         : [{_fmt(res.dual)}, {_fmt(res.value)}]  "
              f"(gap {_fmt(res.gap)}, rel. diff {_fmt(rel)})")
        results["oracle_value"] = res.value
        results["oracle_dual"] = res.dual
        results["oracle_gap"] = res.gap
        results["oracle_relative_difference"] = rel
        checks = [_check("oracle_vs_closed", rel, reverse.ORACLE_REL_TOL)]
    _print_checks(checks)
    results["checks"] = checks
    _write_report(_report_path(args, args.family, "bound"), sys.argv[1:], seed, spec, results)
    return 2 if any(c["passed"] is False for c in checks) else 0  # a skipped check (passed None) does not count


def _cmd_gaussian(args) -> int:
    spec = GaussianSpec(sigma2=args.sigma2, hbar=args.hbar, truncation=args.truncation)
    rep = gaussian_check(spec)
    d = rep.details
    print(f"convention: {d['convention']}")
    _print_matrix("J^R numeric", d["j_rld_numeric"])
    _print_matrix("J^R closed form", d["j_rld_closed_form"])
    print(f"  max relative entry error: {_fmt(d['max_relative_entry_error'])}")
    print(f"  reverse bound {_fmt(d['reverse_bound'])} (reference {_fmt(d['reverse_bound_reference'])}), "
          f"estimation bound {_fmt(d['estimation_bound'])}")
    print(f"  pass: {rep.passed}")
    _write_report(_report_path(args, None, "gaussian"), sys.argv[1:], _resolve_seed(args),
                  d["spec"], io.suite_report_to_json(rep))
    return 0 if rep.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qig", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, family=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="report file path")
        if family:
            p.add_argument("--family", required=True, help="family spec JSON file")
            p.add_argument("--theta", type=str, default=None,
                           help="comma-separated evaluation point, overrides the spec")

    p = sub.add_parser("fisher", help="SLD/RLD/KM Fisher information of a family point")
    common(p, family=True)
    p = sub.add_parser("reverse", help="optimal local reverse estimation (m = 1)")
    common(p, family=True)
    p = sub.add_parser("global", help="global reverse estimation over a theta grid")
    common(p, family=True)
    p = sub.add_parser("monotone", help="randomized monotone metric/divergence suites")
    common(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dims", type=str, default="2,3")
    p = sub.add_parser("divergence", help="divergences between two states")
    common(p)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--steps", type=int, default=4000)
    p = sub.add_parser("bound", help="multiparameter reverse/estimation bounds")
    common(p, family=True)
    p.add_argument("--weight", type=str, default=None, help="PSD weight matrix JSON file")
    p = sub.add_parser("gaussian", help="truncated Gaussian example check")
    common(p)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--truncation", type=int, default=80)
    return ap


_DISPATCH = {
    "fisher": _cmd_fisher,
    "reverse": _cmd_reverse,
    "global": _cmd_global,
    "monotone": _cmd_monotone,
    "divergence": _cmd_divergence,
    "bound": _cmd_bound,
    "gaussian": _cmd_gaussian,
}
_PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (QigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
