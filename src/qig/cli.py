"""Command-line frontend.

Subcommands map onto the library surface: fisher (information matrices),
reverse (optimal local reverse estimation), global (exact simulation of
a commuting grid family), monotone (randomized sandwich/monotonicity
and SLD/RLD complementarity suites), divergence (two-state
divergences), bound (multiparameter reverse/estimation bounds),
gaussian (truncated Gaussian example).

Each subcommand prints its human-readable table to stdout (6 significant
digits) and returns (primary input, parsed input, results, passed); ``main``
writes the full-precision report to --out, to a sidecar ``*.report.json``
next to the primary input file, or to ``qig_<cmd>.report.json``, and
exits 0 if passed, 2 if not, 1 on an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .divergence import rld_divergence, rld_divergence_integral, two_point_reverse_estimate, umegaki
from .errors import NotReverseEstimableError, QigError, SpecFileError
from .families import FIELDS, build_family
from .fisher import km_fisher, rld_fisher, sld_fisher
from .harness import (
    GaussianSpec,
    complementarity_suite,
    gaussian_check,
    monotone_divergence_suite,
    monotone_metric_suite,
)
from .reverse import (
    ORACLE_GAP_TOL,
    global_reverse_estimate,
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


def _write_report(path: Path, command, seed, spec, results) -> None:
    echo = io._jsonable(spec, io.summary)  # each matrix as its summary
    doc = {"command": command, "version": __version__, "seed": seed, "spec_echo": echo,
           "input_digest": io.spec_digest(echo), "results": io._jsonable(results)}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {path}")


def _load_family(args, grid: bool = False):
    """(spec, family) of --family; refuses a grid kind where one point is needed, and vice versa."""
    spec = io.load_family_spec(args.family, FIELDS)
    if args.theta:
        try:
            spec["theta"] = [float(v) for v in args.theta.split(",")]
        except ValueError:
            raise SpecFileError(f"--theta must be comma-separated numbers, got {args.theta!r}") from None
    family = build_family(spec)
    if isinstance(family, list) != grid:
        need = "a grid family (kind fixed_basis)" if grid else "a single family point"
        raise SpecFileError(f"qig {args.cmd} needs {need}, got kind {spec['kind']!r}")
    return spec, family


def _cmd_fisher(args):
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
    return args.family, spec, results, True


def _cmd_reverse(args):
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
        "tolerances": {"residual_cap": reverse.RESIDUAL_CAP},
    }
    return args.family, spec, results, True


def _cmd_global(args):
    spec, points = _load_family(args, grid=True)
    try:
        gre = global_reverse_estimate(points, 0, seed=args.seed)
        norm = gre.commutator_norm
    except NotReverseEstimableError as exc:
        gre, norm = None, exc.commutator_norm
    print(f"max RLD commutator norm over the grid: {_fmt(norm)}")
    results = {"commutator_norm": norm, "tolerances": {"commutation": reverse.COMMUTATION_TOL},
               "estimable": gre is not None}
    if gre is None:
        print("family is NOT globally reverse-estimable")
        return args.family, spec, results, True
    ens = gre.ensemble
    results["distributions"] = io.encode_matrix(gre.distributions)
    results["w0"] = io.encode_matrix(ens.states.T * np.sqrt(ens.weights))  # columns sqrt(p_x) |phi_x>
    rows = []
    for pt in points:
        jin = restricted_input_fisher(gre, pt, points).scalar
        jr = rld_fisher(pt).scalar  # the estimate has checked the RLDs' existence
        rows.append({"theta": float(pt.theta[0]), "input_fisher": jin, "rld_fisher": jr})
        print(f"  theta {_fmt(pt.theta[0]):>10s}: input Fisher {_fmt(jin)}  J^R {_fmt(jr)}")
    results["per_point"] = rows
    return args.family, spec, results, True


def _cmd_monotone(args):
    dims = tuple(int(d) for d in args.dims.split(","))
    met = monotone_metric_suite(args.trials, dims, args.seed)
    div = monotone_divergence_suite(args.trials, dims, args.seed + 1)
    com = complementarity_suite(args.trials, dims, args.seed + 2)
    for rep in (met, div, com):
        print(f"suite {rep.suite}: trials {rep.trials}  pass {rep.passed}")
        for name, (lo, hi) in rep.slack_range.items():
            print(f"  {name:>24s}: min slack {_fmt(lo)}  max slack {_fmt(hi)}")
        for v in rep.violations[:10]:
            print(f"  VIOLATION trial {v[0]} {v[1]}: slack {_fmt(v[2])}")
    results = {
        "metric_suite": io.suite_report_to_json(met),
        "divergence_suite": io.suite_report_to_json(div),
        "complementarity_suite": io.suite_report_to_json(com),
        "tolerances": {"slack": harness.METRIC_SLACK_TOL},
    }
    passed = met.passed and div.passed and com.passed
    return None, {"trials": args.trials, "dims": list(dims), "seed": args.seed}, results, passed


def _check(name, value, tol) -> dict:
    """One report check against the tolerance the code enforces; a negative margin fails."""
    return {"name": name, "value": value, "tolerance": tol, "margin": tol - value, "passed": bool(value <= tol)}


def _skipped(name, tol, reason) -> dict:
    return {"name": name, "value": None, "tolerance": tol, "margin": None, "passed": None, "skipped": reason}


def _print_checks(checks) -> bool:
    """Print each check; True unless one failed (a skipped check, passed None, does not count)."""
    for c in checks:
        if c["passed"] is None:
            print(f"check {c['name']}: skipped ({c['skipped']})")
        else:
            print(f"check {c['name']}: {'pass' if c['passed'] else 'FAIL'} (margin {_fmt(c['margin'])})")
    return not any(c["passed"] is False for c in checks)


def _cmd_divergence(args):
    mats = {"rho": io.load_matrix(args.rho, "rho"), "sigma": io.load_matrix(args.sigma, "rho")}
    rho, sigma = DensityMatrix(mats["rho"]), DensityMatrix(mats["sigma"])
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
    passed = _print_checks(checks)
    results = {
        "umegaki": du, "rld_closed": dr, "rld_integral": di, "integral_minus_closed": diff,
        "steps": args.steps, "evaluations": args.steps + 1, "two_point_kl": tkl, "checks": checks,
        "tolerances": {c["name"]: c["tolerance"] for c in checks},
    }
    return args.rho, mats, results, passed


def _cmd_bound(args):
    spec, point = _load_family(args)
    jr = rld_fisher(point)
    g = io.load_matrix(args.weight, "weight") if args.weight else np.eye(point.m)
    if np.any(g.imag):
        raise SpecFileError(f"{args.weight}: field 'weight' has a nonzero imaginary part; the weight must be real")
    g = g.real
    mb = multiparam_bounds(jr, g)
    res = min_trace_oracle(jr, g)
    rel = abs(res.value - mb.reverse) / max(1e-15, abs(mb.reverse))
    print(f"reverse-estimation bound : {_fmt(mb.reverse)}")
    print(f"estimation bound         : {_fmt(mb.estimation)}")
    print(f"min-trace oracle         : [{_fmt(res.dual)}, {_fmt(res.value)}]  "
          f"(gap {_fmt(res.gap)}, rel. diff {_fmt(rel)}, {'attained' if res.attained else 'not attained'})")
    checks = [_check("oracle_vs_closed", rel, reverse.ORACLE_REL_TOL)]
    results = {
        "rld_fisher": io.qfisher_to_json(jr),
        "weight": io.encode_matrix(g),
        "reverse_bound": mb.reverse,
        "estimation_bound": mb.estimation,
        "oracle_value": res.value,
        "oracle_dual": res.dual,
        "oracle_gap": res.gap,
        "oracle_relative_difference": rel,
        "oracle_attained": res.attained,
        "checks": checks,
        "tolerances": {"oracle_relative": reverse.ORACLE_REL_TOL, "oracle_gap": ORACLE_GAP_TOL},
    }
    return args.family, spec, results, _print_checks(checks)


def _cmd_gaussian(args):
    spec = GaussianSpec(sigma2=args.sigma2, hbar=args.hbar, truncation=args.truncation)
    rep = gaussian_check(spec)
    d = rep.details
    print(f"convention: {d['convention']}")
    _print_matrix("J^R numeric", d["j_rld_numeric"])
    _print_matrix("J^R closed form", d["j_rld_closed_form"])
    print(f"  leakage {_fmt(d['leakage'])}, max relative entry error {_fmt(d['max_relative_entry_error'])} "
          f"(tolerance {_fmt(d['tolerances']['entrywise_relative'])})")
    print(f"  reverse bound {_fmt(d['reverse_bound'])} (reference {_fmt(d['reverse_bound_reference'])}), "
          f"estimation bound {_fmt(d['estimation_bound'])}")
    print(f"  pass: {rep.passed}")
    return None, d["spec"], io.suite_report_to_json(rep), rep.passed


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
    p = sub.add_parser("monotone", help="randomized metric, divergence and complementarity suites")
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
    command = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(command)
    try:
        primary, spec, results, passed = _DISPATCH[args.cmd](args)
        default = Path(primary).with_suffix(".report.json") if primary else f"qig_{args.cmd}.report.json"
        _write_report(Path(args.out or default), command, args.seed, spec, results)
    except (QigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
