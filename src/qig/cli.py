"""Command-line frontend.

Subcommands map onto the library surface: fisher (information matrices),
reverse (optimal local reverse estimation), global (exact simulation of
a commuting grid family), monotone (randomized sandwich/monotonicity
and SLD/RLD complementarity suites), divergence (two-state
divergences), bound (multiparameter reverse/estimation bounds),
gaussian (truncated Gaussian example).

Each subcommand returns (primary input, parsed input, results) and prints
nothing.  ``main`` encodes the results once and prints them: each name with
its value at 6 significant digits, nested blocks indented, a list of records
(checks, grid points, violations) one line per entry up to LIST_CUT, and a
numeric list of more than LIST_CUT entries as its shape.  It then writes the
full-precision report to --out, to a sidecar ``*.report.json`` next to the
primary input file, or to ``qig_<cmd>.report.json``.  The exit code is 2 when
some ``passed`` anywhere in the results is false (a skipped check, passed
null, does not fail), 1 on an input or usage error, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
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


# A numeric list of more entries than this (its shape's product) prints as its shape: a d = 256 `qig reverse` has
# 256 weights, each printed number costs ~0.5 us.  A list of records or mixed rows prints at most this many lines.
LIST_CUT = 10


def _inline(v) -> str:
    """One JSON value on one line: numbers at 6 significant digits, a record as its name: value pairs."""
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_inline, v)) + "]"
    if isinstance(v, dict):
        return "  ".join(f"{k}: {_inline(x)}" for k, x in v.items())
    return "null" if v is None else str(v).lower() if isinstance(v, bool) else str(v)


def _render(results: dict, lines: list, indent="") -> list:
    """Append to lines the stdout lines of encoded results, and return them: name: value, a nested block
    indented, a list of records or mixed rows one line per entry."""
    for name, v in results.items():
        if isinstance(v, dict):
            lines.append(f"{indent}{name}:")
            _render(v, lines, indent + "  ")
            continue
        shape, row = [], [v]
        while isinstance(row[0], list) and row[0]:
            shape.append(len(row[0]))
            row = row[0]
        if shape and (isinstance(row[0], dict) or str in map(type, row)):  # records, or rows naming a check
            more = [f"{indent}  ... {len(v) - LIST_CUT} more"] if len(v) > LIST_CUT else []
            lines += [f"{indent}{name}:", *(f"{indent}  - {_inline(x)}" for x in v[:LIST_CUT]), *more]
        elif math.prod(shape) > LIST_CUT:
            lines.append(f"{indent}{name}: list of shape {shape}")
        else:
            lines.append(f"{indent}{name}: {_inline(v)}")
    return lines


def _failed(obj) -> bool:
    """Whether some "passed" anywhere in obj is false; a skipped check, passed None, does not fail."""
    if isinstance(obj, dict):
        return obj.get("passed") is False or any(map(_failed, obj.values()))
    return isinstance(obj, list) and any(map(_failed, obj))


def _write_report(path: Path, command, seed, spec, results) -> None:
    echo = io._jsonable(spec, io.summary)  # each matrix as its summary
    doc = {"command": command, "version": __version__, "seed": seed, "spec_echo": echo,
           "input_digest": io.spec_digest(echo), "results": results}
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
    return args.family, spec, results


def _cmd_reverse(args):
    spec, point = _load_family(args)
    lre = local_reverse_estimate(point)
    rep = validate_reverse_estimate(lre, point)
    jr = rld_fisher(point).scalar
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
    return args.family, spec, results


def _cmd_global(args):
    spec, points = _load_family(args, grid=True)
    try:
        gre = global_reverse_estimate(points, 0, seed=args.seed)
        norm = gre.commutator_norm
    except NotReverseEstimableError as exc:
        gre, norm = None, exc.commutator_norm
    results = {"commutator_norm": norm, "tolerances": {"commutation": reverse.COMMUTATION_TOL},
               "estimable": gre is not None}
    if gre is None:
        return args.family, spec, results
    ens = gre.ensemble
    results["distributions"] = io.encode_matrix(gre.distributions)
    results["w0"] = io.encode_matrix(ens.states.T * np.sqrt(ens.weights))  # columns sqrt(p_x) |phi_x>
    rows = []
    for pt in points:
        jin = restricted_input_fisher(gre, pt, points).scalar
        jr = rld_fisher(pt).scalar  # the estimate has checked the RLDs' existence
        rows.append({"theta": float(pt.theta[0]), "input_fisher": jin, "rld_fisher": jr})
    results["per_point"] = rows
    return args.family, spec, results


def _cmd_monotone(args):
    dims = tuple(int(d) for d in args.dims.split(","))
    met = monotone_metric_suite(args.trials, dims, args.seed)
    div = monotone_divergence_suite(args.trials, dims, args.seed + 1)
    com = complementarity_suite(args.trials, dims, args.seed + 2)
    results = {
        "metric_suite": io.suite_report_to_json(met),
        "divergence_suite": io.suite_report_to_json(div),
        "complementarity_suite": io.suite_report_to_json(com),
        "tolerances": {"slack": harness.METRIC_SLACK_TOL},
    }
    return None, {"trials": args.trials, "dims": list(dims), "seed": args.seed}, results


def _check(name, value, tol) -> dict:
    """One report check against the tolerance the code enforces; a negative margin fails."""
    return {"name": name, "value": value, "tolerance": tol, "margin": tol - value, "passed": bool(value <= tol)}


def _skipped(name, tol, reason) -> dict:
    return {"name": name, "value": None, "tolerance": tol, "margin": None, "passed": None, "skipped": reason}


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
    results = {
        "umegaki": du, "rld_closed": dr, "rld_integral": di, "integral_minus_closed": diff,
        "steps": args.steps, "evaluations": args.steps + 1, "two_point_kl": tkl, "checks": checks,
        "tolerances": {c["name"]: c["tolerance"] for c in checks},
    }
    return args.rho, mats, results


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
    return args.family, spec, results


def _cmd_gaussian(args):
    rep = gaussian_check(GaussianSpec(sigma2=args.sigma2, hbar=args.hbar, truncation=args.truncation))
    return None, rep.details["spec"], io.suite_report_to_json(rep)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qig", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, run, text, family=False):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="report file path")
        if family:
            p.add_argument("--family", required=True, help="family spec JSON file")
            p.add_argument("--theta", type=str, default=None,
                           help="comma-separated evaluation point, overrides the spec")
        return p

    command("fisher", _cmd_fisher, "SLD/RLD/KM Fisher information of a family point", family=True)
    command("reverse", _cmd_reverse, "optimal local reverse estimation (m = 1)", family=True)
    command("global", _cmd_global, "global reverse estimation over a theta grid", family=True)
    p = command("monotone", _cmd_monotone, "randomized metric, divergence and complementarity suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dims", type=str, default="2,3")
    p = command("divergence", _cmd_divergence, "divergences between two states")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--steps", type=int, default=4000)
    p = command("bound", _cmd_bound, "multiparameter reverse/estimation bounds", family=True)
    p.add_argument("--weight", type=str, default=None, help="PSD weight matrix JSON file")
    p = command("gaussian", _cmd_gaussian, "truncated Gaussian example check")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--truncation", type=int, default=80)
    return ap


_PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    command = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(command)
        primary, spec, results = args.run(args)
        results = io._jsonable(results)
        print("\n".join(_render(results, [])))
        default = Path(primary).with_suffix(".report.json") if primary else f"qig_{args.cmd}.report.json"
        _write_report(Path(args.out or default), command, args.seed, spec, results)
    except SystemExit as exc:  # argparse has printed a usage error (its code 2: an input error here) or --help
        return 1 if exc.code else 0
    except (QigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if _failed(results) else 0


if __name__ == "__main__":
    sys.exit(main())
