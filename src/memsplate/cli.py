"""Command-line entry point: reproducible experiments over the package modules.

Subcommands
-----------
branch     minimal-branch trace for one dimension: JSON summary, profile CSV,
           and a gnuplot-ready (lambda, sup u) curve sampled on s = u(0)
pullin     pull-in voltage bounds and the computed bracket for one dimension
table1     per-dimension certificate summary (Markdown or CSV)
certify    certificate check for one dimension (optionally a custom candidate)
hr         Hardy-Rellich weight verification (JSON report)
threshold  exact 2*lambda_bar_N vs H_N comparison over a range of dimensions

Every run writes a `manifest.json` (command, parameters, package/library
versions, grid description — no timestamps) next to its outputs; identical
manifests produce bit-identical outputs.

Exit codes: 0 success, 2 numerical non-convergence, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .branch import (ContinuationConfig, NonConvergence, pullin_bounds,
                     sandwich_check, sweep_branch)
from .certificates import (CandidateW, certify_dimension, table1_rows,
                           table_candidate, threshold_relation)
from .grid import BoundaryData, InvalidArgument
from .hardy import (discrete_form_check, hr2_leading_identity, hr_weight,
                    _prove_expr_nonneg)
from .stability import nu1
from .verify import sampled_min

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_dims(spec: str) -> list[int]:
    """Parse '9..16' or a comma list '9,12,31' into a list of dimensions."""
    try:
        if ".." not in spec:
            return [int(x) for x in spec.split(",")]
        lo, hi = (int(x) for x in spec.split("..", 1))
    except ValueError:
        raise InvalidArgument(f"malformed dimension list {spec!r}") from None
    if hi < lo:
        raise InvalidArgument(f"empty dimension range {spec!r}")
    return list(range(lo, hi + 1))


def _parse_fraction(flag: str, value: str | None, default: Fraction) -> Fraction:
    """An exact rational flag value such as '14/5' or '366.5'; `default` when unset."""
    if value is None:
        return default
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(f"{flag} needs a rational number, got {value!r}") from None


def _json_default(o):
    if isinstance(o, Fraction):
        return float(o)
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _finite(o):
    """`o` with every non-finite float as None: RFC 8259 JSON has no Infinity or NaN."""
    if isinstance(o, dict):
        return {k: _finite(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_finite(v) for v in o]
    if isinstance(o, (float, np.floating)) and not np.isfinite(o):
        return None
    return o


def _write_json(path: Path, doc) -> None:
    """Strict JSON; a non-finite float is written as null, and a note says why."""
    path.write_text(json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False,
                               default=_json_default) + "\n")


def _emit_manifest(outdir: Path, command: str, params: dict) -> None:
    doc = {
        "command": command,
        "parameters": params,
        "versions": {
            "memsplate": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    _write_json(outdir / "manifest.json", doc)


def _outdir(args) -> Path:
    d = Path(args.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _grid_params(args) -> dict:
    return {"M": args.M,
            "gamma": "auto" if args.gamma is None else args.gamma}


# --------------------------------------------------------------------------
# subcommands


def cmd_branch(args) -> int:
    out = _outdir(args)
    bc = BoundaryData(args.alpha, args.beta)
    dims = _parse_dims(args.dims) if args.dims is not None else [args.dim]
    for N in dims:
        cfg = ContinuationConfig(N=N, bc=bc, M=args.M, gamma=args.gamma,
                                 compute_mu1=args.with_mu1)
        res = sweep_branch(cfg)
        ev = res.grid_evidence
        doc = {
            "N": N,
            "bc": {"alpha": bc.alpha, "beta": bc.beta},
            "lambda_star": res.lam_star_estimate,
            "lambda_star_bracket": list(res.lam_star_bracket),
            "fold": res.fold,
            "grid_evidence": None if ev is None else {
                "M": list(ev.M), "lambda_star": list(ev.lam_star),
                "observed_order": ev.observed_order,
                "points": list(ev.points), "seeded": list(ev.seeded),
                "newton_steps": list(ev.newton_steps)},
            "points": [{"s": p.s, "lambda": p.lam, "sup_norm": p.sup_norm, "mu1": p.mu1}
                       for p in res.points],
            "classification": res.classification,
            "C0_fit": res.C0_fit,
            "exponent_fit": res.exponent_fit,
            "warnings": list(res.warnings),
            # deterministic solver counts; no wall time, so identical
            # manifests still give identical outputs
            "counters": {"factorizations": res.factorizations,
                         "failed_solves": res.failed_solves,
                         "points": res.trace_points,
                         "newton_steps": res.newton_steps,
                         "halvings": res.halvings,
                         "refinements": res.refinements,
                         "fold_secant_steps": res.fold_secant_steps,
                         "mu1_iterations": res.mu1_iterations,
                         "mu1_fallbacks": res.mu1_fallbacks},
        }
        if N >= 9 and res.classification == "Singular" and bc == BoundaryData():
            sw = sandwich_check(res.extremal_profile, res.lam_star_estimate)
            doc["sandwich"] = {"C0": sw.C0, "lower_violation": sw.lower_violation,
                              "upper_violation": sw.upper_violation, "tol": sw.tol}
        _write_json(out / f"branch_N{N}.json", doc)
        res.extremal_profile.to_csv(out / f"profile_N{N}.csv")
        with open(out / f"curve_N{N}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "sup_u"])
            for lam, sup in zip(*res.curve()):
                w.writerow([repr(float(lam)), repr(float(sup))])
    _emit_manifest(out, "branch", {"dims": dims, **_grid_params(args),
                                   "alpha": args.alpha, "beta": args.beta,
                                   "with_mu1": args.with_mu1})
    return EXIT_OK


def cmd_pullin(args) -> int:
    out = _outdir(args)
    N = args.dim
    nu = nu1(N)
    lower, upper = pullin_bounds(N, nu)
    cfg = ContinuationConfig(N=N, M=args.M, gamma=args.gamma)
    res = sweep_branch(cfg)
    doc = {
        "N": N,
        "nu1": nu,
        "lower_bound": float(lower),
        "upper_bound": float(upper),
        "lambda_star_bracket": list(res.lam_star_bracket),
        "bracket_inside_bounds": bool(float(lower) <= res.lam_star_bracket[0]
                                      and res.lam_star_bracket[1] <= float(upper)),
    }
    _write_json(out / f"pullin_N{N}.json", doc)
    _emit_manifest(out, "pullin", {"dim": N, **_grid_params(args)})
    return EXIT_OK


_TABLE_COLUMNS = ["N", "m", "lambda_prime_given", "lambda_prime_computed",
                  "beta_given", "beta_computed", "verdict"]


def cmd_table1(args) -> int:
    out = _outdir(args)
    dims = _parse_dims(args.dims) if args.dims is not None else None
    rows = table1_rows(dims)
    if args.format == "csv":
        with open(out / "table1.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_TABLE_COLUMNS + ["note"])
            for row in rows:
                w.writerow([row["N"], row["m"], row["lam_prime_given"],
                            f"{row['lam_prime_computed']:.6f}", row["beta_given"],
                            f"{row['beta_computed']:.6f}", row["verdict"],
                            row.get("note", "")])
    else:
        lines = ["| N | m | lambda'_given | lambda'_computed | beta_given "
                 "| beta_computed | verdict |",
                 "|---|---|---|---|---|---|---|"]
        for row in rows:
            lines.append(
                f"| {row['N']} | {row['m']:g} | {row['lam_prime_given']:g} "
                f"| {row['lam_prime_computed']:.4f} | {row['beta_given']:g} "
                f"| {row['beta_computed']:.4f} | {row['verdict']} |")
        notes = [f"N={row['N']}: {row['note']}" for row in rows if "note" in row]
        text = "\n".join(lines + ([""] + notes if notes else [])) + "\n"
        (out / "table1.md").write_text(text)
        sys.stdout.write(text)
    _emit_manifest(out, "table1", {"dims": dims, "rigor": args.rigor,
                                   "format": args.format})
    return EXIT_OK


def _cond_doc(c) -> dict:
    return {"margin": c.margin, "argmin": c.argmin, "proved": c.proved,
            "sharpest_enclosure": c.sharpest_enclosure, "boxes": c.boxes,
            "levels": c.levels, "sampled_points": c.sampled_points, "notes": c.notes}


def cmd_certify(args) -> int:
    out = _outdir(args)
    N = args.dim
    if args.m is not None or args.lambda_prime is not None or args.beta_cert is not None:
        base = table_candidate(N)
        cand = CandidateW(
            m=_parse_fraction("--m", args.m, base.m),
            N=N,
            lam_prime=_parse_fraction("--lambda-prime", args.lambda_prime,
                                      base.lam_prime),
            beta=_parse_fraction("--beta-cert", args.beta_cert, base.beta),
            hr_variant=args.variant.upper() if args.variant else base.hr_variant,
        )
    else:
        cand = None
    rep = certify_dimension(N, candidate=cand)
    doc = {
        "N": N,
        "candidate": {"m": float(rep.candidate.m),
                      "lambda_prime": float(rep.candidate.lam_prime),
                      "beta": float(rep.candidate.beta),
                      "hr_variant": rep.candidate.hr_variant},
        "cond1": _cond_doc(rep.cond1),
        "cond2": _cond_doc(rep.cond2),
        "sharpest_lambda_prime": rep.sharpest_lam_prime,
        "sharpest_beta": rep.sharpest_beta,
        "rigor": args.rigor,
        "verdict": rep.verdict,
        "notes": rep.notes,
    }
    _write_json(out / f"certify_N{N}.json", doc)
    _emit_manifest(out, "certify", {"dim": N, "rigor": args.rigor,
                                    "m": args.m, "lambda_prime": args.lambda_prime,
                                    "beta_cert": args.beta_cert,
                                    "variant": args.variant})
    sys.stdout.write(f"N={N}: {rep.verdict}\n")
    return EXIT_OK


def _hr_checks(variant: str, N: int) -> list[dict]:
    checks = []
    weight = hr_weight(variant, N)
    if variant in ("HR1", "HR2"):
        ok = hr2_leading_identity(N)
        checks.append({"name": "leading_coefficient_identity",
                       "margin": 0.0 if ok else -1.0, "method": "exact",
                       "passed": ok})
    # the sampled minimum is the weight's margin; the proof alone decides
    margin, _ = sampled_min(weight.num, weight.den)
    checks.append({"name": "weight_nonnegative", "margin": margin,
                   "method": "interval", "passed": _prove_expr_nonneg(weight).proved})
    form = discrete_form_check(weight, N)
    checks.append({"name": "discrete_form_inequality",
                   "margin": form.min_relative_gap, "method": "discrete-form",
                   "residual": form.residual, "passed": form.passed})
    return checks


def cmd_hr(args) -> int:
    out = _outdir(args)
    variant = args.variant.upper()
    N = args.dim
    checks = _hr_checks(variant, N)
    verdict = "Pass" if all(c["passed"] for c in checks) else "Fail"
    doc = {"variant": variant, "N": N, "checks": checks, "verdict": verdict}
    _write_json(out / f"hr_{variant.lower()}_N{N}.json", doc)
    _emit_manifest(out, "hr", {"variant": variant, "dim": N,
                               "rigor": args.rigor, "seed": args.seed})
    sys.stdout.write(f"{variant} N={N}: {verdict}\n")
    return EXIT_OK


def cmd_threshold(args) -> int:
    if args.end < args.start:
        raise InvalidArgument(f"empty dimension range --from {args.start} --to {args.end}")
    out = _outdir(args)
    rows = []
    for N in range(args.start, args.end + 1):
        two_lb, hn, holds = threshold_relation(N)
        rows.append({"N": N, "two_lambda_bar": float(two_lb), "H_N": float(hn),
                     "holds": holds})
    if args.format == "csv":
        with open(out / "threshold.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "two_lambda_bar", "H_N", "holds"])
            for row in rows:
                w.writerow([row["N"], row["two_lambda_bar"], row["H_N"],
                            row["holds"]])
    else:
        _write_json(out / "threshold.json", rows)
    for row in rows:
        sys.stdout.write(f"N={row['N']}: 2*lambda_bar={row['two_lambda_bar']:.4f} "
                         f"H_N={row['H_N']:.4f} holds={row['holds']}\n")
    _emit_manifest(out, "threshold", {"from": args.start, "to": args.end,
                                      "format": args.format})
    return EXIT_OK


# --------------------------------------------------------------------------


def _add_grid_flags(p):
    p.add_argument("--M", type=int, default=2048)
    p.add_argument("--gamma", type=float, default=None,
                   help="grid grading exponent (default: 2.0, uniform for N=1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="memsplate", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("branch", help="minimal-branch sweep")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dim", type=int)
    g.add_argument("--dims", type=str, help="range A..B or comma list")
    _add_grid_flags(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--with-mu1", action="store_true",
                   help="compute the stability eigenvalue at each branch point")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("pullin", help="pull-in voltage bounds and bracket")
    p.add_argument("--dim", type=int, required=True)
    _add_grid_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_pullin)

    p = sub.add_parser("table1", help="certificate summary table")
    p.add_argument("--dims", type=str, default=None)
    p.add_argument("--rigor", choices=["interval"], default="interval",
                   help="the only tier, kept for existing scripts")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("certify", help="certificate check for one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--m", type=str, default=None,
                   help="candidate profile parameter (fraction, e.g. 14/5)")
    p.add_argument("--lambda-prime", type=str, default=None)
    p.add_argument("--beta-cert", type=str, default=None)
    p.add_argument("--variant", choices=["hr1", "hr2", "hr3", "HR1", "HR2", "HR3"],
                   default=None)
    p.add_argument("--rigor", choices=["interval"], default="interval",
                   help="the only tier, kept for existing scripts")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("hr", help="Hardy-Rellich weight verification")
    p.add_argument("--variant", required=True,
                   choices=["hr1", "hr2", "hr3", "HR1", "HR2", "HR3"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rigor", choices=["interval"], default="interval",
                   help="the only tier, kept for existing scripts")
    p.add_argument("--seed", type=int, default=0,
                   help="unused, kept for existing scripts")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_hr)

    p = sub.add_parser("threshold", help="2*lambda_bar vs H_N over a range")
    p.add_argument("--from", dest="start", type=int, default=5)
    p.add_argument("--to", dest="end", type=int, default=16)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_threshold)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgument as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except NonConvergence as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
