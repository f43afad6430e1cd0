"""Command-line interface.

Subcommands: cc, hecke, igusa, presburger, transfer, verify.  Reports go
to stdout as JSON with sorted keys and every number rendered as a decimal
string (coefficients outgrow 64 bits quickly), so identical runs emit
byte-identical output; wall-clock timings go to stderr only.  CSV output
is a flat projection of the same report.

Exit codes: 0 success, 1 failed verification or a failed internal
identity, 2 usage error, 3 exceeded budget (enumeration cap, grid cap,
summation budgets, divergence).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import verify as verify_suites
from . import zeta as zt
from .groups import ENUM_CAP, IdentityError, TooLarge
from .igusa import igusa_truncation, parse_poly
from .presburger import (
    CellBudget,
    Divergent,
    ModulusBudget,
    SummationSpec,
    VariableBudget,
    sum_rational,
)
from .rings import parse_ring


# ----------------------------------------------------------------------
# serialization


def _stringify(obj):
    """Numbers to decimal strings, recursively; booleans stay booleans."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(report) -> str:
    return json.dumps(_stringify(report), sort_keys=True) + "\n"


def _csv_projection(report, out):
    """Flat rows: coefficients, transfer rows, or suite check names."""
    writer = csv.writer(out, lineterminator="\n")
    flat = _stringify(report)
    if "coefficients" in flat:
        writer.writerow(["m", "coefficient"])
        for m, c in enumerate(flat["coefficients"]):
            writer.writerow([m, c])
    elif "rows" in flat:
        writer.writerow(["p", "q", "level", "zq", "fqt", "equal"])
        for row in flat["rows"]:
            for m, (a, b) in enumerate(zip(row["zq"], row["fqt"])):
                writer.writerow(
                    [row["p"], row["q"], m, a, b, a == b]
                )
    elif "suites" in flat or "checks" in flat:
        writer.writerow(["suite", "check", "ok"])
        suites = flat.get("suites") or [flat]
        for suite in suites:
            for check in suite["checks"]:
                writer.writerow([suite["suite"], check["name"], check["ok"]])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(flat):
            writer.writerow([key, flat[key]])


def emit(report, fmt, out=None):
    out = out or sys.stdout
    if fmt == "csv":
        _csv_projection(report, out)
    else:
        out.write(to_json(report))


# ----------------------------------------------------------------------
# subcommands


def _positive_int(text):
    """The type of every --levels and --cap: a positive integer, else a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _series_ring(args):
    ring = parse_ring(args.ring)
    if ring.kind not in ("zq", "fqt"):
        raise ValueError(
            "this subcommand needs a zq: or fqt: ring (zn is only for "
            "composite-level class counts)"
        )
    return ring


def _cmd_cc(args):
    ring = _series_ring(args)
    levels = ring.m if args.levels is None else args.levels
    series = zt.cc_zeta(args.group, ring.kind, ring.p, ring.f, levels,
                        cap=args.cap)
    return {
        "command": "cc",
        "family": args.group,
        "ring": ring.literal,
        "M": levels,
        "coefficients": series.coeffs,
        "crosschecks": {"provenance": series.provenance},
        "timings": {},
    }, 0


def _cmd_hecke(args):
    ring = _series_ring(args)
    levels = ring.m if args.levels is None else args.levels
    system = args.group.removeprefix("chevalley:")
    if ":" in system:
        raise ValueError(f"hecke needs a chevalley family, not {args.group!r}")
    series = zt.hecke_zeta(system, args.s1, args.s2, ring.kind, ring.p,
                           ring.f, levels, cap=args.cap)
    return {
        "command": "hecke",
        "family": f"chevalley:{system}",
        "s1": args.s1,
        "s2": args.s2,
        "ring": ring.literal,
        "M": levels,
        "coefficients": series.coeffs,
        # the pair law b*|Q1||Q2| = e is re-checked on every level while
        # the series is built, so reaching this point certifies it
        "crosschecks": {"pair_law": "verified"},
        "timings": {},
    }, 0


def _cmd_igusa(args):
    ring = parse_ring(args.ring)
    poly = parse_poly(args.poly)
    series, tail = igusa_truncation(poly, ring)
    partition = sum(series.coeffs) + tail
    return {
        "command": "igusa",
        "poly": poly.text,
        "ring": ring.literal,
        "arity": len(poly.vars),
        "M": ring.m,
        "coefficients": series.coeffs,
        "tail": tail,
        "crosschecks": {
            "partition_total": partition,
            "partition_exact": partition == 1,
        },
        "timings": {},
    }, 0


def _cmd_presburger(args):
    if args.levels is not None and args.q is None:
        raise ValueError("--levels needs --q")
    spec = SummationSpec(args.where, args.sum)
    res = sum_rational(spec)
    report = {
        "command": "presburger",
        "formula": args.where,
        "weight": args.sum,
        "rational": repr(res.rational),
        "sigma0": res.sigma0,
        "cells": res.cells,
        "coefficients": [],
        "crosschecks": {},
        "timings": {},
    }
    if args.q is not None:
        levels = 6 if args.levels is None else args.levels
        series = zt.expand(res.rational, args.q, levels)
        report["q"] = args.q
        report["M"] = levels
        report["coefficients"] = series.coeffs
    return report, 0


def _cmd_transfer(args):
    if (args.s1 is None) != (args.s2 is None):
        raise ValueError("--s1 and --s2 go together: give both for a hecke "
                         "transfer, neither for cc")
    primes = [int(p) for p in args.primes.split(",") if p]
    if not primes:
        raise ValueError(f"--primes names no prime: {args.primes!r}")
    rep = zt.transfer_report(args.group, primes, args.f, args.levels,
                             s1=args.s1, s2=args.s2, cap=args.cap)
    rep = dict(rep)
    rep["command"] = "transfer"
    rep["crosschecks"] = {"all_levels_equal": rep["ok"]}
    rep["timings"] = {}
    return rep, 0


def _cmd_verify(args):
    report = verify_suites.run_suite(args.suite)
    report = dict(report)
    report["command"] = "verify"
    report["timings"] = {}
    return report, 0 if report["ok"] else 1


# ----------------------------------------------------------------------


# built on first use, once per process: parse_args leaves it unchanged
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="zeta",
        description="exact local zeta computations over truncated "
        "valuation rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", required=True,
                           help="ring literal, e.g. zq:p=2,f=1,m=3")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("cc", help="conjugacy-class series of a family")
    p.add_argument("--group", required=True,
                   help="family literal, e.g. heisenberg or chevalley:A1")
    p.add_argument("--levels", type=_positive_int, default=None,
                   help="number of coefficients (default: ring depth)")
    p.add_argument("--cap", type=_positive_int, default=ENUM_CAP)
    common(p)
    p.set_defaults(fn=_cmd_cc)

    p = sub.add_parser("hecke", help="double-coset series of two parabolics")
    p.add_argument("--group", required=True, help="root system, e.g. A1")
    p.add_argument("--s1", default="-",
                   help="first parabolic: '-' Borel, 'all', 'a1,a2', "
                   "or roots:...")
    p.add_argument("--s2", default="-")
    p.add_argument("--levels", type=_positive_int, default=None)
    p.add_argument("--cap", type=_positive_int, default=ENUM_CAP)
    common(p)
    p.set_defaults(fn=_cmd_hecke)

    p = sub.add_parser("igusa", help="truncated polynomial integral")
    p.add_argument("--poly", required=True, help="e.g. 'a*b - c*d'")
    common(p)
    p.set_defaults(fn=_cmd_igusa)

    p = sub.add_parser("presburger", help="symbolic series summation")
    p.add_argument("--where", required=True, help="defining formula")
    p.add_argument("--sum", required=True, help="weight, e.g. q^(-n*s - l)")
    p.add_argument("--q", type=int, default=None,
                   help="also expand at this prime power")
    p.add_argument("--levels", type=_positive_int, default=None,
                   help="coefficients of the expansion (default 6; "
                   "needs --q)")
    common(p, ring=False)
    p.set_defaults(fn=_cmd_presburger)

    p = sub.add_parser("transfer",
                       help="compare the two ring kinds coefficientwise")
    p.add_argument("--group", required=True)
    p.add_argument("--primes", required=True, help="e.g. 2,3,5")
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--levels", type=_positive_int, required=True)
    p.add_argument("--s1", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--cap", type=_positive_int, default=ENUM_CAP)
    common(p, ring=False)
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   help="one of %s, or all" % ", ".join(verify_suites.SUITES))
    common(p, ring=False)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.fn(args)
    except (TooLarge, Divergent, VariableBudget, ModulusBudget,
            CellBudget) as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 3
    except IdentityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    emit(report, args.format)
    sys.stderr.write(
        f"# {args.command} took {time.perf_counter() - start:.3f}s\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
