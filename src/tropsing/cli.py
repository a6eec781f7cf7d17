"""Command line driver.

Subcommands: subdivide, curve, flags, classify, discriminant, lift, plot.
Input is a JSON job read from --in FILE (or stdin with '-'); results go to
stdout or --out FILE as JSON with exact rational strings.  Exit codes:
0 success, 1 domain error (error JSON emitted), 2 parse/usage error.
"""

import argparse
import json
import sys

from . import jsonio
from .bergman import classify_flag, coefficient_matrix, enumerate_flags, gale_dual
from .curves import curve_type, dual_curve, type_dimension
from .errors import MalformedFlagError, ParseError, TropsingError
from .jsonio import SCHEMA
from .series import (
    PuiseuxPolynomial,
    PuiseuxScalar,
    neg_val_vector,
    sample_singular_lift,
    verify_singular_at_one_one,
)
from .singular import classify_non_torus, classify_singularity
from .subdivisions import cone_info, is_discriminant_cone, regular_subdivision
from .svg import render_pair


def _read_job(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an int past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def _job_heights(config, job):
    """Heights either given directly or from series coefficients."""
    if "coefficients" in job:
        raw = job["coefficients"]
        if not isinstance(raw, list) or len(raw) != config.size:
            raise ParseError("'coefficients' must list one series per point")
        coeffs = tuple([PuiseuxScalar.parse(c) for c in raw])
        f = PuiseuxPolynomial(config, coeffs)
        return neg_val_vector(f), f
    return jsonio.heights_from_json(config, job), None


def _emit(payload, out_path):
    # print writes the newline on its own, so the output is never copied
    text = jsonio.dumps({"schema": SCHEMA, **payload})
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


def _cmd_subdivide(job, args):
    config = jsonio.config_from_json(job)
    u, _f = _job_heights(config, job)
    ms = regular_subdivision(config, u)
    info = cone_info(ms)
    return {
        "config": jsonio.config_to_json(config),
        "heights": jsonio.heights_to_json(u),
        "subdivision": jsonio.subdivision_to_json(ms),
        "cone": {
            "codimension": info.codimension,
            "white_points": list(info.white_points),
            "lt_dim": info.codimension,
            "lt_basis": [jsonio.heights_to_json(v) for v in info.lt_basis],
        },
    }


def _cmd_curve(job, args):
    config = jsonio.config_from_json(job)
    u, _f = _job_heights(config, job)
    curve = dual_curve(config, u)
    t = curve_type(curve)
    return {
        "config": jsonio.config_to_json(config),
        "curve": jsonio.curve_to_json(curve),
        "type": {
            "bounded_edges": t.b,
            "genus": t.g,
            "dimension": type_dimension(config, t),
        },
    }


def _cmd_flags(job, args):
    config = jsonio.config_from_json(job)
    A = coefficient_matrix(config)
    B = gale_dual(A, _pivots(args))
    flags = enumerate_flags(B, args.limit)
    out = []
    for f in flags:
        entry = jsonio.flag_to_json(f)
        try:
            fc = classify_flag(f, config)
            entry["case"] = fc.case
            entry["circuit"] = jsonio.circuit_to_json(fc.circuit)
            if fc.pair is not None:
                entry["pair"] = fc.pair
        except MalformedFlagError as exc:  # would falsify the chain dichotomy
            entry["case"] = "malformed"
            entry["error"] = str(exc)
        out.append(entry)
    return {
        "config": jsonio.config_to_json(config),
        "pivots": list(B.pivots),
        "flag_count": len(flags),
        "flags": out,
    }


def _cmd_classify(job, args):
    config = jsonio.config_from_json(job)
    u, f = _job_heights(config, job)
    if args.non_torus:
        rep = classify_non_torus(config, u)
    else:
        rep = classify_singularity(config, u)
    payload = {"config": jsonio.config_to_json(config), "report": jsonio.report_to_json(rep)}
    if f is not None:
        payload["singular_at_one_one"] = verify_singular_at_one_one(f)
    return payload


def _cmd_discriminant(job, args):
    config = jsonio.config_from_json(job)
    u, _f = _job_heights(config, job)
    ms = regular_subdivision(config, u)
    info = cone_info(ms)
    return {
        "config": jsonio.config_to_json(config),
        "codimension": info.codimension,
        "is_discriminant": is_discriminant_cone(ms),
    }


def _cmd_lift(job, args):
    config = jsonio.config_from_json(job)
    if "flag" in job:
        flag = jsonio.flag_from_json(job["flag"])  # nested, so the last flat holds every index
        if not flag.flats or flag.flats[-1] != tuple(range(config.size)):
            raise ParseError(f"the flag's last flat must be the ground set 0..{config.size - 1}")
    else:
        B = gale_dual(coefficient_matrix(config), _pivots(args))
        flags = enumerate_flags(B, args.limit)
        idx = job.get("flag_index", 0)
        if not jsonio.is_int(idx) or not 0 <= idx < len(flags):
            raise ParseError(f"'flag_index' out of range (0..{len(flags) - 1})")
        flag = flags[idx]
    exponents = None
    if "exponents" in job:
        if not isinstance(job["exponents"], list):
            raise ParseError("'exponents' must be a list of rationals")
        exponents = [jsonio.fraction_from_json(x) for x in job["exponents"]]
    sample = sample_singular_lift(config, flag, exponents=exponents, seed=args.seed)
    return {
        "config": jsonio.config_to_json(config),
        "flag": jsonio.flag_to_json(flag),
        "coefficients": [str(c) for c in sample.polynomial.coefficients],
        "neg_val": jsonio.heights_to_json(sample.neg_val),
        "target": jsonio.heights_to_json(sample.target),
        "in_weight_class_closure": sample.in_weight_class_closure,
        "singular_at_one_one": verify_singular_at_one_one(sample.polynomial),
    }


def _cmd_plot(job, args):
    config = jsonio.config_from_json(job)
    u, _f = _job_heights(config, job)
    curve = dual_curve(config, u)
    ms = curve.subdivision
    doc = render_pair(ms, curve)
    svg_path = args.svg or "tropsing.svg"
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return {
        "svg": svg_path,
        "cells": len(ms.cells),
        "vertices": len(curve.vertices),
        "rays": len(curve.rays),
    }


def _pivots(args):
    if not args.pivots:
        return None
    try:
        parts = tuple([int(x) for x in args.pivots.split(",")])
    except ValueError as exc:
        raise ParseError(f"bad --pivots value {args.pivots!r}") from exc
    if len(parts) != 3:
        raise ParseError("--pivots needs exactly three comma-separated indices")
    return parts


_COMMANDS = {
    "subdivide": _cmd_subdivide,
    "curve": _cmd_curve,
    "flags": _cmd_flags,
    "classify": _cmd_classify,
    "discriminant": _cmd_discriminant,
    "lift": _cmd_lift,
    "plot": _cmd_plot,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropsing",
        description="Exact subdivisions, tropical curves and singularity classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", default="-", help="job JSON file, '-' for stdin")
        p.add_argument("--out", dest="outfile", default=None, help="write result JSON here")
        if name in ("flags", "lift"):
            p.add_argument("--limit", type=int, default=None, help="flag enumeration guard")
            p.add_argument("--pivots", default=None, help="three pivot indices i,j,k")
        if name == "lift":
            p.add_argument("--seed", type=int, default=0)
        if name == "classify":
            p.add_argument("--non-torus", action="store_true", dest="non_torus")
        if name == "plot":
            p.add_argument("--svg", default=None, help="SVG output path")
    return parser


# built once: a parser is a web of reference cycles, so one per call would be
# left for the cycle collector after every command
_PARSER = build_parser()


def run_cli(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        job = _read_job(args.infile)
        payload = _COMMANDS[args.command](job, args)
    except ParseError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return 2
    except TropsingError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return 1
    _emit(payload, args.outfile)
    return 0


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
