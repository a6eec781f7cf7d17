"""JSON encoding/decoding for the CLI (schema "tropsing/1").

All rational values travel as exact strings ("p/q" or an integer string);
floats are rejected on input so no precision is ever lost.  Indices into a
configuration are 0-based and refer to the canonical point order.
"""

import re
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bergman import FlagOfFlats
from .curves import TropicalCurve
from .errors import MalformedFlagError, ParseError, TropsingError
from .lattice import Circuit, PointConfiguration
from .singular import SingularityReport
from .subdivisions import MarkedSubdivision

SCHEMA = "tropsing/1"


# digits allowed in each of a rational's numerator and denominator on input
MAX_DIGITS = 1000
_RATIONAL = re.compile(r"-?\d{1,%d}(/\d{1,%d})?" % (MAX_DIGITS, MAX_DIGITS), re.ASCII)


def fraction_to_json(x) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise TropsingError(f"rational too long to print: {exc}") from exc


def fraction_from_json(value) -> Fraction:
    """A JSON int or a string "n" or "p/q", each part at most MAX_DIGITS digits."""
    if is_int(value):
        value = str(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in {value!r}") from exc
    shown = repr(value[:40]) if isinstance(value, str) else f"a {type(value).__name__}"
    raise ParseError(
        f"rationals are JSON ints or 'p/q' strings of at most {MAX_DIGITS} digits each, "
        f"got {shown}"
    )


def is_int(x) -> bool:
    """JSON integer; booleans are not, although Python counts them as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def point_to_json(p):
    return [int(p[0]), int(p[1])]


def rational_point_to_json(p):
    return [fraction_to_json(p[0]), fraction_to_json(p[1])]


def config_to_json(config: PointConfiguration) -> dict:
    return {
        "points": [point_to_json(p) for p in config.points],
        "polygon": [point_to_json(p) for p in config.polygon],
        "saturated": config.saturated,
    }


def config_from_json(obj) -> PointConfiguration:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError("expected an object with a 'points' list")
    pts = obj["points"]
    if not isinstance(pts, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(is_int(c) for c in p)
        for p in pts
    ):
        raise ParseError("'points' must be a list of [i, j] integer pairs")
    relaxed = obj.get("relaxed", False)
    if not isinstance(relaxed, bool):
        raise ParseError("'relaxed' must be true or false")
    if relaxed:
        return PointConfiguration.relaxed([tuple(p) for p in pts])
    return PointConfiguration([tuple(p) for p in pts])


def heights_from_json(config, obj):
    raw = obj.get("heights")
    if raw is None:
        raise ParseError("this command needs a 'heights' list")
    if not isinstance(raw, list) or len(raw) != config.size:
        raise ParseError(f"'heights' must list one rational per point ({config.size})")
    return tuple([fraction_from_json(x) for x in raw])


def heights_to_json(u):
    return [fraction_to_json(x) for x in u]


def subdivision_to_json(ms: MarkedSubdivision) -> dict:
    return {
        "cells": [
            {
                "polygon": [point_to_json(p) for p in cell.polygon],
                "marked": list(cell.marked),
            }
            for cell in ms.cells
        ],
        "white_points": list(ms.white_points()),
    }


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "vertices": [rational_point_to_json(v) for v in curve.vertices],
        "bounded_edges": [
            {
                "ends": list(e.ends),
                "weight": e.weight,
                "dual_cells": list(e.dual_cells),
                "dual_segment": [point_to_json(p) for p in e.dual_segment],
            }
            for e in curve.edges
        ],
        "rays": [
            {
                "vertex": r.vertex,
                "direction": list(r.direction),
                "weight": r.weight,
                "dual_cell": r.dual_cell,
                "dual_segment": [point_to_json(p) for p in r.dual_segment],
            }
            for r in curve.rays
        ],
    }


# these hand `dumps` the objects' own tuples, which it writes as arrays and
# encodes once per object; `flag_from_json` reads a flat as a list or a tuple
def circuit_to_json(z: Circuit) -> dict:
    return {"indices": z.indices, "kind": z.kind}


def flag_to_json(flag: FlagOfFlats) -> dict:
    return {"flats": list(flag.flats)}


def flag_from_json(obj) -> FlagOfFlats:
    if not isinstance(obj, list) or not all(
        isinstance(f, (list, tuple)) and all(is_int(i) for i in f) for f in obj
    ):
        raise ParseError("a flag must be a list of index lists")
    try:
        return FlagOfFlats(tuple([tuple(sorted(f)) for f in obj]))
    except MalformedFlagError as exc:
        raise ParseError(str(exc)) from exc


# read once: `fields()` builds its tuple from a generator on every call
_REPORT_FIELDS = [field.name for field in fields(SingularityReport)]


def report_to_json(rep: SingularityReport) -> dict:
    """Every witness the report sets; None heights and an empty note are dropped."""
    out = {}
    for name in _REPORT_FIELDS:
        value = _witness_to_json(getattr(rep, name))
        if value is not None and value != "":
            out[name] = value
    return out


def _witness_to_json(x):
    if isinstance(x, Fraction):
        return fraction_to_json(x)
    if isinstance(x, Circuit):
        return circuit_to_json(x)
    if isinstance(x, tuple):
        return [_witness_to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: _witness_to_json(v) for k, v in x.items() if v is not None}
    return x


def dumps(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, byte for byte.

    Accepts str, int, bool, None, lists, tuples and dicts with str keys;
    anything else, floats included, raises TypeError.  A list or tuple of
    plain ints is joined once per object and depth, keyed by its id, which the
    payload keeps unique for the call: `flags` output shares each flat's
    tuple across thousands of flags.
    """
    chunks = []
    _encode(payload, "\n", chunks.append, {})
    return "".join(chunks)


def _encode(obj, pad, emit, known):
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = pad + "  "
        key = (id(obj), pad)
        text = known.get(key)
        if text is None and set(map(type, obj)) == {int}:
            known[key] = text = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
        if text is not None:
            emit(text)
            return
        sep = "["
        for item in obj:
            emit(sep + inner)
            _encode(item, inner, emit, known)
            sep = ","
        emit(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = pad + "  "
        sep = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep + inner + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, emit, known)
            sep = ","
        emit(pad + "}")
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
