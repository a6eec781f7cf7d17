"""JSON encoding/decoding for the CLI (schema "tropsing/1").

All rational values travel as exact strings ("p/q" or an integer string);
floats are rejected on input so no precision is ever lost.  Indices into a
configuration are 0-based and refer to the canonical point order.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bergman import FlagOfFlats
from .curves import TropicalCurve
from .errors import ParseError
from .lattice import Circuit, PointConfiguration
from .singular import SingularityReport
from .subdivisions import MarkedSubdivision

SCHEMA = "tropsing/1"


def fraction_to_json(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_json(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"rationals must be ints or 'p/q' strings, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"bad rational literal {value!r}") from exc


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


def circuit_to_json(z: Circuit) -> dict:
    return {"indices": list(z.indices), "kind": z.kind}


def flag_to_json(flag: FlagOfFlats) -> dict:
    return {"flats": [list(f) for f in flag.flats]}


def flag_from_json(obj) -> FlagOfFlats:
    if not isinstance(obj, list) or not all(
        isinstance(f, list) and all(is_int(i) for i in f) for f in obj
    ):
        raise ParseError("a flag must be a list of index lists")
    return FlagOfFlats(tuple([tuple(sorted(f)) for f in obj]))


def report_to_json(rep: SingularityReport) -> dict:
    out = {"kind": rep.kind}
    if rep.vertex is not None:
        out["vertex"] = rational_point_to_json(rep.vertex)
    if rep.dual_cell is not None:
        out["dual_cell"] = [point_to_json(p) for p in rep.dual_cell]
    if rep.multiplicity is not None:
        out["multiplicity"] = rep.multiplicity
    if rep.valence is not None:
        out["valence"] = rep.valence
    if rep.edge is not None:
        out["edge"] = [rational_point_to_json(v) for v in rep.edge]
    if rep.edge_weight is not None:
        out["edge_weight"] = rep.edge_weight
    if rep.ray_vertex is not None:
        out["ray_vertex"] = rational_point_to_json(rep.ray_vertex)
    if rep.ray_direction is not None:
        out["ray_direction"] = list(rep.ray_direction)
    if rep.ray_weight is not None:
        out["ray_weight"] = rep.ray_weight
    if rep.circuit is not None:
        out["circuit"] = circuit_to_json(rep.circuit)
    if rep.l1 is not None:
        out["l1"] = fraction_to_json(rep.l1)
    if rep.l2 is not None:
        out["l2"] = fraction_to_json(rep.l2)
    if rep.heights is not None:
        out["heights"] = {
            k: fraction_to_json(v) for k, v in rep.heights.items() if v is not None
        }
    if rep.maximal_dimensional is not None:
        out["maximal_dimensional"] = rep.maximal_dimensional
    if rep.note:
        out["note"] = rep.note
    return out


def dumps(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, byte for byte.

    Accepts str, int, bool, None, lists, tuples and dicts with str keys;
    anything else, floats included, raises TypeError.  A list of plain ints
    is written with one join, and each distinct one at each depth is encoded
    once per call: the same flats recur across thousands of flags.
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
        if set(map(type, obj)) == {int}:
            key = (tuple(obj), pad)
            if key not in known:
                known[key] = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
            emit(known[key])
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
