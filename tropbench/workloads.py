"""What one job does in each workload, and how its output is checked.

`run` makes the timed calls into the program, each through `Tracer.call`,
so a traced run records one span per layer call.  `check` runs after the
job's timer has stopped: it raises CheckFailed on a wrong output, adds to
the workload's counters, and returns the job's canonical output, whose
digest the worker compares across rounds and with the recorded digests.
"""

import contextlib
import io
import json
import os
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import gcd

import tropsing as T
from tropsing.cli import run_cli
from tropsing.curves import is_balanced, locate_origin

import jobs as J

REPORT_FIELDS = (
    "kind", "vertex", "dual_cell", "multiplicity", "valence", "edge", "edge_weight",
    "ray_vertex", "ray_direction", "ray_weight", "circuit", "l1", "l2", "heights",
)
REPORT_KINDS = {
    "TypeA3", "TypeA4", "TypeB1", "TypeB2Interior", "TypeB2Boundary", "FatEnd",
    "NonMaximal", "NotSingularAtOrigin", "NonGeneric",
}


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def canon(x):
    """Plain JSON-able form with exact rationals as strings."""
    if isinstance(x, Fraction):
        return J.frac(x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in sorted(x.items())]
    if is_dataclass(x):
        return [[f.name, canon(getattr(x, f.name))] for f in fields(x)]
    return [canon(v) for v in x]


def dumps(x):
    return json.dumps(canon(x), separators=(",", ":"))


class GeomLadder:
    """regular_subdivision -> cone_info -> dual_curve -> curve_type /
    type_dimension -> classify_singularity, one job per (configuration,
    heights)."""

    def __init__(self, tracer, workdir):
        self.tracer = tracer

    def prepare(self, r, jobs):
        for job in jobs:
            job["_points"] = [tuple(p) for p in job["points"]]
            job["_u"] = tuple(Fraction(h) for h in job["heights"])

    def run(self, job):
        call = self.tracer.call
        u = job["_u"]
        config = call("lattice.PointConfiguration", T.PointConfiguration, job["_points"])
        ms = call("subdivisions.regular_subdivision", T.regular_subdivision, config, u)
        info = call("subdivisions.cone_info", T.cone_info, ms)
        curve = call("curves.dual_curve", T.dual_curve, config, u)
        ctype = call("curves.curve_type", T.curve_type, curve)
        dim = call("curves.type_dimension", T.type_dimension, config, ctype)
        report = call("singular.classify_singularity", T.classify_singularity, config, u)
        return config, ms, info, curve, ctype, dim, report

    def check(self, job, out, counts):
        config, ms, info, curve, ctype, dim, report = out
        expect(list(config.points) == job["_points"], "configuration reordered its points")
        # criterion 8: balancing, areas, and the duality counts
        expect(is_balanced(curve), "curve is not balanced")
        area = sum(J.area2(cell.polygon) for cell in ms.cells)
        expect(area == J.area2(job["_points"]), "cell areas do not sum to the polygon")
        expect(len(curve.vertices) == len(ms.cells), "vertex count differs from cell count")
        expect(curve.subdivision == ms, "dual curve and subdivision disagree")
        segs = {}
        for cell in ms.cells:
            poly = cell.polygon
            for k in range(len(poly)):
                seg = frozenset((poly[k], poly[(k + 1) % len(poly)]))
                segs[seg] = segs.get(seg, 0) + 1
        expect(len(curve.edges) == sum(1 for v in segs.values() if v == 2), "edge count")
        expect(len(curve.rays) == sum(1 for v in segs.values() if v == 1), "ray count")
        for e in list(curve.edges) + list(curve.rays):
            a, b = e.dual_segment
            expect(e.weight == gcd(a[0] - b[0], a[1] - b[1]), "weight is not the lattice length")
        expect(ctype.b == len(curve.edges), "curve type counts the wrong edges")
        expect(report.kind in REPORT_KINDS, f"unknown report kind {report.kind}")
        on_curve = locate_origin(curve)[0] != "off"
        expect(on_curve or not report.is_maximal_type(), "maximal type off the curve")
        counts["subdivisions.cells"] += len(ms.cells)
        counts["curves.bounded_edges"] += ctype.b
        counts["singular.on_curve"] += on_curve
        return dumps(
            [
                [(c.polygon, c.marked) for c in ms.cells],
                [info.codimension, info.white_points],
                [curve.vertices, [(e.ends, e.weight, e.dual_segment) for e in curve.edges]],
                [(r.vertex, r.direction, r.weight, r.dual_segment) for r in curve.rays],
                [ctype.b, ctype.g, dim],
                [getattr(report, f, None) for f in REPORT_FIELDS],
            ]
        )


class MatroidFlags:
    """The bergman layer on fixed matroids: flags, circuits, three oracles."""

    def __init__(self, tracer, workdir):
        self.tracer = tracer
        self.matroids = {
            name: (T.PointConfiguration(points), torus, nflags)
            for name, points, torus, nflags in J.MATROIDS
        }
        self.state = {}

    def prepare(self, r, jobs):
        for job in jobs:
            if "vector" in job:
                job["_w"] = [Fraction(x) for x in job["vector"]]
            if "gaps" in job:
                job["_gaps"] = [Fraction(g) for g in job["gaps"]]
                job["_shift"] = Fraction(job["shift"])

    def run(self, job):
        call = self.tracer.call
        name = job["matroid"]
        config, torus, _n = self.matroids[name]
        op = job["op"]
        if op == "enumerate":
            if torus:
                A = call("bergman.coefficient_matrix", T.coefficient_matrix, config)
            else:
                A = call(
                    "singular.coefficient_matrix_non_torus", T.coefficient_matrix_non_torus, config
                )
            B = call("bergman.gale_dual", T.gale_dual, A)
            flags = call("bergman.enumerate_flags", T.enumerate_flags, B)
            self.state[name] = (A, B, flags)
            return flags
        if op == "classify":
            flags = self.state[name][2]
            return [call("bergman.classify_flag", T.classify_flag, f, config) for f in flags]
        if op == "circuits":
            return call("lattice.circuits", T.circuits, config)
        A, B, flags = self.state[name]
        if "_w" in job:
            w = job["_w"]
        else:
            base = call(
                "bergman.weight_class_sample",
                T.weight_class_sample,
                flags[job["flag_index"]],
                job["_gaps"],
            )
            w = [x + job["_shift"] for x in base]
        m1 = call("bergman.member_loopfree", T.bergman_member_loopfree, B, w)
        m2 = call("bergman.member_circuit_oracle", T.bergman_member_circuit_oracle, A, w)
        m3 = call("bergman.flag_from_weight", T.flag_from_weight, B, w).is_flag_of_flats
        return m1, m2, m3

    def check(self, job, out, counts):
        config, _torus, nflags = self.matroids[job["matroid"]]
        op = job["op"]
        if op == "enumerate":
            expect(len(out) == nflags, f"{len(out)} flags, expected {nflags}")
            full = tuple(range(config.size))
            expect(all(f.flats[-1] == full for f in out), "a flag does not end in the ground set")
            counts["bergman.flags"] += len(out)
            return dumps([f.flats for f in out])
        if op == "classify":
            expect(len(out) == nflags, "not every flag was classified")
            expect(all(fc.case in ("A", "B") for fc in out), "flag class outside A/B")
            return dumps([(fc.case, fc.circuit, fc.pair) for fc in out])
        if op == "circuits":
            pts = config.points
            for z in out:
                p = [pts[i] for i in z.indices]
                if z.kind == "C":
                    expect(len(p) == 3 and J.orient(*p) == 0, "bad collinear circuit")
                else:
                    expect(len(p) == 4, "bad circuit size")
                    expect(all(J.orient(p[a], p[b], p[c]) != 0
                               for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
                           "4-point circuit with a collinear triple")
                    expect((len(J.hull(p)) == 4) == (z.kind == "B"), "circuit kind A/B swapped")
            return dumps([(z.indices, z.kind) for z in out])
        m1, m2, m3 = out
        expect(m1 == m2 == m3, f"oracles disagree: loopfree={m1} circuit={m2} flag={m3}")
        expect(m1 or "_w" in job, "a weight-class sample is not in the Bergman fan")
        counts["bergman.queries"] += 1
        counts["bergman.members"] += m1
        return dumps(out)


# flag counts the `flags` command must print per family configuration
FAMILY_FLAGS = {"A3": 4, "A4": 24, "B1": 12240, "B2": 174, "FatEnd": 11760}


def boundary_rows_ok(points):
    """Whether classify --non-torus accepts the configuration."""
    return (sum(1 for p in points if p[1] == 0) >= 3
            and sum(1 for p in points if p[1] == 1) >= 2
            and all(p[1] >= 0 for p in points))


class CliSingular:
    """The singular pipeline through the in-process CLI, stdout captured."""

    def __init__(self, tracer, workdir):
        self.tracer = tracer
        self.workdir = workdir
        self.samples = {}  # sample id -> what its subdivide and curve printed
        self.lift_targets = {}  # lift job id -> input file of the classify that follows

    def _path(self, job_id, ext):
        return os.path.join(self.workdir, f"{job_id}.{ext}")

    def prepare(self, r, jobs):
        self.samples.clear()
        # the commands run on one sample read one input file, as a user's would
        written = {}  # input text -> the file that holds it
        for job in jobs:
            path = self._path(job["id"], "json")
            source = job["input"].get("coefficients_from")
            if source:
                self.lift_targets[source] = path
            else:
                text = json.dumps(job["input"])
                if text not in written:
                    written[text] = path
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                path = written[text]
            job["_argv"] = job["argv"] + ["--in", path]
            if job["argv"][0] == "plot":
                job["_argv"] += ["--svg", self._path(job["id"], "svg")]
            name = job["argv"][0] + ("_non_torus" if "--non-torus" in job["argv"] else "")
            job["_span"] = "cli." + name

    def run(self, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tracer.call(job["_span"], run_cli, job["_argv"])
        return code, buf.getvalue()

    def check(self, job, out, counts):
        code, text = out
        try:
            payload = json.loads(text)
        except ValueError:
            raise CheckFailed("stdout is not one JSON document") from None
        expect(payload.get("schema") == "tropsing/1", "missing schema tag")
        cmd, fam = job["argv"][0], job["family"]
        state = self.samples.setdefault(job["id"].rsplit(".", 1)[0], {})
        points = [tuple(p) for p in job["input"]["points"]]
        error = None
        if cmd == "classify" and "--non-torus" in job["argv"] and not boundary_rows_ok(points):
            error = "InsufficientBoundaryPointsError"
        elif cmd == "discriminant" and state.get("codimension") != 1:
            error = "WrongCodimensionError"
        if error:
            expect(code == 1, f"exit {code}, expected 1")
            expect(payload["error"]["type"] == error, f"error {payload['error']['type']}")
            counts["cli.expected_exit1"] += 1
        else:
            expect(code == 0, f"exit {code}: {payload.get('error')}")
        counts["cli.bytes_out"] += len(text)
        canonical = f"{code}\n{text}"
        if code != 0:
            return canonical
        if cmd == "subdivide":
            state["codimension"] = payload["cone"]["codimension"]
            state["cells"] = len(payload["subdivision"]["cells"])
        elif cmd == "curve":
            state["vertices"] = len(payload["curve"]["vertices"])
        elif cmd == "classify":
            if job["expect_kind"]:
                kind = payload["report"]["kind"]
                expect(kind == job["expect_kind"], f"{kind}, expected {job['expect_kind']}")
            if "coefficients_from" in job["input"]:
                expect(payload["singular_at_one_one"] is True, "lifted series not singular")
        elif cmd == "discriminant":
            expect(payload["codimension"] == 1, "discriminant on a cone of codim != 1")
        elif cmd == "plot":
            expect(payload["svg"] == job["_argv"][-1], "SVG written elsewhere")
            # where the benchmark keeps its files is not part of the output
            canonical = canonical.replace(json.dumps(payload["svg"]), '"SVG"')
            expect(payload["cells"] == state["cells"], "plot and subdivide disagree on cells")
            expect(payload["vertices"] == state["vertices"], "plot and curve disagree on vertices")
            with open(payload["svg"], encoding="utf-8") as fh:
                svg = fh.read()
            expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), "malformed SVG")
            canonical += svg
        elif cmd == "lift":
            expect(payload["singular_at_one_one"] is True, "lift is not singular at (1,1)")
            counts["series.singular_lifts"] += 1
            coeffs = dict(job["input"], coefficients=payload["coefficients"])
            del coeffs["flag"]
            with open(self.lift_targets.pop(job["id"]), "w", encoding="utf-8") as fh:
                json.dump(coeffs, fh)
        elif cmd == "flags":
            expect(payload["flag_count"] == FAMILY_FLAGS[fam], f"{payload['flag_count']} flags")
            expect(len(payload["flags"]) == payload["flag_count"], "flag list length")
            expect(all(f["case"] in ("A", "B") for f in payload["flags"]), "malformed flag")
        return canonical


WORKLOADS = {"geom_ladder": GeomLadder, "matroid_flags": MatroidFlags, "cli_singular": CliSingular}
