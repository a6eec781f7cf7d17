"""Classification of singular tropical curves at the origin.

A height vector in the tropicalized singular-curve family puts the origin
either at a vertex of higher multiplicity or valence, or inside an edge of
weight two subject to an exact metric condition.  classify_singularity
inspects the dual curve locally at the origin and reports which of the
maximal-dimensional shapes is present, with exact witness data; non-maximal,
degenerate and non-singular situations get their own report kinds.

For a singular point on a coordinate line instead of the torus, the
coefficient matrix becomes a block matrix and the signature of the curve is
an unbounded edge of weight at least two (a fat end); see classify_non_torus.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bergman import CoefficientMatrix
from .errors import InsufficientBoundaryPointsError
from .lattice import Circuit, orient, point_on_boundary, point_on_segment
from .subdivisions import as_heights, cone_info, split_weightclass_lineality
from .curves import dual_curve, locate_origin, vertex_multiplicity

TYPE_A3 = "TypeA3"
TYPE_A4 = "TypeA4"
TYPE_B1 = "TypeB1"
TYPE_B2_INTERIOR = "TypeB2Interior"
TYPE_B2_BOUNDARY = "TypeB2Boundary"
FAT_END = "FatEnd"
NON_MAXIMAL = "NonMaximal"
NOT_SINGULAR = "NotSingularAtOrigin"
NON_GENERIC = "NonGeneric"


@dataclass(frozen=True)
class SingularityReport:
    kind: str
    vertex: tuple = None          # curve vertex hosting the singularity
    dual_cell: tuple = None       # its dual polygon
    multiplicity: int = None
    valence: int = None
    edge: tuple = None            # endpoints of the weight-2 edge
    edge_weight: int = None
    ray_vertex: tuple = None      # adjacent vertex of the weight->=2 ray
    ray_direction: tuple = None
    ray_weight: int = None
    circuit: Circuit = None
    l1: Fraction = None
    l2: Fraction = None
    heights: dict = None          # normalized heights: lambda / mu / nu
    maximal_dimensional: bool = None
    note: str = ""

    def is_maximal_type(self) -> bool:
        return self.kind in (
            TYPE_A3,
            TYPE_A4,
            TYPE_B1,
            TYPE_B2_INTERIOR,
            TYPE_B2_BOUNDARY,
        )


def _segment_circuit(config, segment):
    """The collinear circuit of the marked points on a weight-2 dual segment."""
    on_segment = [i for i, p in enumerate(config.points) if point_on_segment(p, *segment)]
    return Circuit(tuple(on_segment), "C")


def _lattice_distance(p, d):
    """Steps of the primitive direction d between the origin and p on its line."""
    axis = 0 if d[0] != 0 else 1
    return abs(p[axis] / Fraction(d[axis]))


def _circuit_normalized(config, u, z):
    """Heights of u in the weight-class normalization of z, and mu, z's height."""
    u_wc = split_weightclass_lineality(config, u, z)[0]
    return u_wc, u_wc[z.indices[0]]


def _off_circuit(cell, z):
    """First marked point of the cell outside the circuit, None if none is."""
    return next((i for i in cell.marked if i not in z.indices), None)


def classify_singularity(config, u) -> SingularityReport:
    """Classify the curve of u by its local structure at the origin.

    The maximal-dimensional kinds and their exact witnesses:

    * TypeA3: 3-valent vertex at the origin of multiplicity 3, dual to a
      triangle with one marked interior point.
    * TypeA4: 4-valent vertex at the origin dual to a quadrangle covering no
      further lattice point.
    * TypeB1: origin strictly inside a weight-2 edge between two 3-valent
      vertices at equal lattice distances l1 = l2.
    * TypeB2Interior: weight-2 edge from a 4-valent to a 3-valent vertex with
      the 4-valent one strictly closer to the origin.
    * TypeB2Boundary: origin on a weight-2 ray leaving a 4-valent vertex.

    Height witnesses follow the normalization that puts the circuit heights
    equal and maximal: lambda is the tied pair height, mu the circuit height,
    nu the opposite-apex height (interior case).
    """
    u = as_heights(config, u)
    curve = dual_curve(config, u)
    ms = curve.subdivision
    info = cone_info(ms)
    where, obj = locate_origin(curve)
    clean = not info.white_points

    if where == "off":
        return SingularityReport(NOT_SINGULAR, note="origin not on the curve")

    if where == "vertex":
        return _classify_vertex(config, curve, ms, info, obj, clean)
    if where == "edge":
        return _classify_edge(config, u, curve, ms, info, obj, clean)
    return _classify_ray(config, u, curve, ms, info, obj, clean)


def _classify_vertex(config, curve, ms, info, vi, clean):
    cell = ms.cells[vi]
    poly = cell.polygon
    val = curve.valence(vi)
    mult = vertex_multiplicity(curve, vi)
    npts = len(cell.marked)
    inner = sum(1 for i in cell.marked if not point_on_boundary(config.points[i], poly))
    maximal = clean and info.codimension == 1
    circuit = None

    if len(poly) == 3 and npts == 4 and inner == 1:
        if maximal:
            kind, note, circuit = TYPE_A3, "", Circuit(tuple(cell.marked), "A")
        else:
            kind, note = NON_MAXIMAL, "interior-point triangle at the origin, but cone not maximal"
    elif len(poly) == 3 and npts == 4 and inner == 0:
        # collinear circuit on a cell edge with its dual vertex at the origin:
        # boundary case of the weight-2-edge cones
        if clean:
            kind, note = NON_GENERIC, "origin at an endpoint of a would-be weight-2 edge"
        else:
            kind, note = NON_MAXIMAL, "degenerate edge endpoint at the origin, cone not maximal"
    elif len(poly) == 4 and npts == 4:
        if maximal:
            kind, note, circuit = TYPE_A4, "", Circuit(tuple(cell.marked), "B")
        else:
            kind, note = NON_MAXIMAL, "quadrangle vertex at the origin, but cone not maximal"
    elif len(poly) == 4 and npts == 5 and inner == 0:
        kind = NON_GENERIC if clean else NON_MAXIMAL
        note = "trapezoid vertex at the origin (pair height equals circuit height)"
    elif val == 3 and mult == 1:
        return SingularityReport(NOT_SINGULAR, note="origin is a smooth vertex")
    else:
        kind, note = NON_MAXIMAL, "higher vertex structure at the origin"
    return SingularityReport(
        kind,
        vertex=curve.vertices[vi],
        dual_cell=poly,
        multiplicity=mult,
        valence=val,
        circuit=circuit,
        note=note,
    )


def _classify_edge(config, u, curve, ms, info, edge, clean):
    if edge.weight == 1:
        return SingularityReport(NOT_SINGULAR, note="origin inside a weight-1 edge")
    v1, v2 = edge.ends
    endpoints = (curve.vertices[v1], curve.vertices[v2])
    if edge.weight >= 3:
        return SingularityReport(
            NON_MAXIMAL, edge=endpoints, edge_weight=edge.weight, note="edge weight exceeds 2"
        )
    z = _segment_circuit(config, edge.dual_segment)
    n1, n2 = curve.valence(v1), curve.valence(v2)
    d = curve.edge_direction(edge)
    dists = [_lattice_distance(p, d) for p in endpoints]
    l1 = l2 = heights = None

    if {n1, n2} == {3}:
        l1, l2 = dists
        # a non-maximal cone can show this local picture with any distance
        # ratio (a hidden gray point lets a farther apex bind the cell), so
        # the maximality gates come before the metric verdicts
        if not (clean and info.codimension == 1):
            kind, note = NON_MAXIMAL, "weight-2 edge, but cone not maximal"
        elif l1 != l2:
            kind, note = NOT_SINGULAR, "unequal distances on a weight-2 edge"
        else:
            kind, note = TYPE_B1, ""
            u_wc, mu = _circuit_normalized(config, u, z)
            a, b = z.points(config)[:2]
            lam = max(u_wc[i] for i, p in enumerate(config.points) if orient(a, b, p) != 0)
            heights = {"lambda": lam, "mu": mu}
    elif {n1, n2} == {3, 4}:
        # l1 is the 4-valent end's distance, l2 the 3-valent end's
        l1, l2 = dists if n1 == 4 else dists[::-1]
        c4, c3 = (v1, v2) if n1 == 4 else (v2, v1)
        if not (clean and info.codimension == 2):
            kind = NON_MAXIMAL
            note = "4/3-valent weight-2 edge, but cone not of the expected shape"
        elif l1 == l2:
            kind, note = NON_GENERIC, "equidistant 4-valent and 3-valent vertices"
        elif l1 > l2:
            kind = NOT_SINGULAR
            note = "4-valent vertex farther from the origin than the 3-valent one"
        else:
            kind, note = TYPE_B2_INTERIOR, ""
            u_wc, mu = _circuit_normalized(config, u, z)
            apex = _off_circuit(ms.cells[c3], z)
            heights = {
                "lambda": u_wc[_off_circuit(ms.cells[c4], z)],
                "mu": mu,
                "nu": u_wc[apex] if apex is not None else None,
            }
    else:
        kind, note = NON_MAXIMAL, f"weight-2 edge with valences {n1},{n2}"
    return SingularityReport(
        kind,
        edge=endpoints,
        edge_weight=2,
        circuit=z,
        l1=l1,
        l2=l2,
        heights=heights,
        note=note,
    )


def _classify_ray(config, u, curve, ms, info, ray, clean):
    if ray.weight == 1:
        return SingularityReport(NOT_SINGULAR, note="origin inside a weight-1 ray")
    vpos = curve.vertices[ray.vertex]
    if ray.weight >= 3:
        return SingularityReport(
            NON_MAXIMAL,
            ray_vertex=vpos,
            ray_direction=ray.direction,
            ray_weight=ray.weight,
            note="ray weight exceeds 2",
        )
    z = _segment_circuit(config, ray.dual_segment)
    val = curve.valence(ray.vertex)
    l1 = heights = None

    if val == 4 and clean and info.codimension == 2:
        kind, note = TYPE_B2_BOUNDARY, ""
        u_wc, mu = _circuit_normalized(config, u, z)
        l1 = _lattice_distance(vpos, ray.direction)
        heights = {"lambda": u_wc[_off_circuit(ms.cells[ray.vertex], z)], "mu": mu}
    elif val == 4:
        kind, note = NON_MAXIMAL, "4-valent fat ray, but cone not of the expected shape"
    elif val == 3 and not clean:
        kind, note = NON_MAXIMAL, "3-valent vertex over a boundary circuit with white points"
    elif val == 3:
        kind, note = NOT_SINGULAR, "boundary circuit under a minimal-distance apex (excluded cone)"
    else:
        kind, note = NON_MAXIMAL, f"weight-2 ray at a {val}-valent vertex"
    return SingularityReport(
        kind,
        ray_vertex=vpos,
        ray_direction=ray.direction,
        ray_weight=2,
        circuit=z,
        l1=l1,
        heights=heights,
        note=note,
    )


def _boundary_rows(config):
    """Indices of the points on {y=0} and on {y=1}, checking the block structure."""
    pts = config.points
    if any(j < 0 for _i, j in pts):
        raise InsufficientBoundaryPointsError("negative exponents have a pole at y=0")
    bottom = [k for k, (_i, j) in enumerate(pts) if j == 0]
    second = [k for k, (_i, j) in enumerate(pts) if j == 1]
    if len(bottom) < 3 or len(second) < 2:
        raise InsufficientBoundaryPointsError(
            "need >= 3 points on {y=0} and >= 2 points on {y=1}"
        )
    return bottom, second


def coefficient_matrix_non_torus(config) -> CoefficientMatrix:
    """Block matrix of the singularity conditions at the boundary point (1, 0).

    Rows: all-ones on the {y=0} block, the x-coordinates on the {y=0} block,
    and all-ones on the {y=1} block.  Requires at least 3 points with y = 0
    and at least 2 with y = 1, all exponents nonnegative.
    """
    bottom, second = _boundary_rows(config)
    pts = config.points
    rows = [[Fraction(0)] * len(pts) for _ in range(3)]
    for k in bottom:
        rows[0][k] = Fraction(1)
        rows[1][k] = Fraction(pts[k][0])
    for k in second:
        rows[2][k] = Fraction(1)
    return CoefficientMatrix(tuple([tuple(r) for r in rows]), config, (Fraction(1), Fraction(0)))


def classify_non_torus(config, u) -> SingularityReport:
    """Fat-end test for a singularity at the boundary point (1, 0).

    Inside the relevant weight classes the maximum height on {y=0} is a
    three-way tie and on {y=1} a two-way tie; the dual curve then carries a
    downward ray of weight >= 2 on the line {x=0} whose adjacent vertex is at
    least 4-valent or 3-valent of multiplicity at least 4.  The report flags
    the 4-valent case as maximal dimensional.
    """
    bottom, second = _boundary_rows(config)
    u = as_heights(config, u)
    for row, ties, line in ((bottom, 3, "{y=0}"), (second, 2, "{y=1}")):
        top = max(u[k] for k in row)
        if sum(1 for k in row if u[k] == top) < ties:
            return SingularityReport(
                NOT_SINGULAR, note=f"maximum on {line} attained fewer than {ties} times"
            )
    curve = dual_curve(config, u)
    target = next(
        (
            r
            for r in curve.rays
            if r.direction == (0, -1) and r.weight >= 2 and curve.vertices[r.vertex][0] == 0
        ),
        None,
    )
    if target is None:
        return SingularityReport(
            NON_GENERIC, note="tie conditions hold but no fat downward end found"
        )
    val = curve.valence(target.vertex)
    mult = vertex_multiplicity(curve, target.vertex)
    maximal = None
    if val >= 4:
        kind, maximal = FAT_END, val == 4
        note = "fat end at a 4-valent vertex" if val == 4 else "fat end, valence > 4"
    elif val == 3 and mult >= 4:
        kind, maximal = FAT_END, False
        note = "fat end at a 3-valent vertex of higher multiplicity"
    else:
        kind, note = NON_GENERIC, "fat end with unexpectedly small vertex data"
    return SingularityReport(
        kind,
        ray_vertex=curve.vertices[target.vertex],
        ray_direction=target.direction,
        ray_weight=target.weight,
        valence=val,
        multiplicity=mult,
        maximal_dimensional=maximal,
        note=note,
    )
