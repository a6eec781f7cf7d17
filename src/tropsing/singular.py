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


def _segment_points(config, a, b):
    return [i for i, p in enumerate(config.points) if point_on_segment(p, a, b)]


def _edge_distances(curve, edge):
    """Lattice distances from the origin to the two edge endpoints.

    The primitive direction of the edge measures one lattice step; distances
    come out as positive rationals when the origin is strictly inside.
    """
    a = curve.vertices[edge.ends[0]]
    b = curve.vertices[edge.ends[1]]
    d = curve.edge_direction(edge)
    axis = 0 if d[0] != 0 else 1
    ta = -a[axis] / d[axis]
    tb = -b[axis] / d[axis]
    return abs(ta), abs(tb)


def _interior_count(cell, config):
    return sum(1 for i in cell.marked if not point_on_boundary(config.points[i], cell.polygon))


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
    vertex = curve.vertices[vi]
    inner = _interior_count(cell, config)

    if len(poly) == 3 and npts == 4 and inner == 1:
        if clean and info.codimension == 1:
            z = Circuit(tuple(cell.marked), "A")
            return SingularityReport(
                TYPE_A3,
                vertex=vertex,
                dual_cell=poly,
                multiplicity=mult,
                valence=val,
                circuit=z,
            )
        return SingularityReport(
            NON_MAXIMAL,
            vertex=vertex,
            dual_cell=poly,
            multiplicity=mult,
            valence=val,
            note="interior-point triangle at the origin, but cone not maximal",
        )
    if len(poly) == 3 and npts == 4 and inner == 0:
        # collinear circuit on a cell edge with its dual vertex at the origin:
        # boundary case of the weight-2-edge cones
        if clean:
            return SingularityReport(
                NON_GENERIC,
                vertex=vertex,
                dual_cell=poly,
                multiplicity=mult,
                valence=val,
                note="origin at an endpoint of a would-be weight-2 edge",
            )
        return SingularityReport(
            NON_MAXIMAL,
            vertex=vertex,
            dual_cell=poly,
            multiplicity=mult,
            valence=val,
            note="degenerate edge endpoint at the origin, cone not maximal",
        )
    if len(poly) == 4 and npts == 4:
        if clean and info.codimension == 1:
            z = Circuit(tuple(cell.marked), "B")
            return SingularityReport(
                TYPE_A4,
                vertex=vertex,
                dual_cell=poly,
                multiplicity=mult,
                valence=val,
                circuit=z,
            )
        return SingularityReport(
            NON_MAXIMAL,
            vertex=vertex,
            dual_cell=poly,
            multiplicity=mult,
            valence=val,
            note="quadrangle vertex at the origin, but cone not maximal",
        )
    if len(poly) == 4 and npts == 5 and inner == 0:
        kind = NON_GENERIC if clean else NON_MAXIMAL
        return SingularityReport(
            kind,
            vertex=vertex,
            dual_cell=poly,
            multiplicity=mult,
            valence=val,
            note="trapezoid vertex at the origin (pair height equals circuit height)",
        )
    if val == 3 and mult == 1:
        return SingularityReport(NOT_SINGULAR, note="origin is a smooth vertex")
    return SingularityReport(
        NON_MAXIMAL,
        vertex=vertex,
        dual_cell=poly,
        multiplicity=mult,
        valence=val,
        note="higher vertex structure at the origin",
    )


def _classify_edge(config, u, curve, ms, info, edge, clean):
    if edge.weight == 1:
        return SingularityReport(NOT_SINGULAR, note="origin inside a weight-1 edge")
    if edge.weight >= 3:
        return SingularityReport(
            NON_MAXIMAL,
            edge=(curve.vertices[edge.ends[0]], curve.vertices[edge.ends[1]]),
            edge_weight=edge.weight,
            note="edge weight exceeds 2",
        )
    zidx = _segment_points(config, *edge.dual_segment)
    z = Circuit(tuple(sorted(zidx)), "C")
    v1, v2 = edge.ends
    n1, n2 = curve.valence(v1), curve.valence(v2)
    d1, d2 = _edge_distances(curve, edge)
    endpoints = (curve.vertices[v1], curve.vertices[v2])

    if {n1, n2} == {3}:
        # a non-maximal cone can show this local picture with any distance
        # ratio (a hidden gray point lets a farther apex bind the cell), so
        # the maximality gates come before the metric verdicts
        if not (clean and info.codimension == 1):
            return SingularityReport(
                NON_MAXIMAL,
                edge=endpoints,
                edge_weight=2,
                circuit=z,
                l1=d1,
                l2=d2,
                note="weight-2 edge, but cone not maximal",
            )
        if d1 != d2:
            return SingularityReport(
                NOT_SINGULAR,
                edge=endpoints,
                edge_weight=2,
                l1=d1,
                l2=d2,
                circuit=z,
                note="unequal distances on a weight-2 edge",
            )
        u_wc = split_weightclass_lineality(config, u, z)[0]
        mu = u_wc[z.indices[0]]
        lam = max(
            u_wc[i]
            for i in range(config.size)
            if i not in z.indices and _off_line(config, z, i)
        )
        return SingularityReport(
            TYPE_B1,
            edge=endpoints,
            edge_weight=2,
            circuit=z,
            l1=d1,
            l2=d2,
            heights={"lambda": lam, "mu": mu},
        )

    if {n1, n2} == {3, 4}:
        if n1 == 4:
            d4, d3 = d1, d2
            c4, c3 = v1, v2
        else:
            d4, d3 = d2, d1
            c4, c3 = v2, v1
        if not (clean and info.codimension == 2):
            return SingularityReport(
                NON_MAXIMAL,
                edge=endpoints,
                edge_weight=2,
                circuit=z,
                l1=d4,
                l2=d3,
                note="4/3-valent weight-2 edge, but cone not of the expected shape",
            )
        if d4 == d3:
            return SingularityReport(
                NON_GENERIC,
                edge=endpoints,
                edge_weight=2,
                circuit=z,
                l1=d4,
                l2=d3,
                note="equidistant 4-valent and 3-valent vertices",
            )
        if d4 > d3:
            return SingularityReport(
                NOT_SINGULAR,
                edge=endpoints,
                edge_weight=2,
                circuit=z,
                l1=d4,
                l2=d3,
                note="4-valent vertex farther from the origin than the 3-valent one",
            )
        u_wc = split_weightclass_lineality(config, u, z)[0]
        mu = u_wc[z.indices[0]]
        quad = ms.cells[c4]
        grays = [i for i in quad.marked if i not in z.indices]
        tri = ms.cells[c3]
        apex = [i for i in tri.marked if i not in z.indices]
        heights = {
            "lambda": u_wc[grays[0]],
            "mu": mu,
            "nu": u_wc[apex[0]] if apex else None,
        }
        return SingularityReport(
            TYPE_B2_INTERIOR,
            edge=endpoints,
            edge_weight=2,
            circuit=z,
            l1=d4,
            l2=d3,
            heights=heights,
        )

    return SingularityReport(
        NON_MAXIMAL,
        edge=endpoints,
        edge_weight=2,
        circuit=z,
        note=f"weight-2 edge with valences {n1},{n2}",
    )


def _off_line(config, z: Circuit, i) -> bool:
    a = config.points[z.indices[0]]
    b = config.points[z.indices[1]]
    return orient(a, b, config.points[i]) != 0


def _classify_ray(config, u, curve, ms, info, ray, clean):
    if ray.weight == 1:
        return SingularityReport(NOT_SINGULAR, note="origin inside a weight-1 ray")
    if ray.weight >= 3:
        return SingularityReport(
            NON_MAXIMAL,
            ray_vertex=curve.vertices[ray.vertex],
            ray_direction=ray.direction,
            ray_weight=ray.weight,
            note="ray weight exceeds 2",
        )
    zidx = _segment_points(config, *ray.dual_segment)
    z = Circuit(tuple(sorted(zidx)), "C")
    val = curve.valence(ray.vertex)
    vpos = curve.vertices[ray.vertex]
    if val == 4:
        if clean and info.codimension == 2:
            u_wc = split_weightclass_lineality(config, u, z)[0]
            mu = u_wc[z.indices[0]]
            quad = ms.cells[ray.vertex]
            grays = [i for i in quad.marked if i not in z.indices]
            dist = _ray_distance(vpos, ray.direction)
            return SingularityReport(
                TYPE_B2_BOUNDARY,
                ray_vertex=vpos,
                ray_direction=ray.direction,
                ray_weight=2,
                circuit=z,
                l1=dist,
                heights={"lambda": u_wc[grays[0]], "mu": mu},
            )
        return SingularityReport(
            NON_MAXIMAL,
            ray_vertex=vpos,
            ray_direction=ray.direction,
            ray_weight=2,
            circuit=z,
            note="4-valent fat ray, but cone not of the expected shape",
        )
    if val == 3:
        if not clean:
            return SingularityReport(
                NON_MAXIMAL,
                ray_vertex=vpos,
                ray_direction=ray.direction,
                ray_weight=2,
                circuit=z,
                note="3-valent vertex over a boundary circuit with white points",
            )
        return SingularityReport(
            NOT_SINGULAR,
            ray_vertex=vpos,
            ray_direction=ray.direction,
            ray_weight=2,
            circuit=z,
            note="boundary circuit under a minimal-distance apex (excluded cone)",
        )
    return SingularityReport(
        NON_MAXIMAL,
        ray_vertex=vpos,
        ray_direction=ray.direction,
        ray_weight=2,
        circuit=z,
        note=f"weight-2 ray at a {val}-valent vertex",
    )


def _ray_distance(vpos, direction):
    axis = 0 if direction[0] != 0 else 1
    return abs(vpos[axis] / Fraction(direction[axis]))


def coefficient_matrix_non_torus(config) -> CoefficientMatrix:
    """Block matrix of the singularity conditions at the boundary point (1, 0).

    Rows: all-ones on the {y=0} block, the x-coordinates on the {y=0} block,
    and all-ones on the {y=1} block.  Requires at least 3 points with y = 0
    and at least 2 with y = 1, all exponents nonnegative.
    """
    pts = config.points
    if any(j < 0 for _i, j in pts):
        raise InsufficientBoundaryPointsError("negative exponents have a pole at y=0")
    bottom = [k for k, (_i, j) in enumerate(pts) if j == 0]
    second = [k for k, (_i, j) in enumerate(pts) if j == 1]
    if len(bottom) < 3 or len(second) < 2:
        raise InsufficientBoundaryPointsError(
            "need >= 3 points on {y=0} and >= 2 points on {y=1}"
        )
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
    coefficient_matrix_non_torus(config)  # validates the block structure
    u = as_heights(config, u)
    pts = config.points
    bottom = [k for k, (_i, j) in enumerate(pts) if j == 0]
    second = [k for k, (_i, j) in enumerate(pts) if j == 1]
    mb = max(u[k] for k in bottom)
    if sum(1 for k in bottom if u[k] == mb) < 3:
        return SingularityReport(
            NOT_SINGULAR, note="maximum on {y=0} attained fewer than 3 times"
        )
    m1 = max(u[k] for k in second)
    if sum(1 for k in second if u[k] == m1) < 2:
        return SingularityReport(
            NOT_SINGULAR, note="maximum on {y=1} attained fewer than 2 times"
        )
    curve = dual_curve(config, u)
    target = None
    for r in curve.rays:
        if r.direction == (0, -1) and r.weight >= 2 and curve.vertices[r.vertex][0] == 0:
            target = r
            break
    if target is None:
        return SingularityReport(
            NON_GENERIC, note="tie conditions hold but no fat downward end found"
        )
    val = curve.valence(target.vertex)
    mult = vertex_multiplicity(curve, target.vertex)
    if val >= 4:
        return SingularityReport(
            FAT_END,
            ray_vertex=curve.vertices[target.vertex],
            ray_direction=target.direction,
            ray_weight=target.weight,
            valence=val,
            multiplicity=mult,
            maximal_dimensional=(val == 4),
            note="fat end at a 4-valent vertex" if val == 4 else "fat end, valence > 4",
        )
    if val == 3 and mult >= 4:
        return SingularityReport(
            FAT_END,
            ray_vertex=curve.vertices[target.vertex],
            ray_direction=target.direction,
            ray_weight=target.weight,
            valence=val,
            multiplicity=mult,
            maximal_dimensional=False,
            note="fat end at a 3-valent vertex of higher multiplicity",
        )
    return SingularityReport(
        NON_GENERIC,
        ray_vertex=curve.vertices[target.vertex],
        ray_direction=target.direction,
        ray_weight=target.weight,
        valence=val,
        multiplicity=mult,
        note="fat end with unexpectedly small vertex data",
    )
