"""Plane tropical curves dual to regular marked subdivisions.

The curve of a height vector is the non-differentiability locus of
max(u_ij + i*x + j*y).  Each cell of the subdivision contributes one vertex,
each interior edge a bounded curve edge orthogonal to it, each boundary edge
an unbounded ray; the weight of a curve edge is the lattice length of its
dual segment.  Coordinates stay exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import NotRealizableError
from .lattice import (
    canonical_key,
    lattice_length,
    point_on_segment,
    polygon_area2,
    primitive,
)
from .subdivisions import (
    MarkedSubdivision,
    SubdivisionType,
    _upper_faces,
    segment_owners,
)


@dataclass(frozen=True)
class CurveEdge:
    ends: tuple          # pair of vertex indices
    weight: int
    dual_cells: tuple    # the two cells sharing the dual segment
    dual_segment: tuple  # lattice endpoints of the dual segment


@dataclass(frozen=True)
class CurveRay:
    vertex: int
    direction: tuple     # primitive integer direction
    weight: int
    dual_cell: int
    dual_segment: tuple


class TropicalCurve:
    def __init__(self, subdivision, vertices, edges, rays):
        self.subdivision = subdivision
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.rays = tuple(rays)

    @property
    def config(self):
        return self.subdivision.config

    def valence(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e.ends) + sum(
            1 for r in self.rays if r.vertex == v
        )

    def edge_direction(self, edge: CurveEdge):
        """Primitive direction from ends[0] towards ends[1]."""
        a = self.vertices[edge.ends[0]]
        b = self.vertices[edge.ends[1]]
        dx, dy = b[0] - a[0], b[1] - a[1]
        num = (dx.numerator * dy.denominator, dy.numerator * dx.denominator)
        return primitive(num)

    def __eq__(self, other):
        return (
            isinstance(other, TropicalCurve)
            and self.subdivision == other.subdivision
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.rays == other.rays
        )

    def __repr__(self):
        return (
            f"TropicalCurve({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.rays)} rays)"
        )


def _outward_normal(seg, polygon):
    (a, b) = seg
    n = primitive((b[1] - a[1], a[0] - b[0]))
    for w in polygon:
        side = n[0] * (w[0] - a[0]) + n[1] * (w[1] - a[1])
        if side != 0:
            return n if side < 0 else (-n[0], -n[1])
    raise ValueError("degenerate cell")


def dual_curve(config, u) -> TropicalCurve:
    """Tropical curve dual to the regular subdivision of u.

    The vertex dual to a cell is (nx/nz, ny/nz) for the normal (nx, ny, nz)
    of the plane its points are lifted onto, i.e. (-b, -c) for that plane
    written z = a + b*x + c*y; the faces scan hands over those normals.
    """
    subdivision, normals = _upper_faces(config, u)
    cells = [cell.polygon for cell in subdivision.cells]
    vertices = []
    for cell in subdivision.cells:
        nx, ny, nz = normals[cell.marked]
        vertices.append((Fraction(nx, nz), Fraction(ny, nz)))
    edges = []
    rays = []
    for seg, owners in sorted(
        segment_owners(cells).items(), key=lambda kv: sorted(canonical_key(p) for p in kv[0])
    ):
        pts = sorted(seg, key=canonical_key)
        a, b = pts
        w = lattice_length(a, b)
        if len(owners) == 2:
            ci, cj = sorted(owners)
            edges.append(CurveEdge((ci, cj), w, (ci, cj), (a, b)))
        else:
            ci = owners[0]
            direction = _outward_normal((a, b), cells[ci])
            rays.append(CurveRay(ci, direction, w, ci, (a, b)))
    edges.sort(key=lambda e: e.ends)
    rays.sort(key=lambda r: (r.vertex, r.direction))
    return TropicalCurve(subdivision, vertices, edges, rays)


def vertex_multiplicity(curve: TropicalCurve, v: int) -> int:
    """Normalized lattice area (twice the Euclidean area) of the dual cell."""
    return abs(polygon_area2(curve.subdivision.cells[v].polygon))


@dataclass(frozen=True)
class CurveType:
    """Combinatorial type: the dual subdivision shape plus edge/genus counts."""

    shape: SubdivisionType
    b: int
    g: int


def curve_type(curve: TropicalCurve) -> CurveType:
    shape = curve.subdivision.type()
    b = len(curve.edges)
    g = b - len(shape.cells) + 1
    return CurveType(shape, b, g)


def _type_cells(config, t):
    if isinstance(t, CurveType):
        return t.shape.cells
    if isinstance(t, SubdivisionType):
        return t.cells
    if isinstance(t, MarkedSubdivision):
        return t.type().cells
    raise TypeError("expected a CurveType, SubdivisionType or MarkedSubdivision")


def type_dimension(config, t) -> int:
    """Dimension of the polyhedron parametrizing curves of this type.

    Unknowns: one vertex position plus one length per bounded edge; every
    independent cycle of the dual graph must close up in the plane, giving two
    equations.  The dimension is 2 + b minus the rank of those equations.
    Raises NotRealizableError when no choice of positive lengths closes all
    cycles.
    """
    cells = _type_cells(config, t)
    interior = [
        (tuple(sorted(owners)), tuple(sorted(seg, key=canonical_key)))
        for seg, owners in segment_owners(cells).items()
        if len(owners) == 2
    ]
    interior.sort()
    b_count = len(interior)
    adj = {}
    for ei, ((x, y), seg) in enumerate(interior):
        adj.setdefault(x, []).append((y, ei))
        adj.setdefault(y, []).append((x, ei))
    # spanning tree over the (connected) dual graph
    parent = {0: (None, None)}
    order = [0]
    for node in order:
        for nxt, ei in adj.get(node, []):
            if nxt not in parent:
                parent[nxt] = (node, ei)
                order.append(nxt)
    tree_edges = {ei for _n, (_p, ei) in parent.items() if ei is not None}

    def path_to_root(node):
        path = []
        while parent[node][0] is not None:
            pnode, pei = parent[node]
            path.append((node, pei))
            node = pnode
        return path

    rows = []
    for ei, ((x, y), seg) in enumerate(interior):
        if ei in tree_edges:
            continue
        coeffs = [(Fraction(0), Fraction(0)) for _ in range(b_count)]

        # a step out of cell frm across a bounded edge runs along frm's outward normal
        def add_step(frm, edge_index, sign):
            (sx, sy) = _outward_normal(interior[edge_index][1], cells[frm])
            cx, cy = coeffs[edge_index]
            coeffs[edge_index] = (cx + sign * sx, cy + sign * sy)

        add_step(x, ei, 1)
        # walk y -> root -> x through the tree: y up to root contributes +,
        # root down to x contributes -, done by walking both up and combining
        for frm, pei in path_to_root(y):
            add_step(frm, pei, 1)
        for frm, pei in path_to_root(x):
            add_step(frm, pei, -1)
        rows.append([c[0] for c in coeffs])
        rows.append([c[1] for c in coeffs])
    rank = linalg.rank(rows) if rows else 0
    if rows and not _positive_solution_exists(rows, b_count):
        raise NotRealizableError("no positive edge lengths close all cycles")
    return 2 + b_count - rank


def _positive_solution_exists(rows, nvars) -> bool:
    """Strict feasibility of {M x = 0, x > 0} by Fourier-Motzkin elimination."""
    kernel = linalg.kernel_basis(rows, nvars)
    if not kernel:
        return False
    # inequalities: each original variable expressed in kernel coordinates > 0
    ineqs = []
    for var in range(nvars):
        ineqs.append([vec[var] for vec in kernel])
    dims = len(kernel)
    for elim in range(dims - 1, -1, -1):
        pos = [q for q in ineqs if q[elim] > 0]
        neg = [q for q in ineqs if q[elim] < 0]
        keep = [q[:elim] for q in ineqs if q[elim] == 0]
        for p in pos:
            for q in neg:
                combo = [p[i] * (-q[elim]) + q[i] * p[elim] for i in range(elim)]
                keep.append(combo)
        ineqs = keep
        # a strict inequality with no variables left must read 0 > 0: infeasible
        for q in ineqs:
            if all(x == 0 for x in q):
                return False
        ineqs = [q for q in ineqs if any(x != 0 for x in q)]
    return True


def is_balanced(curve: TropicalCurve) -> bool:
    """Exact balancing check at every vertex (weighted primitive directions)."""
    for v in range(len(curve.vertices)):
        total = [0, 0]
        for e in curve.edges:
            if v not in e.ends:
                continue
            d = curve.edge_direction(e)
            if e.ends[1] == v:
                d = (-d[0], -d[1])
            total[0] += e.weight * d[0]
            total[1] += e.weight * d[1]
        for r in curve.rays:
            if r.vertex == v:
                total[0] += r.weight * r.direction[0]
                total[1] += r.weight * r.direction[1]
        if total != [0, 0]:
            return False
    return True


def locate_origin(curve: TropicalCurve):
    """Where the origin sits on the curve.

    Returns ('vertex', index), ('edge', CurveEdge), ('ray', CurveRay) with
    relative-interior semantics for edges and rays, or ('off', None).
    """
    origin = (Fraction(0), Fraction(0))
    for i, v in enumerate(curve.vertices):
        if v == origin:
            return ("vertex", i)
    for e in curve.edges:
        a = curve.vertices[e.ends[0]]
        b = curve.vertices[e.ends[1]]
        if a != origin and b != origin and point_on_segment(origin, a, b):
            return ("edge", e)
    for r in curve.rays:
        v = curve.vertices[r.vertex]
        if v == origin:
            continue
        dx, dy = -v[0], -v[1]
        rx, ry = r.direction
        if dx * ry == dy * rx and (dx * rx > 0 or dy * ry > 0):
            return ("ray", r)
    return ("off", None)
