"""Regular marked subdivisions of a lattice polygon and their secondary-fan data.

A height vector lifts every configuration point into 3-space; projecting the
upper faces of the lifted hull back down gives the regular marked subdivision.
Since configurations are tiny, the upper faces are found in one scan over
the planes through point triples.  The heights are first scaled to integers
by the lcm of their denominators, so each plane's normal and each side test
are integer cross and dot products: exact, with no Fraction in the loop.
That scan (_upper_faces) is the only place the lifted hull is computed;
regular_subdivision returns its cells, and dual_curve reads each vertex off
the normal the scan kept for its cell.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import linalg
from .errors import (
    ConfigurationError,
    NotInUnionError,
    SubdivisionError,
    WrongCodimensionError,
)
from .lattice import (
    Circuit,
    affine_relation_space,
    canonical_key,
    circuit_kind,
    convex_hull,
    orient,
    point_in_polygon,
    point_on_segment,
    polygon_area2,
    polygon_edges,
    primitive,
)


def as_heights(config, u):
    heights = tuple([Fraction(x) for x in u])
    if len(heights) != config.size:
        raise ConfigurationError(
            f"height vector has length {len(heights)}, expected {config.size}"
        )
    return heights


@dataclass(frozen=True)
class MarkedCell:
    polygon: tuple  # CCW vertex cycle starting at the canonical-smallest vertex
    marked: tuple   # sorted configuration indices, contains the cell's vertices


@dataclass(frozen=True)
class SubdivisionType:
    """A subdivision with the markings forgotten."""

    cells: tuple  # tuple of vertex cycles


class MarkedSubdivision:
    """Cells with markings; cells cover the polygon and meet in common faces."""

    def __init__(self, config, cells, *, validate=True):
        self.config = config
        norm = []
        for cell in cells:
            if isinstance(cell, MarkedCell):
                poly, marked = cell.polygon, cell.marked
            else:
                poly, marked = cell
            poly = tuple(convex_hull(poly))
            marked = tuple(sorted(int(i) for i in marked))
            norm.append(MarkedCell(poly, marked))
        norm.sort(key=lambda c: tuple(sorted(canonical_key(p) for p in c.polygon)))
        self.cells = tuple(norm)
        if validate:
            self._validate()

    def _validate(self):
        config = self.config
        area = 0
        for cell in self.cells:
            poly = cell.polygon
            if len(poly) < 3 or polygon_area2(poly) <= 0:
                raise SubdivisionError("cells must be 2-dimensional CCW polygons")
            area += polygon_area2(poly)
            marked_pts = [config.points[i] for i in cell.marked]
            for v in poly:
                if v not in marked_pts:
                    raise SubdivisionError(f"cell vertex {v} is not marked")
            for p in marked_pts:
                if not point_in_polygon(p, poly):
                    raise SubdivisionError(f"marked point {p} lies outside its cell")
        if area != polygon_area2(config.polygon):
            raise SubdivisionError("cells do not cover the polygon")
        for seg, owners in segment_owners(c.polygon for c in self.cells).items():
            a, b = tuple(seg)
            if len(owners) == 1:
                on_boundary = any(
                    point_on_segment(a, p, q) and point_on_segment(b, p, q)
                    for p, q in polygon_edges(config.polygon)
                )
                if not on_boundary:
                    raise SubdivisionError(f"interior segment {a}-{b} has only one cell")
            elif len(owners) == 2:
                left = set(_marked_on_segment(config, self.cells[owners[0]], a, b))
                right = set(_marked_on_segment(config, self.cells[owners[1]], a, b))
                if left != right:
                    raise SubdivisionError(f"markings disagree on shared face {a}-{b}")
            else:
                raise SubdivisionError(f"segment {a}-{b} belongs to {len(owners)} cells")

    def type(self) -> SubdivisionType:
        return SubdivisionType(tuple([c.polygon for c in self.cells]))

    def marked_union(self):
        out = set()
        for cell in self.cells:
            out.update(cell.marked)
        return tuple(sorted(out))

    def white_points(self):
        """Configuration indices marked in no cell."""
        marked = set(self.marked_union())
        return tuple([i for i in range(self.config.size) if i not in marked])

    def __eq__(self, other):
        return (
            isinstance(other, MarkedSubdivision)
            and self.config == other.config
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.config, self.cells))

    def __repr__(self):
        return f"MarkedSubdivision({len(self.cells)} cells)"


def segment_owners(cycles):
    """Map each edge (a frozenset of its two ends) to the indices of its cycles."""
    owners = {}
    for ci, cycle in enumerate(cycles):
        for a, b in polygon_edges(cycle):
            owners.setdefault(frozenset((a, b)), []).append(ci)
    return owners


def _marked_on_segment(config, cell, a, b):
    return [i for i in cell.marked if point_on_segment(config.points[i], a, b)]


def _upper_faces(config, u):
    """The regular subdivision of u and the lifted normal of each of its cells.

    The heights are scaled by the lcm of their denominators, so the normal
    (nx, ny, nz) of the plane through three lifted points is an integer
    cross product, oriented with nz > 0, and a point lies above that plane
    exactly when its dot product with the normal is larger.  A plane that
    no lifted point lies above is an upper face; its cell marks the points
    lifted onto it.  Returns (subdivision, normals), where normals maps each
    cell's marked indices to (nx, ny, nz * den), a normal of its plane in
    the unscaled (x, y, u) coordinates.
    """
    u = as_heights(config, u)
    den = lcm(*[h.denominator for h in u])
    lifted = [(x, y, h.numerator * (den // h.denominator)) for (x, y), h in zip(config.points, u)]
    normals = {}
    for i, j, k in combinations(range(config.size), 3):
        xi, yi, hi = lifted[i]
        xj, yj, hj = lifted[j]
        xk, yk, hk = lifted[k]
        ax, ay, ah = xj - xi, yj - yi, hj - hi
        bx, by, bh = xk - xi, yk - yi, hk - hi
        nz = ax * by - ay * bx
        if nz == 0:
            continue
        nx = ay * bh - ah * by
        ny = ah * bx - ax * bh
        if nz < 0:
            nx, ny, nz = -nx, -ny, -nz
        top = nx * xi + ny * yi + nz * hi
        face = []
        for m, (x, y, h) in enumerate(lifted):
            side = nx * x + ny * y + nz * h
            if side > top:
                break
            if side == top:
                face.append(m)
        else:
            normals.setdefault(tuple(face), (nx, ny, nz * den))
    # the constructor takes each cell's polygon as the hull of its points
    pts = config.points
    cells = [([pts[i] for i in face], face) for face in normals]
    return MarkedSubdivision(config, cells, validate=False), normals


def regular_subdivision(config, u) -> MarkedSubdivision:
    """Marked subdivision induced by the heights u (upper, so larger wins)."""
    return _upper_faces(config, u)[0]


@dataclass(frozen=True)
class ConeInfo:
    codimension: int
    white_points: tuple
    lt_basis: tuple  # basis of the summed per-cell relation spaces


def cone_info(ms: MarkedSubdivision) -> ConeInfo:
    """Codimension of the secondary-fan cone of ms, with its relation space."""
    stacked = []
    for cell in ms.cells:
        stacked.extend(affine_relation_space(ms.config, cell.marked))
    basis = [list(v) for v in linalg.rref(stacked)[0]] if stacked else []
    basis = tuple([tuple(row) for row in basis])
    return ConeInfo(len(basis), ms.white_points(), basis)


def lineality_basis(config):
    """The two height vectors spanning the secondary fan's lineality (mod all-ones)."""
    return config.x_vector(), config.y_vector()


def _circuit_face_cell(ms, z: Circuit):
    """Cell witnessing that the circuit is a cell or a cell face, else None."""
    config = ms.config
    zpts = [config.points[i] for i in z.indices]
    hull = convex_hull(zpts)
    for cell in ms.cells:
        if not set(z.indices) <= set(cell.marked):
            continue
        if z.kind in ("A", "B"):
            if tuple(hull) == cell.polygon:
                return cell
        else:
            ends = frozenset((hull[0], hull[-1])) if len(hull) == 2 else None
            if ends is None:
                a = min(zpts, key=canonical_key)
                b = max(zpts, key=canonical_key)
                ends = frozenset((a, b))
            for e in polygon_edges(cell.polygon):
                if frozenset(e) == ends:
                    return cell
    return None


def decompose_weightclass_lineality(config, u, z: Circuit):
    """Split u into a weight-class representative plus lineality directions.

    Returns (u_wc, c_x, c_y, c_1) with u = u_wc + c_x*x + c_y*y + c_1*ones,
    where u_wc has the circuit heights equal and maximal and, for collinear
    circuits, the off-line maximum attained at least twice.  The rotation
    constant is the smallest admissible one in absolute value (nonnegative
    preferred), and c_1 is always 0 since weight classes absorb constant
    shifts.  Raises NotInUnionError for the excluded boundary-circuit cones.
    """
    if _circuit_face_cell(regular_subdivision(config, u), z) is None:
        raise ConfigurationError("subdivision of u does not contain the circuit")
    return split_weightclass_lineality(config, u, z)


def split_weightclass_lineality(config, u, z: Circuit):
    """decompose_weightclass_lineality, less its check that z is a cell face of u."""
    u = as_heights(config, u)
    pts = config.points
    zidx = list(z.indices)
    if z.kind in ("A", "B"):
        trip = None
        for cand in combinations(zidx, 3):
            if orient(pts[cand[0]], pts[cand[1]], pts[cand[2]]) != 0:
                trip = cand
                break
        # the plane z = a + b*x + c*y through the three lifts, by Cramer's rule
        (x0, y0), (x1, y1), (x2, y2) = [pts[i] for i in trip]
        du1, du2 = u[trip[1]] - u[trip[0]], u[trip[2]] - u[trip[0]]
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        b = (du1 * (y2 - y0) - du2 * (y1 - y0)) / det
        c = ((x1 - x0) * du2 - (x2 - x0) * du1) / det
        a = u[trip[0]] - b * x0 - c * y0
        rest = [i for i in zidx if i not in trip]
        for i in rest:
            if u[i] != a + b * pts[i][0] + c * pts[i][1]:
                raise ConfigurationError("circuit heights are not coplanar")
        u_wc = tuple([u[i] - b * pts[i][0] - c * pts[i][1] for i in range(config.size)])
        return u_wc, b, c, Fraction(0)

    # Collinear circuit: equalize along the line, then rotate across it.
    p0, p1 = pts[zidx[0]], pts[zidx[1]]
    e = (p1[0] - p0[0], p1[1] - p0[1])
    ee = e[0] * e[0] + e[1] * e[1]
    t = Fraction(u[zidx[1]] - u[zidx[0]], 1) / ee
    cx, cy = t * e[0], t * e[1]
    up = [u[i] - cx * pts[i][0] - cy * pts[i][1] for i in range(config.size)]
    if any(up[i] != up[zidx[0]] for i in zidx[1:]):
        raise ConfigurationError("circuit heights are not collinear in the lift")

    n = primitive((-e[1], e[0]))
    base = n[0] * p0[0] + n[1] * p0[1]
    level = [n[0] * p[0] + n[1] * p[1] - base for p in pts]
    o0 = up[zidx[0]]
    if any(level[i] == 0 and up[i] > o0 for i in range(config.size)):
        raise ConfigurationError("circuit is not maximal on its own line")

    per_level = {}
    for i in range(config.size):
        if level[i] != 0:
            per_level.setdefault(level[i], []).append(up[i])
    if not per_level:
        raise ConfigurationError("configuration degenerates to the circuit line")
    omax = {k: max(vals) for k, vals in per_level.items()}
    multi = {k for k, vals in per_level.items() if vals.count(omax[k]) >= 2}

    def dominance_bounds():
        lo, hi = None, None
        for k, ok in omax.items():
            bound = Fraction(o0 - ok, k)
            if k > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        return lo, hi

    def valid(tr):
        best = None
        for k, ok in omax.items():
            val = ok + tr * k
            if val > o0:
                return False
            if best is None or val > best:
                best = val
        count = 0
        for k, vals in per_level.items():
            if omax[k] + tr * k == best:
                count += sum(1 for v in vals if v == omax[k])
        return count >= 2

    candidates = {Fraction(0)}
    for k, l in combinations(sorted(omax), 2):
        candidates.add(Fraction(omax[k] - omax[l], l - k))
    lo, hi = dominance_bounds()
    for k in multi:
        # interval of rotations keeping level k on top and dominated
        klo, khi = lo, hi
        for l, ol in omax.items():
            if l == k:
                continue
            bound = Fraction(ol - omax[k], k - l)
            if k - l > 0:
                klo = bound if klo is None else max(klo, bound)
            else:
                khi = bound if khi is None else min(khi, bound)
        if klo is not None and khi is not None and klo > khi:
            continue
        pick = Fraction(0)
        if klo is not None and pick < klo:
            pick = klo
        if khi is not None and pick > khi:
            pick = khi
        candidates.add(pick)
    usable = [tr for tr in candidates if valid(tr)]
    if not usable:
        raise NotInUnionError(
            "no rotation places the height vector in an admissible weight class"
        )
    rot = min(usable, key=lambda tr: (abs(tr), tr < 0))
    # rotated heights are up + rot*level, i.e. u minus (cx, cy) dotted below
    cx -= rot * n[0]
    cy -= rot * n[1]
    u_wc = tuple([u[i] - cx * pts[i][0] - cy * pts[i][1] for i in range(config.size)])
    return u_wc, cx, cy, Fraction(0)


def codim1_circuit(ms: MarkedSubdivision) -> Circuit:
    """The unique circuit of a codimension-one marked subdivision."""
    info = cone_info(ms)
    if info.codimension != 1:
        raise WrongCodimensionError(f"expected codimension 1, got {info.codimension}")
    relation = info.lt_basis[0]
    support = tuple([i for i, x in enumerate(relation) if x != 0])
    kind = circuit_kind(ms.config.points[i] for i in support)
    if kind is None:
        raise SubdivisionError(f"relation support {support} is not a circuit")
    return Circuit(support, kind)


def minimal_line_distance(config, n, base) -> int:
    """Smallest positive lattice distance of a configuration point to the line."""
    dists = [
        abs(n[0] * p[0] + n[1] * p[1] - base)
        for p in config.points
        if n[0] * p[0] + n[1] * p[1] != base
    ]
    return min(dists)


def is_discriminant_cone(ms: MarkedSubdivision) -> bool:
    """Whether the codim-1 cone of ms belongs to the tropical discriminant.

    Quadrangle and interior-point circuits always qualify; a collinear circuit
    fails only when it lies on the polygon boundary and the triangle over it
    has its apex at minimal lattice distance.  For neighbouring triangulations
    this test negated on their common face decides Delta-equivalence.
    """
    z = codim1_circuit(ms)
    if z.kind in ("A", "B"):
        return True
    config = ms.config
    pts = [config.points[i] for i in z.indices]
    d = primitive((pts[1][0] - pts[0][0], pts[1][1] - pts[0][1]))
    n = primitive((-d[1], d[0]))
    base = n[0] * pts[0][0] + n[1] * pts[0][1]
    levels = [n[0] * p[0] + n[1] * p[1] - base for p in config.points]
    if any(l > 0 for l in levels) and any(l < 0 for l in levels):
        return True
    cell = _circuit_face_cell(ms, z)
    if cell is None:
        raise SubdivisionError("codim-1 subdivision does not expose its circuit")
    apex_levels = [
        abs(n[0] * v[0] + n[1] * v[1] - base)
        for v in cell.polygon
        if n[0] * v[0] + n[1] * v[1] != base
    ]
    return min(apex_levels) != minimal_line_distance(config, n, base)
