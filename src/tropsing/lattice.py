"""Lattice point configurations and exact affine algebra over them.

A configuration is the full set of lattice points of a non-degenerate convex
lattice polygon, kept in a canonical order: sorted by y-coordinate, then by
x-coordinate.  That order is what makes coefficient matrices, Gale duals and
height vectors reproducible, so everything downstream indexes by it.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .errors import (
    ConfigurationError,
    DegenerateConfigurationError,
    LatticeSaturationError,
)

Point = tuple  # (i, j) integer pair


def canonical_key(p):
    return (p[1], p[0])


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 means left turn."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def convex_hull(points):
    """CCW vertex cycle of the convex hull, starting at the canonical-smallest vertex."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) == 1:
        return [pts[0]]
    lower = []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    start = min(range(len(cycle)), key=lambda i: canonical_key(cycle[i]))
    return cycle[start:] + cycle[:start]


def polygon_edges(cycle):
    """Consecutive vertex pairs of a cycle, the last one closing it."""
    n = len(cycle)
    return [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]


def polygon_area2(cycle):
    """Twice the signed area of a vertex cycle (positive for CCW)."""
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in polygon_edges(cycle))


def point_in_polygon(p, cycle) -> bool:
    """Exact test, boundary counts as inside.  cycle must be CCW."""
    return all(orient(a, b, p) >= 0 for a, b in polygon_edges(cycle))


def point_on_segment(p, a, b) -> bool:
    """Exact test; works for rational coordinates, endpoints included."""
    if orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def point_on_boundary(p, cycle) -> bool:
    """Whether p lies on an edge of the vertex cycle."""
    return any(point_on_segment(p, a, b) for a, b in polygon_edges(cycle))


def lattice_points_in_polygon(cycle):
    """Lattice points of a convex vertex cycle, boundary included, canonically ordered.

    A row meets the polygon between its least and greatest boundary point,
    each a vertex or an edge crossing x = num / den, so no box is scanned.
    """
    found = []
    ys = [p[1] for p in cycle]
    for y in range(min(ys), max(ys) + 1):
        ends = [(x, 1) for x, y1 in cycle if y1 == y]
        for (x1, y1), (x2, y2) in polygon_edges(cycle):
            if min(y1, y2) < y < max(y1, y2):
                ends.append((x1 * (y2 - y1) + (y - y1) * (x2 - x1), y2 - y1))
        lo, hi = min([-(-num // den) for num, den in ends]), max([num // den for num, den in ends])
        found.extend([(x, y) for x in range(lo, hi + 1)])
    return found


def lattice_length(a, b) -> int:
    """Number of lattice steps along the segment from a to b."""
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def primitive(v):
    """Primitive integer vector parallel to v (preserving direction)."""
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return (v[0] // g, v[1] // g)


class PointConfiguration:
    """The lattice points of a convex lattice polygon, canonically ordered.

    By default the points must be exactly conv(points) intersected with the
    lattice; use :meth:`relaxed` for deliberate sub-configurations.
    """

    def __init__(self, points, *, require_saturated=True):
        pts = [tuple([int(c) for c in p]) for p in points]
        if len(set(pts)) != len(pts):
            raise ConfigurationError("points must be pairwise distinct")
        if len(pts) < 3:
            raise ConfigurationError("need at least 3 points")
        hull = convex_hull(pts)
        if len(hull) < 3 or polygon_area2(hull) == 0:
            raise DegenerateConfigurationError("configuration is not 2-dimensional")
        if require_saturated:
            # by Pick's theorem the hull holds (area2 + boundary) / 2 + 1 lattice
            # points; the distinct points lie among them, so equal counts suffice
            boundary = sum(lattice_length(a, b) for a, b in polygon_edges(hull))
            if 2 * len(pts) != polygon_area2(hull) + boundary + 2:
                raise LatticeSaturationError(
                    "points are not exactly the lattice points of their hull"
                )
        self.points = tuple(sorted(pts, key=canonical_key))
        self.polygon = tuple(hull)
        self.saturated = bool(require_saturated)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._circuits = {}  # index tuple -> Circuit or None, filled by circuit_at

    @classmethod
    def from_polygon(cls, vertices):
        """Configuration of all lattice points of the polygon spanned by vertices."""
        hull = convex_hull([tuple(v) for v in vertices])
        return cls(lattice_points_in_polygon(hull))

    @classmethod
    def relaxed(cls, points):
        """Sub-configuration constructor: skips the saturation check."""
        return cls(points, require_saturated=False)

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, p) -> int:
        return self._index[tuple(p)]

    def circuit_at(self, indices):
        """The circuit on a sorted tuple of distinct indices, or None; kept per tuple."""
        if indices not in self._circuits:
            kind = circuit_kind([self.points[i] for i in indices])
            self._circuits[indices] = None if kind is None else Circuit(indices, kind)
        return self._circuits[indices]

    def x_vector(self):
        return tuple([Fraction(p[0]) for p in self.points])

    def y_vector(self):
        return tuple([Fraction(p[1]) for p in self.points])

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfiguration({list(self.points)})"


@dataclass(frozen=True)
class Circuit:
    """Inclusion-minimal affinely dependent subset of a configuration.

    kind 'C': three collinear points; kind 'A': one point inside the triangle
    of the other three; kind 'B': four points in convex position.
    """

    indices: tuple
    kind: str

    def points(self, config):
        return tuple([config.points[i] for i in self.indices])


def circuit_kind(points):
    """Kind ('C', 'A' or 'B') of the circuit on distinct points, None if not one."""
    pts = list(points)
    if len(pts) == 3:
        return "C" if orient(*pts) == 0 else None
    if len(pts) != 4:
        return None
    a, b, c, d = pts
    # convex position (type B) iff the four triples' orientations multiply to +1
    sign = orient(a, b, c) * orient(a, b, d) * orient(a, c, d) * orient(b, c, d)
    if sign == 0:
        return None
    return "B" if sign > 0 else "A"


def circuits(config) -> tuple:
    """All circuits of the configuration, canonically sorted."""
    found = []
    for size in (3, 4):
        for idx in combinations(range(config.size), size):
            kind = circuit_kind(config.points[i] for i in idx)
            if kind is not None:
                found.append(Circuit(idx, kind))
    return tuple(found)


def circuit_of(config, indices) -> Circuit:
    """Build (and validate) the circuit on the given configuration indices."""
    idx = tuple(sorted(indices))
    if len(set(idx)) == len(idx) and all(i in range(config.size) for i in idx):
        circuit = config.circuit_at(tuple([int(i) for i in idx]))
        if circuit is not None:
            return circuit
    raise ConfigurationError(f"indices {idx} do not form a circuit")


def configuration_matrix(config, support=None):
    """Rows (1...1), (x_i), (y_i) restricted to the support columns."""
    if support is None:
        support = range(config.size)
    cols = [config.points[i] for i in support]
    return [
        [Fraction(1)] * len(cols),
        [Fraction(p[0]) for p in cols],
        [Fraction(p[1]) for p in cols],
    ]


def affine_relation_space(config, support=None):
    """Deterministic reduced-echelon basis of the affine relations on support.

    A relation assigns a rational weight to every configuration point such
    that the weights sum to zero and the weighted points sum to zero; weights
    vanish off the support.  Returns a tuple of length-s vectors.
    """
    if support is None:
        support_list = list(range(config.size))
    else:
        support_list = sorted(set(support))
        if not support_list:
            raise ConfigurationError("support must be nonempty")
    mat = configuration_matrix(config, support_list)
    local = linalg.kernel_basis(mat, len(support_list))
    basis = []
    for vec in local:
        full = [Fraction(0)] * config.size
        for pos, idx in enumerate(support_list):
            full[idx] = vec[pos]
        basis.append(tuple(full))
    return tuple(basis)
