import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropsing import (
    ConfigurationError,
    MarkedSubdivision,
    NotInUnionError,
    PointConfiguration,
    SubdivisionError,
    WrongCodimensionError,
    circuit_of,
    circuits,
    cone_info,
    decompose_weightclass_lineality,
    dual_curve,
    is_discriminant_cone,
    lineality_basis,
    regular_subdivision,
)
from oracles import same_span
from tropsing.bergman import coefficient_matrix, flag_from_weight, gale_dual
from tropsing.curves import is_balanced
from tropsing.lattice import convex_hull, orient, polygon_area2
from tropsing.linalg import rref
from tropsing.subdivisions import (
    _upper_faces,
    as_heights,
    codim1_circuit,
    split_weightclass_lineality,
)


def lifted_plane(config, u, trip):
    """Reference: (a, b, c) with z = a + b*x + c*y through three lifted points,
    by Gaussian elimination on the augmented system."""
    pts = config.points
    aug = [[Fraction(1), Fraction(pts[i][0]), Fraction(pts[i][1]), u[i]] for i in trip]
    reduced, pivots = rref(aug)
    if pivots != (0, 1, 2):
        raise ValueError(f"points {trip} are collinear")
    return tuple([row[3] for row in reduced])


def cell_lookup(ms):
    return {cell.polygon: cell.marked for cell in ms.cells}


class TestRegularSubdivision:
    def test_intro_three_triangles(self, intro_config, intro_heights):
        ms = regular_subdivision(intro_config, intro_heights)
        cells = cell_lookup(ms)
        pts = intro_config.points
        # frozen expected subdivision, checked against the dual-curve picture
        assert set(cells) == {
            ((0, 0), (1, 2), (0, 1)),
            ((0, 0), (1, 0), (1, 2)),
            ((1, 0), (2, 0), (1, 2)),
        }
        mid = intro_config.index((1, 1))
        assert mid in cells[((0, 0), (1, 0), (1, 2))]
        assert mid in cells[((1, 0), (2, 0), (1, 2))]
        assert mid not in cells[((0, 0), (1, 2), (0, 1))]
        assert ms.white_points() == ()
        assert [pts[i] for i in ms.marked_union()] == list(pts)

    def test_single_cell_for_constant_heights(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        ms = regular_subdivision(tri, (0, 0, 0))
        assert len(ms.cells) == 1
        assert ms.cells[0].marked == (0, 1, 2)

    def test_invariant_under_all_ones_shift(self, intro_config, intro_heights):
        for c in (Fraction(3), Fraction(-7, 2), Fraction(1, 3)):
            shifted = tuple(x + c for x in intro_heights)
            assert regular_subdivision(intro_config, shifted) == regular_subdivision(
                intro_config, intro_heights
            )

    def test_output_satisfies_subdivision_invariants(self, grid_config):
        rnd = random.Random(2)
        for _ in range(25):
            u = [Fraction(rnd.randint(-12, 12), rnd.randint(1, 4)) for _ in grid_config.points]
            ms = regular_subdivision(grid_config, u)
            # re-validate through the checking constructor
            MarkedSubdivision(grid_config, [(c.polygon, c.marked) for c in ms.cells])

    def test_heights_length_checked(self, square_config):
        with pytest.raises(ConfigurationError):
            regular_subdivision(square_config, (0, 0, 0))


def faces_by_fraction_scan(config, u):
    """Reference upper faces: one Fraction plane per point triple.

    Maps each upper face (its marked indices) to the plane (a, b, c) with
    z = a + b*x + c*y through the first point triple that found it.
    """
    u = as_heights(config, u)
    pts = config.points
    faces = {}
    for trip in combinations(range(config.size), 3):
        if orient(*[pts[i] for i in trip]) == 0:
            continue
        a, b, c = lifted_plane(config, u, trip)
        face = []
        for i, (x, y) in enumerate(pts):
            val = a + b * x + c * y
            if u[i] > val:
                break
            if u[i] == val:
                face.append(i)
        else:
            faces.setdefault(tuple(face), (a, b, c))
    return faces


def check_kernel_against_reference(config, u):
    """Faces, normals and dual-curve vertices agree with the Fraction planes."""
    ms, normals = _upper_faces(config, u)
    reference = faces_by_fraction_scan(config, u)
    assert set(normals) == set(reference)
    assert sorted(c.marked for c in ms.cells) == sorted(reference)
    for marked, (nx, ny, nz) in normals.items():
        assert nz > 0
        _a, b, c = reference[marked]
        assert (Fraction(nx, nz), Fraction(ny, nz)) == (-b, -c)
    curve = dual_curve(config, u)
    assert curve.subdivision == ms
    heights = as_heights(config, u)
    for cell, vertex in zip(ms.cells, curve.vertices):
        _a, b, c = lifted_plane(config, heights, [config.index(p) for p in cell.polygon[:3]])
        assert vertex == (-b, -c)
    return ms, curve


LADDER = {
    "unit_triangle": [(0, 0), (1, 0), (0, 1)],
    "five_point": [(0, 0), (1, 0), (1, 2), (0, 1)],
    "intro": [(0, 0), (2, 0), (1, 2), (0, 1)],
    "eight_point": [(0, 0), (1, 0), (2, 1), (2, 2), (0, 2)],
    "grid_2": [(0, 0), (2, 0), (2, 2), (0, 2)],
    "grid_3": [(0, 0), (3, 0), (3, 3), (0, 3)],
    "grid_4": [(0, 0), (4, 0), (4, 4), (0, 4)],
}
LARGE_PRIMES = (999983, 1000003, 1000033, 1000037, 1000039, 1000081)
HEIGHTS = {
    "tied": lambda rnd: Fraction(rnd.choice((-1, 0, 1))),
    "negative": lambda rnd: Fraction(-rnd.randint(1, 60), rnd.randint(1, 7)),
    "coprime_denominators": lambda rnd: Fraction(
        rnd.randint(-(10**6), 10**6), rnd.choice(LARGE_PRIMES)
    ),
}


class TestIntegerKernel:
    @pytest.mark.parametrize("family", sorted(HEIGHTS))
    @pytest.mark.parametrize("name", list(LADDER))
    def test_matches_fraction_scan_on_ladder(self, name, family):
        config = PointConfiguration.from_polygon(LADDER[name])
        rnd = random.Random(f"{name}/{family}")
        # the reference scan is O(s^4) Fractions: fewer vectors on the 4x4 grid
        for _ in range(2 if config.size > 16 else 6):
            u = [HEIGHTS[family](rnd) for _ in config.points]
            check_kernel_against_reference(config, u)

    def test_constant_heights_give_one_cell(self, grid_config):
        ms, curve = check_kernel_against_reference(grid_config, [Fraction(-3, 7)] * 9)
        assert [c.marked for c in ms.cells] == [tuple(range(9))]
        assert curve.vertices == ((0, 0),)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_polygons_and_heights(self, data):
        pts = data.draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=6, unique=True
            )
        )
        hull = convex_hull(pts)
        assume(len(hull) >= 3 and polygon_area2(hull) > 0)
        config = PointConfiguration.from_polygon(hull)
        height = st.one_of(
            st.integers(-1, 1).map(Fraction),
            st.fractions(min_value=-12, max_value=12, max_denominator=9),
        )
        u = data.draw(st.lists(height, min_size=config.size, max_size=config.size))
        ms, curve = check_kernel_against_reference(config, u)
        assert sum(polygon_area2(c.polygon) for c in ms.cells) == polygon_area2(config.polygon)
        assert is_balanced(curve)


class TestMarkedSubdivisionValidation:
    def test_rejects_non_covering(self, intro_config):
        with pytest.raises(SubdivisionError):
            MarkedSubdivision(intro_config, [(((0, 0), (1, 0), (1, 2)), (0, 1, 5))])

    def test_rejects_marking_disagreement(self, intro_config):
        cells = [
            (((0, 0), (1, 0), (1, 2)), (0, 1, 4, 5)),
            (((1, 0), (2, 0), (1, 2)), (1, 2, 5)),  # misses (1,1) on the shared face
            (((0, 0), (1, 2), (0, 1)), (0, 3, 5)),
        ]
        with pytest.raises(SubdivisionError):
            MarkedSubdivision(intro_config, cells)


class TestConeInfo:
    def test_five_point_example(self, five_point_config):
        # triangle (0,0),(1,0),(0,1) plus triangle (1,0),(0,1),(1,2) marking (1,1)
        ms = MarkedSubdivision(
            five_point_config,
            [
                (((0, 0), (1, 0), (0, 1)), (0, 1, 2)),
                (((1, 0), (1, 2), (0, 1)), (1, 2, 3, 4)),
            ],
        )
        info = cone_info(ms)
        assert info.codimension == 1
        assert same_span(info.lt_basis, [(0, 1, 0, -2, 1)])
        assert info.white_points == ()

    def test_intro_codim_one(self, intro_config, intro_heights):
        info = cone_info(regular_subdivision(intro_config, intro_heights))
        assert info.codimension == 1

    def test_unimodular_triangulation_codim_zero(self, grid_config):
        rnd = random.Random(17)
        # scale-separated digits cannot satisfy any exact affine relation
        u = [
            Fraction(-(p[0] ** 2 + p[1] ** 2)) + rnd.randint(1, 9) * Fraction(1, 10 ** (i + 2))
            for i, p in enumerate(grid_config.points)
        ]
        ms = regular_subdivision(grid_config, u)
        info = cone_info(ms)
        assert info.codimension == 0
        assert info.white_points == ()
        assert all(abs(polygon_area2(c.polygon)) == 1 for c in ms.cells)

    def test_codim_zero_iff_vertex_marked_triangulation(self, grid_config, intro_config):
        # top-dimensional exactly when every cell is a triangle marked only
        # at its vertices (hidden points are allowed and stay white)
        rnd = random.Random(4)
        for cfg in (grid_config, intro_config):
            for _ in range(30):
                u = [Fraction(rnd.randint(-15, 15), rnd.randint(1, 3)) for _ in cfg.points]
                ms = regular_subdivision(cfg, u)
                info = cone_info(ms)
                triangulation = all(
                    len(c.polygon) == 3 and len(c.marked) == 3 for c in ms.cells
                )
                assert (info.codimension == 0) == triangulation


class TestLineality:
    def test_five_point_vectors(self, five_point_config):
        xv, yv = lineality_basis(five_point_config)
        assert xv == (0, 1, 0, 1, 1)
        assert yv == (0, 0, 1, 1, 2)

    def test_unit_triangle(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        assert lineality_basis(tri) == ((0, 1, 0), (0, 0, 1))

    def test_lineality_preserves_subdivision(self, intro_config, intro_heights):
        xv, yv = lineality_basis(intro_config)
        base = regular_subdivision(intro_config, intro_heights)
        for a, b in [(1, 0), (0, 1), (Fraction(-5, 3), Fraction(7, 2))]:
            u2 = tuple(h + a * x + b * y for h, x, y in zip(intro_heights, xv, yv))
            assert regular_subdivision(intro_config, u2) == base


class TestDecomposition:
    def test_already_in_weight_class(self, intro_config, intro_heights):
        z = circuit_of(intro_config, (1, 4, 5))
        u_wc, cx, cy, c1 = decompose_weightclass_lineality(intro_config, intro_heights, z)
        assert (u_wc, cx, cy, c1) == (intro_heights, 0, 0, 0)

    def test_square_plane_heights(self, square_config):
        z = circuit_of(square_config, (0, 1, 2, 3))
        u_wc, cx, cy, c1 = decompose_weightclass_lineality(square_config, (0, 1, 2, 3), z)
        assert u_wc == (0, 0, 0, 0)
        assert (cx, cy, c1) == (1, 2, 0)

    def test_reconstruction_and_membership(self, intro_config, intro_heights):
        z = circuit_of(intro_config, (1, 4, 5))
        B = gale_dual(coefficient_matrix(intro_config))
        xv, yv = lineality_basis(intro_config)
        rnd = random.Random(12)
        for _ in range(40):
            a = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
            b = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
            c = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
            u = tuple(
                h + a * x + b * y + c for h, x, y in zip(intro_heights, xv, yv)
            )
            u_wc, cx, cy, c1 = decompose_weightclass_lineality(intro_config, u, z)
            rebuilt = tuple(
                w + cx * x + cy * y + c1 for w, x, y in zip(u_wc, xv, yv)
            )
            assert rebuilt == u
            assert flag_from_weight(B, u_wc).is_flag_of_flats

    def test_circuit_plane_matches_elimination(self, grid_config):
        rnd = random.Random(5)
        for z in circuits(grid_config):
            if z.kind == "C":
                continue
            u = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in grid_config.points]
            a, b, c = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in range(3)]
            for i in z.indices:
                x, y = grid_config.points[i]
                u[i] = a + b * x + c * y
            _u_wc, cx, cy, _c1 = split_weightclass_lineality(grid_config, u, z)
            assert (cx, cy) == lifted_plane(grid_config, u, z.indices[:3])[1:] == (b, c)

    def test_requires_visible_circuit(self, intro_config):
        z = circuit_of(intro_config, (1, 4, 5))
        # heights hiding the x=1 line entirely
        u = (0, -5, 0, 0, -5, -5)
        with pytest.raises(ConfigurationError):
            decompose_weightclass_lineality(intro_config, u, z)

    def test_excluded_boundary_cone(self):
        cfg = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 1)])
        z = circuit_of(cfg, tuple(cfg.index(p) for p in [(0, 0), (0, 1), (0, 2)]))
        u = [0 if p[0] == 0 else -1 for p in cfg.points]
        with pytest.raises(NotInUnionError):
            decompose_weightclass_lineality(cfg, u, z)


class TestDiscriminantCone:
    def test_requires_codim_one(self, grid_config):
        u = [-(p[0] ** 2 + p[1] ** 2) for p in grid_config.points]
        with pytest.raises(WrongCodimensionError):
            is_discriminant_cone(regular_subdivision(grid_config, u))

    def test_quadrangle_circuit_qualifies(self, intro_config):
        u = [2 if p in ((0, 0), (1, 0), (0, 1), (1, 1)) else 0 for p in intro_config.points]
        ms = regular_subdivision(intro_config, u)
        assert cone_info(ms).codimension == 1
        assert codim1_circuit(ms).kind == "B"
        assert is_discriminant_cone(ms)

    def test_interior_collinear_circuit_qualifies(self, grid_config):
        u = [4 if p[0] == 1 else (1 if p in ((0, 1), (2, 1)) else 0) for p in grid_config.points]
        ms = regular_subdivision(grid_config, u)
        assert cone_info(ms).codimension == 1
        assert codim1_circuit(ms).kind == "C"
        assert is_discriminant_cone(ms)

    def test_boundary_circuit_with_minimal_apex_fails(self):
        cfg = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 1)])
        u = [0 if p[0] == 0 else -1 for p in cfg.points]
        ms = regular_subdivision(cfg, u)
        assert cone_info(ms).codimension == 1
        assert not is_discriminant_cone(ms)

    def test_matches_bergman_membership_of_decomposition(self, intro_config, grid_config):
        """On codim-1 cones, discriminant membership equals tropical membership."""
        rnd = random.Random(21)
        tested = 0
        for cfg in (intro_config, grid_config):
            A = coefficient_matrix(cfg)
            B = gale_dual(A)
            for _ in range(120):
                u = [Fraction(rnd.randint(-10, 10), rnd.randint(1, 3)) for _ in cfg.points]
                ms = regular_subdivision(cfg, u)
                info = cone_info(ms)
                if info.codimension != 1:
                    continue
                z = codim1_circuit(ms)
                try:
                    u_wc, *_ = decompose_weightclass_lineality(cfg, tuple(u), z)
                    member = flag_from_weight(B, u_wc).is_flag_of_flats
                except NotInUnionError:
                    member = False
                assert is_discriminant_cone(ms) == member
                tested += 1
        assert tested >= 10
