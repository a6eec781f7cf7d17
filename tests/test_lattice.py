import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tropsing import (
    Circuit,
    ConfigurationError,
    DegenerateConfigurationError,
    LatticeSaturationError,
    PointConfiguration,
    affine_relation_space,
    circuit_of,
    circuits,
)
from oracles import lattice_points_by_box, same_span
from test_acceptance import Budget
from tropsing.lattice import (
    canonical_key,
    circuit_kind,
    convex_hull,
    lattice_points_in_polygon,
    orient,
)


def brute_force_relations(points, support):
    """Independent oracle: solve the 3 x k kernel by hand-rolled elimination."""
    cols = [points[i] for i in support]
    rows = [
        [Fraction(1)] * len(cols),
        [Fraction(p[0]) for p in cols],
        [Fraction(p[1]) for p in cols],
    ]
    # gaussian elimination, then free-variable kernel vectors
    m = [row[:] for row in rows]
    pivots, r = [], 0
    for c in range(len(cols)):
        for i in range(r, 3):
            if m[i][c] != 0:
                m[i], m[r] = m[r], m[i]
                break
        else:
            continue
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(3):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(len(cols)):
        if free in pivots:
            continue
        v = [Fraction(0)] * len(cols)
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][free]
        full = [Fraction(0)] * len(points)
        for pos, idx in enumerate(support):
            full[idx] = v[pos]
        basis.append(tuple(full))
    return basis


class TestPointConfiguration:
    def test_canonical_order_is_row_major(self, intro_config):
        assert intro_config.points == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2))

    def test_polygon_cycle(self, intro_config):
        assert intro_config.polygon == ((0, 0), (2, 0), (1, 2), (0, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            PointConfiguration([(0, 0), (0, 0), (1, 0), (0, 1)])

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateConfigurationError):
            PointConfiguration([(0, 0), (1, 0), (2, 0)])

    def test_rejects_unsaturated(self):
        with pytest.raises(LatticeSaturationError):
            PointConfiguration([(0, 0), (2, 0), (0, 2)])

    def test_relaxed_constructor_is_flagged(self):
        cfg = PointConfiguration.relaxed([(0, 0), (2, 0), (0, 2)])
        assert not cfg.saturated
        assert cfg.size == 3

    def test_from_polygon_saturates(self):
        cfg = PointConfiguration.from_polygon([(0, 0), (2, 0), (0, 2)])
        assert (1, 1) in cfg.points and cfg.size == 6

    def test_saturation_matches_box_scan(self):
        rnd = random.Random(11)
        box = [(i, j) for i in range(4) for j in range(4)]
        outcomes = set()
        for _ in range(400):
            pts = rnd.sample(box, rnd.randint(3, 10))
            hull = convex_hull(pts)
            if len(hull) < 3:
                continue
            saturated = sorted(pts, key=canonical_key) == lattice_points_in_polygon(hull)
            try:
                PointConfiguration(pts)
                accepted = True
            except LatticeSaturationError:
                accepted = False
            assert accepted == saturated, pts
            outcomes.add(accepted)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "points,saturated",
        [([(0, 0), (1, 0), (10**6, 1)], True), ([(0, 0), (10**6, 0), (0, 1)], False)],
    )
    def test_saturation_check_is_not_linear_in_the_coordinates(self, points, saturated):
        with Budget("saturation check of a long thin triangle", 1.0):
            if saturated:
                assert PointConfiguration(points).size == 3
            else:
                with pytest.raises(LatticeSaturationError):
                    PointConfiguration(points)

    def test_row_ranges_match_box_scan(self):
        # hulls of random point sets, degenerate ones (a point, a segment) included
        rnd = random.Random(12)
        for _ in range(600):
            pts = [(rnd.randint(-7, 7), rnd.randint(-7, 7)) for _ in range(rnd.randint(1, 7))]
            hull = convex_hull(pts)
            assert lattice_points_in_polygon(hull) == lattice_points_by_box(hull), hull

    def test_from_polygon_is_not_linear_in_the_coordinates(self):
        with Budget("lattice points of a long thin triangle", 0.2):
            cfg = PointConfiguration.from_polygon([(0, 0), (1, 0), (10**6, 1)])
        assert cfg.points == ((0, 0), (1, 0), (10**6, 1))

    def test_lineality_vectors(self, five_point_config):
        assert five_point_config.x_vector() == (0, 1, 0, 1, 1)
        assert five_point_config.y_vector() == (0, 0, 1, 1, 2)


class TestAffineRelations:
    def test_five_point_full_span(self, five_point_config):
        basis = affine_relation_space(five_point_config)
        expected = [
            (1, -1, -1, 1, 0),
            (0, 1, 0, -2, 1),
        ]
        assert same_span(basis, expected)

    def test_unit_triangle_empty(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        assert affine_relation_space(tri) == ()

    def test_supported_subspaces(self, five_point_config):
        # restricting to the first four points leaves only the square relation
        basis = affine_relation_space(five_point_config, [0, 1, 2, 3])
        assert same_span(basis, [(1, -1, -1, 1, 0)])
        # the last four span the collinear relation on x = 1
        basis = affine_relation_space(five_point_config, [1, 2, 3, 4])
        assert same_span(basis, [(0, 1, 0, -2, 1)])

    def test_relation_identities(self, eight_point_config):
        for support in [None, [0, 1, 2, 3], [2, 3, 4, 5, 6]]:
            for vec in affine_relation_space(eight_point_config, support):
                assert sum(vec) == 0
                assert sum(v * p[0] for v, p in zip(vec, eight_point_config.points)) == 0
                assert sum(v * p[1] for v, p in zip(vec, eight_point_config.points)) == 0

    def test_full_dimension_is_s_minus_3(self):
        rnd = random.Random(3)
        for _ in range(10):
            verts = [(rnd.randint(0, 4), rnd.randint(0, 4)) for _ in range(4)]
            hull = convex_hull(verts)
            if len(hull) < 3:
                continue
            cfg = PointConfiguration.from_polygon(hull)
            assert len(affine_relation_space(cfg)) == cfg.size - 3

    def test_agrees_with_bruteforce(self, eight_point_config):
        rnd = random.Random(9)
        for _ in range(12):
            k = rnd.randint(1, eight_point_config.size)
            support = sorted(rnd.sample(range(eight_point_config.size), k))
            mine = affine_relation_space(eight_point_config, support)
            oracle = brute_force_relations(eight_point_config.points, support)
            assert same_span(mine, oracle)


def circuits_by_exhaustion(config):
    """Oracle: enumerate all subsets, keep the minimal affinely dependent ones."""
    pts = config.points

    def dependent(sub):
        if len(sub) >= 4:
            return True
        if len(sub) == 3:
            return orient(pts[sub[0]], pts[sub[1]], pts[sub[2]]) == 0
        return False

    minimal = []
    for size in range(2, 5):
        for sub in combinations(range(len(pts)), size):
            if not dependent(sub):
                continue
            if any(set(m) < set(sub) for m in minimal):
                continue
            minimal.append(sub)
    return sorted(minimal)


class TestCircuits:
    def test_collinear_triple(self):
        cfg = PointConfiguration([(0, 0), (1, 0), (2, 0), (0, 1)])
        zs = [z for z in circuits(cfg) if z.kind == "C"]
        assert Circuit((0, 1, 2), "C") in zs

    def test_unit_square(self, square_config):
        assert circuits(square_config) == (Circuit((0, 1, 2, 3), "B"),)

    def test_interior_point_triangle(self):
        cfg = PointConfiguration([(0, 0), (2, 1), (1, 2), (1, 1)])
        zs = circuits(cfg)
        assert len(zs) == 1
        assert zs[0].kind == "A"
        assert set(zs[0].indices) == {0, 1, 2, 3}

    def test_every_proper_subset_independent(self, eight_point_config):
        pts = eight_point_config.points
        for z in circuits(eight_point_config):
            for sub in combinations(z.indices, len(z.indices) - 1):
                if len(sub) == 3:
                    assert orient(pts[sub[0]], pts[sub[1]], pts[sub[2]]) != 0
                # pairs of distinct points are always independent

    def test_matches_exhaustive_enumeration(self, eight_point_config, grid_config):
        for cfg in (eight_point_config, grid_config):
            mine = sorted(z.indices for z in circuits(cfg))
            assert mine == circuits_by_exhaustion(cfg)

    def test_kind_matches_size(self, grid_config):
        for z in circuits(grid_config):
            if z.kind == "C":
                assert len(z.indices) == 3
            else:
                assert len(z.indices) == 4
                hull = convex_hull([grid_config.points[i] for i in z.indices])
                assert len(hull) == (4 if z.kind == "B" else 3)

    def test_circuit_of_matches_enumeration(self, eight_point_config, grid_config):
        for cfg in (eight_point_config, grid_config):
            known = {z.indices: z for z in circuits(cfg)}
            for size in (3, 4):
                for idx in combinations(range(cfg.size), size):
                    if idx in known:
                        assert circuit_of(cfg, idx[::-1]) == known[idx]
                    else:
                        with pytest.raises(ConfigurationError):
                            circuit_of(cfg, idx)

    def test_kind_sign_rule_matches_hull_rule(self):
        """Reference: a 4-point circuit is of type B iff its hull has 4 vertices."""
        grid = [(i, j) for j in range(4) for i in range(4)]
        for pts in permutations(grid, 4):
            expected = None
            if all(orient(*trip) != 0 for trip in combinations(pts, 3)):
                expected = "B" if len(convex_hull(pts)) == 4 else "A"
            assert circuit_kind(pts) == expected, pts

    @pytest.mark.parametrize(
        "indices", [(0, 1), (0, 1, 2, 3, 4), (0, 0, 1), (0, 1, 2, 2), (0, 1, 9), (-1, 0, 1)]
    )
    def test_circuit_of_rejects_bad_indices(self, grid_config, indices):
        with pytest.raises(ConfigurationError):
            circuit_of(grid_config, indices)


def test_lattice_point_scan_matches_pick():
    # Pick's theorem cross-check: #lattice points = I + B, area2 = 2I + B - 2
    from tropsing.lattice import lattice_length, polygon_area2

    for verts in [[(0, 0), (3, 0), (0, 3)], [(0, 0), (2, 1), (1, 2)], [(0, 0), (4, 1), (1, 3)]]:
        hull = convex_hull(verts)
        pts = lattice_points_in_polygon(hull)
        boundary = sum(
            lattice_length(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))
        )
        interior = len(pts) - boundary
        assert polygon_area2(hull) == 2 * interior + boundary - 2
