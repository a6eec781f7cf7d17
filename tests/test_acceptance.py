"""Acceptance suite: one test per criterion, exact assertions, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (a failed assertion fails the test, so a green run means every
criterion held at its stated tolerance -- which is exact rational equality
everywhere here).
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from tropsing import (
    NotInUnionError,
    PointConfiguration,
    bergman_member_circuit_oracle,
    bergman_member_loopfree,
    circuit_of,
    circuits,
    classify_flag,
    classify_non_torus,
    classify_singularity,
    coefficient_matrix,
    coefficient_matrix_non_torus,
    cone_info,
    decompose_weightclass_lineality,
    dual_curve,
    enumerate_flags,
    flag_from_weight,
    gale_dual,
    lineality_basis,
    neg_val_vector,
    refine_substitution,
    regular_subdivision,
    verify_singular_at_one_one,
    vertex_multiplicity,
    weight_class_sample,
)
from oracles import same_span
from tropsing.bergman import FlagOfFlats
from tropsing.curves import is_balanced, locate_origin
from tropsing.lattice import convex_hull, lattice_length, orient, polygon_area2
from tropsing.series import singularity_residues
from tropsing.subdivisions import MarkedSubdivision


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget"
            print(f"PASS {self.name} [{elapsed:.2f}s]")
        else:
            print(f"FAIL {self.name}")
        return False


def flag_from_blocks(config, blocks_of_points):
    chain, acc = [], []
    for block in blocks_of_points:
        acc.extend(config.index(p) for p in block)
        chain.append(tuple(sorted(acc)))
    return FlagOfFlats(tuple(chain))


def test_criterion_1_golden_matrices(eight_point_config):
    with Budget("criterion 1: golden coefficient and Gale-dual matrices", 1.0):
        A = coefficient_matrix(eight_point_config)
        assert [[int(x) for x in row] for row in A.rows] == [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 2, 0, 1, 2],
            [0, 0, 1, 1, 1, 2, 2, 2],
        ]
        B = gale_dual(A)
        assert [[int(x) for x in row] for row in B.pivots_first()] == [
            [1, -1, -1, 1, 0, 0, 0, 0],
            [2, -2, -1, 0, 1, 0, 0, 0],
            [1, 0, -2, 0, 0, 1, 0, 0],
            [2, -1, -2, 0, 0, 0, 1, 0],
            [3, -2, -2, 0, 0, 0, 0, 1],
        ]
        boundary = PointConfiguration.from_polygon([(0, 0), (3, 0), (3, 1), (0, 2)])
        A2 = coefficient_matrix_non_torus(boundary)
        assert [[int(x) for x in row] for row in A2.rows] == [
            [1, 1, 1, 1, 0, 0, 0, 0, 0],
            [0, 1, 2, 3, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 1, 0],
        ]
        B2 = gale_dual(A2, pivots=(0, 1, 4))
        assert [[int(x) for x in row] for row in B2.pivots_first()] == [
            [1, -2, 0, 1, 0, 0, 0, 0, 0],
            [2, -3, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 1, 0, 0, 0],
            [0, 0, -1, 0, 0, 0, 1, 0, 0],
            [0, 0, -1, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1],
        ]


def test_criterion_2_affine_relations_example(five_point_config):
    from tropsing import affine_relation_space

    with Budget("criterion 2: affine relations and codim-1 cone of the 5-point config", 1.0):
        basis = affine_relation_space(five_point_config)
        assert same_span(basis, [(1, -1, -1, 1, 0), (0, 1, 0, -2, 1)])
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


def test_criterion_3_intro_pipeline(intro_config, intro_polynomial):
    with Budget("criterion 3: full pipeline on the introductory polynomial", 1.0):
        u = neg_val_vector(intro_polynomial)
        assert u == (-1, 0, -1, -3, 0, 0)
        ms = regular_subdivision(intro_config, u)
        polys = {c.polygon for c in ms.cells}
        assert polys == {
            ((0, 0), (1, 2), (0, 1)),
            ((0, 0), (1, 0), (1, 2)),
            ((1, 0), (2, 0), (1, 2)),
        }
        mid = intro_config.index((1, 1))
        marked_of = {c.polygon: c.marked for c in ms.cells}
        assert mid in marked_of[((0, 0), (1, 0), (1, 2))]
        assert mid in marked_of[((1, 0), (2, 0), (1, 2))]
        assert ms.white_points() == ()
        curve = dual_curve(intro_config, u)
        heavy = [e for e in curve.edges if e.weight == 2]
        assert len(heavy) == 1
        assert {curve.vertices[v] for v in heavy[0].ends} == {(-1, 0), (1, 0)}
        rep = classify_singularity(intro_config, u)
        assert rep.kind == "TypeB1" and rep.l1 == rep.l2 == 1
        residues = singularity_residues(intro_polynomial)
        assert all(s.is_zero() for s in residues)
        assert verify_singular_at_one_one(intro_polynomial)
        fh = refine_substitution(intro_polynomial)
        uh = neg_val_vector(fh)
        assert uh[fh.config.index((0, 0))] == -1
        assert uh[fh.config.index((2, 0))] == -1


def test_criterion_4_triple_equivalence(five_point_config, intro_config, eight_point_config):
    with Budget("criterion 4: loop-free = circuit oracle = weight-class union", 60.0):
        rnd = random.Random(2024)
        for cfg in (five_point_config, intro_config, eight_point_config):
            assert 5 <= cfg.size <= 8
            A = coefficient_matrix(cfg)
            B = gale_dual(A)
            vectors = []
            for _ in range(1000):
                vectors.append(
                    [Fraction(rnd.randint(-12, 12), rnd.randint(1, 5)) for _ in cfg.points]
                )
            for flag in enumerate_flags(B):
                vectors.append(list(weight_class_sample(flag)))
                shift = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                vectors.append([x + shift for x in weight_class_sample(flag)])
            for w in vectors:
                m1 = bergman_member_loopfree(B, w)
                m2 = bergman_member_circuit_oracle(A, w)
                m3 = flag_from_weight(B, w).is_flag_of_flats
                assert m1 == m2 == m3


def test_criterion_5_flag_totality(eight_point_config):
    with Budget("criterion 5: chain dichotomy and reversed existence on 8 points", 60.0):
        cfg = eight_point_config
        pts = cfg.points
        B = gale_dual(coefficient_matrix(cfg))
        flags = enumerate_flags(B)
        assert flags
        seen_a, seen_b = set(), set()
        for flag in flags:
            fc = classify_flag(flag, cfg)  # raises MalformedFlagError if neither case
            if fc.case == "A":
                assert len(fc.circuit.indices) == 4
                seen_a.add(tuple(sorted(fc.circuit.indices)))
            else:
                assert len(fc.circuit.indices) == 3 and fc.circuit.kind == "C"
                assert fc.tail_on_line
                seen_b.add(
                    (tuple(sorted(fc.circuit.indices)), tuple(sorted(fc.pair)))
                )
        for z in circuits(cfg):
            key = tuple(sorted(z.indices))
            if z.kind in ("A", "B"):
                assert key in seen_a
            else:
                a, b = pts[z.indices[0]], pts[z.indices[1]]
                off = [i for i in range(cfg.size) if orient(a, b, pts[i]) != 0]
                for pair in combinations(sorted(off), 2):
                    assert (key, pair) in seen_b


def _random_blocks(rnd, singles):
    order = list(singles)
    rnd.shuffle(order)
    return [[p] for p in order]


def _random_gaps(rnd, n):
    return [Fraction(rnd.randint(1, 9), rnd.randint(1, 4)) for _ in range(n)]


def test_criterion_6_metric_properties(grid_config, intro_config):
    with Budget("criterion 6: exact metric data of the maximal-type cones", 60.0):
        rnd = random.Random(66)

        # interior-point triangle: 3-valent vertex of multiplicity 3 at the origin
        cfg_a3 = PointConfiguration.from_polygon([(-1, -1), (2, 1), (1, 2)])
        circuit_pts = [(0, 0), (1, 1), (2, 1), (1, 2)]
        assert set(cfg_a3.points) == set(circuit_pts) | {(-1, -1)}
        for k in range(100):
            flag = flag_from_blocks(cfg_a3, [[(-1, -1)], circuit_pts])
            u = weight_class_sample(flag, _random_gaps(rnd, 2))
            rep = classify_singularity(cfg_a3, u)
            assert rep.kind == "TypeA3"
            assert rep.vertex == (0, 0)
            assert rep.multiplicity == 3 and rep.valence == 3

        # quadrangle circuit: 4-valent vertex of multiplicity 2 at the origin
        quad = [(0, 0), (1, 0), (0, 1), (1, 1)]
        rest = [p for p in intro_config.points if p not in quad]
        for k in range(100):
            blocks = _random_blocks(rnd, rest) + [quad]
            flag = flag_from_blocks(intro_config, blocks)
            u = weight_class_sample(flag, _random_gaps(rnd, len(blocks)))
            rep = classify_singularity(intro_config, u)
            assert rep.kind == "TypeA4"
            assert rep.vertex == (0, 0)
            assert rep.multiplicity == 2 and rep.valence == 4

        # generic samples from every 4-element-circuit weight class still put
        # the dual vertex of the circuit hull exactly at the origin
        B = gale_dual(coefficient_matrix(intro_config))
        case_a_flags = [
            f for f in enumerate_flags(B) if classify_flag(f, intro_config).case == "A"
        ]
        checked = 0
        while checked < 100:
            flag = case_a_flags[checked % len(case_a_flags)]
            fc = classify_flag(flag, intro_config)
            u = weight_class_sample(flag, _random_gaps(rnd, len(flag.blocks)))
            curve = dual_curve(intro_config, u)
            where, vi = locate_origin(curve)
            assert where == "vertex"
            hull = tuple(convex_hull([intro_config.points[i] for i in fc.circuit.indices]))
            assert curve.subdivision.cells[vi].polygon == hull
            assert vertex_multiplicity(curve, vi) == abs(polygon_area2(hull))
            checked += 1

        # balanced weight-2 edge: equal distances, exactly
        circuit = [(1, 0), (1, 1), (1, 2)]
        pair = [(0, 1), (2, 1)]
        corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
        for k in range(100):
            blocks = _random_blocks(rnd, corners) + [pair, circuit]
            flag = flag_from_blocks(grid_config, blocks)
            u = weight_class_sample(flag, _random_gaps(rnd, len(blocks)))
            rep = classify_singularity(grid_config, u)
            assert rep.kind == "TypeB1"
            assert rep.l1 == rep.l2

        # one-sided gray pair: 4-valent vertex strictly closer, exactly
        cfg_b2 = PointConfiguration.from_polygon([(0, 1), (1, 0), (2, 0), (2, 2), (1, 2)])
        circuit = [(1, 0), (1, 1), (1, 2)]
        pair = [(2, 0), (2, 1)]
        lows = [(0, 1), (2, 2)]
        for k in range(100):
            blocks = _random_blocks(rnd, lows) + [pair, circuit]
            flag = flag_from_blocks(cfg_b2, blocks)
            u = weight_class_sample(flag, _random_gaps(rnd, len(blocks)))
            rep = classify_singularity(cfg_b2, u)
            assert rep.kind == "TypeB2Interior"
            assert rep.l1 < rep.l2


def test_criterion_7_decomposition(grid_config, intro_config):
    with Budget("criterion 7: weight-class plus lineality decomposition", 30.0):
        rnd = random.Random(77)

        def one_case(config, flag, circuit_indices):
            xv, yv = lineality_basis(config)
            z = circuit_of(config, circuit_indices)
            base = weight_class_sample(flag, _random_gaps(rnd, len(flag.blocks)))
            a = Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
            b = Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
            c = Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
            u = tuple(
                h + a * x + b * y + c for h, x, y in zip(base, xv, yv)
            )
            assert cone_info(regular_subdivision(config, u)).codimension == 1
            u_wc, cx, cy, c1 = decompose_weightclass_lineality(config, u, z)
            rebuilt = tuple(
                w + cx * x + cy * y + c1 for w, x, y in zip(u_wc, xv, yv)
            )
            assert rebuilt == u
            B = gale_dual(coefficient_matrix(config))
            assert flag_from_weight(B, u_wc).is_flag_of_flats

        quad = [(0, 0), (1, 0), (0, 1), (1, 1)]
        rest = [p for p in intro_config.points if p not in quad]
        circuit = [(1, 0), (1, 1), (1, 2)]
        pair = [(0, 1), (2, 1)]
        corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
        done = 0
        while done < 52:
            blocks = _random_blocks(rnd, rest) + [quad]
            flag = flag_from_blocks(intro_config, blocks)
            one_case(intro_config, flag, tuple(intro_config.index(p) for p in quad))
            blocks = _random_blocks(rnd, corners) + [pair, circuit]
            flag = flag_from_blocks(grid_config, blocks)
            one_case(grid_config, flag, tuple(grid_config.index(p) for p in circuit))
            done += 2

        # the excluded cones: boundary circuit under a minimal-distance apex
        cfg = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 1)])
        z = circuit_of(cfg, tuple(cfg.index(p) for p in [(0, 0), (0, 1), (0, 2)]))
        xv, yv = lineality_basis(cfg)
        failed = 0
        for _ in range(10):
            a = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
            b = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
            base = [0 if p[0] == 0 else -rnd.randint(1, 6) for p in cfg.points]
            u = tuple(h + a * x + b * y for h, x, y in zip(base, xv, yv))
            try:
                decompose_weightclass_lineality(cfg, u, z)
            except NotInUnionError:
                failed += 1
        assert failed == 10


def test_criterion_8_structural_invariants():
    with Budget("criterion 8: balancing, duality counts and covariance", 60.0):
        rnd = random.Random(88)
        configs = []
        while len(configs) < 25:
            verts = [(rnd.randint(0, 3), rnd.randint(0, 3)) for _ in range(rnd.randint(3, 5))]
            hull = convex_hull(verts)
            if len(hull) < 3:
                continue
            cfg = PointConfiguration.from_polygon(hull)
            if cfg.size <= 10:
                configs.append(cfg)
        samples = 0
        while samples < 500:
            cfg = configs[samples % len(configs)]
            u = tuple(
                Fraction(rnd.randint(-20, 20), rnd.randint(1, 5)) for _ in cfg.points
            )
            ms = regular_subdivision(cfg, u)
            curve = dual_curve(cfg, u)
            assert is_balanced(curve)
            assert len(curve.vertices) == len(ms.cells)
            segs = {}
            for cell in ms.cells:
                poly = cell.polygon
                for k in range(len(poly)):
                    seg = frozenset((poly[k], poly[(k + 1) % len(poly)]))
                    segs[seg] = segs.get(seg, 0) + 1
            assert len(curve.edges) == sum(1 for v in segs.values() if v == 2)
            assert len(curve.rays) == sum(1 for v in segs.values() if v == 1)
            for e in curve.edges:
                assert e.weight == lattice_length(*e.dual_segment)
            for r in curve.rays:
                assert r.weight == lattice_length(*r.dual_segment)
            hull = cfg.polygon
            assert sum(r.weight for r in curve.rays) == sum(
                lattice_length(hull[i], hull[(i + 1) % len(hull)])
                for i in range(len(hull))
            )
            # exact translation covariance along the lineality directions
            xv, yv = lineality_basis(cfg)
            c = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            shifted = dual_curve(cfg, tuple(h + c * x for h, x in zip(u, xv)))
            assert shifted.vertices == tuple((v[0] - c, v[1]) for v in curve.vertices)
            shifted = dual_curve(cfg, tuple(h + c * y for h, y in zip(u, yv)))
            assert shifted.vertices == tuple((v[0], v[1] - c) for v in curve.vertices)
            same = dual_curve(cfg, tuple(h + c for h in u))
            assert same.vertices == curve.vertices
            samples += 1


def test_criterion_9_boundary_point_classification():
    with Budget("criterion 9: fat ends for the boundary singular point", 5.0):
        cfg = PointConfiguration.from_polygon([(0, 0), (3, 0), (3, 1), (0, 2)])
        coefficient_matrix_non_torus(cfg)
        rnd = random.Random(99)
        bottom = [p for p in cfg.points if p[1] == 0]
        second = [p for p in cfg.points if p[1] == 1]
        rest = [p for p in cfg.points if p[1] > 1]
        for _ in range(30):
            mb = Fraction(rnd.randint(-3, 3))
            m1 = mb - Fraction(rnd.randint(1, 5), rnd.randint(1, 2))
            tied_bottom = rnd.sample(bottom, 3)
            tied_second = rnd.sample(second, 2)
            table = {}
            for p in bottom:
                table[p] = mb if p in tied_bottom else mb - rnd.randint(1, 6)
            for p in second:
                table[p] = m1 if p in tied_second else m1 - rnd.randint(1, 6)
            for p in rest:
                table[p] = m1 - rnd.randint(4, 9)
            u = tuple(table[p] for p in cfg.points)
            rep = classify_non_torus(cfg, u)
            assert rep.kind == "FatEnd"
            assert rep.ray_weight >= 2
            assert rep.ray_direction == (0, -1) and rep.ray_vertex[0] == 0
            assert rep.valence >= 4 or (rep.valence == 3 and rep.multiplicity >= 4)
            # breaking the three-way bottom tie kills the singularity
            bad = dict(table)
            bad[tied_bottom[0]] = mb + 1
            rep = classify_non_torus(cfg, tuple(bad[p] for p in cfg.points))
            assert rep.kind == "NotSingularAtOrigin"
