import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest

from tropsing import (
    ConfigurationError,
    DependentPivotsError,
    MalformedFlagError,
    PointConfiguration,
    TooLargeError,
    TropsingError,
    ZeroTorusCoordinateError,
    bergman_member_circuit_oracle,
    bergman_member_loopfree,
    classify_flag,
    coefficient_matrix,
    enumerate_flags,
    flag_from_weight,
    gale_dual,
    is_flat,
    weight_class_sample,
)
from tropsing.bergman import (
    CoefficientMatrix,
    FlagOfFlats,
    bit_indices,
    bit_mask,
    closure_mask,
)
from tropsing import bergman, linalg
from tropsing.linalg import rank
from tropsing.singular import coefficient_matrix_non_torus

from oracles import classify_flag_by_blocks


GOLDEN_A_8PT = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 1, 2, 0, 1, 2],
    [0, 0, 1, 1, 1, 2, 2, 2],
]

GOLDEN_B_8PT = [
    [1, -1, -1, 1, 0, 0, 0, 0],
    [2, -2, -1, 0, 1, 0, 0, 0],
    [1, 0, -2, 0, 0, 1, 0, 0],
    [2, -1, -2, 0, 0, 0, 1, 0],
    [3, -2, -2, 0, 0, 0, 0, 1],
]


@pytest.fixture
def matroid_matrices(five_point_config, intro_config, eight_point_config, grid_config):
    """The benchmark's five matroids, plus the intro matrix at (p, q) = (2, 3).

    The boundary block matrix of the criterion-9 configuration has zero
    columns, which are coloops of its Gale dual.
    """
    boundary = PointConfiguration.from_polygon([(0, 0), (3, 0), (3, 1), (0, 2)])
    return {
        "five_point": coefficient_matrix(five_point_config),
        "intro": coefficient_matrix(intro_config),
        "eight_point": coefficient_matrix(eight_point_config),
        "grid": coefficient_matrix(grid_config),
        "boundary_block": coefficient_matrix_non_torus(boundary),
        "intro_2_3": coefficient_matrix(intro_config, 2, 3),
    }


def subsets(s):
    for size in range(s + 1):
        yield from combinations(range(s), size)


def in_span(vectors, target) -> bool:
    """Reference: whether target lies in the linear span of the given vectors."""
    vecs = [list(v) for v in vectors]
    base = rank(vecs) if vecs else 0
    return rank(vecs + [list(target)]) == base


def span_closure(B, subset):
    """Reference: closure by Gaussian elimination over the columns of B."""
    span = linalg.IncrementalSpan()
    for i in subset:
        span.add(B.column(i))
    return tuple(i for i in range(B.size) if span.contains(B.column(i)))


def matroid_closure(B, subset):
    """Sorted indices of the closure of `subset` in the column matroid of B."""
    return bit_indices(closure_mask(B.coefficient, bit_mask(subset, B.size)))


def flags_by_span_closure(B):
    """Reference: depth-first complete flags, each cover a span closure."""
    s, top = B.size, len(B.matrix)
    chains = []

    @cache
    def covers(flat):
        return sorted({span_closure(B, flat + (e,)) for e in range(s) if e not in flat})

    def extend(chain, current):
        if len(chain) == top:
            if current == tuple(range(s)):
                chains.append(tuple(chain))
            return
        for nxt in covers(current):
            extend(chain + [nxt], nxt)

    extend([], ())
    return sorted(chains)


class TestCoefficientMatrix:
    def test_golden_8pt(self, eight_point_config):
        A = coefficient_matrix(eight_point_config)
        assert [[int(x) for x in row] for row in A.rows] == GOLDEN_A_8PT

    def test_torus_point_scaling(self, five_point_config):
        A = coefficient_matrix(five_point_config, 2, 3)
        for col, (i, j) in zip(zip(*A.rows), five_point_config.points):
            scale = Fraction(2) ** i * Fraction(3) ** j
            assert col == (scale, scale * i, scale * j)

    def test_unit_scaling_is_identity(self, five_point_config):
        assert coefficient_matrix(five_point_config, 1, 1) == coefficient_matrix(
            five_point_config
        )

    def test_zero_coordinate_rejected(self, five_point_config):
        with pytest.raises(ZeroTorusCoordinateError):
            coefficient_matrix(five_point_config, 0, 1)

    def test_matroid_invariant_under_scaling(self, five_point_config, eight_point_config):
        for cfg in (five_point_config, eight_point_config):
            base = coefficient_matrix(cfg).minor_zero_pattern
            for (p, q) in [(2, 3), (Fraction(-1, 2), 5), (7, Fraction(3, 4))]:
                assert coefficient_matrix(cfg, p, q).minor_zero_pattern == base


class TestGaleDual:
    def test_golden_8pt(self, eight_point_config):
        B = gale_dual(coefficient_matrix(eight_point_config))
        assert B.pivots == (0, 1, 2)
        assert [[int(x) for x in row] for row in B.pivots_first()] == GOLDEN_B_8PT
        # pivots are first three here, so the stored matrix agrees
        assert B.pivots_first() == B.matrix

    def test_kernel_identity(self, eight_point_config, five_point_config, grid_config):
        for cfg in (eight_point_config, five_point_config, grid_config):
            A = coefficient_matrix(cfg)
            B = gale_dual(A)
            for arow in A.rows:
                for brow in B.matrix:
                    assert sum(a * b for a, b in zip(arow, brow)) == 0
            assert rank(list(B.matrix)) == cfg.size - 3

    def test_dependent_pivots_rejected(self, intro_config):
        # (0,0), (1,0), (2,0) are collinear
        with pytest.raises(DependentPivotsError):
            gale_dual(coefficient_matrix(intro_config), (0, 1, 2))

    def test_wrong_elimination_pivots_raise(self, intro_config, monkeypatch):
        real = linalg.rref

        def shifted(rows):
            reduced, pivots = real(rows)
            return reduced, tuple(p + 1 for p in pivots)

        monkeypatch.setattr(linalg, "rref", shifted)
        with pytest.raises(DependentPivotsError):
            gale_dual(coefficient_matrix(intro_config), (0, 1, 3))

    def test_corrupted_elimination_raises(self, intro_config, monkeypatch):
        real = linalg.rref

        def corrupted(rows):
            reduced, pivots = real(rows)
            first = list(reduced[0])
            first[-1] += 1
            return [tuple(first)] + list(reduced[1:]), pivots

        monkeypatch.setattr(linalg, "rref", corrupted)
        with pytest.raises(TropsingError):
            gale_dual(coefficient_matrix(intro_config), (0, 1, 3))

    @pytest.mark.parametrize("bad", [99, 6, -1])
    def test_pivot_out_of_range_rejected(self, intro_config, bad):
        with pytest.raises(ConfigurationError, match=f"pivot index {bad} "):
            gale_dual(coefficient_matrix(intro_config), (0, 1, bad))

    def test_matroid_independent_of_pivots(self, eight_point_config):
        A = coefficient_matrix(eight_point_config)
        B1 = gale_dual(A, (0, 1, 2))
        B2 = gale_dual(A, (2, 4, 5))
        for subset_size in (1, 2, 3):
            for sub in combinations(range(8), subset_size):
                cols1 = [B1.column(i) for i in sub]
                cols2 = [B2.column(i) for i in sub]
                assert rank(cols1) == rank(cols2)


class TestFlats:
    def test_full_and_empty(self, eight_point_config):
        B = gale_dual(coefficient_matrix(eight_point_config))
        assert is_flat(B, range(8))
        assert is_flat(B, [])

    def test_singleton_flat_iff_no_parallel_column(self, eight_point_config):
        B = gale_dual(coefficient_matrix(eight_point_config))
        for i in range(8):
            parallel = [
                k
                for k in range(8)
                if k != i and rank([B.column(i), B.column(k)]) == 1
            ]
            assert is_flat(B, [i]) == (not parallel)

    def test_matches_definition_by_spans(self, five_point_config):
        B = gale_dual(coefficient_matrix(five_point_config))
        for size in range(0, 6):
            for sub in combinations(range(5), size):
                expected = all(
                    not in_span([B.column(i) for i in sub], B.column(k))
                    for k in range(5)
                    if k not in sub
                ) if sub else all(any(c != 0 for c in B.column(k)) for k in range(5))
                assert is_flat(B, sub) == expected

    @pytest.mark.parametrize("sub", [[8], [-1], [0, 3, 99]])
    def test_column_out_of_range_rejected(self, eight_point_config, sub):
        B = gale_dual(coefficient_matrix(eight_point_config))
        with pytest.raises(ConfigurationError, match=f"column index {sub[-1]} "):
            is_flat(B, sub)
        with pytest.raises(ConfigurationError):
            matroid_closure(B, sub)

    def test_rank_matches_elimination(self, matroid_matrices):
        for name, A in matroid_matrices.items():
            for sub in subsets(A.size):
                cols = [A.column(i) for i in sub]
                assert A.rank_of(bit_mask(sub, A.size)) == (rank(cols) if cols else 0), (name, sub)

    def test_closure_matches_span_closure(self, matroid_matrices):
        for name, A in matroid_matrices.items():
            B = gale_dual(A)
            for sub in subsets(A.size):
                expected = span_closure(B, sub)
                assert matroid_closure(B, sub) == expected, (name, sub)
                assert is_flat(B, sub) == (expected == sub), (name, sub)

    @pytest.mark.parametrize("name,count", [("eight_point", 1380), ("boundary_block", 2880)])
    def test_flags_match_span_closure_flags(self, matroid_matrices, name, count):
        B = gale_dual(matroid_matrices[name])
        flags = [f.flats for f in enumerate_flags(B)]
        assert len(flags) == count
        assert flags == flags_by_span_closure(B)


def flats_by_bruteforce(B):
    """Oracle: every subset closed under column span, grouped by rank."""
    s = B.size
    flats = {}
    for size in range(s + 1):
        for sub in combinations(range(s), size):
            cols = [B.column(i) for i in sub]
            outside = [k for k in range(s) if k not in sub]
            if any(in_span(cols, B.column(k)) for k in outside):
                continue
            flats.setdefault(rank(cols) if cols else 0, set()).add(sub)
    return flats


def chains_by_bruteforce(B):
    flats = flats_by_bruteforce(B)
    top = len(B.matrix)

    def extend(chain, r):
        if r == top:
            yield tuple(chain)
            return
        for f in sorted(flats.get(r + 1, ())):
            if set(chain[-1]) < set(f) if chain else True:
                if not chain or set(chain[-1]) < set(f):
                    yield from extend(chain + [f], r + 1)

    return sorted(extend([], 0))


class TestFlagEnumeration:
    def test_unit_square_single_flag(self, square_config):
        B = gale_dual(coefficient_matrix(square_config))
        flags = enumerate_flags(B)
        assert flags == (FlagOfFlats(((0, 1, 2, 3),)),)
        w = weight_class_sample(flags[0])
        assert w == (1, 1, 1, 1)

    def test_matches_bruteforce_chains(self, five_point_config, intro_config):
        for cfg in (five_point_config, intro_config):
            B = gale_dual(coefficient_matrix(cfg))
            mine = sorted(f.flats for f in enumerate_flags(B))
            assert mine == chains_by_bruteforce(B)

    def test_limit_guard(self, five_point_config):
        B = gale_dual(coefficient_matrix(five_point_config))
        with pytest.raises(TooLargeError):
            enumerate_flags(B, limit=4)


class TestClassifyFlag:
    def test_square_circuit_flag(self, square_config):
        B = gale_dual(coefficient_matrix(square_config))
        (flag,) = enumerate_flags(B)
        fc = classify_flag(flag, square_config)
        assert fc.case == "A" and fc.circuit.kind == "B"

    def test_gray_pair_flag_on_8pt(self, eight_point_config):
        # blocks (0,0) < (1,0) < (0,1) < {(1,1),(2,1)} < {y=2 line}
        pts = eight_point_config.points
        order = [(0, 0)], [(1, 0)], [(0, 1)], [(1, 1), (2, 1)], [(0, 2), (1, 2), (2, 2)]
        chain, acc = [], []
        for block in order:
            acc.extend(pts.index(p) for p in block)
            chain.append(tuple(sorted(acc)))
        flag = FlagOfFlats(tuple(chain))
        B = gale_dual(coefficient_matrix(eight_point_config))
        assert all(is_flat(B, f) for f in flag.flats)
        fc = classify_flag(flag, eight_point_config)
        assert fc.case == "B"
        assert set(fc.circuit.indices) == {pts.index(p) for p in [(0, 2), (1, 2), (2, 2)]}
        assert set(fc.pair) == {pts.index((1, 1)), pts.index((2, 1))}
        assert fc.tail_on_line
        # the weight class sample obeys the block inequalities
        w = weight_class_sample(flag)
        assert w[pts.index((0, 0))] < w[pts.index((1, 0))] < w[pts.index((0, 1))]
        assert w[pts.index((1, 1))] == w[pts.index((2, 1))]
        assert w[pts.index((0, 2))] == w[pts.index((1, 2))] == w[pts.index((2, 2))]

    def test_all_flags_classify(self, eight_point_config):
        B = gale_dual(coefficient_matrix(eight_point_config))
        for flag in enumerate_flags(B):
            fc = classify_flag(flag, eight_point_config)
            assert fc.case in ("A", "B")

    def test_malformed_flag_rejected(self, five_point_config):
        bogus = FlagOfFlats(((0,), (0, 1), (0, 1, 2, 3, 4)))
        with pytest.raises(MalformedFlagError):
            classify_flag(bogus, five_point_config)


def classify_outcome(classify, flats, config):
    """A flag's class, or the type and message of the error classifying it."""
    try:
        return classify(flats, config)
    except MalformedFlagError as exc:
        return type(exc), str(exc)


def chain_of_blocks(blocks):
    chain, acc = [], []
    for block in blocks:
        acc.extend(block)
        chain.append(tuple(sorted(acc)))
    return tuple(chain)


CRITERION_9_VERTICES = [(0, 0), (3, 0), (3, 1), (0, 2)]
B2_PENTAGON_VERTICES = [(0, 1), (1, 0), (2, 0), (2, 2), (1, 2)]
GRID_4X2_VERTICES = [(0, 0), (3, 0), (3, 1), (0, 1)]


class TestClassifyFlagByShape:
    """`classify_flag` reads the shape off the chain; the oracle takes explicit blocks."""

    def agree(self, flats, config):
        mine = classify_outcome(lambda f, c: classify_flag(FlagOfFlats(f), c), flats, config)
        assert mine == classify_outcome(classify_flag_by_blocks, flats, config), flats
        return mine

    def test_every_enumerated_flag(
        self, five_point_config, intro_config, eight_point_config, grid_config
    ):
        counts = []
        for cfg in (
            five_point_config,
            intro_config,
            eight_point_config,
            grid_config,
            PointConfiguration.from_polygon(CRITERION_9_VERTICES),
            PointConfiguration.from_polygon(B2_PENTAGON_VERTICES),
        ):
            flags = enumerate_flags(gale_dual(coefficient_matrix(cfg)))
            for flag in flags:
                assert classify_flag(flag, cfg) == classify_flag_by_blocks(flag.flats, cfg)
            counts.append(len(flags))
        assert counts == [4, 24, 1380, 12240, 11760, 174]

    def test_boundary_block_flags_with_their_errors(self):
        # the boundary point's matroid has flags of neither shape
        cfg = PointConfiguration.from_polygon(CRITERION_9_VERTICES)
        seen = set()
        for flag in enumerate_flags(gale_dual(coefficient_matrix_non_torus(cfg))):
            out = self.agree(flag.flats, cfg)
            seen.add(out.case if isinstance(out, bergman.FlagClass) else out[1].split()[0])
        assert seen == {"B", "top", "blocks"}

    def test_each_error_message(self, intro_config):
        grid = PointConfiguration.from_polygon(GRID_4X2_VERTICES)  # rows 0..3 and 4..7
        cases = [
            (intro_config, [(0,), (1,), (2,), (3, 4, 5)], "top block (3, 4, 5) is not"),
            (intro_config, [(0, 1), (2, 3, 4, 5)], "4-element top block requires"),
            (intro_config, [(3,), (4,), (5,), (0, 1, 2)], "expected exactly one pair"),
            (intro_config, [(3, 4, 5), (0, 1, 2)], "expected exactly one pair"),
            (grid, [(5,), (6,), (7,), (3, 4), (0, 1, 2)], "pair block must lie off"),
            (grid, [(3,), (4, 5), (6,), (7,), (0, 1, 2)], "blocks above the pair"),
            (grid, [(0, 1, 2, 3, 4, 5, 6, 7)], "top block (0, 1, 2, 3, 4, 5, 6, 7) is not"),
        ]
        for cfg, blocks, message in cases:
            out = self.agree(chain_of_blocks(blocks), cfg)
            assert out[0] is MalformedFlagError and out[1].startswith(message)

    def test_hand_built_shapes(self, square_config, five_point_config):
        grid = PointConfiguration.from_polygon(GRID_4X2_VERTICES)
        # case B with an on-line block between the pair and the top
        out = self.agree(chain_of_blocks([(6,), (7,), (4, 5), (3,), (0, 1, 2)]), grid)
        assert (out.case, out.circuit.indices, out.pair) == ("B", (0, 1, 2), (4, 5))
        # the pair as the first block, below the line x = 1
        out = self.agree(chain_of_blocks([(0, 2), (1, 3, 4)]), five_point_config)
        assert (out.case, out.pair) == ("B", (0, 2))
        # a single flat holding a 4-point circuit
        assert self.agree(((0, 1, 2, 3),), square_config).case == "A"

    def test_random_nested_chains(self):
        rnd = random.Random(21)
        for cfg in (
            PointConfiguration.from_polygon(GRID_4X2_VERTICES),
            PointConfiguration.from_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
        ):
            for _ in range(1500):
                order = list(range(cfg.size))
                rnd.shuffle(order)
                top = rnd.choice((3, 4))
                blocks, rest = [], order[top:]
                while rest:
                    size = rnd.choice((1, 1, 1, 1, 2, 3))
                    blocks.append(rest[:size])
                    rest = rest[size:]
                self.agree(chain_of_blocks(blocks + [order[:top]]), cfg)

    @pytest.mark.parametrize(
        "flats, message",
        [
            (((0, 1), (1, 2), (0, 1, 2, 3, 4)), "flat 1 [1, 2] does not strictly contain"),
            (((0,), (1, 2), (0, 1, 2, 3, 4)), "flat 1 [1, 2] does not strictly contain"),
            (((0, 1), (0, 1), (0, 1, 2, 3, 4)), "flat 1 [0, 1] does not strictly contain"),
            (((), (0, 1, 2, 3, 4)), "flat 0 [] does not strictly contain"),
            (((1, 0), (0, 1, 2, 3, 4)), "flat 0 [1, 0] is not sorted without repeats"),
            (((0, 0), (0, 1, 2, 3, 4)), "flat 0 [0, 0] is not sorted without repeats"),
        ],
    )
    def test_chains_that_are_not_strictly_nested_are_refused(
        self, five_point_config, flats, message
    ):
        with pytest.raises(MalformedFlagError) as info:
            classify_flag(FlagOfFlats(flats), five_point_config)
        assert str(info.value).startswith(message)

    def test_circuit_table_fills_per_lookup(self, grid_config):
        assert grid_config.circuit_at((0, 1, 2)) == bergman.Circuit((0, 1, 2), "C")
        assert grid_config.circuit_at((0, 1, 3)) is None
        assert grid_config.circuit_at((0, 2, 6, 8)).kind == "B"
        assert len(grid_config._circuits) == 3


class TestFlagFromWeight:
    def test_paper_style_levels(self, square_config):
        B = gale_dual(coefficient_matrix(square_config))
        # u_2 < u_0 = u_3 < u_1 (0-based indices)
        res = flag_from_weight(B, (1, 5, 0, 1))
        assert res.weight_class.blocks == ((2,), (0, 3), (1,))
        assert res.flag == ((2,), (0, 2, 3), (0, 1, 2, 3))

    def test_constant_vector(self, square_config):
        B = gale_dual(coefficient_matrix(square_config))
        res = flag_from_weight(B, (3, 3, 3, 3))
        assert res.weight_class.blocks == ((0, 1, 2, 3),)
        assert res.is_flag_of_flats

    def test_roundtrip_through_samples(self, five_point_config, eight_point_config):
        for cfg in (five_point_config, eight_point_config):
            B = gale_dual(coefficient_matrix(cfg))
            for flag in enumerate_flags(B):
                w = weight_class_sample(flag)
                res = flag_from_weight(B, w)
                assert res.flag == flag.flats
                assert res.is_flag_of_flats

    def test_custom_gaps(self, five_point_config):
        B = gale_dual(coefficient_matrix(five_point_config))
        flag = enumerate_flags(B)[0]
        gaps = [Fraction(1, 2)] * len(flag.blocks)
        w = weight_class_sample(flag, gaps)
        assert flag_from_weight(B, w).flag == flag.flats


class TestMembership:
    def test_zero_vector_is_member(self, five_point_config):
        A = coefficient_matrix(five_point_config)
        B = gale_dual(A)
        zero = [0] * 5
        assert bergman_member_loopfree(B, zero)
        assert bergman_member_circuit_oracle(A, zero)

    def test_intro_heights_are_member(self, intro_config, intro_heights):
        A = coefficient_matrix(intro_config)
        B = gale_dual(A)
        assert bergman_member_loopfree(B, intro_heights)
        assert bergman_member_circuit_oracle(A, intro_heights)

    def test_generic_vector_is_not_member(self, eight_point_config):
        A = coefficient_matrix(eight_point_config)
        B = gale_dual(A)
        w = [Fraction(3 ** i, 7) for i in range(8)]
        assert not bergman_member_loopfree(B, w)
        assert not bergman_member_circuit_oracle(A, w)

    def test_strict_max_on_circuit_support_fails(self, five_point_config):
        A = coefficient_matrix(five_point_config)
        B = gale_dual(A)
        support = sorted(A.cocircuits[0])
        w = [Fraction(0)] * 5
        w[support[0]] = Fraction(1)
        assert not bergman_member_circuit_oracle(A, w)
        assert not bergman_member_loopfree(B, w)

    def test_supports_are_minimal_and_dependent(self, eight_point_config):
        A = coefficient_matrix(eight_point_config)
        B = gale_dual(A)
        for sup in A.cocircuits:
            cols = [B.column(i) for i in sup]
            assert rank(cols) == len(sup) - 1
            for i in sup:
                sub = [B.column(k) for k in sup if k != i]
                assert rank(sub) == len(sub)

    def test_triple_agreement_random(self, five_point_config, intro_config):
        rnd = random.Random(42)
        for cfg in (five_point_config, intro_config):
            A = coefficient_matrix(cfg)
            B = gale_dual(A)
            for _ in range(150):
                w = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in cfg.points]
                m1 = bergman_member_loopfree(B, w)
                m2 = bergman_member_circuit_oracle(A, w)
                m3 = flag_from_weight(B, w).is_flag_of_flats
                assert m1 == m2 == m3

    @pytest.mark.parametrize("name", ["boundary_block", "intro_2_3"])
    def test_triple_agreement_off_unit_torus_point(self, matroid_matrices, name):
        A = matroid_matrices[name]
        B = gale_dual(A)
        rnd = random.Random(name)
        vectors = [
            [Fraction(rnd.randint(-12, 12), rnd.randint(1, 5)) for _ in range(A.size)]
            for _ in range(300)
        ]
        flags = enumerate_flags(B)
        for flag in rnd.sample(flags, min(len(flags), 150)):
            gaps = [Fraction(rnd.randint(1, 6), rnd.randint(1, 3)) for _ in flag.blocks]
            shift = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
            vectors.append([x + shift for x in weight_class_sample(flag, gaps)])
        seen = set()
        for w in vectors:
            m1 = bergman_member_loopfree(B, w)
            m2 = bergman_member_circuit_oracle(A, w)
            m3 = flag_from_weight(B, w).is_flag_of_flats
            assert m1 == m2 == m3, w
            seen.add(m1)
        assert seen == {True, False}


class TestReversedExistence:
    def test_every_circuit_tops_some_flag(self, eight_point_config):
        from tropsing import circuits

        B = gale_dual(coefficient_matrix(eight_point_config))
        flags = enumerate_flags(B)
        tops = {}
        for f in flags:
            fc = classify_flag(f, eight_point_config)
            key = tuple(sorted(fc.circuit.indices))
            tops.setdefault(key, []).append(fc)
        for z in circuits(eight_point_config):
            assert tuple(sorted(z.indices)) in tops

    def test_every_offline_pair_appears(self, eight_point_config):
        from tropsing import circuits
        from tropsing.lattice import orient

        pts = eight_point_config.points
        B = gale_dual(coefficient_matrix(eight_point_config))
        flags = enumerate_flags(B)
        seen = set()
        for f in flags:
            fc = classify_flag(f, eight_point_config)
            if fc.case == "B":
                seen.add((tuple(sorted(fc.circuit.indices)), tuple(sorted(fc.pair))))
        for z in circuits(eight_point_config):
            if z.kind != "C":
                continue
            a, b = pts[z.indices[0]], pts[z.indices[1]]
            off = [i for i in range(8) if orient(a, b, pts[i]) != 0]
            for pair in combinations(off, 2):
                assert (tuple(sorted(z.indices)), pair) in seen


def supports_by_subset_scan(A):
    """Reference: minimal row-space supports by exhaustive subset elimination.

    S qualifies iff the row space meets the coordinate subspace of S
    nontrivially while every S minus one point meets it only in zero.
    Exponential in s.
    """
    s = A.size
    full = rank(list(A.rows))

    @cache
    def dim_within(subset):
        outside = [i for i in range(s) if i not in subset]
        return full - (rank([[row[i] for i in outside] for row in A.rows]) if outside else 0)

    supports = []
    for size in range(1, s + 1):
        for cand in combinations(range(s), size):
            fs = frozenset(cand)
            if any(sup <= fs for sup in supports):
                continue
            if dim_within(fs) >= 1 and all(dim_within(fs - {i}) == 0 for i in fs):
                supports.append(fs)
    return tuple(sorted(supports, key=lambda f: (len(f), sorted(f))))


class TestCocircuits:
    def test_match_subset_scan(
        self, five_point_config, intro_config, eight_point_config, grid_config
    ):
        mats = [
            coefficient_matrix(cfg, p, q)
            for cfg in (five_point_config, intro_config, eight_point_config, grid_config)
            for p, q in [(1, 1), (Fraction(-1, 2), 5)]
        ]
        # block matrices at (1, 0): zero columns and parallel columns
        mats += [coefficient_matrix_non_torus(cfg) for cfg in (intro_config, grid_config)]
        for A in mats:
            assert A.cocircuits == supports_by_subset_scan(A)

    def test_computed_once_per_matrix(self, intro_config):
        A = coefficient_matrix(intro_config)
        assert A.cocircuits is A.cocircuits

    def test_minor_table_computed_once_per_matrix(self, intro_config):
        A = coefficient_matrix(intro_config)
        assert A.minor_zero_pattern is A.minor_zero_pattern
        assert A.minor_zero_pattern is not coefficient_matrix(intro_config).minor_zero_pattern

    def test_one_minor_per_triple(self, eight_point_config, monkeypatch):
        # cocircuits, closures, flags and the flat test all read the one table
        A = coefficient_matrix(eight_point_config)
        B = gale_dual(A)
        real, calls = bergman.minor, []
        monkeypatch.setattr(bergman, "minor", lambda *cols: calls.append(cols) or real(*cols))
        A.cocircuits
        flags = enumerate_flags(B)
        assert flag_from_weight(B, weight_class_sample(flags[0])).is_flag_of_flats
        assert len(calls) == comb(8, 3)

    def test_rank_below_three_raises(self, five_point_config):
        rows = coefficient_matrix(five_point_config).rows
        zero = tuple(Fraction(0) for _ in rows[0])
        for low in [(rows[0], rows[1], rows[0]), (rows[0], zero, zero)]:
            A = CoefficientMatrix(low, five_point_config, (1, 1))
            with pytest.raises(TropsingError):
                A.cocircuits

    def test_three_oracles_agree_on_5x5_grid(self):
        cfg = PointConfiguration.from_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        A = coefficient_matrix(cfg)
        B = gale_dual(A)
        rnd = random.Random(5)
        seen = set()
        for _ in range(60):
            w = [rnd.randint(0, 6) for _ in cfg.points]
            member = bergman_member_circuit_oracle(A, w)
            assert bergman_member_loopfree(B, w) == member
            assert flag_from_weight(B, w).is_flag_of_flats == member
            seen.add(member)
        assert seen == {True, False}
