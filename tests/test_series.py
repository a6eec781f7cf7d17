import math
import random
from fractions import Fraction

import pytest

from tropsing import (
    ParseError,
    PointConfiguration,
    PuiseuxPolynomial,
    PuiseuxScalar,
    ZeroCoefficientError,
    bergman_member_circuit_oracle,
    coefficient_matrix,
    enumerate_flags,
    gale_dual,
    neg_val_vector,
    refine_substitution,
    sample_singular_lift,
    verify_singular_at_one_one,
)
from tropsing.series import singularity_residues


class TestScalar:
    def test_parse_and_str_roundtrip(self):
        cases = ["-t - t^3", "1 + 2*t + t^3", "t^3", "-2 - t^3", "3/4*t^-2", "t^1/2", "0"]
        for text in cases:
            s = PuiseuxScalar.parse(text)
            assert PuiseuxScalar.parse(str(s)) == s

    def test_valuations(self):
        assert PuiseuxScalar.parse("t + t^3").val() == 1
        assert PuiseuxScalar.parse("2 + t^3").val() == 0
        assert PuiseuxScalar.parse("-1/2*t^-5 + t").val() == -5
        assert PuiseuxScalar.zero().val() == math.inf

    def test_canonical_form_collects_terms(self):
        s = PuiseuxScalar.from_terms([(1, 2), (1, -2), (0, 3)])
        assert s.terms == ((Fraction(0), Fraction(3)),)

    def test_arithmetic(self):
        a = PuiseuxScalar.parse("1 + t")
        b = PuiseuxScalar.parse("1 - t")
        assert (a * b) == PuiseuxScalar.parse("1 - t^2")
        assert (a + b) == PuiseuxScalar.parse("2")
        assert (a - a).is_zero()
        assert a.scale(Fraction(1, 2)) == PuiseuxScalar.parse("1/2 + 1/2*t")

    def test_rational_exponents_multiply(self):
        a = PuiseuxScalar.parse("t^1/2")
        assert a * a == PuiseuxScalar.parse("t")

    def test_parse_errors(self):
        for bad in ["", "1 + + t", "x^2", "1/0*t"]:
            with pytest.raises(ParseError):
                PuiseuxScalar.parse(bad)

    def test_eval_requires_integer_exponents(self):
        with pytest.raises(ValueError):
            PuiseuxScalar.parse("t^1/2").eval_at(Fraction(4))
        assert PuiseuxScalar.parse("1 + 2*t").eval_at(Fraction(1, 2)) == 2


class TestNegValVector:
    def test_intro_heights(self, intro_polynomial):
        assert neg_val_vector(intro_polynomial) == (-1, 0, -1, -3, 0, 0)

    def test_zero_coefficient_strictness(self, square_config):
        f = PuiseuxPolynomial.from_coeff_map(
            square_config, {(0, 0): "1", (1, 0): "t", (0, 1): "t"}
        )
        with pytest.raises(ZeroCoefficientError):
            neg_val_vector(f)
        partial = neg_val_vector(f, strict=False)
        assert partial == (0, -1, -1, None)


class TestSingularityCheck:
    def test_intro_polynomial_is_singular(self, intro_polynomial):
        res = singularity_residues(intro_polynomial)
        assert all(s.is_zero() for s in res)
        assert verify_singular_at_one_one(intro_polynomial)

    def test_value_zero_but_derivative_not(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        f = PuiseuxPolynomial.from_coeff_map(tri, {(0, 0): "-2", (1, 0): "1", (0, 1): "1"})
        s0, s1, s2 = singularity_residues(f)
        assert s0.is_zero() and not s1.is_zero()
        assert not verify_singular_at_one_one(f)


class TestSampledLifts:
    def test_all_flags_produce_singular_members(self, intro_config):
        A = coefficient_matrix(intro_config)
        B = gale_dual(A)
        for seed, flag in enumerate(enumerate_flags(B)):
            s = sample_singular_lift(intro_config, flag, seed=seed)
            assert verify_singular_at_one_one(s.polynomial)
            assert s.in_weight_class_closure
            assert s.neg_val == s.target
            assert bergman_member_circuit_oracle(A, s.neg_val)

    def test_unit_square_single_generator(self, square_config):
        B = gale_dual(coefficient_matrix(square_config))
        (flag,) = enumerate_flags(B)
        s = sample_singular_lift(square_config, flag, seed=5)
        f = s.polynomial
        # one kernel generator: coefficients proportional to (1, -1, -1, 1)
        gamma = f.coefficients[0]
        assert f.coefficients[3] == gamma
        assert f.coefficients[1] == -gamma and f.coefficients[2] == -gamma
        assert verify_singular_at_one_one(f)

    def test_custom_exponents_monotone(self, intro_config):
        B = gale_dual(coefficient_matrix(intro_config))
        flags = enumerate_flags(B)
        flag = flags[0]
        # default exponents are the negated block heights; scale them
        nonpivots = [i for i in range(intro_config.size) if i not in
                     gale_dual(coefficient_matrix(intro_config),
                               _pivots_of(flag, intro_config)).pivots]
        exps = [-Fraction(2) * flag.block_of(i) for i in nonpivots]
        s = sample_singular_lift(intro_config, flag, exponents=exps, seed=1)
        assert s.in_weight_class_closure
        assert verify_singular_at_one_one(s.polynomial)

    def test_colliding_exponents_retry_path(self, intro_config):
        B = gale_dual(coefficient_matrix(intro_config))
        flag = enumerate_flags(B)[0]
        # all rows at the same exponent invites cancellations; the sampler
        # must still return a kernel element, flagged if it left the closure
        s = sample_singular_lift(intro_config, flag, exponents=[0, 0, 0], seed=2)
        assert verify_singular_at_one_one(s.polynomial)

    def test_weight_class_closure_test(self, intro_config):
        from tropsing.bergman import weight_class_sample
        from tropsing.series import _in_closure

        flag = enumerate_flags(gale_dual(coefficient_matrix(intro_config)))[0]
        u = list(weight_class_sample(flag))
        assert _in_closure(flag, u)
        assert _in_closure(flag, [0] * intro_config.size)  # equal heights close the class
        first, top = flag.blocks[0], flag.blocks[-1]
        assert not _in_closure(flag, [100 if i in first else h for i, h in enumerate(u)])
        assert not _in_closure(flag, [h + (i == top[0]) for i, h in enumerate(u)])


def _pivots_of(flag, config):
    from tropsing.series import _adapted_pivots

    return _adapted_pivots(config, flag)


class TestRefineSubstitution:
    def test_intro_refinement(self, intro_polynomial):
        fh = refine_substitution(intro_polynomial)
        expect = {
            (0, 0): "-t",
            (1, 0): "2*t",
            (2, 0): "-t",
            (0, 1): "t^3",
            (1, 1): "-t^3",
            (1, 2): "1",
        }
        assert fh.config.points == intro_polynomial.config.points
        for p, text in expect.items():
            assert fh.coefficient(p) == PuiseuxScalar.parse(text)
        u = neg_val_vector(fh)
        assert u[fh.config.index((0, 0))] == u[fh.config.index((2, 0))] == -1

    def test_no_y_dependence_unchanged(self):
        cfg = PointConfiguration.from_polygon([(0, 0), (2, 0), (0, 1)])
        f = PuiseuxPolynomial.from_coeff_map(
            cfg, {(0, 0): "1", (1, 0): "t", (2, 0): "-1"}
        )
        fh = refine_substitution(f)
        assert fh.config.points == cfg.points
        assert fh.coefficients == f.coefficients

    def test_constant_unchanged(self):
        tri = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        f = PuiseuxPolynomial.from_coeff_map(tri, {(0, 0): "7"})
        fh = refine_substitution(f)
        assert fh.coefficient((0, 0)) == PuiseuxScalar.parse("7")
        assert fh.coefficient((1, 0)).is_zero()

    def test_evaluation_agreement(self, intro_polynomial):
        fh = refine_substitution(intro_polynomial)
        rnd = random.Random(8)
        for _ in range(20):
            x = Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) * rnd.choice((1, -1))
            y = Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) * rnd.choice((1, -1))
            if y == -1:
                continue
            t = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
            assert intro_polynomial.evaluate(x, y + 1).eval_at(t) == fh.evaluate(x, y).eval_at(t)

    def test_b1_lifts_refine_to_equal_valuations(self, grid_config):
        """Lifts of balanced weight-2-edge cones refine with matching outer values."""
        from tropsing.bergman import FlagOfFlats

        pts = grid_config.points
        circuit = [(1, 0), (1, 1), (1, 2)]
        pair = [(0, 1), (2, 1)]
        corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
        rnd = random.Random(55)
        done = 0
        while done < 50:
            order = corners[:]
            rnd.shuffle(order)
            blocks = [[p] for p in order] + [pair, circuit]
            chain, acc = [], []
            for block in blocks:
                acc.extend(pts.index(p) for p in block)
                chain.append(tuple(sorted(acc)))
            flag = FlagOfFlats(tuple(chain))
            s = sample_singular_lift(grid_config, flag, seed=done)
            fh = refine_substitution(s.polynomial)
            u = neg_val_vector(fh)
            # the circuit sits on x=1; the refined outer values at (0,0),(2,0)
            # agree exactly
            assert u[fh.config.index((0, 0))] == u[fh.config.index((2, 0))]
            done += 1
