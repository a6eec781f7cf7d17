"""Truncated generalized power series in t and algebraic lift witnesses.

Scalars are finite sums c * t^q with rational c and q, which is enough for
every check performed here: singularity of a lift at (1,1) is a finite exact
identity, and valuations are read off the least exponent.  The sign
convention is fixed once: height vectors are negatives of valuations.
"""

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bergman import classify_flag, coefficient_matrix, gale_dual, weight_class_sample
from .errors import ConfigurationError, ParseError, RetryExhaustedError, ZeroCoefficientError
from .lattice import PointConfiguration, canonical_key


@dataclass(frozen=True)
class PuiseuxScalar:
    """Finite t-series in canonical form: exponents strictly increasing."""

    terms: tuple  # ((exponent, coefficient), ...) with nonzero coefficients

    @classmethod
    def from_terms(cls, pairs):
        acc = {}
        for q, c in pairs:
            q, c = Fraction(q), Fraction(c)
            acc[q] = acc.get(q, Fraction(0)) + c
        terms = tuple([(q, acc[q]) for q in sorted(acc) if acc[q] != 0])
        return cls(terms)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls.from_terms([(0, c)])

    def is_zero(self) -> bool:
        return not self.terms

    def val(self):
        """Least exponent; +inf for the zero series."""
        return self.terms[0][0] if self.terms else math.inf

    def __add__(self, other):
        return PuiseuxScalar.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self):
        return PuiseuxScalar(tuple([(q, -c) for q, c in self.terms]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PuiseuxScalar):
            pairs = [
                (q1 + q2, c1 * c2)
                for q1, c1 in self.terms
                for q2, c2 in other.terms
            ]
            return PuiseuxScalar.from_terms(pairs)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return PuiseuxScalar.zero()
        return PuiseuxScalar(tuple([(q, c0 * c) for q, c0 in self.terms]))

    def eval_at(self, t):
        """Exact value at a rational t; exponents must be integers."""
        t = Fraction(t)
        total = Fraction(0)
        for q, c in self.terms:
            if q.denominator != 1:
                raise ValueError("evaluation needs integer exponents")
            total += c * t ** q.numerator
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for q, c in self.terms:
            if out:
                out.append(" - " if c < 0 else " + ")
                c = abs(c)
            out.append(f"{c}*t^{q}")
        return "".join(out)

    @classmethod
    def parse(cls, text) -> "PuiseuxScalar":
        """Parse 'c0*t^q0 + c1*t^q1 + ...' with exact rational c and q.

        Also accepts bare rationals, bare 't', 'c*t' and negative chunks
        ('... - t^2'); exponents may be rationals like 3/2 or negative.
        """
        s = str(text).strip()
        if not s:
            raise ParseError("empty series literal")
        # split at +/- signs that separate terms (not exponent signs)
        chunks = []
        cur = ""
        prev = ""
        for ch in s:
            if ch in "+-" and prev not in ("", "^", "*", "/"):
                chunks.append(cur)
                cur = ch if ch == "-" else ""
            else:
                cur += ch
            if not ch.isspace():
                prev = ch
        chunks.append(cur)
        pairs = []
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                raise ParseError(f"empty term in series literal {text!r}")
            m = re.fullmatch(
                r"(?P<sign>-?)\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
                r"(?P<tpart>t(?:\^(?P<exp>-?\d+(?:/\d+)?))?)?",
                chunk,
            )
            if not m or (m.group("coef") is None and m.group("tpart") is None):
                raise ParseError(f"bad series chunk {chunk!r} in {text!r}")
            try:
                coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
                if m.group("tpart"):
                    exp = Fraction(m.group("exp")) if m.group("exp") else Fraction(1)
                else:
                    exp = Fraction(0)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational in series chunk {chunk!r}") from exc
            if m.group("sign") == "-":
                coef = -coef
            pairs.append((exp, coef))
        return cls.from_terms(pairs)


@dataclass(frozen=True)
class PuiseuxPolynomial:
    """One series coefficient per configuration point."""

    config: PointConfiguration
    coefficients: tuple

    @classmethod
    def from_coeff_map(cls, config, mapping):
        coeffs = []
        mapping = {tuple(k): v for k, v in mapping.items()}
        for p in config.points:
            c = mapping.get(p, PuiseuxScalar.zero())
            if not isinstance(c, PuiseuxScalar):
                c = PuiseuxScalar.parse(c) if isinstance(c, str) else PuiseuxScalar.constant(c)
            coeffs.append(c)
        return cls(config, tuple(coeffs))

    def coefficient(self, point) -> PuiseuxScalar:
        return self.coefficients[self.config.index(point)]

    def evaluate(self, x, y) -> PuiseuxScalar:
        """Exact value at rational (x, y) in the torus."""
        x, y = Fraction(x), Fraction(y)
        if x == 0 or y == 0:
            raise ZeroDivisionError("evaluation point must avoid the axes")
        total = PuiseuxScalar.zero()
        for (i, j), c in zip(self.config.points, self.coefficients):
            total = total + c.scale(x ** i * y ** j)
        return total


def neg_val_vector(f: PuiseuxPolynomial, strict=True):
    """Height vector u_i = -val(a_i) of the coefficients.

    With strict=True a zero coefficient raises; otherwise its entry is None
    and the vector is partial.
    """
    out = []
    for p, c in zip(f.config.points, f.coefficients):
        if c.is_zero():
            if strict:
                raise ZeroCoefficientError(f"zero coefficient at {p}")
            out.append(None)
        else:
            out.append(-c.val())
    return tuple(out)


def singularity_residues(f: PuiseuxPolynomial):
    """The three series f(1,1), f_x(1,1), f_y(1,1), computed exactly."""
    s0 = PuiseuxScalar.zero()
    s1 = PuiseuxScalar.zero()
    s2 = PuiseuxScalar.zero()
    for (i, j), c in zip(f.config.points, f.coefficients):
        s0 = s0 + c
        s1 = s1 + c.scale(i)
        s2 = s2 + c.scale(j)
    return s0, s1, s2


def verify_singular_at_one_one(f: PuiseuxPolynomial) -> bool:
    """Whether f and both first partials vanish exactly at (1, 1)."""
    return all(s.is_zero() for s in singularity_residues(f))


@dataclass(frozen=True)
class LiftSample:
    polynomial: PuiseuxPolynomial
    neg_val: tuple
    target: tuple
    in_weight_class_closure: bool
    gale: object
    gammas: tuple


def _adapted_pivots(config, flag):
    """Pivot triple that makes every block height reachable by row exponents."""
    fc = classify_flag(flag, config)  # its circuit and pair are sorted
    if fc.case == "A":
        return fc.circuit.indices[:3]
    return tuple(sorted(fc.circuit.indices[:2] + fc.pair[:1]))


def _in_closure(flag, u) -> bool:
    blocks = flag.blocks
    prev = None
    for block in blocks:
        h = u[block[0]]
        if any(u[i] != h for i in block):
            return False
        if prev is not None and not (prev <= h):
            return False
        prev = h
    return True


def sample_singular_lift(config, flag, exponents=None, seed=0, max_retries=32) -> LiftSample:
    """Random kernel element whose valuations realize the flag's weight class.

    The coefficient vector is a = sum_k gamma_k t^(lambda_k) r_k over the rows
    r_k of a flag-adapted Gale dual, with random nonzero rational gamma_k.
    Row exponents default to the negatives of the block heights of the rows'
    unit indices, which lands the valuation vector exactly in the weight
    class; custom exponents may collide and cancel, in which case fresh
    gammas are drawn up to max_retries before RetryExhaustedError.
    """
    A = coefficient_matrix(config)
    gd = gale_dual(A, _adapted_pivots(config, flag))
    k = len(gd.matrix)
    nonpivots = [i for i in range(config.size) if i not in gd.pivots]
    target_heights = weight_class_sample(flag)
    if exponents is None:
        lambdas = [-(target_heights[i]) for i in nonpivots]
    else:
        lambdas = [Fraction(x) for x in exponents]
        if len(lambdas) != k:
            raise ConfigurationError(f"need one exponent per kernel generator ({k})")
    target = tuple(
        [max(-lambdas[r] for r in range(k) if gd.matrix[r][i] != 0) for i in range(config.size)]
    )
    rng = random.Random(seed)
    last = None
    for _attempt in range(max_retries):
        gammas = tuple(
            [
                Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
                for _ in range(k)
            ]
        )
        coeffs = []
        ok = True
        for i in range(config.size):
            c = PuiseuxScalar.from_terms(
                (lambdas[r], gammas[r] * gd.matrix[r][i])
                for r in range(k)
                if gd.matrix[r][i] != 0
            )
            if c.is_zero():
                ok = False
                break
            coeffs.append(c)
        if not ok:
            continue
        f = PuiseuxPolynomial(config, tuple(coeffs))
        u = neg_val_vector(f)
        sample = LiftSample(f, u, target, _in_closure(flag, u), gd, gammas)
        if sample.in_weight_class_closure:
            return sample
        last = sample
    if last is not None:
        return last
    raise RetryExhaustedError("all sampled lifts cancelled to zero coefficients")


def refine_substitution(f: PuiseuxPolynomial) -> PuiseuxPolynomial:
    """Exact expansion of f(x, y+1), collected by monomial.

    The new configuration is the downward shadow of the old one (every
    exponent (i, j) contributes (i, 0..j)); coefficients are binomial
    combinations of the old ones.  Requires nonnegative y-exponents.
    """
    old = f.config
    if any(j < 0 for _i, j in old.points):
        raise ConfigurationError("substitution y -> y+1 needs nonnegative exponents")
    shadow = sorted(
        {(i, l) for (i, j) in old.points for l in range(j + 1)}, key=canonical_key
    )
    try:
        new_config = PointConfiguration(shadow)
    except ConfigurationError:
        new_config = PointConfiguration.relaxed(shadow)
    coeffs = []
    for (i, l) in new_config.points:
        c = PuiseuxScalar.zero()
        for (i2, j2), a in zip(old.points, f.coefficients):
            if i2 == i and j2 >= l:
                c = c + a.scale(comb(j2, l))
        coeffs.append(c)
    return PuiseuxPolynomial(new_config, tuple(coeffs))
