"""`MultiPoly`, stored as one denominator and integer numerators, against the
Fraction-dict arithmetic it replaced (`fraction_reference.ReferencePoly`),
and the canonical form that makes its equality a comparison of stored data."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from doldzeta import MultiPoly
from fraction_reference import ReferencePoly

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)


def random_terms(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
    return terms


def random_pair(rng, nvars):
    """The same random polynomial as a MultiPoly and as a ReferencePoly."""
    terms = random_terms(rng, nvars)
    return MultiPoly(nvars, terms), ReferencePoly(nvars, terms)


def random_scalar(rng):
    """A nonzero int or Fraction."""
    value = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice(DENOMINATORS))
    return value.numerator if rng.random() < 0.3 and value.denominator == 1 else value


def assert_canonical(poly):
    """Lowest terms: a positive denominator, nonzero int numerators sharing
    no factor with it, and the least such denominator (1 for zero)."""
    assert type(poly.den) is int and poly.den >= 1
    assert all(type(c) is int and c for c in poly.nums.values())
    assert gcd(poly.den, *poly.nums.values()) == 1
    assert poly.den == lcm(1, *(c.denominator for c in poly.terms.values()))


def assert_same(poly, ref):
    assert poly.nvars == ref.nvars
    assert poly.terms == ref.terms
    assert poly == MultiPoly(ref.nvars, ref.terms)
    assert_canonical(poly)


class TestAgainstTheFractionReference:
    def test_arithmetic(self):
        rng = random.Random(20261019)
        for _ in range(300):
            nvars = rng.randint(0, 3)
            (a, ra), (b, rb) = random_pair(rng, nvars), random_pair(rng, nvars)
            c = random_scalar(rng)
            assert_same(a, ra)
            assert_same(a + b, ra + rb)
            assert_same(a - b, ra - rb)
            assert_same(-a, -ra)
            assert_same(a * b, ra * rb)
            assert_same(a * c, ra * c)
            assert_same(c * a, ra * c)
            assert_same(a / c, ra / c)
            assert_same(a + c, ra + c)
            assert_same(c + a, ra + c)
            assert_same(a ** (e := rng.randint(0, 3)), ra ** e)
            assert_same(a * 0, ra * 0)

    def test_variable_spaces_and_substitution(self):
        rng = random.Random(20261020)
        for _ in range(200):
            nvars = rng.randint(0, 3)
            a, ra = random_pair(rng, nvars)
            wider = nvars + rng.randint(0, 2)
            assert_same(a.extend(wider), ra.extend(wider))
            assert_same(a.extend(wider).resize(nvars), ra.extend(wider).resize(nvars))
            target = rng.randint(1, 3)
            images = [random_pair(rng, target) for _ in range(nvars)]
            assert_same(
                a.substitute([p for p, _ in images]), ra.substitute([r for _, r in images])
            )

    def test_evaluation_and_leading_term(self):
        rng = random.Random(20261021)
        for _ in range(200):
            nvars = rng.randint(0, 3)
            a, ra = random_pair(rng, nvars)
            point = [
                rng.randint(-4, 4) if rng.random() < 0.5
                else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(nvars + rng.randint(0, 1))
            ]
            value = a.evaluate(point)
            assert type(value) is Fraction and value == ra.evaluate(point)
            if ra.terms:
                assert a.leading_term() == ra.leading_term()

    def test_equality_follows_the_reference(self):
        rng = random.Random(20261022)
        for _ in range(200):
            nvars = rng.randint(0, 2)
            (a, ra), (b, rb) = random_pair(rng, nvars), random_pair(rng, nvars)
            assert (a == b) == (ra == rb)
            assert (a * b + a) == (a * (b + 1))
            assert a.extend(nvars + 1) == a


class TestCanonicalForm:
    def test_dividing_and_multiplying_back_restores_the_stored_form(self):
        rng = random.Random(7)
        for _ in range(100):
            p, _ = random_pair(rng, rng.randint(0, 3))
            back = (p / 6) * 6
            assert back == p
            assert (back.den, back.nums) == (p.den, p.nums)

    def test_zero_has_denominator_one(self):
        t1 = MultiPoly.variable(1, 2)
        p = t1 / 3 + MultiPoly.variable(2, 2) / 4
        for zero in (p - p, p * 0, MultiPoly.zero(2), (p / 7) * 0, MultiPoly(2, {(1, 0): 0})):
            assert (zero.den, zero.nums) == (1, {})

    def test_cancelled_factors_are_divided_out(self):
        t1 = MultiPoly.variable(1, 1)
        half = t1 / 2
        assert ((half + half).den, (half + half).nums) == (1, {(1,): 1})
        sixth = (t1 * 3 + 9) / 18  # (t1 + 3)/6
        assert (sixth.den, sixth.nums) == (6, {(1,): 1, (0,): 3})
        assert ((sixth * 6).den, (sixth * 6).nums) == (1, {(1,): 1, (0,): 3})

    def test_the_constructor_stores_the_least_denominator(self):
        p = MultiPoly(2, {(1, 0): Fraction(1, 4), (0, 1): Fraction(5, 6), (0, 0): 2})
        assert p.den == 12
        assert p.nums == {(1, 0): 3, (0, 1): 10, (0, 0): 24}
        assert p.terms == {(1, 0): Fraction(1, 4), (0, 1): Fraction(5, 6), (0, 0): 2}


class TestExponents:
    @pytest.mark.parametrize("nvars,exps", [(1, (1.5,)), (2, (True, 0)), (2, (0, Fraction(1, 2)))])
    def test_a_non_integral_exponent_is_refused(self, nvars, exps):
        with pytest.raises(ValueError, match="an exponent must be an integer"):
            MultiPoly(nvars, {exps: 1})

    def test_an_integral_exponent_of_another_type_is_read_as_an_int(self):
        p = MultiPoly(2, {(2.0, Fraction(4, 2)): 1})
        assert p.nums == {(2, 2): 1}
        assert all(type(e) is int for e in next(iter(p.nums)))


class TestOperandTypes:
    class Reflecting:
        """An operand that takes every arithmetic with a polynomial itself."""

        def _mark(self, other):
            return ("reflected", other)

        __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _mark

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_another_operand_type_gets_the_reflected_operation(self, op):
        p, other = MultiPoly.variable(1, 1), self.Reflecting()
        assert eval(f"p {op} other") == ("reflected", p)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    @pytest.mark.parametrize("value", [1.5, None, 1j])
    def test_an_operand_of_no_rational_type_is_refused(self, op, value):
        p = MultiPoly.variable(1, 1)
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(f"p {op} value")
        if op in "+*":
            with pytest.raises(TypeError, match="unsupported operand"):
                eval(f"value {op} p")

    @pytest.mark.parametrize("value", [2, Fraction(1, 2), "3/4"])
    def test_a_rational_operand_still_acts_as_a_constant(self, value):
        p, c = MultiPoly.variable(1, 1), MultiPoly.constant(value, 1)
        assert p + value == value + p == p + c
        assert p - value == p - c
        assert p * value == value * p == p * c
        assert p / value == p * MultiPoly.constant(1 / Fraction(value), 1)
