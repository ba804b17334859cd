"""`PowerSeries` and `Poly`, stored as one denominator and integer numerators,
against the Fraction arithmetic they replaced (`fraction_reference`'s
`ReferenceSeries` and `ReferenceUniPoly`) on seeded random rationals with
mixed denominators, down to the bytes of their JSON and rendered forms."""

import json
import random
from fractions import Fraction
from math import gcd, lcm

from doldzeta import Poly, PowerSeries, RationalFunction

from fraction_reference import ReferenceSeries, ReferenceUniPoly

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 12)


def random_rational(rng, zero_share=0.25):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-15, 15), rng.choice(DENOMINATORS))


def random_unit(rng):
    """A nonzero constant term: an int or a Fraction."""
    return Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 5)), rng.choice(DENOMINATORS))


def random_series(rng, order=None, unit=False):
    """The same random series as a PowerSeries and as a ReferenceSeries."""
    order = rng.randint(0, 12) if order is None else order
    coeffs = [random_unit(rng) if unit else random_rational(rng)]
    coeffs += [random_rational(rng) for _ in range(order)]
    return PowerSeries(coeffs, order=order), ReferenceSeries(coeffs, order)


def random_poly(rng, degree=None):
    """The same random polynomial as a Poly and as a ReferenceUniPoly."""
    degree = rng.randint(-1, 6) if degree is None else degree
    coeffs = [random_rational(rng) for _ in range(degree + 1)]
    return Poly(coeffs), ReferenceUniPoly(coeffs)


def random_scalar(rng):
    value = random_unit(rng)
    return value.numerator if value.denominator == 1 and rng.random() < 0.5 else value


def assert_lowest_terms(den, nums):
    """A positive denominator over int numerators, sharing no factor with
    them; the least denominator (1 when integral or zero)."""
    assert type(den) is int and den >= 1
    assert all(type(x) is int for x in nums)
    assert gcd(den, *nums) == 1
    assert den == lcm(1, *(Fraction(x, den).denominator for x in nums))


def assert_same_series(series, ref):
    assert series.order == ref.order
    assert series.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in series.coeffs)
    assert json.dumps(series.to_json()) == json.dumps(ref.to_json())
    assert_lowest_terms(series.den, series.nums)
    assert len(series.nums) == series.order + 1


def assert_same_poly(poly, ref):
    assert poly.coeffs == ref.coeffs
    assert poly.degree == len(ref.coeffs) - 1
    assert poly.render() == ref.render()
    assert json.dumps(poly.to_json()) == json.dumps(ref.to_json())
    assert_lowest_terms(poly.den, poly.nums)
    assert not poly.nums or poly.nums[-1] != 0


class TestSeriesAgainstTheFractionReference:
    def test_arithmetic(self):
        rng = random.Random(20261019)
        for _ in range(300):
            (a, ra), (b, rb) = random_series(rng), random_series(rng)
            c = random_scalar(rng)
            assert_same_series(a, ra)
            assert_same_series(a * b, ra * rb)
            assert_same_series(b * a, ra * rb)
            assert_same_series(a + b, ra + rb)
            assert_same_series(a - b, ra - rb)
            assert_same_series(a * c, ra * c)
            assert_same_series(c * a, ra * c)
            assert_same_series(a * 0, ra * 0)
            assert_same_series(a - a, ra - ra)

    def test_inverse_and_powers_of_either_sign(self):
        rng = random.Random(20261020)
        for _ in range(200):
            a, ra = random_series(rng, rng.randint(0, 10), unit=True)
            assert_same_series(a.inverse(), ra.inverse())
            e = rng.randint(-4, 4)
            assert_same_series(a ** e, ra ** e)

    def test_powers_of_a_series_without_a_unit(self):
        rng = random.Random(20261021)
        for _ in range(100):
            a, ra = random_series(rng, rng.randint(0, 10))
            e = rng.randint(0, 4)
            assert_same_series(a ** e, ra ** e)

    def test_substitution_and_truncation(self):
        rng = random.Random(20261022)
        for _ in range(200):
            a, ra = random_series(rng)
            m = rng.randint(1, 5)
            assert_same_series(a.substitute_power(m), ra.substitute_power(m))
            order = rng.randint(0, a.order)
            assert_same_series(a.truncated(order), ra.truncated(order))

    def test_a_denominator_cut_off_with_its_coefficient_is_dropped(self):
        s = PowerSeries([1, 2, Fraction(1, 6)], order=2)
        assert (s.den, s.nums) == (6, (6, 12, 1))
        assert (s.truncated(1).den, s.truncated(1).nums) == (1, (1, 2))
        assert (s.substitute_power(2).den, s.substitute_power(2).nums) == (1, (1, 0, 2))

    def test_equality_on_series_of_different_orders(self):
        rng = random.Random(20261023)
        for _ in range(300):
            (a, ra), (b, rb) = random_series(rng), random_series(rng)
            assert (a == b) == (ra == rb)
            # a prefix of a, scaled up and back down, possibly changed at one index
            order = rng.randint(0, a.order)
            prefix = list(ra.coeffs[: order + 1])
            if rng.random() < 0.5:
                prefix[rng.randint(0, order)] += random_unit(rng)
            scale = random_unit(rng)
            c, rc = PowerSeries(prefix, order) * scale * (1 / scale), ReferenceSeries(prefix, order)
            assert (a == c) == (ra == rc) == (c == a)
            assert a == a.truncated(order)


class TestPolyAgainstTheFractionReference:
    def test_arithmetic(self):
        rng = random.Random(20261024)
        for _ in range(300):
            (a, ra), (b, rb) = random_poly(rng), random_poly(rng)
            c = random_scalar(rng)
            assert_same_poly(a, ra)
            assert_same_poly(a + b, ra + rb)
            assert_same_poly(a - b, ra - rb)
            assert_same_poly(-a, -ra)
            assert_same_poly(a * b, ra * rb)
            assert_same_poly(a * c, ra * c)
            assert_same_poly(c * a, ra * c)
            assert_same_poly(a + c, ra + ReferenceUniPoly([c]))
            assert_same_poly(a ** (e := rng.randint(0, 3)), ra ** e)

    def test_division_gcd_and_evaluation(self):
        rng = random.Random(20261025)
        for _ in range(300):
            (a, ra), (b, rb) = random_poly(rng), random_poly(rng, rng.randint(0, 3))
            if rb.coeffs:
                (q, r), (rq, rr) = divmod(a, b), divmod(ra, rb)
                assert_same_poly(q, rq)
                assert_same_poly(r, rr)
                assert_same_poly(a % b, rr)
            # a common factor makes the gcd nontrivial
            (g, rg) = random_poly(rng, rng.randint(0, 2))
            assert_same_poly(Poly.gcd(a * g, b * g), ReferenceUniPoly.gcd(ra * rg, rb * rg))
            point = random_rational(rng, 0.1) if rng.random() < 0.5 else rng.randint(-4, 4)
            value = a(point)
            assert type(value) is Fraction and value == ra(point)

    def test_gcd_division_and_rational_functions_with_common_factors(self):
        # the common factor is a product of up to three factors, each with its
        # own denominators, so that Euclid's remainders are not primitive
        rng = random.Random(20261027)
        for _ in range(200):
            (a, ra), (b, rb) = random_poly(rng, rng.randint(0, 4)), random_poly(rng, rng.randint(0, 4))
            g, rg = Poly.one(), ReferenceUniPoly([1])
            for _ in range(rng.randint(1, 3)):
                factor = [random_rational(rng, 0.2) for _ in range(rng.randint(1, 2))] + [random_unit(rng)]
                g, rg = g * Poly(factor), rg * ReferenceUniPoly(factor)
            num, den, rnum, rden = a * g, b * g, ra * rg, rb * rg
            common = Poly.gcd(num, den)
            assert_same_poly(common, ReferenceUniPoly.gcd(rnum, rden))
            assert_same_poly(Poly.gcd(den, num), ReferenceUniPoly.gcd(rden, rnum))
            if not common.is_zero:
                assert common.nums[-1] == common.den
                for product, ref in ((num, rnum), (den, rden)):
                    (q, r), (rq, rr) = divmod(product, common), divmod(ref, ReferenceUniPoly(common.coeffs))
                    assert r.is_zero and not rr.coeffs
                    assert_same_poly(q, rq)
            if not g.is_zero:
                quotient, rest = divmod(num, g)
                assert quotient == a and rest.is_zero
            if rden.coefficient(0) != 0:
                rf = RationalFunction(num, den)
                expected = reference_rational_function(rnum, rden)
                assert json.dumps(rf.to_json()) == json.dumps(expected)

    def test_equality_and_hash(self):
        rng = random.Random(20261026)
        for _ in range(300):
            (a, ra), (b, rb) = random_poly(rng, rng.randint(-1, 2)), random_poly(rng, rng.randint(-1, 2))
            assert (a == b) == (ra == rb)
            c = random_scalar(rng)
            # the same polynomial reached along other routes
            for same in ((a * c) * (1 / Fraction(c)), (a + b) - b, Poly(ra.coeffs), -(-a)):
                assert same == a and hash(same) == hash(a)
            if a == b:
                assert hash(a) == hash(b)


def reference_rational_function(num, den):
    """The JSON of num/den in the canonical form `RationalFunction` stores,
    reached in Fraction arithmetic: both divided by their gcd, then by the
    denominator's constant term."""
    g = ReferenceUniPoly.gcd(num, den)
    if g.coeffs and len(g.coeffs) > 1:
        (num, _), (den, _) = divmod(num, g), divmod(den, g)
    scale = Fraction(1) / den.coefficient(0)
    return {"numerator": (num * scale).to_json(), "denominator": (den * scale).to_json()}
