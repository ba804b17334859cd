"""Exact series arithmetic: frozen examples and algebraic invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doldzeta import (
    MultiPoly,
    NotAUnitError,
    NotExpandableError,
    Poly,
    PowerSeries,
    RationalFunction,
    egf_pack,
    egf_unpack,
    exponent_product,
    rat,
    rat_str,
)
from doldzeta.dynamics import DoldProfile, divisors, lefschetz_from_dold
from doldzeta.graded import GradedEndomorphism, det_one_minus_t, poincare_generating
from doldzeta.series import _exp_form_holds

from bivariate_reference import bivariate_inverse, bivariate_product, monomial_substitution, one
from conftest import expand, poly_series
from fraction_reference import reference_inverse, reference_product


def coeffs(series):
    return [int(c) if c.denominator == 1 else c for c in series.coeffs]


class TestArithmetic:
    def test_geometric_inverse(self):
        s = PowerSeries([1, -1], order=4)
        assert coeffs(s.inverse()) == [1, 1, 1, 1, 1]

    def test_telescoping_product(self):
        a = PowerSeries([1, -1], order=3)
        b = PowerSeries([1, 1, 1, 1], order=3)
        assert coeffs(a * b) == [1, 0, 0, 0]

    def test_conjugation_zeta_expansion(self):
        # (1-q)^2 (1-q^2)^{-1} begins 1 - 2q + 2q^2 - 2q^3
        sq = PowerSeries([1, -2, 1], order=3)
        even = PowerSeries([1, 0, -1], order=3)
        assert coeffs(sq * even.inverse()) == [1, -2, 2, -2]

    def test_invert_nonunit_rejected(self):
        with pytest.raises(NotAUnitError):
            PowerSeries([0, 1], order=2).inverse()

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=9))
    @settings(max_examples=100)
    def test_inverse_round_trip_for_unit_series(self, tail):
        s = PowerSeries([1] + tail, order=len(tail))
        assert s * s.inverse() == PowerSeries.one(len(tail))

    def test_mixed_orders_truncate(self):
        a = PowerSeries([1, 1, 1, 1], order=3)
        b = PowerSeries([1, 2], order=1)
        assert (a * b).order == 1
        # equality compares the shared prefix only
        assert a == PowerSeries([1, 1], order=1)
        assert a != PowerSeries([1, 2], order=1)

    def test_json_round_trip(self):
        s = PowerSeries([Fraction(1), Fraction(-1, 2), Fraction(3)], order=2)
        assert PowerSeries.from_json(s.to_json()).coeffs == s.coeffs
        assert s.to_json()["coeffs"] == ["1", "-1/2", "3"]

    def test_from_json_refuses_missing_coefficients(self):
        with pytest.raises(ValueError, match="needs 5 coefficients, got 2"):
            PowerSeries.from_json({"order": 4, "coeffs": ["1", "-1"]})

    def test_from_json_truncates_extra_coefficients(self):
        s = PowerSeries.from_json({"order": 1, "coeffs": ["1", "-1", "5"]})
        assert s.order == 1 and coeffs(s) == [1, -1]


def reference_exp_neg_weighted(values, order):
    """exp(-sum_k a_k q^k / k) for values = [a_1, ..., a_order], by the
    exponential's recurrence over Fractions: the form that the dual-form
    checks built and compared before they checked the recurrence directly."""
    s = [Fraction(0)] + [-Fraction(values[k - 1]) / k for k in range(1, order + 1)]
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        out[n] = sum(j * s[j] * out[n - j] for j in range(1, n + 1)) / n
    return out


# constant terms that are neither 0 nor a unit of the integers, so that the
# integer inverse has to scale by powers of its numerator
CONSTANT_TERMS = (Fraction(2), Fraction(-3), Fraction(2, 3), Fraction(-5, 2), Fraction(3, 7),
                  Fraction(7, 4))
KERNEL_ORDERS = list(range(17)) + [48, 64]


def random_rational_series(rng, order, constant=None):
    """A series with mixed denominators and some zero coefficients."""
    tail = [
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7, 9, 12)))
        if rng.random() < 0.8 else Fraction(0)
        for _ in range(order)
    ]
    return PowerSeries([rng.choice(CONSTANT_TERMS) if constant is None else constant] + tail,
                       order=order)


class TestIntegerKernelsAgainstFractionLoops:
    def test_inverse(self):
        rng = random.Random(2024)
        for order in KERNEL_ORDERS:
            for _ in range(3):
                s = random_rational_series(rng, order)
                assert s.inverse().coeffs == reference_inverse(s).coeffs

    def test_inverse_of_a_unit_constant_and_of_one_term(self):
        rng = random.Random(7)
        for order in KERNEL_ORDERS:
            for constant in (Fraction(1), Fraction(-1), Fraction(1, 6)):
                s = random_rational_series(rng, order, constant)
                assert s.inverse().coeffs == reference_inverse(s).coeffs
            s = PowerSeries.monomial(0, order, Fraction(-4, 9))
            assert s.inverse().coeffs == reference_inverse(s).coeffs

    def test_product(self):
        rng = random.Random(2025)
        for order in KERNEL_ORDERS:
            for _ in range(3):
                a = random_rational_series(rng, order, rng.choice((None, Fraction(0))))
                b = random_rational_series(rng, rng.choice(KERNEL_ORDERS))
                assert (a * b).coeffs == reference_product(a, b).coeffs
                assert (b * a).coeffs == reference_product(a, b).coeffs


class TestExpForm:
    def test_exp_of_zero(self):
        assert reference_exp_neg_weighted([0, 0, 0], 3) == [1, 0, 0, 0]
        assert _exp_form_holds([1, 0, 0, 0], [0, 0, 0])

    def test_all_ones_gives_one_minus_q(self):
        # exp(-sum q^k/k) = exp(log(1-q)) = 1 - q exactly
        assert reference_exp_neg_weighted([1, 1, 1], 3) == [1, -1, 0, 0]
        assert _exp_form_holds([1, -1, 0, 0], [1, 1, 1])
        assert not _exp_form_holds([1, -1, 0, 1], [1, 1, 1])
        assert not _exp_form_holds([2, -2, 0, 0], [1, 1, 1])

    def test_degree_two_sphere_data(self):
        # L_k = 1 - 2^k packs into (1-q)(1-2q)^{-1} = 1 + q + 2q^2 + ...
        lefschetz = [1 - 2 ** k for k in (1, 2)]
        expected = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 2)
        assert reference_exp_neg_weighted(lefschetz, 2) == list(expected.coeffs)
        assert _exp_form_holds(expected.coeffs, lefschetz)
        assert coeffs(expected) == [1, 1, 2]

    def test_recurrence_accepts_exactly_what_the_exp_form_accepted(self):
        # the pairs the dual-form check in zeta_series sees: a product form
        # from orbit counts of mixed signs, maybe reduced, against Lefschetz
        # numbers; in half the trials one side is tampered with
        rng = random.Random(64)
        verdicts = set()
        for _ in range(120):
            order = rng.randint(1, 64)
            profile = [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(order)]
            shift = rng.randint(0, 1)
            exponents = {m: profile[m - 1] for m in range(1, order + 1)}
            exponents[1] -= shift
            z = [c.numerator for c in exponent_product(exponents, order).coeffs]
            lefschetz = [v - shift for v in lefschetz_from_dold(DoldProfile(profile)).values]
            if rng.random() < 0.5:
                side = z if rng.random() < 0.5 else lefschetz
                side[rng.randrange(len(side))] += rng.choice((-2, -1, 1, 2))
            accepted = _exp_form_holds(z, lefschetz)
            assert accepted == (reference_exp_neg_weighted(lefschetz, order) == z)
            verdicts.add(accepted)
        assert verdicts == {True, False}


class TestExponentProduct:
    def test_empty(self):
        assert coeffs(exponent_product({}, 3)) == [1, 0, 0, 0]

    def test_euler_characteristic_power(self):
        assert coeffs(exponent_product({1: 3}, 3)) == [1, -3, 3, -1]

    def test_sphere_profile_matches_rational_form(self):
        got = exponent_product({1: -1, 2: -1, 3: -2}, 3)
        expected = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 3)
        assert got.coeffs == expected.coeffs

    @given(
        st.dictionaries(
            st.integers(1, 5), st.integers(-3, 3), min_size=0, max_size=4
        )
    )
    @settings(max_examples=100)
    def test_exp_and_product_forms_agree(self, exps):
        # L_k = sum_{m | k} m e_m reproduces prod (1-q^m)^{e_m}
        order = 8
        lefschetz = [
            sum(m * exps.get(m, 0) for m in divisors(k)) for k in range(1, order + 1)
        ]
        product = exponent_product(exps, order).coeffs
        assert _exp_form_holds(product, lefschetz)
        assert reference_exp_neg_weighted(lefschetz, order) == list(product)


def reference_exponent_product(exponents, order):
    """The repeated-squaring kernel that the binomial expansion replaced:
    each dense factor (1 - q^m) raised to |e|, inverted for e < 0."""
    result = PowerSeries.one(order)
    for m in sorted(exponents):
        e = exponents[m]
        if e == 0 or m > order:
            continue
        base = PowerSeries.one(order) - PowerSeries.monomial(m, order)
        factor = base ** abs(e)
        if e < 0:
            factor = factor.inverse()
        result = result * factor
    return result


def random_exponent_map(rng, order):
    """Mixed-sign exponents, some zero and some above order / m."""
    exps = {}
    for m in rng.sample(range(1, order + 3), rng.randint(0, min(8, order + 2))):
        kind = rng.random()
        if kind < 0.15:
            exps[m] = 0
        elif kind < 0.4:
            exps[m] = rng.choice((1, -1)) * rng.randint(order // m + 1, order // m + 40)
        else:
            exps[m] = rng.randint(-5, 5)
    return exps


class TestExponentProductAgainstReference:
    def test_random_exponent_maps(self):
        rng = random.Random(11)
        for order in [rng.randint(1, 24) for _ in range(40)] + [40, 64, 64]:
            exps = random_exponent_map(rng, order)
            got = exponent_product(exps, order)
            assert got.order == order
            assert got.coeffs == reference_exponent_product(exps, order).coeffs

    def test_large_exponents(self):
        # D_m of a degree-5 sphere map grows like 5^m / m
        exps = {m: -(5 ** m) // m for m in (1, 2, 3)} | {4: 5 ** 20, 7: -(3 ** 30)}
        assert exponent_product(exps, 24).coeffs == reference_exponent_product(exps, 24).coeffs

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 1.5, "2"])
    def test_non_integer_exponent_rejected(self, bad):
        with pytest.raises(ValueError):
            exponent_product({1: bad}, 4)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            exponent_product({0: 0, 1: 1}, 4)


class TestSubstitution:
    def test_identity_substitution(self):
        s = PowerSeries([1, 2, 3], order=2)
        assert s.substitute_power(1).coeffs == s.coeffs

    def test_one_minus_q_squared(self):
        assert coeffs(PowerSeries([1, -1], order=3).substitute_power(2)) == [1, 0, -1, 0]

    def test_circle_example_chain(self):
        # Z(q^2) Z(q)^{-1} for Z = (1-q)(1-2q)^{-1}: 1, -1, 0, -2, 0, -4
        zeta = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 5)
        chain = zeta.substitute_power(2) * zeta.inverse()
        assert coeffs(chain) == [1, -1, 0, -2, 0, -4]

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=7),
        st.lists(st.integers(-4, 4), min_size=1, max_size=7),
        st.integers(1, 3),
    )
    def test_substitution_is_multiplicative(self, a, b, m):
        sa = PowerSeries(a, order=6)
        sb = PowerSeries(b, order=6)
        left = (sa * sb).substitute_power(m)
        right = sa.substitute_power(m) * sb.substitute_power(m)
        assert left.coeffs == right.coeffs


class TestRationalFunction:
    def test_geometric(self):
        rf = RationalFunction(Poly([1]), Poly([1, -1]))
        assert coeffs(expand(rf, 3)) == [1, 1, 1, 1]

    def test_long_division_oracle(self):
        # long division of (1-q) by (1-2q): 1, 1, 2, 4
        rf = RationalFunction(Poly([1, -1]), Poly([1, -2]))
        assert coeffs(expand(rf, 3)) == [1, 1, 2, 4]

    def test_degree_three_map(self):
        # (1-q)(1-3q)^{-1}: coefficient k >= 1 is 3^k - 3^{k-1}
        rf = RationalFunction(Poly([1, -1]), Poly([1, -3]))
        assert coeffs(expand(rf, 2)) == [1, 2, 6]
        assert _exp_form_holds(expand(rf, 2).coeffs, [1 - 3 ** k for k in (1, 2)])

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(NotExpandableError):
            RationalFunction(Poly([1]), Poly([0, 1]))

    def test_canonical_form(self):
        # (2 - 2q^2) / (2 - 2q) reduces to (1 + q) / 1
        rf = RationalFunction(Poly([2, 0, -2]), Poly([2, -2]))
        assert rf.numerator == Poly([1, 1])
        assert rf.denominator == Poly([1])

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    )
    def test_expansion_times_denominator(self, num, den_tail):
        den = [1] + den_tail
        rf = RationalFunction(Poly(num), Poly(den))
        order = 7
        product = expand(rf, order) * poly_series(Poly(den), order)
        assert product.coeffs == poly_series(Poly(num), order).coeffs


class TestEgf:
    def test_pack(self):
        s = egf_pack([1, 1, 1])
        assert s.coeffs == (Fraction(1), Fraction(1), Fraction(1, 2))

    def test_unpack_square(self):
        square = PowerSeries([1, 2, 1, 0], order=3)
        assert egf_unpack(square) == [1, 2, 2, 0]

    def test_injective_pairs_from_two_fixed_points(self):
        # (1 + q)^2 as an EGF: 1, 2, 2 counts tuples without repetition
        packed = egf_pack([1, 1], order=2) ** 2
        assert egf_unpack(packed) == [1, 2, 2]

    def test_pack_unpack_round_trip(self):
        values = [3, -1, 7, 0, 2]
        assert egf_unpack(egf_pack(values)) == values

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=6),
        st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    )
    def test_binomial_convolution(self, a, b):
        from math import comb

        order = 5
        a = a + [0] * (order + 1 - len(a))
        b = b + [0] * (order + 1 - len(b))
        packed = egf_pack(a, order) * egf_pack(b, order)
        unpacked = egf_unpack(packed)
        for k in range(order + 1):
            assert unpacked[k] == sum(comb(k, i) * a[i] * b[k - i] for i in range(k + 1))


def random_multipoly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 7, 12)))
    return MultiPoly(nvars, terms)


def fraction_evaluate(poly, point):
    """The reference: each term evaluated and summed in Fraction arithmetic."""
    point = [rat(v) for v in point]
    total = Fraction(0)
    for exps, c in poly.terms.items():
        v = c
        for i, e in enumerate(exps):
            if e:
                v *= point[i] ** e
        total += v
    return total


class TestMultiPoly:
    def test_square_evaluation(self):
        p = MultiPoly.variable(1, 1) ** 2
        assert p.evaluate([3]) == 9

    def test_multiset_count_polynomial(self):
        t1 = MultiPoly.variable(1, 2)
        t2 = MultiPoly.variable(2, 2)
        p = (t1 ** 2 + t1 + 2 * t2) / 2
        assert p.evaluate([2, 0]) == 3

    def test_falling_factorial_vanishes(self):
        t = MultiPoly.variable(1, 1)
        p = t * (t - MultiPoly.constant(1, 1))
        assert p.evaluate([1]) == 0

    @pytest.mark.parametrize("exps", [(1,), (1, 2, 3), (1, -1)])
    def test_constructor_refuses_a_bad_exponent_vector(self, exps):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(2, {exps: 1})

    def test_cancelling_arithmetic_keeps_no_zero_entry(self):
        t1 = MultiPoly.variable(1, 2)
        t2 = MultiPoly.variable(2, 2)
        p = t1 + t2
        q = t1 - t2
        zeros = [
            p + (-p),
            p - p,
            p * q - (t1 ** 2 - t2 ** 2),
            p * 0,
            (p - t2).extend(3) - t1.extend(3),
            (p - t1).substitute([t1, t1]) - t1,
        ]
        assert all(r.terms == {} for r in zeros)
        # the t1 terms cancel inside one product
        product = (t1 + 1) * (t1 - 1)
        assert product.terms == {(2, 0): 1, (0, 0): -1}

    def test_weighted_degree(self):
        t1 = MultiPoly.variable(1, 3)
        t3 = MultiPoly.variable(3, 3)
        assert (t1 ** 2 * t3).weighted_degree() == 5

    def test_substitute(self):
        p = MultiPoly.variable(1, 1) ** 2
        image = MultiPoly.variable(1, 2) + 2 * MultiPoly.variable(2, 2)
        assert p.substitute([image]).evaluate([1, 1]) == 9

    def test_evaluate_matches_per_term_fractions(self):
        """The integer-numerator evaluation against the per-term Fraction
        evaluation it replaced, at integer, rational and over-long points
        and in zero variables."""
        rng = random.Random(20261018)
        for case in range(200):
            nvars = 0 if case % 10 == 0 else rng.randint(1, 4)
            p = random_multipoly(rng, nvars)
            points = [
                [rng.randint(-6, 6) for _ in range(nvars)],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)],
                [str(Fraction(rng.randint(-12, 12), 3)) for _ in range(nvars)],
                [rng.randint(-6, 6) for _ in range(nvars + rng.randint(1, 3))],
            ]
            for point in points:
                value = p.evaluate(point)
                assert isinstance(value, Fraction)
                assert value == fraction_evaluate(p, point)

    def test_evaluate_needs_every_coordinate(self):
        with pytest.raises(ValueError, match="need 2 coordinates"):
            MultiPoly.variable(2, 2).evaluate([1])

    def test_json_round_trip(self):
        t1 = MultiPoly.variable(1, 2)
        p = t1 ** 2 / 2 - t1 / 2 + MultiPoly.variable(2, 2)
        assert p.to_json() == {
            "variables": 2,
            "terms": [
                {"exponents": [0, 1], "coeff": "1"},
                {"exponents": [2, 0], "coeff": "1/2"},
                {"exponents": [1, 0], "coeff": "-1/2"},
            ],
        }


def random_graded_blocks(rng, degrees, total_dim=3):
    """A graded endomorphism with exact rational blocks in some of `degrees`."""
    chosen = sorted(rng.sample(degrees, rng.randint(1, min(len(degrees), total_dim))))
    matrices = {}
    remaining = total_dim
    for i, degree in enumerate(chosen):
        dim = rng.randint(1, remaining - (len(chosen) - i - 1))
        remaining -= dim
        matrices[degree] = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                             for _ in range(dim)] for _ in range(dim)]
    return GradedEndomorphism(matrices)


def substituted_factors(endo, order):
    """det(1 - x A_j) with x -> q T^j, one bivariate series per degree j."""
    return [monomial_substitution(det_one_minus_t(endo.matrix(d)), d, order)
            for d in endo.degrees()]


class TestBivariate:
    """The multiplying (odd degree) and dividing (even degree) row folds of
    `poincare_generating`, each against the naive bivariate product and
    inverse of the reference construction."""

    def test_product_against_reference(self):
        rng = random.Random(21)
        for order in [rng.randint(0, 16) for _ in range(30)] + [48, 64]:
            endo = random_graded_blocks(rng, [1, 3, 5])
            want = one(order)
            for factor in substituted_factors(endo, order):
                want = bivariate_product(want, factor)
            assert poincare_generating(endo, order) == want

    def test_inverse_against_reference(self):
        rng = random.Random(22)
        for order in [rng.randint(0, 12) for _ in range(30)] + [32, 48]:
            endo = random_graded_blocks(rng, [0, 2, 4])
            denominator = one(order)
            for factor in substituted_factors(endo, order):
                denominator = bivariate_product(denominator, factor)
            got = poincare_generating(endo, order)
            assert got == bivariate_inverse(denominator)
            assert bivariate_product(got, denominator) == one(order)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat_str(Fraction(6, 4)) == "3/2"
    assert rat_str(Fraction(-8, 2)) == "-4"
