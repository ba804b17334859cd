"""Exact series arithmetic: frozen examples and algebraic invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doldzeta import (
    BivariateSeries,
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
    series_exp_neg_weighted,
)
from doldzeta.dynamics import divisors

from conftest import at_one, expand


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


class TestExpForm:
    def test_exp_of_zero(self):
        assert coeffs(series_exp_neg_weighted([0, 0, 0])) == [1, 0, 0, 0]

    def test_all_ones_gives_one_minus_q(self):
        # exp(-sum q^k/k) = exp(log(1-q)) = 1 - q exactly
        assert coeffs(series_exp_neg_weighted([1, 1, 1])) == [1, -1, 0, 0]

    def test_degree_two_sphere_data(self):
        # L_k = 1 - 2^k packs into (1-q)(1-2q)^{-1} = 1 + q + 2q^2 + ...
        got = series_exp_neg_weighted([1 - 2 ** k for k in (1, 2)])
        expected = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 2)
        assert got.coeffs == expected.coeffs
        assert coeffs(got) == [1, 1, 2]


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
        assert series_exp_neg_weighted(lefschetz, order) == exponent_product(exps, order)


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
        got = series_exp_neg_weighted([1 - 3 ** k for k in (1, 2)])
        assert got.coeffs == expand(rf, 2).coeffs

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
        product = expand(rf, order) * Poly(den).series(order)
        assert product.coeffs == Poly(num).series(order).coeffs


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

    def test_weighted_degree(self):
        t1 = MultiPoly.variable(1, 3)
        t3 = MultiPoly.variable(3, 3)
        assert (t1 ** 2 * t3).weighted_degree() == 5

    def test_substitute(self):
        p = MultiPoly.variable(1, 1) ** 2
        image = MultiPoly.variable(1, 2) + 2 * MultiPoly.variable(2, 2)
        assert p.substitute([image]).evaluate([1, 1]) == 9

    def test_json_round_trip(self):
        t1 = MultiPoly.variable(1, 2)
        p = t1 ** 2 / 2 - t1 / 2 + MultiPoly.variable(2, 2)
        assert MultiPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"terms": []}, "a polynomial has no 'variables' key"),
            ({"variables": 1}, "a polynomial has no 'terms' key"),
            ({"variables": 1, "terms": [{"exponents": [1]}]}, "a term has no 'coeff' key"),
        ],
    )
    def test_from_json_names_a_missing_key(self, obj, message):
        with pytest.raises(ValueError, match=message):
            MultiPoly.from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"variables": 1.5, "terms": []},
             "a polynomial's 'variables' must be an integer, got 1.5"),
            ({"variables": 1, "terms": [{"exponents": [1.5], "coeff": "1"}]},
             "an entry of a term's 'exponents' must be an integer, got 1.5"),
            ({"variables": 1, "terms": [{"exponents": 1, "coeff": "1"}]},
             "a term's 'exponents' must be a list, got int"),
        ],
    )
    def test_from_json_refuses_non_integers_not_truncates(self, obj, message):
        with pytest.raises(ValueError) as excinfo:
            MultiPoly.from_json(obj)
        assert str(excinfo.value) == message


def reference_bivariate_product(a, b):
    """Naive double loop over q-indices, one Poly sum per term."""
    order = min(a.order, b.order)
    out = [Poly.zero()] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return out


def reference_bivariate_inverse(s):
    """The recurrence c_n = -c_0^{-1} sum_{i>=1} s_i c_{n-i}, one Poly per step."""
    inv0 = Fraction(1) / s.coeffs[0].coefficient(0)
    out = [Poly.constant(inv0)]
    for n in range(1, s.order + 1):
        acc = Poly.zero()
        for i in range(1, n + 1):
            acc = acc + s.coeffs[i] * out[n - i]
        out.append(acc * (-inv0))
    return out


def random_bivariate(rng, order, unit=False, density=0.6):
    coeffs = []
    for n in range(order + 1):
        if n == 0 and unit:
            coeffs.append(Poly.constant(Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3))))
        elif rng.random() < density:
            degree = rng.randint(0, 4)
            coeffs.append(Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                for _ in range(degree + 1)]))
        else:
            coeffs.append(Poly.zero())
    return BivariateSeries(coeffs, order=order)


class TestBivariate:
    def test_inverse_and_t_one(self):
        # 1 - qT inverted: coefficients T^k at q^k
        s = BivariateSeries([Poly([1]), Poly([0, -1])], order=3)
        inv = s.inverse()
        assert inv.coeffs[2] == Poly([0, 0, 1])
        assert coeffs(at_one(inv)) == [1, 1, 1, 1]

    def test_product_against_reference(self):
        rng = random.Random(21)
        for order in [rng.randint(0, 16) for _ in range(30)] + [48, 64]:
            a = random_bivariate(rng, order, density=rng.random())
            b = random_bivariate(rng, rng.randint(order, order + 3), density=rng.random())
            got = a * b
            assert got.order == order
            assert got.coeffs == tuple(reference_bivariate_product(a, b))

    def test_inverse_against_reference(self):
        rng = random.Random(22)
        for order in [rng.randint(0, 12) for _ in range(30)] + [32, 64]:
            # sparse inputs at the larger orders keep the T-degrees of the
            # reference's coefficients small enough to run quickly
            s = random_bivariate(rng, order, unit=True, density=0.5 if order <= 12 else 0.1)
            got = s.inverse()
            assert got.coeffs == tuple(reference_bivariate_inverse(s))
            assert (got * s).coeffs == BivariateSeries.one(order).coeffs

    def test_inverse_needs_a_constant_unit(self):
        with pytest.raises(NotAUnitError):
            BivariateSeries([Poly([0, 1])], order=2).inverse()


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat_str(Fraction(6, 4)) == "3/2"
    assert rat_str(Fraction(-8, 2)) == "-4"
