"""Closed forms versus oracles, and the polynomial calculus."""

import random
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import factorial

import pytest

from doldzeta import (
    BoundedSymmetricPower,
    Compose,
    ConstantSphereSmash,
    DoldProfile,
    FiniteSelfMap,
    IdentityFunctor,
    LefschetzPolynomial,
    MultiPoly,
    PartitionFamily,
    PermutationGroup,
    Poly,
    PowerSeries,
    SetPartition,
    Smash,
    Wedge,
    bounded_power_polynomial,
    coefficient_identities_check,
    coefficient_traces,
    compare_series_with_counts,
    compose_lefschetz,
    configuration_trace_series,
    cycle_profile,
    dold_polynomial_of_functor,
    expression_polynomial,
    fixed_bounded_multisets,
    fixed_partition_orbits,
    general_lefschetz_polynomial,
    gsymm_polynomial,
    induced_bounded_multiset_map,
    integer_lattice_check,
    order_polynomial,
    realize_polynomial,
    rhs_borsuk_ulam,
    rhs_bounded_tuples,
    rhs_symmetric_power,
    symmetric_power_polys,
    verify_identity,
    zeta_of_map,
)
from doldzeta import identities
from doldzeta.identities import _integer_valued
from doldzeta.oracles import EnumerationLimitError
from doldzeta.series import RationalFunction, egf_unpack

from conftest import (
    cyclic_group,
    direct_product,
    disjoint_union_combine,
    expand,
    family_from_predicate,
    pointed,
    seeded_maps,
    trivial_group,
)
from family_recursion import minimal_excluded_step, recursive_lefschetz_polynomial


def ints(series):
    return [int(c) for c in series.coeffs]


def t(i, n):
    return MultiPoly.variable(i, n)


SPHERE_ZETA = RationalFunction(Poly([1, -1]), Poly([1, -2]))


class TestSymmetricPowerSeries:
    def test_point(self):
        zeta = PowerSeries([1, -1], order=5)
        assert ints(rhs_symmetric_power(zeta, None)) == [1] * 6

    def test_circle_degree_two(self):
        series = rhs_symmetric_power(expand(SPHERE_ZETA, 5), 1)
        assert ints(series) == [1, -1, 0, -2, 0, -4]

    def test_two_cycle_bound_one(self):
        zeta = PowerSeries([1, 0, -1], order=4)
        assert ints(rhs_symmetric_power(zeta, 1)) == [1, 0, 1, 0, 0]

    def test_bound_zero_collapses(self):
        zeta = PowerSeries([1, -2, 1, 0, 0], order=4)
        assert ints(rhs_symmetric_power(zeta, 0)) == [1, 0, 0, 0, 0]


class TestSymmetricPowerPolynomials:
    @pytest.mark.parametrize("bound", [None, 1, 2, 3])
    def test_matches_oracle_and_series(self, bound):
        polys = [bounded_power_polynomial(k, bound) for k in range(6)]
        for f in seeded_maps(61, 25, 6):
            for k, lp in enumerate(polys):
                series = rhs_symmetric_power(zeta_of_map(f, k), bound)
                count = lp.evaluate_map(f)
                assert count == fixed_bounded_multisets(f, k, bound)[k] == series[k]

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_negative_bound_refused(self, k):
        builds = (
            lambda: symmetric_power_polys(-1, k),
            lambda: bounded_power_polynomial(k, -1),
            lambda: expression_polynomial(BoundedSymmetricPower(k, -1)),
            lambda: bounded_power_polynomial(k, -3),
        )
        for build in builds:
            with pytest.raises(ValueError, match=r"^multiplicity bound must be >= 0$"):
                build()


class TestBorsukUlamSeries:
    def test_point(self):
        zeta = PowerSeries([1, -1], order=4)
        assert ints(rhs_borsuk_ulam(zeta)) == [0, 1, 1, 1, 1]

    def test_odd_sphere_pairs(self):
        series = rhs_borsuk_ulam(expand(SPHERE_ZETA, 8))
        for power in (1, 2, 3, 4):
            expected = 1 - 2 ** power
            assert series[2 * power - 1] == expected
            assert series[2 * power] == expected

    def test_euler_characteristic_sums(self):
        from math import comb

        series = rhs_borsuk_ulam(PowerSeries([1, -3, 3, -1], order=6))
        assert series[2] == comb(3, 1) + comb(3, 2)
        for k in range(1, 7):
            assert series[k] == sum(comb(3, j) for j in range(1, k + 1))


class TestBoundedTupleSeries:
    def test_unbounded_is_exponential(self):
        series = rhs_bounded_tuples(3, 6, 6)
        assert egf_unpack(series) == [3 ** k for k in range(7)]

    def test_injective_pairs(self):
        series = rhs_bounded_tuples(2, 1, 3)
        assert egf_unpack(series) == [1, 2, 2, 0]

    def test_negative_base_is_formal(self):
        series = rhs_bounded_tuples(-1, 2, 4)
        assert series.coeffs[0] == 1  # well-defined formal inverse power

    @pytest.mark.parametrize("value", [Fraction(5, 2), 2.9, True])
    def test_a_non_integral_lefschetz_number_is_refused(self, value):
        with pytest.raises(ValueError, match="the Lefschetz number must be an integer"):
            rhs_bounded_tuples(value, 1, 3)

    def test_an_integral_fraction_is_read_as_its_integer(self):
        assert rhs_bounded_tuples(Fraction(4, 2), 1, 3).coeffs == rhs_bounded_tuples(2, 1, 3).coeffs


class TestGroupAverage:
    def test_trivial_group_is_a_power(self):
        group = trivial_group(3)
        lp = gsymm_polynomial(group)
        assert lp.poly == t(1, 3) ** 3

    def test_symmetric_square(self):
        lp = gsymm_polynomial(PermutationGroup.symmetric(2))
        expected = (t(1, 2) ** 2 + t(1, 2) + 2 * t(2, 2)) / 2
        assert lp.poly == expected

    def test_symmetric_square_agrees_with_symbolic_product(self):
        # [q^2] of prod_m (1 - q^m)^{-t_m}, the other route to multisets
        symbolic = symmetric_power_polys(None, 2)[2]
        assert gsymm_polynomial(PermutationGroup.symmetric(2)).poly == symbolic

    def test_signed_coefficient_traces(self):
        group = PermutationGroup.symmetric(2)
        traces = coefficient_traces(group, -1)
        lp = gsymm_polynomial(group, coeff_traces=traces)
        expected = (t(1, 2) ** 2 - t(1, 2) - 2 * t(2, 2)) / 2
        assert lp.poly == expected

    def test_multiplicative_over_product_groups(self):
        rng = random.Random(21)
        s2 = PermutationGroup.symmetric(2)
        c3 = cyclic_group(3)
        product = direct_product(s2, c3)
        left = gsymm_polynomial(product).poly
        right = gsymm_polynomial(s2).poly.extend(5) * gsymm_polynomial(c3).poly.extend(5)
        assert left == right
        for _ in range(20):
            point = [rng.randint(-3, 3) for _ in range(5)]
            assert left.evaluate(point) == right.evaluate(point)

    def test_matches_orbit_count_oracle(self):
        from doldzeta import fixed_gmap_space

        for f in seeded_maps(140, 30, 5, min_size=1):
            for k in (2, 3):
                group = PermutationGroup.symmetric(k)
                lp = gsymm_polynomial(group)
                assert lp.evaluate_map(f) == fixed_gmap_space(f, group)


class TestPartitionRecursion:
    def test_full_family_reduces_to_group_average(self):
        group = PermutationGroup.symmetric(3)
        lp = general_lefschetz_polynomial(group, PartitionFamily.full(3))
        assert lp == gsymm_polynomial(group)

    def test_two_element_subsets(self):
        group = PermutationGroup.symmetric(2)
        lp = general_lefschetz_polynomial(group, PartitionFamily.max_block(2, 1))
        expected = (t(1, 2) ** 2 - t(1, 2) + 2 * t(2, 2)) / 2
        assert lp.poly == expected
        # two fixed points support exactly one invariant 2-element subset
        assert lp.evaluate([2, 0]) == 1

    def test_injective_pairs_trivial_group(self):
        lp = general_lefschetz_polynomial(trivial_group(2), PartitionFamily.max_block(2, 1))
        assert lp.poly == t(1, 2) ** 2 - t(1, 2)

    def test_agrees_with_symbolic_product_for_max_block(self):
        # the bounded symmetric power two ways: the orbit sum over the
        # excluded partitions, and the recurrence of the Lefschetz form
        for k in range(2, 7):
            group = PermutationGroup.symmetric(k)
            for bound in range(1, k + 1):
                lp = general_lefschetz_polynomial(group, PartitionFamily.max_block(k, bound))
                assert lp == bounded_power_polynomial(k, bound)

    def test_choice_independence(self):
        # the reference recursion gives the orbit sum whichever minimal
        # partition it peels first
        group = PermutationGroup.symmetric(4)
        family = PartitionFamily.max_block(4, 2)
        reference = general_lefschetz_polynomial(group, family)
        for seed in range(10):
            rng = random.Random(seed)
            shuffled = recursive_lefschetz_polynomial(group, family, rng=rng)
            assert shuffled == reference

    def test_additivity_at_a_recursion_node(self):
        group = PermutationGroup.symmetric(3)
        family = PartitionFamily.max_block(3, 1)
        step = minimal_excluded_step(family, group)
        whole = general_lefschetz_polynomial(group, step.extended_family)
        part = general_lefschetz_polynomial(group, family)
        stabilizer = PermutationGroup(group.degree, step.stabilizer)
        correction = general_lefschetz_polynomial(
            stabilizer,
            PartitionFamily.max_block(step.block_ground, 1),
            gset=step.block_action,
        )
        assert whole.poly == part.poly + correction.poly.extend(3)

    def test_oracle_equivalence_with_coefficients(self):
        group = PermutationGroup.symmetric(2)
        family = PartitionFamily.max_block(2, 1)
        traces = coefficient_traces(group, 2)
        lp = general_lefschetz_polynomial(group, family, traces)
        for f in seeded_maps(77, 20, 4, min_size=1):
            oracle = fixed_partition_orbits(f, group, family, 2)
            assert lp.evaluate_map(f) == oracle

    def test_refinement_family_with_young_subgroup(self):
        target = SetPartition([[0, 1], [2, 3]])
        family = PartitionFamily.refining(target)
        group = PermutationGroup.from_generators(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
        lp = general_lefschetz_polynomial(group, family)
        for f in seeded_maps(88, 15, 4, min_size=1):
            assert lp.evaluate_map(f) == fixed_partition_orbits(f, group, family)


class TestOrderPolynomial:
    def test_full_lattice_on_two_points(self):
        poly = order_polynomial(PartitionFamily.full(2))
        assert poly == Poly([0, 0, 1])  # t + t(t-1) = t^2

    def test_injective_triples(self):
        poly = order_polynomial(PartitionFamily.max_block(3, 1))
        assert poly == Poly([0, 2, -3, 1])  # t(t-1)(t-2)
        assert poly(3) == 6

    def test_stirling_example_values(self):
        for j in (1, 2, 3):
            target = SetPartition([list(range(j)), list(range(j, 2 * j))])
            poly = order_polynomial(PartitionFamily.refining(target))
            assert poly(1) == 0
            assert poly(2) == 2
            if j >= 2:
                assert poly(3) == 6 * (2 ** j - 1)

    def test_block_count_convolution(self):
        # a product family on a disjoint union convolves the block counts
        left = PartitionFamily.full(2)
        right = PartitionFamily.max_block(2, 1)
        combined = disjoint_union_combine([left.block_counts(), right.block_counts()])

        def in_product(p):
            # blocks stay inside {0,1} or {2,3}, and the {2,3} side is discrete
            blocks = [set(b) for b in p.blocks]
            split = all(b <= {0, 1} or b <= {2, 3} for b in blocks)
            right_discrete = all(len(b) == 1 for b in blocks if b <= {2, 3})
            return split and right_discrete

        product_family = family_from_predicate(4, in_product)
        assert combined == order_polynomial(product_family)

    def test_matches_general_polynomial_under_specialization(self):
        # the trivial-group fixed-point polynomial only sees t_1
        for k in (2, 3):
            for family in (
                PartitionFamily.full(k),
                PartitionFamily.max_block(k, 1),
            ):
                lp = general_lefschetz_polynomial(trivial_group(k), family)
                ell = order_polynomial(family)
                for value in range(-4, 5):
                    point = [value] + [0] * (k - 1)
                    assert lp.evaluate(point) == ell(value)


class TestIterateAndComposition:
    def test_identity_functor_orbit_counts(self):
        ident = LefschetzPolynomial(t(1, 1), 1)
        assert dold_polynomial_of_functor(ident, 1) == t(1, 1).extend(1)
        assert dold_polynomial_of_functor(ident, 2) == t(2, 2)

    def test_smash_square_second_orbit_count(self):
        square = LefschetzPolynomial(t(1, 1) ** 2, 2)
        d2 = dold_polynomial_of_functor(square, 2)
        # a single 2-cycle smash-squared has two orbits of length 2
        assert d2.evaluate([0, 1, 0, 0]) == 2

    def test_orbit_counts_match_induced_map(self):
        # transported polynomials versus the honest induced dynamics
        for f in seeded_maps(55, 12, 4, min_size=1):
            for power, bound in ((2, None), (2, 1), (3, 1)):
                lp = bounded_power_polynomial(power, bound)
                induced = induced_bounded_multiset_map(pointed(f), power, bound)
                induced_profile = cycle_profile(induced, 3 * power)
                reduced = [induced_profile.count(1) - 1] + [
                    induced_profile.count(m) for m in range(2, 3 * power + 1)
                ]
                source = cycle_profile(f, 3 * lp.degree_bound)
                for m in (1, 2, 3):
                    dm = dold_polynomial_of_functor(lp, m)
                    assert dm.evaluate(list(source.values)) == reduced[m - 1]

    def test_compose_with_identity(self):
        ident = LefschetzPolynomial(t(1, 1), 1)
        square = LefschetzPolynomial(t(1, 1) ** 2, 2)
        assert compose_lefschetz(ident, square).poly == square.poly.extend(2)
        assert compose_lefschetz(square, ident).poly == square.poly.extend(2)

    def test_symmetric_square_composed_with_itself(self):
        s2 = gsymm_polynomial(PermutationGroup.symmetric(2))
        composite = compose_lefschetz(s2, s2)
        for f in seeded_maps(66, 10, 3, min_size=1):
            once = induced_bounded_multiset_map(pointed(f), 2, None)
            twice = induced_bounded_multiset_map(once, 2, None)
            brute = sum(1 for x in range(1, twice.size) if twice(x) == x)
            assert composite.evaluate_map(f) == brute

    def test_degree_bookkeeping(self):
        cubic = LefschetzPolynomial(t(1, 1) ** 3, 3)
        ident = LefschetzPolynomial(t(1, 1), 1)
        composed = compose_lefschetz(cubic, ident)
        assert composed.poly.weighted_degree() == 3

    def test_a_non_integral_constant_is_refused(self):
        half = LefschetzPolynomial(MultiPoly.constant(Fraction(1, 2), 0), 0)
        with pytest.raises(RuntimeError, match="integrality check"):
            dold_polynomial_of_functor(half, 1)

    def test_orbit_counts_of_a_constant(self):
        # c counts the fixed points of every iterate, so no orbit is longer than 1
        for c in range(-3, 4):
            lp = LefschetzPolynomial(MultiPoly.constant(c, 0), 0)
            for m in range(1, 5):
                dm = dold_polynomial_of_functor(lp, m)
                assert dm.nvars == 0
                assert dm == MultiPoly.constant(c if m == 1 else 0, 0)

    def test_constants_compose_through_the_substitution(self):
        rng = random.Random(2024)
        for _ in range(24):
            power = bounded_power_polynomial(rng.randint(1, 4), rng.choice((None, 1, 2)))
            c = rng.choice((1, -1))
            sphere = LefschetzPolynomial(MultiPoly.constant(c, 0), 0)
            after = compose_lefschetz(power, sphere)
            point = [c] + [0] * (power.degree_bound - 1)
            assert after.degree_bound == 0
            assert after.poly == MultiPoly.constant(power.evaluate(point), 0)
            before = compose_lefschetz(sphere, power)
            assert before.degree_bound == 0
            assert before.poly == sphere.poly


class TestFunctorExpressions:
    def test_identity(self):
        assert expression_polynomial(IdentityFunctor()).poly == t(1, 1)

    def test_odd_sphere_negates(self):
        expr = Smash((ConstantSphereSmash("odd"), IdentityFunctor()))
        assert expression_polynomial(expr).poly == -t(1, 1)

    def test_bounded_power_leading_term(self):
        lp = expression_polynomial(BoundedSymmetricPower(2, 1))
        assert lp.poly == t(2, 2) + (t(1, 2) ** 2 - t(1, 2)) / 2

    def test_wedge_adds(self):
        expr = Wedge((IdentityFunctor(), IdentityFunctor()))
        assert expression_polynomial(expr).poly == 2 * t(1, 1)

    def test_compose_node(self):
        expr = Compose(IdentityFunctor(), BoundedSymmetricPower(2, 1))
        assert expression_polynomial(expr) == expression_polynomial(
            BoundedSymmetricPower(2, 1)
        )


def expression_label(expr) -> str:
    """A short name for an expression made of identities, spheres, powers and
    smash products."""
    if isinstance(expr, IdentityFunctor):
        return "X"
    if isinstance(expr, ConstantSphereSmash):
        return "S+" if expr.parity == "even" else "S-"
    if isinstance(expr, BoundedSymmetricPower):
        return f"SP{expr.power}_{expr.bound}"
    if isinstance(expr, Smash):
        return "(" + "^".join(expression_label(p) for p in expr.parts) + ")"
    raise TypeError(expr)


def binomial_target(k, pieces):
    """sum of coefficient * prod C(t_var, j) over pieces (coefficient, (var, j), ...)."""
    total = MultiPoly.zero(k)
    for coefficient, *piece in pieces:
        prod = MultiPoly.constant(1, k)
        for var, j in piece:
            prod = prod * binomial(t(var, k), j)
        total = total + coefficient * prod
    return total


class TestWedgeGrouping:
    ATOMS = (
        IdentityFunctor(),
        ConstantSphereSmash("odd"),
        BoundedSymmetricPower(2, 1),
        BoundedSymmetricPower(3, 2),
        Smash((ConstantSphereSmash("odd"), BoundedSymmetricPower(2, 2))),
        Smash((IdentityFunctor(), IdentityFunctor())),
        Compose(BoundedSymmetricPower(2, 1), IdentityFunctor()),
    )

    def test_repeated_shuffled_parts_sum_part_by_part(self):
        rng = random.Random(2024)
        for _ in range(25):
            parts = [
                atom
                for atom in rng.sample(self.ATOMS, rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            ]
            rng.shuffle(parts)
            lps = [expression_polynomial(p) for p in parts]
            bound = max(lp.degree_bound for lp in lps)
            expected = MultiPoly.zero(bound)
            for lp in lps:
                expected = expected + lp.poly.extend(bound)
            got = expression_polynomial(Wedge(tuple(parts)))
            assert got.degree_bound == bound
            assert got.poly == expected

    def test_each_distinct_part_is_built_once(self, monkeypatch):
        builds = []
        build = identities.bounded_power_polynomial
        monkeypatch.setattr(
            identities, "bounded_power_polynomial",
            lambda k, bound: builds.append((k, bound)) or build(k, bound),
        )
        parts = (BoundedSymmetricPower(3, 1),) * 5 + (BoundedSymmetricPower(2, 1),) * 3
        lp = expression_polynomial(Wedge(parts))
        assert sorted(builds) == [(2, 1), (3, 1)]
        assert lp.poly == 5 * build(3, 1).poly + 3 * build(2, 1).poly.extend(3)

    @pytest.mark.parametrize(
        "k, pieces, r, parts",
        [
            (
                3,
                [(2, (1, 1), (2, 1)), (-1, (1, 2)), (1, (3, 1))],
                6,
                [("SP3_1", 6), ("(X^SP2_1)", 6), ("(S-^(X^X^X))", 4), ("(X^X)", 3),
                 ("X", 1)],
            ),
            (
                4,
                [(1, (1, 2), (2, 1)), (-2, (4, 1)), (1, (2, 2)), (-1, (1, 1), (3, 1))],
                24,
                [("(S-^SP4_1)", 48), ("(X^SP3_1)", 24), ("(SP2_1^SP2_1)", 36),
                 ("(S-^(X^X^SP2_1))", 24), ("(X^X^X^X)", 1), ("(X^X^X)", 6),
                 ("(S-^SP2_1)", 36), ("(X^X)", 23), ("(S-^X)", 30)],
            ),
        ],
    )
    def test_realizations_are_unchanged(self, k, pieces, r, parts):
        got_r, expr = realize_polynomial(binomial_target(k, pieces), k)
        assert got_r == r
        # the parts as runs of equal parts, in order
        labels = [expression_label(p) for p in expr.parts]
        assert [(label, len(list(run))) for label, run in groupby(labels)] == parts

    def test_a_part_shared_by_distinct_parts_is_built_once(self, monkeypatch):
        # SP2_1 sits in four distinct parts of the k = 4 realization above:
        # one basis build, then one build per distinct power
        calls = []
        build = identities.symmetric_power_polys
        monkeypatch.setattr(
            identities, "symmetric_power_polys",
            lambda bound, order: calls.append((bound, order)) or build(bound, order),
        )
        pieces = [(1, (1, 2), (2, 1)), (-2, (4, 1)), (1, (2, 2)), (-1, (1, 1), (3, 1))]
        realize_polynomial(binomial_target(4, pieces), 4)
        assert sorted(calls) == [(1, 2), (1, 3), (1, 4), (1, 4)]


class TestRealization:
    def test_identity_polynomial(self):
        r, expr = realize_polynomial(t(1, 1), 1)
        assert r == 1 and expr == IdentityFunctor()

    def test_negated_identity(self):
        r, expr = realize_polynomial(-t(1, 1), 1)
        assert r == 1
        assert expr == Smash((ConstantSphereSmash("odd"), IdentityFunctor()))

    def test_pure_second_variable(self):
        r, expr = realize_polynomial(t(2, 2), 2)
        assert expression_polynomial(expr).poly == r * t(2, 2)
        assert r == 2

    def test_rational_coefficients_need_scaling(self):
        p = t(1, 2) / 3 + t(2, 2) / 2
        r, expr = realize_polynomial(p, 2)
        assert expression_polynomial(expr).poly == r * p
        assert r % 6 == 0 or r == 6

    def test_random_polynomials(self):
        rng = random.Random(31)
        for _ in range(10):
            terms = {}
            for exps in [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (3, 0, 0)]:
                terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = MultiPoly(3, terms)
            r, expr = realize_polynomial(p, 3)
            assert r >= 1
            assert expression_polynomial(expr).poly == p * r


def test_negative_variable_count_refused():
    builds = (
        lambda: LefschetzPolynomial(t(1, 1), -1),
        lambda: realize_polynomial(t(1, 1), -2),
        lambda: t(2, 3).resize(-1),
    )
    for build in builds:
        with pytest.raises(ValueError, match=r"^variable count must be >= 0$"):
            build()


class TestCoefficientSpaces:
    def test_zero_euler_characteristic(self):
        report = coefficient_identities_check(DoldProfile([2, 1, 0, 0]), 0, None, 4)
        assert report["pass"]
        assert report["polynomial_side"] == [1, 0, 0, 0, 0]

    def test_euler_one_recovers_multisets(self):
        report = coefficient_identities_check(DoldProfile([1, 0, 0, 0]), 1, None, 4)
        assert report["pass"]
        assert report["polynomial_side"] == [1, 1, 1, 1, 1]

    def test_euler_minus_one_bound_one_is_zeta(self):
        report = coefficient_identities_check(DoldProfile([1, 0, 0, 0]), -1, 1, 4)
        assert report["pass"]
        assert report["polynomial_side"] == [1, -1, 0, 0, 0]
        clause_names = {c["clause"] for c in report["clauses"]}
        assert clause_names == {"multiplicity-one", "bounded-multiplicity"}

    def test_no_applicable_clause_rejected(self):
        with pytest.raises(ValueError):
            coefficient_identities_check(DoldProfile([1, 0, 0]), 2, 2, 3)

    def test_oracle_agreement_small(self):
        # smash coefficients on an honest pointed set versus the closed form
        group = PermutationGroup.symmetric(2)
        family = PartitionFamily.full(2)
        for euler in (0, 1, 2):
            traces = coefficient_traces(group, euler)
            lp = general_lefschetz_polynomial(group, family, traces)
            for f in seeded_maps(200 + euler, 12, 4, min_size=1):
                oracle = fixed_partition_orbits(f, group, family, euler)
                assert lp.evaluate_map(f) == oracle


class TestConfigurationTraces:
    def test_odd_dimension_returns_zeta(self):
        zeta = PowerSeries([1, -2, 2, -2], order=3)
        series = configuration_trace_series(zeta, "odd")
        assert series.coeffs == zeta.coeffs
        # epsilon^k decodes to the constant trace 2
        assert [series[k] * (-1) ** k for k in range(1, 4)] == [2, 2, 2]

    def test_pass_through_point(self):
        zeta = PowerSeries([1, -1, 0], order=2)
        assert configuration_trace_series(zeta, "odd").coeffs == zeta.coeffs

    def test_even_dimension(self):
        zeta = PowerSeries([1, -3, 3, -1, 0], order=4)
        series = configuration_trace_series(zeta, "even")
        expected = zeta.substitute_power(2) * zeta.inverse()
        assert series == expected
        assert series[1] == 3  # the Euler characteristic at k = 1

    def test_epsilon_must_be_a_sign(self):
        plan = {"identity": "config-trace", "graded": {"degrees": {"0": [["1"]], "1": [["-1"]]}},
                "parity": "odd", "epsilon": 2}
        with pytest.raises(ValueError, match=r"^epsilon must be \+1 or -1$"):
            verify_identity(plan)


class TestVerificationHarness:
    def test_md_plan(self):
        report = verify_identity({"identity": "md", "map": {"size": 5, "map": [1, 0, 3, 3, 2]}})
        assert report["pass"] and report["first_mismatch"] is None

    def test_main_plan(self):
        report = verify_identity(
            {"identity": "main", "l": 2, "map": {"size": 4, "map": [1, 2, 0, 3]}}
        )
        assert report["pass"]

    def test_corrupted_series_fails_at_the_right_index(self):
        f = FiniteSelfMap([1, 0, 2])
        from doldzeta import fixed_bounded_multisets

        counts = list(fixed_bounded_multisets(f, 4, None))
        good = rhs_symmetric_power(zeta_of_map(f, 4), None)
        assert compare_series_with_counts(good, counts) is None
        corrupted = good + PowerSeries.monomial(3, 4, 1)
        mismatch = compare_series_with_counts(corrupted, counts)
        assert mismatch is not None and mismatch["k"] == 3

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_identity({"identity": "nonsense"})

    def test_gsymm_plan(self):
        report = verify_identity(
            {
                "identity": "gsymm",
                "map": {"size": 4, "map": [1, 2, 0, 3]},
                "group": {"degree": 3, "generators": [[1, 2, 0]]},
            }
        )
        assert report["pass"]

    def test_partition_plan_with_coefficient(self):
        report = verify_identity(
            {
                "identity": "partition",
                "map": {"size": 3, "map": [1, 0, 2]},
                "group": {"degree": 2, "elements": [[0, 1], [1, 0]]},
                "family": {"ground": 2, "max_block": 1},
                "coefficient_size": 2,
            }
        )
        assert report["pass"]

    def test_partition_plan_coefficient_guard_honours_max_enum(self, monkeypatch):
        plan = {
            "identity": "partition",
            "map": {"size": 3, "map": [1, 0, 2]},
            "group": {"degree": 2, "elements": [[0, 1], [1, 0]]},
            "family": {"ground": 2, "max_block": 1},
            "coefficient_size": 2,
        }
        # 3^2 maps times 2^2 coefficient points: 36 candidates
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "36")
        assert verify_identity(plan)["pass"]
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "35")
        with pytest.raises(EnumerationLimitError) as info:
            verify_identity(plan)
        assert (info.value.size, info.value.limit) == (36, 35)

    def test_config_trace_plan(self):
        report = verify_identity(
            {
                "identity": "config-trace",
                "graded": {"degrees": {"0": [["1"]], "1": [["-1"]]}},
                "parity": "odd",
                "epsilon": -1,
                "expected_traces": [1, 2, 2, 2],
                "k_max": 6,
            }
        )
        assert report["pass"]


def binomial(x: MultiPoly, j: int) -> MultiPoly:
    """C(x, j) = x (x - 1) ... (x - j + 1) / j!"""
    out = MultiPoly.constant(1, x.nvars)
    for r in range(j):
        out = out * (x - r)
    return out / factorial(j)


LATTICE_DENOMINATORS = (1, 2, 3, 4, 6)


def small_numerical_candidate(rng):
    """A polynomial in at most 3 variables with exponents <= 3 and
    denominators in LATTICE_DENOMINATORS: a sum of binomial products, which
    is integer-valued, plus half the time one monomial that may not be."""
    nvars = rng.randint(0, 3)
    while True:
        p = MultiPoly.zero(nvars)
        for _ in range(rng.randint(1, 3)):
            piece = MultiPoly.constant(rng.choice((-2, -1, 1, 2)), nvars)
            for i in range(1, nvars + 1):
                piece = piece * binomial(t(i, nvars), rng.randint(0, 3))
            p = p + piece
        if rng.random() < 0.5:
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            coeff = Fraction(rng.randint(-3, 3), rng.choice(LATTICE_DENOMINATORS))
            p = p + MultiPoly(nvars, {exps: coeff})
        if all(c.denominator in LATTICE_DENOMINATORS for c in p.terms.values()):
            return p


def product_of_variables(n: int) -> MultiPoly:
    return MultiPoly(n, {(1,) * n: Fraction(1)})


class TestNumericality:
    def test_group_average_polynomials_are_numerical(self):
        for k in (2, 3):
            lp = gsymm_polynomial(PermutationGroup.symmetric(k))
            assert integer_lattice_check(lp.poly)
            assert _integer_valued(lp.poly)

    def test_non_numerical_poly_detected(self):
        half = MultiPoly(1, {(1,): Fraction(1, 2)})
        assert not integer_lattice_check(half)
        assert not _integer_valued(half)

    def test_lattice_check_refuses_an_empty_box(self):
        half_t2 = MultiPoly(2, {(0, 1): Fraction(1, 2)})
        with pytest.raises(ValueError, match="box must be >= 0"):
            integer_lattice_check(half_t2, box=-1)

    def test_a_box_above_the_guard_is_refused(self, monkeypatch):
        monkeypatch.delenv("DOLD_ZETA_MAX_ENUM", raising=False)
        with pytest.raises(EnumerationLimitError) as refused:
            integer_lattice_check(product_of_variables(12) / 2, box=2)
        assert refused.value.size == 5 ** 12

    def test_every_point_of_the_box_is_visited(self, monkeypatch):
        # 5^8 = 390625 points; the one where all t_i are odd decides the first
        monkeypatch.delenv("DOLD_ZETA_MAX_ENUM", raising=False)
        assert not integer_lattice_check(product_of_variables(8) / 2, box=2)
        pronic = MultiPoly(8, {(2,) + (0,) * 7: Fraction(1, 2), (1,) + (0,) * 7: Fraction(1, 2)})
        assert integer_lattice_check(pronic, box=2)

    def test_the_guard_counts_the_points_of_the_box(self, monkeypatch):
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "100")
        half_t2 = MultiPoly(2, {(0, 1): Fraction(1, 2)})
        assert not integer_lattice_check(half_t2, box=4)
        with pytest.raises(EnumerationLimitError) as refused:
            integer_lattice_check(half_t2, box=5)
        assert (refused.value.size, refused.value.limit) == (121, 100)

    def test_integer_coefficients_need_no_points(self, monkeypatch):
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "1")
        assert integer_lattice_check(product_of_variables(12), box=2)

    def test_constants_in_zero_variables(self):
        assert integer_lattice_check(MultiPoly.constant(3, 0))
        assert not integer_lattice_check(MultiPoly.constant(Fraction(3, 2), 0))
        assert _integer_valued(MultiPoly.constant(-3, 0))
        assert not _integer_valued(MultiPoly.constant(Fraction(3, 2), 0))

    def test_exact_test_agrees_with_the_exhaustive_lattice(self):
        # exponents <= 3 in each variable: integrality on {0..3}^n already
        # decides it, and [-4, 4]^n contains that box
        rng = random.Random(1915)
        verdicts = Counter()
        for _ in range(400):
            p = small_numerical_candidate(rng)
            exact = _integer_valued(p)
            assert exact == integer_lattice_check(p, box=4), p
            verdicts[exact] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_half_a_product_of_variables_is_refused(self, n):
        # prod t_i / 2 is not an integer where every t_i is 1
        assert not _integer_valued(product_of_variables(n) / 2)
        assert _integer_valued(product_of_variables(n))

    @pytest.mark.parametrize("n", [6, 8])
    def test_the_self_check_is_exact(self, n):
        # for m = 1 the orbit-count polynomial is the input itself; for n = 8
        # it has 36 variables, far beyond any box a lattice check could visit
        lp = LefschetzPolynomial(product_of_variables(n) / 2, n * (n + 1) // 2)
        with pytest.raises(RuntimeError, match="integrality check"):
            dold_polynomial_of_functor(lp, 1)

    def test_a_halved_orbit_count_polynomial_is_refused(self, monkeypatch):
        true_mobius = identities.mobius
        monkeypatch.setattr(identities, "mobius", lambda n: Fraction(true_mobius(n), 2))
        for lp, m in (
            (LefschetzPolynomial(t(1, 1), 1), 1),
            (bounded_power_polynomial(2, 1), 2),
            (bounded_power_polynomial(3, 1), 3),
        ):
            with pytest.raises(RuntimeError, match="integrality check"):
                dold_polynomial_of_functor(lp, m)


def test_components_functor_is_not_polynomial():
    """The pointed-components functor admits no fixed-point polynomial.

    On finite pointed sets, components are the points themselves, so any
    candidate polynomial in (t_1, t_2) is pinned to t_1 by interpolation on
    orbit profiles.  But for the circle with the conjugation involution the
    profile is (1, -1) while the components of the circle form a single
    point, whose reduced count is 0, not 1.
    """
    constraints = []  # rows: (1, t1, t1^2, t2) -> observed value t1
    for profile in [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]:
        t1, t2 = profile
        constraints.append(([Fraction(1), Fraction(t1), Fraction(t1 * t1), Fraction(t2)], Fraction(t1)))
    solution = _solve(constraints)
    assert solution == [0, 1, 0, 0]  # forced to be exactly t_1
    circle_profile = (1, -1)
    forced_value = solution[1] * circle_profile[0]
    assert forced_value == 1  # what any polynomial functor would predict
    assert 0 != forced_value  # the actual reduced component count is 0


def _solve(constraints):
    rows = [list(lhs) + [rhs] for lhs, rhs in constraints]
    cols = len(rows[0]) - 1
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        factor = rows[pivot_row][col]
        rows[pivot_row] = [v / factor for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                scale = rows[r][col]
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    solution = [Fraction(0)] * cols
    for r in range(pivot_row):
        lead = next(c for c in range(cols) if rows[r][c] == 1)
        solution[lead] = rows[r][cols]
    return solution
