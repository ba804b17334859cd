"""Acceptance suite: every headline identity checked exactly, end to end.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success).  All comparisons are exact rational equalities; there are no
tolerances anywhere.
"""

import functools
import random
from itertools import product as iter_product

from doldzeta import (
    FiniteSelfMap,
    GradedEndomorphism,
    LefschetzSequence,
    MultiPoly,
    PartitionFamily,
    PermutationGroup,
    PowerSeries,
    SetPartition,
    coefficient_traces,
    configuration_trace_series,
    exponent_product,
    fixed_bounded_multisets,
    fixed_bounded_tuples,
    fixed_gmap_space,
    fixed_invariant_subsets,
    fixed_partition_orbits,
    general_lefschetz_polynomial,
    graded_zeta,
    gsymm_polynomial,
    integer_lattice_check,
    koszul_invariant_trace,
    order_polynomial,
    poincare_generating,
    rhs_borsuk_ulam,
    rhs_bounded_tuples,
    rhs_symmetric_power,
    zeta_of_map,
    zeta_series,
)
from doldzeta.identities import (
    bounded_power_polynomial,
    compose_lefschetz,
    dold_polynomial_of_functor,
    realize_polynomial,
    expression_polynomial,
)
from doldzeta.series import Poly, RationalFunction, egf_unpack

from conftest import (
    at_one,
    cyclic_group,
    expand,
    identity_map,
    seeded_maps,
    stable_families,
    trivial_group,
)
from family_recursion import recursive_lefschetz_polynomial


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


MAPS_200 = seeded_maps(1001, 200, 6)


@criterion(1, "symmetric powers, unbounded multiplicities")
def test_unbounded_symmetric_powers_match_reciprocal_zeta():
    for f in MAPS_200:
        series = rhs_symmetric_power(zeta_of_map(f, 6), None)
        for k in range(7):
            assert series[k] == fixed_bounded_multisets(f, k, None)[k]


@criterion(2, "symmetric powers, bounded multiplicities")
def test_bounded_symmetric_powers_match_substituted_zeta():
    for f in MAPS_200:
        zeta = zeta_of_map(f, 6)
        for bound in (1, 2, 3):
            series = rhs_symmetric_power(zeta, bound)
            for k in range(7):
                assert series[k] == fixed_bounded_multisets(f, k, bound)[k]


@criterion(3, "degree-d sphere case table")
def test_sphere_case_table():
    for degree in (2, 3):
        lefschetz = LefschetzSequence([1 - degree ** k for k in range(1, 11)])
        zeta = zeta_series(lefschetz, 10)
        for bound in (1, 2):
            series = rhs_symmetric_power(zeta, bound)
            period = bound + 1
            assert series[0] == 1
            for k in range(1, 11):
                if k % period == 0:
                    assert series[k] == 0
                else:
                    j = k // period
                    assert series[k] == (1 - degree) * degree ** j


@criterion(4, "subset spaces and the odd-sphere pair pattern")
def test_subset_spaces():
    zeta = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 8)
    series = rhs_borsuk_ulam(zeta)
    for power in (1, 2, 3, 4):
        assert series[2 * power - 1] == 1 - 2 ** power
        assert series[2 * power] == 1 - 2 ** power
    for f in seeded_maps(1004, 60, 6):
        got = rhs_borsuk_ulam(zeta_of_map(f, 6))
        for k in range(1, 7):
            assert got[k] == fixed_invariant_subsets(f, k)[k]


@criterion(5, "Euler characteristics of subset spaces")
def test_subset_space_euler_characteristics():
    from math import comb

    for chi in range(1, 6):
        series = rhs_borsuk_ulam(exponent_product({1: chi}, 6))
        for k in range(1, 7):
            assert series[k] == sum(comb(chi, j) for j in range(1, k + 1))


def order_two_groups_zoo():
    """One explicit permutation realization of every group of order <= 6,
    each with an action table on a set of at most 4 points."""
    zoo = []

    def natural(group):
        zoo.append((group, group.elements))

    natural(trivial_group(2))
    natural(PermutationGroup.symmetric(2))
    natural(cyclic_group(3))
    natural(cyclic_group(4))
    natural(PermutationGroup.from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)]))  # V4
    natural(PermutationGroup.symmetric(3))
    # S3 acting on 3 + 1 fixed points
    s3 = PermutationGroup.symmetric(3)
    zoo.append((s3, tuple(g + (3,) for g in s3.elements)))
    # C2 acting on 4 points by a double transposition
    c2 = PermutationGroup.symmetric(2)
    double = {(0, 1): (0, 1, 2, 3), (1, 0): (1, 0, 3, 2)}
    zoo.append((c2, tuple(double[g] for g in c2.elements)))
    # C5 can only act trivially on <= 4 points
    c5 = cyclic_group(5)
    zoo.append((c5, tuple((0, 1, 2, 3) for _ in c5.elements)))
    # C6 as a degree-5 permutation group, acting on 4 points through its
    # 2-element quotient (read off each element's effect on the swapped pair)
    c6 = PermutationGroup.from_generators(5, [(1, 0, 3, 4, 2)])
    assert c6.order == 6
    action = tuple((1, 0, 2, 3) if g[0] == 1 else (0, 1, 2, 3) for g in c6.elements)
    zoo.append((c6, action))
    return zoo


@criterion(6, "group averages over all groups of order at most 6")
def test_group_average_polynomials():
    maps = seeded_maps(1006, 50, 5)
    for group, gset in order_two_groups_zoo():
        lp = gsymm_polynomial(group, gset)
        for f in maps:
            assert lp.evaluate_map(f) == fixed_gmap_space(f, group, gset)


def family_group_pairs():
    pairs = []
    for k in (2, 3, 4):
        sym = PermutationGroup.symmetric(k)
        for family in stable_families(k):
            pairs.append((sym, family, None))
    # refinement families with their compatible groups
    pairing = SetPartition([[0, 1], [2, 3]])
    young = PermutationGroup.from_generators(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    dihedral = PermutationGroup.from_generators(4, [(1, 0, 2, 3), (2, 3, 0, 1)])
    pairs.append((young, PartitionFamily.refining(pairing), None))
    pairs.append((dihedral, PartitionFamily.refining(pairing), None))
    lopsided = SetPartition([[0, 1], [2]])
    pairs.append((trivial_group(3), PartitionFamily.refining(lopsided), None))
    pairs.append(
        (PermutationGroup.from_generators(3, [(1, 0, 2)]), PartitionFamily.refining(lopsided), None)
    )
    return pairs


@criterion(7, "partition-family orbit sum against orbit enumeration")
def test_partition_family_recursion():
    maps = seeded_maps(1007, 50, 4, min_size=1)
    for group, family, gset in family_group_pairs():
        lp = general_lefschetz_polynomial(group, family, gset=gset)
        for f in maps:
            assert lp.evaluate_map(f) == fixed_partition_orbits(f, group, family, gset=gset)
    # the reference recursion, with any minimal-partition tie-break, gives
    # the orbit sum
    for group, family in (
        (PermutationGroup.symmetric(4), PartitionFamily.max_block(4, 2)),
        (PermutationGroup.symmetric(3), PartitionFamily.max_block(3, 1)),
    ):
        reference = general_lefschetz_polynomial(group, family)
        for seed in range(10):
            shuffled = recursive_lefschetz_polynomial(group, family, rng=random.Random(seed))
            assert shuffled == reference


@criterion(8, "bounded tuple spaces and block-count polynomials")
def test_bounded_tuples_and_order_polynomials():
    for fixed_count in range(5):
        base = identity_map(fixed_count)
        for bound in (1, 2, 3):
            series = rhs_bounded_tuples(fixed_count, bound, 6)
            unpacked = egf_unpack(series)
            for k in range(7):
                assert unpacked[k] == fixed_bounded_tuples(base, k, bound)[k]
    # tuples only see fixed points: junk off the fixed set changes nothing
    for f in seeded_maps(1008, 30, 5):
        count = len(f.fixed_points())
        series = rhs_bounded_tuples(count, 2, 5)
        unpacked = egf_unpack(series)
        for k in range(6):
            assert unpacked[k] == fixed_bounded_tuples(f, k, 2)[k]
    # two-block refinement families: frozen small values
    for j in (1, 2, 3):
        target = SetPartition([list(range(j)), list(range(j, 2 * j))])
        ell = order_polynomial(PartitionFamily.refining(target))
        assert ell(1) == 0
        assert ell(2) == 2
        if j >= 2:
            assert ell(3) == 6 * (2 ** j - 1)
    # block counts of the two-block family convolve Stirling numbers
    def stirling(n, k):
        if n == 0:
            return 1 if k == 0 else 0
        if k == 0:
            return 0
        return k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    for j in (1, 2, 3):
        target = SetPartition([list(range(j)), list(range(j, 2 * j))])
        counts = PartitionFamily.refining(target).block_counts()
        for r, n_r in enumerate(counts, start=1):
            expected = sum(
                stirling(j, r1) * stirling(j, r - r1) for r1 in range(0, r + 1)
            )
            assert n_r == expected


@criterion(9, "coefficient spaces: oracles and the full identity grid")
def test_coefficient_space_identities():
    # honest pointed coefficient sets against the closed forms, k <= 4
    maps = seeded_maps(1009, 5, 3, min_size=1)
    for euler in (0, 1, 2):
        for k in (1, 2, 3, 4):
            group = PermutationGroup.symmetric(k)
            traces = coefficient_traces(group, euler)
            for bound in (None, 1):
                family = (
                    PartitionFamily.full(k)
                    if bound is None or bound >= k
                    else PartitionFamily.max_block(k, bound)
                )
                lp = general_lefschetz_polynomial(group, family, traces)
                for f in maps:
                    oracle = fixed_partition_orbits(f, group, family, euler)
                    assert lp.evaluate_map(f) == oracle

    # polynomial identities over the full grid n in -3..3, D in {0..3}^4
    grid = list(iter_product(range(4), repeat=4))
    for euler in range(-3, 4):
        cases = [(None, "inverse-power")] + [(1, "multiplicity-one")]
        if euler <= 0:
            cases += [(bound, "bounded") for bound in range(max(1, -euler), 5)]
        for bound, _label in cases:
            for k in (1, 2, 3, 4):
                group = PermutationGroup.symmetric(k)
                traces = coefficient_traces(group, euler)
                family = (
                    PartitionFamily.full(k)
                    if bound is None or bound >= k
                    else PartitionFamily.max_block(k, bound)
                )
                lp = general_lefschetz_polynomial(group, family, traces)
                for point in grid:
                    left = lp.evaluate(point[:k])
                    if bound == 1:
                        rhs = PowerSeries.one(k)
                        for m in range(1, k + 1):
                            base = PowerSeries.one(k) + PowerSeries.monomial(m, k, euler)
                            rhs = rhs * base ** point[m - 1]
                        right = rhs[k]
                        if -1 <= euler <= 0:
                            alt = exponent_product(
                                {m: -euler * point[m - 1] for m in range(1, k + 1)}, k
                            )[k]
                            assert alt == right  # both clauses apply and agree
                    else:
                        right = exponent_product(
                            {m: -euler * point[m - 1] for m in range(1, k + 1)}, k
                        )[k]
                    assert left == right


@criterion(10, "bivariate determinant formula against the signed trace oracle")
def test_macdonald_formula():
    rng = random.Random(1010)
    from test_graded import random_endomorphism

    for _ in range(15):
        endo = random_endomorphism(rng, total_dim=4, max_degree=3, span=2)
        series = poincare_generating(endo, 4)
        for k in range(5):
            assert koszul_invariant_trace(endo, k) == series[k]
        zeta = graded_zeta(endo, 4)
        assert at_one(series) * zeta == PowerSeries.one(4)
    conjugation = GradedEndomorphism({0: [[1]], 1: [[-1]]})
    zeta = graded_zeta(conjugation, 6)
    expected = PowerSeries([1, -2, 1], order=6) * PowerSeries([1, 0, -1], order=6).inverse()
    assert zeta == expected
    series = configuration_trace_series(zeta, "odd")
    for k in range(1, 7):
        assert series[k] * (-1) ** k == 2


@criterion(11, "integrality of every produced polynomial on the test lattice")
def test_every_polynomial_is_numerical():
    produced = []
    for group, gset in order_two_groups_zoo():
        produced.append(gsymm_polynomial(group, gset).poly)
    for group, family, gset in family_group_pairs():
        produced.append(general_lefschetz_polynomial(group, family, gset=gset).poly)
    for euler in range(-3, 4):
        for k in (2, 3):
            group = PermutationGroup.symmetric(k)
            traces = coefficient_traces(group, euler)
            produced.append(general_lefschetz_polynomial(group, PartitionFamily.full(k), traces).poly)
    for k, bound in ((2, 1), (3, 1), (3, 2), (4, 1)):
        produced.append(bounded_power_polynomial(k, bound).poly)
    square = bounded_power_polynomial(2, 1)
    for m in (1, 2, 3):
        produced.append(dold_polynomial_of_functor(square, m))
    s2 = gsymm_polynomial(PermutationGroup.symmetric(2))
    produced.append(compose_lefschetz(s2, s2).poly)
    for target in (MultiPoly.variable(2, 2), MultiPoly.variable(1, 2) ** 2):
        r, expr = realize_polynomial(target, 2)
        produced.append(expression_polynomial(expr).poly)
    assert produced
    for poly in produced:
        assert integer_lattice_check(poly, box=4)
