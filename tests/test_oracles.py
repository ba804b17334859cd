"""Brute-force counting oracles and their internal coherence."""

import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest

from doldzeta import (
    EnumerationLimitError,
    FiniteSelfMap,
    PartitionFamily,
    PermutationGroup,
    PointedFiniteSet,
    coefficient_traces,
    fixed_bounded_multisets,
    fixed_bounded_tuples,
    fixed_gmap_space,
    fixed_invariant_subsets,
    fixed_partition_orbits,
    induced_bounded_multiset_map,
)
from doldzeta import oracles
from doldzeta.dynamics import cycle_profile
from doldzeta.partitions import fiber_partition, invert_perm, perm_cycle_count
from doldzeta.series import PowerSeries

from conftest import cyclic_group, direct_product, identity_map, pointed, seeded_maps, trivial_group


class TestBoundedMultisets:
    def test_single_point(self):
        f = identity_map(1)
        for k in range(5):
            assert fixed_bounded_multisets(f, k, None) == 1

    def test_two_cycle_configuration(self):
        f = FiniteSelfMap([1, 0])
        assert fixed_bounded_multisets(f, 2, 1) == 1  # only {a, b}

    def test_two_cycle_against_zeta_inverse(self):
        # Z = 1 - q^2, so Z^{-1} = 1 + q^2 + q^4: counts 1, 0, 1, 0, 1
        f = FiniteSelfMap([1, 0])
        counts = [fixed_bounded_multisets(f, k, None) for k in range(5)]
        zinv = PowerSeries([1, 0, -1], order=4).inverse()
        assert counts == [int(c) for c in zinv.coeffs]

    def test_zero_size_is_one(self):
        assert fixed_bounded_multisets(FiniteSelfMap([1, 0]), 0, 3) == 1

    def test_bound_zero(self):
        assert fixed_bounded_multisets(identity_map(2), 3, 0) == 0

    def test_monotone_in_bound(self):
        for f in seeded_maps(31, 25, 5):
            for k in range(4):
                values = [fixed_bounded_multisets(f, k, bound) for bound in (1, 2, 3, None)]
                assert values == sorted(values)


class TestInvariantSubsets:
    def test_identity_on_two_points(self):
        assert fixed_invariant_subsets(identity_map(2), 2) == 3

    def test_two_cycle(self):
        f = FiniteSelfMap([1, 0])
        assert fixed_invariant_subsets(f, 1) == 0
        assert fixed_invariant_subsets(f, 2) == 1

    def test_identity_binomial_sums(self):
        from math import comb

        for chi in (1, 2, 3, 4):
            f = identity_map(chi)
            for k in range(1, 5):
                expected = sum(comb(chi, j) for j in range(1, k + 1))
                assert fixed_invariant_subsets(f, k) == expected

    def test_subset_multiset_bridge(self):
        # multiplicity-one invariant multisets of size j are invariant subsets
        for f in seeded_maps(17, 40, 6):
            for k in range(1, 5):
                total = sum(fixed_bounded_multisets(f, j, 1) for j in range(1, k + 1))
                assert total == fixed_invariant_subsets(f, k)


class TestBoundedTuples:
    def test_unconstrained_power(self):
        f = identity_map(2)
        assert fixed_bounded_tuples(f, 3, 5) == 8

    def test_injective_pairs(self):
        assert fixed_bounded_tuples(identity_map(2), 2, 1) == 2

    def test_pigeonhole(self):
        assert fixed_bounded_tuples(identity_map(2), 3, 1) == 0

    def test_only_fixed_points_count(self):
        f = FiniteSelfMap([0, 2, 1])  # one fixed point, one 2-cycle
        assert fixed_bounded_tuples(f, 2, 2) == 1


class TestPartitionOrbits:
    def test_symmetric_square_of_point(self):
        f = identity_map(1)
        count = fixed_partition_orbits(f, PermutationGroup.symmetric(2), PartitionFamily.full(2))
        assert count == 1

    def test_symmetric_square_of_two_cycle(self):
        f = FiniteSelfMap([1, 0])
        count = fixed_partition_orbits(f, PermutationGroup.symmetric(2), PartitionFamily.full(2))
        assert count == 1  # the orbit of (a, b); the diagonal pairs swap

    def test_injective_pairs_trivial_group(self):
        f = identity_map(3)
        count = fixed_partition_orbits(
            f, trivial_group(2), PartitionFamily.max_block(2, 1)
        )
        assert count == 6

    def test_specializes_to_multisets(self):
        rng = random.Random(8)
        for f in seeded_maps(8, 30, 4, min_size=1):
            k = rng.randint(1, 3)
            bound = rng.choice([1, 2, 3, None])
            family = (
                PartitionFamily.full(k)
                if bound is None or bound >= k
                else PartitionFamily.max_block(k, bound)
            )
            group = PermutationGroup.symmetric(k)
            assert fixed_partition_orbits(f, group, family) == fixed_bounded_multisets(
                f, k, bound
            )

    def test_specializes_to_tuples(self):
        rng = random.Random(9)
        for f in seeded_maps(9, 30, 4, min_size=1):
            k = rng.randint(1, 3)
            bound = rng.randint(1, 3)
            family = (
                PartitionFamily.full(k)
                if bound >= k
                else PartitionFamily.max_block(k, bound)
            )
            group = trivial_group(k)
            assert fixed_partition_orbits(f, group, family) == fixed_bounded_tuples(
                f, k, bound
            )

    def test_coefficient_set_kills_everything_when_trivial(self):
        # a one-point coefficient space has no non-basepoint elements
        f = identity_map(2)
        group = PermutationGroup.symmetric(2)
        coefficient = PointedFiniteSet.smash_power(0, group)
        count = fixed_partition_orbits(f, group, PartitionFamily.full(2), coefficient)
        assert count == 0

    def test_enumeration_guard(self):
        f = identity_map(30)
        group = PermutationGroup.symmetric(5)
        with pytest.raises(EnumerationLimitError):
            fixed_partition_orbits(f, group, PartitionFamily.full(5), max_enum=1000)


class TestGmapSpace:
    def test_trivial_group_power(self):
        f = FiniteSelfMap([1, 0, 2])
        group = trivial_group(3)
        assert fixed_gmap_space(f, group) == len(f.fixed_points()) ** 3

    def test_multisets_of_size_two(self):
        assert fixed_gmap_space(identity_map(2), PermutationGroup.symmetric(2)) == 3

    def test_cyclic_action_with_three_cycle(self):
        f = FiniteSelfMap([1, 2, 0])
        group = cyclic_group(3)
        # Burnside: (0 + 3 + 3)/3 = 2 fixed orbits on 27 maps
        assert fixed_gmap_space(f, group) == 2

    def test_agrees_with_partition_orbits_on_full_family(self):
        for f in seeded_maps(12, 25, 4, min_size=1):
            for k in (2, 3):
                group = PermutationGroup.symmetric(k)
                assert fixed_gmap_space(f, group) == fixed_partition_orbits(
                    f, group, PartitionFamily.full(k)
                )


def fixed_non_basepoints(pointed, g) -> int:
    """Non-basepoint elements of a pointed set that g fixes, through `act`."""
    return sum(1 for y in range(1, pointed.size) if pointed.act(g, y) == y)


class TestPointedSets:
    def test_smash_power_traces(self):
        group = PermutationGroup.symmetric(3)
        y = PointedFiniteSet.smash_power(2, group)
        assert y.size == 2 ** 3 + 1
        # the oracle's coefficient has the traces the polynomial is weighted by
        traces = coefficient_traces(group, 2)
        for g in group.elements:
            assert fixed_non_basepoints(y, g) == 2 ** perm_cycle_count(g) == traces[g]

    def test_action_fixes_basepoint(self):
        group = PermutationGroup.symmetric(2)
        y = PointedFiniteSet.smash_power(3, group)
        for g in group.elements:
            assert y.act(g, 0) == 0

    def test_reduced_euler(self):
        # the identity's trace is the reduced Euler characteristic size - 1
        assert fixed_non_basepoints(PointedFiniteSet(4), (0,)) == 3
        square = PointedFiniteSet.smash_power(2, PermutationGroup.symmetric(2))
        assert fixed_non_basepoints(square, (0, 1)) == square.size - 1 == 4

    def test_action_entries_are_not_truncated(self):
        with pytest.raises(ValueError, match="an entry of a pointed set's action must be an integer, got 1.9"):
            PointedFiniteSet(3, {(0,): [0, 1.9, 2]})
        # integral values are read as the integers they are
        assert PointedFiniteSet(3, {(0,): [0, 2.0, 1]}).action == {(0,): (0, 2, 1)}


class TestInducedMap:
    def test_symmetric_square_of_pointed_two_cycle(self):
        g = pointed(FiniteSelfMap([1, 0]))
        induced = induced_bounded_multiset_map(g, 2, None)
        # multisets over {a, b}: {aa}, {ab}, {bb}; the swap exchanges aa and bb
        profile = cycle_profile(induced, 4)
        assert induced.size == 4
        assert profile.count(1) == 2  # basepoint and {a, b}
        assert profile.count(2) == 1

    def test_bound_violation_goes_to_basepoint(self):
        # the doubling collapse: pushforward of {a, b} along a map sending
        # both to one point violates the bound 1, so {a, b} hits the basepoint
        g = pointed(FiniteSelfMap([0, 0]))  # both points to the first
        induced = induced_bounded_multiset_map(g, 2, 1)
        assert induced.size == 2  # basepoint plus the single configuration {a, b}
        assert induced(1) == 0

    def test_basepoint_absorbing_when_map_collapses(self):
        # a pointed map killing a point sends multisets through it to the basepoint
        g = FiniteSelfMap([0, 0, 2])  # pointed at 0; the point 1 dies
        induced = induced_bounded_multiset_map(g, 2, None)
        multisets = [(1, 1), (1, 2), (2, 2)]
        images = {m: induced(i + 1) for i, m in enumerate(multisets)}
        assert images[(1, 1)] == 0 and images[(1, 2)] == 0
        assert images[(2, 2)] == multisets.index((2, 2)) + 1


# ---------------------------------------------------------------------------
# the least-point orbit counter against the orbit-id enumeration it replaced


def reference_orbit_ids(points, movers):
    """Partition `points` into orbits under the given family of bijections."""
    ids = {}
    next_id = 0
    for p in points:
        if p in ids:
            continue
        stack = [p]
        ids[p] = next_id
        while stack:
            q = stack.pop()
            for move in movers:
                r = move(q)
                if r not in ids:
                    ids[r] = next_id
                    stack.append(r)
        next_id += 1
    return ids


def reference_partition_orbits(f, group, family, coefficient=None, gset=None):
    """The old fixed_partition_orbits: a list of every admissible point, an
    orbit id for each, and an orbit counted when f o a lands in it again."""
    k = family.ground
    gset = group.elements if gset is None else gset
    ys = list(range(1, coefficient.size)) if coefficient is not None else [None]
    admissible = [a for a in product(range(f.size), repeat=k) if fiber_partition(a) in family]
    points = [(a, y) for a in admissible for y in ys]
    movers = []
    for g, perm in zip(group.elements, gset):
        def move(point, g=g, inv=invert_perm(perm)):
            a, y = point
            image_y = coefficient.act(g, y) if coefficient is not None else None
            return tuple(a[inv[i]] for i in range(k)), image_y

        movers.append(move)
    ids = reference_orbit_ids(points, movers)
    fixed = {oid for (a, y), oid in ids.items() if ids.get((tuple(f(x) for x in a), y)) == oid}
    return len(fixed)


def sign_action(group):
    """The group acting on two points through the sign of its permutations."""
    return tuple(
        (1, 0) if (group.degree - perm_cycle_count(g)) % 2 else (0, 1) for g in group.elements
    )


ORACLE_GROUPS = [
    *[(f"S{k}", PermutationGroup.symmetric(k), None) for k in (2, 3, 4)],
    *[(f"C{k}", cyclic_group(k), None) for k in (2, 3, 4)],
    *[(f"1_{k}", trivial_group(k), None) for k in (2, 3, 4)],
    ("S2xC2", direct_product(PermutationGroup.symmetric(2), cyclic_group(2)), None),
    ("S3 by sign", PermutationGroup.symmetric(3), sign_action(PermutationGroup.symmetric(3))),
]


@pytest.mark.parametrize("name, group, gset", ORACLE_GROUPS, ids=[c[0] for c in ORACLE_GROUPS])
def test_least_point_counter_matches_orbit_enumeration(name, group, gset):
    k = group.degree if gset is None else len(gset[0])
    families = [
        PartitionFamily.full(k),
        PartitionFamily.max_block(k, 1),
        PartitionFamily.max_block(k, 2),
    ]
    coefficients = [None] + [PointedFiniteSet.smash_power(p, group, gset) for p in (0, 1, 2)]
    nonzero = 0
    for f in seeded_maps(sum(map(ord, name)), 8, 4, min_size=1):
        for family in families:
            for coefficient in coefficients:
                want = reference_partition_orbits(f, group, family, coefficient, gset)
                assert fixed_partition_orbits(f, group, family, coefficient, gset) == want
                nonzero += want > 0
        want = reference_partition_orbits(f, group, families[0], None, gset)
        assert fixed_gmap_space(f, group, gset) == want
    assert nonzero


def test_burnside_cross_check_fires_on_a_wrong_orbit_count(monkeypatch):
    real = oracles._fixed_orbit_count
    monkeypatch.setattr(oracles, "_fixed_orbit_count", lambda *args: real(*args) + 1)
    f = FiniteSelfMap([1, 0, 2])
    with pytest.raises(RuntimeError, match=r"orbit enumeration \(3\) disagrees with the "
                                           r"Burnside average \(2\)"):
        fixed_gmap_space(f, PermutationGroup.symmetric(2))


# ---------------------------------------------------------------------------
# the multiset walks against the walks over all candidates they replaced


def reference_rearranged_maps(f, k):
    """Every map a in M^k with sorted(f o a) == sorted(a), from the full product."""
    return [
        a for a in product(range(f.size), repeat=k) if sorted(f(x) for x in a) == sorted(a)
    ]


def reference_bounded_multisets(f, k, bound):
    """The old fixed_bounded_multisets: a multiplicity array per multiset."""
    if k == 0:
        return 1
    if bound is not None and bound <= 0:
        return 0
    count = 0
    for combo in combinations_with_replacement(range(f.size), k):
        mult = [0] * f.size
        for x in combo:
            mult[x] += 1
        if bound is not None and max(mult) > bound:
            continue
        push = [0] * f.size
        for x, m in enumerate(mult):
            push[f(x)] += m
        count += push == mult
    return count


def reference_invariant_subsets(f, k):
    """The old fixed_invariant_subsets: f(A) == A as sets."""
    return sum(
        {f(x) for x in combo} == set(combo)
        for j in range(1, min(k, f.size) + 1)
        for combo in combinations(range(f.size), j)
    )


def reference_bounded_tuples(f, k, bound):
    """The old fixed_bounded_tuples: every tuple over the fixed points."""
    if k == 0:
        return 1
    if bound is not None and bound <= 0:
        return 0
    return sum(
        bound is None or max(tup.count(x) for x in tup) <= bound
        for tup in product(f.fixed_points(), repeat=k)
    )


def multiset_walk_cases():
    """Seeded maps of up to 8 points, empty and identity maps among them,
    each with every size k <= 5."""
    maps = [FiniteSelfMap([]), identity_map(1), identity_map(4), FiniteSelfMap([1, 0, 2, 2])]
    maps += seeded_maps(1414, 30, 8)
    return [(f, k) for f in maps for k in range(6)]


def multiset_walk_mismatches():
    """The cases where a multiset walk disagrees with its reference."""
    bad = []
    for f, k in multiset_walk_cases():
        maps = list(oracles._rearranged_maps(f, k))
        if len(maps) != len(set(maps)) or set(maps) != set(reference_rearranged_maps(f, k)):
            bad.append(("rearranged maps", f.mapping, k))
        if fixed_invariant_subsets(f, k) != reference_invariant_subsets(f, k):
            bad.append(("subsets", f.mapping, k))
        for bound in (None, 1, 2, 3):
            if fixed_bounded_multisets(f, k, bound) != reference_bounded_multisets(f, k, bound):
                bad.append(("multisets", f.mapping, k, bound))
            if fixed_bounded_tuples(f, k, bound) != reference_bounded_tuples(f, k, bound):
                bad.append(("tuples", f.mapping, k, bound))
    return bad


def test_arrangements_are_each_distinct_ordering_once_in_order():
    rng = random.Random(1)
    for _ in range(200):
        values = tuple(sorted(rng.randrange(4) for _ in range(rng.randint(0, 6))))
        assert list(oracles._arrangements(values)) == sorted(set(permutations(values)))


def test_multiset_walks_match_the_full_walks():
    cases = multiset_walk_cases()
    assert any(f.size == 0 for f, _ in cases) and max(f.size for f, _ in cases) == 8
    assert {k for _, k in cases} == set(range(6))
    assert multiset_walk_mismatches() == []


REAL_ARRANGEMENTS = oracles._arrangements


def skip_last(values):
    orderings = list(REAL_ARRANGEMENTS(values))
    return orderings[:-1] if len(orderings) > 1 else orderings


def repeat_first(values):
    orderings = list(REAL_ARRANGEMENTS(values))
    return orderings + orderings[:1]


@pytest.mark.parametrize("mutant", [skip_last, repeat_first, permutations])
def test_a_wrong_arrangements_fails_the_walk_tests(monkeypatch, mutant):
    monkeypatch.setattr(oracles, "_arrangements", mutant)
    kinds = {case[0] for case in multiset_walk_mismatches()}
    assert {"rearranged maps", "tuples"} <= kinds


# ---------------------------------------------------------------------------
# the guards count the nominal candidate space, not the smaller walk


GUARDED = [
    ("multisets", lambda f, m: fixed_bounded_multisets(f, 5, 2, max_enum=m), comb(14, 5)),
    ("subsets", lambda f, m: fixed_invariant_subsets(f, 3, max_enum=m), 10 + 45 + 120),
    ("tuples", lambda f, m: fixed_bounded_tuples(f, 5, 2, max_enum=m), 4 ** 5),
    ("gmap", lambda f, m: fixed_gmap_space(f, trivial_group(5), max_enum=m), 10 ** 5),
    ("partition", lambda f, m: fixed_partition_orbits(
        f, PermutationGroup.symmetric(4), PartitionFamily.full(4), max_enum=m), 10 ** 4),
]


@pytest.mark.parametrize("name, oracle, nominal", GUARDED, ids=[c[0] for c in GUARDED])
def test_guards_count_the_nominal_space(name, oracle, nominal):
    # four fixed points and a 6-cycle: the walks visit a small part of the space
    f = FiniteSelfMap([0, 1, 2, 3, 5, 6, 7, 8, 9, 4])
    with pytest.raises(EnumerationLimitError) as refused:
        oracle(f, nominal - 1)
    assert (refused.value.size, refused.value.limit) == (nominal, nominal - 1)
    oracle(f, nominal)
