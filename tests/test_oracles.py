"""Brute-force counting oracles and their internal coherence."""

import inspect
import random
import textwrap
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest

from doldzeta import (
    EnumerationLimitError,
    FiniteSelfMap,
    PartitionFamily,
    PermutationGroup,
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
from doldzeta.partitions import (
    MAX_GROUND,
    invert_perm,
    perm_cycle_count,
    perm_cycle_type,
)
from doldzeta.series import PowerSeries

from partitions_reference import fiber_partition
import orbit_count_reference as orbit_reference
from conftest import (
    cyclic_group,
    direct_product,
    identity_map,
    pair_action,
    pointed,
    random_map,
    random_subgroup,
    seeded_maps,
    stable_families,
    trivial_group,
)


class TestBoundedMultisets:
    def test_single_point(self):
        f = identity_map(1)
        assert fixed_bounded_multisets(f, 4, None) == (1,) * 5

    def test_two_cycle_configuration(self):
        f = FiniteSelfMap([1, 0])
        assert fixed_bounded_multisets(f, 2, 1) == (1, 0, 1)  # only {a, b}

    def test_two_cycle_against_zeta_inverse(self):
        # Z = 1 - q^2, so Z^{-1} = 1 + q^2 + q^4: counts 1, 0, 1, 0, 1
        f = FiniteSelfMap([1, 0])
        counts = list(fixed_bounded_multisets(f, 4, None))
        zinv = PowerSeries([1, 0, -1], order=4).inverse()
        assert counts == [int(c) for c in zinv.coeffs]

    def test_zero_size_is_one(self):
        assert fixed_bounded_multisets(FiniteSelfMap([1, 0]), 0, 3) == (1,)

    def test_bound_zero(self):
        assert fixed_bounded_multisets(identity_map(2), 3, 0) == (1, 0, 0, 0)

    def test_monotone_in_bound(self):
        for f in seeded_maps(31, 25, 5):
            for k in range(4):
                values = [fixed_bounded_multisets(f, k, bound)[k] for bound in (1, 2, 3, None)]
                assert values == sorted(values)


class TestInvariantSubsets:
    def test_identity_on_two_points(self):
        assert fixed_invariant_subsets(identity_map(2), 2) == (0, 2, 3)

    def test_two_cycle(self):
        f = FiniteSelfMap([1, 0])
        assert fixed_invariant_subsets(f, 1) == (0, 0)
        assert fixed_invariant_subsets(f, 2) == (0, 0, 1)

    def test_identity_binomial_sums(self):
        from math import comb

        for chi in (1, 2, 3, 4):
            f = identity_map(chi)
            for k in range(1, 5):
                expected = sum(comb(chi, j) for j in range(1, k + 1))
                assert fixed_invariant_subsets(f, k)[k] == expected

    def test_subset_multiset_bridge(self):
        # multiplicity-one invariant multisets of size j are invariant subsets
        for f in seeded_maps(17, 40, 6):
            for k in range(1, 5):
                total = sum(fixed_bounded_multisets(f, j, 1)[j] for j in range(1, k + 1))
                assert total == fixed_invariant_subsets(f, k)[k]


class TestBoundedTuples:
    def test_unconstrained_power(self):
        f = identity_map(2)
        assert fixed_bounded_tuples(f, 3, 5) == (1, 2, 4, 8)

    def test_injective_pairs(self):
        assert fixed_bounded_tuples(identity_map(2), 2, 1) == (1, 2, 2)

    def test_pigeonhole(self):
        assert fixed_bounded_tuples(identity_map(2), 3, 1) == (1, 2, 2, 0)

    def test_only_fixed_points_count(self):
        f = FiniteSelfMap([0, 2, 1])  # one fixed point, one 2-cycle
        assert fixed_bounded_tuples(f, 2, 2) == (1, 1, 1)


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
            )[k]

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
            )[k]

    def test_coefficient_set_kills_everything_when_trivial(self):
        # a one-point coefficient space has no non-basepoint elements
        f = identity_map(2)
        group = PermutationGroup.symmetric(2)
        count = fixed_partition_orbits(f, group, PartitionFamily.full(2), 0)
        assert count == 0

    def test_enumeration_guard(self, monkeypatch):
        f = identity_map(30)
        group = PermutationGroup.symmetric(5)
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "1000")
        with pytest.raises(EnumerationLimitError):
            fixed_partition_orbits(f, group, PartitionFamily.full(5))


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


def smash_move(y, inv):
    """The image of a non-basepoint y in {0..p-1}^k of a k-fold smash power
    under the factor permutation whose inverse is inv: y o inv."""
    return tuple(y[inv[i]] for i in range(len(y)))


class TestPointedSets:
    def test_smash_power_traces(self):
        # the reference's coefficient has the traces the polynomial is weighted by
        group = PermutationGroup.symmetric(3)
        for points in (2, 3):
            traces = coefficient_traces(group, points)
            ys = list(product(range(points), repeat=3))
            for g in group.elements:
                fixed = sum(smash_move(y, invert_perm(g)) == y for y in ys)
                assert fixed == points ** perm_cycle_count(g) == traces[g]


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


def reference_partition_orbits(f, group, family, points=None, gset=None):
    """The old fixed_partition_orbits: a list of every admissible point, an
    orbit id for each, and an orbit counted when f o a lands in it again.
    With `points`, each a is paired with every y in {0..points-1}^k."""
    k = family.ground
    gset = group.elements if gset is None else gset
    ys = list(product(range(points), repeat=k)) if points is not None else [None]
    admissible = [a for a in product(range(f.size), repeat=k) if fiber_partition(a) in family]
    candidates = [(a, y) for a in admissible for y in ys]
    movers = []
    for perm in gset:
        def move(point, inv=invert_perm(perm)):
            a, y = point
            return tuple(a[inv[i]] for i in range(k)), None if y is None else smash_move(y, inv)

        movers.append(move)
    ids = reference_orbit_ids(candidates, movers)
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
    nonzero = 0
    for f in seeded_maps(sum(map(ord, name)), 8, 4, min_size=1):
        for family in families:
            for points in (None, 0, 1, 2):
                want = reference_partition_orbits(f, group, family, points, gset)
                size = () if points is None else (points,)
                assert fixed_partition_orbits(f, group, family, *size, gset=gset) == want
                nonzero += want > 0
        want = reference_partition_orbits(f, group, families[0], None, gset)
        assert fixed_gmap_space(f, group, gset) == want
    assert nonzero


ORBIT_MUTANTS = {
    "every least point counted": ("count += fixed", "count += 1"),
    "an equal image taken for a smaller one": ("other < point", "other <= point"),
}


@pytest.mark.parametrize("old, new", ORBIT_MUTANTS.values(), ids=list(ORBIT_MUTANTS))
def test_a_wrong_orbit_counter_fails_the_orbit_tests(monkeypatch, old, new):
    monkeypatch.setattr(
        oracles, "_fixed_orbit_count", mutated(oracles._fixed_orbit_count, old, new)
    )
    # a wrong gmap count may trip the Burnside cross-check before the assertion
    with pytest.raises((AssertionError, RuntimeError)):
        for case in ORACLE_GROUPS:
            test_least_point_counter_matches_orbit_enumeration(*case)


def test_burnside_cross_check_fires_on_a_wrong_orbit_count(monkeypatch):
    real = oracles._fixed_orbit_count

    def one_orbit_too_many(*args, **kwargs):
        # the orbit count is off by one; the Burnside total is the real one
        orbits, total = real(*args, **kwargs)
        return orbits + 1, total

    monkeypatch.setattr(oracles, "_fixed_orbit_count", one_orbit_too_many)
    f = FiniteSelfMap([1, 0, 2])
    with pytest.raises(RuntimeError, match=r"orbit enumeration \(3\) disagrees with the "
                                           r"Burnside average \(2\)"):
        fixed_gmap_space(f, PermutationGroup.symmetric(2))


def test_a_wrong_burnside_total_trips_the_cross_check(monkeypatch):
    monkeypatch.setattr(
        oracles,
        "_fixed_orbit_count",
        mutated(oracles._fixed_orbit_count, "total += size", "total += 1"),
    )
    with pytest.raises(RuntimeError, match="Burnside"):
        for name, group, gset in ORACLE_GROUPS:
            for f in seeded_maps(sum(map(ord, name)), 8, 4, min_size=1):
                fixed_gmap_space(f, group, gset)


@pytest.mark.parametrize("name, group, gset", ORACLE_GROUPS, ids=[c[0] for c in ORACLE_GROUPS])
def test_each_orbit_oracle_walks_the_candidates_once(monkeypatch, name, group, gset):
    # the least-point count and the Burnside total come from one walk, on
    # the periodic part of f: the tail point 3 is dropped, and the 2-cycle
    # (0 1) too unless some element has a cycle of even length
    k = group.degree if gset is None else len(gset[0])
    f = FiniteSelfMap([1, 0, 2, 2])
    table = group.elements if gset is None else gset
    even = any(r % 2 == 0 for perm in table for r in perm_cycle_type(perm))
    part = FiniteSelfMap([1, 0, 2] if even else [0])
    full = PartitionFamily.full(k)
    expected = reference_partition_orbits(f, group, full, None, gset)
    walks = []
    rearranged = oracles._rearranged_maps

    def counted(f, k):
        walks.append((f, k))
        return rearranged(f, k)

    monkeypatch.setattr(oracles, "_rearranged_maps", counted)
    assert fixed_gmap_space(f, group, gset) == expected
    assert walks == [(part, k)]
    assert fixed_partition_orbits(f, group, full, 2, gset) == reference_partition_orbits(
        f, group, full, 2, gset
    )
    assert walks == [(part, k)] * 2


# ---------------------------------------------------------------------------
# the single orbit walk against the two walks it replaced


def orbit_partition(gset):
    """The partition of the table's points into their orbits, by the least
    point of each."""
    return fiber_partition([min(perm[x] for perm in gset) for x in range(len(gset[0]))])


# the nominal candidate space, maps times smash coordinates, of one walk
ORBIT_WALK_BUDGET = 3000


def orbit_walk_cases():
    """Seeded (f, group, table, points) cases: groups from generators of
    degree 0..5 with their natural action and, from degree 2, the action on
    unordered pairs and the sign action on two points; coefficient sizes
    0..3, each with the largest map the budget allows."""
    rng = random.Random(3333)
    for _ in range(12):
        for degree in range(6):
            group = random_subgroup(rng, degree)
            tables = [group.elements]
            if degree >= 2:
                tables += [pair_action(group), sign_action(group)]
            for table in tables:
                k = len(table[0])
                for points in range(4):
                    fit = [s for s in range(1, 6) if s ** k * max(1, points ** k) <= ORBIT_WALK_BUDGET]
                    yield random_map(rng, max(fit, default=1)), group, table, points


def test_one_orbit_walk_matches_the_two_walks_it_replaced():
    cases = nonzero = 0
    for f, group, table, points in orbit_walk_cases():
        k = len(table[0])
        if points == 1:
            # as fixed_gmap_space calls it: both counts from one walk
            leaders = [(len(members), table[members[0]]) for members in group.classes]
            want = (orbit_reference.fixed_orbit_count(f, table, k),
                    orbit_reference.burnside_total(f, group, table))
            assert oracles._fixed_orbit_count(f, table, k, table, leaders=leaders) == want
            assert want[1] == want[0] * group.order
            nonzero += want[0] > 0
        if not 1 <= k <= MAX_GROUND:
            continue
        families = [PartitionFamily.max_block(k, bound) for bound in range(1, k + 1)]
        families.append(PartitionFamily.refining(orbit_partition(table)))
        for family in families:
            def admissible(a):
                return fiber_partition(a) in family

            want = orbit_reference.fixed_orbit_count(f, table, k, admissible, points)
            assert oracles._fixed_orbit_count(f, table, k, table, admissible, points) == (want, 0)
            cases += 1
            nonzero += want > 0
    assert cases > 500 and nonzero > 200


def test_family_filter_by_growth_string_matches_the_partition_filter():
    # fixed_partition_orbits tests a candidate's growth string against the
    # members' labels; the filter it replaced built the fiber partition
    rng = random.Random(3434)
    cases = nonzero = 0
    for _ in range(6):
        for k in range(1, 5):
            group = random_subgroup(rng, k)
            families = [{"ground": k, "max_block": bound} for bound in range(1, k + 1)]
            orbits = orbit_partition(group.elements).blocks
            families.append({"ground": k, "refines": [list(b) for b in orbits]})
            families += [
                {"ground": k, "members": [[list(b) for b in p.blocks] for p in family.members]}
                for family in rng.sample(stable_families(k), min(3, len(stable_families(k))))
            ]
            for obj in families:
                family = PartitionFamily.from_json(obj)
                for points in range(3):
                    f = random_map(rng, rng.randint(1, 5))
                    want = oracles._fixed_orbit_count(
                        f, group.elements, k, group.elements, lambda a: fiber_partition(a) in family,
                        points,
                    )[0]
                    assert fixed_partition_orbits(f, group, family, points) == want
                    cases += 1
                    nonzero += want > 0
    assert cases > 300 and nonzero > 150


# ---------------------------------------------------------------------------
# the walks on the periodic part against the walks on the whole map


def shaped_map(rng, cycles, tails):
    """A self-map with disjoint cycles of the given lengths and `tails` more
    points, each sent to a random earlier point, under a random renumbering
    that interleaves the tails with the cycles."""
    table = []
    for length in cycles:
        start = len(table)
        table.extend(start + (i + 1) % length for i in range(length))
    for _ in range(tails):
        table.append(rng.randrange(len(table)))
    name = rng.sample(range(len(table)), len(table))
    mapping = [0] * len(table)
    for x, y in enumerate(table):
        mapping[name[x]] = name[y]
    return FiniteSelfMap(mapping)


def periodic_points(f, lengths):
    """The points x with f^r(x) = x for some r in `lengths`, that is those
    whose least period divides one of them."""

    def returns(x, r):
        y = x
        for _ in range(r):
            y = f(y)
        return y == x

    return [x for x in range(f.size) if any(returns(x, r) for r in lengths)]


def dihedral_group(k):
    """The symmetries of a k-gon: the rotation i -> i + 1 and the reflection i -> -i."""
    rotation = tuple((i + 1) % k for i in range(k))
    return PermutationGroup.from_generators(k, [rotation, tuple(-i % k for i in range(k))])


# the reference's work on one case: maps walked times smash coordinates times elements
PERIODIC_WALK_BUDGET = 60000


def periodic_walk_cases():
    """Seeded (f, group, table, points) cases: the trivial group, C2-C5 and
    D4 with their natural action, the sign action from degree 2 and the
    action on pairs for degrees 2-4; coefficient sizes 0..3 while
    points^k <= 81; three maps each, with tails and 2-4 cycles of lengths
    1..6, drawn again while the reference's work is over the budget."""
    rng = random.Random(3636)
    groups = [trivial_group(k) for k in (1, 3, 5)]
    groups += [cyclic_group(k) for k in range(2, 6)] + [dihedral_group(4)]
    for group in groups:
        tables = [group.elements]
        if group.degree >= 2:
            tables.append(sign_action(group))
        if 2 <= group.degree <= 4:
            tables.append(pair_action(group))
        for table in tables:
            k = len(table[0])
            for points in range(4):
                if points ** k > 81:
                    continue
                for _ in range(3):
                    while True:
                        cycles = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
                        f = shaped_map(rng, cycles, rng.randint(1, 3))
                        walk = sum(1 for _ in oracles._rearranged_maps(f, k))
                        if walk * max(1, points ** k) * len(table) <= PERIODIC_WALK_BUDGET:
                            break
                    yield f, group, table, points


def test_the_orbit_walk_on_the_periodic_part_matches_the_whole_walk():
    # the Burnside cross-check cannot tell a wrong restriction: both counts
    # shrink alike on maps into an f-invariant set, so compare with the
    # reference, which walks the whole map
    rng = random.Random(3637)
    cases = nonzero = dropped = 0
    for f, group, table, points in periodic_walk_cases():
        k = len(table[0])
        part = oracles._periodic_part(f, {r for perm in table for r in perm_cycle_type(perm)})
        # periodic points dropped, not only the tails
        dropped += part.size < len(periodic_points(f, range(1, f.size + 1)))
        if points == 1:
            leaders = [(len(members), table[members[0]]) for members in group.classes]
            want = (orbit_reference.fixed_orbit_count(f, table, k),
                    orbit_reference.burnside_total(f, group, table))
            assert oracles._fixed_orbit_count(f, table, k, table, leaders=leaders) == want
        family = PartitionFamily.refining(orbit_partition(table))
        if k and rng.random() < 0.5:
            family = PartitionFamily.max_block(k, rng.randint(1, k))
        for admissible in (None, lambda a: fiber_partition(a) in family):
            want = orbit_reference.fixed_orbit_count(f, table, k, admissible, points)
            assert oracles._fixed_orbit_count(f, table, k, table, admissible, points) == (want, 0)
            nonzero += want > 0
        cases += 1
    assert cases > 200 and dropped > 150 and nonzero > 120


def test_the_periodic_part_keeps_the_points_whose_period_divides_a_length():
    rng = random.Random(3638)
    for _ in range(300):
        cycles = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        f = shaped_map(rng, cycles, rng.randint(0, 4))
        lengths = set(rng.sample(range(1, 8), rng.randint(0, 3)))
        kept = periodic_points(f, lengths)
        index = {x: i for i, x in enumerate(kept)}
        assert oracles._periodic_part(f, lengths) == FiniteSelfMap([index[f(x)] for x in kept])
    # the length of C4's generator keeps the 2-cycle (0 1), not the tail
    # point 2 or the 3-cycle (7 8 9), and renumbers the 4-cycle (3 4 5 6)
    f = FiniteSelfMap([1, 0, 0, 4, 5, 6, 3, 8, 9, 7])
    assert oracles._periodic_part(f, {4}) == FiniteSelfMap([1, 0, 3, 4, 5, 2])
    assert oracles._periodic_part(f, {1, 2, 3, 4}) == FiniteSelfMap([1, 0, 3, 4, 5, 2, 7, 8, 6])


def test_a_periodic_part_that_drops_a_divisor_fails_its_test(monkeypatch):
    monkeypatch.setattr(
        oracles, "_periodic_part", mutated(oracles._periodic_part, "r % p == 0", "r == p")
    )
    with pytest.raises(AssertionError):
        test_the_periodic_part_keeps_the_points_whose_period_divides_a_length()


@pytest.mark.parametrize("oracle, kind", [
    ("fixed_bounded_multisets", "multisets"), ("fixed_invariant_subsets", "subsets")])
def test_a_multiset_walk_without_the_k_cycles_fails_the_walk_tests(monkeypatch, oracle, kind):
    old, new = "_periodic_part(f, range(1, k + 1))", "_periodic_part(f, range(1, k))"
    monkeypatch.setattr(oracles, oracle, mutated(getattr(oracles, oracle), old, new))
    assert first_mismatch_of(kind) is not None


def test_the_burnside_cross_check_misses_a_walk_on_too_few_points(monkeypatch):
    # walking the fixed points of f alone, both counts shrink alike
    f = FiniteSelfMap([1, 0, 2])
    group = PermutationGroup.symmetric(2)
    assert fixed_gmap_space(f, group) == reference_partition_orbits(
        f, group, PartitionFamily.full(2)) == 2
    monkeypatch.setattr(oracles, "_fixed_orbit_count", mutated(
        oracles._fixed_orbit_count, "for r in perm_cycle_type(perm)}", "for r in (1,)}"))
    assert fixed_gmap_space(f, group) == 1


def test_the_orbit_walk_visits_the_periodic_part_alone(monkeypatch):
    walked = []
    rearranged = oracles._rearranged_maps

    def counted(f, k):
        for a in rearranged(f, k):
            walked.append(a)
            yield a

    monkeypatch.setattr(oracles, "_rearranged_maps", counted)
    # the map of `verify gsymm 10^5`: cycles of lengths 3, 2, 1, 1 and three
    # tail points; the trivial group walks the 2^5 maps into Fix f
    f = FiniteSelfMap([1, 2, 0, 4, 3, 5, 6, 0, 3, 5])
    assert fixed_gmap_space(f, trivial_group(5)) == len(walked) == 2 ** 5
    # S_k with f the identity drops nothing: f itself is walked, all n^k maps
    f = identity_map(4)
    table = PermutationGroup.symmetric(3).elements
    assert oracles._periodic_part(f, {r for perm in table for r in perm_cycle_type(perm)}) is f
    walked.clear()
    fixed_gmap_space(f, PermutationGroup.symmetric(3))
    assert len(walked) == 4 ** 3


def test_the_cycle_lengths_are_read_once_per_conjugacy_class(monkeypatch):
    # S4: 24 elements in 5 classes, so 5 perms read where each table entry was
    read = []

    def counted(perm):
        read.append(perm)
        return perm_cycle_type(perm)

    monkeypatch.setattr(oracles, "perm_cycle_type", counted)
    group = PermutationGroup.symmetric(4)
    # a 2-cycle, a fixed point and a tail point; the natural action and the
    # action on the 6 unordered pairs
    f = FiniteSelfMap([1, 0, 2, 2])
    for table, k, points in ((None, 4, 2), (pair_action(group), 6, None)):
        families = [PartitionFamily.full(k), PartitionFamily.max_block(k, 2)]
        read.clear()
        assert fixed_gmap_space(f, group, table) == reference_partition_orbits(
            f, group, families[0], None, table)
        assert len(read) == 5
        for family in families:
            read.clear()
            assert fixed_partition_orbits(f, group, family, points or 1, table) == (
                reference_partition_orbits(f, group, family, points, table))
            assert len(read) == 5

    # the five leaders show every cycle type of the pair action's table
    def types(perms):
        return {tuple(sorted(perm_cycle_type(perm).items())) for perm in perms}

    assert types(read) == types(pair_action(group)) == {
        ((1, 6),), ((1, 2), (2, 2)), ((3, 2),), ((2, 1), (4, 1))}


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


# the full product of the rearranged-map reference is walked up to this size
REARRANGED_BUDGET = 8 ** 5


def multiset_walk_cases():
    """Seeded maps of up to 10 points, empty and identity maps among them,
    each with every size k <= 7, smallest cases first."""
    maps = [FiniteSelfMap([]), identity_map(1), identity_map(4), FiniteSelfMap([1, 0, 2, 2])]
    maps += seeded_maps(1414, 30, 8) + seeded_maps(1818, 12, 10, min_size=9)
    maps.append(FiniteSelfMap([1, 2, 0, 4, 5, 3, 7, 6, 8, 9]))  # cycles 3, 3, 2, 1, 1
    return sorted(
        ((f, k) for f in maps for k in range(8)),
        key=lambda case: comb(case[0].size + case[1], case[1]),
    )


@cache
def reference(kind, f, k, bound=None):
    """A reference count, or set of maps, computed once per case."""
    if kind == "rearranged maps":
        return set(reference_rearranged_maps(f, k))
    if kind == "subsets":
        return reference_invariant_subsets(f, k)
    if kind == "multisets":
        return reference_bounded_multisets(f, k, bound)
    return reference_bounded_tuples(f, k, bound)


def references(kind, f, k, bound=None):
    """The reference counts of one kind at every size j <= k."""
    return tuple(reference(kind, f, j, bound) for j in range(k + 1))


def multiset_walk_mismatches():
    """The cases where a multiset or tuple walk disagrees with its
    reference, one by one, as they are found."""
    for f, k in multiset_walk_cases():
        if f.size ** k <= REARRANGED_BUDGET:
            maps = list(oracles._rearranged_maps(f, k))
            if len(maps) != len(set(maps)) or set(maps) != reference("rearranged maps", f, k):
                yield ("rearranged maps", f.mapping, k)
        # each series oracle's whole tuple, against the reference at every size j <= k
        if oracles.fixed_invariant_subsets(f, k) != references("subsets", f, k):
            yield ("subsets", f.mapping, k)
        for bound in (None, 1, 2, 3):
            if oracles.fixed_bounded_multisets(f, k, bound) != references("multisets", f, k, bound):
                yield ("multisets", f.mapping, k, bound)
            if oracles.fixed_bounded_tuples(f, k, bound) != references("tuples", f, k, bound):
                yield ("tuples", f.mapping, k, bound)


def first_mismatch_of(kind):
    """The first mismatch of the given kind, or None."""
    return next((case for case in multiset_walk_mismatches() if case[0] == kind), None)


def test_arrangements_are_each_distinct_ordering_once_in_order():
    rng = random.Random(1)
    for _ in range(200):
        values = tuple(sorted(rng.randrange(4) for _ in range(rng.randint(0, 6))))
        assert list(oracles._arrangements(values)) == sorted(set(permutations(values)))


def test_multiset_walks_match_the_full_walks():
    cases = multiset_walk_cases()
    assert any(f.size == 0 for f, _ in cases) and max(f.size for f, _ in cases) == 10
    assert {k for _, k in cases} == set(range(8))
    assert list(multiset_walk_mismatches()) == []


def mutated(function, old, new):
    """`function` compiled again from its source, with the one occurrence of
    `old` replaced by `new`, in its own module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


WALK_MUTANTS = {
    "prune at y <= x": ("y < x and d[y] <= 0", "y <= x and d[y] <= 0"),
    "cap off by one": ("run < cap", "run <= cap"),
    "break at d[x] <= 0": ("if d[x] < 0:", "if d[x] <= 0:"),
}


@pytest.mark.parametrize("old, new", WALK_MUTANTS.values(), ids=list(WALK_MUTANTS))
def test_a_wrong_multiset_walk_fails_the_walk_tests(monkeypatch, old, new):
    monkeypatch.setattr(
        oracles, "_fixed_multiset_walk", mutated(oracles._fixed_multiset_walk, old, new)
    )
    assert first_mismatch_of("multisets") is not None


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
    assert first_mismatch_of("rearranged maps") is not None


TUPLE_MUTANTS = {
    "cap off by one": ("uses[x] < cap", "uses[x] <= cap"),
    "first fixed point skipped": ("for x in fixed:", "for x in fixed[1:]:"),
    "counted at the wrong depth": ("counts[length] += 1", "counts[length - 1] += 1"),
    "free count off by one": ("free = len(fixed)", "free = len(fixed) - 1"),
}


@pytest.mark.parametrize("old, new", TUPLE_MUTANTS.values(), ids=list(TUPLE_MUTANTS))
def test_a_wrong_tuple_walk_fails_the_walk_tests(monkeypatch, old, new):
    monkeypatch.setattr(
        oracles, "fixed_bounded_tuples", mutated(oracles.fixed_bounded_tuples, old, new)
    )
    assert first_mismatch_of("tuples") is not None


def test_a_subset_sum_that_drops_a_size_fails_the_walk_tests(monkeypatch):
    old, new = "sizes[j] for j", "sizes[j] * (j != 2) for j"
    monkeypatch.setattr(
        oracles, "fixed_invariant_subsets", mutated(oracles.fixed_invariant_subsets, old, new)
    )
    assert first_mismatch_of("subsets") is not None


# ---------------------------------------------------------------------------
# the guards count the nominal candidate space, not the smaller walk


GUARDED = [
    ("multisets", lambda f: fixed_bounded_multisets(f, 5, 2), comb(14, 5)),
    ("subsets", lambda f: fixed_invariant_subsets(f, 3), 10 + 45 + 120),
    ("tuples", lambda f: fixed_bounded_tuples(f, 5, 2), 4 ** 5),
    ("gmap", lambda f: fixed_gmap_space(f, trivial_group(5)), 10 ** 5),
    ("partition", lambda f: fixed_partition_orbits(
        f, PermutationGroup.symmetric(4), PartitionFamily.full(4)), 10 ** 4),
]


@pytest.mark.parametrize("name, oracle, nominal", GUARDED, ids=[c[0] for c in GUARDED])
def test_guards_count_the_nominal_space(name, oracle, nominal, monkeypatch):
    # four fixed points and a 6-cycle: the walks visit a small part of the space
    f = FiniteSelfMap([0, 1, 2, 3, 5, 6, 7, 8, 9, 4])
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", str(nominal - 1))
    with pytest.raises(EnumerationLimitError) as refused:
        oracle(f)
    assert (refused.value.size, refused.value.limit) == (nominal, nominal - 1)
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", str(nominal))
    oracle(f)
