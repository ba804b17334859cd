"""Partition lattice, stable families, permutation groups, and the minimal
excluded steps of the reference family recursion."""

import random

import pytest

from doldzeta import (
    NotRefinementClosedError,
    PartitionFamily,
    PermutationGroup,
    SetPartition,
    all_partitions,
    general_lefschetz_polynomial,
)
from doldzeta.oracles import fixed_partition_orbits
from doldzeta.partitions import (
    _require_stable,
    compose_perms,
    fiber_partition,
    invert_perm,
    perm_cycle_type,
    validate_gset,
)

from conftest import (
    direct_product,
    family_from_predicate,
    seeded_maps,
    stable_families,
    trivial_group,
)
from family_recursion import (
    NoExcludedPartitionError,
    discrete_only,
    is_full,
    minimal_excluded_step,
)


def whole_partition(k):
    """The partition of k points with one block."""
    return SetPartition([list(range(k))])


def bell(k):
    # Bell numbers by the standard triangle recurrence, independent of the
    # partition generator under test
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class TestLattice:
    def test_discrete_refines_everything(self):
        d = SetPartition.discrete(4)
        for p in all_partitions(4):
            assert d.refines(p)

    def test_counts_match_bell_numbers(self):
        for k in range(1, 7):
            assert len(all_partitions(k)) == bell(k)

    def test_canonicalization_idempotent(self):
        p = SetPartition([[2, 0], [1]])
        q = SetPartition([list(b) for b in p.blocks])
        assert p == q and hash(p) == hash(q)

    def test_refines_is_partial_order(self):
        parts = all_partitions(4)
        for a in parts:
            assert a.refines(a)
        for a in parts:
            for b in parts:
                if a.refines(b) and b.refines(a):
                    assert a == b

    def test_mismatched_grounds_rejected(self):
        with pytest.raises(ValueError):
            SetPartition.discrete(2).refines(SetPartition.discrete(3))

    def test_non_integer_block_entries_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match="an entry of a partition block must be an integer, got 1.9"):
            SetPartition([[0, 1.9], [2]])
        assert SetPartition([[0, 1.0], [2]]) == SetPartition([[0, 1], [2]])

    def test_fiber_partition(self):
        assert fiber_partition((5, 5, 7)) == SetPartition([[0, 1], [2]])


class TestFamilies:
    def test_full_family_block_counts(self):
        # Stirling numbers of the second kind for k = 3: 1, 3, 1
        assert PartitionFamily.full(3).block_counts() == (1, 3, 1)

    def test_singleton_blocks_only(self):
        fam = PartitionFamily.max_block(3, 1)
        assert len(fam) == 1
        assert fam.block_counts() == (0, 0, 1)

    def test_pairs_on_four_points(self):
        fam = PartitionFamily.max_block(4, 2)
        assert fam.block_counts() == (0, 3, 6, 1)

    def test_from_predicate_validates(self):
        good = family_from_predicate(3, lambda p: p.block_count >= 2)
        assert len(good) == 4
        with pytest.raises(NotRefinementClosedError) as info:
            family_from_predicate(3, lambda p: p.block_count == 1)
        assert info.value.member.block_count == 1

    def test_witness_pair_reported(self):
        whole = whole_partition(3)
        discrete = SetPartition.discrete(3)
        with pytest.raises(NotRefinementClosedError) as info:
            PartitionFamily(3, [whole, discrete])
        assert info.value.member == whole
        assert info.value.missing in all_partitions(3)

    def test_validate_family_accepts_monotone_predicates(self):
        # the validating constructor accepts what the unchecked ones build
        for k in (2, 3, 4):
            for bound in range(1, k + 1):
                fam = PartitionFamily.max_block(k, bound)
                assert PartitionFamily(k, fam.members) == fam
                assert fam.is_stable_under(PermutationGroup.symmetric(k).elements)
        target = SetPartition([[0, 1], [2, 3]])
        fam = PartitionFamily.refining(target)
        assert PartitionFamily(4, fam.members) == fam
        assert fam.block_counts() == (0, 1, 2, 1)

    def test_stability_check(self):
        target = SetPartition([[0, 1], [2]])
        fam = PartitionFamily.refining(target)
        s3 = PermutationGroup.symmetric(3)
        assert not fam.is_stable_under(s3.elements)
        with pytest.raises(ValueError, match="not stable"):
            general_lefschetz_polynomial(s3, fam)

    def test_json_round_trip(self):
        fam = PartitionFamily.max_block(3, 2)
        members = [[[0], [1], [2]], [[0, 1], [2]], [[0, 2], [1]], [[0], [1, 2]]]
        assert PartitionFamily.from_json({"ground": 3, "members": members}) == fam
        assert PartitionFamily.from_json({"ground": 3, "max_block": 2}) == fam
        ref = PartitionFamily.from_json({"ground": 4, "refines": [[0, 1], [2, 3]]})
        assert ref == PartitionFamily.refining(SetPartition([[0, 1], [2, 3]]))


class TestGroups:
    def test_identity_cycle_data(self):
        assert perm_cycle_type((0, 1, 2)) == {1: 3}

    def test_transposition_cycle_data(self):
        assert perm_cycle_type((1, 0)) == {2: 1}

    def test_cycle_data_is_class_function(self):
        group = PermutationGroup.symmetric(4)
        rng = random.Random(11)
        for _ in range(50):
            g = rng.choice(group.elements)
            h = rng.choice(group.elements)
            conj = compose_perms(compose_perms(h, g), invert_perm(h))
            assert perm_cycle_type(g) == perm_cycle_type(conj)

    def test_closure_from_generators(self):
        g = PermutationGroup.from_generators(3, [(1, 2, 0)])
        assert g.order == 3
        assert PermutationGroup.from_generators(4, [(1, 0, 2, 3), (0, 2, 1, 3)]).order == 6

    def test_closure_cap(self):
        with pytest.raises(ValueError):
            PermutationGroup.from_generators(
                6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], max_order=100
            )

    def test_invalid_element_set_rejected(self):
        with pytest.raises(ValueError):
            PermutationGroup(3, [(0, 1, 2), (1, 2, 0)])  # not closed

    def test_orbit_stabilizer_on_a_pairing(self):
        group = PermutationGroup.symmetric(4)
        pairing = SetPartition([[0, 1], [2, 3]])
        # everything but the pairings and {K}: the pairings are the minimal
        # partitions outside, and this one is the least of them
        fam = family_from_predicate(
            4, lambda p: sorted(map(len, p.blocks)) not in ([2, 2], [4])
        )
        step = minimal_excluded_step(fam, group)
        assert step.partition == pairing
        orbit_size = len(step.extended_family) - len(fam)
        assert orbit_size == 3
        assert len(step.stabilizer) == 8
        assert orbit_size * len(step.stabilizer) == group.order

    def test_direct_product(self):
        s2 = PermutationGroup.symmetric(2)
        prod = direct_product(s2, s2)
        assert prod.degree == 4 and prod.order == 4

    def test_a_checked_table_is_checked_again_only_for_another_group(self, action_checks):
        s3 = PermutationGroup.symmetric(3)
        table = validate_gset(s3, s3.elements)
        assert validate_gset(s3, table, 3) is table
        assert validate_gset(PermutationGroup.symmetric(3), table) is table
        assert len(action_checks) == 1
        with pytest.raises(ValueError, match="permutes 3 points, not the 2"):
            validate_gset(s3, table, 2)
        # the same six permutations, read as a table for the cyclic group of
        # order 6, which is not isomorphic to S3
        c6 = PermutationGroup.from_generators(5, [(1, 2, 0, 4, 3)])
        with pytest.raises(ValueError, match="not a homomorphism"):
            validate_gset(c6, table)
        assert len(action_checks) == 2

    def test_a_stable_family_is_checked_again_only_for_another_table(self, stability_checks):
        s3 = PermutationGroup.symmetric(3)
        table = validate_gset(s3, None, 3)
        family = _require_stable(PartitionFamily.max_block(3, 2), s3, table)
        assert _require_stable(family, s3, table) is family
        assert _require_stable(family, s3, validate_gset(s3, None, 3)) is family
        assert family == PartitionFamily.max_block(3, 2)
        assert len(stability_checks) == 1
        # S3 acting through the sign: swapping 0 and 1 on two of the three points
        sign = validate_gset(s3, [(0, 1, 2) if not perm_cycle_type(g).get(2) else (1, 0, 2)
                                  for g in s3.elements])
        assert _require_stable(family, s3, sign) is not family
        assert len(stability_checks) == 2

    def test_an_unchecked_unstable_family_is_refused(self, stability_checks):
        c3 = PermutationGroup.from_generators(3, [(1, 2, 0)])
        family = PartitionFamily(3, [SetPartition.discrete(3), SetPartition([[0, 1], [2]])])
        f = seeded_maps(11, 1, 3, min_size=2)[0]
        with pytest.raises(ValueError, match="not stable"):
            general_lefschetz_polynomial(c3, family)
        with pytest.raises(ValueError, match="not stable"):
            fixed_partition_orbits(f, c3, family)
        assert len(stability_checks) == 2

    def test_json_round_trip(self):
        elements = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
        g = PermutationGroup.from_json({"degree": 3, "elements": elements})
        assert g == PermutationGroup.symmetric(3)
        gen = PermutationGroup.from_json({"degree": 3, "generators": [[1, 2, 0]]})
        assert gen.order == 3


class TestMinimalStep:
    def test_two_points_trivial_group(self):
        fam = discrete_only(2)
        step = minimal_excluded_step(fam, trivial_group(2))
        assert step.partition == whole_partition(2)
        assert is_full(step.extended_family)
        assert step.block_ground == 1

    def test_three_points_symmetric(self):
        fam = PartitionFamily.max_block(3, 1)
        step = minimal_excluded_step(fam, PermutationGroup.symmetric(3))
        assert step.partition.block_count == 2
        assert len(step.extended_family) - len(fam) == 3
        assert len(step.extended_family) == 4
        assert step.extended_family == PartitionFamily.max_block(3, 2)

    def test_four_points_pairs_family(self):
        fam = PartitionFamily.max_block(4, 2)
        step = minimal_excluded_step(fam, PermutationGroup.symmetric(4))
        assert sorted(len(b) for b in step.partition.blocks) == [1, 3]
        assert step.block_ground == 2
        # every proper refinement of the chosen partition is in the family
        from doldzeta.partitions import refinements_of

        for finer in refinements_of(step.partition):
            if finer != step.partition:
                assert finer in fam

    def test_full_family_has_no_step(self):
        with pytest.raises(NoExcludedPartitionError):
            minimal_excluded_step(PartitionFamily.full(3), PermutationGroup.symmetric(3))

    def test_induced_block_action_loses_no_elements(self):
        # the stabilizer can act non-faithfully on the blocks; the Burnside
        # average still runs over the whole stabilizer
        fam = discrete_only(2)
        step = minimal_excluded_step(fam, PermutationGroup.symmetric(2))
        assert len(step.stabilizer) == 2
        assert set(step.block_action) == {(0,)}

    def test_recursion_terminates_on_all_small_families(self):
        # every stable family on k <= 4 reaches the full lattice by repeated
        # steps, while the block branch strictly shrinks the ground set
        for k in (2, 3, 4):
            group = PermutationGroup.symmetric(k)
            families = stable_families(k)
            for fam in families:
                current = fam
                guard = 0
                while not is_full(current):
                    step = minimal_excluded_step(current, group)
                    assert len(step.extended_family) > len(current)
                    assert step.block_ground < k
                    current = step.extended_family
                    guard += 1
                    assert guard < 60


def test_stable_family_census():
    # downward-closed unions of symmetric-group orbits: the orbit classes are
    # the integer partitions of k ordered by refinement
    assert len(stable_families(2)) == 2
    assert len(stable_families(3)) == 3
    assert len(stable_families(4)) == 6
