"""Group checks on a generating set, the conjugacy classes, the class-summed
Burnside average and the class-weighted Burnside cross-check, each against
the slow path it replaced, on seeded random inputs.

The references below are the |G|^2 closure and homomorphism loops, the
conjugates of each element by every element, and the per-element Burnside
sums; the fast paths must give the same accept/reject outcome, the same
classes, the same polynomial and the same count."""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations
from math import comb

import pytest

from doldzeta import (
    FiniteSelfMap,
    PartitionFamily,
    PermutationGroup,
    SetPartition,
    fixed_gmap_space,
    fixed_partition_orbits,
    general_lefschetz_polynomial,
    gsymm_polynomial,
)
from doldzeta import identities, oracles, partitions
from doldzeta.identities import _class_sum, _divisor_sum_linear, _validate_traces
from doldzeta.multipoly import MultiPoly
from doldzeta.partitions import (
    _smaller_side,
    all_partitions,
    identity_perm,
    invert_perm,
    perm_cycle_type,
    refinements_of,
    validate_gset,
)

from partitions_reference import compose_perms
import group_average_reference as reference
from conftest import (
    identity_map,
    pair_action,
    random_map,
    random_subgroup,
    seeded_maps,
    trivial_group,
)
from family_recursion import minimal_excluded_step


# ---------------------------------------------------------------------------
# references: the loops the fast paths replaced


def closed_by_all_products(degree, elements):
    """True when the element list passes the |G|^2 group check."""
    elements = {tuple(e) for e in elements}
    ident = identity_perm(degree)
    if any(sorted(e) != list(ident) for e in elements) or ident not in elements:
        return False
    return all(compose_perms(g, h) in elements for g in elements for h in elements)


def homomorphism_by_all_products(group, gset):
    """True when the action table passes the |G|^2 homomorphism check."""
    size = len(gset[0]) if gset else 0
    if len(gset) != group.order or any(sorted(p) != list(range(size)) for p in gset):
        return False
    table = dict(zip(group.elements, gset))
    return all(
        table[compose_perms(g, h)] == compose_perms(table[g], table[h])
        for g in group.elements
        for h in group.elements
    )


def burnside_by_elements(group, gset, traces):
    """One product per group element, as before the cycle-index collapse."""
    k = len(gset[0]) if gset else 0
    total = MultiPoly.zero(k)
    for g, perm in zip(group.elements, gset):
        weight = traces[invert_perm(g)] if traces is not None else Fraction(1)
        if weight == 0:
            continue
        term = MultiPoly.constant(weight, k)
        for n, count in perm_cycle_type(perm).items():
            term = term * _divisor_sum_linear(n, k) ** count
        total = total + term
    return total / group.order


def gmap_burnside_by_elements(f, gset):
    """(1/|G|) sum_g #{a : f o a = a o g}, one count per group element over
    the candidates f o a can equal a o g for, as before the classes."""
    k = len(gset[0])
    push = f.mapping.__getitem__
    total = 0
    for a in oracles._rearranged_maps(f, k):
        get = a.__getitem__
        images = [tuple(map(get, perm)) for perm in gset]
        total += images.count(tuple(map(push, a)))
    assert total % len(gset) == 0
    return total // len(gset)


def accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# random inputs


def sign_action(group):
    """The sign character as an action on two points (not faithful)."""
    def odd(g):
        return sum((n - 1) * c for n, c in perm_cycle_type(g).items()) % 2

    return tuple((1, 0) if odd(g) else (0, 1) for g in group.elements)


def block_action(rng, degree):
    """A stabilizer with its induced, generally non-faithful, action on the
    blocks of a minimal excluded partition of a random block-bound family,
    as the reference family recursion finds it."""
    group = random_subgroup(rng, degree)
    family = PartitionFamily.max_block(degree, rng.randint(1, degree - 1))
    step = minimal_excluded_step(family, group)
    return PermutationGroup(degree, step.stabilizer), step.block_action


def random_actions(rng, count):
    """(group, table) pairs, each a homomorphism."""
    out = []
    for _ in range(count):
        degree = rng.randint(3, 5)
        kind = rng.randrange(4)
        if kind == 3:
            out.append(block_action(rng, degree))
            continue
        group = random_subgroup(rng, degree)
        table = (group.elements, pair_action(group), sign_action(group))[kind]
        out.append((group, tuple(table)))
    return out


# ---------------------------------------------------------------------------
# PermutationGroup: closure on a generating set


def test_closed_groups_accepted_like_the_reference():
    rng = random.Random(101)
    for _ in range(60):
        group = random_subgroup(rng, rng.randint(3, 5))
        elements = list(group.elements)
        rng.shuffle(elements)
        assert closed_by_all_products(group.degree, elements)
        rebuilt = PermutationGroup(group.degree, elements)
        assert rebuilt == group
        assert PermutationGroup.from_generators(group.degree, rebuilt.generators) == group


def test_subsets_with_the_identity_judged_like_the_reference():
    rng = random.Random(202)
    outcomes = set()
    for _ in range(300):
        degree = rng.randint(3, 5)
        ident = identity_perm(degree)
        if rng.random() < 0.5:
            # a subgroup with one element removed or one foreign element added
            elements = set(random_subgroup(rng, degree).elements)
            if len(elements) > 1 and rng.random() < 0.5:
                elements.discard(rng.choice(sorted(elements - {ident})))
            else:
                elements.add(tuple(rng.sample(range(degree), degree)))
        else:
            every = list(permutations(range(degree)))
            elements = set(rng.sample(every, rng.randint(1, 6))) | {ident}
        expected = closed_by_all_products(degree, elements)
        outcomes.add(expected)
        assert accepts(PermutationGroup, degree, elements) == expected
    assert outcomes == {True, False}


def test_generating_set_is_small_and_generates():
    for k in range(1, 7):
        group = PermutationGroup.symmetric(k)
        gens = group.generators
        assert 2 ** len(gens) <= group.order
        assert PermutationGroup.from_generators(k, gens) == group
    assert trivial_group(4).generators == ()


def test_symmetric_groups_are_closed_from_a_cycle_and_a_transposition():
    for k in range(1, 7):
        group = PermutationGroup.symmetric(k)
        assert group == PermutationGroup(k, permutations(range(k)))
        if k >= 3:
            cycle = tuple((i + 1) % k for i in range(k))
            assert group.generators == (cycle, (1, 0) + tuple(range(2, k)))
    assert PermutationGroup.symmetric(2).generators == ((1, 0),)
    assert PermutationGroup.symmetric(1).generators == ()
    with pytest.raises(ValueError, match=r"^group closure exceeded the order cap 720$"):
        PermutationGroup.symmetric(7)


# ---------------------------------------------------------------------------
# validate_gset: the homomorphism law on a generating set


def perturbed(rng, table):
    """A shuffled, mis-ordered, corrupted or inverted copy of a table."""
    table = list(table)
    kind = rng.randrange(4)
    if kind == 0:
        rng.shuffle(table)
    elif kind == 1 and len(table) > 1:
        i, j = rng.sample(range(len(table)), 2)
        table[i], table[j] = table[j], table[i]
    elif kind == 2:
        size = len(table[0])
        table[rng.randrange(len(table))] = tuple(rng.sample(range(size), size))
    else:
        table = [invert_perm(p) for p in table]
    return tuple(table)


def test_correct_tables_accepted():
    rng = random.Random(303)
    for group, table in random_actions(rng, 80):
        assert homomorphism_by_all_products(group, table)
        assert validate_gset(group, table) == table
        # a relabelling of the points is a homomorphism too
        size = len(table[0])
        c = tuple(rng.sample(range(size), size))
        relabelled = tuple(compose_perms(compose_perms(c, p), invert_perm(c)) for p in table)
        assert accepts(validate_gset, group, relabelled)


def test_perturbed_tables_judged_like_the_reference():
    rng = random.Random(404)
    outcomes = set()
    for group, table in random_actions(rng, 200):
        bad = perturbed(rng, table)
        expected = homomorphism_by_all_products(group, bad)
        outcomes.add(expected)
        assert accepts(validate_gset, group, bad) == expected
    assert outcomes == {True, False}


@pytest.mark.parametrize("table", [((1, 0),), ((1, 2, 0),), ((0, 2, 1),)])
def test_trivial_group_needs_the_identity_table(table):
    group = trivial_group(3)
    assert group.generators == ()
    assert not homomorphism_by_all_products(group, table)
    with pytest.raises(ValueError, match="not a homomorphism"):
        validate_gset(group, table)
    assert validate_gset(group, (identity_perm(len(table[0])),))


def test_action_on_the_wrong_ground_refused_alike():
    # S2 acting on 3 points, asked to act on the 2 points of the family
    group = PermutationGroup.symmetric(2)
    table = ((0, 1, 2), (1, 0, 2))
    family = PartitionFamily.full(2)
    messages = []
    for call in (
        lambda: general_lefschetz_polynomial(group, family, gset=table),
        lambda: fixed_partition_orbits(FiniteSelfMap([1, 0]), group, family, gset=table),
    ):
        with pytest.raises(ValueError) as info:
            call()
        messages.append(str(info.value))
    assert messages == ["the action table permutes 3 points, not the 2 of the ground set"] * 2


def test_natural_action_needs_the_group_degree():
    family = PartitionFamily.full(2)
    for call in (
        lambda: general_lefschetz_polynomial(PermutationGroup.symmetric(3), family),
        lambda: fixed_partition_orbits(
            FiniteSelfMap([0]), PermutationGroup.symmetric(3), family
        ),
    ):
        with pytest.raises(ValueError, match="group degree 3 does not match the ground size 2"):
            call()


# ---------------------------------------------------------------------------
# the Burnside average summed by cycle type


def class_function(rng, group):
    """A random integer trace for each conjugacy class, on its elements."""
    traces = {}
    for members in group.classes:
        value = rng.randint(-2, 2)
        traces.update((group.elements[i], value) for i in members)
    return traces


def test_class_sum_matches_the_per_element_sum():
    rng = random.Random(505)
    for group, table in random_actions(rng, 60):
        traces = None
        if rng.random() < 0.75:
            traces = class_function(rng, group)
        assert _class_sum(group, table, _validate_traces(group, traces)) == burnside_by_elements(
            group, table, traces
        )


def test_class_sum_with_all_weights_zero():
    group = PermutationGroup.symmetric(4)
    traces = {g: 0 for g in group.elements}
    assert _class_sum(group, group.elements, _validate_traces(group, traces)).is_zero


# ---------------------------------------------------------------------------
# the smaller side of a family: its members added, or its excluded
# partitions subtracted from the group average


def small_actions(rng, count):
    """(group, table) pairs of degree <= 5 on at most 6 points: the natural
    action, the action on pairs of 3 or 4 points, the sign, and a
    stabilizer on the blocks of a partition."""
    out = []
    for _ in range(count):
        degree = rng.randint(2, 5)
        kind = rng.randrange(4)
        if kind == 3:
            out.append(block_action(rng, degree))
            continue
        group = random_subgroup(rng, degree)
        if kind == 1 and degree <= 4:
            out.append((group, pair_action(group)))
        elif kind == 2:
            out.append((group, sign_action(group)))
        else:
            out.append((group, group.elements))
    return out


def random_family(rng, k, table=()):
    """A block bound on k points, the refinements of one partition or of a
    few (a member list); with a table, the partitions are closed under it
    first, so that the family is stable."""
    kind = rng.randrange(3)
    if kind == 0:
        return PartitionFamily.max_block(k, rng.randint(1, k))
    lattice = all_partitions(k)
    picks = rng.sample(lattice, 1 if kind == 1 else min(len(lattice), rng.randint(2, 4)))
    if kind == 1 and not table:
        return PartitionFamily.refining(picks[0])
    picks = [p.apply(perm) for p in picks for perm in table] or picks
    return PartitionFamily(k, {q for p in picks for q in refinements_of(p)})


def test_both_sides_of_a_family_give_the_per_element_sum():
    rng = random.Random(808)
    sides = set()
    for group, table in small_actions(rng, 60):
        k = len(table[0])
        family = random_family(rng, k, table)
        traces = class_function(rng, group) if rng.random() < 0.75 else None
        expected = reference.general_lefschetz_polynomial(group, family, traces, table).poly
        checked = _validate_traces(group, traces)
        members = sorted(family.members)
        excluded = [p for p in all_partitions(k) if p not in family.members]
        assert _class_sum(group, table, checked, members, True) == expected
        assert _class_sum(group, table, checked, excluded) == expected
        assert general_lefschetz_polynomial(group, family, traces, table).poly == expected
        sides.add(_smaller_side(family)[1])
    assert sides == {True, False}


def test_the_complement_check_agrees_with_the_member_check():
    rng = random.Random(909)
    seen = set()
    for _ in range(300):
        k = rng.randint(1, 6)
        family = random_family(rng, k)
        perms = [tuple(rng.sample(range(k), k)) for _ in range(rng.randint(1, 3))]
        stable = all(p.apply(perm) in family.members for p in family.members for perm in perms)
        assert family.is_stable_under(perms) == stable
        side, inside = _smaller_side(family)
        assert side == [p for p in all_partitions(k) if (p in family.members) == inside]
        assert len(side) == min(len(family.members), len(all_partitions(k)) - len(family.members))
        seen.add((inside, stable))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


EIGHT_POINT_GROUPS = {
    "C8": [tuple((x + 1) % 8 for x in range(8))],
    "C2^3": [tuple(x ^ bit for x in range(8)) for bit in (1, 2, 4)],
}


def listed_max_block(k, bound):
    """max_block(k, bound) as a member list: a family the stability check
    walks, where the one `max_block` builds comes marked as stable under
    every action."""
    return PartitionFamily(k, PartitionFamily.max_block(k, bound).members)


@pytest.mark.parametrize("bound, side", [(1, 1), (2, 764), (7, 1)])
@pytest.mark.parametrize("name", sorted(EIGHT_POINT_GROUPS))
def test_eight_points_cost_the_smaller_side_of_the_family(monkeypatch, name, bound, side):
    # max_block(8, 1) has 1 member and 4139 excluded partitions, (8, 2) has
    # 764 members and 3376 excluded, (8, 7) 4139 members and 1 excluded
    group = PermutationGroup.from_generators(8, EIGHT_POINT_GROUPS[name])
    family = listed_max_block(8, bound)
    expected = reference.general_lefschetz_polynomial(group, family).poly
    summed, applied = [], []
    class_sum, apply = identities._class_sum, SetPartition.apply

    def counted_sum(group, gset, traces, partitions=(), inside=False):
        summed.append(len(partitions))
        return class_sum(group, gset, traces, partitions, inside)

    def counted_apply(partition, perm):
        applied.append(perm)
        return apply(partition, perm)

    monkeypatch.setattr(identities, "_class_sum", counted_sum)
    monkeypatch.setattr(SetPartition, "apply", counted_apply)
    assert general_lefschetz_polynomial(group, family).poly == expected
    assert summed == [side]
    assert Counter(applied) == dict.fromkeys(group.generators, side)
    # the family `max_block` builds sums the same side and walks none
    assert general_lefschetz_polynomial(group, PartitionFamily.max_block(8, bound)).poly == expected
    assert summed == [side, side]
    assert Counter(applied) == dict.fromkeys(group.generators, side)


@pytest.mark.parametrize("bound", [1, 2, 7])
def test_an_unmarked_family_finds_its_smaller_side_once(monkeypatch, stability_checks, bound):
    # the stability check finds the side, and the marked family carries it
    # to the class sum; a family marked by an earlier check finds none
    group = PermutationGroup.from_generators(8, EIGHT_POINT_GROUPS["C8"])
    expected = reference.general_lefschetz_polynomial(group, PartitionFamily.max_block(8, bound)).poly
    family = listed_max_block(8, bound)
    sides = []

    def counted_side(family):
        sides.append(family)
        return _smaller_side(family)

    monkeypatch.setattr(partitions, "_smaller_side", counted_side)
    monkeypatch.setattr(identities, "_smaller_side", counted_side, raising=False)
    assert general_lefschetz_polynomial(group, family).poly == expected
    assert sides == [family]
    gset = validate_gset(group)
    marked = partitions._require_stable(listed_max_block(8, bound), group, gset)
    assert len(sides) == 2
    assert general_lefschetz_polynomial(group, marked, gset=gset).poly == expected
    assert len(sides) == 2
    assert len(stability_checks) == 2
    # a family `max_block` built is walked under no table: the class sum
    # finds its side once, and the family keeps it
    built = PartitionFamily.max_block(8, bound)
    assert general_lefschetz_polynomial(group, built).poly == expected
    assert general_lefschetz_polynomial(group, built, gset=gset).poly == expected
    assert len(sides) == 3 and sides[2] is built
    assert len(stability_checks) == 2


@pytest.mark.parametrize("name, generators", [
    ("C9", [tuple((x + 1) % 9 for x in range(9))]),
    ("C3xC3", [(1, 2, 0, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 7, 8, 6)]),
])
def test_a_family_beyond_the_lattice_sums_its_members(name, generators):
    # no partition lattice is built on 9 points, so both the stability check
    # and the class sum take the member side: here the discrete partition
    # alone, whose term is the configuration factor of each element
    group = PermutationGroup.from_generators(9, generators)
    family = PartitionFamily(9, [SetPartition.discrete(9)])
    assert _smaller_side(family) == ([SetPartition.discrete(9)], True)
    weighted = ((perm, 1) for perm in group.elements)
    expected = reference.cycle_type_sum(weighted, 9, reference.configuration_factor) / group.order
    assert general_lefschetz_polynomial(group, family).poly == expected


# ---------------------------------------------------------------------------
# the conjugacy classes, grown by conjugating with the generators


def test_classes_are_the_conjugacy_classes():
    rng = random.Random(606)
    for _ in range(60):
        group = random_subgroup(rng, rng.randint(1, 5))
        elements = group.elements
        index = {g: i for i, g in enumerate(elements)}
        classes = group.classes
        assert sorted(chain.from_iterable(classes)) == list(range(group.order))
        for members in classes:
            g = elements[members[0]]
            conjugates = {
                index[compose_perms(compose_perms(h, g), invert_perm(h))] for h in elements
            }
            assert set(members) == conjugates
            assert group.order % len(members) == 0
            assert members[0] == min(members)
        assert group.classes is classes  # found once


def test_symmetric_groups_have_a_class_per_partition_of_the_degree():
    counts = [len(PermutationGroup.symmetric(k).classes) for k in range(1, 7)]
    assert counts == [1, 2, 3, 5, 7, 11]


def test_coefficient_traces_count_cycles_once_per_class(monkeypatch):
    # S5 by generators, as `gsymm --coefficient-size 3` reads it: 7 classes
    group = PermutationGroup.from_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    counted = []

    def cycle_type(perm):
        counted.append(perm)
        return perm_cycle_type(perm)

    monkeypatch.setattr(partitions, "perm_cycle_type", cycle_type)
    monkeypatch.setattr(identities, "perm_cycle_type", cycle_type)
    traces = oracles.coefficient_traces(group, 3)
    assert len(counted) == len(group.classes) == 7
    gsymm_polynomial(group, None, traces)
    assert len(counted) == 14  # and one cycle type per class leader in the class sum
    assert list(traces) == list(group.elements)
    assert traces == {g: 3 ** sum(perm_cycle_type(g).values()) for g in group.elements}


# ---------------------------------------------------------------------------
# the Burnside cross-check of fixed_gmap_space, one count per class


def test_class_weighted_cross_check_matches_the_per_element_sum(monkeypatch):
    rng = random.Random(707)
    for group, table in random_actions(rng, 40):
        # at most 4096 maps from the table's points
        k = len(table[0])
        f = random_map(rng, rng.randint(1, max(s for s in range(1, 6) if s ** k <= 4096)))
        expected = gmap_burnside_by_elements(f, table)
        assert fixed_gmap_space(f, group, table) == expected
        # with the orbit count replaced by the per-element sum, the call
        # raises unless the class-weighted sum gives the same count
        with monkeypatch.context() as patch:
            real = oracles._fixed_orbit_count
            patch.setattr(
                oracles,
                "_fixed_orbit_count",
                lambda *args, **kwargs: (expected, real(*args, **kwargs)[1]),
            )
            assert fixed_gmap_space(f, group, table) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identity_fixes_every_orbit_of_multisets(n):
    # map(K, M)/S_k for k = n is the n-th symmetric power of the n points
    assert fixed_gmap_space(identity_map(n), PermutationGroup.symmetric(n)) == comb(2 * n - 1, n)


# ---------------------------------------------------------------------------
# the checks made once at entry still refuse bad input


def test_entry_checks_refuse_bad_input():
    s3 = PermutationGroup.symmetric(3)
    with pytest.raises(ValueError, match="not closed"):
        PermutationGroup(3, [(0, 1, 2), (1, 0, 2), (0, 2, 1)])
    trivial = trivial_group(2)
    for call in (
        lambda: gsymm_polynomial(trivial, [(1, 0)]),
        lambda: general_lefschetz_polynomial(
            trivial, PartitionFamily.max_block(2, 1), gset=[(1, 0)]
        ),
        lambda: fixed_gmap_space(seeded_maps(1, 1, 3, min_size=1)[0], trivial, [(1, 0)]),
    ):
        with pytest.raises(ValueError, match="not a homomorphism"):
            call()
    unstable = PartitionFamily(3, [SetPartition.discrete(3), SetPartition([[0, 1], [2]])])
    with pytest.raises(ValueError, match="not stable"):
        general_lefschetz_polynomial(s3, unstable)
    with pytest.raises(ValueError, match="not stable"):
        fixed_partition_orbits(identity_map(3), s3, unstable)
    partial = {g: 1 for g in s3.elements[:-1]}
    with pytest.raises(ValueError, match="every group element"):
        general_lefschetz_polynomial(s3, PartitionFamily.max_block(3, 1), partial)
    with pytest.raises(ValueError, match="every group element"):
        gsymm_polynomial(s3, None, partial)


def test_traces_compare_as_rationals():
    s3 = PermutationGroup.from_generators(3, [(1, 0, 2), (1, 2, 0)])
    thirds = {g: Fraction(1, 3) if g == (2, 1, 0) else Fraction(1, 2) for g in s3.elements}
    message = ("coefficient traces must be a class function, but [0, 2, 1] has trace 1/2 "
               "and its conjugate [2, 1, 0] has trace 1/3")
    with pytest.raises(ValueError) as info:
        gsymm_polynomial(s3, None, thirds)
    assert str(info.value) == message
    mixed = {g: 2 if i % 2 else Fraction(2) for i, g in enumerate(s3.elements)}
    assert gsymm_polynomial(s3, None, mixed) == gsymm_polynomial(s3, None, dict.fromkeys(mixed, 2))
