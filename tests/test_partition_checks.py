"""Partitions stored as restricted growth strings, and the partition-family
polynomial, each against the code it replaced, on seeded random inputs.

The references below are the sorted-blocks partition operations, the
stability check over every group element, in `family_recursion`, the
recursion over minimal excluded partitions with the pairwise scan for them,
and, in `group_average_reference`, the Fraction-valued group average and
orbit sum.  The growth-string code must give the same blocks and the same
accept/reject outcome; the orbit sum (the group average minus one
configuration term per excluded orbit) must give the same polynomial as the
recursion, whose enlarged families are validated here, and the integer
kernel the same polynomials as the Fraction one."""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest

from doldzeta import (
    PartitionFamily,
    PermutationGroup,
    SetPartition,
    all_partitions,
    coefficient_traces,
    general_lefschetz_polynomial,
    gsymm_polynomial,
)
from doldzeta.identities import _validate_traces
from doldzeta.partitions import (
    _require_stable,
    _single_splits,
    compose_perms,
    fiber_partition,
    invert_perm,
    perm_cycle_type,
    refinements_of,
)

import group_average_reference as reference
from conftest import random_subgroup, stable_families
from family_recursion import (
    discrete_only,
    is_full,
    minimal_excluded_step,
    recursive_lefschetz_polynomial,
)


# ---------------------------------------------------------------------------
# references: partitions as sorted tuples of sorted blocks


def canon(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def old_block_index(blocks):
    """element -> index of its block, in canonical block order."""
    where = [0] * sum(map(len, blocks))
    for i, b in enumerate(blocks):
        for x in b:
            where[x] = i
    return tuple(where)


def old_partitions_of(elements):
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for sub in old_partitions_of(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]


def old_apply(blocks, perm):
    return canon([[perm[x] for x in b] for b in blocks])


def old_refines(finer, coarser):
    where = {x: i for i, b in enumerate(coarser) for x in b}
    return all(len({where[x] for x in b}) == 1 for b in finer)


def old_single_splits(blocks):
    for bi, b in enumerate(blocks):
        rest = blocks[:bi] + blocks[bi + 1:]
        others = b[1:]
        for r in range(len(others) + 1):
            for keep in combinations(others, r):
                left = (b[0],) + keep
                right = tuple(x for x in b if x not in left)
                if right:
                    yield canon(rest + (left, right))


def old_refinements(blocks):
    results = [[]]
    for b in blocks:
        choices = [
            [tuple(b[i] for i in piece) for piece in sub]
            for sub in old_partitions_of(tuple(range(len(b))))
        ]
        results = [acc + choice for acc in results for choice in choices]
    return {canon(r) for r in results}


def old_fiber(values):
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return canon(groups.values())


def old_minimal(family):
    """The minimal partitions outside a family, by pairwise refinement tests."""
    missing = [p for p in all_partitions(family.ground) if p not in family]
    return {
        p.blocks for p in missing if not any(q != p and old_refines(q.blocks, p.blocks)
                                             for q in missing)
    }


def stable_by_all_elements(family, gset):
    return all(p.apply(perm) in family.members for p in family.members for perm in gset)


# ---------------------------------------------------------------------------
# random inputs


def random_blocks(rng, k):
    """A random partition of 0..k-1 as a shuffled list of shuffled blocks."""
    labels = [rng.randrange(k) for _ in range(k)]
    blocks = [[x for x in range(k) if labels[x] == label] for label in set(labels)]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    return blocks


def random_action(rng, group):
    """The natural action relabelled by a random bijection of the points."""
    c = tuple(rng.sample(range(group.degree), group.degree))
    return tuple(compose_perms(compose_perms(c, g), invert_perm(c)) for g in group.elements)


def random_closed_family(rng, k):
    """The refinement closure of a few random partitions: stable under some
    actions and not under others."""
    members = set()
    for _ in range(rng.randint(1, 3)):
        members.update(refinements_of(SetPartition(random_blocks(rng, k))))
    return PartitionFamily(k, members)


def orbit_closure(family, group, gset):
    """The smallest stable family containing a refinement-closed family,
    closed under the images of the generators."""
    table = dict(zip(group.elements, gset))
    images = [table[s] for s in group.generators]
    members = set(family.members)
    frontier = list(members)
    while frontier:
        frontier = [p.apply(perm) for p in frontier for perm in images]
        frontier = [p for p in frontier if p not in members]
        members.update(frontier)
    return PartitionFamily(family.ground, members)


class Recorder:
    """An rng that records the candidates it is offered."""

    def choice(self, candidates):
        self.offered = list(candidates)
        return self.offered[0]


# ---------------------------------------------------------------------------
# SetPartition: the growth string against the sorted blocks


def test_constructor_stores_the_canonical_blocks():
    rng = random.Random(601)
    for _ in range(300):
        k = rng.randint(1, 8)
        blocks = random_blocks(rng, k)
        p = SetPartition(blocks)
        assert p.blocks == canon(blocks)
        assert p.labels == old_block_index(canon(blocks))
        assert (p.ground, p.block_count) == (k, len(blocks))
        assert p == SetPartition(canon(blocks)) and hash(p) == hash(SetPartition(canon(blocks)))
        assert SetPartition.from_json([list(b) for b in blocks]) == p


def test_operations_match_the_sorted_blocks():
    rng = random.Random(602)
    for _ in range(300):
        k = rng.randint(1, 7)
        a, b = SetPartition(random_blocks(rng, k)), SetPartition(random_blocks(rng, k))
        perm = tuple(rng.sample(range(k), k))
        assert a.apply(perm).blocks == old_apply(a.blocks, perm)
        assert a.refines(b) == old_refines(a.blocks, b.blocks)
        assert a.refines(a.apply(perm).apply(invert_perm(perm)))
        assert {s.blocks for s in _single_splits(a)} == set(old_single_splits(a.blocks))
        values = [rng.randrange(4) for _ in range(k)]
        assert fiber_partition(values).blocks == old_fiber(values)
    for k in range(1, 6):
        target = SetPartition(random_blocks(rng, k))
        assert {p.blocks for p in refinements_of(target)} == old_refinements(target.blocks)


def test_lattice_matches_the_sorted_blocks():
    for k in range(1, 8):
        parts = all_partitions(k)
        old = {old_block_index(canon(b)) for b in old_partitions_of(tuple(range(k)))}
        assert {p.labels for p in parts} == old
        assert len(parts) == len(old)
        assert list(parts) == sorted(parts)


@pytest.mark.parametrize(
    "blocks", [[[0, 1], [1]], [[0], [2]], [[0], []], [[1, 2]], [[0, 0], [1]]]
)
def test_constructor_refuses_what_is_not_a_partition(blocks):
    with pytest.raises(ValueError):
        SetPartition(blocks)


# ---------------------------------------------------------------------------
# the reference's minimal_excluded_step: single splits against the pairwise scan


def test_minimal_partitions_match_the_pairwise_scan():
    rng = random.Random(603)
    seen = 0
    for _ in range(120):
        k = rng.randint(2, 5)
        group = random_subgroup(rng, k)
        family = orbit_closure(random_closed_family(rng, k), group, group.elements)
        if is_full(family):
            continue
        recorder = Recorder()
        step = minimal_excluded_step(family, group, rng=recorder)
        assert {p.blocks for p in recorder.offered} == old_minimal(family)
        assert minimal_excluded_step(family, group).partition == min(recorder.offered)
        assert step.partition == recorder.offered[0]
        seen += 1
    assert seen > 60


# ---------------------------------------------------------------------------
# stability: the generators' images against every element


def test_stability_judged_like_every_element():
    rng = random.Random(604)
    outcomes = set()
    for _ in range(200):
        k = rng.randint(2, 5)
        group = random_subgroup(rng, k)
        gset = random_action(rng, group)
        family = random_closed_family(rng, k)
        if rng.random() < 0.4:
            family = orbit_closure(family, group, gset)
        expected = stable_by_all_elements(family, gset)
        outcomes.add(expected)
        try:
            _require_stable(family, group, gset)
        except ValueError:
            judged = False
        else:
            judged = True
        assert judged == expected
    assert outcomes == {True, False}


def test_families_built_stable_are_stable_under_every_permutation(stability_checks):
    # `full` and `max_block` come marked as stable under every action, so
    # `_require_stable` walks neither; every permutation keeps block sizes,
    # which this walk confirms.  A `refining` family carries no mark.
    rng = random.Random(4040)
    refused = 0
    for k in range(1, 7):
        lattice = all_partitions(k)
        for bound in range(1, k + 2):
            perms = [tuple(rng.sample(range(k), k)) for _ in range(8)]
            for family in (PartitionFamily.full(k), PartitionFamily.max_block(k, bound)):
                walks = len(stability_checks)
                group = PermutationGroup.from_generators(k, perms[:rng.randint(1, 3)])
                assert _require_stable(family, group, random_action(rng, group)) is family
                assert len(stability_checks) == walks
                assert family.is_stable_under(perms)
        # a partition some permutation moves: its refinements are stable
        # under none of the groups that move it
        target = rng.choice([p for p in lattice if 1 < p.block_count < k] or [None])
        if target is None:
            continue
        while True:
            perm = tuple(rng.sample(range(k), k))
            if target.apply(perm) != target:
                break
        group = PermutationGroup.from_generators(k, [perm])
        walks = len(stability_checks)
        with pytest.raises(ValueError, match="^family is not stable under the group action$"):
            _require_stable(PartitionFamily.refining(target), group, group.elements)
        assert len(stability_checks) == walks + 1
        refused += 1
    assert refused == 4  # k = 3..6


# ---------------------------------------------------------------------------
# the families the reference recursion builds without validation


def recursion_nodes(group, family, gset):
    """Every (group, family, action) the family recursion visits."""
    nodes = [(group, family, gset)]
    out = []
    while nodes:
        grp, fam, act = nodes.pop()
        out.append((grp, fam, act))
        if is_full(fam):
            continue
        step = minimal_excluded_step(fam, grp, act)
        stabilizer = PermutationGroup(grp.degree, step.stabilizer)
        nodes.append((grp, step.extended_family, act))
        nodes.append(
            (stabilizer, discrete_only(step.block_ground), step.block_action)
        )
    return out


def check_nodes(group, family, gset):
    for grp, fam, act in recursion_nodes(group, family, gset):
        fam._validate_closure()
        assert stable_by_all_elements(fam, act)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_extended_family_is_closed_and_stable(k):
    group = PermutationGroup.symmetric(k)
    for family in stable_families(k):
        check_nodes(group, family, group.elements)


def test_extended_families_under_subgroups_are_closed_and_stable():
    rng = random.Random(605)
    for _ in range(40):
        k = rng.randint(2, 5)
        group = random_subgroup(rng, k)
        gset = random_action(rng, group)
        check_nodes(group, orbit_closure(random_closed_family(rng, k), group, gset), gset)


# ---------------------------------------------------------------------------
# the orbit sum against the recursion


def random_table(rng, group):
    """An action table of the group on at most 6 points: natural,
    relabelled, on two copies of the points, with one or two fixed points
    added, or through the sign on two points."""
    d = group.degree
    kind = rng.choice(["natural", "relabelled", "two copies", "fixed points", "sign"])
    if kind == "natural":
        return None
    if kind == "relabelled":
        return random_action(rng, group)
    if kind == "two copies" and d <= 3:
        return tuple(tuple(g) + tuple(x + d for x in g) for g in group.elements)
    if kind == "sign":
        odd = [(d - sum(perm_cycle_type(g).values())) % 2 for g in group.elements]
        return tuple((1, 0) if o else (0, 1) for o in odd)
    extra = tuple(range(d, min(d + rng.randint(1, 2), 6)))
    return tuple(tuple(g) + extra for g in group.elements)


def test_orbit_sum_matches_the_recursion():
    rng = random.Random(606)
    kinds = set()
    for _ in range(320):
        group = random_subgroup(rng, rng.randint(1, 5))
        table = random_table(rng, group)
        gset = group.elements if table is None else table
        k = len(gset[0])
        if rng.random() < 0.3:
            family = PartitionFamily.max_block(k, rng.randint(1, k))
        else:
            family = orbit_closure(random_closed_family(rng, k), group, gset)
        traces = None
        if rng.random() < 0.6:
            euler = rng.choice((-1, 0, 2))
            traces = coefficient_traces(group, euler, rng.choice((None, table)))
        kinds.add((table is None, traces is None, is_full(family)))
        assert general_lefschetz_polynomial(group, family, traces, table) == (
            recursive_lefschetz_polynomial(group, family, traces, table)
        )
    assert len(kinds) == 8


def test_coefficient_traces_pass_as_class_functions():
    rng = random.Random(607)
    for _ in range(80):
        group = random_subgroup(rng, rng.randint(1, 5))
        table = random_table(rng, group)
        traces = coefficient_traces(group, rng.choice((-1, 0, 2, 3)), table)
        assert _validate_traces(group, traces) == traces
        # any function of the cycle type is a class function of the group too
        by_type = {}
        for g in group.elements:
            shape = tuple(sorted(perm_cycle_type(g).items()))
            by_type.setdefault(shape, rng.randint(-3, 3))
        traces = {g: by_type[tuple(sorted(perm_cycle_type(g).items()))] for g in group.elements}
        assert _validate_traces(group, traces) == traces


def test_coefficient_traces_pass_unchecked_and_read_only():
    group = PermutationGroup.symmetric(4)
    traces = coefficient_traces(group, 3)
    assert _validate_traces(group, traces) is traces
    assert all(type(v) is int for v in traces.values())
    for change in (
        lambda t: t.__setitem__(group.elements[0], 0),
        lambda t: t.__delitem__(group.elements[0]),
        lambda t: t.update({group.elements[0]: 0}),
        lambda t: t.setdefault((9,), 0),
        lambda t: t.pop(group.elements[0]),
        lambda t: t.popitem(),
        lambda t: t.clear(),
        lambda t: t.__ior__({}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change(traces)
    assert traces == {g: 3 ** sum(perm_cycle_type(g).values()) for g in group.elements}
    # a copy keeps the mark; a plain dict, or the table given for another
    # group, is checked in full
    copied = copy.deepcopy(traces)
    assert copied == traces and _validate_traces(group, copied) is copied
    plain = dict(traces)
    assert _validate_traces(group, plain) == traces
    assert _validate_traces(group, plain) is not plain
    rotations = PermutationGroup.from_generators(4, [(1, 2, 3, 0)])
    other = coefficient_traces(rotations, 3)
    assert _validate_traces(rotations, other) is other
    with pytest.raises(ValueError, match="defined on every group element"):
        _validate_traces(group, other)


def test_traces_that_are_not_a_class_function_are_refused():
    # the transpositions (0 2 1), (1 0 2) and (2 1 0) get traces 2, 0 and 1
    group = PermutationGroup.symmetric(3)
    traces = dict(zip(group.elements, [1, 2, 0, -1, 2, 1]))
    with pytest.raises(ValueError, match="must be a class function"):
        general_lefschetz_polynomial(group, PartitionFamily.max_block(3, 1), traces)
    with pytest.raises(ValueError, match="must be a class function"):
        gsymm_polynomial(group, None, traces)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction-valued group average and orbit sum


def orbit_partition(gset):
    """The partition of the points into orbits of the action: every
    refinement of it is stable."""
    k = len(gset[0])
    labels = list(range(k))
    for perm in gset:
        for x in range(k):
            a, b = labels[x], labels[perm[x]]
            if a != b:
                labels = [min(a, b) if v in (a, b) else v for v in labels]
    return fiber_partition(labels)


def random_traces(rng, group, table):
    """None, integer coefficient traces, or Fraction traces that depend on
    the cycle type only (so a class function with several denominators)."""
    kind = rng.choice(["none", "integer", "fraction"])
    if kind == "none":
        return kind, None
    if kind == "integer":
        return kind, coefficient_traces(group, rng.choice((-1, 0, 2, 3)), table)
    by_type = {}
    traces = {}
    for g in group.elements:
        shape = tuple(sorted(perm_cycle_type(g).items()))
        if shape not in by_type:
            by_type[shape] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        traces[g] = by_type[shape]
    return kind, traces


def test_integer_kernel_matches_the_fraction_reference():
    rng = random.Random(608)
    kinds = set()
    for _ in range(300):
        group = random_subgroup(rng, rng.randint(1, 5))
        table = random_table(rng, group)
        gset = group.elements if table is None else table
        k = len(gset[0])
        family_kind = rng.choice(["max_block", "refines", "members"])
        if family_kind == "max_block":
            family = PartitionFamily.max_block(k, rng.randint(1, k))
        elif family_kind == "refines":
            family = PartitionFamily.refining(orbit_partition(gset))
        else:
            family = orbit_closure(random_closed_family(rng, k), group, gset)
        trace_kind, traces = random_traces(rng, group, table)
        kinds.add((table is None, family_kind, trace_kind))
        assert gsymm_polynomial(group, table, traces) == (
            reference.gsymm_polynomial(group, table, traces)
        )
        assert general_lefschetz_polynomial(group, family, traces, table) == (
            reference.general_lefschetz_polynomial(group, family, traces, table)
        )
    assert len(kinds) == 18
