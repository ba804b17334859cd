"""The group build through prebuilt itemgetters against the loops it
replaced (`group_build_reference`), on seeded element lists and generating
sets of degree 0 to 6, and groups on 0 and 1 points, where an itemgetter of
no index or of one index cannot read a permutation by itself."""

import random

import pytest

from doldzeta import PartitionFamily, PermutationGroup, SetPartition
from doldzeta.partitions import _close, _reader, _require_stable, identity_perm, validate_gset

import group_build_reference as reference


def random_perms(rng, degree, count):
    return [tuple(rng.sample(range(degree), degree)) for _ in range(count)]


def generated(degree, gens) -> tuple:
    """The sorted elements of the group the permutations generate."""
    return tuple(sorted(reference.close(degree, gens)[1]))


def assert_generators_are_irredundant(degree, gens, elements):
    """The generators generate the group, and none lies in the group
    generated by the ones before it."""
    assert generated(degree, gens) == elements
    for i, s in enumerate(gens):
        assert s not in set(reference.close(degree, gens[:i])[1])


def same_partition(classes, expected):
    """Equal partitions of the element indices, each class led by its least
    index, the classes in the order of their leaders."""
    assert [members[0] for members in classes] == [members[0] for members in expected]
    assert all(members[0] == min(members) for members in classes)
    assert sorted(map(sorted, classes)) == sorted(map(sorted, expected))


@pytest.mark.parametrize("degree", range(7))
def test_element_lists_build_like_the_reference(degree):
    rng = random.Random(3400 + degree)
    for _ in range(12):
        elements = list(reference.close(degree, random_perms(rng, degree, rng.randint(1, 3)))[1])
        rng.shuffle(elements)
        group = PermutationGroup.from_json(
            {"degree": degree, "elements": [list(e) for e in elements]}
        )
        expected, ascending = reference.elements_group(degree, elements)
        assert group.elements == expected
        assert group == PermutationGroup(degree, elements)
        same_partition(group.classes, reference.classes(expected, ascending))
        assert_generators_are_irredundant(degree, group.generators, expected)


@pytest.mark.parametrize("degree", range(7))
def test_generating_sets_build_like_the_reference(degree):
    rng = random.Random(3500 + degree)
    for _ in range(12):
        gens = random_perms(rng, degree, rng.randint(0, 4))
        if gens and rng.random() < 0.5:
            # a repeated generator, the identity or a product of two
            product = reference.close(degree, gens)[1][-1]
            extra = rng.choice([gens[0], identity_perm(degree), product])
            gens.insert(rng.randrange(len(gens) + 1), extra)
        group = PermutationGroup.from_json(
            {"degree": degree, "generators": [list(g) for g in gens]}
        )
        kept, reached = reference.close(degree, gens)
        assert group.elements == tuple(sorted(reached))
        assert group.generators == kept
        assert_generators_are_irredundant(degree, group.generators, group.elements)
        # the same generators in the same order grow the same classes
        assert group.classes == reference.classes(group.elements, kept)


def test_close_matches_the_reference_product_by_product():
    rng = random.Random(3600)
    for _ in range(40):
        degree = rng.randint(0, 6)
        gens = random_perms(rng, degree, rng.randint(1, 3))
        assert _close(degree, gens) == reference.close(degree, gens)


def test_lists_that_are_not_closed_are_refused_alike():
    rng = random.Random(3700)
    outcomes = set()
    for _ in range(150):
        degree = rng.randint(0, 6)
        elements = set(reference.close(degree, random_perms(rng, degree, rng.randint(1, 2)))[1])
        if len(elements) > 1 and rng.random() < 0.5:
            elements.discard(rng.choice(sorted(elements - {identity_perm(degree)})))
        else:
            elements.add(tuple(rng.sample(range(degree), degree)))
        try:
            reference.elements_group(degree, elements)
            expected = None
        except ValueError as exc:
            expected = str(exc).split(":")[0]
        try:
            PermutationGroup(degree, elements)
            outcome = None
        except ValueError as exc:
            outcome = str(exc).split(":")[0]
        assert outcome == expected
        outcomes.add(outcome)
    assert outcomes == {None, "group not closed"}


# ---------------------------------------------------------------------------
# element rows read once by `from_json` against the constructor, which reads
# each row again


def json_rows(rng, elements):
    """The elements as shuffled JSON rows, some entries spelled as the
    integral floats and decimal strings that both readers take for ints."""
    rows = [list(e) for e in elements]
    rng.shuffle(rows)
    for row in rows:
        for i, x in enumerate(row):
            spelling = rng.random()
            if spelling < 0.05:
                row[i] = float(x)
            elif spelling < 0.1:
                row[i] = str(x)
    return rows


@pytest.mark.parametrize("degree", range(7))
def test_json_rows_build_the_group_the_constructor_builds(degree):
    rng = random.Random(4000 + degree)
    for _ in range(12):
        elements = reference.close(degree, random_perms(rng, degree, rng.randint(1, 3)))[1]
        rows = json_rows(rng, elements)
        read = PermutationGroup.from_json({"degree": degree, "elements": rows})
        built = PermutationGroup(degree, rows)
        assert read == built
        assert read.elements == built.elements == tuple(sorted(elements))
        assert read.generators == built.generators
        assert read.classes == built.classes


S3_ROWS = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
WHERE_JSON = "an entry of a permutation in a group's 'elements'"
WHERE_BUILT = "an entry of a group element"


# The refusals of S3's element list with its last row replaced, as
# `from_json` and the constructor gave them when both read every row with
# `_int_tuple`: (row, text from JSON, text from the constructor).
@pytest.mark.parametrize("bad_row, from_json, built", [
    ([2, 2, 0], "(2, 2, 0) is not a permutation of degree 3",
     "(2, 2, 0) is not a permutation of degree 3"),
    ([2, 1], "(2, 1) is not a permutation of degree 3", "(2, 1) is not a permutation of degree 3"),
    ([2, "x", 0], f"{WHERE_JSON} must be an integer, got 'x'",
     f"{WHERE_BUILT} must be an integer, got 'x'"),
    ([2, 1.5, 0], f"{WHERE_JSON} must be an integer, got 1.5",
     f"{WHERE_BUILT} must be an integer, got 1.5"),
    ([2, True, 0], f"{WHERE_JSON} must be an integer, got True",
     f"{WHERE_BUILT} must be an integer, got True"),
], ids=["not-a-permutation", "wrong-length", "non-int", "non-integral", "bool"])
def test_json_rows_are_refused_as_before(bad_row, from_json, built):
    rng = random.Random(4100)
    for _ in range(6):
        rows = S3_ROWS[:-1] + [bad_row]
        rng.shuffle(rows)
        with pytest.raises(ValueError) as refused:
            PermutationGroup.from_json({"degree": 3, "elements": rows})
        assert str(refused.value) == from_json
        with pytest.raises(ValueError) as refused:
            PermutationGroup(3, rows)
        assert str(refused.value) == built


# ---------------------------------------------------------------------------
# groups on 0 and 1 points


def test_readers_of_no_index_and_of_one_index_build_tuples():
    assert _reader(())((5, 6)) == ()
    assert _reader((1,))((5, 6)) == (6,)
    assert _reader((1, 0))((5, 6)) == (6, 5)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("key, perms", [
    ("elements", lambda d: [list(range(d))]),
    ("generators", lambda d: []),
    ("generators", lambda d: [list(range(d)), list(range(d))]),
])
def test_groups_on_zero_and_one_points(degree, key, perms):
    group = PermutationGroup.from_json({"degree": degree, key: perms(degree)})
    assert group.elements == (tuple(range(degree)),)
    assert group.generators == ()
    assert group.classes == ((0,),)
    assert validate_gset(group) == group.elements
    # the one element must act as the identity on any number of points
    assert validate_gset(group, [[0, 1]]) == ((0, 1),)
    with pytest.raises(ValueError, match="not a homomorphism"):
        validate_gset(group, [[1, 0]])
    family = PartitionFamily(degree, [SetPartition.discrete(degree)])
    assert _require_stable(family, group, validate_gset(group)).members == family.members


@pytest.mark.parametrize("degree", [0, 1])
def test_entries_of_groups_on_zero_and_one_points_are_checked(degree):
    with pytest.raises(ValueError, match="not a permutation of degree"):
        PermutationGroup.from_json({"degree": degree, "elements": [[0, 1]]})
    with pytest.raises(ValueError, match="must be an integer, got True"):
        PermutationGroup.from_json({"degree": 1, "generators": [[True]]})
    with pytest.raises(ValueError, match="does not contain the identity"):
        PermutationGroup(degree, [])


def test_actions_on_one_point_go_through_the_one_index_reader():
    # S2 on two points, acting on a one-point set and on a family of one point
    s2 = PermutationGroup.symmetric(2)
    assert validate_gset(s2, [[0], [0]]) == ((0,), (0,))
    with pytest.raises(ValueError, match="not a permutation of 0..0"):
        validate_gset(s2, [[0], [1]])
    table = validate_gset(s2, [[0], [0]], 1)
    family = PartitionFamily.full(1)
    assert _require_stable(family, s2, table).members == family.members
    # S2 on one point is refused: its transposition is no permutation of it
    with pytest.raises(ValueError, match="not a permutation of degree 1"):
        PermutationGroup.from_json({"degree": 1, "generators": [[1, 0]]})
