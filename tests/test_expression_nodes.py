"""The functor-expression nodes of `identities` against a frozen-dataclass
twin of each, the form they had before they became plain `__slots__`
classes: over seeded random expression trees, the same `==`, the same hash
(that of the tuple of fields, computed once per node), the same repr bytes,
refused assignment, the same dict and `Counter` keys and the same
polynomials from `expression_polynomial`."""

import copy
import pickle
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from doldzeta import identities as ids


@dataclass(frozen=True)
class IdentityFunctor:
    pass


@dataclass(frozen=True)
class ConstantSphereSmash:
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")


@dataclass(frozen=True)
class BoundedSymmetricPower:
    power: int
    bound: int


@dataclass(frozen=True)
class Wedge:
    parts: tuple


@dataclass(frozen=True)
class Smash:
    parts: tuple


@dataclass(frozen=True)
class Compose:
    outer: object
    inner: object


TWINS = {
    ids.IdentityFunctor: IdentityFunctor,
    ids.ConstantSphereSmash: ConstantSphereSmash,
    ids.BoundedSymmetricPower: BoundedSymmetricPower,
    ids.Wedge: Wedge,
    ids.Smash: Smash,
    ids.Compose: Compose,
}


def random_tree(rng, depth):
    """The same random expression as library nodes and as twins.  Leaves
    come from a small pool, so that equal but distinct subtrees are common."""
    kind = rng.choice(("leaf", "leaf", "wedge", "smash", "compose") if depth else ("leaf",))
    if kind == "leaf":
        cls, args = rng.choice([
            (ids.IdentityFunctor, ()),
            (ids.ConstantSphereSmash, ("even",)),
            (ids.ConstantSphereSmash, ("odd",)),
            (ids.BoundedSymmetricPower, (2, 1)),
            (ids.BoundedSymmetricPower, (1, 2)),
            (ids.BoundedSymmetricPower, (2, 2)),
        ])
        return cls(*args), TWINS[cls](*args)
    if kind == "compose":
        # composing substitutes polynomials; keep the degrees small
        (outer, twin_outer), (inner, twin_inner) = random_tree(rng, 0), random_tree(rng, depth - 1)
        return ids.Compose(outer, inner), Compose(twin_outer, twin_inner)
    pairs = [random_tree(rng, depth - 1) for _ in range(rng.randint(0 if kind == "wedge" else 1, 3))]
    cls = ids.Wedge if kind == "wedge" else ids.Smash
    return (cls(tuple(node for node, _ in pairs)),
            TWINS[cls](tuple(twin for _, twin in pairs)))


def random_trees(seed, count=120):
    rng = random.Random(seed)
    return [random_tree(rng, rng.randint(0, 3)) for _ in range(count)]


def test_repr_hash_and_equality_match_the_dataclasses():
    pairs = random_trees(20261101)
    for node, twin in pairs:
        assert repr(node) == repr(twin)
        assert hash(node) == hash(twin)
        assert node == node and not node != node
    for (a, twin_a), (b, twin_b) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a == b) == (twin_a == twin_b)
        assert (a != b) == (twin_a != twin_b)
        if a == b:
            assert hash(a) == hash(b)
    # equal but distinct trees, rebuilt from the same seed
    for (a, _), (b, _) in zip(pairs, random_trees(20261101)):
        assert a == b and a is not b and hash(a) == hash(b)


def test_a_node_equals_only_a_node_of_its_own_class():
    parts = (ids.IdentityFunctor(), ids.ConstantSphereSmash("odd"))
    assert ids.Wedge(parts) != ids.Smash(parts)
    assert not ids.Wedge(parts) == ids.Smash(parts)
    assert ids.Wedge(parts) != Wedge(parts) and ids.Wedge(parts) != parts
    assert ids.BoundedSymmetricPower(2, 1) != ids.BoundedSymmetricPower(1, 2)
    assert ids.Compose(*parts) != ids.Compose(*reversed(parts))


def test_fields_cannot_be_assigned_or_deleted():
    for node, twin in random_trees(20261102, 30):
        names = [name for name in ("parity", "power", "bound", "parts", "outer", "inner")
                 if hasattr(twin, name)]
        for name in names + ["extra"]:
            for target in (node, twin):
                with pytest.raises(AttributeError):
                    setattr(target, name, 1)
        for name in names:
            for target in (node, twin):
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert repr(node) == repr(twin)


def test_the_parity_is_checked_with_the_same_message():
    for cls in (ids.ConstantSphereSmash, ConstantSphereSmash):
        with pytest.raises(ValueError, match=r"^parity must be 'even' or 'odd'$"):
            cls("round")


def test_dict_and_counter_keys_match_the_dataclasses():
    pairs = random_trees(20261103)
    nodes, twins = [node for node, _ in pairs], [twin for _, twin in pairs]
    counted, twin_counted = Counter(nodes), Counter(twins)
    assert [(repr(k), n) for k, n in counted.items()] == [(repr(k), n) for k, n in twin_counted.items()]
    table = {node: i for i, node in enumerate(nodes)}
    twin_table = {twin: i for i, twin in enumerate(twins)}
    assert [(repr(k), i) for k, i in table.items()] == [(repr(k), i) for k, i in twin_table.items()]
    # a set iterates in hash order, which is the dataclasses' order too
    assert [repr(k) for k in set(nodes)] == [repr(k) for k in set(twins)]


def test_copies_and_pickles_are_equal_nodes():
    for node, _ in random_trees(20261104, 30):
        for same in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert same == node and hash(same) == hash(node) and repr(same) == repr(node)


def test_the_hash_is_computed_once_at_construction():
    class Part:
        calls = 0

        def __hash__(self):
            Part.calls += 1
            return 7

    part = Part()
    nodes = [ids.Wedge((part,)), ids.Smash((part, part)), ids.Compose(part, ids.IdentityFunctor())]
    built = Part.calls
    assert built == 4
    for node in nodes:
        for _ in range(3):
            hash(node)
        Counter([node, node])
        {node: 1}.get(node)
    assert Part.calls == built


def test_expression_polynomials_match_the_dataclasses(monkeypatch):
    pairs = random_trees(20261105, 60)
    expected = [ids.expression_polynomial(node).to_json() for node, _ in pairs]
    # the same evaluator, reading the twins: it dispatches on the class names
    for cls, twin in TWINS.items():
        monkeypatch.setattr(ids, cls.__name__, twin)
    assert [ids.expression_polynomial(twin).to_json() for _, twin in pairs] == expected
