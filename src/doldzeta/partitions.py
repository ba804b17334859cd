"""Set partitions, the refinement order, stable families and permutation groups.

Partitions of {0..k-1} are ordered by refinement: the discrete partition
(all singletons) is the least element and {K} the greatest.  A family of
partitions is admissible when it is closed downwards under refinement and,
when paired with a group action, stable under it.  The key combinatorial
step for the recursive Lefschetz-polynomial calculus picks a minimal
partition outside such a family, adjoins its orbit, and hands back the
stabilizer acting on the blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, permutations

from .series import _field


MAX_GROUND = 8  # Bell(8) = 4140 partitions; beyond that the oracles are hopeless anyway
DEFAULT_MAX_GROUP_ORDER = 720  # the order of S6


class NotRefinementClosedError(ValueError):
    """A family is missing a refinement of one of its members."""

    def __init__(self, member, missing):
        self.member = member
        self.missing = missing
        super().__init__(
            f"family contains {member} but not its refinement {missing}"
        )


class NoExcludedPartitionError(ValueError):
    """Asked for a partition outside the family, but the family is everything."""


class SetPartition:
    """A partition of {0..k-1} in canonical form.

    Blocks are stored sorted internally and ordered by their minima, so two
    equal partitions have identical representations.
    """

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks):
        canon = tuple(sorted(tuple(sorted(int(x) for x in b)) for b in blocks))
        seen = []
        for b in canon:
            if not b:
                raise ValueError("blocks must be nonempty")
            seen.extend(b)
        ground = len(seen)
        if sorted(seen) != list(range(ground)):
            raise ValueError(f"blocks {canon} do not partition a range 0..k-1")
        self.blocks = canon
        self.ground = ground

    @classmethod
    def discrete(cls, k: int) -> "SetPartition":
        return cls([(i,) for i in range(k)])

    @classmethod
    def whole(cls, k: int) -> "SetPartition":
        return cls([tuple(range(k))])

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def is_discrete(self) -> bool:
        return len(self.blocks) == self.ground

    def block_index_of(self):
        """element -> index of its block, in canonical block order."""
        where = [0] * self.ground
        for i, b in enumerate(self.blocks):
            for x in b:
                where[x] = i
        return where

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self lies inside a block of other (self <= other)."""
        if self.ground != other.ground:
            raise ValueError("partitions of different ground sets are incomparable")
        where = other.block_index_of()
        return all(len({where[x] for x in b}) == 1 for b in self.blocks)

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least upper bound: connected components of the union of all blocks."""
        if self.ground != other.ground:
            raise ValueError("partitions of different ground sets have no join")
        parent = list(range(self.ground))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for block in self.blocks + other.blocks:
            root = find(block[0])
            for x in block[1:]:
                parent[find(x)] = root
        groups = {}
        for x in range(self.ground):
            groups.setdefault(find(x), []).append(x)
        return SetPartition(groups.values())

    def apply(self, perm) -> "SetPartition":
        """Image of the partition under a permutation of the ground set."""
        if len(perm) != self.ground:
            raise ValueError("permutation degree disagrees with the ground set")
        return SetPartition([[perm[x] for x in b] for b in self.blocks])

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({inner})"

    def to_json(self) -> list:
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, obj) -> "SetPartition":
        return cls(obj)


def _partitions_of(elements):
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for sub in _partitions_of(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]


@functools.lru_cache(maxsize=None)
def all_partitions(k: int):
    """All Bell(k) partitions of {0..k-1}, materialized once per k."""
    if not 1 <= k <= MAX_GROUND:
        raise ValueError(f"partition lattice supported for 1 <= k <= {MAX_GROUND}")
    return tuple(sorted(SetPartition(blocks) for blocks in _partitions_of(tuple(range(k)))))


def refinements_of(partition: SetPartition):
    """All partitions <= the given one (refine each block independently)."""
    block_choices = []
    for b in partition.blocks:
        block_choices.append([
            [tuple(b[i] for i in piece) for piece in sub]
            for sub in _partitions_of(tuple(range(len(b))))
        ])
    results = [[]]
    for choices in block_choices:
        results = [acc + choice for acc in results for choice in choices]
    return [SetPartition(blocks) for blocks in results]


def _single_splits(partition: SetPartition):
    """Partitions obtained by splitting one block into two nonempty pieces."""
    for bi, b in enumerate(partition.blocks):
        if len(b) < 2:
            continue
        rest = partition.blocks[:bi] + partition.blocks[bi + 1:]
        others = b[1:]
        for r in range(len(others) + 1):
            for keep in combinations(others, r):
                left = (b[0],) + keep
                right = tuple(x for x in b if x not in left)
                if right:
                    yield SetPartition(rest + (left, right))


def identity_perm(k: int):
    return tuple(range(k))


def compose_perms(g, h):
    """g after h."""
    return tuple(g[h[i]] for i in range(len(h)))


def invert_perm(g):
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def perm_cycle_type(perm) -> dict:
    """orbit length -> number of orbits of that length."""
    seen = [False] * len(perm)
    counts = {}
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


def perm_cycle_count(perm) -> int:
    return sum(perm_cycle_type(perm).values())


def _require_permutation(perm, degree: int):
    if sorted(perm) != list(range(degree)):
        raise ValueError(f"{perm} is not a permutation of degree {degree}")


class PermutationGroup:
    """A permutation group of fixed degree, stored as an explicit element
    list together with a generating set."""

    __slots__ = ("degree", "elements", "_index", "_generators")

    def __init__(self, degree: int, elements, validate: bool = True):
        elems = sorted({tuple(int(x) for x in e) for e in elements})
        self.degree = degree
        self.elements = tuple(elems)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._generators = None
        if validate:
            self._validate()

    def _validate(self):
        for e in self.elements:
            _require_permutation(e, self.degree)
        if identity_perm(self.degree) not in self._index:
            raise ValueError("group does not contain the identity")
        self._generators = self._pick_generators()

    def _pick_generators(self) -> tuple:
        """Walk the elements and keep each one that is not yet in the closure
        of those kept so far.

        The closure grows by right multiplication: each product g*s, with g
        in the closure and s a kept generator, is formed exactly once and must
        lie in the element list.  When the walk ends the closure is the whole
        list, so the list is closed under composition (every element is a
        word in the generators); the cost is order x generators products, and
        there are at most log2(order) generators.
        """
        gens = []
        closure = {identity_perm(self.degree)}
        reached = list(closure)
        for e in self.elements:
            if e in closure:
                continue
            gens.append(e)
            start = len(reached)
            pending = [(g, e) for g in reached]
            while pending:
                for g, s in pending:
                    prod = compose_perms(g, s)
                    if prod not in self._index:
                        raise ValueError(f"group not closed: {g} * {s} missing")
                    if prod not in closure:
                        closure.add(prod)
                        reached.append(prod)
                pending = [(g, s) for g in reached[start:] for s in gens]
                start = len(reached)
        return tuple(gens)

    @property
    def generators(self) -> tuple:
        """A generating set: the one given to `from_generators`, otherwise
        picked greedily from the element list (and cached)."""
        if self._generators is None:
            self._generators = self._pick_generators()
        return self._generators

    @classmethod
    def from_generators(cls, degree: int, generators, max_order: int = DEFAULT_MAX_GROUP_ORDER):
        """Close a generating set under composition (breadth-first products)."""
        gens = [tuple(int(x) for x in g) for g in generators]
        for g in gens:
            _require_permutation(g, degree)
        elements = {identity_perm(degree)}
        frontier = [g for g in gens if g not in elements]
        elements.update(frontier)
        while frontier:
            new = []
            for g in gens:
                for h in frontier:
                    prod = compose_perms(g, h)
                    if prod not in elements:
                        elements.add(prod)
                        new.append(prod)
                        if max_order and len(elements) > max_order:
                            raise ValueError(
                                f"group closure exceeded the order cap {max_order}"
                            )
            frontier = new
        group = cls(degree, elements, validate=False)
        group._generators = tuple(gens)
        return group

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls(degree, [identity_perm(degree)], validate=False)

    @classmethod
    def symmetric(cls, k: int) -> "PermutationGroup":
        if k > 6:
            raise ValueError("full symmetric groups are materialized only up to degree 6")
        return cls(k, permutations(range(k)), validate=False)

    @classmethod
    def cyclic(cls, k: int) -> "PermutationGroup":
        shift = tuple((i + 1) % k for i in range(k))
        return cls.from_generators(k, [shift])

    @classmethod
    def direct_product(cls, left: "PermutationGroup", right: "PermutationGroup"):
        """The product group acting on the disjoint union of the two ground sets."""
        d = left.degree + right.degree
        elems = [
            tuple(g) + tuple(x + left.degree for x in h)
            for g in left.elements
            for h in right.elements
        ]
        return cls(d, elems, validate=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self._index

    def inverse(self, g):
        return invert_perm(tuple(g))

    def compose(self, g, h):
        return compose_perms(tuple(g), tuple(h))

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    def to_json(self) -> dict:
        return {"degree": self.degree, "elements": [list(e) for e in self.elements]}

    @classmethod
    def from_json(cls, obj: dict) -> "PermutationGroup":
        degree = int(_field(obj, "degree", "a group"))
        if "elements" in obj:
            return cls(degree, obj["elements"])
        return cls.from_generators(degree, _field(obj, "generators", "a group"))


def natural_gset(group: PermutationGroup, ground: int):
    """The group's own permutations, as its action on {0..ground-1}."""
    if group.degree != ground:
        raise ValueError(
            f"group degree {group.degree} does not match the ground size {ground}; "
            "pass an explicit action"
        )
    return group.elements


def validate_gset(group: PermutationGroup, gset):
    """Check that an action table (one permutation per group element, in
    element order) is a genuine homomorphism; a mis-ordered table would
    silently corrupt every orbit count built on it.

    The law phi(g h) = phi(g) phi(h) is checked for every g and every h in
    the group's generating set, together with phi(id) = id; by induction on
    the word length of h it then holds for all pairs.  The identity check is
    what catches a bad table for the trivial group, whose generating set is
    empty."""
    gset = tuple(tuple(int(x) for x in perm) for perm in gset)
    if len(gset) != group.order:
        raise ValueError("the action table must align with the group's element list")
    size = len(gset[0]) if gset else 0
    table = dict(zip(group.elements, gset))
    for perm in gset:
        if sorted(perm) != list(range(size)):
            raise ValueError(f"{perm} is not a permutation of 0..{size - 1}")
    if table[identity_perm(group.degree)] != identity_perm(size) or any(
        table[compose_perms(g, s)] != compose_perms(table[g], table[s])
        for s in group.generators
        for g in group.elements
    ):
        raise ValueError("action table is not a homomorphism (check the element order)")
    return gset


class PartitionFamily:
    """A nonempty, refinement-closed set of partitions of {0..k-1}.

    Closure is validated (not assumed) by checking closure under single
    block splits, which generate the full refinement order.
    """

    __slots__ = ("ground", "members")

    def __init__(self, ground: int, members, validate: bool = True):
        members = frozenset(members)
        if not members:
            raise ValueError("a partition family must be nonempty")
        for p in members:
            if not isinstance(p, SetPartition) or p.ground != ground:
                raise ValueError(f"{p!r} is not a partition of 0..{ground - 1}")
        self.ground = ground
        self.members = members
        if validate:
            self._validate_closure()

    def _validate_closure(self):
        if SetPartition.discrete(self.ground) not in self.members:
            raise NotRefinementClosedError(
                next(iter(self.members)), SetPartition.discrete(self.ground)
            )
        for p in self.members:
            for split in _single_splits(p):
                if split not in self.members:
                    raise NotRefinementClosedError(p, split)

    @classmethod
    def full(cls, k: int) -> "PartitionFamily":
        return cls(k, all_partitions(k), validate=False)

    @classmethod
    def discrete_only(cls, k: int) -> "PartitionFamily":
        return cls(k, [SetPartition.discrete(k)], validate=False)

    @classmethod
    def max_block(cls, k: int, bound: int) -> "PartitionFamily":
        """All partitions whose blocks have at most `bound` elements."""
        if bound < 1:
            raise ValueError("the block bound must be >= 1")
        return cls(
            k,
            [p for p in all_partitions(k) if max(len(b) for b in p.blocks) <= bound],
            validate=False,
        )

    @classmethod
    def refining(cls, partition: SetPartition) -> "PartitionFamily":
        """All refinements of a fixed partition."""
        return cls(partition.ground, refinements_of(partition), validate=False)

    @classmethod
    def from_predicate(cls, k: int, predicate) -> "PartitionFamily":
        return cls(k, [p for p in all_partitions(k) if predicate(p)])

    @classmethod
    def from_json(cls, obj: dict) -> "PartitionFamily":
        k = int(_field(obj, "ground", "a partition family"))
        if "members" in obj:
            return cls(k, [SetPartition.from_json(p) for p in obj["members"]])
        if "max_block" in obj:
            return cls.max_block(k, int(obj["max_block"]))
        if "refines" in obj:
            target = SetPartition.from_json(obj["refines"])
            if target.ground != k:
                raise ValueError("partition in 'refines' has the wrong ground size")
            return cls.refining(target)
        raise ValueError("family object needs 'members', 'max_block' or 'refines'")

    def to_json(self) -> dict:
        return {"ground": self.ground, "members": [p.to_json() for p in self.sorted_members()]}

    def sorted_members(self):
        return sorted(self.members)

    def __contains__(self, partition) -> bool:
        return partition in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, PartitionFamily):
            return NotImplemented
        return self.ground == other.ground and self.members == other.members

    def __hash__(self):
        return hash((self.ground, self.members))

    def __repr__(self):
        return f"PartitionFamily(ground={self.ground}, size={len(self.members)})"

    def is_full(self) -> bool:
        return len(self.members) == len(all_partitions(self.ground))

    def is_stable_under(self, gset) -> bool:
        return all(p.apply(perm) in self.members for p in self.members for perm in gset)

    def extended_with(self, partitions) -> "PartitionFamily":
        return PartitionFamily(self.ground, self.members | frozenset(partitions))

    def block_counts(self) -> tuple:
        """n_r = number of members with exactly r blocks, for r = 1..k."""
        counts = [0] * self.ground
        for p in self.members:
            counts[p.block_count - 1] += 1
        return tuple(counts)


def validate_family(family: PartitionFamily, group: PermutationGroup = None, gset=None) -> bool:
    """Re-run the refinement-closure check and, if a group is given, stability."""
    family._validate_closure()
    if group is not None:
        if gset is None:
            gset = natural_gset(group, family.ground)
        if not family.is_stable_under(gset):
            raise ValueError("family is not stable under the group action")
    return True


def orbit_and_stabilizer(group: PermutationGroup, partition: SetPartition, gset=None):
    """The orbit of a partition and its stabilizer subgroup (orbit times
    stabilizer order equals the group order)."""
    if gset is None:
        gset = natural_gset(group, partition.ground)
    orbit = set()
    stab = []
    for g, perm in zip(group.elements, gset):
        image = partition.apply(perm)
        orbit.add(image)
        if image == partition:
            stab.append(g)
    return frozenset(orbit), PermutationGroup(group.degree, stab, validate=False)


@dataclass(frozen=True)
class MinimalStep:
    """Output of one step of the family recursion: a minimal excluded
    partition, its orbit adjoined to the family, and the stabilizer with its
    induced (possibly non-faithful) action on the blocks."""

    partition: SetPartition
    orbit: frozenset
    extended_family: PartitionFamily
    stabilizer: tuple          # elements of the ambient group fixing the partition
    block_action: tuple        # their induced permutations of the blocks
    block_ground: int          # number of blocks, the new ground size


def minimal_excluded_step(
    family: PartitionFamily,
    group: PermutationGroup,
    gset=None,
    rng=None,
) -> MinimalStep:
    """Pick a minimal partition outside the family and adjoin its orbit.

    Minimal means every proper refinement already belongs to the family.  Ties
    are broken canonically (least in block order) unless an `rng` is supplied,
    in which case the choice is randomized; any choice yields the same
    Lefschetz polynomial downstream.
    """
    if family.is_full():
        raise NoExcludedPartitionError("the family already contains every partition")
    if gset is None:
        gset = natural_gset(group, family.ground)
    missing = [p for p in all_partitions(family.ground) if p not in family.members]
    minimal = [
        p
        for p in missing
        if not any(q is not p and q.refines(p) for q in missing)
    ]
    chosen = rng.choice(minimal) if rng is not None else min(minimal)
    orbit = set()
    stab = []
    stab_action = []
    for g, perm in zip(group.elements, gset):
        image = chosen.apply(perm)
        orbit.add(image)
        if image == chosen:
            stab.append(g)
            stab_action.append(perm)
    extended = family.extended_with(orbit)
    block_lookup = {b: i for i, b in enumerate(chosen.blocks)}
    block_action = []
    for perm in stab_action:
        images = []
        for b in chosen.blocks:
            images.append(block_lookup[tuple(sorted(perm[x] for x in b))])
        block_action.append(tuple(images))
    return MinimalStep(
        partition=chosen,
        orbit=frozenset(orbit),
        extended_family=extended,
        stabilizer=tuple(stab),
        block_action=tuple(block_action),
        block_ground=chosen.block_count,
    )


def fiber_partition(values) -> SetPartition:
    """The partition of the index set by equal values."""
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return SetPartition(groups.values())
