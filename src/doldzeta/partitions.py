"""Set partitions, the refinement order, stable families and permutation groups.

Partitions of {0..k-1} are ordered by refinement: the discrete partition
(all singletons) is the least element and {K} the greatest.  A partition is
stored as its restricted growth string, the block index of each point with
the blocks numbered by their least elements, so images, fibers and splits
are relabellings of tuples.  A family of partitions is admissible when it
is closed downwards under refinement and, when paired with a group action,
stable under it.

Input is checked once, where it enters: the blocks constructor, the
validating family constructor, `validate_gset` and `_require_stable` (whose
tables and families carry the mark of the check).  The partitions and
families built inside this package are correct by construction and are not
checked again.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations

from .series import _field, _integer, _integers


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


class SetPartition:
    """A partition of {0..k-1}, stored as its restricted growth string.

    `labels[x]` is the index of the block holding x, the blocks numbered
    0, 1, 2, ... in the order of their least elements, so two equal
    partitions have identical labels.  The blocks constructor checks its
    input; the builders in this module pass values they made themselves to
    `_fibers`, which relabels them and checks nothing.
    """

    __slots__ = ("labels",)

    def __init__(self, blocks):
        blocks = [[_integer(x, "an entry of a partition block") for x in b] for b in blocks]
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        where = {}
        for index, block in enumerate(sorted(blocks, key=min)):
            for x in block:
                where[x] = index
        ground = sum(map(len, blocks))
        # a repeated element leaves fewer keys than elements
        if sorted(where) != list(range(ground)):
            raise ValueError(f"blocks {blocks} do not partition a range 0..k-1")
        self.labels = tuple(where[x] for x in range(ground))

    @classmethod
    def _fibers(cls, values) -> "SetPartition":
        """The partition of range(len(values)) by equal values, unchecked."""
        first = {}
        part = object.__new__(cls)
        part.labels = tuple([first.setdefault(v, len(first)) for v in values])
        return part

    @classmethod
    def discrete(cls, k: int) -> "SetPartition":
        return cls._fibers(range(k))

    @property
    def ground(self) -> int:
        return len(self.labels)

    @property
    def block_count(self) -> int:
        return max(self.labels, default=-1) + 1

    @property
    def blocks(self) -> tuple:
        """The blocks as sorted tuples, in the order of their least elements."""
        blocks = [[] for _ in range(self.block_count)]
        for x, label in enumerate(self.labels):
            blocks[label].append(x)
        return tuple(map(tuple, blocks))

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self lies inside a block of other (self <= other)."""
        if self.ground != other.ground:
            raise ValueError("partitions of different ground sets are incomparable")
        return len(set(zip(self.labels, other.labels))) == self.block_count

    def apply(self, perm) -> "SetPartition":
        """Image of the partition under a permutation of the ground set."""
        if len(perm) != self.ground:
            raise ValueError("permutation degree disagrees with the ground set")
        image = [0] * len(perm)
        for x, label in zip(perm, self.labels):
            image[x] = label
        return SetPartition._fibers(image)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __lt__(self, other):
        return self.labels < other.labels

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({inner})"

    @classmethod
    def from_json(cls, obj) -> "SetPartition":
        if not isinstance(obj, list):
            raise ValueError(f"a partition must be a list of blocks, got {type(obj).__name__}")
        return cls(_integers(block, "a partition block") for block in obj)


@functools.lru_cache(maxsize=None)
def all_partitions(k: int):
    """All Bell(k) partitions of {0..k-1}, materialized once per k, in the
    order of their labels: each growth string extends a shorter one by an
    existing block or one new block."""
    if not 1 <= k <= MAX_GROUND:
        raise ValueError(f"partition lattice supported for 1 <= k <= {MAX_GROUND}")
    strings = [(0,)]
    for _ in range(k - 1):
        strings = [s + (label,) for s in strings for label in range(max(s) + 2)]
    return tuple(SetPartition._fibers(s) for s in strings)


def refinements_of(partition: SetPartition):
    """All partitions <= the given one."""
    return [p for p in all_partitions(partition.ground) if p.refines(partition)]


def _single_splits(partition: SetPartition):
    """Partitions obtained by splitting one block into two nonempty pieces:
    the piece without the block's least element moves to a new block."""
    fresh = partition.block_count
    for block in partition.blocks:
        rest = block[1:]
        for r in range(1, len(rest) + 1):
            for moved in combinations(rest, r):
                values = list(partition.labels)
                for x in moved:
                    values[x] = fresh
                yield SetPartition._fibers(values)


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
        if validate:  # the other constructors here pass tuples of ints they made
            elements = [tuple(_integer(x, "an entry of a group element") for x in e) for e in elements]
        self.degree = degree
        self.elements = tuple(sorted(set(map(tuple, elements))))
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._generators = None
        if validate:
            if self.order > DEFAULT_MAX_GROUP_ORDER:
                raise ValueError(
                    f"a group of {self.order} elements exceeds the order cap {DEFAULT_MAX_GROUP_ORDER}"
                )
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
    def from_generators(cls, degree: int, generators):
        """Close a generating set under composition (breadth-first products),
        refused once the closure exceeds the order cap."""
        gens = [tuple(_integer(x, "an entry of a group generator") for x in g) for g in generators]
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
                        if len(elements) > DEFAULT_MAX_GROUP_ORDER:
                            raise ValueError(
                                f"group closure exceeded the order cap {DEFAULT_MAX_GROUP_ORDER}"
                            )
            frontier = new
        group = cls(degree, elements, validate=False)
        group._generators = tuple(gens)
        return group

    @classmethod
    def symmetric(cls, k: int) -> "PermutationGroup":
        if k > 6:
            raise ValueError("full symmetric groups are materialized only up to degree 6")
        return cls(k, permutations(range(k)), validate=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, g):
        return invert_perm(tuple(g))

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    @classmethod
    def from_json(cls, obj: dict) -> "PermutationGroup":
        degree = _integer(_field(obj, "degree", "a group"), "a group's 'degree'")
        key = "elements" if "elements" in obj else "generators"
        perms = [
            _integers(perm, f"a permutation in a group's {key!r}")
            for perm in _field(obj, key, "a group", list)
        ]
        if key == "elements":
            return cls(degree, perms)
        return cls.from_generators(degree, perms)


class _CheckedAction(tuple):
    """An action table that `validate_gset` checked for `group` (a tuple: it cannot change)."""

    def __new__(cls, table, group):
        action = super().__new__(cls, table)
        action.group = group
        return action


def _require_homomorphism(group: PermutationGroup, gset) -> tuple:
    """The table as a tuple, refused unless it is a homomorphism: a
    mis-ordered table would silently corrupt every orbit count built on it.
    phi(g h) = phi(g) phi(h) is checked for every g and every generator h,
    with phi(id) = id (which catches a bad table for the trivial group, with
    no generators); by induction on the word length of h it holds for all."""
    gset = tuple(tuple(_integer(x, "an entry of an action table") for x in perm) for perm in gset)
    if len(gset) != group.order:
        raise ValueError("the action table must align with the group's element list")
    size = len(gset[0])
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


def validate_gset(group: PermutationGroup, gset=None, ground=None):
    """The action table of `group` on `ground` points (any number when
    None): the natural one for None, otherwise the given table, checked.

    A table holds one permutation per group element, in element order.  The
    table returned is marked as checked for the group: passed in again, only
    its size is compared with `ground`."""
    if gset is None:
        if ground is not None and ground != group.degree:
            raise ValueError(
                f"group degree {group.degree} does not match the ground size {ground}; "
                "pass an explicit action"
            )
        return _CheckedAction(group.elements, group)
    if not (isinstance(gset, _CheckedAction) and gset.group == group):
        gset = _CheckedAction(_require_homomorphism(group, gset), group)
    if ground is not None and len(gset[0]) != ground:
        raise ValueError(
            f"the action table permutes {len(gset[0])} points, not the {ground} of the ground set"
        )
    return gset


def _require_stable(family: "PartitionFamily", group: PermutationGroup, gset):
    """The family marked as stable under the validated action table `gset`,
    refused when the table does not map it into itself.  The images of the
    generators decide it: every element is a word in them, and a permutation
    of a finite family that maps it into itself maps it onto itself.  A
    family marked for an equal table is returned unchecked."""
    if isinstance(family, _StableFamily) and family.action == gset:
        return family
    table = dict(zip(group.elements, gset))
    if not family.is_stable_under([table[s] for s in group.generators]):
        raise ValueError("family is not stable under the group action")
    return _StableFamily(family, gset)


class PartitionFamily:
    """A nonempty, refinement-closed set of partitions of {0..k-1}.

    The validating constructor checks closure under single block splits,
    which generate the full refinement order; the builders below make
    closed families and skip the check.
    """

    __slots__ = ("ground", "members")

    def __init__(self, ground: int, members, validate: bool = True):
        members = frozenset(members)
        if not members:
            raise ValueError("a partition family must be nonempty")
        self.ground = ground
        self.members = members
        if validate:
            self._validate_closure()

    def _validate_closure(self):
        for p in self.members:
            if not isinstance(p, SetPartition) or p.ground != self.ground:
                raise ValueError(f"{p!r} is not a partition of 0..{self.ground - 1}")
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
    def from_json(cls, obj: dict) -> "PartitionFamily":
        k = _integer(_field(obj, "ground", "a partition family"), "a partition family's 'ground'")
        if "members" in obj:
            members = _field(obj, "members", "a partition family", list)
            return cls(k, [SetPartition.from_json(p) for p in members])
        if "max_block" in obj:
            return cls.max_block(k, _integer(obj["max_block"], "a partition family's 'max_block'"))
        if "refines" in obj:
            target = SetPartition.from_json(obj["refines"])
            if target.ground != k:
                raise ValueError("partition in 'refines' has the wrong ground size")
            return cls.refining(target)
        raise ValueError("family object needs 'members', 'max_block' or 'refines'")

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

    def is_stable_under(self, gset) -> bool:
        return all(p.apply(perm) in self.members for p in self.members for perm in gset)

    def block_counts(self) -> tuple:
        """n_r = number of members with exactly r blocks, for r = 1..k."""
        counts = [0] * self.ground
        for p in self.members:
            counts[p.block_count - 1] += 1
        return tuple(counts)


class _StableFamily(PartitionFamily):
    """A family that `_require_stable` found stable under the table `action`."""

    __slots__ = ("action",)

    def __init__(self, family: PartitionFamily, action):
        super().__init__(family.ground, family.members, validate=False)
        self.action = action


def fiber_partition(values) -> SetPartition:
    """The partition of the index set by equal values."""
    return SetPartition._fibers(values)
