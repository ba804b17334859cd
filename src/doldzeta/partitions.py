"""Set partitions, the refinement order, stable families and permutation groups.

Partitions of {0..k-1} are ordered by refinement: the discrete partition
(all singletons) is the least element and {K} the greatest.  A partition is
stored as its restricted growth string, the block index of each point with
the blocks numbered by their least elements, so images, fibers and splits
are relabellings of tuples.  A family of partitions is admissible when it
is closed downwards under refinement and, when paired with a group action,
stable under it.

Input is checked once, where it enters: the public constructors,
`validate_gset` and `_require_stable` (whose tables and families carry the
mark of the check).  The partitions, groups and families built inside this
package are correct by construction and go through one unchecked private
builder each: `SetPartition._fibers`, `PermutationGroup._closed` and
`PartitionFamily._trusted`.
"""

from __future__ import annotations

import functools
from itertools import combinations
from operator import attrgetter

from .series import _field, _integer, _integers, _shown


MAX_GROUND = 8  # Bell(8) = 4140 partitions; beyond that the oracles are hopeless anyway
DEFAULT_MAX_GROUP_ORDER = 720  # the order of S6
# A group read from JSON acts on at most this many points.  At 64 the
# costliest `gsymm` tried, one permutation with cycles of lengths
# 12, 12, 8, 8, 6, 6, 4, 4, 3, took 0.35 s and 40 MiB; at 128, 19 s and 700 MiB.
MAX_GROUP_DEGREE = 64


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
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise ValueError(f"{perm} is not a permutation of degree {degree}")


def _close(degree: int, candidates, members=None):
    """The candidates kept as generators (each one, in order, that the
    closure has not yet reached) and their closure under composition, a
    list that starts with the identity.  Each product g*s, g reached and s
    kept, is formed once: order x generators products.  A product outside
    `members`, when given, is refused; otherwise the order cap refuses a
    larger closure."""
    reached = [identity_perm(degree)]
    seen = set(reached)
    kept = []
    for candidate in candidates:
        if candidate in seen:
            continue
        kept.append(candidate)
        pending = [(g, candidate) for g in reached]
        while pending:
            start = len(reached)
            for g, s in pending:
                prod = tuple([g[i] for i in s])  # compose_perms(g, s), inlined for speed
                if prod in seen:
                    continue
                if members is not None and prod not in members:
                    raise ValueError(f"group not closed: {g} * {s} missing")
                seen.add(prod)
                reached.append(prod)
                if len(reached) > DEFAULT_MAX_GROUP_ORDER:
                    raise ValueError(f"group closure exceeded the order cap {DEFAULT_MAX_GROUP_ORDER}")
            pending = [(g, s) for g in reached[start:] for s in kept]
    return tuple(kept), reached


class PermutationGroup:
    """A permutation group of fixed degree: its sorted element list, a
    generating set fixed when it is built and its conjugacy classes.  The
    constructor checks an element list and keeps the generators `_close`
    picks from it in sorted order; the builders go through `_closed`."""

    __slots__ = ("degree", "elements", "generators", "_classes")

    def __init__(self, degree: int, elements):
        elements = sorted({tuple(_integer(x, "an entry of a group element") for x in e) for e in elements})
        if len(elements) > DEFAULT_MAX_GROUP_ORDER:
            raise ValueError(
                f"a group of {len(elements)} elements exceeds the order cap {DEFAULT_MAX_GROUP_ORDER}"
            )
        for e in elements:
            _require_permutation(e, degree)
        members = set(elements)
        if identity_perm(degree) not in members:
            raise ValueError("group does not contain the identity")
        self.degree = degree
        self.elements = tuple(elements)
        self.generators = _close(degree, elements, members)[0]
        self._classes = None

    @classmethod
    def _closed(cls, degree: int, candidates) -> "PermutationGroup":
        """The group the candidates generate, with the kept ones as its
        generators; the candidates must be permutations of the degree."""
        group = object.__new__(cls)
        group.generators, reached = _close(degree, candidates)
        group.degree = degree
        group.elements = tuple(sorted(reached))
        group._classes = None
        return group

    @classmethod
    def from_generators(cls, degree: int, generators):
        """The closure of a generating set, which stays the group's
        generators as given."""
        gens = tuple(tuple(_integer(x, "an entry of a group generator") for x in g) for g in generators)
        for g in gens:
            _require_permutation(g, degree)
        group = cls._closed(degree, gens)
        group.generators = gens
        return group

    @classmethod
    def symmetric(cls, k: int) -> "PermutationGroup":
        """S_k, closed from a k-cycle and a transposition (one generator
        for S2, none for S1); the closure's order cap refuses k > 6."""
        swap = list(range(k))
        swap[:2] = swap[1::-1]
        return cls._closed(k, [tuple((i + 1) % k for i in range(k)), tuple(swap)])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def classes(self) -> tuple:
        """The conjugacy classes as tuples of element indices, found once: each
        grown from its least element by conjugating with the generators in order."""
        if self._classes is None:
            index = {g: i for i, g in enumerate(self.elements)}
            conjugations = [(s, invert_perm(s)) for s in self.generators]
            classes, reached = [], set()
            for start in range(self.order):
                if start not in reached:
                    members = [start]
                    reached.add(start)
                    for g in map(self.elements.__getitem__, members):  # grows as found
                        for s, s_inv in conjugations:
                            j = index[tuple([s[g[x]] for x in s_inv])]  # s g s^-1
                            if j not in reached:
                                reached.add(j)
                                members.append(j)
                    classes.append(tuple(members))
            self._classes = tuple(classes)
        return self._classes

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
        if not 0 <= degree <= MAX_GROUP_DEGREE:
            raise ValueError(
                f"a group's 'degree' must be in 0..{MAX_GROUP_DEGREE}, got {_shown(degree)}"
            )
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

    The constructor checks closure under single block splits, which
    generate the full refinement order; the builders below make closed
    families and pass them to `_trusted`, which checks nothing.
    """

    __slots__ = ("ground", "members", "_side")

    def __init__(self, ground: int, members):
        members = frozenset(members)
        if not members:
            raise ValueError("a partition family must be nonempty")
        self.ground = ground
        self.members = members
        self._side = None
        self._validate_closure()

    @classmethod
    def _trusted(cls, ground: int, members) -> "PartitionFamily":
        """A family from members that are already a nonempty,
        refinement-closed set of partitions of {0..ground-1}, unchecked."""
        family = object.__new__(cls)
        family.ground = ground
        family.members = frozenset(members)
        family._side = None
        return family

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
        return cls._trusted(k, all_partitions(k))

    @classmethod
    def max_block(cls, k: int, bound: int) -> "PartitionFamily":
        """All partitions whose blocks have at most `bound` elements."""
        if bound < 1:
            raise ValueError("the block bound must be >= 1")
        return cls._trusted(
            k, [p for p in all_partitions(k) if max(len(b) for b in p.blocks) <= bound]
        )

    @classmethod
    def refining(cls, partition: SetPartition) -> "PartitionFamily":
        """All refinements of a fixed partition."""
        return cls._trusted(partition.ground, refinements_of(partition))

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
        """True when every permutation in `gset` maps the family into itself.

        A permutation of the ground set permutes the finite partition
        lattice, so it maps the family into itself exactly when it maps the
        complement into itself.  The smaller side is tested (`_smaller_side`):
        each member's image must be a member, or each excluded partition's
        image must not be.  Beyond `MAX_GROUND`, where the lattice is not
        built, the members are.  A permutation of another degree is refused
        as `SetPartition.apply` refuses it, even when the side is empty."""
        if any(len(perm) != self.ground for perm in gset):
            raise ValueError("permutation degree disagrees with the ground set")
        if 1 <= self.ground <= MAX_GROUND:
            side, inside = self._kept_side()
        else:
            side, inside = self.members, True
        members = self.members
        return all((p.apply(perm) in members) == inside for p in side for perm in gset)

    def _kept_side(self) -> tuple:
        """`_smaller_side` of the family, found on the first call and kept,
        so that the stability check and the class sum share it."""
        if self._side is None:
            self._side = _smaller_side(self)
        return self._side

    def block_counts(self) -> tuple:
        """n_r = number of members with exactly r blocks, for r = 1..k."""
        counts = [0] * self.ground
        for p in self.members:
            counts[p.block_count - 1] += 1
        return tuple(counts)


def _smaller_side(family: PartitionFamily) -> tuple:
    """(partitions, inside): the members, inside True, when they are fewer
    than the partitions the family excludes, and otherwise the excluded
    partitions, inside False; either list in `all_partitions` order.  The
    choice depends on the family's size alone."""
    lattice = all_partitions(family.ground)
    if 2 * len(family.members) < len(lattice):
        return sorted(family.members, key=attrgetter("labels")), True
    return [p for p in lattice if p not in family.members], False


class _StableFamily(PartitionFamily):
    """A family that `_require_stable` found stable under the table `action`,
    with the smaller side that the check found."""

    __slots__ = ("action",)

    def __init__(self, family: PartitionFamily, action):
        self.ground = family.ground
        self.members = family.members
        self._side = family._side
        self.action = action


def fiber_partition(values) -> SetPartition:
    """The partition of the index set by equal values."""
    return SetPartition._fibers(values)
