"""Brute-force fixed-point counts for maps induced on derived spaces.

Given a finite self-map f, each functor here has a concrete finite model:
multisets of bounded multiplicity, subsets of bounded size, tuples with a
repetition bound, or group orbits of maps with a constrained fiber
partition.  Counting the fixed points of the induced map by exhaustive
enumeration gives the ground truth against which every closed-form series
in this package is verified.

Whether f o a can be a's own rearrangement, as a fixed multiset, subset or
orbit requires, depends only on the multiset of a's values.  So the oracles
test each multiset once, as a sorted tuple, and spread only those that pass
into their orderings, which they then visit one by one.  The orbit-space
oracles count each fixed orbit once, at its least point, and the Burnside
cross-check in `fixed_gmap_space` walks the same candidates; nothing is
stored per candidate.  Every enumeration sits behind a size guard that
counts the full nominal space, not the smaller walk (default 10^7 candidate
points, overridable through the DOLD_ZETA_MAX_ENUM environment variable).
"""

from __future__ import annotations

import os
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb

from .dynamics import FiniteSelfMap
from .partitions import (
    PartitionFamily,
    PermutationGroup,
    _require_stable,
    fiber_partition,
    invert_perm,
    perm_cycle_count,
    validate_gset,
)
from .series import _integer

DEFAULT_MAX_ENUM = 10_000_000


class EnumerationLimitError(ValueError):
    """An oracle refused an enumeration larger than the configured guard."""

    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(
            f"enumeration of {size} candidates exceeds the guard {limit}; "
            "raise DOLD_ZETA_MAX_ENUM to override"
        )


def enumeration_limit(override=None) -> int:
    if override is not None:
        return _integer(override, "the enumeration limit")
    env = os.environ.get("DOLD_ZETA_MAX_ENUM")
    return _integer(env, "the variable DOLD_ZETA_MAX_ENUM") if env else DEFAULT_MAX_ENUM


def _guard(size: int, max_enum=None):
    limit = enumeration_limit(max_enum)
    if size > limit:
        raise EnumerationLimitError(size, limit)


def _fixed_multisets(f: FiniteSelfMap, candidates):
    """The sorted tuples among `candidates` that f carries onto themselves as
    multisets: those whose values, pushed along f and sorted, come back."""
    push = f.mapping.__getitem__
    for values in candidates:
        if sorted(map(push, values)) == list(values):
            yield values


def _arrangements(values):
    """Each distinct ordering of the sorted tuple `values` once, in
    lexicographic order (next permutation)."""
    a = list(values)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _rearranged_maps(f: FiniteSelfMap, k: int):
    """The maps a: {0..k-1} -> M whose composite f o a is a rearrangement of
    a, each once: the orderings of the fixed multisets of size k."""
    fixed = _fixed_multisets(f, combinations_with_replacement(range(f.size), k))
    return chain.from_iterable(map(_arrangements, fixed))


def _within(values, bound) -> bool:
    """No value of the sorted tuple repeats more than `bound` times (None:
    no bound)."""
    if bound is None:
        return True
    return bound > 0 and all(values[i] != values[i + bound] for i in range(len(values) - bound))


class PointedFiniteSet:
    """A finite pointed set (basepoint index 0), optionally with a group
    action fixing the basepoint.  Its reduced Euler characteristic is
    size - 1."""

    __slots__ = ("size", "action")

    def __init__(self, size: int, action=None):
        if size < 1:
            raise ValueError("a pointed set has at least its basepoint")
        self.size = size
        self.action = None
        if action is not None:
            table = {}
            for g, perm in action.items():
                perm = tuple(_integer(y, "an entry of a pointed set's action") for y in perm)
                if sorted(perm) != list(range(size)) or perm[0] != 0:
                    raise ValueError("action must permute the set and fix the basepoint")
                table[tuple(g)] = perm
            self.action = table

    def act(self, g, y: int) -> int:
        if self.action is None:
            return y
        return self.action[tuple(g)][y]

    @classmethod
    def smash_power(cls, points: int, group: PermutationGroup, gset=None) -> "PointedFiniteSet":
        """The k-fold smash power of a pointed set with `points` non-basepoint
        elements, with the group permuting the k factors through `gset`.

        Non-basepoint elements are the tuples in {0..points-1}^k, encoded in
        mixed radix; a factor permutation s sends x to x o s^{-1}.  For any
        group element g with c(g) cycles on the factors, the trace is
        points^{c(g)}.
        """
        gset = validate_gset(group, gset)
        k = len(gset[0])
        if points < 0:
            raise ValueError("the number of non-basepoint elements must be >= 0")
        size = points ** k + 1

        def encode(tup):
            y = 0
            for x in tup:
                y = y * points + x
            return y + 1

        tuples = list(product(range(points), repeat=k)) if points else []
        action = {}
        for g, perm in zip(group.elements, gset):
            inv = invert_perm(perm)
            images = [0] * size
            for tup in tuples:
                images[encode(tup)] = encode(tuple(tup[inv[j]] for j in range(k)))
            action[g] = tuple(images)
        return cls(size, action)


def fixed_bounded_multisets(f: FiniteSelfMap, k: int, bound=None, max_enum=None) -> int:
    """Fixed points of the induced map on multisets of size k with all
    multiplicities <= bound (bound None means unbounded).

    A multiset m is fixed exactly when its pushforward along f equals m,
    i.e. sum_{x: f(x)=y} m_x = m_y for every y; such a multiset is a sum of
    periodic orbits.  k = 0 counts the empty multiset once.
    """
    if k < 0:
        raise ValueError("multiset size must be >= 0")
    if k == 0:
        return 1
    n = f.size
    if n == 0:
        return 0
    if bound is not None and bound <= 0:
        return 0
    _guard(comb(n + k - 1, k), max_enum)
    fixed = _fixed_multisets(f, combinations_with_replacement(range(n), k))
    return sum(1 for values in fixed if _within(values, bound))


def fixed_invariant_subsets(f: FiniteSelfMap, k: int, max_enum=None) -> int:
    """Nonempty subsets A with |A| <= k and f(A) = A (unions of periodic orbits)."""
    if k < 1:
        return 0
    n = f.size
    _guard(sum(comb(n, j) for j in range(1, min(k, n) + 1)), max_enum)
    # f(A) = A for a set A exactly when f permutes A: A is a fixed multiset
    subsets = chain.from_iterable(combinations(range(n), j) for j in range(1, min(k, n) + 1))
    return sum(1 for _ in _fixed_multisets(f, subsets))


def fixed_bounded_tuples(f: FiniteSelfMap, k: int, bound: int, max_enum=None) -> int:
    """Fixed tuples of length k over the fixed-point set of f, in which no
    value is repeated more than `bound` times.  k = 0 counts 1."""
    if k < 0:
        raise ValueError("tuple length must be >= 0")
    if k == 0:
        return 1
    if bound is not None and bound <= 0:
        return 0
    fixed = f.fixed_points()
    _guard(len(fixed) ** k, max_enum)
    count = 0
    for values in combinations_with_replacement(fixed, k):
        if _within(values, bound):
            count += sum(1 for _ in _arrangements(values))
    return count


def _fixed_orbit_count(f, group, gset, k, admissible=None, coefficient=None) -> int:
    """Orbits of pairs (a, y) fixed by [a, y] |-> [f o a, y], with a: K -> M
    passing `admissible` (any map when None) and y a non-basepoint element of
    the coefficient set (one point fixed by all of G when None); g sends
    (a, y) to (a o g^{-1}, g y).

    Each orbit is counted once, at its least point: (a, y) counts when no
    image is smaller and the orbit of (f o a, y) has the same least point.
    The induced map commutes with the action, so it carries orbits onto
    orbits, and the second test holds exactly when (a, y) lies in the orbit
    of (f o a, y).  Nothing is stored per candidate.
    """
    coefficient = coefficient or PointedFiniteSet(2)
    ys = range(1, coefficient.size)
    moves = [
        (invert_perm(perm), tuple(coefficient.act(g, y) for y in range(coefficient.size)))
        for g, perm in zip(group.elements, gset)
    ]
    push = f.mapping.__getitem__
    count = 0
    # f o a shares an orbit with a only as a rearrangement of its values
    for a in _rearranged_maps(f, k):
        if admissible is not None and not admissible(a):
            continue
        image = tuple(map(push, a))
        for y in ys:
            point = (a, y)
            if any((tuple(map(a.__getitem__, inv)), y_perm[y]) < point for inv, y_perm in moves):
                continue
            if any(
                y_perm[y] == y and tuple(map(image.__getitem__, inv)) == a
                for inv, y_perm in moves
            ):
                count += 1
    return count


def fixed_partition_orbits(
    f: FiniteSelfMap,
    group: PermutationGroup,
    family: PartitionFamily,
    coefficient: PointedFiniteSet = None,
    gset=None,
    max_enum=None,
) -> int:
    """Fixed points of the induced map on the orbit space of maps a: K -> M
    whose fiber partition lies in the family, optionally smashed with a
    pointed coefficient set.

    Candidate points are pairs (a, y) with pi(a) in the family and y a
    non-basepoint element of the coefficient set; the group acts diagonally
    (a by precomposition, y through its own action) and the induced map
    sends [a, y] to [f o a, y].  An orbit counts as fixed when the image of
    a representative lands back in the same orbit, equivalently when some
    g in G satisfies f o a = a o g and g fixes y.  The family must be stable
    under the action, so that an orbit is admissible as a whole.
    """
    gset = validate_gset(group, gset, family.ground)
    family = _require_stable(family, group, gset)
    k = len(gset[0])
    _guard(f.size ** k * max(1, coefficient.size - 1 if coefficient else 1), max_enum)
    return _fixed_orbit_count(
        f, group, gset, k, lambda a: fiber_partition(a) in family, coefficient
    )


def fixed_gmap_space(
    f: FiniteSelfMap,
    group: PermutationGroup,
    gset=None,
    max_enum=None,
) -> int:
    """Fixed points of a |-> f o a on the orbit space map(K, M)/G.

    Computed twice: by counting the fixed orbits at their least points, and
    as the Burnside average (1/|G|) sum_g #{a : f o a = a o g}.  The two
    counts must agree; a mismatch is an internal logic error.
    """
    gset = validate_gset(group, gset)
    k = len(gset[0])
    _guard(f.size ** k, max_enum)
    orbit_count = _fixed_orbit_count(f, group, gset, k)

    # f o a = a o g makes f o a a rearrangement of a, so no other map counts
    push = f.mapping.__getitem__
    total = 0
    for a in _rearranged_maps(f, k):
        image = tuple(map(push, a))
        total += sum(image == tuple(map(a.__getitem__, perm)) for perm in gset)
    if total % group.order:
        raise RuntimeError("Burnside sum is not divisible by the group order")
    burnside = total // group.order
    if burnside != orbit_count:
        raise RuntimeError(
            f"orbit enumeration ({orbit_count}) disagrees with the Burnside "
            f"average ({burnside})"
        )
    return orbit_count


def induced_bounded_multiset_map(
    pointed_map: FiniteSelfMap, k: int, bound=None, max_enum=None
) -> FiniteSelfMap:
    """The induced self-map on bounded multisets over the non-basepoint part
    of a pointed map (basepoint 0 absorbing).

    Point 0 of the result is the basepoint; the remaining points are the
    multisets of size k drawn from {1..n-1} with multiplicities <= bound.
    A multiset maps to its pushforward, or to the basepoint whenever the
    pushforward touches 0 or violates the bound.
    """
    if pointed_map(0) != 0:
        raise ValueError("expected a pointed map fixing index 0")
    if k < 1:
        raise ValueError("multiset size must be >= 1")
    n = pointed_map.size
    _guard(comb(max(n - 1, 0) + k - 1, k) if n > 1 else 0, max_enum)
    multisets = []
    for combo in combinations_with_replacement(range(1, n), k):
        if _within(combo, bound):
            multisets.append(combo)
    index = {m: i + 1 for i, m in enumerate(multisets)}
    mapping = [0]
    for m in multisets:
        image = tuple(sorted(pointed_map(x) for x in m))
        if 0 in image or not _within(image, bound):
            mapping.append(0)
        else:
            mapping.append(index[image])
    return FiniteSelfMap(mapping)


def coefficient_traces(group: PermutationGroup, euler: int, gset=None) -> dict:
    """Traces of the group elements on the smash power of a pointed set with
    reduced Euler characteristic `euler`: g has trace euler^{c(g)}, with c(g)
    the number of cycles of g on the smash factors.  For euler >= 0 this is a
    literal fixed-tuple count; the same formula extends to all integers."""
    gset = validate_gset(group, gset)
    return {g: euler ** perm_cycle_count(perm) for g, perm in zip(group.elements, gset)}
