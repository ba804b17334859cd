"""Brute-force fixed-point counts for maps induced on derived spaces.

Given a finite self-map f, each functor here has a concrete finite model:
multisets of bounded multiplicity, subsets of bounded size, tuples with a
repetition bound, or group orbits of maps with a constrained fiber
partition, smashed with the smash power of a pointed set given by its number
of non-basepoint points.  Counting the fixed points of the induced map by
exhaustive enumeration gives the ground truth against which every
closed-form series in this package is verified.

Whether f o a can be a's own rearrangement, as a fixed multiset, subset or
orbit requires, depends only on the multiset m of a's values.  So the
oracles find the fixed multisets by one depth-first walk over nondecreasing
value sequences, which keeps d = m - f_* m and spreads only those with
d = 0 into their orderings, visited one by one.  The walk prunes and is
still exhaustive: once it has passed y, m_y is final and (f_* m)_y can only
grow, so a branch with d_y < 0 at a passed y holds no fixed multiset.  The
tuple oracle walks the tuples of fixed points and counts each once.  The
multiset, subset and tuple oracles each answer for every size j <= k at
once, as a tuple of k + 1 counts, from one walk to size k.  The orbit-space
oracles count each fixed orbit once, at its least point, building each
image of a candidate once.  The Burnside cross-check in `fixed_gmap_space`
walks the same candidates and builds one image per conjugacy class, since
its count is a class function; nothing is stored per candidate.  Every
enumeration sits behind one size guard that counts the full nominal space,
not the smaller walk: 10^7 candidate points, or the DOLD_ZETA_MAX_ENUM
environment variable, read at each guard.  The multiset, subset and tuple
oracles guard each size j = 1..k in turn before they walk, so a refusal
names the least size over the limit.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import accumulate, chain, combinations_with_replacement, product
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


def enumeration_limit() -> int:
    env = os.environ.get("DOLD_ZETA_MAX_ENUM")
    return _integer(env, "the variable DOLD_ZETA_MAX_ENUM") if env else DEFAULT_MAX_ENUM


def _guard(size: int):
    limit = enumeration_limit()
    if size > limit:
        raise EnumerationLimitError(size, limit)


def _fixed_multiset_walk(f: FiniteSelfMap, k: int, cap: int):
    """Each multiset of size <= k with multiplicities <= cap that f
    carries onto itself, as a sorted tuple, from a depth-first walk over the
    nondecreasing value sequences.

    Along the walk d[y] = m_y - (f_* m)_y for the multiset m at hand, and m
    is fixed exactly when no d[y] is nonzero.  Values come in order, so once
    the walk has passed y, m_y is final and (f_* m)_y can only grow: a
    branch in which some passed d[y] is negative holds no fixed multiset.
    So the walk skips x when f(x) < x and d[f(x)] <= 0, and tries no value
    after x once d[x] < 0.
    """
    push = f.mapping
    n = f.size
    d = [0] * n
    values = []

    def grow(start, run, nonzero):
        # extend `values`, whose last value `start` occurs `run` times
        deeper = len(values) + 1 < k
        for x in range(start, n):
            y = push[x]
            if (x > start or run < cap) and not (y < x and d[y] <= 0):
                if y == x:
                    nz = nonzero
                else:
                    dx, dy = d[x], d[y]
                    nz = nonzero + (dx == 0) - (dx == -1) + (dy == 0) - (dy == 1)
                    d[x] = dx + 1
                    d[y] = dy - 1
                values.append(x)
                if not nz:
                    yield tuple(values)
                if deeper:
                    yield from grow(x, run + 1 if x == start else 1, nz)
                values.pop()
                if y != x:
                    d[x] -= 1
                    d[y] += 1
            if d[x] < 0:
                return

    yield ()
    if k:
        yield from grow(0, 0, 0)


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
    fixed = (values for values in _fixed_multiset_walk(f, k, k) if len(values) == k)
    return chain.from_iterable(map(_arrangements, fixed))


def _within(values, bound) -> bool:
    """No value of the sorted tuple repeats more than `bound` times (None:
    no bound)."""
    if bound is None:
        return True
    return bound > 0 and all(values[i] != values[i + bound] for i in range(len(values) - bound))


def fixed_bounded_multisets(f: FiniteSelfMap, k: int, bound=None) -> tuple:
    """Fixed points of the induced maps on multisets of every size j <= k
    with all multiplicities <= bound (bound None means unbounded), as the
    tuple of k + 1 counts.

    A multiset m is fixed exactly when its pushforward along f equals m,
    i.e. sum_{x: f(x)=y} m_x = m_y for every y; such a multiset is a sum of
    periodic orbits.  Size 0 counts the empty multiset once.  One walk to
    size k serves every size.
    """
    if k < 0:
        raise ValueError("multiset size must be >= 0")
    n = f.size
    if n == 0 or (bound is not None and bound <= 0):
        return (1,) + (0,) * k
    for j in range(1, k + 1):
        _guard(comb(n + j - 1, j))
    cap = k if bound is None else bound
    sizes = Counter(map(len, _fixed_multiset_walk(f, k, cap)))
    return tuple(sizes[j] for j in range(k + 1))


def fixed_invariant_subsets(f: FiniteSelfMap, k: int) -> tuple:
    """For each j <= k, the nonempty subsets A with |A| <= j and f(A) = A
    (unions of periodic orbits), as the tuple of k + 1 counts; entry 0 is 0.
    One walk to size k serves every size."""
    if k < 0:
        raise ValueError("subset size must be >= 0")
    n = f.size
    nominal = 0
    for j in range(1, k + 1):
        nominal += comb(n, j)
        _guard(nominal)
    # f(A) = A for a set A exactly when f permutes A: A is a fixed multiset
    sizes = Counter(map(len, _fixed_multiset_walk(f, k, 1)))
    return tuple(accumulate((sizes[j] for j in range(1, k + 1)), initial=0))


def fixed_bounded_tuples(f: FiniteSelfMap, k: int, bound: int) -> tuple:
    """Fixed tuples of every length j <= k over the fixed-point set of f, in
    which no value is repeated more than `bound` times, as the tuple of
    k + 1 counts; length 0 counts 1.  One walk to length k serves every
    length."""
    if k < 0:
        raise ValueError("tuple length must be >= 0")
    if bound is not None and bound <= 0:
        return (1,) + (0,) * k
    fixed = f.fixed_points()
    for j in range(1, k + 1):
        _guard(len(fixed) ** j)
    cap = k if bound is None else bound
    uses = [0] * f.size
    counts = [0] * (k + 1)

    def extend(length):
        # count the tuple of `length` values at hand and each extension of it
        counts[length] += 1
        if length < k:
            for x in fixed:
                if uses[x] < cap:
                    uses[x] += 1
                    extend(length + 1)
                    uses[x] -= 1

    extend(0)
    return tuple(counts)


def _fixed_orbit_count(f, gset, k, admissible=None, points=1) -> int:
    """Orbits of pairs (a, y) fixed by [a, y] |-> [f o a, y], with a: K -> M
    passing `admissible` (any map when None) and y a tuple in {0..points-1}^k,
    a non-basepoint element of the k-fold smash power of a pointed set with
    `points` such elements (points = 1: one y, fixed by all of G); g sends
    (a, y) to (a o g^{-1}, y o g^{-1}).

    Each orbit is counted once, at its least point: each image of (a, y) is
    built once, the count moves on at the first image smaller than (a, y),
    and when none is smaller, every image has been built and (a, y) counts
    when (f o a, y) is one of them, i.e. lies in its orbit.  Nothing is
    stored per candidate.
    """
    tuples = list(product(range(points), repeat=k))
    index = {y: i for i, y in enumerate(tuples)}
    ys = range(len(tuples))
    moves = []
    for perm in gset:
        inv = invert_perm(perm)
        moves.append((inv, tuple(index[tuple(map(y.__getitem__, inv))] for y in tuples)))
    push = f.mapping.__getitem__
    count = 0
    # f o a shares an orbit with a only as a rearrangement of its values
    for a in _rearranged_maps(f, k):
        if admissible is not None and not admissible(a):
            continue
        image, get = tuple(map(push, a)), a.__getitem__
        for y in ys:
            point, target = (a, y), (image, y)
            fixed = False
            for inv, y_perm in moves:
                other = (tuple(map(get, inv)), y_perm[y])
                if other < point:
                    break
                if other == target:
                    fixed = True
            else:
                count += fixed
    return count


def fixed_partition_orbits(
    f: FiniteSelfMap,
    group: PermutationGroup,
    family: PartitionFamily,
    coefficient_size: int = 1,
    gset=None,
) -> int:
    """Fixed points of the induced map on the orbit space of maps a: K -> M
    whose fiber partition lies in the family, smashed with the k-fold smash
    power of a pointed set with `coefficient_size` non-basepoint elements
    (1, the default, leaves the orbit space as it is).

    Candidate points are pairs (a, y) with pi(a) in the family and y a tuple
    in {0..coefficient_size-1}^k; the group acts diagonally (on both by
    precomposition with g^{-1}) and the induced map sends [a, y] to
    [f o a, y].  An orbit counts as fixed when the image of a representative
    lands back in the same orbit, equivalently when some g in G satisfies
    f o a = a o g and y o g = y.  The family must be stable under the
    action, so that an orbit is admissible as a whole.
    """
    if coefficient_size < 0:
        raise ValueError("the number of non-basepoint elements must be >= 0")
    gset = validate_gset(group, gset, family.ground)
    family = _require_stable(family, group, gset)
    k = len(gset[0])
    _guard(f.size ** k * max(1, coefficient_size ** k))
    return _fixed_orbit_count(
        f, gset, k, lambda a: fiber_partition(a) in family, coefficient_size
    )


def fixed_gmap_space(
    f: FiniteSelfMap,
    group: PermutationGroup,
    gset=None,
) -> int:
    """Fixed points of a |-> f o a on the orbit space map(K, M)/G.

    Computed twice: by counting the fixed orbits at their least points, and
    as the Burnside average (1/|G|) sum_g #{a : f o a = a o g}, a class
    function of g taken once per conjugacy class and weighted by its size.
    The two counts must agree; a mismatch is an internal logic error.
    """
    gset = validate_gset(group, gset)
    k = len(gset[0])
    _guard(f.size ** k)
    orbit_count = _fixed_orbit_count(f, gset, k)

    # f o a = a o g makes f o a a rearrangement of a, so no other map counts
    leaders = [(len(members), gset[members[0]]) for members in group.classes]
    push = f.mapping.__getitem__
    total = 0
    for a in _rearranged_maps(f, k):
        get, image = a.__getitem__, tuple(map(push, a))
        total += sum(size for size, perm in leaders if tuple(map(get, perm)) == image)
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
    pointed_map: FiniteSelfMap, k: int, bound=None
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
    _guard(comb(max(n - 1, 0) + k - 1, k) if n > 1 else 0)
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
