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
tuple oracle walks the tuples of fixed points and counts each once, those
of the top length k by the running number of fixed points still under the
repetition bound at each tuple of length k - 1.  The
multiset, subset and tuple oracles each answer for every size j <= k at
once, as a tuple of k + 1 counts, from one walk to size k.  The orbit-space
oracles count each fixed orbit once, at its least point, building each
image of a candidate once.  A candidate a with its smash coordinate y is
one tuple a + y, and each group element moves it by one itemgetter built
before the walk.  The Burnside cross-check in `fixed_gmap_space` is summed
in the same walk, reading one image per conjugacy class, since its count
is a class function; nothing is stored per candidate.

The walks run on the periodic part of f that a fixed point can use
(`_periodic_part`): a fixed multiset or subset of size <= k is a sum of
f-orbits of length <= k, and a value of a fixed orbit's map, on a cycle of
length r of some group element, is fixed by f^r.  The points kept stay in
their order, so tuples of them compare as before.  Every enumeration sits
behind one size guard that counts the full nominal space of the whole map,
not the smaller walk: 10^7 candidate points, or the DOLD_ZETA_MAX_ENUM
environment variable, read at each guard.  The multiset, subset and tuple
oracles guard each size j = 1..k in turn before they walk, so a refusal
names the least size over the limit.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import accumulate, chain, combinations_with_replacement, compress, product
from math import comb

from .dynamics import FiniteSelfMap
from .partitions import (
    PartitionFamily,
    PermutationGroup,
    _growth_string,
    _reader,
    _require_stable,
    invert_perm,
    perm_cycle_count,
    perm_cycle_type,
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


def _periodic_part(f: FiniteSelfMap, lengths) -> FiniteSelfMap:
    """f restricted to its periodic points whose least period divides one
    of `lengths`, renumbered 0..m-1 in their order, so that tuples of them
    compare as before; f itself when every point is kept.  One pass over the
    functional graph, by `FiniteSelfMap.cycles`."""
    kept = [False] * f.size
    for cycle in f.cycles():
        p = len(cycle)
        if any(r % p == 0 for r in lengths):
            for x in cycle:
                kept[x] = True
    if all(kept):
        return f
    points = list(compress(range(f.size), kept))
    index = {x: i for i, x in enumerate(points)}
    return FiniteSelfMap([index[f.mapping[x]] for x in points])


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
    # a fixed multiset of size <= k is a sum of f-orbits of length <= k
    f = _periodic_part(f, range(1, k + 1))
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
    # f(A) = A for a set A exactly when f permutes A: A is a fixed multiset,
    # a union of f-orbits of length <= k
    f = _periodic_part(f, range(1, k + 1))
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
    free = len(fixed)  # the fixed points used fewer than `cap` times

    def extend(length):
        # count the tuple of `length` values at hand and each extension of
        # it; those of length k extend one of length k - 1 by a free point
        nonlocal free
        counts[length] += 1
        if length == k - 1:
            counts[k] += free
        elif length < k:
            for x in fixed:
                if uses[x] < cap:
                    uses[x] += 1
                    full = uses[x] == cap
                    free -= full
                    extend(length + 1)
                    free += full
                    uses[x] -= 1

    extend(0)
    return tuple(counts)


def _fixed_orbit_count(f, gset, k, classes, admissible=None, points=1, leaders=()) -> tuple:
    """(count, total) from one walk over the maps a: K -> M passing
    `admissible` (any map when None) whose composite f o a is a
    rearrangement of a; no other map can share an orbit with f o a.

    `count` is the number of orbits of pairs (a, y) fixed by the map
    [a, y] |-> [f o a, y], with y a tuple in {0..points-1}^k, a
    non-basepoint element of the k-fold smash power of a pointed set with
    `points` such elements; g sends (a, y) to (a o g^{-1}, y o g^{-1}).  A
    pair is held as the one tuple a + y, with y = () when points is 1 (one
    y, fixed by all of G), and g moves it by one `_reader` of the positions
    g^{-1} in a and in y, built once per element.  Each orbit is counted
    once, at its least point: each image of the point is built once, the
    count moves on at the first image smaller than the point, and when none
    is smaller, every image has been built and the point counts when
    (f o a) + y is one of them, i.e. lies in its orbit.

    `total` is sum size * #{a : a o perm = f o a} over the (size, perm) pairs
    of `leaders`, each perm read by one `_reader` of its own; 0 without
    leaders.  Nothing is stored per candidate.

    The walk runs on the periodic part of f that a fixed orbit can use.  If
    [a, y] is fixed, f o a = a o h for some h in G, and every point of its
    orbit satisfies the same for a conjugate of h; a value of a on an
    h-cycle of length r is then fixed by f^r.  So every point of a fixed
    orbit, and every map of the Burnside total, takes its values among the
    points whose least period divides a cycle length of some element of
    `gset`, and keeping their order keeps the least-point test.  Conjugates
    have one cycle type, so `classes`, one perm of `gset` per conjugacy
    class (or any perms of `gset` covering every class), gives the lengths.
    """
    f = _periodic_part(f, {r for perm in classes for r in perm_cycle_type(perm)})
    if points == 1:
        ys = [()]
        moves = [_reader(invert_perm(perm)) for perm in gset]
    else:
        ys = list(product(range(points), repeat=k))
        moves = []
        for perm in gset:
            inv = invert_perm(perm)
            moves.append(_reader(inv + tuple(k + i for i in inv)))
    classes = [(size, _reader(perm)) for size, perm in leaders]
    push = f.mapping.__getitem__
    count = total = 0
    for a in _rearranged_maps(f, k):
        if admissible is not None and not admissible(a):
            continue
        image = tuple(map(push, a))
        for size, get in classes:
            if get(a) == image:
                total += size
        for y in ys:
            point, target = a + y, image + y
            fixed = False
            for move in moves:
                other = move(point)
                if other < point:
                    break
                if other == target:
                    fixed = True
            else:
                count += fixed
    return count, total


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
    # a map's fiber partition is in the family when its growth string is
    labels = frozenset(p.labels for p in family.members)
    classes = [gset[members[0]] for members in group.classes]
    return _fixed_orbit_count(f, gset, k, classes, lambda a: _growth_string(a) in labels, coefficient_size)[0]


def fixed_gmap_space(
    f: FiniteSelfMap,
    group: PermutationGroup,
    gset=None,
) -> int:
    """Fixed points of a |-> f o a on the orbit space map(K, M)/G.

    Computed twice from one walk over the candidates: by counting the fixed
    orbits at their least points, and as the Burnside average
    (1/|G|) sum_g #{a : f o a = a o g}, a class function of g taken once per
    conjugacy class and weighted by its size.  The two counts must agree; a
    mismatch is an internal logic error.
    """
    gset = validate_gset(group, gset)
    k = len(gset[0])
    _guard(f.size ** k)
    # #{a : f o a = a o g} is a class function of g: one leader per class
    leaders = [(len(members), gset[members[0]]) for members in group.classes]
    orbit_count, total = _fixed_orbit_count(f, gset, k, [p for _, p in leaders], leaders=leaders)
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


class _CheckedTraces(dict):
    """Traces on the elements of `group`, built one conjugacy class at a time
    and so a class function by construction.  Read-only, so the mark stays
    true; `identities._validate_traces` passes it through unchecked."""

    def __init__(self, traces, group):
        super().__init__(traces)
        self.group = group

    def _read_only(self, *args, **kwargs):
        raise TypeError("coefficient traces are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _CheckedTraces, (dict(self), self.group)


def coefficient_traces(group: PermutationGroup, euler: int, gset=None) -> dict:
    """Traces of the group elements on the smash power of a pointed set with
    reduced Euler characteristic `euler`: g has trace euler^{c(g)}, with c(g)
    the number of cycles of g on the smash factors.  For euler >= 0 this is a
    literal fixed-tuple count; the same formula extends to all integers.
    Conjugate elements act by conjugate permutations, so the cycle count is
    taken once per conjugacy class, at its leader.  The table comes back
    read-only and marked as a class function of the group, so the group
    averages do not check it again."""
    gset = validate_gset(group, gset)
    traces = [0] * group.order
    for members in group.classes:
        trace = euler ** perm_cycle_count(gset[members[0]])
        for i in members:
            traces[i] = trace
    return _CheckedTraces(zip(group.elements, traces), group)
