"""The two walks of the orbit oracles that the single walk of
`oracles._fixed_orbit_count` replaced, kept as the slow reference it is
tested against.

The least-point count pairs each map a with the index of its smash
coordinate y and builds every image with `tuple(map(get, inv))`; the
Burnside total walks the candidates a second time and builds one image per
class leader."""

from itertools import product

from doldzeta.oracles import _rearranged_maps
from doldzeta.partitions import invert_perm


def fixed_orbit_count(f, gset, k, admissible=None, points=1) -> int:
    """Orbits of pairs (a, y) fixed by [a, y] |-> [f o a, y], with a: K -> M
    passing `admissible` (any map when None) and y a tuple in {0..points-1}^k;
    g sends (a, y) to (a o g^{-1}, y o g^{-1}).  Each orbit is counted once,
    at its least pair."""
    tuples = list(product(range(points), repeat=k))
    index = {y: i for i, y in enumerate(tuples)}
    ys = range(len(tuples))
    moves = []
    for perm in gset:
        inv = invert_perm(perm)
        moves.append((inv, tuple(index[tuple(map(y.__getitem__, inv))] for y in tuples)))
    push = f.mapping.__getitem__
    count = 0
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


def burnside_total(f, group, gset) -> int:
    """sum_g #{a : f o a = a o g}, taken once per conjugacy class at its
    leader and weighted by the class size."""
    leaders = [(len(members), gset[members[0]]) for members in group.classes]
    push = f.mapping.__getitem__
    total = 0
    for a in _rearranged_maps(f, len(gset[0])):
        get, image = a.__getitem__, tuple(map(push, a))
        total += sum(size for size, perm in leaders if tuple(map(get, perm)) == image)
    return total
