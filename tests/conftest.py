import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("ci")


@pytest.fixture
def action_checks(monkeypatch):
    """The arguments of every full check of an action table, one tuple per
    check, from here to the end of the test."""
    from doldzeta import partitions

    calls = []
    check = partitions._require_homomorphism

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(partitions, "_require_homomorphism", counted)
    return calls


@pytest.fixture
def stability_checks(monkeypatch):
    """The (family, generator images) of every check of a family's
    stability, one tuple per check, from here to the end of the test."""
    from doldzeta.partitions import PartitionFamily

    calls = []
    check = PartitionFamily.is_stable_under

    def counted(family, images):
        calls.append((family, images))
        return check(family, images)

    monkeypatch.setattr(PartitionFamily, "is_stable_under", counted)
    return calls


def identity_map(n):
    """The identity self-map of n points."""
    from doldzeta import FiniteSelfMap

    return FiniteSelfMap(range(n))


def random_map(rng, size):
    """A self-map of `size` points with uniformly drawn values."""
    from doldzeta import FiniteSelfMap

    return FiniteSelfMap([rng.randrange(size) for _ in range(size)])


def pointed(f):
    """f with a fixed basepoint adjoined at index 0, every other point shifted up."""
    from doldzeta import FiniteSelfMap

    return FiniteSelfMap([0] + [x + 1 for x in f.mapping])


def seeded_maps(seed, count, max_size, min_size=0):
    """A deterministic population of random finite self-maps."""
    rng = random.Random(seed)
    return [random_map(rng, rng.randint(min_size, max_size)) for _ in range(count)]


def trivial_group(degree):
    """The group of the identity alone on `degree` points."""
    from doldzeta import PermutationGroup

    return PermutationGroup(degree, [tuple(range(degree))])


def cyclic_group(k):
    """The rotations of k points, generated by i -> i + 1 mod k."""
    from doldzeta import PermutationGroup

    return PermutationGroup.from_generators(k, [tuple((i + 1) % k for i in range(k))])


def random_subgroup(rng, degree):
    """The subgroup of S_degree generated by one to three random permutations."""
    from doldzeta import PermutationGroup

    gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
    return PermutationGroup.from_generators(degree, gens)


def pair_action(group):
    """The induced action on the unordered pairs of the ground set."""
    from itertools import combinations

    pairs = list(combinations(range(group.degree), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return tuple(
        tuple(index[tuple(sorted((g[a], g[b])))] for a, b in pairs) for g in group.elements
    )


def direct_product(left, right):
    """The product group acting on the disjoint union of the two ground
    sets, the right one shifted past the left."""
    from doldzeta import PermutationGroup

    elements = [
        tuple(g) + tuple(x + left.degree for x in h)
        for g in left.elements
        for h in right.elements
    ]
    return PermutationGroup(left.degree + right.degree, elements)


def family_from_predicate(k, predicate):
    """The partitions of k points that satisfy `predicate`, as a family;
    the constructor refuses one that is not refinement-closed."""
    from doldzeta import PartitionFamily, all_partitions

    return PartitionFamily(k, [p for p in all_partitions(k) if predicate(p)])


def poly_series(poly, order):
    """A polynomial as a power series truncated at q^order."""
    from doldzeta import PowerSeries

    return PowerSeries(list(poly.coeffs), order=order)


def expand(rf, order):
    """The Taylor series of a rational function to `order`."""
    return poly_series(rf.numerator, order) * poly_series(rf.denominator, order).inverse()


def at_one(polys):
    """The series in q whose q^k coefficient is the k-th T-polynomial of a
    Poincaré series evaluated at T = 1."""
    from doldzeta import PowerSeries

    return PowerSeries([c(1) for c in polys], order=len(polys) - 1)


def disjoint_union_combine(block_count_lists):
    """The order polynomial of a product of families on disjoint index sets:
    its block counts are the convolution of the factors' counts, that is the
    product of the polynomials sum_r n_r x^r."""
    from doldzeta import Poly
    from doldzeta.identities import _falling_factorial_sum

    combined = Poly.one()
    for counts in block_count_lists:
        combined = combined * Poly([0, *counts])
    return _falling_factorial_sum(combined.coeffs)


def stable_families(k):
    """All refinement-closed families on k points stable under the full
    symmetric group: downward-closed unions of partition orbits."""
    from doldzeta import PartitionFamily, PermutationGroup, SetPartition, all_partitions
    from doldzeta.partitions import NotRefinementClosedError

    parts = all_partitions(k)
    group = PermutationGroup.symmetric(k)
    orbits = []
    seen = set()
    for p in parts:
        if p in seen:
            continue
        orbit = frozenset(p.apply(g) for g in group.elements)
        seen |= orbit
        orbits.append(orbit)
    families = []
    for take in range(1, 2 ** len(orbits)):
        members = set()
        for i, orbit in enumerate(orbits):
            if take & (1 << i):
                members |= orbit
        if SetPartition.discrete(k) not in members:
            continue
        try:
            families.append(PartitionFamily(k, members))
        except NotRefinementClosedError:
            continue
    return families
