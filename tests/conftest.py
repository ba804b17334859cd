import random

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("ci")


def seeded_maps(seed, count, max_size, min_size=0):
    """A deterministic population of random finite self-maps."""
    from doldzeta import FiniteSelfMap

    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        n = rng.randint(min_size, max_size)
        maps.append(FiniteSelfMap.random(rng, n))
    return maps


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
