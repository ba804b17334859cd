"""The partition-family recursion that `general_lefschetz_polynomial`
replaced, kept as the slow reference it is tested against.

If the family is the whole partition lattice, the polynomial is the group
average.  Otherwise a minimal excluded partition is chosen, its orbit is
adjoined, and a correction living on the blocks of the chosen partition,
acted on by its stabilizer with fibers forced discrete, is subtracted:

    L(family) = L(family + orbit) - L(stabilizer on blocks, discrete).

The result does not depend on which minimal partition is chosen; passing an
`rng` randomizes the choice."""

from dataclasses import dataclass

from doldzeta import PartitionFamily, PermutationGroup, SetPartition, all_partitions
from doldzeta.identities import LefschetzPolynomial, _class_sum, _validate_traces
from doldzeta.partitions import _require_stable, _single_splits, validate_gset


class NoExcludedPartitionError(ValueError):
    """Asked for a partition outside the family, but the family is everything."""


def is_full(family) -> bool:
    return len(family.members) == len(all_partitions(family.ground))


def discrete_only(k) -> PartitionFamily:
    return PartitionFamily._trusted(k, [SetPartition.discrete(k)])


@dataclass(frozen=True)
class MinimalStep:
    """One step of the recursion: a minimal excluded partition, the family
    with its orbit adjoined, and the stabilizer with its induced (possibly
    non-faithful) action on the blocks."""

    partition: SetPartition
    extended_family: PartitionFamily
    stabilizer: tuple          # elements of the ambient group fixing the partition
    block_action: tuple        # their induced permutations of the blocks
    block_ground: int          # number of blocks, the new ground size


def minimal_excluded_step(family, group, gset=None, rng=None) -> MinimalStep:
    """Pick a minimal partition outside the family and adjoin its orbit.

    Minimal means every single split already belongs to the family.  Ties
    are broken canonically (least labels) unless an `rng` is supplied."""
    if is_full(family):
        raise NoExcludedPartitionError("the family already contains every partition")
    if gset is None:
        gset = validate_gset(group, None, family.ground)
    members = family.members
    minimal = [
        p
        for p in all_partitions(family.ground)
        if p not in members and all(split in members for split in _single_splits(p))
    ]
    chosen = rng.choice(minimal) if rng is not None else minimal[0]
    heads = [block[0] for block in chosen.blocks]
    orbit = set()
    stab = []
    block_action = []
    for g, perm in zip(group.elements, gset):
        image = chosen.apply(perm)
        orbit.add(image)
        if image == chosen:
            stab.append(g)
            block_action.append(tuple(chosen.labels[perm[x]] for x in heads))
    return MinimalStep(
        partition=chosen,
        extended_family=PartitionFamily._trusted(family.ground, members | orbit),
        stabilizer=tuple(stab),
        block_action=tuple(block_action),
        block_ground=chosen.block_count,
    )


def recursive_lefschetz_polynomial(group, family, coeff_traces=None, gset=None, rng=None):
    """The fixed-point polynomial of the family, by the memoized recursion."""
    k = family.ground
    gset = validate_gset(group, gset, k)
    traces = _validate_traces(group, coeff_traces)
    family = _require_stable(family, group, gset)
    memo = {}

    def rec(grp, fam, act):
        key = (grp.elements, act, fam.members)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if is_full(fam):
            value = _class_sum(grp, act, traces)
        else:
            step = minimal_excluded_step(fam, grp, act, rng)
            enlarged = rec(grp, step.extended_family, act)
            stabilizer = PermutationGroup(grp.degree, step.stabilizer)
            correction = rec(stabilizer, discrete_only(step.block_ground), step.block_action)
            value = enlarged - correction.extend(fam.ground)
        memo[key] = value
        return value

    return LefschetzPolynomial(rec(group, family, gset), k)
