"""Two helpers of `doldzeta.partitions` that no program path calls, kept
here for the tests that build groups, conjugates and admissible tuples with
them: the product of two permutations, and the partition of an index set
by equal values."""

from doldzeta.partitions import SetPartition


def compose_perms(g, h):
    """g after h."""
    return tuple(g[h[i]] for i in range(len(h)))


def fiber_partition(values) -> SetPartition:
    """The partition of the index set by equal values."""
    return SetPartition._fibers(values)
