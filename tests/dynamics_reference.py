"""The fixed-point counts of the iterates of a self-map by explicit
iteration, kept as the independent side of the tests of the route the
package takes, `lefschetz_from_dold(cycle_profile(f, horizon))`, which
reads them off the orbit profile.

Each iterate is composed from the one before, value table by value table,
and its fixed points are counted directly; no cycle is ever found."""

from doldzeta import FiniteSelfMap, LefschetzSequence


def iterate(f, j):
    """The j-th iterate of f, by j compositions (the identity for j = 0)."""
    table = tuple(range(f.size))
    for _ in range(j):
        table = tuple(f.mapping[y] for y in table)
    return FiniteSelfMap(table)


def reference_lefschetz_sequence(f, horizon):
    """#Fix(f), #Fix(f^2), ..., #Fix(f^horizon), each iterate composed from
    the one before."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = []
    table = f.mapping
    for _ in range(horizon):
        values.append(sum(1 for x, y in enumerate(table) if x == y))
        table = tuple(f.mapping[y] for y in table)
    return LefschetzSequence(values)
