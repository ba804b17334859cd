"""The group build as it ran before the permutation products went through
prebuilt itemgetters: the closure formed each product g*s with a list
comprehension, an element list was closed from its least candidate up, and
the conjugacy classes formed each conjugate s g s^-1 the same way.  Kept
here as the slow path the property tests in `test_group_build.py` compare
the package's `_close` and `PermutationGroup.classes` with."""

from doldzeta.partitions import DEFAULT_MAX_GROUP_ORDER, identity_perm, invert_perm


def close(degree, candidates, members=None):
    """(kept, reached): the candidates that the closure had not yet reached
    when their turn came, and the closure, starting with the identity.  A
    product outside `members`, when given, is refused."""
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
                prod = tuple([g[i] for i in s])
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


def elements_group(degree, elements):
    """(elements, generators) of a checked element list, its generators
    picked in ascending order; a list that is not closed is refused."""
    elements = sorted(set(map(tuple, elements)))
    members = set(elements)
    if identity_perm(degree) not in members:
        raise ValueError("group does not contain the identity")
    return tuple(elements), close(degree, elements, members)[0]


def classes(elements, generators):
    """The conjugacy classes as tuples of element indices, each grown from
    its least element by conjugating with the generators in order."""
    index = {g: i for i, g in enumerate(elements)}
    conjugations = [(s, invert_perm(s)) for s in generators]
    found, reached = [], set()
    for start in range(len(elements)):
        if start not in reached:
            members = [start]
            reached.add(start)
            for g in map(elements.__getitem__, members):  # grows as found
                for s, s_inv in conjugations:
                    j = index[tuple([s[g[x]] for x in s_inv])]
                    if j not in reached:
                        reached.add(j)
                        members.append(j)
            found.append(tuple(members))
    return tuple(found)
