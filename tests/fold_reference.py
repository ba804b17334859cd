"""The monic fold `series._fold_monic` as it ran before it skipped the top
entries that reach no term and returned at once on an empty factor, kept as
the slow reference it is tested against.

It visits every entry of `out`, and tests each shifted index against the
length before it adds the shift."""


def reference_fold_monic(out, factor, divide=False):
    """Multiply `out`, in place, by the monic series 1 + sum_s c_s X^s, or
    divide it by that series when `divide`, truncating at len(out), and
    return `out`; `factor` lists the terms (s, c_s), s >= 1, in index order."""
    size = len(out)
    if divide:
        factor, steps = [(s, -c) for s, c in factor], range(size)
    else:
        steps = range(size - 1, -1, -1)
    for n in steps:
        x = out[n]
        if x:
            for s, c in factor:
                if n + s >= size:
                    break
                out[n + s] += c * x
    return out
