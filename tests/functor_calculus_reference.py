"""The functor-calculus kernels as they ran before they worked on integer
numerator dicts, kept as the slow references the fast paths are tested
against.

`substitute` builds one `MultiPoly` per term and adds it to the growing
result; `symmetric_power_polys` runs the Newton recurrence over `MultiPoly`
arithmetic; `integer_lattice_check` evaluates D*p at every point of the box
on its own, in `itertools.product` order."""

from itertools import product

from doldzeta import MultiPoly
from doldzeta.identities import _divisor_sum_linear
from doldzeta.multipoly import _numerator_sum, _sparse
from doldzeta.oracles import _guard


def substitute(poly: MultiPoly, images) -> MultiPoly:
    """poly with images[i-1] put for t_i, one term at a time."""
    images = list(images)
    if len(images) != poly.nvars:
        raise ValueError(f"need {poly.nvars} substitution images")
    if poly.nvars == 0:
        return MultiPoly._trusted(0, poly.nums, poly.den)
    target = images[0].nvars
    one = (0,) * target
    powers = [[MultiPoly._trusted(target, {one: 1})] for _ in range(poly.nvars)]
    result = MultiPoly.zero(target)
    for exps, c in poly.nums.items():
        term = MultiPoly._trusted(target, {one: c})
        for i, e in enumerate(exps):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * images[i])
            if e:
                term = term * cache[e]
        result = result + term
    return MultiPoly._trusted(target, result.nums, result.den * poly.den)


def symmetric_power_polys(bound, order: int) -> list:
    """g_0 = 1 and n g_n = sum_{i=1..n} s_i g_{n-i}, in MultiPoly arithmetic."""
    lefschetz = [None] + [_divisor_sum_linear(n, order) for n in range(1, order + 1)]
    s = list(lefschetz)
    if bound is not None:
        step = bound + 1
        for i in range(step, order + 1, step):
            s[i] = s[i] - step * lefschetz[i // step]
    g = [MultiPoly.constant(1, order)]
    for n in range(1, order + 1):
        total = MultiPoly.zero(order)
        for i in range(1, n + 1):
            total = total + s[i] * g[n - i]
        g.append(total / n)
    return g


def lattice_points(poly: MultiPoly, box: int):
    """Every point of [-box, box]^nvars in walk order, with whether D*p is
    divisible by D there."""
    terms = _sparse(poly.nums)
    for point in product(range(-box, box + 1), repeat=poly.nvars):
        yield point, _numerator_sum(terms, point) % poly.den == 0


def integer_lattice_check(poly: MultiPoly, box: int = 4) -> bool:
    """Integrality at every point of the box, one point at a time."""
    if box < 0:
        raise ValueError("lattice box must be >= 0")
    if poly.den == 1:
        return True
    _guard((2 * box + 1) ** poly.nvars)
    return all(ok for _, ok in lattice_points(poly, box))
