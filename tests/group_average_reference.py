"""The Fraction-valued group average and excluded-orbit sum that the integer
kernel of `identities` replaced, kept as the slow reference it is tested
against.

Every factor is a validated `MultiPoly`, every cycle type's product is built
from them with Fraction coefficients, and the orbit loop divides each
stabilizer element's weight by the stabilizer order on its own."""

from fractions import Fraction

from doldzeta import MultiPoly
from doldzeta.identities import LefschetzPolynomial, _divisor_sum_linear, _validate_traces
from doldzeta.partitions import (
    _require_stable,
    all_partitions,
    invert_perm,
    perm_cycle_type,
    validate_gset,
)
from doldzeta.series import Poly


def cycle_type_sum(weighted_perms, nvars: int, factor) -> MultiPoly:
    """sum over the (perm, w) pairs of w prod_n factor(n, c_n, nvars), where
    perm has c_n cycles of length n, with the weights summed per cycle type."""
    class_weights = {}
    for perm, weight in weighted_perms:
        if weight == 0:
            continue
        shape = tuple(sorted(perm_cycle_type(perm).items()))
        class_weights[shape] = class_weights.get(shape, 0) + weight
    total = MultiPoly.zero(nvars)
    for shape, weight in class_weights.items():
        term = MultiPoly.constant(weight, nvars)
        for n, count in shape:
            term = term * factor(n, count, nvars)
        total = total + term
    return total


def orbit_factor(n: int, count: int, nvars: int) -> MultiPoly:
    """(sum_{m|n} m t_m)^count."""
    return _divisor_sum_linear(n, nvars) ** count


def configuration_factor(n: int, count: int, nvars: int) -> MultiPoly:
    """n^c t_n (t_n - 1) ... (t_n - c + 1) with c = count, the falling
    factorial multiplied out over Fractions."""
    falling = Poly.one()
    for i in range(count):
        falling = falling * Poly((-i, 1))
    exps = [0] * nvars
    terms = {}
    for d, c in enumerate(falling.coeffs):
        exps[n - 1] = d
        terms[tuple(exps)] = n ** count * c
    return MultiPoly(nvars, terms)


def weight(group, traces, g) -> Fraction:
    """The trace of g^{-1}, or 1 without traces."""
    return traces[invert_perm(g)] if traces is not None else Fraction(1)


def burnside_average(group, gset, traces) -> MultiPoly:
    """(1/|G|) sum_g w(g) prod_n (sum_{m|n} m t_m)^{d_g(n)}."""
    weighted = ((perm, weight(group, traces, g)) for g, perm in zip(group.elements, gset))
    return cycle_type_sum(weighted, len(gset[0]), orbit_factor) / group.order


def gsymm_polynomial(group, gset=None, coeff_traces=None) -> LefschetzPolynomial:
    gset = validate_gset(group, gset)
    traces = _validate_traces(group, coeff_traces)
    return LefschetzPolynomial(burnside_average(group, gset, traces), len(gset[0]))


def general_lefschetz_polynomial(group, family, coeff_traces=None, gset=None) -> LefschetzPolynomial:
    """The group average minus, for each excluded orbit with representative
    pi, (1/|G_pi|) sum_{g in G_pi} w(g) times the configuration factors of g
    on the blocks of pi."""
    k = family.ground
    gset = validate_gset(group, gset, k)
    traces = _validate_traces(group, coeff_traces)
    family = _require_stable(family, group, gset)
    seen = set(family.members)
    excluded = []
    for partition in all_partitions(k):
        if partition in seen:
            continue
        heads = [block[0] for block in partition.blocks]
        stabilizer = []
        for g, perm in zip(group.elements, gset):
            image = partition.apply(perm)
            seen.add(image)
            if image == partition:
                stabilizer.append((g, tuple(partition.labels[perm[x]] for x in heads)))
        excluded.extend(
            (blocks, weight(group, traces, g) / len(stabilizer)) for g, blocks in stabilizer
        )
    configurations = cycle_type_sum(excluded, k, configuration_factor)
    return LefschetzPolynomial(burnside_average(group, gset, traces) - configurations, k)
