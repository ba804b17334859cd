"""Closed-form fixed-point generating functions and the polynomial calculus
behind them.

For a self-map f with zeta function Z(q) = prod_m (1-q^m)^{D_m}, the
classical closed forms implemented here are:

* symmetric powers with multiplicity bound l:
      sum_k (fixed multisets of size k) q^k = Z(q^{l+1}) Z(q)^{-1}
  (the unbounded case is Z(q)^{-1});
* subsets of size at most k:
      sum_k (invariant subsets) q^k = (1-q)^{-1} (Z(q^2) Z(q)^{-1} - 1);
* tuples with a repetition bound, as an exponential generating function:
      sum_k (fixed tuples) q^k / k! = (1 + q/1! + ... + q^l/l!)^{L(f)};
* orbit spaces map(K, M)/G for a finite group action, via the Burnside
  average over the group.

Each of these fixed-point counts is a fixed numerical polynomial in the
orbit counts t_1..t_k of the input map (t_m = number of periodic orbits of
least period m, equivalently the reduced orbit counts of the pointed
extension).  This module computes those polynomials: directly for the group
average, and by a recursion over partition families in general, peeling one
group orbit of partitions at a time and correcting by a smaller functor on
the blocks.  Wedges add polynomials, smash products multiply them, and
composites substitute the iterate-transported orbit-count polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product as iter_product
from math import gcd, lcm
from time import perf_counter

from .dynamics import (
    DoldProfile,
    FiniteSelfMap,
    LefschetzSequence,
    cycle_profile,
    divisors,
    mobius,
    zeta_of_map,
    zeta_series,
)
from .graded import GradedEndomorphism, graded_zeta
from .multipoly import MultiPoly
from .oracles import (
    PointedFiniteSet,
    _guard,
    coefficient_traces,
    fixed_bounded_multisets,
    fixed_bounded_tuples,
    fixed_gmap_space,
    fixed_invariant_subsets,
    fixed_partition_orbits,
)
from .partitions import (
    PartitionFamily,
    PermutationGroup,
    _require_stable,
    minimal_excluded_step,
    perm_cycle_type,
    validate_gset,
)
from .series import (
    Poly,
    PowerSeries,
    _convolve_into,
    _field,
    _integer,
    _integers,
    _terms,
    egf_pack,
    egf_unpack,
    exponent_product,
    rat,
    rat_str,
)

DEFAULT_ORDER = 12


class LefschetzPolynomial:
    """A numerical polynomial in the orbit counts t_1..t_k (t_i of weight i)
    of weighted degree at most k, returning a fixed-point count when
    evaluated at the orbit profile of a map."""

    __slots__ = ("poly", "degree_bound")

    def __init__(self, poly: MultiPoly, degree_bound: int):
        poly = poly.resize(degree_bound)
        if poly.weighted_degree() > degree_bound:
            raise ValueError(
                f"weighted degree {poly.weighted_degree()} exceeds the bound {degree_bound}"
            )
        self.poly = poly
        self.degree_bound = degree_bound

    def evaluate(self, data) -> Fraction:
        if isinstance(data, DoldProfile):
            values = [data.count(m) for m in range(1, self.degree_bound + 1)]
        else:
            values = list(data)
        return self.poly.evaluate(values)

    def evaluate_map(self, f: FiniteSelfMap) -> Fraction:
        horizon = max(self.degree_bound, 1)
        return self.evaluate(cycle_profile(f, horizon))

    def weighted_degree(self) -> int:
        return self.poly.weighted_degree()

    def __eq__(self, other):
        if not isinstance(other, LefschetzPolynomial):
            return NotImplemented
        return self.poly == other.poly

    def __repr__(self):
        return f"LefschetzPolynomial({self.poly}, degree_bound={self.degree_bound})"

    def to_json(self) -> dict:
        return {"degree_bound": self.degree_bound, "polynomial": self.poly.to_json()}


def integer_lattice_check(
    poly: MultiPoly, box: int = 4, max_points: int = 100_000, seed: int = 12345
) -> bool:
    """Check integrality of the polynomial's values on the lattice
    [-box, box]^nvars, exhaustively when that is at most max_points points
    and on a seeded sample otherwise."""
    n = poly.nvars
    if n == 0:
        return poly.evaluate([]).denominator == 1
    total = (2 * box + 1) ** n
    if total <= max_points:
        points = iter_product(range(-box, box + 1), repeat=n)
    else:
        rng = random.Random(seed)
        points = (
            tuple(rng.randint(-box, box) for _ in range(n))
            for _ in range(min(max_points, 10_000))
        )
    for point in points:
        if poly.evaluate(point).denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# closed-form series


def _require_unit(zeta: PowerSeries):
    if zeta.coeffs[0] != 1:
        raise ValueError("zeta-type series must have constant term 1")


def rhs_symmetric_power(zeta: PowerSeries, bound=None) -> PowerSeries:
    """Z(q^{l+1}) Z(q)^{-1} for a finite bound l, and Z(q)^{-1} when unbounded."""
    _require_unit(zeta)
    if bound is None:
        return zeta.inverse()
    if bound < 0:
        raise ValueError("multiplicity bound must be >= 0")
    return zeta.substitute_power(bound + 1) * zeta.inverse()


def rhs_borsuk_ulam(zeta: PowerSeries) -> PowerSeries:
    """(1-q)^{-1} (Z(q^2) Z(q)^{-1} - 1): the q^k coefficient counts the
    invariant nonempty subsets of size at most k (zero at k = 0)."""
    _require_unit(zeta)
    n = zeta.order
    ratio = zeta.substitute_power(2) * zeta.inverse()
    geometric = PowerSeries([1] * (n + 1), order=n)
    return geometric * (ratio - PowerSeries.one(n))


def rhs_bounded_tuples(lefschetz_number: int, bound: int, order: int) -> PowerSeries:
    """(1 + q/1! + ... + q^l/l!)^{L}, an exponential generating function whose
    unpacked k-th coefficient counts fixed k-tuples with repetition bound l.
    Negative L is allowed as a formal identity."""
    if bound < 0:
        raise ValueError("repetition bound must be >= 0")
    base = egf_pack([1] * (min(bound, order) + 1), order)
    return base ** int(lefschetz_number)


def configuration_trace_series(zeta: PowerSeries, parity: str, epsilon: int = 1) -> PowerSeries:
    """Generating function of the signed cohomology traces on unordered
    configuration spaces of a closed orientable r-manifold: Z(q) when r is
    odd and Z(q^2) Z(q)^{-1} when r is even.  The q^k coefficient equals
    epsilon^k times the trace, where epsilon records whether the map
    preserves orientation; dividing out epsilon^k is left to the caller."""
    _require_unit(zeta)
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if parity == "odd":
        return zeta
    return zeta.substitute_power(2) * zeta.inverse()


def _configuration_traces(zeta: PowerSeries, parity: str, epsilon: int):
    """The configuration trace series and the traces it encodes: its q^k
    coefficients with the sign epsilon^k divided out."""
    series = configuration_trace_series(zeta, parity, epsilon)
    return series, [series[k] * epsilon ** k for k in range(series.order + 1)]


# ---------------------------------------------------------------------------
# symbolic orbit products


def _orbit_factor_polys(m: int, bound, nvars: int, order: int) -> list:
    """q-coefficients of (1 + q^m + ... + q^{lm}) ** t_m, or of
    (1 - q^m)^{-t_m} when the bound is None, as polynomials in t_m.

    The binomials C(t, j) and C(t + j - 1, j) in t = t_m are built one from
    the last, by one product with (t - j + 1)/j or (t + j - 1)/j."""
    out = [MultiPoly.zero(nvars) for _ in range(order + 1)]
    out[0] = MultiPoly.constant(1, nvars)
    t = MultiPoly.variable(m, nvars)
    binom = out[0]
    if bound is None:
        for j in range(1, order // m + 1):
            binom = binom * (t + (j - 1)) / j
            out[m * j] = binom
        return out
    base = [(m * i, 1) for i in range(1, bound + 1) if m * i <= order]
    power = [1] + [0] * order
    j = 0
    while True:
        j += 1
        power = _convolve_into([0] * (order + 1), _terms(power), base)
        if not any(power):
            break
        binom = binom * (t - (j - 1)) / j
        for idx, c in enumerate(power):
            if c:
                out[idx] = out[idx] + c * binom
    return out


def _nonzero_poly(p: MultiPoly) -> bool:
    return not p.is_zero


def symmetric_power_polys(bound, order: int) -> list:
    """q-coefficients of prod_{m=1}^{order} (orbit factor for period m), in
    variables t_1..t_order.  The q^k coefficient is the fixed-point count of
    the bounded k-th symmetric power as a polynomial in the orbit counts."""
    nvars = order
    zero = MultiPoly.zero(nvars)
    result = [MultiPoly.constant(1, nvars)] + [zero] * order
    for m in range(1, order + 1):
        factor = _orbit_factor_polys(m, bound, nvars, order)
        result = _convolve_into(
            [zero] * (order + 1),
            _terms(result, _nonzero_poly),
            _terms(factor, _nonzero_poly),
        )
    return result


def bounded_power_polynomial(k: int, bound) -> LefschetzPolynomial:
    """The fixed-point polynomial of the compactified k-th symmetric power
    with multiplicity bound l: the coefficient of q^k in
    prod_{m=1}^{k} (1 + q^m + ... + q^{lm})^{t_m}."""
    if k < 0:
        raise ValueError("power must be >= 0")
    if k == 0:
        return LefschetzPolynomial(MultiPoly.constant(1, 0), 0)
    polys = symmetric_power_polys(bound, k)
    return LefschetzPolynomial(polys[k], k)


# ---------------------------------------------------------------------------
# group averages and the partition-family recursion


def _divisor_sum_linear(n: int, nvars: int) -> MultiPoly:
    """sum_{m | n} m * t_m: the fixed points of the n-th iterate in the t's."""
    terms = {}
    for m in divisors(n):
        exps = [0] * nvars
        exps[m - 1] = 1
        terms[tuple(exps)] = Fraction(m)
    return MultiPoly(nvars, terms)


def _validate_traces(group: PermutationGroup, coeff_traces):
    if coeff_traces is None:
        return None
    table = {tuple(g): rat(v) for g, v in coeff_traces.items()}
    if any(g not in table for g in group.elements):
        raise ValueError("coefficient traces must be defined on every group element")
    return table


def _burnside_average(group: PermutationGroup, gset, traces) -> MultiPoly:
    """(1/|G|) sum_g w(g) prod_n (sum_{m|n} m t_m)^{d_g(n)}, where g has
    d_g(n) orbits of length n under the action and w(g) is the trace of
    g^{-1} (1 without traces).

    The weights are first summed over the elements of each cycle type, so one
    product is built per cycle type rather than per element (the cycle-index
    collapse).  The arguments are trusted: callers validate them.
    """
    k = len(gset[0])
    class_weights = {}
    for g, perm in zip(group.elements, gset):
        weight = traces[group.inverse(g)] if traces is not None else Fraction(1)
        if weight == 0:
            continue
        shape = tuple(sorted(perm_cycle_type(perm).items()))
        class_weights[shape] = class_weights.get(shape, 0) + weight
    total = MultiPoly.zero(k)
    for shape, weight in class_weights.items():
        term = MultiPoly.constant(weight, k)
        for n, count in shape:
            term = term * _divisor_sum_linear(n, k) ** count
        total = total + term
    return total / group.order


def gsymm_polynomial(
    group: PermutationGroup, gset=None, coeff_traces=None
) -> LefschetzPolynomial:
    """The fixed-point polynomial of the orbit space map(K, -)/G.

    For each group element g with d_g(n) orbits of length n on K, a fixed
    point contributes prod_n (sum_{m|n} m t_m)^{d_g(n)}; the polynomial is
    the average over the group, optionally weighted by the trace of g^{-1}
    on a coefficient space.
    """
    gset = validate_gset(group, gset)
    k = len(gset[0])
    traces = _validate_traces(group, coeff_traces)
    return LefschetzPolynomial(_burnside_average(group, gset, traces), k)


def general_lefschetz_polynomial(
    group: PermutationGroup,
    family: PartitionFamily,
    coeff_traces=None,
    gset=None,
    rng=None,
) -> LefschetzPolynomial:
    """The fixed-point polynomial of the compactified space of maps K -> X
    with fiber partition in the family, modulo the group.

    Recursion: if the family is the full partition lattice this is the group
    average above.  Otherwise adjoin the orbit of a minimal excluded
    partition; the enlarged family's polynomial splits off a correction
    living on the blocks of the chosen partition, acted on by its stabilizer,
    with fibers forced discrete:

        L(family) = L(family + orbit) - L(stabilizer on blocks, discrete).

    The result does not depend on which minimal partition is chosen; passing
    an `rng` randomizes the choice (used to test exactly that).

    The group, its action, the traces and the family's stability are
    validated here, once, unless the table and family carry the mark of an
    earlier check; the stabilizer actions the recursion builds are correct
    by construction and are not checked again.
    """
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
        if fam.is_full():
            value = _burnside_average(grp, act, traces)
        else:
            step = minimal_excluded_step(fam, grp, act, rng)
            enlarged = rec(grp, step.extended_family, act)
            stabilizer = PermutationGroup(grp.degree, step.stabilizer, validate=False)
            correction = rec(
                stabilizer,
                PartitionFamily.discrete_only(step.block_ground),
                step.block_action,
            )
            value = enlarged - correction.extend(fam.ground)
        memo[key] = value
        return value

    return LefschetzPolynomial(rec(group, family, gset), k)


def falling_factorial(r: int) -> Poly:
    """t(t-1)...(t-r+1) as a univariate polynomial."""
    poly = Poly.one()
    t = Poly.x()
    for i in range(r):
        poly = poly * (t - Poly.constant(i))
    return poly


def _falling_factorial_sum(counts) -> Poly:
    """sum_{r >= 1} counts[r] t(t-1)...(t-r+1); counts[0] is ignored."""
    result = Poly.zero()
    for r, n_r in enumerate(counts):
        if r and n_r:
            result = result + n_r * falling_factorial(r)
    return result


def order_polynomial(family: PartitionFamily) -> Poly:
    """sum_r n_r(family) t(t-1)...(t-r+1), where n_r counts the members with
    r blocks.  Evaluated at the number of fixed points of a map, it counts
    the fixed maps K -> M with fiber partition in the family."""
    return _falling_factorial_sum([0, *family.block_counts()])


# ---------------------------------------------------------------------------
# iterates and composition


def iterate_profile_images(d: int, source_vars: int, target_vars: int) -> list:
    """Substitution images expressing the orbit counts of the d-th iterate:
    t_i(f^d) = sum over n with n/gcd(n, d) = i of gcd(n, d) t_n(f)."""
    if target_vars < source_vars * d:
        raise ValueError("target variable space too small for the iterate substitution")
    images = [MultiPoly.zero(target_vars) for _ in range(source_vars)]
    for n in range(1, source_vars * d + 1):
        g = gcd(n, d)
        i = n // g
        if i <= source_vars:
            images[i - 1] = images[i - 1] + g * MultiPoly.variable(n, target_vars)
    return images


def dold_polynomial_of_functor(lp: LefschetzPolynomial, m: int) -> MultiPoly:
    """The m-th orbit count of the induced map, as a polynomial in the orbit
    counts of the input: Moebius inversion of the fixed-point polynomial
    along the iterate substitution.  Weighted degree at most m * k."""
    if m < 1:
        raise ValueError("orbit length must be >= 1")
    k = lp.degree_bound
    if k == 0:
        value = lp.poly.evaluate([])
        return MultiPoly.constant(value if m == 1 else 0, 1)
    target = k * m
    acc = MultiPoly.zero(target)
    for d in divisors(m):
        images = iterate_profile_images(d, k, target)
        acc = acc + mobius(m // d) * lp.poly.substitute(images)
    result = acc / m
    if not integer_lattice_check(result, box=2, max_points=400):
        raise RuntimeError("orbit-count polynomial failed the integrality check")
    return result


def compose_lefschetz(
    outer: LefschetzPolynomial, inner: LefschetzPolynomial
) -> LefschetzPolynomial:
    """Fixed-point polynomial of a composite: substitute the inner functor's
    orbit-count polynomials into the outer polynomial.

    The substitution bounds the weighted degree by (inner degree) * (outer
    degree); the coarser classical bound k^l is asserted as well whenever
    k >= 2 (for k = 1 it can undercount, e.g. composing with the identity).
    """
    l = outer.degree_bound
    k = inner.degree_bound
    if l == 0:
        return outer
    if k == 0:
        base = inner.poly.evaluate([])
        point = [base] + [0] * (l - 1)
        return LefschetzPolynomial(
            MultiPoly.constant(outer.poly.evaluate(point), 0), 0
        )
    target = k * l
    images = [
        dold_polynomial_of_functor(inner, i).resize(target) for i in range(1, l + 1)
    ]
    poly = outer.poly.substitute(images)
    if k >= 2 and poly.weighted_degree() > k ** l:
        raise RuntimeError("composite exceeded the classical degree bound")
    return LefschetzPolynomial(poly, max(target, k))


# ---------------------------------------------------------------------------
# functor expressions and realization


@dataclass(frozen=True)
class IdentityFunctor:
    """X itself; fixed-point polynomial t_1."""


@dataclass(frozen=True)
class ConstantSphereSmash:
    """The constant functor with value a sphere: reduced Euler characteristic
    +1 for even-dimensional spheres, -1 for odd.  Smashing with the odd one
    negates a fixed-point polynomial."""

    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")


@dataclass(frozen=True)
class BoundedSymmetricPower:
    """The compactified k-th symmetric power with multiplicity bound l."""

    power: int
    bound: int


@dataclass(frozen=True)
class Wedge:
    parts: tuple


@dataclass(frozen=True)
class Smash:
    parts: tuple


@dataclass(frozen=True)
class Compose:
    outer: object
    inner: object


def expression_polynomial(expr) -> LefschetzPolynomial:
    """Evaluate a functor expression to its fixed-point polynomial: wedges
    add, smash products multiply, composition substitutes."""
    if isinstance(expr, IdentityFunctor):
        return LefschetzPolynomial(MultiPoly.variable(1, 1), 1)
    if isinstance(expr, ConstantSphereSmash):
        value = 1 if expr.parity == "even" else -1
        return LefschetzPolynomial(MultiPoly.constant(value, 0), 0)
    if isinstance(expr, BoundedSymmetricPower):
        return bounded_power_polynomial(expr.power, expr.bound)
    if isinstance(expr, Wedge):
        parts = [expression_polynomial(p) for p in expr.parts]
        bound = max((p.degree_bound for p in parts), default=0)
        total = MultiPoly.zero(bound)
        for p in parts:
            total = total + p.poly.extend(bound)
        return LefschetzPolynomial(total, bound)
    if isinstance(expr, Smash):
        parts = [expression_polynomial(p) for p in expr.parts]
        bound = sum(p.degree_bound for p in parts)
        total = MultiPoly.constant(1, bound)
        for p in parts:
            total = total * p.poly.extend(bound)
        return LefschetzPolynomial(total, bound)
    if isinstance(expr, Compose):
        return compose_lefschetz(
            expression_polynomial(expr.outer), expression_polynomial(expr.inner)
        )
    raise TypeError(f"not a functor expression: {expr!r}")


def realize_polynomial(p: MultiPoly, k: int):
    """Find a positive integer r and a functor expression whose fixed-point
    polynomial is exactly r * p.

    The coefficient of q^i in prod_m (1 + q^m)^{t_m} is t_i plus terms in
    t_1..t_{i-1}, so products of these polynomials form a triangular basis:
    eliminating leading monomials expresses p as a rational combination, and
    r clears the denominators.  Wedges supply integer multiples, smashing
    with an odd sphere supplies signs.
    """
    p = p.resize(k)
    if p.weighted_degree() > k:
        raise ValueError("polynomial weight exceeds the requested degree")
    basis = symmetric_power_polys(1, k) if k else [MultiPoly.constant(1, 0)]
    remainder = p
    combo = {}
    while not remainder.is_zero:
        exps, coeff = remainder.leading_term()
        prod = MultiPoly.constant(1, k)
        for i, e in enumerate(exps):
            if e:
                prod = prod * basis[i + 1] ** e
        combo[exps] = coeff
        remainder = remainder - coeff * prod
    r = 1
    for coeff in combo.values():
        r = lcm(r, coeff.denominator)
    terms = []
    for exps in sorted(combo, key=MultiPoly._ORDER_KEY, reverse=True):
        c = combo[exps] * r
        c = int(c)
        factors = []
        for i, e in enumerate(exps):
            atom = IdentityFunctor() if i == 0 else BoundedSymmetricPower(i + 1, 1)
            factors.extend([atom] * e)
        if not factors:
            base = ConstantSphereSmash("even")
        elif len(factors) == 1:
            base = factors[0]
        else:
            base = Smash(tuple(factors))
        if c < 0:
            base = Smash((ConstantSphereSmash("odd"), base))
            c = -c
        terms.extend([base] * c)
    expr = terms[0] if len(terms) == 1 else Wedge(tuple(terms))
    achieved = expression_polynomial(expr)
    if achieved.poly != p * r:
        raise RuntimeError("realization failed to reproduce the target polynomial")
    return r, expr


# ---------------------------------------------------------------------------
# coefficient spaces


def coefficient_identities_check(
    profile: DoldProfile, euler: int, bound, order=None
) -> dict:
    """Check the closed forms for symmetric powers with a coefficient space
    of reduced Euler characteristic n against the polynomial calculus.

    The left side is the group-average polynomial with traces n^{cycles},
    evaluated at the given orbit profile, for each power k <= order.  The
    applicable right sides are Z^{-n} (unbounded multiplicities, and again
    for n <= 0 once the bound reaches -n) and prod_m (1 + n q^m)^{D_m}
    (multiplicity bound 1).
    """
    if order is None:
        order = min(profile.horizon, 4)
    if profile.horizon < order:
        raise ValueError(f"profile horizon {profile.horizon} is below the order {order}")
    if order > 5:
        raise ValueError("powers above 5 need symmetric groups beyond the supported size")
    if bound is not None and bound < 0:
        raise ValueError("multiplicity bound must be >= 0 (or None for unbounded)")

    lhs = [Fraction(1)]
    for k in range(1, order + 1):
        if bound is not None and bound == 0:
            lhs.append(Fraction(0))
            continue
        group = PermutationGroup.symmetric(k)
        full = bound is None or bound >= k
        family = PartitionFamily.full(k) if full else PartitionFamily.max_block(k, bound)
        traces = coefficient_traces(group, euler)
        lp = general_lefschetz_polynomial(group, family, traces)
        lhs.append(lp.evaluate(profile))
    if any(v.denominator != 1 for v in lhs):
        raise RuntimeError("coefficient polynomial produced a non-integer count")
    lhs_int = [int(v) for v in lhs]

    counts = {m: profile.count(m) for m in range(1, order + 1)}
    zeta_power = exponent_product({m: -euler * d for m, d in counts.items()}, order)
    clauses = []
    if bound is None:
        clauses.append(("unbounded-multiplicity", zeta_power))
    if bound == 1:
        rhs = PowerSeries.one(order)
        for m, d in counts.items():
            rhs = rhs * (PowerSeries.one(order) + PowerSeries.monomial(m, order, euler)) ** d
        clauses.append(("multiplicity-one", rhs))
    if bound is not None and euler <= 0 and bound >= -euler:
        clauses.append(("bounded-multiplicity", zeta_power))
    if not clauses:
        raise ValueError(
            "no closed form applies: need an unbounded multiplicity, bound 1, "
            "or a nonpositive Euler characteristic with bound >= -euler"
        )

    results = []
    for name, rhs in clauses:
        k = next((k for k in range(order + 1) if lhs_int[k] != rhs[k]), None)
        mismatch = None if k is None else {
            "k": k, "polynomial_side": lhs_int[k], "series_side": rat_str(rhs[k])
        }
        results.append({"clause": name, "pass": mismatch is None, "first_mismatch": mismatch})
    return {
        "identity": "coefficient-space",
        "euler": euler,
        "bound": "inf" if bound is None else bound,
        "order": order,
        "polynomial_side": lhs_int,
        "clauses": results,
        "pass": all(result["pass"] for result in results),
    }


# ---------------------------------------------------------------------------
# the oracle-vs-closed-form harness


def compare_series_with_counts(series, counts):
    """First index where oracle counts and the coefficients of a series (or
    of a coefficient list) disagree, or None."""
    for k, value in enumerate(counts):
        if series[k] != value:
            return {"k": k, "oracle": value, "coefficient": rat_str(series[k])}
    return None


def _one_given(source: dict, names: dict, where: str, required=True):
    """The one key of `names` that `source` gives (not None): exactly one
    when `required`, otherwise at most one, with None for none."""
    given = [key for key in names if source.get(key) is not None]
    if len(given) > 1 or (required and not given):
        count = "exactly" if required else "at most"
        raise ValueError(f"{where} takes {count} one of {'/'.join(names.values())}, got {len(given)}")
    return given[0] if given else None


_ZETA_SOURCES = ("map", "lefschetz", "profile", "zeta", "graded")


def _read_zeta(source: dict, order: int, where: str, names: dict, reduced=False) -> PowerSeries:
    """The zeta series to `order` of the one zeta input in `source`: a
    self-map, Lefschetz numbers, an orbit profile, a series or a graded
    endomorphism, under the keys of `_ZETA_SOURCES`.

    `names` maps the keys the caller accepts to its spelling of them, and
    exactly one must be given (not None).  Lefschetz numbers and profiles
    must reach `order` (`zeta_series` checks), and a series must have at
    least that order; it is cut to it.  With `reduced` the result is divided
    by 1 - q, inside `zeta_series` for map, profile and Lefschetz input.
    """
    key = _one_given(source, names, where)
    obj = source[key]
    if key == "map":
        return zeta_of_map(FiniteSelfMap.from_json(obj), order, reduced)
    if key == "lefschetz":
        return zeta_series(LefschetzSequence.from_json(obj), order, reduced)
    if key == "profile":
        return zeta_series(DoldProfile.from_json(obj), order, reduced)
    if key == "zeta":
        zeta = PowerSeries.from_json(obj)
        if zeta.order < order:
            raise ValueError(f"zeta series order {zeta.order} is below {order}")
        zeta = zeta.truncated(order)
    else:
        zeta = graded_zeta(GradedEndomorphism.from_json(obj), order)
    return zeta * PowerSeries([1] * (order + 1)) if reduced else zeta


def _read_group_inputs(source: dict, where: str, names: dict):
    """The group, its action table, the partition family and the coefficient
    traces in `source`, under those of the keys "group", "gset", "family",
    "traces" and "coefficient_size" that `names` maps to the caller's names.

    The group is required, and so is the family when taken.  The table (the
    natural one without a G-set) is checked here, once, against the family's
    ground, and the family once for stability under the table; both come back
    marked, so the functions they are passed to do not check them again.  The
    traces come from at most one of "traces", one per group element in
    element order, and "coefficient_size", a smash power's.  What is not
    taken or not given is None."""
    group = PermutationGroup.from_json(_field(source, "group", where))
    family = PartitionFamily.from_json(_field(source, "family", where)) if "family" in names else None
    gset = source.get("gset") if "gset" in names else None
    if gset is not None:
        name = names["gset"]
        size = _integer(_field(gset, "size", name), f"{name}'s 'size'")
        action = _field(gset, "action", name)
        if not isinstance(action, dict):
            raise ValueError(f"the action of {name} must map element indices to permutations")
        table = [None] * group.order
        for idx, perm in action.items():
            i = _integer(idx, f"an element index in the action of {name}")
            if not 0 <= i < group.order:
                raise ValueError(f"{name} names element {i}, but the group has {group.order} elements")
            table[i] = _integers(perm, f"a permutation in the action of {name}")
        if any(entry is None or len(entry) != size for entry in table):
            raise ValueError("the G-set action must cover every group element")
        gset = table
    gset = validate_gset(group, gset, None if family is None else family.ground)
    coefficients = {key: names[key] for key in ("traces", "coefficient_size") if key in names}
    given = _one_given(source, coefficients, where, required=False)
    traces = None
    if given == "traces":
        values = _integers(source["traces"], names["traces"])
        if len(values) != group.order:
            raise ValueError("need one trace per group element, in element order")
        traces = dict(zip(group.elements, values))
    elif given == "coefficient_size":
        traces = coefficient_traces(group, _integer(source[given], names[given]), gset)
    if family is not None:
        family = _require_stable(family, group, gset)
    return group, gset, family, traces


MAX_PLAN_ORDER = 64


def _plan_field(plan: dict, key: str):
    return _field(plan, key, f"the {plan['identity']!r} plan")


def _plan_integer(plan: dict, key: str, default=None) -> int:
    """A plan's integer field, refused (never truncated) when it is not an
    integer; a field without a default is required."""
    value = _plan_field(plan, key) if default is None else plan.get(key, default)
    return _integer(value, f"the {plan['identity']!r} plan's {key!r}")


def _plan_bound(plan: dict, default=None):
    """A plan's multiplicity bound 'l': an integer, or "inf" or null for none."""
    value = _plan_field(plan, "l") if default is None else plan.get("l", default)
    return None if value is None or value == "inf" else _plan_integer(plan, "l")


def _plan_order(plan: dict, key: str, default: int) -> int:
    """A plan's size field, bounded like the CLI's -N."""
    value = _plan_integer(plan, key, default)
    if not 1 <= value <= MAX_PLAN_ORDER:
        raise ValueError(f"plan field {key!r} must lie in 1..{MAX_PLAN_ORDER}, got {value}")
    return value


def _plan_map(plan: dict) -> FiniteSelfMap:
    return FiniteSelfMap.from_json(_plan_field(plan, "map"))


def _plan_group_inputs(plan: dict, *keys):
    """A plan's group inputs under `keys`; its G-set is named unquoted."""
    where = f"the {plan['identity']!r} plan"
    names = {key: f"{where}'s {key if key == 'gset' else repr(key)}" for key in keys}
    return _read_group_inputs(plan, where, names)


def _verdict(mismatch, **fields) -> dict:
    return {"pass": mismatch is None, "first_mismatch": mismatch, **fields}


def _series_report(series: PowerSeries, counts, coefficients=None) -> dict:
    """A closed-form series checked coefficient by coefficient against oracle
    counts; `coefficients` stands in for the series' own (an unpacked EGF)."""
    compared = series if coefficients is None else coefficients
    mismatch = compare_series_with_counts(compared, counts)
    return _verdict(mismatch, series=series.to_json(), counts=counts)


def _polynomial_report(lp: LefschetzPolynomial, f: FiniteSelfMap, oracle) -> dict:
    """A fixed-point polynomial evaluated at a map, against the oracle's count."""
    value = lp.evaluate_map(f)
    mismatch = None if value == oracle else {"oracle": oracle, "polynomial": rat_str(value)}
    return _verdict(mismatch, polynomial=lp.to_json(), value=rat_str(value), oracle=oracle)


def _verify_multisets(plan, k_max, max_enum, bounded):
    f = _plan_map(plan)
    bound = _plan_bound(plan) if bounded else None
    rhs = rhs_symmetric_power(zeta_of_map(f, k_max), bound)
    counts = [fixed_bounded_multisets(f, k, bound, max_enum) for k in range(k_max + 1)]
    return _series_report(rhs, counts)


def _verify_subsets(plan, k_max, max_enum):
    f = _plan_map(plan)
    rhs = rhs_borsuk_ulam(zeta_of_map(f, k_max))
    counts = [0] + [fixed_invariant_subsets(f, k, max_enum) for k in range(1, k_max + 1)]
    return _series_report(rhs, counts)


def _verify_tuples(plan, k_max, max_enum):
    f = _plan_map(plan)
    bound = _plan_integer(plan, "l")
    rhs = rhs_bounded_tuples(len(f.fixed_points()), bound, k_max)
    counts = [fixed_bounded_tuples(f, k, bound, max_enum) for k in range(k_max + 1)]
    return _series_report(rhs, counts, egf_unpack(rhs))


def _verify_group_average(plan, k_max, max_enum):
    f = _plan_map(plan)
    group, gset, _, _ = _plan_group_inputs(plan, "group", "gset")
    lp = gsymm_polynomial(group, gset)
    return _polynomial_report(lp, f, fixed_gmap_space(f, group, gset, max_enum))


def _verify_partition_family(plan, k_max, max_enum):
    f = _plan_map(plan)
    group, gset, family, traces = _plan_group_inputs(plan, "group", "gset", "family", "coefficient_size")
    coefficient = None
    if traces is not None:
        size = _plan_integer(plan, "coefficient_size")
        # the oracle's candidate count, refused before the smash power builds size^k tuples
        _guard((f.size * max(1, size)) ** family.ground, max_enum)
        coefficient = PointedFiniteSet.smash_power(size, group, gset)
    lp = general_lefschetz_polynomial(group, family, traces, gset)
    oracle = fixed_partition_orbits(f, group, family, coefficient, gset, max_enum)
    return _polynomial_report(lp, f, oracle)


def _verify_coefficient_space(plan, k_max, max_enum):
    if "profile" in plan:
        profile = DoldProfile.from_json(plan["profile"])
    else:
        profile = cycle_profile(_plan_map(plan), _plan_order(plan, "N", 4))
    return coefficient_identities_check(
        profile,
        _plan_integer(plan, "euler"),
        _plan_bound(plan, "inf"),
        _plan_order(plan, "N", min(profile.horizon, 4)),
    )


_PLAN_ZETA_NAMES = {key: repr(key) for key in _ZETA_SOURCES}


def _verify_configuration_traces(plan, k_max, max_enum):
    zeta = _read_zeta(plan, k_max, f"the {plan['identity']!r} plan", _PLAN_ZETA_NAMES)
    epsilon = _plan_integer(plan, "epsilon", 1)
    series, traces = _configuration_traces(zeta, _plan_field(plan, "parity"), epsilon)
    mismatch = None
    for k, want in enumerate([rat(v) for v in plan.get("expected_traces", ())]):
        if k > k_max or traces[k] != want:
            mismatch = {"k": k, "expected": rat_str(want)}
            break
    return _verdict(
        mismatch, series=series.to_json(), lefschetz_traces=[rat_str(t) for t in traces]
    )


# identity -> (handler(plan, k_max, max_enum) returning the report, the keys
# it reads besides "identity" and "k_max")
_VERIFIERS = {
    "md": (partial(_verify_multisets, bounded=False), {"map"}),
    "main": (partial(_verify_multisets, bounded=True), {"map", "l"}),
    "prod": (_verify_subsets, {"map"}),
    "sub": (_verify_tuples, {"map", "l"}),
    "gsymm": (_verify_group_average, {"map", "group", "gset"}),
    "partition": (_verify_partition_family, {"map", "group", "gset", "family", "coefficient_size"}),
    "coeffic": (_verify_coefficient_space, {"profile", "map", "N", "euler", "l"}),
    "config-trace": (_verify_configuration_traces, {*_ZETA_SOURCES, "parity", "epsilon", "expected_traces"}),
}


def verify_identity(plan: dict, max_enum=None) -> dict:
    """Run one closed-form-versus-oracle verification plan and report.

    Plans are dictionaries with an "identity" key selecting the statement to
    check ("md", "main", "prod", "sub", "gsymm", "partition", "coeffic" or
    "config-trace") plus the statement's inputs; a key the statement does not
    read is refused.  The sizes "k_max" and "N" lie in 1..64.  The report
    carries the overall verdict, the first mismatch if any, and the elapsed
    time.
    """
    started = perf_counter()
    if not isinstance(plan, dict):
        raise ValueError(f"a plan must be a JSON object, got {type(plan).__name__}")
    if "identity" not in plan:
        raise ValueError('the plan has no "identity" key naming the statement to check')
    identity = plan["identity"]
    entry = _VERIFIERS.get(identity) if isinstance(identity, str) else None
    if entry is None:
        raise ValueError(f"unknown identity {identity!r}")
    verifier, keys = entry
    keys = sorted(keys | {"identity", "k_max"})
    unknown = ", ".join(repr(key) for key in plan if key not in keys)
    if unknown:
        takes = ", ".join(map(repr, keys))
        raise ValueError(f"the {identity!r} plan does not take {unknown}; it takes {takes}")
    k_max = _plan_order(plan, "k_max", 6)
    report = verifier(plan, k_max, max_enum)
    report["identity"] = identity
    report["elapsed_s"] = round(perf_counter() - started, 6)
    return report
