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
extension).  This module computes those polynomials: for bounded symmetric
powers by the recurrence of the Lefschetz form exp(sum_i s_i q^i / i) of
their generating series (Macdonald, 1962), in which s_i is a combination of
the iterate fixed-point counts L_n = sum_{m|n} m t_m; directly for the group
average; and for a partition family as the group average minus one
configuration term per excluded partition that a group element fixes, which
counts the fixed maps with that fiber partition: each n-cycle of blocks
goes injectively onto its own orbit of least period n, in one of n phases.
Both are class functions of the element, so they are summed once per
conjugacy class, by cycle type, over integer numerators: the weights are
put over one common denominator, the factors are multiplied as
{exponents: int} dicts (each built once per call), and the sum becomes the
numerators of one MultiPoly over that denominator.  Wedges add polynomials,
smash products multiply them, and composites substitute the
iterate-transported orbit-count polynomials.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product as iter_product
from math import gcd, lcm
from operator import mul
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
from .multipoly import MultiPoly, _product, _sparse
from .oracles import (
    _CheckedTraces,
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
    invert_perm,
    perm_cycle_type,
    validate_gset,
)
from .series import (
    Poly,
    PowerSeries,
    _field,
    _fold_monic,
    _integer,
    _integers,
    _numerators,
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

    def __eq__(self, other):
        if not isinstance(other, LefschetzPolynomial):
            return NotImplemented
        return self.poly == other.poly

    def __repr__(self):
        return f"LefschetzPolynomial({self.poly}, degree_bound={self.degree_bound})"

    def to_json(self) -> dict:
        return {"degree_bound": self.degree_bound, "polynomial": self.poly.to_json()}


def integer_lattice_check(poly: MultiPoly, box: int = 4) -> bool:
    """Check integrality of the polynomial's values at every point of the
    lattice [-box, box]^nvars.

    With D the common denominator of the coefficients, D*p is evaluated over
    the integers and tested for divisibility by D.  The (2*box+1)^nvars
    points of the box count against the enumeration guard, but only the
    first min(2*box, e_i) + 1 values of t_i from -box are walked, e_i the
    largest exponent of t_i.  The verdict is the same: along each t_i-line p
    has degree at most e_i, so integer values at e_i + 1 consecutive
    integers give integer values at every integer (Newton's forward
    differences in the basis C(t, j)), and one variable at a time this
    extends integrality from the walked points to the whole box.

    The walked points are taken in order, prefix variables outside and the
    last nvars // 2 variables (the suffix) inside.  D*p at a point is the dot
    product of two rows taken mod D: the coefficients of the distinct suffix
    monomials at the prefix point, built once per prefix point, and those
    monomials' values at the suffix point, one table row per walked suffix
    point.  The walk stops at the first point whose value is not divisible
    by D."""
    if box < 0:
        raise ValueError("lattice box must be >= 0")
    d = poly.den
    if d == 1:  # integer coefficients: integer values at every point
        return True
    _guard((2 * box + 1) ** poly.nvars)
    split = poly.nvars - poly.nvars // 2
    degrees = [max(column) for column in zip(*poly.nums)]
    ranges = [range(-box, -box + min(2 * box, e) + 1) for e in degrees]
    top = max(degrees, default=0)
    # powers[v][e] = v^e mod D, for the values the widest range holds
    powers = {v: [pow(v, e, d) for e in range(top + 1)]
              for v in range(-box, -box + min(2 * box, top) + 1)}
    groups = {}  # suffix exponents -> [(numerator mod D, prefix (i, e) pairs)]
    for exps, c in poly.nums.items():
        factors = tuple((i, e) for i, e in enumerate(exps[:split]) if e)
        groups.setdefault(exps[split:], []).append((c % d, factors))
    suffix_factors = [tuple((i, e) for i, e in enumerate(exps) if e) for exps in groups]
    table = []
    for point in iter_product(*ranges[split:]):
        at = [powers[v] for v in point]
        vec = []
        for factors in suffix_factors:
            value = 1
            for i, e in factors:
                value = value * at[i][e] % d
            vec.append(value)
        table.append(vec)
    for point in iter_product(*ranges[:split]):
        at = [powers[v] for v in point]
        row = []
        for terms in groups.values():
            coefficient = 0
            for value, factors in terms:
                for i, e in factors:
                    value *= at[i][e]
                coefficient += value
            row.append(coefficient % d)
        for vec in table:
            if sum(map(mul, row, vec)) % d:
                return False
    return True


def _surjections(e: int) -> list:
    """j! S(e, j) for j = 0..e: the surjections from an e-set onto a j-set,
    so that t^e = sum_j j! S(e, j) C(t, j)."""
    row = [1]
    for _ in range(e):
        padded = row + [0]
        row = [0] + [j * (padded[j - 1] + padded[j]) for j in range(1, len(padded))]
    return row


def _integer_valued(poly: MultiPoly) -> bool:
    """Whether the polynomial takes integer values on all of Z^nvars.

    Exact, by Polya's criterion: that holds if and only if its coefficients in
    the basis prod_i C(t_i, j_i) are integers.  Each monomial of D*p is
    rewritten in that basis with t^e = sum_j j! S(e, j) C(t, j), and every
    resulting coefficient must be divisible by D."""
    d = poly.den
    if d == 1:
        return True
    binomial = {}
    for value, factors in _sparse(poly.nums):
        expansion = {(): value}
        for i, e in factors:
            row = _surjections(e)
            expansion = {
                key + ((i, j),): c * row[j]
                for key, c in expansion.items()
                for j in range(1, e + 1)
            }
        for key, c in expansion.items():
            binomial[key] = binomial.get(key, 0) + c
    return all(c % d == 0 for c in binomial.values())


# ---------------------------------------------------------------------------
# closed-form series


def _require_unit(zeta: PowerSeries):
    if zeta[0] != 1:
        raise ValueError("zeta-type series must have constant term 1")


def rhs_symmetric_power(zeta: PowerSeries, bound=None) -> PowerSeries:
    """Z(q^{l+1}) Z(q)^{-1} for a finite bound l, and Z(q)^{-1} when unbounded."""
    _require_unit(zeta)
    if bound is None:
        return zeta.inverse()
    if bound < 0:
        raise ValueError("multiplicity bound must be >= 0")
    return zeta.substitute_power(bound + 1) / zeta


def _over_one_minus_q(series: PowerSeries) -> PowerSeries:
    """The series divided by 1 - q, its partial sums: one fold of its
    numerators by the monic factor 1 - q."""
    return PowerSeries._trusted(_fold_monic(list(series.nums), [(1, -1)], divide=True), series.den)


def rhs_borsuk_ulam(zeta: PowerSeries) -> PowerSeries:
    """(1-q)^{-1} (Z(q^2) Z(q)^{-1} - 1): the q^k coefficient counts the
    invariant nonempty subsets of size at most k (zero at k = 0)."""
    return _over_one_minus_q(rhs_symmetric_power(zeta, 1) - PowerSeries.one(zeta.order))


def rhs_bounded_tuples(lefschetz_number: int, bound: int, order: int) -> PowerSeries:
    """(1 + q/1! + ... + q^l/l!)^{L}, an exponential generating function whose
    unpacked k-th coefficient counts fixed k-tuples with repetition bound l.
    Negative L is allowed as a formal identity; a non-integral L is refused."""
    if bound < 0:
        raise ValueError("repetition bound must be >= 0")
    lefschetz_number = _integer(lefschetz_number, "the Lefschetz number")
    base = egf_pack([1] * (min(bound, order) + 1), order)
    return base ** lefschetz_number


def configuration_trace_series(zeta: PowerSeries, parity: str) -> PowerSeries:
    """Generating function of the signed cohomology traces on unordered
    configuration spaces of a closed orientable r-manifold: Z(q) when r is
    odd and Z(q^2) Z(q)^{-1} when r is even.  The q^k coefficient equals
    epsilon^k times the trace, where epsilon records whether the map
    preserves orientation; dividing out epsilon^k is left to the caller."""
    _require_unit(zeta)
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    return zeta if parity == "odd" else rhs_symmetric_power(zeta, 1)


def _configuration_traces(zeta: PowerSeries, parity: str, epsilon: int):
    """The configuration trace series and the traces it encodes: its q^k
    coefficients with the sign epsilon^k divided out."""
    series = configuration_trace_series(zeta, parity)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return series, [c * epsilon ** k for k, c in enumerate(series.coeffs)]


# ---------------------------------------------------------------------------
# symmetric powers from their Lefschetz forms


def _monomial(nvars: int, n: int, e: int) -> tuple:
    """The exponent vector of t_n^e."""
    exps = [0] * nvars
    exps[n - 1] = e
    return tuple(exps)


def _divisor_sum_linear(n: int, nvars: int) -> MultiPoly:
    """sum_{m | n} m * t_m: the fixed points of the n-th iterate in the t's."""
    return MultiPoly._trusted(nvars, {_monomial(nvars, m, 1): m for m in divisors(n)})


def symmetric_power_polys(bound, order: int) -> list:
    """q-coefficients of G(q) = prod_m F(q^m)^{t_m} in variables
    t_1..t_order, where F(x) = 1 + x + ... + x^l, or 1/(1 - x) when the
    bound l is None.  The q^k coefficient is the fixed-point count of the
    bounded k-th symmetric power as a polynomial in the orbit counts.

    G is the exponential of its Lefschetz form: q G'/G = sum_i s_i q^i with
    s_i = L_i - (l+1) L_{i/(l+1)} when (l+1) divides i and s_i = L_i
    otherwise, where L_n = sum_{m|n} m t_m counts the fixed points of the
    n-th iterate.  So g_0 = 1 and n g_n = sum_{i=1..n} s_i g_{n-i}."""
    if bound is not None and bound < 0:
        raise ValueError("multiplicity bound must be >= 0")
    lefschetz = [None] + [_divisor_sum_linear(n, order) for n in range(1, order + 1)]
    s = list(lefschetz)
    if bound is not None:
        step = bound + 1
        for i in range(step, order + 1, step):
            s[i] = s[i] - step * lefschetz[i // step]
    # G_n = n! g_n has integer coefficients, and n g_n = sum_i s_i g_{n-i}
    # gives G_n = sum_i s_i G_{n-i} (n-1)!/(n-i)!
    numerators = [{(0,) * order: 1}]
    g = [MultiPoly._trusted(order, numerators[0])]
    factorial = 1
    for n in range(1, order + 1):
        total, scale = {}, 1  # scale = (n-1)!/(n-i)!
        for i in range(1, n + 1):
            scaled = {e: c * scale for e, c in s[i].nums.items()}
            _product(scaled, numerators[n - i], total)
            scale *= n - i
        factorial *= n
        numerators.append(total)
        g.append(MultiPoly._trusted(order, total, factorial))
    return g


def bounded_power_polynomial(k: int, bound) -> LefschetzPolynomial:
    """The fixed-point polynomial of the compactified k-th symmetric power
    with multiplicity bound l: the coefficient of q^k in
    prod_{m=1}^{k} (1 + q^m + ... + q^{lm})^{t_m}."""
    if k < 0:
        raise ValueError("power must be >= 0")
    return LefschetzPolynomial(symmetric_power_polys(bound, k)[k], k)


# ---------------------------------------------------------------------------
# group averages and partition families


def _validate_traces(group: PermutationGroup, coeff_traces):
    """The traces as a table on the group elements, refused unless they are
    a class function (constant on each conjugacy class), since the class
    sums read one element of each class.  A table of `coefficient_traces`
    for the group is one by construction and passes as it is."""
    if coeff_traces is None or (
        isinstance(coeff_traces, _CheckedTraces) and coeff_traces.group == group
    ):
        return coeff_traces
    table = {tuple(g): rat(v) for g, v in coeff_traces.items()}
    if any(g not in table for g in group.elements):
        raise ValueError("coefficient traces must be defined on every group element")
    for members in group.classes:
        g, *conjugates = map(group.elements.__getitem__, members)
        for conjugate in conjugates:
            if table[conjugate] != table[g]:
                raise ValueError(
                    f"coefficient traces must be a class function, but {list(g)} has trace "
                    f"{rat_str(table[g])} and its conjugate {list(conjugate)} has trace "
                    f"{rat_str(table[conjugate])}"
                )
    return table


def _cycle_key(factor, perm) -> tuple:
    """One (factor, n, c) triple per cycle length n of the permutation, with
    c its cycles of that length, in order of n."""
    return tuple((factor, n, c) for n, c in sorted(perm_cycle_type(perm).items()))


def _cycle_type_sum(weights: dict, nvars: int, den: int) -> MultiPoly:
    """(1/den) sum over the keys (`_cycle_key`) of w prod factor(n, c, nvars),
    with w the key's weight in `weights`: one entry per cycle type and
    factor, the cycle-index collapse.

    The weights are put over one common denominator D (`_numerators`), so the
    products and the sum run over ints, in one dict that becomes the
    numerators of the resulting MultiPoly over D * den.  A factor returns an
    {exponents: int} dict, built once in a call and kept only for that call."""
    d, numerators = _numerators(list(weights.values()))
    zero = (0,) * nvars
    factors = {}
    total = {}
    for key, weight in zip(weights, numerators):
        if not weight:
            continue
        term = {zero: weight}
        for factor, n, c in key:
            if (factor, n, c) not in factors:
                factors[factor, n, c] = factor(n, c, nvars)
            term = _product(term, factors[factor, n, c])
        for exps, c in term.items():
            total[exps] = total.get(exps, 0) + c
    return MultiPoly._trusted(nvars, total, d * den)


def _orbit_factor(n: int, count: int, nvars: int) -> dict:
    """(sum_{m|n} m t_m)^count: the points fixed by f^n, for each of `count`
    cycles of length n."""
    linear = _divisor_sum_linear(n, nvars).nums
    power = {(0,) * nvars: 1}
    for _ in range(count):
        power = _product(power, linear)
    return power


def _falling_factorial_coeffs(r: int) -> list:
    """The integer coefficients of t(t-1)...(t-r+1), constant term first."""
    coeffs = [1]
    for i in range(r):  # multiply by t - i
        shifted = [0, *coeffs]
        for j, c in enumerate(coeffs):
            shifted[j] -= i * c
        coeffs = shifted
    return coeffs


def _configuration_factor(n: int, count: int, nvars: int) -> dict:
    """n^c t_n (t_n - 1) ... (t_n - c + 1) with c = count: the injective maps
    that send c cycles of length n each onto its own orbit of least period
    n, in one of n phases."""
    scale = n ** count
    return {
        _monomial(nvars, n, d): scale * c
        for d, c in enumerate(_falling_factorial_coeffs(count))
        if c
    }


def _class_sum(group: PermutationGroup, gset, traces, partitions=(), inside=False) -> MultiPoly:
    """(1/|G|) sum over the conjugacy classes C of |C| w(g) times a sum of
    cycle-type products.  Here g leads C, w(g) is the trace of g^{-1} (1
    without traces), g has d_g(n) orbits of length n under the action and
    c_n cycles of length n on the blocks of a partition it fixes.

    With `inside` False the summand is the orbit factor
    prod_n (sum_{m|n} m t_m)^{d_g(n)} minus one configuration factor
    c_pi(g) = prod_n n^{c_n} t_n (t_n - 1) ... (t_n - c_n + 1) for each of the
    `partitions` (the excluded ones) that g fixes.  With `inside` True it is
    the sum of c_pi(g) over the `partitions` (the members) that g fixes, with
    no orbit factor.  The two agree: a fixed point of g on map(K, X) has one
    fiber partition, which g fixes, so the sum of c_pi(g) over every
    partition fixed by g is the orbit factor.  The summand is a class
    function of g, as the traces are and the partitions must be G-stable.
    The weights are summed by cycle type (`_cycle_type_sum`).  The arguments
    are trusted: callers validate them."""
    partitions = [(p.labels, p.block_count) for p in partitions]
    weights = {}
    for members in group.classes:
        g, perm = group.elements[members[0]], gset[members[0]]
        weight = len(members) * (1 if traces is None else traces[invert_perm(g)])
        weight = weight.numerator if weight.denominator == 1 else weight  # int sums are cheaper
        if not weight:
            continue
        if not inside:
            key = _cycle_key(_orbit_factor, perm)
            weights[key] = weights.get(key, 0) + weight
            weight = -weight  # the excluded configurations are subtracted
        for labels, count in partitions:
            # g fixes the partition when it maps each block into one block;
            # the (block, image block) pairs are then its permutation of them
            pairs = set(zip(labels, map(labels.__getitem__, perm)))
            if len(pairs) == count:
                key = _cycle_key(_configuration_factor, [b for _, b in sorted(pairs)])
                weights[key] = weights.get(key, 0) + weight
    return _cycle_type_sum(weights, len(gset[0]), group.order)


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
    traces = _validate_traces(group, coeff_traces)
    return LefschetzPolynomial(_class_sum(group, gset, traces), len(gset[0]))


def general_lefschetz_polynomial(
    group: PermutationGroup,
    family: PartitionFamily,
    coeff_traces=None,
    gset=None,
) -> LefschetzPolynomial:
    """The fixed-point polynomial of the compactified space of maps K -> X
    with fiber partition in the family, modulo the group.

    The group average counts the fixed maps of every fiber partition.  Those
    whose fiber partition lies in the G-orbit O of an excluded partition pi
    are the configurations of its blocks under the stabilizer G_pi, so O
    subtracts (1/|G_pi|) sum_{g in G_pi} w(g) c_pi(g), where w(g) is the
    trace of g^{-1} and c_pi(g) = prod_n n^{c_n} t_n (t_n - 1) ... (t_n - c_n + 1)
    when g makes c_n cycles of length n on the blocks of pi.  By
    orbit-stabilizer |G_pi| = |G|/|O|, and the sum over G_pi is the same for
    every pi in O, so the excluded orbits together subtract
    (1/|G|) sum_g w(g) sum_{excluded pi with g pi = pi} c_pi(g), a class
    function of g that `_class_sum` takes once per conjugacy class.

    Every fixed map of g has one fiber partition, which g fixes, so the sum
    of c_pi(g) over all partitions fixed by g is the orbit factor of g.  The
    group average less the excluded configurations is therefore
    (1/|G|) sum_g w(g) sum_{member pi with g pi = pi} c_pi(g), and
    `_class_sum` is given whichever side of the family is smaller
    (`_smaller_side`): the members, added with no orbit factor, or the
    excluded partitions, subtracted from it.

    The group, its action, the traces and the family's stability are
    validated here, once, unless the table and family carry the mark of an
    earlier check.
    """
    k = family.ground
    gset = validate_gset(group, gset, k)
    traces = _validate_traces(group, coeff_traces)
    family = _require_stable(family, group, gset)
    partitions, inside = family._kept_side()
    return LefschetzPolynomial(_class_sum(group, gset, traces, partitions, inside), k)


def falling_factorial(r: int) -> Poly:
    """t(t-1)...(t-r+1) as a univariate polynomial."""
    return Poly(_falling_factorial_coeffs(r))


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
    images = [{} for _ in range(source_vars)]
    for n in range(1, source_vars * d + 1):
        g = gcd(n, d)
        i = n // g
        if i <= source_vars:
            images[i - 1][_monomial(target_vars, n, 1)] = g
    return [MultiPoly._trusted(target_vars, nums) for nums in images]


def dold_polynomial_of_functor(lp: LefschetzPolynomial, m: int) -> MultiPoly:
    """The m-th orbit count of the induced map, as a polynomial in the orbit
    counts of the input: Moebius inversion of the fixed-point polynomial
    along the iterate substitution, in m * k variables (none for a constant)
    and of weighted degree at most m * k.  Every result must pass the exact
    integrality check of Dold's congruences, or a RuntimeError is raised."""
    if m < 1:
        raise ValueError("orbit length must be >= 1")
    k = lp.degree_bound
    target = k * m
    acc = MultiPoly.zero(target)
    for d in divisors(m):
        images = iterate_profile_images(d, k, target)
        acc = acc + mobius(m // d) * lp.poly.substitute(images)
    result = acc / m
    if not _integer_valued(result):
        raise RuntimeError("orbit-count polynomial failed the integrality check")
    return result


def compose_lefschetz(
    outer: LefschetzPolynomial, inner: LefschetzPolynomial
) -> LefschetzPolynomial:
    """Fixed-point polynomial of a composite: substitute the inner functor's
    orbit-count polynomials into the outer polynomial.

    The substitution bounds the weighted degree by (inner degree) * (outer
    degree), which is the degree bound of the result; the coarser classical
    bound k^l is asserted as well whenever k >= 2 (for k = 1 it can
    undercount, e.g. composing with the identity).  A constant inner functor
    c sends the outer polynomial to its value at (c, 0, ..., 0).
    """
    l = outer.degree_bound
    k = inner.degree_bound
    target = k * l
    images = [
        dold_polynomial_of_functor(inner, i).resize(target) for i in range(1, l + 1)
    ]
    poly = outer.poly.substitute(images)
    if k >= 2 and poly.weighted_degree() > k ** l:
        raise RuntimeError("composite exceeded the classical degree bound")
    return LefschetzPolynomial(poly, target)


# ---------------------------------------------------------------------------
# functor expressions and realization


class _Expression:
    """A functor-expression node: immutable, equal only to a node of the same
    class with equal fields, and printed as `Name(field=value, ...)`.  Its
    hash, that of the tuple of its fields, is computed once at construction:
    `expression_polynomial` memoises on nodes and counts the parts of every
    wedge, so each node is hashed many times."""

    __slots__ = ("_hash",)
    _fields = ()

    def _freeze(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._values() == other._values()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class IdentityFunctor(_Expression):
    """X itself; fixed-point polynomial t_1."""

    __slots__ = ()

    def __init__(self):
        self._freeze()


class ConstantSphereSmash(_Expression):
    """The constant functor with value a sphere: reduced Euler characteristic
    +1 for even-dimensional spheres, -1 for odd.  Smashing with the odd one
    negates a fixed-point polynomial."""

    __slots__ = _fields = ("parity",)

    def __init__(self, parity: str):
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        self._freeze(parity)


class BoundedSymmetricPower(_Expression):
    """The compactified k-th symmetric power with multiplicity bound l."""

    __slots__ = _fields = ("power", "bound")

    def __init__(self, power: int, bound: int):
        self._freeze(power, bound)


class Wedge(_Expression):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        self._freeze(parts)


class Smash(_Expression):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        self._freeze(parts)


class Compose(_Expression):
    __slots__ = _fields = ("outer", "inner")

    def __init__(self, outer, inner):
        self._freeze(outer, inner)


def expression_polynomial(expr) -> LefschetzPolynomial:
    """Evaluate a functor expression to its fixed-point polynomial: wedges
    add, smash products multiply, composition substitutes.  Each distinct
    sub-expression is evaluated once per call."""
    memo = {}

    def build(e):
        lp = memo.get(e)
        if lp is None:
            lp = memo[e] = _expression_node(e, build)
        return lp

    return build(expr)


def _expression_node(expr, build) -> LefschetzPolynomial:
    """The polynomial of one expression node, its parts evaluated by `build`."""
    if isinstance(expr, IdentityFunctor):
        return LefschetzPolynomial(MultiPoly.variable(1, 1), 1)
    if isinstance(expr, ConstantSphereSmash):
        value = 1 if expr.parity == "even" else -1
        return LefschetzPolynomial(MultiPoly.constant(value, 0), 0)
    if isinstance(expr, BoundedSymmetricPower):
        return bounded_power_polynomial(expr.power, expr.bound)
    if isinstance(expr, Wedge):
        # each distinct part is added once, times its multiplicity
        parts = [(build(p), n) for p, n in Counter(expr.parts).items()]
        bound = max((p.degree_bound for p, _ in parts), default=0)
        total = MultiPoly.zero(bound)
        for p, n in parts:
            total = total + n * p.poly.extend(bound)
        return LefschetzPolynomial(total, bound)
    if isinstance(expr, Smash):
        parts = [build(p) for p in expr.parts]
        bound = sum(p.degree_bound for p in parts)
        total = MultiPoly.constant(1, bound)
        for p in parts:
            total = total * p.poly.extend(bound)
        return LefschetzPolynomial(total, bound)
    if isinstance(expr, Compose):
        return compose_lefschetz(build(expr.outer), build(expr.inner))
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
    basis = symmetric_power_polys(1, k)
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
    evaluated at the given orbit profile, for each power k <= order (at most
    6: the closure of S_k stops at the group order cap of 720).  The
    applicable right sides are Z^{-n} (unbounded multiplicities, and again
    for n <= 0 once the bound reaches -n) and prod_m (1 + n q^m)^{D_m}
    (multiplicity bound 1).
    """
    if order is None:
        order = min(profile.horizon, 4)
    if profile.horizon < order:
        raise ValueError(f"profile horizon {profile.horizon} is below the order {order}")
    if bound is not None and bound < 0:
        raise ValueError("multiplicity bound must be >= 0 (or None for unbounded)")

    lhs = [Fraction(1)]
    for k in range(1, order + 1):
        group = PermutationGroup.symmetric(k)  # its order cap refuses k > 6
        if bound is not None and bound == 0:
            lhs.append(Fraction(0))
            continue
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


def _read_zeta(source: dict, order: int, where: str, names: dict) -> PowerSeries:
    """The zeta series to `order` of the one zeta input in `source`: a
    self-map, Lefschetz numbers, an orbit profile, a series or a graded
    endomorphism, under the keys of `_ZETA_SOURCES`.

    `names` maps the keys the caller accepts to its spelling of them, and
    exactly one must be given (not None).  Lefschetz numbers and profiles
    must reach `order` (`zeta_series` checks), and a series must have at
    least that order; it is cut to it.  The reduced series is this one
    divided by 1 - q, by `_over_one_minus_q`, whatever the input.
    """
    key = _one_given(source, names, where)
    obj = source[key]
    if key == "map":
        return zeta_of_map(FiniteSelfMap.from_json(obj), order)
    if key == "lefschetz":
        return zeta_series(LefschetzSequence.from_json(obj), order)
    if key == "profile":
        return zeta_series(DoldProfile.from_json(obj), order)
    if key == "zeta":
        zeta = PowerSeries.from_json(obj)
        if zeta.order < order:
            raise ValueError(f"zeta series order {zeta.order} is below {order}")
        return zeta.truncated(order)
    return graded_zeta(GradedEndomorphism.from_json(obj, names[key]), order)


def _read_group_inputs(source: dict, where: str, names: dict):
    """The group, its action table, the partition family and the coefficient
    traces in `source`, under those of the keys "group", "gset", "family",
    "traces" and "coefficient_size" that `names` maps to the caller's names.

    The group is required, and so is the family when taken.  The table (the
    natural one without a G-set) is checked here, once, against the family's
    ground, and the family once for stability under the table; both come back
    marked, so the functions they are passed to do not check them again.  The
    traces come from at most one of "traces", one per group element in
    element order, and "coefficient_size", the number of non-basepoint points
    of a pointed set whose k-fold smash power the group permutes; the traces
    are then those of `coefficient_traces`.  What is not taken or not given
    is None."""
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


def _verify_multisets(plan, k_max, bounded):
    f = _plan_map(plan)
    bound = _plan_bound(plan) if bounded else None
    rhs = rhs_symmetric_power(zeta_of_map(f, k_max), bound)
    counts = list(fixed_bounded_multisets(f, k_max, bound))
    return _series_report(rhs, counts)


def _verify_subsets(plan, k_max):
    f = _plan_map(plan)
    rhs = rhs_borsuk_ulam(zeta_of_map(f, k_max))
    counts = list(fixed_invariant_subsets(f, k_max))
    return _series_report(rhs, counts)


def _verify_tuples(plan, k_max):
    f = _plan_map(plan)
    bound = _plan_integer(plan, "l")
    rhs = rhs_bounded_tuples(len(f.fixed_points()), bound, k_max)
    counts = list(fixed_bounded_tuples(f, k_max, bound))
    return _series_report(rhs, counts, egf_unpack(rhs))


def _verify_group_average(plan, k_max):
    f = _plan_map(plan)
    group, gset, _, _ = _plan_group_inputs(plan, "group", "gset")
    lp = gsymm_polynomial(group, gset)
    return _polynomial_report(lp, f, fixed_gmap_space(f, group, gset))


def _verify_partition_family(plan, k_max):
    f = _plan_map(plan)
    group, gset, family, traces = _plan_group_inputs(plan, "group", "gset", "family", "coefficient_size")
    size = 1 if traces is None else _plan_integer(plan, "coefficient_size")
    lp = general_lefschetz_polynomial(group, family, traces, gset)
    return _polynomial_report(lp, f, fixed_partition_orbits(f, group, family, size, gset))


def _verify_coefficient_space(plan, k_max):
    points = {key: repr(key) for key in ("profile", "map")}
    if _one_given(plan, points, f"the {plan['identity']!r} plan") == "profile":
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


def _verify_configuration_traces(plan, k_max):
    where = f"the {plan['identity']!r} plan"
    zeta = _read_zeta(plan, k_max, where, _PLAN_ZETA_NAMES)
    epsilon = _plan_integer(plan, "epsilon", 1)
    series, traces = _configuration_traces(zeta, _plan_field(plan, "parity"), epsilon)
    expected = _field(plan, "expected_traces", where, list) if "expected_traces" in plan else []
    mismatch = None
    for k, want in enumerate([rat(v) for v in expected]):
        if k > k_max or traces[k] != want:
            mismatch = {"k": k, "expected": rat_str(want)}
            break
    return _verdict(
        mismatch, series=series.to_json(), lefschetz_traces=[rat_str(t) for t in traces]
    )


# identity -> (handler(plan, k_max) returning the report, the keys
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


def verify_identity(plan: dict) -> dict:
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
    report = verifier(plan, k_max)
    report["identity"] = identity
    report["elapsed_s"] = round(perf_counter() - started, 6)
    return report
