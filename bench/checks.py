"""Independent output checks for the benchmark.

Nothing here imports doldzeta.  Every expected value is recomputed from the
generated inputs with plain integer or Fraction arithmetic, along routes the
program does not take: orbit products expanded coefficient by coefficient,
Burnside sums over explicit group elements, brute-force fixed-point counts
on small maps, and integer evaluation on the lattice.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# truncated series with exact coefficients (lists of length N + 1)


def series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def series_inverse(a, order):
    """Inverse of a series with constant term 1 (stays integral)."""
    require(a[0] == 1, "series_inverse needs constant term 1")
    out = [1] + [0] * order
    for n in range(1, order + 1):
        out[n] = -sum(a[i] * out[n - i] for i in range(1, n + 1) if a[i])
    return out


def binomial_power(e, m, order, a=1):
    """(1 - a q^m)^e for any integer e, by the binomial series."""
    out = [0] * (order + 1)
    for j in range(order // m + 1):
        if e >= 0:
            c = comb(e, j)
        else:
            c = (-1) ** j * comb(-e + j - 1, j)
        out[m * j] = c * (-a) ** j
    return out


def geometric_block_power(m, bound, e, order):
    """(1 + q^m + ... + q^{bound m})^e, written as
    (1 - q^{m(bound+1)})^e (1 - q^m)^{-e}; bound None means (1 - q^m)^{-e}."""
    if bound is None:
        return binomial_power(-e, m, order)
    return series_mul(
        binomial_power(e, m * (bound + 1), order), binomial_power(-e, m, order), order
    )


def orbit_product(counts, order, factor):
    """prod_m factor(m, D_m) over a profile {m: D_m}."""
    out = [1] + [0] * order
    for m, d in sorted(counts.items()):
        if d and m <= order:
            out = series_mul(out, factor(m, d), order)
    return out


def zeta_from_profile(counts, order):
    """Z = prod_m (1 - q^m)^{D_m}."""
    return orbit_product(counts, order, lambda m, d: binomial_power(d, m, order))


def eigen_zeta(eigen_by_degree, order):
    """prod_j prod_i (1 - a_i q)^{(-1)^j} for integer eigenvalues a_i."""
    out = [1] + [0] * order
    for degree, values in eigen_by_degree.items():
        sign = 1 if int(degree) % 2 == 0 else -1
        for a in values:
            out = series_mul(out, binomial_power(sign, 1, order, a), order)
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def dold_from_lefschetz(values):
    """D_m = (1/m) sum_{d|m} mu(m/d) L_d, with a divisibility check."""
    out = {}
    for m in range(1, len(values) + 1):
        total = sum(mobius(m // d) * values[d - 1] for d in divisors(m))
        require(total % m == 0, f"Lefschetz data fails the Dold congruence at {m}")
        out[m] = total // m
    return out


# ---------------------------------------------------------------------------
# finite maps


def cycle_lengths(mapping):
    """Lengths of the periodic orbits of a self-map given by its table."""
    n = len(mapping)
    periodic = []
    seen = set()
    for start in range(n):
        x = start
        for _ in range(n):
            x = mapping[x]
        if x in seen:
            continue
        length, y = 1, mapping[x]
        orbit = {x}
        while y != x:
            orbit.add(y)
            y = mapping[y]
            length += 1
        seen |= orbit
        periodic.append(length)
    return sorted(periodic)


def profile_of(mapping, horizon=None):
    counts = {}
    for length in cycle_lengths(mapping):
        counts[length] = counts.get(length, 0) + 1
    if horizon is not None:
        counts = {m: c for m, c in counts.items() if m <= horizon}
    return counts


def fixed_counts_of_iterates(mapping, horizon):
    """L(f^k) for k = 1..horizon by direct iteration of the table."""
    n = len(mapping)
    current = list(range(n))
    out = []
    for _ in range(horizon):
        current = [mapping[x] for x in current]
        out.append(sum(1 for x in range(n) if current[x] == x))
    return out


def perm_cycles(perm):
    seen = [False] * len(perm)
    lengths = []
    for s in range(len(perm)):
        if not seen[s]:
            n, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                n += 1
            lengths.append(n)
    return lengths


def perm_cycle_lists(perm):
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if not seen[s]:
            cyc, x = [], s
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = perm[x]
            cycles.append(cyc)
    return cycles


def group_closure(degree, generators):
    """All products of the generators (breadth-first)."""
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                p = tuple(g[h[i]] for i in range(degree))
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return sorted(elements)


def group_elements(group_json):
    if "elements" in group_json:
        return sorted({tuple(e) for e in group_json["elements"]})
    return group_closure(int(group_json["degree"]), group_json["generators"])


# ---------------------------------------------------------------------------
# polynomials in t_1..t_n: dicts exponent-tuple -> Fraction


def poly_from_json(obj):
    """Terms of a program polynomial: accepts {"variables", "terms"} and the
    LefschetzPolynomial wrapper {"degree_bound", "polynomial"}."""
    if "polynomial" in obj:
        obj = obj["polynomial"]
    return int(obj["variables"]), {
        tuple(t["exponents"]): Fraction(t["coeff"]) for t in obj["terms"]
    }


def poly_eval(terms, point):
    total = Fraction(0)
    for exps, c in terms.items():
        v = c
        for i, e in enumerate(exps):
            if e:
                v *= Fraction(point[i]) ** e if i < len(point) else 0
        total += v
    return total


def weight_grid(k):
    """t_m in 0..floor(k/m) for m = 1..k: a polynomial of weighted degree
    <= k has degree <= floor(k/m) in t_m, so these values determine it."""
    return product(*[range(k // m + 1) for m in range(1, k + 1)])


def bounded_power_count(counts, k, bound, coefficient=None):
    """[q^k] prod_m (1 + q^m + ... + q^{lm})^{t_m}; with a coefficient size n
    and bound 1 the factor is (1 + n q^m), unbounded it is (1-q^m)^{-n t_m}."""
    if coefficient is None:
        factor = lambda m, d: geometric_block_power(m, bound, d, k)
    elif bound is None:
        factor = lambda m, d: binomial_power(-coefficient * d, m, k)
    else:
        require(bound == 1, "coefficient closed form needs bound 1 or none")
        factor = lambda m, d: series_mul_power([1] + [0] * (m - 1) + [coefficient], d, k)
    return orbit_product(counts, k, factor)[k]


def series_mul_power(base, e, order):
    base = (list(base) + [0] * (order + 1))[: order + 1]
    out = [1] + [0] * order
    for _ in range(abs(e)):
        out = series_mul(out, base, order)
    return out if e >= 0 else series_inverse(out, order)


def check_poly_on_grid(terms, k, expected_at):
    for point in weight_grid(k):
        counts = {m + 1: point[m] for m in range(k)}
        got = poly_eval(terms, point)
        want = expected_at(counts)
        require(got == want, f"polynomial value {got} != {want} at t = {point}")


def burnside_in_t(elements, weights, counts):
    """(1/|G|) sum_g w_g prod_{cycles c of g} L_{|c|}, with
    L_n = sum_{m | n} m t_m; summed by cycle type."""
    classes = {}
    for g, w in zip(elements, weights):
        key = tuple(sorted(perm_cycles(g)))
        classes[key] = classes.get(key, 0) + w
    total = Fraction(0)
    for lengths, w in classes.items():
        v = w
        for n in lengths:
            v *= sum(m * counts.get(m, 0) for m in divisors(n))
        total += v
    return total / len(elements)


# ---------------------------------------------------------------------------
# partition families


def canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def family_predicate(family_json):
    if "max_block" in family_json:
        bound = int(family_json["max_block"])
        return lambda p: max(len(b) for b in p) <= bound
    if "refines" in family_json:
        where = {}
        for i, b in enumerate(family_json["refines"]):
            for x in b:
                where[x] = i
        return lambda p: all(len({where[x] for x in b}) == 1 for b in p)
    members = {canonical_partition(p) for p in family_json["members"]}
    return lambda p: p in members


def fiber_partition(values):
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return canonical_partition(groups.values())


def burnside_family_count(mapping, elements, action, family_json, coefficient=None):
    """Fixed points of [a, y] -> [f o a, y] on the orbit space of maps
    a: K -> M with fiber partition in the family (times the coefficient
    smash power): (1/|G|) sum_g n^{c(g)} #{a : f o a = a o g, pi(a) in F}.
    A solution is fixed by a choice, on each cycle of g, of one point x with
    f^{|c|}(x) = x; the rest of the cycle is f^i(x)."""
    n = len(mapping)
    member = family_predicate(family_json)
    iterate_fixed = {}
    total = 0
    for perm in action:
        cycles = perm_cycle_lists(perm)
        choices = []
        for cyc in cycles:
            length = len(cyc)
            if length not in iterate_fixed:
                pts = []
                for x in range(n):
                    y = x
                    for _ in range(length):
                        y = mapping[y]
                    if y == x:
                        pts.append(x)
                iterate_fixed[length] = pts
            choices.append(iterate_fixed[length])
        count = 0
        for pick in product(*choices):
            a = [0] * len(perm)
            for cyc, x in zip(cycles, pick):
                # f(a(i)) = a(g(i)): walk the cycle i, g(i), g^2(i), ...
                y = x
                for i in cyc:
                    a[i] = y
                    y = mapping[y]
            if member(fiber_partition(a)):
                count += 1
        weight = coefficient ** len(cycles) if coefficient is not None else 1
        total += weight * count
    require(total % len(elements) == 0, "Burnside sum is not divisible by |G|")
    return total // len(elements)


# ---------------------------------------------------------------------------
# functor expressions evaluated by brute force on small maps


def induced_power_map(mapping, k, bound):
    """The induced pointed map on multisets of size k over the map's points
    with multiplicities <= bound; index 0 is the basepoint."""
    n = len(mapping)
    sets = [
        m for m in combinations_with_replacement(range(n), k)
        if bound is None or max(m.count(x) for x in set(m)) <= bound
    ]
    index = {m: i + 1 for i, m in enumerate(sets)}
    table = [0]
    for m in sets:
        image = tuple(sorted(mapping[x] for x in m))
        table.append(index.get(image, 0))
    return table


def reduced_profile(pointed):
    """Periodic-orbit counts of a pointed map, its basepoint 0 left out."""
    counts = profile_of(pointed)
    counts[1] -= 1
    return {m: c for m, c in counts.items() if c}


def expression_value(expr, mapping):
    """Reduced fixed-point count of a functor expression at a finite map:
    wedges add, smash products multiply, the odd sphere negates, bounded
    symmetric powers count fixed multisets, composites induce the inner map."""
    kind = expr["kind"]
    if kind == "identity":
        return sum(1 for x in range(len(mapping)) if mapping[x] == x)
    if kind == "sphere":
        return 1 if expr["parity"] == "even" else -1
    if kind == "power":
        k, bound = expr["power"], expr["bound"]
        if k == 0:
            return 1
        return bounded_power_count(profile_of(mapping), k, bound)
    if kind == "wedge":
        return sum(expression_value(p, mapping) for p in expr["parts"])
    if kind == "smash":
        v = 1
        for p in expr["parts"]:
            v *= expression_value(p, mapping)
        return v
    if kind == "compose":
        inner = expr["inner"]
        require(inner["kind"] in ("power", "identity"), "brute force composes powers only")
        if inner["kind"] == "identity":
            return expression_value(expr["outer"], mapping)
        pointed = induced_power_map(mapping, inner["power"], inner["bound"])
        return outer_value(expr["outer"], reduced_profile(pointed))
    raise CheckError(f"unknown expression kind {kind!r}")


def outer_value(expr, counts):
    """Value of the outer functor of a composite at the inner space's
    reduced orbit counts."""
    if expr["kind"] == "power":
        return bounded_power_count(counts, expr["power"], expr["bound"])
    if expr["kind"] == "identity":
        return counts.get(1, 0)
    raise CheckError("outer functor of a composite must be a power or the identity")


def orbit_count_brute(mapping, k, bound, m):
    """Periodic orbits of least period m of the induced map on bounded
    multisets of size k (basepoint excluded)."""
    pointed = induced_power_map(mapping, k, bound)
    return reduced_profile(pointed).get(m, 0)


# ---------------------------------------------------------------------------
# integrality on the lattice, in integer arithmetic


def lattice_integral(terms, nvars, box):
    """True when the polynomial takes integer values on [-box, box]^nvars:
    with D the common denominator, D*p has integer coefficients and p is
    integral at a point exactly when D*p vanishes there modulo D."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [(exps, int(c * den)) for exps, c in terms.items()]
    for point in product(range(-box, box + 1), repeat=nvars):
        total = 0
        for exps, c in ints:
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        if total % den:
            return False
    return True


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# per-command checks; each takes the op's check spec and its output


def _expect_series(obj, want, what):
    order, coeffs = int(obj["order"]), [Fraction(c) for c in obj["coeffs"]]
    require(order == len(want) - 1, f"{what}: order {order}, expected {len(want) - 1}")
    for k, (got, exp) in enumerate(zip(coeffs, want)):
        require(got == exp, f"{what}: q^{k} coefficient {got} != {exp}")


def _counts_from_spec(spec, order):
    if "lefschetz" in spec:
        return dold_from_lefschetz(spec["lefschetz"][:order])
    if "profile" in spec:
        return {m + 1: v for m, v in enumerate(spec["profile"][:order]) if v}
    if "map" in spec:
        return profile_of(spec["map"], order)
    raise CheckError("zeta input missing from check spec")


def _zeta_for(spec, order):
    if "eigen" in spec:
        return eigen_zeta(spec["eigen"], order)
    return zeta_from_profile(_counts_from_spec(spec, order), order)


def check_zeta(spec, out):
    order = spec["N"]
    want = _zeta_for(spec, order)
    if spec.get("reduced"):
        want = series_mul(want, series_inverse([1, -1] + [0] * order, order), order)
    _expect_series(out["zeta"], want, "zeta")


def check_symmetric(spec, out):
    order, bound = spec["N"], spec["bound"]
    counts = _counts_from_spec(spec, order)
    want = orbit_product(counts, order, lambda m, d: geometric_block_power(m, bound, d, order))
    _expect_series(out["series"], want, "symmetric")
    require(out["bound"] == ("inf" if bound is None else bound), "symmetric: bound echoed wrongly")


def _subset_ratio(spec, order):
    """Z(q^2) / Z(q) = prod_m (1 + q^m)^{D_m}."""
    counts = _counts_from_spec(spec, order)
    return orbit_product(counts, order, lambda m, d: geometric_block_power(m, 1, d, order))


def check_borsuk_ulam(spec, out):
    order = spec["N"]
    ratio = _subset_ratio(spec, order)
    ratio[0] -= 1
    want = [sum(ratio[: k + 1]) for k in range(order + 1)]
    _expect_series(out["series"], want, "borsuk-ulam")


def check_config_trace(spec, out):
    order, eps = spec["N"], spec["epsilon"]
    if spec["parity"] == "odd":
        want = _zeta_for(spec, order)
    elif "eigen" in spec:
        zeta = eigen_zeta(spec["eigen"], order)
        sub = [0] * (order + 1)
        for k in range(order // 2 + 1):
            sub[2 * k] = zeta[k]
        want = series_mul(sub, series_inverse(zeta, order), order)
    else:
        want = _subset_ratio(spec, order)
    _expect_series(out["series"], want, "config-trace")
    traces = [Fraction(t) for t in out["lefschetz_traces"]]
    require(traces == [want[k] * eps ** k for k in range(order + 1)], "config-trace: traces")


def egf_power(count, bound, order):
    base = [Fraction(1, factorial(j)) if j <= bound else Fraction(0) for j in range(order + 1)]
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(abs(count)):
        out = series_mul(out, base, order)
    if count < 0:
        inv = [Fraction(1)] + [Fraction(0)] * order
        for n in range(1, order + 1):
            inv[n] = -sum(out[i] * inv[n - i] for i in range(1, n + 1))
        out = inv
    return out


def bounded_word_counts(letters, bound, order):
    """Words of length k over `letters` symbols, each used <= bound times."""
    ways = [1] + [0] * order
    for _ in range(letters):
        nxt = [0] * (order + 1)
        for k, w in enumerate(ways):
            if w:
                for j in range(min(bound, order - k) + 1):
                    nxt[k + j] += w * comb(k + j, j)
        ways = nxt
    return ways


def check_tuples(spec, out):
    order, count, bound = spec["N"], spec["L"], spec["bound"]
    egf = egf_power(count, bound, order)
    _expect_series(out["egf"], egf, "tuples egf")
    counts = [Fraction(c) for c in out["counts"]]
    require(counts == [egf[k] * factorial(k) for k in range(order + 1)], "tuples: counts")
    if count >= 0:
        require(counts == bounded_word_counts(count, bound, order), "tuples: word counts")


def check_dold(spec, out):
    order, mapping = spec["N"], spec["map"]
    counts = profile_of(mapping, order)
    require(out["profile"]["values"] == [counts.get(m, 0) for m in range(1, order + 1)],
            "dold: orbit profile")
    require(out["lefschetz"]["values"] == fixed_counts_of_iterates(mapping, order),
            "dold: Lefschetz numbers")
    _expect_series(out["zeta"], zeta_from_profile(counts, order), "dold zeta")


def check_graded(spec, out):
    order, eigen = spec["N"], spec["eigen"]
    zeta = eigen_zeta(eigen, order)
    _expect_series(out["zeta"], zeta, "graded zeta")
    want_l = [
        sum((1 if int(d) % 2 == 0 else -1) * sum(a ** k for a in vals) for d, vals in eigen.items())
        for k in range(1, order + 1)
    ]
    require([Fraction(v) for v in out["lefschetz"]] == want_l, "graded: Lefschetz numbers")
    # characteristic function: numerator / denominator expands to 1 / Z
    num = [Fraction(c) for c in out["characteristic"]["numerator"]]
    den = [Fraction(c) for c in out["characteristic"]["denominator"]]
    num = (num + [0] * (order + 1))[: order + 1]
    den = (den + [0] * (order + 1))[: order + 1]
    require(series_mul(num, zeta, order) == den, "graded: characteristic function")
    # bivariate series: prod_j prod_i (1 - a_i q T^j)^{-(-1)^j}, one T-poly per q^k
    bivariate = {(0, 0): 1}
    for d, vals in eigen.items():
        d = int(d)
        sign = -1 if d % 2 == 0 else 1
        for a in vals:
            factor = {}
            for j in range(order + 1):
                c = comb(sign, j) if sign >= 0 else (-1) ** j * comb(-sign + j - 1, j)
                if c:
                    factor[(j, d * j)] = c * (-a) ** j
            nxt = {}
            for (k1, t1), c1 in bivariate.items():
                for (k2, t2), c2 in factor.items():
                    if k1 + k2 <= order:
                        key = (k1 + k2, t1 + t2)
                        nxt[key] = nxt.get(key, 0) + c1 * c2
            bivariate = {key: c for key, c in nxt.items() if c}
    got = out["poincare"]
    require(int(got["order"]) == order, "graded: bivariate order")
    for k, coeffs in enumerate(got["coeffs"]):
        vals = [Fraction(c) for c in coeffs]
        top = max([t for (kk, t) in bivariate if kk == k], default=-1)
        want = [bivariate.get((k, t), 0) for t in range(top + 1)]
        require(vals == want, f"graded: bivariate coefficient of q^{k}")


def check_group_poly(spec, out):
    """gsymm and partition: the value at the map by a Burnside count, and for
    symmetric groups with a block bound the whole polynomial on the grid."""
    mapping = spec["map"]
    elements = group_elements(spec["group"])
    action = elements
    coefficient = spec.get("coefficient")
    weights = [coefficient ** len(perm_cycles(g)) if coefficient is not None else 1
               for g in action]
    nvars, terms = poly_from_json(out["polynomial"])
    k = spec["group"]["degree"]
    require(int(out["polynomial"]["degree_bound"]) == k, "polynomial degree bound")
    family = spec.get("family")
    if family is None:
        check_poly_on_grid(terms, k, lambda c: burnside_in_t(action, weights, c))
        want = burnside_in_t(action, weights, profile_of(mapping))
    else:
        want = burnside_family_count(mapping, elements, action, family, coefficient)
        if spec.get("symmetric"):
            bound = family.get("max_block")
            if bound is not None and bound >= k:
                bound = None
            if coefficient is None or bound in (None, 1):
                check_poly_on_grid(
                    terms, k, lambda c: bounded_power_count(c, k, bound, coefficient)
                )
    require(Fraction(out["value"]) == want, f"value {out['value']} != Burnside count {want}")


def check_verify(spec, out):
    require(out.get("pass") is True, f"verify plan reported {out.get('first_mismatch')}")
    identity = spec["identity"]
    plan = spec["plan"]
    if identity in ("md", "main", "prod", "sub"):
        mapping = plan["map"]["map"]
        k_max = int(plan.get("k_max", 6))
        counts = profile_of(mapping, k_max)
        if identity in ("md", "main"):
            bound = None if identity == "md" else plan["l"]
            want = orbit_product(counts, k_max,
                                 lambda m, d: geometric_block_power(m, bound, d, k_max))
            require(out["counts"] == want, f"{identity}: oracle counts {out['counts']} != {want}")
            _expect_series(out["series"], want, identity)
        elif identity == "prod":
            ratio = orbit_product(counts, k_max, lambda m, d: geometric_block_power(m, 1, d, k_max))
            want = [0] + [sum(ratio[1: k + 1]) for k in range(1, k_max + 1)]
            require(out["counts"] == want, f"prod: counts {out['counts']} != {want}")
        else:
            fixed = sum(1 for x in range(len(mapping)) if mapping[x] == x)
            want = bounded_word_counts(fixed, plan["l"], k_max)
            require(out["counts"] == want, f"sub: counts {out['counts']} != {want}")
    elif identity in ("gsymm", "partition"):
        mapping = plan["map"]["map"]
        elements = group_elements(plan["group"])
        coefficient = plan.get("coefficient_size")
        if identity == "gsymm":
            want = burnside_in_t(elements, [1] * len(elements), profile_of(mapping))
        else:
            want = burnside_family_count(mapping, elements, elements, plan["family"], coefficient)
        require(out["oracle"] == want, f"{identity}: oracle {out['oracle']} != {want}")
        require(Fraction(out["value"]) == want, f"{identity}: value {out['value']} != {want}")
    elif identity == "coeffic":
        profile = {m + 1: v for m, v in enumerate(plan["profile"]["values"]) if v}
        order, euler = int(plan["N"]), int(plan["euler"])
        if plan.get("l") == 1:
            want = orbit_product(
                profile, order,
                lambda m, d: series_mul_power([1] + [0] * (m - 1) + [euler], d, order))
        else:  # unbounded, or a bound >= -euler with euler <= 0: Z^{-euler}
            want = orbit_product(profile, order, lambda m, d: binomial_power(-euler * d, m, order))
        require(out["polynomial_side"] == want, f"coeffic: {out['polynomial_side']} != {want}")
    elif identity == "config-trace":
        order = int(plan["k_max"])
        sub_spec = {"N": order, "eigen": spec["eigen"], "parity": plan["parity"],
                    "epsilon": plan["epsilon"]}
        check_config_trace(sub_spec, out)
    else:
        raise CheckError(f"no check for identity {identity!r}")


def check_selftest(spec, out_text):
    lines = out_text.strip().splitlines()
    require(len(lines) == spec["plans"], f"selftest printed {len(lines)} lines")
    require(all(line.startswith("PASS  ") for line in lines), "selftest reported a FAIL")


CLI_CHECKS = {
    "zeta": check_zeta,
    "symmetric": check_symmetric,
    "borsuk-ulam": check_borsuk_ulam,
    "config-trace": check_config_trace,
    "tuples": check_tuples,
    "dold": check_dold,
    "graded": check_graded,
    "gsymm": check_group_poly,
    "partition": check_group_poly,
    "verify": check_verify,
}


# ---------------------------------------------------------------------------
# library-call checks (functor-calculus)


def check_bounded_power(spec, out):
    k, bound = spec["k"], spec["bound"]
    nvars, terms = poly_from_json(out)
    require(out["degree_bound"] == k, "bounded power: degree bound")
    check_poly_on_grid(terms, k, lambda c: bounded_power_count(c, k, bound))


def check_evaluate(spec, out):
    want = bounded_power_count(profile_of(spec["map"]), spec["k"], spec["bound"])
    require(Fraction(out) == want, f"evaluate: {out} != brute-force count {want}")


def check_dold_polynomial(spec, out):
    nvars, terms = poly_from_json(out)
    for mapping in spec["maps"]:
        counts = profile_of(mapping)
        point = [counts.get(i, 0) for i in range(1, nvars + 1)]
        want = orbit_count_brute(mapping, spec["k"], spec["bound"], spec["m"])
        got = poly_eval(terms, point)
        require(got == want, f"orbit-count polynomial {got} != brute force {want}")


def check_expression(spec, out):
    nvars, terms = poly_from_json(out)
    for mapping in spec["maps"]:
        counts = profile_of(mapping)
        point = [counts.get(i, 0) for i in range(1, nvars + 1)]
        want = expression_value(spec["expr"], mapping)
        got = poly_eval(terms, point)
        require(got == want, f"functor polynomial {got} != brute force {want}")


def check_realize(spec, out):
    r, expr = out
    require(isinstance(r, int) and r >= 1, "realization factor must be a positive integer")
    terms = {tuple(e): Fraction(c) for e, c in spec["target"]}
    for mapping in spec["maps"]:
        counts = profile_of(mapping)
        point = [counts.get(i, 0) for i in range(1, spec["k"] + 1)]
        want = r * poly_eval(terms, point)
        got = expression_value(expr, mapping)
        require(got == want, f"realized functor counts {got}, expected {want}")


def check_lattice(spec, out):
    terms = {tuple(e): Fraction(c) for e, c in spec["poly"]}
    want = lattice_integral(terms, spec["nvars"], spec["box"])
    require(out is want, f"lattice check returned {out}, integer evaluation gives {want}")


LIB_CHECKS = {
    "bounded_power_polynomial": check_bounded_power,
    "evaluate": check_evaluate,
    "dold_polynomial_of_functor": check_dold_polynomial,
    "compose_lefschetz": check_expression,
    "expression_polynomial": check_expression,
    "realize_polynomial": check_realize,
    "integer_lattice_check": check_lattice,
}


def check_op(op, result):
    """Raise CheckError unless the op's output matches the independent value."""
    if op["kind"] == "cli":
        command = op["argv"][0]
        require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'][:200]}")
        if command == "selftest":
            check_selftest(op["check"], result["stdout"])
            return
        CLI_CHECKS[command](op["check"], json.loads(result["stdout"]))
    else:
        LIB_CHECKS[op["fn"]](op["check"], result["value"])
