"""The functor-calculus kernels on integer numerators against the slow paths
they replaced (`functor_calculus_reference`), on seeded random inputs:
`MultiPoly.substitute` summing every term into one numerator dict over a
planned denominator, `symmetric_power_polys` running the Newton recurrence
on the integer numerators of n! g_n, `iterate_profile_images` built as
numerator dicts, and `integer_lattice_check` walking the box as prefix
points times a table of suffix rows, over only the values of each variable
that decide its verdict."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from doldzeta import MultiPoly, PermutationGroup, identities
from doldzeta.identities import (
    integer_lattice_check,
    iterate_profile_images,
    symmetric_power_polys,
)
from doldzeta.oracles import EnumerationLimitError
from doldzeta.partitions import perm_cycle_count, perm_cycle_type

import functor_calculus_reference as reference

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 12)


def random_poly(rng, nvars, terms=4, top=3):
    """A random polynomial, zero about one time in eight."""
    if rng.random() < 0.125:
        return MultiPoly.zero(nvars)
    return MultiPoly(nvars, {
        tuple(rng.randint(0, top) for _ in range(nvars)):
            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        for _ in range(rng.randint(1, terms))
    })


def assert_same(got, want):
    assert got == want
    assert (got.nvars, got.den, got.nums) == (want.nvars, want.den, want.nums)


# ---------------------------------------------------------------------------
# substitution


def test_substitution_matches_the_per_term_reference():
    rng = random.Random(3201)
    seen = set()
    for _ in range(400):
        nvars, target = rng.randint(0, 4), rng.randint(0, 3)
        poly = random_poly(rng, nvars)
        images = [random_poly(rng, target, terms=3, top=2) for _ in range(nvars)]
        got = poly.substitute(images)
        assert_same(got, reference.substitute(poly, images))
        dens = {img.den for img in images if not img.is_zero}
        seen.add(("mixed denominators", len(dens) > 1))
        seen.add(("zero image", any(img.is_zero for img in images)))
        seen.add(("zero polynomial", poly.is_zero))
        seen.add(("no variables", nvars == 0))
    assert all((name, True) in seen for name, _ in seen)


def test_substitution_of_images_with_coprime_denominators():
    # (t1/2 + 1/3)^3 (t2/5)^2: every cofactor d_i^(T_i - e_i) is needed
    t1, t2 = MultiPoly.variable(1, 2), MultiPoly.variable(2, 2)
    poly = MultiPoly(2, {(3, 2): 7, (1, 0): Fraction(1, 7), (0, 1): -1, (0, 0): 2})
    images = [t1 / 2 + Fraction(1, 3), t2 / 5]
    want = reference.substitute(poly, images)
    assert_same(poly.substitute(images), want)
    assert want == 7 * images[0] ** 3 * images[1] ** 2 + images[0] / 7 - images[1] + 2


def test_substitution_refusals_are_kept():
    poly = MultiPoly(2, {(1, 1): 1})
    with pytest.raises(ValueError, match="need 2 substitution images"):
        poly.substitute([MultiPoly.zero(1)])
    with pytest.raises(ValueError, match="different variable spaces"):
        poly.substitute([MultiPoly.zero(1), MultiPoly.zero(2)])


# ---------------------------------------------------------------------------
# symmetric powers and iterate images


@pytest.mark.parametrize("bound", [None, 0, 1, 2, 3])
def test_symmetric_power_polys_match_the_multipoly_recurrence(bound):
    for order in range(8):
        got = symmetric_power_polys(bound, order)
        want = reference.symmetric_power_polys(bound, order)
        assert len(got) == len(want) == order + 1
        for g, w in zip(got, want):
            assert_same(g, w)


def test_iterate_images_are_the_sums_of_variables():
    for d in range(1, 7):
        for source in range(0, 5):
            target = source * d + d % 3
            want = [MultiPoly.zero(target) for _ in range(source)]
            for n in range(1, source * d + 1):
                g = gcd(n, d)
                if n // g <= source:
                    want[n // g - 1] = want[n // g - 1] + g * MultiPoly.variable(n, target)
            got = iterate_profile_images(d, source, target)
            assert len(got) == source
            for image, w in zip(got, want):
                assert_same(image, w)


# ---------------------------------------------------------------------------
# the lattice walk


def vanishing_off(point, box, m):
    """(1/m) prod_i prod_{j in [-box, box], j != point[i]} (t_i - j): zero at
    every other point of the box, and V/m at `point`."""
    n = len(point)
    p = MultiPoly.constant(Fraction(1, m), n)
    for i, a in enumerate(point):
        for j in range(-box, box + 1):
            if j != a:
                p = p * (MultiPoly.variable(i + 1, n) - j)
    value = prod(a - j for a in point for j in range(-box, box + 1) if j != a)
    return p, value


def next_prime_not_dividing(value, start):
    m = start
    while any(m % q == 0 for q in range(2, int(m ** 0.5) + 1)) or value % m == 0:
        m += 1
    return m


def boxes():
    """(n, box) with n = 0..5, odd and even, and at most 625 points."""
    return [(n, box) for n in range(6) for box in range(3) if (2 * box + 1) ** n <= 625]


def test_random_polynomials_get_the_reference_verdict():
    rng = random.Random(3202)
    verdicts = set()
    for _ in range(300):
        n, box = rng.choice(boxes())
        poly = random_poly(rng, n, terms=5)
        if n and rng.random() < 0.5:  # integer-valued, over the denominator 2
            t1 = MultiPoly.variable(1, n)
            poly = poly * poly.den + (t1 * t1 - t1) / 2
        want = reference.integer_lattice_check(poly, box)
        assert integer_lattice_check(poly, box) == want
        verdicts.add((n % 2, box == 0, want))
    assert {(odd, False, v) for odd in (0, 1) for v in (True, False)} <= verdicts
    assert (0, True, False) in verdicts and (1, True, False) in verdicts


def test_a_single_failing_point_is_found_anywhere_in_the_box():
    rng = random.Random(3203)
    for n, box in boxes():
        last = (box,) * n
        corners = [last, (-box,) * n] + [
            tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(3)
        ]
        for point in corners:
            _, value = vanishing_off(point, box, 1)
            failing, _ = vanishing_off(point, box, next_prime_not_dividing(value, 2))
            assert integer_lattice_check(failing, box) is False
            assert [p for p, ok in reference.lattice_points(failing, box) if not ok] == [point]
            if abs(value) > 1:  # value/|value| is an integer at every point of the box
                passing, _ = vanishing_off(point, box, abs(value))
                assert integer_lattice_check(passing, box) is True
                assert reference.integer_lattice_check(passing, box) is True


def record_walks(monkeypatch):
    """The ranges of each product the walk takes, one tuple per call."""
    calls = []
    walk = identities.iter_product

    def recorded(*ranges):
        calls.append(ranges)
        return walk(*ranges)

    monkeypatch.setattr(identities, "iter_product", recorded)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_table_holds_the_suffix_points_only(monkeypatch, n):
    # the walk takes the suffix points (the table) and the prefix points
    # from two products, the table's over the last n // 2 variables, each
    # variable over the first min(2 box, e_i) + 1 values from -box
    calls = record_walks(monkeypatch)
    degrees = (3, 2, 4, 2, 3, 5)[:n]  # each at least the 2 of the (2,) * n term
    poly = MultiPoly(n, {(1,) * n: Fraction(1, 2), (2,) * n: Fraction(1, 2)})
    for i, e in enumerate(degrees):
        poly = poly + MultiPoly.variable(i + 1, n) ** e
    assert integer_lattice_check(poly, box=2)
    ranges = tuple(range(-2, -2 + min(4, e) + 1) for e in degrees)
    assert calls == [ranges[n - n // 2:], ranges[:n - n // 2]]


def cycle_index(degree, generators, weight):
    """(1/|G|) sum_g weight^cycles(g) prod_{cycles c} (sum_{m | |c|} m t_m),
    the benchmark's lattice polynomials."""
    elements = PermutationGroup.from_generators(degree, generators).elements
    total = MultiPoly.zero(degree)
    for g in elements:
        term = MultiPoly.constant(weight ** perm_cycle_count(g), degree)
        for length, count in perm_cycle_type(g).items():
            linear = sum((m * MultiPoly.variable(m, degree)
                          for m in range(1, length + 1) if length % m == 0),
                         MultiPoly.zero(degree))
            term = term * linear ** count
        total = total + term
    return total / len(elements)


@pytest.mark.parametrize("weight", [2, 3])
@pytest.mark.parametrize("degree, generators, box, rows, prefix", [
    pytest.param(4, [(1, 2, 3, 0), (1, 0, 2, 3)], 3, 4, 15, id="S4-box3"),  # degrees 4, 2, 1, 1
    pytest.param(4, [(1, 2, 3, 0), (0, 3, 2, 1)], 3, 2, 15, id="D4-box3"),  # degrees 4, 2, 0, 1
    pytest.param(5, [(1, 2, 3, 4, 0)], 2, 2, 5, id="C5-box2"),  # degrees 5, 0, 0, 0, 1
])
def test_the_walk_visits_only_the_values_that_decide(monkeypatch, weight, degree, generators,
                                                      box, rows, prefix):
    calls = record_walks(monkeypatch)
    poly = cycle_index(degree, generators, weight)
    assert poly.den > 1
    assert integer_lattice_check(poly, box) is True
    assert [prod(map(len, ranges)) for ranges in calls] == [rows, prefix]


def binomial(i, n, k, shift=0):
    """C(t_i + shift, k) in n variables, t_i 0-based."""
    t = MultiPoly.variable(i + 1, n) + shift
    p = MultiPoly.constant(1, n)
    for j in range(k):
        p = p * (t - j) / (j + 1)
    return p


def test_the_walked_values_decide_as_the_whole_box_does():
    # degrees below 2 box, so the walk leaves values of every variable out
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(400):
        n, box = rng.choice(boxes())
        caps = [rng.randint(0, max(2 * box - 1, 0)) if rng.random() < 0.75 else 0
                for _ in range(n)]
        poly = MultiPoly(n, {
            tuple(rng.randint(0, c) for c in caps):
                Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            for _ in range(rng.randint(1, 5))
        })
        if n and rng.random() < 0.5:  # integer-valued, over k!
            i = rng.randrange(n)
            poly = poly * poly.den + rng.randint(1, 5) * binomial(i, n, caps[i], rng.randint(-2, 2))
        want = reference.integer_lattice_check(poly, box)
        assert integer_lattice_check(poly, box) == want, (poly, box)
        verdicts.add((n == 0, box == 0, want))
    assert {(False, b, v) for b in (False, True) for v in (False, True)} <= verdicts
    assert (True, False, False) in verdicts and (True, True, True) in verdicts


def test_the_last_walked_value_of_each_variable_decides():
    # C(t_i + box, e)/q is 0 at the first e values of t_i and 1/q at the
    # next one, the last the walk takes; terms in the other variables are
    # integer-valued and give them other degrees
    rng = random.Random(4243)
    for _ in range(300):
        n, box = rng.choice([(n, box) for n, box in boxes() if n and box])
        i = rng.randrange(n)
        e = rng.randint(1, 2 * box)
        q = rng.choice((2, 3, 5, 7))
        poly = binomial(i, n, e, box) / q
        for j in range(n):
            if j != i:
                poly = poly + rng.randint(-3, 3) * binomial(j, n, rng.randint(0, 2 * box),
                                                            rng.randint(-2, 2))
        assert reference.integer_lattice_check(poly, box) is False
        assert integer_lattice_check(poly, box) is False, (poly, box)
        failing = [p for p, ok in reference.lattice_points(poly, box) if not ok]
        assert min(p[i] for p in failing) == -box + e
        assert integer_lattice_check(poly * q, box) is True


def test_the_guard_refuses_before_the_table_is_built(monkeypatch):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "100")
    built = []
    monkeypatch.setattr(identities, "iter_product", lambda *a, **k: built.append(k) or iter(()))
    with pytest.raises(EnumerationLimitError) as refused:
        integer_lattice_check(MultiPoly(4, {(1, 0, 0, 1): Fraction(1, 3)}), box=2)
    assert (refused.value.size, refused.value.limit, built) == (625, 100, [])
