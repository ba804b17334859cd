"""The shared product kernel, monic fold and power routine against the loops
they replaced, and the symmetric-power polynomials against the orbit products
they replaced.

Each reference below is the hand-written loop that one caller used before
every truncated product went through `series._convolve_into` and every power
through `series._power`; `fold_reference.reference_fold_monic` is the monic
fold before it skipped the entries that reach no term.  `reference_symmetric_power_polys` multiplies out
one orbit factor per period, as `identities.symmetric_power_polys` did before
it ran the recurrence of the Lefschetz form.  The tests require exact
equality on seeded random inputs: mixed orders, zero and all-zero
coefficient lists, Fraction and negative coefficients, orders up to 64,
MultiPoly series up to k = 6 and symmetric-power polynomials up to k = 9.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from doldzeta import MultiPoly, Poly, PowerSeries
from doldzeta.identities import falling_factorial, symmetric_power_polys
from doldzeta.series import _convolve_into, _fold_monic

from conftest import disjoint_union_combine
from fold_reference import reference_fold_monic


# ---------------------------------------------------------------------------
# the replaced loops


def reference_series_product(a, b):
    """The dense double loop of the old PowerSeries.__mul__."""
    order = min(a.order, b.order)
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a.coeffs[: order + 1]):
        if x == 0:
            continue
        for j in range(order + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return PowerSeries(out, order=order)


def reference_poly_product(a, b):
    """The dense double loop of the old Poly.__mul__."""
    if a.is_zero or b.is_zero:
        return Poly.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            if y != 0:
                out[i + j] += x * y
    return Poly(out)


def reference_convolve_poly_series(a, b, order, nvars):
    """The old identities._convolve_poly_series over MultiPoly coefficients."""
    out = [MultiPoly.zero(nvars) for _ in range(order + 1)]
    for i, pa in enumerate(a):
        if pa.is_zero:
            continue
        for j in range(order + 1 - i):
            pb = b[j]
            if not pb.is_zero:
                out[i + j] = out[i + j] + pa * pb
    return out


def falling_binomial(var, j, nvars):
    """C(t_var, j) = t(t-1)...(t-j+1)/j!, built from scratch for each j."""
    poly = MultiPoly.constant(1, nvars)
    t = MultiPoly.variable(var, nvars)
    for i in range(j):
        poly = poly * (t - MultiPoly.constant(i, nvars))
    return poly / factorial(j)


def rising_binomial(var, j, nvars):
    """C(t_var + j - 1, j) = t(t+1)...(t+j-1)/j!, built from scratch."""
    poly = MultiPoly.constant(1, nvars)
    t = MultiPoly.variable(var, nvars)
    for i in range(j):
        poly = poly * (t + MultiPoly.constant(i, nvars))
    return poly / factorial(j)


def reference_orbit_factor_polys(m, bound, nvars, order):
    """q-coefficients of (1 + q^m + ... + q^{lm}) ** t_m, or of
    (1 - q^m)^{-t_m} when the bound is None, as polynomials in t_m: the
    orbit factor of the old product, with its inline power loop."""
    out = [MultiPoly.zero(nvars) for _ in range(order + 1)]
    out[0] = MultiPoly.constant(1, nvars)
    if bound is None:
        for j in range(1, order // m + 1):
            out[m * j] = rising_binomial(m, j, nvars)
        return out
    base = [Fraction(0)] * (order + 1)
    for i in range(1, bound + 1):
        if m * i <= order:
            base[m * i] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * order
    j = 0
    while True:
        j += 1
        nxt = [Fraction(0)] * (order + 1)
        for a, ca in enumerate(power):
            if ca == 0:
                continue
            for b in range(m, order + 1 - a):
                if base[b]:
                    nxt[a + b] += ca * base[b]
        power = nxt
        if not any(power):
            break
        binom = falling_binomial(m, j, nvars)
        for idx, c in enumerate(power):
            if c:
                out[idx] = out[idx] + c * binom
    return out


def reference_symmetric_power_polys(bound, order):
    nvars = order
    result = [MultiPoly.constant(1, nvars)] + [MultiPoly.zero(nvars) for _ in range(order)]
    for m in range(1, order + 1):
        factor = reference_orbit_factor_polys(m, bound, nvars, order)
        result = reference_convolve_poly_series(result, factor, order, nvars)
    return result


def reference_disjoint_union_combine(block_count_lists):
    """The old dict convolution of block-count vectors."""
    combined = {0: 1}
    for counts in block_count_lists:
        nxt = {}
        for r0, c0 in combined.items():
            for r, n_r in enumerate(counts, start=1):
                if n_r:
                    nxt[r0 + r] = nxt.get(r0 + r, 0) + c0 * n_r
        combined = nxt
    result = Poly.zero()
    for r, n_r in combined.items():
        if n_r and r >= 1:
            result = result + n_r * falling_factorial(r)
    return result


def reference_power(base, e, one):
    """The square-and-multiply loop each of the three __pow__ methods had."""
    result = one
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# random inputs


def random_coeffs(rng, length):
    """Fraction coefficients of both signs; some lists sparse, some all zero."""
    kind = rng.random()
    if kind < 0.1:
        return [0] * length
    density = 1.0 if kind < 0.4 else rng.random()
    return [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < density else 0
        for _ in range(length)
    ]


def random_series(rng, order):
    return PowerSeries(random_coeffs(rng, order + 1), order=order)


def random_multipoly(rng, nvars, zero_rate=0.3):
    if rng.random() < zero_rate:
        return MultiPoly.zero(nvars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(nvars, terms)


# ---------------------------------------------------------------------------
# the tests


class TestProducts:
    def test_series_product(self):
        rng = random.Random(31)
        orders = [rng.randint(0, 20) for _ in range(60)] + [48, 63, 64, 64]
        for order in orders:
            a = random_series(rng, order)
            b = random_series(rng, rng.randint(max(0, order - 3), order + 3))
            for x, y in ((a, b), (b, a), (a, a)):
                got = x * y
                want = reference_series_product(x, y)
                assert got.order == want.order
                assert got.coeffs == want.coeffs

    def test_series_product_of_zero_lists(self):
        for order in (0, 1, 5, 64):
            zero = PowerSeries([], order=order)
            one = PowerSeries.one(order + 2)
            assert (zero * one).coeffs == reference_series_product(zero, one).coeffs
            assert (one * zero).order == order

    def test_poly_product(self):
        rng = random.Random(32)
        for _ in range(150):
            a = Poly(random_coeffs(rng, rng.randint(0, 20)))
            b = Poly(random_coeffs(rng, rng.randint(0, 20)))
            assert a * b == reference_poly_product(a, b)
            assert b * a == reference_poly_product(b, a)

    def test_multipoly_series(self):
        rng = random.Random(33)
        for _ in range(40):
            order = rng.randint(0, 6)
            nvars = rng.randint(1, 6)
            a = [random_multipoly(rng, nvars) for _ in range(order + 1 + rng.randint(0, 2))]
            b = [random_multipoly(rng, nvars) for _ in range(order + 1)]
            zero = MultiPoly.zero(nvars)
            terms_a = [(k, p) for k, p in enumerate(a) if not p.is_zero]
            terms_b = [(k, p) for k, p in enumerate(b) if not p.is_zero]
            got = _convolve_into([zero] * (order + 1), terms_a, terms_b)
            assert got == reference_convolve_poly_series(a, b, order, nvars)

    def test_kernel_truncates_at_the_output_length(self):
        out = _convolve_into([0] * 3, [(0, 1), (1, 2), (5, 7)], [(0, 3), (2, 4)])
        assert out == [3, 6, 4]
        assert _convolve_into([0, 0], [], [(0, 1)]) == [0, 0]


class TestSymmetricPowerPolys:
    @pytest.mark.parametrize("bound", [None, 0, 1, 2, 3])
    def test_products_up_to_six(self, bound):
        for order in range(1, 10):
            got = symmetric_power_polys(bound, order)
            assert got == reference_symmetric_power_polys(bound, order)


class TestDisjointUnionCombine:
    def test_random_block_counts(self):
        rng = random.Random(34)
        for _ in range(80):
            lists = [
                [rng.choice((0, 0, 1, 2, 5, -3)) for _ in range(rng.randint(0, 5))]
                for _ in range(rng.randint(0, 4))
            ]
            assert disjoint_union_combine(lists) == reference_disjoint_union_combine(lists)

    def test_edge_cases(self):
        for lists in ([], [[]], [[0, 0]], [[1]], [[0, 1], []]):
            assert disjoint_union_combine(lists) == reference_disjoint_union_combine(lists)


class TestPower:
    def test_series_powers(self):
        rng = random.Random(35)
        for order in (0, 1, 3, 12, 40, 64):
            s = random_series(rng, order)
            for e in (0, 1, 2, 3, 5, 8, 13):
                assert (s ** e).coeffs == reference_power(s, e, PowerSeries.one(order)).coeffs

    def test_negative_series_power_inverts(self):
        s = PowerSeries([1, Fraction(-3, 2), 2, 0, -1], order=4)
        assert (s ** -3).coeffs == reference_power(s, 3, PowerSeries.one(4)).inverse().coeffs

    def test_poly_powers(self):
        rng = random.Random(36)
        for _ in range(30):
            p = Poly(random_coeffs(rng, rng.randint(0, 6)))
            for e in (0, 1, 2, 3, 6, 9):
                assert p ** e == reference_power(p, e, Poly.one())

    def test_multipoly_powers(self):
        rng = random.Random(37)
        for _ in range(30):
            nvars = rng.randint(0, 6)
            p = random_multipoly(rng, nvars, zero_rate=0.1) if nvars else MultiPoly.constant(
                Fraction(rng.randint(-3, 3), 2), 0
            )
            for e in (0, 1, 2, 3, 5):
                assert p ** e == reference_power(p, e, MultiPoly.constant(1, nvars))


def random_fold_input(rng, size, first):
    """An integer list of `size` entries, about a third of them zero, and a
    factor of sparse terms (s, c_s) in index order whose first shift is
    `first`."""
    out = [rng.randint(-9, 9) if rng.random() < 0.65 else 0 for _ in range(size)]
    shifts = sorted({first, *(rng.randint(first, first + size) for _ in range(rng.randint(0, 4)))})
    return out, [(s, rng.choice((-3, -2, -1, 1, 2, 5))) for s in shifts]


class TestFoldMonic:
    """The fold against the loop that visits every entry, both directions."""

    @pytest.mark.parametrize("divide", [False, True])
    def test_random_lists(self, divide):
        rng = random.Random(41 + divide)
        for _ in range(200):
            size = rng.randint(1, 40)
            out, factor = random_fold_input(rng, size, rng.randint(1, size + 2))
            want = reference_fold_monic(list(out), factor, divide)
            assert _fold_monic(out, factor, divide) is out
            assert out == want

    @pytest.mark.parametrize("divide", [False, True])
    def test_empty_factor(self, divide):
        rng = random.Random(43 + divide)
        for size in range(1, 12):
            out = random_fold_input(rng, size, 1)[0]
            want = reference_fold_monic(list(out), [], divide)
            assert _fold_monic(out, [], divide) is out
            assert out == want

    @pytest.mark.parametrize("divide", [False, True])
    def test_first_shift_at_or_past_the_length(self, divide):
        rng = random.Random(45 + divide)
        for size in range(1, 12):
            for first in (size, size + 1, 2 * size + 3):
                out, factor = random_fold_input(rng, size, first)
                before = list(out)
                assert _fold_monic(out, factor, divide) == before
                assert reference_fold_monic(before, factor, divide) == out

    @pytest.mark.parametrize("divide", [False, True])
    def test_length_one(self, divide):
        rng = random.Random(47 + divide)
        for x in (0, 1, -7):
            for first in (1, 2):
                factor = random_fold_input(rng, 1, first)[1]
                assert _fold_monic([x], factor, divide) == reference_fold_monic([x], factor, divide)
