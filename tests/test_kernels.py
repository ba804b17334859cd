"""The shared product kernel and power routine against the loops they replaced.

Each reference below is the hand-written loop that one caller used before
every truncated product went through `series._convolve_into` and every power
through `series._power`.  The tests require exact equality on seeded random
inputs: mixed orders, zero and all-zero coefficient lists, Fraction and
negative coefficients, orders up to 64, and MultiPoly series up to k = 6.
"""

import random
from fractions import Fraction

import pytest

from doldzeta import MultiPoly, Poly, PowerSeries
from doldzeta.identities import (
    _orbit_factor_polys,
    disjoint_union_combine,
    falling_binomial,
    falling_factorial,
    rising_binomial,
    symmetric_power_polys,
)
from doldzeta.series import _convolve_into, _terms


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


def reference_orbit_factor_polys(m, bound, nvars, order):
    """The old _orbit_factor_polys, with its inline power loop."""
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


def _nonzero_poly(p):
    return not p.is_zero


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
            zero = PowerSeries.zero(order)
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
            got = _convolve_into(
                [zero] * (order + 1), _terms(a, _nonzero_poly), _terms(b, _nonzero_poly)
            )
            assert got == reference_convolve_poly_series(a, b, order, nvars)

    def test_kernel_truncates_at_the_output_length(self):
        out = _convolve_into([0] * 3, [(0, 1), (1, 2), (5, 7)], [(0, 3), (2, 4)])
        assert out == [3, 6, 4]
        assert _convolve_into([0, 0], [], [(0, 1)]) == [0, 0]


class TestSymmetricPowerPolys:
    @pytest.mark.parametrize("bound", [None, 0, 1, 2, 3])
    def test_orbit_factors(self, bound):
        for order in range(1, 7):
            for m in range(1, order + 1):
                got = _orbit_factor_polys(m, bound, order, order)
                assert got == reference_orbit_factor_polys(m, bound, order, order)

    @pytest.mark.parametrize("bound", [None, 0, 1, 2, 3])
    def test_products_up_to_six(self, bound):
        for order in range(1, 7):
            got = symmetric_power_polys(bound, order)
            assert got == reference_symmetric_power_polys(bound, order)

    def test_orbit_factors_at_larger_orders(self):
        for m, bound, order in ((1, 1, 24), (2, 3, 64), (3, 2, 64), (7, 5, 64), (64, 1, 64)):
            got = _orbit_factor_polys(m, bound, m, order)
            assert got == reference_orbit_factor_polys(m, bound, m, order)


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
