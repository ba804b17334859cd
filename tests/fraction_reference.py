"""The series and graded kernels as they ran over `Fraction`s before they
moved to integer numerators over one common denominator, kept as the slow
references they are tested against.

Every coefficient here is a Fraction and every step divides as it goes:
`reference_inverse` is the division loop b_n = -a_0^{-1} sum_{i>=1} a_i b_{n-i}
that `PowerSeries.inverse` ran, `reference_product` the double loop over
q-indices, `reference_det_one_minus_t` the Bareiss elimination over `Poly`
entries with row swaps and polynomial long division that `det_one_minus_t`
ran, `reference_graded_zeta` the product of its determinant series
det(1 - q A_j), each inverted in odd degrees, and `reference_traces` the
alternating traces of the rational matrix powers, each power built from the
identity.

`ReferencePoly` is the multivariate polynomial as `MultiPoly` ran it before
it stored one denominator and integer numerators: a dict of Fraction
coefficients, each operation working term by term in Fraction arithmetic."""

from fractions import Fraction
from operator import add

from doldzeta import PowerSeries
from doldzeta.series import Poly


def reference_product(a, b):
    """The product truncated at the shorter of the two orders."""
    order = min(a.order, b.order)
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return PowerSeries(out, order=order)


def reference_inverse(s):
    """The inverse of a series whose constant term is nonzero."""
    inv0 = Fraction(1) / s.coeffs[0]
    out = [inv0] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if s.coeffs[i] != 0:
                acc += s.coeffs[i] * out[n - i]
        out[n] = -inv0 * acc
    return PowerSeries(out, order=s.order)


def reference_bareiss_determinant(entries):
    """The determinant of a square matrix of polynomials by fraction-free
    Bareiss elimination; every division is exact, and is checked to be."""
    m = [[e if isinstance(e, Poly) else Poly.constant(e) for e in row] for row in entries]
    n = len(m)
    if n == 0:
        return Poly.one()
    sign = 1
    prev = Poly.one()
    for r in range(n - 1):
        if m[r][r].is_zero:
            pivot = next((i for i in range(r + 1, n) if not m[i][r].is_zero), None)
            if pivot is None:
                return Poly.zero()
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                q, rem = divmod(m[r][r] * m[i][j] - m[i][r] * m[r][j], prev)
                assert rem.is_zero, "a Bareiss division left a remainder"
                m[i][j] = q
            m[i][r] = Poly.zero()
        prev = m[r][r]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def reference_det_one_minus_t(rows):
    """det(1 - t A) for a rational square matrix A, over `Poly` entries."""
    n = len(rows)
    return reference_bareiss_determinant(
        [[Poly([int(i == j), -rows[i][j]]) for j in range(n)] for i in range(n)]
    )


def reference_graded_zeta(endo, order):
    """prod_j det(1 - q A_j)^{(-1)^j}: even degrees direct, odd inverted."""
    result = PowerSeries.one(order)
    for degree in endo.degrees():
        det = reference_det_one_minus_t(endo.matrix(degree))
        factor = PowerSeries(list(det.coeffs), order=order)
        result = reference_product(result, factor if degree % 2 == 0 else reference_inverse(factor))
    return result


def reference_trace_of_power(rows, k):
    """tr(A^k) from scratch: k products starting at the identity."""
    n = len(rows)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [[sum(power[i][l] * rows[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
    return sum(power[i][i] for i in range(n))


def reference_traces(endo, order):
    """[L_1, ..., L_order] with L_k = sum_j (-1)^j tr(A_j^k)."""
    return [
        sum((-1) ** d * reference_trace_of_power(endo.matrix(d), k) for d in endo.degrees())
        for k in range(1, order + 1)
    ]


class ReferencePoly:
    """A polynomial in t_1..t_nvars as {exponents: Fraction}, zero
    coefficients dropped."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}

    def __add__(self, other):
        if not isinstance(other, ReferencePoly):
            other = ReferencePoly(self.nvars, {(0,) * self.nvars: other})
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return ReferencePoly(self.nvars, out)

    def __neg__(self):
        return ReferencePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ReferencePoly):
            return ReferencePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return ReferencePoly(self.nvars, out)

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, e):
        result = ReferencePoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(e):
            result = result * self
        return result

    def extend(self, nvars):
        pad = (0,) * (nvars - self.nvars)
        return ReferencePoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def resize(self, nvars):
        if nvars >= self.nvars:
            return self.extend(nvars)
        assert not any(any(e[nvars:]) for e in self.terms)
        return ReferencePoly(nvars, {e[:nvars]: c for e, c in self.terms.items()})

    def substitute(self, images):
        target = images[0].nvars if images else 0
        result = ReferencePoly(target)
        for exps, c in self.terms.items():
            term = ReferencePoly(target, {(0,) * target: c})
            for image, e in zip(images, exps):
                term = term * image ** e
            result = result + term
        return result

    def evaluate(self, point):
        total = Fraction(0)
        for exps, c in self.terms.items():
            for v, e in zip(point, exps):
                c *= Fraction(v) ** e
            total += c
        return total

    def leading_term(self):
        """The largest term by weighted degree, then by the exponent vector
        read from the highest variable down."""
        exps = max(self.terms, key=lambda e: (sum((i + 1) * x for i, x in enumerate(e)), e[::-1]))
        return exps, self.terms[exps]

    def __eq__(self, other):
        return self.nvars == other.nvars and self.terms == other.terms
