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
identity."""

from fractions import Fraction

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
