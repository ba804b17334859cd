"""The Poincaré series P(q, T) as `poincare_generating` built it before it
folded univariate determinant series into rows of T-coefficients, kept as
the slow reference it is tested against.

A series in q whose coefficients are polynomials in T is a tuple of `Poly`,
one per power q^0..q^order.  Each determinant det(1 - x A_j) is substituted
x -> q T^j, the even-degree factors are inverted by the recurrence
c_n = -c_0^{-1} sum_{i>=1} s_i c_{n-i}, and the factors are multiplied by a
naive double loop over q-indices, one `Poly` sum per term."""

from fractions import Fraction

from doldzeta.graded import det_one_minus_t
from doldzeta.series import Poly


def one(order):
    return (Poly.one(),) + (Poly.zero(),) * order


def monomial_substitution(poly, t_exponent, order):
    """sum_k a_k x^k with x -> q T^j: the q^k coefficient is a_k T^{jk}."""
    return tuple(Poly([0] * (t_exponent * k) + [poly.coefficient(k)]) for k in range(order + 1))


def bivariate_product(a, b):
    """The product truncated at the shorter of the two orders."""
    order = min(len(a), len(b)) - 1
    out = [Poly.zero()] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return tuple(out)


def bivariate_inverse(s):
    """The inverse of a series whose q^0 coefficient is a nonzero constant."""
    inv0 = Fraction(1) / s[0].coefficient(0)
    out = [Poly.constant(inv0)]
    for n in range(1, len(s)):
        acc = Poly.zero()
        for i in range(1, n + 1):
            acc = acc + s[i] * out[n - i]
        out.append(acc * (-inv0))
    return tuple(out)


def reference_poincare(endo, order):
    """prod_j det(1 - q T^j A_j)^{-(-1)^j}: even degrees inverted, odd direct."""
    result = one(order)
    for degree in endo.degrees():
        factor = monomial_substitution(det_one_minus_t(endo.matrix(degree)), degree, order)
        result = bivariate_product(result, factor if degree % 2 else bivariate_inverse(factor))
    return result
