"""The Poincaré series P(q, T) as `poincare_generating` built it before,
kept as the references it is tested against.

`reference_poincare` is the slow one, from before it folded univariate
determinant series into rows of T-coefficients.  A series in q whose
coefficients are polynomials in T is a tuple of `Poly`, one per power
q^0..q^order.  Each determinant det(1 - x A_j) is substituted x -> q T^j,
the even-degree factors are inverted by the recurrence
c_n = -c_0^{-1} sum_{i>=1} s_i c_{n-i}, and the factors are multiplied by a
naive double loop over q-indices, one `Poly` sum per term.

`flat_poincare` is the integer fold from before the rows were folded one by
one: the rows laid end to end in one list of the common width
top * order + 1, each determinant folded in as one monic series."""

from fractions import Fraction

from doldzeta.graded import _cleared
from doldzeta.series import Poly, _fold_monic, _terms

from fraction_reference import reference_det_one_minus_t


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
        det = reference_det_one_minus_t(endo.matrix(degree))
        factor = monomial_substitution(det, degree, order)
        result = bivariate_product(result, factor if degree % 2 else bivariate_inverse(factor))
    return result


def flat_poincare(endo, order):
    """The rows of the integer series P(q d, T) laid end to end in one list,
    q^n T^t at index n W + t.  Every monomial q^n T^t of P has t <= top * n
    for the top degree, so the width W = top * order + 1 exceeds every
    T-degree, and a factor term c_k (q T^j)^k shifts an index by k (W + j)
    without carrying into another row: each determinant folds in as one
    monic integer series.  Row n is divided by d^n once."""
    d, blocks, dets = _cleared(endo)
    top = max((degree for degree, _ in blocks), default=0)
    width = top * order + 1
    flat = [1] + [0] * ((order + 1) * width - 1)
    for (degree, _), det in zip(blocks, dets):
        factor = [(k * (width + degree), c) for k, c in _terms(det)[1:]]
        _fold_monic(flat, factor, divide=degree % 2 == 0)
    return tuple(
        Poly._trusted(flat[n * width : n * width + top * n + 1], d ** n) for n in range(order + 1)
    )
