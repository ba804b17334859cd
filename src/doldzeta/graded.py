"""Graded endomorphisms over exact rationals and their trace generating functions.

A graded endomorphism is one square rational matrix A_j per cohomological
degree j >= 0.  The alternating trace sums L_k = sum_j (-1)^j tr(A_j^k)
determine the zeta function

    Z(q) = prod_j det(1 - q A_j)^{(-1)^j} = exp(-sum_k L_k q^k / k),

and the bivariate refinement

    P(q, T) = prod_j det(1 - q T^j A_j)^{-(-1)^j}

collects, in its q^k coefficient, the alternating traces of the induced map
on the symmetric-group invariants of the k-th tensor power (with Koszul
signs).  An independent oracle computes that coefficient directly by
averaging the signed permutation action on the tensor power; the two
computations must agree, and P(q, 1) * Z(q) = 1.

Determinants of polynomial matrices use fraction-free Bareiss elimination,
and the series kernels stay fraction-free as well: the common denominator d
of all matrix entries is cleared once, giving integer matrices B_j = d A_j.
Since det(1 - x B_j) = det(1 - d x A_j), the integer series Z(q / d) and
P(q d, T), and the integer traces of the powers of B_j, carry the answers
scaled by d^n in their n-th coefficient; each output coefficient is divided
by that power once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .series import (
    Poly,
    PowerSeries,
    RationalFunction,
    _exp_form_holds,
    _field,
    _fold_monic,
    _integer,
    _terms,
    rat,
)

KOSZUL_GUARD = 100_000

# Caps on a graded endomorphism, sized so that `graded -N 64` on the worst
# input they allow takes about a second: Bareiss elimination grows with the
# dimension, and the T-degrees of the Poincaré series with the top degree.
MAX_GRADED_DIMENSION = 10
MAX_GRADED_DEGREE = 16


class GradedEndomorphism:
    """One exact rational square matrix per degree; zero-dimensional degrees
    are simply absent.  Negative degrees are rejected, and so are degrees
    above MAX_GRADED_DEGREE and total dimensions above MAX_GRADED_DIMENSION."""

    __slots__ = ("matrices",)

    def __init__(self, matrices, where: str = "a graded endomorphism"):
        clean = {}
        dimension = 0
        for degree, rows in matrices.items():
            degree = _integer(degree, "a degree of a graded endomorphism")
            if degree < 0:
                raise ValueError("negative degrees are not allowed")
            if degree > MAX_GRADED_DEGREE:
                raise ValueError(
                    f"degree {degree} of a graded endomorphism is above the guard {MAX_GRADED_DEGREE}"
                )
            rows = tuple(rows)
            dimension += len(rows)
            if dimension > MAX_GRADED_DIMENSION:
                raise ValueError(
                    f"a graded endomorphism's total dimension is above the guard {MAX_GRADED_DIMENSION}"
                )
            entry = f"an entry of the matrix in degree {degree} of {where}"
            rows = tuple(tuple(rat(c, entry) for c in row) for row in rows)
            if any(len(row) != len(rows) for row in rows):
                raise ValueError(f"matrix in degree {degree} is not square")
            if rows:
                clean[degree] = rows
        self.matrices = clean

    @classmethod
    def from_json(cls, obj: dict, where: str = "a graded endomorphism") -> "GradedEndomorphism":
        """The endomorphism in `obj`; `where` names it in error messages."""
        return cls(_field(obj, "degrees", "a graded endomorphism", dict), where)

    def degrees(self) -> list:
        return sorted(self.matrices)

    def matrix(self, degree: int):
        return self.matrices[degree]

    def __eq__(self, other):
        if not isinstance(other, GradedEndomorphism):
            return NotImplemented
        return self.matrices == other.matrices

    def __repr__(self):
        dims = ", ".join(f"{d}:{len(rows)}" for d, rows in sorted(self.matrices.items()))
        return f"GradedEndomorphism(dims={{{dims}}})"


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def bareiss_determinant(entries) -> Poly:
    """Fraction-free determinant of a square matrix of polynomials.

    Every division in the Bareiss recurrence is exact, so intermediate
    entries stay polynomial.
    """
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
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]).exact_div(prev)
            m[i][r] = Poly.zero()
        prev = m[r][r]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def det_one_minus_t(rows) -> Poly:
    """det(1 - t A) as a polynomial in t, for a rational square matrix A."""
    n = len(rows)
    entries = [
        [
            Poly([Fraction(1) if i == j else Fraction(0), -rows[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return bareiss_determinant(entries)


def characteristic_rational_function(endo: GradedEndomorphism) -> RationalFunction:
    """The rational function with numerator prod_{j odd} det(1 - t A_j) and
    denominator prod_{j even} det(1 - t A_j).

    Its expansion is the reciprocal zeta function, i.e. the generating
    function of the Lefschetz numbers of the symmetric powers.
    """
    num = Poly.one()
    den = Poly.one()
    for degree in endo.degrees():
        factor = det_one_minus_t(endo.matrix(degree))
        if degree % 2:
            num = num * factor
        else:
            den = den * factor
    return RationalFunction(num, den)


def _cleared(endo: GradedEndomorphism) -> tuple:
    """The common denominator d of all matrix entries and the integer
    matrices B_j = d A_j, as d and a list of (degree, B_j)."""
    d = lcm(*(c.denominator for rows in endo.matrices.values() for row in rows for c in row))
    return d, [
        (degree, tuple(tuple(c.numerator * (d // c.denominator) for c in row) for row in rows))
        for degree, rows in sorted(endo.matrices.items())
    ]


def _integer_traces(blocks, order: int) -> list:
    """[L_1, ..., L_order] with L_k = sum_j (-1)^j tr(B_j^k) for the integer
    blocks (degree, B_j), from the running powers B_j, B_j^2, ...: one
    matrix product per degree and iterate."""
    totals = [0] * order
    for degree, rows in blocks:
        sign = 1 if degree % 2 == 0 else -1
        power = rows
        for k in range(order):
            if k:
                power = _mat_mul(power, rows)
            totals[k] += sign * sum(power[i][i] for i in range(len(rows)))
    return totals


def _determinant_terms(rows, order: int) -> list:
    """The terms (k, c_k), 0 < k <= order, of det(1 - x B) = 1 + sum c_k x^k
    for an integer matrix B."""
    return [(k, c.numerator) for k, c in _terms(det_one_minus_t(rows).coeffs) if 0 < k <= order]


def graded_lefschetz_numbers(endo: GradedEndomorphism, order: int) -> list:
    """[L_1, ..., L_order] with L_k = sum_j (-1)^j tr(A_j^k) = L_k(B) / d^k."""
    if order < 0:
        raise ValueError("number of iterates must be >= 0")
    d, blocks = _cleared(endo)
    return [Fraction(t, d ** k) for k, t in enumerate(_integer_traces(blocks, order), 1)]


def graded_zeta(endo: GradedEndomorphism, order: int) -> PowerSeries:
    """Z(q) = prod_j det(1 - q A_j)^{(-1)^j}, cross-checked against the
    exponential form exp(-sum_k L_k q^k / k).

    Both forms are built for Z(q / d) = prod_j det(1 - q B_j)^{(-1)^j} over
    the integers: even degrees multiply, odd degrees divide.  The check's
    recurrence is homogeneous in q / d, so it is the same check."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    d, blocks = _cleared(endo)
    scaled = [1] + [0] * order
    for degree, rows in blocks:
        _fold_monic(scaled, _determinant_terms(rows, order), divide=degree % 2 == 1)
    if not _exp_form_holds(scaled, _integer_traces(blocks, order)):
        raise RuntimeError("determinant and exponential forms of zeta disagree")
    return PowerSeries([Fraction(z, d ** n) for n, z in enumerate(scaled)], order=order)


def poincare_generating(endo: GradedEndomorphism, order: int) -> tuple:
    """The T-polynomials of q^0..q^order in P(q, T) = prod_j D_j(q T^j)^{-(-1)^j},
    D_j(x) = det(1 - x A_j): odd degrees multiply, even degrees divide.

    The rows of the integer series P(q d, T) are laid end to end in one list,
    q^n T^t at index n W + t.  Every monomial q^n T^t of P has t <= top * n
    for the top degree, so the width W = top * order + 1 exceeds every
    T-degree, and a factor term c_k (q T^j)^k shifts an index by k (W + j)
    without carrying into another row: each determinant folds in as one
    monic integer series.  Row n is divided by d^n once.  Evaluating the
    T-polynomials at 1 inverts the zeta function."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    d, blocks = _cleared(endo)
    top = max((degree for degree, _ in blocks), default=0)
    width = top * order + 1
    flat = [1] + [0] * ((order + 1) * width - 1)
    for degree, rows in blocks:
        factor = [(k * (width + degree), c) for k, c in _determinant_terms(rows, order)]
        _fold_monic(flat, factor, divide=degree % 2 == 0)
    return tuple(
        Poly([Fraction(c, d ** n) for c in flat[n * width : n * width + top * n + 1]])
        for n in range(order + 1)
    )


def _koszul_sign(sigma, degrees) -> int:
    """Sign picked up when a permutation reorders graded tensor factors:
    -1 to the number of inverted pairs whose two factors both have odd degree."""
    count = 0
    k = len(sigma)
    for i in range(k):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, k):
            if sigma[i] > sigma[j] and degrees[j] % 2:
                count += 1
    return -1 if count % 2 else 1


def koszul_invariant_trace(endo: GradedEndomorphism, k: int) -> Poly:
    """The q^k coefficient of the bivariate generating function, computed
    independently as a trace on symmetric-group invariants.

    The tensor power of the graded space carries the signed permutation
    action rho; averaging rho over all permutations projects onto the
    invariants, so the alternating trace of (tensor power of A) restricted
    to the invariants is (1/k!) sum_sigma sum_basis elements of the signed
    matrix coefficient, graded by (-T)^{total degree}.
    """
    if k < 0:
        raise ValueError("tensor power must be >= 0")
    if k == 0:
        return Poly.one()
    basis = []
    for degree in endo.degrees():
        for idx in range(len(endo.matrix(degree))):
            basis.append((degree, idx))
    dim = len(basis)
    if dim == 0:
        return Poly.zero()
    if dim ** k > KOSZUL_GUARD:
        raise ValueError(
            f"tensor power has {dim ** k} basis elements, above the guard {KOSZUL_GUARD}"
        )
    from math import factorial

    coeffs = {}
    tuples = list(product(range(dim), repeat=k))
    for sigma in permutations(range(k)):
        inv = [0] * k
        for pos, img in enumerate(sigma):
            inv[img] = pos
        for e in tuples:
            source_degrees = [basis[b][0] for b in e]
            permuted = tuple(e[inv[j]] for j in range(k))
            entry = Fraction(1)
            for target, source in zip(e, permuted):
                d_t, i_t = basis[target]
                d_s, i_s = basis[source]
                if d_t != d_s:
                    entry = Fraction(0)
                    break
                entry *= endo.matrix(d_t)[i_t][i_s]
                if entry == 0:
                    break
            if entry == 0:
                continue
            entry *= _koszul_sign(sigma, source_degrees)
            total_degree = sum(source_degrees)
            signed = entry if total_degree % 2 == 0 else -entry
            coeffs[total_degree] = coeffs.get(total_degree, Fraction(0)) + signed
    top = max(coeffs) if coeffs else 0
    out = [Fraction(0)] * (top + 1)
    for degree, value in coeffs.items():
        out[degree] = value / factorial(k)
    return Poly(out)
