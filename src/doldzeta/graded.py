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

The determinant formulas run over the integers: the common denominator d of
all matrix entries is cleared once, giving integer matrices B_j = d A_j, and
each det(1 - x B_j) comes from Bareiss elimination over integer coefficient
lists.  Since det(1 - x B_j) = det(1 - d x A_j), the integer series
Z(q / d) and P(q d, T), and the integer traces of the powers of B_j, carry
the answers scaled by d^n in their n-th coefficient; each output
coefficient is divided by that power once.

The traces of the powers B_j^k are computed once for the zeta function's
check and the Lefschetz numbers together, from the running powers: each row
of a power is the dot products of a row of the power before with the
columns of B_j, taken once per block.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm
from operator import getitem, mul

from .oracles import _guard
from .series import (
    Poly,
    PowerSeries,
    RationalFunction,
    _convolve_into,
    _exp_form_holds,
    _field,
    _fold_monic,
    _integer,
    _terms,
    rat,
)

# Caps on a graded endomorphism, sized so that `graded -N 64` on the worst
# input they allow takes under a second: Bareiss elimination grows with the
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
            matrix = f"the matrix in degree {degree} of {where}"
            rows = _listed(rows, matrix)
            dimension += len(rows)
            if dimension > MAX_GRADED_DIMENSION:
                raise ValueError(
                    f"a graded endomorphism's total dimension is above the guard {MAX_GRADED_DIMENSION}"
                )
            entry = f"an entry of {matrix}"
            rows = tuple(tuple(rat(c, entry) for c in _listed(row, f"a row of {matrix}")) for row in rows)
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


def _listed(value, what: str) -> tuple:
    """A matrix or a matrix row as a tuple; anything but a list or a tuple is
    refused with a ValueError naming `what`."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return tuple(value)


def _det_one_minus_x(rows) -> list:
    """The coefficients of det(1 - x B), for an integer square matrix B, by
    Bareiss elimination over integer coefficient lists.

    At step r each entry m[i][j] with i, j > r becomes the (r + 2)-minor of
    1 - x B on rows 0..r, i and columns 0..r, j, of degree at most r + 2,
    after an exact division by the pivot of the step before, a leading
    principal minor.  Such a minor is 1 at x = 0, so no row is ever swapped
    and each division is by a monic series: it is cut at the quotient's
    length r + 3 and runs through `_fold_monic`."""
    n = len(rows)
    m = [[[int(i == j), -rows[i][j]] for j in range(n)] for i in range(n)]
    prev = []
    for r in range(n - 1):
        size = r + 3
        row = [_terms(entry) for entry in m[r]]
        for i in range(r + 1, n):
            left = [(k, -c) for k, c in _terms(m[i][r])]
            for j in range(r + 1, n):
                out = _convolve_into([0] * size, row[r], _terms(m[i][j]))
                _convolve_into(out, left, row[j])
                m[i][j] = _fold_monic(out, prev, divide=True)
        prev = row[r][1:]
    return m[n - 1][n - 1] if n else [1]


def _over_powers(build, values, d: int):
    """`build(nums, den)` for the coefficients c_k / d^k of the integers c_k
    in `values`: over the one denominator d^n, n = len(values) - 1, the
    numerator of the k-th is c_k d^(n - k)."""
    if d == 1:
        return build(values)
    n = len(values) - 1
    return build([c * d ** (n - k) for k, c in enumerate(values)], d ** n)


def det_one_minus_t(rows) -> Poly:
    """det(1 - t A) as a polynomial in t, for a rational square matrix A.

    With d the common denominator of the entries and B = d A, it is
    det(1 - (t / d) B), so its t^k coefficient is that of det(1 - x B)
    divided by d^k."""
    d = lcm(*(c.denominator for row in rows for c in row))
    scaled = [[c.numerator * (d // c.denominator) for c in row] for row in rows]
    return _over_powers(Poly._trusted, _det_one_minus_x(scaled), d)


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
    blocks (degree, B_j), from the running powers B_j, B_j^2, ...: each
    power is the one before times B_j, a row of it the dot products of a row
    of the one before with the columns of B_j, taken once per block."""
    totals = [0] * order
    for degree, rows in blocks:
        sign = 1 if degree % 2 == 0 else -1
        cols = tuple(zip(*rows))
        power = rows
        for k in range(order):
            if k:
                power = [[sum(map(mul, r, c)) for c in cols] for r in power]
            totals[k] += sign * sum(map(getitem, power, range(len(rows))))
    return totals


def _determinant_terms(rows, order: int) -> list:
    """The terms (k, c_k), 0 < k <= order, of det(1 - x B) = 1 + sum c_k x^k
    for an integer matrix B."""
    return [(k, c) for k, c in _terms(det_one_minus_t(rows).nums) if 0 < k <= order]


def _zeta_and_traces(endo: GradedEndomorphism, order: int) -> tuple:
    """Z(q) = prod_j det(1 - q A_j)^{(-1)^j}, cross-checked against the
    exponential form exp(-sum_k L_k q^k / k), and the Lefschetz numbers
    [L_1, ..., L_order] with L_k = sum_j (-1)^j tr(A_j^k) = L_k(B) / d^k
    that the check reads.

    Both forms are built for Z(q / d) = prod_j det(1 - q B_j)^{(-1)^j} over
    the integers: even degrees multiply, odd degrees divide.  The check's
    recurrence is homogeneous in q / d, so it is the same check.  The traces
    come from matrix powers, not from the determinants, so each side of the
    check is computed independently of the other."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    d, blocks = _cleared(endo)
    scaled = [1] + [0] * order
    for degree, rows in blocks:
        _fold_monic(scaled, _determinant_terms(rows, order), divide=degree % 2 == 1)
    traces = _integer_traces(blocks, order)
    if not _exp_form_holds(scaled, traces):
        raise RuntimeError("determinant and exponential forms of zeta disagree")
    lefschetz = [Fraction(t, d ** k) for k, t in enumerate(traces, 1)]
    return _over_powers(PowerSeries._trusted, scaled, d), lefschetz


def graded_zeta(endo: GradedEndomorphism, order: int) -> PowerSeries:
    """Z(q) = prod_j det(1 - q A_j)^{(-1)^j}, cross-checked against the
    exponential form exp(-sum_k L_k q^k / k) by `_zeta_and_traces`."""
    return _zeta_and_traces(endo, order)[0]


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
        Poly._trusted(flat[n * width : n * width + top * n + 1], d ** n) for n in range(order + 1)
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
    _guard(factorial(k) * dim ** k)  # the (permutation, basis tuple) pairs visited
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
