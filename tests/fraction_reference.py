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
identity.  `running_power_traces` is the integer trace kernel as it ran
before the traces past a block's dimension came from Newton's identities:
every power of every block formed up to the order.

`ReferencePoly` is the multivariate polynomial as `MultiPoly` ran it before
it stored one denominator and integer numerators: a dict of Fraction
coefficients, each operation working term by term in Fraction arithmetic.
`ReferenceSeries` and `ReferenceUniPoly` are `PowerSeries` and `Poly` as
they ran before they stored one denominator and integer numerators: a tuple
of Fraction coefficients, each product a double loop over them, each
inverse the division loop above, and each coefficient rendered by `str`."""

from fractions import Fraction
from operator import add, getitem, mul

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


def running_power_traces(blocks, order):
    """[L_1, ..., L_order] with L_k = sum_j (-1)^j tr(B_j^k) for the integer
    blocks (degree, B_j), as `_integer_traces` computed them before the
    traces past a block's dimension came from Newton's identities: from the
    running powers B_j, B_j^2, ... up to the order, each power the one
    before times B_j, a row of it the dot products of a row of the one
    before with the columns of B_j, taken once per block."""
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


class ReferenceSeries:
    """A power series truncated at q^order, as a tuple of Fractions."""

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        order = len(coeffs) - 1 if order is None else order
        coeffs = coeffs[: order + 1]
        self.coeffs = tuple(coeffs + [Fraction(0)] * (order + 1 - len(coeffs)))
        self.order = order

    def truncated(self, order):
        assert order <= self.order
        return ReferenceSeries(self.coeffs[: order + 1], order)

    def __add__(self, other):
        order = min(self.order, other.order)
        return ReferenceSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], order)

    def __sub__(self, other):
        order = min(self.order, other.order)
        return ReferenceSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], order)

    def __mul__(self, other):
        if not isinstance(other, ReferenceSeries):
            return ReferenceSeries([c * Fraction(other) for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return ReferenceSeries(out, order)

    def inverse(self):
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            out[n] = -inv0 * sum(self.coeffs[i] * out[n - i] for i in range(1, n + 1))
        return ReferenceSeries(out, self.order)

    def __pow__(self, e):
        if e < 0:
            return (self ** -e).inverse()
        result = ReferenceSeries([1], self.order)
        for _ in range(e):
            result = result * self
        return result

    def substitute_power(self, m):
        out = [Fraction(0)] * (self.order + 1)
        for k in range(0, self.order // m + 1):
            out[m * k] = self.coeffs[k]
        return ReferenceSeries(out, self.order)

    def __eq__(self, other):
        shared = min(self.order, other.order) + 1
        return self.coeffs[:shared] == other.coeffs[:shared]

    def to_json(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


class ReferenceUniPoly:
    """A univariate polynomial as a tuple of Fractions, no trailing zero."""

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ReferenceUniPoly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ReferenceUniPoly([self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return ReferenceUniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ReferenceUniPoly):
            return ReferenceUniPoly([c * Fraction(other) for c in self.coeffs])
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ReferenceUniPoly(out)

    def __pow__(self, e):
        result = ReferenceUniPoly([1])
        for _ in range(e):
            result = result * self
        return result

    def __call__(self, value):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(value) + c
        return acc

    def __divmod__(self, other):
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = len(other.coeffs) - 1
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            q = rem[k] / other.coeffs[-1]
            quot[k - d] = q
            for j in range(d + 1):
                rem[k - d + j] -= q * other.coeffs[j]
        return ReferenceUniPoly(quot), ReferenceUniPoly(rem)

    @staticmethod
    def gcd(a, b):
        while b.coeffs:
            a, b = b, divmod(a, b)[1]
        return a * (Fraction(1) / a.coeffs[-1]) if a.coeffs else a

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if k == 0 else "t" if k == 1 else f"t^{k}"
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return [str(c) for c in self.coeffs]
