"""Truncated formal power series and polynomial arithmetic over exact rationals.

Everything in this package is built on `fractions.Fraction`; no floats ever
enter a computation.  A :class:`PowerSeries` stores the coefficients of
q^0..q^N together with its truncation order N.  Arithmetic between series of
different orders truncates to the shorter order.  Equality compares the
shared coefficient prefix; :meth:`PowerSeries.compare` additionally reports
whether the comparison was only partial because the orders differ.

The module also provides dense univariate polynomials (:class:`Poly`),
rational functions with series expansion (:class:`RationalFunction`),
series in q whose coefficients are polynomials in a second variable T
(:class:`BivariateSeries`), and packing of coefficient lists into
exponential generating functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple


class NotAUnitError(ArithmeticError):
    """Raised when inverting a series whose constant term vanishes."""


class NotExpandableError(ArithmeticError):
    """Raised for a rational function whose denominator vanishes at 0."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value) -> str:
    """Render a rational as "p/q", or as a bare "p" when the denominator is 1."""
    return str(rat(value))


class SeriesComparison(NamedTuple):
    equal: bool
    partial: bool


class PowerSeries:
    """A formal power series in q, truncated at q^order, with Fraction coefficients.

    >>> s = PowerSeries([1, -1])            # 1 - q, order 1
    >>> s.inverse().coeffs
    (Fraction(1, 1), Fraction(1, 1))
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [rat(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def monomial(cls, k: int, order: int, coefficient=1) -> "PowerSeries":
        coeffs = [Fraction(0)] * (order + 1)
        if k <= order:
            coeffs[k] = rat(coefficient)
        return cls(coeffs, order=order)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient q^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series with fabricated zeros")
        return PowerSeries(self.coeffs[: order + 1], order=order)

    def _binop(self, other, op):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return PowerSeries(
            [op(self.coeffs[k], other.coeffs[k]) for k in range(order + 1)],
            order=order,
        )

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], order=self.order)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            order = min(self.order, other.order)
            out = [Fraction(0)] * (order + 1)
            for i, a in enumerate(self.coeffs[: order + 1]):
                if a == 0:
                    continue
                for j in range(order + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return PowerSeries(out, order=order)
        try:
            c = rat(other)
        except TypeError:
            return NotImplemented
        return PowerSeries([c * a for a in self.coeffs], order=self.order)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse up to the truncation order."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise NotAUnitError("series has zero constant term")
        inv0 = Fraction(1) / a0
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                if self.coeffs[i] != 0:
                    acc += self.coeffs[i] * out[n - i]
            out[n] = -inv0 * acc
        return PowerSeries(out, order=self.order)

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            return (self ** (-exponent)).inverse()
        result = PowerSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def substitute_power(self, m: int) -> "PowerSeries":
        """The substitution q -> q^m; truncation order is preserved."""
        if m < 1:
            raise ValueError("substitution exponent must be >= 1")
        out = [Fraction(0)] * (self.order + 1)
        for k, c in enumerate(self.coeffs):
            if m * k > self.order:
                break
            out[m * k] = c
        return PowerSeries(out, order=self.order)

    def compare(self, other: "PowerSeries") -> SeriesComparison:
        """Coefficientwise comparison on the shared prefix.

        ``partial`` is True when the two truncation orders differ, so the
        verdict only covers the shorter of the two series.
        """
        shared = min(self.order, other.order)
        equal = self.coeffs[: shared + 1] == other.coeffs[: shared + 1]
        return SeriesComparison(equal=equal, partial=self.order != other.order)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.compare(other).equal

    def __repr__(self):
        return f"PowerSeries([{', '.join(rat_str(c) for c in self.coeffs)}], order={self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [rat_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "PowerSeries":
        coeffs = [rat(c) for c in obj["coeffs"]]
        order = int(obj["order"])
        if order > len(coeffs) - 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(coeffs)}"
            )
        return cls(coeffs, order=order)


def exp_series(s: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, exact to the truncation order."""
    if s.coeffs[0] != 0:
        raise ValueError("exp is only defined here for series with zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if s.coeffs[j] != 0:
                acc += j * s.coeffs[j] * out[n - j]
        out[n] = acc / n
    return PowerSeries(out, order=s.order)


def series_exp_neg_weighted(values, order=None) -> PowerSeries:
    """exp(-sum_{k>=1} a_k q^k / k) for a coefficient list [a_1, ..., a_N].

    This is the standard passage from the numbers of fixed points of the
    iterates of a map to its zeta function.
    """
    values = [rat(v) for v in values]
    if order is None:
        order = len(values)
    if len(values) < order:
        raise ValueError(f"need {order} values, got {len(values)}")
    s = [Fraction(0)] + [-values[k - 1] / k for k in range(1, order + 1)]
    return exp_series(PowerSeries(s, order=order))


def exponent_product(exponents, order: int) -> PowerSeries:
    """The product prod_m (1 - q^m)^{e_m} for a finite map of integer exponents.

    Each factor is expanded by the binomial series
    (1 - q^m)^e = sum_j (-1)^j C(e, j) q^{mj}, where for e < 0 the
    coefficient is C(-e + j - 1, j).  A factor thus has floor(order/m) + 1
    terms, and multiplying by it in place costs O(order^2 / m) integer
    operations.  The coefficients are integers throughout.
    """
    out = [1] + [0] * order
    for m in sorted(exponents):
        if m < 1:
            raise ValueError("periods in the exponent map must be >= 1")
        e = exponents[m]
        if not isinstance(e, int):
            raise ValueError(f"exponent {e!r} of period {m} is not an integer")
        if e == 0 or m > order:
            continue
        # c_j = (-1)^j C(e, j) by c_j = c_{j-1} (j - 1 - e) / j, which is exact
        # and covers both signs of e; it vanishes from j = e + 1 on when e > 0
        factor = [1]
        for j in range(1, order // m + 1):
            c = factor[-1] * (j - 1 - e) // j
            if c == 0:
                break
            factor.append(c)
        # descending n, so out[n - m*j] still holds the old coefficient
        for n in range(order, m - 1, -1):
            acc = out[n]
            for j in range(1, min(len(factor), n // m + 1)):
                acc += factor[j] * out[n - m * j]
            out[n] = acc
    return PowerSeries(out, order=order)


def egf_pack(values, order=None) -> PowerSeries:
    """Pack a_0..a_N into the exponential generating function sum a_k q^k / k!."""
    values = [rat(v) for v in values]
    if order is None:
        if not values:
            raise ValueError("empty value list needs an explicit order")
        order = len(values) - 1
    values = values[: order + 1] + [Fraction(0)] * (order + 1 - len(values))
    return PowerSeries([values[k] / factorial(k) for k in range(order + 1)], order=order)


def egf_unpack(series: PowerSeries) -> list:
    """Recover a_k = k! [q^k] from an exponential generating function."""
    return [series.coeffs[k] * factorial(k) for k in range(series.order + 1)]


class Poly:
    """Dense univariate polynomial over Fraction (zero polynomial = empty tuple)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [rat(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        try:
            return Poly.constant(rat(other))
        except TypeError:
            return NotImplemented

    def __call__(self, value) -> Fraction:
        value = rat(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            q = rem[k] / lead
            quot[k - d] = q
            for j in range(d + 1):
                rem[k - d + j] -= q * other.coeffs[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("polynomial division was expected to be exact")
        return q

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a * (Fraction(1) / a.coeffs[-1])

    def series(self, order: int) -> PowerSeries:
        return PowerSeries(list(self.coeffs), order=order) if self.coeffs else PowerSeries.zero(order)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def render(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rat_str(c))
                continue
            mono = var if k == 1 else f"{var}^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.render()})"

    def to_json(self) -> list:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj) -> "Poly":
        return cls([rat(c) for c in obj])


class RationalFunction:
    """A quotient of polynomials whose denominator does not vanish at 0.

    The stored form is canonical: numerator and denominator are coprime and
    the denominator has constant term 1.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly):
        if not isinstance(numerator, Poly):
            numerator = Poly(numerator)
        if not isinstance(denominator, Poly):
            denominator = Poly(denominator)
        if denominator.coefficient(0) == 0:
            raise NotExpandableError("denominator vanishes at the origin")
        g = Poly.gcd(numerator, denominator)
        if not g.is_zero and g.degree > 0:
            numerator = numerator.exact_div(g)
            denominator = denominator.exact_div(g)
        scale = Fraction(1) / denominator.coefficient(0)
        self.numerator = numerator * scale
        self.denominator = denominator * scale

    def expand(self, order: int) -> PowerSeries:
        """Exact Taylor expansion of numerator/denominator to the given order."""
        num = self.numerator.series(order)
        den = self.denominator.series(order)
        return num * den.inverse()

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.numerator == other.numerator and self.denominator == other.denominator
        )

    def __repr__(self):
        return f"RationalFunction(({self.numerator.render('q')}) / ({self.denominator.render('q')}))"

    def to_json(self) -> dict:
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalFunction":
        return cls(Poly.from_json(obj["numerator"]), Poly.from_json(obj["denominator"]))


def _nonzero_terms(coeffs) -> list:
    return [(k, c) for k, c in enumerate(coeffs) if c != 0]


def _add_product(acc: list, a, b) -> None:
    """acc += a * b, where acc is a dense coefficient list in T (extended as
    needed) and a, b are polynomials in T given by their nonzero terms."""
    if not a or not b:
        return
    top = a[-1][0] + b[-1][0] + 1
    if len(acc) < top:
        acc.extend([0] * (top - len(acc)))
    for i, x in a:
        for j, y in b:
            acc[i + j] += x * y


class BivariateSeries:
    """A series in q, truncated at q^order, whose coefficients live in Q[T]."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1]
        coeffs.extend([Poly.zero()] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls([Poly.one()], order=order)

    @classmethod
    def from_monomial_substitution(cls, poly: Poly, t_exponent: int, order: int) -> "BivariateSeries":
        """Substitute x -> q T^j into a univariate polynomial sum a_k x^k."""
        coeffs = [Poly.zero()] * (order + 1)
        for k, a in enumerate(poly.coeffs):
            if k > order:
                break
            if a != 0:
                mono = [Fraction(0)] * (t_exponent * k) + [a]
                coeffs[k] = Poly(mono)
        return cls(coeffs, order=order)

    def __mul__(self, other):
        if isinstance(other, BivariateSeries):
            order = min(self.order, other.order)
            left = [_nonzero_terms(c.coeffs) for c in self.coeffs[: order + 1]]
            right = [_nonzero_terms(c.coeffs) for c in other.coeffs[: order + 1]]
            out = []
            for n in range(order + 1):
                acc = []
                for i in range(n + 1):
                    _add_product(acc, left[i], right[n - i])
                out.append(Poly(acc))
            return BivariateSeries(out, order=order)
        return BivariateSeries([other * c for c in self.coeffs], order=self.order)

    __rmul__ = __mul__

    def __add__(self, other):
        order = min(self.order, other.order)
        return BivariateSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order=order
        )

    def __sub__(self, other):
        order = min(self.order, other.order)
        return BivariateSeries(
            [self.coeffs[k] - other.coeffs[k] for k in range(order + 1)], order=order
        )

    def inverse(self) -> "BivariateSeries":
        c0 = self.coeffs[0]
        if c0.is_zero or c0.degree > 0:
            raise NotAUnitError("leading q-coefficient must be a nonzero constant")
        inv0 = Fraction(1) / c0.coefficient(0)
        terms = [_nonzero_terms(c.coeffs) for c in self.coeffs]
        out = [Poly.constant(inv0)]
        out_terms = [[(0, inv0)]]
        for n in range(1, self.order + 1):
            acc = []
            for i in range(1, n + 1):
                _add_product(acc, terms[i], out_terms[n - i])
            coeffs = [-inv0 * c for c in acc]
            out.append(Poly(coeffs))
            out_terms.append(_nonzero_terms(coeffs))
        return BivariateSeries(out, order=self.order)

    def at_one(self) -> PowerSeries:
        """Evaluate the T-polynomials at T = 1, collapsing to a plain series."""
        return PowerSeries([c(1) for c in self.coeffs], order=self.order)

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[: shared + 1] == other.coeffs[: shared + 1]

    def __repr__(self):
        inner = ", ".join(c.render("T") for c in self.coeffs)
        return f"BivariateSeries([{inner}], order={self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}
