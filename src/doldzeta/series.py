"""Truncated formal power series and polynomial arithmetic over exact rationals.

Everything in this package is built on `fractions.Fraction`; no floats ever
enter a computation.  A :class:`PowerSeries` stores the coefficients of
q^0..q^N as Fractions together with its truncation order N, but multiplies
and inverts them over integer numerators: the coefficients are put over one
common denominator (:func:`_numerators`), the integer kernels run, and each
output coefficient becomes a Fraction once.  Arithmetic between series of
different orders truncates to the shorter order.  Equality compares the
shared coefficient prefix.

The module also provides dense univariate polynomials (:class:`Poly`),
rational functions with series expansion (:class:`RationalFunction`), and
packing of coefficient lists into exponential generating functions.
:class:`PowerSeries` is the only series type; the Poincaré series of a
graded map is kept in rows of T-coefficients by `graded`.

Every truncated product in the package, whatever its coefficient ring,
runs through one convolution kernel (:func:`_convolve_into`) and every
integer power through one square-and-multiply routine (:func:`_power`).
Every series division, every multiplication by a determinant factor in
`graded` and every exact division of its determinant kernel runs through
one integer loop (:func:`_fold_monic`).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial, lcm


class NotAUnitError(ArithmeticError):
    """Raised when inverting a series whose constant term vanishes."""


class NotExpandableError(ArithmeticError):
    """Raised for a rational function whose denominator vanishes at 0."""


def _digit_limit_error(what: str, side: str = "input") -> ValueError:
    """The refusal of a number longer than Python's int-to-string limit;
    `what` names the number and `side` is "input" or "output"."""
    limit = sys.get_int_max_str_digits()
    return ValueError(f"{what} has more than {limit} digits, the {side}'s digit limit")


def _over_digit_limit(text: str) -> bool:
    """Whether a string holds more digits than Python's int-to-string limit."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and sum(map(text.count, "0123456789")) > limit


def _shown(value) -> str:
    """The repr of a refused value for an error message: whole when short,
    otherwise its first 40 characters and the length of the whole."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def rat(value, where: str = "a number in the input") -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.  A string
    that is not a rational is refused with a ValueError, and any other value
    with a TypeError, each naming `where`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"a number in the input has a zero denominator: {_shown(value)}") from None
        except ValueError:
            if _over_digit_limit(value):
                raise _digit_limit_error("a number in the input") from None
            raise ValueError(f"{where} must be a rational number, got {_shown(value)}") from None
    raise TypeError(f"{where} must be a rational number, got {_shown(value)}")


def rat_str(value) -> str:
    """Render a rational as "p/q", or as a bare "p" when the denominator is 1.
    A numerator or denominator longer than Python's int-to-string limit is
    refused with a ValueError that names the limit."""
    value = rat(value)
    try:
        return str(value)
    except ValueError:
        raise _digit_limit_error("a number in the output", "output") from None


def _field(obj, key: str, where: str, kind=None):
    """obj[key], or a ValueError naming `where` and the key when it is
    missing or, given a `kind` (list or dict), when its value is not one."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} key")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise ValueError(f"{where}'s {key!r} must be {noun}, got {type(value).__name__}")
    return value


def _integer(value, where: str) -> int:
    """`value` as an int when it is an integer: an int, an integral number
    such as Fraction(4, 2), or a decimal string.  Anything else, a bool or
    1.5 included, is refused with a ValueError naming `where`, never
    truncated."""
    if type(value) is int:  # the common case, taken before the general one
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            if _over_digit_limit(value):
                raise _digit_limit_error(where) from None
    elif not isinstance(value, bool):
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if number == value:
                return number
    raise ValueError(f"{where} must be an integer, got {_shown(value)}")


def _integers(values, where: str) -> tuple:
    """A JSON list of integers as a tuple of ints; `where` names the list."""
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list, got {type(values).__name__}")
    return tuple(_integer(v, f"an entry of {where}") for v in values)


def _terms(coeffs) -> list:
    """The (index, coefficient) pairs of the nonzero entries, in index order."""
    return [(k, c) for k, c in enumerate(coeffs) if c]


def _convolve_into(out: list, a, b) -> list:
    """Add x * y into out[i + j] for every term (i, x) of `a` and (j, y) of
    `b` with i + j < len(out), and return `out`.

    `a` and `b` are term lists in index order, as `_terms` builds them; the
    coefficients may be of any ring whose elements support + and *.
    """
    n = len(out)
    for i, x in a:
        if i >= n:
            break
        for j, y in b:
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


def _fold_monic(out: list, factor, divide: bool = False) -> list:
    """Multiply `out`, in place, by the monic series 1 + sum_s c_s X^s, or
    divide it by that series when `divide`, truncating at len(out), and
    return `out`.  `factor` lists the terms (s, c_s) with s >= 1 in index
    order; the coefficients are integers, and so the results are.

    Each nonzero entry x at index n adds c_s x into the entry at n + s.
    Multiplying runs from the top index down, so that an entry is read
    before anything is added to it; dividing runs from the bottom up, so
    that an entry is read once everything below has been subtracted from
    it, when it is the quotient's.  A monic divisor needs no division,
    which is what keeps the loop over the integers, and zero entries cost
    one test, which keeps sparse layouts cheap.
    """
    size = len(out)
    if divide:
        factor, steps = [(s, -c) for s, c in factor], range(size)
    else:
        steps = range(size - 1, -1, -1)
    for n in steps:
        x = out[n]
        if x:
            for s, c in factor:
                if n + s >= size:
                    break
                out[n + s] += c * x
    return out


def _numerators(values) -> tuple:
    """The common denominator D of a list of rationals (Fractions or ints)
    and their numerators over it: D and the list of the integers D * v."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _power(base, e: int, one):
    """base ** e for e >= 0 by square-and-multiply; `one` is the unit."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


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

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            order = min(self.order, other.order)
            da, a = _numerators(self.coeffs[: order + 1])
            db, b = _numerators(other.coeffs[: order + 1])
            out = _convolve_into([0] * (order + 1), _terms(a), _terms(b))
            return PowerSeries([Fraction(x, da * db) for x in out], order=order)
        try:
            c = rat(other)
        except TypeError:
            return NotImplemented
        return PowerSeries([c * a for a in self.coeffs], order=self.order)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse up to the truncation order.

        With the coefficients a_i = A_i / D over integers A_i, the numbers
        B_n = b_n A_0^(n+1) / D of the inverse b are the coefficients of
        1 / (1 + sum_{i>=1} A_i A_0^(i-1) q^i), a monic integer series, so
        they are integers and are found by one integer division."""
        d, a = _numerators(self.coeffs)
        a0 = a[0]
        if a0 == 0:
            raise NotAUnitError("series has zero constant term")
        factor = [(i, x * a0 ** (i - 1)) for i, x in _terms(a) if i]
        out = _fold_monic([1] + [0] * self.order, factor, divide=True)
        return PowerSeries(
            [Fraction(x * d, a0 ** (n + 1)) for n, x in enumerate(out)], order=self.order
        )

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            return (self ** (-exponent)).inverse()
        return _power(self, exponent, PowerSeries.one(self.order))

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

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[: shared + 1] == other.coeffs[: shared + 1]

    def __repr__(self):
        return f"PowerSeries([{', '.join(rat_str(c) for c in self.coeffs)}], order={self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [rat_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "PowerSeries":
        coeffs = [rat(c) for c in _field(obj, "coeffs", "a series", list)]
        order = _integer(_field(obj, "order", "a series"), "a series's 'order'")
        if order > len(coeffs) - 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(coeffs)}"
            )
        return cls(coeffs, order=order)


def _exp_form_holds(coeffs, lefschetz) -> bool:
    """Whether the series z_0..z_N with these coefficients is
    exp(-sum_k L_k q^k / k) for lefschetz = [L_1, ..., L_N].

    It is exactly when z_0 = 1 and n z_n + sum_{j=1..n} L_j z_{n-j} = 0 for
    n = 1..N, the recurrence q Z' = -(sum_k L_k q^k) Z that determines the
    exponential's coefficients one by one.  No division is made, so integer
    inputs are checked over the integers.
    """
    sums = _convolve_into([0] * len(coeffs), _terms([0, *lefschetz]), _terms(coeffs))
    return coeffs[0] == 1 and all(n * z + s == 0 for n, (z, s) in enumerate(zip(coeffs, sums)))


def exponent_product(exponents, order: int) -> PowerSeries:
    """The product prod_m (1 - q^m)^{e_m} for a finite map of integer exponents.

    Each factor is expanded by the binomial series
    (1 - q^m)^e = sum_j (-1)^j C(e, j) q^{mj}, where for e < 0 the
    coefficient is C(-e + j - 1, j).  A factor thus has floor(order/m) + 1
    sparse terms (m*j, c_j), and multiplying by it costs O(order^2 / m)
    integer operations.  The coefficients are integers throughout.
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
        factor = [(0, 1)]
        for j in range(1, order // m + 1):
            c = factor[-1][1] * (j - 1 - e) // j
            if c == 0:
                break
            factor.append((m * j, c))
        out = _convolve_into([0] * (order + 1), _terms(out), factor)
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        return Poly(_convolve_into(out, _terms(self.coeffs), _terms(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, e, Poly.one())

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

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a * (Fraction(1) / a.coeffs[-1])

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def render(self) -> str:
        """The polynomial in the variable t, as in 1 - 2*t + t^2."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rat_str(c))
                continue
            mono = "t" if k == 1 else f"t^{k}"
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
            (numerator, r), (denominator, s) = divmod(numerator, g), divmod(denominator, g)
            if not (r.is_zero and s.is_zero):
                raise ArithmeticError("polynomial division was expected to be exact")
        scale = Fraction(1) / denominator.coefficient(0)
        self.numerator = numerator * scale
        self.denominator = denominator * scale

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.numerator == other.numerator and self.denominator == other.denominator
        )

    def __repr__(self):
        return f"RationalFunction(({self.numerator.render()}) / ({self.denominator.render()}))"

    def to_json(self) -> dict:
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
        }
