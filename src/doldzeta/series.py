"""Truncated formal power series and polynomial arithmetic over exact rationals.

No floats ever enter a computation.  A :class:`PowerSeries` stores the
coefficients of q^0..q^N as one positive denominator and a tuple of integer
numerators in lowest terms, together with its truncation order N, so that
its products, inverses, powers, sums and substitutions run over ints and
its coefficients are rendered from them; `coeffs` gives them as a tuple of
`fractions.Fraction`s.  Arithmetic between series of different orders
truncates to the shorter order.  Equality compares the shared coefficient
prefix.

The module also provides dense univariate polynomials (:class:`Poly`),
stored the same way, rational functions with series expansion
(:class:`RationalFunction`), and packing of coefficient lists into
exponential generating functions.  :class:`PowerSeries` is the only series
type; the Poincaré series of a graded map is kept in rows of
T-coefficients by `graded`.

Every truncated product in the package, whatever its coefficient ring,
runs through one convolution kernel (:func:`_convolve_into`) and every
integer power through one square-and-multiply routine (:func:`_power`).
Every series division, a / b and the inverse as 1 / b, every
multiplication by a factor (1 - q^m)^e in :func:`exponent_product`, every
multiplication by a determinant factor in `graded` and every exact division
of its determinant kernel runs through one integer loop over a monic series
(:func:`_fold_monic`).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, mul, sub


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


_RATIONAL = (Fraction, int, str)  # the types `rat` reads


def rat(value, where: str = "a number in the input") -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.  A string
    that is not a rational, and any other value, is refused with a
    ValueError naming `where`."""
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
    raise ValueError(f"{where} must be a rational number, got {_shown(value)}")


def rat_str(value) -> str:
    """Render a rational as "p/q", or as a bare "p" when the denominator is 1.
    A numerator or denominator longer than Python's int-to-string limit is
    refused with a ValueError that names the limit."""
    value = rat(value)
    try:
        return str(value)
    except ValueError:
        raise _digit_limit_error("a number in the output", "output") from None


def _ratio_str(n: int, d: int) -> str:
    """The rational n/d, for a positive d, as `rat_str` renders it: "p/q" in
    lowest terms, or "p" when that denominator is 1."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
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


_INT = frozenset({int})


def _int_tuple(values, where: str) -> tuple:
    """The values as a tuple of ints, each read by `_integer`; `where` names
    the row.  A row of ints alone, the common case, is taken as it is after
    one look at the type of each entry (a bool is no int here)."""
    values = tuple(values)
    if _INT.issuperset(map(type, values)):
        return values
    return tuple(_integer(v, f"an entry of {where}") for v in values)


def _integers(values, where: str) -> tuple:
    """A JSON list of integers as a tuple of ints; `where` names the list."""
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list, got {type(values).__name__}")
    return _int_tuple(values, where)


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
    it, when it is the quotient's.  The top `first` entries, `first` the
    smallest shift, reach no entry and are not visited.  A monic divisor
    needs no division, which is what keeps the loop over the integers, and
    zero entries cost one test, which keeps sparse layouts cheap.
    """
    if not factor:
        return out
    size = len(out)
    last = size - factor[0][0]  # an entry from here up shifts past the end
    if divide:
        factor, steps = [(s, -c) for s, c in factor], range(last)
    else:
        steps = range(last - 1, -1, -1)
    for n in steps:
        x = out[n]
        if x:
            for s, c in factor:
                s += n
                if s >= size:
                    break
                out[s] += c * x
    return out


def _numerators(values) -> tuple:
    """The common denominator D of a list of rationals (Fractions or ints)
    and their numerators over it: D and the list of the integers D * v."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _lowest_terms(nums, den: int) -> tuple:
    """The positive denominator `den` and the integer numerators `nums`
    divided by their gcd, as the denominator and a tuple of numerators."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return den // g, tuple(x // g for x in nums)
    return den, tuple(nums)


def _pseudo_divide(a, b) -> tuple:
    """Divide the integer polynomial `a` by the nonzero `b` (numerators of
    t^0 up, `b` without trailing zeros) in the integers: the positive scale s
    and the integer lists quot and rem with s a = quot b + rem, rem of lower
    degree than b.  A step whose leading entry r is not a multiple of b's
    leading coefficient c first scales quot and rem by |c| / gcd(r, c)."""
    rem = list(a)
    d, lead = len(b) - 1, b[-1]
    quot = [0] * max(0, len(rem) - d)
    scale = 1
    for k in range(len(rem) - 1, d - 1, -1):
        r = rem[k]
        if not r:
            continue
        m = abs(lead) // gcd(r, lead)
        if m != 1:
            rem = [x * m for x in rem]
            quot = [x * m for x in quot]
            scale *= m
            r *= m
        q = quot[k - d] = r // lead
        for j, y in enumerate(b):
            rem[k - d + j] -= q * y
    return scale, quot, rem


def _primitive(nums) -> list:
    """The integer polynomial `nums` without its trailing zeros, divided by
    the gcd of its entries."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


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
    """A formal power series in q, truncated at q^order, with rational
    coefficients stored as one positive denominator `den` and the integer
    numerators `nums` of q^0..q^order, in lowest terms: the gcd of `den` and
    every numerator is 1, so an integral series has `den` 1.

    >>> s = PowerSeries([1, -1])            # 1 - q, order 1
    >>> s.inverse().coeffs
    (Fraction(1, 1), Fraction(1, 1))
    """

    __slots__ = ("den", "nums", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [rat(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        # over the lcm of the reduced denominators this is in lowest terms
        self.den, nums = _numerators(coeffs[: order + 1])
        self.nums = tuple(nums) + (0,) * (order + 1 - len(nums))
        self.order = order

    @classmethod
    def _trusted(cls, nums, den: int = 1) -> "PowerSeries":
        """The series of order len(nums) - 1 with the integer numerators
        `nums` over the positive denominator `den`, put in lowest terms."""
        series = object.__new__(cls)
        series.den, series.nums = _lowest_terms(nums, den)
        series.order = len(nums) - 1
        return series

    @property
    def coeffs(self) -> tuple:
        """The coefficients of q^0..q^order as Fractions, a new tuple each time."""
        d = self.den
        return tuple(Fraction(x, d) for x in self.nums)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def monomial(cls, k: int, order: int, coefficient=1) -> "PowerSeries":
        coeffs = [0] * (order + 1)
        if k <= order:
            coeffs[k] = coefficient
        return cls(coeffs, order=order)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient q^{k} beyond truncation order {self.order}")
        return Fraction(self.nums[k], self.den)

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series with fabricated zeros")
        return PowerSeries._trusted(self.nums[: order + 1], self.den)

    def _binop(self, other, op):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return PowerSeries._trusted(
            [op(x * a, y * b) for x, y in zip(self.nums[:n], other.nums[:n])], den
        )

    def __add__(self, other):
        return self._binop(other, add)

    def __sub__(self, other):
        return self._binop(other, sub)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            out = [0] * (min(self.order, other.order) + 1)
            _convolve_into(out, _terms(self.nums), _terms(other.nums))
            return PowerSeries._trusted(out, self.den * other.den)
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        c = rat(other)
        return PowerSeries._trusted([c.numerator * x for x in self.nums], self.den * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient by a series with a nonzero constant term, truncated
        at the shorter order N.

        With the numerators A_i of `self` over D and B_i of `other` over E,
        write B(q) = B_0 M(q / B_0) for the monic integer series
        M(x) = 1 + sum_{i>=1} B_i B_0^(i-1) x^i.  Then A(q) / B(q) is
        sum_n C_n q^n / B_0^(n+1), where the integers C_n are the
        coefficients of A(B_0 x) / M(x), found by one integer division.
        Over the denominator D B_0^(N+1) the numerator of the quotient's
        q^n coefficient is C_n E B_0^(N-n)."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        size = min(self.order, other.order) + 1
        b = other.nums[:size]
        b0 = b[0]
        if b0 == 0:
            raise NotAUnitError("series has zero constant term")
        powers = list(accumulate(repeat(b0, size), mul, initial=1))  # b0^0..b0^size
        factor = [(i, x * powers[i - 1]) for i, x in _terms(b) if i]
        out = _fold_monic(list(map(mul, self.nums[:size], powers)), factor, divide=True)
        top = powers[size]
        e = other.den if top > 0 else -other.den
        return PowerSeries._trusted(
            [x * e * p for x, p in zip(out, reversed(powers[:size]))], self.den * abs(top)
        )

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse up to the truncation order: the series 1
        divided by this one."""
        return PowerSeries._trusted([1] + [0] * self.order) / self

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            return (self ** (-exponent)).inverse()
        return _power(self, exponent, PowerSeries.one(self.order))

    def substitute_power(self, m: int) -> "PowerSeries":
        """The substitution q -> q^m; truncation order is preserved."""
        if m < 1:
            raise ValueError("substitution exponent must be >= 1")
        out = [0] * (self.order + 1)
        out[::m] = self.nums[: self.order // m + 1]
        return PowerSeries._trusted(out, self.den)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b = self.den, other.den
        return all(x * b == y * a for x, y in zip(self.nums, other.nums))

    def _strs(self) -> list:
        """The coefficients rendered as `rat_str` renders them."""
        d = self.den
        return [_ratio_str(x, d) for x in self.nums]

    def __repr__(self):
        return f"PowerSeries([{', '.join(self._strs())}], order={self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": self._strs()}

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
    sparse terms (m*j, c_j) with c_0 = 1, a monic series, and the product
    is multiplied by it in place by `_fold_monic`, at O(order^2 / m)
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
        factor, c = [], 1
        for j in range(1, order // m + 1):
            c = c * (j - 1 - e) // j
            if c == 0:
                break
            factor.append((m * j, c))
        _fold_monic(out, factor)
    return PowerSeries._trusted(out)


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
    d = series.den
    return [Fraction(x * factorial(k), d) for k, x in enumerate(series.nums)]


class Poly:
    """Dense univariate polynomial with rational coefficients, stored as one
    positive denominator `den` and the integer numerators `nums` of
    t^0..t^degree, in lowest terms and with no trailing zero; the zero
    polynomial has `den` 1 and no numerators."""

    __slots__ = ("den", "nums")

    def __init__(self, coeffs=()):
        coeffs = [rat(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # over the lcm of the reduced denominators this is in lowest terms
        self.den, nums = _numerators(coeffs)
        self.nums = tuple(nums)

    @classmethod
    def _trusted(cls, nums, den: int = 1) -> "Poly":
        """The polynomial with the integer numerators `nums` over the positive
        denominator `den`, trailing zeros dropped and put in lowest terms."""
        poly = object.__new__(cls)
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        poly.den, poly.nums = _lowest_terms(nums, den)
        return poly

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0..t^degree as Fractions, a new tuple each time."""
        d = self.den
        return tuple(Fraction(x, d) for x in self.nums)

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
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        a, b = self.nums, other.nums
        pad = len(a) - len(b)
        a, b = a + (0,) * -pad, b + (0,) * pad
        sa, sb = den // self.den, den // other.den
        return Poly._trusted([op(x * sa, y * sb) for x, y in zip(a, b)], den)

    def __add__(self, other):
        return self._binop(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, sub)

    def __neg__(self):
        return Poly._trusted([-x for x in self.nums], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        _convolve_into(out, _terms(self.nums), _terms(other.nums))
        return Poly._trusted(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, e, Poly.one())

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return Poly.constant(rat(other))

    def __call__(self, value) -> Fraction:
        """The value at a rational point: the numerators are summed by Horner's
        rule, over the ints at an integral point, and divided by `den` once."""
        value = rat(value)
        if value.denominator == 1:
            value = value.numerator
        acc = 0
        for c in reversed(self.nums):
            acc = acc * value + c
        return Fraction(acc, self.den)

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        scale, quot, rem = _pseudo_divide(self.nums, other.nums)
        den = self.den * scale
        return Poly._trusted([x * other.den for x in quot], den), Poly._trusted(rem, den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """The monic gcd of `a` and `b`, or zero when both are zero: Euclid's
        algorithm on primitive parts over the integers."""
        a, b = _primitive(a.nums), _primitive(b.nums)
        while b:
            a, b = b, _primitive(_pseudo_divide(a, b)[2])
        if not a:
            return Poly.zero()
        return Poly._trusted(a if a[-1] > 0 else [-x for x in a], abs(a[-1]))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.nums))

    def render(self) -> str:
        """The polynomial in the variable t, as in 1 - 2*t + t^2."""
        if self.is_zero:
            return "0"
        d = self.den
        parts = []
        for k, x in enumerate(self.nums):
            if x == 0:
                continue
            if k == 0:
                parts.append(_ratio_str(x, d))
                continue
            mono = "t" if k == 1 else f"t^{k}"
            if x == d:
                parts.append(mono)
            elif x == -d:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_ratio_str(x, d)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.render()})"

    def to_json(self) -> list:
        d = self.den
        return [_ratio_str(x, d) for x in self.nums]


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
