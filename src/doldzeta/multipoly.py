"""Sparse multivariate polynomials in t_1..t_n over exact rationals.

The variable t_i carries weight i, so the weighted degree of a monomial
prod t_i^{e_i} is sum i*e_i.  Exponent vectors are dense fixed-width tuples
with the variable count declared at construction.  A polynomial is stored
as one positive denominator D and the integer numerators of D*p, in lowest
terms, so every operation runs over ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .series import _integer, _numerators, _power, rat, rat_str


def _sparse(nums: dict) -> list:
    """The terms of D*p as a list of (numerator, ((i, e), ...)) over the
    nonzero exponents e of t_{i+1}, for `_numerator_sum`."""
    return [(c, tuple((i, e) for i, e in enumerate(exps) if e)) for exps, c in nums.items()]


def _numerator_sum(terms, point):
    """D*p at the point, over the terms of `_sparse`: an int at an int point."""
    total = 0
    for value, factors in terms:
        for i, e in factors:
            value *= point[i] ** e
        total += value
    return total


def _product(a: dict, b: dict, out=None) -> dict:
    """The product of two polynomials held as {exponents: int} dicts, added
    into `out` when it is given.  Zero coefficients are kept."""
    if out is None:
        out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


class MultiPoly:
    """Polynomial in t_1..t_nvars with rational coefficients, stored sparsely
    as the integer numerators `nums` ({exponents: int}) over one positive
    denominator `den`.  The gcd of `den` and every numerator is 1, and the
    zero polynomial has `den` 1, so equal polynomials store equal data."""

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        clean = {}
        for exps, c in (terms or {}).items():
            c = rat(c)
            if c == 0:
                continue
            exps = tuple(_integer(e, "an exponent") for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        # over the lcm of the reduced denominators this is in lowest terms
        self.den, numerators = _numerators(clean.values())
        self.nvars, self.nums = nvars, dict(zip(clean, numerators))

    @classmethod
    def _trusted(cls, nvars: int, nums: dict, den: int = 1) -> "MultiPoly":
        """The polynomial with the {exponents: int} numerators over the
        positive denominator `den`, as this class's own arithmetic makes
        them: exponent tuples of length nvars are not checked.  Zero
        numerators are dropped and the result is put in lowest terms."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        nums = {e: c for e, c in nums.items() if c}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        poly.den = den
        poly.nums = nums
        return poly

    @property
    def terms(self) -> dict:
        """The coefficients as {exponents: Fraction}, a new dict each time."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        """The variable t_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"t_{i} is not among t_1..t_{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def _require_same_space(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable spaces")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        self._require_same_space(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {e: c * a for e, c in self.nums.items()}
        for exps, c in other.nums.items():
            out[exps] = out.get(exps, 0) + c * b
        return MultiPoly._trusted(self.nvars, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        return self + (-other)

    def __neg__(self):
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._require_same_space(other)
            nums, den = _product(self.nums, other.nums), self.den * other.den
        else:
            c = rat(other)
            nums, den = {e: c.numerator * v for e, v in self.nums.items()}, self.den * c.denominator
        return MultiPoly._trusted(self.nvars, nums, den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / rat(scalar))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        return _power(self, e, MultiPoly.constant(1, self.nvars))

    def weighted_degree(self) -> int:
        """Max over monomials of sum i*e_i (0 for constants and for zero)."""
        if not self.nums:
            return 0
        return max(sum((i + 1) * e for i, e in enumerate(exps)) for exps in self.nums)

    def evaluate(self, point) -> Fraction:
        """Exact evaluation; `point` supplies values for t_1..t_nvars (or more).

        D*p is summed over the integer numerators and divided by D once;
        integral coordinates enter as ints, rational ones as Fractions."""
        point = [rat(v) for v in point]
        if len(point) < self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        point = [v.numerator if v.denominator == 1 else v for v in point]
        return Fraction(_numerator_sum(_sparse(self.nums), point), self.den)

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger variable space t_1..t_nvars."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable space")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._trusted(nvars, {e + pad: c for e, c in self.nums.items()}, self.den)

    def resize(self, nvars: int) -> "MultiPoly":
        """Pad or (when the dropped variables are unused) trim the space."""
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        if nvars >= self.nvars:
            return self.extend(nvars)
        for exps in self.nums:
            if any(exps[nvars:]):
                raise ValueError(f"variable t_{nvars + 1} or beyond is actually used")
        return MultiPoly._trusted(nvars, {e[:nvars]: c for e, c in self.nums.items()}, self.den)

    def substitute(self, images) -> "MultiPoly":
        """Substitute images[i-1] for t_i; all images share one target space.

        With d_i the denominator of image i and T_i the top exponent of t_i,
        every term is summed into one numerator dict over the denominator
        D * prod_i d_i^T_i: a term with exponents e takes the numerators of
        each image's e_i-th power and the cofactor prod_i d_i^(T_i - e_i).
        The sum is put in lowest terms once."""
        images = list(images)
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images")
        if self.nvars == 0:
            return MultiPoly._trusted(0, self.nums, self.den)
        target = images[0].nvars
        if any(img.nvars != target for img in images):
            raise ValueError("substitution images live in different variable spaces")
        one = (0,) * target
        tops = [max(column, default=0) for column in zip(*self.nums)]
        dens = [img.den for img in images]
        den = self.den
        for d, top in zip(dens, tops):
            den *= d ** top
        # powers[i][e]: the numerators of image i to the e, over d_i^e
        powers = [[{one: 1}, img.nums] for img in images]
        out = {}
        for exps, c in self.nums.items():
            factors = []
            for i, e in enumerate(exps):
                c *= dens[i] ** (tops[i] - e)
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(_product(cache[-1], cache[1]))
                    factors.append(cache[e])
            if not factors:
                out[one] = out.get(one, 0) + c
                continue
            term = {one: c}
            for factor in factors[:-1]:
                term = _product(term, factor)
            _product(term, factors[-1], out)
        return MultiPoly._trusted(target, out, den)

    _ORDER_KEY = staticmethod(
        lambda exps: (sum((i + 1) * e for i, e in enumerate(exps)), exps[::-1])
    )

    def leading_term(self):
        """Largest (exponents, coefficient) under the graded top-variable order.

        The order grades first by weighted degree and then compares exponent
        vectors lexicographically from the highest variable downwards, so the
        leading monomial of a product is the product of leading monomials.
        """
        if not self.nums:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.nums, key=MultiPoly._ORDER_KEY)
        return exps, Fraction(self.nums[exps], self.den)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars == other.nvars:
            return self.den == other.den and self.nums == other.nums
        n = max(self.nvars, other.nvars)
        return self.extend(n) == other.extend(n)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: MultiPoly._ORDER_KEY(kv[0]), reverse=True)

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"t{i + 1}")
                elif e > 1:
                    factors.append(f"t{i + 1}^{e}")
            if not factors:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{rat_str(c)}*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> dict:
        return {
            "variables": self.nvars,
            "terms": [
                {"exponents": list(e), "coeff": rat_str(c)}
                for e, c in self.sorted_terms()
            ],
        }
