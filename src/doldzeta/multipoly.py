"""Sparse multivariate polynomials in t_1..t_n over exact rationals.

The variable t_i carries weight i, so the weighted degree of a monomial
prod t_i^{e_i} is sum i*e_i.  Exponent vectors are dense fixed-width tuples
with the variable count declared at construction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .series import _numerators, _power, rat, rat_str


def _numerator_sum(numerators, point):
    """D*p at the point, for the numerators of MultiPoly._numerators: an int
    at an integer point."""
    total = 0
    for value, factors in numerators:
        for i, e in factors:
            value *= point[i] ** e
        total += value
    return total


def _product(a: dict, b: dict) -> dict:
    """The product of two polynomials held as {exponents: coefficient} dicts,
    over any ring: Fractions in MultiPoly, ints in the integer kernels of
    `identities`.  Zero coefficients are kept."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


class MultiPoly:
    """Polynomial in t_1..t_nvars with Fraction coefficients, stored sparsely."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = rat(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiPoly":
        """A polynomial from terms that are already valid: Fraction
        coefficients on exponent tuples of length nvars, as this class's own
        arithmetic makes them.  Nothing is checked; zero coefficients are
        dropped."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

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
        return cls(nvars, {tuple(exps): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_space(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable spaces")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        self._require_same_space(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly._trusted(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        return self + (-other)

    def __neg__(self):
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._require_same_space(other)
            return MultiPoly._trusted(self.nvars, _product(self.terms, other.terms))
        c = rat(other)
        return MultiPoly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / rat(scalar))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        return _power(self, e, MultiPoly.constant(1, self.nvars))

    def weighted_degree(self) -> int:
        """Max over monomials of sum i*e_i (0 for constants and for zero)."""
        if not self.terms:
            return 0
        return max(sum((i + 1) * e for i, e in enumerate(exps)) for exps in self.terms)

    def _numerators(self):
        """The common denominator D of the coefficients and the terms of D*p
        as integers: D and a list of (numerator, ((i, e), ...)) over the
        nonzero exponents e of t_{i+1}."""
        d, numerators = _numerators(self.terms.values())
        return d, [
            (x, tuple((i, e) for i, e in enumerate(exps) if e))
            for x, exps in zip(numerators, self.terms)
        ]

    def evaluate(self, point) -> Fraction:
        """Exact evaluation; `point` supplies values for t_1..t_nvars (or more).

        D*p is summed over the integer numerators and divided by D once;
        integral coordinates enter as ints, rational ones as Fractions."""
        point = [rat(v) for v in point]
        if len(point) < self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        point = [v.numerator if v.denominator == 1 else v for v in point]
        d, numerators = self._numerators()
        return Fraction(_numerator_sum(numerators, point), d)

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger variable space t_1..t_nvars."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable space")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._trusted(nvars, {e + pad: c for e, c in self.terms.items()})

    def resize(self, nvars: int) -> "MultiPoly":
        """Pad or (when the dropped variables are unused) trim the space."""
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        if nvars >= self.nvars:
            return self.extend(nvars)
        for exps in self.terms:
            if any(exps[nvars:]):
                raise ValueError(f"variable t_{nvars + 1} or beyond is actually used")
        return MultiPoly._trusted(nvars, {e[:nvars]: c for e, c in self.terms.items()})

    def substitute(self, images) -> "MultiPoly":
        """Substitute images[i-1] for t_i; all images share one target space."""
        images = list(images)
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images")
        if self.nvars == 0:
            return MultiPoly._trusted(0, self.terms)
        target = images[0].nvars
        if any(img.nvars != target for img in images):
            raise ValueError("substitution images live in different variable spaces")
        one = (0,) * target
        powers = [[MultiPoly._trusted(target, {one: Fraction(1)})] for _ in range(self.nvars)]
        result = MultiPoly.zero(target)
        for exps, c in self.terms.items():
            term = MultiPoly._trusted(target, {one: c})
            for i, e in enumerate(exps):
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[i])
                if e:
                    term = term * cache[e]
            result = result + term
        return result

    _ORDER_KEY = staticmethod(
        lambda exps: (sum((i + 1) * e for i, e in enumerate(exps)), exps[::-1])
    )

    def leading_term(self):
        """Largest (exponents, coefficient) under the graded top-variable order.

        The order grades first by weighted degree and then compares exponent
        vectors lexicographically from the highest variable downwards, so the
        leading monomial of a product is the product of leading monomials.
        """
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=MultiPoly._ORDER_KEY)
        return exps, self.terms[exps]

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars == other.nvars:
            return self.terms == other.terms
        n = max(self.nvars, other.nvars)
        return self.extend(n).terms == other.extend(n).terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: MultiPoly._ORDER_KEY(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
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
