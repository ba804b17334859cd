"""Finite self-maps and the combinatorics of their iterates.

A self-map f of {0..n-1} has, for each m >= 1, some number D_m of periodic
orbits of least period m (its Dold indices); the fixed-point counts of the
iterates are L(f^k) = sum_{m | k} m * D_m, and Moebius inversion recovers
D_m from the L(f^k).  Both data determine the zeta function

    Z(f; q) = prod_m (1 - q^m)^{D_m} = exp(-sum_k L(f^k) q^k / k),

and this module computes the product and insists that it satisfies the
recurrence of the exponential.  Profiles not arising from an actual map
(negative entries included) are allowed wherever the arithmetic makes
sense.
"""

from __future__ import annotations

from .series import PowerSeries, exponent_product
from .series import _exp_form_holds, _field, _integer, _integers


class HorizonError(ValueError):
    """An operation needed data beyond the stored horizon."""


class NotRealizableError(ValueError):
    """Moebius inversion produced a non-integral orbit count."""


class InconsistentInputError(RuntimeError):
    """Lefschetz numbers and orbit counts fail to satisfy Moebius inversion."""


def divisors(n: int) -> list:
    if n < 1:
        raise ValueError("divisors are defined for n >= 1")
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("the Moebius function is defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


class FiniteSelfMap:
    """A self-map of {0..n-1}, given by its value table."""

    __slots__ = ("size", "mapping")

    def __init__(self, mapping, size=None):
        mapping = tuple(int(x) for x in mapping)
        if size is None:
            size = len(mapping)
        if size != len(mapping):
            raise ValueError("declared size disagrees with the value table")
        for x in mapping:
            if not 0 <= x < size:
                raise ValueError(f"value {x} outside 0..{size - 1}")
        self.size = size
        self.mapping = mapping

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteSelfMap":
        where = "a self-map"
        mapping = _integers(_field(obj, "map", where), f"{where}'s 'map'")
        return cls(mapping, size=_integer(_field(obj, "size", where), f"{where}'s 'size'"))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def compose(self, other: "FiniteSelfMap") -> "FiniteSelfMap":
        """self after other."""
        if self.size != other.size:
            raise ValueError("cannot compose maps of different sizes")
        return FiniteSelfMap([self.mapping[y] for y in other.mapping], size=self.size)

    def fixed_points(self) -> list:
        return [x for x in range(self.size) if self.mapping[x] == x]

    def cycle_lengths(self) -> list:
        """Lengths of the periodic orbits in the functional graph (tails ignored)."""
        state = [0] * self.size  # 0 unvisited, 1 on current path, 2 finished
        lengths = []
        for start in range(self.size):
            if state[start]:
                continue
            path = []
            x = start
            while state[x] == 0:
                state[x] = 1
                path.append(x)
                x = self.mapping[x]
            if state[x] == 1:
                lengths.append(len(path) - path.index(x))
            for y in path:
                state[y] = 2
        return lengths

    def __eq__(self, other):
        if not isinstance(other, FiniteSelfMap):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"FiniteSelfMap({list(self.mapping)})"


class _HorizonVector:
    """Integer values indexed 1..horizon, read and checked alike for the two
    kinds below; `noun` names the kind in messages."""

    __slots__ = ("horizon", "values")

    def __init__(self, values, horizon=None):
        values = tuple(_integer(v, f"an entry of {self.noun}") for v in values)
        if horizon is None:
            horizon = len(values)
        if horizon != len(values):
            raise ValueError("declared horizon disagrees with the value list")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self.values = values

    def to_json(self) -> dict:
        return {"horizon": self.horizon, "values": list(self.values)}

    @classmethod
    def from_json(cls, obj):
        """From `{"horizon": N, "values": [...]}` or a bare list of values."""
        if isinstance(obj, list):
            return cls(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"{cls.noun} must be a list or an object, got {type(obj).__name__}")
        horizon = _integer(_field(obj, "horizon", cls.noun), f"{cls.noun}'s 'horizon'")
        return cls(_field(obj, "values", cls.noun, list), horizon)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"{type(self).__name__}({list(self.values)})"


class DoldProfile(_HorizonVector):
    """The vector (D_1, ..., D_N) of periodic-orbit counts up to a horizon.

    Profiles from an actual map are nonnegative; abstract profiles (obtained
    by inverting a Lefschetz sequence) may have negative integer entries.
    """

    __slots__ = ()
    noun = "an orbit profile"

    def count(self, m: int) -> int:
        if not 1 <= m <= self.horizon:
            raise HorizonError(f"D_{m} requested beyond horizon {self.horizon}")
        return self.values[m - 1]


class LefschetzSequence(_HorizonVector):
    """The vector (L(f^1), ..., L(f^N)) of fixed-point counts of the iterates."""

    __slots__ = ()
    noun = "a Lefschetz sequence"

    def value(self, k: int) -> int:
        if not 1 <= k <= self.horizon:
            raise HorizonError(f"L(f^{k}) requested beyond horizon {self.horizon}")
        return self.values[k - 1]


def cycle_profile(f: FiniteSelfMap, horizon: int) -> DoldProfile:
    """D_m = number of periodic orbits of least period m, for m <= horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    counts = [0] * horizon
    for length in f.cycle_lengths():
        if length <= horizon:
            counts[length - 1] += 1
    return DoldProfile(counts)


def lefschetz_sequence(f: FiniteSelfMap, horizon: int) -> LefschetzSequence:
    """Fixed-point counts of f, f^2, ..., f^horizon by explicit iteration."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = []
    current = f
    for _ in range(horizon):
        values.append(len(current.fixed_points()))
        current = current.compose(f)
    return LefschetzSequence(values)


def dold_from_lefschetz(seq: LefschetzSequence) -> DoldProfile:
    """Moebius inversion D_m = (1/m) sum_{d | m} mu(m/d) L(f^d)."""
    counts = []
    for m in range(1, seq.horizon + 1):
        total = sum(mobius(m // d) * seq.value(d) for d in divisors(m))
        if total % m:
            raise NotRealizableError(
                f"sum_(d|{m}) mu({m}/d) L(f^d) = {total} is not divisible by {m}"
            )
        counts.append(total // m)
    return DoldProfile(counts)


def lefschetz_from_dold(profile: DoldProfile) -> LefschetzSequence:
    """The inverse relation L(f^k) = sum_{m | k} m * D_m."""
    values = [
        sum(m * profile.count(m) for m in divisors(k))
        for k in range(1, profile.horizon + 1)
    ]
    return LefschetzSequence(values)


def zeta_series(data, order: int, reduced: bool = False) -> PowerSeries:
    """The zeta function Z = prod_m (1-q^m)^{D_m} = exp(-sum L(f^k) q^k / k).

    Accepts either a DoldProfile or a LefschetzSequence, derives the other by
    (inverse) Moebius inversion, computes the product form from the orbit
    counts and insists, over the integers, that it is the exponential form
    of the Lefschetz numbers before returning it.  With `reduced`, D_1 is
    lowered by one (equivalently, the result is divided by 1 - q).
    """
    if isinstance(data, DoldProfile):
        profile = data
        seq = lefschetz_from_dold(profile)
    elif isinstance(data, LefschetzSequence):
        seq = data
        profile = dold_from_lefschetz(seq)
    else:
        raise TypeError("expected a DoldProfile or a LefschetzSequence")
    if profile.horizon < order:
        raise HorizonError(
            f"zeta to order {order} needs horizon >= {order}, got {profile.horizon}"
        )
    shift = 1 if reduced else 0
    exponents = {m: profile.count(m) for m in range(1, order + 1)}
    exponents[1] = exponents.get(1, 0) - shift
    product_form = exponent_product(exponents, order)
    lefschetz = [seq.value(k) - shift for k in range(1, order + 1)]
    if not _exp_form_holds([c.numerator for c in product_form.coeffs], lefschetz):
        raise InconsistentInputError(
            "orbit-product and exponential forms of the zeta function disagree"
        )
    return product_form


def zeta_of_map(f: FiniteSelfMap, order: int, reduced: bool = False) -> PowerSeries:
    """Zeta function of a finite self-map, straight from its cycle structure.
    The order-0 series is 1; its profile is still read to horizon 1."""
    return zeta_series(cycle_profile(f, max(order, 1)), order, reduced=reduced)
