"""Finite self-maps: orbit profiles, Moebius inversion, zeta functions."""

import random

import pytest

from doldzeta import (
    DoldProfile,
    FiniteSelfMap,
    HorizonError,
    InconsistentInputError,
    LefschetzSequence,
    NotRealizableError,
    cycle_profile,
    divisors,
    dold_from_lefschetz,
    lefschetz_from_dold,
    mobius,
    zeta_of_map,
    zeta_series,
)
from doldzeta.identities import _over_one_minus_q, iterate_profile_images
from doldzeta.series import PowerSeries, RationalFunction, Poly

from conftest import expand, identity_map, seeded_maps
from dynamics_reference import iterate, reference_lefschetz_sequence


def map_from_cycle_lengths(lengths):
    """Disjoint cycles of the given lengths, on consecutive points."""
    mapping = []
    for length in lengths:
        start = len(mapping)
        mapping.extend(start + (i + 1) % length for i in range(length))
    return FiniteSelfMap(mapping)


def ints(series):
    return [int(c) for c in series.coeffs]


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


class TestCycleProfile:
    def test_identity(self):
        p = cycle_profile(identity_map(3), 4)
        assert p.values == (3, 0, 0, 0)

    def test_three_cycle(self):
        p = cycle_profile(FiniteSelfMap([1, 2, 0]), 4)
        assert p.values == (0, 0, 1, 0)

    def test_tail_is_ignored(self):
        # 0 -> 1, 1 -> 1, 2 -> 2: cycles {1} and {2}; 0 is a tail
        f = FiniteSelfMap([1, 1, 2])
        assert cycle_profile(f, 3).values == (2, 0, 0)
        # Moebius inversion of the direct fixed-point counts agrees
        assert dold_from_lefschetz(reference_lefschetz_sequence(f, 3)).values == (2, 0, 0)

    def test_empty_map(self):
        assert cycle_profile(FiniteSelfMap([]), 2).values == (0, 0)


class TestLefschetzSequence:
    def test_identity(self):
        assert lefschetz_from_dold(cycle_profile(identity_map(4), 3)).values == (4, 4, 4)

    def test_four_cycle(self):
        f = map_from_cycle_lengths([4])
        assert lefschetz_from_dold(cycle_profile(f, 4)).values == (0, 0, 0, 4)

    def test_two_cycle_plus_fixed_point(self):
        f = map_from_cycle_lengths([2, 1])
        assert lefschetz_from_dold(cycle_profile(f, 4)).values == (1, 3, 1, 3)


class TestMoebiusInversion:
    def test_three_cycle_data(self):
        d = dold_from_lefschetz(LefschetzSequence([0, 0, 3, 0, 0, 3]))
        assert d.values == (0, 0, 1, 0, 0, 0)

    def test_sphere_data_by_hand(self):
        d = dold_from_lefschetz(LefschetzSequence([1 - 2 ** k for k in (1, 2, 3)]))
        assert d.values == (-1, -1, -2)

    def test_two_cycle_plus_fixed_point(self):
        d = dold_from_lefschetz(LefschetzSequence([1, 3, 1, 3]))
        assert d.values == (1, 1, 0, 0)
        assert d == cycle_profile(map_from_cycle_lengths([2, 1]), 4)

    def test_non_realizable(self):
        with pytest.raises(NotRealizableError):
            dold_from_lefschetz(LefschetzSequence([0, 1]))

    def test_inverse_relation(self):
        assert lefschetz_from_dold(DoldProfile([2, 0, 0])).values == (2, 2, 2)
        assert lefschetz_from_dold(DoldProfile([0, 1, 0, 0])).values == (0, 2, 0, 2)
        d = DoldProfile([-1, -1, -2])
        assert lefschetz_from_dold(d).values == tuple(1 - 2 ** k for k in (1, 2, 3))

    def test_sieves_match_the_divisor_sums(self):
        # the Moebius and divisor sums that the sieves over multiples replaced
        rng = random.Random(20261019)
        for _ in range(300):
            horizon = rng.randint(1, 40)
            profile = DoldProfile([rng.randint(-5, 5) for _ in range(horizon)])
            expected = [sum(m * profile.count(m) for m in divisors(k)) for k in range(1, horizon + 1)]
            assert lefschetz_from_dold(profile).values == tuple(expected)
            values = list(expected)
            if rng.random() < 0.5:  # not realizable from some period on, or not at all
                values[rng.randrange(horizon)] += rng.choice((-1, 1)) * rng.randint(1, 3)
            sums = [sum(mobius(m // d) * values[d - 1] for d in divisors(m)) for m in range(1, horizon + 1)]
            bad = next((m for m, total in enumerate(sums, 1) if total % m), None)
            if bad is None:
                counts = tuple(total // m for m, total in enumerate(sums, 1))
                assert dold_from_lefschetz(LefschetzSequence(values)).values == counts
            else:
                message = f"sum_(d|{bad}) mu({bad}/d) L(f^d) = {sums[bad - 1]} is not divisible by {bad}"
                with pytest.raises(NotRealizableError) as refused:
                    dold_from_lefschetz(LefschetzSequence(values))
                assert str(refused.value) == message

    def test_round_trip_on_random_maps(self):
        for f in seeded_maps(20250809, 200, 10):
            horizon = max(f.size, 1)
            seq = reference_lefschetz_sequence(f, horizon)
            assert dold_from_lefschetz(seq) == cycle_profile(f, horizon)

    def test_lefschetz_sequence_matches_iteration(self):
        # maps with tails, every horizon up to twice the size
        tails = 0
        for f in seeded_maps(20261021, 150, 10, min_size=1):
            for horizon in range(1, 2 * f.size + 1):
                expected = reference_lefschetz_sequence(f, horizon)
                assert lefschetz_from_dold(cycle_profile(f, horizon)) == expected
            tails += sum(f.cycle_lengths()) < f.size
        assert tails > 100

    def test_congruence_of_iterate_counts(self):
        for f in seeded_maps(4242, 60, 9):
            horizon = max(f.size, 1)
            seq = reference_lefschetz_sequence(f, horizon)
            for m in range(1, horizon + 1):
                total = sum(mobius(m // d) * seq.value(d) for d in divisors(m))
                assert total % m == 0


def transported_profile(profile, j):
    """The orbit counts of the j-th iterate: the iterate substitution images,
    evaluated at the orbit counts of the map itself."""
    horizon = profile.horizon // j
    images = iterate_profile_images(j, horizon, horizon * j)
    return DoldProfile([p.evaluate(profile.values[: horizon * j]) for p in images])


class TestIterateProfile:
    def test_identity_iterate(self):
        d = DoldProfile([1, 2, 0, 1])
        assert transported_profile(d, 1) == d

    def test_four_cycle_squared(self):
        d = DoldProfile([0, 0, 0, 1])
        assert transported_profile(d, 2).values == (0, 2)

    def test_six_cycle_fourth_power(self):
        d = DoldProfile([0] * 5 + [1] + [0] * 6)
        out = transported_profile(d, 4)
        assert out.count(3) == 2

    def test_horizon_guard(self):
        # one orbit count cannot be transported to the square's
        with pytest.raises(ValueError):
            iterate_profile_images(2, 1, 1)

    def test_matches_brute_force_on_random_maps(self):
        rng = random.Random(99)
        for f in seeded_maps(99, 60, 8, min_size=1):
            j = rng.randint(1, 4)
            horizon = f.size * j if f.size else j
            transported = transported_profile(cycle_profile(f, horizon), j)
            direct = cycle_profile(iterate(f, j), horizon // j)
            assert transported == direct


class TestZeta:
    def test_identity_map(self):
        # three fixed points: (1 - q)^3
        z = zeta_of_map(identity_map(3), 3)
        assert ints(z) == [1, -3, 3, -1]
        # the order-0 series is 1, reduced or not
        assert zeta_of_map(identity_map(3), 0) == PowerSeries.one(0)
        assert _over_one_minus_q(zeta_of_map(identity_map(3), 0)) == PowerSeries.one(0)

    def test_sphere_lefschetz_data(self):
        z = zeta_series(LefschetzSequence([1 - 2 ** k for k in range(1, 5)]), 3)
        expected = expand(RationalFunction(Poly([1, -1]), Poly([1, -2])), 3)
        assert z == expected

    def test_conjugation_data(self):
        z = zeta_series(LefschetzSequence([2, 0, 2, 0]), 4)
        sq = PowerSeries([1, -2, 1], order=4)
        even = PowerSeries([1, 0, -1], order=4)
        assert z == sq * even.inverse()

    def test_dual_form_agreement_on_abstract_profiles(self):
        rng = random.Random(7)
        for _ in range(40):
            values = [rng.randint(-5, 5) for _ in range(6)] + [0] * 6
            zeta_series(DoldProfile(values), 12)  # raises on any mismatch

    def test_reduced_relation(self):
        # the zeta function of the profile with D_1 lowered by one, times 1 - q
        for f in seeded_maps(5, 30, 7, min_size=1):
            order = f.size
            profile = cycle_profile(f, order)
            lowered = DoldProfile([profile.count(1) - 1, *profile.values[1:]])
            plain = zeta_series(profile, order)
            one_minus_q = PowerSeries([1, -1], order=order)
            assert zeta_series(lowered, order) * one_minus_q == plain

    def test_dividing_by_one_minus_q_lowers_the_fixed_orbit_count(self):
        # on profiles of both signs and on Lefschetz numbers, which lowering
        # D_1 lowers by one each
        rng = random.Random(20261021)
        cases = 0
        for _ in range(120):
            order = rng.randint(1, 24)
            values = [rng.randint(-4, 4) for _ in range(order)]
            profile = DoldProfile(values)
            lowered = DoldProfile([values[0] - 1, *values[1:]])
            seq = lefschetz_from_dold(profile)
            want = zeta_series(lowered, order)
            assert _over_one_minus_q(zeta_series(profile, order)) == want
            assert _over_one_minus_q(zeta_series(seq, order)) == want
            assert zeta_series(LefschetzSequence([v - 1 for v in seq.values]), order) == want
            cases += min(values) < 0
        assert cases > 100

    def test_inconsistent_data_trips_the_dual_form_check(self, monkeypatch):
        import doldzeta.dynamics as dynamics

        real = dynamics.lefschetz_from_dold

        def tampered(profile):
            values = list(real(profile).values)
            values[-1] += 1
            return LefschetzSequence(values)

        monkeypatch.setattr(dynamics, "lefschetz_from_dold", tampered)
        with pytest.raises(InconsistentInputError):
            zeta_series(DoldProfile([2, 1, 0, 1]), 4)

    def test_horizon_guard(self):
        with pytest.raises(HorizonError):
            zeta_series(DoldProfile([1, 0]), 5)


def test_realizability_predicate():
    # a finite map has nonnegative orbit counts; the degree-2 map of S^1 has
    # a negative Dold number, so no finite map realizes its profile
    assert min(cycle_profile(FiniteSelfMap([1, 2, 0, 0, 3]), 6).values) >= 0
    sphere = dold_from_lefschetz(LefschetzSequence([1 - 2 ** k for k in (1, 2, 3)]))
    assert min(sphere.values) < 0


class TestJson:
    def test_non_integer_map_values_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match="a value of a self-map must be an integer, got 1.9"):
            FiniteSelfMap([1.9, 0])
        assert FiniteSelfMap([1.0, 0]) == FiniteSelfMap([1, 0])

    def test_map_round_trip(self):
        f = FiniteSelfMap.from_json({"size": 4, "map": [1, 0, 3, 3]})
        assert f == FiniteSelfMap([1, 0, 3, 3]) and f.size == 4

    def test_profile_round_trip(self):
        d = DoldProfile([1, -1, 2])
        assert DoldProfile.from_json(d.to_json()) == d

    def test_sequence_round_trip(self):
        s = LefschetzSequence([5, 1, 2])
        assert LefschetzSequence.from_json(s.to_json()) == s
