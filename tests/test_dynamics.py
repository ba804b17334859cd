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
    iterate_dold_profile,
    lefschetz_from_dold,
    lefschetz_sequence,
    mobius,
    zeta_of_map,
    zeta_series,
)
from doldzeta.series import PowerSeries, RationalFunction, Poly

from conftest import seeded_maps


def ints(series):
    return [int(c) for c in series.coeffs]


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


class TestCycleProfile:
    def test_identity(self):
        p = cycle_profile(FiniteSelfMap.identity(3), 4)
        assert p.values == (3, 0, 0, 0)

    def test_three_cycle(self):
        p = cycle_profile(FiniteSelfMap([1, 2, 0]), 4)
        assert p.values == (0, 0, 1, 0)

    def test_tail_is_ignored(self):
        # 0 -> 1, 1 -> 1, 2 -> 2: cycles {1} and {2}; 0 is a tail
        f = FiniteSelfMap([1, 1, 2])
        assert cycle_profile(f, 3).values == (2, 0, 0)
        # Moebius inversion of the direct fixed-point counts agrees
        assert dold_from_lefschetz(lefschetz_sequence(f, 3)).values == (2, 0, 0)

    def test_empty_map(self):
        assert cycle_profile(FiniteSelfMap([]), 2).values == (0, 0)


class TestLefschetzSequence:
    def test_identity(self):
        assert lefschetz_sequence(FiniteSelfMap.identity(4), 3).values == (4, 4, 4)

    def test_four_cycle(self):
        f = FiniteSelfMap.from_cycle_lengths([4])
        assert lefschetz_sequence(f, 4).values == (0, 0, 0, 4)

    def test_two_cycle_plus_fixed_point(self):
        f = FiniteSelfMap.from_cycle_lengths([2, 1])
        assert lefschetz_sequence(f, 4).values == (1, 3, 1, 3)


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
        assert d == cycle_profile(FiniteSelfMap.from_cycle_lengths([2, 1]), 4)

    def test_non_realizable(self):
        with pytest.raises(NotRealizableError):
            dold_from_lefschetz(LefschetzSequence([0, 1]))

    def test_inverse_relation(self):
        assert lefschetz_from_dold(DoldProfile([2, 0, 0])).values == (2, 2, 2)
        assert lefschetz_from_dold(DoldProfile([0, 1, 0, 0])).values == (0, 2, 0, 2)
        d = DoldProfile([-1, -1, -2])
        assert lefschetz_from_dold(d).values == tuple(1 - 2 ** k for k in (1, 2, 3))

    def test_round_trip_on_random_maps(self):
        for f in seeded_maps(20250809, 200, 10):
            horizon = max(f.size, 1)
            seq = lefschetz_sequence(f, horizon)
            assert dold_from_lefschetz(seq) == cycle_profile(f, horizon)

    def test_congruence_of_iterate_counts(self):
        for f in seeded_maps(4242, 60, 9):
            horizon = max(f.size, 1)
            seq = lefschetz_sequence(f, horizon)
            for m in range(1, horizon + 1):
                total = sum(mobius(m // d) * seq.value(d) for d in divisors(m))
                assert total % m == 0


class TestIterateProfile:
    def test_identity_iterate(self):
        d = DoldProfile([1, 2, 0, 1])
        assert iterate_dold_profile(d, 1) == d

    def test_four_cycle_squared(self):
        d = DoldProfile([0, 0, 0, 1])
        assert iterate_dold_profile(d, 2).values == (0, 2)

    def test_six_cycle_fourth_power(self):
        d = DoldProfile([0] * 5 + [1] + [0] * 6)
        out = iterate_dold_profile(d, 4)
        assert out.count(3) == 2

    def test_horizon_guard(self):
        with pytest.raises(HorizonError):
            iterate_dold_profile(DoldProfile([1]), 2)

    def test_matches_brute_force_on_random_maps(self):
        rng = random.Random(99)
        for f in seeded_maps(99, 60, 8, min_size=1):
            j = rng.randint(1, 4)
            horizon = f.size * j if f.size else j
            transported = iterate_dold_profile(cycle_profile(f, horizon), j)
            direct = cycle_profile(f.iterate(j), horizon // j)
            assert transported == direct


class TestZeta:
    def test_identity_map(self):
        # three fixed points: (1 - q)^3
        z = zeta_of_map(FiniteSelfMap.identity(3), 3)
        assert ints(z) == [1, -3, 3, -1]

    def test_sphere_lefschetz_data(self):
        z = zeta_series(LefschetzSequence([1 - 2 ** k for k in range(1, 5)]), 3)
        expected = RationalFunction(Poly([1, -1]), Poly([1, -2])).expand(3)
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
        for f in seeded_maps(5, 30, 7, min_size=1):
            order = f.size
            reduced = zeta_series(cycle_profile(f, order), order, reduced=True)
            plain = zeta_series(cycle_profile(f, order), order)
            one_minus_q = PowerSeries([1, -1], order=order)
            assert reduced * one_minus_q == plain

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
    assert DoldProfile([2, 0, 1]).is_realizable()
    assert not DoldProfile([-1, -1, -2]).is_realizable()


class TestJson:
    def test_map_round_trip(self):
        f = FiniteSelfMap([1, 0, 3, 3])
        assert FiniteSelfMap.from_json(f.to_json()) == f

    def test_profile_round_trip(self):
        d = DoldProfile([1, -1, 2])
        assert DoldProfile.from_json(d.to_json()) == d

    def test_sequence_round_trip(self):
        s = LefschetzSequence([5, 1, 2])
        assert LefschetzSequence.from_json(s.to_json()) == s
