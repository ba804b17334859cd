"""Graded endomorphisms: determinant formulas against the signed trace oracle."""

import random
from fractions import Fraction

import pytest

from doldzeta import (
    GradedEndomorphism,
    PowerSeries,
    bareiss_determinant,
    characteristic_rational_function,
    det_one_minus_t,
    graded_lefschetz_numbers,
    graded_zeta,
    koszul_invariant_trace,
    poincare_generating,
)
from doldzeta.graded import _koszul_sign
from doldzeta.series import Poly

from conftest import at_one, expand


def direct_sum(a, b):
    """The block-diagonal sum of two graded endomorphisms, degree by degree."""
    out = {}
    for degree in set(a.matrices) | set(b.matrices):
        left = a.matrices.get(degree, ())
        right = b.matrices.get(degree, ())
        out[degree] = [tuple(row) + (0,) * len(right) for row in left]
        out[degree] += [(0,) * len(left) + tuple(row) for row in right]
    return GradedEndomorphism(out)


def signed_permutation_matrix(sigma, degrees):
    """The action of a permutation on tensor-power basis tuples, as a map
    source index-tuple -> (target index-tuple, Koszul sign)."""
    k = len(sigma)
    inv = [0] * k
    for pos, img in enumerate(sigma):
        inv[img] = pos

    def act(e):
        source_degrees = [degrees[b] for b in e]
        target = tuple(e[inv[j]] for j in range(k))
        return target, _koszul_sign(sigma, source_degrees)

    return act


def random_endomorphism(rng, total_dim=4, max_degree=3, span=2):
    dims = []
    remaining = rng.randint(1, total_dim)
    while remaining:
        d = rng.randint(1, remaining)
        dims.append(d)
        remaining -= d
    degrees = sorted(rng.sample(range(max_degree + 1), len(dims)))
    matrices = {}
    for degree, dim in zip(degrees, dims):
        matrices[degree] = [
            [rng.randint(-span, span) for _ in range(dim)] for _ in range(dim)
        ]
    return GradedEndomorphism(matrices)


class TestDeterminants:
    def test_bareiss_matches_cofactor_on_numbers(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[Poly.constant(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            got = bareiss_determinant(rows)
            want = _cofactor_det([[r.coefficient(0) for r in row] for row in rows])
            assert got == Poly.constant(want)

    def test_det_one_minus_t_on_diagonal(self):
        rows = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
        assert det_one_minus_t(rows) == Poly([1, -2]) * Poly([1, -3])

    def test_det_one_minus_t_jordan_block(self):
        rows = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
        assert det_one_minus_t(rows) == Poly([1, -1]) ** 2


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _cofactor_det(minor)
    return total


class TestCharacteristicFunction:
    def test_single_fixed_point(self):
        endo = GradedEndomorphism({0: [[1]]})
        rf = characteristic_rational_function(endo)
        assert rf.numerator == Poly([1])
        assert rf.denominator == Poly([1, -1])

    def test_odd_sphere(self):
        endo = GradedEndomorphism({0: [[1]], 3: [[2]]})
        rf = characteristic_rational_function(endo)
        assert rf.numerator == Poly([1, -2])
        assert rf.denominator == Poly([1, -1])
        # the reciprocal expansion is the zeta function (1-q)(1-2q)^{-1}
        zeta = graded_zeta(endo, 4)
        product = expand(rf, 4) * zeta
        assert product == PowerSeries.one(4)

    def test_torus_circle(self):
        endo = GradedEndomorphism({0: [[1]], 1: [[1]]})
        rf = characteristic_rational_function(endo)
        assert rf.numerator == Poly([1]) and rf.denominator == Poly([1])
        assert graded_lefschetz_numbers(endo, 4) == [0, 0, 0, 0]


class TestZeta:
    def test_identity_block(self):
        endo = GradedEndomorphism({0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        assert [int(c) for c in graded_zeta(endo, 3).coeffs] == [1, -3, 3, -1]

    def test_circle_conjugation(self):
        endo = GradedEndomorphism({0: [[1]], 1: [[-1]]})
        assert graded_lefschetz_numbers(endo, 4) == [2, 0, 2, 0]
        zeta = graded_zeta(endo, 4)
        expected = PowerSeries([1, -2, 1], order=4) * PowerSeries([1, 0, -1], order=4).inverse()
        assert zeta == expected

    def test_empty(self):
        endo = GradedEndomorphism({})
        assert graded_zeta(endo, 3) == PowerSeries.one(3)
        assert graded_lefschetz_numbers(endo, 2) == [0, 0]

    def test_dual_form_agreement_random(self):
        rng = random.Random(5)
        for _ in range(25):
            graded_zeta(random_endomorphism(rng, total_dim=3), 8)  # raises on mismatch


class TestPoincareGenerating:
    def test_even_line(self):
        endo = GradedEndomorphism({0: [[2]]})
        p = poincare_generating(endo, 3)
        assert [c(1) for c in p.coeffs] == [1, 2, 4, 8]

    def test_odd_line_truncates(self):
        endo = GradedEndomorphism({1: [["1/2"]]})
        p = poincare_generating(endo, 3)
        assert p.coeffs[0] == Poly([1])
        assert p.coeffs[1] == Poly([0, Fraction(-1, 2)])
        assert p.coeffs[2].is_zero and p.coeffs[3].is_zero
        assert koszul_invariant_trace(endo, 2).is_zero

    def test_odd_sphere_at_t_one(self):
        endo = GradedEndomorphism({0: [[1]], 3: [[2]]})
        p = poincare_generating(endo, 5)
        assert at_one(p) * graded_zeta(endo, 5) == PowerSeries.one(5)

    def test_multiplicative_under_direct_sum(self):
        rng = random.Random(6)
        for _ in range(10):
            a = random_endomorphism(rng, total_dim=2)
            b = random_endomorphism(rng, total_dim=2)
            left = poincare_generating(direct_sum(a, b), 5)
            right = poincare_generating(a, 5) * poincare_generating(b, 5)
            assert left == right


class TestKoszulOracle:
    def test_k_one_is_alternating_trace(self):
        endo = GradedEndomorphism({0: [[1, 2], [0, 1]], 1: [[5]]})
        got = koszul_invariant_trace(endo, 1)
        assert got == Poly([2, -5])

    def test_even_line_cube(self):
        endo = GradedEndomorphism({0: [[3]]})
        assert koszul_invariant_trace(endo, 3) == Poly([27])

    def test_matches_determinant_formula(self):
        rng = random.Random(7)
        for _ in range(12):
            endo = random_endomorphism(rng)
            p = poincare_generating(endo, 4)
            for k in range(5):
                assert koszul_invariant_trace(endo, k) == p.coeffs[k]

    def test_sign_convention(self):
        # swapping two odd factors costs a sign; even factors are free
        assert _koszul_sign((1, 0), (1, 1)) == -1
        assert _koszul_sign((1, 0), (0, 1)) == 1
        assert _koszul_sign((2, 1, 0), (1, 1, 1)) == -1

    def test_signed_action_is_a_representation(self):
        rng = random.Random(13)
        from itertools import product

        for _ in range(20):
            k = rng.randint(2, 4)
            dim = rng.randint(1, 3)
            degrees = [rng.randint(0, 3) for _ in range(dim)]
            sigma = tuple(rng.sample(range(k), k))
            tau = tuple(rng.sample(range(k), k))
            composed = tuple(sigma[tau[i]] for i in range(k))
            act_sigma = signed_permutation_matrix(sigma, degrees)
            act_tau = signed_permutation_matrix(tau, degrees)
            act_comp = signed_permutation_matrix(composed, degrees)
            for e in product(range(dim), repeat=k):
                mid, s1 = act_tau(e)
                out, s2 = act_sigma(mid)
                want, s = act_comp(e)
                assert out == want and s1 * s2 == s

    def test_size_guard(self):
        endo = GradedEndomorphism({0: [[1] * 8 for _ in range(8)]})
        with pytest.raises(ValueError):
            koszul_invariant_trace(endo, 8)


def test_json_round_trip():
    obj = {"degrees": {"0": [["1", "1/2"], ["0", "2"]], "2": [["-1"]]}}
    endo = GradedEndomorphism({0: [[1, Fraction(1, 2)], [0, 2]], 2: [[-1]]})
    assert GradedEndomorphism.from_json(obj) == endo


def reference_trace_of_power(rows, k):
    """tr(A^k) from scratch: k products starting at the identity."""
    n = len(rows)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [[sum(power[i][l] * rows[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
    return sum(power[i][i] for i in range(n))


def rational_endomorphism(rng, total_dim=3, max_degree=3):
    endo = random_endomorphism(rng, total_dim=total_dim, max_degree=max_degree)
    return GradedEndomorphism({
        d: [[c / rng.choice((1, 1, 2, 3)) for c in row] for row in rows]
        for d, rows in endo.matrices.items()
    })


class TestLefschetzNumbers:
    def test_running_powers_against_traces_from_scratch(self):
        rng = random.Random(31)
        for order in [rng.randint(1, 20) for _ in range(25)] + [64, 64]:
            endo = rational_endomorphism(rng)
            want = [
                sum((-1) ** d * reference_trace_of_power(endo.matrix(d), k)
                    for d in endo.degrees())
                for k in range(1, order + 1)
            ]
            got = graded_lefschetz_numbers(endo, order)
            assert got == want

    def test_empty_and_zero_length(self):
        assert graded_lefschetz_numbers(GradedEndomorphism({}), 3) == [0, 0, 0]
        assert graded_lefschetz_numbers(GradedEndomorphism({0: [[2]]}), 0) == []

    def test_iterate_index_must_be_positive(self):
        # the number of iterates asked for must be >= 0
        with pytest.raises(ValueError):
            graded_lefschetz_numbers(GradedEndomorphism({0: [[2]]}), -1)


def test_tampered_determinant_trips_the_dual_form_check(monkeypatch):
    import doldzeta.graded as graded

    # one degree only, so the tampering cannot cancel between numerator and denominator
    endo = GradedEndomorphism({0: [[1, 1], [0, 2]]})
    real = graded.det_one_minus_t
    monkeypatch.setattr(graded, "det_one_minus_t", lambda rows: real(rows) * Poly([1, 1]))
    with pytest.raises(RuntimeError, match="disagree"):
        graded_zeta(endo, 4)


def test_traces_of_a_rational_matrix_stay_rational():
    endo = GradedEndomorphism({0: [["1/2"]]})
    assert graded_lefschetz_numbers(endo, 2) == [Fraction(1, 2), Fraction(1, 4)]
