"""Graded endomorphisms: determinant formulas against the signed trace oracle."""

import random
from fractions import Fraction

import pytest

from doldzeta import (
    GradedEndomorphism,
    PowerSeries,
    characteristic_rational_function,
    det_one_minus_t,
    graded_zeta,
    koszul_invariant_trace,
    poincare_generating,
)
from doldzeta.graded import (
    MAX_GRADED_DEGREE,
    MAX_GRADED_DIMENSION,
    _cleared,
    _determinant_terms,
    _integer_traces,
    _koszul_sign,
    _zeta_and_traces,
)
from doldzeta.oracles import EnumerationLimitError
from doldzeta.series import Poly

from bivariate_reference import bivariate_product, reference_poincare
from conftest import at_one, expand
from fraction_reference import reference_det_one_minus_t, reference_graded_zeta, reference_traces


def lefschetz_numbers(endo, order):
    """The Lefschetz numbers that the zeta function's dual-form check reads."""
    return _zeta_and_traces(endo, order)[1]


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


SHAPES = ("dense", "singular", "nilpotent", "permutation", "zero-diagonal")


class TestDeterminants:
    def test_bareiss_matches_cofactor_on_numbers(self):
        # the t^n coefficient of det(1 - t A) is (-1)^n det A
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            got = det_one_minus_t(rows).coefficient(n)
            assert got == (-1) ** n * _cofactor_det(rows)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_fraction_reference(self, shape):
        rng = random.Random(f"det:{shape}")
        for n in range(11):
            for _ in range(2):
                rows = special_matrix(rng, n, shape)
                assert det_one_minus_t(rows) == reference_det_one_minus_t(rows)

    def test_det_one_minus_t_on_diagonal(self):
        rows = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
        assert det_one_minus_t(rows) == Poly([1, -2]) * Poly([1, -3])

    def test_det_one_minus_t_jordan_block(self):
        rows = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
        assert det_one_minus_t(rows) == Poly([1, -1]) ** 2


def special_matrix(rng, n, shape):
    """A random n x n matrix of one of the SHAPES, with integer entries or
    rational ones."""
    den = rng.choice((1, 2, 6))
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)]
    if shape == "singular" and n > 1:
        rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
    elif shape == "nilpotent":
        rows = [[c if j > i else Fraction(0) for j, c in enumerate(row)]
                for i, row in enumerate(rows)]
    elif shape == "permutation":
        sigma = rng.sample(range(n), n)
        rows = [[Fraction(int(j == sigma[i])) for j in range(n)] for i in range(n)]
    elif shape == "zero-diagonal":
        for i in range(n):
            rows[i][i] = Fraction(0)
    return rows


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
        assert lefschetz_numbers(endo, 4) == [0, 0, 0, 0]


class TestZeta:
    def test_identity_block(self):
        endo = GradedEndomorphism({0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        assert [int(c) for c in graded_zeta(endo, 3).coeffs] == [1, -3, 3, -1]

    def test_circle_conjugation(self):
        endo = GradedEndomorphism({0: [[1]], 1: [[-1]]})
        assert lefschetz_numbers(endo, 4) == [2, 0, 2, 0]
        zeta = graded_zeta(endo, 4)
        expected = PowerSeries([1, -2, 1], order=4) * PowerSeries([1, 0, -1], order=4).inverse()
        assert zeta == expected

    def test_empty(self):
        endo = GradedEndomorphism({})
        assert graded_zeta(endo, 3) == PowerSeries.one(3)
        assert lefschetz_numbers(endo, 2) == [0, 0]

    def test_dual_form_agreement_random(self):
        rng = random.Random(5)
        for _ in range(25):
            graded_zeta(random_endomorphism(rng, total_dim=3), 8)  # raises on mismatch


class TestPoincareGenerating:
    def test_even_line(self):
        endo = GradedEndomorphism({0: [[2]]})
        p = poincare_generating(endo, 3)
        assert [c(1) for c in p] == [1, 2, 4, 8]

    def test_odd_line_truncates(self):
        endo = GradedEndomorphism({1: [["1/2"]]})
        p = poincare_generating(endo, 3)
        assert p[0] == Poly([1])
        assert p[1] == Poly([0, Fraction(-1, 2)])
        assert p[2].is_zero and p[3].is_zero
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
            right = bivariate_product(poincare_generating(a, 5), poincare_generating(b, 5))
            assert left == right

    def test_matches_bivariate_reference(self):
        # degrees 0..4 and total dimension <= 4 put blocks at several
        # T-shifts, with even (inverted) and odd (direct) factors mixed
        rng = random.Random(17)
        orders = [rng.randint(0, 16) for _ in range(40)] + [48, 48]
        for order in orders:
            endo = rational_endomorphism(rng, total_dim=4, max_degree=4)
            assert poincare_generating(endo, order) == reference_poincare(endo, order)

    def test_order_zero_and_no_degrees(self):
        assert poincare_generating(GradedEndomorphism({0: [[2]], 1: [[3]]}), 0) == (Poly.one(),)
        assert poincare_generating(GradedEndomorphism({}), 2) == (Poly.one(), Poly.zero(), Poly.zero())

    def test_a_negative_order_is_refused_as_graded_zeta_refuses_it(self):
        endo = GradedEndomorphism({0: [[2]]})
        for build in (graded_zeta, poincare_generating):
            with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
                build(endo, -1)


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
                assert koszul_invariant_trace(endo, k) == p[k]

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

    def test_the_guard_counts_permutation_and_basis_pairs(self, monkeypatch):
        # 2^5 = 32 basis tuples, each visited once per permutation of 5 factors
        monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "1000")
        with pytest.raises(EnumerationLimitError) as refused:
            koszul_invariant_trace(GradedEndomorphism({0: [[1, 1], [0, 2]]}), 5)
        assert refused.value.size == 3840


class TestInputGuards:
    def test_the_caps_themselves_are_allowed(self):
        endo = GradedEndomorphism({0: [[1] * 9 for _ in range(9)], MAX_GRADED_DEGREE: [[2]]})
        assert endo.degrees() == [0, MAX_GRADED_DEGREE]

    def test_a_degree_above_the_guard_is_refused(self):
        with pytest.raises(ValueError, match="^degree 17 of a graded endomorphism is above the guard 16$"):
            GradedEndomorphism({0: [[1]], MAX_GRADED_DEGREE + 1: [[1]]})

    def test_a_total_dimension_above_the_guard_is_refused(self):
        # no block alone is too large; together they are
        blocks = {0: [[0] * 6 for _ in range(6)], 1: [[0] * 5 for _ in range(5)]}
        with pytest.raises(ValueError, match="total dimension is above the guard 10$"):
            GradedEndomorphism(blocks)


def test_json_round_trip():
    obj = {"degrees": {"0": [["1", "1/2"], ["0", "2"]], "2": [["-1"]]}}
    endo = GradedEndomorphism({0: [[1, Fraction(1, 2)], [0, 2]], 2: [[-1]]})
    assert GradedEndomorphism.from_json(obj) == endo


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
            assert lefschetz_numbers(endo, order) == reference_traces(endo, order)

    def test_empty_and_zero_length(self):
        assert lefschetz_numbers(GradedEndomorphism({}), 3) == [0, 0, 0]
        assert lefschetz_numbers(GradedEndomorphism({0: [[2]]}), 0) == []

    def test_iterate_index_must_be_positive(self):
        # the number of iterates asked for must be >= 0
        with pytest.raises(ValueError):
            lefschetz_numbers(GradedEndomorphism({0: [[2]]}), -1)


def split_endomorphism(rng, dim, nilpotent=False):
    """A random integer endomorphism of total dimension `dim`, cut into
    blocks in some of the degrees 0..3; with `nilpotent` each block is
    strictly upper triangular."""
    degrees = sorted(rng.sample(range(4), rng.randint(1, min(4, dim))))
    cuts = sorted(rng.sample(range(1, dim), len(degrees) - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, dim])]
    return GradedEndomorphism({
        d: [[rng.randint(-3, 3) if j > i or not nilpotent else 0 for j in range(n)] for i in range(n)]
        for d, n in zip(degrees, sizes)
    })


class TestTraceKernel:
    """The column-product powers of `_integer_traces` against the traces of
    rational powers built from the identity, at every order up to the top
    one, 20 while no block is above dimension 6 and 10 beyond (the reference
    is cubic in the dimension and quadratic in the order): the traces of a
    lower order are a prefix of those of a higher one."""

    @staticmethod
    def assert_prefixes_match(endo):
        top = 20 if max(map(len, endo.matrices.values()), default=0) <= 6 else 10
        want = reference_traces(endo, top)
        blocks = _cleared(endo)[1]
        for order in range(top + 1):
            assert _integer_traces(blocks, order) == want[:order]

    def test_single_and_split_blocks(self):
        rng = random.Random(53)
        for dim in range(1, MAX_GRADED_DIMENSION + 1):
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            self.assert_prefixes_match(GradedEndomorphism({dim % 4: rows}))
            self.assert_prefixes_match(split_endomorphism(rng, dim))

    def test_nilpotent_blocks(self):
        rng = random.Random(59)
        for dim in (1, 2, 3, 5, 8, MAX_GRADED_DIMENSION):
            endo = split_endomorphism(rng, dim, nilpotent=True)
            assert all(_determinant_terms(rows, 20) == [] for _, rows in _cleared(endo)[1])
            self.assert_prefixes_match(endo)
            assert _zeta_and_traces(endo, 20) == (PowerSeries.one(20), [0] * 20)
        # a nilpotent block beside one that is not
        self.assert_prefixes_match(
            GradedEndomorphism({0: [[0, 2, 1], [0, 0, -3], [0, 0, 0]], 1: [[2, 1], [1, 1]]})
        )


def mixed_denominator_endomorphism(rng, total_dim=4, max_degree=4):
    """A random endomorphism whose entries in each degree share a
    denominator of their own, so that the common one is their product: the
    first entry of each block has that denominator in lowest terms."""
    endo = random_endomorphism(rng, total_dim=total_dim, max_degree=max_degree)
    denominators = rng.sample((2, 3, 5, 7, 11), len(endo.matrices))
    blocks = {}
    for den, (d, rows) in zip(denominators, sorted(endo.matrices.items())):
        blocks[d] = [[Fraction(c, den) for c in row] for row in rows]
        blocks[d][0][0] = Fraction(den * rows[0][0] + 1, den)
    return GradedEndomorphism(blocks)


class TestIntegerKernelsAgainstFractionFormulas:
    def test_zeta_traces_and_poincare_series(self):
        rng = random.Random(43)
        for order in [rng.randint(0, 16) for _ in range(30)] + [48, 64]:
            endo = mixed_denominator_endomorphism(rng)
            assert graded_zeta(endo, order).coeffs == reference_graded_zeta(endo, order).coeffs
            assert lefschetz_numbers(endo, order) == reference_traces(endo, order)
            assert poincare_generating(endo, order) == reference_poincare(endo, order)


def test_tampered_determinant_trips_the_dual_form_check(monkeypatch):
    import doldzeta.graded as graded

    # one degree only, so the tampering cannot cancel between numerator and denominator
    endo = GradedEndomorphism({0: [[1, 1], [0, 2]]})
    real = graded.det_one_minus_t
    monkeypatch.setattr(graded, "det_one_minus_t", lambda rows: real(rows) * Poly([1, 1]))
    with pytest.raises(RuntimeError, match="disagree"):
        graded_zeta(endo, 4)


@pytest.mark.parametrize("corner", [1, Fraction(1, 2)])
def test_tampered_traces_trip_the_dual_form_check(monkeypatch, corner):
    import doldzeta.graded as graded

    endo = GradedEndomorphism({0: [[corner, 1], [0, 2]]})
    real = graded._integer_traces
    # the traces one iterate off: L_2..L_{N+1} in place of L_1..L_N
    monkeypatch.setattr(graded, "_integer_traces", lambda blocks, order: real(blocks, order + 1)[1:])
    with pytest.raises(RuntimeError, match="disagree"):
        graded_zeta(endo, 4)


def test_traces_of_a_rational_matrix_stay_rational():
    endo = GradedEndomorphism({0: [["1/2"]]})
    assert lefschetz_numbers(endo, 2) == [Fraction(1, 2), Fraction(1, 4)]
