"""The benchmark's independent checks against hand-computed values.

    python3 -m pytest bench/test_checks.py
"""

from fractions import Fraction

import pytest

import checks
import workloads


def test_block_bound_coefficients():
    # two fixed points: pairs with multiplicity <= 1 and <= 2
    assert checks.bounded_power_count({1: 2}, 2, 1) == 1
    assert checks.bounded_power_count({1: 2}, 2, 2) == 3
    # one 2-cycle: the only invariant pair is the cycle itself
    assert checks.bounded_power_count({2: 1}, 2, 1) == 1
    # unbounded multisets of size 3 over one fixed point and one 2-cycle
    assert checks.bounded_power_count({1: 1, 2: 1}, 3, None) == 2
    # coefficient size 2, bound 1: (1 + 2q)^2 at q^2
    assert checks.bounded_power_count({1: 2}, 2, 1, coefficient=2) == 4


def test_grid_determines_weighted_polynomials():
    assert len(list(checks.weight_grid(3))) == 4 * 2 * 2


def test_symmetric_group_average_by_burnside():
    # S2: (t1^2 + t1 + 2 t2) / 2; at three fixed points and one 2-cycle that
    # is 6 pairs of fixed points plus the cycle itself
    s2 = [(0, 1), (1, 0)]
    assert checks.burnside_in_t(s2, [1, 1], {1: 3, 2: 1}) == 7


def test_burnside_count_at_a_map():
    f = [0, 1, 2, 4, 3]  # three fixed points and a 2-cycle
    s2 = [(0, 1), (1, 0)]
    discrete = {"ground": 2, "max_block": 1}
    # invariant 2-subsets: three pairs of fixed points and the cycle
    assert checks.burnside_family_count(f, s2, s2, discrete) == 4
    # with a 2-point coefficient set: (4 * 6 + 2 * 2) / 2
    assert checks.burnside_family_count(f, s2, s2, discrete, coefficient=2) == 14
    # the trivial group on one point counts fixed points
    assert checks.burnside_family_count(f, [(0,)], [(0,)], {"ground": 1, "max_block": 1}) == 3


def test_sphere_and_diagonal_graded_zetas():
    # a degree-2 map of S^2: L_k = 1 + 2^k and Z = (1 - q)(1 - 2q)
    lefschetz = workloads.sphere_lefschetz(2, 2, 4)
    assert lefschetz == [3, 5, 9, 17]
    profile = checks.dold_from_lefschetz(lefschetz)
    assert profile == {1: 3, 2: 1, 3: 2, 4: 3}
    assert checks.zeta_from_profile(profile, 4) == [1, -3, 2, 0, 0]
    assert checks.eigen_zeta({0: [1], 2: [2]}, 4) == [1, -3, 2, 0, 0]
    # (1 - q) / (1 - 3q)
    assert checks.eigen_zeta({0: [1], 1: [3]}, 3) == [1, 2, 6, 18]


def test_torus_lefschetz_numbers():
    # A = [[2, 1], [1, 1]]: L_1 = det(I - A) = -1, tr(A^2) = 7 so L_2 = 1 - 7 + 1
    assert workloads.torus_lefschetz((2, 1, 1, 1), 2) == [-1, -5]


def test_md_and_main_plans_from_cycle_lengths():
    f = [1, 0, 2]  # a 2-cycle and a fixed point
    counts = checks.profile_of(f)
    unbounded = checks.orbit_product(
        counts, 4, lambda m, d: checks.geometric_block_power(m, None, d, 4))
    assert unbounded == [1, 1, 2, 2, 3]
    bound_one = checks.orbit_product(
        counts, 4, lambda m, d: checks.geometric_block_power(m, 1, d, 4))
    assert bound_one == [1, 1, 1, 1, 0]


def test_bounded_tuples():
    # words of length 2 over 3 letters, no letter twice: 3 * 2
    assert checks.bounded_word_counts(3, 1, 2) == [1, 3, 6]
    egf = checks.egf_power(3, 1, 2)
    assert [egf[k] * [1, 1, 2][k] for k in range(3)] == [1, 3, 6]


def test_functor_compositions_by_brute_force():
    ident = [0, 1, 2]
    pair = {"kind": "power", "power": 2, "bound": 1}
    # pairs of pairs of three fixed points: 3 pairs, 3 pairs of those
    assert checks.expression_value({"kind": "compose", "outer": pair, "inner": pair}, ident) == 3
    wedge = {"kind": "wedge", "parts": [{"kind": "identity"}, {"kind": "sphere", "parity": "odd"}]}
    assert checks.expression_value(wedge, ident) == 2


def test_orbit_count_of_an_induced_map():
    # swap 0 and 1, fix 2 and 3: on 2-subsets {0,2}<->{1,2} and {0,3}<->{1,3}
    assert checks.orbit_count_brute([1, 0, 2, 3], 2, 1, 2) == 2
    assert checks.orbit_count_brute([1, 0, 2, 3], 2, 1, 1) == 2


def test_integrality_on_the_lattice():
    half = {(1,): Fraction(1, 2)}
    assert checks.lattice_integral(half, 1, 2) is False
    triangular = {(2,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert checks.lattice_integral(triangular, 1, 4) is True


def test_a_wrong_output_is_caught():
    op = {"kind": "cli", "argv": ["zeta"], "check": {"N": 2, "eigen": {0: [1], 1: [3]}}}
    good = {"rc": 0, "stderr": "", "stdout": '{"zeta": {"order": 2, "coeffs": ["1", "2", "6"]}}'}
    checks.check_op(op, good)
    bad = dict(good, stdout='{"zeta": {"order": 2, "coeffs": ["1", "2", "7"]}}')
    with pytest.raises(checks.CheckError):
        checks.check_op(op, bad)


def test_seeded_inputs_repeat_and_differ():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, workloads.DEFAULT_SEED)
        assert first == workloads.build(name, workloads.DEFAULT_SEED)
        other = workloads.build(name, workloads.HELD_OUT_SEED)
        assert sorted(op["label"] for op in first) == sorted(op["label"] for op in other)
        assert first != other
