"""Command-line interface: schemas, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import doldzeta
from doldzeta import cli
from doldzeta.cli import main
from doldzeta.partitions import MAX_GROUP_DEGREE
from doldzeta.series import _shown


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dold_three_cycle(capsys):
    code, out, _ = run(capsys, "dold", "--map", '{"size":3,"map":[1,2,0]}', "-N", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"]["coeffs"] == ["1", "0", "0", "-1", "0", "0", "0"]
    assert payload["profile"]["values"] == [0, 0, 1, 0, 0, 0]


def test_symmetric_sphere_lefschetz_input(capsys):
    code, out, _ = run(
        capsys,
        "symmetric",
        "--lefschetz",
        "[-1,-3,-7,-15,-31]",
        "-l",
        "1",
        "-N",
        "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"] == ["1", "-1", "0", "-2", "0"]


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--plan", '{"identity":"md","map":{"size":4,"map":[1,0,3,3]}}'
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


# an inconsistent expectation makes this config-trace plan fail
FAILING_PLAN = {
    "identity": "config-trace",
    "zeta": {"order": 3, "coeffs": ["1", "-1", "0", "0"]},
    "parity": "odd",
    "expected_traces": [1, 7],
    "k_max": 3,
}


def test_verify_fail_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--plan", json.dumps(FAILING_PLAN))
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["first_mismatch"]["k"] == 1


@pytest.mark.parametrize("plan", [{"identity": "md", "map": {"size": 4, "map": [1, 0, 3, 3]}},
                                  FAILING_PLAN], ids=["pass", "fail"])
def test_timings_add_only_the_elapsed_time(capsys, plan):
    code, out, err = run(capsys, "verify", "--plan", json.dumps(plan))
    timed_code, timed_out, timed_err = run(capsys, "verify", "--plan", json.dumps(plan), "--timings")
    report, timed = json.loads(out), json.loads(timed_out)
    elapsed = timed.pop("elapsed_s")
    assert isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool) and elapsed >= 0
    assert "elapsed_s" not in report
    assert (timed_code, timed, timed_err) == (code, report, err)


def test_malformed_json_exits_2_with_position(capsys):
    code, _, err = run(capsys, "dold", "--map", '{"size":3,"map":[1,2,0')
    assert code == 2
    assert "line 1" in err and "column" in err


def test_byte_identical_output(capsys):
    args = ("graded", "--matrices", '{"degrees":{"0":[["1"]],"1":[["-1"]]}}', "-N", "6")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_zeta_round_trips_series_schema(capsys):
    code, out, _ = run(capsys, "zeta", "--profile", '{"horizon":4,"values":[1,-1,0,0]}', "-N", "4")
    assert code == 0
    payload = json.loads(out)["zeta"]
    from doldzeta import PowerSeries

    series = PowerSeries.from_json(payload)
    assert series.to_json() == payload


def test_tuples_counts(capsys):
    code, out, _ = run(capsys, "tuples", "--lefschetz-number", "2", "-l", "1", "-N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == ["1", "2", "2", "0", "0"]


def test_gsymm_polynomial_output(capsys):
    code, out, _ = run(
        capsys,
        "gsymm",
        "--group",
        '{"degree":2,"elements":[[0,1],[1,0]]}',
        "--map",
        '{"size":2,"map":[0,1]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3"
    terms = {tuple(t["exponents"]): t["coeff"] for t in payload["polynomial"]["polynomial"]["terms"]}
    assert terms == {(2, 0): "1/2", (1, 0): "1/2", (0, 1): "1"}


def test_partition_command(capsys):
    code, out, _ = run(
        capsys,
        "partition",
        "--group",
        '{"degree":2,"elements":[[0,1],[1,0]]}',
        "--family",
        '{"ground":2,"max_block":1}',
        "--map",
        '{"size":2,"map":[0,1]}',
    )
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_the_discrete_family_on_eight_points(capsys):
    # one excluded orbit per non-discrete partition: 4139 under the trivial group
    code, out, _ = run(
        capsys,
        "partition",
        "--group",
        '{"degree":8,"elements":[[0,1,2,3,4,5,6,7]]}',
        "--family",
        '{"ground":8,"max_block":1}',
        "--format",
        "text",
    )
    assert code == 0
    assert out == (
        "t1^8 - 28*t1^7 + 322*t1^6 - 1960*t1^5 + 6769*t1^4 - 13132*t1^3 + 13068*t1^2"
        " - 5040*t1\n"
    )


def test_order_poly_command(capsys):
    code, out, _ = run(
        capsys, "order-poly", "--family", '{"ground":3,"max_block":1}', "--at", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "2", "-3", "1"]
    assert payload["value"] == "6"


def test_config_trace_command(capsys):
    code, out, _ = run(
        capsys,
        "config-trace",
        "--graded",
        '{"degrees":{"0":[["1"]],"1":[["-1"]]}}',
        "--parity",
        "odd",
        "--epsilon",
        "-1",
        "-N",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"] == ["1", "-2", "2", "-2", "2", "-2"]
    assert payload["lefschetz_traces"] == ["1", "2", "2", "2", "2", "2"]


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_order_out_of_range_rejected(capsys):
    code, out, err = run(capsys, "dold", "--map", '{"size":1,"map":[0]}', "-N", "99")
    assert (code, out) == (2, "")
    assert err == "error: argument -N/--order: the order must be an integer in 1..64, got '99'\n"
    assert "usage:" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--plan", '{"identity":"md","map":{"size":2,"map":[1,0]}}', "-N", "3"],
        ["gsymm", "--group", '{"degree":2,"elements":[[0,1],[1,0]]}', "-N", "5"],
        ["order-poly", "--family", '{"ground":3,"max_block":1}', "-N", "5"],
        ["selftest", "--format", "json"],
    ],
    ids=["verify -N", "gsymm -N", "order-poly -N", "selftest --format"],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1
    assert "usage:" not in err


def test_enumeration_guard_surfaces_structured_error(capsys, monkeypatch):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "10")
    plan = {"identity": "md", "map": {"size": 6, "map": [0, 1, 2, 3, 4, 5]}, "k_max": 6}
    code, _, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 2
    assert json.loads(err)["error"] == "enumeration-limit"


def test_enumeration_guard_counts_every_map_not_the_walk(capsys, monkeypatch):
    # four fixed points and a 6-cycle: the oracle visits far fewer than 10^5 maps
    plan = {"identity": "gsymm", "map": {"size": 10, "map": [0, 1, 2, 3, 5, 6, 7, 8, 9, 4]},
            "group": {"degree": 5, "elements": [[0, 1, 2, 3, 4]]}}
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "99999")
    assert run(capsys, "verify", "--plan", json.dumps(plan)) == (
        2, "", '{"error": "enumeration-limit", "limit": 99999, "size": 100000}\n'
    )
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "100000")
    assert run(capsys, "verify", "--plan", json.dumps(plan))[0] == 0


# series plans whose guard trips at a size j < k_max, and the size it names:
# C(9, 4) multisets, 8 + 28 + 56 + 70 subsets, 3^5 tuples
SERIES_GUARD_TRIPS = [
    ({"identity": "md", "map": {"size": 6, "map": [1, 2, 0, 4, 3, 5]}, "k_max": 6}, 126),
    ({"identity": "prod", "map": {"size": 8, "map": [1, 2, 0, 4, 3, 5, 6, 6]}, "k_max": 6}, 162),
    ({"identity": "sub", "map": {"size": 5, "map": [0, 1, 2, 4, 3]}, "l": 2, "k_max": 6}, 243),
]


@pytest.mark.parametrize("plan, size", SERIES_GUARD_TRIPS, ids=["md", "prod", "sub"])
def test_a_series_plan_is_refused_at_its_first_size_over_the_guard(capsys, monkeypatch,
                                                                   plan, size):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", "100")
    assert run(capsys, "verify", "--plan", json.dumps(plan)) == (
        2, "", f'{{"error": "enumeration-limit", "limit": 100, "size": {size}}}\n'
    )


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "dold", "--map", '{"size":2,"map":[1,0]}', "-N", "3", "--format", "text"
    )
    assert code == 0
    assert "q^2" in out


SELFTEST_OUTPUT = """\
PASS  symmetric powers, unbounded
PASS  symmetric powers, bound 1
PASS  symmetric powers, bound 2
PASS  subset spaces
PASS  bounded tuples
PASS  group average
PASS  partition family
PASS  coefficient space
PASS  configuration traces
"""


def test_selftest_output_is_unchanged(capsys):
    assert run(capsys, "selftest") == (0, SELFTEST_OUTPUT, "")


@pytest.mark.parametrize("k_max", [0, 65])
def test_plan_k_max_outside_cli_range_refused(capsys, k_max):
    plan = {"identity": "md", "k_max": k_max, "map": {"size": 2, "map": [1, 0]}}
    code, out, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 2
    assert out == ""
    assert err == f"error: plan field 'k_max' must lie in 1..64, got {k_max}\n"


def test_plan_k_max_at_the_bound_runs(capsys):
    plan = {"identity": "config-trace", "k_max": 64, "parity": "odd",
            "graded": {"degrees": {"0": [["1"]], "1": [["-1"]]}}}
    code, out, _ = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 0
    assert json.loads(out)["series"]["order"] == 64


def test_plan_without_identity_names_the_key(capsys):
    code, _, err = run(capsys, "verify", "--plan", "{}")
    assert code == 2
    assert err == 'error: the plan has no "identity" key naming the statement to check\n'


def test_plan_that_is_not_an_object_refused(capsys):
    code, _, err = run(capsys, "verify", "--plan", "[1]")
    assert code == 2
    assert err == "error: a plan must be a JSON object, got list\n"


def test_zeta_series_with_missing_coefficients_refused(capsys):
    zeta = json.dumps({"order": 6, "coeffs": ["1", "-1", "0"]})
    code, out, err = run(capsys, "symmetric", "--zeta", zeta, "-N", "4")
    assert code == 2
    assert out == ""
    assert err == "error: series of order 6 needs 7 coefficients, got 3\n"


def test_plan_order_n_outside_cli_range_refused(capsys):
    plan = {"identity": "coeffic", "map": {"size": 2, "map": [1, 0]}, "euler": 1, "N": 65}
    code, _, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 2
    assert err == "error: plan field 'N' must lie in 1..64, got 65\n"


MAP = {"size": 2, "map": [1, 0]}
S2 = {"degree": 2, "elements": [[0, 1], [1, 0]]}


def plan_argv(plan):
    return ["verify", "--plan", json.dumps(plan)]


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"identity": "md"}, "the 'md' plan has no 'map' key"),
        ({"identity": "main", "map": MAP}, "the 'main' plan has no 'l' key"),
        ({"identity": "sub", "map": MAP}, "the 'sub' plan has no 'l' key"),
        ({"identity": "coeffic", "map": MAP}, "the 'coeffic' plan has no 'euler' key"),
        ({"identity": "gsymm", "map": MAP}, "the 'gsymm' plan has no 'group' key"),
        ({"identity": "partition", "map": MAP, "group": S2},
         "the 'partition' plan has no 'family' key"),
        ({"identity": "config-trace", "map": MAP},
         "the 'config-trace' plan has no 'parity' key"),
        ({"identity": "gsymm", "map": MAP, "group": S2, "gset": {"action": {}}},
         "the 'gsymm' plan's gset has no 'size' key"),
        ({"identity": "partition", "map": MAP, "group": S2, "gset": {"size": 2},
          "family": {"ground": 2, "max_block": 1}},
         "the 'partition' plan's gset has no 'action' key"),
    ],
)
def test_plan_missing_key_names_identity_and_key(capsys, plan, message):
    code, out, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "gset, message",
    [
        ({"action": {"0": [0, 1], "1": [1, 0]}}, "--gset has no 'size' key"),
        ({"size": 2, "action": {"0": [0, 1]}}, "the G-set action must cover every group element"),
        ({"size": 2, "action": {"0": [0, 1], "2": [1, 0]}},
         "--gset names element 2, but the group has 2 elements"),
    ],
)
def test_malformed_gset_refused(capsys, gset, message):
    code, out, err = run(capsys, "gsymm", "--group", json.dumps(S2), "--gset", json.dumps(gset))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_plan_and_command_line_share_the_gset_message(capsys):
    gset = {"size": 2, "action": {"0": [0, 1]}}
    plan = {"identity": "gsymm", "map": MAP, "group": S2, "gset": gset}
    _, _, plan_err = run(capsys, "verify", "--plan", json.dumps(plan))
    _, _, cli_err = run(capsys, "gsymm", "--group", json.dumps(S2), "--gset", json.dumps(gset))
    assert plan_err == cli_err == "error: the G-set action must cover every group element\n"


S6_GENERATORS = {"degree": 6, "generators": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]}


def test_s6_by_generators_matches_s6_by_elements(capsys):
    from itertools import permutations

    elements = {"degree": 6, "elements": [list(p) for p in permutations(range(6))]}
    by_gens = run(capsys, "gsymm", "--group", json.dumps(S6_GENERATORS), "--map",
                  json.dumps({"size": 3, "map": [1, 2, 0]}))
    by_elems = run(capsys, "gsymm", "--group", json.dumps(elements), "--map",
                   json.dumps({"size": 3, "map": [1, 2, 0]}))
    assert by_gens[0] == 0
    assert by_gens == by_elems


def test_s6_by_generators_passes_against_the_orbit_oracle(capsys):
    plan = {"identity": "gsymm", "map": MAP, "group": S6_GENERATORS}
    code, out, _ = run(capsys, "verify", "--plan", json.dumps(plan))
    report = json.loads(out)
    assert code == 0 and report["pass"]
    # of the size-6 multisets on two swapped points, only three-and-three is fixed
    assert report["oracle"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gsymm", "--group", '{"degree":2}'], "a group has no 'generators' key"),
        (["partition", "--group", json.dumps(S2), "--family", '{"max_block":1}'],
         "a partition family has no 'ground' key"),
        (["symmetric", "--profile", '{"values":[1,0,0,0]}', "-N", "4"],
         "an orbit profile has no 'horizon' key"),
        (["zeta", "--lefschetz", '{"horizon":4}', "-N", "4"],
         "a Lefschetz sequence has no 'values' key"),
        (["graded", "--matrices", "{}"], "a graded endomorphism has no 'degrees' key"),
        (["symmetric", "--zeta", '{"order":4}', "-N", "4"], "a series has no 'coeffs' key"),
        (["dold", "--map", '{"map":[1,0]}'], "a self-map has no 'size' key"),
        (["verify", "--plan", json.dumps({"identity": "gsymm", "map": MAP,
                                          "group": {"elements": [[0, 1]]}})],
         "a group has no 'degree' key"),
    ],
)
def test_reader_missing_key_names_object_and_key(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_large_coefficient_size_refused_before_building(capsys):
    # 10^4 points to the 4th power would be 10^16 tuples to build
    plan = {
        "identity": "partition",
        "map": MAP,
        "group": {"degree": 4, "generators": [[1, 2, 3, 0]]},
        "family": {"ground": 4, "max_block": 1},
        "coefficient_size": 10 ** 4,
    }
    code, out, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "enumeration-limit", "size": 2 ** 4 * 10 ** 16,
                               "limit": 10 ** 7}


CIRCLE = '{"degrees":{"0":[["1"]],"1":[["-1"]]}}'


def test_plan_lefschetz_shorter_than_k_max_refused_like_the_command(capsys):
    plan = {"identity": "config-trace", "parity": "odd", "lefschetz": [1, 3], "k_max": 6}
    from_plan = run(capsys, "verify", "--plan", json.dumps(plan))
    from_flags = run(capsys, "config-trace", "--lefschetz", "[1,3]", "--parity", "odd", "-N", "6")
    assert from_plan[0] == 2 and from_plan[1] == ""
    assert from_plan == from_flags


def test_plan_zeta_is_cut_to_k_max(capsys):
    zeta = {"order": 400, "coeffs": ["1", "-1"] + ["0"] * 399}
    plan = {"identity": "config-trace", "parity": "odd", "zeta": zeta, "k_max": 3}
    code, out, _ = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 0
    assert json.loads(out)["series"] == {"order": 3, "coeffs": ["1", "-1", "0", "0"]}


def test_plan_profile_source_matches_the_map_it_comes_from(capsys):
    # a 3-cycle and a fixed point
    base = {"identity": "config-trace", "parity": "even", "k_max": 6}
    by_map = run(capsys, "verify", "--plan",
                 json.dumps({**base, "map": {"size": 4, "map": [1, 2, 0, 3]}}))
    by_profile = run(capsys, "verify", "--plan",
                     json.dumps({**base, "profile": {"horizon": 6, "values": [1, 0, 1, 0, 0, 0]}}))
    assert by_map[0] == 0
    assert by_profile == by_map


def test_plan_lefschetz_goes_through_the_sequence_reader(capsys):
    plan = {"identity": "config-trace", "parity": "odd", "lefschetz": "abc"}
    assert run(capsys, "verify", "--plan", json.dumps(plan)) == (
        2, "", "error: a Lefschetz sequence must be a list or an object, got str\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["symmetric", "-N", "4"],
         "the 'symmetric' command takes exactly one of "
         "--map/--lefschetz/--profile/--zeta/--graded, got 0"),
        (["zeta", "--map", '{"size":1,"map":[0]}', "--graded", CIRCLE],
         "the 'zeta' command takes exactly one of --map/--lefschetz/--profile/--graded, got 2"),
        (["verify", "--plan", json.dumps({"identity": "config-trace", "parity": "odd",
                                          "map": {"size": 1, "map": [0]},
                                          "lefschetz": [1] * 6})],
         "the 'config-trace' plan takes exactly one of "
         "'map'/'lefschetz'/'profile'/'zeta'/'graded', got 2"),
    ],
)
def test_exactly_one_zeta_input(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_reduced_graded_zeta_matches_reduced_lefschetz_input(capsys):
    # degree 2 on the circle's H^1: L(f^k) = 1 - 2^k
    graded = '{"degrees":{"0":[["1"]],"1":[["2"]]}}'
    lefschetz = json.dumps([1 - 2 ** k for k in range(1, 9)])
    by_graded = run(capsys, "zeta", "--graded", graded, "--reduced", "-N", "8")
    by_numbers = run(capsys, "zeta", "--lefschetz", lefschetz, "--reduced", "-N", "8")
    assert by_graded[0] == 0
    assert by_graded == by_numbers


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graded", "--matrices", '{"degrees":[1]}'],
         "a graded endomorphism's 'degrees' must be an object, got list"),
        (["dold", "--map", '{"size":2,"map":5}'], "a self-map's 'map' must be a list, got int"),
        (["gsymm", "--group", '{"degree":2,"generators":5}'],
         "a group's 'generators' must be a list, got int"),
        (["dold", "--map", '{"size":2,"map":["a",0]}'],
         "an entry of a self-map's 'map' must be an integer, got 'a'"),
        (["gsymm", "--group", '{"degree":2,"generators":[5]}'],
         "a permutation in a group's 'generators' must be a list, got int"),
    ],
)
def test_reader_wrong_type_names_object_and_key(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeta", "--profile", '{"horizon":2,"values":[1.5,0]}', "-N", "2"],
         "an entry of an orbit profile must be an integer, got 1.5"),
        (["symmetric", "--lefschetz", "[1.7,3,1]", "-N", "3"],
         "an entry of a Lefschetz sequence must be an integer, got 1.7"),
        (["symmetric", "--lefschetz", "[true,3,1]", "-N", "3"],
         "an entry of a Lefschetz sequence must be an integer, got True"),
        (["zeta", "--profile", '["x",0]', "-N", "2"],
         "an entry of an orbit profile must be an integer, got 'x'"),
        # plan fields, family and G-set keys, and --traces
        (plan_argv({"identity": "main", "l": 1.5, "map": MAP}),
         "the 'main' plan's 'l' must be an integer, got 1.5"),
        (plan_argv({"identity": "sub", "l": 0.5, "map": MAP}),
         "the 'sub' plan's 'l' must be an integer, got 0.5"),
        (plan_argv({"identity": "md", "k_max": 3.9, "map": MAP}),
         "the 'md' plan's 'k_max' must be an integer, got 3.9"),
        (plan_argv({"identity": "coeffic", "map": MAP, "euler": 1, "N": 2.5}),
         "the 'coeffic' plan's 'N' must be an integer, got 2.5"),
        (plan_argv({"identity": "coeffic", "map": MAP, "euler": "x"}),
         "the 'coeffic' plan's 'euler' must be an integer, got 'x'"),
        (plan_argv({"identity": "config-trace", "parity": "odd", "epsilon": -1.5,
                    "graded": {"degrees": {"0": [["1"]]}}}),
         "the 'config-trace' plan's 'epsilon' must be an integer, got -1.5"),
        (plan_argv({"identity": "partition", "map": MAP, "group": S2,
                    "family": {"ground": 2, "max_block": 1}, "coefficient_size": 2.5}),
         "the 'partition' plan's 'coefficient_size' must be an integer, got 2.5"),
        (["partition", "--group", json.dumps(S2), "--family", '{"ground":2,"max_block":1.7}'],
         "a partition family's 'max_block' must be an integer, got 1.7"),
        (["partition", "--group", json.dumps(S2), "--family", '{"ground":2.0001,"max_block":1}'],
         "a partition family's 'ground' must be an integer, got 2.0001"),
        (["partition", "--group", json.dumps(S2), "--family", '{"ground":2,"refines":[[0,0.9]]}'],
         "an entry of a partition block must be an integer, got 0.9"),
        (["gsymm", "--group", '{"degree":2.5,"generators":[]}'],
         "a group's 'degree' must be an integer, got 2.5"),
        (["gsymm", "--group", json.dumps(S2), "--gset", '{"size":2.5,"action":{}}'],
         "--gset's 'size' must be an integer, got 2.5"),
        (["gsymm", "--group", json.dumps(S2), "--gset",
          '{"size":2,"action":{"0":[0,1],"1.5":[1,0]}}'],
         "an element index in the action of --gset must be an integer, got '1.5'"),
        (["gsymm", "--group", json.dumps(S2), "--traces", '["a",1]'],
         "an entry of --traces must be an integer, got 'a'"),
        (["gsymm", "--group", json.dumps(S2), "--traces", "5"],
         "--traces must be a list, got int"),
        (["symmetric", "--zeta", '{"order":4.7,"coeffs":["1","-1","0","0","0"]}', "-N", "4"],
         "a series's 'order' must be an integer, got 4.7"),
        (["graded", "--matrices", '{"degrees":{"1.5":[["1"]]}}'],
         "a degree of a graded endomorphism must be an integer, got '1.5'"),
    ],
)
def test_non_integer_values_are_refused_not_truncated(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["1e3", "1000.5", "x"])
def test_enumeration_limit_variable_must_be_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("DOLD_ZETA_MAX_ENUM", value)
    code, out, err = run(capsys, *plan_argv({"identity": "md", "map": MAP}))
    assert (code, out) == (2, "")
    assert err == f"error: the variable DOLD_ZETA_MAX_ENUM must be an integer, got {value!r}\n"


def test_integral_values_of_any_type_are_read_as_integers(capsys):
    by_ints = run(capsys, "zeta", "--profile", "[1,0]", "-N", "2")
    assert by_ints[0] == 0
    assert run(capsys, "zeta", "--profile", '[1.0,"0"]', "-N", "2") == by_ints


def test_unreadable_plan_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "plan.json"
    code, out, err = run(capsys, "verify", "--plan", f"@{missing}")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read the plan file {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gsymm", "--group", json.dumps(S2), "--traces", "[1,1]", "--coefficient-size", "3"],
         "the 'gsymm' command takes at most one of --traces/--coefficient-size, got 2"),
        (["gsymm", "--group", json.dumps(S2), "--profile", '{"horizon":2,"values":[2,0]}',
          "--map", json.dumps(MAP)],
         "the 'gsymm' command takes at most one of --profile/--map, got 2"),
        (["partition", "--group", json.dumps(S2), "--family", '{"ground":2,"max_block":1}',
          "--profile", '{"horizon":2,"values":[2,0]}', "--map", json.dumps(MAP)],
         "the 'partition' command takes at most one of --profile/--map, got 2"),
    ],
    ids=["traces and coefficient size", "gsymm profile and map", "partition profile and map"],
)
def test_two_inputs_where_one_would_be_dropped_are_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "matrices, message",
    [
        ('{"degrees":{"100000":[["2"]]}}', "degree 100000 of a graded endomorphism is above the guard 16"),
        (json.dumps({"degrees": {"0": [["1"] * 30] * 30}}),
         "a graded endomorphism's total dimension is above the guard 10"),
    ],
    ids=["degree", "dimension"],
)
def test_graded_input_above_its_guards_is_refused(capsys, matrices, message):
    assert run(capsys, "graded", "--matrices", matrices, "-N", "12") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_output_number_above_the_digit_limit_is_refused(capsys, fmt):
    # 7^1500 has 1268 digits; the q^8 coefficient of the zeta, 7^12000, has 10142
    matrices = json.dumps({"degrees": {"0": [[str(7 ** 1500)]]}})
    limit = sys.get_int_max_str_digits()  # 4300 by default
    message = f"a number in the output has more than {limit} digits, the output's digit limit"
    argv = ["graded", "--matrices", matrices, "-N", "8", "--format", fmt]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, where",
    [
        (["zeta", "--lefschetz", "[" + "9" * 5000 + "]", "-N", "2"], "--lefschetz"),
        (["verify", "--plan", '{"identity": "md", "map": {"size": 2, "map": [0, 1]}, '
                              '"k_max": ' + "9" * 5000 + "}"], "--plan"),
    ],
    ids=["flag", "plan"],
)
def test_an_input_integer_above_the_digit_limit_is_refused(capsys, argv, where):
    limit = sys.get_int_max_str_digits()  # 4300 by default
    message = f"an integer in {where} has more than {limit} digits, the input's digit limit"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["zeta", "--lefschetz", '["' + "9" * 5000 + '"]', "-N", "2"],
         "an entry of a Lefschetz sequence"),
        (["graded", "--matrices", '{"degrees":{"0":[["' + "9" * 5000 + '"]]}}', "-N", "2"],
         "a number in the input"),
        (["graded", "--matrices", '{"degrees":{"0":[["1/' + "9" * 5000 + '"]]}}', "-N", "2"],
         "a number in the input"),
    ],
    ids=["integer", "rational", "denominator"],
)
def test_a_quoted_number_above_the_digit_limit_is_refused_without_its_digits(capsys, argv, what):
    limit = sys.get_int_max_str_digits()  # 4300 by default
    message = f"{what} has more than {limit} digits, the input's digit limit"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["graded", "--matrices", '{"degrees":{"0":[["1/0"]]}}', "-N", "2"],
        ["symmetric", "--zeta", '{"order":1,"coeffs":["1","1/0"]}', "-N", "1"],
    ],
    ids=["graded", "zeta"],
)
def test_a_zero_denominator_is_refused_without_a_traceback(capsys, argv):
    message = "a number in the input has a zero denominator: '1/0'"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_long_refused_value_is_echoed_as_a_prefix(capsys):
    code, out, err = run(capsys, "zeta", "--lefschetz", '["' + "x" * 5000 + '"]', "-N", "2")
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200
    assert err.startswith("error: an entry of a Lefschetz sequence must be an integer, got 'xxx")
    assert err.endswith("... (5002 characters)\n")


@pytest.mark.parametrize("entry, shown", [('"abc"', "'abc'"), ("1.5", "1.5"), ("[2]", "[2]")])
def test_a_matrix_entry_that_is_not_a_number_names_its_place(capsys, entry, shown):
    argv = ["graded", "--matrices", '{"degrees":{"0":[[%s]]}}' % entry]
    message = f"an entry of the matrix in degree 0 of --matrices must be a rational number, got {shown}"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_quoted_number_below_the_digit_limit_still_reads(capsys):
    code, out, _ = run(capsys, "zeta", "--lefschetz", '["' + "9" * 4000 + '"]', "-N", "1")
    assert code == 0 and json.loads(out)["zeta"]["coeffs"] == ["1", "-" + "9" * 4000]


S3_BY_GENERATORS = '{"degree":3,"generators":[[1,0,2],[1,2,0]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["gsymm", "--group", S3_BY_GENERATORS, "--traces", "[1,2,0,-1,2,1]"],
        ["partition", "--group", S3_BY_GENERATORS, "--family", '{"ground":3,"max_block":1}',
         "--traces", "[1,2,0,-1,2,1]"],
    ],
    ids=["gsymm", "partition"],
)
def test_traces_that_are_not_a_class_function_are_refused(capsys, argv):
    # in element order the transpositions (0 2 1), (1 0 2), (2 1 0) get 2, 0, 1
    message = ("coefficient traces must be a class function, but [0, 2, 1] has trace 2 "
               "and its conjugate [2, 1, 0] has trace 1")
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "plan, unknown, takes",
    [
        ({"identity": "md", "map": MAP, "kmax": 60}, "'kmax'", "'identity', 'k_max', 'map'"),
        ({"identity": "gsymm", "map": MAP, "group": S2, "coefficient_size": 2},
         "'coefficient_size'", "'group', 'gset', 'identity', 'k_max', 'map'"),
    ],
)
def test_plan_keys_the_identity_does_not_read_are_refused(capsys, plan, unknown, takes):
    message = f"the {plan['identity']!r} plan does not take {unknown}; it takes {takes}"
    assert run(capsys, *plan_argv(plan)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dold", "--map", json.dumps(MAP), "-N", "abc"],
         "argument -N/--order: the order must be an integer in 1..64, got 'abc'"),
        (["dold", "--map", json.dumps(MAP), "-N", "65"],
         "argument -N/--order: the order must be an integer in 1..64, got '65'"),
        (["symmetric", "--lefschetz", "[1]", "-l", "x", "-N", "1"],
         "argument -l/--bound: the bound must be an integer >= 0, or 'inf' for none, got 'x'"),
    ],
)
def test_flag_type_errors_say_what_the_flag_takes(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


LONG = "7" * 5000
LONG_SHOWN = "'" + "7" * 39 + "... (5002 characters)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tuples", "--lefschetz-number", LONG, "-l", "1"], "argument --lefschetz-number: invalid int value:"),
        (["tuples", "--lefschetz-number", "1", "-l", LONG], "argument -l/--bound: invalid int value:"),
        (["zeta", "--lefschetz", "[1]", "-N", LONG],
         "argument -N/--order: the order must be an integer in 1..64, got"),
        (["symmetric", "--lefschetz", "[1]", "-N", "1", "-l", LONG],
         "argument -l/--bound: the bound must be an integer >= 0, or 'inf' for none, got"),
        (["order-poly", "--family", '{"ground":3,"max_block":1}', "--at", LONG],
         "argument --at: invalid int value:"),
        (["gsymm", "--group", "{}", "--coefficient-size", LONG],
         "argument --coefficient-size: invalid int value:"),
        (["config-trace", "--lefschetz", "[1]", "--parity", "odd", "--epsilon", LONG],
         "argument --epsilon: invalid int value:"),
    ],
)
def test_a_long_refused_flag_value_is_cut(capsys, argv, message):
    # the first 40 characters of its repr and the repr's length, not 5000 digits
    assert run(capsys, *argv) == (2, "", f"error: {message} {LONG_SHOWN}\n")


WORD = "x" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graded", "--matrices", "{}", "--format", WORD],
         f"argument --format: invalid choice: {_shown(WORD)} (choose from 'json', 'text')"),
        ([WORD], f"argument command: invalid choice: {_shown(WORD)} (choose from "),
        (["zeta", "--lefschetz", "[1]", "--" + WORD],
         f"unrecognized arguments: {_shown('--' + WORD)}"),
    ],
)
def test_a_long_word_refused_by_argparse_is_cut(capsys, argv, message):
    # argparse echoes the refused word; it is cut as a flag value is
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.encode()) < 300


@pytest.mark.parametrize(
    "group",
    [
        '{"degree":100000000,"generators":[[1,0]]}',
        '{"degree":1000000000000000000000000000000,"generators":[[1,0]]}',
        '{"degree":100000000,"generators":[]}',
        '{"degree":-3,"generators":[]}',
    ],
)
def test_a_group_degree_outside_the_cap_is_refused_first(capsys, group):
    # refused before any list of `degree` entries is built
    degree = json.loads(group)["degree"]
    assert run(capsys, "gsymm", "--group", group) == (
        2, "", f"error: a group's 'degree' must be in 0..{MAX_GROUP_DEGREE}, got {degree}\n"
    )


def test_integer_flags_take_what_int_takes():
    for text in ("5", " 5 ", "+5", "-5", "5_000", "\u0663", "00012"):
        assert cli._parse_int(text) == int(text)
    assert cli._parse_order(" 7") == cli._parse_bound_flag("7 ") == 7
    for text in ("5.0", "0x10", "", "five"):
        with pytest.raises(argparse.ArgumentTypeError) as refused:
            cli._parse_int(text)
        assert str(refused.value) == f"invalid int value: {text!r}"


S3_ELEMENTS = sorted(permutations(range(3)))
S3 = {"degree": 3, "elements": [list(g) for g in S3_ELEMENTS]}
# the natural action of S3, given explicitly as a table
S3_GSET = {"size": 3, "action": {str(i): list(g) for i, g in enumerate(S3_ELEMENTS)}}


def test_a_plans_action_table_is_checked_once(capsys, action_checks, stability_checks):
    plan = {
        "identity": "partition",
        "map": {"size": 3, "map": [1, 0, 2]},
        "group": S3,
        "gset": S3_GSET,
        "family": {"ground": 3, "max_block": 1},
        "coefficient_size": 2,
    }
    code, out, _ = run(capsys, *plan_argv(plan))
    assert code == 0 and json.loads(out)["pass"]
    assert len(action_checks) == 1
    assert len(stability_checks) == 1  # and the family's stability under it


def test_a_commands_action_table_is_checked_once(capsys, action_checks, stability_checks):
    code, out, _ = run(capsys, "partition", "--group", json.dumps(S3), "--gset",
                       json.dumps(S3_GSET), "--family", '{"ground":3,"max_block":1}',
                       "--coefficient-size", "2", "--map", json.dumps(MAP))
    assert code == 0 and "value" in json.loads(out)
    assert len(action_checks) == 1
    assert len(stability_checks) == 1


@pytest.mark.parametrize("plan_or_command", ["plan", "command"])
def test_an_unstable_family_is_still_refused(capsys, plan_or_command):
    # {01|2} without {02|1} and {0|12}: not stable under the rotations of 3 points
    family = {"ground": 3, "members": [[[0], [1], [2]], [[0, 1], [2]]]}
    c3 = {"degree": 3, "generators": [[1, 2, 0]]}
    if plan_or_command == "plan":
        argv = plan_argv({"identity": "partition", "map": MAP, "group": c3, "family": family})
    else:
        argv = ["partition", "--group", json.dumps(c3), "--family", json.dumps(family)]
    assert run(capsys, *argv) == (2, "", "error: family is not stable under the group action\n")


# ---------------------------------------------------------------------------
# many commands in one process


SRC = str(Path(doldzeta.__file__).resolve().parent.parent)

# a command that sets a default for its own use (selftest's text format), then
# commands that must not see it, a bound given and then left out, a refusal,
# and a line argparse reads (not plain) followed by a plain one without its bound
SYMMETRIC_SPHERE = ["symmetric", "--lefschetz", "[-1,-3,-7,-15,-31]", "-N", "4"]
ONE_PROCESS_SEQUENCE = [
    ["selftest"],
    ["dold", "--map", '{"size":3,"map":[1,2,0]}', "-N", "6"],
    ["zeta", "--map", '{"size":4,"map":[1,0,3,3]}', "-N", "5"],
    SYMMETRIC_SPHERE + ["-l", "1"],
    SYMMETRIC_SPHERE,
    ["gsymm", "--group", json.dumps(S3), "--map", '{"size":2,"map":[1,0]}'],
    ["dold", "--map", '{"size":1,"map":[0]}', "-N", "abc"],
    SYMMETRIC_SPHERE + ["--bound=2"],
    SYMMETRIC_SPHERE,
]


def fresh_run(argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "doldzeta.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_start_up_imports_no_introspection_modules():
    # every command runs in a new process, which pays for every import;
    # `dataclasses` alone would pull in inspect, ast, dis and tokenize
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, doldzeta, doldzeta.cli; print(*(m for m in {heavy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    # -S: no site hooks, so that only the package's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_a_plain_command_builds_no_parser_and_imports_no_locale():
    # building argparse's parser costs milliseconds, and its gettext calls
    # import locale; a plain line needs neither, a line that is not plain
    # (here `--order=5`) needs both
    code = (
        "import io, sys, contextlib\n"
        "from doldzeta import cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(['zeta', '--lefschetz', '[1,1,1,1,1]', *argv])\n"
        "    print(code, len(out.getvalue()), cli._parser is not None, 'locale' in sys.modules)\n"
        "run('-N', '5')\n"
        "run('--order=5')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    first, second = (line.split() for line in proc.stdout.splitlines())
    assert first[0] == "0" and first[:2] == second[:2]
    assert first[2:] == ["False", "False"] and second[2:] == ["True", "True"]


def test_no_state_carries_from_one_command_to_the_next(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    in_process = [run(capsys, *argv) for argv in ONE_PROCESS_SEQUENCE]
    assert in_process == [fresh_run(argv) for argv in ONE_PROCESS_SEQUENCE]
    assert in_process[0][1].startswith("PASS")
    assert json.loads(in_process[1][1])["zeta"]
    assert json.loads(in_process[3][1])["bound"] == 1
    assert json.loads(in_process[4][1])["bound"] == "inf"
    assert in_process[6][0] == 2
    assert json.loads(in_process[7][1])["bound"] == 2
    assert json.loads(in_process[8][1])["bound"] == "inf"
    # the refusal built the one parser of the process, and `--bound=2` reused it
    assert built == [1]


def test_the_parser_is_built_once_and_dispatch_sees_rebound_commands(capsys, monkeypatch):
    # a plain line builds no parser; the first line that is not plain builds
    # the parser of every command, and every later one reuses it
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    argv = ["zeta", "--lefschetz", "[1,1,1]", "-N", "3"]
    code, before, _ = run(capsys, *argv)
    assert code == 0

    seen = []
    original = cli.cmd_zeta

    def wrapped(args):
        seen.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_zeta", wrapped)
    assert run(capsys, *argv) == (0, before, "")
    assert seen == ["zeta"]
    for _ in range(5):
        run(capsys, "order-poly", "--family", '{"ground":3,"max_block":1}')
        run(capsys, *argv)
    assert seen == ["zeta"] * 6
    assert built == []

    # the same line spelled as argparse alone reads it reaches the same command
    assert run(capsys, "zeta", "--lefschetz=[1,1,1]", "-N3") == (0, before, "")
    assert seen == ["zeta"] * 7
    assert built == [1]

    # help, no command and an unknown one are answered by that same parser
    for refused in (["--help"], [], ["frobnicate"]):
        try:
            code = main(refused)
        except SystemExit as exc:  # --help exits from inside the parser
            code = exc.code
        assert code == (0 if refused == ["--help"] else 2)
    assert built == [1]


@pytest.mark.parametrize("expected", ["12", {"1": 2}])
def test_config_trace_expected_traces_must_be_a_list(capsys, expected):
    # a string or an object would be read entry by entry ("12" as [1, 2])
    plan = {"identity": "config-trace", "graded": json.loads(CIRCLE), "parity": "odd",
            "epsilon": -1, "expected_traces": expected}
    code, out, err = run(capsys, "verify", "--plan", json.dumps(plan))
    assert (code, out) == (2, "")
    assert err == ("error: the 'config-trace' plan's 'expected_traces' must be a list, "
                   f"got {type(expected).__name__}\n")


@pytest.mark.parametrize(
    "points",
    [
        # the map's orbit counts differ from the profile's, so dropping either one would pass
        {"profile": {"horizon": 4, "values": [1, 0, 0, 0]}, "map": {"size": 2, "map": [1, 0]}},
        {},
    ],
    ids=["both", "neither"],
)
def test_coeffic_plan_takes_exactly_one_of_profile_and_map(capsys, points):
    plan = {"identity": "coeffic", **points, "euler": -1, "l": 1, "N": 4}
    assert run(capsys, "verify", "--plan", json.dumps(plan)) == (
        2, "", f"error: the 'coeffic' plan takes exactly one of 'profile'/'map', got {len(points)}\n"
    )


COEFFIC_PROFILE = {"horizon": 7, "values": [2, 1, 0, 1, 1, 0, 0]}


@pytest.mark.parametrize("bound, euler", [("inf", 2), (1, 2), (2, -2), (3, -3), ("inf", -1)])
def test_coeffic_reaches_the_sixth_power(capsys, bound, euler):
    plan = {"identity": "coeffic", "profile": COEFFIC_PROFILE, "euler": euler, "l": bound, "N": 6}
    code, out, _ = run(capsys, "verify", "--plan", json.dumps(plan))
    assert code == 0 and json.loads(out)["pass"]


def test_coeffic_seventh_power_is_refused_by_the_group_order_cap(capsys):
    plan = {"identity": "coeffic", "profile": COEFFIC_PROFILE, "euler": 2, "N": 7}
    assert run(capsys, "verify", "--plan", json.dumps(plan)) == (
        2, "", "error: group closure exceeded the order cap 720\n"
    )


def test_group_element_list_has_the_generators_order_cap(capsys):
    from itertools import permutations

    s6 = [list(p) for p in permutations(range(6))]
    argv = ["gsymm", "--map", json.dumps({"size": 2, "map": [1, 0]}), "--group"]
    code, _, _ = run(capsys, *argv, json.dumps({"degree": 6, "elements": s6}))
    assert code == 0
    # S6 x S2 on 8 points: 1440 elements, refused before any closure check
    s6_s2 = [p + [6, 7] for p in s6] + [p + [7, 6] for p in s6]
    assert run(capsys, *argv, json.dumps({"degree": 8, "elements": s6_s2})) == (
        2, "", "error: a group of 1440 elements exceeds the order cap 720\n"
    )
