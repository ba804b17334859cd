"""Golden outputs: the exact stdout and exit code of `selftest`, of every
README example command (as JSON and, where it has one, in its text form),
of `verify --plan` on each built-in plan, of `graded` on blocks in three
degrees, of `gsymm` and `partition` over groups of degree 5, and of the
top-level `--help` (which must list every command).  One more file,
`library.txt`, pins the JSON of the polynomial calculus's library results,
which no command prints: bounded symmetric powers, orbit-count polynomials
of functors, composites, functor expressions and realizations.

The JSON files under tests/golden/ were written from the code before the
series kernels were unified, the `-text` files from the code before the
commands stopped printing their own output, and the degree-5 group files
from the code before the group average ran over integer numerators,
`library.txt` from the code before `MultiPoly` stored integer numerators,
and the series files (`zeta`, `symmetric`, `borsuk-ulam`, `tuples`,
`config-trace` at orders up to 64) from the code before `PowerSeries` and
`Poly` stored integer numerators, and the `parser-*` files (a command's
help and each kind of refusal, stderr included) from the code before a run
built the parser of its own command only, except the five added for
spellings only argparse reads (`--ord`, `--order=5`, `-N5`), a negative
value and a repeated flag, which were written from the code before plain
lines were read without argparse.  The `reduced-*` files (`dold --reduced`,
`zeta --reduced` on map, Lefschetz, profile and graded input, and two
refusals, stderr included) were written from the code before `--reduced`
divided the unreduced series by 1 - q on every input, when map, profile and
Lefschetz input lowered D_1 instead.  The `graded` files at the edges of
the trace recurrence (a dense 3x3 block at orders 2, 3 and 4, a nilpotent
block beside one that is not, a rational block and the cancelling identity
of S^1) and `partition-s3-gset` were written from the code before the
traces past a block's dimension came from Newton's identities.  Any
refactor must leave every byte the same.  To regenerate them after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from doldzeta import MultiPoly
from doldzeta import identities as ids
from doldzeta.cli import SELFTEST_PLANS, main

GOLDEN = Path(__file__).parent / "golden"

README_EXAMPLES = [
    ("readme-dold", ["dold", "--map", '{"size":3,"map":[1,2,0]}', "-N", "6"]),
    ("readme-symmetric", ["symmetric", "--lefschetz", "[-1,-3,-7,-15,-31]", "-l", "1", "-N", "4"]),
    ("readme-borsuk-ulam", ["borsuk-ulam", "--profile", '{"horizon":6,"values":[3,0,0,0,0,0]}', "-N", "6"]),
    ("readme-tuples", ["tuples", "--lefschetz-number", "2", "-l", "1", "-N", "4"]),
    (
        "readme-gsymm",
        ["gsymm", "--group", '{"degree":2,"elements":[[0,1],[1,0]]}', "--map", '{"size":2,"map":[0,1]}'],
    ),
    (
        "readme-partition",
        [
            "partition",
            "--group", '{"degree":2,"elements":[[0,1],[1,0]]}',
            "--family", '{"ground":2,"max_block":1}',
            "--map", '{"size":2,"map":[0,1]}',
        ],
    ),
    ("readme-order-poly", ["order-poly", "--family", '{"ground":3,"max_block":1}', "--at", "3"]),
    ("readme-graded", ["graded", "--matrices", '{"degrees":{"0":[["1"]],"1":[["-1"]]}}', "-N", "6"]),
    (
        "readme-config-trace",
        [
            "config-trace",
            "--graded", '{"degrees":{"0":[["1"]],"1":[["-1"]]}}',
            "--parity", "odd", "--epsilon", "-1", "-N", "6",
        ],
    ),
    ("readme-verify", ["verify", "--plan", '{"identity":"md","map":{"size":4,"map":[1,0,3,3]}}']),
    ("readme-selftest", ["selftest"]),
]

PLAN_CASES = [
    (f"plan-{i}", ["verify", "--plan", json.dumps(plan, sort_keys=True)])
    for i, (_, plan) in enumerate(SELFTEST_PLANS)
]

# every README command but `selftest` (which prints text only) again in
# its `--format text` form
TEXT_CASES = [
    (f"{name}-text", argv + ["--format", "text"])
    for name, argv in README_EXAMPLES
    if argv[0] != "selftest"
]

# `graded` with blocks in three degrees, so that the Poincaré series mixes
# inverted even factors with direct odd ones at several T-shifts; the second
# case gives each degree its own denominator, so the common one is not 1
GRADED_CASES = [
    (
        "graded-three-degrees",
        [
            "graded",
            "--matrices", '{"degrees":{"0":[["1","1"],["0","2"]],"1":[["-1"]],"2":[["1/2"]]}}',
            "-N", "16",
        ],
    ),
    (
        "graded-mixed-denominators",
        [
            "graded",
            "--matrices",
            '{"degrees":{"0":[["1/3","1"],["0","2"]],"1":[["-2/5"]],"2":[["3/4","1/2"],["-1","0"]]}}',
            "-N", "24",
        ],
    ),
]

# `graded` where the traces leave the running powers: a dense 3x3 block
# below, at and one past its dimension, a nilpotent block beside one that
# is not, a rational 3x3 block (common denominator 12) beside a 1x1 one,
# and the identity of S^1, whose characteristic function cancels to 1
DENSE_3X3 = '{"degrees":{"0":[["2","1","0"],["-1","3","1"],["1","-2","-1"]]}}'
GRADED_CASES += [(f"graded-dense-3x3-order-{n}", ["graded", "--matrices", DENSE_3X3, "-N", str(n)])
                 for n in (2, 3, 4)]
GRADED_CASES += [
    (
        "graded-nilpotent-beside-invertible",
        [
            "graded",
            "--matrices", '{"degrees":{"0":[["0","2","1"],["0","0","-3"],["0","0","0"]],"1":[["2","1"],["1","1"]]}}',
            "-N", "12",
        ],
    ),
    (
        "graded-rational-recurrence",
        [
            "graded",
            "--matrices",
            '{"degrees":{"0":[["1/2","1/3","0"],["-1","2/3","1/6"],["1/4","0","-1/2"]],"1":[["3/2"]]}}',
            "-N", "10",
        ],
    ),
    ("graded-cancelling", ["graded", "--matrices", '{"degrees":{"0":[["1"]],"1":[["1"]]}}', "-N", "6"]),
]

# `gsymm` and `partition` at a realistic size, beyond the S2 of the README:
# S5 with a coefficient set, S3xS2 (by generators) with a `refines` family
# and a coefficient set, and D5 with a block bound, each also as text
GROUP_JSON_CASES = [
    (
        "gsymm-s5-coefficient",
        [
            "gsymm",
            "--group", '{"degree":5,"generators":[[1,2,3,4,0],[1,0,2,3,4]]}',
            "--coefficient-size", "3",
            "--map", '{"size":4,"map":[1,2,0,3]}',
        ],
    ),
    (
        "partition-s3xs2-refines-coefficient",
        [
            "partition",
            "--group", '{"degree":5,"generators":[[1,2,0,3,4],[1,0,2,3,4],[0,1,2,4,3]]}',
            "--family", '{"ground":5,"refines":[[0,1,2],[3,4]]}',
            "--coefficient-size", "2",
            "--map", '{"size":4,"map":[1,0,3,3]}',
        ],
    ),
    (
        "partition-d5-max-block",
        [
            "partition",
            "--group", '{"degree":5,"generators":[[1,2,3,4,0],[0,4,3,2,1]]}',
            "--family", '{"ground":5,"max_block":3}',
            "--map", '{"size":5,"map":[1,0,2,3,3]}',
        ],
    ),
    # S3 acting on 4 points through an explicit G-set: the natural action on
    # 0..2 with 3 fixed, each row given under its element's index
    (
        "partition-s3-gset",
        [
            "partition",
            "--group", '{"degree":3,"elements":[[2,1,0],[0,1,2],[1,2,0],[0,2,1],[2,0,1],[1,0,2]]}',
            "--gset",
            '{"size":4,"action":{"0":[0,1,2,3],"1":[0,2,1,3],"2":[1,0,2,3],'
            '"3":[1,2,0,3],"4":[2,0,1,3],"5":[2,1,0,3]}}',
            "--family", '{"ground":4,"refines":[[0,1,2],[3]]}',
            "--map", '{"size":5,"map":[1,2,0,4,4]}',
        ],
    ),
]
GROUP_CASES = GROUP_JSON_CASES + [
    (f"{name}-text", argv + ["--format", "text"]) for name, argv in GROUP_JSON_CASES
]


def _sphere(degree, dimension, order):
    """The Lefschetz numbers 1 + (-1)^n d^k, k = 1..order, of a degree-d
    self-map of S^n, as a JSON list."""
    return json.dumps([1 + (-1) ** dimension * degree ** k for k in range(1, order + 1)])


# the series commands at the orders of the benchmark: integral series
# (zeta, symmetric powers, subset spaces, configuration traces) and the
# non-integral exponential generating function of the tuple spaces, each
# also as text
SERIES_JSON_CASES = [
    ("zeta-sphere-degree-minus-2", ["zeta", "--lefschetz", _sphere(-2, 2, 48), "-N", "48"]),
    ("symmetric-bound-2", ["symmetric", "--lefschetz", _sphere(3, 1, 32), "-l", "2", "-N", "32"]),
    (
        "borsuk-ulam-profile",
        ["borsuk-ulam", "--profile", json.dumps({"horizon": 40, "values": [m % 4 for m in range(40)]}),
         "-N", "40"],
    ),
    ("tuples-order-64", ["tuples", "--lefschetz-number", "-6", "-l", "3", "-N", "64"]),
    (
        "config-trace-even",
        ["config-trace", "--lefschetz", _sphere(4, 2, 40), "--parity", "even", "--epsilon", "-1",
         "-N", "40"],
    ),
]
SERIES_CASES = SERIES_JSON_CASES + [
    (f"{name}-text", argv + ["--format", "text"]) for name, argv in SERIES_JSON_CASES
]

CASES = (
    README_EXAMPLES + TEXT_CASES + PLAN_CASES + GRADED_CASES + GROUP_CASES + SERIES_CASES
    + [("help", ["--help"])]
)

# the zeta function divided by 1 - q, from `dold` and from `zeta` on each
# input the command takes: a map with tails, a sphere map's Lefschetz
# numbers, a profile with negative entries and a graded endomorphism with a
# common denominator, each also as text; then two refusals, Lefschetz
# numbers no map realizes and a profile short of the order
REDUCED_JSON_CASES = [
    ("reduced-dold-map", ["dold", "--map", '{"size":7,"map":[1,2,0,3,3,6,5]}', "--reduced", "-N", "12"]),
    ("reduced-zeta-map", ["zeta", "--map", '{"size":6,"map":[1,0,3,3,2,4]}', "--reduced", "-N", "16"]),
    ("reduced-zeta-lefschetz", ["zeta", "--lefschetz", _sphere(3, 2, 24), "--reduced", "-N", "24"]),
    (
        "reduced-zeta-profile",
        ["zeta", "--profile", '{"horizon":10,"values":[-2,1,0,-1,3,0,0,1,0,-1]}', "--reduced",
         "-N", "10"],
    ),
    (
        "reduced-zeta-graded",
        ["zeta", "--graded", '{"degrees":{"0":[["1/2","1"],["0","2"]],"1":[["-1/3"]]}}', "--reduced",
         "-N", "12"],
    ),
]
REDUCED_CASES = REDUCED_JSON_CASES + [
    (f"{name}-text", argv + ["--format", "text"]) for name, argv in REDUCED_JSON_CASES
] + [
    ("reduced-refused-lefschetz", ["zeta", "--lefschetz", "[1,2,3]", "--reduced", "-N", "3"]),
    ("reduced-refused-short-profile",
     ["zeta", "--profile", '{"horizon":2,"values":[1,-2]}', "--reduced", "-N", "3"]),
]

# the parser's own output, pinned with stderr: a command's help, and each
# kind of refusal (an unknown command names every choice, in order)
PARSER_CASES = [
    ("parser-verify-help", ["verify", "--help"]),
    ("parser-selftest-help", ["selftest", "--help"]),
    ("parser-zeta-help", ["zeta", "-h"]),
    ("parser-unknown-command", ["frobnicate", "--map", "{}"]),
    ("parser-no-command", []),
    ("parser-verify-without-plan", ["verify"]),
    ("parser-unrecognised-flag", ["zeta", "--lefschetz", "[1,1,1]", "--frobnicate"]),
    ("parser-flag-before-command", ["--frobnicate", "zeta", "--lefschetz", "[1,1,1]"]),
    ("parser-bad-choice", ["graded", "--matrices", "{}", "--format", "xml"]),
    # spellings argparse accepts beyond one whole flag and its value in the
    # next word, a negative value, and a flag given twice (the last one wins)
    ("parser-abbreviated-flag", ["zeta", "--lefschetz", "[1,1,1,1,1]", "--ord", "5"]),
    ("parser-flag-equals-value", ["zeta", "--lefschetz", "[1,1,1,1,1]", "--order=5"]),
    ("parser-attached-short-value", ["zeta", "--lefschetz", "[1,1,1,1,1]", "-N5"]),
    ("parser-negative-value", ["config-trace", "--lefschetz", "[2,0,2,0]", "--parity", "odd",
                               "--epsilon", "-1", "-N", "4"]),
    ("parser-repeated-flag", ["dold", "--map", '{"size":2,"map":[1,0]}',
                              "--map", '{"size":3,"map":[1,2,0]}', "-N", "4"]),
]


def _library_cases():
    """(name, thunk) pairs whose results are pinned as JSON in library.txt."""
    power = ids.bounded_power_polynomial
    cases = [
        (f"bounded_power_polynomial({k}, {l})", partial(power, k, l))
        for k in range(7)
        for l in (None, 1, 2)
    ]
    cases += [
        (f"dold_polynomial_of_functor(SP^{k}_{l}, {m})",
         lambda k=k, l=l, m=m: ids.dold_polynomial_of_functor(power(k, l), m))
        for k in range(4)
        for l in (None, 1)
        for m in (1, 2, 3)
    ]
    cases += [
        (f"compose_lefschetz(SP^{k}_{l}, SP^{j}_{b})",
         lambda k=k, l=l, j=j, b=b: ids.compose_lefschetz(power(k, l), power(j, b)))
        for k, l, j, b in [(2, None, 2, None), (2, 1, 3, None), (3, None, 2, 1), (2, None, 0, None)]
    ]
    odd = ids.ConstantSphereSmash("odd")
    square = ids.BoundedSymmetricPower(2, 2)
    expressions = {
        "odd sphere smash SP^2": ids.Smash((odd, square)),
        "SP^2_1 of a wedge, wedged with an odd sphere smash X": ids.Wedge((
            ids.Compose(ids.BoundedSymmetricPower(2, 1), ids.Wedge((ids.IdentityFunctor(), square))),
            ids.Smash((odd, ids.IdentityFunctor())),
        )),
    }
    cases += [
        (f"expression_polynomial({name})", partial(ids.expression_polynomial, expr))
        for name, expr in expressions.items()
    ]
    targets = {
        "(t1^2 + t2)/2 - t1/3": MultiPoly(2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
                                              (1, 0): Fraction(-1, 3)}),
        "t1*t2/6 + 5/4 - 2*t3/5": MultiPoly(3, {(1, 1, 0): Fraction(1, 6), (0, 0, 0): Fraction(5, 4),
                                                (0, 0, 1): Fraction(-2, 5)}),
    }
    cases += [
        (f"realize_polynomial({name})", partial(ids.realize_polynomial, target, target.nvars))
        for name, target in targets.items()
    ]
    return cases


def render_library() -> str:
    """One line per library case: its name and the JSON of its result (a
    realization as its multiple r, its expression's repr and the expression's
    polynomial)."""
    lines = []
    for name, thunk in _library_cases():
        result = thunk()
        if isinstance(result, tuple):
            r, expr = result
            value = {"r": r, "expression": repr(expr),
                     "polynomial": ids.expression_polynomial(expr).to_json()}
        else:
            value = result.to_json()
        lines.append(f"{name}: {json.dumps(value)}\n")
    return "".join(lines)


def render(argv) -> str:
    """The exit code line followed by the exact stdout of one in-process run;
    help text is wrapped at 80 columns whatever the terminal."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help exits from inside the parser
            code = exc.code
    return f"exit {code}\n{out.getvalue()}"


def render_with_stderr(argv) -> str:
    """`render`, then the exact stderr of the same run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        text = render(argv)
    return f"{text}--- stderr\n{err.getvalue()}"


def test_cases_cover_every_selftest_plan():
    assert len(PLAN_CASES) == len(SELFTEST_PLANS) == 9
    assert len(README_EXAMPLES) == 11
    assert len(TEXT_CASES) == 10


def test_help_lists_every_command():
    commands = {argv[0] for _, argv in README_EXAMPLES} | {"zeta"}
    help_text = (GOLDEN / "help.txt").read_text(encoding="utf-8")
    assert help_text.startswith("exit 0\nusage: dold-zeta")
    assert all(f"\n    {command} " in help_text for command in commands)
    assert len(commands) == 12


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(argv) == expected


@pytest.mark.parametrize("name,argv", PARSER_CASES, ids=[name for name, _ in PARSER_CASES])
def test_golden_parser_output(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render_with_stderr(argv) == expected


@pytest.mark.parametrize("name,argv", REDUCED_CASES, ids=[name for name, _ in REDUCED_CASES])
def test_golden_reduced_output(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render_with_stderr(argv) == expected


def test_golden_library_json():
    expected = (GOLDEN / "library.txt").read_text(encoding="utf-8")
    assert render_library() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
    for name, argv in PARSER_CASES + REDUCED_CASES:
        (GOLDEN / f"{name}.txt").write_text(render_with_stderr(argv), encoding="utf-8")
    (GOLDEN / "library.txt").write_text(render_library(), encoding="utf-8")
